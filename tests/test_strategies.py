"""Aggregation-rule checks: importance, hooks, reductions between strategies."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from fednorm import data, nn, simulation, strategies


def make_update(client_id, weights, n=10, tau=4, z=None, cv_delta=None):
    return strategies.ClientUpdate(
        client_id=client_id,
        weights=np.asarray(weights, dtype=np.float64),
        z=np.ones(3) if z is None else z,
        n=n,
        tau=tau,
        cv_delta=cv_delta,
    )


def random_updates(rng, count, size, **kwargs):
    return [make_update(i, rng.normal(size=size), **kwargs) for i in range(count)]


def training_setup(seed=0):
    """Tiny shard + spec + broadcast weights shared by the reduction tests."""
    ds = data.generate_synthetic(3, 5, 30, 3.0, seed=seed)
    spec = nn.ModelSpec((5, 8, 3))
    params = nn.init_model(spec, seed + 1)
    client = simulation.ClientState(0, np.arange(len(ds)), seed=seed + 2)
    return ds, spec, params, client


class TestStrategyConfig:
    def test_defaults(self):
        cfg = strategies.StrategyConfig()
        assert cfg.kind == "fedavg" and cfg.mu == 0.01 and cfg.beta == 0.9

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="strategy"):
            strategies.StrategyConfig(kind="fedsgd")

    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError, match="mu"):
            strategies.StrategyConfig(mu=-0.1)
        with pytest.raises(ValueError, match="beta"):
            strategies.StrategyConfig(beta=1.0)
        with pytest.raises(ValueError, match="server_lr"):
            strategies.StrategyConfig(server_lr=0.0)


class TestImportance:
    def test_equal_samples(self):
        updates = [make_update(0, np.ones(2), n=10), make_update(1, np.ones(2), n=10)]
        assert_array_equal(strategies.importance(updates), [0.5, 0.5])

    def test_proportional_samples(self):
        updates = [make_update(0, np.ones(2), n=30), make_update(1, np.ones(2), n=10)]
        assert_array_equal(strategies.importance(updates), [0.75, 0.25])

    def test_single_client(self):
        updates = [make_update(0, np.ones(2), n=7)]
        assert_array_equal(strategies.importance(updates), [1.0])

    def test_rejects_empty_or_nonpositive(self):
        with pytest.raises(ValueError, match="empty"):
            strategies.importance([])
        with pytest.raises(ValueError, match="positive"):
            strategies.importance([make_update(0, np.ones(2), n=0)])


class TestLocalHooks:
    def test_fedavg_hooks_are_identity(self):
        spec = nn.ModelSpec((3, 4, 2))
        cfg = strategies.StrategyConfig()
        params = np.zeros(spec.param_count())
        state = strategies.init_strategy_state(cfg, spec, params, 1)
        hooks = strategies.local_hooks(cfg, state, params, 0)
        assert hooks.prox is None and hooks.grad_correction is None
        assert hooks.freeze is None and hooks.scaffold_c is None

    def test_fedprox_anchor_is_broadcast(self):
        spec = nn.ModelSpec((3, 4, 2))
        anchor = np.arange(spec.param_count(), dtype=np.float64)
        cfg = strategies.StrategyConfig(kind="fedprox", mu=0.2)
        state = strategies.init_strategy_state(cfg, spec, anchor, 1)
        hooks = strategies.local_hooks(cfg, state, anchor, 0)
        mu, got = hooks.prox
        assert mu == 0.2
        assert got is anchor

    def test_scaffold_correction(self):
        spec = nn.ModelSpec((3, 4, 2))
        c = np.full(spec.param_count(), 0.5)
        c_i = np.full(spec.param_count(), 0.2)
        cfg = strategies.StrategyConfig(kind="scaffold")
        params = np.zeros(spec.param_count())
        state = strategies.init_strategy_state(cfg, spec, params, 1)
        state.c, state.client_c[0] = c, c_i
        hooks = strategies.local_hooks(cfg, state, params, 0)
        assert_array_equal(hooks.grad_correction, c - c_i)
        assert hooks.scaffold_c is c

    def test_fedbabu_freezes_output_layer(self):
        spec = nn.ModelSpec((3, 4, 2))
        cfg = strategies.StrategyConfig(kind="fedbabu")
        params = np.zeros(spec.param_count())
        state = strategies.init_strategy_state(cfg, spec, params, 1)
        hooks = strategies.local_hooks(cfg, state, params, 0)
        assert hooks.freeze == spec.layer_span(spec.num_layers - 1)


class TestTrainingReductions:
    def test_fedprox_zero_mu_matches_fedavg_bitwise(self):
        ds, spec, params, client = training_setup()
        kwargs = dict(epochs=2, batch_size=8, optimizer=nn.OptimizerState(), round_index=0)
        plain = simulation.local_train(
            spec, ds, client, params, hooks=strategies.LocalHooks(), **kwargs
        )
        cfg = strategies.StrategyConfig(kind="fedprox", mu=0.0)
        state = strategies.init_strategy_state(cfg, spec, params, client.client_id + 1)
        prox = simulation.local_train(
            spec, ds, client, params,
            hooks=strategies.local_hooks(cfg, state, params, client.client_id),
            **kwargs,
        )
        assert_array_equal(plain.weights, prox.weights)
        assert_array_equal(plain.z, prox.z)

    def test_scaffold_zero_variates_match_plain_sgd(self):
        ds, spec, params, client = training_setup()
        size = spec.param_count()
        kwargs = dict(
            epochs=1, batch_size=len(ds), optimizer=nn.OptimizerState(kind="sgd", lr=0.1),
            round_index=0,
        )
        plain = simulation.local_train(
            spec, ds, client, params, hooks=strategies.LocalHooks(), **kwargs
        )
        cfg = strategies.StrategyConfig(kind="scaffold")
        state = strategies.init_strategy_state(cfg, spec, params, client.client_id + 1)
        state.c, state.client_c[client.client_id] = np.zeros(size), np.zeros(size)
        corrected = simulation.local_train(
            spec, ds, client, params,
            hooks=strategies.local_hooks(cfg, state, params, client.client_id),
            **kwargs,
        )
        assert corrected.tau == 1  # single batch, one local step
        assert_allclose(corrected.weights, plain.weights, rtol=0, atol=1e-12)
        # zero server variate makes the reported delta the scaled drift itself
        assert_allclose(
            corrected.cv_delta, (params - corrected.weights) / 0.1, rtol=1e-12
        )

    def test_fedbabu_head_stays_at_broadcast(self):
        ds, spec, params, client = training_setup()
        head = spec.layer_span(spec.num_layers - 1)
        cfg = strategies.StrategyConfig(kind="fedbabu")
        state = strategies.init_strategy_state(cfg, spec, params, client.client_id + 1)
        update = simulation.local_train(
            spec, ds, client, params,
            epochs=3, batch_size=8, optimizer=nn.OptimizerState(),
            hooks=strategies.local_hooks(cfg, state, params, client.client_id),
            round_index=0,
        )
        assert_array_equal(update.weights[head], params[head])
        body = slice(0, head.start)
        assert not np.array_equal(update.weights[body], params[body])


def fresh_state(cfg, spec, params, num_clients=4):
    return strategies.init_strategy_state(cfg, spec, params, num_clients)


class TestAggregate:
    def test_fedavg_two_client_mean(self):
        cfg = strategies.StrategyConfig()
        updates = [make_update(0, [1.0, 3.0]), make_update(1, [3.0, 1.0])]
        new, _ = strategies.aggregate(
            np.zeros(2), updates, np.array([0.5, 0.5]), cfg, fresh_state(cfg, None, np.zeros(2))
        )
        assert_array_equal(new, [2.0, 2.0])

    def test_averaging_stays_in_convex_hull(self):
        rng = np.random.default_rng(10)
        cfg = strategies.StrategyConfig()
        for _ in range(20):
            updates = random_updates(rng, 5, 12)
            u = rng.dirichlet(np.ones(5))
            new, _ = strategies.aggregate(
                np.zeros(12), updates, u, cfg, fresh_state(cfg, None, np.zeros(12))
            )
            stacked = np.stack([up.weights for up in updates])
            assert np.all(new >= stacked.min(axis=0) - 1e-12)
            assert np.all(new <= stacked.max(axis=0) + 1e-12)

    def test_sgdm_zero_beta_unit_lr_equals_fedavg_exactly(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            updates = random_updates(rng, 4, 9)
            u = rng.dirichlet(np.ones(4))
            global_params = rng.normal(size=9)
            avg_cfg = strategies.StrategyConfig()
            mom_cfg = strategies.StrategyConfig(kind="sgdm", beta=0.0, server_lr=1.0)
            fedavg, _ = strategies.aggregate(
                global_params, updates, u, avg_cfg, fresh_state(avg_cfg, None, global_params)
            )
            sgdm, _ = strategies.aggregate(
                global_params, updates, u, mom_cfg, fresh_state(mom_cfg, None, global_params)
            )
            assert_array_equal(sgdm, fedavg)

    def test_sgdm_matches_hand_recurrence_across_rounds(self):
        rng = np.random.default_rng(12)
        beta, lr = 0.7, 0.5
        cfg = strategies.StrategyConfig(kind="sgdm", beta=beta, server_lr=lr)
        global_params = rng.normal(size=6)
        state = fresh_state(cfg, None, global_params)
        momentum = np.zeros(6)
        for _ in range(3):
            updates = random_updates(rng, 3, 6)
            u = rng.dirichlet(np.ones(3))
            new, state = strategies.aggregate(global_params, updates, u, cfg, state)
            avg = sum(w * up.weights for w, up in zip(u, updates))
            momentum = beta * momentum + (global_params - avg)
            assert_allclose(new, global_params - lr * momentum, rtol=1e-12, atol=1e-14)
            global_params = new

    def test_fednova_equal_tau_reduces_to_fedavg(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            updates = random_updates(rng, 4, 9, tau=6)
            u = rng.dirichlet(np.ones(4))
            global_params = rng.normal(size=9)
            avg_cfg = strategies.StrategyConfig()
            nova_cfg = strategies.StrategyConfig(kind="fednova")
            fedavg, _ = strategies.aggregate(
                global_params, updates, u, avg_cfg, fresh_state(avg_cfg, None, global_params)
            )
            nova, _ = strategies.aggregate(
                global_params, updates, u, nova_cfg, fresh_state(nova_cfg, None, global_params)
            )
            assert_allclose(nova, fedavg, rtol=0, atol=1e-12)

    def test_fednova_hand_computed_step(self):
        cfg = strategies.StrategyConfig(kind="fednova")
        global_params = np.array([1.0, 2.0])
        updates = [
            make_update(0, [0.0, 0.0], tau=2),
            make_update(1, [2.0, 0.0], tau=8),
        ]
        u = np.array([0.5, 0.5])
        new, _ = strategies.aggregate(
            global_params, updates, u, cfg, fresh_state(cfg, None, global_params)
        )
        # tau_eff = 5; d = 0.5*([1,2]/2) + 0.5*([-1,2]/8) = [0.1875, 0.625]
        assert_allclose(new, global_params - 5.0 * np.array([0.1875, 0.625]), rtol=1e-15)

    def test_scaffold_update_and_variate_recurrence(self):
        cfg = strategies.StrategyConfig(kind="scaffold", server_lr=0.8)
        global_params = np.array([1.0, -1.0, 0.5])
        state = fresh_state(cfg, None, global_params, num_clients=4)
        updates = [
            make_update(0, [0.5, -1.0, 0.0], tau=2, cv_delta=np.array([0.1, 0.0, -0.1])),
            make_update(2, [1.0, 0.0, 1.0], tau=3, cv_delta=np.array([-0.3, 0.2, 0.1])),
        ]
        u = np.array([0.25, 0.75])
        new, state = strategies.aggregate(global_params, updates, u, cfg, state)
        drift = 0.25 * (global_params - updates[0].weights) + 0.75 * (
            global_params - updates[1].weights
        )
        assert_allclose(new, global_params - 0.8 * drift, rtol=1e-15)
        expected_c = (2 / 4) * (updates[0].cv_delta + updates[1].cv_delta) / 2
        assert_allclose(state.c, expected_c, rtol=1e-15)
        assert_array_equal(state.client_c[0], updates[0].cv_delta)
        assert_array_equal(state.client_c[2], updates[1].cv_delta)
        assert_array_equal(state.client_c[1], 0.0)

    def test_scaffold_requires_variate_deltas(self):
        cfg = strategies.StrategyConfig(kind="scaffold")
        updates = [make_update(0, [1.0, 1.0]), make_update(1, [0.0, 0.0])]
        with pytest.raises(ValueError, match="variate"):
            strategies.aggregate(
                np.zeros(2), updates, np.array([0.5, 0.5]), cfg,
                fresh_state(cfg, None, np.zeros(2)),
            )

    def test_fedbabu_restores_frozen_head(self):
        spec = nn.ModelSpec((3, 4, 2))
        cfg = strategies.StrategyConfig(kind="fedbabu")
        initial = nn.init_model(spec, 21)
        state = strategies.init_strategy_state(cfg, spec, initial, num_clients=3)
        rng = np.random.default_rng(22)
        current = initial
        for _ in range(4):
            updates = random_updates(rng, 3, spec.param_count())
            for up in updates:  # clients never move the head
                up.weights[state.head] = current[state.head]
            u = rng.dirichlet(np.ones(3))
            current, state = strategies.aggregate(current, updates, u, cfg, state)
            assert_array_equal(current[state.head], initial[state.head])

    def test_rejects_weight_mismatch(self):
        cfg = strategies.StrategyConfig()
        updates = [make_update(0, [1.0, 2.0, 3.0])]
        with pytest.raises(ValueError, match="shape"):
            strategies.aggregate(
                np.zeros(2), updates, np.array([1.0]), cfg, fresh_state(cfg, None, np.zeros(2))
            )

    def test_rejects_unnormalized_weights(self):
        cfg = strategies.StrategyConfig()
        updates = [make_update(0, [1.0, 2.0]), make_update(1, [0.0, 0.0])]
        with pytest.raises(ValueError, match="sum to 1"):
            strategies.aggregate(
                np.zeros(2), updates, np.array([0.9, 0.4]), cfg,
                fresh_state(cfg, None, np.zeros(2)),
            )

    def test_rejects_non_finite_result(self):
        cfg = strategies.StrategyConfig()
        updates = [make_update(0, [np.inf, 1.0]), make_update(1, [0.0, 0.0])]
        with pytest.raises(nn.TrainingDiverged):
            strategies.aggregate(
                np.zeros(2), updates, np.array([0.5, 0.5]), cfg,
                fresh_state(cfg, None, np.zeros(2)),
            )


class TestNormalizationComposability:
    def test_identical_latents_leave_every_strategy_unchanged(self):
        """With equal mean latents the rescaled weights equal the importance
        weights bitwise, so each strategy aggregates identically."""
        from fednorm import contribution as co

        rng = np.random.default_rng(30)
        z = rng.normal(size=5)
        spec = nn.ModelSpec((3, 4, 2))
        global_params = nn.init_model(spec, 31)
        size = spec.param_count()
        for kind in strategies.STRATEGY_KINDS:
            cfg = strategies.StrategyConfig(kind=kind)
            updates = [
                make_update(
                    i, rng.normal(size=size), n=20, tau=4, z=z,
                    cv_delta=np.zeros(size) if kind == "scaffold" else None,
                )
                for i in range(4)
            ]
            if kind == "fedbabu":
                head = spec.layer_span(spec.num_layers - 1)
                for up in updates:
                    up.weights[head] = global_params[head]
            nu = strategies.importance(updates)
            latents = [co.MeanLatent(up.client_id, up.z) for up in updates]
            lam = co.contribution_factors(co.similarity_matrix(latents), 0.5)
            u = co.normalize_weights(lam, nu)
            assert_array_equal(u, nu)
            plain, _ = strategies.aggregate(
                global_params, updates, nu, cfg, fresh_state(cfg, spec, global_params)
            )
            normalized, _ = strategies.aggregate(
                global_params, updates, u, cfg, fresh_state(cfg, spec, global_params)
            )
            assert_array_equal(normalized, plain)
