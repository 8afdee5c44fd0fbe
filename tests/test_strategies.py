"""Aggregation-rule checks: importance, gradient hooks, reductions between strategies."""

import itertools
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from fednorm import config, data, nn, simulation, strategies


def make_update(client_id, weights, n=10, tau=4):
    return strategies.ClientUpdate(
        client_id=client_id,
        weights=np.asarray(weights, dtype=np.float64),
        n=n,
        tau=tau,
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
        cfg = config.StrategyConfig()
        assert cfg.kind == "fedavg" and cfg.mu == 0.01 and cfg.beta == 0.9

    def test_rejects_unknown_kind(self):
        with pytest.raises(config.ConfigError, match=r"^kind must be one of \('fedavg'"):
            config.StrategyConfig(kind="fedsgd")

    def test_rejects_bad_ranges(self):
        with pytest.raises(config.ConfigError, match=r"^mu must be >= 0\.0, got -0\.1"):
            config.StrategyConfig(mu=-0.1)
        with pytest.raises(config.ConfigError, match=r"^beta must be < 1\.0, got 1\.0"):
            config.StrategyConfig(beta=1.0)
        with pytest.raises(config.ConfigError, match=r"^server_lr must be positive, got 0\.0"):
            config.StrategyConfig(server_lr=0.0)


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


def fresh_rule(cfg, spec, params, num_clients=4, optimizer=None):
    """The rule for ``cfg``; local sgd unless ``optimizer`` says otherwise."""
    optimizer = optimizer or config.OptimizerSettings(kind="sgd", lr=0.1)
    return strategies.RULES[cfg.kind](cfg, spec, params, num_clients, optimizer)


class TestRuleTable:
    def test_kinds_are_the_table_keys_in_order(self):
        assert strategies.STRATEGY_KINDS == (
            "fedavg", "fedprox", "scaffold", "sgdm", "fednova", "fedbabu"
        )
        assert tuple(strategies.RULES) == strategies.STRATEGY_KINDS
        for rule in strategies.RULES.values():
            assert issubclass(rule, strategies.FedAvg)

    def test_scaffold_requires_sgd(self):
        """A rule built without a RunConfig still checks its local optimizer."""
        with pytest.raises(ValueError, match="scaffold requires the sgd local optimizer, got 'adam'"):
            fresh_rule(
                config.StrategyConfig(kind="scaffold"), None, np.zeros(4),
                optimizer=config.OptimizerSettings(),
            )


def adjusted(adjust, params, grad):
    """What ``adjust`` makes of a copy of ``grad`` when called block by block,
    as ``nn.optimizer_step`` calls it; ``params`` must stay as it is."""
    before, out = params.copy(), grad.copy()
    scratch = np.empty(min(len(params), nn.BLOCK))
    for start in range(0, len(params), nn.BLOCK):
        span = slice(start, start + nn.BLOCK)
        p, g = params[span], out[span]
        adjust(span, p, g, scratch[: len(p)])
    assert_array_equal(params, before)
    return out


class TestLocalHooks:
    """Each rule's hook, checked bit for bit on a random gradient vector."""

    spec = nn.ModelSpec((3, 4, 2))

    def vectors(self, seed, count):
        rng = np.random.default_rng(seed)
        return [rng.normal(size=self.spec.param_count()) for _ in range(count)]

    def test_fedavg_hooks_are_identity(self):
        (params,) = self.vectors(0, 1)
        for cfg in (
            config.StrategyConfig(),
            config.StrategyConfig(kind="sgdm"),
            config.StrategyConfig(kind="fednova"),
            config.StrategyConfig(kind="fedprox", mu=0.0),
        ):
            assert fresh_rule(cfg, self.spec, params, 1).hooks(params, 0) is None, cfg.kind

    def test_fedprox_anchor_is_broadcast(self):
        anchor, params, other, grad = self.vectors(1, 4)
        cfg = config.StrategyConfig(kind="fedprox", mu=0.2)
        adjust = fresh_rule(cfg, self.spec, anchor, 1).hooks(anchor, 0)
        # one hook serves call after call, each seeing only its own params
        for p in (params, other, params):
            assert_array_equal(adjusted(adjust, p, grad), grad + (p - anchor) * 0.2)

    def test_hooks_cover_every_block(self):
        """Called by ``nn.optimizer_step`` block by block, ragged last block
        included, every hook gives the bits of its whole-vector correction
        followed by a plain sgd or adam step, step after step: each block's
        hook sees that block's params before their update.  The fedbabu
        heads straddle block boundaries or lie wholly inside the last block,
        with whole blocks before and after them."""
        size = 2 * nn.BLOCK + 123
        rng = np.random.default_rng(5)
        anchor, c, c_r = (rng.normal(size=size) for _ in range(3))
        prox = fresh_rule(config.StrategyConfig(kind="fedprox", mu=0.3), None, anchor, 1)
        scaffold = fresh_rule(config.StrategyConfig(kind="scaffold"), None, anchor, 2)
        scaffold.c, scaffold.client_c[1] = c, c_r
        # layers span [0, 60200), [60200, 100400) and [100400, 102410)
        babu_spec = nn.ModelSpec((300, 200, 200, 10))

        def frozen(head):
            def correct(p, g):
                g = g.copy()
                g[head] = 0.0
                return g

            return correct

        cases = [
            ("fedprox", size, prox.hooks(anchor, 0), lambda p, g: g + 0.3 * (p - anchor)),
            ("scaffold", size, scaffold.hooks(anchor, 1), lambda p, g: g + (c - c_r)),
        ]
        for head_layer in (0, 1, -1):
            cfg = config.StrategyConfig(kind="fedbabu", head_layer=head_layer)
            babu_params = np.zeros(babu_spec.param_count())
            babu = fresh_rule(cfg, babu_spec, babu_params, 1)
            cases.append((
                f"fedbabu head {head_layer}", len(babu_params),
                babu.hooks(babu_params, 0), frozen(babu_spec.layer_span(head_layer)),
            ))
        for kind, (name, n, adjust, correct) in itertools.product(("sgd", "adam"), cases):
            settings = config.OptimizerSettings(kind=kind, lr=1e-2)
            params = rng.normal(size=n)
            expected = params.copy()
            state, plain = nn.OptimizerState(settings, n), nn.OptimizerState(settings, n)
            for _ in range(3):
                grad = rng.normal(size=n)
                corrected = correct(expected, grad)
                nn.optimizer_step(expected, corrected, plain)
                nn.optimizer_step(params, grad, state, adjust)
                assert_array_equal(grad, corrected, err_msg=f"{name}, {kind}")
                assert_array_equal(params, expected, err_msg=f"{name}, {kind}")
            if kind == "adam":
                assert_array_equal(state.m, plain.m, err_msg=name)
                assert_array_equal(state.v, plain.v, err_msg=name)

    def test_fedprox_gradient_matches_finite_differences(self):
        """``loss_and_grad`` plus the hook is the gradient of the cross-entropy
        plus (mu/2)*||params - global||^2."""
        mu, h = 0.3, 1e-6
        spec = nn.ModelSpec((3, 5, 2))
        rng = np.random.default_rng(4)
        params = rng.normal(scale=0.5, size=spec.param_count())
        anchor = rng.normal(scale=0.5, size=spec.param_count())
        x = rng.normal(size=(4, 3))
        y = rng.integers(0, 2, size=4)

        def objective(p):
            diff = p - anchor
            return nn.loss_and_grad(spec, p, x, y)[0] + 0.5 * mu * float(diff @ diff)

        cfg = config.StrategyConfig(kind="fedprox", mu=mu)
        _, grad = nn.loss_and_grad(spec, params, x, y)
        grad = adjusted(fresh_rule(cfg, spec, anchor, 1).hooks(anchor, 0), params, grad)
        numeric = np.empty_like(params)
        for i, step in enumerate(np.eye(len(params)) * h):
            numeric[i] = (objective(params + step) - objective(params - step)) / (2 * h)
        assert_allclose(grad, numeric, rtol=1e-5, atol=1e-8)

    def test_scaffold_correction(self):
        c, c_i, params, grad = self.vectors(2, 4)
        cfg = config.StrategyConfig(kind="scaffold")
        rule = fresh_rule(cfg, self.spec, params, 2)
        rule.c, rule.client_c[1] = c, c_i
        adjust = rule.hooks(params, 1)
        assert_array_equal(adjusted(adjust, params, grad), grad + (c - c_i))
        # a fresh rule's zero variates leave the gradient as it was
        fresh = fresh_rule(cfg, self.spec, params, 2).hooks(params, 1)
        assert_array_equal(adjusted(fresh, params, grad), grad)

    def test_fedbabu_freezes_output_layer(self):
        params, grad = self.vectors(3, 2)
        for head_layer in (-1, 0):
            cfg = config.StrategyConfig(kind="fedbabu", head_layer=head_layer)
            adjust = fresh_rule(cfg, self.spec, params, 1).hooks(params, 0)
            head = self.spec.layer_span(head_layer)
            expected = grad.copy()
            expected[head] = 0.0
            assert_array_equal(adjusted(adjust, params, grad), expected)
            assert np.count_nonzero(expected) == len(grad) - (head.stop - head.start)


class TestTrainingReductions:
    def test_fedprox_zero_mu_matches_fedavg_bitwise(self):
        ds, spec, params, client = training_setup()
        # one optimizer state serves both runs: each starts from cleared buffers
        state = nn.OptimizerState(config.OptimizerSettings(), spec.param_count())
        kwargs = dict(epochs=2, batch_size=8, state=state, round_index=0)
        plain = simulation.local_train(
            spec, ds, client, params, **kwargs
        )
        cfg = config.StrategyConfig(kind="fedprox", mu=0.0)
        rule = fresh_rule(cfg, spec, params, client.client_id + 1)
        prox = simulation.local_train(
            spec, ds, client, params, adjust=rule.hooks(params, client.client_id), **kwargs
        )
        assert_array_equal(plain.weights, prox.weights)

    def test_scaffold_zero_variates_match_plain_sgd(self):
        ds, spec, params, client = training_setup()
        size = spec.param_count()
        optimizer = config.OptimizerSettings(kind="sgd", lr=0.1)
        kwargs = dict(
            epochs=1, batch_size=len(ds),
            state=nn.OptimizerState(optimizer, spec.param_count()), round_index=0,
        )
        plain = simulation.local_train(
            spec, ds, client, params, **kwargs
        )
        cfg = config.StrategyConfig(kind="scaffold")
        rule = fresh_rule(cfg, spec, params, client.client_id + 1, optimizer)
        rule.c, rule.client_c[client.client_id] = np.zeros(size), np.zeros(size)
        corrected = simulation.local_train(
            spec, ds, client, params, adjust=rule.hooks(params, client.client_id), **kwargs
        )
        assert corrected.tau == 1  # single batch, one local step
        assert_allclose(corrected.weights, plain.weights, rtol=0, atol=1e-12)
        # zero server variate makes the client's delta the scaled drift itself
        strategies.aggregate(params, [corrected], np.array([1.0]), rule)
        assert_allclose(
            rule.client_c[client.client_id], (params - corrected.weights) / 0.1, rtol=1e-12
        )

    def test_fedbabu_head_stays_at_broadcast(self):
        ds, spec, params, client = training_setup()
        head = spec.layer_span(spec.num_layers - 1)
        cfg = config.StrategyConfig(kind="fedbabu")
        rule = fresh_rule(cfg, spec, params, client.client_id + 1)
        update = simulation.local_train(
            spec, ds, client, params,
            epochs=3, batch_size=8,
            state=nn.OptimizerState(config.OptimizerSettings(), spec.param_count()),
            adjust=rule.hooks(params, client.client_id),
            round_index=0,
        )
        assert_array_equal(update.weights[head], params[head])
        body = slice(0, head.start)
        assert not np.array_equal(update.weights[body], params[body])


class TestAggregate:
    def test_fedavg_two_client_mean(self):
        cfg = config.StrategyConfig()
        updates = [make_update(0, [1.0, 3.0]), make_update(1, [3.0, 1.0])]
        new = strategies.aggregate(
            np.zeros(2), updates, np.array([0.5, 0.5]), fresh_rule(cfg, None, np.zeros(2))
        )
        assert_array_equal(new, [2.0, 2.0])

    def test_averaging_stays_in_convex_hull(self):
        rng = np.random.default_rng(10)
        cfg = config.StrategyConfig()
        for _ in range(20):
            updates = random_updates(rng, 5, 12)
            u = rng.dirichlet(np.ones(5))
            new = strategies.aggregate(
                np.zeros(12), updates, u, fresh_rule(cfg, None, np.zeros(12))
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
            avg_cfg = config.StrategyConfig()
            mom_cfg = config.StrategyConfig(kind="sgdm", beta=0.0, server_lr=1.0)
            fedavg = strategies.aggregate(
                global_params, updates, u, fresh_rule(avg_cfg, None, global_params)
            )
            sgdm = strategies.aggregate(
                global_params, updates, u, fresh_rule(mom_cfg, None, global_params)
            )
            assert_array_equal(sgdm, fedavg)

    def test_sgdm_matches_hand_recurrence_across_rounds(self):
        rng = np.random.default_rng(12)
        beta, lr = 0.7, 0.5
        cfg = config.StrategyConfig(kind="sgdm", beta=beta, server_lr=lr)
        global_params = rng.normal(size=6)
        rule = fresh_rule(cfg, None, global_params)
        momentum = np.zeros(6)
        for _ in range(3):
            updates = random_updates(rng, 3, 6)
            u = rng.dirichlet(np.ones(3))
            new = strategies.aggregate(global_params, updates, u, rule)
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
            avg_cfg = config.StrategyConfig()
            nova_cfg = config.StrategyConfig(kind="fednova")
            fedavg = strategies.aggregate(
                global_params, updates, u, fresh_rule(avg_cfg, None, global_params)
            )
            nova = strategies.aggregate(
                global_params, updates, u, fresh_rule(nova_cfg, None, global_params)
            )
            assert_allclose(nova, fedavg, rtol=0, atol=1e-12)

    def test_fednova_hand_computed_step(self):
        cfg = config.StrategyConfig(kind="fednova")
        global_params = np.array([1.0, 2.0])
        updates = [
            make_update(0, [0.0, 0.0], tau=2),
            make_update(1, [2.0, 0.0], tau=8),
        ]
        u = np.array([0.5, 0.5])
        new = strategies.aggregate(
            global_params, updates, u, fresh_rule(cfg, None, global_params)
        )
        # tau_eff = 5; d = 0.5*([1,2]/2) + 0.5*([-1,2]/8) = [0.1875, 0.625]
        assert_allclose(new, global_params - 5.0 * np.array([0.1875, 0.625]), rtol=1e-15)

    def test_scaffold_update_and_variate_recurrence(self):
        cfg = config.StrategyConfig(kind="scaffold", server_lr=0.8)
        lr = 0.05
        global_params = np.array([1.0, -1.0, 0.5])
        rule = fresh_rule(cfg, None, global_params, 4, config.OptimizerSettings(kind="sgd", lr=lr))
        c = np.array([0.2, -0.1, 0.05])
        client_c = {0: np.array([0.1, 0.0, -0.1]), 2: np.array([-0.3, 0.2, 0.1])}
        # the fold updates the rule's variates in place, so hand it copies
        rule.c = c.copy()
        rule.client_c[[0, 2]] = client_c[0], client_c[2]
        updates = [
            make_update(0, [0.5, -1.0, 0.0], tau=2),
            make_update(2, [1.0, 0.0, 1.0], tau=3),
        ]
        u = np.array([0.25, 0.75])
        new = strategies.aggregate(global_params, updates, u, rule)
        drift = 0.25 * (global_params - updates[0].weights) + 0.75 * (
            global_params - updates[1].weights
        )
        assert_allclose(new, global_params - 0.8 * drift, rtol=1e-15)
        # option II: each client's delta from the broadcast, its weights and tau
        deltas = [-c + (global_params - up.weights) / (up.tau * lr) for up in updates]
        assert_array_equal(rule.c, c + (2 / 4) * np.mean(deltas, axis=0))
        assert_array_equal(rule.client_c[0], client_c[0] + deltas[0])
        assert_array_equal(rule.client_c[2], client_c[2] + deltas[1])
        assert_array_equal(rule.client_c[1], 0.0)

    def test_fedbabu_restores_frozen_head(self):
        spec = nn.ModelSpec((3, 4, 2))
        cfg = config.StrategyConfig(kind="fedbabu")
        initial = nn.init_model(spec, 21)
        rule = fresh_rule(cfg, spec, initial, num_clients=3)
        rng = np.random.default_rng(22)
        current = initial
        for _ in range(4):
            updates = random_updates(rng, 3, spec.param_count())
            for up in updates:  # clients never move the head
                up.weights[rule.head] = current[rule.head]
            u = rng.dirichlet(np.ones(3))
            current = strategies.aggregate(current, updates, u, rule)
            assert_array_equal(current[rule.head], initial[rule.head])

    def test_rejects_weight_mismatch(self):
        cfg = config.StrategyConfig()
        updates = [make_update(0, [1.0, 2.0, 3.0])]
        with pytest.raises(ValueError, match="shape"):
            strategies.aggregate(
                np.zeros(2), updates, np.array([1.0]), fresh_rule(cfg, None, np.zeros(2))
            )

    def test_rejects_unnormalized_weights(self):
        cfg = config.StrategyConfig()
        updates = [make_update(0, [1.0, 2.0]), make_update(1, [0.0, 0.0])]
        with pytest.raises(ValueError, match="sum to 1"):
            strategies.aggregate(
                np.zeros(2), updates, np.array([0.9, 0.4]), fresh_rule(cfg, None, np.zeros(2))
            )

    @pytest.mark.parametrize(
        "u", [[1.5, -0.5], [np.nan, 0.5], [np.inf, 0.0], [-0.0, 1.0 + 1e-12, -1e-12]],
        ids=["extrapolating", "nan", "inf", "tiny-negative"],
    )
    def test_rejects_weights_off_the_simplex(self, u):
        """A negative or non-finite weight is refused by name before the
        fold, so neither the result nor the rule's memory moves."""
        updates = [make_update(r, np.full(2, (-1.0) ** r), tau=2) for r in range(len(u))]
        rule = fresh_rule(config.StrategyConfig(kind="scaffold"), None, np.zeros(2), len(u))
        with pytest.raises(ValueError, match=r"weights must be finite and non-negative, got array\("):
            strategies.aggregate(np.zeros(2), updates, np.array(u), rule)
        assert not bits(rule.c).any() and not bits(rule.client_c).any()

    @pytest.mark.parametrize("tau", [0, -1])
    @pytest.mark.parametrize("kind", strategies.STRATEGY_KINDS)
    def test_rejects_a_step_count_that_is_not_positive(self, kind, tau):
        """Every rule refuses the update by name before the fold, so neither
        the result nor the rule's memory moves: a scaffold variate would
        otherwise divide by a zero or negative step count."""
        rng = np.random.default_rng(41)
        spec = nn.ModelSpec((2, 3, 2))
        size = spec.param_count()
        updates = random_updates(rng, 3, size)
        updates[1].tau = tau
        rule = fresh_rule(config.StrategyConfig(kind=kind), spec, rng.normal(size=size), 3)
        memory = [name for name in ("c", "client_c", "momentum") if hasattr(rule, name)]
        for name in memory:
            getattr(rule, name)[:] = rng.normal(size=getattr(rule, name).shape)
        before = {name: getattr(rule, name).copy() for name in memory}
        with pytest.raises(ValueError, match=rf"^client 1 step count must be positive, got {tau}$"):
            strategies.aggregate(rng.normal(size=size), updates, np.full(3, 1 / 3), rule, 2)
        for name in memory:
            assert_array_equal(bits(getattr(rule, name)), bits(before[name]), err_msg=name)

    def test_rejects_non_finite_result(self):
        cfg = config.StrategyConfig()
        updates = [make_update(0, [np.inf, 1.0]), make_update(1, [0.0, 0.0])]
        with pytest.raises(nn.TrainingDiverged):
            strategies.aggregate(
                np.zeros(2), updates, np.array([0.5, 0.5]), fresh_rule(cfg, None, np.zeros(2))
            )


def bits(values):
    """The raw IEEE bits, so that 0.0 and -0.0 differ."""
    return np.asarray(values).view(np.uint64)


class TestScaffoldVariates:
    """``client_c`` is one (N, P) block; row r is client r's variate."""

    CLIENTS, SIZE = 5, 7

    def setup_method(self):
        self.rng = np.random.default_rng(50)
        self.params = self.rng.normal(size=self.SIZE)
        cfg = config.StrategyConfig(kind="scaffold")
        self.rule = fresh_rule(cfg, None, self.params, self.CLIENTS)

    def fold(self, *client_ids, spans=1, run=map):
        updates = [make_update(r, self.rng.normal(size=self.SIZE)) for r in client_ids]
        u = np.full(len(updates), 1.0 / len(updates))
        return strategies.aggregate(self.params, updates, u, self.rule, spans, run)

    def test_rows_read_positive_zero_until_their_first_fold(self):
        assert self.rule.client_c.shape == (self.CLIENTS, self.SIZE)
        assert not bits(self.rule.client_c).any()
        self.fold(1, 3)
        for r in (0, 2, 4):
            assert not bits(self.rule.client_c[r]).any()
        assert bits(self.rule.client_c[[1, 3]]).any(axis=1).all()

    def test_an_unfolded_clients_hook_adds_the_server_variate(self):
        c = self.rng.normal(size=self.SIZE)
        c[:2] = -0.0
        grad = self.rng.normal(size=self.SIZE)
        grad[1:3] = 0.0
        self.rule.c = c.copy()
        adjust = self.rule.hooks(self.params, 2)
        assert_array_equal(bits(adjusted(adjust, self.params, grad)), bits(grad + c))

    def test_a_fold_writes_only_the_participants_rows(self):
        self.rule.client_c[:] = self.rng.normal(size=(self.CLIENTS, self.SIZE))
        before = self.rule.client_c.copy()
        self.fold(1, 3)
        changed = (bits(self.rule.client_c) != bits(before)).any(axis=1)
        assert changed.tolist() == [False, True, False, True, False]

    @pytest.mark.parametrize("client_id", [-1, -CLIENTS, CLIENTS, CLIENTS + 1])
    def test_an_id_outside_the_block_raises_and_never_wraps(self, client_id):
        """A bad id between two good ones raises on every span, on three
        threads, before any span moves a row of ``client_c`` or ``c``."""
        with pytest.raises(IndexError, match=rf"client {client_id} outside \[0, 5\)"):
            self.rule.hooks(self.params, client_id)
        for spans in (1, 3):
            with ThreadPoolExecutor(3) as pool:
                with pytest.raises(IndexError, match=rf"client {client_id} outside \[0, 5\)"):
                    self.fold(1, client_id, 3, spans=spans, run=pool.map)
            assert not bits(self.rule.client_c).any(), spans
            assert not bits(self.rule.c).any(), spans


class TestFoldMemory:
    # parameter vectors a fold may allocate at its peak, the one it returns
    # included: scaffold's four O(P) buffers reach 4.06, sgdm's three 3.04
    # and fednova's two 2.06
    VECTORS = {"scaffold": 4.25, "sgdm": 3.25, "fednova": 2.25}

    @pytest.mark.parametrize("kind", strategies.STRATEGY_KINDS)
    def test_fold_scratch_is_a_few_parameter_vectors(self, kind):
        """numpy reports its buffers to tracemalloc, so the traced peak is what
        one fold of 32 clients allocates: a few parameter vectors, never one
        per client."""
        spec = nn.ModelSpec((32, 120, 3))
        size = spec.param_count()
        rng = np.random.default_rng(40)
        params = rng.normal(size=size)
        updates = random_updates(rng, 32, size)
        u = rng.dirichlet(np.ones(32))
        rule = fresh_rule(config.StrategyConfig(kind=kind), spec, params, num_clients=32)
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            strategies.aggregate(params, updates, u, rule)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - base < self.VECTORS.get(kind, 8) * size * 8


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
            cfg = config.StrategyConfig(kind=kind)
            updates = [
                make_update(i, rng.normal(size=size), n=20, tau=4)
                for i in range(4)
            ]
            if kind == "fedbabu":
                head = spec.layer_span(spec.num_layers - 1)
                for up in updates:
                    up.weights[head] = global_params[head]
            nu = strategies.importance(updates)
            ids = [up.client_id for up in updates]
            lam = co.contribution_factors(co.similarity_matrix([z] * len(ids), ids), 0.5)
            u = co.normalize_weights(lam, nu)
            assert_array_equal(u, nu)
            plain = strategies.aggregate(
                global_params, updates, nu, fresh_rule(cfg, spec, global_params)
            )
            normalized = strategies.aggregate(
                global_params, updates, u, fresh_rule(cfg, spec, global_params)
            )
            assert_array_equal(normalized, plain)
