"""Round-loop checks: local training, reporting, determinism, parallelism."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from fednorm import config as cfg
from fednorm import data, nn, simulation, strategies


def build_federation(
    kind="fedavg",
    normalize=False,
    num_clients=4,
    optimizer=None,
    seed=0,
    participation=1.0,
    workers=1,
    shared_shards=False,
    epochs=1,
    batch_size=32,
):
    """Small hand-wired federation on a synthetic 3-class problem."""
    ds = data.generate_synthetic(3, 6, 40, 3.0, seed=seed)
    train, test = data.train_test_split(ds, 0.25, seed + 1)
    if shared_shards:
        shards = [np.arange(len(train))] * num_clients
        seeds = [100] * num_clients
    else:
        shards = np.array_split(np.arange(len(train)), num_clients)
        seeds = [100 + i for i in range(num_clients)]
    spec = nn.ModelSpec((6, 8, 3))
    params = nn.init_model(spec, seed + 2)
    server = simulation.ServerState(
        spec=spec,
        params=params,
        strategy=strategies.StrategyConfig(kind=kind),
        normalize=normalize,
    )
    clients = [simulation.ClientState(i, shards[i], seeds[i]) for i in range(num_clients)]
    return simulation.Federation(
        train=train,
        test=test,
        clients=clients,
        server=server,
        epochs=epochs,
        batch_size=batch_size,
        optimizer=optimizer or nn.OptimizerState(),
        participation=participation,
        seed=seed + 3,
        workers=workers,
    )


def strip_durations(reports):
    return [
        (r.round_index, r.accuracy, r.loss, [vars(c) for c in r.clients]) for r in reports
    ]


class TestEvaluate:
    def test_zero_model_gives_uniform_predictions(self):
        """All-zero weights tie every logit, so argmax picks class 0 and the
        loss is the log of the class count."""
        spec = nn.ModelSpec((2, 3, 3))
        params = np.zeros(spec.param_count())
        features = np.ones((4, 2))
        labels = np.array([0, 0, 1, 2])
        ds = data.Dataset(features, labels, class_count=3)
        accuracy, loss = simulation.evaluate(spec, params, ds)
        assert accuracy == 0.5
        assert_allclose(loss, np.log(3.0), rtol=1e-15)


class TestLocalTrain:
    def test_rejects_bad_schedule(self):
        ds = data.generate_synthetic(2, 3, 10, 3.0, seed=0)
        client = simulation.ClientState(0, np.arange(len(ds)), seed=1)
        opt = nn.OptimizerState()
        spec = nn.ModelSpec((3, 4, 2))
        with pytest.raises(ValueError, match="epochs"):
            simulation.local_train(
                spec, ds, client, nn.init_model(spec, 2),
                epochs=0, batch_size=8, optimizer=opt,
                hooks=strategies.LocalHooks(), round_index=0,
            )
        with pytest.raises(ValueError, match="batch_size"):
            simulation.local_train(
                spec, ds, client, nn.init_model(spec, 2),
                epochs=1, batch_size=0, optimizer=opt,
                hooks=strategies.LocalHooks(), round_index=0,
            )

    def test_step_count_covers_partial_batches(self):
        ds = data.generate_synthetic(2, 3, 50, 3.0, seed=0)  # 100 samples
        client = simulation.ClientState(0, np.arange(100), seed=1)
        spec = nn.ModelSpec((3, 4, 2))
        update = simulation.local_train(
            spec, ds, client, nn.init_model(spec, 2),
            epochs=2, batch_size=64, optimizer=nn.OptimizerState(),
            hooks=strategies.LocalHooks(), round_index=0,
        )
        assert update.tau == 4  # ceil(100/64) batches per epoch, twice
        assert update.n == 100

    def test_latent_summary_taken_after_final_epoch(self):
        ds = data.generate_synthetic(2, 3, 20, 3.0, seed=0)
        client = simulation.ClientState(0, np.arange(40), seed=1)
        spec = nn.ModelSpec((3, 4, 2))
        update = simulation.local_train(
            spec, ds, client, nn.init_model(spec, 2),
            epochs=2, batch_size=16, optimizer=nn.OptimizerState(),
            hooks=strategies.LocalHooks(), round_index=0,
        )
        expected = nn.mean_latent(spec, update.weights, ds.features[client.indices])
        assert_array_equal(update.z, expected)

    def test_shuffle_depends_on_round(self):
        ds = data.generate_synthetic(2, 3, 20, 3.0, seed=0)
        client = simulation.ClientState(0, np.arange(40), seed=1)
        spec = nn.ModelSpec((3, 4, 2))
        params = nn.init_model(spec, 2)
        runs = {}
        for round_index in (0, 0, 1):
            update = simulation.local_train(
                spec, ds, client, params,
                epochs=1, batch_size=8, optimizer=nn.OptimizerState(),
                hooks=strategies.LocalHooks(), round_index=round_index,
            )
            runs.setdefault(round_index, []).append(update.weights)
        assert_array_equal(runs[0][0], runs[0][1])
        assert not np.array_equal(runs[0][0], runs[1][0])

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_divergence_names_client_and_step(self):
        """A huge gradient correction blows the weights up on the first step,
        so the second forward pass overflows and the error names the client."""
        ds = data.generate_synthetic(2, 3, 20, 3.0, seed=0)
        client = simulation.ClientState(7, np.arange(40), seed=1)
        spec = nn.ModelSpec((3, 4, 2))
        hooks = strategies.LocalHooks(
            grad_correction=np.full(spec.param_count(), 1e200)
        )
        with pytest.raises(nn.TrainingDiverged, match=r"client 7 diverged at local step \d+"):
            simulation.local_train(
                spec, ds, client, nn.init_model(spec, 2),
                epochs=4, batch_size=40,
                optimizer=nn.OptimizerState(kind="sgd", lr=1.0),
                hooks=hooks, round_index=0,
            )


def reference_forward(spec, params, x):
    """Forward pass with a fresh array for every intermediate; returns the
    logits and the input of every layer."""
    acts = [x]
    for l, ((w_sl, b_sl), shape) in enumerate(zip(spec.layer_slices(), spec.layer_shapes())):
        z = acts[l] @ params[w_sl].reshape(shape) + params[b_sl]
        if l == spec.num_layers - 1:
            return z, acts
        acts.append(np.maximum(z, 0.0) if spec.activation == "relu" else np.tanh(z))


def reference_loss_and_grad(spec, params, x, y, prox):
    """The allocating formulas: the loss and the softmax each shift and
    exponentiate the logits themselves, and every product is a new array."""
    logits, acts = reference_forward(spec, params, x)
    n = len(y)
    shifted = logits - logits.max(axis=1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=1))
    loss = float(np.mean(logz - shifted[np.arange(n), y]))
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    delta = e / e.sum(axis=1, keepdims=True)
    delta[np.arange(n), y] -= 1.0
    delta /= n
    grad = np.empty_like(params)
    for l in range(spec.num_layers - 1, -1, -1):
        w_sl, b_sl = spec.layer_slices()[l]
        grad[w_sl] = (acts[l].T @ delta).ravel()
        grad[b_sl] = delta.sum(axis=0)
        if l > 0:
            a = acts[l]
            deriv = (a > 0.0).astype(np.float64) if spec.activation == "relu" else 1.0 - a * a
            delta = (delta @ params[w_sl].reshape(spec.layer_shapes()[l]).T) * deriv
    if prox is not None and prox[0] > 0:
        mu, anchor = prox
        diff = params - anchor
        loss += 0.5 * mu * float(diff @ diff)
        grad += mu * diff
    return loss, grad


def reference_local_train(spec, ds, client, global_params, *, epochs, batch_size,
                          kind, lr, hooks, round_index):
    """Local training with the functional sgd/adam update: new params, new
    moments and a new gradient on every step."""
    b1, b2, eps = 0.9, 0.999, 1e-8
    x = ds.features[client.indices]
    y = ds.labels[client.indices]
    n = len(y)
    params = global_params.copy()
    m = v = np.zeros_like(params)
    rng = np.random.default_rng([client.seed, round_index])
    t = 0
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            batch = order[start : start + batch_size]
            _, grad = reference_loss_and_grad(spec, params, x[batch], y[batch], hooks.prox)
            if hooks.grad_correction is not None:
                grad = grad + hooks.grad_correction
            if hooks.freeze is not None:
                grad[hooks.freeze] = 0.0
            t += 1
            if kind == "sgd":
                params = params - lr * grad
            else:
                m = b1 * m + (1.0 - b1) * grad
                v = b2 * v + (1.0 - b2) * grad * grad
                m_hat = m / (1.0 - b1**t)
                v_hat = v / (1.0 - b2**t)
                params = params - lr * m_hat / (np.sqrt(v_hat) + eps)
    _, acts = reference_forward(spec, params, x)
    return params, t, acts[-1].mean(axis=0)


class TestLocalTrainReference:
    """``local_train`` reuses its buffers and updates in place; its bits must
    equal the allocating reference above in every hook combination."""

    def setup(self, activation="relu"):
        ds = data.generate_synthetic(3, 5, 50, 2.0, seed=30)  # 150 samples
        spec = nn.ModelSpec((5, 8, 6, 3), activation=activation)
        params = nn.init_model(spec, 31)
        client = simulation.ClientState(3, np.arange(10, 110), seed=32)  # 100 samples
        return ds, spec, params, client

    @pytest.mark.parametrize(
        "strategy, kind, lr, activation",
        [
            (strategies.StrategyConfig(), "adam", 1e-2, "relu"),
            (strategies.StrategyConfig(), "sgd", 0.1, "relu"),
            (strategies.StrategyConfig(), "adam", 1e-2, "tanh"),
            (strategies.StrategyConfig(kind="fedprox", mu=0.5), "adam", 1e-2, "relu"),
            (strategies.StrategyConfig(kind="fedprox", mu=0.5), "sgd", 0.1, "tanh"),
            (strategies.StrategyConfig(kind="scaffold"), "sgd", 0.1, "relu"),
            (strategies.StrategyConfig(kind="fedbabu"), "adam", 1e-2, "relu"),
            (strategies.StrategyConfig(kind="fedbabu", head_layer=0), "sgd", 0.1, "relu"),
        ],
        ids=["adam", "sgd", "adam-tanh", "fedprox-adam", "fedprox-sgd-tanh",
             "scaffold", "fedbabu-head", "fedbabu-first-layer"],
    )
    def test_matches_reference_bitwise(self, strategy, kind, lr, activation):
        ds, spec, params, client = self.setup(activation)
        rng = np.random.default_rng(33)
        optimizer = nn.OptimizerState(kind=kind, lr=lr)
        rule = strategies.RULES[strategy.kind](
            strategy, spec, params, client.client_id + 1, optimizer
        )
        if strategy.kind == "scaffold":
            size = spec.param_count()
            rule.c = rng.normal(scale=0.05, size=size)
            rule.client_c[client.client_id] = rng.normal(scale=0.05, size=size)
        hooks = rule.hooks(params, client.client_id)
        # two epochs of 100 samples in batches of 16: the last batch has 4 rows
        kwargs = dict(epochs=2, batch_size=16, hooks=hooks, round_index=4)
        broadcast = params.copy()
        update = simulation.local_train(spec, ds, client, params, optimizer=optimizer, **kwargs)
        weights, tau, z = reference_local_train(
            spec, ds, client, params, kind=kind, lr=lr, **kwargs
        )
        assert_array_equal(params, broadcast)  # the broadcast vector is left as it was
        assert update.tau == tau == 14
        assert_array_equal(update.weights, weights)
        assert_array_equal(update.z, z)
        assert not np.array_equal(update.weights, params)

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_loss_matches_reference_bitwise(self, activation):
        ds, spec, params, _ = self.setup(activation)
        anchor = params + 0.01
        for rows in (slice(0, 64), slice(64, 67)):
            x, y = ds.features[rows], ds.labels[rows]
            for prox in (None, (0.0, anchor), (0.5, anchor)):
                loss, grad = nn.loss_and_grad(spec, params, x, y, prox=prox)
                ref_loss, ref_grad = reference_loss_and_grad(spec, params, x, y, prox)
                assert loss == ref_loss
                assert_array_equal(grad, ref_grad)

    def test_clients_in_turn_from_one_template_match_separate_runs(self):
        ds, spec, params, client = self.setup()
        other = simulation.ClientState(4, np.arange(0, 60), seed=34)
        kwargs = dict(epochs=2, batch_size=16, hooks=strategies.LocalHooks(), round_index=1)
        template = nn.OptimizerState(kind="adam", lr=1e-2)
        in_turn = [
            simulation.local_train(spec, ds, c, params, optimizer=template, **kwargs)
            for c in (client, other)
        ]
        for c, got in zip((client, other), in_turn):
            alone = simulation.local_train(
                spec, ds, c, params, optimizer=nn.OptimizerState(kind="adam", lr=1e-2),
                **kwargs,
            )
            assert_array_equal(got.weights, alone.weights)
        assert template.m is None and template.step == 0
        assert not np.array_equal(params, in_turn[0].weights)


class TestRunRound:
    def test_report_shape_and_weight_identities(self):
        fed = build_federation(normalize=True)
        report = fed.run_round()
        assert report.round_index == 0
        assert fed.server.round_index == 1
        assert 0.0 <= report.accuracy <= 1.0
        assert report.loss > 0.0
        assert [c.client_id for c in report.clients] == [0, 1, 2, 3]
        u = np.array([c.u for c in report.clients])
        lam = np.array([c.lam for c in report.clients])
        assert abs(u.sum() - 1.0) <= 1e-9
        assert abs(lam.sum() - 3.0) <= 1e-9  # one less than the participant count
        assert np.all((u > 0.0) & (u < 1.0))
        for c in report.clients:
            assert -1.0 <= c.cos_local_global <= 1.0

    def test_normalization_off_reports_importance_as_final(self):
        fed = build_federation(normalize=False)
        report = fed.run_round()
        for c in report.clients:
            assert c.u == c.nu
            assert c.lam == 0.75  # uniform fallback value 1 - 1/k

    def test_fedavg_round_is_importance_weighted_mean(self):
        fed = build_federation(normalize=False)
        broadcast = fed.server.params.copy()
        expected_updates = [
            simulation.local_train(
                fed.server.spec, fed.train, client, broadcast,
                epochs=fed.epochs, batch_size=fed.batch_size,
                optimizer=fed.optimizer, hooks=strategies.LocalHooks(), round_index=0,
            )
            for client in fed.clients
        ]
        total = sum(up.n for up in expected_updates)
        expected = sum((up.n / total) * up.weights for up in expected_updates)
        fed.run_round()
        assert_allclose(fed.server.params, expected, rtol=0, atol=1e-12)

    def test_partial_participation_samples_deterministically(self):
        fed = build_federation(num_clients=10, participation=0.5)
        twin = build_federation(num_clients=10, participation=0.5)
        seen = []
        for _ in range(4):
            ids = [c.client_id for c in fed.run_round().clients]
            assert len(ids) == 5
            assert ids == sorted(ids)
            seen.append(tuple(ids))
            assert [c.client_id for c in twin.run_round().clients] == ids
        assert len(set(seen)) > 1  # the draw changes across rounds

    def test_rounds_zero_is_a_no_op(self):
        fed = build_federation()
        before = fed.server.params.copy()
        assert fed.run(0) == []
        assert_array_equal(fed.server.params, before)

    def test_scaffold_demands_sgd_at_construction(self):
        with pytest.raises(ValueError, match="sgd"):
            build_federation(kind="scaffold")

    def test_scaffold_round_updates_server_variate(self):
        fed = build_federation(
            kind="scaffold", optimizer=nn.OptimizerState(kind="sgd", lr=0.05)
        )
        assert_array_equal(fed.rule.c, 0.0)
        fed.run_round()
        assert np.any(fed.rule.c != 0.0)
        for client in fed.clients:
            assert np.any(fed.rule.client_c[client.client_id] != 0.0)


class TestDeterminism:
    def test_identical_seeds_reproduce_the_run(self):
        a = build_federation(normalize=True, seed=5)
        b = build_federation(normalize=True, seed=5)
        ra = a.run(3)
        rb = b.run(3)
        assert_array_equal(a.server.params, b.server.params)
        assert strip_durations(ra) == strip_durations(rb)

    @pytest.mark.parametrize("kind", strategies.STRATEGY_KINDS)
    def test_thread_pool_matches_serial_bitwise(self, kind):
        # scaffold's variate update divides by the local rate of plain sgd
        optimizer = nn.OptimizerState(kind="sgd", lr=0.05) if kind == "scaffold" else None
        common = dict(kind=kind, normalize=True, num_clients=6, seed=9, optimizer=optimizer)
        serial = build_federation(workers=1, **common)
        pooled = build_federation(workers=4, **common)
        rs = serial.run(3)
        rp = pooled.run(3)
        assert_array_equal(serial.server.params, pooled.server.params)
        assert strip_durations(rs) == strip_durations(rp)

    def test_identical_clients_make_normalization_inert(self):
        """Clients with the same shard and seed produce identical updates, so
        the similarity rescaling must reproduce the plain run bit for bit."""
        plain = build_federation(normalize=False, shared_shards=True, seed=3)
        scaled = build_federation(normalize=True, shared_shards=True, seed=3)
        rp = plain.run(3)
        rs = scaled.run(3)
        assert_array_equal(plain.server.params, scaled.server.params)
        for report_p, report_s in zip(rp, rs):
            assert report_p.accuracy == report_s.accuracy
            assert report_p.loss == report_s.loss
            for cp, cs in zip(report_p.clients, report_s.clients):
                assert cp.u == cs.u == cp.nu


class TestRunExperiment:
    def base_config(self, **overrides):
        fields = dict(
            dataset=cfg.SyntheticData(classes=4, dims=6, per_class=40, spread=3.0),
            strategy=strategies.StrategyConfig(),
            partition=cfg.DirichletPartition(alpha=0.5, min_samples=8),
            optimizer=cfg.OptimizerSettings(),
            clients=4,
            rounds=2,
            epochs=1,
            batch_size=32,
            hidden_sizes=(8,),
            seed=0,
        )
        fields.update(overrides)
        return cfg.RunConfig(**fields)

    def test_dirichlet_experiment_runs_and_reports(self):
        result = simulation.run_experiment(self.base_config())
        assert [r.round_index for r in result.reports] == [0, 1]
        assert np.isfinite(result.reports[-1].accuracy)
        assert result.federation.server.spec.layer_sizes == (6, 8, 4)

    def test_label_split_experiment_runs(self):
        result = simulation.run_experiment(
            self.base_config(
                partition=cfg.LabelSplitPartition(groups=((0, 1), (2, 3))), clients=2
            )
        )
        assert len(result.reports) == 2
        assert len(result.federation.clients) == 2

    def test_experiment_is_reproducible(self):
        first = simulation.run_experiment(self.base_config(seed=11))
        second = simulation.run_experiment(self.base_config(seed=11))
        assert_array_equal(
            first.federation.server.params, second.federation.server.params
        )
        assert strip_durations(first.reports) == strip_durations(second.reports)
