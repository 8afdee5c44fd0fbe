"""Round-loop checks: local training, reporting, determinism, parallelism."""

import dataclasses
import struct
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from fednorm import config as cfg
from fednorm import contribution, data, nn, simulation, strategies


def strip_durations(reports):
    return [
        (r.round_index, r.accuracy, r.loss, [vars(c) for c in r.clients]) for r in reports
    ]


@pytest.fixture
def short_switch_interval():
    """Let the interpreter switch threads every microsecond, so that the
    interleavings a lost update needs happen often."""
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(previous)


def run_bounded(federation, rounds, seconds=120.0):
    """``federation.run(rounds)`` on a helper thread joined with a timeout,
    so that a hung thread pool fails the test instead of stalling the suite;
    the run's exception, if any, is raised here."""
    outcome = {}

    def target():
        try:
            outcome["reports"] = federation.run(rounds)
        except Exception as exc:  # re-raised on the test's thread below
            outcome["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"{rounds} rounds did not finish within {seconds} s"
    if "error" in outcome:
        raise outcome["error"]
    return outcome["reports"]


def force_threads(monkeypatch, count):
    monkeypatch.setattr(simulation, "round_threads", lambda param_count, participants: count)


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
        spec = nn.ModelSpec((3, 4, 2))
        workspace = simulation.Workspace.create(spec, cfg.OptimizerSettings(), 8)
        with pytest.raises(ValueError, match="epochs"):
            simulation.local_train(
                spec, ds, client, nn.init_model(spec, 2),
                epochs=0, batch_size=8, workspace=workspace,
                round_index=0,
            )
        with pytest.raises(ValueError, match="batch_size"):
            simulation.local_train(
                spec, ds, client, nn.init_model(spec, 2),
                epochs=1, batch_size=0, workspace=workspace,
                round_index=0,
            )
        with pytest.raises(ValueError, match="workspace holds 8 rows, a minibatch needs 16"):
            simulation.local_train(
                spec, ds, client, nn.init_model(spec, 2),
                epochs=1, batch_size=16, workspace=workspace,
                round_index=0,
            )

    @pytest.mark.parametrize("row", [-1, 20])
    def test_rows_outside_the_dataset_are_named(self, row):
        ds = data.generate_synthetic(2, 3, 10, 3.0, seed=0)  # 20 samples
        client = simulation.ClientState(5, np.array([0, row, 3]), seed=1)
        spec = nn.ModelSpec((3, 4, 2))
        with pytest.raises(ValueError, match="client 5 has rows outside the 20-row dataset"):
            simulation.local_train(
                spec, ds, client, nn.init_model(spec, 2),
                epochs=1, batch_size=8, round_index=0,
                workspace=simulation.Workspace.create(spec, cfg.OptimizerSettings(), 8),
            )

    def test_step_count_covers_partial_batches(self):
        ds = data.generate_synthetic(2, 3, 50, 3.0, seed=0)  # 100 samples
        client = simulation.ClientState(0, np.arange(100), seed=1)
        spec = nn.ModelSpec((3, 4, 2))
        update = simulation.local_train(
            spec, ds, client, nn.init_model(spec, 2),
            epochs=2, batch_size=64, round_index=0,
            workspace=simulation.Workspace.create(spec, cfg.OptimizerSettings(), 64),
        )
        assert update.tau == 4  # ceil(100/64) batches per epoch, twice
        assert update.n == 100

    def test_latent_summary_taken_after_final_epoch(self, build_federation):
        """The mean latent is that of the trained weights over the whole
        shard, and taking it leaves them as they were; a plain federation
        trains the same weights."""
        fed = build_federation(normalize=True, epochs=2, batch_size=16)
        client = fed.clients[1]
        plain = build_federation(normalize=False, epochs=2, batch_size=16)
        (plain_update,), no_latents = plain._train_clients([client], 1, map, False)
        assert no_latents is None
        trained = plain_update.weights
        (update,), (z,) = fed._train_clients([client], 1, map, True)
        shard = fed.train.features[client.indices]
        assert_array_equal(z, nn.mean_latent(fed.spec, trained, shard))
        assert_array_equal(update.weights, trained)

    def test_shuffle_depends_on_round(self):
        ds = data.generate_synthetic(2, 3, 20, 3.0, seed=0)
        client = simulation.ClientState(0, np.arange(40), seed=1)
        spec = nn.ModelSpec((3, 4, 2))
        params = nn.init_model(spec, 2)
        runs = {}
        for round_index in (0, 0, 1):
            update = simulation.local_train(
                spec, ds, client, params,
                epochs=1, batch_size=8, round_index=round_index,
                workspace=simulation.Workspace.create(spec, cfg.OptimizerSettings(), 8),
            )
            runs.setdefault(round_index, []).append(update.weights)
        assert_array_equal(runs[0][0], runs[0][1])
        assert not np.array_equal(runs[0][0], runs[1][0])

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_divergence_names_client_and_step(self):
        """A huge gradient correction blows the weights up on the first step,
        so the second forward pass overflows and the error names the client,
        the step and the round."""
        ds = data.generate_synthetic(2, 3, 20, 3.0, seed=0)
        client = simulation.ClientState(7, np.arange(40), seed=1)
        spec = nn.ModelSpec((3, 4, 2))

        def adjust(span, p, g, scratch):
            g += 1e200

        with pytest.raises(
            nn.TrainingDiverged, match=r"^client 7 diverged at local step \d+ of round 5: "
        ):
            simulation.local_train(
                spec, ds, client, nn.init_model(spec, 2),
                epochs=4, batch_size=40, round_index=5, adjust=adjust,
                workspace=simulation.Workspace.create(
                    spec, cfg.OptimizerSettings(kind="sgd", lr=1.0), 40
                ),
            )

    def test_workspace_training_allocates_less_than_a_parameter_vector(self):
        """numpy reports its buffers to tracemalloc.  Given a workspace and an
        output vector made beforehand, five clients' training, with each
        client's hook made as on a training thread, allocates at its peak
        less than one ``nn.BLOCK`` of float64 on a model of several blocks:
        no copy of the weights, gradient, moments or an epoch of features,
        and no per-block buffer in a hook.  Every rule with a hook is run."""
        ds = data.generate_synthetic(10, 300, 15, 2.0, seed=30)  # 150 samples
        spec = nn.ModelSpec((300, 256, 10))  # 79,626 parameters, 2.4 blocks
        params = nn.init_model(spec, 31)
        clients = [
            simulation.ClientState(r, np.arange(30 * r, 30 * r + 30), seed=r) for r in range(5)
        ]
        for kind, optimizer in (("fedprox", "adam"), ("scaffold", "sgd"), ("fedbabu", "adam")):
            optimizer = cfg.OptimizerSettings(kind=optimizer, lr=1e-2)
            workspace = simulation.Workspace.create(spec, optimizer, 16)
            rule = strategies.RULES[kind](
                cfg.StrategyConfig(kind=kind), spec, params, 5, optimizer
            )
            outs = [np.empty_like(params) for _ in clients]
            tracemalloc.start()
            try:
                base, _ = tracemalloc.get_traced_memory()
                for client, out in zip(clients, outs):
                    simulation.local_train(
                        spec, ds, client, params, epochs=2, batch_size=16, round_index=0,
                        workspace=workspace, adjust=rule.hooks(params, client.client_id),
                        out=out,
                    )
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak - base < 8 * nn.BLOCK, kind
            assert not np.array_equal(outs[0], params), kind


def reference_forward(spec, params, x):
    """Forward pass with a fresh array for every intermediate; returns the
    logits and the input of every layer."""
    acts = [x]
    for l, (w_sl, b_sl, shape) in enumerate(spec.layers):
        z = acts[l] @ params[w_sl].reshape(shape) + params[b_sl]
        if l == spec.num_layers - 1:
            return z, acts
        acts.append(np.maximum(z, 0.0) if spec.activation == "relu" else np.tanh(z))


def reference_loss_and_grad(spec, params, x, y):
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
        w_sl, b_sl, shape = spec.layers[l]
        grad[w_sl] = (acts[l].T @ delta).ravel()
        grad[b_sl] = delta.sum(axis=0)
        if l > 0:
            a = acts[l]
            deriv = (a > 0.0).astype(np.float64) if spec.activation == "relu" else 1.0 - a * a
            delta = (delta @ params[w_sl].reshape(shape).T) * deriv
    return loss, grad


def reference_local_train(spec, ds, client, global_params, *, epochs, batch_size,
                          kind, lr, round_index, mu=0.0, correction=None, freeze=None):
    """Local training with the functional sgd/adam update: new params, new
    moments and a new gradient on every step.  ``mu`` adds the proximal pull
    to ``global_params``, ``correction`` is added to every gradient and the
    ``freeze`` span of it is zeroed."""
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
            _, grad = reference_loss_and_grad(spec, params, x[batch], y[batch])
            if mu > 0:
                grad = grad + mu * (params - global_params)
            if correction is not None:
                grad = grad + correction
            if freeze is not None:
                grad[freeze] = 0.0
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
    equal the allocating reference above for every rule's hook, which the
    reference does not call: it applies each rule's formula itself."""

    def setup(self, activation="relu", wide=False):
        if wide:  # 39,818 parameters: two blocks, the second one ragged
            ds = data.generate_synthetic(10, 300, 15, 2.0, seed=30)  # 150 samples
            spec = nn.ModelSpec((300, 128, 10), activation=activation)
        else:
            ds = data.generate_synthetic(3, 5, 50, 2.0, seed=30)  # 150 samples
            spec = nn.ModelSpec((5, 8, 6, 3), activation=activation)
        params = nn.init_model(spec, 31)
        client = simulation.ClientState(3, np.arange(10, 110), seed=32)  # 100 samples
        return ds, spec, params, client

    @pytest.mark.parametrize(
        "strategy, kind, lr, activation, wide",
        [
            (cfg.StrategyConfig(), "adam", 1e-2, "relu", False),
            (cfg.StrategyConfig(), "sgd", 0.1, "relu", False),
            (cfg.StrategyConfig(), "adam", 1e-2, "tanh", False),
            (cfg.StrategyConfig(kind="fedprox", mu=0.3), "adam", 1e-2, "relu", False),
            (cfg.StrategyConfig(kind="fedprox", mu=0.3), "sgd", 0.1, "tanh", False),
            (cfg.StrategyConfig(kind="scaffold"), "sgd", 0.1, "relu", False),
            (cfg.StrategyConfig(kind="fedbabu"), "adam", 1e-2, "relu", False),
            (cfg.StrategyConfig(kind="fedbabu", head_layer=0), "sgd", 0.1, "relu", False),
            (cfg.StrategyConfig(kind="fedprox", mu=0.3), "adam", 1e-2, "relu", True),
            (cfg.StrategyConfig(kind="scaffold"), "sgd", 0.1, "relu", True),
        ],
        ids=["adam", "sgd", "adam-tanh", "fedprox-adam", "fedprox-sgd-tanh",
             "scaffold", "fedbabu-head", "fedbabu-first-layer",
             "fedprox-adam-wide", "scaffold-wide"],
    )
    def test_matches_reference_bitwise(self, strategy, kind, lr, activation, wide):
        """Through ``Federation._train_clients`` of a normalizing server,
        which also takes the client's mean latent."""
        ds, spec, params, client = self.setup(activation, wide)
        rng = np.random.default_rng(33)
        config = cfg.RunConfig(
            dataset=cfg.SyntheticData(), strategy=strategy,
            optimizer=cfg.OptimizerSettings(kind=kind, lr=lr), epochs=2, batch_size=16,
            hidden_sizes=spec.layer_sizes[1:-1], activation=spec.activation,
        )
        server = simulation.ServerState(params, round_index=4)
        # the rule keeps per-client memory for as many clients as the list holds
        fed = simulation.Federation(config, ds, ds, [client] * (client.client_id + 1), server)
        rule = fed.rule
        formulas = {}
        if strategy.kind == "fedprox":
            formulas = dict(mu=strategy.mu)
        if strategy.kind == "scaffold":
            size = spec.param_count()
            c, c_r = rng.normal(scale=0.05, size=size), rng.normal(scale=0.05, size=size)
            rule.c, rule.client_c[client.client_id] = c, c_r
            formulas = dict(correction=c - c_r)
        if strategy.kind == "fedbabu":
            formulas = dict(freeze=spec.layer_span(strategy.head_layer))
        broadcast = params.copy()
        (update,), (latent,) = fed._train_clients([client], 1, map, True)
        # two epochs of 100 samples in batches of 16: the last batch has 4 rows
        weights, tau, z = reference_local_train(
            spec, ds, client, params, kind=kind, lr=lr, epochs=2, batch_size=16,
            round_index=4, **formulas,
        )
        assert_array_equal(params, broadcast)  # the broadcast vector is left as it was
        assert update.tau == tau == 14
        assert_array_equal(update.weights, weights)
        assert_array_equal(latent, z)
        assert not np.array_equal(update.weights, params)

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_loss_matches_reference_bitwise(self, activation):
        ds, spec, params, _ = self.setup(activation)
        for rows in (slice(0, 64), slice(64, 67)):
            x, y = ds.features[rows], ds.labels[rows]
            loss, grad = nn.loss_and_grad(spec, params, x, y)
            ref_loss, ref_grad = reference_loss_and_grad(spec, params, x, y)
            assert loss == ref_loss
            assert_array_equal(grad, ref_grad)

    def test_clients_in_turn_from_one_template_match_separate_runs(self):
        ds, spec, params, client = self.setup()
        other = simulation.ClientState(4, np.arange(0, 60), seed=34)
        kwargs = dict(epochs=2, batch_size=16, round_index=1)
        workspace = simulation.Workspace.create(
            spec, cfg.OptimizerSettings(kind="adam", lr=1e-2), 16
        )
        in_turn = [
            simulation.local_train(spec, ds, c, params, workspace=workspace, **kwargs)
            for c in (client, other)
        ]
        for c, got in zip((client, other), in_turn):
            alone = simulation.local_train(
                spec, ds, c, params,
                workspace=simulation.Workspace.create(
                    spec, cfg.OptimizerSettings(kind="adam", lr=1e-2), 16
                ),
                **kwargs,
            )
            assert_array_equal(got.weights, alone.weights)
        assert not np.array_equal(params, in_turn[0].weights)


class TestFederationChecks:
    """A RunConfig built in Python checks its own values, as ``from_dict``
    does, so a bad setting fails by name before any federation exists."""

    @pytest.mark.parametrize("participation", [0.0, 1.5, float("nan")])
    def test_participation_outside_the_unit_interval_is_named(
        self, build_federation, participation
    ):
        with pytest.raises(ValueError, match="participation"):
            build_federation(participation=participation)

    def test_a_federation_without_clients_is_rejected(self, build_federation):
        """``run`` would otherwise fail in its first cohort draw, with a bare
        StopIteration."""
        fed = build_federation()
        with pytest.raises(ValueError, match="a federation needs at least one client"):
            simulation.Federation(fed.config, fed.train, fed.test, [], fed.server)


class TestRoundThreads:
    """The thread-count rule, on a machine faked through its two readings."""

    @pytest.fixture
    def machine(self, monkeypatch):
        def fake(cores, blas):
            monkeypatch.setattr(
                simulation.os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False
            )
            monkeypatch.setattr(simulation, "blas_threads", lambda: blas)

        return fake

    def test_small_model_trains_serially(self, machine):
        machine(cores=8, blas=1)
        assert simulation.round_threads(simulation.THREAD_MIN_PARAMS - 1, 50) == 1
        assert simulation.round_threads(simulation.THREAD_MIN_PARAMS, 50) == 8

    @pytest.mark.parametrize("blas", [None, 4, 6])
    def test_blas_on_every_core_keeps_the_round_serial(self, machine, blas):
        machine(cores=4, blas=blas)
        assert simulation.round_threads(5 * simulation.THREAD_MIN_PARAMS, 50) == 1

    @pytest.mark.parametrize("participants, expected", [(1, 1), (3, 3), (4, 4), (50, 4)])
    def test_pinned_blas_gives_a_thread_per_core_and_participant(
        self, machine, participants, expected
    ):
        machine(cores=4, blas=1)
        assert simulation.round_threads(5 * simulation.THREAD_MIN_PARAMS, participants) == expected

    def test_blas_threads_is_a_count_or_unknown(self):
        threads = simulation.blas_threads()
        assert threads is None or threads >= 1


class TestRunRound:
    def test_report_shape_and_weight_identities(self, build_federation):
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

    def test_reported_values_match_a_recomputed_round(self, build_federation):
        """Each client's cosine is that of its own retrained update with the
        new global model, and the round's accuracy and loss are the new
        model's on the test set, bit for bit."""
        fed = build_federation(normalize=True)
        fed.run_round()
        broadcast = fed.server.params.copy()
        reference = [
            simulation.local_train(
                fed.spec, fed.train, client, broadcast,
                epochs=fed.config.epochs, batch_size=fed.config.batch_size, round_index=1,
                workspace=simulation.Workspace.create(
                    fed.spec, fed.config.optimizer, fed.config.batch_size
                ),
            )
            for client in fed.clients
        ]
        report = fed.run_round()
        for metrics, update in zip(report.clients, reference, strict=True):
            assert metrics.client_id == update.client_id
            assert metrics.cos_local_global == contribution.cosine(
                update.weights, fed.server.params
            )
        accuracy, loss = simulation.evaluate(fed.spec, fed.server.params, fed.test)
        assert report.accuracy == accuracy
        assert report.loss == loss

    def test_non_finite_fold_names_the_round(self, build_federation, monkeypatch):
        fed = build_federation()
        fed.run(2)
        monkeypatch.setattr(
            fed.rule, "fold", lambda span, global_params, updates, u, out: out[span].fill(np.nan)
        )
        with pytest.raises(
            nn.TrainingDiverged,
            match=r"^round 2: aggregation produced non-finite parameters \(fedavg\)$",
        ):
            fed.run_round()

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("normalize", [True, False])
    @pytest.mark.parametrize("kind, optimizer", [("fedavg", "adam"), ("scaffold", "sgd")])
    def test_evaluation_starts_with_no_client_vector_alive(
        self, build_federation, monkeypatch, kind, optimizer, normalize, threads
    ):
        """numpy reports its buffers to tracemalloc.  When the round calls
        ``evaluate``, the memory it holds beyond its start is the new global
        vector and small change, not the 20 trained client vectors, so the
        evaluation's activations do not add to them."""
        held = []

        def recorded(*args):
            held.append(tracemalloc.get_traced_memory()[0])
            return original(*args)

        original = simulation.evaluate
        monkeypatch.setattr(simulation, "evaluate", recorded)
        force_threads(monkeypatch, threads)
        fed = build_federation(
            kind=kind, optimizer=cfg.OptimizerSettings(kind=optimizer, lr=0.05),
            normalize=normalize, num_clients=20, hidden_sizes=(256, 256),
        )
        vector = 8 * fed.spec.param_count()  # 68,355 parameters
        fed.run_round()  # makes the workspaces and the rule's first state
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            report = fed.run_round()
        finally:
            tracemalloc.stop()
        assert len(report.clients) == 20
        assert held[-1] - base < 2 * vector

    @pytest.mark.parametrize("threads", [1, 2])
    def test_server_work_runs_on_the_rounds_threads(self, build_federation, monkeypatch, threads):
        """The mean latents, the fold's spans and the cosines run on the
        round's threads: on two, none of them runs on the federation's
        thread; on one, all of them do."""
        calls = {"latent": [], "fold": [], "cosine": []}

        def recorded(name, function):
            def call(*args):
                calls[name].append(threading.get_ident())
                return function(*args)

            return call

        monkeypatch.setattr(nn, "mean_latent", recorded("latent", nn.mean_latent))
        monkeypatch.setattr(contribution, "cosine", recorded("cosine", contribution.cosine))
        force_threads(monkeypatch, threads)
        fed = build_federation(normalize=True, num_clients=6, hidden_sizes=(256, 256))
        assert fed.spec.param_count() >= simulation.THREAD_MIN_PARAMS
        monkeypatch.setattr(fed.rule, "fold", recorded("fold", fed.rule.fold))
        fed.run_round()
        assert {name: len(idents) for name, idents in calls.items()} == {
            "latent": 6, "fold": threads, "cosine": 6,
        }
        federation_thread = threading.get_ident()
        for name, idents in calls.items():
            if threads == 1:
                assert set(idents) == {federation_thread}, name
            else:
                assert federation_thread not in idents, name

    def test_normalization_off_reports_importance_as_final(self, build_federation):
        fed = build_federation(normalize=False)
        report = fed.run_round()
        for c in report.clients:
            assert c.u == c.nu
            assert c.lam == 0.75  # uniform fallback value 1 - 1/k

    def test_fedavg_round_is_importance_weighted_mean(self, build_federation):
        fed = build_federation(normalize=False)
        broadcast = fed.server.params.copy()
        expected_updates = [
            simulation.local_train(
                fed.spec, fed.train, client, broadcast,
                epochs=fed.config.epochs, batch_size=fed.config.batch_size, round_index=0,
                workspace=simulation.Workspace.create(
                    fed.spec, fed.config.optimizer, fed.config.batch_size
                ),
            )
            for client in fed.clients
        ]
        total = sum(up.n for up in expected_updates)
        expected = sum((up.n / total) * up.weights for up in expected_updates)
        fed.run_round()
        assert_allclose(fed.server.params, expected, rtol=0, atol=1e-12)

    def test_partial_participation_samples_deterministically(self, build_federation):
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

    @pytest.mark.parametrize(
        "participation, total, expected",
        [(0.07, 100, 7), (0.55, 100, 55), (0.28, 25, 7), (0.25, 200, 50), (0.3, 4, 2)],
    )
    def test_participation_share_samples_that_many_clients(
        self, build_federation, participation, total, expected
    ):
        """A share k/total samples exactly k clients, although the float
        product overshoots k for the first three; a share between two counts
        rounds up."""
        fed = build_federation(num_clients=total, participation=participation, shared_shards=True)
        assert len(fed.run_round().clients) == expected

    @pytest.mark.parametrize(
        "normalize, participation, per_round",
        [(False, 0.5, 0), (True, 0.5, 3), (True, 0.1, 0)],
        ids=["False-0", "True-3", "True-lone-0"],
    )
    def test_mean_latent_is_taken_only_when_normalizing(
        self, build_federation, monkeypatch, normalize, participation, per_round
    ):
        """Only a normalizing round of two or more clients reads the latents,
        so a lone participant's is never taken."""
        calls = []

        def counted(*args):
            calls.append(args)
            return original(*args)

        original = nn.mean_latent
        monkeypatch.setattr(nn, "mean_latent", counted)
        fed = build_federation(normalize=normalize, num_clients=6, participation=participation)
        for round_index in range(1, 3):
            fed.run_round()
            assert len(calls) == per_round * round_index

    def test_rounds_zero_is_a_no_op(self, build_federation):
        fed = build_federation()
        before = fed.server.params.copy()
        assert fed.run(0) == []
        assert_array_equal(fed.server.params, before)

    def test_scaffold_demands_sgd_at_construction(self, build_federation):
        with pytest.raises(ValueError, match="sgd"):
            build_federation(kind="scaffold")

    def test_scaffold_round_updates_server_variate(self, build_federation):
        fed = build_federation(
            kind="scaffold", optimizer=cfg.OptimizerSettings(kind="sgd", lr=0.05)
        )
        assert_array_equal(fed.rule.c, 0.0)
        fed.run_round()
        assert np.any(fed.rule.c != 0.0)
        for client in fed.clients:
            assert np.any(fed.rule.client_c[client.client_id] != 0.0)


class TestDeterminism:
    def test_identical_seeds_reproduce_the_run(self, build_federation):
        a = build_federation(normalize=True, seed=5)
        b = build_federation(normalize=True, seed=5)
        ra = a.run(3)
        rb = b.run(3)
        assert_array_equal(a.server.params, b.server.params)
        assert strip_durations(ra) == strip_durations(rb)

    @pytest.mark.parametrize(
        "kind, shape, threads",
        # four threads: more than the cores of a small machine
        [pytest.param(kind, {}, 4, id=kind) for kind in strategies.STRATEGY_KINDS]
        # 40,963 parameters and eight steps per client: the clients' fedprox
        # hooks walk their blocks at the same time
        + [pytest.param("fedprox", dict(hidden_sizes=(4096,), batch_size=4, epochs=2), 2,
                        id="fedprox-wide"),
           pytest.param("fedavg", dict(normalize=False), 4, id="fedavg-plain")],
    )
    def test_thread_pool_matches_serial_bitwise(
        self, build_federation, monkeypatch, short_switch_interval, kind, shape, threads
    ):
        # scaffold's variate update divides by the local rate of plain sgd
        optimizer = cfg.OptimizerSettings(kind="sgd", lr=0.05) if kind == "scaffold" else None
        common = {
            **dict(kind=kind, normalize=True, num_clients=6, seed=9, optimizer=optimizer),
            **shape,
        }
        serial = build_federation(**common)
        rs = run_bounded(serial, 3)
        assert len(serial.workspaces) == 1
        force_threads(monkeypatch, threads)
        pooled = build_federation(**common)
        rp = run_bounded(pooled, 3)
        assert len(pooled.workspaces) == threads
        assert_array_equal(serial.server.params, pooled.server.params)
        assert strip_durations(rs) == strip_durations(rp)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_threaded_divergence_names_the_serial_client_and_step(
        self, build_federation, monkeypatch, short_switch_interval
    ):
        """Clients 2 and 4 get a huge control-variate correction and blow up.
        Whichever thread fails first, the round raises client 2's error, the
        one a serial round raises."""
        common = dict(
            kind="scaffold", optimizer=cfg.OptimizerSettings(kind="sgd", lr=0.05),
            num_clients=6, seed=9, batch_size=4,
        )
        errors = []
        for threads in (1, 4):
            force_threads(monkeypatch, threads)
            fed = build_federation(**common)
            for r in (2, 4):
                fed.rule.client_c[r][:] = -1e200
            diverged = r"client 2 diverged at local step \d+"
            with pytest.raises(nn.TrainingDiverged, match=diverged) as info:
                run_bounded(fed, 1)
            errors.append(str(info.value))
        assert errors[0] == errors[1]

    def test_identical_clients_make_normalization_inert(self, build_federation):
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
    """Runs set up by ``simulation.build``, and the checks their config passes."""

    def base_config(self, **overrides):
        fields = dict(
            dataset=cfg.SyntheticData(classes=4, dims=6, per_class=40, spread=3.0),
            strategy=cfg.StrategyConfig(),
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
        config = self.base_config()
        federation = simulation.build(config)
        reports = federation.run(config.rounds)
        assert [r.round_index for r in reports] == [0, 1]
        assert np.isfinite(reports[-1].accuracy)
        assert federation.spec.layer_sizes == (6, 8, 4)

    def test_label_split_experiment_runs(self):
        config = self.base_config(
            partition=cfg.LabelSplitPartition(groups=((0, 1), (2, 3))), clients=2
        )
        federation = simulation.build(config)
        reports = federation.run(config.rounds)
        assert len(reports) == 2
        assert len(federation.clients) == 2

    def test_build_trains_nothing(self):
        """The built federation is at round 0 with the initial weights of
        the seed's init stream."""
        config = self.base_config()
        federation = simulation.build(config)
        assert federation.server.round_index == 0
        initial = nn.init_model(
            simulation.model_spec(config, federation.train),
            simulation._derive_seed(config.seed, simulation._TAG_INIT)[0],
        )
        assert_array_equal(federation.server.params.view(np.uint64), initial.view(np.uint64))

    def test_python_config_gets_the_cross_key_checks(self):
        """A RunConfig built in Python is checked as one read from JSON, so
        three label groups cannot silently stand for ten clients."""
        with pytest.raises(cfg.ConfigError, match="lists 3 clients but clients = 10"):
            self.base_config(
                partition=cfg.LabelSplitPartition(groups=((0,), (1,), (2, 3))), clients=10
            )

    PYTHON_VALUES = [
        ("normalize", "false", "false"),
        ("hidden_sizes", (8.7,), [8.7]),
        ("participation", True, True),
        ("seed", -1, -1),
        ("rounds", 2.0, 2.0),
        # a section checks its own values when built; here it is of the wrong kind
        ("dataset", cfg.DirichletPartition(), {"kind": "dirichlet"}),
        ("partition", cfg.SyntheticData(), {"kind": "synthetic"}),
    ]

    @pytest.mark.parametrize("build", ["constructor", "replace"])
    @pytest.mark.parametrize(
        "key, value, raw", PYTHON_VALUES, ids=[key for key, _, _ in PYTHON_VALUES]
    )
    def test_python_config_is_checked_like_json(self, build, key, value, raw):
        """A value given in Python fails with the message its JSON gets from
        ``from_dict``, whether the config is built or replaced."""
        valid = self.base_config()
        with pytest.raises(cfg.ConfigError) as from_json:
            cfg.from_dict(dict(valid.to_dict(), **{key: raw}))
        with pytest.raises(cfg.ConfigError) as from_python:
            if build == "replace":
                dataclasses.replace(valid, **{key: value})
            else:
                self.base_config(**{key: value})
        assert key in str(from_json.value)
        assert str(from_python.value) == str(from_json.value)

    def test_federation_trains_the_model_its_config_describes(self, build_federation):
        shape = dict(hidden_sizes=(7, 5), activation="tanh")
        built = build_federation(**shape)
        built.run(1)
        config = self.base_config(**shape)
        ran = simulation.build(config)
        ran.run(config.rounds)
        for fed in (built, ran):
            train = fed.train
            assert fed.spec == nn.ModelSpec((train.dim, 7, 5, train.class_count), "tanh")
            assert fed.server.params.shape == (fed.spec.param_count(),)

    def test_experiment_is_reproducible(self):
        """Two builds of one config hold the same bits, and so do their runs."""
        label_split = cfg.LabelSplitPartition(groups=((0, 1), (2, 3)))
        for config in (
            self.base_config(seed=11),
            self.base_config(seed=11, partition=label_split, clients=2),
        ):
            first, second = simulation.build(config), simulation.build(config)
            for a, b in ((first.train, second.train), (first.test, second.test)):
                assert_array_equal(a.features.view(np.uint64), b.features.view(np.uint64))
                assert_array_equal(a.labels, b.labels)
            assert len(first.clients) == len(second.clients) == config.clients
            for a, b in zip(first.clients, second.clients):
                assert a.client_id == b.client_id and a.seed == b.seed
                assert_array_equal(a.indices, b.indices)
            assert_array_equal(
                first.server.params.view(np.uint64), second.server.params.view(np.uint64)
            )
            first_reports = first.run(config.rounds)
            second_reports = second.run(config.rounds)
            assert_array_equal(first.server.params, second.server.params)
            assert strip_durations(first_reports) == strip_durations(second_reports)

    def test_participants_are_drawn_from_the_master_seed(self):
        """The draw depends only on the master seed, the round and the client
        count; these ids pin the sampling seed derived from the master."""
        config = self.base_config(seed=0, clients=10, participation=0.5, rounds=4)
        reports = simulation.build(config).run(config.rounds)
        assert [[c.client_id for c in r.clients] for r in reports] == [
            [0, 1, 5, 7, 9], [1, 2, 3, 4, 5], [2, 4, 5, 7, 9], [0, 2, 4, 5, 9],
        ]

    def test_idx_experiment_splits_the_bits_of_load_idx_without_an_unsplit_copy(self, tmp_path):
        """An IDX run's train and test sides are bit-equal to splitting
        ``load_idx``'s float64 dataset, for every byte value, and its set-up
        allocates, beyond the features it keeps, less than one float64 copy
        of the unsplit pixels: it scales each side, never the whole file."""
        count, side = 256, 16
        pixels = np.random.default_rng(7).permutation(
            np.tile(np.arange(256, dtype=np.uint8), count * side * side // 256)
        )
        classes = (np.arange(count) % 4).astype(np.uint8)
        images, labels = tmp_path / "images.idx", tmp_path / "labels.idx"
        images.write_bytes(
            struct.pack(">IIII", data.IDX_IMAGE_MAGIC, count, side, side) + pixels.tobytes()
        )
        labels.write_bytes(struct.pack(">II", data.IDX_LABEL_MAGIC, count) + classes.tobytes())
        config = self.base_config(
            dataset=cfg.IdxData(images=str(images), labels=str(labels)), rounds=1, seed=3
        )
        built = simulation.build(config)
        reports = built.run(config.rounds)
        assert np.isfinite(reports[0].accuracy)
        expected = data.train_test_split(
            data.load_idx(images, labels),
            config.test_fraction,
            simulation._derive_seed(config.seed, simulation._TAG_SPLIT)[0],
        )
        sides = (built.train, built.test)
        for side_data, reference in zip(sides, expected):
            assert_array_equal(
                side_data.features.view(np.uint64), reference.features.view(np.uint64)
            )
            assert_array_equal(side_data.labels, reference.labels)
            assert side_data.class_count == reference.class_count == 4

        # the run above has made every lazy allocation of the set-up path
        tracemalloc.start()
        try:
            federation = simulation.build(
                self.base_config(dataset=config.dataset, rounds=0, seed=3)
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        kept = federation.train.features.nbytes + federation.test.features.nbytes
        assert kept == 8 * count * side * side
        assert peak - kept < 8 * count * side * side

    def test_unsplit_dataset_is_freed_before_the_first_round(self, monkeypatch):
        """Only the train and test parts outlive the split."""
        unsplit = []
        original = simulation._build_dataset

        def traced(config, seed):
            dataset = original(config, seed)
            unsplit.append(weakref.ref(dataset))
            return dataset

        monkeypatch.setattr(simulation, "_build_dataset", traced)
        alive = []
        config = self.base_config()
        simulation.build(config).run(
            config.rounds, on_report=lambda report: alive.append(unsplit[0]() is not None)
        )
        assert alive == [False, False]
