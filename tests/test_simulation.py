"""Round-loop checks: local training, reporting, determinism, parallelism."""

import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from fednorm import config as cfg
from fednorm import data, nn, simulation, strategies


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
        workspace = simulation.Workspace.create(spec, nn.OptimizerState(), 8)
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
                workspace=simulation.Workspace.create(spec, nn.OptimizerState(), 8),
            )

    def test_step_count_covers_partial_batches(self):
        ds = data.generate_synthetic(2, 3, 50, 3.0, seed=0)  # 100 samples
        client = simulation.ClientState(0, np.arange(100), seed=1)
        spec = nn.ModelSpec((3, 4, 2))
        update = simulation.local_train(
            spec, ds, client, nn.init_model(spec, 2),
            epochs=2, batch_size=64, round_index=0,
            workspace=simulation.Workspace.create(spec, nn.OptimizerState(), 64),
        )
        assert update.tau == 4  # ceil(100/64) batches per epoch, twice
        assert update.n == 100

    def test_latent_summary_taken_after_final_epoch(self, build_federation):
        """Asked for, the mean latent is that of the trained weights over the
        whole shard; otherwise the update carries none and its weights are
        the same."""
        fed = build_federation(normalize=True, epochs=2, batch_size=16)
        client = fed.clients[1]
        update = fed._train_clients([client], latent=True)[0]
        shard = fed.train.features[client.indices]
        assert_array_equal(update.z, nn.mean_latent(fed.spec, update.weights, shard))
        plain = fed._train_clients([client], latent=False)[0]
        assert plain.z is None
        assert_array_equal(plain.weights, update.weights)

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
                workspace=simulation.Workspace.create(spec, nn.OptimizerState(), 8),
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

        def adjust(params, grad):
            grad += 1e200

        with pytest.raises(nn.TrainingDiverged, match=r"client 7 diverged at local step \d+"):
            simulation.local_train(
                spec, ds, client, nn.init_model(spec, 2),
                epochs=4, batch_size=40, round_index=0, adjust=adjust,
                workspace=simulation.Workspace.create(
                    spec, nn.OptimizerState(kind="sgd", lr=1.0), 40
                ),
            )

    def test_workspace_training_allocates_less_than_a_parameter_vector(self):
        """numpy reports its buffers to tracemalloc.  Given a workspace, an
        output vector and a hook made beforehand, five clients' training, all
        that runs on a training thread, allocates at its peak less than one
        parameter vector: no copy of the weights, gradient, moments or an
        epoch of features."""
        ds = data.generate_synthetic(10, 300, 15, 2.0, seed=30)  # 150 samples
        spec = nn.ModelSpec((300, 128, 10))  # 39,818 parameters
        params = nn.init_model(spec, 31)
        optimizer = nn.OptimizerState(kind="adam", lr=1e-2)
        workspace = simulation.Workspace.create(spec, optimizer, 16)
        rule = strategies.FedProx(
            strategies.StrategyConfig(kind="fedprox"), spec, params, 5, optimizer
        )
        clients = [
            simulation.ClientState(r, np.arange(30 * r, 30 * r + 30), seed=r) for r in range(5)
        ]
        jobs = [(c, rule.hooks(params, c.client_id), np.empty_like(params)) for c in clients]
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            for client, adjust, out in jobs:
                simulation.local_train(
                    spec, ds, client, params, epochs=2, batch_size=16, round_index=0,
                    workspace=workspace, adjust=adjust, out=out,
                )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - base < 8 * spec.param_count()
        assert not np.array_equal(jobs[0][2], params)


def reference_forward(spec, params, x):
    """Forward pass with a fresh array for every intermediate; returns the
    logits and the input of every layer."""
    acts = [x]
    for l, ((w_sl, b_sl), shape) in enumerate(zip(spec.layer_slices(), spec.layer_shapes())):
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
        w_sl, b_sl = spec.layer_slices()[l]
        grad[w_sl] = (acts[l].T @ delta).ravel()
        grad[b_sl] = delta.sum(axis=0)
        if l > 0:
            a = acts[l]
            deriv = (a > 0.0).astype(np.float64) if spec.activation == "relu" else 1.0 - a * a
            delta = (delta @ params[w_sl].reshape(spec.layer_shapes()[l]).T) * deriv
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
            (strategies.StrategyConfig(), "adam", 1e-2, "relu", False),
            (strategies.StrategyConfig(), "sgd", 0.1, "relu", False),
            (strategies.StrategyConfig(), "adam", 1e-2, "tanh", False),
            (strategies.StrategyConfig(kind="fedprox", mu=0.3), "adam", 1e-2, "relu", False),
            (strategies.StrategyConfig(kind="fedprox", mu=0.3), "sgd", 0.1, "tanh", False),
            (strategies.StrategyConfig(kind="scaffold"), "sgd", 0.1, "relu", False),
            (strategies.StrategyConfig(kind="fedbabu"), "adam", 1e-2, "relu", False),
            (strategies.StrategyConfig(kind="fedbabu", head_layer=0), "sgd", 0.1, "relu", False),
            (strategies.StrategyConfig(kind="fedprox", mu=0.3), "adam", 1e-2, "relu", True),
            (strategies.StrategyConfig(kind="scaffold"), "sgd", 0.1, "relu", True),
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
        )
        server = simulation.ServerState(params, round_index=4)
        # the rule keeps per-client memory for as many clients as the list holds
        fed = simulation.Federation(
            config, ds, ds, [client] * (client.client_id + 1), server, spec
        )
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
        update = fed._train_clients([client], latent=True)[0]
        # two epochs of 100 samples in batches of 16: the last batch has 4 rows
        weights, tau, z = reference_local_train(
            spec, ds, client, params, kind=kind, lr=lr, epochs=2, batch_size=16,
            round_index=4, **formulas,
        )
        assert_array_equal(params, broadcast)  # the broadcast vector is left as it was
        assert update.tau == tau == 14
        assert_array_equal(update.weights, weights)
        assert_array_equal(update.z, z)
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
        template = nn.OptimizerState(kind="adam", lr=1e-2)
        workspace = simulation.Workspace.create(spec, template, 16)
        in_turn = [
            simulation.local_train(spec, ds, c, params, workspace=workspace, **kwargs)
            for c in (client, other)
        ]
        for c, got in zip((client, other), in_turn):
            alone = simulation.local_train(
                spec, ds, c, params,
                workspace=simulation.Workspace.create(
                    spec, nn.OptimizerState(kind="adam", lr=1e-2), 16
                ),
                **kwargs,
            )
            assert_array_equal(got.weights, alone.weights)
        assert template.m is None and template.step == 0
        assert not np.array_equal(params, in_turn[0].weights)


class TestFederationChecks:
    """A RunConfig built in Python skips ``from_dict``'s key checks, so the
    federation checks the setting that would otherwise fail late."""

    @pytest.mark.parametrize("participation", [0.0, 1.5, float("nan")])
    def test_participation_outside_the_unit_interval_is_named(
        self, build_federation, participation
    ):
        with pytest.raises(ValueError, match="participation"):
            build_federation(participation=participation)


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
        assert simulation.round_threads(2 * nn.BLOCK - 1, 50) == 1
        assert simulation.round_threads(2 * nn.BLOCK, 50) == 8

    @pytest.mark.parametrize("blas", [None, 4, 6])
    def test_blas_on_every_core_keeps_the_round_serial(self, machine, blas):
        machine(cores=4, blas=blas)
        assert simulation.round_threads(10 * nn.BLOCK, 50) == 1

    @pytest.mark.parametrize("participants, expected", [(1, 1), (3, 3), (4, 4), (50, 4)])
    def test_pinned_blas_gives_a_thread_per_core_and_participant(
        self, machine, participants, expected
    ):
        machine(cores=4, blas=1)
        assert simulation.round_threads(10 * nn.BLOCK, participants) == expected

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
                    fed.spec, fed.local_optimizer, fed.config.batch_size
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
        + [pytest.param("fedprox", dict(hidden=4096, batch_size=4, epochs=2), 2,
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
        assert result.federation.spec.layer_sizes == (6, 8, 4)

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

    def test_participants_are_drawn_from_the_master_seed(self):
        """The draw depends only on the master seed, the round and the client
        count; these ids pin the sampling seed derived from the master."""
        result = simulation.run_experiment(
            self.base_config(seed=0, clients=10, participation=0.5, rounds=4)
        )
        assert [[c.client_id for c in r.clients] for r in result.reports] == [
            [0, 1, 5, 7, 9], [1, 2, 3, 4, 5], [2, 4, 5, 7, 9], [0, 2, 4, 5, 9],
        ]

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
        simulation.run_experiment(
            self.base_config(), on_report=lambda report: alive.append(unsplit[0]() is not None)
        )
        assert alive == [False, False]
