"""Exit checks for the package, one criterion per test.

Each test prints a [PASS]/[FAIL] line (visible under -rP or -s) and enforces
its own runtime budget.  The trend suite is expensive and shared by two
criteria through a module-scoped fixture.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from fednorm import config as cfg
from fednorm import contribution, data, nn, simulation, strategies

SCAFFOLD_LR = 0.05  # local sgd rate used wherever scaffold appears below


@contextmanager
def criterion(name, budget_s):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[FAIL] {name}")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_s, f"{name}: {elapsed:.1f}s exceeds {budget_s}s budget"
    print(f"[PASS] {name} ({elapsed:.1f}s)")


def random_similarity(rng, r):
    latents = [rng.normal(size=8) for _ in range(r)]
    return contribution.similarity_matrix(latents, range(r))


def experiment(kind, normalize, alpha, seed, rounds=30):
    opt = cfg.OptimizerSettings()
    if kind == "scaffold":
        opt = cfg.OptimizerSettings(kind="sgd", lr=SCAFFOLD_LR)
    run_cfg = cfg.RunConfig(
        dataset=cfg.SyntheticData(classes=10, dims=32, per_class=500, spread=3.0),
        strategy=cfg.StrategyConfig(kind=kind),
        partition=cfg.DirichletPartition(alpha=alpha),
        optimizer=opt,
        clients=10,
        rounds=rounds,
        seed=seed,
        normalize=normalize,
    )
    return simulation.build(run_cfg).run(run_cfg.rounds)


@pytest.fixture(scope="module")
def trend_results():
    """Final and per-round accuracies for every (strategy, alpha, seed,
    normalize) cell of the desk-scale benchmark."""
    start = time.perf_counter()
    results = {}
    for kind in strategies.STRATEGY_KINDS:
        for alpha in (0.1, 0.5):
            for seed in (0, 1, 2):
                scaled = experiment(kind, True, alpha, seed)
                plain = experiment(kind, False, alpha, seed)
                results[(kind, alpha, seed)] = (
                    [r.accuracy for r in scaled],
                    [r.accuracy for r in plain],
                )
    results["elapsed_s"] = time.perf_counter() - start
    return results


class TestFactorAlgebra:
    def test_factor_sum_and_range(self):
        """1000 random similarity matrices, R in 2..20, four temperatures:
        factors sum to R-1 within 1e-9 and each lies strictly inside (0,1)."""
        with criterion("factor algebra", budget_s=1.0):
            rng = np.random.default_rng(1001)
            temperatures = (0.25, 0.5, 1.0, 4.0)
            for i in range(1000):
                r = int(rng.integers(2, 21))
                s = random_similarity(rng, r)
                lam = contribution.contribution_factors(s, temperatures[i % 4])
                assert abs(lam.sum() - (r - 1)) <= 1e-9
                assert np.all((lam > 0.0) & (lam < 1.0))

    def test_normalized_weight_simplex(self):
        """Rescaled weights sum to 1 within 1e-12 on the same random suite."""
        with criterion("weight simplex", budget_s=1.0):
            rng = np.random.default_rng(1002)
            temperatures = (0.25, 0.5, 1.0, 4.0)
            for i in range(1000):
                r = int(rng.integers(2, 21))
                s = random_similarity(rng, r)
                lam = contribution.contribution_factors(s, temperatures[i % 4])
                nu = rng.dirichlet(np.ones(r))
                nu = nu / nu.sum()
                u = contribution.normalize_weights(lam, nu)
                assert abs(u.sum() - 1.0) <= 1e-12


class TestHomogeneityNoOp:
    def test_identical_latents_change_nothing(self, build_federation):
        """Identical latents leave uniform importance weights untouched, and a
        normalized 10-client 5-round run matches the plain run bit for bit."""
        with criterion("homogeneity no-op", budget_s=30.0):
            rng = np.random.default_rng(1003)
            z = rng.normal(size=16)
            lam = contribution.contribution_factors(
                contribution.similarity_matrix([z] * 10, range(10)), 0.5
            )
            nu = np.full(10, 1.0 / 10)
            assert_array_equal(contribution.normalize_weights(lam, nu), nu)

            def shared_shard_federation(normalize):
                return build_federation(
                    normalize=normalize, seed=42, hidden_sizes=(16,), num_clients=10,
                    shared_shards=True, shared_client_seed=77, epochs=2, batch_size=64,
                )

            scaled = shared_shard_federation(True)
            plain = shared_shard_federation(False)
            reports_scaled = scaled.run(5)
            reports_plain = plain.run(5)
            assert_array_equal(scaled.server.params, plain.server.params)
            for rs, rp in zip(reports_scaled, reports_plain):
                assert rs.accuracy == rp.accuracy
                assert rs.loss == rp.loss
                for cs, cp in zip(rs.clients, rp.clients):
                    assert cs.u == cp.u == cs.nu


class TestWorkedExample:
    def test_two_blocks_three_clients(self):
        """Two agreeing clients and one outlier at unit temperature."""
        with criterion("worked example", budget_s=1.0):
            s = np.array(
                [[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
            )
            lam = contribution.contribution_factors(s, 1.0)
            assert_allclose(lam, [0.57768, 0.57768, 0.84464], atol=1e-5)
            u = contribution.normalize_weights(lam, np.full(3, 1.0 / 3))
            assert_allclose(u, [0.28884, 0.28884, 0.42232], atol=1e-5)


class TestOutlierPrioritization:
    def test_minority_client_is_upweighted_and_better_aligned(self):
        """Two clients hold classes 0-7, one holds 8-9.  Normalization must
        rank the minority client's factor strictly highest every round and
        leave its local model closer to the global one than the plain run."""
        with criterion("outlier prioritization", budget_s=120.0):
            def run(normalize):
                run_cfg = cfg.RunConfig(
                    dataset=cfg.SyntheticData(
                        classes=10, dims=32, per_class=100, spread=3.0
                    ),
                    strategy=cfg.StrategyConfig(),
                    partition=cfg.LabelSplitPartition(
                        groups=(
                            (0, 1, 2, 3, 4, 5, 6, 7),
                            (0, 1, 2, 3, 4, 5, 6, 7),
                            (8, 9),
                        )
                    ),
                    optimizer=cfg.OptimizerSettings(),
                    clients=3,
                    rounds=20,
                    seed=0,
                    normalize=normalize,
                )
                return simulation.build(run_cfg).run(run_cfg.rounds)

            scaled = run(True)
            plain = run(False)
            for report in scaled:
                lam = [c.lam for c in report.clients]
                assert lam[2] > max(lam[0], lam[1])
            cos_scaled = scaled[-1].clients[2].cos_local_global
            cos_plain = plain[-1].clients[2].cos_local_global
            assert cos_scaled > cos_plain


class TestGradientCheck:
    def test_analytic_matches_central_differences(self):
        """100 random small networks, every coordinate checked."""
        with criterion("gradient check", budget_s=10.0):
            rng = np.random.default_rng(1006)
            worst = 0.0
            for _ in range(100):
                sizes = tuple(int(rng.integers(2, 6)) for _ in range(3))
                activation = ("relu", "tanh")[int(rng.integers(2))]
                spec = nn.ModelSpec(sizes, activation)
                params = nn.init_model(spec, int(rng.integers(1 << 30)))
                x = rng.normal(size=(5, sizes[0]))
                y = rng.integers(0, sizes[-1], size=5)
                _, grad = nn.loss_and_grad(spec, params, x, y)
                eps = 1e-6
                for j in range(spec.param_count()):
                    shifted = params.copy()
                    shifted[j] += eps
                    up, _ = nn.loss_and_grad(spec, shifted, x, y)
                    shifted[j] -= 2 * eps
                    down, _ = nn.loss_and_grad(spec, shifted, x, y)
                    numeric = (up - down) / (2 * eps)
                    err = abs(grad[j] - numeric) / max(
                        1e-8, abs(grad[j]) + abs(numeric)
                    )
                    worst = max(worst, err)
            assert worst < 1e-5


class TestStrategyReductions:
    def test_special_cases_collapse_to_fedavg(self, build_federation):
        """Each strategy's neutral setting reproduces plain averaging."""
        with criterion("strategy reductions", budget_s=60.0):
            rng = np.random.default_rng(1007)

            # fednova with equal step counts
            updates = [
                strategies.ClientUpdate(i, rng.normal(size=9), n=10, tau=6)
                for i in range(4)
            ]
            u = rng.dirichlet(np.ones(4))
            g = rng.normal(size=9)
            def rule(**knobs):
                strategy = cfg.StrategyConfig(**knobs)
                return strategies.RULES[strategy.kind](strategy, None, g, 4, cfg.OptimizerSettings())

            fedavg = strategies.aggregate(g, updates, u, rule())
            nova = strategies.aggregate(g, updates, u, rule(kind="fednova"))
            assert_allclose(nova, fedavg, rtol=0, atol=1e-12)

            # server momentum with beta=0, lr=1
            sgdm = strategies.aggregate(
                g, updates, u, rule(kind="sgdm", beta=0.0, server_lr=1.0)
            )
            assert_array_equal(sgdm, fedavg)

            # proximal term with mu=0, trained end to end
            ds = data.generate_synthetic(3, 5, 30, 3.0, seed=50)
            spec = nn.ModelSpec((5, 8, 3))
            params = nn.init_model(spec, 51)
            client = simulation.ClientState(0, np.arange(len(ds)), seed=52)
            optimizer = cfg.OptimizerSettings()
            kwargs = dict(
                epochs=2, batch_size=16, round_index=0,
                state=nn.OptimizerState(optimizer, spec.param_count()),
            )
            plain = simulation.local_train(
                spec, ds, client, params, **kwargs
            )
            prox_cfg = cfg.StrategyConfig(kind="fedprox", mu=0.0)
            prox_rule = strategies.FedProx(prox_cfg, spec, params, 1, optimizer)
            prox = simulation.local_train(
                spec, ds, client, params,
                adjust=prox_rule.hooks(params, client.client_id),
                **kwargs,
            )
            assert_array_equal(prox.weights, plain.weights)

            # frozen head preserved across a 10-round run
            fed = build_federation("fedbabu", seed=60, epochs=2, batch_size=64)
            head = fed.rule.head
            initial_head = fed.server.params[head].copy()
            for _ in range(10):
                fed.run_round()
                assert_array_equal(fed.server.params[head], initial_head)

            # scaffold with zero variates and a single local step
            ds = data.generate_synthetic(3, 5, 30, 3.0, seed=70)
            spec = nn.ModelSpec((5, 8, 3))
            params = nn.init_model(spec, 71)
            client = simulation.ClientState(0, np.arange(len(ds)), seed=72)
            size = spec.param_count()
            optimizer = cfg.OptimizerSettings(kind="sgd", lr=SCAFFOLD_LR)
            kwargs = dict(
                epochs=1, batch_size=len(ds), round_index=0,
                state=nn.OptimizerState(optimizer, spec.param_count()),
            )
            plain = simulation.local_train(
                spec, ds, client, params, **kwargs
            )
            scaffold_cfg = cfg.StrategyConfig(kind="scaffold")
            scaffold = strategies.Scaffold(scaffold_cfg, spec, params, 1, optimizer)
            scaffold.c = np.zeros(size)
            scaffold.client_c[client.client_id] = np.zeros(size)
            corrected = simulation.local_train(
                spec, ds, client, params,
                adjust=scaffold.hooks(params, client.client_id),
                **kwargs,
            )
            assert corrected.tau == 1
            assert_allclose(corrected.weights, plain.weights, rtol=0, atol=1e-12)


class TestTrendReproduction:
    def test_normalization_helps_most_under_high_skew(self, trend_results):
        """At alpha=0.1 the normalized mean final accuracy beats the plain one
        for at least 5 of 6 strategies, and the mean improvement there is at
        least the improvement at alpha=0.5."""
        with criterion("trend reproduction", budget_s=1.0):
            assert trend_results["elapsed_s"] < 1800.0
            improvements = {0.1: [], 0.5: []}
            wins = 0
            for kind in strategies.STRATEGY_KINDS:
                for alpha in (0.1, 0.5):
                    scaled = np.mean(
                        [trend_results[(kind, alpha, s)][0][-1] for s in (0, 1, 2)]
                    )
                    plain = np.mean(
                        [trend_results[(kind, alpha, s)][1][-1] for s in (0, 1, 2)]
                    )
                    improvements[alpha].append(scaled - plain)
                    if alpha == 0.1 and scaled >= plain:
                        wins += 1
            assert wins >= 5
            assert np.mean(improvements[0.1]) >= np.mean(improvements[0.5])


class TestConvergenceSpeed:
    def test_normalized_fedavg_reaches_plain_final_sooner(self, trend_results):
        """alpha=0.1 FedAvg: the normalized run hits the plain run's final
        accuracy in strictly fewer rounds for at least 2 of 3 seeds."""
        with criterion("convergence speed", budget_s=1.0):
            wins = 0
            for seed in (0, 1, 2):
                scaled, plain = trend_results[("fedavg", 0.1, seed)]
                target = plain[-1] - 1e-12
                first_scaled = next(
                    (i + 1 for i, a in enumerate(scaled) if a >= target), None
                )
                first_plain = next(
                    (i + 1 for i, a in enumerate(plain) if a >= target), None
                )
                if first_scaled is not None and first_scaled < first_plain:
                    wins += 1
            assert wins >= 2


class TestDirichletPartitioner:
    def test_uniform_limit_and_contracts(self):
        """Huge concentration gives near-uniform shares at a pinned seed;
        disjointness and the minimum-size floor hold on 100 random setups."""
        with criterion("dirichlet partitioner", budget_s=60.0):
            ds = data.generate_synthetic(5, 4, 400, 3.0, seed=200)
            plan = data.partition_dirichlet(
                ds, alpha=1e6, clients=8, min_samples=64, max_redraws=100, seed=200
            )
            uniform = 1.0 / 8
            for indices in plan.assignments:
                share = len(indices) / len(ds)
                assert abs(share - uniform) <= 0.2 * uniform

            rng = np.random.default_rng(1010)
            for _ in range(100):
                classes = int(rng.integers(2, 7))
                clients = int(rng.integers(2, 9))
                per_class = int(rng.integers(60, 200))
                alpha = float(rng.uniform(0.1, 5.0))
                ds = data.generate_synthetic(
                    classes, 4, per_class, 3.0, seed=int(rng.integers(1 << 30))
                )
                min_samples = max(1, (classes * per_class) // (clients * 8))
                plan = data.partition_dirichlet(
                    ds, alpha=alpha, clients=clients, min_samples=min_samples,
                    max_redraws=100, seed=int(rng.integers(1 << 30)),
                )
                joined = np.concatenate(plan.assignments)
                assert len(joined) == len(np.unique(joined))
                assert len(joined) == len(ds)
                assert all(len(a) >= min_samples for a in plan.assignments)
