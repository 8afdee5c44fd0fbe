"""Property checks: contribution weighting, partitioning and the reductions
between aggregation rules over generated inputs.

Every test derandomizes hypothesis and keeps no example database, so the
suite draws the same examples on every run and writes nothing to disk.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from fednorm import contribution as co
from fednorm import config, data, nn, strategies

deterministic = settings(derandomize=True, database=None, deadline=None)


@st.composite
def latents_and_permutation(draw):
    clients = draw(st.integers(2, 8))
    dim = draw(st.integers(1, 6))
    z = draw(
        arrays(np.float64, (clients, dim), elements=st.floats(-10.0, 10.0))
        .filter(lambda z: (np.linalg.norm(z, axis=1) > 1e-3).all())
    )
    return z, np.array(draw(st.permutations(range(clients))))


class TestContributionEquivariance:
    @deterministic
    @given(case=latents_and_permutation(), temperature=st.floats(0.05, 5.0))
    def test_permuting_clients_permutes_similarity_and_factors(self, case, temperature):
        z, perm = case
        s = co.similarity_matrix(list(z), range(len(z)))
        s_perm = co.similarity_matrix([z[p] for p in perm], perm)
        np.testing.assert_allclose(s_perm, s[np.ix_(perm, perm)], rtol=0, atol=1e-12)

        lam = co.contribution_factors(s, temperature)
        lam_perm = co.contribution_factors(s_perm, temperature)
        np.testing.assert_allclose(lam_perm, lam[perm], rtol=0, atol=1e-12)


@st.composite
def latents_and_importance(draw):
    """Mean latents of 2-10 clients and importance weights with at least two
    positive entries, each at least 0.01 before normalization."""
    clients = draw(st.integers(2, 10))
    dim = draw(st.integers(1, 6))
    z = draw(
        arrays(np.float64, (clients, dim), elements=st.floats(-10.0, 10.0))
        .filter(lambda z: (np.linalg.norm(z, axis=1) > 1e-3).all())
    )
    raw = draw(
        arrays(np.float64, clients, elements=st.just(0.0) | st.floats(0.01, 1.0))
        .filter(lambda raw: np.count_nonzero(raw) >= 2)
    )
    return z, raw / raw.sum()


# ‖u−ν‖₁ and its bound are sums of K float64 terms, each off by about 1e-16.
# Where p·ν is that small, so is the bound, and rounding alone can exceed it
# by a large relative amount (a random check went over by 2e-7 relative);
# the bounds therefore hold up to this absolute slack.
REACH_SLACK = 1e-14


class TestFactorReach:
    """λ = 1 − p with p = softmax(σ/T) on the simplex, so u_r − ν_r =
    ν_r (p·ν − p_r) / (1 − p·ν): the factors move at most 2 p·ν / (1 − p·ν)
    of the weight, and raise no share by more than 1 / (1 − ν_max)."""

    @deterministic
    @given(case=latents_and_importance(), temperature=st.floats(0.01, 2.0))
    def test_weight_moved_and_share_raised_are_bounded(self, case, temperature):
        z, nu = case
        lam = co.contribution_factors(co.similarity_matrix(list(z), range(len(z))), temperature)
        u = co.normalize_weights(lam, nu)
        p_nu = (1.0 - lam) @ nu
        assert np.abs(u - nu).sum() <= 2.0 * p_nu / (1.0 - p_nu) + REACH_SLACK
        held = nu > 0
        assert (u[held] / nu[held] <= 1.0 / (1.0 - nu.max()) + REACH_SLACK).all()


class TestLargestRemainder:
    @deterministic
    @given(
        weights=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12).filter(
            lambda w: sum(w) > 0
        ),
        total=st.integers(0, 10_000),
    )
    def test_counts_sum_to_total_and_stay_within_one(self, weights, total):
        proportions = np.array(weights) / np.sum(weights)
        counts = data._largest_remainder(proportions, total)
        assert counts.sum() == total
        assert (np.abs(counts - proportions * total) <= 1.0 + 1e-9).all()


def labelled_dataset(classes: int, per_class: int) -> data.Dataset:
    labels = np.repeat(np.arange(classes), per_class)
    return data.Dataset(np.zeros((len(labels), 2)), labels, classes)


def bucket_partition(dataset, *, alpha, clients, min_samples, max_redraws, seed):
    """The per-client bucket algorithm ``partition_dirichlet`` replaced, with
    the same rng calls: each draw splits every class's permuted rows into one
    chunk per client and each client's chunks are sorted together.  None when
    no draw gives every client ``min_samples`` rows."""
    rng = np.random.default_rng(seed)
    for _ in range(max_redraws + 1):
        buckets = [[] for _ in range(clients)]
        for c in range(dataset.class_count):
            idx = np.flatnonzero(dataset.labels == c)
            if idx.size == 0:
                continue
            idx = rng.permutation(idx)
            shares = rng.dirichlet(np.full(clients, alpha))
            counts = data._largest_remainder(shares, idx.size)
            for r, chunk in enumerate(np.split(idx, np.cumsum(counts)[:-1])):
                buckets[r].append(chunk)
        if min(sum(len(c) for c in b) for b in buckets) >= min_samples:
            return [np.sort(np.concatenate(b)) for b in buckets]
    return None


class TestPartitioners:
    @deterministic
    @given(
        classes=st.integers(2, 5),
        per_class=st.integers(5, 30),
        clients=st.integers(2, 5),
        alpha=st.floats(0.5, 10.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_dirichlet_shards_are_disjoint_and_cover_the_train_set(
        self, classes, per_class, clients, alpha, seed
    ):
        ds = labelled_dataset(classes, per_class)
        plan = data.partition_dirichlet(
            ds, alpha=alpha, clients=clients, min_samples=1, max_redraws=100, seed=seed
        )
        merged = np.concatenate(plan.assignments)
        assert len(np.unique(merged)) == len(merged)
        np.testing.assert_array_equal(np.sort(merged), np.arange(len(ds)))

    @deterministic
    @given(
        # a zero count leaves a class with no rows below class_count
        shard_sizes=st.lists(st.integers(0, 40), min_size=1, max_size=6),
        shuffle=st.integers(0, 2**32 - 1),
        clients=st.integers(2, 8),
        # small alpha leaves clients empty, so draws are redrawn or run out
        alpha=st.sampled_from([0.01, 0.05]) | st.floats(0.01, 10.0),
        min_samples=st.integers(1, 5),
        max_redraws=st.integers(0, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_dirichlet_assignments_match_per_client_buckets(
        self, shard_sizes, shuffle, clients, alpha, min_samples, max_redraws, seed
    ):
        assume(clients * min_samples <= sum(shard_sizes))
        labels = np.random.default_rng(shuffle).permutation(
            np.repeat(np.arange(len(shard_sizes)), shard_sizes)
        )
        ds = data.Dataset(np.zeros((len(labels), 1)), labels, len(shard_sizes))
        args = dict(alpha=alpha, clients=clients, min_samples=min_samples,
                    max_redraws=max_redraws, seed=seed)
        expected = bucket_partition(ds, **args)
        if expected is None:
            with pytest.raises(ValueError, match=f"after {max_redraws + 1} attempts"):
                data.partition_dirichlet(ds, **args)
            return
        plan = data.partition_dirichlet(ds, **args)
        assert len(plan.assignments) == clients
        for got, want in zip(plan.assignments, expected):
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, want)

    @deterministic
    @given(
        classes=st.integers(2, 6),
        per_class=st.integers(6, 20),  # six sharers of a one-class group each get a sample
        data_=st.data(),
    )
    def test_label_split_shards_are_disjoint(self, classes, per_class, data_):
        # groups that are pairwise identical or disjoint: each client takes
        # one block of a random partition of the classes
        block_of = data_.draw(
            st.lists(st.integers(0, classes - 1), min_size=classes, max_size=classes)
        )
        blocks = [[c for c in range(classes) if block_of[c] == b] for b in sorted(set(block_of))]
        picks = data_.draw(st.lists(st.integers(0, len(blocks) - 1), min_size=1, max_size=6))
        ds = labelled_dataset(classes, per_class)
        plan = data.partition_label_split(ds, [blocks[i] for i in picks])
        merged = np.concatenate(plan.assignments)
        assert len(np.unique(merged)) == len(merged)


@st.composite
def update_sets(draw):
    """A small model, a broadcast vector, 1-6 client updates and weights on the simplex."""
    widths = draw(st.lists(st.integers(1, 4), min_size=3, max_size=5))
    spec = nn.ModelSpec(tuple(widths))
    size = spec.param_count()
    clients = draw(st.integers(1, 6))
    values = st.floats(-10.0, 10.0)
    weights = draw(arrays(np.float64, (clients, size), elements=values))
    global_params = draw(arrays(np.float64, size, elements=values))
    raw = draw(arrays(np.float64, clients, elements=st.floats(0.01, 1.0)))
    taus = draw(st.lists(st.integers(1, 50), min_size=clients, max_size=clients))
    updates = [
        strategies.ClientUpdate(r, weights[r], n=10, tau=taus[r]) for r in range(clients)
    ]
    return spec, global_params, updates, raw / raw.sum()


def fold(kind, spec, global_params, updates, u, **knobs):
    """One fresh rule's fold through ``strategies.aggregate``."""
    cfg = config.StrategyConfig(kind=kind, **knobs)
    optimizer = config.OptimizerSettings(kind="sgd", lr=0.1)
    rule = strategies.RULES[kind](cfg, spec, global_params, len(updates), optimizer)
    return strategies.aggregate(global_params, updates, u, rule)


class TestStrategyReductions:
    @deterministic
    @given(case=update_sets())
    def test_sgdm_without_momentum_is_fedavg_bitwise(self, case):
        fedavg = fold("fedavg", *case)
        np.testing.assert_array_equal(fold("sgdm", *case, beta=0.0, server_lr=1.0), fedavg)

    @deterministic
    @given(case=update_sets(), data_=st.data())
    def test_fedbabu_averages_the_body_and_keeps_the_head(self, case, data_):
        spec, global_params = case[:2]
        layer = data_.draw(st.integers(-spec.num_layers, spec.num_layers - 1))
        head = spec.layer_span(layer)
        body = np.ones(len(global_params), dtype=bool)
        body[head] = False
        fedavg = fold("fedavg", *case)
        babu = fold("fedbabu", *case, head_layer=layer)
        np.testing.assert_array_equal(babu[body], fedavg[body])
        np.testing.assert_array_equal(babu[head], global_params[head])

    @deterministic
    @given(case=update_sets(), tau=st.integers(1, 50))
    def test_fednova_with_equal_steps_is_fedavg(self, case, tau):
        for up in case[2]:
            up.tau = tau
        np.testing.assert_allclose(
            fold("fednova", *case), fold("fedavg", *case), rtol=0, atol=1e-12
        )

    @deterministic
    @given(case=update_sets())
    def test_scaffold_with_unit_server_rate_is_fedavg(self, case):
        np.testing.assert_allclose(
            fold("scaffold", *case, server_lr=1.0), fold("fedavg", *case), rtol=0, atol=1e-12
        )


def assert_same_bits(actual, expected):
    """Equal bit for bit, so 0.0 and -0.0 differ."""
    np.testing.assert_array_equal(
        np.asarray(actual).view(np.uint64), np.asarray(expected).view(np.uint64)
    )


@st.composite
def scaffold_rounds(draw):
    """A scaffold round: 1-64 of up to 72 clients with their taus, weights on
    the simplex, a local rate and server memory, with exact zeros among the
    values and clients that return the broadcast unchanged.

    A model has at least two parameters; at P = 1 numpy sums the one column
    of ``mean(axis=0)`` pairwise, not row by row."""
    clients = draw(st.integers(1, 64))
    total = clients + draw(st.integers(0, 8))
    size = draw(st.integers(2, 24))
    values = st.floats(-10.0, 10.0) | st.sampled_from([0.0, -0.0])
    global_params = draw(arrays(np.float64, size, elements=values))
    weights = draw(arrays(np.float64, (clients, size), elements=values))
    unmoved = draw(arrays(np.bool_, clients))
    weights[unmoved] = global_params
    c = draw(arrays(np.float64, size, elements=values))
    client_c = draw(arrays(np.float64, (total, size), elements=values))
    ids = sorted(draw(st.lists(st.integers(0, total - 1), min_size=clients,
                               max_size=clients, unique=True)))
    taus = draw(st.lists(st.integers(1, 50), min_size=clients, max_size=clients))
    raw = draw(arrays(np.float64, clients, elements=st.floats(0.01, 1.0)))
    lr = draw(st.floats(1e-3, 1.0))
    server_lr = draw(st.floats(0.1, 2.0))
    updates = [
        strategies.ClientUpdate(r, weights[i], n=10, tau=taus[i]) for i, r in enumerate(ids)
    ]
    return global_params, updates, raw / raw.sum(), lr, server_lr, c, client_c


class TestScaffoldFold:
    @deterministic
    @given(case=scaffold_rounds())
    def test_streamed_fold_matches_the_delta_matrix_bitwise(self, case):
        """The fold walks the clients one by one; the reference holds every
        client's variate delta in one (K, P) matrix."""
        global_params, updates, u, lr, server_lr, c, client_c = case
        cfg = config.StrategyConfig(kind="scaffold", server_lr=server_lr)
        optimizer = config.OptimizerSettings(kind="sgd", lr=lr)
        rule = strategies.Scaffold(cfg, None, global_params, len(client_c), optimizer)
        rule.c = c.copy()
        rule.client_c[:] = client_c
        new = strategies.aggregate(global_params, updates, u, rule)

        moved = global_params - np.array([up.weights for up in updates])
        taus = np.array([[up.tau] for up in updates])
        deltas = -c + moved / (taus * lr)
        drift = np.zeros_like(global_params)
        for row in u[:, None] * moved:
            drift += row
        assert_same_bits(new, global_params - server_lr * drift)
        assert_same_bits(rule.c, c + (len(updates) / len(client_c)) * deltas.mean(axis=0))
        ids = [up.client_id for up in updates]
        for r, row in enumerate(client_c):
            expected = row + deltas[ids.index(r)] if r in ids else row
            assert_same_bits(rule.client_c[r], expected)


@st.composite
def span_rounds(draw):
    """A round of any rule: a model of at least twelve parameters, 1-6 of up
    to 9 clients with their taus, weights on the simplex (zeros included),
    the rules' knobs and nonzero server memory, with exact zeros of both
    signs among the values."""
    spec = nn.ModelSpec(tuple(draw(st.lists(st.integers(2, 5), min_size=3, max_size=4))))
    size = spec.param_count()
    clients = draw(st.integers(1, 6))
    total = clients + draw(st.integers(0, 3))
    values = st.floats(-10.0, 10.0) | st.sampled_from([0.0, -0.0])
    global_params = draw(arrays(np.float64, size, elements=values))
    weights = draw(arrays(np.float64, (clients, size), elements=values))
    ids = draw(st.lists(st.integers(0, total - 1), min_size=clients, max_size=clients,
                        unique=True))
    taus = draw(st.lists(st.integers(1, 50), min_size=clients, max_size=clients))
    raw = draw(
        arrays(np.float64, clients, elements=st.just(0.0) | st.floats(0.01, 1.0))
        .filter(lambda raw: raw.sum() > 0)
    )
    updates = [
        strategies.ClientUpdate(r, weights[i], n=10, tau=taus[i]) for i, r in enumerate(ids)
    ]
    knobs = dict(
        beta=draw(st.floats(0.0, 0.99)),
        server_lr=draw(st.floats(0.1, 2.0)),
        head_layer=draw(st.integers(-spec.num_layers, spec.num_layers - 1)),
    )
    memory = dict(
        c=draw(arrays(np.float64, size, elements=values)),
        client_c=draw(arrays(np.float64, (total, size), elements=values)),
        momentum=draw(arrays(np.float64, size, elements=values)),
    )
    return spec, global_params, updates, raw / raw.sum(), knobs, memory


class TestFoldSpans:
    @deterministic
    @given(case=span_rounds(), kind=st.sampled_from(strategies.STRATEGY_KINDS),
           lr=st.floats(1e-3, 1.0))
    def test_any_cut_gives_the_bits_of_one_span(self, case, kind, lr):
        """``aggregate`` cut into 1, 2, 3 or 5 spans returns the vector, and
        leaves the rule's memory, that one fold of the whole vector as a
        single span gives, bit for bit."""
        spec, global_params, updates, u, knobs, memory = case

        def rule_with_memory():
            cfg = config.StrategyConfig(kind=kind, **knobs)
            optimizer = config.OptimizerSettings(kind="sgd", lr=lr)
            rule = strategies.RULES[kind](
                cfg, spec, global_params, len(memory["client_c"]), optimizer
            )
            for name, value in memory.items():
                if hasattr(rule, name):
                    getattr(rule, name)[:] = value
            return rule

        whole = rule_with_memory()
        expected = np.full_like(global_params, np.nan)
        whole.fold(global_params, updates, u, expected)(slice(0, len(expected)))
        for spans in (1, 2, 3, 5):
            rule = rule_with_memory()
            assert_same_bits(strategies.aggregate(global_params, updates, u, rule, spans), expected)
            for name in memory:
                if hasattr(rule, name):
                    assert_same_bits(getattr(rule, name), getattr(whole, name))
