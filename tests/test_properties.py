"""Property checks: contribution weighting, partitioning and the reductions
between aggregation rules over generated inputs.

Every test derandomizes hypothesis and keeps no example database, so the
suite draws the same examples on every run and writes nothing to disk.
"""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from fednorm import contribution as co
from fednorm import data, nn, strategies

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
        latents = [co.MeanLatent(r, z[r]) for r in range(len(z))]
        s = co.similarity_matrix(latents)
        s_perm = co.similarity_matrix([latents[p] for p in perm])
        np.testing.assert_allclose(s_perm, s[np.ix_(perm, perm)], rtol=0, atol=1e-12)

        lam = co.contribution_factors(s, temperature)
        lam_perm = co.contribution_factors(s_perm, temperature)
        np.testing.assert_allclose(lam_perm, lam[perm], rtol=0, atol=1e-12)


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
        cfg = data.DirichletConfig(alpha=alpha, clients=clients, min_samples_per_client=1)
        plan = data.partition_dirichlet(ds, cfg, seed)
        merged = np.concatenate(plan.assignments)
        assert len(np.unique(merged)) == len(merged)
        np.testing.assert_array_equal(np.sort(merged), np.arange(len(ds)))

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
        strategies.ClientUpdate(r, weights[r], np.ones(2), 10, taus[r]) for r in range(clients)
    ]
    return spec, global_params, updates, raw / raw.sum()


def fold(kind, spec, global_params, updates, u, **knobs):
    """One fresh rule's fold through ``strategies.aggregate``."""
    cfg = strategies.StrategyConfig(kind=kind, **knobs)
    optimizer = nn.OptimizerState(kind="sgd", lr=0.1)
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
