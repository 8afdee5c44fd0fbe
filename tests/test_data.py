"""Dataset and partitioning checks: synthetic blobs, IDX parsing, shard plans."""

import struct
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from fednorm import data


def balanced_dataset(classes=10, per_class=500, dims=4, seed=100):
    return data.generate_synthetic(classes, dims, per_class, 5.0, seed=seed)


def write_idx_pair(tmp_path, pixels, labels, count=None, rows=2, cols=2,
                   image_magic=data.IDX_IMAGE_MAGIC, label_magic=data.IDX_LABEL_MAGIC,
                   label_count=None, truncate_images=0):
    count = len(labels) if count is None else count
    label_count = len(labels) if label_count is None else label_count
    image_bytes = struct.pack(">IIII", image_magic, count, rows, cols) + bytes(pixels)
    if truncate_images:
        image_bytes = image_bytes[:-truncate_images]
    images = tmp_path / "images.idx"
    images.write_bytes(image_bytes)
    labels_file = tmp_path / "labels.idx"
    labels_file.write_bytes(struct.pack(">II", label_magic, label_count) + bytes(labels))
    return images, labels_file


class TestSyntheticData:
    def test_shapes_and_balance(self):
        ds = data.generate_synthetic(3, 4, 10, 2.0, seed=1)
        assert len(ds) == 30
        assert ds.dim == 4
        assert_array_equal(np.bincount(ds.labels), [10, 10, 10])

    def test_deterministic(self):
        a = data.generate_synthetic(3, 4, 10, 2.0, seed=5)
        b = data.generate_synthetic(3, 4, 10, 2.0, seed=5)
        assert_array_equal(a.features, b.features)
        assert_array_equal(a.labels, b.labels)

    def test_seed_changes_data(self):
        a = data.generate_synthetic(3, 4, 10, 2.0, seed=5)
        b = data.generate_synthetic(3, 4, 10, 2.0, seed=6)
        assert not np.array_equal(a.features, b.features)

    def test_wide_spread_is_nearest_centroid_separable(self):
        """With spread 10 a nearest-centroid baseline clears 95% held out."""
        ds = data.generate_synthetic(5, 4, 60, 10.0, seed=9)
        train_mask = np.tile(np.arange(60) < 40, 5)
        centroids = np.stack([
            ds.features[(ds.labels == c) & train_mask].mean(axis=0) for c in range(5)
        ])
        held_x = ds.features[~train_mask]
        held_y = ds.labels[~train_mask]
        distances = np.linalg.norm(held_x[:, None, :] - centroids[None], axis=2)
        accuracy = np.mean(np.argmin(distances, axis=1) == held_y)
        assert accuracy > 0.95

    @pytest.mark.parametrize("classes, dims, per_class, spread, seed", [
        (3, 4, 10, 2.0, 5), (2, 2, 1, 0.5, 0), (10, 32, 200, 3.0, 7),
    ])
    def test_features_are_class_centers_plus_noise_bitwise(
        self, classes, dims, per_class, spread, seed
    ):
        rng = np.random.default_rng(seed)
        centers = rng.normal(size=(classes, dims))
        centers /= np.linalg.norm(centers, axis=1, keepdims=True)
        centers *= spread
        labels = np.repeat(np.arange(classes), per_class)
        noise = rng.normal(size=(classes * per_class, dims))
        ds = data.generate_synthetic(classes, dims, per_class, spread, seed=seed)
        assert_array_equal(ds.labels, labels)
        assert_array_equal(
            ds.features.view(np.uint64), (centers[labels] + noise).view(np.uint64)
        )

    def test_features_are_allocated_once(self):
        """numpy reports its buffers to tracemalloc: the peak of the call
        stays near the arrays it returns, with no second feature-sized copy.
        A first call imports numpy modules that load lazily, so one runs first."""
        data.generate_synthetic(2, 2, 1, 1.0, seed=0)
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            ds = data.generate_synthetic(10, 32, 500, 3.0, seed=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - base < 1.3 * (ds.features.nbytes + ds.labels.nbytes)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="classes"):
            data.generate_synthetic(1, 4, 10, 2.0, seed=0)
        with pytest.raises(ValueError, match="dims"):
            data.generate_synthetic(3, 1, 10, 2.0, seed=0)
        with pytest.raises(ValueError, match="spread"):
            data.generate_synthetic(3, 4, 10, 0.0, seed=0)

    def test_dataset_validates_labels(self):
        with pytest.raises(ValueError, match="labels"):
            data.Dataset(np.ones((2, 2)), np.array([0, 5]), class_count=3)


class TestIdxLoading:
    def test_round_trip_exact_pixel_values(self, tmp_path):
        pixels = [0, 51, 102, 153, 204, 255, 10, 20]
        images, labels = write_idx_pair(tmp_path, pixels, labels=[1, 0])
        ds = data.load_idx(images, labels)
        assert len(ds) == 2 and ds.dim == 4
        assert_array_equal(ds.features, np.array(pixels, dtype=np.float64).reshape(2, 4) / 255.0)
        assert_array_equal(ds.labels, [1, 0])

    def test_every_byte_value_scales_as_a_division_by_255(self, tmp_path):
        pixels = np.arange(256, dtype=np.uint8)
        images, labels = write_idx_pair(tmp_path, pixels, labels=[0], rows=16, cols=16)
        ds = data.load_idx(images, labels)
        assert_array_equal(
            ds.features.view(np.uint64), (pixels.astype(np.float64) / 255.0).view(np.uint64)[None]
        )

    def test_image_magic_in_label_position(self, tmp_path):
        images, labels = write_idx_pair(
            tmp_path, [0] * 8, labels=[0, 1], label_magic=data.IDX_IMAGE_MAGIC
        )
        with pytest.raises(ValueError, match="magic"):
            data.load_idx(images, labels)

    def test_wrong_image_magic(self, tmp_path):
        images, labels = write_idx_pair(tmp_path, [0] * 8, labels=[0, 1], image_magic=1234)
        with pytest.raises(ValueError, match="magic"):
            data.load_idx(images, labels)

    def test_truncated_pixels(self, tmp_path):
        images, labels = write_idx_pair(tmp_path, [0] * 8, labels=[0, 1], truncate_images=3)
        with pytest.raises(ValueError, match="truncated"):
            data.load_idx(images, labels)

    def test_count_mismatch(self, tmp_path):
        images, labels = write_idx_pair(tmp_path, [0] * 12, labels=[0, 1], count=3)
        with pytest.raises(ValueError, match="mismatch"):
            data.load_idx(images, labels)

    def test_zero_images_rejected(self, tmp_path):
        images, labels = write_idx_pair(tmp_path, [], labels=[])
        with pytest.raises(ValueError, match="no images"):
            data.load_idx(images, labels)

    def test_zero_pixel_images_rejected_naming_the_file(self, tmp_path):
        """A header with rows = 0 would otherwise load as (N, 0) features and
        fail later in the model with a message that names no file."""
        images, labels = write_idx_pair(tmp_path, [], labels=[0, 1], rows=0, cols=28)
        with pytest.raises(ValueError, match=r"images\.idx: images have no pixels \(0x28\)"):
            data.read_idx(images, labels)

    def test_read_rows_stay_uint8_and_subset_scales_them(self, tmp_path):
        pixels = np.arange(256, dtype=np.uint8)[::-1]
        images, labels = write_idx_pair(tmp_path, pixels, labels=[2, 0, 1, 2], rows=8, cols=8)
        raw = data.read_idx(images, labels)
        assert raw.pixels.dtype == np.uint8 and raw.pixels.shape == (4, 64)
        assert len(raw) == 4 and raw.class_count == 3
        part = raw.subset(np.array([1, 3]))
        assert part.class_count == 3
        assert_array_equal(part.labels, [0, 2])
        expected = pixels.reshape(4, 64)[[1, 3]].astype(np.float64)
        expected /= 255.0
        assert_array_equal(part.features.view(np.uint64), expected.view(np.uint64))


class TestDirichletPartition:
    def test_contract_on_random_configs(self):
        """Disjointness, bounds and the minimum-samples floor over random draws."""
        rng = np.random.default_rng(42)
        ds = balanced_dataset(classes=6, per_class=200)
        for _ in range(25):
            cfg = dict(
                alpha=float(rng.uniform(0.05, 5.0)),
                clients=int(rng.integers(2, 9)),
                min_samples=int(rng.integers(1, 40)),
                max_redraws=100,
            )
            plan = data.partition_dirichlet(ds, **cfg, seed=int(rng.integers(1 << 30)))
            merged = np.concatenate(plan.assignments)
            assert len(np.unique(merged)) == len(merged)
            assert merged.min() >= 0 and merged.max() < len(ds)
            assert min(len(a) for a in plan.assignments) >= cfg["min_samples"]

    def test_deterministic(self):
        ds = balanced_dataset()
        cfg = dict(alpha=0.3, clients=5, min_samples=64, max_redraws=100)
        a = data.partition_dirichlet(ds, **cfg, seed=77)
        b = data.partition_dirichlet(ds, **cfg, seed=77)
        for left, right in zip(a.assignments, b.assignments):
            assert_array_equal(left, right)

    def test_huge_alpha_is_near_uniform(self):
        """Concentration limit: every per-class share within 20% of 1/R."""
        ds = balanced_dataset()
        plan = data.partition_dirichlet(
            ds, alpha=1e6, clients=10, min_samples=64, max_redraws=100, seed=200
        )
        class_totals = np.bincount(ds.labels, minlength=10)
        for idx in plan.assignments:
            shares = np.bincount(ds.labels[idx], minlength=10) / class_totals
            assert_allclose(shares, 0.1, rtol=0.2)

    def test_small_alpha_concentrates(self):
        """At alpha=0.05 some client draws >=80% of its shard from <=2 classes."""
        ds = balanced_dataset()
        plan = data.partition_dirichlet(
            ds, alpha=0.05, clients=10, min_samples=10, max_redraws=100, seed=200
        )
        top2 = []
        for idx in plan.assignments:
            counts = np.sort(np.bincount(ds.labels[idx], minlength=10))[::-1]
            top2.append((counts[0] + counts[1]) / len(idx))
        assert max(top2) >= 0.8

    def test_mean_max_class_share_monotone_in_alpha(self):
        ds = balanced_dataset()
        means = []
        for alpha in (0.05, 0.5, 5.0, 500.0):
            plan = data.partition_dirichlet(
                ds, alpha=alpha, clients=10, min_samples=10, max_redraws=100, seed=300
            )
            shares = [
                np.bincount(ds.labels[idx], minlength=10).max() / len(idx)
                for idx in plan.assignments
            ]
            means.append(np.mean(shares))
        assert all(a >= b for a, b in zip(means, means[1:]))

    def test_impossible_minimum_rejected(self):
        ds = balanced_dataset(classes=3, per_class=30)
        with pytest.raises(ValueError, match="cannot give"):
            data.partition_dirichlet(
                ds, alpha=1.0, clients=4, min_samples=64, max_redraws=100, seed=0
            )

    def test_unsatisfiable_draws_exhaust_redraws(self):
        # feasible in total count, but alpha this small essentially never
        # spreads 2 classes evenly enough over 6 clients
        ds = balanced_dataset(classes=2, per_class=120)
        with pytest.raises(ValueError, match="attempts"):
            data.partition_dirichlet(
                ds, alpha=0.01, clients=6, min_samples=39, max_redraws=5, seed=1
            )

    def test_config_validation(self):
        ds = balanced_dataset()
        valid = dict(alpha=1.0, clients=3, min_samples=1, max_redraws=0, seed=0)
        for name, value in (("alpha", 0.0), ("clients", 1), ("min_samples", 0),
                            ("max_redraws", -1)):
            with pytest.raises(ValueError, match=name):
                data.partition_dirichlet(ds, **{**valid, name: value})


class TestLabelSplitPartition:
    def test_shared_groups_split_round_robin(self):
        """Two clients sharing classes 0-7 get alternating halves; the third
        keeps classes 8-9 to itself."""
        ds = balanced_dataset(per_class=6)
        plan = data.partition_label_split(ds, [range(8), range(8), [8, 9]])
        shared_pool = np.flatnonzero(ds.labels < 8)
        assert_array_equal(plan.assignments[0], shared_pool[0::2])
        assert_array_equal(plan.assignments[1], shared_pool[1::2])
        assert_array_equal(plan.assignments[2], np.flatnonzero(ds.labels >= 8))
        assert len(plan.assignments[0]) == len(plan.assignments[1]) == 24

    def test_single_group_identity(self):
        ds = balanced_dataset(classes=3, per_class=5)
        plan = data.partition_label_split(ds, [[0, 1, 2]])
        assert_array_equal(plan.assignments[0], np.arange(15))

    def test_disjoint_groups(self):
        ds = balanced_dataset(classes=4, per_class=5)
        plan = data.partition_label_split(ds, [[0, 2], [1, 3]])
        assert_array_equal(ds.labels[plan.assignments[0]] % 2, 0)
        assert_array_equal(ds.labels[plan.assignments[1]] % 2, 1)

    def test_unknown_class_rejected(self):
        ds = balanced_dataset(classes=3, per_class=5)
        with pytest.raises(ValueError, match="unknown classes"):
            data.partition_label_split(ds, [[0], [3]])

    def test_partial_overlap_rejected(self):
        ds = balanced_dataset(classes=4, per_class=5)
        with pytest.raises(ValueError, match="overlap"):
            data.partition_label_split(ds, [[0, 1], [1, 2]])

    def test_empty_group_rejected(self):
        ds = balanced_dataset(classes=3, per_class=5)
        with pytest.raises(ValueError, match="empty"):
            data.partition_label_split(ds, [[0], []])


class TestPartitionPlan:
    def test_rejects_overlapping_shards(self):
        for shards in (
            [[0, 1], [1, 2]],
            [[0, 3, 3], [1, 2]],  # a duplicate inside one shard
            [[5, 0], [1, 2], [3, 4], [6, 5]],  # shared by the first and the last
        ):
            with pytest.raises(ValueError, match="client shards overlap"):
                data.PartitionPlan([np.array(shard) for shard in shards])

    def test_rejects_empty_shard(self):
        with pytest.raises(ValueError, match="empty"):
            data.PartitionPlan([np.array([0]), np.array([], dtype=np.int64)])

    def test_overlap_check_leaves_the_shards_as_given(self):
        plan = data.PartitionPlan([np.array([3, 0]), np.array([2, 1])])
        assert [a.tolist() for a in plan.assignments] == [[3, 0], [2, 1]]


class TestTrainTestSplit:
    def test_sizes_and_disjointness(self):
        ds = balanced_dataset(classes=4, per_class=25)
        train, test = data.train_test_split(ds, 0.2, seed=3)
        assert len(train) == 80 and len(test) == 20
        # feature rows are unique here, so row multisets must not intersect
        train_rows = {tuple(row) for row in train.features}
        test_rows = {tuple(row) for row in test.features}
        assert not train_rows & test_rows

    def test_deterministic(self):
        ds = balanced_dataset(classes=4, per_class=25)
        a_train, a_test = data.train_test_split(ds, 0.25, seed=9)
        b_train, b_test = data.train_test_split(ds, 0.25, seed=9)
        assert_array_equal(a_train.features, b_train.features)
        assert_array_equal(a_test.features, b_test.features)

    def test_rejects_bad_fraction(self):
        ds = balanced_dataset(classes=4, per_class=25)
        with pytest.raises(ValueError, match="test_fraction"):
            data.train_test_split(ds, 1.0, seed=0)

    def test_one_sample_is_rejected_naming_the_split_and_the_count(self, tmp_path):
        """One sample cannot fill both sides; without the check the empty
        test side would fail with a message about an empty dataset."""
        one = data.Dataset(np.ones((1, 3)), np.array([0]), class_count=1)
        with pytest.raises(ValueError, match="train/test split needs at least 2 samples.*got 1"):
            data.train_test_split(one, 0.2, seed=0)
        images, labels = write_idx_pair(tmp_path, [7] * 4, labels=[0])
        with pytest.raises(ValueError, match="train/test split .* got 1"):
            data.train_test_split(data.read_idx(images, labels), 0.2, seed=0)
