"""Datasets and client partitioning.

Covers three sources of client shards: synthetic Gaussian blobs, IDX image
files (the ubiquitous big-endian handwritten-digit layout) and two partition
schemes, a Dirichlet draw over class proportions and an explicit label split.

IDX pixels stay uint8 until the train/test split: ``read_idx`` returns the
file's rows as ``IdxImages``, and ``train_test_split`` scales each side to
float64 as it gathers it, so no float64 copy of the unsplit set is made.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

IDX_IMAGE_MAGIC = 2051  # 0x00000803
IDX_LABEL_MAGIC = 2049  # 0x00000801


@dataclass
class Dataset:
    """Feature matrix (N, d) float64 with integer labels in [0, class_count)."""

    features: np.ndarray
    labels: np.ndarray
    class_count: int

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2:
            raise ValueError(f"features must be 2-d, got shape {self.features.shape}")
        if self.labels.shape != (self.features.shape[0],):
            raise ValueError(
                f"labels shape {self.labels.shape} does not match "
                f"{self.features.shape[0]} feature rows"
            )
        if len(self.features) == 0:
            raise ValueError("dataset must contain at least one sample")
        if self.class_count < 1:
            raise ValueError(f"class_count must be >= 1, got {self.class_count}")
        if self.labels.min() < 0 or self.labels.max() >= self.class_count:
            raise ValueError(
                f"labels must lie in [0, {self.class_count}), "
                f"got range [{self.labels.min()}, {self.labels.max()}]"
            )

    def __len__(self) -> int:
        return len(self.features)

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def subset(self, indices: np.ndarray) -> "Dataset":
        return Dataset(self.features[indices], self.labels[indices], self.class_count)


@dataclass
class PartitionPlan:
    """Per-client index arrays; pairwise disjoint, each non-empty."""

    assignments: list[np.ndarray]

    def __post_init__(self):
        self.assignments = [
            np.asarray(a, dtype=np.int64) for a in self.assignments
        ]
        for r, a in enumerate(self.assignments):
            if a.size == 0:
                raise ValueError(f"client {r} received an empty shard")
        merged = np.concatenate(self.assignments)
        merged.sort()
        if (merged[1:] == merged[:-1]).any():
            raise ValueError("client shards overlap")

    @property
    def num_clients(self) -> int:
        return len(self.assignments)


def generate_synthetic(
    classes: int, dims: int, per_class: int, spread: float, seed: int
) -> Dataset:
    """Isotropic Gaussian blobs around unit-direction class centers.

    Class centers are random unit vectors scaled by ``spread``; samples add
    standard normal noise.  Larger spread means more separable classes.
    Rows are class-blocked.  The noise is drawn into the returned array and
    each class's center added through a (classes, per_class, dims) view, so
    the features are allocated once, with the bits of ``centers[labels] +
    noise``.
    """
    if classes < 2:
        raise ValueError(f"need >= 2 classes, got {classes}")
    if dims < 2 or per_class < 1:
        raise ValueError(f"need dims >= 2 and per_class >= 1, got {dims}, {per_class}")
    if not spread > 0:
        raise ValueError(f"spread must be positive, got {spread}")
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(classes, dims))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    centers *= spread
    labels = np.repeat(np.arange(classes), per_class)
    features = rng.normal(size=(classes * per_class, dims))
    features.reshape(classes, per_class, dims)[...] += centers[:, None, :]
    return Dataset(features, labels, classes)


def _read_idx_header(raw: bytes, path: Path, expected_magic: int, ndim: int):
    header = 4 * (1 + ndim)
    if len(raw) < header:
        raise ValueError(f"{path}: truncated IDX header ({len(raw)} bytes)")
    fields = struct.unpack(f">{1 + ndim}I", raw[:header])
    if fields[0] != expected_magic:
        raise ValueError(
            f"{path}: bad IDX magic {fields[0]}, expected {expected_magic}"
        )
    return fields[1:], header


@dataclass
class IdxImages:
    """The rows of an IDX image/label file pair as read: (N, d) uint8 pixels.

    ``subset`` gathers rows as uint8 and scales only those to float64, so a
    split makes one float64 copy of each side and none of the whole file.
    ``class_count`` comes from the whole label file.
    """

    pixels: np.ndarray
    labels: np.ndarray
    class_count: int

    def __len__(self) -> int:
        return len(self.pixels)

    def subset(self, indices: np.ndarray) -> Dataset:
        # bit-equal to astype(np.float64) followed by /= 255.0, for every byte
        features = np.divide(self.pixels[indices], 255.0, dtype=np.float64)
        return Dataset(features, self.labels[indices], self.class_count)


def read_idx(images_path, labels_path) -> IdxImages:
    """Read an IDX image/label file pair into flat uint8 pixel rows.

    Images are flattened row-major.  Errors out on wrong magic numbers,
    truncated payloads, images of zero pixels, a count mismatch between the
    two files and on empty files.
    """
    images_path, labels_path = Path(images_path), Path(labels_path)
    raw = images_path.read_bytes()
    (count, rows, cols), header = _read_idx_header(raw, images_path, IDX_IMAGE_MAGIC, 3)
    if rows * cols == 0:
        raise ValueError(f"{images_path}: images have no pixels ({rows}x{cols})")
    expected = header + count * rows * cols
    if len(raw) < expected:
        raise ValueError(
            f"{images_path}: truncated pixel data, {len(raw)} bytes < {expected}"
        )
    pixels = np.frombuffer(raw, dtype=np.uint8, count=count * rows * cols, offset=header)

    raw = labels_path.read_bytes()
    (label_count,), header = _read_idx_header(raw, labels_path, IDX_LABEL_MAGIC, 1)
    if len(raw) < header + label_count:
        raise ValueError(f"{labels_path}: truncated label data")
    labels = np.frombuffer(raw, dtype=np.uint8, count=label_count, offset=header)

    if count != label_count:
        raise ValueError(
            f"image/label count mismatch: {count} images vs {label_count} labels"
        )
    if count == 0:
        raise ValueError(f"{images_path}: file contains no images")
    return IdxImages(pixels.reshape(count, rows * cols), labels, int(labels.max()) + 1)


def load_idx(images_path, labels_path) -> Dataset:
    """Read an IDX image/label file pair into flat [0, 1] feature rows.

    The float64 ``Dataset`` of every row of ``read_idx``, scaled by 1/255.
    A run splits the ``read_idx`` rows instead, so it never holds this copy.
    """
    images = read_idx(images_path, labels_path)
    return images.subset(np.arange(len(images)))


def _largest_remainder(proportions: np.ndarray, total: int) -> np.ndarray:
    """Integer counts summing to ``total``, proportional with largest remainders."""
    exact = proportions * total
    counts = np.floor(exact).astype(np.int64)
    short = total - int(counts.sum())
    order = np.argsort(-(exact - counts), kind="stable")
    counts[order[:short]] += 1
    return counts


def partition_dirichlet(
    dataset: Dataset, *, alpha: float, clients: int, min_samples: int, max_redraws: int, seed: int
) -> PartitionPlan:
    """Label-skewed shards: per class, client shares are drawn Dir(alpha).

    The whole plan is redrawn (up to ``max_redraws`` extra attempts) until
    every client holds at least ``min_samples`` samples.  A draw permutes each
    class's rows and deals consecutive runs of them to clients 0, 1, ... by
    largest-remainder counts, writing each row's client into one ``owner``
    array; only the accepted draw is split into shards, each listing its
    rows in index order.
    """
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if clients < 2:
        raise ValueError(f"dirichlet partitioning needs clients >= 2, got {clients}")
    if min_samples < 1:
        raise ValueError(f"min_samples must be >= 1, got {min_samples}")
    if max_redraws < 0:
        raise ValueError(f"max_redraws must be >= 0, got {max_redraws}")
    if clients * min_samples > len(dataset):
        raise ValueError(
            f"cannot give {clients} clients {min_samples} samples "
            f"each from {len(dataset)} total"
        )
    rng = np.random.default_rng(seed)
    rows = [np.flatnonzero(dataset.labels == c) for c in range(dataset.class_count)]
    rows = [idx for idx in rows if idx.size]  # an absent class draws nothing
    concentration = np.full(clients, alpha)
    client_ids = np.arange(clients)
    # every row has a class, so each draw writes every entry
    owner = np.empty(len(dataset), dtype=np.int64)
    for _ in range(max_redraws + 1):
        sizes = np.zeros(clients, dtype=np.int64)
        for idx in rows:
            idx = rng.permutation(idx)
            counts = _largest_remainder(rng.dirichlet(concentration), idx.size)
            owner[idx] = np.repeat(client_ids, counts)
            sizes += counts
        if sizes.min() >= min_samples:
            # a stable sort lists each client's rows in index order
            order = np.argsort(owner, kind="stable")
            return PartitionPlan(np.split(order, np.cumsum(sizes)[:-1]))
    raise ValueError(
        f"no draw satisfied min_samples={min_samples} "
        f"after {max_redraws + 1} attempts (alpha={alpha}, clients={clients})"
    )


def partition_label_split(dataset: Dataset, groups) -> PartitionPlan:
    """Deterministic split by explicit class groups, one group per client.

    Groups must be pairwise identical or disjoint.  A class group shared by
    several clients is dealt out round-robin over the sorted sample indices,
    so sharers receive near-equal, non-overlapping halves/thirds/... of it.
    """
    sets = [frozenset(int(c) for c in g) for g in groups]
    if not sets:
        raise ValueError("need at least one class group")
    for r, s in enumerate(sets):
        if not s:
            raise ValueError(f"class group of client {r} is empty")
        bad = [c for c in s if c < 0 or c >= dataset.class_count]
        if bad:
            raise ValueError(
                f"class group of client {r} references unknown classes {sorted(bad)}"
            )
    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            if sets[i] != sets[j] and sets[i] & sets[j]:
                raise ValueError(
                    f"class groups of clients {i} and {j} overlap partially; "
                    "groups must be identical or disjoint"
                )
    assignments = [None] * len(sets)
    for group in dict.fromkeys(sets):  # unique groups, first-seen order
        sharers = [r for r, s in enumerate(sets) if s == group]
        pool = np.flatnonzero(np.isin(dataset.labels, sorted(group)))
        for j, r in enumerate(sharers):
            assignments[r] = pool[j::len(sharers)]
    return PartitionPlan(assignments)


def train_test_split(dataset: Dataset | IdxImages, test_fraction: float, seed: int):
    """Shuffled split into (train, test) ``Dataset``s; the test part is held
    out for eval.  Each side is ``dataset.subset`` of its sorted indices."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must be in (0, 1), got {test_fraction}")
    n = len(dataset)
    if n < 2:
        raise ValueError(
            f"train/test split needs at least 2 samples, one per side, got {n}"
        )
    n_test = int(round(n * test_fraction))
    n_test = min(max(n_test, 1), n - 1)
    order = np.random.default_rng(seed).permutation(n)
    return dataset.subset(np.sort(order[n_test:])), dataset.subset(np.sort(order[:n_test]))
