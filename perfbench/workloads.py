"""The benchmark's workloads: run configs made from a seed, and their inputs.

Each workload is a list of cells; a cell is one ``fednorm run`` config.  The
workload seed becomes the config's master seed, so the program builds (or,
for ``image-idx``, reads) its data from the seed alone.  No cell sets
``workers``, so the benchmark keeps working if that key goes away.
"""

from __future__ import annotations

import copy
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

IDX_IMAGE_MAGIC = 2051
IDX_LABEL_MAGIC = 2049

# configs/demo.json; the fedavg/normalize-on cell of grid-slice is this file
DEMO = {
    "dataset": {"kind": "synthetic", "classes": 10, "dims": 32, "per_class": 500},
    "strategy": {"kind": "fedavg"},
    "partition": {"kind": "dirichlet", "alpha": 0.1},
    "clients": 10,
    "rounds": 30,
}
SCAFFOLD_OPTIMIZER = {"kind": "sgd", "lr": 0.05}  # as in tests/test_acceptance.py

CROSS_DEVICE_ROUNDS = 20
IMAGE_IDX_ROUNDS = 8
IMAGE_COUNT = 6000
IMAGE_SIDE = 28
# share of the class prototype in each pixel; the rest is uniform noise.  At
# 0.25 accuracy climbs over the first rounds instead of saturating in one.
IMAGE_SIGNAL = 0.25


@dataclass(frozen=True)
class Cell:
    label: str
    config: dict


def grid_slice(seed: int, workdir: Path) -> list[Cell]:
    cells = []
    for kind in ("fedavg", "scaffold"):
        for normalize in (True, False):
            config = copy.deepcopy(DEMO)
            config["strategy"] = {"kind": kind}
            if kind == "scaffold":
                config["optimizer"] = dict(SCAFFOLD_OPTIMIZER)
            if not normalize:
                config["normalize"] = False
            config["seed"] = seed
            cells.append(Cell(f"{kind}/{'on' if normalize else 'off'}", config))
    return cells


def cross_device(seed: int, workdir: Path) -> list[Cell]:
    config = {
        "dataset": {"kind": "synthetic", "classes": 10, "dims": 32, "per_class": 2000},
        "strategy": {"kind": "scaffold"},
        "optimizer": dict(SCAFFOLD_OPTIMIZER),
        # alpha 0.5 cannot give 200 clients 16 samples each within the redraw limit
        "partition": {"kind": "dirichlet", "alpha": 1.0, "min_samples": 16},
        "clients": 200,
        "participation": 0.25,
        "rounds": CROSS_DEVICE_ROUNDS,
        "epochs": 1,
        "hidden_sizes": [256, 256],
        "normalize": True,
        "seed": seed,
    }
    return [Cell("scaffold/on", config)]


def image_idx(seed: int, workdir: Path) -> list[Cell]:
    images, labels = workdir / "images.idx", workdir / "labels.idx"
    pixels, classes = make_images(seed, IMAGE_COUNT)
    write_idx(images, labels, pixels, classes)
    config = {
        "dataset": {"kind": "idx", "images": str(images), "labels": str(labels)},
        "strategy": {"kind": "fedprox"},
        "optimizer": {"kind": "adam"},
        "partition": {"kind": "dirichlet", "alpha": 0.5},
        "clients": 10,
        "rounds": IMAGE_IDX_ROUNDS,
        "epochs": 1,
        "hidden_sizes": [256],
        "normalize": False,
        "seed": seed,
    }
    return [Cell("fedprox/off", config)]


WORKLOADS = {
    "grid-slice": grid_slice,
    "cross-device": cross_device,
    "image-idx": image_idx,
}


def make_images(seed: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """``count`` 28x28 uint8 images in 10 balanced classes.

    Each class has a blocky 7x7 prototype scaled up to 28x28; an image mixes
    its class prototype with uniform noise.
    """
    rng = np.random.default_rng([seed, IDX_IMAGE_MAGIC])  # a stream of its own per seed
    block = IMAGE_SIDE // 7
    prototypes = np.kron(rng.random((10, 7, 7)), np.ones((block, block)))
    labels = rng.permutation(np.arange(count) % 10).astype(np.uint8)
    noise = rng.integers(0, 256, size=(count, IMAGE_SIDE, IMAGE_SIDE), dtype=np.uint8)
    pixels = IMAGE_SIGNAL * 255.0 * prototypes[labels] + (1.0 - IMAGE_SIGNAL) * noise
    return pixels.astype(np.uint8), labels


def write_idx(images_path: Path, labels_path: Path, pixels: np.ndarray, labels: np.ndarray):
    """Write a big-endian IDX image file (magic 2051) and label file (2049)."""
    if pixels.dtype != np.uint8 or pixels.ndim != 3:
        raise ValueError(f"pixels must be a (N, rows, cols) uint8 array, got {pixels.dtype} {pixels.shape}")
    if labels.dtype != np.uint8 or labels.shape != pixels.shape[:1]:
        raise ValueError(f"labels must be ({pixels.shape[0]},) uint8, got {labels.dtype} {labels.shape}")
    count, rows, cols = pixels.shape
    with open(images_path, "wb") as fh:
        fh.write(struct.pack(">4I", IDX_IMAGE_MAGIC, count, rows, cols))
        fh.write(np.ascontiguousarray(pixels).tobytes())
    with open(labels_path, "wb") as fh:
        fh.write(struct.pack(">2I", IDX_LABEL_MAGIC, count))
        fh.write(labels.tobytes())


def make_cells(workload: str, seed: int, workdir: Path) -> list[Cell]:
    """Write the workload's inputs under ``workdir`` and return its cells."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}")
    return WORKLOADS[workload](seed, Path(workdir))
