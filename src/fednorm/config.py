"""Run configuration: JSON schema, defaults, validation, flag overrides.

A run is described by one JSON object.  ``dataset`` and ``strategy`` are
required; everything else defaults (2 local epochs, batch 64, temperature 0.5,
10 clients, full participation, Adam at 1e-3, Dirichlet alpha 0.5).  Unknown
keys are rejected by name, as are out-of-range values, so typos cannot
silently fall back to defaults.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .strategies import STRATEGY_KINDS, StrategyConfig

_MISSING = object()


class ConfigError(ValueError):
    """A configuration file or flag value is unusable."""


@dataclass(frozen=True)
class SyntheticData:
    classes: int = 10
    dims: int = 32
    per_class: int = 500
    spread: float = 3.0

    kind = "synthetic"


@dataclass(frozen=True)
class IdxData:
    images: str
    labels: str

    kind = "idx"


@dataclass(frozen=True)
class DirichletPartition:
    alpha: float = 0.5
    min_samples: int = 64
    max_redraws: int = 100

    kind = "dirichlet"


@dataclass(frozen=True)
class LabelSplitPartition:
    groups: tuple[tuple[int, ...], ...]

    kind = "label_split"


@dataclass(frozen=True)
class OptimizerSettings:
    kind: str = "adam"
    lr: float = 1e-3


@dataclass(frozen=True)
class RunConfig:
    dataset: SyntheticData | IdxData
    strategy: StrategyConfig
    partition: DirichletPartition | LabelSplitPartition = DirichletPartition()
    optimizer: OptimizerSettings = OptimizerSettings()
    clients: int = 10
    participation: float = 1.0
    rounds: int = 30
    epochs: int = 2
    batch_size: int = 64
    hidden_sizes: tuple[int, ...] = (128,)
    activation: str = "relu"
    normalize: bool = True
    temperature: float = 0.5
    seed: int = 0
    test_fraction: float = 0.2
    workers: int = 1
    out: str = "runs/out"

    def to_dict(self) -> dict:
        d = self.dataset
        if d.kind == "synthetic":
            dataset = {
                "kind": "synthetic",
                "classes": d.classes,
                "dims": d.dims,
                "per_class": d.per_class,
                "spread": d.spread,
            }
        else:
            dataset = {"kind": "idx", "images": d.images, "labels": d.labels}
        p = self.partition
        if p.kind == "dirichlet":
            partition = {
                "kind": "dirichlet",
                "alpha": p.alpha,
                "min_samples": p.min_samples,
                "max_redraws": p.max_redraws,
            }
        else:
            partition = {"kind": "label_split", "groups": [list(g) for g in p.groups]}
        return {
            "dataset": dataset,
            "strategy": {
                "kind": self.strategy.kind,
                "mu": self.strategy.mu,
                "beta": self.strategy.beta,
                "server_lr": self.strategy.server_lr,
                "head_layer": self.strategy.head_layer,
            },
            "partition": partition,
            "optimizer": {"kind": self.optimizer.kind, "lr": self.optimizer.lr},
            "clients": self.clients,
            "participation": self.participation,
            "rounds": self.rounds,
            "epochs": self.epochs,
            "batch_size": self.batch_size,
            "hidden_sizes": list(self.hidden_sizes),
            "activation": self.activation,
            "normalize": self.normalize,
            "temperature": self.temperature,
            "seed": self.seed,
            "test_fraction": self.test_fraction,
            "workers": self.workers,
            "out": self.out,
        }


def _reject_unknown(section: dict, allowed, where: str = ""):
    prefix = f"{where}." if where else ""
    for key in section:
        if key not in allowed:
            raise ConfigError(f"unknown config key: {prefix}{key}")


def _get(section: dict, key: str, where: str = "", default=_MISSING):
    if key in section:
        return section[key]
    if default is _MISSING:
        prefix = f"{where}." if where else ""
        raise ConfigError(f"missing required config key: {prefix}{key}")
    return default


def _as_int(value, name, minimum=None, maximum=None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{name} must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ConfigError(f"{name} must be <= {maximum}, got {value}")
    return value


def _as_real(value, name, *, positive=False, low=None, high=None, low_open=False, high_open=False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    value = float(value)
    if positive and not value > 0:
        raise ConfigError(f"{name} must be positive, got {value}")
    if low is not None and (value < low or (low_open and value == low)):
        raise ConfigError(f"{name} must be {'>' if low_open else '>='} {low}, got {value}")
    if high is not None and (value > high or (high_open and value == high)):
        raise ConfigError(f"{name} must be {'<' if high_open else '<='} {high}, got {value}")
    return value


def _as_str(value, name, choices=None) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{name} must be a string, got {value!r}")
    if choices is not None and value not in choices:
        raise ConfigError(f"{name} must be one of {tuple(choices)}, got {value!r}")
    return value


def _as_bool(value, name) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{name} must be true or false, got {value!r}")
    return value


def _parse_dataset(section) -> SyntheticData | IdxData:
    if not isinstance(section, dict):
        raise ConfigError(f"dataset must be an object, got {section!r}")
    kind = _as_str(_get(section, "kind", "dataset"), "dataset.kind", ("synthetic", "idx"))
    if kind == "synthetic":
        _reject_unknown(section, ("kind", "classes", "dims", "per_class", "spread"), "dataset")
        return SyntheticData(
            classes=_as_int(_get(section, "classes", default=10), "dataset.classes", minimum=2),
            dims=_as_int(_get(section, "dims", default=32), "dataset.dims", minimum=2),
            per_class=_as_int(_get(section, "per_class", default=500), "dataset.per_class", minimum=1),
            spread=_as_real(_get(section, "spread", default=3.0), "dataset.spread", positive=True),
        )
    _reject_unknown(section, ("kind", "images", "labels"), "dataset")
    return IdxData(
        images=_as_str(_get(section, "images", "dataset"), "dataset.images"),
        labels=_as_str(_get(section, "labels", "dataset"), "dataset.labels"),
    )


def _parse_strategy(section) -> StrategyConfig:
    if not isinstance(section, dict):
        raise ConfigError(f"strategy must be an object, got {section!r}")
    _reject_unknown(section, ("kind", "mu", "beta", "server_lr", "head_layer"), "strategy")
    kind = _as_str(_get(section, "kind", "strategy"), "strategy.kind", STRATEGY_KINDS)
    try:
        return StrategyConfig(
            kind=kind,
            mu=_as_real(_get(section, "mu", default=0.01), "strategy.mu", low=0.0),
            beta=_as_real(_get(section, "beta", default=0.9), "strategy.beta", low=0.0, high=1.0, high_open=True),
            server_lr=_as_real(_get(section, "server_lr", default=1.0), "strategy.server_lr", positive=True),
            head_layer=_as_int(_get(section, "head_layer", default=-1), "strategy.head_layer"),
        )
    except ValueError as exc:
        raise ConfigError(f"strategy: {exc}") from exc


def _parse_partition(section) -> DirichletPartition | LabelSplitPartition:
    if not isinstance(section, dict):
        raise ConfigError(f"partition must be an object, got {section!r}")
    kind = _as_str(
        _get(section, "kind", default="dirichlet"), "partition.kind", ("dirichlet", "label_split")
    )
    if kind == "dirichlet":
        _reject_unknown(section, ("kind", "alpha", "min_samples", "max_redraws"), "partition")
        return DirichletPartition(
            alpha=_as_real(_get(section, "alpha", default=0.5), "partition.alpha", positive=True),
            min_samples=_as_int(_get(section, "min_samples", default=64), "partition.min_samples", minimum=1),
            max_redraws=_as_int(_get(section, "max_redraws", default=100), "partition.max_redraws", minimum=0),
        )
    _reject_unknown(section, ("kind", "groups"), "partition")
    raw = _get(section, "groups", "partition")
    if not isinstance(raw, (list, tuple)) or not raw:
        raise ConfigError(f"partition.groups must be a non-empty list of class lists, got {raw!r}")
    groups = []
    for i, group in enumerate(raw):
        if not isinstance(group, (list, tuple)) or not group:
            raise ConfigError(f"partition.groups[{i}] must be a non-empty list of classes")
        groups.append(tuple(_as_int(c, f"partition.groups[{i}]", minimum=0) for c in group))
    return LabelSplitPartition(groups=tuple(groups))


def _parse_optimizer(section) -> OptimizerSettings:
    if not isinstance(section, dict):
        raise ConfigError(f"optimizer must be an object, got {section!r}")
    _reject_unknown(section, ("kind", "lr"), "optimizer")
    return OptimizerSettings(
        kind=_as_str(_get(section, "kind", default="adam"), "optimizer.kind", ("sgd", "adam")),
        lr=_as_real(_get(section, "lr", default=1e-3), "optimizer.lr", positive=True),
    )


_TOP_KEYS = (
    "dataset", "strategy", "partition", "optimizer", "clients", "participation",
    "rounds", "epochs", "batch_size", "hidden_sizes", "activation", "normalize",
    "temperature", "seed", "test_fraction", "workers", "out",
)


def from_dict(data: dict) -> RunConfig:
    """Validate a raw JSON object into a RunConfig."""
    if not isinstance(data, dict):
        raise ConfigError(f"config root must be an object, got {data!r}")
    _reject_unknown(data, _TOP_KEYS)

    raw_hidden = _get(data, "hidden_sizes", default=[128])
    if not isinstance(raw_hidden, (list, tuple)) or not raw_hidden:
        raise ConfigError(f"hidden_sizes must be a non-empty list, got {raw_hidden!r}")
    hidden = tuple(_as_int(h, "hidden_sizes", minimum=1) for h in raw_hidden)

    cfg = RunConfig(
        dataset=_parse_dataset(_get(data, "dataset")),
        strategy=_parse_strategy(_get(data, "strategy")),
        partition=_parse_partition(_get(data, "partition", default={})),
        optimizer=_parse_optimizer(_get(data, "optimizer", default={})),
        clients=_as_int(_get(data, "clients", default=10), "clients", minimum=1),
        participation=_as_real(
            _get(data, "participation", default=1.0), "participation",
            low=0.0, low_open=True, high=1.0,
        ),
        rounds=_as_int(_get(data, "rounds", default=30), "rounds", minimum=0),
        epochs=_as_int(_get(data, "epochs", default=2), "epochs", minimum=1),
        batch_size=_as_int(_get(data, "batch_size", default=64), "batch_size", minimum=1),
        hidden_sizes=hidden,
        activation=_as_str(_get(data, "activation", default="relu"), "activation", ("relu", "tanh")),
        normalize=_as_bool(_get(data, "normalize", default=True), "normalize"),
        temperature=_as_real(_get(data, "temperature", default=0.5), "temperature", positive=True),
        seed=_as_int(_get(data, "seed", default=0), "seed", minimum=0),
        test_fraction=_as_real(
            _get(data, "test_fraction", default=0.2), "test_fraction",
            low=0.0, low_open=True, high=1.0, high_open=True,
        ),
        workers=_as_int(_get(data, "workers", default=1), "workers", minimum=1),
        out=_as_str(_get(data, "out", default="runs/out"), "out"),
    )
    _cross_validate(cfg)
    return cfg


def _cross_validate(cfg: RunConfig):
    if cfg.partition.kind == "dirichlet" and cfg.clients < 2:
        raise ConfigError(f"dirichlet partitioning needs clients >= 2, got {cfg.clients}")
    if cfg.partition.kind == "label_split" and len(cfg.partition.groups) != cfg.clients:
        raise ConfigError(
            f"partition.groups lists {len(cfg.partition.groups)} clients "
            f"but clients = {cfg.clients}"
        )
    if cfg.strategy.kind == "scaffold" and cfg.optimizer.kind != "sgd":
        raise ConfigError("strategy scaffold requires optimizer.kind = sgd")
    layers = len(cfg.hidden_sizes) + 1
    if not -layers <= cfg.strategy.head_layer < layers:
        raise ConfigError(
            f"strategy.head_layer must lie in [{-layers}, {layers - 1}] for a model "
            f"with {layers} layers, got {cfg.strategy.head_layer}"
        )


def parse_bool_flag(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean flag value, got {text!r}")


def apply_overrides(data: dict, args) -> dict:
    """Fold CLI flag values into a raw config dict; flags win over the file."""
    if args.strategy is not None:
        data.setdefault("strategy", {})["kind"] = args.strategy
    if args.normalize is not None:
        data["normalize"] = args.normalize
    if args.temperature is not None:
        data["temperature"] = args.temperature
    if args.alpha is not None:
        partition = data.setdefault("partition", {})
        if partition.get("kind", "dirichlet") != "dirichlet":
            raise ConfigError("--alpha applies only to dirichlet partitioning")
        partition["alpha"] = args.alpha
    if args.clients is not None:
        data["clients"] = args.clients
    if args.rounds is not None:
        data["rounds"] = args.rounds
    if args.seed is not None:
        data["seed"] = args.seed
    if args.out is not None:
        data["out"] = args.out
    return data


def load(path, args=None) -> RunConfig:
    """Read a JSON config file, apply flag overrides, validate."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    if args is not None:
        data = apply_overrides(data, args)
    return from_dict(data)
