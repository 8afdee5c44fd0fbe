"""Run configuration: JSON schema, defaults, validation, flag overrides.

A run is described by one JSON object.  ``dataset`` and ``strategy`` are
required; everything else defaults (2 local epochs, batch 64, temperature 0.5,
10 clients, full participation, Adam at 1e-3, Dirichlet alpha 0.5).  Unknown
keys are rejected by name, as are out-of-range and non-finite values, so typos
cannot silently fall back to defaults.

Each key is declared once, on a field of its section's dataclass: its name,
its default (MISSING: required) and a metadata ``check`` that turns the JSON
value into the field value or raises a ConfigError naming the key (none: the
plain type check of the default).  Every section, built from JSON or in
Python, runs these checks on each field's JSON form, then a RunConfig runs the
checks that span keys.  ``RunConfig.to_dict`` writes the JSON form.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from functools import partial
from pathlib import Path

from . import nn
from .strategies import STRATEGY_KINDS


class ConfigError(ValueError):
    """A configuration file or flag value is unusable."""


def _as_int(value, name, *, minimum=None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{name} must be >= {minimum}, got {value}")
    return value


def _as_real(value, name, *, positive=False, low=None, high=None, low_open=False, high_open=False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:  # an integer beyond the float range
        value = math.inf
    # json.loads reads NaN and Infinity, and NaN passes every comparison below
    if not math.isfinite(value):
        raise ConfigError(f"{name} must be a finite number, got {value}")
    if positive and not value > 0:
        raise ConfigError(f"{name} must be positive, got {value}")
    if low is not None and (value < low or (low_open and value == low)):
        raise ConfigError(f"{name} must be {'>' if low_open else '>='} {low}, got {value}")
    if high is not None and (value > high or (high_open and value == high)):
        raise ConfigError(f"{name} must be {'<' if high_open else '<='} {high}, got {value}")
    return value


def _as_str(value, name, *, choices=None) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{name} must be a string, got {value!r}")
    if choices is not None and value not in choices:
        raise ConfigError(f"{name} must be one of {tuple(choices)}, got {value!r}")
    return value


def _as_bool(value, name) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{name} must be true or false, got {value!r}")
    return value


def _as_sizes(value, name) -> tuple[int, ...]:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{name} must be a non-empty list, got {value!r}")
    return tuple(_as_int(h, name, minimum=1) for h in value)


def _as_groups(value, name) -> tuple[tuple[int, ...], ...]:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{name} must be a non-empty list of class lists, got {value!r}")
    groups = []
    for i, group in enumerate(value):
        if not isinstance(group, list) or not group:
            raise ConfigError(f"{name}[{i}] must be a non-empty list of classes")
        groups.append(tuple(_as_int(c, f"{name}[{i}]", minimum=0) for c in group))
    return tuple(groups)


_PLAIN_CHECKS = {bool: _as_bool, int: _as_int, float: _as_real, str: _as_str}


def _key(default, check, **options):
    """A config key checked by ``check(value, name, **options)``."""
    return field(default=default, metadata={"check": partial(check, **options)})


def _as_object(value, name, *, cls):
    """Build ``cls`` from the JSON object of section ``name`` ('' for the root)."""
    if not isinstance(value, dict):
        raise ConfigError(f"{name or 'config root'} must be an object, got {value!r}")
    prefix = f"{name}." if name else ""
    keys = {f.name: f for f in fields(cls)}
    for key in value:
        # a section chosen by kind carries the kind as a class attribute
        if key not in keys and not (key == "kind" and hasattr(cls, "kind")):
            raise ConfigError(f"unknown config key: {prefix}{key}")
    for key, f in keys.items():
        if key not in value and f.default is MISSING:
            raise ConfigError(f"missing required config key: {prefix}{key}")
    try:
        return cls(**{key: v for key, v in value.items() if key in keys})
    except ConfigError as exc:  # the section's own errors name only their key
        raise ConfigError(prefix + str(exc)) from exc


def _as_section(value, name, *, kinds, default_kind=None):
    """A section whose ``kind`` picks its dataclass from ``kinds``; an absent
    kind means ``default_kind``, or is an error when that is None."""
    if not isinstance(value, dict):
        raise ConfigError(f"{name} must be an object, got {value!r}")
    if "kind" not in value and default_kind is None:
        raise ConfigError(f"missing required config key: {name}.kind")
    kind = _as_str(value.get("kind", default_kind), f"{name}.kind", choices=tuple(kinds))
    return _as_object(value, name, cls=kinds[kind])


def _to_json(value):
    # sections become objects with their kind first, tuples become lists; a
    # section class is left to the checks, which reject it as not an object
    if is_dataclass(value) and not isinstance(value, type):
        out = {"kind": value.kind} if hasattr(value, "kind") else {}
        out.update((f.name, _to_json(getattr(value, f.name))) for f in fields(value))
        return out
    if isinstance(value, tuple):
        return [_to_json(v) for v in value]
    return value


class _Section:
    """A config dataclass that checks itself however it is built: each field's
    check runs on the field's JSON form, and the checked value is stored."""

    def __post_init__(self):
        for f in fields(self):
            check = f.metadata.get("check") or _PLAIN_CHECKS[type(f.default)]
            object.__setattr__(self, f.name, check(_to_json(getattr(self, f.name)), f.name))


@dataclass(frozen=True)
class SyntheticData(_Section):
    classes: int = _key(10, _as_int, minimum=2)
    dims: int = _key(32, _as_int, minimum=2)
    per_class: int = _key(500, _as_int, minimum=1)
    spread: float = _key(3.0, _as_real, positive=True)

    kind = "synthetic"


@dataclass(frozen=True)
class IdxData(_Section):
    images: str = _key(MISSING, _as_str)
    labels: str = _key(MISSING, _as_str)

    kind = "idx"


@dataclass(frozen=True)
class DirichletPartition(_Section):
    alpha: float = _key(0.5, _as_real, positive=True)
    min_samples: int = _key(64, _as_int, minimum=1)
    max_redraws: int = _key(100, _as_int, minimum=0)

    kind = "dirichlet"


@dataclass(frozen=True)
class LabelSplitPartition(_Section):
    groups: tuple[tuple[int, ...], ...] = _key(MISSING, _as_groups)

    kind = "label_split"


@dataclass(frozen=True)
class StrategyConfig(_Section):
    """Which aggregation rule to run and its knobs; unused knobs are ignored.

    ``head_layer`` indexes the layer frozen by fedbabu, negative values count
    from the back (default: the output layer).
    """

    kind: str = _key("fedavg", _as_str, choices=STRATEGY_KINDS)
    mu: float = _key(0.01, _as_real, low=0.0)
    beta: float = _key(0.9, _as_real, low=0.0, high=1.0, high_open=True)
    server_lr: float = _key(1.0, _as_real, positive=True)
    head_layer: int = -1


@dataclass(frozen=True)
class OptimizerSettings(_Section):
    """Which local optimizer trains the clients (``kind``) and its learning
    rate ``lr``."""

    kind: str = _key("adam", _as_str, choices=nn.OPTIMIZERS)
    lr: float = _key(1e-3, _as_real, positive=True)


@dataclass(frozen=True)
class RunConfig(_Section):
    dataset: SyntheticData | IdxData = _key(
        MISSING, _as_section, kinds={c.kind: c for c in (SyntheticData, IdxData)}
    )
    # the kind is required here, though StrategyConfig defaults it
    strategy: StrategyConfig = _key(
        MISSING, _as_section, kinds=dict.fromkeys(STRATEGY_KINDS, StrategyConfig)
    )
    partition: DirichletPartition | LabelSplitPartition = _key(
        DirichletPartition(),
        _as_section,
        kinds={c.kind: c for c in (DirichletPartition, LabelSplitPartition)},
        default_kind=DirichletPartition.kind,
    )
    optimizer: OptimizerSettings = _key(OptimizerSettings(), _as_object, cls=OptimizerSettings)
    clients: int = _key(10, _as_int, minimum=1)
    participation: float = _key(1.0, _as_real, low=0.0, low_open=True, high=1.0)
    rounds: int = _key(30, _as_int, minimum=0)
    epochs: int = _key(2, _as_int, minimum=1)
    batch_size: int = _key(64, _as_int, minimum=1)
    hidden_sizes: tuple[int, ...] = _key((128,), _as_sizes)
    activation: str = _key("relu", _as_str, choices=nn.ACTIVATIONS)
    normalize: bool = True
    temperature: float = _key(0.5, _as_real, positive=True)
    seed: int = _key(0, _as_int, minimum=0)
    test_fraction: float = _key(0.2, _as_real, low=0.0, low_open=True, high=1.0, high_open=True)
    out: str = "runs/out"

    def __post_init__(self):
        # from_dict, the constructor and dataclasses.replace all check here
        super().__post_init__()
        if self.partition.kind == "dirichlet" and self.clients < 2:
            raise ConfigError(f"dirichlet partitioning needs clients >= 2, got {self.clients}")
        if self.partition.kind == "label_split" and len(self.partition.groups) != self.clients:
            raise ConfigError(
                f"partition.groups lists {len(self.partition.groups)} clients "
                f"but clients = {self.clients}"
            )
        if self.strategy.kind == "scaffold" and self.optimizer.kind != "sgd":
            raise ConfigError("strategy scaffold requires optimizer.kind = sgd")
        layers = len(self.hidden_sizes) + 1
        if not -layers <= self.strategy.head_layer < layers:
            raise ConfigError(
                f"strategy.head_layer must lie in [{-layers}, {layers - 1}] for a model "
                f"with {layers} layers, got {self.strategy.head_layer}"
            )

    def to_dict(self) -> dict:
        """The config as JSON data that ``from_dict`` reads back unchanged."""
        return _to_json(self)


def from_dict(data: dict) -> RunConfig:
    """Validate a raw JSON object into a RunConfig."""
    return _as_object(data, "", cls=RunConfig)


def parse_bool_flag(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean flag value, got {text!r}")


def apply_overrides(data: dict, args) -> dict:
    """Fold CLI flag values into a raw config dict; flags win over the file."""
    # everything a flag writes into is checked before anything is changed
    if not isinstance(data, dict):
        raise ConfigError(f"config root must be an object, got {data!r}")
    for section, flag in (("strategy", args.strategy), ("partition", args.alpha)):
        if flag is not None and not isinstance(data.get(section, {}), dict):
            raise ConfigError(f"{section} must be an object, got {data[section]!r}")
    if args.alpha is not None and data.get("partition", {}).get("kind", "dirichlet") != "dirichlet":
        raise ConfigError("--alpha applies only to dirichlet partitioning")
    if args.strategy is not None:
        data.setdefault("strategy", {})["kind"] = args.strategy
    if args.alpha is not None:
        data.setdefault("partition", {})["alpha"] = args.alpha
    # the other flags are named after the top-level key they set
    for key in ("normalize", "temperature", "clients", "rounds", "seed", "out"):
        if getattr(args, key) is not None:
            data[key] = getattr(args, key)
    return data


def _unique_keys(pairs) -> dict:
    # json.loads keeps the last of two equal keys; a config must not
    out = {}
    for key, value in pairs:
        if key in out:
            raise ConfigError(f"duplicate config key: {key}")
        out[key] = value
    return out


def load(path, args=None) -> RunConfig:
    """Read a JSON config file, apply flag overrides, validate."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        data = json.loads(path.read_text(encoding="utf-8"), object_pairs_hook=_unique_keys)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    if args is not None:
        data = apply_overrides(data, args)
    return from_dict(data)
