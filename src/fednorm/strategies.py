"""Server-side aggregation strategies and the local hooks they require.

Six rules share one interface: plain weighted averaging, a proximal variant,
control-variate correction, server momentum, step-count normalization and a
frozen-head variant.  Every rule consumes the same per-round aggregation
weights, so contribution normalization composes with any of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import nn

STRATEGY_KINDS = ("fedavg", "fedprox", "scaffold", "sgdm", "fednova", "fedbabu")


@dataclass(frozen=True)
class StrategyConfig:
    """Which rule to run and its knobs; unused knobs are ignored.

    ``head_layer`` indexes the layer frozen by fedbabu, negative values count
    from the back (default: the output layer).
    """

    kind: str = "fedavg"
    mu: float = 0.01
    beta: float = 0.9
    server_lr: float = 1.0
    head_layer: int = -1

    def __post_init__(self):
        if self.kind not in STRATEGY_KINDS:
            raise ValueError(f"strategy must be one of {STRATEGY_KINDS}, got {self.kind!r}")
        if not self.mu >= 0:
            raise ValueError(f"mu must be non-negative, got {self.mu}")
        if not 0 <= self.beta < 1:
            raise ValueError(f"beta must lie in [0, 1), got {self.beta}")
        if not self.server_lr > 0:
            raise ValueError(f"server_lr must be positive, got {self.server_lr}")


@dataclass
class ClientUpdate:
    """Everything a client sends back after local training."""

    client_id: int
    weights: np.ndarray
    z: np.ndarray
    n: int
    tau: int
    cv_delta: np.ndarray | None = None


@dataclass
class LocalHooks:
    """Strategy-specific adjustments applied during local training.

    ``prox`` is a (mu, anchor) penalty; ``grad_correction`` is added to every
    minibatch gradient; ``freeze`` marks parameter entries whose gradient is
    zeroed; ``scaffold_c`` triggers the control-variate delta computation.
    """

    prox: tuple[float, np.ndarray] | None = None
    grad_correction: np.ndarray | None = None
    freeze: slice | None = None
    scaffold_c: np.ndarray | None = None


@dataclass
class ServerStrategyState:
    """Cross-round server memory; mutated only by the orchestration thread."""

    num_clients: int
    momentum: np.ndarray | None = None
    c: np.ndarray | None = None
    client_c: dict[int, np.ndarray] = field(default_factory=dict)
    head: slice | None = None
    frozen_head: np.ndarray | None = None


def init_strategy_state(
    cfg: StrategyConfig, spec: nn.ModelSpec, params: np.ndarray, num_clients: int
) -> ServerStrategyState:
    """Allocate the round-zero server memory for ``cfg.kind``."""
    state = ServerStrategyState(num_clients=num_clients)
    size = len(params)
    if cfg.kind == "sgdm":
        state.momentum = np.zeros(size)
    elif cfg.kind == "scaffold":
        state.c = np.zeros(size)
        state.client_c = {r: np.zeros(size) for r in range(num_clients)}
    elif cfg.kind == "fedbabu":
        state.head = spec.layer_span(cfg.head_layer)
        state.frozen_head = params[state.head].copy()
    return state


def local_hooks(
    cfg: StrategyConfig,
    state: ServerStrategyState,
    global_params: np.ndarray,
    client_id: int,
) -> LocalHooks:
    """Build the local-training adjustments for one client.

    Scaffold takes the server and client control variates from ``state``, and
    fedbabu its frozen span.  Scaffold also needs plain sgd locally, since its
    variate update inverts the local step size; the config loader and
    ``Federation`` check that once, before any round runs.
    """
    if cfg.kind == "fedprox":
        return LocalHooks(prox=(cfg.mu, global_params))
    if cfg.kind == "scaffold":
        return LocalHooks(grad_correction=state.c - state.client_c[client_id], scaffold_c=state.c)
    if cfg.kind == "fedbabu":
        return LocalHooks(freeze=state.head)
    return LocalHooks()


def importance(updates: list[ClientUpdate]) -> np.ndarray:
    """Sample-count weights n_r / sum(n) over the participating clients."""
    if not updates:
        raise ValueError("importance of an empty client set is undefined")
    n = np.array([u.n for u in updates], dtype=np.float64)
    if (n <= 0).any():
        raise ValueError(f"client sample counts must be positive, got {n}")
    return n / n.sum()


def _weighted_average(updates: list[ClientUpdate], u: np.ndarray) -> np.ndarray:
    out = np.zeros_like(updates[0].weights)
    for weight, update in zip(u, updates):
        out += weight * update.weights
    return out


def _check_aggregate_args(global_params, updates, u):
    if not updates:
        raise ValueError("cannot aggregate an empty update list")
    if len(u) != len(updates):
        raise ValueError(f"{len(u)} weights for {len(updates)} updates")
    if abs(float(np.sum(u)) - 1.0) > 1e-9:
        raise ValueError(f"aggregation weights must sum to 1, got {np.sum(u)!r}")
    for up in updates:
        if up.weights.shape != global_params.shape:
            raise ValueError(
                f"client {up.client_id} weight shape {up.weights.shape} "
                f"does not match global {global_params.shape}"
            )


def aggregate(
    global_params: np.ndarray,
    updates: list[ClientUpdate],
    u: np.ndarray,
    cfg: StrategyConfig,
    state: ServerStrategyState,
):
    """Fold the client updates into a new global vector.

    Returns ``(new_params, state)``; ``state`` is updated in place for the
    strategies that keep server memory.  Non-finite output raises.
    """
    _check_aggregate_args(global_params, updates, u)
    u = np.asarray(u, dtype=np.float64)

    if cfg.kind in ("fedavg", "fedprox"):
        new = _weighted_average(updates, u)
    elif cfg.kind == "fedbabu":
        new = _weighted_average(updates, u)
        new[state.head] = state.frozen_head
    elif cfg.kind == "sgdm":
        avg = _weighted_average(updates, u)
        delta = global_params - avg
        m_prev = state.momentum
        state.momentum = cfg.beta * m_prev + delta
        # rearranged from g - lr*(beta*m + delta) so that beta=0, lr=1 lands
        # bitwise on the plain weighted average
        new = avg + (1.0 - cfg.server_lr) * delta - (cfg.server_lr * cfg.beta) * m_prev
    elif cfg.kind == "fednova":
        taus = np.array([up.tau for up in updates], dtype=np.float64)
        if (taus <= 0).any():
            raise ValueError(f"client step counts must be positive, got {taus}")
        tau_eff = float(u @ taus)
        direction = np.zeros_like(global_params)
        for weight, up, tau in zip(u, updates, taus):
            direction += weight * (global_params - up.weights) / tau
        new = global_params - tau_eff * direction
    elif cfg.kind == "scaffold":
        drift = np.zeros_like(global_params)
        for weight, up in zip(u, updates):
            drift += weight * (global_params - up.weights)
        new = global_params - cfg.server_lr * drift
        deltas = []
        for up in updates:
            if up.cv_delta is None:
                raise ValueError(f"client {up.client_id} update carries no variate delta")
            deltas.append(up.cv_delta)
        state.c = state.c + (len(updates) / state.num_clients) * np.mean(deltas, axis=0)
        for up in updates:
            state.client_c[up.client_id] = state.client_c[up.client_id] + up.cv_delta
    else:
        raise AssertionError(f"unhandled strategy {cfg.kind}")

    if not np.isfinite(new).all():
        raise nn.TrainingDiverged(f"aggregation produced non-finite parameters ({cfg.kind})")
    return new, state
