"""Server-side aggregation strategies and the local hooks they require.

Six rules share one interface: plain weighted averaging, a proximal variant,
control-variate correction, server momentum, step-count normalization and a
frozen-head variant.  Every rule consumes the same per-round aggregation
weights, so contribution normalization composes with any of them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn


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


@dataclass
class LocalHooks:
    """Strategy-specific adjustments applied during local training.

    ``prox`` is a (mu, anchor) penalty; ``grad_correction`` is added to every
    minibatch gradient; ``freeze`` marks parameter entries whose gradient is
    zeroed.
    """

    prox: tuple[float, np.ndarray] | None = None
    grad_correction: np.ndarray | None = None
    freeze: slice | None = None


def importance(updates: list[ClientUpdate]) -> np.ndarray:
    """Sample-count weights n_r / sum(n) over the participating clients."""
    if not updates:
        raise ValueError("importance of an empty client set is undefined")
    n = np.array([u.n for u in updates], dtype=np.float64)
    if (n <= 0).any():
        raise ValueError(f"client sample counts must be positive, got {n}")
    return n / n.sum()


def aggregate(
    global_params: np.ndarray, updates: list[ClientUpdate], u: np.ndarray, rule: FedAvg
) -> np.ndarray:
    """Fold the client updates into a new global vector with ``rule``, which
    updates its own server memory in place.  Non-finite output raises."""
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
    new = rule.fold(global_params, updates, np.asarray(u, dtype=np.float64))
    if not np.isfinite(new).all():
        raise nn.TrainingDiverged(f"aggregation produced non-finite parameters ({rule.cfg.kind})")
    return new


class FedAvg:
    """Plain weighted averaging; every other rule overrides only what it changes.

    ``hooks`` runs on worker threads and only reads the rule's server memory;
    ``fold`` alone updates it, once the round's clients have all finished."""

    def __init__(self, cfg: StrategyConfig, spec: nn.ModelSpec, params: np.ndarray,
                 num_clients: int, optimizer: nn.OptimizerState):
        self.cfg = cfg

    def hooks(self, global_params: np.ndarray, client_id: int) -> LocalHooks:
        return LocalHooks()

    def fold(self, global_params: np.ndarray, updates: list[ClientUpdate],
             u: np.ndarray) -> np.ndarray:
        out = np.zeros_like(updates[0].weights)
        for weight, update in zip(u, updates):
            out += weight * update.weights
        return out


class FedProx(FedAvg):
    """Weighted averaging of clients trained with a proximal pull to the broadcast."""

    def hooks(self, global_params, client_id):
        return LocalHooks(prox=(self.cfg.mu, global_params))


class Scaffold(FedAvg):
    """Control-variate drift correction with a server step size.

    The variate update is option II of arXiv:1910.06378, which needs only what
    the server holds; its division by the local rate presumes plain sgd steps.
    """

    def __init__(self, cfg, spec, params, num_clients, optimizer):
        super().__init__(cfg, spec, params, num_clients, optimizer)
        if optimizer.kind != "sgd":
            raise ValueError(f"scaffold requires the sgd local optimizer, got {optimizer.kind!r}")
        self.lr = optimizer.lr
        self.c = np.zeros(len(params))
        self.client_c = {r: np.zeros(len(params)) for r in range(num_clients)}

    def hooks(self, global_params, client_id):
        return LocalHooks(grad_correction=self.c - self.client_c[client_id])

    def fold(self, global_params, updates, u):
        drift = np.zeros_like(global_params)
        # row r is -c + (g - w_r) / (tau_r * lr), built in place to spare heap churn
        deltas = np.empty((len(updates), len(global_params)))
        for weight, up, delta in zip(u, updates, deltas):
            np.subtract(global_params, up.weights, out=delta)
            drift += weight * delta
            delta /= up.tau * self.lr
            delta -= self.c
        self.c = self.c + (len(updates) / len(self.client_c)) * deltas.mean(axis=0)
        for up, delta in zip(updates, deltas):
            self.client_c[up.client_id] = self.client_c[up.client_id] + delta
        return global_params - self.cfg.server_lr * drift


class SGDM(FedAvg):
    """Server momentum on the averaged step (FedAvgM)."""

    def __init__(self, cfg, spec, params, num_clients, optimizer):
        super().__init__(cfg, spec, params, num_clients, optimizer)
        self.momentum = np.zeros(len(params))

    def fold(self, global_params, updates, u):
        cfg = self.cfg
        avg = super().fold(global_params, updates, u)
        delta = global_params - avg
        m_prev = self.momentum
        self.momentum = cfg.beta * m_prev + delta
        # rearranged from g - lr*(beta*m + delta) so that beta=0, lr=1 lands
        # bitwise on the plain weighted average
        return avg + (1.0 - cfg.server_lr) * delta - (cfg.server_lr * cfg.beta) * m_prev


class FedNova(FedAvg):
    """Step-count normalized averaging: each client's drift is divided by its tau."""

    def fold(self, global_params, updates, u):
        taus = np.array([up.tau for up in updates], dtype=np.float64)
        if (taus <= 0).any():
            raise ValueError(f"client step counts must be positive, got {taus}")
        tau_eff = float(u @ taus)
        direction = np.zeros_like(global_params)
        for weight, up, tau in zip(u, updates, taus):
            direction += weight * (global_params - up.weights) / tau
        return global_params - tau_eff * direction


class FedBABU(FedAvg):
    """Averaging of the body; the head layer keeps its round-zero values.

    Every fold copies the head back from the broadcast, so it never moves.
    """

    def __init__(self, cfg, spec, params, num_clients, optimizer):
        super().__init__(cfg, spec, params, num_clients, optimizer)
        self.head = spec.layer_span(cfg.head_layer)

    def hooks(self, global_params, client_id):
        return LocalHooks(freeze=self.head)

    def fold(self, global_params, updates, u):
        new = super().fold(global_params, updates, u)
        new[self.head] = global_params[self.head]
        return new


RULES = {
    "fedavg": FedAvg,
    "fedprox": FedProx,
    "scaffold": Scaffold,
    "sgdm": SGDM,
    "fednova": FedNova,
    "fedbabu": FedBABU,
}
STRATEGY_KINDS = tuple(RULES)
