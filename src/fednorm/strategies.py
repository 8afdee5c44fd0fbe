"""Server-side aggregation strategies and the gradient hooks they require.

Six rules share one interface: plain weighted averaging, a proximal variant,
control-variate correction, server momentum, step-count normalization and a
frozen-head variant.  Every rule consumes the same per-round aggregation
weights, so contribution normalization composes with any of them.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import nn

# a rule's local-training hook: edits a minibatch gradient in place, given the params
Adjust = Callable[[np.ndarray, np.ndarray], None]


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
    n: int
    tau: int
    # the mean latent; only a federation that normalizes asks for it
    z: np.ndarray | None = None


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

    ``hooks`` and the ``adjust`` it returns run on a training thread, so
    they only read the rule's server memory, and the buffers they make are
    at most one block of ``nn.BLOCK`` elements; ``fold`` alone updates that
    memory, once the round's clients have all finished."""

    def __init__(self, cfg: StrategyConfig, spec: nn.ModelSpec, params: np.ndarray,
                 num_clients: int, optimizer: nn.OptimizerState):
        self.cfg = cfg

    def hooks(self, global_params: np.ndarray, client_id: int) -> Adjust | None:
        return None

    def fold(self, global_params: np.ndarray, updates: list[ClientUpdate],
             u: np.ndarray) -> np.ndarray:
        out = np.zeros_like(updates[0].weights)
        for weight, update in zip(u, updates):
            out += weight * update.weights
        return out


class FedProx(FedAvg):
    """Weighted averaging of clients trained with a proximal pull to the broadcast."""

    def hooks(self, global_params, client_id):
        mu = self.cfg.mu
        if mu == 0:
            return None
        # one buffer per call: hooks of different clients run on different threads
        block = np.empty(min(len(global_params), nn.BLOCK))

        def adjust(params, grad):
            for start in range(0, len(params), nn.BLOCK):
                span = slice(start, start + nn.BLOCK)
                p, g = params[span], grad[span]
                diff = block[: len(p)]
                np.subtract(p, global_params[span], out=diff)
                np.multiply(diff, mu, out=diff)
                g += diff

        return adjust


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
        c, c_r = self.c, self.client_c[client_id]
        block = np.empty(min(len(c), nn.BLOCK))

        def adjust(params, grad):
            # grad += c - c_r, a block of the correction at a time
            for start in range(0, len(grad), nn.BLOCK):
                span = slice(start, start + nn.BLOCK)
                g = grad[span]
                correction = block[: len(g)]
                np.subtract(c[span], c_r[span], out=correction)
                g += correction

        return adjust

    def fold(self, global_params, updates, u):
        # client by client in O(P) scratch, with the bits of the matrix form
        # c += (K/N) * deltas.mean(axis=0); c moves only after the loop
        drift = np.zeros_like(global_params)
        total = np.zeros_like(global_params)
        delta = np.empty_like(global_params)
        scaled = np.empty_like(global_params)
        for weight, up in zip(u, updates):
            np.subtract(global_params, up.weights, out=delta)
            np.multiply(delta, weight, out=scaled)
            drift += scaled
            delta /= up.tau * self.lr
            delta -= self.c
            # begun at +0.0, the sum drops only the sign of a column of -0.0
            # deltas, which needs c == +0.0 there: c's bits do not change
            total += delta
            self.client_c[up.client_id] += delta
        total /= len(updates)
        total *= len(updates) / len(self.client_c)
        self.c += total
        # global_params - server_lr * drift, in drift's own buffer
        drift *= self.cfg.server_lr
        return np.subtract(global_params, drift, out=drift)


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
        def adjust(params, grad):
            grad[self.head] = 0.0

        return adjust

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
