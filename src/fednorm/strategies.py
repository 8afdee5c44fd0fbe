"""Server-side aggregation strategies and the gradient hooks they require.

Six rules share one interface: plain weighted averaging, a proximal variant,
control-variate correction, server momentum, step-count normalization and a
frozen-head variant.  Every rule consumes the same per-round aggregation
weights, so contribution normalization composes with any of them.  A rule
that changes local training hands ``nn.optimizer_step`` a gradient hook.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import nn

if TYPE_CHECKING:
    from .config import OptimizerSettings, StrategyConfig

# a rule's local-training hook: nn.optimizer_step calls adjust(span, params,
# grad, scratch) on each block, which edits that block's gradient in place
Adjust = Callable[[slice, np.ndarray, np.ndarray, np.ndarray], None]


@dataclass
class ClientUpdate:
    """Everything a client sends back after local training."""

    client_id: int
    weights: np.ndarray
    n: int
    tau: int


def importance(updates: list[ClientUpdate]) -> np.ndarray:
    """Sample-count weights n_r / sum(n) over the participating clients."""
    if not updates:
        raise ValueError("importance of an empty client set is undefined")
    n = np.array([u.n for u in updates], dtype=np.float64)
    if (n <= 0).any():
        raise ValueError(f"client sample counts must be positive, got {n}")
    return n / n.sum()


def cut(size: int, count: int) -> list[slice]:
    """``count`` contiguous slices that cover ``[0, size)`` in order, none
    empty: fewer when there are fewer than ``count`` elements."""
    count = max(1, min(count, size))
    bounds = [size * i // count for i in range(count + 1)]
    return [slice(start, stop) for start, stop in zip(bounds, bounds[1:])]


def aggregate(
    global_params: np.ndarray,
    updates: list[ClientUpdate],
    u: np.ndarray,
    rule: FedAvg,
    spans: int = 1,
    run=map,
) -> np.ndarray:
    """Fold the client updates into a new global vector with ``rule``, which
    updates its own server memory in place.  The vector is cut into
    ``spans`` contiguous spans, and ``run``, a ``map`` that may call on
    several threads at once, folds each one; every fold operation is
    elementwise, so the cut changes no bit.  Weights off the simplex raise
    before any span runs, non-finite output after all have."""
    if not updates:
        raise ValueError("cannot aggregate an empty update list")
    if len(u) != len(updates):
        raise ValueError(f"{len(u)} weights for {len(updates)} updates")
    u = np.asarray(u, dtype=np.float64)
    if not (np.isfinite(u).all() and (u >= 0.0).all()):
        raise ValueError(f"aggregation weights must be finite and non-negative, got {u!r}")
    if abs(float(np.sum(u)) - 1.0) > 1e-9:
        raise ValueError(f"aggregation weights must sum to 1, got {np.sum(u)!r}")
    for up in updates:
        if up.weights.shape != global_params.shape:
            raise ValueError(
                f"client {up.client_id} weight shape {up.weights.shape} "
                f"does not match global {global_params.shape}"
            )
    new = np.empty_like(global_params)
    list(run(rule.fold(global_params, updates, u, new), cut(len(new), spans)))
    if not np.isfinite(new).all():
        raise nn.TrainingDiverged(f"aggregation produced non-finite parameters ({rule.cfg.kind})")
    return new


# one span's fold: writes out[span] and only the [span] part of the rule's memory
FoldSpan = Callable[[slice], None]


class FedAvg:
    """Plain weighted averaging; every other rule overrides only what it changes.

    ``hooks`` and the ``adjust`` it returns run on a training thread, so
    they only read the rule's server memory and allocate nothing: ``adjust``
    works in the scratch ``nn.optimizer_step`` hands it.  ``fold`` alone
    updates that memory, once the round's clients have all finished."""

    def __init__(self, cfg: StrategyConfig, spec: nn.ModelSpec, params: np.ndarray,
                 num_clients: int, optimizer: OptimizerSettings):
        self.cfg = cfg

    def hooks(self, global_params: np.ndarray, client_id: int) -> Adjust | None:
        return None

    def fold(self, global_params: np.ndarray, updates: list[ClientUpdate],
             u: np.ndarray, out: np.ndarray) -> FoldSpan:
        """The fold of one span of ``out``, the new global vector; a rule
        checks what it needs of the round's inputs here, before any span
        runs.  The spans of one fold are disjoint and may run on several
        threads at once, so each touches only its own span of every vector
        and allocates only span-sized scratch."""

        def fold_span(span):
            # begun at +0.0 and added client by client in order
            total = out[span]
            total.fill(0.0)
            scaled = np.empty_like(total)
            for weight, up in zip(u, updates):
                np.multiply(up.weights[span], weight, out=scaled)
                total += scaled

        return fold_span


class FedProx(FedAvg):
    """Weighted averaging of clients trained with a proximal pull to the broadcast."""

    def hooks(self, global_params, client_id):
        mu = self.cfg.mu
        if mu == 0:
            return None

        def adjust(span, p, g, scratch):
            np.subtract(p, global_params[span], out=scratch)
            np.multiply(scratch, mu, out=scratch)
            g += scratch

        return adjust


class Scaffold(FedAvg):
    """Control-variate drift correction with a server step size.

    The variate update is option II of arXiv:1910.06378, which needs only what
    the server holds; its division by the local rate presumes plain sgd steps.
    ``client_c`` is one (N, P) block, row r client r's variate.  A large block
    is a mapping of zero pages, so a row takes memory only once a fold first
    writes it, and clients never sampled cost nothing.
    """

    def __init__(self, cfg, spec, params, num_clients, optimizer):
        super().__init__(cfg, spec, params, num_clients, optimizer)
        if optimizer.kind != "sgd":
            raise ValueError(f"scaffold requires the sgd local optimizer, got {optimizer.kind!r}")
        self.lr = optimizer.lr
        self.c = np.zeros(len(params))
        self.client_c = np.zeros((num_clients, len(params)))

    def variate(self, client_id: int) -> np.ndarray:
        """Client ``client_id``'s row of ``client_c``; a negative id must not wrap."""
        if not 0 <= client_id < len(self.client_c):
            raise IndexError(f"client {client_id} outside [0, {len(self.client_c)})")
        return self.client_c[client_id]

    def hooks(self, global_params, client_id):
        c, c_r = self.c, self.variate(client_id)

        def adjust(span, p, g, scratch):
            np.subtract(c[span], c_r[span], out=scratch)
            g += scratch

        return adjust

    def fold(self, global_params, updates, u, out):
        # every id is checked before any span writes a row
        rows = [self.variate(up.client_id) for up in updates]
        share = len(updates) / len(self.client_c)

        def fold_span(span):
            # client by client in O(span) scratch, with the bits of the matrix
            # form c += (K/N) * deltas.mean(axis=0); c[span] moves only after
            # the span's loop
            g, c = global_params[span], self.c[span]
            drift = out[span]
            drift.fill(0.0)
            total = np.zeros_like(drift)
            delta = np.empty_like(drift)
            scaled = np.empty_like(drift)
            for weight, up, row in zip(u, updates, rows):
                np.subtract(g, up.weights[span], out=delta)
                np.multiply(delta, weight, out=scaled)
                drift += scaled
                delta /= up.tau * self.lr
                delta -= c
                # begun at +0.0, the sum drops only the sign of a column of -0.0
                # deltas, which needs c == +0.0 there: c's bits do not change
                total += delta
                c_r = row[span]  # a view: ``row[span] +=`` would copy it back onto itself
                c_r += delta
            total /= len(updates)
            total *= share
            c += total
            # global_params - server_lr * drift, in drift's own buffer
            drift *= self.cfg.server_lr
            np.subtract(g, drift, out=drift)

        return fold_span


class SGDM(FedAvg):
    """Server momentum on the averaged step (FedAvgM)."""

    def __init__(self, cfg, spec, params, num_clients, optimizer):
        super().__init__(cfg, spec, params, num_clients, optimizer)
        self.momentum = np.zeros(len(params))

    def fold(self, global_params, updates, u, out):
        cfg = self.cfg
        average = super().fold(global_params, updates, u, out)

        def fold_span(span):
            average(span)
            avg, m = out[span], self.momentum[span]
            delta = np.subtract(global_params[span], avg)
            scaled = np.empty_like(delta)
            # avg + (1 - lr)*delta - (lr*beta)*m_prev, rearranged from
            # g - lr*(beta*m + delta) so that beta=0, lr=1 lands bitwise on the
            # plain weighted average; then m = beta*m_prev + delta, in place
            np.multiply(delta, 1.0 - cfg.server_lr, out=scaled)
            avg += scaled
            np.multiply(m, cfg.server_lr * cfg.beta, out=scaled)
            avg -= scaled
            m *= cfg.beta
            m += delta

        return fold_span


class FedNova(FedAvg):
    """Step-count normalized averaging: each client's drift is divided by its tau."""

    def fold(self, global_params, updates, u, out):
        taus = np.array([up.tau for up in updates], dtype=np.float64)
        if (taus <= 0).any():
            raise ValueError(f"client step counts must be positive, got {taus}")
        tau_eff = float(u @ taus)

        def fold_span(span):
            # global_params - tau_eff * sum_r u_r * (global_params - w_r) / tau_r
            g = global_params[span]
            direction = out[span]
            direction.fill(0.0)
            step = np.empty_like(direction)
            for weight, up, tau in zip(u, updates, taus):
                np.subtract(g, up.weights[span], out=step)
                step *= weight
                step /= tau
                direction += step
            direction *= tau_eff
            np.subtract(g, direction, out=direction)

        return fold_span


class FedBABU(FedAvg):
    """Averaging of the body; the head layer keeps its round-zero values.

    Every fold copies the head back from the broadcast, so it never moves.
    """

    def __init__(self, cfg, spec, params, num_clients, optimizer):
        super().__init__(cfg, spec, params, num_clients, optimizer)
        self.head = spec.layer_span(cfg.head_layer)

    def hooks(self, global_params, client_id):
        def adjust(span, p, g, scratch):
            g[max(self.head.start - span.start, 0) : max(self.head.stop - span.start, 0)] = 0.0

        return adjust

    def fold(self, global_params, updates, u, out):
        average = super().fold(global_params, updates, u, out)

        def fold_span(span):
            average(span)
            # the part of the head inside the span
            head = slice(max(self.head.start, span.start), min(self.head.stop, span.stop))
            out[head] = global_params[head]

        return fold_span


RULES = {
    "fedavg": FedAvg,
    "fedprox": FedProx,
    "scaffold": Scaffold,
    "sgdm": SGDM,
    "fednova": FedNova,
    "fedbabu": FedBABU,
}
STRATEGY_KINDS = tuple(RULES)
