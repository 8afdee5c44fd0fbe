"""A fixed reference task timed between runs, to take host speed out of times.

On a shared host the speed of a core drifts by a third and more over seconds
to minutes, with the load of other tenants, and that drift reaches process
CPU time as well as wall time.  The benchmark therefore times this task,
which uses no code of the program, after every run it times, and scales the
run's times by ``REFERENCE_S`` over the median probe time: the result is the
time the runs would take on a host where the task takes exactly
``REFERENCE_S``.  A change to the program moves the runs' times and not the
task's, so it moves the scaled times in full.

The task is made of what a round of the program spends its time on, because
parts unlike it follow the host's speed less closely (an interpreted integer
loop followed it worst): small MLP steps with their per-call numpy overhead,
the same steps with a batch gathered from a data set and an Adam update, and
a wide product bound by arithmetic and memory bandwidth (an image-shaped
first layer).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# about the task's time on the 2-core x86_64 host the benchmark was tuned on
REFERENCE_S = 0.026
PROBE_REPEATS = 3

_rng = np.random.default_rng(20240601)
_X = _rng.standard_normal((32, 32))
_Y = _rng.integers(0, 10, 32)
_W1 = _rng.standard_normal((32, 128)) * 0.1
_W2 = _rng.standard_normal((128, 10)) * 0.1
_DATA_X = _rng.standard_normal((5000, 32))
_DATA_Y = _rng.integers(0, 10, 5000)
_ORDER = _rng.permutation(5000)
_WIDE_X = _rng.standard_normal((64, 784))
_WIDE_W = _rng.standard_normal((784, 256)) * 0.05


def _sgd_steps() -> float:
    w1, w2 = _W1.copy(), _W2.copy()
    rows = np.arange(len(_Y))
    for _ in range(70):
        h = np.maximum(_X @ w1, 0.0)
        z = h @ w2
        z -= z.max(axis=1, keepdims=True)
        p = np.exp(z)
        p /= p.sum(axis=1, keepdims=True)
        p[rows, _Y] -= 1.0
        gh = p @ w2.T
        gh[h <= 0.0] = 0.0
        w2 -= 0.01 * (h.T @ p)
        w1 -= 0.01 * (_X.T @ gh)
    return float(w1.sum())


def _adam_steps(batch: int = 64) -> float:
    params = [_W1.copy(), np.zeros(128), _W2.copy(), np.zeros(10)]
    first = [np.zeros_like(p) for p in params]
    second = [np.zeros_like(p) for p in params]
    rows = np.arange(batch)
    for step in range(40):
        idx = _ORDER[step * batch:(step + 1) * batch]
        x, y = _DATA_X[idx], _DATA_Y[idx]
        h = np.maximum(x @ params[0] + params[1], 0.0)
        z = h @ params[2] + params[3]
        z = z - z.max(axis=1, keepdims=True)
        p = np.exp(z)
        p /= p.sum(axis=1, keepdims=True)
        p[rows, y] -= 1.0
        p /= batch
        gh = p @ params[2].T
        gh[h <= 0.0] = 0.0
        grads = [x.T @ gh, gh.sum(axis=0), h.T @ p, p.sum(axis=0)]
        for param, grad, m, v in zip(params, grads, first, second):
            m *= 0.9
            m += 0.1 * grad
            v *= 0.999
            v += 0.001 * grad * grad
            param -= 1e-3 * m / (np.sqrt(v) + 1e-8)
    return float(params[0].sum())


def _wide_products() -> float:
    return sum(float(np.maximum(_WIDE_X @ _WIDE_W, 0.0).sum()) for _ in range(10))


def _task() -> float:
    return _sgd_steps() + _adam_steps() + _wide_products()


def probe() -> float:
    """Seconds the reference task takes now, the median of a few tries."""
    tries = []
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        _task()
        tries.append(time.perf_counter() - start)
    return statistics.median(tries)


def scale(probes) -> float:
    """Factor that turns times measured while ``probes`` were taken into
    times at reference speed."""
    return REFERENCE_S / statistics.median(probes)
