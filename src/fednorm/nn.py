"""Minimal dense classifier with manual backprop over flat parameter vectors.

All parameters of a model live in one float64 vector so that federated
aggregation is plain vector arithmetic.  The layout is layer-major: for each
linear layer l with weight matrix W_l (fan_in x fan_out, row-major) the weights
come first, immediately followed by the bias b_l:

    [W_0, b_0, W_1, b_1, ..., W_{L-1}, b_{L-1}]

The post-activation output of the last hidden layer (the layer feeding the
linear output head) is exposed as the "latent" representation of a batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

if TYPE_CHECKING:
    from .config import OptimizerSettings

ACTIVATIONS = ("relu", "tanh")
OPTIMIZERS = ("sgd", "adam")
# adam's moment decay rates and denominator guard
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
# elements per block of an elementwise update over a parameter vector: 256 KB
# per float64 array, so the handful of arrays one block touches stay in a
# core's L2 cache until the block is done
BLOCK = 32768


class TrainingDiverged(RuntimeError):
    """A loss or parameter vector became non-finite; the run cannot continue."""


class Layer(NamedTuple):
    weights: slice  # W_l's entries in the flat vector, row-major
    bias: slice  # b_l's entries, right after W_l's
    shape: tuple[int, int]  # (fan_in, fan_out) of W_l


@dataclass(frozen=True)
class ModelSpec:
    """Architecture of the perceptron: input dim, hidden widths, class count.

    ``layer_sizes`` must have at least three entries; the second-to-last entry
    is the latent dimension.  ``layers`` holds one ``Layer`` per linear layer,
    in layout order, the last being the output head; it is derived once at
    construction, since the training loop reads it on every step.
    """

    layer_sizes: tuple[int, ...]
    activation: str = "relu"
    layers: tuple[Layer, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for s in self.layer_sizes:
            # int() would read 8.7 as 8 and True as 1
            if isinstance(s, bool) or not isinstance(s, (int, np.integer)) or s <= 0:
                raise ValueError(f"layer sizes must be positive integers, got {s!r}")
        sizes = tuple(int(s) for s in self.layer_sizes)
        object.__setattr__(self, "layer_sizes", sizes)
        if len(sizes) < 3:
            raise ValueError(
                "layer_sizes needs input, at least one hidden and an output entry, "
                f"got {sizes}"
            )
        if self.activation not in ACTIVATIONS:
            raise ValueError(
                f"activation must be one of {ACTIVATIONS}, got {self.activation!r}"
            )
        layers = []
        offset = 0
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            w = slice(offset, offset + fan_in * fan_out)
            b = slice(w.stop, w.stop + fan_out)
            layers.append(Layer(w, b, (fan_in, fan_out)))
            offset = b.stop
        object.__setattr__(self, "layers", tuple(layers))

    @property
    def input_dim(self) -> int:
        return self.layer_sizes[0]

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    def layer_span(self, layer: int) -> slice:
        """Contiguous slice covering both W and b of one layer; negative
        ``layer`` counts from the back."""
        if not -self.num_layers <= layer < self.num_layers:
            raise ValueError(
                f"layer {layer} is out of range for a {self.num_layers}-layer model"
            )
        w, b, _ = self.layers[layer]
        return slice(w.start, b.stop)

    def param_count(self) -> int:
        return self.layers[-1].bias.stop


def init_model(spec: ModelSpec, seed: int) -> np.ndarray:
    """Glorot-uniform weights, zero biases; deterministic for a fixed seed."""
    rng = np.random.default_rng(seed)
    params = np.zeros(spec.param_count(), dtype=np.float64)
    for w_sl, _, (fan_in, fan_out) in spec.layers:
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        params[w_sl] = rng.uniform(-limit, limit, size=fan_in * fan_out)
    return params


def _check_params(spec: ModelSpec, params: np.ndarray) -> np.ndarray:
    params = np.asarray(params, dtype=np.float64)
    if params.shape != (spec.param_count(),):
        raise ValueError(
            f"parameter vector has length {params.shape}, expected ({spec.param_count()},)"
        )
    return params


def _check_batch(spec: ModelSpec, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != spec.input_dim:
        raise ValueError(
            f"batch has shape {x.shape}, expected (N, {spec.input_dim})"
        )
    return x


def _activate(z: np.ndarray, kind: str) -> np.ndarray:
    """Apply the activation to ``z`` in place and return it."""
    if kind == "relu":
        return np.maximum(z, 0.0, out=z)
    return np.tanh(z, out=z)


def _activation_grad(a: np.ndarray, kind: str) -> np.ndarray:
    # derivative expressed through the activation output, not the pre-activation;
    # for relu a boolean mask, which multiplies exactly like its 0.0/1.0 floats
    if kind == "relu":
        return a > 0.0
    return 1.0 - a * a


def _forward_cached(spec, params, x, *, latent_only=False):
    """Returns (logits, acts) where acts[l] is the input to layer l, so
    acts[-1] is the latent; ``latent_only`` skips the output layer and
    returns None for the logits."""
    acts = [x]
    *hidden, head = spec.layers
    for w_sl, b_sl, shape in hidden:
        z = acts[-1] @ params[w_sl].reshape(shape)
        z += params[b_sl]
        acts.append(_activate(z, spec.activation))
    if latent_only:
        return None, acts
    logits = acts[-1] @ params[head.weights].reshape(head.shape)
    logits += params[head.bias]
    return logits, acts


def forward(spec: ModelSpec, params: np.ndarray, x: np.ndarray):
    """Run the network on a batch.

    Returns ``(logits, latent)`` with shapes (N, classes) and (N, layer_sizes[-2]);
    ``latent`` is the post-activation output of the last hidden layer.
    """
    params = _check_params(spec, params)
    x = _check_batch(spec, x)
    logits, acts = _forward_cached(spec, params, x)
    return logits, acts[-1]


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Mean negative log-likelihood of the true classes."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=1))
    picked = shifted[np.arange(len(labels)), labels]
    return float(np.mean(logz - picked))


def loss_and_grad(spec, params, x, y, *, out=None):
    """Mean softmax cross-entropy and its exact gradient in layout order.

    ``out`` is an optional float64 buffer shaped like ``params`` that receives
    the gradient, so a training loop can reuse one buffer for every step; the
    returned gradient is then that buffer.

    Raises TrainingDiverged when the loss comes out non-finite.
    """
    params = _check_params(spec, params)
    x = _check_batch(spec, x)
    y = np.asarray(y)
    n = x.shape[0]
    if y.shape != (n,):
        raise ValueError(f"labels have shape {y.shape}, expected ({n},)")
    if out is None:
        grad = np.empty_like(params)
    elif out.shape != params.shape or out.dtype != np.float64:
        raise ValueError(
            f"gradient buffer is {out.dtype} {out.shape}, expected float64 {params.shape}"
        )
    else:
        grad = out

    logits, acts = _forward_cached(spec, params, x)
    rows = np.arange(n)
    # one shift and one exp serve both the loss and the softmax delta
    shifted = logits
    shifted -= logits.max(axis=1, keepdims=True)
    delta = np.exp(shifted)
    total = delta.sum(axis=1, keepdims=True)
    loss = float((np.log(total[:, 0]) - shifted[rows, y]).sum() / n)

    delta /= total
    delta[rows, y] -= 1.0
    delta /= n

    for l in range(spec.num_layers - 1, -1, -1):
        w_sl, b_sl, shape = spec.layers[l]
        np.matmul(acts[l].T, delta, out=grad[w_sl].reshape(shape))
        delta.sum(axis=0, out=grad[b_sl])
        if l > 0:
            delta = delta @ params[w_sl].reshape(shape).T
            delta *= _activation_grad(acts[l], spec.activation)

    if not np.isfinite(loss):
        raise TrainingDiverged(f"non-finite loss {loss}")
    return loss, grad


class OptimizerState:
    """One local optimizer's mutable buffers for a ``size``-parameter model.

    The constructor allocates them all: the gradient ``grad``, which
    ``loss_and_grad`` fills as ``out``, adam's moments ``m``/``v`` (None for
    sgd) and the ``scratch`` arrays of the update, which hold one block of at
    most ``BLOCK`` elements.  Steps update them in place; ``reset()`` clears
    them in place, so that one state serves client after client.
    """

    def __init__(self, settings: OptimizerSettings, size: int):
        self.settings = settings
        self.step = 0
        self.grad = np.empty(size)
        adam = settings.kind == "adam"
        self.m = np.zeros(size) if adam else None
        self.v = np.zeros(size) if adam else None
        self.scratch = tuple(np.empty(min(size, BLOCK)) for _ in range(2 if adam else 1))

    def reset(self):
        """Back to step 0 with zeroed moments, keeping every buffer."""
        for moment in (self.m, self.v):
            if moment is not None:
                moment.fill(0.0)
        self.step = 0


def optimizer_step(params, grad, state: OptimizerState, adjust=None):
    """One optimizer update of ``params`` and ``state``, both in place;
    ``state`` must be built for ``len(params)`` parameters.

    Each update is evaluated in the textbook order, so the bits equal those
    of ``params - lr*grad`` (sgd) and of ``m = b1*m + (1-b1)*g``,
    ``v = b2*v + (1-b2)*g*g``, ``params - lr*m_hat / (sqrt(v_hat) + eps)``
    (adam).  The vector is walked in blocks of ``BLOCK`` elements, each
    finished before the next starts; every operation is elementwise, so the
    blocking changes no bits.  Before a block's update, ``adjust(span, p, g,
    scratch)``, if given, edits its gradient ``g`` in place: ``span`` is the
    block's slice, ``p``/``g`` its views of ``params``/``grad`` and
    ``scratch`` a buffer the update overwrites.  Nothing else writes ``grad``.
    """
    t = state.step + 1
    kind, lr = state.settings.kind, state.settings.lr
    for start in range(0, len(params), BLOCK):
        span = slice(start, start + BLOCK)
        p, g = params[span], grad[span]
        update = state.scratch[0][: len(p)]
        if adjust is not None:
            adjust(span, p, g, update)
        if kind == "sgd":
            np.multiply(g, lr, out=update)
        else:
            m, v, denom = state.m[span], state.v[span], state.scratch[1][: len(p)]
            m *= ADAM_BETA1
            np.multiply(g, 1.0 - ADAM_BETA1, out=denom)
            m += denom
            v *= ADAM_BETA2
            np.multiply(g, 1.0 - ADAM_BETA2, out=denom)
            denom *= g
            v += denom
            np.divide(v, 1.0 - ADAM_BETA2**t, out=denom)
            np.sqrt(denom, out=denom)
            denom += ADAM_EPS
            np.divide(m, 1.0 - ADAM_BETA1**t, out=update)
            update *= lr
            update /= denom
        p -= update
        if not np.isfinite(p).all():
            raise TrainingDiverged(f"non-finite parameters after step {t}")
    state.step = t


def mean_latent(spec: ModelSpec, params: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Mean of the last-hidden-layer activations over all rows of ``x``."""
    params = _check_params(spec, params)
    x = _check_batch(spec, x)
    if x.shape[0] == 0:
        raise ValueError("mean latent of an empty batch is undefined")
    _, acts = _forward_cached(spec, params, x, latent_only=True)
    return acts[-1].mean(axis=0)
