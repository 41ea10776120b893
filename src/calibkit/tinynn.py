"""Minimal fully-connected network: forward, reverse-mode gradients and Adam.
Double precision throughout."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class MlpParams:
    """Per-layer weight matrices (fan_in x fan_out) and bias vectors.

    Hidden layers use ReLU, the output layer is linear with width 1.
    Construction copies the given arrays into one parameter vector, ``flat``
    (all weights, then all biases); ``weights`` and ``biases`` are views into
    it, so edit them in place, never rebind their entries.
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    flat: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        arrays = [np.asarray(a, dtype=float) for a in (*self.weights, *self.biases)]
        self.flat = np.empty(sum(a.size for a in arrays))
        views, offset = [], 0
        for a in arrays:
            view = self.flat[offset : offset + a.size].reshape(a.shape)
            view[...] = a
            views.append(view)
            offset += a.size
        num_layers = len(self.weights)
        self.weights, self.biases = views[:num_layers], views[num_layers:]

    @property
    def widths(self) -> list[int]:
        return [self.weights[0].shape[0]] + [w.shape[1] for w in self.weights]

    def check_finite(self) -> bool:
        return bool(np.all(np.isfinite(self.flat)))


@dataclass
class AdamState:
    """First and second moment estimates over MlpParams.flat."""

    m: np.ndarray
    v: np.ndarray
    step: int = field(default=0, init=False)


def init_mlp(widths: Sequence[int], rng: np.random.Generator) -> MlpParams:
    """Symmetric uniform fan-in/fan-out init (+-sqrt(6/(fan_in+fan_out))), zero biases."""
    weights, biases = [], []
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return MlpParams(weights=weights, biases=biases)


def zeros_like_params(params: MlpParams) -> MlpParams:
    return MlpParams(
        weights=[np.zeros_like(w) for w in params.weights],
        biases=[np.zeros_like(b) for b in params.biases],
    )


def forward_batch(params: MlpParams, x: np.ndarray) -> tuple[np.ndarray, list]:
    """Affine -> ReLU on hidden layers, linear scalar output per row of x (B, k).

    Returns the (B,) outputs and the activation cache needed by backward_batch.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != params.weights[0].shape[0]:
        raise ValueError("input width does not match the first layer")
    cache = [x]
    h = x
    last = len(params.weights) - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        h = h @ w
        h += b
        if i != last:
            np.maximum(h, 0.0, out=h)
        cache.append(h)
    return h[:, 0], cache


def backward_batch(params: MlpParams, cache: list, upstream: np.ndarray, out: MlpParams) -> MlpParams:
    """Exact reverse-mode parameter gradients, summed over the batch, written
    into out (a training loop reuses one buffer) and returned.

    upstream is the (B,) gradient of the loss w.r.t. the scalar outputs.
    ReLU subgradient at 0 is 0.
    """
    upstream = np.asarray(upstream, dtype=float)
    delta = upstream[:, None]
    for i in range(len(params.weights) - 1, -1, -1):
        np.matmul(cache[i].T, delta, out=out.weights[i])
        np.einsum("ij->j", delta, out=out.biases[i])
        if i > 0:
            delta = delta @ params.weights[i].T
            delta *= cache[i] > 0.0
    return out


def adam_init(params: MlpParams) -> AdamState:
    return AdamState(m=np.zeros_like(params.flat), v=np.zeros_like(params.flat))


def adam_step(params: MlpParams, grads: MlpParams, state: AdamState, lr: float) -> tuple[MlpParams, AdamState]:
    """Standard bias-corrected Adam update, one vectorised update over the
    flat parameter vector. Mutates params and state in place and returns them
    (single-owner optimizer state)."""
    state.step += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    c1 = 1.0 - b1**state.step
    c2 = 1.0 - b2**state.step
    g, m, v = grads.flat, state.m, state.v
    m *= b1
    m += (1 - b1) * g
    v *= b2
    v += (1 - b2) * g * g
    params.flat -= lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
    return params, state
