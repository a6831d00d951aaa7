"""Plain-numpy multilayer perceptron with manual backprop and ADAM.

The network maps a batch of points ``(m, dim_x)`` to a value block
``(m, dim_y)`` and a gradient block ``(m, dim_y, dim_x)``, produced by one
linear output layer and split.  Everything is float64 and deterministic
given the initialisation stream, and checkpoints restore bit-exactly.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .simulate import RngLike, _as_generator

# per-layer pre-activation buffers, then per-hidden-layer activation buffers
Workspace = Tuple[List[np.ndarray], List[np.ndarray]]


class Mlp:
    """ReLU network returning a (value, gradient) pair per input point."""

    def __init__(self, dim_x: int, dim_y: int,
                 weights: List[np.ndarray], biases: List[np.ndarray]):
        self.dim_x = dim_x
        self.dim_y = dim_y
        self.weights = weights
        self.biases = biases

    @classmethod
    def init(cls, dim_x: int, dim_y: int, hidden: Sequence[int],
             rng: RngLike) -> "Mlp":
        """Uniform(+-sqrt(6/fan_in)) weights, zero biases."""
        gen = _as_generator(rng)
        sizes = [dim_x, *hidden, dim_y + dim_y * dim_x]
        weights, biases = [], []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            bound = np.sqrt(6.0 / fan_in)
            weights.append(gen.uniform(-bound, bound, size=(fan_in, fan_out)))
            biases.append(np.zeros(fan_out))
        return cls(dim_x, dim_y, weights, biases)

    @property
    def parameters(self) -> List[np.ndarray]:
        out: List[np.ndarray] = []
        for w, b in zip(self.weights, self.biases):
            out.extend((w, b))
        return out

    def copy(self) -> "Mlp":
        return Mlp(self.dim_x, self.dim_y,
                   [w.copy() for w in self.weights],
                   [b.copy() for b in self.biases])

    def workspace(self, m: int) -> Workspace:
        """Buffers for a forward and backward pass on ``m`` rows: every
        layer's pre-activation, then every hidden layer's activation."""
        widths = [w.shape[1] for w in self.weights]
        return ([np.empty((m, n)) for n in widths],
                [np.empty((m, n)) for n in widths[:-1]])

    def _forward_cached(self, x: np.ndarray, work: Optional[Workspace] = None):
        """Every layer's activation and pre-activation on the batch ``x``.

        Returns ``(acts, pre)``: ``acts[0]`` is the input and ``acts[k + 1]``
        the output of layer ``k``; the output layer is linear, so
        ``acts[-1] is pre[-1]``.  The layers are written into ``work``, a
        ``workspace(len(x))`` that the next pass with it overwrites, or into
        fresh buffers when it is omitted.
        """
        x = np.atleast_2d(np.asarray(x, dtype=float))
        pre, hidden = self.workspace(x.shape[0]) if work is None else work
        acts = [x]
        h = x
        for k, (w, b) in enumerate(zip(self.weights, self.biases)):
            a = pre[k]
            if w.shape[0] == 1:  # the one-term matmul, as a broadcast product
                np.multiply(h, w, out=a)
            else:
                np.matmul(h, w, out=a)
            a += b
            h = np.maximum(a, 0.0, out=hidden[k]) if k < len(hidden) else a
            acts.append(h)
        return acts, pre

    def _split(self, out: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        m = out.shape[0]
        u = out[:, :self.dim_y]
        ubar = out[:, self.dim_y:].reshape(m, self.dim_y, self.dim_x)
        return u, ubar

    def forward(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        acts, _ = self._forward_cached(x)
        return self._split(acts[-1])

    def __call__(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        return self.forward(x)

    def mse_loss(self, x: np.ndarray, target_u: np.ndarray,
                 target_ubar: np.ndarray) -> float:
        u, ubar = self.forward(x)
        m = u.shape[0]
        res = np.sum((u - target_u) ** 2) + np.sum((ubar - target_ubar) ** 2)
        return float(res / m)

    def backprop(self, acts: List[np.ndarray], pre: List[np.ndarray],
                 delta: np.ndarray) -> List[np.ndarray]:
        """Parameter gradients of ``sum(delta * raw_output)``.

        ``acts``/``pre`` must come from ``_forward_cached`` on the same
        input batch, and are used up: each hidden layer's ReLU mask is
        written over its pre-activation and the delta below it over its
        activation.  ``delta`` is the upstream gradient on the raw (not yet
        split) output layer, shape ``(m, dim_y + dim_y*dim_x)``; it is left
        as it is.
        """
        grads: List[np.ndarray] = []
        for k in range(len(self.weights) - 1, -1, -1):
            grads.append(delta.sum(axis=0))          # bias
            grads.append(acts[k].T @ delta)          # weight
            if k > 0:
                mask = np.greater(pre[k - 1], 0.0, out=pre[k - 1])
                delta = np.matmul(delta, self.weights[k].T, out=acts[k])
                delta *= mask
        grads.reverse()
        return grads

    def mse_grad(self, x: np.ndarray, target_u: np.ndarray,
                 target_ubar: np.ndarray) -> Tuple[float, List[np.ndarray]]:
        """Loss and its gradient in every weight and bias, by backprop.

        The loss is the batch mean of the squared residual summed over all
        value and gradient entries.
        """
        acts, pre = self._forward_cached(x)
        out = acts[-1]
        m = out.shape[0]
        target_u = np.asarray(target_u, dtype=float).reshape(m, self.dim_y)
        flat_ubar = np.asarray(target_ubar, dtype=float).reshape(m, -1)
        target = np.concatenate([target_u, flat_ubar], axis=1)
        resid = out - target
        loss = float(np.sum(resid**2) / m)
        return loss, self.backprop(acts, pre, (2.0 / m) * resid)


@dataclass
class AdamState:
    """Moment accumulators plus the stepped learning-rate schedule."""

    step: int
    m: List[np.ndarray]
    v: List[np.ndarray]
    base_lr: float = 5e-4
    decay: float = 0.9
    decay_period: int = 1000
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def init(cls, net: Mlp, base_lr: float = 5e-4, decay: float = 0.9,
             decay_period: int = 1000, **kw) -> "AdamState":
        params = net.parameters
        return cls(0, [np.zeros_like(p) for p in params],
                   [np.zeros_like(p) for p in params],
                   base_lr, decay, decay_period, **kw)

    @property
    def learning_rate(self) -> float:
        return self.base_lr * self.decay ** (self.step // self.decay_period)


def adam_step(net: Mlp, grads: List[np.ndarray], state: AdamState) -> None:
    """One in-place ADAM update of every parameter of ``net``."""
    params = net.parameters
    if len(grads) != len(params):
        raise ValueError("gradient list does not match parameter list")
    lr = state.learning_rate
    t = state.step + 1
    b1, b2 = state.beta1, state.beta2
    corr1 = 1.0 - b1**t
    corr2 = 1.0 - b2**t
    for p, g, mom, vel in zip(params, grads, state.m, state.v):
        mom *= b1
        mom += (1 - b1) * g
        vel *= b2
        vel += (1 - b2) * g**2
        p -= lr * (mom / corr1) / (np.sqrt(vel / corr2) + state.eps)
    state.step = t


def save_checkpoint(path, net: Mlp, state: Optional[AdamState] = None) -> None:
    """Write the network (and optionally optimiser state) to an npz file."""
    payload = {"dims": np.array([net.dim_x, net.dim_y, len(net.weights)])}
    for k, (w, b) in enumerate(zip(net.weights, net.biases)):
        payload[f"w{k}"] = w
        payload[f"b{k}"] = b
    if state is not None:
        payload["adam_meta"] = np.array([
            state.step, state.base_lr, state.decay, state.decay_period,
            state.beta1, state.beta2, state.eps,
        ])
        for k, (mom, vel) in enumerate(zip(state.m, state.v)):
            payload[f"m{k}"] = mom
            payload[f"v{k}"] = vel
    np.savez(path, **payload)


def load_checkpoint(path) -> Tuple[Mlp, Optional[AdamState]]:
    with np.load(path) as data:
        dim_x, dim_y, n_layers = (int(v) for v in data["dims"])
        weights = [data[f"w{k}"] for k in range(n_layers)]
        biases = [data[f"b{k}"] for k in range(n_layers)]
        net = Mlp(dim_x, dim_y, weights, biases)
        state = None
        if "adam_meta" in data:
            meta = data["adam_meta"]
            state = AdamState(
                step=int(meta[0]),
                m=[data[f"m{k}"] for k in range(2 * n_layers)],
                v=[data[f"v{k}"] for k in range(2 * n_layers)],
                base_lr=float(meta[1]), decay=float(meta[2]),
                decay_period=int(meta[3]), beta1=float(meta[4]),
                beta2=float(meta[5]), eps=float(meta[6]),
            )
    return net, state
