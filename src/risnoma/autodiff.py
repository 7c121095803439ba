"""Reverse-mode tape over float64 numpy arrays: just the ops the nets need.

Every op builds a Tensor holding its value, its parents, and a closure that
scatters the output gradient back to those parents that require one;
``backward()`` walks the tape in reverse topological order.  No graph
reuse, no in-place tricks.

Ops, all batched over leading axes where that makes sense:
  arithmetic   ``+ - * /`` (numpy broadcasting), ``@`` (1-D or 2-D operands)
  indexing     ``x[key]`` (basic or advanced; repeated indices accumulate)
  shape        ``reshape``, ``sum(axis)``, ``concat(parts, axis)``
  elementwise  ``tanh sigmoid relu elu exp log absolute square softplus clip``
  rows         ``log_softmax`` (last axis), ``segment_reduce`` (sum, mean or
               max of the rows sent to each segment)
"""
from __future__ import annotations

import json
import zlib

import numpy as np


class Tensor:
    __slots__ = ("value", "grad", "_parents", "_push", "requires")

    def __init__(self, value, requires=False, parents=(), push=None):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        self.requires = requires or any(p.requires for p in parents)
        self._parents = parents if self.requires else ()
        self._push = push if self.requires else None

    @property
    def shape(self):
        return self.value.shape

    def _accum(self, g):
        if self.grad is None:
            self.grad = np.zeros_like(self.value)
        self.grad += g

    def backward(self, seed=None):
        if seed is None:
            if self.value.size != 1:
                raise ValueError("backward() without seed needs a scalar root")
            seed = np.ones_like(self.value)
        order, seen = [], set()

        def visit(t):
            if id(t) in seen or not t.requires:
                return
            seen.add(id(t))
            for p in t._parents:
                visit(p)
            order.append(t)

        visit(self)
        for t in order:  # drop leftovers from any earlier pass over this graph
            t.grad = None
        self._accum(np.asarray(seed, dtype=np.float64))
        for t in reversed(order):
            if t._push is not None and t.grad is not None:
                t._push(t.grad)

    # -- operators ---------------------------------------------------------
    def __add__(self, other):
        other = as_tensor(other)

        def push(g):
            if self.requires:
                self._accum(_unbroadcast(g, self.shape))
            if other.requires:
                other._accum(_unbroadcast(g, other.shape))
        return Tensor(self.value + other.value, parents=(self, other), push=push)

    __radd__ = __add__

    def __mul__(self, other):
        other = as_tensor(other)

        def push(g):
            if self.requires:
                self._accum(_unbroadcast(g * other.value, self.shape))
            if other.requires:
                other._accum(_unbroadcast(g * self.value, other.shape))
        return Tensor(self.value * other.value, parents=(self, other), push=push)

    __rmul__ = __mul__

    def __neg__(self):
        return self * (-1.0)

    def __sub__(self, other):
        return self + (-as_tensor(other))

    def __rsub__(self, other):
        return as_tensor(other) + (-self)

    def __truediv__(self, scalar):
        if isinstance(scalar, Tensor):
            raise TypeError("division only by python scalars")
        return self * (1.0 / scalar)

    def __matmul__(self, other):
        other = as_tensor(other)
        a, b = self.value, other.value
        if a.ndim > 2 or b.ndim > 2:
            raise ValueError("matmul takes 1-D or 2-D operands")

        def push(g):
            g = np.asarray(g)
            if self.requires:
                if b.ndim == 2:
                    self._accum(g @ b.T)
                else:
                    self._accum(np.outer(g, b) if a.ndim == 2 else g * b)
            if other.requires:
                if a.ndim == 2:
                    other._accum(a.T @ g)
                else:
                    other._accum(np.outer(a, g) if b.ndim == 2 else g * a)
        return Tensor(a @ b, parents=(self, other), push=push)

    def __getitem__(self, key):
        def push(g):
            full = np.zeros_like(self.value)
            np.add.at(full, key, g)  # a repeated index collects every copy
            self._accum(full)
        return Tensor(self.value[key], parents=(self,), push=push)

    def sum(self, axis=None):
        def push(g):
            g = np.asarray(g)
            if axis is not None:
                g = np.expand_dims(g, axis)
            self._accum(np.broadcast_to(g, self.value.shape))
        return Tensor(self.value.sum(axis=axis), parents=(self,), push=push)

    def reshape(self, *shape):
        def push(g):
            self._accum(np.asarray(g).reshape(self.value.shape))
        return Tensor(self.value.reshape(*shape), parents=(self,), push=push)

    def item(self) -> float:
        return float(self.value)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def _unbroadcast(g, shape):
    g = np.asarray(g)
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def _unary(x, value, local_grad):
    x = as_tensor(x)

    def push(g):
        x._accum(g * local_grad)
    return Tensor(value, parents=(x,), push=push)


def tanh(x):
    x = as_tensor(x)
    y = np.tanh(x.value)
    return _unary(x, y, 1.0 - y * y)


def sigmoid(x):
    x = as_tensor(x)
    y = 1.0 / (1.0 + np.exp(-np.clip(x.value, -500, 500)))
    return _unary(x, y, y * (1.0 - y))


def relu(x):
    x = as_tensor(x)
    return _unary(x, np.maximum(x.value, 0.0), (x.value > 0).astype(float))


def elu(x):
    x = as_tensor(x)
    neg = np.exp(np.minimum(x.value, 0.0)) - 1.0
    y = np.where(x.value > 0, x.value, neg)
    return _unary(x, y, np.where(x.value > 0, 1.0, neg + 1.0))


def exp(x):
    x = as_tensor(x)
    y = np.exp(x.value)
    return _unary(x, y, y)


def log(x):
    x = as_tensor(x)
    return _unary(x, np.log(x.value), 1.0 / x.value)


def absolute(x):
    x = as_tensor(x)
    return _unary(x, np.abs(x.value), np.sign(x.value))


def square(x):
    x = as_tensor(x)
    return x * x


def softplus(x):
    x = as_tensor(x)
    return _unary(x, np.logaddexp(0.0, x.value),
                  1.0 / (1.0 + np.exp(-np.clip(x.value, -500, 500))))


def clip(x, lo, hi):
    x = as_tensor(x)
    inside = ((x.value > lo) & (x.value < hi)).astype(float)
    return _unary(x, np.clip(x.value, lo, hi), inside)


def concat(parts, axis=-1):
    """Join tensors along an existing axis."""
    parts = [as_tensor(p) for p in parts]
    value = np.concatenate([p.value for p in parts], axis=axis)
    bounds = np.cumsum([p.value.shape[axis] for p in parts])[:-1]

    def push(g):
        for p, piece in zip(parts, np.split(np.asarray(g), bounds, axis=axis)):
            if p.requires:
                p._accum(piece)
    return Tensor(value, parents=tuple(parts), push=push)


def log_softmax(x):
    """Log-probabilities over the last axis."""
    x = as_tensor(x)
    shifted = x.value - x.value.max(axis=-1, keepdims=True)
    lse = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    probs = np.exp(lse)

    def push(g):
        g = np.asarray(g)
        x._accum(g - probs * g.sum(axis=-1, keepdims=True))
    return Tensor(lse, parents=(x,), push=push)


def segment_reduce(kind: str, msgs, dst, n: int) -> Tensor:
    """Reduce the rows of ``msgs`` (E, d) into ``n`` segments, row e into
    segment ``dst[e]``; returns (n, d) and an empty segment gives zeros.

    Each segment folds its rows one at a time in lexicographic order of
    their values, so relabelling the rows (with their ``dst``) gives a
    bitwise-identical result.  ``max`` ties route the gradient to the first
    row in that order.
    """
    if kind not in ("sum", "mean", "max"):
        raise ValueError(f"unknown aggregation kind: {kind}")
    msgs = as_tensor(msgs)
    vals = msgs.value
    dst = np.asarray(dst, dtype=np.intp)
    if vals.ndim != 2 or dst.shape != vals.shape[:1]:
        raise ValueError("segment_reduce needs (E, d) rows and E segment ids")
    order = np.lexsort((*vals.T[::-1], dst))  # by segment, then by value
    seg = dst[order]
    counts = np.bincount(dst, minlength=n)
    rank = np.arange(dst.size) - (np.cumsum(counts) - counts)[seg]
    out = np.zeros((n, vals.shape[1]))
    winner = np.full(out.shape, -1)
    for k in range(counts.max(initial=0)):
        at = rank == k  # at most one row per segment
        rows, segs = order[at], seg[at]
        if k == 0:
            out[segs] = vals[rows]
            winner[segs] = rows[:, None]
        elif kind == "max":
            better = vals[rows] > out[segs]
            out[segs] = np.where(better, vals[rows], out[segs])
            winner[segs] = np.where(better, rows[:, None], winner[segs])
        else:
            out[segs] += vals[rows]
    scale = None
    if kind == "mean":
        scale = np.zeros(n)
        scale[counts > 0] = 1.0 / counts[counts > 0]
        out *= scale[:, None]

    def push(g):
        g = np.asarray(g)
        if kind == "max":
            full = np.zeros_like(vals)
            hit = winner >= 0
            full[winner[hit], np.nonzero(hit)[1]] = g[hit]
        elif kind == "mean":
            full = (g * scale[:, None])[dst]
        else:
            full = g[dst]
        msgs._accum(full)
    return Tensor(out, parents=(msgs,), push=push)


class ParamStore:
    """Named float64 parameters with deterministic per-name initialization."""

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._params: dict[str, Tensor] = {}

    def param(self, name: str, shape, kind: str = "fan_in") -> Tensor:
        if name in self._params:
            t = self._params[name]
            if t.value.shape != tuple(shape):
                raise ValueError(f"shape clash for parameter {name}")
            return t
        rng = np.random.default_rng([self.seed, zlib.crc32(name.encode())])
        if kind == "zeros":
            value = np.zeros(shape)
        else:
            fan_in = shape[0] if len(shape) > 1 else max(1, shape[0])
            bound = 1.0 / np.sqrt(fan_in)
            value = rng.uniform(-bound, bound, shape)
        t = Tensor(value, requires=True)
        self._params[name] = t
        return t

    def names(self):
        return sorted(self._params)

    def zero_grads(self):
        for name in self.names():
            self._params[name].grad = None

    def gradients(self) -> dict:
        out = {}
        for name in self.names():
            t = self._params[name]
            out[name] = (np.zeros_like(t.value) if t.grad is None
                         else t.grad.copy())
        return out

    def get(self, name: str) -> Tensor:
        return self._params[name]

    def __contains__(self, name):
        return name in self._params

    def apply_update(self, deltas: dict, rate: float) -> None:
        """theta <- theta + rate * delta; aborts on non-finite components."""
        for name in sorted(deltas):
            delta = deltas[name]
            if not np.all(np.isfinite(delta)):
                raise FloatingPointError(f"non-finite update for {name}")
            self._params[name].value += rate * np.asarray(delta)

    # -- checkpointing ------------------------------------------------------
    def save(self, path, extra_meta: dict | None = None) -> None:
        meta = {"seed": self.seed, "names": self.names()}
        meta.update(extra_meta or {})
        arrays = {f"param_{n}": self._params[n].value for n in self.names()}
        np.savez(path, __meta__=np.frombuffer(
            json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8),
            **arrays)

    @classmethod
    def load(cls, path) -> tuple["ParamStore", dict]:
        data = np.load(path)
        meta = json.loads(bytes(data["__meta__"]).decode())
        store = cls(meta["seed"])
        for name in meta["names"]:
            store._params[name] = Tensor(data[f"param_{name}"], requires=True)
        return store, meta


def gradient_norm(grads: dict) -> float:
    total = 0.0
    for g in grads.values():
        total += float(np.sum(np.asarray(g) ** 2))
    return float(np.sqrt(total))
