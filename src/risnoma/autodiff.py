"""Reverse-mode tape over floating numpy arrays: just the ops the nets need.

A Tensor is a tape node that takes a gradient; a constant is an ndarray or
a Python scalar.  An op with a Tensor input builds a Tensor holding its
value, its Tensor parents, and a closure that scatters the output gradient
back to them; ``backward()`` walks the tape in reverse topological order.
No graph reuse, no in-place tricks.  Once ``backward()`` returns, only the
leaves (tensors without parents, such as parameters) keep a ``.grad``: each
interior node's gradient is dropped as soon as it has been pushed to its
parents, and nothing but the caller's own references keeps the tape alive.

Memory.  A taped op keeps for its backward pass only what its push reads:
its Tensor parents, which the tape holds anyway, and the arrays its
derivative needs.  ``linear`` keeps the joined input, the weight and the
column span of each part that takes a gradient, so an ndarray part (edge
features, rows gathered from a constant) dies with the forward pass;
``concat`` keeps its split points; an elementwise op keeps the value its
derivative is built from.

Dtype.  A Tensor keeps the dtype of the floating array it is given (other
input becomes float64).  An op computes in the dtype of its Tensor operands,
and ``linear`` and ``gru_scan`` in that of their (first) weight: the
ndarrays and constants that enter an op are cast to that dtype, so a float32
tape stays float32 end to end.  With no Tensor operand numpy's own
promotion applies.  The dtype of a net is that of its ``ParamStore``, fixed
when the store is built.

Inference mode.  Every op takes ndarrays, Python scalars and Tensors alike.
It returns a Tensor when at least one input is a Tensor and a plain ndarray
otherwise, computed by the same expression, so both give bitwise-equal
values.  An op computes its value once and, when no input is a Tensor,
returns it before any tape bookkeeping: it builds no backward closure, no
derivative, no parent list and no Tensor.  On that plain path an input
already in the dtype the op computes in (a floating ndarray for an
elementwise op, the weight's dtype for ``linear`` and ``gru_scan``) is
used as it is: ``_val`` hands it back at its first test, and ``linear``
joins its parts in one ``np.concatenate`` that casts only what differs.
So on plain arrays an op costs what its numpy expression costs and a few
type tests; other inputs are cast as on the tape, so a float64 part that
meets a float32 weight is cast, not promoted.  Inside ``with
store.no_grad():`` that ``ParamStore``'s ``param`` and ``layer`` hand out
the raw parameter arrays, so a forward pass built from its parameters and
ndarrays runs on plain numpy and records no tape.  A Tensor never hides
inside a numpy expression: ``__array_ufunc__ = None`` makes ``ndarray
(op) Tensor`` defer to the Tensor's reflected operator, which tapes it (an
operator the tape lacks, such as ``@``, raises TypeError).

Ops, all batched over leading axes where that makes sense:
  arithmetic   ``+ - *`` (numpy broadcasting)
  layers       ``linear(parts, w, b)`` (a dense layer over one input or over
               input parts laid side by side, one node; only the parts that
               need it get a gradient)
  indexing     ``x[key]`` (basic or advanced; repeated indices accumulate,
               a basic key's gradient is scattered by assignment)
  shape        ``reshape``, ``sum(axis)``, ``concat(parts, axis)``
  elementwise  ``tanh sigmoid relu elu exp absolute square softplus clip``
  rows         ``log_softmax`` (last axis), ``segment_mean`` (the mean of
               the rows sent to each segment; what the segment ids alone
               fix is built once, as ``Segments``)
  recurrent    ``gru_scan`` (a GRU over T steps of stacked rows, one node
               whose backward pass is backpropagation through time; one
               input and one state product per step)
"""
from __future__ import annotations

import json
import zlib
from contextlib import contextmanager
from functools import lru_cache

import numpy as np

from .config import check_counts


class Tensor:
    __slots__ = ("value", "grad", "_parents", "_push")
    __array_ufunc__ = None  # ndarray (op) Tensor calls the reflected op

    def __init__(self, value, parents=(), push=None):
        value = np.asarray(value)
        self.value = value if value.dtype.kind == "f" else value.astype(float)
        self.grad = None
        self._parents = parents
        self._push = push

    @property
    def shape(self):
        return self.value.shape

    def _accum(self, g):
        if self.grad is None:  # + 0.0 makes a fresh array and -0.0 into +0.0
            g = np.asarray(g)
            if g.shape != self.value.shape:
                g = np.broadcast_to(g, self.value.shape)
            self.grad = g + 0.0
        else:
            self.grad += g

    def backward(self, seed=None):
        if seed is None:
            if self.value.size != 1:
                raise ValueError("backward() without seed needs a scalar root")
            seed = np.ones_like(self.value)
        order = _post_order(self)
        for t in order:  # drop leftovers from any earlier pass over this graph
            t.grad = None
        self._accum(np.asarray(seed, dtype=self.value.dtype))
        for t in reversed(order):
            if t._push is not None and t.grad is not None:
                t._push(t.grad)
                t.grad = None  # interior: pushed on, only leaves keep theirs

    # -- operators ---------------------------------------------------------
    def __add__(self, other):
        b = _val(other, self.value.dtype)

        def push(g):
            self._accum(_unbroadcast(g, self.shape))
            if type(other) is Tensor:
                other._accum(_unbroadcast(g, b.shape))
        return _out(self.value + b, (self, other), push)

    __radd__ = __add__

    def __mul__(self, other):
        b = _val(other, self.value.dtype)

        def push(g):
            self._accum(_unbroadcast(g * b, self.shape))
            if type(other) is Tensor:
                other._accum(_unbroadcast(g * self.value, b.shape))
        return _out(self.value * b, (self, other), push)

    __rmul__ = __mul__

    def __neg__(self):
        return self * (-1.0)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __getitem__(self, key):
        basic = _is_basic(key)

        def push(g):
            full = np.zeros_like(self.value)
            if basic:  # no element is read twice; see _is_basic for -0.0
                full[key] = g
            else:
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


def _post_order(root: Tensor) -> list:
    """``root`` and every node it depends on, each after its parents; a
    depth-first post-order, built without recursion so that no closure
    keeps the list (and the tape) alive."""
    order, seen = [], {id(root)}
    stack = [(root, iter(root._parents))]
    while stack:
        node, parents = stack[-1]
        for p in parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append((p, iter(p._parents)))
                break
        else:
            stack.pop()
            order.append(node)
    return order


def _is_basic(key) -> bool:
    """Whether numpy reads ``key`` as a basic index: a slice, an integer,
    ``Ellipsis``, ``None`` or a tuple of those, which selects no element
    twice.  Scattering a gradient by assignment then differs from
    ``np.add.at`` into zeros only where the gradient holds -0.0, and that
    cannot reach a leaf: ``_accum`` turns -0.0 into +0.0 on the first
    arrival, so a gradient never holds -0.0 and adding either zero to it
    leaves its bits."""
    for k in key if type(key) is tuple else (key,):
        if not (k is None or k is Ellipsis or type(k) is slice
                or isinstance(k, (int, np.integer))
                and not isinstance(k, (bool, np.bool_))):
            return False
    return True


def value_of(x) -> np.ndarray:
    """The array behind ``x``: a Tensor's value, or ``x`` itself."""
    return x.value if isinstance(x, Tensor) else x


def _val(x, dtype=None) -> np.ndarray:
    """The array behind ``x``, cast to ``dtype`` when one is given.  Without
    one, a Tensor's value as it is and anything else as an array of its own
    floating dtype (float64 if it has none)."""
    if type(x) is np.ndarray and (x.dtype is dtype
                                  or dtype is None and x.dtype.kind == "f"):
        return x  # already what is asked for: the plain path's common case
    if isinstance(x, Tensor):
        v = x.value
        return v if dtype is None or v.dtype == dtype else v.astype(dtype)
    v = np.asarray(x, dtype=dtype)
    return v if v.dtype.kind == "f" else v.astype(float)


def _out(value, inputs, push):
    """An op's result: a Tensor recording ``push`` when any input is a
    Tensor, else the plain array."""
    parents = [x for x in inputs if isinstance(x, Tensor)]
    return Tensor(value, parents=tuple(parents), push=push) if parents else value


def _unbroadcast(g, shape):
    g = np.asarray(g)
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def _unary(x, y, dydx):
    """The tape node y = f(x) of a Tensor ``x``; ``dydx()`` gives the local
    derivative, on backward only.  An elementwise op on a plain array
    returns its ``y`` without coming here."""
    def push(g):
        x._accum(g * dydx())
    return Tensor(y, parents=(x,), push=push)


def tanh(x):
    if type(x) is np.ndarray and x.dtype.kind == "f":
        return np.tanh(x)  # the plain path's common case
    y = np.tanh(_val(x))
    return _unary(x, y, lambda: 1.0 - y * y) if isinstance(x, Tensor) else y


@lru_cache(maxsize=None)
def _sigmoid_constants(dtype) -> tuple:
    """(-bound, bound, 1) as read-only 0-d arrays of ``dtype``.  The bound
    is the sigmoid's clamp: 500, or less where ``exp`` of 500 is not finite
    in ``dtype`` (about 88.72 for float32), the largest value whose ``exp``
    is; inputs inside it keep their bits.  Arrays of the input's dtype give
    the bits Python floats give, and numpy takes them at a lower call
    cost."""
    bound = np.asarray(min(500.0, float(np.log(np.finfo(dtype).max))), dtype)
    with np.errstate(over="ignore"):  # a step or two below log(max)
        while not np.isfinite(np.exp(bound)):
            bound = np.nextafter(bound, bound.dtype.type(0))
    out = (np.asarray(-bound), np.asarray(bound), np.asarray(1.0, dtype))
    for a in out:
        a.flags.writeable = False
    return out


def _sigmoid(v):
    lo, hi, one = _sigmoid_constants(v.dtype)
    return one / (one + np.exp(-np.minimum(np.maximum(v, lo), hi)))


def sigmoid(x):
    y = _sigmoid(_val(x))
    return _unary(x, y, lambda: y * (1.0 - y)) if isinstance(x, Tensor) else y


def relu(x):
    v = _val(x)
    y = np.maximum(v, 0.0)
    if not isinstance(x, Tensor):
        return y
    return _unary(x, y, lambda: (v > 0).astype(v.dtype))


def elu(x):
    v = _val(x)
    neg = np.exp(np.minimum(v, 0.0)) - 1.0
    y = np.where(v > 0, v, neg)
    if not isinstance(x, Tensor):
        return y
    return _unary(x, y, lambda: np.where(v > 0, 1.0, neg + 1.0))


def exp(x):
    y = np.exp(_val(x))
    return _unary(x, y, lambda: y) if isinstance(x, Tensor) else y


def absolute(x):
    v = _val(x)
    y = np.abs(v)
    return _unary(x, y, lambda: np.sign(v)) if isinstance(x, Tensor) else y


def square(x):
    return x * x


def softplus(x):
    v = _val(x)
    y = np.logaddexp(0.0, v)
    return _unary(x, y, lambda: _sigmoid(v)) if isinstance(x, Tensor) else y


def clip(x, lo, hi):
    """Entries clipped to [lo, hi]: the bits of ``np.clip``, NaN included,
    at a lower call cost.  An entry equal to a bound is kept, so only at a
    zero bound can the sign of a zero differ from ``np.clip``."""
    v = _val(x)
    y = np.minimum(np.maximum(v, lo), hi)
    if not isinstance(x, Tensor):
        return y
    return _unary(x, y, lambda: ((v > lo) & (v < hi)).astype(v.dtype))


def concat(parts, axis=-1):
    """Join arrays or tensors along an existing axis."""
    if Tensor not in map(type, parts):
        return np.concatenate([_val(p) for p in parts], axis=axis)
    dtype = next(p.value.dtype for p in parts if type(p) is Tensor)
    values = [_val(p, dtype) for p in parts]
    out = np.concatenate(values, axis=axis)
    bounds = np.cumsum([v.shape[axis] for v in values])[:-1]
    takers = [(i, p) for i, p in enumerate(parts) if type(p) is Tensor]

    def push(g):
        pieces = np.split(np.asarray(g), bounds, axis=axis)
        for i, p in takers:
            p._accum(pieces[i])
    return _out(out, parts, push)


def linear(parts, w, b):
    """``concat(parts, axis=-1) @ w + b`` as one tape node: the tape's only
    dense op.

    The value is that expression, bit for bit; a single part is used as it
    is, with no concatenated copy.  The backward pass gives ``w`` and ``b``
    the gradients of the product and the sum, and a Tensor part the
    product with its own rows of ``w``; ndarray parts, such as
    constant feature columns, get none and are not kept for the backward
    pass, which reads the joined input only.  Parts are 1-D or 2-D, all with
    the same leading shape.  The layer computes in the dtype of ``w``, its
    parameter: parts and ``b`` are cast to it.
    """
    taped = type(w) is Tensor or type(b) is Tensor or Tensor in map(type, parts)
    wv = w if type(w) is np.ndarray and w.dtype.kind == "f" else _val(w)
    dtype = wv.dtype
    values = [_val(p, dtype) for p in parts] if taped else parts
    if len(values) == 1:
        a = values[0]
        if type(a) is not np.ndarray or a.dtype is not dtype:
            a = _val(a, dtype)
    else:
        a = np.concatenate(values, axis=-1, dtype=dtype)
    if a.ndim > 2 or wv.ndim != 2:
        raise ValueError("linear takes 1-D or 2-D parts and a 2-D weight")
    bv = b if type(b) is np.ndarray and b.dtype is dtype else _val(b, dtype)
    y = a @ wv + bv
    if not taped:
        return y  # inference: no backward pass to prepare
    parents = tuple(x for x in (*parts, w, b) if isinstance(x, Tensor))
    spans, lo = [], 0  # (part, its first and past-last rows of w)
    for p, v in zip(parts, values):
        if type(p) is Tensor:
            spans.append((p, lo, lo + v.shape[-1]))
        lo += v.shape[-1]

    def push(g):
        g = np.asarray(g)
        if type(w) is Tensor:
            w._accum(a.T @ g if a.ndim == 2 else np.outer(a, g))
        if type(b) is Tensor:
            b._accum(_unbroadcast(g, b.shape))
        for p, lo, hi in spans:
            p._accum(g @ wv[lo:hi].T)
    return Tensor(y, parents=parents, push=push)


def log_softmax(x):
    """Log-probabilities over the last axis."""
    v = _val(x)
    shifted = v - v.max(axis=-1, keepdims=True)
    lse = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    if not isinstance(x, Tensor):
        return lse

    def push(g):
        g = np.asarray(g)
        x._accum(g - np.exp(lse) * g.sum(axis=-1, keepdims=True))
    return _out(lse, (x,), push)


class Segments:
    """The segment ids ``dst`` of E rows over ``n`` segments, with what
    ``segment_mean`` derives from the ids alone: the number of rows in each
    segment, whether any segment holds two (if none does, the rows are
    scattered into place), the ids in sorted order, the rank of each row
    within its segment in that order, the depth of the deepest segment, the
    empty segments and each segment's 1 / count.  Built once for ids that
    many calls share; every array is read-only."""

    __slots__ = ("dst", "n", "scatter", "seg", "split", "rank", "depth",
                 "empty", "_count", "_scales")

    def __init__(self, dst, n: int):
        dst = np.asarray(dst, dtype=np.intp)
        if dst.ndim != 1:
            raise ValueError("segment ids must be a 1-D array")
        counts = np.bincount(dst, minlength=n)
        self.dst, self.n = dst, n
        self.scatter = np.count_nonzero(counts) == dst.size
        self.seg = np.sort(dst, kind="stable")
        self.split = self.seg[1:] != self.seg[:-1]  # a new segment starts
        self.rank = np.arange(dst.size) - (np.cumsum(counts) - counts)[self.seg]
        self.depth = int(counts.max(initial=0))
        self.empty = None if counts.all() else counts == 0
        self._count = np.maximum(counts, 1)  # an empty segment's scale meets
        self._scales = {}                    # only zeros
        for arr in (dst, self.seg, self.split, self.rank, self.empty,
                    self._count):
            if arr is not None:
                arr.flags.writeable = False

    def scale(self, dtype) -> np.ndarray:
        """(n, 1) column of 1 / count in ``dtype``, made once per dtype."""
        col = self._scales.get(dtype)
        if col is None:
            col = (1.0 / self._count.astype(dtype))[:, None]
            col.flags.writeable = False
            self._scales[dtype] = col
        return col


def segment_mean(msgs, segments: Segments):
    """Mean of the rows of ``msgs`` (E, d) sent to each segment of
    ``segments``, row e into segment ``segments.dst[e]``; returns
    (segments.n, d) and an empty segment gives zeros.

    Each segment sums its rows one at a time in lexicographic order of
    their values, so relabelling the rows (with their ids) gives a
    bitwise-identical result.

    When no segment holds two rows there is nothing to sum: the rows are
    scattered into place.  Otherwise the rows are ordered by segment and
    first column, and by all columns only when two rows of a segment tie
    in the first one (without such ties the two orders are the same).  The
    k-th row of every segment then goes into slab k of a (depth, n, d)
    array padded with -0.0 (``x + -0.0`` is ``x`` bit for bit), and the
    slabs are summed in rank order, one whole-array step per rank.  All
    that depends on the ids alone comes from ``segments``, so a call only
    orders and sums values.
    """
    vals = _val(msgs)
    dst, n = segments.dst, segments.n
    if vals.ndim != 2 or dst.shape != vals.shape[:1]:
        raise ValueError("segment_mean needs (E, d) rows and E segment ids")
    scale = None  # (n, 1) of 1 / count; None on the scatter path
    if segments.scatter or not vals.shape[1]:
        out = np.zeros((n, vals.shape[1]), dtype=vals.dtype)
        out[dst] = vals  # every row is its segment's mean
    else:
        order = np.lexsort((vals[:, 0], dst))
        first = vals[order, 0]
        if not (segments.split | (first[1:] > first[:-1])).all():
            order = np.lexsort((*vals.T[::-1], dst))  # a tie: every column
        slab = np.full((segments.depth, n, vals.shape[1]), -0.0,
                       dtype=vals.dtype)
        slab[segments.rank, segments.seg] = vals[order]
        out = slab[0]
        for k in range(1, len(slab)):
            out += slab[k]
        if segments.empty is not None:
            out[segments.empty] = 0.0
        scale = segments.scale(vals.dtype)
        out *= scale
    if type(msgs) is not Tensor:
        return out

    def push(g):
        g = np.asarray(g)
        msgs._accum((g if scale is None else g * scale)[dst])
    return Tensor(out, parents=(msgs,), push=push)


def gru_scan(x, h0, weights):
    """GRU states after each of T steps, recorded as one tape node.

    ``h0`` is the (rows, hidden) state before the first step and ``x`` the
    (T * rows, in) inputs, step-major: rows ``t * rows`` to
    ``(t + 1) * rows`` feed step t (a 1-D ``x`` and ``h0`` are one row).
    ``weights`` is ``(w_x, b_x, w_h, b_h)`` of ``nn.gru_params``: ``w_x``
    is (in, 3 * hidden) and ``w_h`` (hidden, 3 * hidden), each with the
    columns of the gates z, r and c side by side in that order.  With
    ``a = x @ w_x + b_x`` and ``e = h @ w_h + b_h`` split into those three
    column blocks, each step evaluates

        z  = sigmoid(a_z + e_z)
        r  = sigmoid(a_r + e_r)
        c  = tanh(a_c + r * e_c)
        h' = (1 - z) * h + z * c

    with the same expressions as the composed ops: each step takes one
    product of its input rows and one of its state, so a step is bitwise
    the value of ``dense``, ``sigmoid`` and ``tanh`` written out.  Returns
    the states after every step, shaped like ``x`` with ``hidden``
    columns.  The backward pass runs backpropagation through time over the
    gate activations kept here, and each weight's gradient is one product
    over all steps; with no Tensor among the inputs nothing is kept.  With
    no rows (a type without agents) it takes no step: the states are
    (0, hidden) and every weight's gradient is zero.  The scan computes in
    the dtype of ``w_x``: the inputs, the state and the other weights are
    cast to it.
    """
    inputs = (x, h0, *weights)
    taped = Tensor in map(type, inputs)
    dtype = _val(weights[0]).dtype
    xv, hv, w_x, b_x, w_h, b_h = [
        v if type(v) is np.ndarray and v.dtype is dtype else _val(v, dtype)
        for v in inputs]
    hidden = hv.shape[-1]
    rows = hv.size // hidden
    xs = xv.reshape(-1 if rows else 0, rows, xv.shape[-1])
    steps = len(xs)
    hs = np.empty((steps + 1, rows, hidden), dtype)  # the state into step t
    hs[0] = hv.reshape(rows, hidden)
    if taped:  # gate activations z | r, c and e_c of every step
        zr, c, hc = (np.empty((steps, rows, n * hidden), dtype)
                     for n in (2, 1, 1))
    cut = 2 * hidden  # the z and r columns end here, c's begin
    one = _sigmoid_constants(dtype)[2]
    for t in range(steps):
        h = hs[t]
        a = xs[t] @ w_x + b_x
        e = h @ w_h + b_h
        zr_t = _sigmoid(a[:, :cut] + e[:, :cut])
        c_t = np.tanh(a[:, cut:] + zr_t[:, hidden:] * e[:, cut:])
        z_t = zr_t[:, :hidden]
        np.add((one - z_t) * h, z_t * c_t, out=hs[t + 1])
        if taped:
            zr[t], c[t], hc[t] = zr_t, c_t, e[:, cut:]
    out = hs[1:].reshape(xv.shape[:-1] + (hidden,))
    if not taped:
        return out

    def push(g):
        g = np.asarray(g).reshape(steps, rows, hidden)
        z, r = zr[..., :hidden], zr[..., hidden:]
        # slopes that do not depend on the incoming gradient, for all steps
        via_c = z * (1.0 - c * c)                # d(c pre-activation)/dh'
        via_z = (c - hs[:-1]) * (z * (1.0 - z))  # d(z pre-activation)/dh'
        via_r = hc * (r * (1.0 - r))             # d(r pre-act.)/d(c pre-act.)
        keep = 1.0 - z                           # dh'/dh, the direct path
        w_ht = w_h.T
        da_c = np.empty((steps, rows, hidden), dtype)
        da_h = np.empty((steps, rows, 3, hidden), dtype)  # z, r, c via h
        dh = np.zeros((rows, hidden), dtype)
        for t in reversed(range(steps)):
            dh = dh + g[t]  # into the state after step t
            da_c[t] = dh * via_c[t]
            da_h[t, :, 0] = dh * via_z[t]
            da_h[t, :, 1] = da_c[t] * via_r[t]
            da_h[t, :, 2] = da_c[t] * r[t]
            dh = dh * keep[t] + da_h[t].reshape(rows, 3 * hidden) @ w_ht
        da_x = da_h.copy()  # the input side of c is not scaled by r
        da_x[:, :, 2] = da_c
        da_x = da_x.reshape(steps * rows, 3 * hidden)
        da_h = da_h.reshape(steps * rows, 3 * hidden)
        xf = xs.reshape(steps * rows, xs.shape[-1])
        hf = hs[:-1].reshape(steps * rows, hidden)
        for inp, da, w, b in ((xf, da_x, *weights[:2]),
                              (hf, da_h, *weights[2:])):
            if type(w) is Tensor:
                w._accum(inp.T @ da)
            if type(b) is Tensor:
                b._accum(da.sum(axis=0))
        if type(x) is Tensor:
            x._accum((da_x @ w_x.T).reshape(xv.shape))
        if type(h0) is Tensor:
            h0._accum(dh.reshape(hv.shape))
    return _out(out, inputs, push)


class ParamStore:
    """Named parameters with deterministic per-name initialization.

    Every parameter has the store's floating ``dtype``, fixed at
    construction (float64 unless given): initial values are drawn in
    float64 and cast, so stores of one seed hold the same values up to that
    cast, and a checkpoint keeps the dtype.  A net built from the store
    computes in that dtype as long as its other inputs do too (see the
    module docstring).
    """

    def __init__(self, seed: int, dtype=np.float64):
        self.seed = seed
        check_counts(self, {"seed": 0})
        self.dtype = np.dtype(dtype)
        if self.dtype.kind != "f":
            raise ValueError(f"a parameter store needs a float dtype, got "
                             f"{self.dtype}")
        self._params: dict[str, Tensor] = {}
        self._layers: dict[str, tuple] = {}  # layer name -> (w, b) Tensors
        self._taping = True

    @contextmanager
    def no_grad(self):
        """Inference mode: inside, ``param`` hands out the raw arrays."""
        before, self._taping = self._taping, False
        try:
            yield
        finally:
            self._taping = before

    def param(self, name: str, shape, kind: str = "fan_in"):
        """The parameter's Tensor, created on first use; inside
        ``no_grad()`` its raw value array instead."""
        t = self._params.get(name)
        if t is None:
            rng = np.random.default_rng([self.seed, zlib.crc32(name.encode())])
            if kind == "zeros":
                value = np.zeros(shape)
            else:
                fan_in = shape[0] if len(shape) > 1 else max(1, shape[0])
                bound = 1.0 / np.sqrt(fan_in)
                value = rng.uniform(-bound, bound, shape)
            t = self._params[name] = Tensor(value.astype(self.dtype))
        if t.value.shape != tuple(shape):
            raise ValueError(f"shape clash for parameter {name}")
        return t if self._taping else t.value

    def layer(self, name: str, in_dim: int, out_dim: int) -> tuple:
        """``(w, b)`` of a dense layer, handed out as ``param`` hands them
        out: ``{name}.w`` (in_dim, out_dim) and ``{name}.b`` (out_dim,),
        zeros at first.  Once the layer exists one lookup finds both."""
        pair = self._layers.get(name)
        if pair is None:
            self.param(f"{name}.w", (in_dim, out_dim))
            self.param(f"{name}.b", (out_dim,), kind="zeros")
            pair = self._layers[name] = (self._params[f"{name}.w"],
                                         self._params[f"{name}.b"])
        w, b = pair[0].value, pair[1].value
        if w.shape != (in_dim, out_dim) or b.shape != (out_dim,):
            raise ValueError(f"shape clash for layer {name}")
        return pair if self._taping else (w, b)

    def names(self):
        return sorted(self._params)

    def zero_grads(self):
        for name in self.names():
            self._params[name].grad = None

    def gradients(self) -> dict:
        """Each parameter's gradient array, zeros where none arrived.  These
        are the leaves' own arrays, not copies: ``zero_grads`` and the next
        ``backward`` replace them rather than write into them."""
        return {name: (np.zeros_like(t.value) if t.grad is None else t.grad)
                for name, t in sorted(self._params.items())}

    def get(self, name: str) -> Tensor:
        return self._params[name]

    def apply_update(self, deltas: dict) -> None:
        """theta <- theta + delta for each named delta, added as given;
        aborts on non-finite components before changing any parameter."""
        for name in sorted(deltas):
            if not np.isfinite(deltas[name]).all():
                raise FloatingPointError(f"non-finite update for {name}")
        for name in sorted(deltas):
            self._params[name].value += deltas[name]

    # -- checkpointing ------------------------------------------------------
    def save(self, path, extra_meta: dict | None = None) -> None:
        """Write an ``.npz`` archive to exactly ``path``: given a file
        rather than a name, ``np.savez`` adds no suffix."""
        meta = {"seed": self.seed, "dtype": self.dtype.name,
                "names": self.names()}
        meta.update(extra_meta or {})
        arrays = {f"param_{n}": self._params[n].value for n in self.names()}
        with open(path, "wb") as fh:
            np.savez(fh, __meta__=np.frombuffer(
                json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8),
                **arrays)

    @classmethod
    def load(cls, path) -> tuple["ParamStore", dict]:
        data = np.load(path)
        meta = json.loads(bytes(data["__meta__"]).decode())
        store = cls(meta["seed"], meta.get("dtype", "float64"))
        for name in meta["names"]:
            store._params[name] = Tensor(
                data[f"param_{name}"].astype(store.dtype))
        return store, meta


def squared_sums(grads: dict) -> dict:
    """Each array's sum of squares, taken in float64 whatever its dtype."""
    out = {}
    for name, g in grads.items():
        g = np.asarray(g, dtype=np.float64)
        out[name] = float(np.vdot(g, g))
    return out
