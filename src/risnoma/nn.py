"""Network blocks on top of the tape: dense layers (each one ``ad.linear``
node, over one input or a list of input parts), the GRU's parameters (for the
``ad.gru_scan`` op, one tape node however many steps it runs) and the
hypernetwork value mixer.  Each works on a single input vector or on a batch
of them stacked as rows, and takes ndarrays or Tensors: it returns whatever
the autodiff ops return (a plain array inside ``no_grad``)."""
from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import ParamStore

_ACTS = {"tanh": ad.tanh, "relu": ad.relu}


def dense(store: ParamStore, name: str, x, in_dim: int, out_dim: int,
          activation: str = "linear"):
    """activation(x @ w + b) with ``activation`` one of linear, tanh and
    relu.  ``x`` is one input, or a list of parts that together make the
    ``in_dim`` input columns, side by side; either way the layer is one
    ``ad.linear`` node, which sends no gradient to constant parts."""
    w, b = store.layer(name, in_dim, out_dim)
    y = ad.linear(x if type(x) is list else [x], w, b)
    return y if activation == "linear" else _ACTS[activation](y)


def gru_params(store: ParamStore, name: str, in_dim: int, hidden: int):
    """``(w_x (in_dim, 3 * hidden), b_x, w_h (hidden, 3 * hidden), b_h)``,
    the ``weights`` of ``ad.gru_scan``: the gates z, r and c side by side,
    one dense layer (``{name}.x``) over the input and one (``{name}.h``)
    over the state."""
    return [*store.layer(f"{name}.x", in_dim, 3 * hidden),
            *store.layer(f"{name}.h", hidden, 3 * hidden)]


def hyper_mixing(store: ParamStore, prefix: str, state, values,
                 state_dim: int, hidden: int):
    """Monotone two-layer mix of local values with state-generated weights.

    ``state`` is (..., state_dim) and ``values`` (..., n) over the same
    leading axes; returns one mixed value per leading index.  Both weight
    layers pass through |.| so every path from a local value to the output
    has a non-negative slope; biases are unconstrained and the final bias is
    itself a small network of the state.  Local values given as an array
    are cast to the store's dtype.
    """
    if not isinstance(values, ad.Tensor):
        values = np.asarray(values, dtype=store.dtype)
    lead, n = values.shape[:-1], values.shape[-1]
    w1 = ad.absolute(dense(store, f"{prefix}.hw1", state, state_dim,
                           n * hidden)).reshape(*lead, n, hidden)
    b1 = dense(store, f"{prefix}.hb1", state, state_dim, hidden)
    mixed = ad.elu((values.reshape(*lead, n, 1) * w1).sum(axis=-2) + b1)
    w2 = ad.absolute(dense(store, f"{prefix}.hw2", state, state_dim, hidden))
    b2 = dense(store, f"{prefix}.hb2a", state, state_dim, hidden,
               activation="relu")
    b2 = dense(store, f"{prefix}.hb2b", b2, hidden, 1)
    return (mixed * w2).sum(axis=-1) + b2.reshape(lead)


def mlp(store: ParamStore, name: str, x, dims, activation: str = "tanh",
        final: str = "linear"):
    out = x
    for i, (a, b) in enumerate(zip(dims[:-1], dims[1:])):
        act = final if i == len(dims) - 2 else activation
        out = dense(store, f"{name}.l{i}", out, a, b, activation=act)
    return out
