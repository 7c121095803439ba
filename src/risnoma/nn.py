"""Network blocks on top of the tape: dense layers (each one ``ad.linear``
node, over one input or a list of input parts), the GRU's parameters (for the
``ad.gru_scan`` op, one tape node however many steps it runs) and the
hypernetwork value mixer.  Each works on a single input vector or on a batch
of them stacked as rows, and takes ndarrays or Tensors: it returns whatever
the autodiff ops return (a plain array inside ``no_grad``).  A call gives
its layer's output width; the input width is read off the input."""
from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import ParamStore

_ACTS = {"tanh": ad.tanh, "relu": ad.relu}


def dense(store: ParamStore, name: str, x, out_dim: int,
          activation: str = "linear"):
    """activation(x @ w + b) with ``activation`` one of linear, tanh and
    relu.  ``x`` is one input, or a list of parts whose columns, side by
    side, make the input; either way the layer is one ``ad.linear`` node,
    which sends no gradient to constant parts."""
    w, b = store.layer(name, x, out_dim)
    y = ad.linear(x if type(x) is list else [x], w, b)
    return y if activation == "linear" else _ACTS[activation](y)


def gru_params(store: ParamStore, name: str, x, h):
    """``(w_x, b_x, w_h, b_h)``, the ``weights`` of ``ad.gru_scan`` over
    the input rows ``x`` from the state ``h``: one dense layer
    (``{name}.x``) over the input and one (``{name}.h``) over the state,
    each with the gates z, r and c, each as wide as ``h``, side by side."""
    gates = 3 * h.shape[-1]
    return [*store.layer(f"{name}.x", x, gates),
            *store.layer(f"{name}.h", h, gates)]


def hyper_mixing(store: ParamStore, prefix: str, state, values, hidden: int):
    """Monotone two-layer mix of local values with state-generated weights.

    ``state`` is (..., state width) and ``values`` (..., n) over the same
    leading axes; returns one mixed value per leading index.  Both weight
    layers pass through |.| so every path from a local value to the output
    has a non-negative slope; biases are unconstrained and the final bias is
    itself a small network of the state.  A state or local values given
    as an array (or a list of numbers) are cast to the store's dtype; a
    Tensor passes through.
    """
    if not isinstance(state, ad.Tensor):
        state = np.asarray(state, dtype=store.dtype)
    if not isinstance(values, ad.Tensor):
        values = np.asarray(values, dtype=store.dtype)
    lead, n = values.shape[:-1], values.shape[-1]
    w1 = ad.absolute(dense(store, f"{prefix}.hw1", state,
                           n * hidden)).reshape(*lead, n, hidden)
    b1 = dense(store, f"{prefix}.hb1", state, hidden)
    mixed = ad.elu((values.reshape(*lead, n, 1) * w1).sum(axis=-2) + b1)
    w2 = ad.absolute(dense(store, f"{prefix}.hw2", state, hidden))
    b2 = dense(store, f"{prefix}.hb2a", state, hidden, activation="relu")
    b2 = dense(store, f"{prefix}.hb2b", b2, 1)
    return (mixed * w2).sum(axis=-1) + b2.reshape(lead)

