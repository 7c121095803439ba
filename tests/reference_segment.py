"""The message kernel as it was before it folded ranks in slabs, kept as a
reference for ``risnoma.autodiff.segment_mean``.

This ``segment_reduce`` sorts every segment's rows lexicographically on all
their columns and folds one rank at a time through boolean masks.  The
slab kernel must agree with it bit for bit, sign of zero included, and
route ``max`` gradients to the same rows.  The body is verbatim.
"""
import numpy as np

from risnoma.autodiff import _out, _val


def segment_reduce(kind: str, msgs, dst, n: int):
    """Reduce the rows of ``msgs`` (E, d) into ``n`` segments, row e into
    segment ``dst[e]``; returns (n, d) and an empty segment gives zeros.

    Each segment folds its rows one at a time in lexicographic order of
    their values, so relabelling the rows (with their ``dst``) gives a
    bitwise-identical result.  ``max`` ties route the gradient to the first
    row in that order.
    """
    if kind not in ("sum", "mean", "max"):
        raise ValueError(f"unknown aggregation kind: {kind}")
    vals = _val(msgs)
    dst = np.asarray(dst, dtype=np.intp)
    if vals.ndim != 2 or dst.shape != vals.shape[:1]:
        raise ValueError("segment_reduce needs (E, d) rows and E segment ids")
    order = np.lexsort((*vals.T[::-1], dst))  # by segment, then by value
    seg = dst[order]
    counts = np.bincount(dst, minlength=n)
    rank = np.arange(dst.size) - (np.cumsum(counts) - counts)[seg]
    out = np.zeros((n, vals.shape[1]))
    winner = np.full(out.shape, -1) if kind == "max" else None
    for k in range(counts.max(initial=0)):
        at = rank == k  # at most one row per segment
        rows, segs = order[at], seg[at]
        if k == 0:
            out[segs] = vals[rows]
            if winner is not None:
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
    return _out(out, (msgs,), push)
