"""Property test: the slab ``segment_mean`` equals the rank-by-rank
reference bit for bit, sign of zero included, in value and gradient, over
every depth, empty segments and forced ties."""
from functools import partial

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from risnoma import autodiff as ad  # noqa: E402
from risnoma.autodiff import Tensor  # noqa: E402

from reference_segment import segment_reduce as reference  # noqa: E402

MAX_ROWS = 12


def _bits(a) -> bytes:
    return np.ascontiguousarray(a, dtype=np.float64).tobytes()


def _values(rng, rows: int, d: int, mode: str) -> np.ndarray:
    """(rows, d) entries; every mode but "normal" forces repeats."""
    if mode == "normal":
        return rng.normal(size=(rows, d))
    if mode == "pool":  # duplicates, ties on every column, +0.0 and -0.0
        return rng.choice([-0.0, 0.0, 1.0, -1.5, 3.0], size=(rows, d))
    if mode == "first_tie":  # ties in the first column only
        vals = rng.normal(size=(rows, d))
        vals[:, 0] = rng.choice([-0.0, 0.0, 0.5], size=rows)
        return vals
    distinct = rng.normal(size=(2, d))  # "duplicate": whole rows repeat
    distinct[:, rng.random(d) < 0.3] = -0.0
    return distinct[rng.integers(0, 2, rows)]


@st.composite
def segment_cases(draw):
    """(vals, dst, n): n segments, up to 12 rows, a drawn deepest segment
    (0, 1, 2 or more rows) and uneven, possibly empty, others."""
    n = draw(st.integers(1, 5))
    d = draw(st.integers(1, 20))
    depth = draw(st.sampled_from([0, 1, 2, 3, 4, 7]))
    counts = draw(st.lists(st.integers(0, depth), min_size=n, max_size=n))
    deepest = draw(st.integers(0, n - 1))
    counts[deepest] = depth
    room = MAX_ROWS - depth  # at most 12 rows, the deepest segment whole
    for i in range(n):
        if i != deepest:
            counts[i] = min(counts[i], room)
            room -= counts[i]
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    dst = rng.permutation(np.repeat(np.arange(n), counts))
    mode = draw(st.sampled_from(["normal", "pool", "first_tie", "duplicate"]))
    return _values(rng, len(dst), d, mode), dst, n, rng.normal(size=(n, d))


@settings(max_examples=300, deadline=None)
@given(segment_cases())
def test_slab_kernel_equals_reference(case):
    vals, dst, n, seed = case
    want = reference("mean", vals, dst, n)
    got = ad.segment_mean(vals, dst, n)
    assert got.shape == want.shape == (n, vals.shape[1])
    assert _bits(got) == _bits(want)
    grads = []
    for fn in (ad.segment_mean, partial(reference, "mean")):
        rows = Tensor(vals, requires=True)
        out = fn(rows, dst, n)
        assert _bits(out.value) == _bits(want)
        if len(dst):
            out.backward(seed)
            grads.append(rows.grad)
    if grads:
        assert _bits(grads[0]) == _bits(grads[1])
