"""Property tests of the channel sampler over random small configs."""
import dataclasses

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from risnoma.channel import EpisodeChannel, ris_phase_diag  # noqa: E402
from risnoma.presets import tiny_config  # noqa: E402
from risnoma.topology import build_topology  # noqa: E402

from reference_channel import ReferenceEpisode  # noqa: E402

STATE_FIELDS = ("direct", "ris_user", "ap_ris", "los_direct", "los_ris")


@st.composite
def small_config(draw):
    se = draw(st.integers(1, 3))
    return tiny_config(
        num_aps=draw(st.integers(1, 3)), num_ris=draw(st.integers(0, 3)),
        se_users_per_ap=se, iot_users_per_ap=draw(st.integers(0, 3)),
        antennas=se * draw(st.integers(1, 3)), ris_elements=draw(st.integers(1, 8)),
        num_nlos_paths=draw(st.integers(0, 3)))


@st.composite
def sampled_slot(draw):
    cfg = draw(small_config())
    seed = draw(st.integers(0, 2 ** 32 - 1))
    topo = build_topology(cfg, np.random.default_rng([seed, 0]))
    chan = EpisodeChannel(cfg, topo)
    rng = np.random.default_rng([seed, 1])
    chan.new_episode(rng)
    return cfg, chan.slot_parts(rng), rng


@settings(max_examples=60, deadline=None)
@given(sampled_slot())
def test_slot_parts_shapes_and_masks(case):
    cfg, state, _ = case
    m, j, u = cfg.num_aps, cfg.num_ris, cfg.total_users
    shapes = dict(direct=(m, u, cfg.antennas), ris_user=(j, u, cfg.ris_elements),
                  ap_ris=(m, j, cfg.ris_elements, cfg.antennas),
                  los_direct=(m, u), los_ris=(j, u))
    for name, shape in shapes.items():
        value = getattr(state, name)
        assert value.shape == shape, name
        assert np.all(np.isfinite(value)), name
    for mask in (state.los_direct, state.los_ris):
        assert np.all((mask == 0) | (mask == 1))


@settings(max_examples=60, deadline=None)
@given(sampled_slot())
def test_effective_all_off_and_linear(case):
    cfg, state, rng = case
    shape = (cfg.num_ris, cfg.ris_elements)
    off = ris_phase_diag(np.zeros(shape, dtype=int), np.zeros(shape, dtype=int),
                         cfg.ris_phase_bits)
    assert np.array_equal(state.effective(off), state.direct)
    t1 = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    t2 = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    cascade = dataclasses.replace(state, direct=np.zeros_like(state.direct))
    h1, h2 = cascade.effective(t1), cascade.effective(t2)
    lhs = cascade.effective(t1 + t2)
    scale = max(np.max(np.abs(h), initial=0.0) for h in (h1, h2, lhs))
    assert np.max(np.abs(lhs - (h1 + h2)), initial=0.0) <= 1e-12 * scale


@settings(max_examples=60, deadline=None)
@given(small_config(), st.integers(0, 2 ** 32 - 1), st.integers(1, 4))
def test_one_draw_slot_equals_three_draw_reference(cfg, seed, slots):
    """A slot's one phase draw, split, gives the reference's three draws
    bit for bit, and leaves the generator in the reference's state."""
    topo = build_topology(cfg, np.random.default_rng([seed, 0]))
    chan = EpisodeChannel(cfg, topo)
    ref = ReferenceEpisode(chan)
    rng, ref_rng = (np.random.default_rng([seed, 1]) for _ in range(2))
    chan.new_episode(rng)
    ref.new_episode(ref_rng)
    for _ in range(slots):
        got, want = chan.slot_parts(rng), ref.slot_parts(ref_rng)
        for name in STATE_FIELDS:
            a, b = getattr(got, name), getattr(want, name)
            assert (a.dtype, a.shape) == (b.dtype, b.shape), name
            assert a.tobytes() == b.tobytes(), name
        assert rng.bit_generator.state == ref_rng.bit_generator.state
