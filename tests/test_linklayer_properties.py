"""Property test: one stacked ``derive_plan`` call per slot equals the
per-AP reference planner bit for bit, over random small configs."""
import warnings

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from risnoma import linklayer as ll  # noqa: E402
from risnoma.channel import EpisodeChannel, ris_phase_diag  # noqa: E402
from risnoma.presets import tiny_config  # noqa: E402
from risnoma.topology import SE, build_topology  # noqa: E402

from reference_link import (LINK_FIELDS, assert_same_links,  # noqa: E402
                            reference_links)

SLOTS = 3


@st.composite
def planned_slots(draw):
    """A small config, a seed and whether the RISs are all off;
    reflection-free rooms (zero channels) are drawn on purpose."""
    se = draw(st.integers(1, 3))
    cfg = tiny_config(
        num_aps=draw(st.integers(1, 3)), num_ris=draw(st.integers(0, 2)),
        se_users_per_ap=se,
        iot_users_per_ap=draw(st.integers(0, 3)),
        antennas=se * draw(st.integers(1, 3)),
        ris_elements=draw(st.integers(1, 4)),
        num_nlos_paths=draw(st.sampled_from([0, 1, 3])),
        analog_phase_bits=draw(st.integers(1, 3)))
    return cfg, draw(st.booleans()), draw(st.integers(0, 2 ** 32 - 1))


@settings(max_examples=60, deadline=None)
@given(planned_slots())
def test_stacked_plan_equals_per_ap_reference(case):
    cfg, ris_off, seed = case
    rng = np.random.default_rng(seed)
    topo = build_topology(cfg, rng)
    chan = EpisodeChannel(cfg, topo)
    chan.new_episode(rng)
    kind, m = topo.user_kind, cfg.num_aps
    users = topo.users
    se = users[kind[users] == SE].reshape(m, -1)
    iot = users[kind[users] != SE].reshape(m, -1)
    layout = ll.link_layout(se, iot, cfg.total_users)
    shape = (cfg.num_ris, cfg.ris_elements)
    # With one antenna, a cluster's member rows form a (k, 1) array, and the
    # reference's numpy ``sum(axis=0)`` adds k >= 4 complex entries pairwise
    # where the planner adds them in join order; one SE user per AP puts
    # every IoT user in one cluster.  Then w and the gains may differ in
    # their last bits, and the rest must still match exactly.
    paired = cfg.antennas == 1 and cfg.iot_users_per_ap >= 3
    rounded = ("gains", "own", "w") if paired else ()
    for _ in range(SLOTS):
        on = np.zeros(shape, dtype=int) if ris_off else rng.integers(0, 2, shape)
        phase = rng.integers(0, 2 ** cfg.ris_phase_bits, shape)
        h_eff = chan.slot_parts(rng).effective(
            ris_phase_diag(on, phase, cfg.ris_phase_bits))
        got = ll.derive_plan(h_eff, layout, cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            want = reference_links(h_eff, se, iot, cfg)
        assert_same_links(got, want,
                          [f for f in LINK_FIELDS if f not in rounded])
        for name in rounded:
            np.testing.assert_allclose(getattr(got, name),
                                       getattr(want, name), rtol=1e-12)
