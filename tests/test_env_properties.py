"""Property tests of the env slot over random small configs and actions."""
import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from risnoma.env import NetworkEnv  # noqa: E402
from risnoma.presets import tiny_config  # noqa: E402

SLOTS = 4


@st.composite
def episode(draw):
    """A small config, a seed, and SLOTS random actions; RIS all-off and
    reflection-free rooms (zero channels) are drawn on purpose."""
    se = draw(st.integers(1, 3))
    cfg = tiny_config(
        num_aps=draw(st.integers(1, 3)), num_ris=draw(st.integers(0, 3)),
        se_users_per_ap=se,
        iot_users_per_ap=draw(st.integers(0, 3)),
        antennas=se * draw(st.integers(1, 3)),
        ris_elements=draw(st.integers(1, 8)),
        num_nlos_paths=draw(st.sampled_from([0, 0, 1, 3])),
        ris_phase_bits=draw(st.integers(1, 2)))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    shape = (cfg.num_ris, cfg.ris_elements)
    actions = []
    for _ in range(SLOTS):
        # up to 3x the budget per AP, so the projection has work to do
        power = rng.uniform(0.0, 3.0 * cfg.max_tx_power / cfg.users_per_ap,
                            cfg.total_users)
        if draw(st.booleans()):
            on = np.zeros(shape, dtype=int)
        else:
            on = rng.integers(0, 2, shape)
        phase = rng.integers(0, 2 ** cfg.ris_phase_bits, shape)
        actions.append((power, on, phase))
    return cfg, seed, actions


@settings(max_examples=40, deadline=None)
@given(episode())
def test_slot_invariants_and_bitwise_replay(case):
    cfg, seed, actions = case
    env = NetworkEnv(cfg, seed=seed)
    rewards = []
    for power, on, phase in actions:
        projected = env.project_power(power)
        per_ap = np.bincount(env.topo.ap_of_user, weights=projected,
                             minlength=cfg.num_aps)
        assert np.all(projected >= 0)
        assert np.all(per_ap <= cfg.max_tx_power * (1 + 1e-12))
        out = env.step(power, on, phase)
        for arr in (out.sinr, out.rates, out.q, out.y):
            assert np.all(np.isfinite(arr)) and np.all(arr >= 0)
        assert np.isfinite(out.reward)
        rewards.append(out.reward)
    fresh = NetworkEnv(cfg, seed=seed)
    assert [fresh.step(*a).reward for a in actions] == rewards
