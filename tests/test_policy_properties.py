"""Property tests of GE-VDAC parameter creation over random small configs
and nets: the store ``policy_for_env`` builds holds every parameter the nets
use, training creates none, and the losses reach every one of them."""
import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from risnoma.env import NetworkEnv  # noqa: E402
from risnoma.learner import (TrainConfig, _losses, _reached,  # noqa: E402
                             rollout, train)
from risnoma.policy import PolicyConfig, policy_for_env  # noqa: E402
from risnoma.presets import medium_config, tiny_config  # noqa: E402


@st.composite
def small_net(draw):
    return PolicyConfig(
        msg_dim=draw(st.integers(1, 4)), hidden=draw(st.integers(1, 4)),
        gru_hidden=draw(st.integers(1, 4)),
        critic_hidden=draw(st.integers(1, 4)),
        mix_hidden=draw(st.integers(1, 4)), n_layers=draw(st.integers(0, 3)),
        aggregation=draw(st.sampled_from(["mean", "sum", "max"])),
        embed_mode=draw(st.sampled_from(["mpgnn", "raw", "none"])),
        critic_mode=draw(st.sampled_from(["mix", "central"])))


@st.composite
def small_config(draw):
    se = draw(st.integers(1, 2))
    return tiny_config(
        num_aps=draw(st.integers(1, 3)), num_ris=draw(st.integers(0, 3)),
        se_users_per_ap=se,
        iot_users_per_ap=draw(st.integers(0, 2)),
        antennas=se * draw(st.integers(1, 2)),
        ris_elements=draw(st.integers(1, 4)),
        ris_phase_bits=draw(st.integers(1, 2)))


@settings(max_examples=25, deadline=None)
@given(small_config(), small_net(), st.integers(0, 2 ** 16))
def test_training_creates_no_parameter(cfg, pcfg, seed):
    env_factory = lambda s: NetworkEnv(cfg, seed=s)
    policy = policy_for_env(env_factory(seed), pcfg, seed)
    created = {n: policy.store.get(n).shape for n in policy.store.names()}
    train(env_factory, TrainConfig(episodes=1, rollouts=2, horizon=2,
                                   seed=seed), policy=policy)
    assert {n: policy.store.get(n).shape
            for n in policy.store.names()} == created


@settings(max_examples=10, deadline=None)
@given(small_net())
def test_every_parameter_gets_a_gradient_on_medium(pcfg):
    # medium has edges of every kind, so every message layer runs
    env = NetworkEnv(medium_config(), seed=0)
    policy = policy_for_env(env, pcfg, 0)
    batch = [rollout(env, policy, 2, np.random.default_rng(r))
             for r in range(2)]
    loss_pi, loss_v = _losses(policy, batch, TrainConfig(), 1.0)
    names = policy.store.names()
    reached = set()
    for loss in (loss_pi, loss_v):
        policy.store.zero_grads()
        loss.backward()
        reached.update(_reached(policy.store, names))
    assert reached == set(names)
