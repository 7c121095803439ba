"""NetworkConfig: values rejected at construction, and the flat-file round
trip of ``save_config`` / ``load_config``; seeds rejected by every
constructor that takes one."""
import dataclasses
import json
import math

import numpy as np
import pytest

from risnoma.autodiff import ParamStore
from risnoma.config import NetworkConfig, load_config, save_config
from risnoma.env import NetworkEnv
from risnoma.learner import TrainConfig, train
from risnoma.policy import PolicyConfig, policy_for_env
from risnoma.presets import default_config, medium_config, tiny_config

NAN, INF = float("nan"), float("inf")


class TestNetworkConfig:
    # each of these, unchecked, gave a non-finite or negative slot figure,
    # an error in the first step or in construction that named no field, or
    # (zf_cond_threshold) silently switched diagonal loading off
    @pytest.mark.parametrize("field, value", [
        ("p_rf", NAN), ("bandwidth", -1e9), ("arrival_cap_factor", -1.0),
        ("zeta", INF), ("xi_penalty", NAN), ("arrival_se_gbps", -1.0),
        ("max_cluster_size", 1), ("max_cluster_size", -1),
        ("slot_seconds", 0.0), ("qmax_se_gbps", 0.0), ("packet_gbps", 0.0),
        ("room_x", NAN), ("detour_min", 2.5), ("neighbor_radius", NAN),
        ("los_decay_distance", 0.0), ("max_tx_power", 0.0),
        ("carrier_freq", NAN), ("amp_gain", NAN), ("zf_cond_threshold", NAN),
        ("antenna_gain_dbi", NAN), ("refractive_index", complex(NAN, 0.0)),
        ("num_aps", 2.5), ("num_aps", 1.5), ("ris_elements", 2.0),
        ("episode_slots", 40.5), ("max_cluster_size", 2.0),
        ("se_users_per_ap", 3), ("num_aps", True), ("room_x", True),
        ("carrier_freq", "3e11"), ("carrier_freq", 1j),
        ("refractive_index", "1.9")],
        ids=lambda v: str(v))
    def test_bad_value_names_its_field(self, field, value):
        with pytest.raises(ValueError, match=field):
            tiny_config(**{field: value})

    def test_boundary_values_accepted(self):
        cfg = tiny_config(neighbor_radius=INF, los_decay_distance=INF,
                          p_rf=0.0, zeta=0.0, arrival_cap_factor=0.0,
                          detour_min=2.0, detour_max=2.0)
        assert math.isinf(cfg.neighbor_radius)
        # two seats per cluster seat the one IoT user under the one SE user
        assert tiny_config(max_cluster_size=2).cluster_cap == 2

    def test_rf_chains_follow_se_users(self):
        cfg = medium_config(se_users_per_ap=4, antennas=32)
        assert cfg.rf_chains == 4 and cfg.n_sub == 8
        with pytest.raises(TypeError):
            NetworkConfig(rf_chains=4)


@pytest.mark.parametrize("make", [tiny_config, medium_config, default_config],
                         ids=["tiny", "medium", "default"])
def test_save_load_round_trip(make, tmp_path):
    cfg = make(refractive_index=2.25 - 0.031j)
    path = tmp_path / "net.cfg"
    save_config(cfg, path)
    assert load_config(path) == cfg


class TestNumpyScalars:
    # a NumPy scalar field used to save as "np.int64(2)", which load_config
    # could not read, and made checksum() fail in json.dumps
    NUMPY = dict(num_aps=np.int64(2), ris_elements=np.int32(3),
                 room_x=np.float64(9.5), p_rf=np.float32(0.25),
                 refractive_index=np.complex128(2.25 - 0.031j))

    def test_fields_are_stored_as_their_python_type(self):
        cfg = tiny_config(**self.NUMPY)
        for name in self.NUMPY:
            field = next(f for f in dataclasses.fields(cfg) if f.name == name)
            assert type(getattr(cfg, name)).__name__ == field.type, name
        assert cfg == tiny_config(**{n: v.item()
                                     for n, v in self.NUMPY.items()})

    def test_save_load_round_trip(self, tmp_path):
        cfg = tiny_config(**self.NUMPY)
        path = tmp_path / "net.cfg"
        save_config(cfg, path)
        assert "np." not in path.read_text()
        assert load_config(path) == cfg

    def test_checksum_equals_the_plain_config(self):
        plain = {n: v.item() for n, v in self.NUMPY.items()}
        assert (NetworkEnv(tiny_config(**self.NUMPY), 0).checksum()
                == NetworkEnv(tiny_config(**plain), 0).checksum())

    # TrainConfig kept a NumPy scalar as given, so a float32 rate or clip
    # trained in float32 where its Python float trains in float64, and
    # neither learner config passed json.dumps
    LEARNER = {
        "train": (TrainConfig, dict(
            episodes=np.int64(2), rollouts=np.int32(1), horizon=np.int64(8),
            gamma=np.float32(0.99), nstep=np.int64(4),
            lr_pi=np.float64(3e-4), lr_v=np.float32(1e-3),
            lr_mix=np.float32(1e-3), seed=np.int64(0),
            eval_rollouts=np.int64(1), grad_clip=np.float32(10.0))),
        "policy": (PolicyConfig, dict(
            msg_dim=np.int64(4), hidden=np.int32(4), gru_hidden=np.int64(6),
            critic_hidden=np.int64(6), mix_hidden=np.int64(4),
            n_layers=np.int64(1))),
    }

    @pytest.mark.parametrize("owner", sorted(LEARNER))
    def test_learner_configs_store_python_numbers(self, owner):
        make, values = self.LEARNER[owner]
        cfg = make(**values)
        for field in dataclasses.fields(cfg):
            value = getattr(cfg, field.name)
            assert type(value).__name__ == field.type, field.name
        json.dumps(dataclasses.asdict(cfg))

    @pytest.mark.parametrize("name, value", [
        ("gamma", 0.99), ("lr_mix", 1e-3), ("grad_clip", 10.0)])
    def test_numpy_train_number_trains_as_its_python_float(self, name, value):
        def trained(number):
            factory = lambda seed: NetworkEnv(tiny_config(), seed)
            policy = policy_for_env(factory(0), PolicyConfig(), 0)
            train(factory, TrainConfig(episodes=2, horizon=8,
                                       **{name: number}), policy)
            return {n: policy.store.get(n).value.tobytes()
                    for n in policy.store.names()}

        assert (trained(np.float32(value))
                == trained(float(np.float32(value))))


IDLE_OFF = dict(p_bb=0.0, p_rf=0.0, p_ps=0.0, p_a=0.0, p_d=0.0)


def test_zero_idle_power_is_rejected():
    # a slot with zero transmit power and every RIS element off would draw
    # no power at all, and its energy efficiency would divide by zero
    with pytest.raises(ValueError, match="p_bb"):
        tiny_config(p_ris_element=0.0, **IDLE_OFF)
    with pytest.raises(ValueError, match="p_d"):
        tiny_config(**IDLE_OFF)  # RIS elements draw only while on


@pytest.mark.parametrize("name", sorted(IDLE_OFF))
def test_one_idle_term_makes_the_config_valid(name):
    assert getattr(tiny_config(**{**IDLE_OFF, name: 1e-3}), name) == 1e-3


def test_load_rejects_a_repeated_key(tmp_path):
    path = tmp_path / "net.cfg"
    save_config(tiny_config(), path)
    with open(path, "a") as fh:
        fh.write("num_aps = 2\nnum_aps = 3\n")
    with pytest.raises(ValueError, match="num_aps"):
        load_config(path)


@pytest.mark.parametrize("line, match", [
    ("num_aps 2", "malformed config line: num_aps 2"),
    ("num_ap = 2", "unknown config key: num_ap")])
def test_load_rejects_a_bad_line(tmp_path, line, match):
    path = tmp_path / "net.cfg"
    save_config(tiny_config(), path)
    with open(path, "a") as fh:
        fh.write(line + "\n")
    with pytest.raises(ValueError, match=match):
        load_config(path)


SEEDED = {"env": lambda seed: NetworkEnv(tiny_config(), seed),
          "store": ParamStore,
          "train": lambda seed: TrainConfig(seed=seed)}


class TestSeeds:
    # a fractional seed used to run the streams of its integer part, and a
    # negative one failed later, inside np.random.default_rng
    @pytest.mark.parametrize("seed", [1.5, -1, 2.0, None, True],
                             ids=["fraction", "negative", "float", "none",
                                  "bool"])
    @pytest.mark.parametrize("owner", sorted(SEEDED))
    def test_bad_seed_names_its_field(self, owner, seed):
        with pytest.raises(ValueError, match="seed"):
            SEEDED[owner](seed)

    @pytest.mark.parametrize("owner", sorted(SEEDED))
    def test_numpy_integer_seed_stays_valid(self, owner):
        # train() seeds its eval env with tcfg.seed + 9999
        assert SEEDED[owner](np.int64(1) + 9999).seed == 10000
