"""NetworkConfig: values rejected at construction, and the flat-file round
trip of ``save_config`` / ``load_config``."""
import math

import pytest

from risnoma.config import NetworkConfig, load_config, save_config
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
        ("episode_slots", 40.5), ("max_cluster_size", 2.0)],
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


def test_load_rejects_a_repeated_key(tmp_path):
    path = tmp_path / "net.cfg"
    save_config(tiny_config(), path)
    with open(path, "a") as fh:
        fh.write("num_aps = 2\nnum_aps = 3\n")
    with pytest.raises(ValueError, match="num_aps"):
        load_config(path)
