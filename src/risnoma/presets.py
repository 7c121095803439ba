"""Canned configurations used by the demos, the CLI and the test suite."""
from __future__ import annotations

from .config import NetworkConfig


def default_config(**overrides) -> NetworkConfig:
    return NetworkConfig(**overrides)


def tiny_config(**overrides) -> NetworkConfig:
    """Desk-scale instance small enough for exhaustive action search."""
    params = dict(
        num_aps=1, num_ris=1, se_users_per_ap=1, iot_users_per_ap=1,
        antennas=4, ris_elements=2, ris_phase_bits=1,
        analog_phase_bits=2, num_nlos_paths=2,
        room_x=8.0, room_y=6.0, room_z=3.0, neighbor_radius=50.0,
        episode_slots=40,
    )
    params.update(overrides)
    return NetworkConfig(**params)


def medium_config(**overrides) -> NetworkConfig:
    """Two APs, two RISs, twelve users, 32 antennas."""
    params = dict(
        num_aps=2, num_ris=2, se_users_per_ap=2, iot_users_per_ap=4,
        antennas=32, ris_elements=16, ris_phase_bits=1,
        analog_phase_bits=2,
        room_x=16.0, room_y=8.0, room_z=3.0, neighbor_radius=20.0,
        episode_slots=40,
    )
    params.update(overrides)
    return NetworkConfig(**params)
