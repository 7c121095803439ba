"""Network configuration: every knob of the simulator in one flat record.

A count that follows from fields, such as the RF chains (one per SE user),
is a property, so no two fields can disagree.  Out-of-range values are
rejected at construction with an error that names the field.

The config round-trips through a human-readable flat ``key = value`` file
(units documented in the emitted comments), so experiment setups can be
inspected and diffed as plain text.
"""
from __future__ import annotations

import cmath
import dataclasses
import math
import numbers
from dataclasses import dataclass, fields

C_LIGHT = 299792458.0  # m/s


@dataclass
class NetworkConfig:
    # topology scale
    num_aps: int = 3                 # ceiling-mounted THz APs
    num_ris: int = 2                 # wall-mounted reflecting surfaces
    se_users_per_ap: int = 4         # high-rate SE users, one RF chain each
    iot_users_per_ap: int = 4        # low-rate IoT users
    antennas: int = 64               # AP antennas N_A (sub-connected array)
    ris_elements: int = 20           # elements per RIS, modelled as a ULA
    ris_phase_bits: int = 1          # b: element phase resolution
    analog_phase_bits: int = 2       # B: AP phase-shifter resolution

    # radio
    carrier_freq: float = 0.3e12     # Hz
    bandwidth: float = 10e9          # Hz
    absorption_coeff: float = 0.0033  # 1/m, medium absorption at carrier_freq
    antenna_gain_dbi: float = 20.0   # combined tx/rx gain per link
    noise_power: float = 3.9810717055349695e-11  # W (-74 dBm over 10 GHz)
    max_tx_power: float = 1.0        # W per AP
    amp_gain: float = 1.0            # extra amplitude constant folded into links

    # circuit power model, all W
    p_bb: float = 0.2                # baseband
    p_rf: float = 0.16               # per RF chain
    p_ps: float = 0.02               # per phase shifter
    p_a: float = 0.06                # per power amplifier
    p_d: float = 0.01                # per user device
    p_ris_element: float = 0.005     # per active RIS element (depends on bits)
    pa_inefficiency: float = 2.5     # transmit-power multiplier

    # propagation sampling
    num_nlos_paths: int = 3          # reflected paths per blocked-prone link
    roughness_sigma: float = 8.8e-5  # m, surface roughness std
    refractive_index: complex = 1.922 + 0.0057j
    los_decay_distance: float = 8.0  # m, e-folding distance of LoS probability
    detour_min: float = 1.2          # reflected-path length / direct distance
    detour_max: float = 2.0

    # room geometry, metres
    room_x: float = 20.0
    room_y: float = 10.0
    room_z: float = 3.0
    neighbor_radius: float = 15.0    # agents closer than this exchange messages

    # traffic / QoS (rate figures in Gbps; queue caps in Gbps x slot)
    slot_seconds: float = 1e-3
    arrival_se_gbps: float = 10.0
    arrival_iot_gbps: float = 0.2
    packet_gbps: float = 0.1         # Poisson arrival granularity
    arrival_cap_factor: float = 5.0  # A <= factor x mean (finite-drift cap)
    qmax_se_gbps: float = 25.0
    qmax_iot_gbps: float = 10.0
    outage_eps: float = 0.1
    rmin_se_gbps: float = 2.0
    rmin_iot_gbps: float = 0.1

    # reward shaping
    zeta: float = 1.0                # energy-efficiency weight
    xi_penalty: float = 10.0         # rate-violation weight
    episode_slots: int = 200

    # beamforming numerics
    zf_cond_threshold: float = 1e8   # diagonal loading kicks in above this

    # cluster sizing; 0 means ceil(K_U/N_R)+1
    max_cluster_size: int = 0

    def __post_init__(self):
        check_counts(self, dict(
            num_aps=1, num_ris=0, se_users_per_ap=1, iot_users_per_ap=0,
            antennas=1, ris_elements=1, num_nlos_paths=0, ris_phase_bits=1,
            analog_phase_bits=1, episode_slots=1, max_cluster_size=0))
        if self.antennas % self.rf_chains != 0:
            raise ValueError("antennas must be a multiple of rf_chains")
        # every check below is written so that NaN fails it; a zero
        # noise_power would give a zero channel an SINR of 0/0
        for name in ("room_x", "room_y", "room_z", "carrier_freq", "bandwidth",
                     "noise_power", "max_tx_power", "zf_cond_threshold",
                     "slot_seconds", "packet_gbps", "qmax_se_gbps",
                     "qmax_iot_gbps"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        for name in ("absorption_coeff", "amp_gain", "roughness_sigma",
                     "p_bb", "p_rf", "p_ps", "p_a", "p_d", "p_ris_element",
                     "pa_inefficiency", "arrival_se_gbps", "arrival_iot_gbps",
                     "arrival_cap_factor", "outage_eps", "rmin_se_gbps",
                     "rmin_iot_gbps", "zeta", "xi_penalty"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be non-negative and finite")
        for name in ("antenna_gain_dbi", "refractive_index"):
            if not cmath.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not self.neighbor_radius >= 0:      # +inf: every pair in range
            raise ValueError("neighbor_radius must be non-negative")
        if not self.los_decay_distance > 0:    # +inf: LoS never blocked
            raise ValueError("los_decay_distance must be positive")
        if not 0 < self.detour_min <= self.detour_max < math.inf:
            raise ValueError("detour_min and detour_max must satisfy "
                             "0 < detour_min <= detour_max < inf")
        cap = self.max_cluster_size
        if cap > 0 and (self.se_users_per_ap * (cap - 1)
                        < self.iot_users_per_ap):
            raise ValueError("max_cluster_size must be 0 or seat every IoT "
                             "user: se_users_per_ap * (max_cluster_size - 1)"
                             " >= iot_users_per_ap")

    # -- derived counts ----------------------------------------------------
    @property
    def rf_chains(self) -> int:
        """N_R: one active RF chain per SE user."""
        return self.se_users_per_ap

    @property
    def n_sub(self) -> int:
        return self.antennas // self.rf_chains

    @property
    def users_per_ap(self) -> int:
        return self.se_users_per_ap + self.iot_users_per_ap

    @property
    def total_users(self) -> int:
        return self.num_aps * self.users_per_ap

    @property
    def cluster_cap(self) -> int:
        if self.max_cluster_size > 0:
            return self.max_cluster_size
        return -(-self.iot_users_per_ap // self.rf_chains) + 1

    # -- queue units: everything below is Gbit per slot --------------------
    @property
    def arrival_mean_gbit(self) -> tuple[float, float]:
        s = self.slot_seconds
        return self.arrival_se_gbps * s, self.arrival_iot_gbps * s

    @property
    def qmax_gbit(self) -> tuple[float, float]:
        s = self.slot_seconds
        return self.qmax_se_gbps * s, self.qmax_iot_gbps * s


def check_counts(record, least: dict) -> None:
    """Raise a ValueError naming the first field of ``record`` listed in
    ``least`` ({field: bound}) that does not hold an integer of at least its
    bound."""
    for name, bound in least.items():
        value = getattr(record, name)
        if not isinstance(value, numbers.Integral) or value < bound:
            raise ValueError(f"{name} must be an integer >= {bound}, got "
                             f"{value!r}")


_UNITS = {
    "carrier_freq": "Hz", "bandwidth": "Hz", "absorption_coeff": "1/m",
    "antenna_gain_dbi": "dBi", "noise_power": "W", "max_tx_power": "W",
    "p_bb": "W", "p_rf": "W", "p_ps": "W", "p_a": "W", "p_d": "W",
    "p_ris_element": "W", "roughness_sigma": "m", "los_decay_distance": "m",
    "room_x": "m", "room_y": "m", "room_z": "m", "neighbor_radius": "m",
    "slot_seconds": "s", "arrival_se_gbps": "Gbps", "arrival_iot_gbps": "Gbps",
    "packet_gbps": "Gbps", "qmax_se_gbps": "Gbps x slot",
    "qmax_iot_gbps": "Gbps x slot", "rmin_se_gbps": "Gbps",
    "rmin_iot_gbps": "Gbps",
}


def save_config(cfg: NetworkConfig, path) -> None:
    lines = ["# risnoma network configuration (flat key = value)"]
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        unit = _UNITS.get(f.name)
        comment = f"  # {unit}" if unit else ""
        lines.append(f"{f.name} = {value!r}{comment}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_config(path) -> NetworkConfig:
    types = {f.name: f.type for f in fields(NetworkConfig)}
    defaults = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"malformed config line: {raw.rstrip()}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in types:
                raise ValueError(f"unknown config key: {key}")
            if key in defaults:
                raise ValueError(f"repeated config key: {key}")
            defaults[key] = _parse(types[key], value)
    return NetworkConfig(**defaults)


def _parse(typename: str, text: str):
    text = text.strip().strip("'\"")
    if typename == "int":
        return int(text)
    if typename == "float":
        return float(text)
    if typename == "complex":
        return complex(text.replace(" ", ""))
    return text


def config_dict(cfg: NetworkConfig) -> dict:
    out = {}
    for key, value in dataclasses.asdict(cfg).items():
        out[key] = [value.real, value.imag] if isinstance(value, complex) else value
    return out
