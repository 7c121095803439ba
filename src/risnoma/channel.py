"""THz propagation: path loss, blockage, array responses, RIS phase control.

Amplitude convention: a path with loss ``pl`` dB and antenna gain ``g`` dBi
contributes ``amp_gain * 10**((pl + g)/20)`` to the complex channel entry,
i.e. path loss and gains are power quantities and channels carry their
square roots.  AP-side links (direct and AP->RIS) carry the antenna gain;
RIS->user links are passive and carry path loss only.

The helpers take scalars or arrays; a scalar input gives a scalar (or, for
``array_response``, a single vector) back.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import C_LIGHT, NetworkConfig
from .topology import Topology

LOG10_E = np.log10(np.e)


def los_probability(distance, d_b: float):
    """Blockage survival probability exp(-distance/d_b); 1 at zero range.

    ``distance`` is a scalar or an array; the result has its shape.
    """
    distance = np.asarray(distance, dtype=float)
    if np.any(distance < 0):
        raise ValueError("distance must be non-negative")
    if d_b <= 0:
        raise ValueError("decay distance must be positive")
    out = np.exp(-distance / d_b)
    return float(out) if out.ndim == 0 else out


def path_loss_db(freq: float, distance, k_abs: float):
    """Spreading plus molecular absorption loss in dB (negative gain)."""
    distance = np.asarray(distance, dtype=float)
    if freq <= 0:
        raise ValueError("frequency must be positive")
    if np.any(distance <= 0):
        raise ValueError("distance must be positive (spreading term singular at 0)")
    spread = 20.0 * np.log10(C_LIGHT / (4.0 * np.pi * freq * distance))
    absorption = 10.0 * k_abs * distance * LOG10_E
    out = spread - absorption
    return float(out) if out.ndim == 0 else out


def array_response(n: int, aod) -> np.ndarray:
    """Unit-norm ULA steering vectors, entry m = exp(j*pi*m*sin(aod))/sqrt(n).

    ``aod`` is a scalar or an array of angles; the result has shape
    ``aod.shape + (n,)``.
    """
    if n < 1:
        raise ValueError("array size must be >= 1")
    m = np.arange(n)
    return np.exp(1j * np.pi * m * np.sin(aod)[..., None]) / np.sqrt(n)


def reflection_coeff(phi_in, sigma_rough: float, freq: float, n_r: complex):
    """Fresnel coefficient attenuated by the Rayleigh roughness factor.

    The roughness factor is exp(-x**2 / 2) with x = 4 pi f sigma cos(phi) / c
    (Piesiewicz et al., IEEE TAP 2007).  ``phi_in`` is a scalar or an array
    of incidence angles; the result is a complex scalar or a complex array
    of its shape.
    """
    phi_in = np.asarray(phi_in, dtype=float)
    if np.any((phi_in < 0) | (phi_in >= np.pi / 2)):
        raise ValueError("incidence angle must lie in [0, pi/2)")
    cos_phi = np.cos(phi_in)
    root = np.sqrt(n_r ** 2 - np.sin(phi_in) ** 2)
    fresnel = (cos_phi - root) / (cos_phi + root)
    x = 4.0 * np.pi * freq * sigma_rough * cos_phi / C_LIGHT
    rough = np.exp(-0.5 * x ** 2)
    out = fresnel * rough
    return complex(out) if out.ndim == 0 else out


def ris_phase_diag(on_off: np.ndarray, phase_idx: np.ndarray, bits: int) -> np.ndarray:
    """Diagonal of the reflection matrix: omega_l * exp(j*2^(1-b)*pi*beta_l).

    Works elementwise, so (J, L) on/off and phase arrays give the (J, L)
    diagonals of all RISs at once.
    """
    on_off = np.asarray(on_off)
    phase_idx = np.asarray(phase_idx)
    if on_off.shape != phase_idx.shape:
        raise ValueError("on/off and phase index vectors must share a shape")
    if ((on_off != 0) & (on_off != 1)).any():
        raise ValueError("on/off entries must be binary")
    if (phase_idx < 0).any() or (phase_idx > 2 ** bits - 1).any():
        raise ValueError(f"phase index out of range for {bits}-bit control")
    return on_off * np.exp(1j * (2.0 ** (1 - bits)) * np.pi * phase_idx)


def _pairwise(src: np.ndarray, dst: np.ndarray):
    """Distances and direction cosines from (S, 3) sources to (D, 3) targets.

    Both results are (S, D).  The cosine is taken along the x-aligned array
    axis of the source, and is 0 for coincident points.
    """
    delta = dst[None, :, :] - src[:, None, :]
    dist = np.linalg.norm(delta, axis=-1)
    cos = np.divide(delta[..., 0], dist, out=np.zeros_like(dist), where=dist > 0)
    return dist, np.clip(cos, -1.0, 1.0)


def _amp(config: NetworkConfig, distance, with_gain: bool = True):
    """Path amplitude over ``distance`` (scalar or array, result of its shape)."""
    pl = path_loss_db(config.carrier_freq, distance, config.absorption_coeff)
    gain = config.antenna_gain_dbi if with_gain else 0.0
    return config.amp_gain * 10.0 ** ((pl + gain) / 20.0)


@dataclass
class ChannelState:
    """All complex link matrices of one slot, before RIS composition."""
    direct: np.ndarray     # (M, U, N_A) AP -> user rows
    ris_user: np.ndarray   # (J, U, L) RIS -> user rows
    ap_ris: np.ndarray     # (M, J, L, N_A) AP -> RIS blocks
    los_direct: np.ndarray  # (M, U) 0/1
    los_ris: np.ndarray     # (J, U) 0/1

    def effective(self, theta_diags: np.ndarray) -> np.ndarray:
        """AP->user channels under (J, L) reflection diagonals, (M, U, N_A).

        h[m, u] = direct[m, u] + sum_j ris_user[j, u] diag(theta_j) ap_ris[m, j],
        with the sum over (j, l) taken as one batched matrix product.
        """
        j, u, n_el = self.ris_user.shape
        if np.shape(theta_diags) != (j, n_el):
            raise ValueError(f"reflection diagonals must have shape {(j, n_el)}")
        reflected = (self.ris_user * theta_diags[:, None, :]).transpose(1, 0, 2)
        m, n_a = self.direct.shape[0], self.direct.shape[2]
        return self.direct + (reflected.reshape(u, j * n_el)
                              @ self.ap_ris.reshape(m, j * n_el, n_a))


class EpisodeChannel:
    """Per-episode blockage/geometry draws with per-slot phase jitter.

    ``new_episode`` fixes which links are blocked and the reflected-path
    geometry; ``slot_parts`` realizes a ChannelState with fresh path phases.
    Terms that depend on geometry alone (distances, LoS rows, AP->RIS blocks
    without their phase) are computed once here, the reflected paths once
    per episode, so a slot only draws and applies its phases.

    Draw order, with M APs, J RISs, U users and P reflected paths per link:

    * ``new_episode``: LoS uniforms (M, U) for the AP->user links; reflected
      path departure angles (M, U, P), detour factors (M, U, P) and
      incidence angles (M, U, P); LoS uniforms (J, U) for the RIS->user
      links.
    * ``slot_parts``: AP->user path phases (M, U, 1 + P), LoS first;
      RIS->user phases (J, U); AP->RIS phases (M, J).

    A reflected path departs at its drawn angle over ``distance * detour``;
    LoS links depart along the geometric direction.
    """

    def __init__(self, config: NetworkConfig, topology: Topology):
        self.config = config
        self.topo = topology
        n_a, n_el = config.antennas, config.ris_elements
        ap, ris = topology.ap_positions, topology.ris_positions
        user = topology.user_positions
        self._d_ap_user, cos_ap_user = _pairwise(ap, user)
        self._d_ris_user, cos_ris_user = _pairwise(ris, user)
        d_ap_ris, cos_ap_ris = _pairwise(ap, ris)
        self._los_rows = (_amp(config, self._d_ap_user)[..., None]
                          * np.conj(array_response(n_a, np.arcsin(cos_ap_user))))
        self._ris_rows = (
            _amp(config, self._d_ris_user, with_gain=False)[..., None]
            * np.conj(array_response(n_el, np.arcsin(cos_ris_user))))
        # the RIS sees the AP along the reversed direction
        arrive = array_response(n_el, np.arcsin(-cos_ap_ris))
        depart = np.conj(array_response(n_a, np.arcsin(cos_ap_ris)))
        self._ap_ris_blocks = (_amp(config, d_ap_ris)[..., None, None]
                               * arrive[..., :, None] * depart[..., None, :])
        self._episode = None

    def new_episode(self, rng: np.random.Generator) -> None:
        cfg = self.config
        m, j, u = cfg.num_aps, cfg.num_ris, cfg.total_users
        n_nl = cfg.num_nlos_paths
        p_direct = los_probability(self._d_ap_user, cfg.los_decay_distance)
        los_direct = (rng.random((m, u)) < p_direct).astype(np.int8)
        nlos_aod = rng.uniform(-np.pi / 2, np.pi / 2, (m, u, n_nl))
        nlos_detour = rng.uniform(cfg.detour_min, cfg.detour_max, (m, u, n_nl))
        nlos_incidence = rng.uniform(0.0, np.pi / 2, (m, u, n_nl))
        p_ris = los_probability(self._d_ris_user, cfg.los_decay_distance)
        los_ris = (rng.random((j, u)) < p_ris).astype(np.int8)
        refl = reflection_coeff(nlos_incidence, cfg.roughness_sigma,
                                cfg.carrier_freq, cfg.refractive_index)
        nlos = ((_amp(cfg, self._d_ap_user[..., None] * nlos_detour) * refl)[..., None]
                * np.conj(array_response(cfg.antennas, nlos_aod)))
        los = los_direct[..., None, None] * self._los_rows[:, :, None, :]
        self._episode = dict(
            los_direct=los_direct, los_ris=los_ris,
            paths=np.concatenate([los, nlos], axis=2),     # (M, U, 1 + P, N_A)
            ris_rows=los_ris[..., None] * self._ris_rows,  # (J, U, L)
        )

    def slot_parts(self, rng: np.random.Generator) -> ChannelState:
        if self._episode is None:
            raise RuntimeError("call new_episode before sampling slots")
        cfg, ep = self.config, self._episode
        m, j, u = cfg.num_aps, cfg.num_ris, cfg.total_users
        phase_direct = rng.uniform(0.0, 2.0 * np.pi, (m, u, 1 + cfg.num_nlos_paths))
        phase_f = rng.uniform(0.0, 2.0 * np.pi, (j, u))
        phase_g = rng.uniform(0.0, 2.0 * np.pi, (m, j))
        direct = np.einsum("mup,mupn->mun", np.exp(1j * phase_direct), ep["paths"])
        ris_user = ep["ris_rows"] * np.exp(1j * phase_f)[..., None]
        ap_ris = self._ap_ris_blocks * np.exp(1j * phase_g)[..., None, None]
        return ChannelState(direct, ris_user, ap_ris,
                            ep["los_direct"].copy(), ep["los_ris"].copy())
