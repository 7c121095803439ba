"""The per-slot channel sampler in its three-draw form, kept as a reference.

``ReferenceEpisode`` replays an ``EpisodeChannel``'s episode and slot draws
the way the sampler drew them before it made one phase draw per slot: the
episode keeps its paths in (M, U, 1 + P, N_A) order, and each slot draws
the AP->user, RIS->user and AP->RIS phases in three calls, applies three
``np.exp`` and copies the LoS masks.  It reads only the geometry the
channel fixes at construction, so ``EpisodeChannel.slot_parts`` must agree
with it bit for bit and leave the generator in the same state.
"""
import numpy as np

from risnoma.channel import (ChannelState, EpisodeChannel, _amp,
                             array_response, los_probability,
                             reflection_coeff)


class ReferenceEpisode:
    def __init__(self, chan: EpisodeChannel):
        self.chan = chan
        self._episode = None

    def new_episode(self, rng: np.random.Generator) -> None:
        chan, cfg = self.chan, self.chan.config
        m, j, u = cfg.num_aps, cfg.num_ris, cfg.total_users
        n_nl = cfg.num_nlos_paths
        p_direct = los_probability(chan._d_ap_user, cfg.los_decay_distance)
        los_direct = (rng.random((m, u)) < p_direct).astype(np.int8)
        nlos_aod = rng.uniform(-np.pi / 2, np.pi / 2, (m, u, n_nl))
        nlos_detour = rng.uniform(cfg.detour_min, cfg.detour_max, (m, u, n_nl))
        nlos_incidence = rng.uniform(0.0, np.pi / 2, (m, u, n_nl))
        p_ris = los_probability(chan._d_ris_user, cfg.los_decay_distance)
        los_ris = (rng.random((j, u)) < p_ris).astype(np.int8)
        refl = reflection_coeff(nlos_incidence, cfg.roughness_sigma,
                                cfg.carrier_freq, cfg.refractive_index)
        nlos = ((_amp(cfg, chan._d_ap_user[..., None] * nlos_detour) * refl)[..., None]
                * np.conj(array_response(cfg.antennas, nlos_aod)))
        los = los_direct[..., None, None] * chan._los_rows[:, :, None, :]
        self._episode = dict(
            los_direct=los_direct, los_ris=los_ris,
            paths=np.concatenate([los, nlos], axis=2),     # (M, U, 1 + P, N_A)
            ris_rows=los_ris[..., None] * chan._ris_rows,  # (J, U, L)
        )

    def slot_parts(self, rng: np.random.Generator) -> ChannelState:
        cfg, ep = self.chan.config, self._episode
        m, j, u = cfg.num_aps, cfg.num_ris, cfg.total_users
        phase_direct = rng.uniform(0.0, 2.0 * np.pi, (m, u, 1 + cfg.num_nlos_paths))
        phase_f = rng.uniform(0.0, 2.0 * np.pi, (j, u))
        phase_g = rng.uniform(0.0, 2.0 * np.pi, (m, j))
        direct = np.einsum("mup,mupn->mun", np.exp(1j * phase_direct), ep["paths"])
        ris_user = ep["ris_rows"] * np.exp(1j * phase_f)[..., None]
        ap_ris = self.chan._ap_ris_blocks * np.exp(1j * phase_g)[..., None, None]
        return ChannelState(direct, ris_user, ap_ris,
                            ep["los_direct"].copy(), ep["los_ris"].copy())
