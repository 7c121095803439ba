"""Per-slot link derivations: clustering, hybrid beams, SIC, SINR, power.

Cluster position convention: position 1 is the SE head, positions 2.. are
IoT members in descending effective-gain order.  A user at position k is
interfered by every position below k (the head's own signal is decoded
last, so it always interferes with IoT members), while the head only sees
IoT signals it failed to cancel.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .config import NetworkConfig


def channel_correlation(h1: np.ndarray, h2: np.ndarray) -> float:
    """|<h1, h2>| normalized to [0, 1]; rejects zero vectors."""
    n1, n2 = np.linalg.norm(h1), np.linalg.norm(h2)
    if n1 == 0 or n2 == 0:
        raise ValueError("correlation undefined for a zero channel")
    return float(np.abs(np.vdot(h1, h2)) / (n1 * n2))


def _correlation_or_zero(h1: np.ndarray, h2: np.ndarray) -> float:
    try:
        return channel_correlation(h1, h2)
    except ValueError:  # a zero channel correlates with nothing
        return 0.0


def cluster_users(h_own: np.ndarray, se_ids, iot_ids, max_cluster_size: int):
    """Greedy QoS clustering: SE users head the clusters, IoT users join
    the head with the highest spatial correlation (ties to the lowest
    cluster index, capacity-limited).  A zero channel (no reflected path
    and a blocked LoS) correlates with nothing: it counts as 0."""
    se_ids, iot_ids = list(se_ids), sorted(iot_ids)  # id order: input-order invariant
    if not se_ids:
        raise ValueError("need at least one SE user per AP")
    clusters = [[head] for head in se_ids]
    for u in iot_ids:
        corr = np.array([_correlation_or_zero(h_own[u], h_own[head])
                         for head in se_ids])
        order = np.argsort(-corr, kind="stable")  # ties keep lowest index
        placed = False
        for n in order:
            if len(clusters[n]) < max_cluster_size:
                clusters[n].append(int(u))
                placed = True
                break
        if not placed:
            raise ValueError("cluster capacity too small for the IoT load")
    return clusters


def analog_beamformer(head_channels: np.ndarray, n_sub: int, bits: int) -> np.ndarray:
    """Block-diagonal sub-connected analog matrix, one subarray per head.

    Each phase shifter is quantized to the head-channel entry it serves:
    the grid point closest to the entry's unit phasor, conjugated so the
    product steers real-positive.  Zero entries default to phase 0.
    """
    n_r = head_channels.shape[0]
    n_a = n_r * n_sub
    grid = np.exp(1j * 2.0 * np.pi * np.arange(2 ** bits) / 2 ** bits)
    v = np.zeros((n_a, n_r), dtype=complex)
    scale = 1.0 / np.sqrt(n_sub)
    for n in range(n_r):
        sl = head_channels[n, n * n_sub:(n + 1) * n_sub]
        for i in range(n_sub):
            if sl[i] == 0:
                v[n * n_sub + i, n] = scale
                continue
            target = sl[i] / np.abs(sl[i])
            best = int(np.argmin(np.abs(grid - target)))
            v[n * n_sub + i, n] = scale * np.conj(grid[best])
    return v


def zf_digital_beamformer(centers: np.ndarray, v: np.ndarray, *,
                          on_effective: bool = True,
                          cond_threshold: float = 1e8):
    """Zero-forcing across cluster centers with unit ``||V w||`` columns.

    Near-singular Gram matrices get diagonal loading (1e-8 x mean eigenvalue)
    and raise a RuntimeWarning so degenerate clustering is visible.  An
    all-zero Gram (every center a zero channel) has no scale to load by; it
    gets unit loading, which yields zero beams.
    """
    h_eff = centers @ v if on_effective else centers
    gram = h_eff @ h_eff.conj().T
    n_r = gram.shape[0]
    loaded = False
    if np.linalg.cond(gram) > cond_threshold:
        mean_eig = np.trace(gram).real / n_r
        gram = gram + (1e-8 * mean_eig if mean_eig > 0 else 1.0) * np.eye(n_r)
        loaded = True
        warnings.warn("ill-conditioned cluster centers; ZF regularized",
                      RuntimeWarning, stacklevel=2)
    w = h_eff.conj().T @ np.linalg.inv(gram)
    for n in range(n_r):
        norm = np.linalg.norm(v @ w[:, n])
        if norm > 0:
            w[:, n] = w[:, n] / norm
    return w, loaded


def decoding_order(members, gains) -> list:
    """IoT members by descending gain (ties by user id), SE head last."""
    head, iot = members[0], list(members[1:])
    ranked = sorted(iot, key=lambda u: (-gains[u], u))
    return ranked + [head]


@dataclass
class LinkPlan:
    """Everything one AP derives for a slot, before power-dependent terms."""
    clusters: list                 # per cluster: [head, iot...] global user ids
    position: dict                 # user -> 1-based cluster position (head = 1)
    cluster_of: dict               # user -> cluster index
    v: np.ndarray                  # (N_A, N_R) analog
    w: np.ndarray                  # (N_R, N_R) digital columns
    zf_loaded: bool = False
    sic_fail: dict = field(default_factory=dict)  # iot user -> 0/1


def derive_plan(h_own: np.ndarray, se_ids, iot_ids, config: NetworkConfig) -> LinkPlan:
    """Cluster, beamform, and fix decode positions for one AP."""
    se_ids = list(se_ids)
    if len(se_ids) > config.rf_chains:
        raise ValueError("more clusters than RF chains")
    clusters = cluster_users(h_own, se_ids, iot_ids, config.cluster_cap)
    heads = np.stack([h_own[c[0]] for c in clusters])
    v = analog_beamformer(heads, config.n_sub, config.analog_phase_bits)
    centers = np.stack([h_own[c].mean(axis=0) for c in clusters])
    w, loaded = zf_digital_beamformer(
        centers, v, on_effective=config.zf_on_effective,
        cond_threshold=config.zf_cond_threshold)
    position, cluster_of, ordered = {}, {}, []
    for n, members in enumerate(clusters):
        gains = {u: float(np.abs(h_own[u] @ v @ w[:, n]) ** 2) for u in members}
        order = decoding_order(members, gains)
        ranked = [order[-1]] + order[:-1]  # head first = position 1
        ordered.append(ranked)
        for pos, u in enumerate(ranked, start=1):
            position[u] = pos
            cluster_of[u] = n
    return LinkPlan(ordered, position, cluster_of, v, w, loaded)


def _beam_gains(h_eff: np.ndarray, plans) -> np.ndarray:
    """|h_u^(m') V^(m') w_n'|^2 for every (user, AP, cluster) triple."""
    m, u, _ = h_eff.shape
    n_r = plans[0].w.shape[1]
    gains = np.zeros((u, m, n_r))
    for mp in range(m):
        beams = plans[mp].v @ plans[mp].w          # (N_A, N_R)
        gains[:, mp, :] = np.abs(h_eff[mp] @ beams) ** 2
    return gains


def _cluster_powers(plans, alpha: np.ndarray) -> np.ndarray:
    m = len(plans)
    n_r = plans[0].w.shape[1]
    p = np.zeros((m, n_r))
    for mp, plan in enumerate(plans):
        for n, members in enumerate(plan.clusters):
            p[mp, n] = alpha[members].sum()
    return p


def _inter_cluster(gains: np.ndarray, powers: np.ndarray, user: int,
                   own_ap: int, own_cluster: int) -> float:
    """Interference from every (AP, cluster) other than the user's own."""
    total = float((gains[user] * powers).sum())
    return total - float(gains[user, own_ap, own_cluster] * powers[own_ap, own_cluster])


def sic_feasibility(h_eff: np.ndarray, plans, alpha: np.ndarray,
                    sigma2: float, ap_of_user: np.ndarray) -> dict:
    """Per-IoT-user cancellation test: the head's decode SINR for that
    user's signal must reach the user's own decode SINR."""
    gains = _beam_gains(h_eff, plans)
    powers = _cluster_powers(plans, alpha)
    fail = {}
    for m, plan in enumerate(plans):
        for n, members in enumerate(plan.clusters):
            head = members[0]
            g_head = gains[head, m, n]
            inter_head = _inter_cluster(gains, powers, head, m, n)
            for u in members[1:]:
                g_self = gains[u, m, n]
                earlier = [x for x in members if plan.position[x] < plan.position[u]]
                intra_head = g_head * alpha[earlier].sum()
                intra_self = g_self * alpha[earlier].sum()
                inter_self = _inter_cluster(gains, powers, u, m, n)
                at_head = g_head * alpha[u] / (intra_head + inter_head + sigma2)
                at_self = g_self * alpha[u] / (intra_self + inter_self + sigma2)
                fail[u] = 0 if at_head >= at_self else 1
    return fail


def sinr_all(h_eff: np.ndarray, plans, alpha: np.ndarray, sigma2: float,
             ap_of_user: np.ndarray) -> np.ndarray:
    """SINR per user under the given plans (SIC flags already in the plans)."""
    gains = _beam_gains(h_eff, plans)
    powers = _cluster_powers(plans, alpha)
    out = np.zeros(len(ap_of_user))
    for m, plan in enumerate(plans):
        for n, members in enumerate(plan.clusters):
            for u in members:
                g = gains[u, m, n]
                inter = _inter_cluster(gains, powers, u, m, n)
                if plan.position[u] == 1:  # SE head: only failed-SIC residue
                    residue = sum(alpha[x] * plan.sic_fail.get(x, 0)
                                  for x in members[1:])
                    den = g * residue + inter + sigma2
                else:
                    earlier = [x for x in members
                               if plan.position[x] < plan.position[u]]
                    den = g * alpha[earlier].sum() + inter + sigma2
                out[u] = g * alpha[u] / den
    return out


def rates_gbps(gamma: np.ndarray, bandwidth: float) -> np.ndarray:
    """Shannon rate over the full band, in Gbps."""
    gamma = np.asarray(gamma, dtype=float)
    if np.any(gamma < 0):
        raise ValueError("SINR must be non-negative")
    return bandwidth * np.log2(1.0 + gamma) / 1e9


def power_consumption(alpha: np.ndarray, ris_on: np.ndarray,
                      config: NetworkConfig) -> float:
    """Transmit power (with PA inefficiency) plus all circuit terms, W."""
    p_ap = (config.p_bb + config.rf_chains * config.p_rf
            + config.antennas * (config.p_ps + config.p_a))
    total = (config.pa_inefficiency * float(np.sum(alpha))
             + config.total_users * config.p_d
             + config.num_aps * p_ap
             + float(np.sum(ris_on)) * config.p_ris_element)
    return total


def energy_efficiency(rates: np.ndarray, power_w: float) -> float:
    """Sum rate over consumed power: Gbit per Joule."""
    if power_w <= 0:
        raise ValueError("power must be positive")
    return float(np.sum(rates) / power_w)
