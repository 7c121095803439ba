"""Per-slot link derivations: clustering, hybrid beams, SIC, SINR, power.

Cluster position convention: position 1 is the SE head, positions 2.. are
IoT members in descending effective-gain order.  A user at position k is
interfered by every position below k (the head's own signal is decoded
last, so it always interferes with IoT members), while the head only sees
IoT signals it failed to cancel.

Array layout of a slot with M APs, N_R clusters per AP and U users:

- ``LinkPlan.clusters`` lists each cluster's members by decode position,
  head first.  It is the single source of membership and decode order;
  everything below is read off it.
- ``SlotLinks.gains`` is the (U, M·N_R) matrix |h_u^(m) V^(m) w_n^(m)|²:
  column ``m·N_R + n`` is cluster n of AP m.
- ``SlotLinks.slot`` (U,) is the column of each user's own cluster and
  ``SlotLinks.position`` (U,) its 1-based decode position (head = 1).
- SIC flags are a (U,) 0/1 array, 1 where the head fails to cancel that
  user's signal; heads get 0.
- ``power_terms`` gives, per user, the inter-cluster interference and the
  power decoded before it in its cluster; a slot builds them once and
  hands them to both ``sic_feasibility`` and ``sinr_all``.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .config import NetworkConfig


def channel_correlation(h1: np.ndarray, h2: np.ndarray) -> float:
    """|<h1, h2>| normalized to [0, 1]; rejects zero vectors."""
    n1, n2 = np.linalg.norm(h1), np.linalg.norm(h2)
    if n1 == 0 or n2 == 0:
        raise ValueError("correlation undefined for a zero channel")
    return float(np.abs(np.vdot(h1, h2)) / (n1 * n2))


def cluster_users(h_own: np.ndarray, se_ids, iot_ids, max_cluster_size: int):
    """Greedy QoS clustering: SE users head the clusters, IoT users join
    the head with the highest spatial correlation (ties to the lowest
    cluster index, capacity-limited).  A zero channel (no reflected path
    and a blocked LoS) correlates with nothing: it counts as 0."""
    se_ids, iot_ids = list(se_ids), sorted(iot_ids)  # id order: input-order invariant
    if not se_ids:
        raise ValueError("need at least one SE user per AP")
    # one Gram of the SE and IoT channels: norms on its diagonal, inner
    # products in its IoT x SE block
    s = len(se_ids)
    sub = h_own[se_ids + iot_ids]
    gram = sub.conj() @ sub.T
    norm = np.sqrt(gram.diagonal().real)
    norms = norm[s:, None] * norm[:s]
    # a zero channel has zero inner products: dividing them by 1 gives 0
    corr = np.abs(gram[s:, :s]) / np.where(norms > 0, norms, 1.0)
    ranks = np.argsort(-corr, axis=1, kind="stable")  # ties keep lowest index
    clusters = [[head] for head in se_ids]
    for u, order in zip(iot_ids, ranks.tolist()):  # one at a time: seats run out
        n = next((n for n in order if len(clusters[n]) < max_cluster_size), None)
        if n is None:
            raise ValueError("cluster capacity too small for the IoT load")
        clusters[n].append(int(u))
    return clusters


def analog_beamformer(head_channels: np.ndarray, n_sub: int, bits: int) -> np.ndarray:
    """Block-diagonal sub-connected analog matrix, one subarray per head.

    Each phase shifter is quantized to the head-channel entry it serves:
    the grid point closest to the entry's unit phasor, conjugated so the
    product steers real-positive.  Zero entries default to phase 0.
    """
    n_r = head_channels.shape[0]
    grid = np.exp(1j * 2.0 * np.pi * np.arange(2 ** bits) / 2 ** bits)
    diag = np.arange(n_r)
    served = head_channels.reshape(n_r, n_r, n_sub)[diag, diag]  # (N_R, n_sub)
    mag = np.abs(served)
    # a zero entry keeps target 0, equidistant from the grid: phase 0 wins
    target = np.divide(served, mag, out=np.zeros_like(served), where=mag > 0)
    best = np.argmin(np.abs(grid - target[..., None]), axis=-1)
    v = np.zeros((n_r, n_sub, n_r), dtype=complex)
    v[diag, :, diag] = (1.0 / np.sqrt(n_sub)) * np.conj(grid[best])
    return v.reshape(n_r * n_sub, n_r)


def zf_digital_beamformer(centers: np.ndarray, v: np.ndarray, *,
                          cond_threshold: float = 1e8):
    """Zero-forcing across cluster centers with unit ``||V w||`` columns.

    Near-singular Gram matrices get diagonal loading (1e-8 x mean eigenvalue)
    and raise a RuntimeWarning so degenerate clustering is visible.  The
    Gram is Hermitian and positive semi-definite, so its condition number is
    its largest eigenvalue over its smallest; a smallest eigenvalue at or
    below 0 counts as singular.  An all-zero Gram (every center a zero
    channel) has no scale to load by; it gets unit loading, which yields
    zero beams.
    """
    h_eff = centers @ v
    gram = h_eff @ h_eff.conj().T
    n_r = gram.shape[0]
    loaded = False
    eig = np.linalg.eigvalsh(gram)  # ascending
    if eig[0] <= 0 or eig[-1] / eig[0] > cond_threshold:
        mean_eig = np.trace(gram).real / n_r
        gram = gram + (1e-8 * mean_eig if mean_eig > 0 else 1.0) * np.eye(n_r)
        loaded = True
        warnings.warn("ill-conditioned cluster centers; ZF regularized",
                      RuntimeWarning, stacklevel=2)
    w = h_eff.conj().T @ np.linalg.inv(gram)
    norms = np.linalg.norm(v @ w, axis=0)
    return w / np.where(norms > 0, norms, 1.0), loaded


def decoding_order(members, gains) -> list:
    """IoT members by descending gain (ties by user id), SE head last."""
    head, iot = members[0], list(members[1:])
    ranked = sorted(iot, key=lambda u: (-gains[u], u))
    return ranked + [head]


@dataclass
class LinkPlan:
    """Everything one AP derives for a slot, before power-dependent terms.

    ``position`` and ``cluster_of`` restate ``clusters`` per user id, for
    inspection: any mapping indexed by id will do, and ``derive_plan`` gives
    (U,) arrays with 0 and -1 for users of other APs.  The slot path reads
    ``clusters`` only.
    """
    clusters: list                 # per cluster: members by position, head first
    position: np.ndarray           # user -> 1-based cluster position (head = 1)
    cluster_of: np.ndarray         # user -> cluster index
    v: np.ndarray                  # (N_A, N_R) analog
    w: np.ndarray                  # (N_R, N_R) digital columns
    zf_loaded: bool = False


def derive_plan(h_own: np.ndarray, se_ids, iot_ids, config: NetworkConfig) -> LinkPlan:
    """Cluster, beamform, and fix decode positions for one AP.

    ``h_own`` is the AP's (U, N_A) channel to every user of the slot."""
    if len(se_ids) > config.rf_chains:
        raise ValueError("more clusters than RF chains")
    clusters = cluster_users(h_own, se_ids, iot_ids, config.cluster_cap)
    v = analog_beamformer(h_own[[c[0] for c in clusters]], config.n_sub,
                          config.analog_phase_bits)
    sizes = np.array([[len(c)] for c in clusters])
    centers = np.array([h_own[c].sum(axis=0) for c in clusters]) / sizes
    w, loaded = zf_digital_beamformer(centers, v,
                                      cond_threshold=config.zf_cond_threshold)
    gains = np.abs(h_own @ (v @ w)) ** 2                      # (U, N_R)
    ranked = [members[:1] + decoding_order(members, gains[:, n])[:-1]
              for n, members in enumerate(clusters)]
    position = np.zeros(len(h_own), dtype=int)
    cluster_of = np.full(len(h_own), -1)
    for n, members in enumerate(ranked):
        position[members] = np.arange(1, len(members) + 1)
        cluster_of[members] = n
    return LinkPlan(ranked, position, cluster_of, v, w, loaded)


@dataclass
class SlotLinks:
    """The slot's beam gains and cluster layout (see the module docstring)."""
    gains: np.ndarray              # (U, M·N_R)
    slot: np.ndarray               # (U,) own cluster column m·N_R + n
    position: np.ndarray           # (U,) 1-based decode position
    head: np.ndarray               # (U,) head of the user's cluster
    own: np.ndarray                # (U,) gain in the own cluster column


def slot_links(h_eff: np.ndarray, plans) -> SlotLinks:
    """Gains from the stacked ``V @ W`` and the layout of ``plans``' ranked
    clusters; every user must sit in exactly one cluster."""
    n_users = h_eff.shape[1]
    beams = np.array([p.v @ p.w for p in plans])              # (M, N_A, N_R)
    gains = (np.abs(h_eff @ beams) ** 2).transpose(1, 0, 2).reshape(n_users, -1)
    clusters = [c for p in plans for c in p.clusters]
    sizes = np.array([len(c) for c in clusters])
    members = np.concatenate(clusters)
    if len(clusters) != gains.shape[1]:
        raise ValueError("need one cluster per digital beam")
    firsts = sizes.cumsum() - sizes
    slot, position, head = np.zeros((3, n_users), dtype=int)
    slot[members] = np.repeat(np.arange(len(clusters)), sizes)
    position[members] = np.arange(1, len(members) + 1) - np.repeat(firsts, sizes)
    head[members] = np.repeat(members[firsts], sizes)
    if len(members) != n_users or (position == 0).any():
        raise ValueError("every user must sit in exactly one cluster")
    return SlotLinks(gains, slot, position, head,
                     gains[np.arange(n_users), slot])


def power_terms(links: SlotLinks, alpha: np.ndarray):
    """Per user: inter-cluster interference and the power of the members
    decoded before it in its cluster, as two (U,) arrays."""
    # alpha by (cluster, position), behind a zero column: its running sum at
    # position p - 1 is the power of positions 1..p-1, its last the cluster's
    table = np.zeros((links.gains.shape[1], links.position.max() + 1))
    table[links.slot, links.position] = alpha
    before = table.cumsum(axis=1)
    powers = before[:, -1]
    inter = links.gains @ powers - links.own * powers[links.slot]
    return inter, before[links.slot, links.position - 1]


def sic_feasibility(links: SlotLinks, alpha: np.ndarray, sigma2: float,
                    terms) -> np.ndarray:
    """Per-IoT-user cancellation test: the head's decode SINR for that
    user's signal must reach the user's own decode SINR.  ``terms`` is
    ``power_terms(links, alpha)``.  Returns (U,) 0/1 flags, 1 where SIC
    fails; heads get 0."""
    inter, earlier = terms
    own, head = links.own, links.head
    at_head = own[head] * alpha / (own[head] * earlier + inter[head] + sigma2)
    at_self = own * alpha / (own * earlier + inter + sigma2)
    return ((links.position > 1) & ~(at_head >= at_self)).astype(int)  # NaN fails


def sinr_all(links: SlotLinks, alpha: np.ndarray, sigma2: float,
             sic_fail: np.ndarray, terms) -> np.ndarray:
    """SINR per user given the (U,) SIC flags and ``power_terms(links,
    alpha)``: a head sees the residue of the IoT signals it failed to
    cancel, an IoT member every earlier one."""
    inter, earlier = terms
    residue = np.bincount(links.slot, weights=alpha * sic_fail,
                          minlength=links.gains.shape[1])
    intra = np.where(links.position == 1, residue[links.slot], earlier)
    return links.own * alpha / (links.own * intra + inter + sigma2)


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
