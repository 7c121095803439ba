"""Per-slot link derivations: clustering, hybrid beams, SIC, SINR, power.

Cluster position convention: position 1 is the SE head, positions 2.. are
IoT members in descending effective-gain order.  A user at position k is
interfered by every position below k (the head's own signal is decoded
last, so it always interferes with IoT members), while the head only sees
IoT signals it failed to cancel.

One ``derive_plan`` call plans every AP of a slot over stacked arrays.
With M APs, S SE users per AP (one cluster and one RF chain each), I IoT
users per AP, N_A antennas and U users:

- The inputs are the (M, U, N_A) effective channels and a ``LinkLayout``:
  the parts of the plan that the topology fixes, built once per env by
  ``link_layout`` from the (M, S) SE and (M, I) IoT user ids of each AP.
  It holds the IoT ids in join order, the Gram gather ids (SE then IoT ids
  per AP), the AP row index, each AP's first cluster column, the IoT join
  ranks, the user index range and the SE half of ``slot``, ``position``
  and ``head``.  Its construction checks that every user sits in exactly
  one cluster, so a slot does only the channel-dependent work.
- Cluster n of AP m is headed by SE user ``se_ids[m, n]`` and is column
  ``m·S + n`` of the slot.  IoT users join one at a time in ascending id
  order, and a cluster centre sums its members in that join order, head
  first.
- ``SlotLinks.gains`` is the (U, M·S) matrix |h_u^(m) V^(m) w_n^(m)|²;
  ``slot`` (U,) is the column of each user's own cluster, ``position``
  (U,) its 1-based decode position (head = 1), ``head`` (U,) its cluster's
  head and ``own`` (U,) its gain in its own column.
- ``SlotLinks.v`` (M, N_A, S) and ``w`` (M, S, S) are the stacked analog
  and digital stages, and ``zf_loaded`` (M,) flags the APs whose ZF Gram
  was diagonally loaded.
- SIC flags are a (U,) 0/1 array, 1 where the head fails to cancel that
  user's signal; heads get 0.
- ``power_terms`` gives, per user, the inter-cluster interference and the
  power decoded before it in its cluster; a slot builds them once and
  hands them to both ``sic_feasibility`` and ``sinr_all``.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .config import NetworkConfig


@dataclass(frozen=True)
class LinkLayout:
    """The parts of a slot's link plan that the topology fixes (see the
    module docstring); ``link_layout`` builds it and an env keeps one."""
    se_ids: np.ndarray             # (M, S) cluster heads
    iot_ids: np.ndarray            # (M, I) ascending: the join order
    members: np.ndarray            # (M, S + I) the rows of each AP's Gram
    ap: np.ndarray                 # (M, 1) AP row index
    first_col: np.ndarray          # (M, 1) column of each AP's cluster 0
    join_rank: np.ndarray          # (I,) 2, 3, ...: positions after the head
    users: np.ndarray              # (U,) every user id
    se_half: np.ndarray            # (3, U) slot, position, head: SE entries
                                   # filled, IoT entries 0


def link_layout(se_ids, iot_ids, n_users: int) -> LinkLayout:
    """The fixed layout of M APs' (M, S) SE and (M, I) IoT user ids.  Every
    one of the ``n_users`` users must be listed exactly once, and every AP
    needs an SE user; the IoT ids may come in any order."""
    se_ids = np.array(se_ids, dtype=np.intp)
    iot_ids = np.array(iot_ids, dtype=np.intp)
    iot_ids.sort(axis=1)                    # join order: input-order invariant
    m, s = se_ids.shape
    if s == 0:
        raise ValueError("need at least one SE user per AP")
    members = np.concatenate((se_ids, iot_ids), axis=1)
    if not np.array_equal(np.sort(members, axis=None), np.arange(n_users)):
        raise ValueError("every user must sit in exactly one cluster")
    ap = np.arange(m)[:, None]
    first_col = s * ap
    join_rank = np.arange(2, iot_ids.shape[1] + 2)
    users = np.arange(n_users)
    se_half = np.zeros((3, n_users), dtype=np.intp)
    slot, position, head = se_half
    slot[se_ids] = first_col + np.arange(s)
    position[se_ids] = 1
    head[se_ids] = se_ids
    for arr in (se_ids, iot_ids, members, ap, first_col, join_rank, users,
                se_half):
        arr.flags.writeable = False   # every slot of the env shares them
    return LinkLayout(se_ids, iot_ids, members, ap, first_col, join_rank,
                      users, se_half)


def cluster_users(h_eff: np.ndarray, layout: LinkLayout,
                  max_cluster_size: int):
    """Greedy QoS clustering of every AP at once: SE users head the
    clusters, and IoT users join, in ascending id order, the head with the
    highest spatial correlation (ties to the lowest cluster index,
    capacity-limited).  A zero channel (no reflected path and a blocked LoS)
    correlates with nothing: it counts as 0.

    ``h_eff`` is (M, U, N_A).  Returns the cluster each IoT user of
    ``layout.iot_ids`` joined (M, I) and the (M, S) cluster sizes, heads
    included."""
    s = layout.se_ids.shape[1]
    if s == 1:  # one head per AP: every IoT user joins it, whatever h_eff
        m, n_iot = layout.iot_ids.shape
        if n_iot > max_cluster_size - 1:
            raise ValueError("cluster capacity too small for the IoT load")
        return (np.zeros((m, n_iot), dtype=np.intp),
                np.full((m, 1), n_iot + 1, dtype=np.intp))
    # one Gram per AP of its SE and IoT channels: norms on its diagonal,
    # inner products in its IoT x SE block
    sub = h_eff[layout.ap, layout.members]
    gram = sub.conj() @ sub.transpose(0, 2, 1)
    norm = np.sqrt(gram.diagonal(0, 1, 2).real)
    norms = norm[:, s:, None] * norm[:, None, :s]
    # a zero channel has zero inner products: dividing them by 1 gives 0
    corr = np.abs(gram[:, s:, :s]) / np.where(norms > 0, norms, 1.0)
    ranks = (-corr).argsort(axis=2, kind="stable")  # ties keep lowest index
    # the greedy walk itself is a few list steps per user: cheaper in
    # Python than any numpy call at these sizes
    cluster, sizes = [], []
    for per_user in ranks.tolist():        # one AP's IoT users, in id order
        seats = [max_cluster_size - 1] * s
        for order in per_user:             # one at a time: seats run out
            for n in order:
                if seats[n]:
                    break
            else:
                raise ValueError("cluster capacity too small for the IoT load")
            seats[n] -= 1
            cluster.append(n)
        sizes += [max_cluster_size - left for left in seats]
    cluster = np.array(cluster, dtype=np.intp).reshape(layout.iot_ids.shape)
    sizes = np.array(sizes, dtype=np.intp).reshape(layout.se_ids.shape)
    return cluster, sizes


@lru_cache(maxsize=None)
def _phase_grid(bits: int, n_sub: int):
    """The quantizer's grid and the analog entry of each grid point:
    conj(point) / sqrt(n_sub)."""
    grid = np.exp(1j * 2.0 * np.pi * np.arange(2 ** bits) / 2 ** bits)
    entries = (1.0 / np.sqrt(n_sub)) * np.conj(grid)
    grid.flags.writeable = entries.flags.writeable = False
    return grid, entries


def analog_beamformer(head_channels: np.ndarray, n_sub: int, bits: int) -> np.ndarray:
    """Block-diagonal sub-connected analog matrices, one subarray per head:
    (M, N_R, N_A) head channels give (M, N_A, N_R).

    Each phase shifter is quantized to the head-channel entry it serves:
    the grid point closest to the entry's unit phasor, conjugated so the
    product steers real-positive.  Zero entries default to phase 0.
    """
    m, n_r = head_channels.shape[:2]
    grid, entries = _phase_grid(bits, n_sub)
    diag = np.arange(n_r)
    served = head_channels.reshape(m, n_r, n_r, n_sub)[:, diag, diag]  # (M, N_R, n_sub)
    mag = np.abs(served)
    # a zero entry keeps target 0, equidistant from the grid: phase 0 wins
    target = served / np.where(mag > 0, mag, 1.0)
    best = np.abs(grid - target[..., None]).argmin(axis=-1)
    v = np.zeros((m, n_r, n_sub, n_r), dtype=complex)
    # the two diagonal indices lead the assigned block: (N_R, M, n_sub)
    v[:, diag, :, diag] = entries[best.swapaxes(0, 1)]
    return v.reshape(m, n_r * n_sub, n_r)


def zf_digital_beamformer(centers: np.ndarray, v: np.ndarray, *,
                          cond_threshold: float = 1e8):
    """Zero-forcing across each AP's cluster centers with unit ``||V w||``
    columns: (M, N_R, N_A) centers and (M, N_A, N_R) analog matrices give
    the (M, N_R, N_R) digital matrices and the (M,) loading flags.

    Near-singular Gram matrices get diagonal loading (1e-8 x mean eigenvalue)
    and their AP's loading flag, which ``SlotLinks.zf_loaded`` and
    ``StepOutcome.zf_loaded`` carry on, so degenerate clustering is visible;
    no warning is raised.  The Gram is Hermitian and positive semi-definite,
    so its condition number is its largest eigenvalue over its smallest; a
    smallest eigenvalue at or below 0 counts as singular.  An all-zero Gram
    (every center a zero channel) has no scale to load by; it gets unit
    loading, which yields zero beams.  Each AP decides on its own.
    """
    h_eff = centers @ v
    h_adj = h_eff.conj().swapaxes(1, 2)
    gram = h_eff @ h_adj
    n_r = gram.shape[1]
    # ascending; a 1 x 1 Gram's one eigenvalue is its real diagonal, the
    # value LAPACK returns for it without iterating
    eig = gram.real.reshape(-1, 1) if n_r == 1 else np.linalg.eigvalsh(gram)
    # per AP, on Python floats: M tests cost less than one numpy call each
    flags = [low <= 0 or high / (low if low > 0 else 1.0) > cond_threshold
             for low, high in zip(eig[:, 0].tolist(), eig[:, -1].tolist())]
    loaded = np.array(flags, dtype=bool)
    if any(flags):
        mean_eig = np.trace(gram, 0, 1, 2).real / n_r
        load = np.where(mean_eig > 0, 1e-8 * mean_eig, 1.0)
        gram[loaded] = (gram + load[:, None, None] * np.eye(n_r))[loaded]
    w = h_adj @ np.linalg.inv(gram)
    beams = v @ w
    # ||V w_n||, formed as np.linalg.norm(beams, axis=1) forms it
    norms = np.sqrt(np.add.reduce((beams.conj() * beams).real, axis=1))
    return w / np.where(norms > 0, norms, 1.0)[:, None, :], loaded


@dataclass
class SlotLinks:
    """The slot's beams, gains and cluster layout (see the module
    docstring)."""
    gains: np.ndarray              # (U, M·S)
    slot: np.ndarray               # (U,) own cluster column m·S + n
    position: np.ndarray           # (U,) 1-based decode position
    head: np.ndarray               # (U,) head of the user's cluster
    own: np.ndarray                # (U,) gain in the own cluster column
    v: np.ndarray                  # (M, N_A, S) analog
    w: np.ndarray                  # (M, S, S) digital columns
    zf_loaded: np.ndarray          # (M,) bool: ZF Gram diagonally loaded


def decode_layout(layout: LinkLayout, cluster: np.ndarray, sizes: np.ndarray,
                  gains: np.ndarray):
    """Cluster column, decode position and head of every user.

    ``cluster`` (M, I) is the cluster each of ``layout.iot_ids`` joined,
    ``sizes`` (M, S) the cluster sizes and ``gains`` (M, U, S) the per-AP
    beam gains.  Within a cluster the head comes first, then IoT members by
    descending gain in that cluster, ties by user id.  Returns (U,)
    ``slot``, ``position`` and ``head``: the layout's SE half with the IoT
    entries filled in."""
    se_ids, iot_ids, ap = layout.se_ids, layout.iot_ids, layout.ap
    # each AP's IoT users by cluster, then by descending gain; lexsort is
    # stable, so ties stay in id order
    order = np.lexsort((-gains[ap, iot_ids, cluster], cluster))
    joined = sizes - 1
    ahead = joined.cumsum(axis=1) - joined      # IoT users in lower clusters
    slot, position, head = layout.se_half.copy()
    slot[iot_ids] = layout.first_col + cluster
    head[iot_ids] = se_ids[ap, cluster]
    position[iot_ids[ap, order]] = (layout.join_rank
                                    - ahead[ap, cluster[ap, order]])
    return slot, position, head


def derive_plan(h_eff: np.ndarray, layout: LinkLayout,
                config: NetworkConfig) -> SlotLinks:
    """Cluster, beamform and fix decode positions for every AP of a slot.

    ``h_eff`` is the (M, U, N_A) channel of every AP to every user of
    ``layout``."""
    se_ids, iot_ids, ap = layout.se_ids, layout.iot_ids, layout.ap
    m, s = se_ids.shape
    n_users = h_eff.shape[1]
    if s > config.rf_chains:
        raise ValueError("more clusters than RF chains")
    if n_users != layout.se_half.shape[1]:
        raise ValueError("every user must sit in exactly one cluster")
    cluster, sizes = cluster_users(h_eff, layout, config.cluster_cap)
    centers = h_eff[ap, se_ids]                               # (M, S, N_A)
    v = analog_beamformer(centers, config.n_sub, config.analog_phase_bits)
    # a cluster's center sums its members in join order: the head, then
    # IoT members by id
    np.add.at(centers, (ap, cluster), h_eff[ap, iot_ids])
    w, loaded = zf_digital_beamformer(centers / sizes[..., None], v,
                                      cond_threshold=config.zf_cond_threshold)
    per_ap = np.abs(h_eff @ (v @ w)) ** 2                     # (M, U, S)
    slot, position, head = decode_layout(layout, cluster, sizes, per_ap)
    gains = per_ap.transpose(1, 0, 2).reshape(n_users, m * s)
    return SlotLinks(gains, slot, position, head,
                     gains[layout.users, slot], v, w, loaded)


def power_terms(links: SlotLinks, alpha: np.ndarray):
    """Per user: inter-cluster interference and the power of the members
    decoded before it in its cluster, as two (U,) arrays."""
    # alpha by (cluster, position), behind a zero column: its running sum at
    # position p - 1 is the power of positions 1..p-1, its last the cluster's
    table = np.zeros((links.gains.shape[1],
                      np.maximum.reduce(links.position) + 1))
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
    if not np.logical_and.reduce(gamma >= 0, axis=None):  # NaN is rejected too
        raise ValueError("SINR must be non-negative")
    return bandwidth * np.log2(1.0 + gamma) / 1e9


def power_consumption(alpha: np.ndarray, ris_on: np.ndarray,
                      config: NetworkConfig) -> float:
    """Transmit power (with PA inefficiency) plus all circuit terms, W."""
    p_ap = (config.p_bb + config.rf_chains * config.p_rf
            + config.antennas * (config.p_ps + config.p_a))
    total = (config.pa_inefficiency * float(np.add.reduce(alpha, axis=None))
             + config.total_users * config.p_d
             + config.num_aps * p_ap
             + float(np.add.reduce(ris_on, axis=None)) * config.p_ris_element)
    return total


def energy_efficiency(rates: np.ndarray, power_w: float) -> float:
    """Sum rate over consumed power: Gbit per Joule."""
    if power_w <= 0:
        raise ValueError("power must be positive")
    return float(np.add.reduce(rates, axis=None) / power_w)
