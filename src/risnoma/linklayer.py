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
  It holds the IoT ids in join order, each AP's first cluster column, the
  IoT join ranks, the SE half of ``slot`` and ``position`` and the flat
  index arrays a slot gathers through: the rows of each AP's Gram
  members, heads and IoT users in the (M·U, N_A) channel rows, the head
  of each cluster column and each user's row offset in the flat ``gains``.
  Its construction checks that every user sits in exactly one cluster, so
  a slot does only the channel-dependent work.
- Cluster n of AP m is headed by SE user ``se_ids[m, n]`` and is column
  ``m·S + n`` of the slot.  IoT users join one at a time in ascending id
  order, and a cluster centre sums its members in that join order, head
  first.
- The analog stage gathers the served head entries and scatters its
  phase-shifter entries through flat index arrays that depend only on
  (M, N_R, n_sub = N_A / N_R); ``_analog_index`` builds them once per shape.
- ``SlotLinks.gains`` is the (U, M·S) matrix |h_u^(m) V^(m) w_n^(m)|²;
  ``slot`` (U,) is the column of each user's own cluster, ``position``
  (U,) its 1-based decode position (head = 1), ``head`` (U,) its cluster's
  head and ``own`` (U,) its gain in its own column.
- ``SlotLinks.v`` (M, N_A, S) and ``w`` (M, S, S) are the stacked analog
  and digital stages, and ``zf_loaded`` (M,) flags the APs whose ZF Gram
  was diagonally loaded.
- SIC flags are a (U,) 0/1 array, 1 where the head fails to cancel that
  user's signal; heads get 0.
- ``power_terms`` carries the (U,) power split ``alpha`` and the per-user
  sums built from it: inter-cluster interference, the power decoded before
  the user in its cluster, signal and interference.  A slot builds them
  once; ``sic_feasibility`` and ``sinr_all`` read the split from them too.

Scalar operands of the per-slot ufunc calls are 0-d float64 arrays
(``_ZERO``, ``_ONE``, ``_GIGA``): numpy takes them at less per-call cost
than Python floats, and the results are the same bits.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

from .config import NetworkConfig

_ZERO, _ONE, _GIGA = np.array(0.0), np.array(1.0), np.array(1e9)
for _c in (_ZERO, _ONE, _GIGA):
    _c.flags.writeable = False


@dataclass(frozen=True)
class LinkLayout:
    """The parts of a slot's link plan that the topology fixes (see the
    module docstring); ``link_layout`` builds it and an env keeps one."""
    se_ids: np.ndarray             # (M, S) cluster heads
    iot_ids: np.ndarray            # (M, I) ascending: the join order
    ap: np.ndarray                 # (M, 1) AP row index
    first_col: np.ndarray          # (M, 1) column of each AP's cluster 0
    join_rank: np.ndarray          # (I,) 2, 3, ...: positions after the head
    member_rows: np.ndarray        # (M, S + I) rows of each AP's Gram
    head_rows: np.ndarray          # (M, S) rows of the cluster heads
    iot_rows: np.ndarray           # (M, I) rows of the IoT users
    heads: np.ndarray              # (M·S,) head of each cluster column
    own_at: np.ndarray             # (U,) u·M·S: user u's row in flat gains
    se_slot: np.ndarray            # (U,) SE columns filled, IoT entries 0
    first_position: np.ndarray     # (U,) 1 for SE users, 2 for IoT users


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
    row = n_users * ap                      # AP m's rows start at m·U
    se_slot = np.zeros(n_users, dtype=np.intp)
    se_slot[se_ids] = first_col + np.arange(s)
    first_position = np.full(n_users, 2, dtype=np.intp)
    first_position[se_ids] = 1
    layout = LinkLayout(se_ids, iot_ids, ap, first_col, join_rank,
                        row + members, row + se_ids, row + iot_ids,
                        se_ids.ravel(), m * s * np.arange(n_users), se_slot,
                        first_position)
    for arr in vars(layout).values():
        arr.flags.writeable = False   # every slot of the env shares them
    return layout


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
    sub = h_eff.reshape(-1, h_eff.shape[2]).take(layout.member_rows, axis=0)
    gram = sub.conj() @ sub.transpose(0, 2, 1)
    norm = np.sqrt(gram.diagonal(0, 1, 2).real)
    norms = norm[:, s:, None] * norm[:, None, :s]
    # a zero channel has zero inner products: dividing them by 1 gives 0
    corr = np.abs(gram[:, s:, :s]) / np.where(norms > _ZERO, norms, _ONE)
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


@lru_cache(maxsize=None)
def _analog_index(m: int, n_r: int, n_sub: int):
    """Flat indices of M APs' sub-connected analog stage, both (M, N_R,
    n_sub): where head r's served entry k sits in the (M, N_R, N_A) head
    channels (row r, antenna r·n_sub + k), and where its phase shifter sits
    in the (M, N_A, N_R) analog matrices (antenna r·n_sub + k, column r)."""
    n_a = n_r * n_sub
    ap, r, k = np.ogrid[:m, :n_r, :n_sub]
    antenna = r * n_sub + k
    served = (ap * n_r + r) * n_a + antenna
    placed = (ap * n_a + antenna) * n_r + r
    served.flags.writeable = placed.flags.writeable = False
    return served, placed


def analog_beamformer(head_channels: np.ndarray, bits: int) -> np.ndarray:
    """Block-diagonal sub-connected analog matrices, one subarray per head:
    (M, N_R, N_A) head channels give (M, N_A, N_R).

    Each phase shifter is quantized to the head-channel entry it serves:
    the grid point closest to the entry's unit phasor, conjugated so the
    product steers real-positive.  Zero entries default to phase 0.
    """
    m, n_r, n_a = head_channels.shape
    n_sub = n_a // n_r
    grid, entries = _phase_grid(bits, n_sub)
    served_at, placed_at = _analog_index(m, n_r, n_sub)
    served = head_channels.take(served_at)                   # (M, N_R, n_sub)
    mag = np.abs(served)
    # a zero entry keeps target 0, equidistant from the grid: phase 0 wins
    target = served / np.where(mag > _ZERO, mag, _ONE)
    best = np.abs(grid - target[..., None]).argmin(axis=-1)
    v = np.zeros(m * n_a * n_r, dtype=complex)
    v[placed_at] = entries.take(best)
    return v.reshape(m, n_a, n_r)


def _lapack_failed(err, flag):
    raise LinAlgError("LAPACK failed on a ZF Gram")


def zf_digital_beamformer(centers: np.ndarray, v: np.ndarray, *,
                          cond_threshold: float):
    """Zero-forcing across each AP's cluster centers with unit ``||V w||``
    columns: (M, N_R, N_A) complex centers and (M, N_A, N_R) analog
    matrices give the (M, N_R, N_R) digital matrices and the (M,) loading
    flags.

    A Gram whose condition number exceeds ``cond_threshold`` (a slot's is
    ``NetworkConfig.zf_cond_threshold``) gets diagonal loading (1e-8 x mean
    eigenvalue) and its AP's loading flag, which ``SlotLinks.zf_loaded`` and
    ``StepOutcome.zf_loaded`` carry on, so degenerate clustering is visible;
    no warning is raised.  The Gram is Hermitian and positive semi-definite,
    so its condition number is its largest eigenvalue over its smallest; a
    smallest eigenvalue at or below 0 counts as singular.  An all-zero Gram
    (every center a zero channel) has no scale to load by; it gets unit
    loading, which yields zero beams.  Each AP decides on its own.  A Gram
    with a non-finite eigenvalue (a NaN center, say) raises
    ``LinAlgError``, as a LAPACK failure does.
    """
    h_eff = centers @ v
    h_adj = h_eff.conj().swapaxes(1, 2)
    gram = h_eff @ h_adj
    n_r = gram.shape[1]
    # the LAPACK gufuncs behind np.linalg.eigvalsh and np.linalg.inv,
    # called bare: their wrappers' checks cost more than the work at these
    # sizes.  Their error state is the wrappers': a LAPACK failure raises
    with np.errstate(call=_lapack_failed, invalid="call", over="ignore",
                     divide="ignore", under="ignore"):
        # ascending; a 1 x 1 Gram's one eigenvalue is its real diagonal, the
        # value LAPACK returns for it without iterating
        eig = (gram.real.reshape(-1, 1) if n_r == 1
               else _umath_linalg.eigvalsh_lo(gram))
        # per AP, on Python floats: M tests cost less than one numpy call each
        flags = []
        for row in eig.tolist():
            low, high = row[0], row[-1]
            if not -math.inf < low <= high < math.inf:  # NaN fails too
                raise LinAlgError("ZF Gram is not finite")
            flags.append(low <= 0 or high / (low if low > 0 else 1.0)
                         > cond_threshold)
        loaded = np.array(flags, dtype=bool)
        if any(flags):
            mean_eig = np.trace(gram, 0, 1, 2).real / n_r
            load = np.where(mean_eig > 0, 1e-8 * mean_eig, 1.0)
            gram[loaded] = (gram + load[:, None, None] * np.eye(n_r))[loaded]
        inverse = _umath_linalg.inv(gram)
    w = h_adj @ inverse
    beams = v @ w
    # ||V w_n||, formed as np.linalg.norm(beams, axis=1) forms it
    norms = np.sqrt(np.add.reduce((beams.conj() * beams).real, axis=1))
    return w / np.where(norms > _ZERO, norms, _ONE)[:, None, :], loaded


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


def decode_layout(layout: LinkLayout, cols: np.ndarray, sizes: np.ndarray,
                  gains: np.ndarray):
    """Cluster column, decode position, head and own gain of every user.

    ``cols`` (M, I) is the column each of ``layout.iot_ids`` joined,
    ``sizes`` (M, S) the cluster sizes and ``gains`` the (U, M·S) beam
    gains.  Within a cluster the head comes first, then IoT members by
    descending gain in that cluster, ties by user id.  Returns (U,)
    ``slot``, ``position``, ``head`` and ``own``."""
    slot = layout.se_slot.copy()
    slot.put(layout.iot_ids, cols)
    own = gains.take(layout.own_at + slot)
    position = layout.first_position.copy()
    # a cluster of at most one IoT member has it at position 2
    if np.maximum.reduce(sizes, axis=None) > 2:
        iot_ids, ap = layout.iot_ids, layout.ap
        # each AP's IoT users by cluster, then by descending gain; lexsort
        # is stable, so ties stay in id order
        order = np.lexsort((-own[iot_ids], cols))
        joined = sizes - 1
        ahead = joined.cumsum(axis=1) - joined  # IoT users in lower clusters
        position[iot_ids[ap, order]] = (layout.join_rank
                                        - ahead.take(cols[ap, order]))
    return slot, position, layout.heads.take(slot), own


def derive_plan(h_eff: np.ndarray, layout: LinkLayout,
                config: NetworkConfig) -> SlotLinks:
    """Cluster, beamform and fix decode positions for every AP of a slot.

    ``h_eff`` is the (M, U, N_A) channel of every AP to every user of
    ``layout``."""
    m, s = layout.se_ids.shape
    n_users, n_a = h_eff.shape[1:]
    if s > config.rf_chains:
        raise ValueError("more clusters than RF chains")
    if n_users != layout.se_slot.shape[0]:
        raise ValueError("every user must sit in exactly one cluster")
    cluster, sizes = cluster_users(h_eff, layout, config.cluster_cap)
    rows = h_eff.reshape(-1, n_a)
    centers = rows.take(layout.head_rows, axis=0)            # (M, S, N_A)
    v = analog_beamformer(centers, config.analog_phase_bits)
    # a cluster's center sums its members in join order: the head, then
    # IoT members by id.  np.add.at adds entry by entry in index order, and
    # takes its fast path only with one flat index into a flat array
    cols = layout.first_col + cluster                         # (M, I)
    np.add.at(centers.reshape(-1), (cols[..., None] * n_a
                                    + np.arange(n_a)).reshape(-1),
              rows.take(layout.iot_rows, axis=0).reshape(-1))
    w, loaded = zf_digital_beamformer(centers / sizes[..., None], v,
                                      cond_threshold=config.zf_cond_threshold)
    per_ap = np.square(np.abs(h_eff @ (v @ w)))               # (M, U, S)
    gains = per_ap.transpose(1, 0, 2).reshape(n_users, m * s)
    slot, position, head, own = decode_layout(layout, cols, sizes, gains)
    return SlotLinks(gains, slot, position, head, own, v, w, loaded)


def power_terms(links: SlotLinks, alpha: np.ndarray):
    """What ``sic_feasibility`` and ``sinr_all`` share, as five (U,) arrays:
    the power split ``alpha``, the inter-cluster interference, the power of
    the members decoded before the user in its cluster, the user's received
    signal own·alpha and own·earlier + inter."""
    slot, position, own = links.slot, links.position, links.own
    depth = np.maximum.reduce(position) + 1
    # alpha by (cluster, position), behind a zero column, flattened: its
    # running sum at position p - 1 is the power of positions 1..p-1, its
    # last the cluster's
    at = slot * depth + position
    table = np.zeros((links.gains.shape[1], depth))
    table.put(at, alpha)
    before = table.cumsum(axis=1)
    powers = before[:, -1]
    inter = links.gains @ powers - own * powers.take(slot)
    earlier = before.take(at - 1)
    return alpha, inter, earlier, own * alpha, own * earlier + inter


def sic_feasibility(links: SlotLinks, sigma2: float, terms) -> np.ndarray:
    """Per-IoT-user cancellation test: the head's decode SINR for that
    user's signal must reach the user's own decode SINR.  ``terms`` is
    ``power_terms(links, alpha)``.  Returns (U,) 0/1 flags, 1 where SIC
    fails; heads get 0."""
    alpha, inter, earlier, signal, base = terms
    head = links.head
    own_head = links.own.take(head)
    at_head = own_head * alpha / (own_head * earlier + inter.take(head)
                                  + sigma2)
    at_self = signal / (base + sigma2)
    return ((links.position > 1) & ~(at_head >= at_self)).astype(int)  # NaN fails


def sinr_all(links: SlotLinks, sigma2: float, sic_fail: np.ndarray,
             terms) -> np.ndarray:
    """SINR per user given the (U,) SIC flags and ``power_terms(links,
    alpha)``: a head sees the residue of the IoT signals it failed to
    cancel, an IoT member every earlier one."""
    alpha, inter, _, signal, base = terms
    residue = np.bincount(links.slot, weights=alpha * sic_fail,
                          minlength=links.gains.shape[1])
    heard = np.where(links.position == 1,
                     links.own * residue.take(links.slot) + inter, base)
    return signal / (heard + sigma2)


def rates_gbps(gamma: np.ndarray, bandwidth: float) -> np.ndarray:
    """Shannon rate over the full band, in Gbps."""
    gamma = np.asarray(gamma, dtype=float)
    # the least of 0 and every SINR: NaN propagates and is rejected too
    if not np.minimum.reduce(gamma, axis=None, initial=_ZERO) >= 0:
        raise ValueError("SINR must be non-negative")
    return bandwidth * np.log2(_ONE + gamma) / _GIGA


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
