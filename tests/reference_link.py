"""The per-AP link planner, kept as a reference for the stacked one.

``derive_plan`` here plans one AP from lists of user ids and returns a
``LinkPlan`` whose ``clusters`` list each cluster's members by decode
position; ``slot_links`` turns the plans of a slot into the ``SlotLinks``
layout that ``risnoma.linklayer.derive_plan`` returns directly.  The
stacked planner must agree with this one bit for bit.  The code is the
per-AP form the planner had before it was stacked; only ``slot_links``
also fills the stacked ``v``, ``w`` and ``zf_loaded`` fields.
"""
import warnings

import numpy as np

from risnoma.config import NetworkConfig
from risnoma.linklayer import SlotLinks

from literal_link import LinkPlan


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
                     gains[np.arange(n_users), slot],
                     np.array([p.v for p in plans]),
                     np.array([p.w for p in plans]),
                     np.array([p.zf_loaded for p in plans]))


LINK_FIELDS = ("gains", "slot", "position", "head", "own", "v", "w",
               "zf_loaded")


def reference_links(h_eff: np.ndarray, se_ids, iot_ids,
                    config: NetworkConfig) -> SlotLinks:
    """A slot planned AP by AP, then laid out by ``slot_links``."""
    plans = [derive_plan(h_eff[m], list(se), list(iot), config)
             for m, (se, iot) in enumerate(zip(np.asarray(se_ids).tolist(),
                                               np.asarray(iot_ids).tolist()))]
    return slot_links(h_eff, plans)


def assert_same_links(got: SlotLinks, want: SlotLinks,
                      names=LINK_FIELDS) -> None:
    """The ``names`` fields equal bit for bit, dtype and shape included."""
    for name in names:
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), name
        assert a.tobytes() == b.tobytes(), name
