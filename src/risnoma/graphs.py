"""Agent observations and the typed communication graph fed to the actors.

Complex blocks are flattened as [real..., imag...] and divided by a reference
channel amplitude, that of an AP-side path (antenna gain included) over half
the room diagonal, so the networks see O(1) inputs on every room size; queue
weights are scaled by their outage caps and power actions by the AP budget.

Node ids: APs are 0..M-1, RISs are M..M+J-1.  Edge kinds are "ap_ap",
"ap_ris" and "ris_ap"; every kind has a fixed feature width for a given
config (AP->RIS features reserve one slot per AP, zero-filled for APs
outside the RIS's neighborhood), so non-edges simply do not appear.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import _amp
from .config import NetworkConfig
from .topology import Topology


def cvec(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z).ravel()
    return np.concatenate([z.real, z.imag])


@dataclass
class AgentObservation:
    kind: str                      # "ap" | "ris"
    blocks: dict                   # named feature blocks, in a fixed order

    @property
    def vector(self) -> np.ndarray:
        parts = [np.asarray(v, dtype=float).ravel() for v in self.blocks.values()]
        return np.concatenate(parts) if parts else np.zeros(0)


@dataclass
class CommGraph:
    node_kind: list                # "ap"/"ris" per node
    node_feat: list                # per node: 1-D float array
    edges: list = field(default_factory=list)       # (src, dst, kind)
    edge_feat: list = field(default_factory=list)   # matching 1-D arrays

    @property
    def num_nodes(self) -> int:
        return len(self.node_kind)

    def permuted(self, perm: np.ndarray) -> "CommGraph":
        """Relabel nodes by ``perm`` (node i becomes perm[i]), features carried."""
        n = self.num_nodes
        node_kind = [None] * n
        node_feat = [None] * n
        for i in range(n):
            node_kind[perm[i]] = self.node_kind[i]
            node_feat[perm[i]] = self.node_feat[i]
        edges = [(int(perm[s]), int(perm[d]), kind) for s, d, kind in self.edges]
        return CommGraph(node_kind, node_feat, edges, list(self.edge_feat))


class FeatureScale:
    """Per-config input scales.

    ``chan`` is the reciprocal of the amplitude an AP-side path has over half
    the room diagonal.  Channel entries are path amplitudes spread over unit-
    norm array responses, so scaled entries stay O(1) whatever the room size,
    carrier or noise floor; the noise floor is not the reference, because it
    would make the scale track the SNR instead of the geometry.
    """

    def __init__(self, config: NetworkConfig):
        half_diag = 0.5 * np.sqrt(config.room_x ** 2 + config.room_y ** 2
                                  + config.room_z ** 2)
        self.chan = 1.0 / _amp(config, half_diag)
        self.power = 1.0 / config.max_tx_power
        qmax_se, qmax_iot = config.qmax_gbit
        self.qinv_se = 1.0 / qmax_se
        self.qinv_iot = 1.0 / qmax_iot
        self.phase = 1.0 / max(1, 2 ** config.ris_phase_bits - 1)


def ap_observation(ap: int, direct: np.ndarray, weights: np.ndarray,
                   last_power: np.ndarray, topo: Topology,
                   scale: FeatureScale) -> AgentObservation:
    """Own/neighbor direct channels, own queue weights, own last power action."""
    own = topo.users_of(ap)
    qinv = np.where(topo.user_kind[own] == 0, scale.qinv_se, scale.qinv_iot)
    blocks = {
        "own_direct": cvec(direct[ap, own]) * scale.chan,
        "weights": weights[own] * qinv,
        "last_action": last_power[own] * scale.power,
    }
    for m in topo.ap_neighbor_ap[ap]:
        blocks[f"direct_to_ap{m}"] = cvec(direct[ap, topo.users_of(m)]) * scale.chan
    return AgentObservation("ap", blocks)


def ris_observation(ris: int, ris_user: np.ndarray, ap_ris: np.ndarray,
                    last_on: np.ndarray, last_phase: np.ndarray,
                    topo: Topology, scale: FeatureScale) -> AgentObservation:
    """Neighboring-AP channel blocks and the RIS's own last action; no queues."""
    blocks = {}
    for m in topo.ris_neighbor_ap[ris]:
        blocks[f"to_users_ap{m}"] = cvec(ris_user[ris, topo.users_of(m)]) * scale.chan
        blocks[f"from_ap{m}"] = cvec(ap_ris[m, ris]) * scale.chan
    blocks["last_action"] = np.concatenate([
        np.asarray(last_on, dtype=float),
        np.asarray(last_phase, dtype=float) * scale.phase,
    ])
    return AgentObservation("ris", blocks)


def build_comm_graph(direct: np.ndarray, effective: np.ndarray,
                     ris_user: np.ndarray, ap_ris: np.ndarray,
                     weights: np.ndarray, last_power: np.ndarray,
                     last_on: np.ndarray, last_phase: np.ndarray,
                     topo: Topology, config: NetworkConfig) -> CommGraph:
    scale = FeatureScale(config)
    m, j = config.num_aps, config.num_ris

    node_kind, node_feat = [], []
    for i in range(m):
        obs = ap_observation(i, direct, weights, last_power, topo, scale)
        node_kind.append("ap")
        node_feat.append(np.concatenate([
            obs.blocks["own_direct"], obs.blocks["weights"],
            obs.blocks["last_action"],
        ]))
    for r in range(j):
        node_kind.append("ris")
        node_feat.append(np.concatenate([
            np.asarray(last_on[r], dtype=float),
            np.asarray(last_phase[r], dtype=float) * scale.phase,
        ]))

    graph = CommGraph(node_kind, node_feat)
    for i in range(m):
        for i2 in topo.ap_neighbor_ap[i]:
            feat = cvec(direct[i, topo.users_of(i2)]) * scale.chan
            graph.edges.append((i, i2, "ap_ap"))
            graph.edge_feat.append(feat)
        for r in topo.ap_neighbor_ris[i]:
            # one zero-filled slot per AP keeps the width fixed per config
            slots = []
            for mm in range(m):
                block = cvec(effective[i, topo.users_of(mm)]) * scale.chan
                if mm not in topo.ris_neighbor_ap[r]:
                    block = np.zeros_like(block)
                slots.append(block)
            graph.edges.append((i, m + r, "ap_ris"))
            graph.edge_feat.append(np.concatenate(slots))
    for r in range(j):
        for i in topo.ris_neighbor_ap[r]:
            feat = np.concatenate([
                cvec(ap_ris[i, r]) * scale.chan,
                cvec(ris_user[r, topo.users_of(i)]) * scale.chan,
            ])
            graph.edges.append((m + r, i, "ris_ap"))
            graph.edge_feat.append(feat)
    return graph


def state_digest(graph: CommGraph) -> np.ndarray:
    """Fixed-order concatenation of node features (the mixer's state input)."""
    return np.concatenate([np.asarray(f, dtype=float) for f in graph.node_feat])


def feature_dims(config: NetworkConfig, topo: Topology) -> dict:
    """Edge/node feature widths implied by the config (for net construction)."""
    k, n_a, n_el = config.users_per_ap, config.antennas, config.ris_elements
    return {
        "ap_node": 2 * k * n_a + k + k,
        "ris_node": 2 * n_el,
        "ap_ap": 2 * k * n_a,
        "ap_ris": config.num_aps * 2 * k * n_a,
        "ris_ap": 2 * n_el * n_a + 2 * k * n_el,
    }
