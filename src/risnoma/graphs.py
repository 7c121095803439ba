"""The typed communication graph fed to the actors and critics.

Complex blocks are flattened as [real..., imag...] and divided by a reference
channel amplitude, that of an AP-side path (antenna gain included) over half
the room diagonal, so the networks see O(1) inputs on every room size; queue
weights are scaled by the per-user outage caps the env's ``QueueState``
holds (``q_max``), and power actions by the AP budget.

Node ids: APs are 0..M-1, RISs are M..M+J-1.  Edge kinds are "ap_ap",
"ap_ris" and "ris_ap"; every kind has a fixed feature width for a given
config (AP->RIS features reserve one slot per AP, zero-filled for APs
outside the RIS's neighborhood), so non-edges simply do not appear.  The
edges are the true entries of the topology's AP-AP and AP-RIS adjacencies
(RIS->AP: the transpose), sender-major.

A ``CommGraph`` is stored batched, as the nets consume it: one feature
matrix per node type, and per edge kind the sender and receiver rows plus
one feature matrix.  ``stack_graphs`` lays several graphs side by side in
the same form, so one pass of the nets covers a whole trajectory.

Every graph also carries its ``SegmentLayout``: where the embedding's
messages go, which its edges alone fix.  The nets average each node's
inbound messages over one segment space, the AP rows and then the RIS
rows; the layout holds the edge kinds that have edges, in receiver order,
each type's span of that space and the ``autodiff.Segments`` of the
message rows (the receivers of each kind in that order, RIS receivers
offset by the AP count).  An env decides it once, in its ``GraphLayout``,
and every graph it builds, and every ``astype`` copy, shares that one.
``stack_graphs`` offsets each graph's receivers by the rows of the graphs
before it and builds the batch's layout once from those, so a replay of
a trajectory decides it once per batch; a graph built by hand, or
relabelled, gets its own at construction.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Segments
from .channel import _amp
from .config import NetworkConfig
from .topology import Topology


NODE_TYPES = ("ap", "ris")
EDGE_ENDS = {"ap_ap": ("ap", "ap"), "ap_ris": ("ap", "ris"),
             "ris_ap": ("ris", "ap")}         # kind -> (sender, receiver)


@dataclass(frozen=True)
class SegmentLayout:
    """Where the messages of a graph's edges go (see the module
    docstring)."""
    kinds: tuple                   # edge kinds with edges, by receiver type
    spans: dict                    # node type -> its rows of the segments
    segments: Segments             # message rows, kinds in ``kinds`` order


def segment_layout(dst: dict, n_ap: int, n_ris: int) -> SegmentLayout:
    """The layout of edges with receiver rows ``dst`` (edge kind -> (E,))
    among ``n_ap`` AP and ``n_ris`` RIS nodes."""
    spans = {"ap": slice(0, n_ap), "ris": slice(n_ap, n_ap + n_ris)}
    kinds = tuple(k for t in NODE_TYPES for k, (_, r) in EDGE_ENDS.items()
                  if r == t and len(dst[k]))
    ids = np.concatenate([dst[k] + spans[EDGE_ENDS[k][1]].start
                          for k in kinds] + [np.zeros(0, dtype=np.intp)])
    return SegmentLayout(kinds, spans, Segments(ids, n_ap + n_ris))


@dataclass
class CommGraph:
    """Typed communication graph in batched form.

    ``nodes[t]`` is the (n_t, d_t) feature matrix of node type t; row i of
    ``nodes["ap"]`` is node i and row r of ``nodes["ris"]`` is node M + r.
    For an edge kind, ``src[kind]`` and ``dst[kind]`` are (E,) row indices
    into the sender's and the receiver's type, and ``edge_feat[kind]`` is
    the (E, d_kind) feature matrix, one row per edge.  ``layout`` is the
    graph's ``SegmentLayout``, made from ``dst`` at construction unless
    given, so the edges are fixed once the graph is built.
    """
    nodes: dict
    src: dict
    dst: dict
    edge_feat: dict
    layout: SegmentLayout = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.layout is None:
            self.layout = segment_layout(self.dst, len(self.nodes["ap"]),
                                         len(self.nodes["ris"]))

    @property
    def num_edges(self) -> int:
        return sum(len(self.src[kind]) for kind in EDGE_ENDS)

    def astype(self, dtype) -> "CommGraph":
        """This graph with node and edge features in ``dtype``, sharing the
        edge rows; the graph itself when its features already are."""
        dtype = np.dtype(dtype)
        arrays = [*self.nodes.values(), *self.edge_feat.values()]
        if {a.dtype for a in arrays} == {dtype}:
            return self
        return CommGraph(
            {t: a.astype(dtype, copy=False) for t, a in self.nodes.items()},
            dict(self.src), dict(self.dst),
            {k: f.astype(dtype, copy=False) for k, f in self.edge_feat.items()},
            self.layout)

    def permuted(self, perm: np.ndarray) -> "CommGraph":
        """Relabel nodes by ``perm`` (node i becomes perm[i]), features
        carried.  Node ids fix the type, so ``perm`` must map APs to APs and
        RISs to RISs."""
        perm = np.asarray(perm)
        rows, start = {}, 0
        for t in NODE_TYPES:
            n = len(self.nodes[t])
            rows[t] = perm[start:start + n] - start
            if not np.array_equal(np.sort(rows[t]), np.arange(n)):
                raise ValueError("a relabelling must keep every node's type")
            start += n
        nodes = {}
        for t in NODE_TYPES:
            nodes[t] = np.empty_like(self.nodes[t])
            nodes[t][rows[t]] = self.nodes[t]
        src = {k: rows[s][self.src[k]] for k, (s, _) in EDGE_ENDS.items()}
        dst = {k: rows[r][self.dst[k]] for k, (_, r) in EDGE_ENDS.items()}
        return CommGraph(nodes, src, dst, dict(self.edge_feat))


def stack_graphs(graphs, dtype=None) -> CommGraph:
    """One graph holding ``graphs`` side by side: for every node type the
    rows of graph b follow those of graph b - 1, and edges follow their
    nodes, receivers offset by the rows before them; its segment layout is
    built once from those offset rows.  With a ``dtype``, node and edge
    features are cast to it as they are stacked."""
    graphs = list(graphs)
    sizes = {t: np.array([len(g.nodes[t]) for g in graphs]) for t in NODE_TYPES}
    offset = {t: np.cumsum(sizes[t]) - sizes[t] for t in NODE_TYPES}
    nodes = {t: np.concatenate([g.nodes[t] for g in graphs], dtype=dtype)
             for t in NODE_TYPES}
    src, dst, feat = {}, {}, {}
    for kind, (sender, receiver) in EDGE_ENDS.items():
        src[kind] = np.concatenate([g.src[kind] + offset[sender][b]
                                    for b, g in enumerate(graphs)])
        dst[kind] = np.concatenate([g.dst[kind] + offset[receiver][b]
                                    for b, g in enumerate(graphs)])
        feat[kind] = np.concatenate([g.edge_feat[kind] for g in graphs],
                                    dtype=dtype)
    return CommGraph(nodes, src, dst, feat)


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
        self.phase = 1.0 / max(1, 2 ** config.ris_phase_bits - 1)


def _rows(z: np.ndarray) -> np.ndarray:
    """Every leading-axis slice flattened as [real..., imag...]:
    (n, ...) -> (n, 2 * size)."""
    flat = z.reshape(z.shape[0], math.prod(z.shape[1:]))
    return np.concatenate([flat.real, flat.imag], axis=1)


@dataclass(frozen=True)
class GraphLayout:
    """The parts of a comm graph that topology and config fix: the input
    scales, the (M, K) users of each AP, the reciprocal outage caps of those
    users, every edge's sender and receiver, the graphs' segment layout,
    and the gather indices that read an edge's features off the slot's
    channels.  An env builds it once."""
    scale: FeatureScale
    users: np.ndarray              # (M, K) the topology's user table
    qinv: np.ndarray               # (M, K) reciprocal outage caps
    src: dict                      # edge kind -> (E,) sender rows
    dst: dict                      # edge kind -> (E,) receiver rows
    segments: SegmentLayout        # where the messages of those edges go
    near: np.ndarray               # (E_ap_ris * M, 1) AP slot inside r's neighborhood
    ris_users: np.ndarray          # (E_ris_ap, K) users of each RIS->AP receiver
    ap: np.ndarray                 # (M, 1) AP row index


def graph_layout(topo: Topology, config: NetworkConfig,
                 q_max: np.ndarray) -> GraphLayout:
    """The layout of ``topo``'s graphs; ``q_max`` holds each user's outage
    cap, as the env's ``QueueState`` does."""
    scale = FeatureScale(config)
    users = topo.users
    qinv = 1.0 / q_max[users]
    src, dst = {}, {}
    src["ap_ap"], dst["ap_ap"] = np.nonzero(topo.ap_ap)
    src["ap_ris"], dst["ap_ris"] = np.nonzero(topo.ap_ris)
    src["ris_ap"], dst["ris_ap"] = np.nonzero(topo.ap_ris.T)
    segments = segment_layout(dst, len(users), len(topo.ris_positions))
    layout = GraphLayout(scale, users, qinv, src, dst, segments,
                         topo.ap_ris.T[dst["ap_ris"]].reshape(-1, 1),
                         users[dst["ris_ap"]], np.arange(len(users))[:, None])
    for arr in (qinv, layout.near, layout.ris_users, layout.ap,
                *src.values(), *dst.values()):
        arr.flags.writeable = False   # every graph of the env shares them
    return layout


def build_comm_graph(direct: np.ndarray, effective: np.ndarray,
                     ris_user: np.ndarray, ap_ris: np.ndarray,
                     weights: np.ndarray, last_power: np.ndarray,
                     last_on: np.ndarray, last_phase: np.ndarray,
                     layout: GraphLayout) -> CommGraph:
    scale, users, src, dst = layout.scale, layout.users, layout.src, layout.dst
    m = len(users)
    ap_nodes = np.concatenate([
        _rows(direct[layout.ap, users]) * scale.chan,   # own channels
        weights[users] * layout.qinv,
        last_power[users] * scale.power,
    ], axis=1)
    ris_nodes = np.concatenate([
        np.asarray(last_on, dtype=float),
        np.asarray(last_phase, dtype=float) * scale.phase,
    ], axis=1)

    feat = {}
    # AP i -> AP i2: i's channels to the users of i2
    feat["ap_ap"] = _rows(direct[src["ap_ap"][:, None], users[dst["ap_ap"]]]
                          ) * scale.chan
    # AP i -> RIS r: i's effective channels to every AP's users, one slot
    # per AP (zero-filled outside r's neighborhood keeps the width fixed)
    blocks = effective[src["ap_ris"]][:, users]       # (E, M, K, N_A)
    e = len(blocks)
    slots = _rows(blocks.reshape((e * m,) + blocks.shape[2:]))
    slots = np.where(layout.near, slots * scale.chan, 0.0)
    feat["ap_ris"] = slots.reshape(e, m * slots.shape[1])
    # RIS r -> AP i: the AP->RIS block and the RIS's channels to i's users
    r_, i_ = src["ris_ap"], dst["ris_ap"]
    feat["ris_ap"] = np.concatenate([
        _rows(ap_ris[i_, r_]) * scale.chan,
        _rows(ris_user[r_[:, None], layout.ris_users]) * scale.chan,
    ], axis=1)
    return CommGraph({"ap": ap_nodes, "ris": ris_nodes}, dict(src), dict(dst),
                     feat, layout.segments)
