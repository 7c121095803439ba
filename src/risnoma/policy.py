"""Graph-embedded actors, per-agent critics, and the monotone value mixer.

All agents of one type share parameters.  The actor stacks a message-passing
embedding over the communication graph, a dense/GRU/dense action trunk, and
distribution heads (Gaussian allocation logits for APs, Bernoulli + categorical
element controls for RISs).  Critics read the same embedded state, so the
embedding trunk is shared between policy and value losses; heads are disjoint.

Everything runs batched.  ``embed`` takes a batch of B graphs (one slot, or
every slot of a batch of episodes) and returns, per node type, the embedded
states of all its agents as rows, graph-major: row ``b * n_t + i`` is agent i
of that type in graph b.  Each message layer is one dense op per edge kind
over all edges of the batch (a kind with no edges in the batch is skipped,
and its parameters get no gradient) and one ``tanh`` over the messages of
every kind, joined; every agent then averages its inbound messages in one
``segment_mean`` per layer, whose segments are the AP rows and then the RIS
rows, and each combine layer is one dense op per node type over its own
slice of that mean.  Where the messages go is the graph's ``layout``
(``graphs.SegmentLayout``: the kinds with edges, in receiver order, each
type's span and the ``autodiff.Segments`` of the message rows): an env
builds it once and every graph it makes carries it, and ``stack_graphs``
builds the batch's once from the offset edge rows, so ``embed`` itself
decides no part of the layout.
Message and combine layers read their input as parts, [sender state, edge
features] and [own state, aggregate], so the backward pass never forms a
gradient for the raw feature columns.
The trunk, heads and critics then run on those rows.  The GRU is one
``ad.gru_scan`` op per agent type: it steps through the slots in order, each
step over the agents of that slot in every episode side by side, and records
a single tape node.  A replay of E episodes of T slots therefore lays its
graphs out slot-major (slot t of every episode, then slot t + 1) and starts
from ``gru_zero(E)``.  Under ``self.store.no_grad()`` the same code runs on
plain arrays and returns them in place of Tensors.  Shapes, for n_t agents
of type t (M APs, J RISs, K users per AP, L elements, P phase levels):

  embed        {t: (B * n_t, node width of t + hidden)}
  act          ActionSample of the agent rows of B graphs, (B * M, K+1) AP
               and (B * J, L) RIS draws, and the next GRU states
               {t: (B * n_t, gru_hidden)}; the draws are not scored
  log_prob     log-probs (T * E, M + J) of T stored slots of E episodes,
               slot-major, and the final states
  local_value  (B, M + J), agents in node order
  global_value (B,) from (B, state width) states and (B, M + J) local values
  value        (B,) from embedded states

Dtype.  The learner computes in the dtype of its ``ParamStore``, float32
unless the policy is built with ``dtype=np.float64`` (kept for the
finite-difference and exact-identity tests).  ``embed`` casts graph
features that are not yet in it once per call (``rollout`` already stores
its graphs in it), and ``act`` its float64 random draws before
it mixes them in, so every head, log-prob and stored Gaussian draw is in
the store's dtype and a replay scores exactly what was drawn.  ``value``
reads the mixer's state off the embedded rows, already in that dtype.
``env_action`` hands the env float64 arrays: the physics, rewards and
queues stay float64.

Parameters.  Each one is declared once, by the layer call that uses it
(``nn.dense``, ``nn.gru_params``), which names the layer and gives its
output width; the call that makes it reads the input width off the input.
Sibling layers that read the same rows are one dense layer whose output
columns are sliced: the GRU's z, r and c gates are one weight over the input
(``act.{t}.gru.x``) and one over the state (``act.{t}.gru.h``), the AP head
``act.ap.head`` gives the Gaussian means then the log-stds, and the RIS head
``act.ris.head`` the L on/off logits then the L * P phase logits.
Construction creates them all by one tape-free pass of ``embed``, ``act``
(with no generator, so no random draw) and ``value`` over a zero graph of
the policy's widths with one edge of every kind whose two ends exist.
``ParamStore.param`` seeds each value from its name, so the order of
creation does not matter.  A type without agents runs its nets on zero
rows; edge kinds it would end have no parameters, and in central mode the
local critics ``critic.ap.*`` / ``critic.ris.*`` do not exist.

Parameter name prefixes partition the update rules:
  emb.*     embedding nets           (policy + critic gradients)
  act.*     action trunk and heads   (policy gradient)
  critic.*  local/central value nets (critic gradient)
  mix.*     hypernetwork mixer       (its own learning rate)
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import nn
from .autodiff import ParamStore, Tensor
from .config import check_counts
from .graphs import EDGE_ENDS, NODE_TYPES, CommGraph, stack_graphs

LOG2PI = float(np.log(2.0 * np.pi))
LOG_STD_OFFSET = -1.0
LOG_STD_MIN, LOG_STD_MAX = -20.0, 2.0


@dataclass
class PolicyConfig:
    msg_dim: int = 16
    hidden: int = 16
    gru_hidden: int = 32
    critic_hidden: int = 32
    mix_hidden: int = 32
    n_layers: int = 2              # message-passing rounds, at least one
    embed_mode: str = "mpgnn"      # mpgnn | raw | none
    critic_mode: str = "mix"       # mix | central

    def __post_init__(self):
        for name, allowed in (("embed_mode", ("mpgnn", "raw", "none")),
                              ("critic_mode", ("mix", "central"))):
            if getattr(self, name) not in allowed:
                raise ValueError(f"{name} must be one of {allowed}, got "
                                 f"{getattr(self, name)!r}")
        check_counts(self, dict.fromkeys(
            ("msg_dim", "hidden", "gru_hidden", "critic_hidden", "mix_hidden",
             "n_layers"), 1))


@dataclass
class ActionSample:
    """Raw draws of every agent; enough to replay exact log-probabilities.
    Arrays are agent rows, as every batched array of the nets: one graph's,
    or several graphs' in order (row ``s * n_t + i`` is agent i of graph s
    among the n_t agents of its type), be they slots or episodes."""
    gaussian: np.ndarray       # (T * M, K+1) AP raw logits, store dtype
    on_off: np.ndarray         # (T * J, L) RIS binaries
    phase: np.ndarray          # (T * J, L) RIS category picks

    @staticmethod
    def stack(samples) -> "ActionSample":
        """Join samples slot-major: each one's rows follow the rows of the
        one before."""
        samples = list(samples)
        return ActionSample(*(np.concatenate([getattr(s, f) for s in samples])
                              for f in ("gaussian", "on_off", "phase")))


class GEVDACPolicy:
    """Shared-parameter actor/critic stack over a communication graph."""

    def __init__(self, dims: dict, counts: dict, pcfg: PolicyConfig, seed: int,
                 dtype=np.float32):
        self.dims = dict(dims)  # widths by node type and edge kind: "ap", ...
        # agents per node type ("ap", "ris"), users_per_ap, ris_elements,
        # n_phase, max_power
        self.counts = dict(counts)
        self.pcfg = pcfg
        self.store = ParamStore(seed, dtype)
        # -- parameter creation: one tape-free pass of every net over a zero
        # graph creates each parameter at the call that uses it, so a
        # checkpoint taken before any step already holds them all.
        with self.store.no_grad():
            z = self.embed([self._probe_graph()])
            self.act(z, self.gru_zero(), None)
            self.value(z)

    def _probe_graph(self) -> CommGraph:
        """A zero graph of this policy's widths and agent counts, with one
        edge of every kind whose two ends exist."""
        nodes = {t: np.zeros((self.counts[t], self.dims[t]))
                 for t in NODE_TYPES}
        ends = {k: np.zeros(int(all(self.counts[t] for t in EDGE_ENDS[k])),
                            dtype=np.intp) for k in EDGE_ENDS}
        feat = {k: np.zeros((len(ends[k]), self.dims[k])) for k in EDGE_ENDS}
        return CommGraph(nodes, ends, ends, feat)

    def gru_zero(self, episodes: int = 1) -> dict:
        """GRU states of every agent at the start of an episode, for
        ``episodes`` episodes side by side: {type: (episodes * n_type,
        gru_hidden)}, row ``e * n_type + i`` for agent i of episode e."""
        return {t: np.zeros((episodes * self.counts[t], self.pcfg.gru_hidden),
                            self.store.dtype)
                for t in NODE_TYPES}

    # -- graph embedding ------------------------------------------------------
    def embed(self, graphs) -> dict:
        """Embedded states [own features, embedding] of every agent in a
        list of graphs: {type: (B * n_type, node width + hidden) rows}."""
        p, dtype = self.pcfg, self.store.dtype
        g = (graphs[0].astype(dtype) if len(graphs) == 1
             else stack_graphs(graphs, dtype))
        x = z = g.nodes
        layout = g.layout
        kinds = layout.kinds if p.embed_mode != "none" else ()
        feat = g.edge_feat
        # without messages every node averages over no rows: zeros
        agg = np.zeros((layout.segments.n, p.msg_dim), dtype)
        for layer in range(1, p.n_layers + 1):
            msgs = []
            if p.embed_mode == "mpgnn":
                for kind in kinds:
                    msgs.append(nn.dense(
                        self.store, f"emb.{kind}.l{layer}",
                        [z[EDGE_ENDS[kind][0]][g.src[kind]], feat[kind]],
                        p.msg_dim))
            elif p.embed_mode == "raw" and layer == 1:  # the same every layer
                msgs = [nn.dense(self.store, f"emb.{kind}.raw", feat[kind],
                                 p.msg_dim) for kind in kinds]
            if msgs:  # tanh once over every message of the layer
                rows = ad.tanh(msgs[0] if len(msgs) == 1
                               else ad.concat(msgs, axis=0))
            if kinds:
                agg = ad.segment_mean(rows, layout.segments)
            new_z = {}
            for t in NODE_TYPES:
                new_z[t] = nn.dense(
                    self.store, f"emb.{t}.comb.l{layer}",
                    [z[t], agg[layout.spans[t]]], p.hidden, "tanh")
            z = new_z
        return {t: ad.concat([x[t], z[t]]) for t in NODE_TYPES}

    # -- action trunk and heads -------------------------------------------------
    def _trunk(self, z_tilde, kind: str, gru_state):
        """pre/post dense layers on all rows, and between them the GRU as
        one ``gru_scan`` from ``gru_state``: each step takes as many rows as
        the state has (the agents of one slot, of every episode side by
        side).  Returns post and the state after the last step."""
        p = self.pcfg
        rows = gru_state.shape[0]
        pre = nn.dense(self.store, f"act.{kind}.pre", z_tilde, p.gru_hidden,
                       "tanh")
        states = ad.gru_scan(pre, gru_state, nn.gru_params(
            self.store, f"act.{kind}.gru", pre, gru_state))
        post = nn.dense(self.store, f"act.{kind}.post", states, p.gru_hidden,
                        "tanh")
        return post, states[-rows:]

    def _heads(self, z_tilde: dict, gru_state: dict):
        """Trunks and distribution heads of both agent types."""
        k = self.counts["users_per_ap"]
        n_el, n_ph = self.counts["ris_elements"], self.counts["n_phase"]
        post, h = {}, {}
        for t in NODE_TYPES:
            post[t], h[t] = self._trunk(z_tilde[t], t, gru_state[t])
        ap = nn.dense(self.store, "act.ap.head", post["ap"], 2 * (k + 1))
        mean = ap[:, :k + 1]
        log_std = ad.clip(ap[:, k + 1:] + LOG_STD_OFFSET, LOG_STD_MIN,
                          LOG_STD_MAX)
        ris = nn.dense(self.store, "act.ris.head", post["ris"],
                       n_el + n_el * n_ph)
        onoff = ris[:, :n_el]
        phase = ris[:, n_el:].reshape(ris.shape[0], n_el, n_ph)
        return (mean, log_std, onoff, phase), h

    def act(self, z_tilde: dict, gru_state: dict,
            rng: np.random.Generator | None):
        """Every agent's action in one slot of one or more graphs side by
        side (a ``gru_state`` row per agent row): drawn from ``rng``, or each
        agent's mode if it is None.  Returns (ActionSample, next GRU states),
        not scored: ``log_prob`` does that, on the replay that needs it."""
        heads, h = self._heads(z_tilde, gru_state)
        mean, log_std, onoff, phase = map(ad.value_of, heads)
        if rng is None:
            draw = mean.copy()
            on = (onoff > 0).astype(int)
            picks = phase.argmax(axis=-1)
        else:
            noise = rng.standard_normal(mean.shape).astype(mean.dtype,
                                                           copy=False)
            draw = mean + np.exp(log_std) * noise
            # per RIS row: L on/off uniforms, then L phase uniforms
            u = rng.random((onoff.shape[0], 2, onoff.shape[1]))
            on = (u[:, 0] < ad.sigmoid(onoff)).astype(int)
            picks = _inverse_cdf(_softmax(phase), u[:, 1])
        return ActionSample(draw, on, picks), h

    def log_prob(self, z_tilde: dict, gru_state: dict, sample: ActionSample):
        """Replay path: exact log-probabilities of stored slots whose
        embedded states are ``z_tilde``, and the final GRU states.

        For E episodes side by side (``gru_state`` from ``gru_zero(E)``) and
        T slots, ``z_tilde`` rows and ``sample`` rows are slot-major,
        episode within slot: ``sample`` holds the agent rows of T * E
        one-slot samples, and the log-probs are (T * E, M + J) in that
        order."""
        (mean, log_std, onoff, phase), h = self._heads(z_tilde, gru_state)
        gauss = sample.gaussian
        steps = len(gauss) // self.counts["ap"]
        zed = (gauss - mean) * ad.exp(-log_std)
        ap = (ad.square(zed).sum(axis=1) * (-0.5) - log_std.sum(axis=1)
              - 0.5 * LOG2PI * gauss.shape[1])
        on = sample.on_off.astype(ad.value_of(onoff).dtype)
        bern = (on * (-ad.softplus(-onoff))
                + (1.0 - on) * (-ad.softplus(onoff))).sum(axis=1)
        rows, n_el = on.shape
        picked = ad.log_softmax(phase)[np.arange(rows)[:, None],
                                       np.arange(n_el), sample.phase]
        ris = bern + picked.sum(axis=1)
        return ad.concat([ap.reshape(steps, self.counts["ap"]),
                          ris.reshape(steps, self.counts["ris"])]), h

    # -- critics ---------------------------------------------------------------
    def local_value(self, z_tilde: dict) -> Tensor:
        """Per-agent values (B, M + J) of a batch of B slots."""
        p = self.pcfg
        slots = z_tilde["ap"].shape[0] // self.counts["ap"]
        values = []
        for t in NODE_TYPES:
            hidden = nn.dense(self.store, f"critic.{t}.h", z_tilde[t],
                              p.critic_hidden, "tanh")
            out = nn.dense(self.store, f"critic.{t}.out", hidden, 1)
            values.append(out.reshape(slots, self.counts[t]))
        return ad.concat(values)

    def global_value(self, state, values) -> Tensor:
        """V_tot of each slot from its (..., state width) global state and
        its (..., M + J) local values; returns one value per leading index."""
        p = self.pcfg
        state = np.asarray(state, dtype=self.store.dtype)
        if p.critic_mode == "mix":
            return nn.hyper_mixing(self.store, "mix", state, values,
                                   p.mix_hidden)
        hidden = nn.dense(self.store, "critic.central.l0", state,
                          p.critic_hidden, "tanh")
        hidden = nn.dense(self.store, "critic.central.l1", hidden,
                          p.critic_hidden, "tanh")
        out = nn.dense(self.store, "critic.central.l2", hidden, 1)
        return out.reshape(state.shape[:-1])

    def value(self, z_tilde: dict) -> Tensor:
        """V_tot (B,) of a batch of B slots from their embedded states.  The
        global state of a slot is its agents' own node features, the
        leading columns of their embedded rows: the AP rows, then the RIS
        rows, flattened.  Only the mixer reads the local values, so in
        central mode the local critics neither run nor exist."""
        slots = z_tilde["ap"].shape[0] // self.counts["ap"]
        state = np.concatenate(
            [ad.value_of(z_tilde[t])[:, :self.dims[t]].reshape(slots, -1)
             for t in NODE_TYPES], axis=1)
        mixes = self.pcfg.critic_mode == "mix"
        return self.global_value(state,
                                 self.local_value(z_tilde) if mixes else None)

    # -- env action assembly -----------------------------------------------------
    def env_action(self, sample: ActionSample):
        """Map a one-slot ``sample`` onto (power, on, phase) env arrays,
        computed in float64 whatever the store's dtype."""
        k, p_max = self.counts["users_per_ap"], self.counts["max_power"]
        draw = sample.gaussian.astype(np.float64, copy=False)
        split = _softmax(draw[:, :k])
        total = p_max * ad.sigmoid(draw[:, k])
        power = (split * total[:, None]).ravel()
        return power, sample.on_off.copy(), sample.phase.copy()

    # -- bookkeeping ---------------------------------------------------------------
    def exchange_volume(self, graph: CommGraph) -> int:
        """Scalars crossing agent boundaries per slot under this mode."""
        p = self.pcfg
        if p.embed_mode == "mpgnn":
            return p.n_layers * graph.num_edges * p.msg_dim
        if p.embed_mode == "raw":
            return int(sum(f.size for f in graph.edge_feat.values()))
        return 0

    def parameter_blocks(self) -> dict:
        blocks = {"policy": [], "critic": [], "mix": []}
        for name in self.store.names():
            if name.startswith(("emb.", "act.")):
                blocks["policy"].append(name)
            elif name.startswith("critic."):
                blocks["critic"].append(name)
            else:
                blocks["mix"].append(name)
        return blocks


# the ufunc reductions that ``max``, ``sum`` and ``cumsum`` call, without
# the array methods' Python wrappers
def _softmax(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis."""
    e = np.exp(x - np.maximum.reduce(x, axis=-1, keepdims=True))
    return e / np.add.reduce(e, axis=-1, keepdims=True)


def _inverse_cdf(p: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Category of each uniform ``u`` under the matching row of ``p``; the
    arithmetic of ``Generator.choice(len(row), p=row)`` fed the same draw."""
    cdf = np.add.accumulate(p, axis=-1)
    cdf /= cdf[..., -1:]
    return np.add.reduce(cdf <= u[..., None], axis=-1)


def policy_for_env(env, pcfg: PolicyConfig, seed: int,
                   dtype=np.float32) -> GEVDACPolicy:
    """The policy for ``env``'s agents, their counts and feature widths
    read off the shapes of the env's comm graph."""
    cfg = env.config
    graph = env.comm_graph()
    dims = {t: x.shape[1] for t, x in graph.nodes.items()}
    dims.update((k, f.shape[1]) for k, f in graph.edge_feat.items())
    counts = {t: len(x) for t, x in graph.nodes.items()}
    counts.update(users_per_ap=cfg.users_per_ap,
                  ris_elements=cfg.ris_elements,
                  n_phase=2 ** cfg.ris_phase_bits,
                  max_power=cfg.max_tx_power)
    return GEVDACPolicy(dims, counts, pcfg, seed, dtype)
