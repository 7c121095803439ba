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
and its parameters get no gradient), aggregation is one ``segment_reduce``
per receiving type, and each combine layer is one dense op per node type.
The trunk, heads and critics then run on those rows.  The GRU is one
``ad.gru_scan`` op per agent type: it steps through the slots in order, each
step over the agents of that slot in every episode side by side, and records
a single tape node.  A replay of E episodes of T slots therefore lays its
graphs out slot-major (slot t of every episode, then slot t + 1) and starts
from ``gru_zero(E)``.  Under ``self.store.no_grad()`` the same code runs on
plain arrays and returns them in place of Tensors.  Shapes, for n_t agents
of type t (M APs, J RISs, K users per AP, L elements, P phase levels):

  embed        {t: (B * n_t, ztilde_dim(t))}
  act          ActionSample with slot axis 1, log-probs (1, M + J), next GRU
               states {t: (n_t, gru_hidden)}
  log_prob     log-probs (T * E, M + J) of T stored slots of E episodes,
               slot-major, and the final states
  local_value  (B, M + J), agents in node order
  global_value (B,) from (B, digest_dim) digests and (B, M + J) local values

Parameter name prefixes partition the update rules:
  emb.*     embedding nets           (policy + critic gradients)
  act.*     action trunk and heads   (policy gradient)
  critic.*  local/central value nets (critic gradient)
  mix.*     hypernetwork mixer       (its own learning rate)
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import nn
from .autodiff import ParamStore, Tensor
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
    n_layers: int = 2
    aggregation: str = "mean"
    embed_mode: str = "mpgnn"      # mpgnn | raw | none
    critic_mode: str = "mix"       # mix | central


@dataclass
class ActionSample:
    """Raw draws of every agent over T slots; enough to replay exact
    log-probabilities.  Arrays are (T, agents of the type, ...)."""
    gaussian: np.ndarray       # (T, M, K+1) AP raw logits
    on_off: np.ndarray         # (T, J, L) RIS binaries
    phase: np.ndarray          # (T, J, L) RIS category picks

    @property
    def steps(self) -> int:
        return self.gaussian.shape[0]

    @staticmethod
    def stack(samples) -> "ActionSample":
        """Join per-slot samples along the slot axis."""
        samples = list(samples)
        return ActionSample(*(np.concatenate([getattr(s, f) for s in samples])
                              for f in ("gaussian", "on_off", "phase")))


class GEVDACPolicy:
    """Shared-parameter actor/critic stack over a communication graph."""

    def __init__(self, dims: dict, counts: dict, pcfg: PolicyConfig, seed: int):
        self.dims = dict(dims)                 # node/edge feature widths
        self.counts = dict(counts)             # num_aps, num_ris, users_per_ap,
        self.pcfg = pcfg                       # ris_elements, n_phase, max_power,
        self.store = ParamStore(seed)          # digest_dim
        self._node_dim = {"ap": dims["ap_node"], "ris": dims["ris_node"]}
        self._count = {"ap": counts["num_aps"], "ris": counts["num_ris"]}
        self._build_params()

    # -- eager parameter creation (stable checkpoints, zero-lr identity) -----
    def _build_params(self):
        p, dims = self.pcfg, self.dims
        for kind in EDGE_ENDS:
            if p.embed_mode == "raw":
                self.store.param(f"emb.{kind}.raw.w", (dims[kind], p.msg_dim))
                self.store.param(f"emb.{kind}.raw.b", (p.msg_dim,), kind="zeros")
            elif p.embed_mode == "mpgnn":
                for layer in range(1, p.n_layers + 1):
                    z_dim = (self._node_dim[EDGE_ENDS[kind][0]]
                             if layer == 1 else p.hidden)
                    self.store.param(f"emb.{kind}.l{layer}.w",
                                     (z_dim + dims[kind], p.msg_dim))
                    self.store.param(f"emb.{kind}.l{layer}.b", (p.msg_dim,),
                                     kind="zeros")
        for u in ("ap", "ris"):
            if p.n_layers == 0:
                self.store.param(f"emb.{u}.proj.w", (self._node_dim[u], p.hidden))
                self.store.param(f"emb.{u}.proj.b", (p.hidden,), kind="zeros")
            else:
                for layer in range(1, p.n_layers + 1):
                    z_dim = self._node_dim[u] if layer == 1 else p.hidden
                    self.store.param(f"emb.{u}.comb.l{layer}.w",
                                     (z_dim + p.msg_dim, p.hidden))
                    self.store.param(f"emb.{u}.comb.l{layer}.b", (p.hidden,),
                                     kind="zeros")
            zt = self.ztilde_dim(u)
            g = p.gru_hidden
            self.store.param(f"act.{u}.pre.w", (zt, g))
            self.store.param(f"act.{u}.pre.b", (g,), kind="zeros")
            for gate in ("zx", "rx", "cx"):
                self.store.param(f"act.{u}.gru.{gate}.w", (g, g))
                self.store.param(f"act.{u}.gru.{gate}.b", (g,), kind="zeros")
            for gate in ("zh", "rh", "ch"):
                self.store.param(f"act.{u}.gru.{gate}.w", (g, g))
                self.store.param(f"act.{u}.gru.{gate}.b", (g,), kind="zeros")
            self.store.param(f"act.{u}.post.w", (g, g))
            self.store.param(f"act.{u}.post.b", (g,), kind="zeros")
            self.store.param(f"critic.{u}.h.w", (zt, p.critic_hidden))
            self.store.param(f"critic.{u}.h.b", (p.critic_hidden,), kind="zeros")
            self.store.param(f"critic.{u}.out.w", (p.critic_hidden, 1))
            self.store.param(f"critic.{u}.out.b", (1,), kind="zeros")
        k = self.counts["users_per_ap"]
        g = p.gru_hidden
        self.store.param("act.ap.mean.w", (g, k + 1))
        self.store.param("act.ap.mean.b", (k + 1,), kind="zeros")
        self.store.param("act.ap.logstd.w", (g, k + 1))
        self.store.param("act.ap.logstd.b", (k + 1,), kind="zeros")
        n_el, n_ph = self.counts["ris_elements"], self.counts["n_phase"]
        self.store.param("act.ris.onoff.w", (g, n_el))
        self.store.param("act.ris.onoff.b", (n_el,), kind="zeros")
        self.store.param("act.ris.phase.w", (g, n_el * n_ph))
        self.store.param("act.ris.phase.b", (n_el * n_ph,), kind="zeros")
        d = self.counts["digest_dim"]
        if p.critic_mode == "mix":
            self.store.param("mix.hw1.w", (d, self._n_agents * p.mix_hidden))
            self.store.param("mix.hw1.b", (self._n_agents * p.mix_hidden,),
                             kind="zeros")
            self.store.param("mix.hb1.w", (d, p.mix_hidden))
            self.store.param("mix.hb1.b", (p.mix_hidden,), kind="zeros")
            self.store.param("mix.hw2.w", (d, p.mix_hidden))
            self.store.param("mix.hw2.b", (p.mix_hidden,), kind="zeros")
            self.store.param("mix.hb2a.w", (d, p.mix_hidden))
            self.store.param("mix.hb2a.b", (p.mix_hidden,), kind="zeros")
            self.store.param("mix.hb2b.w", (p.mix_hidden, 1))
            self.store.param("mix.hb2b.b", (1,), kind="zeros")
        else:
            c = p.critic_hidden
            self.store.param("critic.central.l0.w", (d, c))
            self.store.param("critic.central.l0.b", (c,), kind="zeros")
            self.store.param("critic.central.l1.w", (c, c))
            self.store.param("critic.central.l1.b", (c,), kind="zeros")
            self.store.param("critic.central.l2.w", (c, 1))
            self.store.param("critic.central.l2.b", (1,), kind="zeros")

    @property
    def _n_agents(self) -> int:
        return self.counts["num_aps"] + self.counts["num_ris"]

    def ztilde_dim(self, kind: str) -> int:
        return self._node_dim[kind] + self.pcfg.hidden

    def gru_zero(self, episodes: int = 1) -> dict:
        """GRU states of every agent at the start of an episode, for
        ``episodes`` episodes side by side: {type: (episodes * n_type,
        gru_hidden)}, row ``e * n_type + i`` for agent i of episode e."""
        return {t: np.zeros((episodes * n, self.pcfg.gru_hidden))
                for t, n in self._count.items()}

    # -- graph embedding ------------------------------------------------------
    def embed(self, graphs) -> dict:
        """Embedded states [own features, embedding] of every agent in a
        batch of graphs: {type: (B * n_type, ztilde_dim) rows}."""
        p = self.pcfg
        g = stack_graphs(graphs)
        x = g.nodes
        z = x
        if p.n_layers == 0:
            z = {t: nn.dense(self.store, f"emb.{t}.proj", x[t],
                             self._node_dim[t], p.hidden, "tanh")
                 for t in NODE_TYPES}
        feat = g.edge_feat
        sends = p.embed_mode in ("mpgnn", "raw")
        kinds = [k for k in EDGE_ENDS if sends and len(g.src[k])]
        inbound = {t: [k for k in kinds if EDGE_ENDS[k][1] == t]
                   for t in NODE_TYPES}
        dst = {t: np.concatenate([g.dst[k] for k in inbound[t]]
                                 + [np.zeros(0, dtype=np.intp)])
               for t in NODE_TYPES}
        msgs = {}
        for layer in range(1, p.n_layers + 1):
            if p.embed_mode == "mpgnn":
                for kind in kinds:
                    sender = EDGE_ENDS[kind][0]
                    z_dim = self._node_dim[sender] if layer == 1 else p.hidden
                    msgs[kind] = nn.dense(
                        self.store, f"emb.{kind}.l{layer}",
                        ad.concat([z[sender][g.src[kind]], feat[kind]]),
                        z_dim + self.dims[kind], p.msg_dim, "tanh")
            elif p.embed_mode == "raw" and layer == 1:  # the same every layer
                for kind in kinds:
                    msgs[kind] = nn.dense(self.store, f"emb.{kind}.raw",
                                          feat[kind], self.dims[kind],
                                          p.msg_dim, "tanh")
            new_z = {}
            for t in NODE_TYPES:
                rows = (ad.concat([msgs[k] for k in inbound[t]], axis=0)
                        if inbound[t] else np.zeros((0, p.msg_dim)))
                agg = ad.segment_reduce(p.aggregation, rows, dst[t],
                                        len(g.nodes[t]))
                z_dim = self._node_dim[t] if layer == 1 else p.hidden
                new_z[t] = nn.dense(
                    self.store, f"emb.{t}.comb.l{layer}",
                    ad.concat([z[t], agg]), z_dim + p.msg_dim, p.hidden,
                    "tanh")
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
        pre = nn.dense(self.store, f"act.{kind}.pre", z_tilde,
                       self.ztilde_dim(kind), p.gru_hidden, "tanh")
        states = ad.gru_scan(pre, gru_state, nn.gru_params(
            self.store, f"act.{kind}.gru", p.gru_hidden, p.gru_hidden))
        post = nn.dense(self.store, f"act.{kind}.post", states, p.gru_hidden,
                        p.gru_hidden, "tanh")
        return post, states[-rows:]

    def _heads(self, z_tilde: dict, gru_state: dict):
        """Trunks and distribution heads of both agent types."""
        g, k = self.pcfg.gru_hidden, self.counts["users_per_ap"]
        n_el, n_ph = self.counts["ris_elements"], self.counts["n_phase"]
        post, h = {}, {}
        for t in NODE_TYPES:
            post[t], h[t] = self._trunk(z_tilde[t], t, gru_state[t])
        mean = nn.dense(self.store, "act.ap.mean", post["ap"], g, k + 1)
        log_std = ad.clip(
            nn.dense(self.store, "act.ap.logstd", post["ap"], g, k + 1)
            + LOG_STD_OFFSET, LOG_STD_MIN, LOG_STD_MAX)
        onoff = nn.dense(self.store, "act.ris.onoff", post["ris"], g, n_el)
        phase = nn.dense(self.store, "act.ris.phase", post["ris"], g,
                         n_el * n_ph).reshape(post["ris"].shape[0], n_el, n_ph)
        return (mean, log_std, onoff, phase), h

    def act(self, z_tilde: dict, gru_state: dict, rng: np.random.Generator,
            deterministic: bool = False):
        """Sample (or take the mode of) every agent's action in one slot;
        returns (ActionSample, log-probs (1, M + J), next GRU states)."""
        heads, h = self._heads(z_tilde, gru_state)
        mean, log_std, onoff, phase = (ad.value_of(t) for t in heads)
        if deterministic:
            draw = mean.copy()
            on = (onoff > 0).astype(int)
            picks = phase.argmax(axis=-1)
        else:
            draw = mean + np.exp(log_std) * rng.standard_normal(mean.shape)
            # per RIS: L on/off uniforms, then L phase uniforms
            u = rng.random((self._count["ris"], 2, onoff.shape[-1]))
            on = (u[:, 0] < _sigmoid(onoff)).astype(int)
            picks = _inverse_cdf(_softmax(phase), u[:, 1])
        sample = ActionSample(draw[None], on[None], picks[None])
        return sample, self._score(sample, *heads), h

    def log_prob(self, z_tilde: dict, gru_state: dict, sample: ActionSample):
        """Replay path: exact log-probabilities of stored slots whose
        embedded states are ``z_tilde``, and the final GRU states.

        For E episodes side by side (``gru_state`` from ``gru_zero(E)``) and
        T slots, ``z_tilde`` rows and ``sample`` are slot-major, episode
        within slot: ``sample`` holds T * E one-slot samples along its slot
        axis, and the log-probs are (T * E, M + J) in that order."""
        heads, h = self._heads(z_tilde, gru_state)
        return self._score(sample, *heads), h

    def _score(self, sample: ActionSample, mean, log_std, onoff,
               phase):
        """Log-probabilities (T, M + J) of ``sample`` under the heads."""
        steps = sample.steps
        gauss = sample.gaussian.reshape(mean.shape)
        zed = (gauss - mean) * ad.exp(-log_std)
        ap = (ad.square(zed).sum(axis=1) * (-0.5) - log_std.sum(axis=1)
              - 0.5 * LOG2PI * gauss.shape[1])
        on = sample.on_off.reshape(onoff.shape).astype(float)
        bern = (on * (-ad.softplus(-onoff))
                + (1.0 - on) * (-ad.softplus(onoff))).sum(axis=1)
        rows, n_el = on.shape
        picked = ad.log_softmax(phase)[np.arange(rows)[:, None],
                                       np.arange(n_el),
                                       sample.phase.reshape(rows, n_el)]
        ris = bern + picked.sum(axis=1)
        return ad.concat([ap.reshape(steps, self._count["ap"]),
                          ris.reshape(steps, self._count["ris"])])

    # -- critics ---------------------------------------------------------------
    def local_value(self, z_tilde: dict) -> Tensor:
        """Per-agent values (B, M + J) of a batch of B slots."""
        p = self.pcfg
        slots = z_tilde["ap"].shape[0] // self._count["ap"]
        values = []
        for t in NODE_TYPES:
            hidden = nn.dense(self.store, f"critic.{t}.h", z_tilde[t],
                              self.ztilde_dim(t), p.critic_hidden, "tanh")
            out = nn.dense(self.store, f"critic.{t}.out", hidden,
                           p.critic_hidden, 1)
            values.append(out.reshape(slots, self._count[t]))
        return ad.concat(values)

    def global_value(self, digest, values) -> Tensor:
        """V_tot of each slot from its (..., digest_dim) state digest and its
        (..., M + J) local values; returns one value per leading index."""
        p = self.pcfg
        d = self.counts["digest_dim"]
        digest = np.asarray(digest)
        if p.critic_mode == "mix":
            return nn.hyper_mixing(self.store, "mix", digest, values, d,
                                   p.mix_hidden)
        out = nn.mlp(self.store, "critic.central", digest,
                     [d, p.critic_hidden, p.critic_hidden, 1])
        return out.reshape(digest.shape[:-1])

    # -- env action assembly -----------------------------------------------------
    def env_action(self, sample: ActionSample):
        """Map the last slot of ``sample`` onto (power, on, phase) env arrays."""
        k, p_max = self.counts["users_per_ap"], self.counts["max_power"]
        draw = sample.gaussian[-1]
        split = _softmax(draw[:, :k])
        total = p_max * _sigmoid(draw[:, k])
        power = (split * total[:, None]).ravel()
        return power, sample.on_off[-1].copy(), sample.phase[-1].copy()

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


def _softmax(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis."""
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _inverse_cdf(p: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Category of each uniform ``u`` under the matching row of ``p``; the
    arithmetic of ``Generator.choice(len(row), p=row)`` fed the same draw."""
    cdf = np.cumsum(p, axis=-1)
    cdf /= cdf[..., -1:]
    return (cdf <= u[..., None]).sum(axis=-1)


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-np.minimum(np.maximum(x, -500), 500)))


def policy_for_env(env, pcfg: PolicyConfig, seed: int) -> GEVDACPolicy:
    from .graphs import feature_dims
    cfg = env.config
    dims = feature_dims(cfg, env.topo)
    counts = dict(num_aps=cfg.num_aps, num_ris=cfg.num_ris,
                  users_per_ap=cfg.users_per_ap,
                  ris_elements=cfg.ris_elements,
                  n_phase=2 ** cfg.ris_phase_bits,
                  max_power=cfg.max_tx_power,
                  digest_dim=(cfg.num_aps * dims["ap_node"]
                              + cfg.num_ris * dims["ris_node"]))
    return GEVDACPolicy(dims, counts, pcfg, seed)
