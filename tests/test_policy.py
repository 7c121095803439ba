import hashlib

import numpy as np
import pytest

from risnoma.autodiff import Tensor
from risnoma.env import NetworkEnv
from risnoma.graphs import EDGE_ENDS, NODE_TYPES, CommGraph, stack_graphs
from risnoma.policy import GEVDACPolicy, PolicyConfig, policy_for_env
from risnoma.presets import default_config, medium_config, tiny_config

from fd import fd_check


def synthetic_graph(rng, n_ap=2, n_ris=2, dims=None):
    dims = dims or {"ap": 6, "ris": 4, "ap_ap": 5, "ap_ris": 7, "ris_ap": 3}
    nodes = {"ap": rng.normal(size=(n_ap, dims["ap"])),
             "ris": rng.normal(size=(n_ris, dims["ris"]))}
    pairs = {"ap_ap": [(i, i2) for i in range(n_ap) for i2 in range(n_ap)
                       if i != i2],
             "ap_ris": [(i, r) for i in range(n_ap) for r in range(n_ris)],
             "ris_ap": [(r, i) for r in range(n_ris) for i in range(n_ap)]}
    src, dst, feat = {}, {}, {}
    for kind, edges in pairs.items():
        src[kind] = np.array([a for a, _ in edges], dtype=int)
        dst[kind] = np.array([b for _, b in edges], dtype=int)
        feat[kind] = rng.normal(size=(len(edges), dims[kind]))
    return CommGraph(nodes, src, dst, feat), dims


def graph_state(graph):
    """The mixer's state of one graph: its node rows, AP then RIS,
    flattened."""
    return np.concatenate([graph.nodes[t].ravel() for t in NODE_TYPES])


def node_rows(z):
    """Per-node vectors in node-id order (APs, then RISs)."""
    return [*z["ap"].value, *z["ris"].value]


def make_policy(dims, n_ap=2, n_ris=2, seed=0, dtype=np.float32, **pkw):
    counts = dict(ap=n_ap, ris=n_ris, users_per_ap=3,
                  ris_elements=4, n_phase=2, max_power=1.0)
    return GEVDACPolicy(dims, counts, PolicyConfig(**pkw), seed, dtype)


def type_permutation(rng, n_ap, n_ris):
    """Random relabeling that keeps agent types fixed."""
    perm = np.concatenate([rng.permutation(n_ap),
                           n_ap + rng.permutation(n_ris)])
    return perm.astype(int)


class TestPolicyConfig:
    @pytest.mark.parametrize("field, value", [
        ("embed_mode", "mpgn"), ("critic_mode", "centrl"),
        ("msg_dim", 0), ("hidden", 0), ("gru_hidden", 0), ("critic_hidden", 0),
        ("mix_hidden", 0), ("n_layers", 0), ("n_layers", -1),
        ("hidden", 16.5), ("n_layers", 1.5), ("msg_dim", 4.0),
        ("hidden", True)])
    def test_bad_values_rejected_at_construction(self, field, value):
        with pytest.raises(ValueError, match=field):
            PolicyConfig(**{field: value})

    def test_smallest_valid_values_accepted(self):
        cfg = PolicyConfig(msg_dim=1, hidden=1, gru_hidden=1, critic_hidden=1,
                           mix_hidden=1, n_layers=1, embed_mode="none",
                           critic_mode="central")
        assert cfg.n_layers == 1


class TestEmbedding:
    def test_no_inbound_edges_uses_own_state_only(self):
        rng = np.random.default_rng(0)
        graph, dims = synthetic_graph(rng)
        none = {k: np.zeros(0, dtype=int) for k in graph.src}
        lonely = CommGraph(graph.nodes, none, none,   # no edges at all
                           {k: np.zeros((0, dims[k])) for k in graph.src})
        policy = make_policy(dims)
        z = policy.embed([lonely])
        assert len(node_rows(z)) == 4
        # zero message slot: identical to a second pass, still well-defined
        z2 = policy.embed([lonely])
        for a, b in zip(node_rows(z), node_rows(z2)):
            assert np.array_equal(a, b)

    def test_embedded_dim(self):
        rng = np.random.default_rng(2)
        graph, dims = synthetic_graph(rng)
        policy = make_policy(dims)
        z = policy.embed([graph])
        for kind, feats in graph.nodes.items():
            assert z[kind].shape == (len(feats),
                                     feats.shape[1] + policy.pcfg.hidden)

    @pytest.mark.parametrize("mode", ["mpgnn", "raw", "none"])
    def test_permutation_equivariance_is_bitwise(self, mode):
        rng = np.random.default_rng(3)
        for trial in range(10):
            graph, dims = synthetic_graph(rng)
            policy = make_policy(dims, seed=trial, embed_mode=mode)
            perm = type_permutation(rng, 2, 2)
            z = node_rows(policy.embed([graph]))
            zp = node_rows(policy.embed([graph.permuted(perm)]))
            for i in range(4):
                assert np.array_equal(zp[perm[i]], z[i])

    @pytest.mark.parametrize("reduce", [np.mean], ids=["mean"])
    def test_matches_per_node_reference(self, reduce):
        # an independent node-by-node transcription of the message passing
        rng = np.random.default_rng(20)
        graph, dims = synthetic_graph(rng, n_ap=3, n_ris=2)
        src, dst, feat = {}, {}, {}
        for kind in graph.src:  # drop some edges: uneven in-degrees
            keep = rng.random(len(graph.src[kind])) < 0.7
            src[kind] = graph.src[kind][keep]
            dst[kind] = graph.dst[kind][keep]
            feat[kind] = graph.edge_feat[kind][keep]
        # a graph's edges are fixed when it is built
        graph = CommGraph(graph.nodes, src, dst, feat)
        policy = make_policy(dims, n_ap=3, dtype=np.float64)
        prm = {n: policy.store.get(n).value for n in policy.store.names()}
        ends = {"ap_ap": ("ap", "ap"), "ap_ris": ("ap", "ris"),
                "ris_ap": ("ris", "ap")}
        z = {t: list(graph.nodes[t]) for t in graph.nodes}
        for layer in (1, 2):
            inbox = {t: [[] for _ in z[t]] for t in z}
            for kind, (sender, receiver) in ends.items():
                w, b = prm[f"emb.{kind}.l{layer}.w"], prm[f"emb.{kind}.l{layer}.b"]
                for s, d, f in zip(graph.src[kind], graph.dst[kind],
                                   graph.edge_feat[kind]):
                    msg = np.tanh(np.concatenate([z[sender][s], f]) @ w + b)
                    inbox[receiver][d].append(msg)
            new = {}
            for t in z:
                w, b = prm[f"emb.{t}.comb.l{layer}.w"], prm[f"emb.{t}.comb.l{layer}.b"]
                new[t] = [np.tanh(np.concatenate([
                    z[t][i], reduce(inbox[t][i], axis=0) if inbox[t][i]
                    else np.zeros(policy.pcfg.msg_dim)]) @ w + b)
                    for i in range(len(z[t]))]
            z = new
        got = policy.embed([graph])
        for t in z:
            expect = np.concatenate([graph.nodes[t], np.array(z[t])], axis=1)
            np.testing.assert_allclose(got[t].value, expect, rtol=1e-12,
                                       atol=1e-14)

    def test_stacked_batch_equals_graph_by_graph(self):
        # unequal type counts, so row offsets of the two types differ
        rng = np.random.default_rng(21)
        graphs = [synthetic_graph(rng, n_ap=3)[0] for _ in range(3)]
        policy = make_policy(synthetic_graph(rng)[1], n_ap=3)
        batch = policy.embed(graphs)
        for b, graph in enumerate(graphs):
            one = policy.embed([graph])
            for t, rows in one.items():
                n = rows.shape[0]
                np.testing.assert_allclose(batch[t].value[b * n:(b + 1) * n],
                                           rows.value, rtol=1e-13, atol=1e-15)


def per_call_segments(g):
    """What ``embed`` derived from a graph on every call before graphs
    carried their segment layout, and what ``segment_mean`` then derived
    from the ids: (inbound kinds, type spans, segment ids, number of
    segments, rows per segment)."""
    kinds = [k for k in EDGE_ENDS if len(g.src[k])]
    n = {t: len(g.nodes[t]) for t in NODE_TYPES}
    span = {"ap": slice(0, n["ap"]), "ris": slice(n["ap"], None)}
    inbound = [k for t in NODE_TYPES for k in kinds if EDGE_ENDS[k][1] == t]
    dst = np.concatenate([g.dst[k] + span[EDGE_ENDS[k][1]].start
                          for k in inbound] + [np.zeros(0, dtype=np.intp)])
    total = sum(n.values())
    return inbound, span, dst, total, np.bincount(dst, minlength=total)


def default_graphs():
    """A default env and the 22 graphs it built for a train-default replay
    batch (2 rollouts of 10 slots plus each final graph), slot-major as
    ``update`` orders them."""
    env = NetworkEnv(default_config(), seed=4)
    rng = np.random.default_rng(4)
    cfg = env.config
    trajs = []
    for _ in range(2):
        env.reset()
        graphs = []
        for _ in range(10):
            graphs.append(env.comm_graph())
            env.step(rng.uniform(0, 0.2, cfg.total_users),
                     rng.integers(0, 2, (cfg.num_ris, cfg.ris_elements)),
                     rng.integers(0, 2, (cfg.num_ris, cfg.ris_elements)))
        trajs.append(graphs + [env.comm_graph()])
    batch = [tr[t] for t in range(11) for tr in trajs]
    return env, batch


class TestSegmentLayout:
    @pytest.mark.parametrize("case", ["one", "stacked", "permuted",
                                      "lonely"])
    def test_layout_is_what_embed_built_per_call(self, case):
        rng = np.random.default_rng(31)
        env, batch = default_graphs()
        if case == "one":
            graph = batch[0]
            # the env's one layout, carried by its graphs and their casts
            assert graph.layout is env._layout.segments
            assert graph.astype(np.float32).layout is graph.layout
        elif case == "stacked":
            graph = stack_graphs(batch, np.float32)
            assert len(batch) == 22 and graph.nodes["ap"].shape[0] == 66
        elif case == "permuted":
            graph = batch[3].permuted(type_permutation(rng, 3, 2))
        else:
            graph, dims = synthetic_graph(rng)
            none = {k: np.zeros(0, dtype=int) for k in graph.src}
            graph = CommGraph(graph.nodes, none, none,
                              {k: np.zeros((0, dims[k])) for k in graph.src})
        inbound, span, dst, total, counts = per_call_segments(graph)
        layout, segs = graph.layout, graph.layout.segments
        assert layout.kinds == tuple(inbound)
        rows = np.arange(total)
        for t in NODE_TYPES:
            assert np.array_equal(rows[layout.spans[t]], rows[span[t]])
        assert segs.n == total and segs.dst.dtype == np.intp
        assert np.array_equal(segs.dst, dst)
        assert segs.scatter == (np.count_nonzero(counts) == dst.size)
        if case != "lonely":
            assert len(dst) and not segs.scatter  # the fold path is covered
        # segment_mean's per-call order, ranks, depth, empties and scales
        vals = rng.normal(size=(len(dst), 3))
        seg = dst[np.lexsort((vals[:, 0], dst))]
        assert np.array_equal(segs.seg, seg)
        assert np.array_equal(segs.split, seg[1:] != seg[:-1])
        assert np.array_equal(
            segs.rank, np.arange(dst.size) - (np.cumsum(counts) - counts)[seg])
        assert segs.depth == counts.max(initial=0)
        if counts.all():
            assert segs.empty is None
        else:
            assert np.array_equal(segs.empty, counts == 0)
        for dtype in (np.float32, np.float64):
            want = 1.0 / np.maximum(counts, 1).astype(dtype)
            got = segs.scale(dtype)
            assert got.shape == (total, 1)
            assert got.tobytes() == want.tobytes()


class TestActionHeads:
    def test_clamped_log_std_gives_mean_action(self):
        rng = np.random.default_rng(4)
        graph, dims = synthetic_graph(rng)
        policy = make_policy(dims)
        # the log-std columns of the AP head's bias: clamps to the floor
        policy.store.get("act.ap.head.b").value[4:] = -100.0
        z = policy.embed([graph])
        s1, _ = policy.act(z, policy.gru_zero(), np.random.default_rng(0))
        s2, _ = policy.act(z, policy.gru_zero(), None)
        assert np.allclose(s1.gaussian, s2.gaussian, atol=1e-6)

    def test_zero_logit_onoff_frequency_is_half(self):
        rng = np.random.default_rng(5)
        graph, dims = synthetic_graph(rng)
        policy = make_policy(dims)
        for name in ("act.ris.head.w", "act.ris.head.b"):
            policy.store.get(name).value[..., :4] = 0.0  # on/off columns
        z = policy.embed([graph])
        draws = 5_000            # two RISs per draw
        ones = 0
        sample_rng = np.random.default_rng(6)
        for _ in range(draws):
            s, _ = policy.act(z, policy.gru_zero(), sample_rng)
            ones += s.on_off.sum()
        total = draws * 2 * 4
        freq = ones / total
        sigma = 0.5 / np.sqrt(total)
        assert abs(freq - 0.5) < 3 * sigma

    @pytest.mark.parametrize("sampled", [True, False])
    def test_act_takes_the_agent_rows_of_stacked_graphs(self, sampled):
        # two medium graphs side by side, one GRU state row per agent row:
        # every row gets an action
        cfg = medium_config()
        envs = [NetworkEnv(cfg, seed=s) for s in (0, 1)]
        policy = policy_for_env(envs[0], PolicyConfig(), 0)
        m, j = cfg.num_aps, cfg.num_ris
        rng = np.random.default_rng(0) if sampled else None
        with policy.store.no_grad():
            z = policy.embed([env.comm_graph() for env in envs])
            sample, h = policy.act(z, policy.gru_zero(2), rng)
        assert sample.gaussian.shape == (2 * m, cfg.users_per_ap + 1)
        assert sample.on_off.shape == (2 * j, cfg.ris_elements)
        assert sample.phase.shape == (2 * j, cfg.ris_elements)
        assert {t: len(h[t]) for t in NODE_TYPES} == {"ap": 2 * m,
                                                      "ris": 2 * j}

    def test_phase_picks_follow_generator_choice(self):
        # the batched inverse-CDF draw replays Generator.choice on each row
        rng = np.random.default_rng(22)
        graph, dims = synthetic_graph(rng)
        policy = make_policy(dims)
        policy.store.get("act.ris.head.b").value[4:] = rng.normal(size=8)
        z = policy.embed([graph])
        heads, _ = policy._heads(z, policy.gru_zero())
        logits = heads[3].value
        for seed in range(20):
            sample, _ = policy.act(z, policy.gru_zero(),
                                   np.random.default_rng(seed))
            ref = np.random.default_rng(seed)
            ref.standard_normal((2, 4))          # the AP draws come first
            for r in range(2):
                on = (ref.random(4) < 1 / (1 + np.exp(-heads[2].value[r])))
                picks = [ref.choice(2, p=np.exp(row - row.max())
                                    / np.exp(row - row.max()).sum())
                         for row in logits[r]]
                assert np.array_equal(sample.on_off[r], on.astype(int))
                assert np.array_equal(sample.phase[r], picks)

    def test_sliced_heads_match_finite_differences(self):
        # each head is one dense layer whose columns are sliced into the
        # distribution parameters; the slices send their gradients back
        rng = np.random.default_rng(23)
        graph, dims = synthetic_graph(rng)
        policy = make_policy(dims, msg_dim=4, hidden=4, gru_hidden=4,
                             dtype=np.float64)
        probes = [rng.normal(size=shape) for shape in
                  ((2, 4), (2, 4), (2, 4), (2, 4, 2))]
        z = {t: v.value for t, v in policy.embed([graph]).items()}
        h0 = {t: rng.normal(size=v.shape) for t, v in policy.gru_zero().items()}

        def build():
            heads, _ = policy._heads(z, h0)
            total = None
            for head, probe in zip(heads, probes):
                term = (head * probe).sum()
                total = term if total is None else total + term
            return total

        names = [n for n in policy.store.names() if n.startswith("act.")]
        assert {n for n in names if ".head." in n} == {
            "act.ap.head.w", "act.ap.head.b", "act.ris.head.w",
            "act.ris.head.b"}
        fd_check(build, policy.store, names=names)

    def test_gaussian_log_prob_closed_form(self):
        rng = np.random.default_rng(9)
        graph, dims = synthetic_graph(rng)
        policy = make_policy(dims, dtype=np.float64)
        z = policy.embed([graph])
        sample_rng = np.random.default_rng(10)
        sample, _ = policy.act(z, policy.gru_zero(), sample_rng)
        logp, _ = policy.log_prob(z, policy.gru_zero(), sample)
        # recompute the density from the head outputs by hand
        (mean, log_std, _, _), _ = policy._heads(z, policy.gru_zero())
        for i in range(2):
            mu, ls = mean.value[i], log_std.value[i]
            g = sample.gaussian[i]
            expect = float(-0.5 * (((g - mu) / np.exp(ls)) ** 2).sum()
                           - ls.sum() - 0.5 * g.size * np.log(2 * np.pi))
            assert logp.value[0, i] == pytest.approx(expect, rel=1e-12)

    def test_env_action_feasible(self):
        cfg = medium_config()
        env = NetworkEnv(cfg, seed=0)
        policy = policy_for_env(env, PolicyConfig(), 0)
        z = policy.embed([env.comm_graph()])
        sample_rng = np.random.default_rng(11)
        sample, _ = policy.act(z, policy.gru_zero(), sample_rng)
        power, on, phase = policy.env_action(sample)
        assert sample.gaussian.dtype == np.float32
        assert power.dtype == np.float64  # physics stays float64
        for users in env.topo.users:
            assert power[users].sum() <= cfg.max_tx_power + 1e-12
        assert np.all((on == 0) | (on == 1))
        assert np.all((phase >= 0) & (phase < 2 ** cfg.ris_phase_bits))
        env.step(power, on, phase)  # shapes accepted


class TestParameterLayout:
    """Sibling layers that read the same rows are one parameter each: the
    GRU's gates side by side in one input and one state weight, and one
    head layer per agent type."""

    @pytest.mark.parametrize("make, scalars", [(tiny_config, 28_335),
                                               (default_config, 1_185_105)],
                             ids=["tiny", "default"])
    def test_fused_arrays_hold_the_same_scalars(self, make, scalars):
        env = NetworkEnv(make(), seed=0)
        policy = policy_for_env(env, PolicyConfig(), 0)
        store = policy.store
        assert len(store.names()) == 58
        assert sum(store.get(n).value.size for n in store.names()) == scalars
        g, c = policy.pcfg.gru_hidden, policy.counts
        heads = {"ap": 2 * (c["users_per_ap"] + 1),
                 "ris": c["ris_elements"] * (1 + c["n_phase"])}
        want = {}
        for t, width in heads.items():
            want.update({f"act.{t}.gru.x.w": (g, 3 * g),
                         f"act.{t}.gru.x.b": (3 * g,),
                         f"act.{t}.gru.h.w": (g, 3 * g),
                         f"act.{t}.gru.h.b": (3 * g,),
                         f"act.{t}.head.w": (g, width),
                         f"act.{t}.head.b": (width,)})
            for layer in ("pre", "post"):
                want[f"act.{t}.{layer}.w"] = store.get(
                    f"act.{t}.{layer}.w").shape
                want[f"act.{t}.{layer}.b"] = (g,)
        got = {n: store.get(n).shape for n in store.names()
               if n.startswith("act.")}
        assert got == want

    # SHA-256 of the repr of the sorted (name, shape) pairs of every
    # parameter, per preset and (embed_mode, critic_mode)
    LAYOUTS = {
        ("tiny", "mpgnn", "mix"):
            "e3119e6ec30f0781a051e5ec5eb1d8ecd4aac4e946d8095006e2df1ef968ea2a",
        ("tiny", "mpgnn", "central"):
            "5c47259988f901bab2d9fc00cd12f8e56f8c66f18a3a40161fee4fa2f63ec4e5",
        ("tiny", "raw", "mix"):
            "79fc83dcf3dc4ef42f7cd009ef4d7df9424b8f362c295b1a270c64bce3a242d5",
        ("tiny", "raw", "central"):
            "88f1a73a7d54827108043aa527849ccd08bcf56ee5a6ffb3d7a0506103aeadbb",
        ("tiny", "none", "mix"):
            "3092d12ce4546594dccbfe32ec766a5637af6dc63bbf1e97dd12a4a0e7909928",
        ("tiny", "none", "central"):
            "2314dd22463fd6db65d92694e06ebbaf3b706605867da095efe6fa7fb18311e7",
        ("medium", "mpgnn", "mix"):
            "2d64e5e010f54176661166a91529e3112e904ebe903bff28b6a84e83a5223fec",
        ("medium", "mpgnn", "central"):
            "7e2c06a884bab91974178e8db150aec7f4e7e6a104af0f308f17e67fc7acfd76",
        ("medium", "raw", "mix"):
            "601f256f77b22ca327085cde98a7fbb00df4e07ee6bf4e363390adb5c2248368",
        ("medium", "raw", "central"):
            "74e8bcd857348da743160f9f04ca47fc40264dd304577a2c546f44ea2ce18d39",
        ("medium", "none", "mix"):
            "1214c5a3bcb27dc4abebba2aa6b9744afc620e87fdabdefeda097b0473114443",
        ("medium", "none", "central"):
            "d89651f536491ae54ea0af79fbfca275229d90d9df8dcf8cd1d1b742e8734402",
        ("default", "mpgnn", "mix"):
            "d48806b4b6aede3fc97f67fa0d50a651f8050653b271fc1ada1b04a3e4fd1786",
        ("default", "mpgnn", "central"):
            "2b1afc139770505dc11e93f07ae627931b8d65b3be45153aa47b9782263e7941",
        ("default", "raw", "mix"):
            "e4f324bf462d959c99179ee884d17bcfd48afe4985d9f2c926de968cf179d920",
        ("default", "raw", "central"):
            "ba6c4522494b69565bea1b8e51e02d04b462aef87c3cb3740773d260dc3d0f43",
        ("default", "none", "mix"):
            "753f92b1f62b4a26106fe81bb0714a6dd83c3064dd44956afdbc1fe7904fdca0",
        ("default", "none", "central"):
            "7839c0440fe78fc612915946f3c58a34d0ecfc48161c0a3202ccc713fea33e8b",
    }

    @pytest.mark.parametrize("preset, embed_mode, critic_mode", sorted(LAYOUTS))
    def test_every_parameter_keeps_its_name_and_shape(self, preset,
                                                      embed_mode, critic_mode):
        """Pins the name and shape of every parameter, so a change to how a
        layer learns its widths cannot move one.  ``ParamStore.param`` seeds
        each value from its name and shape, so this pins the initial values
        too."""
        make = {"tiny": tiny_config, "medium": medium_config,
                "default": default_config}[preset]
        policy = policy_for_env(NetworkEnv(make(), seed=0), PolicyConfig(
            embed_mode=embed_mode, critic_mode=critic_mode), 0)
        store = policy.store
        layout = repr([(n, store.get(n).shape) for n in store.names()])
        digest = hashlib.sha256(layout.encode()).hexdigest()
        assert digest == self.LAYOUTS[preset, embed_mode, critic_mode]


class TestCritics:
    def test_zero_parameters_give_zero_value(self):
        rng = np.random.default_rng(12)
        graph, dims = synthetic_graph(rng)
        policy = make_policy(dims)
        for name in policy.store.names():
            if name.startswith("critic."):
                policy.store.get(name).value[:] = 0.0
        z = policy.embed([graph])
        assert np.all(policy.local_value(z).value == 0.0)

    def test_value_vector_permutes_with_agents(self):
        rng = np.random.default_rng(13)
        graph, dims = synthetic_graph(rng)
        policy = make_policy(dims)
        perm = type_permutation(rng, 2, 2)
        z = policy.embed([graph])
        zp = policy.embed([graph.permuted(perm)])
        v = policy.local_value(z).value[0]
        vp = policy.local_value(zp).value[0]
        for i in range(4):
            assert vp[perm[i]] == v[i]

    def test_actor_head_outputs_permute_bitwise(self):
        rng = np.random.default_rng(14)
        graph, dims = synthetic_graph(rng)
        policy = make_policy(dims)
        perm = type_permutation(rng, 2, 2)
        z = policy.embed([graph])
        zp = policy.embed([graph.permuted(perm)])
        gru = policy.gru_zero()
        rows = {"ap": perm[:2], "ris": perm[2:] - 2}
        for kind in ("ap", "ris"):
            post, _ = policy._trunk(z[kind], kind, gru[kind])
            post_p, _ = policy._trunk(zp[kind], kind, gru[kind])
            for i in range(2):
                assert np.array_equal(post.value[i],
                                      post_p.value[rows[kind][i]])

    def test_mixing_monotone_and_gradient(self):
        rng = np.random.default_rng(15)
        graph, dims = synthetic_graph(rng)
        policy = make_policy(dims)
        state = graph_state(graph)
        vals = rng.normal(size=4)
        base = policy.global_value(state, vals).item()
        for i in range(4):
            up = vals.copy()
            up[i] += 1e-4
            assert (policy.global_value(state, up).item() - base) >= -1e-8

    @pytest.mark.parametrize("mode", ["mix", "central"])
    def test_batched_global_value_is_slot_by_slot(self, mode):
        rng = np.random.default_rng(23)
        graph, dims = synthetic_graph(rng)
        policy = make_policy(dims, critic_mode=mode, dtype=np.float64)
        states = rng.normal(size=(5, len(graph_state(graph))))
        vals = rng.normal(size=(5, 4))
        batch = policy.global_value(states, vals).value
        assert batch.shape == (5,)
        for b in range(5):
            assert batch[b] == pytest.approx(
                policy.global_value(states[b], vals[b]).item(), rel=1e-13)

    def test_central_mode_ignores_locals(self):
        rng = np.random.default_rng(16)
        graph, dims = synthetic_graph(rng)
        policy = make_policy(dims, critic_mode="central")
        state = graph_state(graph)
        a = policy.global_value(state, [1.0, 2.0, 3.0, 4.0]).item()
        b = policy.global_value(state, [0.0, 0.0, 0.0, 0.0]).item()
        assert a == b


class TestComposedGradients:
    def test_full_actor_critic_mixing_composition(self):
        rng = np.random.default_rng(17)
        graph, dims = synthetic_graph(rng)
        policy = make_policy(dims, msg_dim=4, hidden=4, gru_hidden=4,
                             critic_hidden=4, mix_hidden=4, dtype=np.float64)
        sample_rng = np.random.default_rng(18)
        z0 = policy.embed([graph])
        sample, _ = policy.act(z0, policy.gru_zero(), sample_rng)
        state = graph_state(graph)

        def build():
            z = policy.embed([graph])
            lp, _ = policy.log_prob(z, policy.gru_zero(), sample)
            vals = policy.local_value(z)
            return lp.sum() + policy.global_value(state, vals[0])

        fd_check(build, policy.store)

    def test_exchange_volume_ordering(self):
        # the volume counts the messages the nets compute: it is nonzero
        # exactly when message layers exist, one msg_dim row per edge and
        # layer for mpgnn, and the raw edge features, sent once, for raw
        rng = np.random.default_rng(19)
        graph, dims = synthetic_graph(rng)
        sent = tuple(f"emb.{kind}." for kind in graph.src)
        for n_layers in (1, 3):
            volume = {}
            for mode in ("mpgnn", "raw", "none"):
                policy = make_policy(dims, embed_mode=mode, n_layers=n_layers)
                volume[mode] = policy.exchange_volume(graph)
                layers = {name.rsplit(".", 1)[0]
                          for name in policy.store.names()
                          if name.startswith(sent)}
                assert (volume[mode] > 0) == bool(layers), mode
                if mode == "mpgnn":
                    assert len(layers) == n_layers * len(graph.src)
            assert volume["none"] == 0
            assert volume["mpgnn"] == (n_layers * graph.num_edges
                                       * policy.pcfg.msg_dim)
            assert volume["raw"] == sum(f.size
                                        for f in graph.edge_feat.values())


def _bits(a):
    a = np.asarray(a)
    return a.dtype, a.shape, a.tobytes()


class TestInference:
    """``no_grad`` runs the same forward on plain arrays: every sample,
    log-prob and GRU state is bitwise equal to the taped one, in float32
    as in float64."""

    # an mpgnn id names the aggregator of its learned messages, mean
    CASES = [pytest.param(embed_mode, critic_mode, id="-".join(
                 (embed_mode, "mean", critic_mode) if embed_mode == "mpgnn"
                 else (embed_mode, critic_mode)))
             for embed_mode in ("mpgnn", "raw", "none")
             for critic_mode in ("mix", "central")]
    CONFIGS = pytest.mark.parametrize("make", [tiny_config, medium_config,
                                               default_config],
                                      ids=["tiny", "medium", "default"])

    @CONFIGS
    @pytest.mark.parametrize("embed_mode, critic_mode", CASES)
    def test_embed_and_act_bitwise_equal_to_taped(self, make, embed_mode,
                                                  critic_mode):
        self._check(make, PolicyConfig(embed_mode=embed_mode,
                                       critic_mode=critic_mode), np.float32)

    @CONFIGS
    @pytest.mark.parametrize("embed_mode, critic_mode", CASES)
    def test_float64_embed_and_act_bitwise_equal_to_taped(
            self, make, embed_mode, critic_mode):
        self._check(make, PolicyConfig(embed_mode=embed_mode,
                                       critic_mode=critic_mode), np.float64)

    @staticmethod
    def _check(make, pcfg, dtype):
        env = NetworkEnv(make(), seed=3)
        policy = policy_for_env(env, pcfg, seed=4, dtype=dtype)
        gru = policy.gru_zero()
        for slot in range(3):
            graph = env.comm_graph()
            for sampled in (True, False):  # False: every agent's mode
                z = policy.embed([graph])
                taped = policy.act(
                    z, gru, np.random.default_rng(slot) if sampled else None)
                with policy.store.no_grad():
                    z_free = policy.embed([graph])
                    free = policy.act(z_free, gru, np.random.default_rng(slot)
                                      if sampled else None)
                for t in z:
                    assert isinstance(z_free[t], np.ndarray)
                    assert z_free[t].dtype == dtype
                    assert _bits(z_free[t]) == _bits(z[t].value)
                (sample, h), (sample_f, h_f) = taped, free
                for f in ("gaussian", "on_off", "phase"):
                    assert (_bits(getattr(sample_f, f))
                            == _bits(getattr(sample, f)))
                for t in h:
                    assert _bits(h_f[t]) == _bits(h[t].value)
                logp, h = policy.log_prob(z, gru, sample)
                with policy.store.no_grad():
                    logp_f, h_f = policy.log_prob(z_free, gru, sample_f)
                assert _bits(logp_f) == _bits(logp.value)
                for t in h:
                    assert _bits(h_f[t]) == _bits(h[t].value)
            gru = h_f
            env.step(*policy.env_action(sample_f))

    def test_tape_is_back_after_the_block(self):
        graph, dims = synthetic_graph(np.random.default_rng(1))
        policy = make_policy(dims)
        with policy.store.no_grad():
            assert isinstance(policy.store.param("act.ap.pre.b", (32,)),
                              np.ndarray)
        assert isinstance(policy.embed([graph])["ap"], Tensor)
