import hashlib
import warnings

import numpy as np
import pytest

from risnoma.env import NetworkEnv, shaped_reward
from risnoma.graphs import (EDGE_ENDS, build_comm_graph, graph_layout,
                            stack_graphs)
from risnoma.policy import PolicyConfig, policy_for_env
from risnoma.presets import default_config, medium_config, tiny_config
from risnoma.topology import SE


def random_action(cfg, rng):
    power = rng.uniform(0, cfg.max_tx_power / cfg.users_per_ap, cfg.total_users)
    on = rng.integers(0, 2, (cfg.num_ris, cfg.ris_elements))
    beta = rng.integers(0, 2 ** cfg.ris_phase_bits, (cfg.num_ris, cfg.ris_elements))
    return power, on, beta


class TestStepSemantics:
    def test_identical_seeds_identical_outcomes(self):
        cfg = tiny_config()
        outs = []
        for _ in range(2):
            env = NetworkEnv(cfg, seed=3)
            rng = np.random.default_rng(0)
            rewards = [env.step(*random_action(cfg, rng)).reward for _ in range(5)]
            outs.append(rewards)
        assert outs[0] == outs[1]

    def test_all_off_zero_power(self):
        cfg = tiny_config()
        env = NetworkEnv(cfg, seed=1)
        zeros = np.zeros(cfg.total_users)
        off = np.zeros((1, cfg.ris_elements), dtype=int)
        out = env.step(zeros, off, off)
        assert np.all(out.rates == 0)
        assert out.delta == pytest.approx(cfg.rmin_se_gbps + cfg.rmin_iot_gbps)
        assert out.reward == pytest.approx(cfg.zeta * out.eta
                                           - cfg.xi_penalty * out.delta)

    def test_queue_conservation(self):
        cfg = medium_config()
        env = NetworkEnv(cfg, seed=2)
        rng = np.random.default_rng(7)
        for _ in range(10):
            q0 = env.queues.q.copy()
            out = env.step(*random_action(cfg, rng))
            served = out.rates * cfg.slot_seconds
            expect = out.arrivals + np.maximum(q0 - served, 0.0)
            np.testing.assert_allclose(out.q, expect, rtol=1e-12)

    def test_reward_recomposes_exactly(self):
        cfg = medium_config()
        env = NetworkEnv(cfg, seed=5)
        rng = np.random.default_rng(8)
        for _ in range(10):
            out = env.step(*random_action(cfg, rng))
            again = shaped_reward(out.eta, out.delta, out.weights, out.rates,
                                  cfg.zeta, cfg.xi_penalty)
            assert again == out.reward  # bitwise, same helper and inputs

    def test_power_projection_scales_onto_budget(self):
        cfg = tiny_config()
        env = NetworkEnv(cfg, seed=0)
        heavy = np.full(cfg.total_users, cfg.max_tx_power)
        scaled = env.project_power(heavy)
        assert scaled.sum() == pytest.approx(cfg.max_tx_power)

    @pytest.mark.parametrize("make_config", [tiny_config, default_config])
    def test_power_projection_matches_per_ap_loop(self, make_config):
        # default has K = 8 users per AP, where numpy's sum turns pairwise
        cfg = make_config()
        env = NetworkEnv(cfg, seed=0)
        rng = np.random.default_rng(5)
        for _ in range(50):
            alloc = rng.uniform(-0.1, 2.5 * cfg.max_tx_power / cfg.users_per_ap,
                                cfg.total_users)
            want = np.maximum(alloc, 0.0)
            for users in env.topo.users:
                total = want[users].sum()
                if total > cfg.max_tx_power and total > 0:
                    want[users] *= cfg.max_tx_power / total
            assert env.project_power(alloc).tobytes() == want.tobytes()

    def test_malformed_action_rejected(self):
        cfg = tiny_config()
        env = NetworkEnv(cfg, seed=0)
        with pytest.raises(ValueError):
            env.step(np.zeros(cfg.total_users + 1),
                     np.zeros((1, cfg.ris_elements), dtype=int),
                     np.zeros((1, cfg.ris_elements), dtype=int))
        with pytest.raises(ValueError):
            env.step(np.zeros(cfg.total_users),
                     np.zeros((2, cfg.ris_elements), dtype=int),
                     np.zeros((2, cfg.ris_elements), dtype=int))
        # a fractional pick is rejected, not truncated to an int (on=0.5 ran
        # as 0 and phase=1.7 as 1); a NaN pick likewise
        power = np.full(cfg.total_users, 0.1)
        shape = (cfg.num_ris, cfg.ris_elements)
        whole = np.ones(shape)
        for on, phase in ((np.full(shape, 0.5), whole),
                          (whole, np.full(shape, 1.7)),
                          (whole, np.full(shape, 0.5)),
                          (np.full(shape, np.nan), whole),
                          (whole, np.full(shape, np.nan))):
            with pytest.raises(ValueError):
                env.peek_reward(power, on, phase)
            with pytest.raises(ValueError):
                env.step(power, on, phase)
        assert env.t == 0
        # bool and whole-valued float arrays are valid and mean their ints
        ones = np.ones(shape, dtype=int)
        want = env.peek_reward(power, ones, ones)
        assert env.peek_reward(power, ones.astype(bool), ones) == want
        assert env.peek_reward(power, whole, whole) == want
        assert env.step(power, ones.astype(bool), whole).reward == want

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_power_rejected(self, bad):
        # unchecked, a NaN entry gave a NaN reward, SINR and rates, and +inf
        # a RuntimeWarning and then NaN
        cfg = tiny_config()
        env = NetworkEnv(cfg, seed=1)
        power = np.full(cfg.total_users, 0.1)
        power[1] = bad
        off = np.zeros((cfg.num_ris, cfg.ris_elements), dtype=int)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                env.peek_reward(power, off, off)
            with pytest.raises(ValueError, match="finite"):
                env.step(power, off, off)
        assert env.t == 0
        power[1] = -np.inf  # a negative: clipped to zero like any other
        assert env.project_power(power)[1] == 0.0
        out = env.step(power, off, off)
        assert np.isfinite(out.reward) and np.all(np.isfinite(out.rates))

    def test_peek_matches_step_reward(self):
        cfg = tiny_config()
        env = NetworkEnv(cfg, seed=9)
        rng = np.random.default_rng(4)
        act = random_action(cfg, rng)
        peeked = env.peek_reward(*act)
        assert env.step(*act).reward == peeked

    @pytest.mark.parametrize("seed", [1, 2, 4, 5])
    def test_zero_channels_step(self, seed):
        # no reflected paths and every RIS element off: blocked LoS users
        # (and, for seed 2, the whole AP) see an exactly zero channel
        cfg = tiny_config(num_nlos_paths=0)
        env = NetworkEnv(cfg, seed=seed)
        off = np.zeros((cfg.num_ris, cfg.ris_elements), dtype=int)
        out = env.step(np.full(cfg.total_users, 0.3), off, off)
        for arr in (out.sinr, out.rates):
            assert np.all(np.isfinite(arr)) and np.all(arr >= 0)

    def test_checksum_stable_and_config_sensitive(self):
        cfg = tiny_config()
        a, b = NetworkEnv(cfg, seed=1), NetworkEnv(cfg, seed=1)
        assert a.checksum() == b.checksum()
        c = NetworkEnv(tiny_config(zeta=2.0), seed=1)
        assert c.checksum() != a.checksum()


class TestObservations:
    def test_ris_observation_has_no_queue_data(self):
        # queue weights reach the AP nodes only: RIS nodes and every edge
        # kind are blind to them
        cfg = medium_config()
        env = NetworkEnv(cfg, seed=0)
        parts, rng = env._parts, np.random.default_rng(3)
        graphs = [build_comm_graph(
            parts.direct, env.observed_effective(), parts.ris_user,
            parts.ap_ris, rng.uniform(0, 0.05, cfg.total_users),
            np.zeros(cfg.total_users), np.zeros((cfg.num_ris, cfg.ris_elements)),
            np.zeros((cfg.num_ris, cfg.ris_elements)),
            graph_layout(env.topo, cfg, env.queues.q_max))
            for _ in range(2)]
        a, b = graphs
        assert not np.array_equal(a.nodes["ap"], b.nodes["ap"])
        assert np.array_equal(a.nodes["ris"], b.nodes["ris"])
        for kind in EDGE_ENDS:
            assert np.array_equal(a.edge_feat[kind], b.edge_feat[kind])

    def test_ap_observation_blocks(self):
        cfg = medium_config(neighbor_radius=1e-6)  # isolate every agent
        graph = NetworkEnv(cfg, seed=0).comm_graph()
        assert graph.num_edges == 0

    def test_observation_dims_match_formula(self):
        # an agent's node row plus what it sends its neighbours of the other
        # kind's observation: AP -> AP direct channels, RIS -> AP blocks
        cfg = medium_config()
        env = NetworkEnv(cfg, seed=0)
        graph = env.comm_graph()
        k, n_a, n_el = cfg.users_per_ap, cfg.antennas, cfg.ris_elements

        def width(node_type, kind, i):
            sent = graph.edge_feat[kind][graph.src[kind] == i]
            return graph.nodes[node_type].shape[1] + sent.shape[0] * sent.shape[1]

        for i in range(cfg.num_aps):
            n_neighbors = np.count_nonzero(env.topo.ap_ap[i])
            expect = 2 * k * n_a * (1 + n_neighbors) + 2 * k
            assert width("ap", "ap_ap", i) == expect
        for r in range(cfg.num_ris):
            n_ap = np.count_nonzero(env.topo.ap_ris[:, r])
            expect = n_ap * (2 * k * n_el + 2 * n_el * n_a) + 2 * n_el
            assert width("ris", "ris_ap", r) == expect


class TestCommGraph:
    def test_no_ris_means_only_ap_edges(self):
        cfg = medium_config(num_ris=0)
        env = NetworkEnv(cfg, seed=0)
        graph = env.comm_graph()
        assert all(kind == "ap_ap" for kind, src in graph.src.items()
                   if len(src))

    def test_edge_counts_match_neighbor_sets(self):
        cfg = medium_config()
        env = NetworkEnv(cfg, seed=0)
        graph = env.comm_graph()
        topo = env.topo
        # AP->RIS and RIS->AP edges both follow the AP-RIS adjacency
        expect = (np.count_nonzero(topo.ap_ap)
                  + 2 * np.count_nonzero(topo.ap_ris))
        assert graph.num_edges == expect

    def test_node_feature_dims(self):
        for cfg in (medium_config(), default_config()):
            env = NetworkEnv(cfg, seed=0)
            graph = env.comm_graph()
            k, n_a, n_el = cfg.users_per_ap, cfg.antennas, cfg.ris_elements
            dims = {"ap_node": 2 * k * n_a + 2 * k,   # channels, weight, power
                    "ris_node": 2 * n_el,             # on/off, phase
                    "ap_ap": 2 * k * n_a,
                    "ap_ris": cfg.num_aps * 2 * k * n_a,
                    "ris_ap": 2 * n_el * n_a + 2 * k * n_el}
            for kind, feat in graph.nodes.items():
                assert feat.shape == (len(feat), dims[f"{kind}_node"])
            for kind, feat in graph.edge_feat.items():
                assert feat.shape == (len(graph.src[kind]), dims[kind])
                assert len(graph.dst[kind]) == len(feat)
            assert policy_for_env(env, PolicyConfig(), 0).dims == dims

    def test_edges_follow_neighbor_sets(self):
        cfg = medium_config()
        env = NetworkEnv(cfg, seed=0)
        graph = env.comm_graph()
        topo = env.topo
        for kind, adj in (("ap_ap", topo.ap_ap), ("ap_ris", topo.ap_ris),
                          ("ris_ap", topo.ap_ris.T)):
            pairs = sorted(zip(graph.src[kind].tolist(),
                               graph.dst[kind].tolist()))
            assert pairs == [(i, j) for i in range(adj.shape[0])
                             for j in range(adj.shape[1]) if adj[i, j]]

    def test_ris_relabel_permutes_graph(self):
        # swapping the two RIS agents permutes node features verbatim
        cfg = medium_config()
        env = NetworkEnv(cfg, seed=0)
        graph = env.comm_graph()
        m = cfg.num_aps
        perm = np.arange(sum(len(v) for v in graph.nodes.values()))
        perm[m], perm[m + 1] = m + 1, m
        permuted = graph.permuted(perm)
        assert np.array_equal(permuted.nodes["ris"][1], graph.nodes["ris"][0])
        assert np.array_equal(permuted.nodes["ris"][0], graph.nodes["ris"][1])
        rows = {"ap": perm[:m], "ris": perm[m:] - m}
        for kind, (sender, receiver) in EDGE_ENDS.items():
            moved = list(zip(permuted.src[kind].tolist(),
                             permuted.dst[kind].tolist()))
            for s, d, feat in zip(graph.src[kind], graph.dst[kind],
                                  graph.edge_feat[kind]):
                key = (int(rows[sender][s]), int(rows[receiver][d]))
                assert key in moved
                assert np.array_equal(
                    permuted.edge_feat[kind][moved.index(key)], feat)

    def test_relabel_across_types_rejected(self):
        graph = NetworkEnv(medium_config(), seed=0).comm_graph()
        perm = np.arange(sum(len(v) for v in graph.nodes.values()))
        perm[0], perm[-1] = perm[-1], perm[0]
        with pytest.raises(ValueError):
            graph.permuted(perm)

    def test_stacked_graphs_keep_each_graph(self):
        cfg = medium_config(num_ris=3)  # row offsets differ between types
        env = NetworkEnv(cfg, seed=0)
        rng = np.random.default_rng(3)
        graphs = []
        for _ in range(3):
            graphs.append(env.comm_graph())
            env.step(*random_action(cfg, rng))
        stacked = stack_graphs(graphs)
        for t in ("ap", "ris"):
            np.testing.assert_array_equal(
                stacked.nodes[t], np.concatenate([g.nodes[t] for g in graphs]))
        for kind, (sender, receiver) in EDGE_ENDS.items():
            n_s, n_r = len(graphs[0].nodes[sender]), len(graphs[0].nodes[receiver])
            e = len(graphs[0].src[kind])
            for b, g in enumerate(graphs):
                sl = slice(b * e, (b + 1) * e)
                np.testing.assert_array_equal(stacked.src[kind][sl],
                                              g.src[kind] + b * n_s)
                np.testing.assert_array_equal(stacked.dst[kind][sl],
                                              g.dst[kind] + b * n_r)
                np.testing.assert_array_equal(stacked.edge_feat[kind][sl],
                                              g.edge_feat[kind])


class TestFeatureScale:
    @pytest.mark.parametrize("cfg", [
        tiny_config(), medium_config(), default_config(),
        default_config(qmax_se_gbps=0.3, qmax_iot_gbps=7.7, slot_seconds=3e-3)],
        ids=["tiny", "medium", "default", "odd-caps"])
    def test_queue_scales_are_the_queues_caps(self, cfg):
        # the layout reads each user's cap off the env's queues; it equals,
        # bit for bit, the SE/IoT split taken from the config by hand
        env = NetworkEnv(cfg, seed=0)
        qmax_se, qmax_iot = cfg.qmax_gbit
        users = env.topo.users
        by_kind = np.where(env.topo.user_kind[users] == SE, 1.0 / qmax_se,
                           1.0 / qmax_iot)
        assert env._layout.qinv.tobytes() == by_kind.tobytes()

    @pytest.mark.parametrize("make", [tiny_config, medium_config,
                                      default_config])
    def test_graph_features_are_order_one(self, make):
        cfg = make()
        env = NetworkEnv(cfg, seed=0)
        rng = np.random.default_rng(0)
        own = 2 * cfg.users_per_ap * cfg.antennas  # AP own-channel block
        chans = []
        for _ in range(10):
            graph = env.comm_graph()
            for kind, feats in graph.nodes.items():
                for feat in feats:
                    if kind == "ap":
                        # queue weights follow the channel block; they carry
                        # the backlog, scaled by the outage cap, and are not
                        # bounded
                        chans.append(feat[:own])
                        feat = feat[own + cfg.users_per_ap:]
                    assert np.all(np.abs(feat) <= 3.0)
            chans.extend(f.ravel() for f in graph.edge_feat.values())
            env.step(*random_action(cfg, rng))
        chans = np.concatenate(chans)
        assert np.abs(chans).max() <= 3.0
        assert np.sqrt(np.mean(chans ** 2)) >= 0.05


class TestLyapunovPressure:
    def test_weights_grow_without_service(self):
        cfg = tiny_config()
        env = NetworkEnv(cfg, seed=0)
        zeros = np.zeros(cfg.total_users)
        off = np.zeros((1, cfg.ris_elements), dtype=int)
        w0 = env.queues.weights().sum()
        for _ in range(20):
            env.step(zeros, off, off)
        assert env.queues.weights().sum() > w0

    def test_outage_flags_match_threshold(self):
        cfg = tiny_config()
        env = NetworkEnv(cfg, seed=0)
        zeros = np.zeros(cfg.total_users)
        off = np.zeros((1, cfg.ris_elements), dtype=int)
        for _ in range(5):
            out = env.step(zeros, off, off)
            np.testing.assert_array_equal(out.outage, out.q >= env.queues.q_max)

    def test_reset_zeroes_queues_and_time(self):
        cfg = tiny_config()
        env = NetworkEnv(cfg, seed=0)
        rng = np.random.default_rng(1)
        for _ in range(3):
            env.step(*random_action(cfg, rng))
        env.reset()
        assert env.t == 0
        assert np.all(env.queues.q == 0) and np.all(env.queues.y == 0)


class TestPinnedTrace:
    """The physics trace, pinned.  This digest may be changed only together
    with a CHANGES.md entry that explains the change to the physics; a
    speedup must leave it as it is.  It was taken with numpy 2.4.6 and its
    bundled OpenBLAS on one BLAS thread, as tier-1 runs; another BLAS build
    may round the ZF and channel products differently."""

    PINNED = {
        "tiny": "9bfebf06d60a83aa40b9fa806f0e11bf863753a6c6bd3c041a29d96132f27d73",
        "medium": "ddc2d4b32fb13619118ea6153f56c79fb865d7a23393722708970dbf741ef924",
        "default": "b50d0b44c531023a0a0c6a9738bf0c4495235e468d99e98995c4cc7170b7ab11",
    }

    @staticmethod
    def trace_sha256(cfg, seed=1, episodes=2) -> str:
        """SHA-256 of every slot's reward, SINR and backlog over
        ``episodes`` full episodes of seeded random actions, drawn as the
        benchmark's env workload draws them."""
        env = NetworkEnv(cfg, seed=seed)
        rng = np.random.default_rng([seed, 7])
        budget = 2.0 * cfg.max_tx_power / cfg.users_per_ap
        shape = (cfg.num_ris, cfg.ris_elements)
        digest = hashlib.sha256()
        for _ in range(episodes):
            env.reset()
            for _ in range(cfg.episode_slots):
                out = env.step(rng.uniform(0.0, budget, cfg.total_users),
                               rng.integers(0, 2, shape),
                               rng.integers(0, 2 ** cfg.ris_phase_bits, shape))
                for arr in (np.float64(out.reward), out.sinr, out.q):
                    digest.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
        return digest.hexdigest()

    @pytest.mark.parametrize("name, make_config", [
        ("tiny", tiny_config), ("medium", medium_config),
        ("default", default_config)])
    def test_trace_digest_is_pinned(self, name, make_config):
        assert self.trace_sha256(make_config()) == self.PINNED[name]
