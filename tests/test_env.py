import numpy as np
import pytest

from risnoma.env import NetworkEnv, shaped_reward
from risnoma.graphs import (EDGE_ENDS, build_comm_graph, feature_dims,
                            graph_layout, stack_graphs, state_digest)
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
            for ap in range(cfg.num_aps):
                users = env.topo.users_of(ap)
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
            graph_layout(env.topo, cfg))
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
            n_neighbors = len(env.topo.ap_neighbor_ap[i])
            expect = 2 * k * n_a * (1 + n_neighbors) + 2 * k
            assert width("ap", "ap_ap", i) == expect
        for r in range(cfg.num_ris):
            n_ap = len(env.topo.ris_neighbor_ap[r])
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
        expect = (sum(len(v) for v in topo.ap_neighbor_ap)
                  + sum(len(v) for v in topo.ap_neighbor_ris)
                  + sum(len(v) for v in topo.ris_neighbor_ap))
        assert graph.num_edges == expect

    def test_node_feature_dims(self):
        cfg = medium_config()
        env = NetworkEnv(cfg, seed=0)
        graph = env.comm_graph()
        dims = feature_dims(cfg, env.topo)
        for kind, feat in graph.nodes.items():
            assert feat.shape == (len(feat), dims[f"{kind}_node"])
        for kind, feat in graph.edge_feat.items():
            assert feat.shape == (len(graph.src[kind]), dims[kind])
            assert len(graph.dst[kind]) == len(feat)

    def test_edges_follow_neighbor_sets(self):
        cfg = medium_config()
        env = NetworkEnv(cfg, seed=0)
        graph = env.comm_graph()
        topo = env.topo
        for kind, near in (("ap_ap", topo.ap_neighbor_ap),
                           ("ap_ris", topo.ap_neighbor_ris),
                           ("ris_ap", topo.ris_neighbor_ap)):
            pairs = sorted(zip(graph.src[kind].tolist(),
                               graph.dst[kind].tolist()))
            assert pairs == sorted((i, j) for i, js in enumerate(near)
                                   for j in js)

    def test_ris_relabel_permutes_graph(self):
        # swapping the two RIS agents permutes node features verbatim
        cfg = medium_config()
        env = NetworkEnv(cfg, seed=0)
        graph = env.comm_graph()
        m = cfg.num_aps
        perm = np.arange(graph.num_nodes)
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
        perm = np.arange(graph.num_nodes)
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

    def test_digest_is_node_concat(self):
        graph = NetworkEnv(medium_config(), seed=0).comm_graph()
        rows = np.concatenate([graph.nodes["ap"].ravel(),
                               graph.nodes["ris"].ravel()])
        assert np.array_equal(state_digest(graph), rows)


class TestFeatureScale:
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
