import warnings
from functools import partial

import numpy as np
import pytest

from risnoma import linklayer as ll
from risnoma.channel import EpisodeChannel, ris_phase_diag
from risnoma.config import NetworkConfig
from risnoma.presets import default_config, medium_config, tiny_config
from risnoma.topology import SE, build_topology

import reference_link as ref
from literal_link import LinkPlan, literal_sic_and_sinr, random_instance

COND_THRESHOLD = NetworkConfig.zf_cond_threshold


def channel_correlation(h1: np.ndarray, h2: np.ndarray) -> float:
    """|<h1, h2>| normalized to [0, 1]; rejects zero vectors.  The
    pairwise form of the correlation that clustering reads off its Gram."""
    n1, n2 = np.linalg.norm(h1), np.linalg.norm(h2)
    if n1 == 0 or n2 == 0:
        raise ValueError("correlation undefined for a zero channel")
    return float(np.abs(np.vdot(h1, h2)) / (n1 * n2))


def _local_layout(se, iot):
    """The listed users relabelled 0.. in id order, which keeps the join
    and tie orders, and their ``LinkLayout`` as one AP's users."""
    listed = sorted(se + iot)
    local = {u: i for i, u in enumerate(listed)}
    return listed, ll.link_layout([[local[u] for u in se]],
                                  [[local[u] for u in iot]], len(listed))


def _clusters(h, se, iot, cap):
    """``ll.cluster_users`` on one AP's (U, N_A) channels, as each
    cluster's members in join order, head first."""
    listed, layout = _local_layout(se, iot)
    joined, _ = ll.cluster_users(h[None, listed], layout, cap)
    clusters = [[head] for head in se]
    for u, n in zip(layout.iot_ids[0].tolist(), joined[0].tolist()):
        clusters[n].append(listed[u])
    return clusters


def _analog(heads, bits):
    """``ll.analog_beamformer`` on one AP's (N_R, N_A) head channels."""
    return ll.analog_beamformer(heads[None], bits)[0]


def _zf(centers, v):
    """``ll.zf_digital_beamformer`` on one AP, at the config's loading
    threshold: its w and loading flag."""
    w, loaded = ll.zf_digital_beamformer(centers[None], v[None],
                                         cond_threshold=COND_THRESHOLD)
    return w[0], bool(loaded[0])


def _decoding_order(members, gains) -> list:
    """One cluster's IoT members in the decode order ``ll.decode_layout``
    gives them under ``gains`` (indexed by user id), head last."""
    head, iot = members[0], members[1:]
    listed, layout = _local_layout([head], iot)
    per_user = np.array([gains[u] for u in listed])[:, None]
    _, position, _, _ = ll.decode_layout(
        layout, np.zeros((1, len(iot)), dtype=np.intp),
        np.array([[len(members)]]), per_user)
    return sorted(iot, key=lambda u: position[listed.index(u)]) + [head]


def _link_plans(links) -> list:
    """Per-AP ``LinkPlan``s restating a ``SlotLinks``: each cluster's
    members by decode position, head first."""
    m, _, s = links.v.shape
    plans = []
    for ap in range(m):
        mine = links.slot // s == ap
        clusters = []
        for column in range(ap * s, (ap + 1) * s):
            members = np.flatnonzero(links.slot == column)
            clusters.append(members[np.argsort(links.position[members])].tolist())
        plans.append(LinkPlan(clusters, np.where(mine, links.position, 0),
                              np.where(mine, links.slot % s, -1),
                              links.v[ap], links.w[ap],
                              bool(links.zf_loaded[ap])))
    return plans


def _plan(h, se, iot, cfg):
    """``ll.derive_plan`` on one AP's (U, N_A) channels, as its LinkPlan."""
    layout = ll.link_layout([se], [iot], len(h))
    return _link_plans(ll.derive_plan(h[None], layout, cfg))[0]


class TestCorrelation:
    def test_identical_is_one(self):
        h = np.array([1 + 2j, -0.5j, 3.0])
        assert channel_correlation(h, h) == pytest.approx(1.0)

    def test_orthogonal_is_zero(self):
        assert channel_correlation(np.array([1.0, 0]), np.array([0, 1.0])) == 0

    def test_complex_scale_invariant(self):
        rng = np.random.default_rng(0)
        h = rng.normal(size=6) + 1j * rng.normal(size=6)
        c = 0.3 - 1.7j
        assert channel_correlation(h, c * h) == pytest.approx(1.0)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            channel_correlation(np.zeros(3), np.ones(3))


class TestClustering:
    def test_no_iot_singleton_clusters(self):
        h = np.eye(3, dtype=complex)
        assert _clusters(h, [0, 1], [], 3) == [[0], [1]]

    def test_parallel_channel_joins_matching_head(self):
        h = np.zeros((3, 4), dtype=complex)
        h[0] = [1, 0, 0, 0]
        h[1] = [0, 1, 0, 0]
        h[2] = 2j * h[1]  # parallel to head 1
        assert _clusters(h, [0, 1], [2], 3) == [[0], [1, 2]]

    def test_equal_correlation_lowest_index_wins(self):
        h = np.zeros((3, 4), dtype=complex)
        h[0] = [1, 0, 0, 0]
        h[1] = [0, 1, 0, 0]
        h[2] = [1, 1, 0, 0]  # same correlation with both heads
        assert _clusters(h, [0, 1], [2], 3) == [[0, 2], [1]]

    def test_capacity_spills_to_next_best(self):
        h = np.zeros((4, 4), dtype=complex)
        h[0] = [1, 0, 0, 0]
        h[1] = [0, 1, 0, 0]
        h[2] = [1, 0.1, 0, 0]
        h[3] = [1, 0.2, 0, 0]
        got = _clusters(h, [0, 1], [2, 3], 2)
        assert got == [[0, 2], [1, 3]]

    def test_zero_channel_joins_lowest_index_head_with_room(self):
        h = np.zeros((5, 4), dtype=complex)
        h[0] = [1, 0, 0, 0]
        h[1] = [0, 1, 0, 0]
        # users 3 and 4 have zero channels: correlation 0 with every head
        assert _clusters(h, [0, 1], [3, 4], 3) == [[0, 3, 4], [1]]
        h[2] = [1, 0, 0, 0]  # fills head 0 first, so user 3 spills to head 1
        assert _clusters(h, [0, 1], [2, 3], 2) == [[0, 2], [1, 3]]
        h[0] = 0.0           # a zero head attracts nobody either
        assert _clusters(h, [0, 1], [3, 4], 3) == [[0, 3, 4], [1]]

    def test_one_head_without_seats_for_every_iot_user_rejected(self):
        h = np.ones((3, 4), dtype=complex)
        assert _clusters(h, [0], [1, 2], 3) == [[0, 1, 2]]
        with pytest.raises(ValueError, match="cluster capacity"):
            _clusters(h, [0], [1, 2], 2)

    def test_strong_head_does_not_win_on_raw_inner_product(self):
        h = np.zeros((3, 2), dtype=complex)
        h[0] = [10, 0]        # strong head, |<h2, h0>| = 10, correlation 0.78
        h[1] = [0.1, 0.1]     # weak head, |<h2, h1>| = 0.18, correlation 0.99
        h[2] = [1, 0.8]
        assert _clusters(h, [0, 1], [2], 2) == [[0], [1, 2]]

    def test_matches_pairwise_greedy(self):
        # reference: the greedy rule written out with channel_correlation
        rng = np.random.default_rng(17)
        for _ in range(50):
            h = rng.normal(size=(10, 8)) + 1j * rng.normal(size=(10, 8))
            se, iot = [0, 1, 2], list(range(3, 10))
            clusters = [[head] for head in se]
            for u in iot:
                corr = [channel_correlation(h[u], h[head]) for head in se]
                for n in sorted(range(3), key=lambda n: (-corr[n], n)):
                    if len(clusters[n]) < 4:
                        clusters[n].append(u)
                        break
            assert _clusters(h, se, iot, 4) == clusters

    def test_input_order_invariant(self):
        rng = np.random.default_rng(1)
        h = rng.normal(size=(6, 8)) + 1j * rng.normal(size=(6, 8))
        a = _clusters(h, [0, 1], [2, 3, 4, 5], 3)
        b = _clusters(h, [0, 1], [5, 3, 2, 4], 3)
        assert a == b


class TestAnalogBeamformer:
    def test_real_positive_heads_give_flat_phases(self):
        heads = np.abs(np.random.default_rng(0).normal(size=(2, 8))) + 0.1
        v = _analog(heads, 3)
        nz = v[v != 0]
        assert np.allclose(nz, 1 / np.sqrt(4))

    @staticmethod
    def _brute_force_check(bits, seed):
        rng = np.random.default_rng(seed)
        heads = rng.normal(size=(2, 8)) + 1j * rng.normal(size=(2, 8))
        v = _analog(heads, bits)
        cands = [np.exp(2j * np.pi * k / 2 ** bits) for k in range(2 ** bits)]
        for n in range(2):
            for i in range(4):
                entry = v[n * 4 + i, n] * np.sqrt(4)
                target = heads[n, n * 4 + i]
                target = target / abs(target)
                best = min(cands, key=lambda c: abs(c - target))
                assert entry == pytest.approx(np.conj(best))

    def test_one_bit_matches_two_candidate_brute_force(self):
        self._brute_force_check(1, seed=2)

    def test_three_bit_matches_eight_candidate_brute_force(self):
        self._brute_force_check(3, seed=14)

    def test_block_diagonal_structure(self):
        rng = np.random.default_rng(3)
        heads = rng.normal(size=(3, 12)) + 1j * rng.normal(size=(3, 12))
        v = _analog(heads, 2)
        for n in range(3):
            for i in range(3):
                block = v[i * 4:(i + 1) * 4, n]
                if i == n:
                    assert np.allclose(np.abs(block), 1 / np.sqrt(4))
                else:
                    assert np.all(block == 0)

    def test_zero_entry_defaults_to_phase_zero(self):
        heads = np.zeros((1, 4), dtype=complex)
        v = _analog(heads, 2)
        assert np.allclose(v[:, 0], 1 / np.sqrt(4))

    @pytest.mark.parametrize("bits", [1, 2, 3])
    def test_ties_and_zeros_match_the_per_ap_reference(self, bits):
        # entries exactly halfway between two grid points (as computed and
        # as written, e.g. 1 + 1j), at several scales, and zero entries:
        # the stacked quantizer must break each tie as the reference does.
        # (argmax Re(conj(grid) * entry) picks the other side of some of
        # these ties, so it is not the same quantizer.)  Every entry is
        # served, on 1 and 3 APs of tiny's (1, 4) and default's (4, 16)
        # subarray shapes among others, so each shape's flat index arrays
        # are checked.
        halfway = np.exp(1j * 2.0 * np.pi * (np.arange(2 ** bits) + 0.5)
                         / 2 ** bits)
        written = np.array([1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j, 1, 1j, -1, -1j])
        entries = np.concatenate([c * np.concatenate([halfway, written])
                                  for c in (1.0, 3.0, 0.7, 2.0 ** -20)])
        entries = np.concatenate([entries, np.zeros(8), -0.0 * entries[:8]])
        for m in (1, 3):
            for n_r, n_sub in ((1, 1), (1, 4), (2, 4), (4, 16)):
                served = m * n_r * n_sub
                cover = np.resize(entries, -(-len(entries) // served) * served)
                for chunk in cover.reshape(-1, m, n_r, n_sub):
                    # each head row repeats its served entries in every
                    # subarray block, the served block among them
                    heads = np.tile(chunk, (1, 1, n_r))
                    got = ll.analog_beamformer(heads, bits)
                    for k, ap_heads in enumerate(heads):
                        want = ref.analog_beamformer(ap_heads, n_sub, bits)
                        assert got[k].tobytes() == want.tobytes()


class TestZF:
    def test_orthonormal_centers_give_adjoint(self):
        centers = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex)
        w, loaded = _zf(centers, np.eye(2, dtype=complex))
        assert not loaded
        assert np.allclose(w, centers.conj().T, atol=1e-12)
        assert np.allclose(centers @ w, np.eye(2), atol=1e-12)

    def test_nulling_on_random_instances(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            n_r = 3
            heads = rng.normal(size=(n_r, 12)) + 1j * rng.normal(size=(n_r, 12))
            v = _analog(heads, 3)
            centers = rng.normal(size=(n_r, 12)) + 1j * rng.normal(size=(n_r, 12))
            w, _ = _zf(centers, v)
            for i in range(n_r):
                for n in range(n_r):
                    if i != n:
                        leak = abs(centers[i] @ v @ w[:, n])
                        assert leak < 1e-9 * np.linalg.norm(centers[i])

    def test_unit_composed_norm(self):
        rng = np.random.default_rng(5)
        heads = rng.normal(size=(2, 8)) + 1j * rng.normal(size=(2, 8))
        v = _analog(heads, 2)
        centers = rng.normal(size=(2, 8)) + 1j * rng.normal(size=(2, 8))
        w, _ = _zf(centers, v)
        for n in range(2):
            assert np.linalg.norm(v @ w[:, n]) == pytest.approx(1.0, rel=1e-12)

    def test_all_zero_centers_give_zero_beams(self):
        # the loading flag reports it; no warning escapes
        centers = np.zeros((2, 2), dtype=complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w, loaded = _zf(centers, np.eye(2, dtype=complex))
        assert loaded and np.array_equal(w, np.zeros((2, 2)))

    def test_near_singular_loads_and_flags(self):
        # the loading flag reports it; no warning escapes
        centers = np.array([[1.0, 0.0], [1.0, 1e-13]], dtype=complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w, loaded = _zf(centers, np.eye(2, dtype=complex))
        assert loaded and np.all(np.isfinite(w))

    def test_loading_decision_matches_condition_number(self):
        # the eigenvalue test loads exactly where cond(Gram) > threshold
        rng = np.random.default_rng(12)
        cases = []
        for _ in range(300):
            n_r = int(rng.integers(1, 5))
            shape = (n_r, 3 * n_r)
            centers = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            kind = rng.integers(4)
            if kind == 1 and n_r > 1:  # nearly dependent rows, cond ~ 1/eps^2
                eps = 10.0 ** rng.uniform(-8, -1)
                centers[1] = centers[0] + eps * centers[1]
            elif kind == 2 and n_r > 1:  # exactly dependent rows
                centers[1] = (1.5 - 0.5j) * centers[0]
            elif kind == 3:  # all-zero Gram, or one zero center
                centers[rng.integers(n_r) if rng.random() < 0.5 else ...] = 0
            cases.append(centers)
        decisions = []
        for centers in cases:
            v = np.eye(centers.shape[1], dtype=complex)
            _, loaded = _zf(centers, v)
            gram = centers @ centers.conj().T
            assert loaded == (np.linalg.cond(gram) > 1e8)
            decisions.append(loaded)
        assert 0 < sum(decisions) < len(decisions)

    def test_nan_center_raises_on_default_shape(self):
        # a NaN center must stop the slot, not give NaN beams: default's
        # three APs of four 64-antenna clusters, one NaN entry at AP 1
        rng = np.random.default_rng(30)
        shape = (3, 4, 64)
        heads = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        v = ll.analog_beamformer(heads, 2)
        centers = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        centers[1, 2, 5] = np.nan
        with pytest.raises((np.linalg.LinAlgError, FloatingPointError)):
            ll.zf_digital_beamformer(centers, v, cond_threshold=COND_THRESHOLD)

    @pytest.mark.parametrize("n_r", [1, 2, 4])
    def test_nan_center_raises_on_every_gram_size(self, n_r):
        # LAPACK reports no failure on a NaN 1 x 1 or 2 x 2 Gram (the 1 x 1
        # one skips it), so the eigenvalue test rejects it
        rng = np.random.default_rng(31)
        shape = (2, n_r, 4 * n_r)
        v = ll.analog_beamformer(rng.normal(size=shape) + 0j, 2)
        centers = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        centers[0, -1, 0] = np.nan
        with pytest.raises(np.linalg.LinAlgError):
            ll.zf_digital_beamformer(centers, v, cond_threshold=COND_THRESHOLD)


class TestDecodeOrder:
    def test_sorted_descending(self):
        gains = {10: 3.0, 11: 1.0, 12: 2.0, 0: 9.0}
        assert _decoding_order([0, 10, 11, 12], gains) == [10, 12, 11, 0]

    def test_singleton(self):
        assert _decoding_order([0, 5], {0: 1.0, 5: 2.0}) == [5, 0]

    def test_ties_by_user_index(self):
        gains = {7: 1.0, 3: 1.0, 0: 5.0}
        assert _decoding_order([0, 7, 3], gains) == [3, 7, 0]


def _sic_and_sinr(h_eff, plans, alpha, sigma2):
    return _links_sic_and_sinr(ref.slot_links(h_eff, plans), alpha, sigma2)


def _links_sic_and_sinr(links, alpha, sigma2):
    terms = ll.power_terms(links, alpha)
    fail = ll.sic_feasibility(links, sigma2, terms)
    return fail, ll.sinr_all(links, sigma2, fail, terms)


def _oracle_flags(lit_fail, n_users):
    """The oracle's {IoT user: flag} as the (U,) array; heads get 0."""
    flags = np.zeros(n_users, dtype=int)
    flags[list(lit_fail)] = list(lit_fail.values())
    return flags


def _slot_plans(cfg, chan, rng, ris_off):
    """One slot of ``chan`` under a random (or all-off) RIS action, planned
    by ``derive_plan``: the channels and the slot's ``SlotLinks``."""
    parts = chan.slot_parts(rng)
    shape = (cfg.num_ris, cfg.ris_elements)
    on = np.zeros(shape, dtype=int) if ris_off else rng.integers(0, 2, shape)
    phase = rng.integers(0, 2 ** cfg.ris_phase_bits, shape)
    h_eff = parts.effective(ris_phase_diag(on, phase, cfg.ris_phase_bits))
    layout = ll.link_layout(*_ap_ids(chan.topo), cfg.total_users)
    return h_eff, ll.derive_plan(h_eff, layout, cfg)


def _ap_ids(topo):
    """(M, S) SE and (M, I) IoT ids of every AP."""
    kind, m = topo.user_kind, len(topo.ap_positions)
    users = topo.users
    return (users[kind[users] == SE].reshape(m, -1),
            users[kind[users] != SE].reshape(m, -1))


class TestSicAndSinr:
    def test_identical_channels_equality_means_success(self):
        rng = np.random.default_rng(6)
        h_eff, plans, alpha, _ = random_instance(rng, m=1, n_r=1,
                                                 extra_users=1)
        h_eff[0, 1] = h_eff[0, 0]  # IoT user sees exactly the head's channel
        alpha[:] = 0.2
        fail, _ = _sic_and_sinr(h_eff, plans, alpha, 1e-3)
        assert fail[1] == 0

    def test_zeroed_head_channel_fails(self):
        rng = np.random.default_rng(7)
        h_eff, plans, alpha, _ = random_instance(rng, m=1, n_r=1,
                                                 extra_users=2)
        h_eff[0, 0] = 0.0
        alpha[:] = 0.2
        fail, _ = _sic_and_sinr(h_eff, plans, alpha, 1e-3)
        assert all(fail[u] == 1 for u in (1, 2))

    def test_matches_literal_transcription(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            h_eff, plans, alpha, _ = random_instance(
                rng, m=int(rng.integers(1, 4)), n_r=int(rng.integers(1, 5)),
                extra_users=int(rng.integers(0, 5)))
            sigma2 = 10.0 ** rng.uniform(-4, 0)
            lit_fail, lit_sinr = literal_sic_and_sinr(h_eff, plans, alpha, sigma2)
            fail, got = _sic_and_sinr(h_eff, plans, alpha, sigma2)
            assert np.array_equal(fail, _oracle_flags(lit_fail, len(alpha)))
            np.testing.assert_allclose(got, lit_sinr, rtol=1e-12)

    @pytest.mark.parametrize("make_config, ris_off", [
        (tiny_config, False), (medium_config, False), (default_config, False),
        (partial(tiny_config, num_nlos_paths=0), True)],
        ids=["tiny", "medium", "default", "tiny-no-reflections-ris-off"])
    def test_derived_plans_match_literal_transcription(self, make_config,
                                                       ris_off):
        # plans derive_plan builds from sampled channels, not synthetic ones
        cfg = make_config()
        chan = EpisodeChannel(cfg, build_topology(cfg, np.random.default_rng(1)))
        rng = np.random.default_rng(2)
        chan.new_episode(rng)
        for _ in range(20):
            h_eff, links = _slot_plans(cfg, chan, rng, ris_off)
            alpha = rng.uniform(0, cfg.max_tx_power / cfg.users_per_ap,
                                cfg.total_users)
            lit_fail, lit_sinr = literal_sic_and_sinr(
                h_eff, _link_plans(links), alpha, cfg.noise_power)
            fail, got = _links_sic_and_sinr(links, alpha, cfg.noise_power)
            assert np.array_equal(fail, _oracle_flags(lit_fail, len(alpha)))
            np.testing.assert_allclose(got, lit_sinr, rtol=1e-12)

    def test_layout_follows_ranked_clusters(self):
        rng = np.random.default_rng(15)
        h_eff, _, _, _ = random_instance(rng, m=2, n_r=3, extra_users=4)
        cfg = tiny_config(num_aps=2, se_users_per_ap=3,
                          iot_users_per_ap=4, antennas=6)
        ids = np.arange(cfg.total_users).reshape(2, 7)
        links = ll.derive_plan(
            h_eff, ll.link_layout(ids[:, :3], ids[:, 3:], 14), cfg)
        plans = _link_plans(links)
        n_r = 3
        for m, plan in enumerate(plans):
            for n, members in enumerate(plan.clusters):
                for pos, u in enumerate(members, start=1):
                    assert links.slot[u] == m * n_r + n
                    assert links.head[u] == members[0]
                    assert links.position[u] == pos == plan.position[u]
                    g = abs(h_eff[m, u] @ plan.v @ plan.w[:, n]) ** 2
                    assert links.gains[u, m * n_r + n] == pytest.approx(g, rel=1e-12)
                    assert links.own[u] == links.gains[u, m * n_r + n]

    def test_user_outside_every_cluster_rejected(self):
        rng = np.random.default_rng(16)
        h_eff, _, _, _ = random_instance(rng, m=1, n_r=2, extra_users=1)
        cfg = tiny_config(se_users_per_ap=2, antennas=4)
        # the layout is checked once, when it is built
        with pytest.raises(ValueError, match="every user"):  # user 2 is left out
            ll.link_layout([[0, 1]], [[]], 3)
        with pytest.raises(ValueError, match="every user"):  # user 1 twice
            ll.link_layout([[0, 1]], [[1]], 3)
        with pytest.raises(ValueError, match="SE user"):
            ll.link_layout(np.empty((1, 0)), [[0, 1, 2]], 3)
        # a slot's channels must reach exactly the layout's users
        with pytest.raises(ValueError, match="every user"):
            ll.derive_plan(h_eff, ll.link_layout([[0, 1]], [[]], 2), cfg)

    def test_single_user_no_interference(self):
        rng = np.random.default_rng(9)
        h_eff, plans, alpha, _ = random_instance(rng, m=1, n_r=1,
                                                 extra_users=0)
        sigma2 = 1e-2
        links = ref.slot_links(h_eff, plans)
        got = ll.sinr_all(links, sigma2, np.zeros(len(alpha), dtype=int),
                          ll.power_terms(links, alpha))
        g = abs(h_eff[0, 0] @ plans[0].v @ plans[0].w[:, 0]) ** 2
        assert got[0] == pytest.approx(g * alpha[0] / sigma2, rel=1e-12)

    def test_zero_power_zero_sinr(self):
        rng = np.random.default_rng(10)
        h_eff, plans, alpha, _ = random_instance(rng)
        alpha[3] = 0.0
        assert _sic_and_sinr(h_eff, plans, alpha, 1e-2)[1][3] == 0

    def test_own_power_monotone(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            h_eff, plans, alpha, _ = random_instance(rng)
            u = int(rng.integers(0, len(alpha)))
            sigma2 = 1e-2

            def gamma_of(a_u):
                a = alpha.copy()
                a[u] = a_u
                return _sic_and_sinr(h_eff, plans, a, sigma2)[1][u]

            lo, hi = sorted(rng.uniform(0, 1, 2))
            assert gamma_of(hi) >= gamma_of(lo) - 1e-15


class TestRates:
    def test_unit_sinr(self):
        assert ll.rates_gbps(np.array([1.0]), 10e9)[0] == pytest.approx(10.0)

    def test_zero_sinr(self):
        assert ll.rates_gbps(np.array([0.0]), 10e9)[0] == 0.0

    def test_three_sinr(self):
        assert ll.rates_gbps(np.array([3.0]), 10e9)[0] == pytest.approx(20.0)

    def test_negative_sinr_rejected(self):
        with pytest.raises(ValueError):
            ll.rates_gbps(np.array([1.0, -1e-3]), 10e9)
        # a NaN is not non-negative: unchecked, it came back as a NaN rate
        with pytest.raises(ValueError):
            ll.rates_gbps(np.array([1.0, np.nan]), 10e9)


class TestPowerAndEfficiency:
    def test_idle_network_is_circuit_only(self):
        cfg = medium_config()
        p = ll.power_consumption(np.zeros(cfg.total_users),
                                 np.zeros((2, cfg.ris_elements)), cfg)
        p_ap = cfg.p_bb + cfg.rf_chains * cfg.p_rf + cfg.antennas * (cfg.p_ps + cfg.p_a)
        assert p == pytest.approx(cfg.total_users * cfg.p_d + cfg.num_aps * p_ap)

    def test_one_ris_element_increment(self):
        cfg = tiny_config()
        base = np.zeros((1, cfg.ris_elements))
        one = base.copy()
        one[0, 0] = 1
        alpha = np.full(cfg.total_users, 0.1)
        assert (ll.power_consumption(alpha, one, cfg)
                - ll.power_consumption(alpha, base, cfg)
                == pytest.approx(cfg.p_ris_element))

    def test_composite_hand_sum(self):
        cfg = tiny_config()
        alpha = np.array([0.3, 0.2])
        on = np.ones((1, cfg.ris_elements))
        p_ap = cfg.p_bb + cfg.rf_chains * cfg.p_rf + cfg.antennas * (cfg.p_ps + cfg.p_a)
        expect = (cfg.pa_inefficiency * 0.5 + cfg.total_users * cfg.p_d
                  + p_ap + cfg.ris_elements * cfg.p_ris_element)
        assert ll.power_consumption(alpha, on, cfg) == pytest.approx(expect, rel=1e-12)

    def test_efficiency_linear_in_rates(self):
        r = np.array([4.0, 6.0])
        assert ll.energy_efficiency(2 * r, 5.0) == pytest.approx(
            2 * ll.energy_efficiency(r, 5.0))

    def test_efficiency_zero_rates(self):
        assert ll.energy_efficiency(np.zeros(3), 2.0) == 0.0

    def test_efficiency_recomposes(self):
        r = np.array([1.5, 2.5, 3.0])
        assert ll.energy_efficiency(r, 4.0) == pytest.approx(r.sum() / 4.0)

    @pytest.mark.parametrize("power_w", [0.0, -1.0])
    def test_efficiency_needs_positive_power(self, power_w):
        with pytest.raises(ValueError, match="power must be positive"):
            ll.energy_efficiency(np.ones(2), power_w)


class TestDerivePlan:
    def test_decode_positions_follow_gains(self):
        cfg = medium_config()
        rng = np.random.default_rng(12)
        n_a = cfg.antennas
        h = rng.normal(size=(6, n_a)) + 1j * rng.normal(size=(6, n_a))
        plan = _plan(h, [0, 1], [2, 3, 4, 5], cfg)
        for n, members in enumerate(plan.clusters):
            assert plan.position[members[0]] == 1
            assert [plan.position[u] for u in members] == list(
                range(1, len(members) + 1))
            assert all(plan.cluster_of[u] == n for u in members)
            gains = [abs(h[u] @ plan.v @ plan.w[:, n]) ** 2
                     for u in members[1:]]
            assert gains == sorted(gains, reverse=True)

    def test_iot_permutation_leaves_plan_identical(self):
        cfg = medium_config()
        rng = np.random.default_rng(13)
        h = rng.normal(size=(6, cfg.antennas)) + 1j * rng.normal(size=(6, cfg.antennas))
        p1 = _plan(h, [0, 1], [2, 3, 4, 5], cfg)
        p2 = _plan(h, [0, 1], [5, 4, 3, 2], cfg)
        assert p1.clusters == p2.clusters
        assert np.array_equal(p1.position, p2.position)
        assert np.array_equal(p1.v, p2.v) and np.array_equal(p1.w, p2.w)

    def test_too_many_heads_rejected(self):
        cfg = medium_config()
        h = np.ones((4, cfg.antennas), dtype=complex)
        with pytest.raises(ValueError):
            _plan(h, [0, 1, 2], [3], cfg)


class TestStackedPlanner:
    """Cases of one ``derive_plan`` over every AP of a slot, each against
    the per-AP reference planner."""

    @staticmethod
    def _channels(rng, m, u, n_a):
        return rng.normal(size=(m, u, n_a)) + 1j * rng.normal(size=(m, u, n_a))

    def test_no_iot_users(self):
        cfg = tiny_config(num_aps=2, se_users_per_ap=2,
                          iot_users_per_ap=0, antennas=4)
        h = self._channels(np.random.default_rng(20), 2, 4, 4)
        se = np.array([[0, 1], [2, 3]])
        want = ref.reference_links(h, se, np.empty((2, 0), dtype=int), cfg)
        # an empty id list reads as a float array: it must still index
        for iot in (np.empty((2, 0), dtype=np.intp), [[], []]):
            links = ll.derive_plan(h, ll.link_layout(se, iot, 4), cfg)
            ref.assert_same_links(links, want)
            assert np.array_equal(links.position, np.ones(4))

    def test_one_loaded_ap_among_unloaded(self):
        cfg = tiny_config(num_aps=3, se_users_per_ap=2,
                          iot_users_per_ap=1, antennas=4)
        h = self._channels(np.random.default_rng(21), 3, 9, 4)
        ids = np.arange(9).reshape(3, 3)
        # AP 1's heads are parallel and its IoT user has a zero channel, so
        # its cluster centers are parallel: a singular Gram
        h[1, 4] = (1.5 - 0.5j) * h[1, 3]
        h[1, 5] = 0.0
        with warnings.catch_warnings():  # the flag reports the loading
            warnings.simplefilter("error")
            links = ll.derive_plan(h, ll.link_layout(ids[:, :2], ids[:, 2:], 9),
                                   cfg)
        assert links.zf_loaded.tolist() == [False, True, False]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            want = ref.reference_links(h, ids[:, :2], ids[:, 2:], cfg)
        ref.assert_same_links(links, want)

    def test_all_zero_gram(self):
        cfg = tiny_config(num_aps=2, se_users_per_ap=2,
                          iot_users_per_ap=1, antennas=4)
        h = self._channels(np.random.default_rng(22), 2, 6, 4)
        h[0] = 0.0                      # AP 0 reaches no user at all
        ids = np.arange(6).reshape(2, 3)
        links = ll.derive_plan(h, ll.link_layout(ids[:, :2], ids[:, 2:], 6),
                               cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            want = ref.reference_links(h, ids[:, :2], ids[:, 2:], cfg)
        ref.assert_same_links(links, want)
        assert links.zf_loaded.tolist() == [True, False]
        assert not links.w[0].any() and not links.gains[:, :2].any()

    def test_capacity_error(self):
        h = self._channels(np.random.default_rng(23), 2, 10, 4)
        ids = np.arange(10).reshape(2, 5)
        # two clusters of at most 2 seat two IoT users, not three
        with pytest.raises(ValueError, match="capacity"):
            ll.cluster_users(h, ll.link_layout(ids[:, :2], ids[:, 2:], 10), 2)
        with pytest.raises(ValueError, match="capacity"):
            ref.cluster_users(h[1], [5, 6], [7, 8, 9], 2)
