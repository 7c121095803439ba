import math

import numpy as np
import pytest

from risnoma.channel import (ChannelState, EpisodeChannel, _amp, array_response,
                             los_probability, path_loss_db, reflection_coeff,
                             ris_phase_diag)
from risnoma.config import C_LIGHT
from risnoma.presets import default_config, medium_config, tiny_config
from risnoma.topology import IOT, SE, build_topology, dump_topology


def spreading_plus_absorption(freq, dist, k_abs):
    # independent hand evaluation used to freeze the spot values below
    spread = 20 * np.log10(C_LIGHT / (4 * np.pi * freq * dist))
    return spread - 10 * k_abs * dist * np.log10(np.e)


class TestPathLoss:
    def test_spot_value_5m(self):
        assert path_loss_db(0.3e12, 5.0, 0.0033) == pytest.approx(-96.0413, abs=2e-3)

    def test_spot_value_10m(self):
        assert path_loss_db(0.3e12, 10.0, 0.0033) == pytest.approx(-102.1335, abs=2e-3)

    def test_matches_hand_formula(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            f = rng.uniform(0.1e12, 1e12)
            d = rng.uniform(0.5, 30.0)
            k = rng.uniform(0.0, 0.05)
            assert path_loss_db(f, d, k) == pytest.approx(
                spreading_plus_absorption(f, d, k), rel=1e-12)

    def test_zero_absorption_removes_term(self):
        f, d = 0.3e12, 7.0
        assert path_loss_db(f, d, 0.0) == pytest.approx(
            20 * np.log10(C_LIGHT / (4 * np.pi * f * d)), rel=1e-14)

    def test_strictly_decreasing_in_distance(self):
        d = np.linspace(0.5, 25.0, 200)
        pl = path_loss_db(0.3e12, d, 0.0033)
        assert np.all(np.diff(pl) < 0)

    def test_absorption_linear_in_distance(self):
        f, k = 0.3e12, 0.01
        extra = path_loss_db(f, 4.0, 0.0) - path_loss_db(f, 4.0, k)
        assert path_loss_db(f, 8.0, 0.0) - path_loss_db(f, 8.0, k) == pytest.approx(
            2 * extra, rel=1e-12)

    def test_zero_distance_rejected(self):
        with pytest.raises(ValueError):
            path_loss_db(0.3e12, 0.0, 0.0033)

    @pytest.mark.parametrize("freq", [0.0, -0.3e12])
    def test_nonpositive_frequency_rejected(self, freq):
        with pytest.raises(ValueError, match="frequency"):
            path_loss_db(freq, 5.0, 0.0033)


class TestLosProbability:
    def test_zero_distance(self):
        assert los_probability(0.0, 8.0) == 1.0

    def test_analytic_point(self):
        assert los_probability(8.0, 8.0) == pytest.approx(np.exp(-1), rel=1e-12)

    def test_monotone_nonincreasing(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            d1, d2 = sorted(rng.uniform(0, 50, 2))
            assert los_probability(d2, 8.0) <= los_probability(d1, 8.0)

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            los_probability(-1.0, 8.0)

    def test_array_matches_scalar(self):
        d = np.array([[0.0, 3.0], [8.0, 20.0]])
        got = los_probability(d, 8.0)
        assert got.shape == d.shape
        assert np.array_equal(got, [[los_probability(x, 8.0) for x in row] for row in d])

    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError):
            los_probability(np.array([1.0, -1.0]), 8.0)

    @pytest.mark.parametrize("d_b", [0.0, -8.0])
    def test_nonpositive_decay_distance_rejected(self, d_b):
        with pytest.raises(ValueError, match="decay distance"):
            los_probability(1.0, d_b)


class TestArrayResponse:
    def test_broadside_all_equal(self):
        v = array_response(8, 0.0)
        assert np.allclose(v, 1 / np.sqrt(8))

    def test_two_element_endfire(self):
        v = array_response(2, np.pi / 2)
        assert v[0] == pytest.approx(1 / np.sqrt(2))
        assert v[1] == pytest.approx(-1 / np.sqrt(2), abs=1e-12)

    def test_unit_norm(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(1, 1025))
            phi = rng.uniform(-np.pi / 2, np.pi / 2)
            assert abs(np.linalg.norm(array_response(n, phi)) - 1.0) < 1e-12

    def test_array_of_angles_stacks_vectors(self):
        aod = np.random.default_rng(12).uniform(-np.pi / 2, np.pi / 2, (2, 3))
        got = array_response(5, aod)
        assert got.shape == (2, 3, 5)
        for idx in np.ndindex(aod.shape):
            assert np.array_equal(got[idx], array_response(5, aod[idx]))

    def test_empty_array_rejected(self):
        with pytest.raises(ValueError, match="array size"):
            array_response(0, 0.0)


class TestReflectionCoeff:
    def test_zero_roughness_is_pure_fresnel(self):
        n_r = 1.922 + 0.0057j
        got = reflection_coeff(0.0, 0.0, 0.3e12, n_r)
        assert got == pytest.approx((1 - n_r) / (1 + n_r), rel=1e-12)

    def test_normal_incidence_value(self):
        got = reflection_coeff(0.0, 0.0, 0.3e12, 1.922 + 0.0057j)
        assert got.real == pytest.approx(-0.315540, abs=1e-5)
        assert got.imag == pytest.approx(-0.0013352, abs=1e-6)

    def test_rough_normal_incidence_value(self):
        # x = 4*pi*f*sigma/c = 1.10657 at normal incidence; exp(-x**2/2) = 0.5421088
        got = reflection_coeff(0.0, 8.8e-5, 0.3e12, 1.922 + 0.0057j)
        smooth = reflection_coeff(0.0, 0.0, 0.3e12, 1.922 + 0.0057j)
        assert abs(got / smooth) == pytest.approx(0.5421088, abs=1e-7)
        assert got.real == pytest.approx(-0.1710570, abs=1e-7)
        assert got.imag == pytest.approx(-0.0007238, abs=1e-7)

    def test_magnitude_below_one(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            phi = rng.uniform(0, np.pi / 2 - 1e-6)
            sigma = rng.uniform(0, 5e-4)
            n_r = rng.uniform(1.2, 3.0) + 1j * rng.uniform(0, 0.1)
            assert abs(reflection_coeff(phi, sigma, 0.3e12, n_r)) <= 1 + 1e-12

    def test_array_matches_scalar(self):
        phi = np.random.default_rng(13).uniform(0, np.pi / 2, (3, 2))
        got = reflection_coeff(phi, 8.8e-5, 0.3e12, 1.922 + 0.0057j)
        assert got.shape == phi.shape
        for idx in np.ndindex(phi.shape):
            assert got[idx] == pytest.approx(
                reflection_coeff(float(phi[idx]), 8.8e-5, 0.3e12, 1.922 + 0.0057j),
                rel=1e-14)

    def test_grazing_entry_rejected(self):
        with pytest.raises(ValueError):
            reflection_coeff(np.array([0.1, np.pi / 2]), 0.0, 0.3e12, 1.922 + 0.0057j)


class TestRisPhase:
    def test_all_off_zero_matrix(self):
        theta = ris_phase_diag(np.zeros(4), np.zeros(4, dtype=int), 1)
        assert np.all(theta == 0)

    def test_one_bit_set(self):
        theta = ris_phase_diag(np.array([1, 1]), np.array([0, 1]), 1)
        assert np.allclose(theta, [1, -1])

    def test_two_bit_index_three(self):
        d = ris_phase_diag(np.array([1]), np.array([3]), 2)
        assert d[0] == pytest.approx(-1j, abs=1e-12)

    def test_magnitudes_binary(self):
        rng = np.random.default_rng(9)
        on = rng.integers(0, 2, 16)
        idx = rng.integers(0, 4, 16)
        mags = np.abs(ris_phase_diag(on, idx, 2))
        assert np.all((mags == 0) | (np.abs(mags - 1) < 1e-15))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            ris_phase_diag(np.array([1]), np.array([2]), 1)

    @pytest.mark.parametrize("on, phase", [
        ([[1, 2]], [[0, 1]]),      # on/off not binary
        ([[1, -1]], [[0, 1]]),
        ([[0, 1]], [[-1, 0]]),     # negative phase index
        ([[0, 1]], [[0, 4]]),      # past the 2-bit range
        ([[0.5, 1]], [[0, 1]]),    # fractional on/off
        ([[0, 1]], [[0, 1.5]]),    # fractional phase index
        ([[np.nan, 1]], [[0, 1]]),
        ([[0, 1]], [[0, np.nan]]),
        ([[0, 1]], [[0, np.inf]]),
        ([[1]], [[0, 1]]),         # shapes that differ but broadcast
    ])
    def test_bad_action_entries_rejected(self, on, phase):
        with pytest.raises(ValueError):
            ris_phase_diag(np.array(on), np.array(phase), 2)

    @pytest.mark.parametrize("bits", [1, 2, 3])
    def test_table_is_the_elementwise_exp_bitwise(self, bits):
        rng = np.random.default_rng(bits)
        on = rng.integers(0, 2, (3, 17))
        idx = rng.integers(0, 2 ** bits, (3, 17))
        want = on * np.exp(1j * (2.0 ** (1 - bits)) * np.pi * idx)
        assert ris_phase_diag(on, idx, bits).tobytes() == want.tobytes()

    def test_whole_float_and_bool_actions_match_int(self):
        on = np.array([[1, 0, 1]])
        idx = np.array([[3, 2, 0]])
        want = ris_phase_diag(on, idx, 2)
        for got in (ris_phase_diag(on.astype(bool), idx, 2),
                    ris_phase_diag(on.astype(float), idx.astype(float), 2)):
            assert got.tobytes() == want.tobytes()
        one_bit = ris_phase_diag(on, idx % 2, 1)
        assert (ris_phase_diag(on.astype(bool), (idx % 2).astype(bool), 1)
                .tobytes() == one_bit.tobytes())


def cplx(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def hand_state(direct, ris_user, ap_ris):
    """A ChannelState from hand-built (M, U, N), (J, U, L), (M, J, L, N) links."""
    m, u, _ = direct.shape
    j = ris_user.shape[0]
    return ChannelState(direct, ris_user, ap_ris, np.ones((m, u), dtype=np.int8),
                        np.ones((j, u), dtype=np.int8))


class TestCascade:
    def _state(self, rng, count, l_el, n_a, m=2, u=3):
        return hand_state(cplx(rng, m, u, n_a), cplx(rng, count, u, l_el),
                          cplx(rng, m, count, l_el, n_a))

    def test_all_off_returns_direct(self):
        state = self._state(np.random.default_rng(2), 1, 3, 6)
        assert np.array_equal(state.effective(np.zeros((1, 3))), state.direct)

    def test_single_element_hand_case(self):
        h = np.array([1 + 1j, 2.0])
        f = np.array([3.0 - 1j])
        g = np.array([[0.5, 2j]])
        state = hand_state(h[None, None], f[None, None], g[None, None])
        got = state.effective(np.array([[1.0]]))
        assert np.allclose(got[0, 0], h + f[0] * g[0])

    def test_additive_over_ris_set(self):
        rng = np.random.default_rng(4)
        state = self._state(rng, 2, 3, 5)
        theta = np.exp(1j * rng.uniform(0, 2 * np.pi, (2, 3)))
        both = state.effective(theta)
        split = [hand_state(state.direct, state.ris_user[r:r + 1],
                            state.ap_ris[:, r:r + 1]).effective(theta[r:r + 1])
                 for r in range(2)]
        assert np.allclose(both, split[0] + split[1] - state.direct, atol=1e-12)

    def test_linear_in_theta(self):
        rng = np.random.default_rng(6)
        state = self._state(rng, 1, 3, 4)
        state.direct[:] = 0
        t1, t2 = cplx(rng, 1, 3), cplx(rng, 1, 3)
        lhs = state.effective(t1 + t2)
        rhs = state.effective(t1) + state.effective(t2)
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_dimension_mismatch_rejected(self):
        state = hand_state(np.ones((1, 1, 4)), np.ones((1, 1, 3)),
                           np.ones((1, 1, 3, 4)))
        with pytest.raises(ValueError):
            state.effective(np.ones((1, 2)))


def within_by_hand(a, b, radius):
    """Pairs (i, k) of points a[i], b[k] at most ``radius`` apart, by
    ``math.dist`` on each pair: the oracle for the topology's adjacency."""
    return [[math.dist(p, q) <= radius for q in b.tolist()] for p in a.tolist()]


class TestTopology:
    def test_same_seed_identical(self):
        cfg = medium_config()
        t1 = build_topology(cfg, np.random.default_rng(42))
        t2 = build_topology(cfg, np.random.default_rng(42))
        assert np.array_equal(t1.user_positions, t2.user_positions)
        for name in ("ap_ris", "ap_ap", "users"):
            assert np.array_equal(getattr(t1, name), getattr(t2, name))

    def test_infinite_radius_all_neighbors(self):
        cfg = medium_config(neighbor_radius=np.inf)
        topo = build_topology(cfg, np.random.default_rng(0))
        assert topo.ap_ris.shape == (cfg.num_aps, cfg.num_ris)
        assert topo.ap_ris.all()
        assert np.array_equal(topo.ap_ap, ~np.eye(cfg.num_aps, dtype=bool))

    def test_default_room_nonempty_neighbor_sets(self):
        cfg = medium_config(num_aps=3, num_ris=4, se_users_per_ap=3,
                            antennas=33)
        topo = build_topology(cfg, np.random.default_rng(1))
        near = np.array(within_by_hand(topo.ap_positions, topo.ris_positions,
                                       cfg.neighbor_radius))
        assert np.array_equal(topo.ap_ris, near)
        assert near.any(axis=1).all() and near.any(axis=0).all()

    def test_neighbor_consistency(self):
        # the adjacency is the distance threshold, checked pair by pair; the
        # radii cut between the AP-RIS and AP-AP distances of both rooms, and
        # 8.0 is exactly medium's AP-AP distance: a pair at the radius is in
        for make in (medium_config, default_config):
            for radius in (0.0, 5.5, 7.0, 8.0, 9.0, 14.0):
                cfg = make(neighbor_radius=radius)
                topo = build_topology(cfg, np.random.default_rng(2))
                aps, ris = topo.ap_positions, topo.ris_positions
                assert topo.ap_ris.tolist() == within_by_hand(aps, ris, radius)
                ap_ap = within_by_hand(aps, aps, radius)
                for i in range(cfg.num_aps):
                    ap_ap[i][i] = False   # an AP is not its own neighbour
                assert topo.ap_ap.tolist() == ap_ap

    def test_every_user_has_one_ap(self):
        cfg = medium_config()
        topo = build_topology(cfg, np.random.default_rng(3))
        assert len(topo.ap_of_user) == cfg.total_users
        assert topo.users.shape == (cfg.num_aps, cfg.users_per_ap)
        assert sorted(topo.users.ravel().tolist()) == list(range(cfg.total_users))
        se = cfg.se_users_per_ap
        for ap, row in enumerate(topo.users):
            assert (topo.ap_of_user[row] == ap).all()
            assert (topo.user_kind[row[:se]] == SE).all()   # SE ids first
            assert (topo.user_kind[row[se:]] == IOT).all()

    def test_dump_text_is_pinned(self, tmp_path):
        # tiny at seed 1, as NetworkEnv(tiny_config(), 1) draws it
        topo = build_topology(tiny_config(), np.random.default_rng([1, 0]))
        dump_topology(topo, tmp_path / "topo.txt")
        assert (tmp_path / "topo.txt").read_text() == (
            "# risnoma topology dump\n"
            "aps 1\n"
            "ap 0 pos 4.000 3.000 3.000 neighbor_ris [0] neighbor_ap []\n"
            "ris 1\n"
            "ris 0 pos 4.000 0.000 1.800 neighbor_ap [0]\n"
            "users 2\n"
            "user 0 kind se ap 0 pos 4.095 0.865 1.000\n"
            "user 1 kind iot ap 0 pos 7.604 5.692 1.000\n")

    def test_layout_arrays_are_read_only(self):
        topo = build_topology(tiny_config(), np.random.default_rng(4))
        for arr in (topo.ap_ris, topo.ap_ap, topo.users):
            with pytest.raises(ValueError):
                arr[0] = 0

    def test_zero_room_rejected(self):
        with pytest.raises(ValueError):
            medium_config(room_x=0.0)

    @pytest.mark.parametrize("override", [
        dict(num_aps=0), dict(num_ris=-1),
        dict(se_users_per_ap=0), dict(iot_users_per_ap=-1),
        dict(antennas=0), dict(ris_elements=0), dict(num_nlos_paths=-1),
        dict(analog_phase_bits=-1), dict(analog_phase_bits=0),
        dict(episode_slots=0),
    ])
    def test_bad_counts_rejected(self, override):
        with pytest.raises(ValueError):
            medium_config(**override)

    @pytest.mark.parametrize("noise_power", [0.0, -1e-12])
    def test_nonpositive_noise_power_rejected(self, noise_power):
        # with no reflection and a blocked LoS a zero channel gives SINR 0/0
        with pytest.raises(ValueError, match="noise_power"):
            tiny_config(num_nlos_paths=0, noise_power=noise_power)

    def test_zf_on_effective_is_gone(self):
        # ZF is always taken on the analog-composed centers
        with pytest.raises(TypeError):
            medium_config(zf_on_effective=False)


def episode_state(cfg, topo, seed):
    chan = EpisodeChannel(cfg, topo)
    rng = np.random.default_rng(seed)
    chan.new_episode(rng)
    return chan.slot_parts(rng)


def replay_draws(cfg, seed):
    """The documented draw order of new_episode then slot_parts, by hand."""
    m, j, u, p = cfg.num_aps, cfg.num_ris, cfg.total_users, cfg.num_nlos_paths
    rng = np.random.default_rng(seed)
    d = dict(los_direct=rng.random((m, u)),
             aod=rng.uniform(-np.pi / 2, np.pi / 2, (m, u, p)),
             detour=rng.uniform(cfg.detour_min, cfg.detour_max, (m, u, p)),
             incidence=rng.uniform(0, np.pi / 2, (m, u, p)),
             los_ris=rng.random((j, u)))
    d.update(phase_direct=rng.uniform(0, 2 * np.pi, (m, u, 1 + p)),
             phase_f=rng.uniform(0, 2 * np.pi, (j, u)),
             phase_g=rng.uniform(0, 2 * np.pi, (m, j)))
    return d


class TestDirectChannel:
    def test_no_paths_gives_zero(self):
        cfg = tiny_config(num_nlos_paths=0, los_decay_distance=1e-9)
        topo = build_topology(cfg, np.random.default_rng(0))
        state = episode_state(cfg, topo, 1)
        assert np.all(state.los_direct == 0)
        assert np.all(state.direct == 0)

    def test_pure_los_composes_from_parts(self):
        cfg = tiny_config(num_nlos_paths=0, los_decay_distance=1e12)
        topo = build_topology(cfg, np.random.default_rng(0))
        state = episode_state(cfg, topo, 123)
        assert state.los_direct[0, 1] == 1
        phase = replay_draws(cfg, 123)["phase_direct"][0, 1, 0]
        delta = topo.user_positions[1] - topo.ap_positions[0]
        dist = np.linalg.norm(delta)
        aod = np.arcsin(delta[0] / dist)
        amp = cfg.amp_gain * 10 ** (
            (path_loss_db(cfg.carrier_freq, dist, cfg.absorption_coeff)
             + cfg.antenna_gain_dbi) / 20)
        expect = amp * np.exp(1j * phase) * np.conj(array_response(cfg.antennas, aod))
        assert np.allclose(state.direct[0, 1], expect, rtol=1e-12)

    def test_reflected_path_composes_from_parts(self):
        cfg = tiny_config(num_nlos_paths=1, los_decay_distance=1e-9)
        topo = build_topology(cfg, np.random.default_rng(0))
        state = episode_state(cfg, topo, 31)
        assert np.all(state.los_direct == 0)
        draws = replay_draws(cfg, 31)
        for k in range(cfg.total_users):
            dist = np.linalg.norm(topo.user_positions[k] - topo.ap_positions[0])
            refl = reflection_coeff(draws["incidence"][0, k, 0], cfg.roughness_sigma,
                                    cfg.carrier_freq, cfg.refractive_index)
            expect = (_amp(cfg, dist * draws["detour"][0, k, 0]) * refl
                      * np.exp(1j * draws["phase_direct"][0, k, 1])
                      * np.conj(array_response(cfg.antennas, draws["aod"][0, k, 0])))
            assert np.allclose(state.direct[0, k], expect, rtol=1e-12, atol=0)

    def test_seed_reproducible(self):
        cfg = tiny_config()
        topo = build_topology(cfg, np.random.default_rng(0))
        s1, s2 = episode_state(cfg, topo, 9), episode_state(cfg, topo, 9)
        assert np.array_equal(s1.los_direct, s2.los_direct)
        assert np.array_equal(s1.direct, s2.direct)


class TestSampler:
    def test_slot_before_an_episode_rejected(self):
        cfg = tiny_config()
        chan = EpisodeChannel(cfg, build_topology(cfg, np.random.default_rng(0)))
        with pytest.raises(RuntimeError, match="new_episode"):
            chan.slot_parts(np.random.default_rng(1))

    def test_infinite_decay_all_los(self):
        cfg = tiny_config(los_decay_distance=1e12)
        topo = build_topology(cfg, np.random.default_rng(0))
        state = episode_state(cfg, topo, 5)
        assert np.all(state.los_direct == 1) and np.all(state.los_ris == 1)

    def test_ris_off_leaves_direct(self):
        cfg = tiny_config()
        topo = build_topology(cfg, np.random.default_rng(0))
        state = episode_state(cfg, topo, 5)
        off = np.zeros((1, cfg.ris_elements), dtype=int)
        beta = np.zeros((1, cfg.ris_elements), dtype=int)
        h_eff = state.effective(ris_phase_diag(off, beta, cfg.ris_phase_bits))
        assert np.array_equal(h_eff, state.direct)

    def test_effective_matches_manual_recomposition(self):
        cfg = medium_config(ris_elements=3)
        topo = build_topology(cfg, np.random.default_rng(0))
        state = episode_state(cfg, topo, 8)
        on = np.array([[1, 0, 1], [1, 1, 0]])
        beta = np.array([[1, 0, 1], [0, 1, 1]])
        theta = ris_phase_diag(on, beta, cfg.ris_phase_bits)
        h_eff = state.effective(theta)
        for i in range(cfg.num_aps):
            for u in range(cfg.total_users):
                manual = state.direct[i, u].copy()
                for r in range(cfg.num_ris):
                    manual += (state.ris_user[r, u] @ np.diag(theta[r])
                               @ state.ap_ris[i, r])
                assert np.allclose(h_eff[i, u], manual, rtol=1e-12)

    def test_ap_ris_block_composes_from_parts(self):
        cfg = medium_config(ris_elements=5)
        topo = build_topology(cfg, np.random.default_rng(0))
        state = episode_state(cfg, topo, 17)
        phase_g = replay_draws(cfg, 17)["phase_g"]
        for i in range(cfg.num_aps):
            for r in range(cfg.num_ris):
                delta = topo.ris_positions[r] - topo.ap_positions[i]
                dist = np.linalg.norm(delta)
                arrive = array_response(cfg.ris_elements, np.arcsin(-delta[0] / dist))
                depart = array_response(cfg.antennas, np.arcsin(delta[0] / dist))
                expect = (_amp(cfg, dist) * np.exp(1j * phase_g[i, r])
                          * np.outer(arrive, np.conj(depart)))
                assert np.allclose(state.ap_ris[i, r], expect, rtol=1e-12, atol=0)

    def test_ris_user_row_composes_from_parts(self):
        cfg = medium_config(ris_elements=5, los_decay_distance=1e12)
        topo = build_topology(cfg, np.random.default_rng(0))
        state = episode_state(cfg, topo, 19)
        assert np.all(state.los_ris == 1)
        phase_f = replay_draws(cfg, 19)["phase_f"]
        for r in range(cfg.num_ris):
            for k in range(cfg.total_users):
                delta = topo.user_positions[k] - topo.ris_positions[r]
                dist = np.linalg.norm(delta)
                expect = (_amp(cfg, dist, with_gain=False) * np.exp(1j * phase_f[r, k])
                          * np.conj(array_response(cfg.ris_elements,
                                                   np.arcsin(delta[0] / dist))))
                assert np.allclose(state.ris_user[r, k], expect, rtol=1e-12, atol=0)

    def test_slot_resampling_is_seed_stable(self):
        cfg = tiny_config()
        topo = build_topology(cfg, np.random.default_rng(0))

        def run(seed):
            chan = EpisodeChannel(cfg, topo)
            rng = np.random.default_rng(seed)
            chan.new_episode(rng)
            return [chan.slot_parts(rng).direct for _ in range(3)]

        a, b = run(21), run(21)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)
        assert not np.array_equal(a[0], a[1])  # phases really move per slot
