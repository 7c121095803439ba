import numpy as np
import pytest

from risnoma.queueing import rate_violation, QueueState


def stepped(q, served, arrival, y=0.0, q_max=25.0, eps=0.1):
    """(q, y) of one user after one ``QueueState.step`` from backlog ``q``
    and deficit ``y``, with the deficit budget q_max * eps."""
    qs = QueueState(np.zeros(1), np.array([q_max]), eps, 1e-4, 5.0)
    qs.q[:], qs.y[:] = q, y
    q_next, y_next = qs.step(np.array([served]), np.array([arrival]))
    return q_next[0], y_next[0]


class TestQueueUpdate:
    def test_hand_case(self):
        assert stepped(5.0, 2.0, 1.0)[0] == 4.0

    def test_overserved_clamps_to_arrivals(self):
        assert stepped(3.0, 7.0, 1.5)[0] == 1.5

    def test_idle_identity(self):
        assert stepped(4.0, 0.0, 0.0)[0] == 4.0


class TestVirtualQueue:
    # an idle slot keeps the backlog, so the deficit update sees q_next = q
    def test_hand_case(self):
        assert stepped(4.0, 0.0, 0.0)[1] == 1.5

    def test_under_budget_stays_zero(self):
        assert stepped(2.0, 0.0, 0.0)[1] == 0.0

    def test_positive_growth_is_exact(self):
        y = 3.0
        got = stepped(4.0, 0.0, 0.0, y=y)[1]
        assert got == y + 4.0 - 2.5

    def test_never_negative(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            y = rng.uniform(0, 5)
            got = stepped(rng.uniform(0, 3), 0.0, 0.0, y=y)[1]
            assert got >= 0


class TestRateViolation:
    def test_all_above(self):
        assert rate_violation([3.0, 4.0], [2.0, 0.1]) == 0.0

    def test_half_gbps_short(self):
        assert rate_violation([1.5, 4.0], [2.0, 0.1]) == pytest.approx(0.5)

    def test_nonincreasing_in_rates(self):
        rng = np.random.default_rng(3)
        minima = np.array([2.0, 0.1, 0.1])
        for _ in range(200):
            r = rng.uniform(0, 3, 3)
            bump = r.copy()
            k = rng.integers(0, 3)
            bump[k] += rng.uniform(0, 1)
            assert rate_violation(bump, minima) <= rate_violation(r, minima)


class TestQueueState:
    def _qs(self):
        return QueueState(np.array([0.01, 0.0002]), np.array([0.025, 0.01]),
                          0.1, 1e-4, 5.0)

    def test_arrivals_respect_cap_and_mean(self):
        qs = self._qs()
        rng = np.random.default_rng(5)
        draws = np.stack([qs.sample_arrivals(rng) for _ in range(4000)])
        assert np.all(draws <= qs.a_max + 1e-15)
        assert draws[:, 0].mean() == pytest.approx(0.01, rel=0.05)

    def test_weights_track_state(self):
        qs = self._qs()
        qs.q[:] = [0.5, 0.1]
        qs.y[:] = [0.2, 0.0]
        assert np.allclose(qs.weights(), [1.2, 0.2])

    def test_weight_definition(self):
        qs = self._qs()
        rng = np.random.default_rng(1)
        for _ in range(200):
            q, y = rng.uniform(0, 10, (2, 2))
            qs.q[:], qs.y[:] = q, y
            assert qs.weights().tolist() == [y[i] + 2 * q[i] for i in range(2)]

    def test_step_applies_both_updates(self):
        qs = self._qs()
        qs.q[:] = [0.01, 0.001]
        q, y = qs.step(np.array([0.002, 0.0]), np.array([0.005, 0.0001]))
        assert q[0] == pytest.approx(0.005 + 0.008)
        assert y[0] == pytest.approx(max(0.013 - 0.0025, 0.0))
