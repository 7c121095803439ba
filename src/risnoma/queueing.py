"""Traffic queues, virtual deficit queues and rate shortfall.

Each user's reward weight y + 2q (``QueueState.weights``) is the factor of
service in the quadratic Lyapunov drift bound, drift <= const + ... +
(y + 2q) * (arrival - service), so the shaped reward pays most for serving
long and over-budget queues.  ``QueueState.step`` is the one queue update.

Units: queue lengths, arrivals and per-slot service are all Gbit.  A user
served at R Gbps drains R * slot_seconds Gbit per slot, so the dynamics are
invariant to the slot length as long as caps and arrival means are quoted
in Gbps and scaled by the same slot.
"""
from __future__ import annotations

import numpy as np


def rate_violation(rates, minima) -> float:
    """Total Gbps shortfall below the per-user minimum rates."""
    rates = np.asarray(rates, dtype=float)
    minima = np.asarray(minima, dtype=float)
    return float(np.add.reduce(np.maximum(minima - rates, 0.0), axis=None))


class QueueState:
    """Vectorized per-user queues with Poisson packet arrivals.

    Arrivals are sampled in packets of ``packet_gbit`` and clamped at
    ``a_max`` so the drift constants stay finite.  ``q_max`` holds each
    user's outage cap, which also scales its queue weight in the comm graph.
    ``step`` checks nothing: its caller hands it non-negative service and
    arrivals.
    """

    def __init__(self, arrival_mean_gbit: np.ndarray, q_max_gbit: np.ndarray,
                 eps: float, packet_gbit: float, cap_factor: float):
        self.mean = np.asarray(arrival_mean_gbit, dtype=float)
        self.q_max = np.asarray(q_max_gbit, dtype=float)
        self.eps = float(eps)
        self.packet = float(packet_gbit)
        self.a_max = cap_factor * self.mean
        self._lam = self.mean / self.packet           # packets per slot
        self._budget = self.q_max * self.eps          # deficit threshold
        self.q = np.zeros_like(self.mean)
        self.y = np.zeros_like(self.mean)

    def reset(self) -> None:
        self.q[:] = 0.0
        self.y[:] = 0.0

    def sample_arrivals(self, rng: np.random.Generator) -> np.ndarray:
        raw = rng.poisson(self._lam) * self.packet
        return np.minimum(raw, self.a_max)

    def weights(self) -> np.ndarray:
        """Reward weight per user: virtual deficit plus twice the backlog."""
        return self.y + 2.0 * self.q

    def step(self, served_gbit: np.ndarray, arrivals: np.ndarray):
        """Serve, then add this slot's arrivals: q <- a + max(q - s, 0).
        The deficit then grows by the backlog over the average-backlog
        budget q_max * eps: y <- max(y + q - q_max * eps, 0).  Returns
        copies of the new (q, y)."""
        self.q = arrivals + np.maximum(self.q - served_gbit, 0.0)
        self.y = np.maximum(self.y + self.q - self._budget, 0.0)
        return self.q.copy(), self.y.copy()
