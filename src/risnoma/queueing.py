"""Traffic queues, virtual deficit queues and rate shortfall.

Each user's reward weight y + 2q (``QueueState.weights``) is the factor of
service in the quadratic Lyapunov drift bound, drift <= const + ... +
(y + 2q) * (arrival - service), so the shaped reward pays most for serving
long and over-budget queues.

Units: queue lengths, arrivals and per-slot service are all Gbit.  A user
served at R Gbps drains R * slot_seconds Gbit per slot, so the dynamics are
invariant to the slot length as long as caps and arrival means are quoted
in Gbps and scaled by the same slot.
"""
from __future__ import annotations

import numpy as np


def _require_nonnegative(*arrays) -> None:
    """Raise unless every entry is >= 0; a NaN is not."""
    for x in arrays:
        if not (x >= 0).all():
            raise ValueError("queue quantities must be non-negative")


def _backlog(q, served, arrival):
    return arrival + np.maximum(q - served, 0.0)


def _deficit(y, q_next, budget):
    return np.maximum(y + q_next - budget, 0.0)


def update_queue(q: float, served: float, arrival: float):
    """Backlog after serving then adding this slot's arrivals."""
    q, served, arrival = (np.asarray(x, dtype=float) for x in (q, served, arrival))
    _require_nonnegative(q, served, arrival)
    return _backlog(q, served, arrival)


def update_virtual_queue(y: float, q_next: float, q_max: float, eps: float):
    """Deficit accumulation toward the average-backlog budget q_max * eps."""
    y, q_next = (np.asarray(x, dtype=float) for x in (y, q_next))
    _require_nonnegative(y, q_next)
    return _deficit(y, q_next, np.asarray(q_max) * eps)


def rate_violation(rates, minima) -> float:
    """Total Gbps shortfall below the per-user minimum rates."""
    rates = np.asarray(rates, dtype=float)
    minima = np.asarray(minima, dtype=float)
    return float(np.add.reduce(np.maximum(minima - rates, 0.0), axis=None))


class QueueState:
    """Vectorized per-user queues with Poisson packet arrivals.

    Arrivals are sampled in packets of ``packet_gbit`` and clamped at
    ``a_max`` so the drift constants stay finite.  ``step`` applies the
    updates of ``update_queue`` and ``update_virtual_queue`` without their
    input checks: its caller hands it non-negative service and arrivals.
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
        self.q = _backlog(self.q, served_gbit, arrivals)
        self.y = _deficit(self.y, self.q, self._budget)
        return self.q.copy(), self.y.copy()
