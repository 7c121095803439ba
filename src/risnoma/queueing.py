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


def update_queue(q: float, served: float, arrival: float):
    """Backlog after serving then adding this slot's arrivals."""
    q, served, arrival = (np.asarray(x, dtype=float) for x in (q, served, arrival))
    if (q < 0).any() or (served < 0).any() or (arrival < 0).any():
        raise ValueError("queue quantities must be non-negative")
    return arrival + np.maximum(q - served, 0.0)


def update_virtual_queue(y: float, q_next: float, q_max: float, eps: float):
    """Deficit accumulation toward the average-backlog budget q_max * eps."""
    y, q_next = (np.asarray(x, dtype=float) for x in (y, q_next))
    if (y < 0).any() or (q_next < 0).any():
        raise ValueError("queue quantities must be non-negative")
    return np.maximum(y + q_next - np.asarray(q_max) * eps, 0.0)


def rate_violation(rates, minima) -> float:
    """Total Gbps shortfall below the per-user minimum rates."""
    rates = np.asarray(rates, dtype=float)
    minima = np.asarray(minima, dtype=float)
    return float(np.maximum(minima - rates, 0.0).sum())


class QueueState:
    """Vectorized per-user queues with Poisson packet arrivals.

    Arrivals are sampled in packets of ``packet_gbit`` and clamped at
    ``a_max`` so the drift constants stay finite.
    """

    def __init__(self, arrival_mean_gbit: np.ndarray, q_max_gbit: np.ndarray,
                 eps: float, packet_gbit: float, cap_factor: float):
        self.mean = np.asarray(arrival_mean_gbit, dtype=float)
        self.q_max = np.asarray(q_max_gbit, dtype=float)
        self.eps = float(eps)
        self.packet = float(packet_gbit)
        self.a_max = cap_factor * self.mean
        self.q = np.zeros_like(self.mean)
        self.y = np.zeros_like(self.mean)

    def reset(self) -> None:
        self.q[:] = 0.0
        self.y[:] = 0.0

    def sample_arrivals(self, rng: np.random.Generator) -> np.ndarray:
        lam = self.mean / self.packet
        raw = rng.poisson(lam) * self.packet
        return np.minimum(raw, self.a_max)

    def weights(self) -> np.ndarray:
        """Reward weight per user: virtual deficit plus twice the backlog."""
        return self.y + 2.0 * self.q

    def step(self, served_gbit: np.ndarray, arrivals: np.ndarray):
        self.q = update_queue(self.q, served_gbit, arrivals)
        self.y = update_virtual_queue(self.y, self.q, self.q_max, self.eps)
        return self.q.copy(), self.y.copy()
