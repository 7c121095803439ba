"""The slot-stepped network environment behind every learner.

One step: apply the joint action (per-AP power split, per-RIS element
on/off + phase picks), re-derive the link plan on the reconfigured
channels, score rates and energy efficiency, charge the shaped reward, and
advance traffic plus deficit queues.  Everything is driven by one seeded
stream, so a fixed (config, seed, action sequence) reproduces bit-identical
trajectories.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from . import linklayer
from .channel import EpisodeChannel, ris_phase_diag
from .config import NetworkConfig, check_counts, config_dict
from .graphs import CommGraph, build_comm_graph, graph_layout
from .queueing import QueueState, rate_violation
from .topology import SE, Topology, build_topology


def shaped_reward(eta: float, delta: float, weights: np.ndarray,
                  rates: np.ndarray, zeta: float, xi_penalty: float) -> float:
    """zeta * efficiency - penalty * rate shortfall + queue-weighted service.

    Units: eta in Gbit/J, delta and rates in Gbps, weights in Gbit.
    """
    return float(zeta * eta - xi_penalty * delta
                 + np.dot(np.asarray(weights), np.asarray(rates)))


@dataclass
class StepOutcome:
    reward: float
    eta: float
    delta: float
    rates: np.ndarray              # Gbps per user
    sinr: np.ndarray
    power: float                   # W
    weights: np.ndarray            # Gbit, pre-update reward weights
    arrivals: np.ndarray           # Gbit
    q: np.ndarray                  # Gbit, post-update
    y: np.ndarray                  # Gbit, post-update
    outage: np.ndarray             # bool per user
    sic_fail: dict                 # IoT user id -> 1 if its SIC failed
    zf_loaded: bool                # any AP's ZF Gram was diagonally loaded


class NetworkEnv:
    """Dec-POMDP view of the multi-AP / multi-RIS downlink."""

    def __init__(self, config: NetworkConfig, seed: int):
        self.config = config
        self.seed = seed
        check_counts(self, {"seed": 0})
        self.topo: Topology = build_topology(
            config, np.random.default_rng([self.seed, 0]))
        self._channel = EpisodeChannel(config, self.topo)
        kind = self.topo.user_kind
        mean_se, mean_iot = config.arrival_mean_gbit
        qmax_se, qmax_iot = config.qmax_gbit
        self._queues = QueueState(
            np.where(kind == SE, mean_se, mean_iot),
            np.where(kind == SE, qmax_se, qmax_iot),
            config.outage_eps,
            config.packet_gbps * config.slot_seconds,
            config.arrival_cap_factor)
        self._ris_shape = (config.num_ris, config.ris_elements)
        self._power_shape = (config.total_users,)
        # 0-d operands of per-slot ufunc calls: numpy takes them at less
        # per-call cost than Python floats, and gives the same bits
        self._noise = np.array(config.noise_power)
        self._slot_seconds = np.array(config.slot_seconds)
        self._minima = np.where(kind == SE, config.rmin_se_gbps,
                                config.rmin_iot_gbps)
        self._layout = graph_layout(self.topo, config, self._queues.q_max)
        users, se = self.topo.users, config.se_users_per_ap
        self._links = linklayer.link_layout(users[:, :se], users[:, se:],
                                            config.total_users)
        self._iot_ids = np.flatnonzero(kind != SE).tolist()
        self._rng = None
        self._episode = -1
        self.t = 0
        self.reset()

    # -- lifecycle ----------------------------------------------------------
    def reset(self) -> None:
        """Fresh episode: new blockage draw, zeroed queues, idle last actions."""
        self._episode += 1
        self._rng = np.random.default_rng([self.seed, 1, self._episode])
        self._channel.new_episode(self._rng)
        self._parts = self._channel.slot_parts(self._rng)
        self._queues.reset()
        cfg = self.config
        self._last_power = np.zeros(cfg.total_users)
        self._last_on = np.zeros((cfg.num_ris, cfg.ris_elements), dtype=int)
        self._last_phase = np.zeros((cfg.num_ris, cfg.ris_elements), dtype=int)
        self._last_theta = ris_phase_diag(self._last_on, self._last_phase,
                                          cfg.ris_phase_bits)
        self.t = 0

    # -- action plumbing ------------------------------------------------------
    def project_power(self, alloc: np.ndarray) -> np.ndarray:
        """Clip negatives and rescale each AP onto its power budget.  A NaN
        or +inf entry is rejected (-inf is a negative and clips to 0)."""
        alloc = np.maximum(np.asarray(alloc, dtype=float), 0.0)
        if alloc.shape != self._power_shape:
            raise ValueError("power allocation must be one entry per user")
        budget = self.config.max_tx_power  # validated positive and finite
        per_ap = alloc.reshape(self.config.num_aps, -1)  # rows: topo.users
        totals = np.add.reduce(per_ap, axis=1)
        # a NaN or +inf entry makes its AP's total non-finite
        if not all(map(math.isfinite, totals.tolist())):
            raise ValueError("power allocation must be finite")
        # an AP over budget is scaled onto it, every other AP by
        # budget / budget, which is 1 exactly
        per_ap *= (budget / np.maximum(totals, budget))[:, None]
        return alloc

    def _ris_action(self, on: np.ndarray, phase: np.ndarray):
        """The RIS action as int arrays, and its reflection diagonals.
        ``ris_phase_diag`` rejects an entry that is not a whole number in
        range, so a fractional pick is never truncated."""
        on, phase = np.asarray(on), np.asarray(phase)
        if on.shape != self._ris_shape or phase.shape != self._ris_shape:
            raise ValueError(
                f"RIS action arrays must have shape {self._ris_shape}")
        theta = ris_phase_diag(on, phase, self.config.ris_phase_bits)
        return on.astype(int, copy=False), phase.astype(int, copy=False), theta

    # -- core pipeline --------------------------------------------------------
    def _evaluate(self, power: np.ndarray, on: np.ndarray, theta: np.ndarray):
        """Plan + score the slot under the given action (power split, RIS
        on/off and reflection diagonals); no state mutation."""
        cfg = self.config
        h_eff = self._parts.effective(theta)
        links = linklayer.derive_plan(h_eff, self._links, cfg)
        terms = linklayer.power_terms(links, power)
        fail = linklayer.sic_feasibility(links, self._noise, terms)
        gamma = linklayer.sinr_all(links, self._noise, fail, terms)
        rates = linklayer.rates_gbps(gamma, cfg.bandwidth)
        p_total = linklayer.power_consumption(power, on, cfg)
        eta = linklayer.energy_efficiency(rates, p_total)
        delta = rate_violation(rates, self._minima)
        weights = self._queues.weights()
        reward = shaped_reward(eta, delta, weights, rates, cfg.zeta,
                               cfg.xi_penalty)
        return dict(reward=reward, eta=eta, delta=delta, rates=rates,
                    gamma=gamma, power=p_total, weights=weights,
                    fail=fail, links=links)

    def peek_reward(self, power: np.ndarray, on: np.ndarray,
                    phase: np.ndarray) -> float:
        """One-step reward of an action at the current state, no side effects."""
        on, _, theta = self._ris_action(on, phase)
        return self._evaluate(self.project_power(power), on, theta)["reward"]

    def step(self, power: np.ndarray, on: np.ndarray,
             phase: np.ndarray) -> StepOutcome:
        on, phase, theta = self._ris_action(on, phase)
        power = self.project_power(power)
        ev = self._evaluate(power, on, theta)

        arrivals = self._queues.sample_arrivals(self._rng)
        served = ev["rates"] * self._slot_seconds
        q, y = self._queues.step(served, arrivals)
        outage = q >= self._queues.q_max

        self._last_power = power
        self._last_on, self._last_phase = on, phase
        self._last_theta = theta
        self.t += 1
        self._parts = self._channel.slot_parts(self._rng)

        fail = ev["fail"].tolist()
        return StepOutcome(
            reward=ev["reward"], eta=ev["eta"], delta=ev["delta"],
            rates=ev["rates"], sinr=ev["gamma"], power=ev["power"],
            weights=ev["weights"], arrivals=arrivals, q=q, y=y,
            outage=outage, sic_fail={u: fail[u] for u in self._iot_ids},
            zf_loaded=bool(np.count_nonzero(ev["links"].zf_loaded)),
        )

    # -- agent-facing views ---------------------------------------------------
    def observed_effective(self) -> np.ndarray:
        """Channels composed under the previous slot's RIS action."""
        return self._parts.effective(self._last_theta)

    def comm_graph(self) -> CommGraph:
        return build_comm_graph(
            self._parts.direct, self.observed_effective(),
            self._parts.ris_user, self._parts.ap_ris, self._queues.weights(),
            self._last_power, self._last_on, self._last_phase, self._layout)

    @property
    def queues(self) -> QueueState:
        return self._queues

    def checksum(self) -> str:
        """Stable digest of the physics every algorithm runs against."""
        payload = json.dumps(config_dict(self.config), sort_keys=True)
        h = hashlib.sha256(payload.encode())
        h.update(np.ascontiguousarray(self.topo.user_positions).tobytes())
        h.update(np.ascontiguousarray(self.topo.ap_positions).tobytes())
        return h.hexdigest()[:16]
