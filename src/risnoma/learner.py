"""Rollout collection and the actor/critic/mixer training loop.

Collection runs the decentralized pipeline per slot (observe, message
passing, per-agent sampling, env step), each stage one batched call over
all agents, and records everything needed to replay exact log-probabilities.
It runs without a tape: embedding and sampling run under the parameter
store's ``no_grad()``, so they are plain numpy over the parameter arrays and
bitwise equal to the taped forward; only the replay in ``update`` builds a
tape.
Training replays each trajectory on the tape in one batched pass: the T
slot graphs plus the final one are embedded together, critics and the mixer
run over all T+1 slots at once, and only the actors' GRU steps through the
slots.  It scores one-step advantages for the policy term and n-step returns
for the critics, and applies one combined update per training episode:

    mixer     <- mixer - lr_mix * dL_V/dmixer
    theta     <- theta + lr_pi * d(sum logpi * A)/dtheta - lr_v * dL_V/dtheta

Advantages and returns enter as constants; value gradients never flow
through the policy term and vice versa.  The values they are built from are
computed once per trajectory, by the critic as it stands at the first update
that uses it, and held on the trajectory for every later update on the same
batch, so a repeated fit regresses onto fixed targets instead of chasing its
own bootstrap (as PPO holds returns across epochs).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import gradient_norm
from .env import NetworkEnv
from .graphs import CommGraph, state_digest
from .policy import ActionSample, GEVDACPolicy, PolicyConfig, policy_for_env
from .topology import SE


@dataclass
class StepRecord:
    graph: CommGraph
    digest: np.ndarray
    sample: ActionSample           # every agent's draws, slot axis 1
    logps: np.ndarray              # (M + J,) collection-time, node order
    reward: float
    eta: float
    delta: float
    rates: np.ndarray
    outage: np.ndarray
    q: np.ndarray
    y: np.ndarray
    weights: np.ndarray
    exchange: int


@dataclass
class Trajectory:
    """One collected episode.

    ``values`` holds V_tot per slot plus the bootstrap V(s_H).  It is None
    until the first ``update`` on this trajectory fills it from the critic as
    it stands then; every later update on it reuses those values for its
    advantages and n-step targets.
    """
    steps: list
    final_graph: CommGraph
    final_digest: np.ndarray
    values: np.ndarray | None = None

    def __len__(self):
        return len(self.steps)


@dataclass
class TrainConfig:
    episodes: int = 40
    rollouts: int = 2
    horizon: int = 0               # 0: use the env's configured episode length
    gamma: float = 0.99
    nstep: int = 8
    lr_pi: float = 3e-4
    lr_v: float = 1e-3
    lr_mix: float = 1e-3
    seed: int = 0
    eval_rollouts: int = 1
    reward_scale: float = 0.0      # 0: freeze 1/mean|r| from the first batch
    grad_clip: float = 10.0        # per-block gradient norm ceiling


def rollout(env: NetworkEnv, policy: GEVDACPolicy, horizon: int,
            rng: np.random.Generator, deterministic: bool = False) -> Trajectory:
    """One episode of length ``horizon`` under the current parameters."""
    env.reset()
    gru = policy.gru_zero()
    steps = []
    for _ in range(horizon):
        graph = env.comm_graph()
        with policy.store.no_grad():
            z = policy.embed([graph])
            sample, logp, gru = policy.act(z, gru, rng,
                                           deterministic=deterministic)
        out = env.step(*policy.env_action(sample))
        steps.append(StepRecord(
            graph=graph, digest=state_digest(graph), sample=sample,
            logps=logp[0], reward=out.reward, eta=out.eta,
            delta=out.delta, rates=out.rates, outage=out.outage, q=out.q,
            y=out.y, weights=out.weights,
            exchange=policy.exchange_volume(graph)))
    final_graph = env.comm_graph()
    return Trajectory(steps, final_graph, state_digest(final_graph))


def n_step_return(rewards, values, t: int, gamma: float, n: int) -> float:
    """Discounted n-step return from slot t, bootstrapped from values[t+m];
    truncated with a terminal bootstrap when fewer than n slots remain."""
    horizon = len(rewards)
    m = min(n, horizon - t)
    total = 0.0
    for i in range(m):
        total += gamma ** i * rewards[t + i]
    return total + gamma ** m * values[t + m]


def advantage(reward: float, v_now: float, v_next: float, gamma: float) -> float:
    return reward + gamma * v_next - v_now


def _replay_values(policy: GEVDACPolicy, traj: Trajectory):
    """One batched tape pass over a trajectory of T slots: V_tot (T+1,),
    the bootstrap V(s_H) last, and the per-slot sums (T,) of the agents'
    log-probabilities."""
    steps = len(traj)
    z = policy.embed([rec.graph for rec in traj.steps] + [traj.final_graph])
    digests = np.stack([rec.digest for rec in traj.steps]
                       + [traj.final_digest])
    v_tot = policy.global_value(digests, policy.local_value(z))
    gru = policy.gru_zero()
    played = {t: z[t][:steps * len(gru[t])] for t in z}  # drop the final slot
    logp, _ = policy.log_prob(
        played, gru, ActionSample.stack(rec.sample for rec in traj.steps))
    return v_tot, logp.sum(axis=1)


def _clip_block(grads: dict, max_norm: float) -> dict:
    if max_norm <= 0:
        return grads
    norm = gradient_norm(grads)
    if norm <= max_norm:
        return grads
    scale = max_norm / norm
    return {n: np.asarray(g) * scale for n, g in grads.items()}


def update(policy: GEVDACPolicy, trajectories, tcfg: TrainConfig,
           reward_scale: float = 1.0) -> dict:
    """One combined parameter update over a batch of trajectories."""
    store = policy.store
    loss_pi, loss_v = None, None
    for traj in trajectories:
        v_tot, logp_sums = _replay_values(policy, traj)
        if traj.values is None:
            traj.values = v_tot.value.copy()
        v_num = traj.values
        rewards = [rec.reward * reward_scale for rec in traj.steps]
        horizon = len(traj)
        adv = np.array([advantage(rewards[t], v_num[t], v_num[t + 1],
                                  tcfg.gamma) for t in range(horizon)])
        target = np.array([n_step_return(rewards, v_num, t, tcfg.gamma,
                                         tcfg.nstep) for t in range(horizon)])
        term_pi = (logp_sums * adv).sum()
        err = v_tot[:horizon] - target
        term_v = (err * err).sum()
        loss_pi = term_pi if loss_pi is None else loss_pi + term_pi
        loss_v = term_v if loss_v is None else loss_v + term_v

    blocks = policy.parameter_blocks()
    store.zero_grads()
    loss_pi.backward()
    g_pi = _clip_block({n: g for n, g in store.gradients().items()
                        if n in set(blocks["policy"])}, tcfg.grad_clip)
    store.zero_grads()
    loss_v.backward()
    g_v = store.gradients()
    g_v_theta = _clip_block({n: g_v[n] for n in blocks["policy"]
                             + blocks["critic"]}, tcfg.grad_clip)
    g_v_mix = _clip_block({n: g_v[n] for n in blocks["mix"]}, tcfg.grad_clip)

    if blocks["mix"]:
        store.apply_update({n: -g_v_mix[n] for n in blocks["mix"]},
                           tcfg.lr_mix)
    deltas = {}
    for n in blocks["policy"] + blocks["critic"]:
        deltas[n] = (tcfg.lr_pi * g_pi.get(n, 0.0)
                     - tcfg.lr_v * np.asarray(g_v_theta[n]))
    store.apply_update(deltas, 1.0)

    return {
        "loss_v": loss_v.item(),
        "grad_pi": gradient_norm(g_pi),
        "grad_v": gradient_norm({n: g_v_theta[n] for n in blocks["critic"]}),
        "grad_mix": gradient_norm(g_v_mix),
    }


def evaluate(env: NetworkEnv, policy: GEVDACPolicy, horizon: int,
             rollouts: int, rng: np.random.Generator) -> dict:
    """Deterministic-policy metrics over fresh episodes."""
    rewards, etas, se_out, iot_out = [], [], [], []
    for _ in range(rollouts):
        traj = rollout(env, policy, horizon, rng, deterministic=True)
        rewards.append(np.mean([s.reward for s in traj.steps]))
        etas.append(np.mean([s.eta for s in traj.steps]))
        kind = env.topo.user_kind
        outages = np.stack([s.outage for s in traj.steps])
        se_out.append(outages[:, kind == SE].mean())
        iot_out.append(outages[:, kind != SE].mean())
    return {"reward": float(np.mean(rewards)), "eta": float(np.mean(etas)),
            "outage_se": float(np.mean(se_out)),
            "outage_iot": float(np.mean(iot_out))}


def train(env_factory, tcfg: TrainConfig, pcfg: PolicyConfig | None = None,
          policy: GEVDACPolicy | None = None, on_episode=None):
    """Full training loop; returns (policy, per-episode curve rows).

    ``env_factory(seed)`` builds an environment; training and evaluation use
    separate instances so test metrics never disturb the training stream.
    A non-finite update aborts with a rescue checkpoint in ``/tmp``.
    """
    env = env_factory(tcfg.seed)
    eval_env = env_factory(tcfg.seed + 9999)
    if policy is None:
        policy = policy_for_env(env, pcfg or PolicyConfig(), tcfg.seed)
    horizon = tcfg.horizon or env.config.episode_slots
    rng = np.random.default_rng([tcfg.seed, 2])
    eval_rng = np.random.default_rng([tcfg.seed, 3])
    curves = []
    reward_scale = tcfg.reward_scale
    for episode in range(tcfg.episodes):
        batch = [rollout(env, policy, horizon, rng)
                 for _ in range(tcfg.rollouts)]
        if reward_scale == 0.0:  # freeze a scale from the first batch
            mean_abs = float(np.mean(
                [abs(s.reward) for b in batch for s in b.steps]))
            reward_scale = 1.0 / max(mean_abs, 1e-9)
        try:
            stats = update(policy, batch, tcfg, reward_scale)
        except FloatingPointError as err:
            rescue = f"/tmp/risnoma_diverged_ep{episode}.npz"
            policy.store.save(rescue, extra_meta={"episode": episode})
            raise RuntimeError(
                f"non-finite gradient at episode {episode}; "
                f"checkpoint written to {rescue}") from err
        metrics = evaluate(eval_env, policy, horizon, tcfg.eval_rollouts,
                           eval_rng)
        row = {
            "episode": episode,
            "train_reward": float(np.mean(
                [s.reward for b in batch for s in b.steps])),
            "test_reward": metrics["reward"],
            "eta": metrics["eta"],
            "outage_se": metrics["outage_se"],
            "outage_iot": metrics["outage_iot"],
            "exchange_per_step": float(np.mean(
                [s.exchange for b in batch for s in b.steps])),
            **stats,
        }
        curves.append(row)
        if on_episode is not None:
            on_episode(row, policy, batch)
    return policy, curves
