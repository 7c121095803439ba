"""Rollout collection and the actor/critic/mixer training loop.

Collection runs the decentralized pipeline per slot (observe, message
passing, per-agent sampling, env step), each stage one batched call over
all agents, and records the graph, the draws and the env's outcome: enough
to replay exact log-probabilities, which it does not compute itself.
It runs without a tape: an episode runs under the parameter store's
``no_grad()``, entered once, so embedding and sampling are plain numpy over
the parameter arrays and bitwise equal to the taped forward; only the replay
in ``update`` builds a tape.
Training replays the whole batch of R equal-length trajectories on the tape
in one pass, side by side: the (T+1) * R slot graphs (each trajectory's T
slots plus its final one) are embedded together, critics and the mixer run
over all of them at once, and the actors' GRU is a single ``gru_scan`` node
that steps T times over the agents of all R trajectories.  So the tape holds
the same few nodes whatever T and R are.  It scores one-step advantages for
the policy term and n-step returns for the critics, and applies one
combined update per training episode:

    mixer     <- mixer - lr_mix * dL_V/dmixer
    theta     <- theta + lr_pi * d(sum logpi * A)/dtheta - lr_v * dL_V/dtheta

Advantages and returns enter as constants; value gradients never flow
through the policy term and vice versa.  The values they are built from are
computed once per trajectory, by the critic as it stands at the first update
that uses it, and held on the trajectory for every later update on the same
batch, so a repeated fit regresses onto fixed targets instead of chasing its
own bootstrap (as PPO holds returns across epochs).

The tape, the gradients and the update run in the dtype of the policy's
parameter store, float32 by default; rewards, returns and advantages are
float64 and are cast to it where they enter the losses.  The env, its
rewards and its queues stay float64.  A trajectory holds its graphs in the
store's dtype, cast once as they are collected (a float64 store keeps the
env's own graphs), so neither ``embed`` nor the replay's stack casts them
again.  The replay's tape lives only until both backward passes are done:
it is released before the norms, the deltas and the parameter step.

``train`` trains the policy it is given and writes no file: a non-finite
update stops it before any parameter changes, so the caller's policy keeps
its last finite parameters.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import squared_sums
from .config import check_counts, check_reals
from .env import NetworkEnv, StepOutcome
from .graphs import CommGraph
from .policy import ActionSample, GEVDACPolicy
from .topology import SE


@dataclass
class StepRecord:
    """One collected slot: the graph the agents observed, in the store's
    dtype, their draws and what the env returned for them.  The draws are
    not scored here; the replay in ``update`` scores them."""
    graph: CommGraph
    sample: ActionSample           # every agent's draws, agent rows
    outcome: StepOutcome


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
    grad_clip: float = 10.0        # per-block gradient norm ceiling; 0: none

    def __post_init__(self):
        check_counts(self, dict(episodes=0, rollouts=1, horizon=0, nstep=1,
                                seed=0, eval_rollouts=1))
        check_reals(self)
        for name in ("lr_pi", "lr_v", "lr_mix", "grad_clip"):
            if not 0 <= getattr(self, name) < np.inf:  # NaN fails too
                raise ValueError(f"{name} must be non-negative and finite")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma must lie in [0, 1]")


def rollout(env: NetworkEnv, policy: GEVDACPolicy, horizon: int,
            rng: np.random.Generator | None,
            deterministic: bool = False) -> Trajectory:
    """One episode of length ``horizon`` under the current parameters: per
    slot the observed graph, cast to the store's dtype, the agents' draws
    (not scored) and the env's ``StepOutcome``.  ``rng`` draws the samples;
    a deterministic rollout draws none and may take None."""
    env.reset()
    gru = policy.gru_zero()
    steps = []
    dtype = policy.store.dtype
    with policy.store.no_grad():
        for _ in range(horizon):
            graph = env.comm_graph().astype(dtype)
            sample, gru = policy.act(policy.embed([graph]), gru, rng,
                                     deterministic=deterministic)
            steps.append(StepRecord(graph, sample,
                                    env.step(*policy.env_action(sample))))
    return Trajectory(steps, env.comm_graph().astype(dtype))


def n_step_return(rewards, values, t, gamma: float, n: int):
    """Discounted n-step return from slot t, bootstrapped from values[t+m];
    truncated with a terminal bootstrap when fewer than n slots remain.
    Rows of (T, R) ``rewards`` and (T+1, R) ``values`` give R returns, and
    an array of slots ``t`` gives one return per slot.

    Every slot adds gamma^i * rewards[t+i] for i = 0, 1, ... in turn, so an
    array ``t`` sums each return in the same order as a scalar one."""
    rewards, values = np.asarray(rewards), np.asarray(values)
    t = np.asarray(t)
    horizon = len(rewards)
    m = np.minimum(n, horizon - t)
    lead = t.shape + (1,) * (rewards.ndim - 1)    # slot axis, then the rest
    total = 0.0
    for i in range(min(n, horizon)):
        step = gamma ** i * rewards[np.minimum(t + i, horizon - 1)]
        total += np.where((i < m).reshape(lead), step, 0.0)
    discount = np.array([gamma ** i for i in range(n + 1)])
    return total + discount[m].reshape(lead) * values[t + m]


def advantage(reward, v_now, v_next, gamma: float):
    """One-step TD advantage; scalars or equal-shaped arrays."""
    return reward + gamma * v_next - v_now


def _replay_values(policy: GEVDACPolicy, trajectories):
    """One tape pass over a batch of R trajectories of T slots each, side by
    side: V_tot (T+1, R), the bootstrap V(s_H) in the last row, and the
    per-slot sums (T, R) of the agents' log-probabilities; column r is
    trajectory r.

    The (T+1) * R graphs are embedded together, slot-major (slot t of every
    trajectory, then slot t + 1), the critics and the mixer run over all of
    them at once, and the actors' GRU steps T times over the agents of all
    R trajectories."""
    trajs = list(trajectories)
    steps, width = len(trajs[0]), len(trajs)
    graphs = [tr.steps[t].graph if t < steps else tr.final_graph
              for t in range(steps + 1) for tr in trajs]
    z = policy.embed(graphs)
    v_tot = policy.value(z)
    gru = policy.gru_zero(width)
    played = {t: z[t][:steps * len(gru[t])] for t in z}  # drop the final slot
    logp, _ = policy.log_prob(played, gru, ActionSample.stack(
        tr.steps[t].sample for t in range(steps) for tr in trajs))
    return (v_tot.reshape(steps + 1, width),
            logp.sum(axis=1).reshape(steps, width))


def _reached(store, names) -> dict:
    """The gradients that reached ``names``, leaving out parameters that
    received none."""
    grads = {n: store.get(n).grad for n in names}
    return {n: g for n, g in grads.items() if g is not None}


def _norm(squares) -> float:
    """The Euclidean norm of arrays whose sums of squares are given."""
    return float(np.sqrt(sum(squares)))


def _clip(norm: float, max_norm: float) -> tuple:
    """(the block's norm after clipping, the factor that clips it); a
    clipped block reports exactly ``max_norm``."""
    if 0 < max_norm < norm:
        return max_norm, max_norm / norm
    return norm, 1.0


def _losses(policy: GEVDACPolicy, trajs: list, tcfg: TrainConfig,
            reward_scale: float) -> tuple:
    """(loss_pi, loss_v) of a batch of equal-length trajectories, both on
    the tape of one replay.  A trajectory without held values gets them
    from this replay."""
    v_tot, logp_sums = _replay_values(policy, trajs)
    for r, tr in enumerate(trajs):
        if tr.values is None:
            tr.values = v_tot.value[:, r].copy()
    values = np.stack([tr.values for tr in trajs], axis=1)      # (T+1, R)
    rewards = np.array([[s.outcome.reward * reward_scale for s in tr.steps]
                        for tr in trajs]).T                     # (T, R)
    horizon = len(rewards)
    adv = advantage(rewards, values[:-1], values[1:], tcfg.gamma)
    target = n_step_return(rewards, values, np.arange(horizon), tcfg.gamma,
                           tcfg.nstep)
    loss_pi = (logp_sums * adv).sum()
    err = v_tot[:horizon] - target
    return loss_pi, (err * err).sum()


def update(policy: GEVDACPolicy, trajectories, tcfg: TrainConfig,
           reward_scale: float = 1.0) -> dict:
    """One combined parameter update over a batch of equal-length
    trajectories, all replayed in one tape pass; the tape is released
    before the norms, the deltas and the step."""
    trajs = list(trajectories)
    if not trajs:
        raise ValueError("a batch needs at least one trajectory")
    if len({len(tr) for tr in trajs}) > 1:
        raise ValueError("a batch needs trajectories of equal length, got "
                         f"{sorted(len(tr) for tr in trajs)}")
    if not len(trajs[0]):
        raise ValueError("a batch needs trajectories of at least one slot")
    store = policy.store
    loss_pi, loss_v = _losses(policy, trajs, tcfg, reward_scale)
    blocks = policy.parameter_blocks()
    store.zero_grads()
    loss_pi.backward()
    g_pi = _reached(store, blocks["policy"])
    store.zero_grads()
    loss_v.backward()
    g_v = _reached(store, blocks["policy"] + blocks["critic"])
    g_mix = _reached(store, blocks["mix"])
    loss_v = loss_v.item()
    del loss_pi  # the tape's last references are gone: it is freed here

    sq_pi, sq_v, sq_mix = (squared_sums(g) for g in (g_pi, g_v, g_mix))
    grad_pi, pi_scale = _clip(_norm(sq_pi.values()), tcfg.grad_clip)
    _, v_scale = _clip(_norm(sq_v.values()), tcfg.grad_clip)
    grad_mix, mix_scale = _clip(_norm(sq_mix.values()), tcfg.grad_clip)
    grad_v = _norm(sq_v[n] for n in blocks["critic"] if n in sq_v) * v_scale

    # a delta that overflows is left to apply_update's finiteness check
    with np.errstate(over="ignore", invalid="ignore"):
        deltas = {n: (-tcfg.lr_mix * mix_scale) * g for n, g in g_mix.items()}
        for n, g in g_pi.items():
            deltas[n] = (tcfg.lr_pi * pi_scale) * g
        for n, g in g_v.items():
            step = (-tcfg.lr_v * v_scale) * g
            deltas[n] = deltas[n] + step if n in deltas else step
    store.apply_update(deltas)

    return {
        "loss_v": loss_v,
        "grad_pi": grad_pi,
        "grad_v": grad_v,
        "grad_mix": grad_mix,
    }


def evaluate(env: NetworkEnv, policy: GEVDACPolicy, horizon: int,
             rollouts: int) -> dict:
    """Deterministic-policy metrics over fresh episodes; the deterministic
    policy draws no random number.  A config without IoT users
    (``iot_users_per_ap=0``) reports an IoT outage of 0.0."""
    for name, n in (("horizon", horizon), ("rollouts", rollouts)):
        if n < 1:
            raise ValueError(f"{name} must be at least 1, got {n}")
    rewards, etas, se_out, iot_out = [], [], [], []
    for _ in range(rollouts):
        traj = rollout(env, policy, horizon, None, deterministic=True)
        rewards.append(np.mean([s.outcome.reward for s in traj.steps]))
        etas.append(np.mean([s.outcome.eta for s in traj.steps]))
        kind = env.topo.user_kind
        outages = np.stack([s.outcome.outage for s in traj.steps])
        se_out.append(outages[:, kind == SE].mean())
        iot = outages[:, kind != SE]
        iot_out.append(iot.mean() if iot.size else 0.0)
    return {"reward": float(np.mean(rewards)), "eta": float(np.mean(etas)),
            "outage_se": float(np.mean(se_out)),
            "outage_iot": float(np.mean(iot_out))}


def train(env_factory, tcfg: TrainConfig, policy: GEVDACPolicy,
          on_episode=None):
    """Train ``policy`` in place; returns (policy, per-episode curve rows).

    ``env_factory(seed)`` builds an environment; training and evaluation use
    separate instances so test metrics never disturb the training stream.
    Rewards are scaled by 1/mean|r| of the first batch, frozen from then on.
    A non-finite update raises a RuntimeError naming the episode and the
    parameter; as ``apply_update`` aborts before it changes any parameter,
    ``policy`` holds the last finite parameters for the caller to save.
    """
    env = env_factory(tcfg.seed)
    eval_env = env_factory(tcfg.seed + 9999)
    horizon = tcfg.horizon or env.config.episode_slots
    rng = np.random.default_rng([tcfg.seed, 2])
    curves = []
    reward_scale = None
    for episode in range(tcfg.episodes):
        batch = [rollout(env, policy, horizon, rng)
                 for _ in range(tcfg.rollouts)]
        if reward_scale is None:  # freeze a scale from the first batch
            mean_abs = float(np.mean(
                [abs(s.outcome.reward) for b in batch for s in b.steps]))
            reward_scale = 1.0 / max(mean_abs, 1e-9)
        try:
            stats = update(policy, batch, tcfg, reward_scale)
        except FloatingPointError as err:
            raise RuntimeError(
                f"non-finite update at episode {episode} ({err})") from err
        metrics = evaluate(eval_env, policy, horizon, tcfg.eval_rollouts)
        row = {
            "episode": episode,
            "train_reward": float(np.mean(
                [s.outcome.reward for b in batch for s in b.steps])),
            "test_reward": metrics["reward"],
            "eta": metrics["eta"],
            "outage_se": metrics["outage_se"],
            "outage_iot": metrics["outage_iot"],
            # edges and feature widths are fixed by the env's layout
            "exchange_per_step": float(
                policy.exchange_volume(batch[0].final_graph)),
            **stats,
        }
        curves.append(row)
        if on_episode is not None:
            on_episode(row, policy, batch)
    return policy, curves
