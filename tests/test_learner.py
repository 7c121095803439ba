import copy
import gc
import hashlib
import sys
import tracemalloc
import types
import warnings
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from fd import fd_check

from risnoma import autodiff as ad
from risnoma import learner
from risnoma import nn
from risnoma.env import NetworkEnv, shaped_reward
from risnoma.autodiff import ParamStore, Tensor
from risnoma.graphs import EDGE_ENDS, NODE_TYPES, stack_graphs
from risnoma.learner import (TrainConfig, advantage, evaluate, n_step_return,
                             rollout, train, update, _losses, _reached,
                             _replay_values)
from risnoma.policy import GEVDACPolicy, PolicyConfig, policy_for_env
from risnoma.presets import default_config, medium_config, tiny_config


def tiny_env(seed=0):
    return NetworkEnv(tiny_config(), seed=seed)


def replay_one(policy, traj):
    """V_tot and log-prob sums of one trajectory, replayed on its own."""
    v_tot, logp_sums = _replay_values(policy, [traj])
    return v_tot[:, 0], logp_sums[:, 0]


def slot_logps(policy, traj):
    """Tape-free log-probs (1, M + J) of each collected slot of ``traj``,
    scored one slot at a time with the GRU state carried."""
    gru, out = policy.gru_zero(), []
    with policy.store.no_grad():
        for rec in traj.steps:
            logp, gru = policy.log_prob(policy.embed([rec.graph]), gru,
                                        rec.sample)
            out.append(logp)
    return out


def embed_every_kind(self, graphs) -> dict:
    """``GEVDACPolicy.embed`` as it was when it ran every edge kind, one
    without edges included (a dense layer on a (0, d) matrix), and built
    each receiving type's ``dst`` in every layer."""
    p = self.pcfg
    g = stack_graphs(graphs)
    x = g.nodes
    z = x
    feat = g.edge_feat
    msgs = {}
    for layer in range(1, p.n_layers + 1):
        for kind, (sender, _) in EDGE_ENDS.items():
            z_dim = self._node_dim[sender] if layer == 1 else p.hidden
            msgs[kind] = nn.dense(
                self.store, f"emb.{kind}.l{layer}",
                ad.concat([z[sender][g.src[kind]], feat[kind]]),
                z_dim + self.dims[kind], p.msg_dim, "tanh")
        new_z = {}
        for t in NODE_TYPES:
            inbound = [k for k in msgs if EDGE_ENDS[k][1] == t]
            rows = ad.concat([msgs[k] for k in inbound], axis=0)
            dst = np.concatenate([g.dst[k] for k in inbound])
            agg = ad.segment_mean(rows, ad.Segments(dst, len(g.nodes[t])))
            z_dim = self._node_dim[t] if layer == 1 else p.hidden
            new_z[t] = nn.dense(
                self.store, f"emb.{t}.comb.l{layer}", ad.concat([z[t], agg]),
                z_dim + p.msg_dim, p.hidden, "tanh")
        z = new_z
    return {t: ad.concat([x[t], z[t]]) for t in NODE_TYPES}


def small_policy(env, seed=0, dtype=np.float32, **pkw):
    pkw.setdefault("msg_dim", 4)
    pkw.setdefault("hidden", 4)
    pkw.setdefault("gru_hidden", 6)
    pkw.setdefault("critic_hidden", 6)
    pkw.setdefault("mix_hidden", 4)
    return policy_for_env(env, PolicyConfig(**pkw), seed, dtype)


class TestReturns:
    def test_one_step(self):
        assert n_step_return([2.0], [0.0, 5.0], 0, 0.9, 1) == pytest.approx(
            2.0 + 0.9 * 5.0)

    def test_gamma_zero_is_immediate_reward(self):
        assert n_step_return([3.0, 7.0], [0, 0, 0], 0, 0.0, 2) == 3.0

    def test_two_step_hand_case(self):
        got = n_step_return([1.0, 2.0], [0.0, 0.0, 4.0], 0, 0.5, 2)
        assert got == pytest.approx(1.0 + 1.0 + 1.0)

    def test_truncates_with_terminal_bootstrap(self):
        got = n_step_return([1.0, 1.0], [0.0, 0.0, 2.0], 1, 0.5, 8)
        assert got == pytest.approx(1.0 + 0.5 * 2.0)

    @pytest.mark.parametrize("horizon", [3, 8, 13])
    def test_all_slots_at_once_match_per_slot_loop(self, horizon):
        # nstep = 8: fewer, as many and more slots than the return's reach
        def per_slot(rewards, values, t, gamma, n):
            m = min(n, len(rewards) - t)
            total = 0.0
            for i in range(m):
                total += gamma ** i * rewards[t + i]
            return total + gamma ** m * values[t + m]

        rng = np.random.default_rng(horizon)
        for gamma in (0.99, 0.9, 0.5):
            rewards = rng.normal(0.0, 30.0, (horizon, 3))
            values = rng.normal(0.0, 30.0, (horizon + 1, 3))
            got = n_step_return(rewards, values, np.arange(horizon), gamma, 8)
            want = np.array([per_slot(rewards, values, t, gamma, 8)
                             for t in range(horizon)])
            assert got.tobytes() == want.tobytes()

    def test_advantage_hand_case(self):
        assert advantage(1.0, 1.0, 2.0, 0.99) == pytest.approx(1.98)

    def test_advantage_gamma_zero(self):
        assert advantage(1.5, 0.7, 9.0, 0.0) == pytest.approx(0.8)


class TestRollout:
    def test_fixed_seeds_identical(self):
        trajs = []
        for _ in range(2):
            env = tiny_env(seed=4)
            policy = small_policy(env, seed=1)
            trajs.append(rollout(env, policy, 6, np.random.default_rng(2)))
        a, b = trajs
        assert ([s.outcome.reward for s in a.steps]
                == [s.outcome.reward for s in b.steps])
        for sa, sb in zip(a.steps, b.steps):
            for f in ("gaussian", "on_off", "phase"):
                assert (getattr(sa.sample, f).tobytes()
                        == getattr(sb.sample, f).tobytes())
            for f in ("rates", "sinr", "weights", "arrivals", "q", "y",
                      "outage"):
                assert (getattr(sa.outcome, f).tobytes()
                        == getattr(sb.outcome, f).tobytes())
            for t in NODE_TYPES:
                assert np.array_equal(sa.graph.nodes[t], sb.graph.nodes[t])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_graphs_are_kept_in_the_store_dtype(self, dtype, monkeypatch):
        # a float32 learner keeps float32 copies of the env's graphs; a
        # float64 one keeps the env's own graphs, uncopied
        env = tiny_env(seed=1)
        policy = small_policy(env, dtype=dtype)
        made, comm_graph = [], env.comm_graph

        def record():
            made.append(comm_graph())
            return made[-1]

        monkeypatch.setattr(env, "comm_graph", record)
        traj = rollout(env, policy, 3, np.random.default_rng(0))
        kept = [rec.graph for rec in traj.steps] + [traj.final_graph]
        assert len(kept) == len(made) == 4
        for graph, own in zip(kept, made):
            assert (graph is own) == (dtype is np.float64)
            for part in ("nodes", "edge_feat"):
                for key, a in getattr(graph, part).items():
                    assert a.dtype == dtype
                    assert np.array_equal(
                        a, getattr(own, part)[key].astype(dtype))
            for key in EDGE_ENDS:
                assert graph.src[key] is own.src[key]
                assert graph.dst[key] is own.dst[key]

    def test_length_matches_horizon(self):
        env = tiny_env()
        policy = small_policy(env)
        traj = rollout(env, policy, 9, np.random.default_rng(0))
        assert len(traj) == 9

    def test_rewards_recompose_from_components(self):
        env = tiny_env()
        cfg = env.config
        policy = small_policy(env)
        traj = rollout(env, policy, 8, np.random.default_rng(3))
        for out in (s.outcome for s in traj.steps):
            again = shaped_reward(out.eta, out.delta, out.weights, out.rates,
                                  cfg.zeta, cfg.xi_penalty)
            assert again == out.reward

    def test_replay_reproduces_collection_logps(self):
        # the batched taped replay scores each collected slot as the
        # tape-free log_prob does, slot by slot with the GRU state carried
        for make in (tiny_config, medium_config):
            env = NetworkEnv(make(), seed=0)
            policy = small_policy(env, dtype=np.float64)
            traj = rollout(env, policy, 5, np.random.default_rng(5))
            _, logp_sums = replay_one(policy, traj)
            for t, logp in enumerate(slot_logps(policy, traj)):
                assert logp_sums[t].item() == pytest.approx(
                    sum(logp[0]), rel=1e-12)

    def test_replay_reproduces_collection_logps_in_float32(self):
        # the float32 twin: draws are stored in the store's dtype, so the
        # replay scores what was drawn up to float32 rounding of the batched
        # products; margin rel 1e-6, about 16 float32 ulps (seen: <= 1 ulp)
        for make in (tiny_config, medium_config):
            env = NetworkEnv(make(), seed=0)
            policy = small_policy(env)
            traj = rollout(env, policy, 5, np.random.default_rng(5))
            _, logp_sums = replay_one(policy, traj)
            assert logp_sums.value.dtype == np.float32
            for t, logp in enumerate(slot_logps(policy, traj)):
                assert logp.dtype == np.float32
                assert traj.steps[t].sample.gaussian.dtype == np.float32
                assert logp_sums[t].item() == pytest.approx(
                    sum(logp[0]), rel=1e-6)

    def test_collection_builds_no_tape(self, monkeypatch):
        # rollout and evaluate run on plain arrays: no op makes a Tensor or
        # reaches the tape's bookkeeping helpers; update still builds a tape.
        # medium has ap_ap edges, so segments there hold several rows
        def refuse(*args, **kwargs):
            raise AssertionError("collection touched the tape")

        made = []
        init = Tensor.__init__

        def counting(self, *args, **kwargs):
            made.append(1)
            init(self, *args, **kwargs)

        for make in (tiny_config, medium_config):
            env = NetworkEnv(make(), seed=1)
            policy = small_policy(env)
            rng = np.random.default_rng(4)
            with monkeypatch.context() as patch:
                for owner, name in ((Tensor, "__init__"), (ad, "_out"),
                                    (ad, "_unary")):
                    patch.setattr(owner, name, refuse)
                traj = rollout(env, policy, 4, rng)
                evaluate(env, policy, 3, 1)
            with monkeypatch.context() as patch:
                patch.setattr(Tensor, "__init__", counting)
                update(policy, [traj], TrainConfig(), reward_scale=0.02)
        assert len(made) > 0

    def test_collection_scores_nothing(self, monkeypatch):
        # rollout and evaluate only sample: neither log_prob nor the ops
        # that score a draw (softplus, log_softmax) run on the collection
        # path; the replay in update is the only scorer
        def refuse(*args, **kwargs):
            raise AssertionError("collection scored a draw")

        env = NetworkEnv(medium_config(), seed=1)
        policy = small_policy(env)
        rng = np.random.default_rng(4)
        with monkeypatch.context() as patch:
            patch.setattr(GEVDACPolicy, "log_prob", refuse)
            patch.setattr(ad, "softplus", refuse)
            patch.setattr(ad, "log_softmax", refuse)
            traj = rollout(env, policy, 4, rng)
            evaluate(env, policy, 3, 1)
        update(policy, [traj], TrainConfig(), reward_scale=0.02)


class TestTrainConfig:
    @pytest.mark.parametrize("field, value", [
        ("nstep", 0), ("gamma", 1.5), ("rollouts", 0), ("eval_rollouts", 0),
        ("episodes", -1), ("horizon", -1), ("gamma", -0.1),
        ("gamma", float("nan")), ("lr_pi", -1e-3), ("lr_v", -1e-3),
        ("lr_mix", -1e-3), ("grad_clip", -1.0),
        ("rollouts", 1.5), ("episodes", 2.5), ("horizon", 3.5),
        ("nstep", 8.0), ("eval_rollouts", 1.5),
        ("lr_pi", float("inf")), ("lr_v", float("inf")),
        ("lr_mix", float("inf")), ("grad_clip", float("inf")),
        ("lr_pi", "0.1"), ("gamma", "0.9"), ("lr_v", True),
        ("rollouts", True)])
    def test_bad_values_rejected_at_construction(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value})

    def test_zero_rates_clip_horizon_and_scale_stay_valid(self):
        cfg = TrainConfig(episodes=0, horizon=0, gamma=0.0, lr_pi=0.0,
                          lr_v=0.0, lr_mix=0.0, grad_clip=0.0)
        assert cfg.grad_clip == 0.0 and cfg.horizon == 0
        assert TrainConfig(gamma=1.0, nstep=1).gamma == 1.0


class TestUpdate:
    def test_zero_value_zero_reward_means_no_change(self):
        # advantages and critic targets both vanish, so even nonzero learning
        # rates produce a strictly zero update
        env = tiny_env()
        policy = small_policy(env)
        for name in policy.store.names():
            if name.startswith(("critic.", "mix.")):
                policy.store.get(name).value[:] = 0.0
        traj = rollout(env, policy, 4, np.random.default_rng(1))
        for rec in traj.steps:
            rec.outcome.reward = 0.0
        before = {n: policy.store.get(n).value.copy()
                  for n in policy.store.names()}
        update(policy, [traj], TrainConfig())
        for n, v in before.items():
            assert np.array_equal(policy.store.get(n).value, v), n

    def test_tape_is_released_before_the_step(self, monkeypatch):
        # no Tensor made during update is alive when the parameters step, nor
        # after the call; the parameters exist before it, so none of them
        # is among those made
        env = tiny_env(seed=1)
        policy = small_policy(env)
        rng = np.random.default_rng(3)
        batch = [rollout(env, policy, 4, rng) for _ in range(2)]
        made, at_step = set(), []
        init, apply = Tensor.__init__, ParamStore.apply_update

        def record(self, *args, **kwargs):
            init(self, *args, **kwargs)
            made.add(id(self))  # the id only: a reference would keep it

        def alive():  # an id is reused only once its Tensor is gone
            return sum(isinstance(o, Tensor) and id(o) in made
                       for o in gc.get_objects())

        def step(store, deltas):
            at_step.append(alive())
            apply(store, deltas)

        monkeypatch.setattr(Tensor, "__init__", record)
        monkeypatch.setattr(ParamStore, "apply_update", step)
        update(policy, batch, TrainConfig(), reward_scale=0.02)
        monkeypatch.setattr(Tensor, "__init__", init)
        assert len(made) > 100
        assert at_step == [0]
        assert alive() == 0

    def test_policy_loss_never_touches_value_heads(self):
        env = tiny_env()
        policy = small_policy(env)
        traj = rollout(env, policy, 4, np.random.default_rng(2))
        vtots, logp_sums = replay_one(policy, traj)
        loss_pi = None
        for t in range(len(traj)):
            term = logp_sums[t] * 1.7  # arbitrary nonzero advantage
            loss_pi = term if loss_pi is None else loss_pi + term
        policy.store.zero_grads()
        loss_pi.backward()
        grads = policy.store.gradients()
        for name, g in grads.items():
            if name.startswith(("critic.", "mix.")):
                assert np.all(g == 0), name
        assert any(np.any(grads[n] != 0) for n in grads if n.startswith("act."))

    def test_value_loss_never_touches_action_heads(self):
        env = tiny_env()
        policy = small_policy(env)
        traj = rollout(env, policy, 4, np.random.default_rng(3))
        vtots, _ = replay_one(policy, traj)
        loss_v = None
        for v in vtots:
            sq = (v - 1.0) * (v - 1.0)
            loss_v = sq if loss_v is None else loss_v + sq
        policy.store.zero_grads()
        loss_v.backward()
        grads = policy.store.gradients()
        for name, g in grads.items():
            if name.startswith("act."):
                assert np.all(g == 0), name
        assert any(np.any(grads[n] != 0) for n in grads
                   if n.startswith("critic."))
        assert any(np.any(grads[n] != 0) for n in grads
                   if n.startswith("emb."))  # shared trunk carries value loss

    def test_score_gradient_matches_closed_form_on_output_bias(self):
        # single-agent bandit view: d logp / d mean-bias = (g - mu) / sigma^2
        env = tiny_env()
        policy = small_policy(env, dtype=np.float64)
        z = policy.embed([env.comm_graph()])
        sample, _ = policy.act(z, policy.gru_zero(), np.random.default_rng(4))
        logp, _ = policy.log_prob(z, policy.gru_zero(), sample)
        policy.store.zero_grads()
        logp[0, 0].backward()  # the AP's term
        (mean, log_std, _, _), _ = policy._heads(z, policy.gru_zero())
        expect = ((sample.gaussian[0] - mean.value[0])
                  / np.exp(2 * log_std.value[0]))
        # the mean's columns of the AP head's bias
        got = policy.store.get("act.ap.head.b").grad[:mean.shape[1]]
        np.testing.assert_allclose(got, expect, rtol=1e-10)

    def test_score_gradient_matches_closed_form_in_float32(self):
        # the float32 twin, the closed form taken in float64 from the float32
        # draw and heads; margin rtol 1e-5 (seen: <= 2e-7)
        env = tiny_env()
        policy = small_policy(env)
        z = policy.embed([env.comm_graph()])
        sample, _ = policy.act(z, policy.gru_zero(), np.random.default_rng(4))
        logp, _ = policy.log_prob(z, policy.gru_zero(), sample)
        policy.store.zero_grads()
        logp[0, 0].backward()
        (mean, log_std, _, _), _ = policy._heads(z, policy.gru_zero())
        draw, mu, ls = (a.astype(np.float64) for a in (
            sample.gaussian[0], mean.value[0], log_std.value[0]))
        got = policy.store.get("act.ap.head.b").grad[:mean.shape[1]]
        assert got.dtype == np.float32
        np.testing.assert_allclose(got, (draw - mu) / np.exp(2 * ls),
                                   rtol=1e-5)

    @pytest.mark.parametrize("clip", [10.0, 1e-3, 0.0])
    def test_each_gradient_is_summed_once_into_the_block_norms(
            self, clip, monkeypatch):
        # one float64 sum of squares per gradient of each block; the norms
        # and grad_v are the Euclidean norms of the block's arrays
        env = tiny_env()
        policy = small_policy(env)
        batch = [rollout(env, policy, 4, np.random.default_rng(8))]
        calls = []
        sums = learner.squared_sums

        def recording(grads):
            calls.append(dict(grads))
            return sums(grads)

        monkeypatch.setattr(learner, "squared_sums", recording)
        stats = update(policy, batch, TrainConfig(grad_clip=clip),
                       reward_scale=0.02)
        g_pi, g_v, g_mix = calls
        critic = {n: g for n, g in g_v.items() if n.startswith("critic.")}
        assert critic and len(calls) == 3

        def norm(grads):  # float64 squares, summed array by array
            total = 0.0
            for g in grads.values():
                g = np.asarray(g, dtype=np.float64)
                total += float(np.vdot(g, g))
            return float(np.sqrt(total))

        def clipped(norm):
            return min(norm, clip) if clip > 0 else norm

        norm_v = norm(g_v)
        v_scale = clip / norm_v if 0 < clip < norm_v else 1.0
        assert stats["grad_pi"] == clipped(norm(g_pi))
        assert stats["grad_mix"] == clipped(norm(g_mix))
        assert stats["grad_v"] == norm(critic) * v_scale

    def test_critic_fit_reduces_loss_on_frozen_batch(self):
        env = tiny_env()
        policy = small_policy(env, dtype=np.float64)
        traj = rollout(env, policy, 6, np.random.default_rng(5))
        cfg = TrainConfig(lr_pi=0.0, lr_v=2e-3, lr_mix=2e-3, grad_clip=50.0)
        losses = [update(policy, [traj], cfg, reward_scale=0.02)["loss_v"]
                  for _ in range(100)]
        assert losses[-1] < 0.5 * losses[0]
        drops = sum(b < a for a, b in zip(losses, losses[1:]))
        assert drops > 80

    @pytest.mark.parametrize("make, clip", [(medium_config, 50.0),
                                            (tiny_config, 0.0)])
    def test_critic_fit_holds_on_medium_and_unclipped(self, make, clip):
        env = NetworkEnv(make(), seed=0)
        policy = small_policy(env, dtype=np.float64)
        traj = rollout(env, policy, 6, np.random.default_rng(5))
        cfg = TrainConfig(lr_pi=0.0, lr_v=2e-3, lr_mix=2e-3, grad_clip=clip)
        losses = [update(policy, [traj], cfg, reward_scale=0.02)["loss_v"]
                  for _ in range(100)]
        assert losses[-1] < 0.5 * losses[0]
        drops = sum(b < a for a, b in zip(losses, losses[1:]))
        assert drops > 80

    @pytest.mark.parametrize("make, clip", [(tiny_config, 50.0),
                                            (medium_config, 50.0),
                                            (tiny_config, 0.0)])
    def test_critic_fit_in_float32_tracks_float64(self, make, clip):
        # the float32 twin of the two fits above, run beside a float64 fit
        # from the same values on the same batch.  While the float64 loss is
        # above 1e-6 of its start, float32 follows it within rel 1e-3 (seen:
        # <= 6e-5) and drops at every step.  Below that it may stop short:
        # on medium float64 falls to 1e-30 while float32 levels off at
        # about 1e-14 and wobbles there, so the count of strict drops is no
        # test there; float32 must only stay below 1e-6 of its start.
        env = NetworkEnv(make(), seed=0)
        policy = small_policy(env, dtype=np.float64)
        twin = small_policy(env)
        traj = rollout(env, policy, 6, np.random.default_rng(5))
        cfg = TrainConfig(lr_pi=0.0, lr_v=2e-3, lr_mix=2e-3, grad_clip=clip)
        wide = np.array([update(policy, [traj], cfg, reward_scale=0.02)
                         ["loss_v"] for _ in range(100)])
        traj.values = None  # the twin holds values from its own critic
        narrow = np.array([update(twin, [traj], cfg, reward_scale=0.02)
                           ["loss_v"] for _ in range(100)])
        assert narrow[-1] < 0.5 * narrow[0]
        tracked = next((k for k, loss in enumerate(wide)
                        if loss <= 1e-6 * wide[0]), len(wide))
        assert tracked >= 10
        np.testing.assert_allclose(narrow[:tracked], wide[:tracked],
                                   rtol=1e-3)
        assert (np.diff(narrow[:tracked]) < 0).all()
        assert (narrow[tracked:] < 1e-6 * narrow[0]).all()

    def test_batch_values_are_computed_once_and_held(self):
        env = tiny_env()
        policy = small_policy(env, dtype=np.float64)
        rng = np.random.default_rng(7)
        cfg = TrainConfig(lr_pi=0.0, lr_v=2e-3, lr_mix=2e-3)
        traj = rollout(env, policy, 5, rng)
        assert traj.values is None
        before, _ = replay_one(policy, traj)
        update(policy, [traj], cfg)
        held = traj.values.copy()
        np.testing.assert_array_equal(held, [v.item() for v in before])

        # the critic has moved, yet the second update regresses on the
        # targets built from the held values, not from the moved critic
        now, _ = replay_one(policy, traj)
        now = [v.item() for v in now]
        assert not np.array_equal(now, held)
        rewards = [rec.outcome.reward for rec in traj.steps]
        expect = sum((now[t] - n_step_return(rewards, held, t, cfg.gamma,
                                             cfg.nstep)) ** 2
                     for t in range(len(traj)))
        loss = update(policy, [traj], cfg)["loss_v"]
        np.testing.assert_array_equal(traj.values, held)
        assert loss == pytest.approx(expect, rel=1e-12)

        fresh = rollout(env, policy, 5, rng)
        own, _ = replay_one(policy, fresh)
        update(policy, [fresh], cfg)
        np.testing.assert_array_equal(fresh.values, [v.item() for v in own])
        np.testing.assert_array_equal(traj.values, held)

    def test_batch_values_are_held_in_float32(self):
        # the float32 twin: values are held bit for bit, as in float64; the
        # float32 loss against the float64 sum of the same terms has margin
        # rel 1e-6 (seen: 3e-8)
        env = tiny_env()
        policy = small_policy(env)
        rng = np.random.default_rng(7)
        cfg = TrainConfig(lr_pi=0.0, lr_v=2e-3, lr_mix=2e-3)
        traj = rollout(env, policy, 5, rng)
        before, _ = replay_one(policy, traj)
        update(policy, [traj], cfg)
        held = traj.values.copy()
        assert held.dtype == np.float32
        np.testing.assert_array_equal(held, before.value)

        now, _ = replay_one(policy, traj)
        now = [v.item() for v in now]
        assert not np.array_equal(now, held)
        rewards = [rec.outcome.reward for rec in traj.steps]
        expect = sum((now[t] - n_step_return(rewards, held, t, cfg.gamma,
                                             cfg.nstep)) ** 2
                     for t in range(len(traj)))
        loss = update(policy, [traj], cfg)["loss_v"]
        np.testing.assert_array_equal(traj.values, held)
        assert loss == pytest.approx(expect, rel=1e-6)

    @pytest.mark.parametrize("loss", ["pi", "v"])
    def test_batched_replay_gradients_match_finite_differences(self, loss):
        # three slots through the GRU, the segment mean and the mixer, with
        # two agents of each type so every batched axis has length > 1
        env = NetworkEnv(tiny_config(num_aps=2, num_ris=2, antennas=2,
                                     room_x=12.0), seed=0)
        policy = policy_for_env(env, PolicyConfig(
            msg_dim=3, hidden=3, gru_hidden=4, critic_hidden=4,
            mix_hidden=3), 0, np.float64)
        traj = rollout(env, policy, 3, np.random.default_rng(8))
        weights = np.array([0.7, -1.3, 0.4])
        target = np.array([0.2, -0.5, 1.1])

        def build():
            v_tot, logp_sums = replay_one(policy, traj)
            if loss == "pi":
                return (logp_sums * weights).sum()
            err = v_tot[:3] - target
            return (err * err).sum()

        reached = ("emb.", "act.") if loss == "pi" else ("emb.", "critic.",
                                                         "mix.")
        names = [n for n in policy.store.names() if n.startswith(reached)]
        fd_check(build, policy.store, names=names)

    def test_exact_target_means_zero_critic_gradient(self):
        env = tiny_env()
        policy = small_policy(env)
        traj = rollout(env, policy, 3, np.random.default_rng(6))
        vtots, _ = replay_one(policy, traj)
        loss_v = None
        for v in vtots:
            err = v - v.item()  # target equals current estimate
            sq = err * err
            loss_v = sq if loss_v is None else loss_v + sq
        assert loss_v.item() == 0.0
        policy.store.zero_grads()
        loss_v.backward()
        for name, g in policy.store.gradients().items():
            assert np.all(g == 0), name

    def test_edge_kind_without_edges_takes_no_step(self):
        # tiny has one AP, so no AP->AP edge: embed skips that kind, whose
        # parameters get no gradient and keep their bits, while every other
        # parameter takes the step it took when the empty kind still ran
        env = tiny_env()
        policy, twin = small_policy(env), small_policy(env)
        twin.embed = types.MethodType(embed_every_kind, twin)
        traj = rollout(env, policy, 5, np.random.default_rng(8))
        assert not any(len(rec.graph.src["ap_ap"]) for rec in traj.steps)
        before = {n: policy.store.get(n).value.copy()
                  for n in policy.store.names()}
        update(policy, [traj], TrainConfig())
        update(twin, [copy.deepcopy(traj)], TrainConfig())
        empty = [n for n in before if n.startswith("emb.ap_ap.")]
        assert empty
        for n, v in before.items():
            got = policy.store.get(n).value
            if n in empty:
                assert policy.store.get(n).grad is None, n
                assert got.tobytes() == v.tobytes(), n
            else:
                assert got.tobytes() == twin.store.get(n).value.tobytes(), n
        assert any(not np.array_equal(policy.store.get(n).value, before[n])
                   for n in before if n.startswith("emb.ap."))


class TestBatchedReplay:
    @pytest.mark.parametrize("make", [tiny_config, medium_config])
    def test_batch_matches_each_trajectory_replayed_alone(self, make):
        env = NetworkEnv(make(), seed=2)
        policy = small_policy(env, dtype=np.float64)
        rng = np.random.default_rng(9)
        batch = [rollout(env, policy, 4, rng) for _ in range(3)]
        v_tot, logp_sums = _replay_values(policy, batch)
        assert v_tot.shape == (5, 3) and logp_sums.shape == (4, 3)
        for r, traj in enumerate(batch):
            own_v, own_logp = replay_one(policy, traj)
            np.testing.assert_allclose(v_tot.value[:, r], own_v.value,
                                       rtol=1e-12)
            np.testing.assert_allclose(logp_sums.value[:, r], own_logp.value,
                                       rtol=1e-12)

    def test_tape_size_is_independent_of_horizon_and_batch(self, monkeypatch):
        made = []
        init = Tensor.__init__

        def counting(self, *args, **kwargs):
            made.append(1)
            init(self, *args, **kwargs)

        counts = {}
        for horizon, rollouts in ((5, 1), (40, 1), (5, 3), (40, 3)):
            env = tiny_env(seed=1)
            policy = policy_for_env(env, PolicyConfig(), 1)
            rng = np.random.default_rng(2)
            batch = [rollout(env, policy, horizon, rng)
                     for _ in range(rollouts)]
            made.clear()
            monkeypatch.setattr(Tensor, "__init__", counting)
            update(policy, batch, TrainConfig(), reward_scale=0.02)
            monkeypatch.setattr(Tensor, "__init__", init)
            counts[horizon, rollouts] = len(made)
        assert len(set(counts.values())) == 1, counts
        # one dense head layer per agent type, sliced into its outputs; one
        # tanh and one segment_mean per message layer, whose output each
        # node type reads as a slice
        assert counts[5, 1] == 113

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("mode", ["mix", "central"])
    @pytest.mark.parametrize("make", [
        tiny_config, medium_config, default_config,
        partial(medium_config, num_ris=0)],
        ids=["tiny", "medium", "default", "no_ris"])
    def test_value_mixes_each_graphs_node_rows(self, make, mode, dtype):
        # the mixer's state is each graph's node rows, AP then RIS,
        # flattened; without RISs the RIS block is empty
        env = NetworkEnv(make(), seed=2)
        policy = policy_for_env(env, PolicyConfig(critic_mode=mode), 0, dtype)
        rng = np.random.default_rng(5)
        batch = [rollout(env, policy, 2, rng) for _ in range(2)]
        graphs = [tr.steps[t].graph if t < 2 else tr.final_graph
                  for t in range(3) for tr in batch]
        state = np.stack([np.concatenate([g.nodes[t].ravel()
                                          for t in NODE_TYPES])
                          for g in graphs])
        z = policy.embed(graphs)
        local = policy.local_value(z) if mode == "mix" else None
        want = policy.global_value(state, local).value
        got = policy.value(z).value
        assert got.dtype == want.dtype == dtype
        assert got.shape == (6,) and got.tobytes() == want.tobytes()

    def test_unequal_lengths_rejected(self):
        env = tiny_env()
        policy = small_policy(env)
        rng = np.random.default_rng(3)
        batch = [rollout(env, policy, 4, rng), rollout(env, policy, 5, rng)]
        with pytest.raises(ValueError, match="equal length"):
            update(policy, batch, TrainConfig())
        assert all(traj.values is None for traj in batch)

    def test_empty_batch_rejected(self):
        # it used to stop inside _replay_values with an IndexError
        policy = small_policy(tiny_env())
        with pytest.raises(ValueError, match="at least one trajectory"):
            update(policy, [], TrainConfig())

    def test_episode_without_slots_rejected(self):
        # it used to stop inside numpy: "need at least one array to
        # concatenate"
        env = tiny_env()
        policy = small_policy(env)
        traj = rollout(env, policy, 0, np.random.default_rng(3))
        with pytest.raises(ValueError, match="at least one slot"):
            update(policy, [traj], TrainConfig())
        assert traj.values is None

    @pytest.mark.parametrize("field, horizon, rollouts",
                             [("horizon", 0, 1), ("rollouts", 4, 0)])
    def test_evaluate_without_slots_rejected(self, field, horizon, rollouts):
        # a zero horizon used to stop inside numpy: "need at least one
        # array to stack"; zero rollouts averaged no episode
        env = tiny_env()
        policy = small_policy(env)
        with pytest.raises(ValueError, match=f"{field} must be at least 1"):
            evaluate(env, policy, horizon, rollouts)


def _loss_gradients(policy, batch, tcfg):
    """loss_pi and loss_v of ``update`` on ``batch``, and the gradients each
    sends to the parameter blocks it updates, without applying them."""
    store, blocks = policy.store, policy.parameter_blocks()
    loss_pi, loss_v = _losses(policy, batch, tcfg, 0.02)
    store.zero_grads()
    loss_pi.backward()
    grads = {"pi": _reached(store, blocks["policy"])}
    store.zero_grads()
    loss_v.backward()
    grads["v"] = _reached(store, blocks["policy"] + blocks["critic"])
    grads["mix"] = _reached(store, blocks["mix"])
    return loss_pi.item(), loss_v.item(), grads


def _rel(got, want) -> float:
    got = np.asarray(got, dtype=np.float64)
    return float(np.linalg.norm(got - want) / np.linalg.norm(want))


class TestFloat32Learner:
    """The learner runs in the dtype of its store, float32 by default, while
    the env stays float64."""

    @pytest.mark.parametrize("make", [tiny_config, medium_config])
    def test_float32_replay_agrees_with_float64(self, make):
        # one batch collected in float64, replayed by a float32 store that
        # holds the same parameter values, cast, against the same held
        # values.  Bounds: rel 1e-5 on loss_pi and loss_v, rel 1e-4 on the
        # gradient of each block and of each parameter array (seen on tiny,
        # medium and default: <= 1.3e-7 on the losses, <= 6e-7 per array)
        env = NetworkEnv(make(), seed=0)
        wide = policy_for_env(env, PolicyConfig(), 0, np.float64)
        narrow = policy_for_env(env, PolicyConfig(), 0)
        assert narrow.store.dtype == np.float32
        for name in wide.store.names():
            narrow.store.get(name).value[...] = wide.store.get(name).value
        rng = np.random.default_rng(3)
        batch = [rollout(env, wide, 5, rng) for _ in range(2)]
        tcfg = TrainConfig()
        pi64, v64, g64 = _loss_gradients(wide, batch, tcfg)
        pi32, v32, g32 = _loss_gradients(narrow, batch, tcfg)
        assert pi32 == pytest.approx(pi64, rel=1e-5)
        assert v32 == pytest.approx(v64, rel=1e-5)
        for block, grads in g64.items():
            assert sorted(g32[block]) == sorted(grads)
            for name, g in grads.items():
                assert g32[block][name].dtype == np.float32
                assert _rel(g32[block][name], g) <= 1e-4, (block, name)
            assert _rel(np.concatenate([g32[block][n].ravel() for n in grads]),
                        np.concatenate([g.ravel() for g in grads.values()])
                        ) <= 1e-4, block

    @pytest.mark.parametrize("make", [tiny_config, medium_config])
    def test_no_float64_leaks_into_a_float32_learner(self, make,
                                                     monkeypatch):
        env = NetworkEnv(make(), seed=1)
        policy = policy_for_env(env, PolicyConfig(), 0)
        graph = env.comm_graph()
        with policy.store.no_grad():
            z = policy.embed([graph])
            sample, gru = policy.act(z, policy.gru_zero(),
                                     np.random.default_rng(0))
            logp, _ = policy.log_prob(z, policy.gru_zero(), sample)
            local = policy.local_value(z)
            state = np.concatenate([graph.nodes[t].ravel()
                                    for t in NODE_TYPES])
            total = policy.global_value(state[None], local)
        free = [*z.values(), sample.gaussian, logp, *gru.values(), local,
                total]
        assert [a.dtype for a in free] == [np.float32] * len(free)
        power, _, _ = policy.env_action(sample)
        assert power.dtype == np.float64  # the env stays float64

        rng = np.random.default_rng(2)
        batch = [rollout(env, policy, 4, rng) for _ in range(2)]
        seen = []
        init, accum = Tensor.__init__, Tensor._accum
        apply = ParamStore.apply_update

        def record_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            seen.append(("value", self.value.dtype))

        def record_accum(self, g):
            accum(self, g)
            seen.append(("grad", self.grad.dtype))

        def record_apply(store, deltas):
            seen.extend(("delta", d.dtype) for d in deltas.values())
            apply(store, deltas)

        monkeypatch.setattr(Tensor, "__init__", record_init)
        monkeypatch.setattr(Tensor, "_accum", record_accum)
        monkeypatch.setattr(ParamStore, "apply_update", record_apply)
        update(policy, batch, TrainConfig(), reward_scale=0.02)
        kinds = {kind for kind, _ in seen}
        assert kinds == {"value", "grad", "delta"}
        assert [k for k, dtype in seen if dtype != np.float32] == []
        for name in policy.store.names():
            assert policy.store.get(name).value.dtype == np.float32, name


class TestMemory:
    # traced peak of one update on the train-default batch (default_config,
    # horizon 10, 2 rollouts, float32): 15.9 MiB with numpy 2.4.6, against
    # 25.0 MiB while linear and concat kept their constant parts, update kept
    # the tape through the step and trajectories held float64 graphs.  The
    # ceiling leaves 13% headroom: it pins memory as the tape-size test pins
    # the node count, so a change that raises it says why
    CEILING_MIB = 18.0

    def test_update_peak_stays_under_its_ceiling(self):
        env = NetworkEnv(default_config(), seed=1)
        policy = policy_for_env(env, PolicyConfig(), 1)
        rng = np.random.default_rng(2)
        batch = [rollout(env, policy, 10, rng) for _ in range(2)]
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            update(policy, batch, TrainConfig(), reward_scale=0.02)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak / 2 ** 20 <= self.CEILING_MIB


class TestSlotCost:
    # Python frames of ``risnoma`` entered while one tiny slot is collected
    # as ``rollout`` collects it (graph, cast, embed, act, env_action and
    # env.step, no tape): 165 with Python 3.11, against 271 before the
    # plain path took no ``_val`` call per input and ``embed`` built its
    # segment layout per call.  On small configs a slot's cost is mostly
    # such calls, so the count pins it without a timing; a change that
    # raises it says why
    CEILING = 165

    def test_python_calls_per_slot_stay_under_the_ceiling(self):
        env = NetworkEnv(tiny_config(), seed=1)
        policy = policy_for_env(env, PolicyConfig(), 1)
        rng = np.random.default_rng(3)
        gru = policy.gru_zero()
        root = str(Path(learner.__file__).parent)
        calls = []

        def slot():
            graph = env.comm_graph().astype(policy.store.dtype)
            with policy.store.no_grad():
                sample, _ = policy.act(policy.embed([graph]), gru, rng)
            env.step(*policy.env_action(sample))

        def count(frame, event, arg):
            if event == "call" and frame.f_code.co_filename.startswith(root):
                calls.append(frame.f_code.co_name)

        slot()  # warm: first-use caches fill here
        sys.setprofile(count)
        try:
            slot()
        finally:
            sys.setprofile(None)
        assert "derive_plan" in calls and "gru_scan" in calls
        assert len(calls) <= self.CEILING


class TestTrain:
    PCFG = PolicyConfig(msg_dim=4, hidden=4, gru_hidden=6, critic_hidden=6,
                        mix_hidden=4)

    def _train(self, env_factory, tcfg, **kw):
        """``train`` on a small policy built for ``env_factory(tcfg.seed)``."""
        policy = policy_for_env(env_factory(tcfg.seed), self.PCFG, tcfg.seed)
        return train(env_factory, tcfg, policy, **kw)

    def test_zero_rates_freeze_parameters(self):
        env_factory = lambda s: NetworkEnv(tiny_config(), seed=s)
        tcfg = TrainConfig(episodes=1, rollouts=1, horizon=4, lr_pi=0.0,
                           lr_v=0.0, lr_mix=0.0, seed=3)
        policy, _ = self._train(env_factory, tcfg)
        fresh = policy_for_env(env_factory(3), self.PCFG, 3)
        for name in policy.store.names():
            assert np.array_equal(policy.store.get(name).value,
                                  fresh.store.get(name).value), name

    def test_curve_rows_are_complete_and_ordered(self):
        env_factory = lambda s: NetworkEnv(tiny_config(), seed=s)
        tcfg = TrainConfig(episodes=3, rollouts=1, horizon=5, seed=0)
        policy, curves = self._train(env_factory, tcfg)
        assert [c["episode"] for c in curves] == [0, 1, 2]
        exchange = policy.exchange_volume(env_factory(0).comm_graph())
        assert exchange > 0
        for row in curves:
            for key in ("test_reward", "eta", "outage_se", "outage_iot",
                        "grad_pi", "grad_v", "grad_mix", "exchange_per_step"):
                assert key in row
            assert row["exchange_per_step"] == exchange

    def test_non_finite_update_stops_with_the_last_finite_parameters(
            self, monkeypatch):
        # the update of episode 1 is made non-finite: train stops naming the
        # episode, the policy keeps what episode 0 left, and nothing is saved
        env_factory = lambda s: NetworkEnv(tiny_config(), seed=s)
        tcfg = TrainConfig(episodes=3, rollouts=1, horizon=4, seed=0)
        policy = policy_for_env(env_factory(0), self.PCFG, 0)
        store, updates, after_first = policy.store, [], {}
        apply = store.apply_update

        def poisoned(deltas):
            updates.append(len(updates))
            if len(updates) == 2:  # the update of episode 1
                name = min(deltas)
                deltas = {**deltas,
                          name: np.full_like(deltas[name], np.nan)}
            apply(deltas)

        def on_episode(row, trained, batch):
            after_first.update((n, trained.store.get(n).value.copy())
                               for n in trained.store.names())

        def no_file(*args, **kwargs):
            pytest.fail("train wrote a file")

        monkeypatch.setattr(store, "apply_update", poisoned)
        monkeypatch.setattr(ParamStore, "save", no_file)
        for save in ("save", "savez", "savez_compressed"):
            monkeypatch.setattr(np, save, no_file)
        with pytest.raises(RuntimeError, match="episode 1") as err:
            train(env_factory, tcfg, policy, on_episode)
        assert isinstance(err.value.__cause__, FloatingPointError)
        assert len(updates) == 2
        assert sorted(after_first) == store.names()
        for name in store.names():
            assert np.array_equal(store.get(name).value,
                                  after_first[name]), name

    def test_overflowing_update_names_the_episode_and_the_parameter(self):
        # a finite lr_mix overflows the float32 mixer update; apply_update's
        # own check stops train, not numpy's overflow warning
        env_factory = lambda s: NetworkEnv(tiny_config(), seed=s)
        policy = policy_for_env(env_factory(0), self.PCFG, 0)
        tcfg = TrainConfig(episodes=2, rollouts=1, horizon=4, lr_mix=1e38)
        with pytest.raises(
                RuntimeError,
                match=r"non-finite update at episode 0 \(.* for mix\."):
            train(env_factory, tcfg, policy)

    def test_trains_without_ris(self):
        # an agent type with no agents: zero-row trunks, heads and critics
        env_factory = lambda s: NetworkEnv(medium_config(num_ris=0), seed=s)
        tcfg = TrainConfig(episodes=2, rollouts=2, horizon=5, seed=0)
        policy, curves = self._train(env_factory, tcfg)
        assert len(curves) == 2
        for row in curves:
            assert all(np.isfinite(v) for v in row.values())
        # no RIS ends an edge, so no RIS edge kind has parameters
        assert not [n for n in policy.store.names()
                    if n.startswith(("emb.ap_ris.", "emb.ris_ap."))]

    def test_trains_without_iot_users_and_reports_zero_iot_outage(self):
        # no IoT user: the IoT outage is 0.0, not the NaN mean of no users
        env_factory = lambda s: NetworkEnv(tiny_config(iot_users_per_ap=0),
                                           seed=s)
        tcfg = TrainConfig(episodes=2, rollouts=1, horizon=5, seed=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, curves = self._train(env_factory, tcfg)
        assert len(curves) == 2
        for row in curves:
            assert all(np.isfinite(v) for v in row.values())
            assert row["outage_iot"] == 0.0


class TestPinnedLearnerTrace:
    """The learner trace, pinned.  These digests may be changed only
    together with a CHANGES.md entry that explains the change to the
    learner; a refactor or a speedup must leave them as they are.  They
    were taken with numpy 2.4.6 and its bundled OpenBLAS on one BLAS
    thread, as tier-1 runs; another BLAS build may round the products
    differently."""

    PINNED = {
        ("tiny", "mix"):
            "cc62d29d26d5368d6503df69de729393dfeec3b081e61a179886ee13525b4941",
        ("tiny", "central"):
            "533053b77124c82094b3036307d40dc2af2475424f6608a075e26cc7be1d0c2a",
        ("medium", "mix"):
            "c945619b39eb4794896c17b48f7381dea3dab8c0126cd21b3e3b2161e01045c5",
        ("medium", "central"):
            "78a6c58bb82e667384a7d99178f244520703272a1d17b98569906c199bbef1e6",
    }

    @staticmethod
    def trace_sha256(cfg, critic_mode) -> str:
        """SHA-256 of the ``repr`` of every curve row and then the bytes of
        every parameter, in name order, after a short float32 ``train``."""
        policy, curves = train(
            lambda s: NetworkEnv(cfg, seed=s),
            TrainConfig(episodes=2, rollouts=2, horizon=8, seed=1),
            policy_for_env(NetworkEnv(cfg, seed=1),
                           PolicyConfig(critic_mode=critic_mode), 1))
        assert policy.store.dtype == np.float32
        digest = hashlib.sha256()
        for row in curves:
            digest.update(repr(row).encode())
        for name in policy.store.names():
            digest.update(policy.store.get(name).value.tobytes())
        return digest.hexdigest()

    @pytest.mark.parametrize("name, make_config", [
        ("tiny", tiny_config), ("medium", medium_config)])
    @pytest.mark.parametrize("critic_mode", ["mix", "central"])
    def test_trace_digest_is_pinned(self, name, make_config, critic_mode):
        assert (self.trace_sha256(make_config(), critic_mode)
                == self.PINNED[name, critic_mode])
