"""The three benchmark workloads, their output checks and their metrics.

Every workload is a closed loop with one caller: the next slot starts only
when the previous one has returned.  The loop runs in whole units (an env
episode on ``env-default``, a training episode on ``train-*``) until
``seconds`` of unit time have passed, and never fewer than ``MIN_UNITS``
units.  The reward-trace checksum and the health ratios cover exactly the
first ``MIN_UNITS`` units, so they do not depend on how fast the host ran.

Times are scaled to a reference host speed (see ``README.md``): on a shared
2-core host the same work runs up to 1.8 times slower while the core is
contended, so the loop also times a fixed calibration kernel at most every
``CAL_GAP_S`` seconds, and every time figure is multiplied by
``CAL_REFERENCE_S`` over the kernel's mean time in the same run.
"""
from __future__ import annotations

import contextlib
import hashlib
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from risnoma import learner
from risnoma.env import NetworkEnv
from risnoma.policy import PolicyConfig, policy_for_env
from risnoma.presets import default_config, tiny_config

from tracer import Tracer

WORKLOADS = ("env-default", "train-default", "train-tiny")
MIN_UNITS = {"env-default": 2, "train-default": 2, "train-tiny": 4}
TRAIN_HORIZON = {"train-default": 10, "train-tiny": 0}  # 0: preset length
SETUP_REPEATS = 5
IMPORT_REPEATS = 5
REPLAY_SLOTS = 8
CAL_GAP_S = 0.01               # least time between calibration samples
CAL_REFERENCE_S = 0.45e-3      # kernel time on an uncontended 2-core host

SPAN_TARGETS = {
    "channel.slot_parts": "risnoma.channel:EpisodeChannel.slot_parts",
    "channel.effective": "risnoma.channel:ChannelState.effective",
    "channel.new_episode": "risnoma.channel:EpisodeChannel.new_episode",
    "linklayer.derive_plan": "risnoma.linklayer:derive_plan",
    "linklayer.sic_feasibility": "risnoma.linklayer:sic_feasibility",
    "linklayer.sinr_all": "risnoma.linklayer:sinr_all",
    "queueing.step": "risnoma.queueing:QueueState.step",
    "queueing.sample_arrivals": "risnoma.queueing:QueueState.sample_arrivals",
    "graphs.comm_graph": "risnoma.env:NetworkEnv.comm_graph",
    "policy.embed": "risnoma.policy:GEVDACPolicy.embed",
    "policy.act": "risnoma.policy:GEVDACPolicy.act",
    "policy.log_prob": "risnoma.policy:GEVDACPolicy.log_prob",
    "policy.local_value": "risnoma.policy:GEVDACPolicy.local_value",
    "policy.global_value": "risnoma.policy:GEVDACPolicy.global_value",
    "autodiff.backward": "risnoma.autodiff:Tensor.backward",
    "autodiff.apply_update": "risnoma.autodiff:ParamStore.apply_update",
    "learner.rollout": "risnoma.learner:rollout",
    "learner.update": "risnoma.learner:update",
    "learner.evaluate": "risnoma.learner:evaluate",
    "env.step": "risnoma.env:NetworkEnv.step",
}
LEARNER_SPANS = ("learner.rollout", "learner.update", "learner.evaluate")
COUNTER_TARGETS = {"autodiff.tensor": "risnoma.autodiff:Tensor.__init__"}
CONSTRUCT_TARGETS = {"channel.construct": "risnoma.channel:EpisodeChannel.__init__"}

IMPORT_PROBE = (
    "import time\n"
    "start = time.perf_counter()\n"
    "import risnoma.learner, risnoma.presets\n"
    "print(time.perf_counter() - start)\n"
)


# -- host speed -------------------------------------------------------------------
_CAL_MATRIX = np.random.default_rng(0).random((8, 8)) / 4


def calibration_kernel() -> float:
    """Seconds taken by fixed work in the program's own mix: small numpy
    ops driven from Python.  It does not touch ``risnoma``."""
    start = time.perf_counter()
    x, acc = _CAL_MATRIX, 0.0
    for i in range(150):
        x = np.tanh(x @ _CAL_MATRIX) + 0.01
        acc += float(x[0, 0]) + (i * i) % 7
    return time.perf_counter() - start


class HostSpeed:
    """Calibration samples spread through the loop.

    The work and the samples see the same mix of fast and slow host time,
    so the ratio of their means does not depend on the mix.  ``paused`` is
    the time spent sampling, which unit timings leave out.
    """

    def __init__(self):
        self.samples: list = []
        self.paused = 0.0
        self.enabled = True
        self._last = -float("inf")

    def sample(self) -> None:
        if not self.enabled or time.perf_counter() - self._last < CAL_GAP_S:
            return
        seconds = calibration_kernel()
        self._last = time.perf_counter()
        self.samples.append(seconds)
        self.paused += seconds

    def scale(self) -> float:
        """Factor that turns a time measured here into reference time."""
        return CAL_REFERENCE_S / statistics.fmean(self.samples)


# -- the program's outputs, as the benchmark sees them ---------------------------
@dataclass
class StepLog:
    env: "RecordingEnv"
    resets: int                    # resets of ``env`` before this step
    ms: float                      # env.step wall time
    out: object                    # StepOutcome
    power: np.ndarray              # the projected allocation the env used
    action: tuple                  # (power, on, phase) as passed to step


class RecordingEnv(NetworkEnv):
    """NetworkEnv that times each step and logs what the checks need.
    After each step it lets ``host`` take a calibration sample."""

    def __init__(self, config, seed, log: list, host: HostSpeed | None = None):
        self.log = log
        self.host = host
        self.resets = 0
        self._projected = None
        super().__init__(config, seed)

    def reset(self) -> None:
        self.resets += 1
        super().reset()

    def project_power(self, alloc):
        self._projected = super().project_power(alloc)
        return self._projected

    def step(self, power, on, phase):
        start = time.perf_counter()
        out = super().step(power, on, phase)
        ms = (time.perf_counter() - start) * 1e3
        self.log.append(StepLog(self, self.resets, ms, out, self._projected,
                                (power, on, phase)))
        if self.host is not None:
            self.host.sample()
        return out


def step_breaches(rec: StepLog) -> list:
    """Invariants every step must keep; returns the names of those broken."""
    cfg, topo, out = rec.env.config, rec.env.topo, rec.out
    broken = []
    per_ap = np.bincount(topo.ap_of_user, weights=rec.power,
                         minlength=cfg.num_aps)
    if np.any(rec.power < 0) or np.any(per_ap > cfg.max_tx_power * (1 + 1e-12)):
        broken.append("power budget")
    for name, arr in (("sinr", out.sinr), ("rates", out.rates),
                      ("queue q", out.q), ("queue y", out.y)):
        arr = np.asarray(arr, dtype=float)
        if not (np.all(np.isfinite(arr)) and np.all(arr >= 0)):
            broken.append(name)
    if not np.isfinite(out.reward):
        broken.append("reward")
    return broken


def row_breaches(row: dict) -> list:
    """Fields of an ``on_episode`` row that must be finite and are not."""
    keys = ("loss_v", "grad_pi", "grad_v", "grad_mix", "train_reward",
            "test_reward")
    return [k for k in keys if not np.isfinite(row[k])]


# -- statistics ---------------------------------------------------------------------
def reward_sha256(logs) -> str:
    rewards = np.array([rec.out.reward for rec in logs], dtype="<f8")
    return hashlib.sha256(rewards.tobytes()).hexdigest()


def _mean(values) -> float:
    values = list(values)
    return float(np.mean(values)) if values else 0.0


def health_ratios(logs, rows, grad_clip: float) -> dict:
    """Ratios read off StepOutcome fields and the rows on_episode gets."""
    norms = [row[k] for row in rows for k in ("grad_pi", "grad_v", "grad_mix")]
    return {
        "linklayer.zf_loaded_rate": _mean(r.out.zf_loaded for r in logs),
        "linklayer.sic_fail_rate": _mean(
            v for r in logs for v in r.out.sic_fail.values()),
        "queueing.outage_rate": _mean(
            x for r in logs for x in np.ravel(r.out.outage)),
        "learner.clip_hit_rate": _mean(
            abs(n - grad_clip) <= 1e-9 * grad_clip for n in norms),
        "policy.exchange_per_slot": _mean(
            row["exchange_per_step"] for row in rows),
    }


# -- one run --------------------------------------------------------------------
@dataclass
class Run:
    """What the loop of one run collected; keys True/False: traced units."""
    units: dict = field(default_factory=lambda: {False: 0, True: 0})
    slots: dict = field(default_factory=lambda: {False: 0, True: 0})
    seconds: dict = field(default_factory=lambda: {False: 0.0, True: 0.0})
    step_ms: list = field(default_factory=list)    # untraced env.step times
    attempted: int = 0
    failed: int = 0
    breaches: dict = field(default_factory=dict)   # check name -> count
    first_logs: list = field(default_factory=list)  # logs of the first units
    first_rows: list = field(default_factory=list)
    grad_clip: float = 0.0
    peak_rss_mb: float = 0.0

    def record_breaches(self, names) -> None:
        for name in names:
            self.breaches[name] = self.breaches.get(name, 0) + 1

    def add_unit(self, traced: bool, slots: int, seconds: float) -> None:
        self.units[traced] += 1
        self.slots[traced] += slots
        self.seconds[traced] += seconds

    @property
    def elapsed(self) -> float:
        return self.seconds[False] + self.seconds[True]


class Bench:
    """Set up one workload, run its loop, check its outputs."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 trace: bool):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload, self.seed = workload, seed
        self.seconds, self.trace = seconds, trace
        self.cfg = default_config() if workload.endswith("default") \
            else tiny_config()
        self.log: list = []
        self.imports: list = []        # seconds per import probe
        self.builds: list = []         # seconds per set-up build
        self.host = HostSpeed()
        self.tracer = Tracer(SPAN_TARGETS, COUNTER_TARGETS)
        self.run = Run()

    # -- set-up ----------------------------------------------------------------------
    def _build(self):
        env = RecordingEnv(self.cfg, self.seed, self.log, self.host)
        if self.workload == "env-default":
            return env, None, None
        # train() builds its eval env as env_factory(seed + 9999)
        eval_env = RecordingEnv(self.cfg, self.seed + 9999, self.log,
                                self.host)
        policy = policy_for_env(env, PolicyConfig(), self.seed)
        return env, eval_env, policy

    def _time_import(self) -> None:
        """Time the package import in a fresh interpreter."""
        env_vars = dict(os.environ)
        env_vars["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(Path(learner.__file__).parents[1]),
                        env_vars.get("PYTHONPATH")) if p)
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE],
                              env=env_vars, capture_output=True, text=True,
                              check=True, timeout=60)
        self.imports.append(float(done.stdout.strip().splitlines()[-1]))

    def setup(self) -> dict:
        """Build env, eval env and policy SETUP_REPEATS times; keep the last.

        The import is timed once here and again at even steps of the loop's
        time (``_close_unit``), so the imports see the same host mix as the
        calibration samples and the loop's host scale applies to them.
        """
        self._time_import()
        for _ in range(SETUP_REPEATS):
            self.log.clear()
            start = time.perf_counter()
            built = self._build()
            self.builds.append(time.perf_counter() - start)
        self.env, self.eval_env, self.policy = built
        out = {}
        if self.trace:
            probe = Tracer(CONSTRUCT_TARGETS)
            with probe.installed():
                self._build()
            row = probe.summary()["channel.construct"]
            out["construct_ms"] = (row["total_s"] / row["calls"] * 1e3
                                   if row["calls"] else 0.0)
            out["construct_absent"] = probe.absent
        self.log.clear()
        return out

    def setup_times(self) -> dict:
        out = {"import_s": statistics.median(self.imports),
               "build_s": statistics.median(self.builds)}
        out["setup_s"] = out["import_s"] + out["build_s"]
        return out

    # -- the loop ------------------------------------------------------------------
    def _unit_traced(self, index: int) -> bool:
        return self.trace and index % 2 == 1

    def _close_unit(self, index: int, logs: list, rows: list) -> bool:
        """Keep what the figures need from a finished unit; returns True
        while the loop should go on."""
        run = self.run
        if index < MIN_UNITS[self.workload]:
            run.first_logs.extend(logs)
            run.first_rows.extend(rows)
        if not self._unit_traced(index):
            run.step_ms.extend(rec.ms for rec in logs)
        if len(self.imports) < IMPORT_REPEATS and \
                run.elapsed >= len(self.imports) * self.seconds / IMPORT_REPEATS:
            self._time_import()
        return index + 1 < MIN_UNITS[self.workload] or \
            run.elapsed < self.seconds

    def loop(self) -> None:
        try:
            if self.workload == "env-default":
                self._env_loop()
            else:
                self._train_loop()
        finally:
            self.tracer.remove()
        self.run.peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def _env_loop(self) -> None:
        run, env, cfg = self.run, self.env, self.cfg
        rng = np.random.default_rng([self.seed, 7])
        k, n_el = cfg.users_per_ap, (cfg.num_ris, cfg.ris_elements)
        budget = 2.0 * cfg.max_tx_power / k   # mean k/2 x budget per AP
        index, going = 0, True
        while going:
            traced = self._unit_traced(index)
            self.host.enabled = not traced
            ctx = self.tracer.installed() if traced else contextlib.nullcontext()
            slots = 0
            with ctx:
                start, paused = time.perf_counter(), self.host.paused
                env.reset()
                for _ in range(cfg.episode_slots):
                    power = rng.uniform(0.0, budget, cfg.total_users)
                    on = rng.integers(0, 2, n_el)
                    phase = rng.integers(0, 2 ** cfg.ris_phase_bits, n_el)
                    run.attempted += 1
                    try:
                        env.step(power, on, phase)
                    except Exception as err:  # a failed op; the run goes on
                        run.failed += 1
                        run.record_breaches([f"raised {type(err).__name__}"])
                        break
                    slots += 1
                seconds = time.perf_counter() - start
            run.add_unit(traced, slots,
                         seconds - (self.host.paused - paused))
            logs = list(self.log)
            self.log.clear()
            for rec in logs:
                broken = step_breaches(rec)
                if broken:
                    run.failed += 1
                    run.record_breaches(broken)
            going = self._close_unit(index, logs, [])
            index += 1

    def _train_loop(self) -> None:
        run = self.run
        horizon = TRAIN_HORIZON[self.workload] or self.cfg.episode_slots
        tcfg = learner.TrainConfig(episodes=10 ** 9, horizon=horizon,
                                   seed=self.seed)
        run.grad_clip = tcfg.grad_clip
        unit_slots = tcfg.rollouts * horizon
        envs = {self.seed: self.env, self.seed + 9999: self.eval_env}
        state = {"index": 0, "mark": 0.0, "paused": 0.0}

        class Done(Exception):
            pass

        def on_episode(row, policy, batch):
            stop = time.perf_counter()
            self.tracer.remove()
            index = state["index"]
            logs = list(self.log)
            self.log.clear()
            run.add_unit(self._unit_traced(index), unit_slots,
                         stop - state["mark"]
                         - (self.host.paused - state["paused"]))
            broken = row_breaches(row)
            for rec in logs:
                broken += step_breaches(rec)
            run.attempted += 1
            if broken:
                run.failed += 1
                run.record_breaches(broken)
            going = self._close_unit(index, logs, [row])
            state["index"] = index + 1
            if not going:
                raise Done
            traced = self._unit_traced(index + 1)
            self.host.enabled = not traced
            self.host.sample()
            if traced:
                self.tracer.install()
            state["mark"], state["paused"] = time.perf_counter(), self.host.paused

        state["mark"] = time.perf_counter()
        try:
            learner.train(envs.__getitem__, tcfg, policy=self.policy,
                          on_episode=on_episode)
        except Done:
            pass
        except Exception as err:  # the episode under way failed
            run.attempted += 1
            run.failed += 1
            run.record_breaches([f"raised {type(err).__name__}"])

    # -- checks after the timed loop ----------------------------------------------
    def replay_mismatches(self) -> int:
        """Replay the first slots of the run on a fresh env with the same
        seed and actions; count rewards that are not bit-identical."""
        first = [rec for rec in self.run.first_logs if rec.env is self.env]
        if not first:
            return 0
        first = [rec for rec in first if rec.resets == first[0].resets]
        first = first[:REPLAY_SLOTS]
        fresh = RecordingEnv(self.cfg, self.seed, [])
        while fresh.resets < first[0].resets:
            fresh.reset()
        mismatches = 0
        for rec in first:
            out = fresh.step(*rec.action)
            if out.reward != rec.out.reward:
                mismatches += 1
        return mismatches


# -- metrics -------------------------------------------------------------------------
def end_to_end(run: Run, setup: dict, scale: float) -> dict:
    """name -> (value, unit); the figures BENCHMARK.json bounds.  Times
    are multiplied by ``scale`` (see HostSpeed)."""
    return {
        "setup_s": (setup["setup_s"] * scale, "s"),
        "slots_per_s": (run.slots[False] / run.seconds[False] / scale, "1/s"),
        "env_step_ms_mean": (statistics.fmean(run.step_ms) * scale, "ms"),
        "peak_rss_mb": (run.peak_rss_mb, "MB"),
    }


def per_layer(run: Run, tracer: Tracer, setup: dict, scale: float) -> dict:
    """name -> (value, unit) from the traced units of a trace run."""
    per_slot_ms = 1e3 * scale / run.slots[True]
    summary = tracer.summary()
    outer = tracer.outermost_total(LEARNER_SPANS)
    out = {}
    for name, row in summary.items():
        if name in LEARNER_SPANS:
            out[f"{name}.ms_per_slot"] = (outer[name] * per_slot_ms, "ms/slot")
        else:
            out[f"{name}.ms"] = (row["self_s"] * per_slot_ms, "ms/slot")
        out[f"{name}.calls"] = (row["calls"] / run.slots[True], "calls/slot")
    out["channel.construct.ms"] = (setup["construct_ms"] * scale, "ms")
    out["autodiff.tape_nodes_per_slot"] = (
        tracer.counts["autodiff.tensor"] / run.slots[True], "count/slot")
    for name, value in health_ratios(run.first_logs, run.first_rows,
                                     run.grad_clip).items():
        out[name] = (value, "count/slot" if name.endswith("_per_slot")
                     else "ratio")
    # traced and untraced units alternate, so they see the same host mix
    traced_s = run.seconds[True] / run.slots[True]
    untraced_s = run.seconds[False] / run.slots[False]
    out["trace.overhead_pct"] = ((traced_s / untraced_s - 1.0) * 100.0, "%")
    out["trace.spans_per_slot"] = (len(tracer.spans) / run.slots[True],
                                   "count/slot")
    out["trace.absent_targets"] = (
        len(tracer.absent) + len(setup["construct_absent"]), "count")
    return out
