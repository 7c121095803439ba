"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench``."""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import bench  # noqa: E402
from tracer import Tracer, resolve  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def toy_module(monkeypatch):
    """A throwaway module: a function, a class method and an inherited one."""
    mod = types.ModuleType("toy_target")

    def work(x):
        return x + 1

    class Base:
        def inherited(self):
            return "base"

    class Child(Base):
        def method(self, x):
            return mod.work(x) * 2

    mod.work, mod.Base, mod.Child = work, Base, Child
    monkeypatch.setitem(sys.modules, "toy_target", mod)
    return mod


def test_wrappers_restore_the_originals(toy_module):
    work = toy_module.work
    method = vars(toy_module.Child)["method"]
    tracer = Tracer({"work": "toy_target:work",
                     "method": "toy_target:Child.method",
                     "inherited": "toy_target:Child.inherited"})
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert toy_module.work is not work
            assert toy_module.Child().method(1) == 4
            assert toy_module.Child().inherited() == "base"
            raise RuntimeError("the body fails; the restore must still run")
    assert toy_module.work is work
    assert vars(toy_module.Child)["method"] is method
    assert "inherited" not in vars(toy_module.Child)
    assert [s[0] for s in tracer.spans] == ["method", "work", "inherited"]


def test_program_targets_restored():
    tracer = Tracer(bench.SPAN_TARGETS, bench.COUNTER_TARGETS)
    targets = {**bench.SPAN_TARGETS, **bench.COUNTER_TARGETS}
    before = {}
    for name, target in targets.items():
        owner, attr = resolve(target)
        before[name] = vars(owner).get(attr) if isinstance(owner, type) \
            else getattr(owner, attr)
    with tracer.installed():
        assert tracer.absent == []
    for name, target in targets.items():
        owner, attr = resolve(target)
        now = vars(owner).get(attr) if isinstance(owner, type) \
            else getattr(owner, attr)
        assert now is before[name], name


def test_missing_target_is_absent_and_the_rest_is_wrapped(toy_module):
    tracer = Tracer({"work": "toy_target:work",
                     "gone_attr": "toy_target:Child.renamed",
                     "gone_class": "toy_target:Removed.method",
                     "gone_module": "toy_target_removed:work"})
    with tracer.installed():
        toy_module.work(1)
    assert sorted(tracer.absent) == ["gone_attr", "gone_class", "gone_module"]
    summary = tracer.summary()
    assert summary["work"]["calls"] == 1
    assert summary["gone_attr"]["calls"] == 0


def test_self_time_is_duration_minus_children(toy_module):
    ticks = iter([0.0, 1.0, 3.0, 4.0, 7.0, 10.0])
    tracer = Tracer({"work": "toy_target:work",
                     "method": "toy_target:Child.method"},
                    clock=lambda: next(ticks))

    def outer():
        return toy_module.work(1) + toy_module.work(2)

    toy_module.Child.method = lambda self: outer()
    with tracer.installed():
        toy_module.Child().method()
    summary = tracer.summary()
    # method spans [0, 10]; its children work span [1, 3] and [4, 7]
    assert summary["method"]["total_s"] == 10.0
    assert summary["method"]["self_s"] == 10.0 - (2.0 + 3.0)
    assert summary["work"]["total_s"] == 5.0
    assert summary["work"]["self_s"] == 5.0
    assert [s[3] for s in tracer.spans] == [-1, 0, 0]
    assert tracer.outermost_total({"method", "work"}) == {"method": 10.0,
                                                         "work": 0.0}


def test_counter_counts_without_spans(toy_module):
    tracer = Tracer({}, {"work.count": "toy_target:work"})
    with tracer.installed():
        for x in range(5):
            toy_module.work(x)
    assert tracer.counts["work.count"] == 5
    assert tracer.spans == []


def test_host_speed_samples_at_most_every_gap():
    host = bench.HostSpeed()
    host.enabled = False
    host.sample()
    assert host.samples == []
    host.enabled = True
    host.sample()
    host.sample()              # within CAL_GAP_S of the first: skipped
    assert len(host.samples) == 1
    assert host.paused == host.samples[0] > 0
    assert host.scale() == bench.CAL_REFERENCE_S / host.samples[0]


def _names(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_metric_functions_emit_exactly_the_declared_metrics():
    run = bench.Run(step_ms=[1.0, 2.0], peak_rss_mb=50.0, grad_clip=10.0)
    run.add_unit(False, 10, 1.0)
    run.add_unit(True, 10, 1.1)
    setup = {"setup_s": 0.5, "construct_ms": 0.1, "construct_absent": []}
    e2e = bench.end_to_end(run, setup, 1.0)
    assert {k: u for k, (_, u) in e2e.items()} == _names("end_to_end")
    layer = bench.per_layer(run, Tracer(bench.SPAN_TARGETS), setup, 1.0)
    assert {k: u for k, (_, u) in layer.items()} == _names("per_layer")


def _run(cwd, workload, trace, seconds="0.1"):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", seconds, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_appear_in_benchmark_json(trace):
    done = _run(ROOT, "train-tiny", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    kind = "per_layer" if trace else "end_to_end"
    assert set(result["metrics"]) == set(_names(kind))


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("runs", "__pycache__"))
    done = _run(tmp_path, "env-default", 0)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
