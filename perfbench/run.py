"""Run one risnoma benchmark workload and print its metrics.

    python3 perfbench/run.py --workload env-default --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout; it imports ``risnoma`` from
``src/`` there and nowhere else.  ``--trace 0`` measures the end-to-end
metrics; ``--trace 1`` alternates untraced and traced units and reports the
per-layer breakdown and the tracing overhead.  Human-readable lines come
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A copy of the full
result (and, for a trace run, the spans) goes to ``perfbench/runs/``.
"""
from __future__ import annotations

import os

# one BLAS thread, set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "runs"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def commit() -> str:
    """The checked-out commit read from ``.git``, or "unknown" outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_threads():
    """Threads of the OpenBLAS that numpy loaded, or None if not found."""
    import numpy as np
    # wheels bundle the library beside the package; dlopen of a loaded
    # library returns the handle already in the process
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs")
                  .glob("*openblas*.so*"))
    for lib in libs:
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "risnoma" / "__init__.py").is_file():
        print(f"risnoma sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    import numpy as np
    import bench

    b = bench.Bench(args.workload, args.seed, args.seconds, bool(args.trace))
    setup = b.setup()
    b.loop()
    setup.update(b.setup_times())
    run = b.run
    mismatches = b.replay_mismatches()
    if mismatches:
        run.failed += mismatches
        run.record_breaches(["replay"] * mismatches)

    provenance = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "reward_sha256": bench.reward_sha256(run.first_logs),
        "reward_units": bench.MIN_UNITS[args.workload],
        "commit": commit(), "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
    }
    scale = b.host.scale()
    if args.trace:
        metrics = bench.per_layer(run, b.tracer, setup, scale)
    else:
        metrics = bench.end_to_end(run, setup, scale)
    latencies = np.asarray(run.step_ms)
    info = {
        "op_fail_frac": run.failed / run.attempted,
        "breaches": run.breaches,
        "units": run.units, "slots": run.slots, "seconds": run.seconds,
        "host_scale": scale,
        "calibration_samples": len(b.host.samples),
        "calibration_ms_mean": statistics.fmean(b.host.samples) * 1e3,
        "raw_slots_per_s": run.slots[False] / run.seconds[False],
        "raw_env_step_ms_p50": float(np.median(latencies)),
        "raw_env_step_ms_p99": float(np.quantile(latencies, 0.99)),
        "env_step_samples": int(latencies.size),
        "absent_targets": b.tracer.absent + setup.get("construct_absent", []),
        **{k: v for k, v in setup.items() if k != "construct_absent"},
    }

    print(" ".join(f"{k}={v}" for k, v in provenance.items()))
    print(f"op_fail_frac {info['op_fail_frac']} "
          f"({run.failed} failed of {run.attempted} attempted) {run.breaches}")
    print(f"as timed here: {info['raw_slots_per_s']:.4g} slots/s, env.step "
          f"p50 {info['raw_env_step_ms_p50']:.3f} ms, "
          f"p99 {info['raw_env_step_ms_p99']:.3f} ms "
          f"(n={info['env_step_samples']}); host scale {scale:.4f} "
          f"from {info['calibration_samples']} calibration samples")
    if info["absent_targets"]:
        print("absent targets: " + ", ".join(info["absent_targets"]))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT_DIR / f"{stem}.json", "w") as fh:
        json.dump({"provenance": provenance, "info": info,
                   "metrics": {k: {"value": v, "unit": u}
                               for k, (v, u) in metrics.items()}},
                  fh, indent=1)
    if args.trace:
        b.tracer.write_spans(OUT_DIR / f"{stem}.spans.jsonl")

    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
