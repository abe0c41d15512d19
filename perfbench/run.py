"""Run one benchmark workload; the last stdout line is its result as JSON.

Usage, from the repository root::

    python3 perfbench/run.py --workload fleet-stream --seed 1 --seconds 15 --trace 0

``--trace 0`` reports the end-to-end metrics of untraced units of work;
``--trace 1`` alternates untraced and traced units and reports the
per-layer metrics of the traced ones plus the tracing overhead.  The
run exits non-zero on any digest or invariant mismatch.  Traces and the
result envelope are written under ``.perfbench_out/`` in the checkout.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
MIN_UNITS = 2

#: Each workload's own names for its throughput and call latency.
NAMED = {
    "fleet-stream": ("stream_tokens_per_s", "round_ms"),
    "batch-classify": ("classify_windows_per_s", "scan_ms"),
    "attack-replay": ("replay_tokens_per_s", "replay_ms"),
    "train": ("train_samples_per_s", "fit_ms"),
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(NAMED) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save-weights", metavar="PATH",
                        help="train only: store the final weights (.npz)")
    args = parser.parse_args(argv)
    if args.save_weights and args.workload != "train":
        parser.error("--save-weights needs --workload train")
    return args


def _isolate() -> pathlib.Path:
    """Keep every file the run writes (compiler output too) in the checkout."""
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"perfbench: no program sources under {ROOT / 'src'}")
    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    return tmp


def _percentile(values, q):
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=float), q))


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _envelope(workload) -> dict:
    import hashlib
    import platform
    import subprocess

    import numpy as np

    from repro.core.config import EngineConfig
    from repro.nn.trainer import TrainingConfig

    commit = None  # the benchmark's checkouts are not git repositories
    if (ROOT / ".git").exists():
        result = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True, timeout=30)
        commit = result.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        source.update(str(path.relative_to(ROOT)).encode())
        source.update(path.read_bytes())
    backends = workload.backends()
    fallbacks: dict = {}
    for backend in backends:
        for reason, count in backend.fallback_reasons.items():
            fallbacks[reason] = fallbacks.get(reason, 0) + count
    return {
        "commit": commit,
        "source_sha256": source.hexdigest(),
        "host_cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "default_inference_backend": EngineConfig().backend,
        "default_training_backend": TrainingConfig().backend,
        "backends_in_use": sorted({b.name for b in backends}),
        "accel_tier": sorted({str(getattr(b, "accel_tier", None))
                              for b in backends}),
        "fallbacks": fallbacks,
    }


def _check(workload, units) -> list:
    from perfbench.workloads import DEFAULT_SEED, pinned

    errors = [e for _, unit in units for e in unit.errors]
    first = units[0][1].outputs
    for index, (traced, unit) in enumerate(units[1:], start=1):
        if unit.outputs != first:
            errors.append(f"unit {index} ({'traced' if traced else 'untraced'}) "
                          "outputs differ from unit 0")
    if workload.seed == DEFAULT_SEED:
        expected = pinned(workload.name)
        got = dict(workload.inputs(), **first)
        for key in sorted(expected):
            if got.get(key) != expected[key]:
                errors.append(f"{key}: got {got.get(key)!r}, pinned "
                              f"{expected[key]!r}")
    return errors


def _run_all(args) -> int:
    """Every workload in its own child process; one combined result."""
    import subprocess

    results, status = {}, 0
    for name in NAMED:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True)
        sys.stderr.write(child.stderr)
        lines = child.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        status = max(status, child.returncode)
        results[name] = json.loads(lines[-1]) if lines else {
            "correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{metric}": value
                    for name, r in results.items()
                    for metric, value in r["metrics"].items()},
    }))
    return status


def main(argv=None) -> int:
    args = _parse(argv)
    if args.workload == "all":
        return _run_all(args)
    tmp = _isolate()
    try:
        return _run(args)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _run(args) -> int:
    from perfbench import tracer as tracing
    from perfbench.workloads import WORKLOADS

    import_s = time.perf_counter() - _START
    builds = []
    for _ in range(SETUP_REPEATS):
        began = time.perf_counter()
        workload = WORKLOADS[args.workload](args.seed)
        workload.setup()
        builds.append(time.perf_counter() - began)
    # The first set-up pays one-time costs (a compiler run); later ones
    # smooth the noise.
    setup_s = import_s + max(builds[0], statistics.median(builds))

    tracer = tracing.Tracer() if args.trace else None
    units, profiles = [], []
    started = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(units) % 2 == 1
        if traced:
            unit, profile = tracing.run_traced(tracer, workload.run_unit)
            profiles.append(profile)
        else:
            unit = workload.run_unit()
        units.append((traced, unit))
        if (time.perf_counter() - started >= args.seconds
                and len(units) >= MIN_UNITS):
            break

    errors = _check(workload, units)
    throughput, call = NAMED[args.workload]
    plain = [unit for traced, unit in units if not traced]
    # Timings come from the run's slowest untraced unit.  Neighbours on a
    # shared host move it between a loaded and an idle speed for seconds
    # to minutes at a time; the loaded one is the common state, so the
    # slowest unit varies least from run to run.
    end_to_end = {
        "setup_s": _metric(setup_s, "s"),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "work_per_s": _metric(min(u.work / u.wall_s for u in plain), "1/s"),
        "call_ms_p50": _metric(
            max(_percentile(u.calls_s, 50) for u in plain) * 1e3, "ms"),
        "call_ms_p90": _metric(
            max(_percentile(u.calls_s, 90) for u in plain) * 1e3, "ms"),
    }
    named = {
        throughput: end_to_end["work_per_s"],
        f"{call}_p50": end_to_end["call_ms_p50"],
        f"{call}_p90": end_to_end["call_ms_p90"],
        "setup_s": end_to_end["setup_s"],
        "peak_rss_mb": end_to_end["peak_rss_mb"],
    }
    if args.trace:
        metrics = {
            name: _metric(statistics.median(p[name] for p in profiles), kind)
            for name, kind, _ in tracing.PER_LAYER
            if name != "harness.tracing_overhead_s"
        }
        metrics["harness.tracing_overhead_s"] = _metric(
            statistics.median(u.wall_s for t, u in units if t)
            - statistics.median(u.wall_s for u in plain), "s")
    else:
        metrics = end_to_end

    if args.save_weights:
        import numpy as np

        np.savez(args.save_weights, **{
            f"w{i}": array
            for i, array in enumerate(workload.final_weights())})

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    document = {
        "workload": args.workload,
        "seed": args.seed,
        "why": workload.why,
        "work": workload.work_label,
        "call": workload.call_label,
        "units": len(units),
        "traced_units": len(profiles),
        "calls_timed": sum(len(u.calls_s) for u in plain),
        "per_unit": [
            {"traced": traced, "wall_s": u.wall_s, "work_per_s": u.work / u.wall_s,
             "call_ms": sorted(c * 1e3 for c in u.calls_s)}
            for traced, u in units],
        "envelope": _envelope(workload),
        "inputs": workload.inputs(),
        "outputs": units[0][1].outputs,
        "named_metrics": named,
        "errors": errors,
    }
    with open(OUT / f"{tag}.json", "w") as handle:
        json.dump(dict(document, metrics=metrics), handle, indent=2,
                  default=str)
    if tracer is not None:
        tracer.write(OUT / f"{tag}.spans.jsonl")
    for error in errors:
        print(f"perfbench: FAIL {error}", file=sys.stderr)
    print(json.dumps({k: v for k, v in document.items() if k != "per_unit"},
                     default=str))
    print("perfbench: " + args.workload + " " + "  ".join(
        f"{name} {m['value']:.6g} {m['unit']}" for name, m in named.items()))
    print(json.dumps({
        "correct": not errors,
        "attempted": sum(unit.attempted for _, unit in units),
        "failed": sum(unit.failed for _, unit in units),
        "metrics": metrics,
    }))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
