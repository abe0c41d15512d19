"""Streaming sessions vs per-window recompute (host-simulation speedup).

Sweeps concurrent stream count x detection stride, stepping every stream
through :class:`~repro.core.sessions.SessionManager` (one stacked gate
matmul per tick across all streams' open window slots) and through the
per-window recompute baseline (:class:`RansomwareDetector.observe`, one
``infer_sequence`` per classified window per stream).  For each rung it
reports verdicts/sec, host-measured p99 per-token latency (the smooth
incremental cost vs the recompute *burst*), asserts the two verdict
streams are **bit-identical**, and writes
``BENCH_streaming_sessions.json``.  A budgeted scenario additionally
exercises LRU eviction + checkpoint/restore under memory pressure and
re-checks parity.  See ``docs/streaming.md``.

Two entry points:

* ``pytest benchmarks/bench_streaming_sessions.py`` — harness mode.
* ``PYTHONPATH=src python benchmarks/bench_streaming_sessions.py
  [--quick]`` — standalone CLI (the CI perf-smoke job), with
  ``--assert-speedup`` to gate on the widest rung's speedup.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time

import numpy as np

from repro.core.config import DEFAULT_BACKEND, OptimizationLevel
from repro.core.engine import CSDInferenceEngine, engine_at_level
from repro.core.kernels.backends import available_backends
from repro.core.sessions import SessionConfig, SessionManager
from repro.nn.model import SequenceClassifier
from repro.ransomware.detector import RansomwareDetector

DEFAULT_OUTPUT = "BENCH_streaming_sessions.json"


def _stream_tokens(num_streams: int, num_tokens: int, vocab_size: int, seed: int):
    rng = np.random.default_rng(seed)
    return rng.integers(0, vocab_size, size=(num_streams, num_tokens))


def _keys(num_streams: int) -> list:
    return [f"stream-{index:04d}" for index in range(num_streams)]


def _run_incremental(engine, tokens, stride: int, max_resident=None):
    """Step all streams tick by tick; returns (verdicts, seconds, latencies, stats)."""
    num_streams, num_tokens = tokens.shape
    manager = SessionManager(
        engine,
        SessionConfig(stride=stride, max_resident_sessions=max_resident),
    )
    keys = _keys(num_streams)
    verdicts: dict = {key: [] for key in keys}
    per_token_seconds: list = []
    total = 0.0
    for tick in range(num_tokens):
        batch = {keys[i]: int(tokens[i, tick]) for i in range(num_streams)}
        start = time.perf_counter()
        emitted = manager.step(batch)
        elapsed = time.perf_counter() - start
        total += elapsed
        per_token_seconds.append(elapsed / num_streams)
        for verdict in emitted:
            verdicts[verdict.session].append(
                (verdict.window_index, verdict.probability)
            )
    return verdicts, total, per_token_seconds, manager.stats()


def _run_recompute(engine, tokens, stride: int):
    """The baseline: one ``RansomwareDetector`` per stream, per-window
    ``infer_sequence`` recompute."""
    num_streams, num_tokens = tokens.shape
    keys = _keys(num_streams)
    detectors = {key: RansomwareDetector(engine, stride=stride) for key in keys}
    verdicts: dict = {key: [] for key in keys}
    per_token_seconds: list = []
    total = 0.0
    for tick in range(num_tokens):
        for i, key in enumerate(keys):
            start = time.perf_counter()
            verdict = detectors[key].observe(int(tokens[i, tick]))
            elapsed = time.perf_counter() - start
            total += elapsed
            per_token_seconds.append(elapsed)
            if verdict is not None:
                verdicts[key].append((verdict.window_index, verdict.probability))
    return verdicts, total, per_token_seconds


def _p99_microseconds(seconds: list) -> float:
    ordered = sorted(seconds)
    rank = max(0, int(np.ceil(0.99 * len(ordered))) - 1)
    return ordered[rank] * 1e6


def run_sweep(
    engine,
    stream_counts,
    strides,
    num_tokens: int,
    seed: int = 0,
) -> dict:
    """streams x stride sweep; returns the result document (plain data).

    The kernel backend under test is ``engine``'s (``EngineConfig.backend``).
    The recompute baseline runs on a ``reference`` engine with the same
    weights; for a non-reference ``engine`` that engine also re-runs
    every rung's incremental pass to report ``backend_speedup`` (same
    manager mechanics, kernel backend isolated) and to assert the two
    verdict streams match bit-exactly.
    """
    vocab = engine.config.dimensions.vocab_size
    window = engine.config.dimensions.sequence_length
    backend = engine.config.backend
    compare_reference = backend != "reference"
    reference = engine if not compare_reference else CSDInferenceEngine(
        dataclasses.replace(engine.config, backend="reference"), engine.weights
    )
    results = []
    for num_streams in stream_counts:
        for stride in strides:
            tokens = _stream_tokens(num_streams, num_tokens, vocab, seed)
            inc_verdicts, inc_seconds, inc_latencies, stats = _run_incremental(
                engine, tokens, stride
            )
            rec_verdicts, rec_seconds, rec_latencies = _run_recompute(
                reference, tokens, stride
            )
            num_verdicts = sum(len(v) for v in inc_verdicts.values())
            row = {
                "streams": num_streams,
                "stride": stride,
                "tokens_per_stream": num_tokens,
                "verdicts": num_verdicts,
                "backend": stats["backend"],
                "incremental_seconds": inc_seconds,
                "recompute_seconds": rec_seconds,
                "speedup": rec_seconds / inc_seconds,
                "incremental_verdicts_per_second": num_verdicts / inc_seconds,
                "recompute_verdicts_per_second": num_verdicts / rec_seconds,
                "tokens_per_second_per_stream": num_tokens / inc_seconds,
                "incremental_p99_token_us": _p99_microseconds(inc_latencies),
                "recompute_p99_token_us": _p99_microseconds(rec_latencies),
                "slot_steps": stats["slot_steps"],
                "evictions": stats["evictions"],
                "bit_exact_vs_recompute": inc_verdicts == rec_verdicts,
            }
            if compare_reference:
                ref_verdicts, ref_seconds, _, _ = _run_incremental(
                    reference, tokens, stride
                )
                row["reference_incremental_seconds"] = ref_seconds
                row["backend_speedup"] = ref_seconds / inc_seconds
                row["bit_exact_vs_reference"] = inc_verdicts == ref_verdicts
            results.append(row)
    # Memory-pressure scenario: half the widest rung's streams resident,
    # the rest living as checkpoints — LRU thrash, restore on every step.
    num_streams = max(stream_counts)
    stride = strides[-1]
    tokens = _stream_tokens(num_streams, num_tokens, vocab, seed)
    free_verdicts, _, _, _ = _run_incremental(engine, tokens, stride)
    cap = max(1, num_streams // 2)
    bud_verdicts, bud_seconds, bud_latencies, bud_stats = _run_incremental(
        engine, tokens, stride, max_resident=cap
    )
    budget_row = {
        "streams": num_streams,
        "stride": stride,
        "max_resident_sessions": cap,
        "seconds": bud_seconds,
        "p99_token_us": _p99_microseconds(bud_latencies),
        "evictions": bud_stats["evictions"],
        "restores": bud_stats["restores"],
        "bit_exact_vs_unbudgeted": bud_verdicts == free_verdicts,
    }
    return {
        "benchmark": "streaming_sessions",
        "optimization": engine.config.optimization.name,
        "window_length": window,
        "hidden_size": engine.config.dimensions.hidden_size,
        "backend": backend,
        "accel_tier": getattr(engine.step_backend, "accel_tier", None),
        "backend_fallbacks": bud_stats["backend_fallbacks"],
        "results": results,
        "memory_pressure": budget_row,
    }


def _report_lines(document: dict) -> list:
    lines = [
        f"optimization: {document['optimization']}  "
        f"window {document['window_length']}  "
        f"backend {document.get('backend', 'reference')}"
        f" (accel tier {document.get('accel_tier')})  "
        f"(host-simulation wall clock; verdict parity is bit-exact)",
    ]
    for row in document["results"]:
        line = (
            f"streams {row['streams']:4d} stride {row['stride']:2d}: "
            f"incremental {row['incremental_verdicts_per_second']:8.1f} v/s "
            f"(p99 {row['incremental_p99_token_us']:7.1f} us/token)  "
            f"recompute {row['recompute_verdicts_per_second']:8.1f} v/s "
            f"(p99 {row['recompute_p99_token_us']:7.1f} us/token)  "
            f"speedup {row['speedup']:5.2f}x  "
            f"bit-exact {row['bit_exact_vs_recompute']}"
        )
        if "backend_speedup" in row:
            line += (
                f"  backend-speedup {row['backend_speedup']:5.2f}x "
                f"(vs reference, bit-exact {row['bit_exact_vs_reference']})"
            )
        lines.append(line)
    pressure = document["memory_pressure"]
    lines.append(
        f"memory pressure (cap {pressure['max_resident_sessions']} of "
        f"{pressure['streams']} streams): "
        f"evictions {sum(pressure['evictions'].values())} "
        f"restores {pressure['restores']}  "
        f"bit-exact {pressure['bit_exact_vs_unbudgeted']}"
    )
    return lines


def _gate(document: dict, required_speedup, min_streams: int,
          required_backend_speedup=None):
    """Returns (ok, message) for the CI speedup/parity gate."""
    for row in document["results"]:
        if not row["bit_exact_vs_recompute"]:
            return False, (
                f"FAIL: incremental verdicts diverged from recompute at "
                f"streams={row['streams']} stride={row['stride']}"
            )
        if not row.get("bit_exact_vs_reference", True):
            return False, (
                f"FAIL: {row['backend']} backend verdicts diverged from "
                f"reference at streams={row['streams']} stride={row['stride']}"
            )
    if not document["memory_pressure"]["bit_exact_vs_unbudgeted"]:
        return False, "FAIL: eviction/restore changed verdicts under memory pressure"
    messages = []
    if required_speedup is not None:
        eligible = [r for r in document["results"] if r["streams"] >= min_streams]
        if not eligible:
            return False, f"FAIL: no sweep rung reached {min_streams} streams"
        best = max(r["speedup"] for r in eligible)
        if best < required_speedup:
            return False, (
                f"FAIL: best speedup {best:.2f}x at >= {min_streams} streams "
                f"< required {required_speedup:.2f}x"
            )
        messages.append(
            f"speedup gate passed: {best:.2f}x >= {required_speedup:.2f}x "
            f"at >= {min_streams} streams"
        )
    if required_backend_speedup is not None:
        eligible = [
            r for r in document["results"]
            if r["streams"] >= min_streams and "backend_speedup" in r
        ]
        if not eligible:
            return False, (
                f"FAIL: no rung with >= {min_streams} streams compared "
                f"backends (run with a non-reference --backend)"
            )
        best = max(r["backend_speedup"] for r in eligible)
        if best < required_backend_speedup:
            return False, (
                f"FAIL: best backend speedup {best:.2f}x at >= {min_streams} "
                f"streams < required {required_backend_speedup:.2f}x"
            )
        messages.append(
            f"backend speedup gate passed: {best:.2f}x >= "
            f"{required_backend_speedup:.2f}x at >= {min_streams} streams"
        )
    return True, "; ".join(messages)


# ----------------------------------------------------------------------
# Harness mode
# ----------------------------------------------------------------------


def bench_streaming_sessions(benchmark, bench_model, bench_telemetry):
    from benchmarks.conftest import record_report

    engine = engine_at_level(
        bench_model, OptimizationLevel.FIXED_POINT, sequence_length=60
    )
    if bench_telemetry is not None:
        engine.attach_telemetry(bench_telemetry)
    document = run_sweep(
        engine, stream_counts=(8, 32), strides=(4, 10), num_tokens=90
    )
    # pytest-benchmark gets one stable measurement: a 32-stream tick loop.
    tokens = _stream_tokens(32, 90, engine.config.dimensions.vocab_size, seed=1)
    benchmark(lambda: _run_incremental(engine, tokens, stride=10))
    record_report(
        "Streaming sessions vs recompute (host simulation)",
        _report_lines(document),
    )
    ok, message = _gate(document, required_speedup=None, min_streams=0)
    assert ok, message


# ----------------------------------------------------------------------
# Standalone CLI (CI perf smoke)
# ----------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--streams", type=int, default=64,
                        help="widest sweep rung (and the gate's minimum)")
    parser.add_argument("--strides", type=int, nargs="+", default=[4, 10])
    parser.add_argument("--tokens", type=int, default=120,
                        help="tokens per stream (>= window length)")
    parser.add_argument("--sequence-length", type=int, default=60)
    parser.add_argument("--optimization",
                        choices=[l.name for l in OptimizationLevel],
                        default=OptimizationLevel.FIXED_POINT.name)
    parser.add_argument("--quick", action="store_true",
                        help="single rung for CI smoke (fewer streams/tokens)")
    parser.add_argument("--backend", choices=available_backends(),
                        default=DEFAULT_BACKEND,
                        help="session hot-path kernel backend under test; a "
                             "non-reference choice also re-runs each rung on "
                             "'reference' and reports backend_speedup")
    parser.add_argument("--assert-speedup", type=float, default=None,
                        metavar="X",
                        help="exit non-zero unless a rung with >= --streams "
                             "streams beats recompute by X times")
    parser.add_argument("--assert-backend-speedup", type=float, default=None,
                        metavar="X",
                        help="exit non-zero unless a rung with >= --streams "
                             "streams beats the reference backend by X times")
    parser.add_argument("--assert-backend-speedup-if-accelerated", type=float,
                        default=None, metavar="X",
                        help="like --assert-backend-speedup, but enforced "
                             "only when the compiled tier (cc) is "
                             "active; on the pure-NumPy fallback the run "
                             "must still be bit-exact but speed is not "
                             "gated (the graceful-degradation contract)")
    parser.add_argument("--output", default=DEFAULT_OUTPUT,
                        help=f"JSON result path (default {DEFAULT_OUTPUT})")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    if args.quick:
        window = 30
        num_tokens = 60
        stream_counts = (args.streams,)
        strides = (10,)
    else:
        window = args.sequence_length
        num_tokens = max(args.tokens, window + 1)
        stream_counts = tuple(
            sorted({max(4, args.streams // 4), args.streams})
        )
        strides = tuple(args.strides)

    engine = engine_at_level(
        SequenceClassifier(seed=0),
        OptimizationLevel[args.optimization],
        sequence_length=window,
        backend=args.backend,
    )
    document = run_sweep(
        engine, stream_counts=stream_counts, strides=strides,
        num_tokens=num_tokens, seed=args.seed,
    )
    for line in _report_lines(document):
        print(line)
    with open(args.output, "w") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.output}")

    required_backend_speedup = args.assert_backend_speedup
    if args.assert_backend_speedup_if_accelerated is not None:
        if document["accel_tier"] is not None:
            required_backend_speedup = args.assert_backend_speedup_if_accelerated
        else:
            print("no compiled tier available; backend speedup gate waived "
                  "(graceful fallback still checked for bit-exactness)")
    ok, message = _gate(document, args.assert_speedup, args.streams,
                        required_backend_speedup)
    if message:
        print(message)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
