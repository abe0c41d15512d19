"""The benchmark's own tests: each workload at a tiny size.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
They check that output digests are identical under the ``reference``
and ``fused`` backends (so a change of default backend is measured
against this baseline without re-pinning) and between traced and
untraced units (so the tracing wrappers change nothing), and that the
traced self times cover the unit's wall time.
"""

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import tracer as tracing  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

TINY = {
    "fleet-stream": dict(hot=4, cold=40, rounds=24, tail_rounds=4,
                         registration_rounds=6),
    "batch-classify": dict(scale=0.01, bulk=16, scans=4),
    "attack-replay": dict(ransomware=1, benign=2, benign_length=100,
                          max_stream_tokens=150),
    "train": dict(scale=0.01, window=20, epochs=2, eval_every=1),
}


def _unit(name, backend, traced):
    workload = WORKLOADS[name](seed=3, size=TINY[name], backend=backend)
    workload.setup()
    if not traced:
        return workload.run_unit(), None
    return tracing.run_traced(tracing.Tracer(), workload.run_unit)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_digests_equal_across_backends_and_tracing(name):
    baseline, _ = _unit(name, "reference", traced=False)
    assert not baseline.errors
    assert baseline.attempted > 0 and baseline.failed == 0
    for backend, traced in (("fused", False), ("reference", True),
                            ("fused", True)):
        unit, profile = _unit(name, backend, traced)
        assert unit.outputs == baseline.outputs, (backend, traced)
        if profile is not None:
            assert profile["harness.coverage"] >= 0.95
            assert set(profile) == {
                metric for metric, *_ in tracing.PER_LAYER
            } - {"harness.tracing_overhead_s"}


def test_traced_profile_sees_every_fleet_layer():
    _, profile = _unit("fleet-stream", None, traced=True)
    for metric in ("control_plane.round_self_s", "serving.event_loop_self_s",
                   "sessions.step_self_s", "backends.step_rows_s",
                   "serving.ticks", "sessions.evictions"):
        assert profile[metric] > 0, metric
    assert profile["nn.batches"] == 0  # no training in this workload


def test_tracing_restores_every_wrapped_call():
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    originals = [(owner, attr, original) for owner, attr, original in undo]
    tracing.uninstall(undo)
    for owner, attr, original in originals:
        assert owner.__dict__[attr] is original


def test_cli_fails_without_program_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode != 0
    assert '"correct"' not in result.stdout


def test_benchmark_json_lists_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"] for m in spec["per_layer"]} == {
        metric for metric, *_ in tracing.PER_LAYER}
