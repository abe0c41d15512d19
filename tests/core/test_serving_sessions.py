"""Token-stream fleet serving tests.

The fleet's contract, plus session affinity:

* **Determinism** — one token schedule produces identical event logs,
  verdicts, session stats and telemetry across runs, faults included;
* **Parity** — a stream served through the fleet's buffering/tick
  machinery produces the identical verdict sequence a standalone
  :class:`SessionManager` produces for the same tokens (and therefore
  the identical probabilities to the ``infer_sequence`` recompute);
* **Failover** — killing a device migrates its session checkpoints to
  the re-routed devices; the per-stream verdict sequence is invariant,
  only timing and placement shift.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.config import DEFAULT_BACKEND, EngineConfig, OptimizationLevel
from repro.core.fleet import MonitoredStream
from repro.core.serving import (
    FleetServer,
    ServingConfig,
    SessionServingReport,
    TokenArrival,
    build_fleet,
    generate_token_workload,
)
from repro.core.sessions import SessionConfig, SessionManager
from repro.core.weights import HostWeights
from repro.hw.faults import DeviceDegradeFault, DeviceFailFault, FaultPlan
from repro.nn.model import SequenceClassifier
from repro.telemetry import Telemetry

WINDOW = 12
VOCAB = 278

_WEIGHTS = HostWeights.from_model(SequenceClassifier(seed=13))


def make_engines(count, backend=DEFAULT_BACKEND):
    config = EngineConfig(
        dimensions=dataclasses.replace(
            _WEIGHTS.dimensions, sequence_length=WINDOW
        ),
        optimization=OptimizationLevel.FIXED_POINT,
        backend=backend,
    )
    return build_fleet(_WEIGHTS, count, config=config)


def make_streams(count):
    return [MonitoredStream(f"s{i}", 10_000.0) for i in range(count)]


def dense_schedule(streams, tokens_per_stream, gap_us=50, seed=0):
    """One token per stream every ``gap_us``; deterministic tokens."""
    rng = np.random.default_rng(seed)
    arrivals = []
    for step in range(tokens_per_stream):
        for stream in streams:
            arrivals.append(TokenArrival(
                stream=stream.name,
                token=int(rng.integers(0, VOCAB)),
                arrival_us=step * gap_us,
            ))
    return arrivals


def serve(engines, streams, arrivals, session_config=None, config=None,
          fault_plans=None) -> SessionServingReport:
    server = FleetServer(
        engines, streams,
        config or ServingConfig(max_batch=8, max_wait_us=100,
                                queue_depth=4096),
        fault_plans=fault_plans,
    )
    return server.serve_tokens(
        arrivals, sessions=session_config or SessionConfig(stride=2),
    )


class TestTokenWorkload:
    def test_deterministic_and_sorted(self):
        streams = make_streams(3)
        first = generate_token_workload(streams, 20_000, 5_000.0, seed=4)
        second = generate_token_workload(streams, 20_000, 5_000.0, seed=4)
        assert first == second
        assert len(first) > 0
        arrivals = [a.arrival_us for a in first]
        assert arrivals == sorted(arrivals)

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_token_workload(make_streams(1), 0, 100.0)
        with pytest.raises(ValueError):
            generate_token_workload(make_streams(1), 100, 0.0)


def faulted_run():
    """Device 0 fails mid-run, device 1 degrades; telemetry attached."""
    duration_us = 30_000
    streams = make_streams(4)
    telemetry = Telemetry()
    server = FleetServer(
        make_engines(2), streams, ServingConfig(max_batch=8, max_wait_us=500),
        fault_plans={
            0: FaultPlan(device_fail=DeviceFailFault(at_us=duration_us // 2)),
            1: FaultPlan(device_degrade=DeviceDegradeFault(
                at_us=duration_us // 3, slowdown=2.0)),
        },
        telemetry=telemetry,
    )
    arrivals = generate_token_workload(streams, duration_us, 10_000.0, seed=3)
    return server.serve_tokens(arrivals, sessions=SessionConfig(stride=2)), telemetry


class TestDeterminism:
    def test_faults_and_telemetry_identical_runs(self):
        first, telemetry_a = faulted_run()
        second, telemetry_b = faulted_run()
        assert first.device_failures == 1
        assert first.migrated_sessions > 0
        assert first.event_log == second.event_log
        assert first.verdicts == second.verdicts
        assert first.tokens_shed == second.tokens_shed
        assert first.device_busy_us == second.device_busy_us
        assert first.token_latencies == second.token_latencies
        assert telemetry_a.events() == telemetry_b.events()

    def test_simulated_clock_only(self):
        report, _ = faulted_run()
        assert all(isinstance(e[0], int) for e in report.event_log)
        times = [e[0] for e in report.event_log]
        assert times == sorted(times)

    def test_identical_runs(self):
        streams = make_streams(4)
        arrivals = dense_schedule(streams, 2 * WINDOW)
        reports = [
            serve(make_engines(2), streams, arrivals) for _ in range(2)
        ]
        assert reports[0].event_log == reports[1].event_log
        assert reports[0].verdicts == reports[1].verdicts
        assert reports[0].session_stats == reports[1].session_stats
        assert reports[0].token_latencies == reports[1].token_latencies

    def test_fused_backend_same_verdicts_and_schedule(self):
        """A fleet of fused engines changes host wall-clock only: the
        simulated event log and verdict stream are identical to a fleet
        of reference engines'."""
        streams = make_streams(4)
        arrivals = dense_schedule(streams, 2 * WINDOW, seed=9)
        reference = serve(make_engines(2, "reference"), streams, arrivals)
        fused = serve(make_engines(2, "fused"), streams, arrivals)
        assert fused.verdicts == reference.verdicts
        assert fused.event_log == reference.event_log
        assert fused.token_latencies == reference.token_latencies
        assert all(s["backend"] == "fused" for s in fused.session_stats)


class TestParity:
    def test_verdicts_match_standalone_session_manager(self):
        streams = make_streams(5)
        arrivals = dense_schedule(streams, 2 * WINDOW + 3, seed=6)
        engines = make_engines(2)
        report = serve(engines, streams, arrivals,
                       session_config=SessionConfig(stride=3))
        assert report.tokens_offered == len(arrivals)
        assert report.shed_count == 0
        by_stream: dict = {s.name: [] for s in streams}
        for record in report.verdicts:
            by_stream[record.stream].append(record)
        manager = SessionManager(engines[0], SessionConfig(stride=3))
        for stream in streams:
            tokens = [a.token for a in arrivals if a.stream == stream.name]
            want = []
            for token in tokens:
                verdict = manager.observe(stream.name, token)
                if verdict is not None:
                    want.append(verdict)
            got = by_stream[stream.name]
            assert [(r.window_index, r.probability) for r in got] == [
                (v.window_index, v.probability) for v in want
            ]

    def test_session_affinity(self):
        """Every verdict of a stream is emitted by one device."""
        streams = make_streams(6)
        arrivals = dense_schedule(streams, WINDOW + 2)
        report = serve(make_engines(3), streams, arrivals)
        devices_by_stream: dict = {}
        for record in report.verdicts:
            devices_by_stream.setdefault(record.stream, set()).add(record.device)
        assert devices_by_stream  # some windows completed
        for devices in devices_by_stream.values():
            assert len(devices) == 1

    def test_accounting_and_stats(self):
        streams = make_streams(3)
        arrivals = dense_schedule(streams, WINDOW)
        report = serve(make_engines(1), streams, arrivals)
        stats = report.session_stats[0]
        assert stats["tokens"] + report.shed_count == report.tokens_offered
        assert stats["resident_sessions"] == 3
        assert len(report.token_latencies) == stats["tokens"]
        assert report.token_latency_percentile_us(99) >= (
            report.token_latency_percentile_us(50)
        )

    def test_token_sheds_are_counted(self):
        streams = make_streams(1)
        arrivals = [
            TokenArrival(stream="s0", token=1, arrival_us=0)
            for _ in range(10)
        ]
        report = serve(
            make_engines(1), streams, arrivals,
            config=ServingConfig(max_batch=8, max_wait_us=100, queue_depth=2),
        )
        assert report.shed_count > 0
        assert report.tokens_offered == 10
        assert set(report.tokens_shed) == {"queue_full"}


class TestFailover:
    def test_failure_migrates_sessions_and_preserves_verdicts(self):
        streams = make_streams(4)
        arrivals = dense_schedule(streams, 3 * WINDOW, gap_us=60, seed=8)
        horizon = max(a.arrival_us for a in arrivals)
        plain = serve(make_engines(2), streams, arrivals)
        fault_plans = {0: FaultPlan(
            device_fail=DeviceFailFault(at_us=horizon // 2)
        )}
        failed = serve(make_engines(2), streams, arrivals,
                       fault_plans=fault_plans)
        assert failed.device_failures == 1
        assert failed.migrated_sessions > 0
        key = lambda report: sorted(
            (r.stream, r.window_index, r.probability, r.is_ransomware)
            for r in report.verdicts
        )
        assert key(failed) == key(plain)
        # The dead device emits nothing after the failure.
        for record in failed.verdicts:
            if record.device == 0:
                assert record.completion_us <= horizon // 2

    def test_all_devices_dead_sheds_tokens(self):
        streams = make_streams(2)
        arrivals = dense_schedule(streams, WINDOW)
        fault_plans = {0: FaultPlan(device_fail=DeviceFailFault(at_us=1))}
        report = serve(make_engines(1), streams, arrivals,
                       fault_plans=fault_plans)
        assert report.tokens_shed.get("no_device", 0) > 0
