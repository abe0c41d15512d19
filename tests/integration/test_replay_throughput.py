"""Integration tests: multi-process replay and sustained throughput."""

import pytest

from repro.core.config import OptimizationLevel
from repro.core.engine import engine_at_level
from repro.core.throughput import ThroughputReport, throughput_report
from repro.hw.smartssd import SmartSSD
from repro.ransomware.benign import ALL_BENIGN_PROFILES
from repro.ransomware.families import CERBER, LOCKY
from repro.ransomware.monitor import ProcessMonitor
from repro.ransomware.replay import ScenarioReplay, _api_stream
from repro.ransomware.sandbox import CuckooSandbox
from repro.response.policy import ResponsePolicy
from tests.conftest import TEST_SEQUENCE_LENGTH


@pytest.fixture(scope="module")
def engine(request):
    model = request.getfixturevalue("trained_model")
    return engine_at_level(
        model, OptimizationLevel.FIXED_POINT, sequence_length=TEST_SEQUENCE_LENGTH
    )


class TestDetectorBank:
    def test_separate_windows_per_process(self, engine):
        monitor = ProcessMonitor(engine, stride=1)
        # Alternate two processes: neither reaches a full window until it
        # has seen TEST_SEQUENCE_LENGTH of *its own* calls.
        verdicts = []
        for _ in range(TEST_SEQUENCE_LENGTH - 1):
            verdicts.append(monitor.observe(1, "NtReadFile"))
            verdicts.append(monitor.observe(2, "NtReadFile"))
        assert all(v is None for v in verdicts)
        assert monitor.observe(1, "NtReadFile") is not None
        assert set(monitor.monitored_processes) == {1, 2}


def replay_traces(engine, traces, seed):
    """Replay sandbox traces against one SmartSSD; (replay, outcomes).

    High-confidence threshold: enforcement should not fire on the
    ambiguous startup region every process (benign or not) emits.  The
    policy write-blocks a process at the drive after three consecutive
    ``p >= 0.7`` verdicts and has no higher rung.
    """
    policy = ResponsePolicy(
        observe_threshold=0.0, write_block_threshold=0.0,
        quarantine_threshold=None, kill_threshold=None,
        confirmations=3, attribute=False,
    )
    replay = ScenarioReplay(engine, SmartSSD(), policy=policy,
                            monitor_threshold=0.7, stride=10)
    streams = [
        _api_stream(f"pid-{1000 + index}", trace)
        for index, trace in enumerate(traces)
    ]
    return replay, replay.run(streams, seed=seed)


class TestIncidentReplay:
    @pytest.fixture(scope="class")
    def outcomes(self, engine):
        sandbox = CuckooSandbox(seed=31)
        traces = [
            sandbox.execute_benign(ALL_BENIGN_PROFILES[0], 0, target_length=800),
            sandbox.execute_ransomware(CERBER, 1),
            sandbox.execute_benign(ALL_BENIGN_PROFILES[9], 0, target_length=800),
        ]
        return replay_traces(engine, traces, seed=5)

    def test_ransomware_process_enforced(self, outcomes):
        _, results = outcomes
        cerber = next(o for o in results.values() if o.source == "Cerber")
        assert cerber.enforced_at_step is not None
        assert cerber.writes_blocked > 0

    def test_benign_processes_untouched(self, outcomes):
        _, results = outcomes
        for outcome in results.values():
            if not outcome.is_ransomware:
                assert outcome.enforced_at_step is None
                assert outcome.writes_blocked == 0

    def test_report_aggregates(self, outcomes):
        replay, results = outcomes
        report = replay.report(results)
        assert report["ransomware_streams"] == 1
        assert report["enforced"] == 1
        assert report["benign_writes_blocked"] == 0
        assert report["bytes_blocked"] > 0

    def test_two_simultaneous_infections(self, engine):
        sandbox = CuckooSandbox(seed=8)
        traces = [
            sandbox.execute_ransomware(CERBER, 0),
            sandbox.execute_ransomware(LOCKY, 0),
            sandbox.execute_benign(ALL_BENIGN_PROFILES[5], 0, target_length=600),
        ]
        replay, results = replay_traces(engine, traces, seed=2)
        report = replay.report(results)
        assert report["enforced"] == 2
        assert report["benign_writes_blocked"] == 0
        assert all(o.enforced_at_step is None
                   for o in results.values() if not o.is_ransomware)


class TestThroughput:
    def test_report_structure(self, engine):
        report = throughput_report(engine)
        assert isinstance(report, ThroughputReport)
        assert report.windows_per_second > 0
        assert report.bottleneck in ("compute", "ingest")

    def test_compute_is_the_bottleneck_at_fixed_point(self, engine):
        # ~4,400 windows/s compute vs ~hundreds of thousands ingest.
        report = throughput_report(engine)
        assert report.bottleneck == "compute"

    def test_single_busy_host_is_small_fraction(self, engine):
        report = throughput_report(
            engine, api_calls_per_second=2000, detection_stride=10
        )
        # Background scanning headroom: >1 stream per CSD.
        assert report.concurrent_streams > 1.0
        assert report.utilization < 1.0

    def test_stride_one_costs_more(self, engine):
        sparse = throughput_report(engine, detection_stride=10)
        dense = throughput_report(engine, detection_stride=1)
        assert dense.demand_windows_per_second > sparse.demand_windows_per_second
        assert dense.concurrent_streams < sparse.concurrent_streams

    def test_validation(self, engine):
        with pytest.raises(ValueError):
            throughput_report(engine, api_calls_per_second=0)
        with pytest.raises(ValueError):
            throughput_report(engine, detection_stride=0)
