"""Integration tests: multi-process replay and sustained throughput."""

import numpy as np
import pytest

from repro.core.config import OptimizationLevel
from repro.core.engine import engine_at_level
from repro.core.throughput import ThroughputReport, throughput_report
from repro.hw.smartssd import SmartSSD
from repro.ransomware.benign import ALL_BENIGN_PROFILES
from repro.ransomware.families import CERBER, LOCKY
from repro.ransomware.replay import HostReplay, PerProcessDetectorBank, ReplayEvent
from repro.ransomware.sandbox import CuckooSandbox
from repro.response.legacy import ProtectedStorage
from tests.conftest import TEST_SEQUENCE_LENGTH


@pytest.fixture(scope="module")
def engine(request):
    model = request.getfixturevalue("trained_model")
    return engine_at_level(
        model, OptimizationLevel.FIXED_POINT, sequence_length=TEST_SEQUENCE_LENGTH
    )


class TestInterleave:
    def test_preserves_per_trace_order(self):
        sandbox = CuckooSandbox(seed=1)
        traces = [
            sandbox.execute_benign(ALL_BENIGN_PROFILES[0], 0, target_length=300),
            sandbox.execute_benign(ALL_BENIGN_PROFILES[1], 0, target_length=300),
        ]
        events = HostReplay.interleave(traces, seed=4)
        assert len(events) == sum(len(t.calls) for t in traces)
        for pid, trace in zip((1000, 1001), traces):
            replayed = tuple(e.call for e in events if e.process_id == pid)
            assert replayed == trace.calls

    def test_steps_are_sequential(self):
        sandbox = CuckooSandbox(seed=1)
        traces = [sandbox.execute_benign(ALL_BENIGN_PROFILES[2], 0, target_length=200)]
        events = HostReplay.interleave(traces, seed=0)
        assert [e.step for e in events] == list(range(len(events)))

    def test_deterministic_given_seed(self):
        sandbox = CuckooSandbox(seed=1)
        traces = [
            sandbox.execute_benign(ALL_BENIGN_PROFILES[0], 0, target_length=200),
            sandbox.execute_benign(ALL_BENIGN_PROFILES[3], 0, target_length=200),
        ]
        a = HostReplay.interleave(traces, seed=9)
        b = HostReplay.interleave(traces, seed=9)
        assert a == b


class TestDetectorBank:
    def test_separate_windows_per_process(self, engine):
        bank = PerProcessDetectorBank(engine, stride=1)
        # Alternate two processes: neither reaches a full window until it
        # has seen TEST_SEQUENCE_LENGTH of *its own* calls.
        verdicts = []
        for _ in range(TEST_SEQUENCE_LENGTH - 1):
            verdicts.append(bank.observe(1, "NtReadFile"))
            verdicts.append(bank.observe(2, "NtReadFile"))
        assert all(v is None for v in verdicts)
        assert bank.observe(1, "NtReadFile") is not None
        assert set(bank.monitored_processes) == {1, 2}


class TestHostReplay:
    @pytest.fixture(scope="class")
    def outcomes(self, engine):
        sandbox = CuckooSandbox(seed=31)
        traces = [
            sandbox.execute_benign(ALL_BENIGN_PROFILES[0], 0, target_length=800),
            sandbox.execute_ransomware(CERBER, 1),
            sandbox.execute_benign(ALL_BENIGN_PROFILES[9], 0, target_length=800),
        ]
        # High-confidence threshold: mitigation should not fire on the
        # ambiguous startup region every process (benign or not) emits.
        replay = HostReplay(
            engine, ProtectedStorage(SmartSSD().ssd), threshold=0.7, stride=10
        )
        return replay, replay.run(traces, seed=5)

    def test_ransomware_process_quarantined(self, outcomes):
        _, results = outcomes
        cerber = next(o for o in results.values() if o.source == "Cerber")
        assert cerber.quarantined_at_step is not None
        assert cerber.writes_blocked > 0

    def test_benign_processes_untouched(self, outcomes):
        _, results = outcomes
        for outcome in results.values():
            if not outcome.is_ransomware:
                assert outcome.quarantined_at_step is None
                assert outcome.writes_blocked == 0

    def test_summary_aggregates(self, outcomes):
        replay, results = outcomes
        summary = replay.incident_summary(results)
        assert summary["ransomware_processes"] == 1
        assert summary["caught"] == 1
        assert summary["falsely_quarantined"] == 0
        assert summary["writes_blocked"] > 0

    def test_two_simultaneous_infections(self, engine):
        sandbox = CuckooSandbox(seed=8)
        traces = [
            sandbox.execute_ransomware(CERBER, 0),
            sandbox.execute_ransomware(LOCKY, 0),
            sandbox.execute_benign(ALL_BENIGN_PROFILES[5], 0, target_length=600),
        ]
        replay = HostReplay(
            engine, ProtectedStorage(SmartSSD().ssd), threshold=0.7, stride=10
        )
        results = replay.run(traces, seed=2)
        summary = replay.incident_summary(results)
        assert summary["caught"] == 2
        assert summary["falsely_quarantined"] == 0


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
