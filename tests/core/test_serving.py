"""Tests for the fleet serving simulator: routing, admission, failover.

The simulator's contract has three load-bearing clauses:

* **Determinism** — one seed produces *identical* event logs, verdicts,
  and telemetry across runs (everything lives on the simulated clock;
  see ``test_serving_sessions.py::TestDeterminism``);
* **Bit-exactness** — a window verdict served through the fleet's token
  buffering and ticks scores exactly what
  :meth:`CSDInferenceEngine.infer_batch` returns for the same window;
* **Accounting** — every offered token ends the run either stepped
  (it has a latency) or shed with an explicit reason; nothing is
  silently dropped.
"""

import collections
import dataclasses

import numpy as np
import pytest

from repro.core.config import EngineConfig, OptimizationLevel
from repro.core.fleet import FleetPlanner, MonitoredStream
from repro.core.serving import (
    SHED_NO_DEVICE,
    SHED_QUARANTINED,
    SHED_QUEUE_FULL,
    FleetServer,
    ServingConfig,
    SessionServingReport,
    StreamVerdictRecord,
    TokenArrival,
    build_fleet,
    generate_token_workload,
)
from repro.core.sessions import SessionConfig
from repro.core.throughput import throughput_report
from repro.core.weights import HostWeights
from repro.hw.faults import DeviceDegradeFault, DeviceFailFault, FaultPlan
from repro.telemetry import Telemetry

SEQUENCE_LENGTH = 30
DURATION_US = 30_000
STRIDE = 10


@pytest.fixture(scope="module")
def fleet_weights(trained_model):
    return HostWeights.from_model(trained_model)


def make_engines(weights, count, level=OptimizationLevel.FIXED_POINT):
    config = EngineConfig(
        dimensions=dataclasses.replace(
            weights.dimensions, sequence_length=SEQUENCE_LENGTH
        ),
        optimization=level,
    )
    return build_fleet(weights, count, config=config)


def make_streams(count, calls_per_second=10_000.0, stride=STRIDE):
    return [
        MonitoredStream(f"s{i}", calls_per_second, detection_stride=stride)
        for i in range(count)
    ]


def make_workload(streams, duration_us=DURATION_US, seed=0):
    return generate_token_workload(
        streams, duration_us, streams[0].api_calls_per_second, seed=seed
    )


def serve(engines, streams, arrivals, config=None, **server_kwargs):
    server = FleetServer(engines, streams, config, **server_kwargs)
    return server.serve_tokens(arrivals, sessions=SessionConfig(stride=STRIDE))


def event_details(event):
    time_us, kind, details = event
    return time_us, kind, dict(details)


def assert_accounting(report):
    assert len(report.token_latencies) + report.shed_count == (
        report.tokens_offered
    )


def shed_counters(telemetry) -> dict:
    return {
        event["labels"]["reason"]: event["value"]
        for event in telemetry.events()
        if event["name"] == "repro_serve_shed_total"
    }


def burst(count, stream="s0"):
    return [
        TokenArrival(stream=stream, token=i % 278, arrival_us=0)
        for i in range(count)
    ]


class TestWorkloadGeneration:
    def test_deterministic_and_sorted(self):
        streams = make_streams(3)
        first = make_workload(streams, seed=4)
        second = make_workload(streams, seed=4)
        assert len(first) == len(second) > 0
        for a, b in zip(first, second):
            assert a.arrival_us == b.arrival_us
            assert a.stream == b.stream
            assert a.token == b.token
        keys = [(a.arrival_us, a.stream) for a in first]
        assert keys == sorted(keys)
        assert {a.stream for a in first} == {s.name for s in streams}

    def test_independent_of_stream_order(self):
        # Each stream's RNG derives from (seed, index), so adding a
        # stream must not disturb the arrivals of existing ones.
        base = make_workload(make_streams(2), seed=9)
        wider = make_workload(make_streams(3), seed=9)
        base_s0 = [(a.arrival_us, a.token) for a in base if a.stream == "s0"]
        wide_s0 = [(a.arrival_us, a.token) for a in wider if a.stream == "s0"]
        assert base_s0 and base_s0 == wide_s0

    def test_rejects_bad_duration(self):
        with pytest.raises(ValueError):
            make_workload(make_streams(1), duration_us=0)
        with pytest.raises(ValueError):
            make_workload(make_streams(1), duration_us=-DURATION_US)


class TestBitExactness:
    def test_served_batches_match_direct_infer_batch(self, fleet_weights):
        """Every served verdict equals ``infer_batch`` on its window."""
        streams = make_streams(3)
        workload = make_workload(streams, seed=1)
        report = serve(
            make_engines(fleet_weights, 2), streams, workload,
            ServingConfig(max_batch=8, max_wait_us=500, queue_depth=4096),
        )
        assert report.shed_count == 0
        reference = make_engines(fleet_weights, 1)[0]
        for stream in streams:
            tokens = [a.token for a in workload if a.stream == stream.name]
            served = [v for v in report.verdicts if v.stream == stream.name]
            assert served, f"{stream.name} completed no window"
            windows = np.array([
                tokens[v.window_index:v.window_index + SEQUENCE_LENGTH]
                for v in served
            ], dtype=np.int64)
            direct = reference.infer_batch(windows).probabilities
            assert [v.probability for v in served] == [float(p) for p in direct]
            assert [v.window_index for v in served] == list(
                range(0, STRIDE * len(served), STRIDE)
            )

    def test_verdicts_match_event_log(self, fleet_weights):
        streams = make_streams(2)
        report = serve(make_engines(fleet_weights, 1), streams,
                       make_workload(streams, seed=2))
        logged = collections.Counter()
        for event in report.event_log:
            time_us, kind, details = event_details(event)
            if kind == "tick_complete":
                logged[(time_us, details["device"])] += details["verdicts"]
        delivered = collections.Counter(
            (v.completion_us, v.device) for v in report.verdicts
        )
        assert report.verdicts
        assert +logged == delivered


class TestAdmissionControl:
    """Every shed is counted by reason, in the report and in
    ``repro_serve_shed_total{reason}`` alike."""

    def test_queue_full_sheds_excess(self, fleet_weights):
        telemetry = Telemetry()
        report = serve(
            make_engines(fleet_weights, 1), make_streams(1), burst(10),
            ServingConfig(max_batch=1, max_wait_us=0, queue_depth=2),
            telemetry=telemetry,
        )
        assert set(report.tokens_shed) == {SHED_QUEUE_FULL}
        assert shed_counters(telemetry) == report.tokens_shed
        assert report.token_latencies
        assert_accounting(report)

    def test_generous_queue_sheds_nothing(self, fleet_weights):
        report = serve(
            make_engines(fleet_weights, 1), make_streams(1), burst(10),
            ServingConfig(max_batch=16, max_wait_us=100, queue_depth=64),
        )
        assert report.tokens_shed == {}
        assert len(report.token_latencies) == report.tokens_offered == 10

    def test_quarantined_and_no_device_sheds_counted(self, fleet_weights):
        streams = make_streams(2)
        telemetry = Telemetry()
        server = FleetServer(
            make_engines(fleet_weights, 1), streams, telemetry=telemetry,
            fault_plans={0: FaultPlan(device_fail=DeviceFailFault(at_us=20_000))},
        )
        server.begin_tokens(sessions=SessionConfig(stride=STRIDE))
        server.quarantine_stream("s0")
        server.ingest_tokens(make_workload(streams, seed=4))
        report = server.finish_tokens()
        assert set(report.tokens_shed) == {SHED_QUARANTINED, SHED_NO_DEVICE}
        assert shed_counters(telemetry) == report.tokens_shed
        assert_accounting(report)


class TestFailover:
    def test_device_failure_fails_over(self, fleet_weights):
        streams = make_streams(4, calls_per_second=40_000.0)
        kill_at = DURATION_US // 2
        report = serve(
            make_engines(fleet_weights, 2), streams,
            make_workload(streams, seed=6),
            ServingConfig(max_batch=8, max_wait_us=500),
            fault_plans={0: FaultPlan(device_fail=DeviceFailFault(at_us=kill_at))},
        )
        assert report.device_failures == 1
        assert report.migrated_sessions > 0
        late = [v for v in report.verdicts if v.completion_us > kill_at]
        assert late and all(v.device == 1 for v in late)
        assert_accounting(report)

    def test_planner_rebalance_used_on_failure(self, fleet_weights):
        engines = make_engines(fleet_weights, 2)
        streams = make_streams(4, calls_per_second=5_000.0)
        planner = FleetPlanner(throughput_report(engines[0]), headroom=0.9)
        assert planner.plan(streams).devices_needed == 1
        kill_at = 10_000
        report = serve(
            engines, streams, make_workload(streams, seed=6),
            ServingConfig(max_batch=8, max_wait_us=500),
            planner=planner,
            fault_plans={0: FaultPlan(device_fail=DeviceFailFault(at_us=kill_at))},
        )
        assert report.device_failures == 1
        # First-fit packs every stream onto device 0 (round-robin would
        # split them); the rebalance moves all four sessions to device 1.
        early = [v for v in report.verdicts if v.completion_us <= kill_at]
        late = [v for v in report.verdicts if v.completion_us > kill_at]
        assert early and all(v.device == 0 for v in early)
        assert late and all(v.device == 1 for v in late)
        assert report.migrated_sessions == 4
        assert_accounting(report)

    def test_all_devices_dead_sheds_remaining(self, fleet_weights):
        streams = make_streams(2)
        workload = make_workload(streams, seed=8)
        report = serve(
            make_engines(fleet_weights, 1), streams, workload,
            fault_plans={0: FaultPlan(device_fail=DeviceFailFault(at_us=5_000))},
        )
        assert report.device_failures == 1
        assert report.tokens_shed.get(SHED_NO_DEVICE, 0) > 0
        late_arrivals = [a for a in workload if a.arrival_us > 5_000]
        assert late_arrivals  # the scenario exercised the dead-fleet path
        assert_accounting(report)

    def test_degraded_device_slows_service(self, fleet_weights):
        streams = make_streams(2)
        config = ServingConfig(max_batch=8, max_wait_us=500)
        healthy = serve(
            make_engines(fleet_weights, 1), streams,
            make_workload(streams, seed=5), config,
        )
        degraded = serve(
            make_engines(fleet_weights, 1), streams,
            make_workload(streams, seed=5), config,
            fault_plans={0: FaultPlan(
                device_degrade=DeviceDegradeFault(at_us=0, slowdown=4.0)
            )},
        )
        assert degraded.device_busy_us[0] > healthy.device_busy_us[0]
        assert (degraded.token_latency_percentile_us(50)
                > healthy.token_latency_percentile_us(50))


class TestOversubscribedPlan:
    def test_plan_spills_onto_physical_fleet(self, fleet_weights):
        engines = make_engines(fleet_weights, 1)
        planner = FleetPlanner(throughput_report(engines[0]), headroom=0.9)
        budget = planner.capacity * planner.headroom
        # Two streams at 60% of one device's budget: the plan wants two
        # devices, the fleet has one — both streams must still route.
        streams = make_streams(2, calls_per_second=budget * 0.6 * STRIDE)
        assert planner.plan(streams).devices_needed == 2
        report = serve(
            engines, streams, make_workload(streams, duration_us=10_000, seed=4),
            ServingConfig(max_batch=16, max_wait_us=200),
            planner=planner,
        )
        assert {v.stream for v in report.verdicts} == {"s0", "s1"}
        assert_accounting(report)


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"max_batch": 0},
        {"max_wait_us": -1},
        {"queue_depth": 0},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            ServingConfig(**kwargs)

    def test_empty_fleet_rejected(self):
        with pytest.raises(ValueError, match="at least one device"):
            FleetServer([], make_streams(1))


class TestReport:
    def _report(self, latencies):
        verdicts = tuple(
            StreamVerdictRecord(
                stream="s", window_index=i, probability=0.5,
                is_ransomware=False, device=0, completion_us=lat,
                latency_us=lat,
            )
            for i, lat in enumerate(latencies)
        )
        return SessionServingReport(
            verdicts=verdicts, tokens_offered=len(latencies) + 2,
            tokens_shed={SHED_QUEUE_FULL: 2}, migrated_sessions=0,
            device_failures=0, event_log=(), duration_us=1000,
            device_busy_us=(500,), token_latencies=tuple(latencies),
            session_stats=(),
        )

    def test_nearest_rank_percentiles(self):
        report = self._report([10, 20, 30, 40, 50, 60, 70, 80, 90, 100])
        assert report.verdict_latency_percentile_us(50) == 50.0
        assert report.verdict_latency_percentile_us(99) == 100.0
        assert report.verdict_latency_percentile_us(100) == 100.0
        assert report.verdict_latency_percentile_us(1) == 10.0
        assert report.verdict_count == 10
        assert report.shed_count == 2

    def test_percentile_bounds(self):
        report = self._report([10])
        for percentile_us in (report.verdict_latency_percentile_us,
                              report.token_latency_percentile_us):
            with pytest.raises(ValueError):
                percentile_us(0)
            with pytest.raises(ValueError):
                percentile_us(101)

    def test_empty_report(self):
        report = self._report([])
        assert np.isnan(report.verdict_latency_percentile_us(50))
        assert np.isnan(report.token_latency_percentile_us(50))
        assert report.verdict_count == 0
        assert report.device_utilization() == (0.5,)


class TestNearestRankPercentile:
    """The one nearest-rank implementation the serving and control-plane
    reports share."""

    def test_boundaries(self):
        from repro.core.serving import nearest_rank_percentile

        values = np.array([30, 10, 20], dtype=np.int64)  # unsorted on purpose
        assert nearest_rank_percentile(values, 100) == 30.0
        assert nearest_rank_percentile(values, 0.001) == 10.0
        assert nearest_rank_percentile(values, 50) == 20.0

    def test_single_sample_every_percentile(self):
        from repro.core.serving import nearest_rank_percentile

        single = np.array([7.0])
        for percentile in (0.001, 1, 50, 99, 100):
            assert nearest_rank_percentile(single, percentile) == 7.0

    def test_empty_is_nan(self):
        from repro.core.serving import nearest_rank_percentile

        assert np.isnan(nearest_rank_percentile(np.array([]), 50))

    def test_out_of_range_rejected(self):
        from repro.core.serving import nearest_rank_percentile

        for bad in (0, -1, 100.5, 101):
            with pytest.raises(ValueError, match="percentile"):
                nearest_rank_percentile(np.array([1.0]), bad)

    def test_session_report_shares_the_helper(self):
        report = SessionServingReport(
            verdicts=(), tokens_offered=3, tokens_shed={},
            migrated_sessions=0, device_failures=0, event_log=(),
            duration_us=100, device_busy_us=(10,),
            token_latencies=(5, 15, 25), session_stats=(),
        )
        assert report.token_latency_percentile_us(100) == 25.0
        assert report.token_latency_percentile_us(1) == 5.0
        empty = dataclasses.replace(report, token_latencies=())
        assert np.isnan(empty.token_latency_percentile_us(50))
