"""Attack-scenario replays: scenario construction across modalities,
interleaving determinism, data-loss accounting, and the end-to-end
protected replay."""

import numpy as np
import pytest

from repro.core.config import OptimizationLevel
from repro.core.engine import engine_at_level
from repro.ransomware.replay import (
    ScenarioReplay,
    ScenarioStream,
    build_scenario,
    data_loss_accounting,
    interleave_traces,
)
from repro.ransomware.traces.adapters import MODALITIES
from repro.response.policy import ACTION_OBSERVE, ResponsePolicy
from repro.hw.smartssd import SmartSSD
from repro.telemetry import Telemetry
from tests.conftest import TEST_SEQUENCE_LENGTH

MODALITY_NAMES = ("api", "block_io", "filesystem")


class TestBuildScenario:
    @pytest.mark.parametrize("modality", MODALITY_NAMES)
    def test_counts_flags_and_token_ranges(self, modality):
        streams = build_scenario(modality, ransomware=2, benign=3, seed=1,
                                 benign_length=120)
        assert len(streams) == 5
        assert sum(s.is_ransomware for s in streams) == 2
        vocabulary = MODALITIES[modality].vocabulary
        for stream in streams:
            assert len(stream.tokens) == len(stream.write_bytes) == len(stream)
            assert all(0 <= t < vocabulary.size for t in stream.tokens)
            assert stream.source  # family / profile provenance
            assert stream.total_write_bytes == sum(stream.write_bytes)
        names = [s.name for s in streams]
        assert sum(n.startswith("rw-") for n in names) == 2
        assert sum(n.startswith("benign-") for n in names) == 3

    def test_every_ransomware_stream_writes(self):
        for modality in MODALITY_NAMES:
            streams = build_scenario(modality, ransomware=2, benign=0, seed=0)
            for stream in streams:
                assert stream.total_write_bytes > 0, (modality, stream.name)

    def test_deterministic_for_a_seed(self):
        first = build_scenario("block_io", ransomware=1, benign=2, seed=9,
                               benign_length=100)
        second = build_scenario("block_io", ransomware=1, benign=2, seed=9,
                                benign_length=100)
        for a, b in zip(first, second):
            assert a == b

    def test_masquerade_stripped_by_default(self):
        stripped = build_scenario("api", ransomware=1, benign=0, seed=0)
        full = build_scenario("api", ransomware=1, benign=0, seed=0,
                              strip_masquerade=False)
        assert len(stripped[0]) < len(full[0])

    def test_unknown_modality_raises(self):
        with pytest.raises(ValueError, match="unknown modality"):
            build_scenario("syscalls")

    def test_stream_validation(self):
        with pytest.raises(ValueError):
            ScenarioStream(name="x", source="api", is_ransomware=False,
                           tokens=(1, 2, 3), write_bytes=(0, 0))


class TestInterleaving:
    def test_permutation_with_correct_multiplicities(self):
        order = interleave_traces([3, 5, 2], seed=4)
        assert len(order) == 10
        assert sorted(set(order)) == [0, 1, 2]
        for index, length in enumerate([3, 5, 2]):
            assert order.count(index) == length

    def test_deterministic_per_seed(self):
        assert interleave_traces([4, 4], seed=7) == interleave_traces(
            [4, 4], seed=7
        )
        assert interleave_traces([40, 40], seed=7) != interleave_traces(
            [40, 40], seed=8
        )

    def test_relative_order_within_a_trace_is_preserved(self):
        # The schedule names which trace advances; by construction each
        # trace's own events replay in order. Verify the schedule is
        # consumable: prefix counts never exceed the trace length.
        lengths = [6, 3, 9]
        seen = [0] * len(lengths)
        for index in interleave_traces(lengths, seed=0):
            seen[index] += 1
            assert seen[index] <= lengths[index]


class TestDataLossAccounting:
    def _stream(self, name, is_ransomware, write_bytes):
        return ScenarioStream(
            name=name, source="api", is_ransomware=is_ransomware,
            tokens=tuple(range(len(write_bytes))),
            write_bytes=tuple(write_bytes),
        )

    def test_cut_point_splits_exposed_from_prevented(self):
        rw = self._stream("rw", True, [100, 100, 100, 100])
        benign = self._stream("ok", False, [50, 50])
        accounting = data_loss_accounting(
            [rw, benign], {"rw": 2, "ok": None}
        )
        per = accounting["per_stream"]
        assert per["rw"] == {
            "is_ransomware": True, "total_bytes": 400,
            "exposed_bytes": 200, "prevented_bytes": 200,
        }
        assert per["ok"]["prevented_bytes"] == 0
        assert accounting["ransomware_bytes_prevented"] == 200
        assert accounting["ransomware_bytes_exposed"] == 200
        assert accounting["benign_bytes_prevented"] == 0

    def test_unenforced_stream_is_fully_exposed(self):
        rw = self._stream("rw", True, [10, 10])
        accounting = data_loss_accounting([rw], {})
        assert accounting["per_stream"]["rw"]["exposed_bytes"] == 20
        assert accounting["per_stream"]["rw"]["prevented_bytes"] == 0

    def test_cut_at_zero_prevents_everything(self):
        rw = self._stream("rw", True, [10, 10])
        accounting = data_loss_accounting([rw], {"rw": 0})
        assert accounting["per_stream"]["rw"]["prevented_bytes"] == 20


class TestScenarioReplay:
    """End-to-end against the protected drive.

    The aggressive policy (every positive verdict qualifies and clears
    the write-block rung) makes enforcement model-independent, so the
    mechanical invariants — byte conservation, audit determinism — hold
    for any trained fixture model.
    """

    @pytest.fixture(scope="class")
    def engine(self, trained_model):
        return engine_at_level(
            trained_model, OptimizationLevel.FIXED_POINT,
            sequence_length=TEST_SEQUENCE_LENGTH,
        )

    def _run(self, engine):
        streams = build_scenario("api", ransomware=1, benign=1, seed=3,
                                 benign_length=150)
        policy = ResponsePolicy(
            observe_threshold=0.0, write_block_threshold=0.0,
            quarantine_threshold=None, kill_threshold=None,
            confirmations=2, attribute=False,
        )
        replay = ScenarioReplay(engine, SmartSSD(), policy=policy,
                                monitor_threshold=0.01, stride=5)
        user_keys = replay.seed_user_objects(count=4, num_bytes=4096)
        outcomes = replay.run(streams, seed=3, user_keys=user_keys)
        return replay, streams, outcomes

    def test_byte_conservation_per_stream(self, engine):
        _, streams, outcomes = self._run(engine)
        for stream in streams:
            outcome = outcomes[stream.name]
            assert outcome.tokens_replayed == len(stream)
            assert (outcome.bytes_admitted + outcome.bytes_blocked
                    == stream.total_write_bytes)
            assert (outcome.writes_admitted + outcome.writes_blocked
                    == sum(1 for b in stream.write_bytes if b))

    def test_aggressive_policy_enforces_every_stream(self, engine):
        _, _, outcomes = self._run(engine)
        for outcome in outcomes.values():
            assert outcome.enforced_window_index is not None
            assert outcome.detection_latency_tokens is not None
            assert outcome.final_action != ACTION_OBSERVE

    def test_report_and_audit(self, engine):
        replay, streams, outcomes = self._run(engine)
        report = replay.report(outcomes)
        assert report["ransomware_streams"] == 1
        assert report["enforced"] == 1
        assert report["bytes_blocked"] == sum(
            o.bytes_blocked for o in outcomes.values() if o.is_ransomware
        )
        assert report["audit_head"] == replay.audit.head_hash
        assert replay.audit.verify()

    def test_repeated_runs_are_bit_identical(self, engine):
        first, _, _ = self._run(engine)
        second, _, _ = self._run(engine)
        assert first.audit.to_jsonl() == second.audit.to_jsonl()
        assert first.audit.stream_heads() == second.audit.stream_heads()

    def test_telemetry_reaches_engine_and_sessions(self, trained_model):
        engine = engine_at_level(
            trained_model, OptimizationLevel.FIXED_POINT,
            sequence_length=TEST_SEQUENCE_LENGTH,
        )
        telemetry = Telemetry()
        streams = build_scenario("api", ransomware=1, benign=1, seed=3,
                                 benign_length=150)
        replay = ScenarioReplay(engine, SmartSSD(), monitor_threshold=0.01,
                                stride=5, telemetry=telemetry)
        replay.run(streams, seed=3)
        totals = {}
        for record in telemetry.metrics.snapshot():
            name = record["name"]
            totals[name] = totals.get(name, 0) + record.get("value", 0)
        assert totals["repro_backend_ticks_total"] > 0
        assert totals["repro_session_tokens_total"] == sum(len(s) for s in streams)
        assert any(name.startswith("repro_resp_") for name in totals)

    def test_write_seconds_accumulate(self, engine):
        # Observe-only policy: nothing is ever blocked, so every write
        # lands and its modelled device time accumulates.  The scenario
        # includes the archiver profiles, which actually write.
        streams = build_scenario("api", ransomware=0, benign=4, seed=3,
                                 benign_length=150)
        policy = ResponsePolicy(
            observe_threshold=0.0, write_block_threshold=None,
            quarantine_threshold=None, kill_threshold=None,
            confirmations=2, attribute=False,
        )
        replay = ScenarioReplay(engine, SmartSSD(), policy=policy,
                                monitor_threshold=0.01, stride=5)
        outcomes = replay.run(streams, seed=3)
        writers = [o for o in outcomes.values() if o.bytes_admitted]
        assert writers
        assert all(o.write_seconds > 0 for o in writers)
        assert all(o.writes_blocked == 0 for o in outcomes.values())
