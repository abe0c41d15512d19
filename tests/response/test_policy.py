"""The graduated response policy state machine."""

import dataclasses

import pytest

from repro.hw.smartssd import MODE_BLOCK, MODE_COW, SmartSSD, WriteRefused
from repro.response.policy import (
    ACTION_KILL,
    ACTION_OBSERVE,
    ACTION_QUARANTINE,
    ACTION_RESTORE,
    ACTION_WRITE_BLOCK,
    ESCALATION_LADDER,
    ResponseEngine,
    ResponsePolicy,
    SmartSsdEnforcer,
)
from repro.telemetry import Telemetry


@dataclasses.dataclass(frozen=True)
class _Verdict:
    window_index: int
    probability: float
    is_ransomware: bool = True


def v(window_index, probability, is_ransomware=True):
    return _Verdict(window_index, probability, is_ransomware)


POLICY = ResponsePolicy(
    observe_threshold=0.5, write_block_threshold=0.6,
    quarantine_threshold=0.8, kill_threshold=0.95,
    confirmations=2, attribute=False,
)


class _RecordingEnforcer:
    """Duck-typed enforcer that records hook invocations in order."""

    def __init__(self):
        self.calls = []

    def observe(self, stream):
        self.calls.append(("observe", stream))

    def write_block(self, stream):
        self.calls.append(("write_block", stream))

    def quarantine(self, stream):
        self.calls.append(("quarantine", stream))

    def kill(self, stream):
        self.calls.append(("kill", stream))

    def restore(self, stream):
        self.calls.append(("restore", stream))
        return None


class TestPolicyValidation:
    def test_target_action_picks_most_severe_cleared_rung(self):
        assert POLICY.target_action(0.55) == ACTION_OBSERVE
        assert POLICY.target_action(0.6) == ACTION_WRITE_BLOCK
        assert POLICY.target_action(0.85) == ACTION_QUARANTINE
        assert POLICY.target_action(0.99) == ACTION_KILL

    def test_disabled_rungs_are_skipped(self):
        policy = ResponsePolicy(write_block_threshold=None,
                                quarantine_threshold=0.8,
                                kill_threshold=None)
        assert policy.target_action(0.7) == ACTION_OBSERVE
        assert policy.target_action(0.9) == ACTION_QUARANTINE

    @pytest.mark.parametrize("bad", [-0.1, 1.5])
    def test_thresholds_validated(self, bad):
        with pytest.raises(ValueError):
            ResponsePolicy(write_block_threshold=bad)

    def test_confirmations_validated(self):
        with pytest.raises(ValueError):
            ResponsePolicy(confirmations=0)


class TestEscalation:
    def test_streak_gates_escalation(self):
        engine = ResponseEngine(POLICY)
        first = engine.on_verdict("p", v(0, 0.9))
        assert not first.escalated and first.action == ACTION_OBSERVE
        second = engine.on_verdict("p", v(1, 0.9))
        assert second.escalated and second.action == ACTION_QUARANTINE

    def test_non_qualifying_verdict_resets_the_streak(self):
        engine = ResponseEngine(POLICY)
        engine.on_verdict("p", v(0, 0.9))
        engine.on_verdict("p", v(1, 0.3, is_ransomware=False))
        assert engine.streak_of("p") == 0
        third = engine.on_verdict("p", v(2, 0.9))
        assert not third.escalated

    def test_escalation_is_monotonic(self):
        engine = ResponseEngine(POLICY)
        engine.on_verdict("p", v(0, 0.9))
        engine.on_verdict("p", v(1, 0.9))
        assert engine.action_of("p") == ACTION_QUARANTINE
        # A later, weaker confirmed verdict never de-escalates, and neither
        # does a benign one.
        engine.on_verdict("p", v(2, 0.65))
        assert engine.action_of("p") == ACTION_QUARANTINE
        engine.on_verdict("p", v(3, 0.1, is_ransomware=False))
        assert engine.action_of("p") == ACTION_QUARANTINE

    def test_intermediate_rungs_applied_on_a_jump(self):
        enforcer = _RecordingEnforcer()
        engine = ResponseEngine(POLICY, enforcer=enforcer)
        engine.on_verdict("p", v(0, 0.9))
        engine.on_verdict("p", v(1, 0.9))
        assert enforcer.calls == [
            ("observe", "p"), ("write_block", "p"), ("quarantine", "p"),
        ]

    def test_streams_are_independent(self):
        engine = ResponseEngine(POLICY)
        engine.on_verdict("a", v(0, 0.9))
        engine.on_verdict("a", v(1, 0.9))
        engine.on_verdict("b", v(0, 0.9))
        assert engine.action_of("a") == ACTION_QUARANTINE
        assert engine.action_of("b") == ACTION_OBSERVE

    def test_enforcer_with_missing_hooks_is_tolerated(self):
        class QuarantineOnly:
            def __init__(self):
                self.quarantined = []

            def quarantine(self, stream):
                self.quarantined.append(stream)

        enforcer = QuarantineOnly()
        engine = ResponseEngine(POLICY, enforcer=enforcer)
        engine.on_verdict("p", v(0, 0.9))
        engine.on_verdict("p", v(1, 0.9))
        assert enforcer.quarantined == ["p"]

    def test_alert_recorded_once_per_stream(self):
        engine = ResponseEngine(POLICY)
        engine.on_verdict("p", v(0, 0.55))
        engine.on_verdict("p", v(1, 0.55))
        events = [r.event for r in engine.audit.records]
        assert events.count("alert") == 1


class TestGating:
    def test_kill_is_gated_without_allow_kill(self):
        enforcer = _RecordingEnforcer()
        engine = ResponseEngine(POLICY, enforcer=enforcer)
        engine.on_verdict("p", v(0, 0.99))
        decision = engine.on_verdict("p", v(1, 0.99))
        assert decision.gated == (ACTION_KILL,)
        assert decision.action == ACTION_QUARANTINE
        assert ("kill", "p") not in enforcer.calls
        gated = [r for r in engine.audit.records if r.event == "gated"]
        assert len(gated) == 1 and gated[0].action == ACTION_KILL

    def test_gated_event_recorded_once(self):
        engine = ResponseEngine(POLICY)
        engine.on_verdict("p", v(0, 0.99))
        engine.on_verdict("p", v(1, 0.99))
        engine.on_verdict("p", v(2, 0.99))
        gated = [r for r in engine.audit.records if r.event == "gated"]
        assert len(gated) == 1

    def test_allow_kill_unlocks_the_rung(self):
        policy = dataclasses.replace(POLICY, allow_kill=True)
        enforcer = _RecordingEnforcer()
        engine = ResponseEngine(policy, enforcer=enforcer)
        engine.on_verdict("p", v(0, 0.99))
        decision = engine.on_verdict("p", v(1, 0.99))
        assert decision.action == ACTION_KILL
        assert ("kill", "p") in enforcer.calls

    def test_stream_at_kill_ignores_further_verdicts(self):
        policy = dataclasses.replace(POLICY, allow_kill=True)
        engine = ResponseEngine(policy)
        engine.on_verdict("p", v(0, 0.99))
        engine.on_verdict("p", v(1, 0.99))
        records_before = len(engine.audit)
        decision = engine.on_verdict("p", v(2, 0.99))
        assert not decision.escalated
        assert len(engine.audit) == records_before

    def test_restore_requires_allow_restore(self):
        engine = ResponseEngine(POLICY)
        with pytest.raises(PermissionError):
            engine.restore("p")

    def test_kill_with_allow_restore_rolls_back(self):
        policy = dataclasses.replace(
            POLICY, allow_kill=True, allow_restore=True
        )
        enforcer = _RecordingEnforcer()
        engine = ResponseEngine(policy, enforcer=enforcer)
        engine.on_verdict("p", v(0, 0.99))
        engine.on_verdict("p", v(1, 0.99))
        assert engine.action_of("p") == ACTION_RESTORE
        assert enforcer.calls[-1] == ("restore", "p")
        assert [r.event for r in engine.audit.records][-1] == "restore"


class TestSmartSsdEnforcer:
    def test_observe_arms_copy_on_write(self):
        storage = SmartSSD()
        engine = ResponseEngine(POLICY, enforcer=SmartSsdEnforcer(storage))
        engine.on_verdict("p", v(0, 0.55))
        assert storage.stream_mode("p") == MODE_COW

    def test_write_block_refuses_writes(self):
        storage = SmartSSD()
        engine = ResponseEngine(POLICY, enforcer=SmartSsdEnforcer(storage))
        engine.on_verdict("p", v(0, 0.7))
        engine.on_verdict("p", v(1, 0.7))
        assert storage.stream_mode("p") == MODE_BLOCK
        with pytest.raises(WriteRefused):
            storage.stream_write("p", "victim", 4096)


class TestReportingAndTelemetry:
    def test_summary_counts_streams_by_rung(self):
        engine = ResponseEngine(POLICY)
        engine.on_verdict("a", v(0, 0.9))
        engine.on_verdict("a", v(1, 0.9))
        engine.on_verdict("b", v(0, 0.55))
        summary = engine.summary()
        assert summary["streams"] == 2
        assert summary["actions"][ACTION_QUARANTINE] == 1
        assert summary["actions"][ACTION_OBSERVE] == 1
        assert summary["audit_records"] == len(engine.audit)
        assert summary["audit_head"] == engine.audit.head_hash
        assert set(summary["actions"]) == set(ESCALATION_LADDER)

    def test_telemetry_records_actions_and_span(self):
        telemetry = Telemetry()
        engine = ResponseEngine(POLICY, telemetry=telemetry)
        engine.on_verdict("p", v(0, 0.9))
        engine.on_verdict("p", v(1, 0.9))
        counters = {
            (entry["name"], tuple(sorted(entry["labels"].items()))):
                entry["value"]
            for entry in telemetry.metrics.snapshot()
            if entry["type"] == "counter"
        }
        assert counters[(
            "repro_resp_actions_total", (("action", ACTION_QUARANTINE),)
        )] == 1
        assert counters[("repro_resp_audit_records_total", ())] == len(
            engine.audit
        )
        spans = [root for root in telemetry.tracer.roots
                 if root.name == "response.act"]
        assert len(spans) == 1
        assert spans[0].attributes["unit"] == "window"
        assert spans[0].attributes["action"] == ACTION_QUARANTINE

    def test_decisions_identical_with_and_without_telemetry(self):
        plain = ResponseEngine(POLICY)
        traced = ResponseEngine(POLICY, telemetry=Telemetry())
        verdicts = [v(0, 0.55), v(1, 0.7), v(2, 0.3, is_ransomware=False),
                    v(3, 0.9), v(4, 0.99)]
        for verdict in verdicts:
            assert plain.on_verdict("p", verdict) == traced.on_verdict(
                "p", verdict
            )
        assert plain.audit.head_hash == traced.audit.head_hash
