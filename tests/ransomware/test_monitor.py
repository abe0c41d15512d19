"""ProcessMonitor: the ransomware-layer face of the session subsystem."""

import dataclasses

import numpy as np
import pytest

from repro.core.config import EngineConfig, OptimizationLevel
from repro.core.engine import CSDInferenceEngine
from repro.core.weights import HostWeights
from repro.nn.model import SequenceClassifier
from repro.ransomware.api_vocabulary import API_NAMES, API_TO_ID
from repro.ransomware.detector import RansomwareDetector, Verdict
from repro.ransomware.monitor import ProcessMonitor

WINDOW = 12

_WEIGHTS = HostWeights.from_model(SequenceClassifier(seed=9))


@pytest.fixture(scope="module")
def engine():
    config = EngineConfig(
        dimensions=dataclasses.replace(_WEIGHTS.dimensions, sequence_length=WINDOW),
        optimization=OptimizationLevel.FIXED_POINT,
    )
    return CSDInferenceEngine(config, _WEIGHTS)


#: An unknown API name, non-integer ids, and out-of-range ids.
BAD_CALLS = ["NtNotAnApi", 1.9, float("nan"), "5", -1, 99999]


def random_calls(seed: int, count: int) -> list:
    rng = np.random.default_rng(seed)
    return [API_NAMES[i] for i in rng.integers(0, len(API_NAMES), size=count)]


class TestObserve:
    def test_api_names_match_recompute_detector(self, engine):
        """Call-name streams score identically to RansomwareDetector."""
        calls = random_calls(5, 3 * WINDOW)
        monitor = ProcessMonitor(engine, threshold=0.5, stride=2)
        detector = RansomwareDetector(engine, threshold=0.5, stride=2)
        got, want = [], []
        for call in calls:
            verdict = monitor.observe(4242, call)
            if verdict is not None:
                got.append(verdict)
            baseline = detector.observe(call)
            if baseline is not None:
                want.append(baseline)
        assert got == want  # Verdict is a frozen dataclass: full equality
        assert all(isinstance(v, Verdict) for v in got)

    def test_token_ids_accepted(self, engine):
        monitor = ProcessMonitor(engine, stride=1)
        verdicts = [
            monitor.observe(1, API_TO_ID[call])
            for call in random_calls(6, WINDOW)
        ]
        assert verdicts[-1] is not None

    def test_observe_tick_batches_many_processes(self, engine):
        """One batched tick per step scores like per-process observation."""
        streams = {pid: random_calls(pid, WINDOW + 3) for pid in (1, 2, 3)}
        batched = ProcessMonitor(engine, stride=1)
        collected: dict = {pid: [] for pid in streams}
        for step in range(WINDOW + 3):
            tick = {pid: calls[step] for pid, calls in streams.items()}
            for pid, verdict in batched.observe_tick(tick).items():
                collected[pid].append(verdict)
        for pid, calls in streams.items():
            solo = ProcessMonitor(engine, stride=1)
            want = [v for v in (solo.observe(pid, c) for c in calls) if v]
            assert collected[pid] == want

    @pytest.mark.parametrize("bad", BAD_CALLS)
    def test_bad_call_rejected_alone(self, engine, bad):
        """A bad call raises on its own and never enters the window."""
        calls = random_calls(11, WINDOW)
        clean = ProcessMonitor(engine, stride=1)
        want = [clean.observe(1, call) for call in calls][-1]
        monitor = ProcessMonitor(engine, stride=1)
        for call in calls[:-1]:
            assert monitor.observe(1, call) is None
        with pytest.raises(ValueError):
            monitor.observe(1, bad)
        with pytest.raises(ValueError):
            monitor.observe_tick({2: calls[0], 1: bad})
        # A valid call after the rejected ones still classifies, bit-exact.
        assert monitor.observe(1, calls[-1]) == want


class TestLifecycle:
    def test_close_frees_process_state(self, engine):
        monitor = ProcessMonitor(engine, stride=1)
        for call in random_calls(7, 5):
            monitor.observe(77, call)
        assert monitor.monitored_processes == (77,)
        monitor.close(77)
        assert monitor.monitored_processes == ()
        assert monitor.stats()["evictions"] == {"closed": 1}

    def test_idle_processes_evicted_and_counted(self, engine):
        monitor = ProcessMonitor(engine, stride=1, idle_after_steps=2)
        monitor.observe(1, "NtWriteFile")
        for call in random_calls(8, 3):
            monitor.observe(2, call)
        stats = monitor.stats()
        assert stats["evictions"] == {"idle": 1}
        assert 1 in monitor.monitored_processes  # checkpointed, not lost


class TestDetectorBank:
    def test_bank_growth_is_bounded_by_budget(self, engine):
        """The unbounded per-process growth fix: residency stays capped."""
        probe = ProcessMonitor(engine, stride=WINDOW)
        per_session = probe.sessions.session_bytes
        monitor = ProcessMonitor(
            engine, stride=WINDOW, memory_budget_bytes=16 * per_session
        )
        for pid in range(200):
            monitor.observe(pid, "NtWriteFile")
        stats = monitor.stats()
        assert stats["resident_sessions"] <= 16
        assert stats["evictions"]["lru"] == 200 - stats["resident_sessions"]
        assert len(monitor.monitored_processes) == 200  # evicted, not forgotten
