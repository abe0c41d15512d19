"""Tests for the streaming detector, mitigation engine, and CTI updates."""

import numpy as np
import pytest

from repro.core.engine import CSDInferenceEngine, engine_at_level
from repro.core.config import OptimizationLevel
from repro.hw.ssd import NvmeSsd
from repro.ransomware.cti import ModelUpdateWorkflow, NOVEL_STRAIN, ThreatReport
from repro.ransomware.detector import RansomwareDetector, Verdict, train_detector
from repro.ransomware.families import RYUK
from repro.ransomware.sandbox import CuckooSandbox
from repro.response.legacy import (
    MitigationEngine,
    ProtectedStorage,
    WriteBlocked,
)
from tests.conftest import TEST_SEQUENCE_LENGTH


@pytest.fixture(scope="module")
def deployed_detector(request):
    model = request.getfixturevalue("trained_model")
    engine = engine_at_level(
        model, OptimizationLevel.FIXED_POINT, sequence_length=TEST_SEQUENCE_LENGTH
    )
    return RansomwareDetector(engine, threshold=0.5)


class TestDetectorStreaming:
    def test_no_verdict_until_window_full(self, deployed_detector):
        deployed_detector.reset()
        for _ in range(TEST_SEQUENCE_LENGTH - 1):
            assert deployed_detector.observe("NtReadFile") is None

    def test_verdict_once_window_full(self, deployed_detector):
        deployed_detector.reset()
        verdict = None
        for _ in range(TEST_SEQUENCE_LENGTH):
            verdict = deployed_detector.observe("NtReadFile")
        assert isinstance(verdict, Verdict)
        assert verdict.window_index == 0
        assert verdict.inference_microseconds > 0

    def test_accepts_token_ids(self, deployed_detector):
        deployed_detector.reset()
        verdict = None
        for _ in range(TEST_SEQUENCE_LENGTH):
            verdict = deployed_detector.observe(5)
        assert verdict is not None

    def test_stride_skips_windows(self, trained_model):
        engine = engine_at_level(
            trained_model, OptimizationLevel.FIXED_POINT,
            sequence_length=TEST_SEQUENCE_LENGTH,
        )
        detector = RansomwareDetector(engine, stride=10)
        verdicts = [
            detector.observe("NtReadFile")
            for _ in range(TEST_SEQUENCE_LENGTH + 20)
        ]
        fired = [v for v in verdicts if v is not None]
        assert len(fired) == 3  # windows 0, 10, 20

    def test_detects_ransomware_trace(self, deployed_detector):
        trace = CuckooSandbox(seed=9).execute_ransomware(RYUK, 0)
        report = deployed_detector.scan_trace(trace.calls)
        assert report.detected
        assert report.calls_until_detection is not None
        # Early detection: alarm well before the trace ends.
        assert report.calls_until_detection < len(trace) / 2

    def test_benign_trace_mostly_clean(self, deployed_detector, tiny_dataset):
        # Use benign sequences from the held-out pool: scan a few windows'
        # worth of calls and require no alarm on the large majority.
        from repro.ransomware.benign import ALL_BENIGN_PROFILES

        trace = CuckooSandbox(seed=9).execute_benign(
            ALL_BENIGN_PROFILES[6], 0, target_length=300
        )
        report = deployed_detector.scan_trace(trace.calls, stop_at_first=False)
        positives = sum(1 for v in report.verdicts if v.is_ransomware)
        assert positives <= 0.2 * max(1, len(report.verdicts))

    def test_evaluate_returns_metrics(self, deployed_detector, tiny_split):
        _, test = tiny_split
        small = test.subset(np.arange(min(40, len(test))))
        metrics = deployed_detector.evaluate(small)
        assert set(metrics) == {"accuracy", "precision", "recall", "f1"}
        assert metrics["accuracy"] > 0.6

    def test_rejects_bad_threshold(self, trained_model):
        engine = engine_at_level(
            trained_model, OptimizationLevel.FIXED_POINT,
            sequence_length=TEST_SEQUENCE_LENGTH,
        )
        with pytest.raises(ValueError):
            RansomwareDetector(engine, threshold=1.5)
        with pytest.raises(ValueError):
            RansomwareDetector(engine, stride=0)


class TestTrainDetectorPipeline:
    def test_end_to_end(self, tiny_dataset):
        from repro.nn.trainer import TrainingConfig

        detector, history, test_split = train_detector(
            tiny_dataset,
            training=TrainingConfig(epochs=4, eval_every=2, learning_rate=0.005),
            seed=1,
        )
        assert len(history.records) == 2
        metrics = detector.evaluate(test_split.subset(np.arange(30)))
        assert metrics["accuracy"] > 0.5


class TestMitigation:
    def _verdict(self, probability=0.99):
        return Verdict(
            window_index=7, probability=probability,
            is_ransomware=probability >= 0.5, inference_microseconds=215.0,
        )

    def test_quarantine_blocks_writes(self):
        storage = ProtectedStorage(NvmeSsd())
        engine = MitigationEngine(storage)
        storage.write(process_id=42, key="doc", num_bytes=100)
        assert engine.handle_verdict(42, self._verdict())
        with pytest.raises(WriteBlocked):
            storage.write(process_id=42, key="doc2", num_bytes=100)
        assert storage.blocked_writes == 1
        assert storage.blocked_bytes == 100

    def test_other_processes_unaffected(self):
        storage = ProtectedStorage(NvmeSsd())
        engine = MitigationEngine(storage)
        engine.handle_verdict(42, self._verdict())
        storage.write(process_id=7, key="ok", num_bytes=50)
        assert storage.allowed_writes == 1

    def test_benign_verdict_ignored(self):
        storage = ProtectedStorage(NvmeSsd())
        engine = MitigationEngine(storage)
        assert not engine.handle_verdict(42, self._verdict(probability=0.1))
        assert not storage.quarantined_processes

    def test_quarantine_threshold(self):
        storage = ProtectedStorage(NvmeSsd())
        engine = MitigationEngine(storage, quarantine_threshold=0.9)
        assert not engine.handle_verdict(42, self._verdict(probability=0.7))
        assert engine.handle_verdict(42, self._verdict(probability=0.95))

    def test_release(self):
        storage = ProtectedStorage(NvmeSsd())
        storage.quarantine(42)
        storage.release(42)
        storage.write(process_id=42, key="ok", num_bytes=10)

    def test_duplicate_quarantine_single_event(self):
        storage = ProtectedStorage(NvmeSsd())
        engine = MitigationEngine(storage)
        engine.handle_verdict(42, self._verdict())
        engine.handle_verdict(42, self._verdict())
        assert len(engine.events) == 1

    def test_summary(self):
        storage = ProtectedStorage(NvmeSsd())
        engine = MitigationEngine(storage)
        engine.handle_verdict(42, self._verdict())
        summary = engine.summary()
        assert summary["quarantined_processes"] == 1
        assert summary["quarantine_events"] == 1

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            MitigationEngine(ProtectedStorage(NvmeSsd()), quarantine_threshold=1.0)

    def test_rejects_bad_confirmations(self):
        with pytest.raises(ValueError):
            MitigationEngine(ProtectedStorage(NvmeSsd()), confirmations=0)

    def test_confirmations_require_consecutive_positives(self):
        storage = ProtectedStorage(NvmeSsd())
        engine = MitigationEngine(storage, confirmations=3)
        assert not engine.handle_verdict(42, self._verdict())
        assert not engine.handle_verdict(42, self._verdict())
        assert engine.handle_verdict(42, self._verdict())
        assert 42 in storage.quarantined_processes

    def test_negative_verdict_resets_streak(self):
        storage = ProtectedStorage(NvmeSsd())
        engine = MitigationEngine(storage, confirmations=2)
        engine.handle_verdict(42, self._verdict())
        engine.handle_verdict(42, self._verdict(probability=0.1))  # reset
        assert not engine.handle_verdict(42, self._verdict())
        assert 42 not in storage.quarantined_processes
        assert engine.handle_verdict(42, self._verdict())

    def test_streaks_are_per_process(self):
        storage = ProtectedStorage(NvmeSsd())
        engine = MitigationEngine(storage, confirmations=2)
        engine.handle_verdict(1, self._verdict())
        engine.handle_verdict(2, self._verdict())
        # Neither process has two consecutive positives yet.
        assert not storage.quarantined_processes
        assert engine.handle_verdict(1, self._verdict())
        assert 2 not in storage.quarantined_processes

    def test_quarantined_process_stays_quarantined_after_negative(self):
        storage = ProtectedStorage(NvmeSsd())
        engine = MitigationEngine(storage)
        engine.handle_verdict(42, self._verdict())
        # A later benign-looking window must not lift the quarantine.
        still = engine.handle_verdict(42, self._verdict(probability=0.1))
        assert still
        assert 42 in storage.quarantined_processes


class TestCtiWorkflow:
    @staticmethod
    def _copy_of(model):
        """Fine-tuning mutates the model; never touch the shared fixture."""
        from repro.nn.model import SequenceClassifier

        clone = SequenceClassifier(seed=0)
        clone.set_weights(model.get_weights())
        return clone

    def test_update_improves_novel_strain_detection(self, trained_model, tiny_dataset):
        model = self._copy_of(trained_model)
        engine = engine_at_level(
            model, OptimizationLevel.FIXED_POINT,
            sequence_length=TEST_SEQUENCE_LENGTH,
        )
        workflow = ModelUpdateWorkflow(engine, model)
        report = ThreatReport(strain=NOVEL_STRAIN, first_seen="2026-07-01")

        refresh = tiny_dataset.subset(np.arange(min(300, len(tiny_dataset))))
        result = workflow.apply_update(report, refresh, epochs=2, seed=3)
        assert result.strain_name == "Hive-like"
        assert result.sequences_added == 3 * 60
        assert result.detection_rate_after >= result.detection_rate_before
        assert result.detection_rate_after > 0.8

    def test_synthesize_strain_data_labels(self, trained_model):
        engine = engine_at_level(
            trained_model, OptimizationLevel.FIXED_POINT,
            sequence_length=TEST_SEQUENCE_LENGTH,
        )
        workflow = ModelUpdateWorkflow(engine, trained_model)
        data = workflow.synthesize_strain_data(
            ThreatReport(strain=NOVEL_STRAIN, first_seen="2026-07-01"),
            windows_per_variant=5,
        )
        assert np.all(data.labels == 1)
        assert data.sequences.shape == (15, TEST_SEQUENCE_LENGTH)
