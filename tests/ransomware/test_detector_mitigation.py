"""Tests for the streaming detector and CTI updates."""

import numpy as np
import pytest

from repro.core.engine import CSDInferenceEngine, engine_at_level
from repro.core.config import OptimizationLevel
from repro.ransomware.cti import ModelUpdateWorkflow, NOVEL_STRAIN, ThreatReport
from repro.ransomware.detector import RansomwareDetector, Verdict, train_detector
from repro.ransomware.families import RYUK
from repro.ransomware.sandbox import CuckooSandbox
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

    @pytest.mark.parametrize(
        "bad", ["NtNotAnApi", 1.9, float("nan"), "5", -1, 99999]
    )
    def test_bad_call_rejected_before_buffering(self, deployed_detector, bad):
        deployed_detector.reset()
        for _ in range(TEST_SEQUENCE_LENGTH - 1):
            assert deployed_detector.observe("NtReadFile") is None
        with pytest.raises(ValueError):
            deployed_detector.observe(bad)
        # The rejected call never entered the window, so the next valid
        # call completes window 0 and classifies.
        verdict = deployed_detector.observe("NtReadFile")
        assert verdict is not None and verdict.window_index == 0

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
