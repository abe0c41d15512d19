"""Integration tests: the full paper pipeline across module boundaries."""

import dataclasses

import numpy as np
import pytest

from repro.core.config import EngineConfig, OptimizationLevel
from repro.core.engine import CSDInferenceEngine, engine_at_level
from repro.core.weights import HostWeights
from repro.hw.smartssd import SmartSSD
from repro.nn.metrics import classification_report
from repro.nn.serialization import dump_weights
from repro.ransomware.detector import RansomwareDetector
from repro.ransomware.families import LOCKBIT, WANNACRY
from repro.ransomware.sandbox import CuckooSandbox
from repro.response.legacy import (
    MitigationEngine,
    ProtectedStorage,
    WriteBlocked,
)
from tests.conftest import TEST_SEQUENCE_LENGTH


class TestDeploymentPath:
    """Offline training -> text weight file -> host ingest -> CSD engine."""

    def test_weight_file_deployment_is_lossless(self, trained_model, tmp_path, rng):
        path = tmp_path / "deployed.txt"
        dump_weights(trained_model, path)
        engine = CSDInferenceEngine.from_weight_file(
            str(path), sequence_length=TEST_SEQUENCE_LENGTH
        )
        sequences = rng.integers(0, 278, size=(5, TEST_SEQUENCE_LENGTH))
        direct = engine_at_level(
            trained_model, OptimizationLevel.FIXED_POINT,
            sequence_length=TEST_SEQUENCE_LENGTH,
        )
        np.testing.assert_allclose(
            engine.predict_proba(sequences), direct.predict_proba(sequences)
        )

    def test_all_levels_agree_on_predictions(self, trained_model, tiny_split):
        """The optimisations must not change *what* is computed, only how
        fast: all three levels agree with the offline model's labels on
        the overwhelming majority of windows."""
        _, test = tiny_split
        sample = test.subset(np.arange(min(50, len(test))))
        reference = trained_model.predict(sample.sequences)
        for level in OptimizationLevel:
            engine = engine_at_level(
                trained_model, level, sequence_length=TEST_SEQUENCE_LENGTH
            )
            predictions = engine.predict(sample.sequences)
            agreement = float(np.mean(predictions == reference))
            assert agreement >= 0.96, level

    def test_fixed_point_probability_error_small(self, trained_model, tiny_split):
        _, test = tiny_split
        sample = test.subset(np.arange(min(30, len(test))))
        engine = engine_at_level(
            trained_model, OptimizationLevel.FIXED_POINT,
            sequence_length=TEST_SEQUENCE_LENGTH,
        )
        fixed = engine.predict_proba(sample.sequences)
        float_probs = trained_model.predict_proba(sample.sequences)
        # The PLAN sigmoid's ~0.019 per-gate error accumulates through the
        # recurrence; bounded drift on probabilities, decisions unchanged
        # (asserted in test_all_levels_agree_on_predictions).
        assert np.max(np.abs(fixed - float_probs)) < 0.15
        assert np.mean(np.abs(fixed - float_probs)) < 0.05

    def test_detection_metrics_consistent_between_model_and_engine(
        self, trained_model, tiny_split
    ):
        _, test = tiny_split
        sample = test.subset(np.arange(min(60, len(test))))
        engine = engine_at_level(
            trained_model, OptimizationLevel.FIXED_POINT,
            sequence_length=TEST_SEQUENCE_LENGTH,
        )
        model_metrics = classification_report(
            trained_model.predict(sample.sequences), sample.labels
        )
        engine_metrics = classification_report(
            engine.predict(sample.sequences), sample.labels
        )
        assert engine_metrics["accuracy"] == pytest.approx(
            model_metrics["accuracy"], abs=0.05
        )


class TestDetectAndMitigate:
    """The paper's motivating scenario: detection at the drive stops the
    encryption in flight."""

    def test_ransomware_write_burst_is_stopped(self, trained_model):
        engine = engine_at_level(
            trained_model, OptimizationLevel.FIXED_POINT,
            sequence_length=TEST_SEQUENCE_LENGTH,
        )
        detector = RansomwareDetector(engine, stride=5)
        storage = ProtectedStorage(SmartSSD().ssd)
        mitigation = MitigationEngine(storage)

        trace = CuckooSandbox(seed=21).execute_ransomware(LOCKBIT, 2)
        process_id = 1337
        blocked_at = None
        writes_before_block = 0
        detector.reset()
        for index, call in enumerate(trace.calls):
            # The malware writes an "encrypted file" on every NtWriteFile.
            if call == "NtWriteFile":
                try:
                    storage.write(process_id, f"file-{index}", 4096)
                    writes_before_block += 1
                except WriteBlocked:
                    blocked_at = index
                    break
            verdict = detector.observe(call)
            if verdict is not None:
                mitigation.handle_verdict(process_id, verdict)

        assert blocked_at is not None, "mitigation never engaged"
        # The bulk of the encryption happens after the alarm; most writes
        # must have been prevented.
        total_writes = sum(1 for c in trace.calls if c == "NtWriteFile")
        assert writes_before_block < 0.5 * total_writes
        assert mitigation.summary()["quarantined_processes"] == 1

    def test_detection_latency_is_microseconds(self, trained_model):
        engine = engine_at_level(
            trained_model, OptimizationLevel.FIXED_POINT,
            sequence_length=TEST_SEQUENCE_LENGTH,
        )
        detector = RansomwareDetector(engine)
        trace = CuckooSandbox(seed=5).execute_ransomware(WANNACRY, 1)
        report = detector.scan_trace(trace.calls)
        assert report.detected
        # One window's inference on the CSD is ~sequence_length items at
        # ~2.3 us/item: well under a millisecond.
        assert report.first_detection.inference_microseconds < 1000.0


class TestStorageIntegration:
    def test_p2p_inference_pipeline(self, trained_model, rng):
        engine = engine_at_level(
            trained_model, OptimizationLevel.FIXED_POINT,
            sequence_length=TEST_SEQUENCE_LENGTH,
        )
        device = SmartSSD()
        engine.attach_storage(device)
        sequence = rng.integers(0, 278, size=TEST_SEQUENCE_LENGTH)
        device.ssd.write_object("window-0", int(sequence.nbytes))
        result, transfer_seconds = engine.infer_from_storage("window-0", sequence)
        assert 0.0 <= result.probability <= 1.0
        # Transfer is storage-latency bound (~90 us), inference ~2 us/item;
        # both far below the CPU baseline's ~1 ms/item.
        assert transfer_seconds < 1e-3
        assert device.traffic_summary()["p2p"] == sequence.nbytes

    def test_weight_download_fits_fpga_dram(self, trained_model):
        weights = HostWeights.from_model(trained_model)
        device = SmartSSD()
        seconds = device.host_load_weights(weights.total_bytes())
        assert seconds < 1e-3  # ~30 KB of parameters: trivial download
