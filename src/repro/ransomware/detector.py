"""The end-to-end ransomware detector (paper Section IV use case).

:class:`RansomwareDetector` joins the trained classifier, deployed on the
CSD inference engine, with the streaming contract the paper implies: API
calls are observed "in the order in which they would be observed on a
system housing a CSD", buffered until a fully-formed sequence of 100 items
exists, and then classified; each subsequent call slides the window.

Detection latency matters (the whole point of in-storage inference is
"near-instantaneous mitigation"), so verdicts carry both the window index
and the simulated inference time.
"""

from __future__ import annotations

import collections
import dataclasses

import numpy as np

from repro.core.config import EngineConfig, OptimizationLevel
from repro.core.engine import CSDInferenceEngine
from repro.core.weights import HostWeights
from repro.nn.model import SequenceClassifier
from repro.nn.trainer import Trainer, TrainingConfig
from repro.ransomware.api_vocabulary import to_token_id
from repro.ransomware.dataset import Dataset


@dataclasses.dataclass(frozen=True)
class Verdict:
    """One window's classification."""

    window_index: int        # 0 = the first fully-formed window
    probability: float
    is_ransomware: bool
    inference_microseconds: float


@dataclasses.dataclass(frozen=True)
class DetectionReport:
    """Outcome of scanning a whole trace."""

    verdicts: tuple
    first_detection: Verdict | None
    window_length: int

    @property
    def detected(self) -> bool:
        return self.first_detection is not None

    @property
    def calls_until_detection(self) -> int | None:
        """API calls observed when the alarm fired (early-detection metric).

        Window ``w`` spans calls ``[w, w + window_length)``; its verdict
        fires once its last call has been observed, i.e. after
        ``w + window_length`` calls.
        """
        if self.first_detection is None:
            return None
        return self.first_detection.window_index + self.window_length


class RansomwareDetector:
    """Streaming window classifier on top of the CSD engine.

    Parameters
    ----------
    engine:
        A loaded :class:`~repro.core.engine.CSDInferenceEngine`.
    threshold:
        Ransomware probability above which a window raises a verdict.
    stride:
        Classify every ``stride``-th window once the buffer is full
        (1 = every call; larger strides trade detection latency for
        inference throughput).
    """

    def __init__(self, engine: CSDInferenceEngine, threshold: float = 0.5, stride: int = 1):
        if not 0.0 < threshold < 1.0:
            raise ValueError(f"threshold must be in (0, 1), got {threshold}")
        if stride < 1:
            raise ValueError(f"stride must be >= 1, got {stride}")
        self.engine = engine
        self.threshold = threshold
        self.stride = stride
        self._window_length = engine.config.dimensions.sequence_length
        self._vocabulary_size = engine.config.dimensions.vocab_size
        self._sequence_microseconds = engine.sequence_microseconds()
        self._buffer: collections.deque = collections.deque(maxlen=self._window_length)
        self._calls_seen = 0
        self._windows_classified = 0

    def reset(self) -> None:
        """Forget all buffered calls (e.g. when the watched process exits)."""
        self._buffer.clear()
        self._calls_seen = 0
        self._windows_classified = 0

    def observe(self, api_call) -> Verdict | None:
        """Feed one API call; returns a verdict when a window was classified.

        ``api_call`` may be an API name (string) or a token id; a bad one
        raises ``ValueError`` before it is buffered (see
        :func:`~repro.ransomware.api_vocabulary.to_token_id`).
        """
        self._buffer.append(to_token_id(api_call, self._vocabulary_size))
        self._calls_seen += 1
        if len(self._buffer) < self._window_length:
            return None
        window_index = self._calls_seen - self._window_length
        if window_index % self.stride != 0:
            return None
        result = self.engine.infer_sequence(list(self._buffer))
        self._windows_classified += 1
        verdict = Verdict(
            window_index=window_index,
            probability=result.probability,
            is_ransomware=result.probability >= self.threshold,
            inference_microseconds=self._sequence_microseconds,
        )
        telemetry = self.engine.telemetry
        if telemetry is not None:
            telemetry.counter(
                "repro_detector_verdicts_total",
                verdict="ransomware" if verdict.is_ransomware else "benign",
            ).inc()
        return verdict

    def scan_trace(self, api_calls, stop_at_first: bool = True) -> DetectionReport:
        """Scan a full trace; optionally stop at the first alarm."""
        self.reset()
        verdicts: list = []
        first: Verdict | None = None
        for call in api_calls:
            verdict = self.observe(call)
            if verdict is None:
                continue
            verdicts.append(verdict)
            if verdict.is_ransomware and first is None:
                first = verdict
                if stop_at_first:
                    break
        return DetectionReport(
            verdicts=tuple(verdicts),
            first_detection=first,
            window_length=self._window_length,
        )

    def evaluate(self, dataset: Dataset) -> dict:
        """Batch-classify a dataset split through the CSD engine.

        Runs the engine's vectorised batch path (one forward pass over the
        whole split, chunked for memory) rather than a per-sequence Python
        loop; the probabilities are bit-exact either way.

        Returns the paper's four metrics (accuracy/precision/recall/F1).
        Sequences must match the engine's configured window length.
        """
        from repro.nn.metrics import classification_report

        probabilities = self.engine.predict_proba(dataset.sequences)
        predictions = (probabilities >= self.threshold).astype(int)
        telemetry = self.engine.telemetry
        if telemetry is not None:
            telemetry.counter("repro_detector_evaluations_total").inc()
            telemetry.counter("repro_detector_windows_total").inc(len(dataset))
        return classification_report(predictions, dataset.labels)


def train_detector(
    dataset: Dataset,
    training: TrainingConfig | None = None,
    optimization: OptimizationLevel = OptimizationLevel.FIXED_POINT,
    threshold: float = 0.5,
    seed: int = 0,
    test_fraction: float = 0.2,
) -> tuple:
    """Offline-train a model on ``dataset`` and deploy it to a CSD engine.

    The full paper pipeline in one call: split, train, extract weights,
    host-initialise the engine, wrap in a detector.

    Returns
    -------
    tuple
        ``(detector, history, test_split)`` — the deployed detector, the
        training convergence history (Fig. 4), and the held-out split.
    """
    train_split, test_split = dataset.train_test_split(test_fraction, seed=seed)
    model = SequenceClassifier(seed=seed)
    trainer = Trainer(model, training or TrainingConfig())
    history = trainer.fit(
        train_split.sequences, train_split.labels,
        test_split.sequences, test_split.labels,
    )
    weights = HostWeights.from_model(model)
    config = EngineConfig(
        dimensions=dataclasses.replace(
            weights.dimensions, sequence_length=dataset.sequence_length
        ),
        optimization=optimization,
    )
    engine = CSDInferenceEngine(config, weights)
    return RansomwareDetector(engine, threshold=threshold), history, test_split
