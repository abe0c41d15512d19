"""The reference training recipe shared by fixtures and golden tooling.

The golden detector-regression test pins exact probabilities, so the
session fixtures in ``tests/conftest.py``, the golden test itself, and
``scripts/refresh_golden_scores.py`` must all build the *same* model
from the same dataset, split, seeds, and trainer settings.  That recipe
lives here, in exactly one place.  If you change anything in this
module, regenerate the golden file:

.. code-block:: bash

    PYTHONPATH=src python scripts/refresh_golden_scores.py
"""

from __future__ import annotations

from repro.core.config import OptimizationLevel
from repro.core.engine import engine_at_level
from repro.nn.model import SequenceClassifier
from repro.nn.trainer import Trainer, TrainingConfig
from repro.ransomware.dataset import build_dataset
from repro.ransomware.detector import RansomwareDetector

#: Shorter than the paper's 100 to keep per-test inference cheap, but
#: long enough that windows carry usable temporal signal.
REFERENCE_SEQUENCE_LENGTH = 60

#: How many held-out sequences the golden file pins per optimisation
#: level.  Small on purpose: the point is catching numerical drift, not
#: measuring accuracy (the benchmarks do that).
GOLDEN_SAMPLE_COUNT = 10


def build_reference_dataset():
    """The small class-balanced synthetic dataset the recipe starts from."""
    return build_dataset(
        scale=0.04, sequence_length=REFERENCE_SEQUENCE_LENGTH, seed=7
    )


def build_reference_split(dataset=None):
    """The train/test split every reference artefact derives from."""
    if dataset is None:
        dataset = build_reference_dataset()
    return dataset.train_test_split(test_fraction=0.25, seed=0)


def train_reference_model(train_split, test_split) -> SequenceClassifier:
    """Train the reference classifier (deterministic: seeds pinned)."""
    model = SequenceClassifier(seed=0)
    trainer = Trainer(
        model,
        TrainingConfig(epochs=10, batch_size=32, learning_rate=0.005,
                       eval_every=5, restore_best_weights=True),
    )
    trainer.fit(train_split.sequences, train_split.labels,
                test_split.sequences, test_split.labels)
    return model


# ----------------------------------------------------------------------
# Generalisation (leave-k-families-out) golden recipe
# ----------------------------------------------------------------------

#: The pinned harness run behind
#: ``tests/integration/golden/generalization_recall.json``: one
#: leave-2-out fold of every modality, evaluated at every
#: OptimizationLevel.  Small on purpose — the committed
#: ``BENCH_generalization.json`` carries the full partition.
def reference_generalization_config():
    from repro.ransomware.generalization import GeneralizationConfig

    return GeneralizationConfig(
        modalities=("api", "block_io", "filesystem"),
        held_out_per_fold=2,
        folds=1,
        scale=0.02,
        sequence_length=REFERENCE_SEQUENCE_LENGTH,
        seed=7,
        epochs=4,
        optimizations=tuple(OptimizationLevel),
    )


def golden_generalization_recall() -> dict:
    """Held-out recall per (modality, level, family) for the pinned run.

    Returns a JSON-able mapping ``modality -> level ->
    {held_out_recall, recall_gap, per_family}`` plus the fold's held-out
    family list under ``"_held_out"``.
    """
    from repro.ransomware.generalization import evaluate_generalization

    report = evaluate_generalization(reference_generalization_config())
    recall: dict = {"_held_out": sorted(report.fold_sets[0])}
    for result in report.modalities:
        (fold,) = result.folds
        recall[result.modality] = {
            metrics.optimization: {
                "held_out_recall": metrics.held_out_recall,
                "recall_gap": metrics.recall_gap,
                "per_family": dict(sorted(metrics.per_family_recall.items())),
            }
            for metrics in fold.levels
        }
    return recall


def golden_detector_scores(model, test_split, backend: str = "reference") -> dict:
    """Detector probabilities per optimisation level on the pinned subset.

    Each pinned sequence is streamed through a fresh
    :class:`~repro.ransomware.detector.RansomwareDetector` (stride 1), so
    every score travels the full deployed path: buffer fill, window
    formation, CSD engine inference.  ``backend`` selects the kernel
    backend under test; every backend must reproduce the golden scores
    bit-exactly.
    """
    sequences = test_split.sequences[:GOLDEN_SAMPLE_COUNT]
    scores: dict = {}
    for level in OptimizationLevel:
        engine = engine_at_level(
            model, level, sequence_length=REFERENCE_SEQUENCE_LENGTH,
            backend=backend,
        )
        detector = RansomwareDetector(engine)
        level_scores = []
        for sequence in sequences:
            report = detector.scan_trace(
                [int(t) for t in sequence], stop_at_first=False
            )
            assert len(report.verdicts) == 1
            level_scores.append(report.verdicts[0].probability)
        scores[level.name] = level_scores
    return scores
