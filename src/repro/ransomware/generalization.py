"""Leave-k-families-out generalisation harness (ROADMAP item 2).

IBM's block-storage study (arXiv 2412.21084) makes the credible critique
of every ransomware detector evaluated the paper's way: shuffled-window
splits leak execution structure across the train/test boundary, so
in-distribution numbers say nothing about the families the model has
never seen — and held-out-family recall is where detectors collapse.
This module runs that exact protocol over the synthetic family
generator, for every signal source in
:data:`repro.ransomware.traces.MODALITIES` (API calls, block I/O,
filesystem events), through the unchanged embedding+LSTM engine:

1. partition the 10 families into leave-``k``-out folds (each family
   held out exactly once across the fold set);
2. per fold: drop the held-out families' windows entirely, train on the
   rest (with a window-level validation split), deploy on the CSD
   engine at each requested :class:`~repro.core.config.OptimizationLevel`;
3. report per-family held-out recall, held-out AUC/precision against
   never-trained benign traffic, and the **recall gap** — in-distribution
   recall minus held-out recall, the block-storage paper's headline
   number (0 = generalises perfectly, large = memorised the families).

Everything is deterministic from ``GeneralizationConfig.seed``:
datasets, fold partition, training, and therefore every reported
number — ``BENCH_generalization.json`` is reproduced bit-identically.

Telemetry (``repro_gen_*``, documented in ``docs/observability.md``) is
attached per the observability contract when a
:class:`~repro.telemetry.Telemetry` session is supplied.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.core.config import OptimizationLevel
from repro.core.engine import engine_at_level
from repro.core.parallel import parallel_map
from repro.nn.cache import ModelCache
from repro.nn.kernels import DEFAULT_TRAIN_BACKEND, available_training_backends
from repro.nn.metrics import auc, classification_report, confusion_matrix
from repro.nn.model import SequenceClassifier
from repro.nn.trainer import Trainer, TrainingConfig
from repro.ransomware.dataset import DEFAULT_STRIDE, Dataset
from repro.ransomware.families import ALL_FAMILIES
from repro.ransomware.traces import MODALITIES


@dataclasses.dataclass(frozen=True)
class GeneralizationConfig:
    """One harness run's full recipe (deterministic given ``seed``)."""

    #: Signal sources to evaluate, by :data:`MODALITIES` key.
    modalities: tuple = ("api", "block_io", "filesystem")
    #: Families held out per fold (the ``k`` in leave-k-out).
    held_out_per_fold: int = 2
    #: Number of folds to run; ``None`` runs the full partition so every
    #: family is held out exactly once.
    folds: int | None = None
    #: Dataset scale (fraction of the paper's 29K windows) per modality.
    scale: float = 0.04
    sequence_length: int = 60
    stride: int = DEFAULT_STRIDE
    seed: int = 7
    #: Detection threshold for recall/precision.
    threshold: float = 0.5
    #: Engine rungs to deploy and report at.
    optimizations: tuple = (OptimizationLevel.FIXED_POINT,)
    epochs: int = 10
    learning_rate: float = 0.005
    #: Validation fraction carved from the training families' windows.
    test_fraction: float = 0.2
    #: With ``workers > 1`` the independent (modality, fold) tasks run
    #: concurrently on :func:`repro.core.parallel.parallel_map` (results
    #: and telemetry merge in fold order — bit-identical to ``workers=1``).
    workers: int = 1
    #: Training kernel backend (``repro.nn.kernels``); ``"fused"`` is
    #: bit-exact with ``"reference"`` and ~4x faster on a compiled tier.
    train_backend: str = DEFAULT_TRAIN_BACKEND
    #: Optional directory for the content-addressed model cache: repeat
    #: runs with identical recipes restore every trained model from disk
    #: (``repro_train_cache_hits_total``) instead of retraining.
    cache_dir: str | None = None

    def __post_init__(self) -> None:
        if not self.modalities:
            raise ValueError("need at least one modality")
        unknown = [m for m in self.modalities if m not in MODALITIES]
        if unknown:
            raise ValueError(
                f"unknown modalities {unknown}; available: {sorted(MODALITIES)}"
            )
        if not 1 <= self.held_out_per_fold < len(ALL_FAMILIES):
            raise ValueError(
                f"held_out_per_fold must be in [1, {len(ALL_FAMILIES) - 1}], "
                f"got {self.held_out_per_fold}"
            )
        if self.folds is not None and self.folds < 1:
            raise ValueError(f"folds must be positive, got {self.folds}")
        if self.workers < 1:
            raise ValueError(f"workers must be positive, got {self.workers}")
        if self.train_backend not in available_training_backends():
            raise ValueError(
                f"unknown train backend {self.train_backend!r}; "
                f"available: {available_training_backends()}"
            )


def leave_k_out_folds(
    family_names, k: int, folds: int | None = None, seed: int = 0
) -> tuple:
    """Partition ``family_names`` into leave-``k``-out held-out groups.

    The names are permuted deterministically from ``seed`` and chunked
    into groups of ``k`` (the last group may be smaller), so the full
    partition holds every family out exactly once.  ``folds`` truncates
    to the first ``folds`` groups for quick runs.
    """
    names = list(family_names)
    if not names:
        raise ValueError("no family names to partition")
    if not 1 <= k <= len(names):
        raise ValueError(f"k must be in [1, {len(names)}], got {k}")
    order = np.random.default_rng(seed).permutation(len(names))
    permuted = [names[i] for i in order]
    groups = [
        tuple(sorted(permuted[start : start + k]))
        for start in range(0, len(permuted), k)
    ]
    if folds is not None:
        groups = groups[:folds]
    return tuple(groups)


@dataclasses.dataclass(frozen=True)
class LevelMetrics:
    """One (fold, OptimizationLevel) evaluation."""

    optimization: str
    #: accuracy/precision/recall/f1 on the in-distribution test split.
    in_distribution: dict
    in_distribution_auc: float
    #: Recall over the held-out families' windows (all positives).
    held_out_recall: float
    #: AUC/precision over held-out positives vs in-distribution benign
    #: test windows (benign traffic the model was also not trained on).
    held_out_auc: float
    held_out_precision: float
    #: in-distribution recall minus held-out recall: the headline number.
    recall_gap: float
    #: family name -> recall over that family's held-out windows.
    per_family_recall: dict

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclasses.dataclass(frozen=True)
class FoldResult:
    """One leave-k-out fold for one modality."""

    fold_index: int
    held_out: tuple
    train_windows: int
    in_distribution_windows: int
    held_out_windows: int
    levels: tuple

    def level(self, optimization) -> LevelMetrics:
        name = getattr(optimization, "name", optimization)
        for metrics in self.levels:
            if metrics.optimization == name:
                return metrics
        raise KeyError(f"fold was not evaluated at {name}")

    def as_dict(self) -> dict:
        return {
            "fold_index": self.fold_index,
            "held_out": list(self.held_out),
            "train_windows": self.train_windows,
            "in_distribution_windows": self.in_distribution_windows,
            "held_out_windows": self.held_out_windows,
            "levels": [metrics.as_dict() for metrics in self.levels],
        }


@dataclasses.dataclass(frozen=True)
class ModalityResult:
    """All folds for one signal source."""

    modality: str
    vocabulary_size: int
    folds: tuple

    def per_family_recall(self, optimization) -> dict:
        """family -> held-out recall, merged across folds."""
        merged: dict = {}
        for fold in self.folds:
            merged.update(fold.level(optimization).per_family_recall)
        return dict(sorted(merged.items()))

    def mean_held_out_recall(self, optimization) -> float:
        values = [fold.level(optimization).held_out_recall for fold in self.folds]
        return float(np.mean(values))

    def mean_recall_gap(self, optimization) -> float:
        values = [fold.level(optimization).recall_gap for fold in self.folds]
        return float(np.mean(values))

    def as_dict(self) -> dict:
        return {
            "modality": self.modality,
            "vocabulary_size": self.vocabulary_size,
            "folds": [fold.as_dict() for fold in self.folds],
        }


@dataclasses.dataclass(frozen=True)
class GeneralizationReport:
    """Full harness outcome: modality x fold x level."""

    config: GeneralizationConfig
    fold_sets: tuple
    modalities: tuple

    def modality(self, name: str) -> ModalityResult:
        for result in self.modalities:
            if result.modality == name:
                return result
        raise KeyError(f"modality {name!r} not in report")

    def as_dict(self) -> dict:
        """Plain JSON-able document (the BENCH_generalization.json body)."""
        return {
            "protocol": "leave-k-families-out",
            "config": {
                "modalities": list(self.config.modalities),
                "held_out_per_fold": self.config.held_out_per_fold,
                "folds": len(self.fold_sets),
                "scale": self.config.scale,
                "sequence_length": self.config.sequence_length,
                "seed": self.config.seed,
                "threshold": self.config.threshold,
                "optimizations": [
                    level.name for level in self.config.optimizations
                ],
                "epochs": self.config.epochs,
            },
            "fold_sets": [list(fold) for fold in self.fold_sets],
            "modalities": [result.as_dict() for result in self.modalities],
        }


def evaluate_generalization(
    config: GeneralizationConfig | None = None,
    telemetry=None,
    progress=None,
) -> GeneralizationReport:
    """Run the leave-k-families-out protocol for every configured modality.

    Parameters
    ----------
    config:
        The full recipe; defaults to :class:`GeneralizationConfig`'s
        defaults (all three modalities, full fold partition).
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry` session; emits the
        ``repro_gen_*`` metrics documented in ``docs/observability.md``.
    progress:
        Optional callable receiving one human-readable line per step
        (the CLI passes ``print``).
    """
    config = config or GeneralizationConfig()
    emit = progress or (lambda line: None)
    family_names = [family.name for family in ALL_FAMILIES]
    fold_sets = leave_k_out_folds(
        family_names, config.held_out_per_fold,
        folds=config.folds, seed=config.seed,
    )

    # Every dataset is deterministic from config.seed alone, so they can
    # all be materialised upfront (parent-side) before any fold runs —
    # which is what lets the fold pool fork with the data already built.
    datasets: dict = {}
    for modality_name in config.modalities:
        modality = MODALITIES[modality_name]
        emit(f"[{modality_name}] building dataset "
             f"(scale {config.scale}, vocab {modality.vocabulary.size})")
        datasets[modality_name] = modality.build_dataset(
            scale=config.scale,
            sequence_length=config.sequence_length,
            stride=config.stride,
            seed=config.seed,
            shuffle=True,
        )

    # One task per (modality, fold): every task is independent, so they
    # go through parallel_map as a flat list.  With workers=1 this is the
    # plain serial loop (tasks run in order, in process, on the parent
    # telemetry session); with workers>1 the folds run concurrently,
    # progress lines are replayed parent-side in fold order, and per-worker
    # telemetry merges deterministically — same results either way.
    tasks = [
        (modality_name, fold_index)
        for modality_name in config.modalities
        for fold_index in range(len(fold_sets))
    ]
    pooled = config.workers > 1 and len(tasks) > 1
    task_emit = (lambda line: None) if pooled else emit

    def _run_task(index: int, task_telemetry) -> FoldResult:
        modality_name, fold_index = tasks[index]
        return _evaluate_fold(
            modality_name, datasets[modality_name], fold_index,
            fold_sets[fold_index], config, task_telemetry, task_emit,
        )

    fold_results = parallel_map(
        _run_task, len(tasks),
        workers=config.workers if pooled else 1,
        telemetry=telemetry,
    )

    modality_results: list = []
    for modality_name in config.modalities:
        folds = tuple(
            fold_results[index]
            for index, (task_modality, _) in enumerate(tasks)
            if task_modality == modality_name
        )
        if pooled:
            for fold in folds:
                for metrics in fold.levels:
                    emit(
                        f"[{modality_name}] fold {fold.fold_index} "
                        f"({', '.join(fold.held_out)}) {metrics.optimization}: "
                        f"id-recall {metrics.in_distribution['recall']:.3f} "
                        f"held-out {metrics.held_out_recall:.3f} "
                        f"gap {metrics.recall_gap:+.3f}"
                    )
        modality_results.append(
            ModalityResult(
                modality=modality_name,
                vocabulary_size=MODALITIES[modality_name].vocabulary.size,
                folds=folds,
            )
        )
        if telemetry is not None:
            result = modality_results[-1]
            for level in config.optimizations:
                telemetry.gauge(
                    "repro_gen_recall_gap",
                    modality=modality_name, optimization=level.name,
                ).set(result.mean_recall_gap(level))
            primary = config.optimizations[0]
            for family, recall in result.per_family_recall(primary).items():
                telemetry.gauge(
                    "repro_gen_heldout_recall",
                    modality=modality_name, family=family,
                ).set(recall)

    return GeneralizationReport(
        config=config,
        fold_sets=fold_sets,
        modalities=tuple(modality_results),
    )


def _evaluate_fold(
    modality_name: str,
    dataset: Dataset,
    fold_index: int,
    held_out: tuple,
    config: GeneralizationConfig,
    telemetry,
    emit,
) -> FoldResult:
    """Train on all but ``held_out`` families; evaluate both sides."""
    in_distribution_full, held_out_set = dataset.split_by_source(held_out)
    train_split, test_split = in_distribution_full.train_test_split(
        config.test_fraction, seed=config.seed
    )

    model = SequenceClassifier(
        vocab_size=MODALITIES[modality_name].vocabulary.size, seed=config.seed
    )
    trainer = Trainer(
        model,
        TrainingConfig(
            epochs=config.epochs, eval_every=config.epochs,
            learning_rate=config.learning_rate, seed=config.seed,
            backend=config.train_backend,
        ),
        telemetry=telemetry,
        cache=ModelCache(config.cache_dir, telemetry) if config.cache_dir else None,
    )
    trainer.fit(
        train_split.sequences, train_split.labels,
        test_split.sequences, test_split.labels,
    )

    if telemetry is not None:
        telemetry.counter("repro_gen_folds_total", modality=modality_name).inc()
        for split_name, split in (
            ("train", train_split),
            ("in_distribution", test_split),
            ("held_out", held_out_set),
        ):
            telemetry.counter(
                "repro_gen_windows_total",
                modality=modality_name, split=split_name,
            ).inc(len(split))

    held_sources = np.array(held_out_set.sources)
    benign_mask = test_split.labels == 0
    levels: list = []
    for level in config.optimizations:
        engine = engine_at_level(
            model, level, sequence_length=config.sequence_length
        )
        if telemetry is not None:
            engine.attach_telemetry(telemetry)
        id_probs = engine.predict_proba(test_split.sequences)
        held_probs = engine.predict_proba(held_out_set.sequences)

        id_predictions = (id_probs >= config.threshold).astype(int)
        in_distribution = classification_report(id_predictions, test_split.labels)
        in_distribution_auc = auc(id_probs, test_split.labels)

        held_predictions = (held_probs >= config.threshold).astype(int)
        held_out_recall = float(held_predictions.mean())
        per_family = {
            family: float(held_predictions[held_sources == family].mean())
            for family in held_out
        }
        # Held-out discrimination: the held-out families' windows against
        # benign *test* windows (neither side was trained on).
        mixed_scores = np.concatenate([held_probs, id_probs[benign_mask]])
        mixed_labels = np.concatenate([
            np.ones(len(held_probs), dtype=int),
            np.zeros(int(benign_mask.sum()), dtype=int),
        ])
        held_out_auc = auc(mixed_scores, mixed_labels)
        held_out_precision = confusion_matrix(
            (mixed_scores >= config.threshold).astype(int), mixed_labels
        ).precision

        metrics = LevelMetrics(
            optimization=level.name,
            in_distribution=in_distribution,
            in_distribution_auc=in_distribution_auc,
            held_out_recall=held_out_recall,
            held_out_auc=held_out_auc,
            held_out_precision=held_out_precision,
            recall_gap=in_distribution["recall"] - held_out_recall,
            per_family_recall=per_family,
        )
        levels.append(metrics)
        emit(
            f"[{modality_name}] fold {fold_index} ({', '.join(held_out)}) "
            f"{level.name}: id-recall {in_distribution['recall']:.3f} "
            f"held-out {held_out_recall:.3f} gap {metrics.recall_gap:+.3f}"
        )

    return FoldResult(
        fold_index=fold_index,
        held_out=held_out,
        train_windows=len(train_split),
        in_distribution_windows=len(test_split),
        held_out_windows=len(held_out_set),
        levels=tuple(levels),
    )
