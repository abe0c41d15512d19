"""Mini-batch training loop with convergence tracking (paper Fig. 4).

The paper trains the 7,472-parameter LSTM "until convergence", reaching
peak test accuracy 0.9833 around 4K epochs, and plots test accuracy vs
epoch.  :class:`Trainer` reproduces that procedure: shuffled mini-batch
epochs, gradient clipping, periodic held-out evaluation, and a recorded
:class:`ConvergenceHistory` the Fig. 4 benchmark replays.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.nn.kernels import DEFAULT_TRAIN_BACKEND, resolve_training_backend
from repro.nn.metrics import ConfusionMatrix, confusion_matrix
from repro.nn.model import SequenceClassifier
from repro.nn.optimizers import Adam, Optimizer, clip_gradients


@dataclasses.dataclass(frozen=True)
class EpochRecord:
    """One evaluation point on the convergence curve."""

    epoch: int
    train_loss: float
    test_accuracy: float
    test_precision: float
    test_recall: float
    test_f1: float


@dataclasses.dataclass
class ConvergenceHistory:
    """Accumulated evaluation points across a training run."""

    records: list = dataclasses.field(default_factory=list)

    def append(self, record: EpochRecord) -> None:
        self.records.append(record)

    @property
    def epochs(self) -> list:
        return [r.epoch for r in self.records]

    @property
    def accuracies(self) -> list:
        return [r.test_accuracy for r in self.records]

    @property
    def peak(self) -> EpochRecord:
        """The record with the highest test accuracy (Fig. 4's peak)."""
        if not self.records:
            raise ValueError("history is empty")
        return max(self.records, key=lambda r: r.test_accuracy)


@dataclasses.dataclass
class TrainingConfig:
    """Hyper-parameters for a training run.

    Defaults are sized for the synthetic dataset in this repo; the paper's
    run (4K epochs, 29K sequences) is the same loop with bigger numbers.
    """

    epochs: int = 30
    batch_size: int = 64
    learning_rate: float = 0.003
    gradient_clip: float = 5.0
    eval_every: int = 1
    shuffle: bool = True
    seed: int = 0
    early_stop_accuracy: float | None = None
    #: Multiplicative learning-rate decay applied each epoch (1.0 = none).
    lr_decay: float = 1.0
    #: L2 weight decay coefficient added to every gradient (0.0 = none).
    weight_decay: float = 0.0
    #: Snapshot parameters at every new accuracy peak and restore them
    #: after training — the paper reports its metrics "at this juncture"
    #: (the peak), which is what deployment would ship.
    restore_best_weights: bool = False
    #: Training kernel backend (see ``repro.nn.kernels``): the fused BPTT
    #: pass (the default) or the ``"reference"`` oracle it is bit-exact
    #: with.  Excluded from the model-cache key precisely because backends
    #: are bit-exact with each other.
    backend: str = DEFAULT_TRAIN_BACKEND


class Trainer:
    """Trains a :class:`SequenceClassifier` and records convergence.

    Parameters
    ----------
    model:
        The classifier to train (mutated in place).
    config:
        Hyper-parameters; see :class:`TrainingConfig`.
    optimizer:
        Optional optimiser instance; defaults to Adam at the configured
        learning rate (the TensorFlow default the paper implies).  Supplying
        a custom optimiser bypasses the model cache, whose key only covers
        the default-Adam trajectory.
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry`; the training kernel
        and cache count their batches/fallbacks/hits against it.
    cache:
        Optional :class:`~repro.nn.cache.ModelCache`.  When set (and the
        optimiser is the default), :meth:`fit` first looks up the
        content-addressed key of this exact run and, on a hit, restores the
        trained weights + history without training a single batch.
    """

    def __init__(
        self,
        model: SequenceClassifier,
        config: TrainingConfig | None = None,
        optimizer: Optimizer | None = None,
        telemetry=None,
        cache=None,
    ):
        self.model = model
        self.config = config or TrainingConfig()
        self._default_optimizer = optimizer is None
        self.optimizer = optimizer or Adam(learning_rate=self.config.learning_rate)
        self.telemetry = telemetry
        self.cache = cache
        self.kernel = resolve_training_backend(
            self.config.backend, model, telemetry=telemetry
        )
        self.history = ConvergenceHistory()

    def _iterate_batches(self, rng: np.random.Generator, sequences, labels):
        """Yield shuffled mini-batches for one epoch."""
        count = sequences.shape[0]
        order = rng.permutation(count) if self.config.shuffle else np.arange(count)
        for start in range(0, count, self.config.batch_size):
            batch = order[start : start + self.config.batch_size]
            yield sequences[batch], labels[batch]

    @staticmethod
    def _validate_eval_split(sequences, labels) -> tuple:
        """Reject empty or mismatched eval splits with a clear error.

        Without this, a bad split surfaces much later as a confusion-matrix
        division artifact (NaN accuracy) or a silent broadcast.
        """
        sequences = np.asarray(sequences)
        labels = np.asarray(labels)
        if sequences.shape[0] != labels.shape[0]:
            raise ValueError(
                f"eval sequence/label count mismatch: {sequences.shape[0]} vs "
                f"{labels.shape[0]}"
            )
        if sequences.shape[0] == 0:
            raise ValueError("cannot evaluate on an empty test split")
        return sequences, labels

    def evaluate(self, sequences: np.ndarray, labels: np.ndarray) -> ConfusionMatrix:
        """Evaluate the current model on a held-out split."""
        sequences, labels = self._validate_eval_split(sequences, labels)
        predictions = self.model.predict(sequences)
        return confusion_matrix(predictions, labels)

    def fit(
        self,
        train_sequences: np.ndarray,
        train_labels: np.ndarray,
        test_sequences: np.ndarray,
        test_labels: np.ndarray,
    ) -> ConvergenceHistory:
        """Run the full training loop.

        Parameters
        ----------
        train_sequences, train_labels:
            Training split: ``(N, T)`` int token ids and ``(N,)`` binary labels.
        test_sequences, test_labels:
            Held-out split evaluated every ``config.eval_every`` epochs.

        Returns
        -------
        ConvergenceHistory
            One record per evaluation epoch (the Fig. 4 curve).
        """
        train_sequences = np.asarray(train_sequences)
        train_labels = np.asarray(train_labels)
        if train_sequences.shape[0] != train_labels.shape[0]:
            raise ValueError(
                f"sequence/label count mismatch: {train_sequences.shape[0]} vs "
                f"{train_labels.shape[0]}"
            )
        if train_sequences.shape[0] == 0:
            raise ValueError("cannot train on an empty dataset")
        test_sequences, test_labels = self._validate_eval_split(
            test_sequences, test_labels
        )

        # The content-addressed cache key covers the initial weights, the
        # config (minus the bit-exact backend choice), and both splits —
        # everything the default-Adam trajectory is a pure function of.
        cache_key = None
        if self.cache is not None and self._default_optimizer:
            cache_key = self.cache.key_for(
                self.model, self.config,
                train_sequences, train_labels, test_sequences, test_labels,
            )
            cached = self.cache.load(cache_key, self.model)
            if cached is not None:
                self.history.records.extend(cached.records)
                return self.history
        records_before = len(self.history.records)

        rng = np.random.default_rng(self.config.seed)
        params = self.model.parameters()
        best_accuracy = -1.0
        best_weights = None

        for epoch in range(1, self.config.epochs + 1):
            epoch_loss_sum = 0.0
            epoch_sample_count = 0
            for batch_sequences, batch_labels in self._iterate_batches(
                rng, train_sequences, train_labels
            ):
                loss, grads = self.kernel.train_batch(batch_sequences, batch_labels)
                if self.config.weight_decay:
                    for key, grad in grads.items():
                        grad += self.config.weight_decay * params[key]
                clip_gradients(grads, self.config.gradient_clip)
                self.optimizer.step(params, grads)
                # Sample-weighted epoch loss: a short final mini-batch must
                # not count as much as a full one.
                epoch_loss_sum += loss * batch_labels.shape[0]
                epoch_sample_count += batch_labels.shape[0]
            if self.config.lr_decay != 1.0 and hasattr(self.optimizer, "learning_rate"):
                self.optimizer.learning_rate *= self.config.lr_decay

            if epoch % self.config.eval_every == 0 or epoch == self.config.epochs:
                matrix = self.evaluate(test_sequences, test_labels)
                self.history.append(
                    EpochRecord(
                        epoch=epoch,
                        train_loss=epoch_loss_sum / epoch_sample_count,
                        test_accuracy=matrix.accuracy,
                        test_precision=matrix.precision,
                        test_recall=matrix.recall,
                        test_f1=matrix.f1,
                    )
                )
                if self.config.restore_best_weights and matrix.accuracy > best_accuracy:
                    best_accuracy = matrix.accuracy
                    best_weights = self.model.get_weights()
                if (
                    self.config.early_stop_accuracy is not None
                    and matrix.accuracy >= self.config.early_stop_accuracy
                ):
                    break

        if self.config.restore_best_weights and best_weights is not None:
            self.model.set_weights(best_weights)
        if cache_key is not None:
            self.cache.store(
                cache_key, self.model, self.history.records[records_before:]
            )
        return self.history
