"""Tests for the SequenceClassifier model and the training loop."""

import numpy as np
import pytest

from repro.nn.activations import sigmoid
from repro.nn.model import (
    PAPER_EMBEDDING_DIM,
    PAPER_HIDDEN_SIZE,
    PAPER_VOCAB_SIZE,
    SequenceClassifier,
)
from repro.nn.optimizers import Adam, SGD
from repro.nn.trainer import ConvergenceHistory, EpochRecord, Trainer, TrainingConfig


class TestModel:
    def test_paper_parameter_counts(self):
        model = SequenceClassifier()
        assert model.embedding.parameter_count == 2224
        assert model.lstm.parameter_count == 5248
        assert model.embedding.parameter_count + model.lstm.parameter_count == 7472
        assert model.head.parameter_count == 33

    def test_paper_constants(self):
        assert (PAPER_VOCAB_SIZE, PAPER_EMBEDDING_DIM, PAPER_HIDDEN_SIZE) == (278, 8, 32)

    def test_logits_shape(self, rng):
        model = SequenceClassifier(vocab_size=12, embedding_dim=4, hidden_size=5)
        x = rng.integers(0, 12, size=(3, 7))
        assert model.forward_logits(x).shape == (3,)

    def test_proba_in_unit_interval(self, rng):
        model = SequenceClassifier(vocab_size=12, embedding_dim=4, hidden_size=5)
        probs = model.predict_proba(rng.integers(0, 12, size=(5, 7)))
        assert np.all((probs > 0) & (probs < 1))

    def test_predict_threshold(self, rng):
        model = SequenceClassifier(vocab_size=12, embedding_dim=4, hidden_size=5)
        x = rng.integers(0, 12, size=(5, 7))
        probs = model.predict_proba(x)
        np.testing.assert_array_equal(model.predict(x, threshold=0.0), np.ones(5))
        np.testing.assert_array_equal(
            model.predict(x), (probs >= 0.5).astype(int)
        )

    def test_predict_proba_equals_forward_logits_bitwise(self, rng):
        model = SequenceClassifier(vocab_size=12, embedding_dim=4, hidden_size=5)
        x = rng.integers(0, 12, size=(9, 7))
        np.testing.assert_array_equal(
            model.predict_proba(x), sigmoid(model.forward_logits(x))
        )

    def test_predict_leaves_training_caches_alone(self, rng):
        model = SequenceClassifier(vocab_size=12, embedding_dim=4, hidden_size=5)
        model.train_batch(rng.integers(0, 12, size=(3, 7)), np.array([0, 1, 1]))
        caches = (model.lstm._cache, model.embedding._cached_ids,
                  model.head._cached_input)
        model.predict(rng.integers(0, 12, size=(5, 11)))
        assert model.lstm._cache is caches[0]
        assert model.embedding._cached_ids is caches[1]
        assert model.head._cached_input is caches[2]

    def test_predict_rejects_out_of_range_ids(self):
        model = SequenceClassifier(vocab_size=12, embedding_dim=4, hidden_size=5)
        with pytest.raises(ValueError, match="token ids"):
            model.predict(np.array([[0, 12]]))

    def test_deterministic_given_seed(self, rng):
        x = rng.integers(0, 12, size=(2, 7))
        a = SequenceClassifier(vocab_size=12, embedding_dim=4, hidden_size=5, seed=9)
        b = SequenceClassifier(vocab_size=12, embedding_dim=4, hidden_size=5, seed=9)
        np.testing.assert_array_equal(a.predict_proba(x), b.predict_proba(x))

    def test_weights_round_trip_preserves_outputs(self, rng):
        x = rng.integers(0, 12, size=(2, 7))
        a = SequenceClassifier(vocab_size=12, embedding_dim=4, hidden_size=5, seed=1)
        b = SequenceClassifier(vocab_size=12, embedding_dim=4, hidden_size=5, seed=2)
        b.set_weights(a.get_weights())
        np.testing.assert_allclose(a.predict_proba(x), b.predict_proba(x))

    def test_set_weights_rejects_wrong_count(self):
        model = SequenceClassifier(vocab_size=12, embedding_dim=4, hidden_size=5)
        with pytest.raises(ValueError):
            model.set_weights(model.get_weights()[:5])

    def test_parameters_are_live_views(self, rng):
        model = SequenceClassifier(vocab_size=12, embedding_dim=4, hidden_size=5)
        params = model.parameters()
        params["head/b"] += 1.0
        assert model.head.b[0] == 1.0

    def test_train_batch_gradient_keys_match_parameters(self, rng):
        model = SequenceClassifier(vocab_size=12, embedding_dim=4, hidden_size=5)
        x = rng.integers(0, 12, size=(3, 7))
        y = rng.integers(0, 2, size=3)
        _, grads = model.train_batch(x, y)
        assert set(grads) == set(model.parameters())

    def test_training_reduces_loss(self, rng):
        model = SequenceClassifier(vocab_size=12, embedding_dim=4, hidden_size=6, seed=0)
        x = rng.integers(0, 12, size=(32, 10))
        y = (x[:, -1] > 5).astype(int)  # learnable from the last token
        optimizer = Adam(learning_rate=0.02)
        params = model.parameters()
        first_loss, grads = model.train_batch(x, y)
        for _ in range(60):
            loss, grads = model.train_batch(x, y)
            optimizer.step(params, grads)
        assert loss < first_loss * 0.5


class TestTrainer:
    def _toy_data(self, rng, count=48, length=10):
        x = rng.integers(0, 12, size=(count, length))
        y = (x[:, -1] > 5).astype(int)
        return x, y

    def test_fit_returns_history(self, rng):
        x, y = self._toy_data(rng)
        model = SequenceClassifier(vocab_size=12, embedding_dim=4, hidden_size=6)
        trainer = Trainer(model, TrainingConfig(epochs=3, batch_size=16, eval_every=1))
        history = trainer.fit(x, y, x, y)
        assert len(history.records) == 3
        assert history.epochs == [1, 2, 3]

    def test_eval_every_spacing(self, rng):
        x, y = self._toy_data(rng)
        model = SequenceClassifier(vocab_size=12, embedding_dim=4, hidden_size=6)
        trainer = Trainer(model, TrainingConfig(epochs=6, eval_every=3))
        history = trainer.fit(x, y, x, y)
        assert history.epochs == [3, 6]

    def test_final_epoch_always_evaluated(self, rng):
        x, y = self._toy_data(rng)
        model = SequenceClassifier(vocab_size=12, embedding_dim=4, hidden_size=6)
        trainer = Trainer(model, TrainingConfig(epochs=5, eval_every=3))
        history = trainer.fit(x, y, x, y)
        assert history.epochs[-1] == 5

    def test_early_stop(self, rng):
        x, y = self._toy_data(rng, count=64)
        model = SequenceClassifier(vocab_size=12, embedding_dim=4, hidden_size=8)
        trainer = Trainer(
            model,
            TrainingConfig(epochs=200, eval_every=1, early_stop_accuracy=0.95,
                           learning_rate=0.02),
        )
        history = trainer.fit(x, y, x, y)
        assert history.records[-1].test_accuracy >= 0.95
        assert history.records[-1].epoch < 200

    def test_learns_toy_task(self, rng):
        x, y = self._toy_data(rng, count=96)
        model = SequenceClassifier(vocab_size=12, embedding_dim=4, hidden_size=8)
        trainer = Trainer(model, TrainingConfig(epochs=30, learning_rate=0.02, eval_every=30))
        history = trainer.fit(x, y, x, y)
        assert history.peak.test_accuracy > 0.9

    def test_rejects_empty_dataset(self):
        model = SequenceClassifier(vocab_size=12, embedding_dim=4, hidden_size=6)
        trainer = Trainer(model)
        empty = np.zeros((0, 5), dtype=int)
        with pytest.raises(ValueError):
            trainer.fit(empty, np.zeros(0), empty, np.zeros(0))

    def test_rejects_mismatched_labels(self, rng):
        x, y = self._toy_data(rng)
        model = SequenceClassifier(vocab_size=12, embedding_dim=4, hidden_size=6)
        with pytest.raises(ValueError):
            Trainer(model).fit(x, y[:-1], x, y)

    def test_rejects_empty_eval_split(self, rng):
        x, y = self._toy_data(rng)
        model = SequenceClassifier(vocab_size=12, embedding_dim=4, hidden_size=6)
        empty = np.zeros((0, x.shape[1]), dtype=int)
        with pytest.raises(ValueError, match="empty test split"):
            Trainer(model).fit(x, y, empty, np.zeros(0))

    def test_rejects_mismatched_eval_split(self, rng):
        x, y = self._toy_data(rng)
        model = SequenceClassifier(vocab_size=12, embedding_dim=4, hidden_size=6)
        with pytest.raises(ValueError, match="eval sequence/label count mismatch"):
            Trainer(model).fit(x, y, x, y[:-1])

    def test_evaluate_validates_split(self, rng):
        x, y = self._toy_data(rng)
        model = SequenceClassifier(vocab_size=12, embedding_dim=4, hidden_size=6)
        trainer = Trainer(model)
        with pytest.raises(ValueError, match="empty test split"):
            trainer.evaluate(np.zeros((0, x.shape[1]), dtype=int), np.zeros(0))
        with pytest.raises(ValueError, match="count mismatch"):
            trainer.evaluate(x, y[:-1])

    def test_epoch_loss_is_sample_weighted(self, rng):
        """A short ragged final mini-batch must contribute by its sample
        count, not as a full batch (the old unweighted-mean bias)."""
        x, y = self._toy_data(rng, count=40)  # batch 16 -> 16 + 16 + 8
        model = SequenceClassifier(vocab_size=12, embedding_dim=4, hidden_size=6)
        trainer = Trainer(
            model,
            TrainingConfig(epochs=1, batch_size=16, eval_every=1, shuffle=False),
        )
        captured = []
        original = trainer.kernel.train_batch

        def spy(tokens, labels):
            loss, grads = original(tokens, labels)
            captured.append((loss, labels.shape[0]))
            return loss, grads

        trainer.kernel.train_batch = spy
        history = trainer.fit(x, y, x, y)
        assert [count for _, count in captured] == [16, 16, 8]
        weighted = sum(loss * count for loss, count in captured) / 40
        unweighted = sum(loss for loss, _ in captured) / 3
        assert history.records[0].train_loss == weighted
        assert history.records[0].train_loss != unweighted

    def test_history_peak(self):
        history = ConvergenceHistory()
        history.append(EpochRecord(1, 0.5, 0.8, 0.8, 0.8, 0.8))
        history.append(EpochRecord(2, 0.4, 0.95, 0.9, 0.9, 0.9))
        history.append(EpochRecord(3, 0.3, 0.9, 0.9, 0.9, 0.9))
        assert history.peak.epoch == 2

    def test_history_peak_empty_raises(self):
        with pytest.raises(ValueError):
            ConvergenceHistory().peak

    def test_restore_best_weights(self, rng):
        x, y = self._toy_data(rng, count=64)
        model = SequenceClassifier(vocab_size=12, embedding_dim=4, hidden_size=8)
        trainer = Trainer(
            model,
            TrainingConfig(epochs=15, eval_every=1, learning_rate=0.02,
                           restore_best_weights=True),
        )
        history = trainer.fit(x, y, x, y)
        # The restored model must score the peak accuracy, even if the
        # final epoch drifted below it.
        from repro.nn.metrics import classification_report

        final = classification_report(model.predict(x), y)
        assert final["accuracy"] == pytest.approx(history.peak.test_accuracy)

    def test_lr_decay_reduces_optimizer_rate(self, rng):
        x, y = self._toy_data(rng)
        model = SequenceClassifier(vocab_size=12, embedding_dim=4, hidden_size=6)
        trainer = Trainer(
            model, TrainingConfig(epochs=4, eval_every=4, learning_rate=0.01,
                                  lr_decay=0.5),
        )
        trainer.fit(x, y, x, y)
        assert trainer.optimizer.learning_rate == pytest.approx(0.01 * 0.5**4)

    def test_weight_decay_shrinks_unused_weights(self, rng):
        # With pure decay pressure (no useful gradient on the unused
        # embedding rows), weight norms must drop relative to no-decay.
        x, y = self._toy_data(rng, count=32)
        decayed = SequenceClassifier(vocab_size=50, embedding_dim=4, hidden_size=6, seed=3)
        plain = SequenceClassifier(vocab_size=50, embedding_dim=4, hidden_size=6, seed=3)
        for model, decay in ((decayed, 0.05), (plain, 0.0)):
            trainer = Trainer(
                model, TrainingConfig(epochs=6, eval_every=6, weight_decay=decay)
            )
            trainer.fit(x % 12, y, x % 12, y)  # rows 12..49 never used
        unused_decayed = np.linalg.norm(decayed.embedding.weights[20:])
        unused_plain = np.linalg.norm(plain.embedding.weights[20:])
        assert unused_decayed < unused_plain

    def test_restore_best_weights_off_keeps_final(self, rng):
        x, y = self._toy_data(rng, count=64)
        model = SequenceClassifier(vocab_size=12, embedding_dim=4, hidden_size=8)
        trainer = Trainer(
            model, TrainingConfig(epochs=5, eval_every=1, learning_rate=0.02)
        )
        history = trainer.fit(x, y, x, y)
        from repro.nn.metrics import classification_report

        final = classification_report(model.predict(x), y)
        assert final["accuracy"] == pytest.approx(
            history.records[-1].test_accuracy
        )
