"""The paper's classification model: Embedding → LSTM → Dense → sigmoid.

Section IV fixes the architecture: embedding dimension 8, hidden size 32,
and a single-unit fully-connected head, for 7,472 parameters in the
embedding+LSTM stack (2,224 + 5,248) plus 33 in the head.  With the default
vocabulary of 278 tokens this class reproduces those counts exactly
(verified by a unit test).
"""

from __future__ import annotations

import numpy as np

from repro.nn.activations import sigmoid
from repro.nn.dense import Dense
from repro.nn.embedding import Embedding
from repro.nn.losses import binary_cross_entropy_with_logits
from repro.nn.lstm import LSTM

#: Architecture constants from the paper's experimental setup (Section IV).
PAPER_VOCAB_SIZE = 278
PAPER_EMBEDDING_DIM = 8
PAPER_HIDDEN_SIZE = 32


class SequenceClassifier:
    """Binary sequence classifier matching the paper's offline model.

    Parameters
    ----------
    vocab_size:
        Number of distinct sequence items ``M``.
    embedding_dim:
        Embedding size ``O``.
    hidden_size:
        LSTM hidden size ``H``.
    cell_activation:
        Squashing activation for the LSTM (``"softsign"`` by default, to
        match the deployed FPGA arithmetic; ``"tanh"`` for the ablation).
    seed:
        Seed for reproducible initialisation.
    """

    def __init__(
        self,
        vocab_size: int = PAPER_VOCAB_SIZE,
        embedding_dim: int = PAPER_EMBEDDING_DIM,
        hidden_size: int = PAPER_HIDDEN_SIZE,
        cell_activation: str = "softsign",
        seed: int = 0,
    ):
        rng = np.random.default_rng(seed)
        self.embedding = Embedding(vocab_size, embedding_dim, rng)
        self.lstm = LSTM(embedding_dim, hidden_size, rng, cell_activation=cell_activation)
        self.head = Dense(hidden_size, 1, rng)

    @property
    def parameter_count(self) -> int:
        """Total trainable parameters across all three layers."""
        return (
            self.embedding.parameter_count
            + self.lstm.parameter_count
            + self.head.parameter_count
        )

    def forward_logits(self, token_ids: np.ndarray) -> np.ndarray:
        """Compute raw (pre-sigmoid) scores, caching for :meth:`train_batch`.

        Parameters
        ----------
        token_ids:
            Integer array of shape ``(batch, timesteps)``.

        Returns
        -------
        numpy.ndarray
            Logits of shape ``(batch,)``.
        """
        embedded = self.embedding.forward(token_ids)
        final_hidden = self.lstm.forward(embedded)
        return self.head.forward(final_hidden).reshape(-1)

    def predict_proba(self, token_ids: np.ndarray) -> np.ndarray:
        """Ransomware probability per sequence, shape ``(batch,)``.

        Runs every layer's cache-free ``infer``: the scores equal
        ``sigmoid(forward_logits(...))`` bit for bit, but no BPTT cache is
        built and the layers' training caches are left as they were.
        """
        embedded = self.embedding.infer(token_ids)
        final_hidden = self.lstm.infer(embedded)
        return sigmoid(self.head.infer(final_hidden).reshape(-1))

    def predict(self, token_ids: np.ndarray, threshold: float = 0.5) -> np.ndarray:
        """Hard binary predictions at the given probability threshold."""
        return (self.predict_proba(token_ids) >= threshold).astype(int)

    def train_batch(self, token_ids: np.ndarray, labels: np.ndarray):
        """Run one forward/backward pass and return ``(loss, grads)``.

        The gradients are keyed for the optimiser: ``embedding/table``,
        ``lstm/W_x``, ``lstm/W_h``, ``lstm/b``, ``head/W``, ``head/b``.
        The caller applies them via :meth:`parameters`.
        """
        logits = self.forward_logits(token_ids)
        loss, grad_logits = binary_cross_entropy_with_logits(logits, labels)

        grad_hidden, head_grads = self.head.backward(grad_logits.reshape(-1, 1))
        grad_embedded, lstm_grads = self.lstm.backward(grad_hidden)
        grad_table = self.embedding.backward(grad_embedded)

        grads = {
            "embedding/table": grad_table,
            "lstm/W_x": lstm_grads["W_x"],
            "lstm/W_h": lstm_grads["W_h"],
            "lstm/b": lstm_grads["b"],
            "head/W": head_grads["W"],
            "head/b": head_grads["b"],
        }
        return loss, grads

    def parameters(self) -> dict:
        """Live views of every parameter array, keyed like the gradients.

        Optimisers mutate these arrays in place, so the returned dict must
        expose the layer-owned arrays themselves, not copies.
        """
        return {
            "embedding/table": self.embedding.weights,
            "lstm/W_x": self.lstm.W_x,
            "lstm/W_h": self.lstm.W_h,
            "lstm/b": self.lstm.b,
            "head/W": self.head.W,
            "head/b": self.head.b,
        }

    def get_weights(self) -> list:
        """All parameter arrays in export order (TensorFlow-style).

        Order: embedding table, LSTM ``W_x``, LSTM ``W_h``, LSTM ``b``,
        head ``W``, head ``b``.
        """
        return self.embedding.get_weights() + self.lstm.get_weights() + self.head.get_weights()

    def set_weights(self, weights: list) -> None:
        """Load the six arrays produced by :meth:`get_weights`."""
        if len(weights) != 6:
            raise ValueError(f"expected 6 weight arrays, got {len(weights)}")
        self.embedding.set_weights(weights[0:1])
        self.lstm.set_weights(weights[1:4])
        self.head.set_weights(weights[4:6])
