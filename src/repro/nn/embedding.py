"""Trainable embedding layer.

The paper's model front-end maps each item of a sequence (an API-call token
in the ransomware use case) to a dense vector: "the embedding for the
current item ... is obtained by taking the dot product of the one-hot vector
of the item and the M x O matrix" (Section III-B).  During training the
one-hot product is of course implemented as a table lookup, and the gradient
is a scatter-add into the looked-up rows.
"""

from __future__ import annotations

import numpy as np

from repro.nn.initializers import uniform_embedding


class Embedding:
    """Token-id → dense-vector lookup table with gradient support.

    Parameters
    ----------
    vocab_size:
        Number of distinct tokens ``M`` (the paper's ransomware model uses
        278).
    embedding_dim:
        Output dimensionality ``O`` (the paper uses 8).
    rng:
        NumPy random generator used for initialisation.
    """

    def __init__(self, vocab_size: int, embedding_dim: int, rng: np.random.Generator):
        if vocab_size <= 0 or embedding_dim <= 0:
            raise ValueError(
                f"vocab_size and embedding_dim must be positive, got "
                f"{vocab_size} and {embedding_dim}"
            )
        self.vocab_size = vocab_size
        self.embedding_dim = embedding_dim
        self.weights = uniform_embedding(rng, (vocab_size, embedding_dim))
        self._cached_ids: np.ndarray | None = None

    @property
    def parameter_count(self) -> int:
        """Total number of trainable parameters (``M * O``)."""
        return self.weights.size

    def forward(self, token_ids: np.ndarray) -> np.ndarray:
        """Embed a batch of sequences.

        Parameters
        ----------
        token_ids:
            Integer array of shape ``(batch, timesteps)`` with values in
            ``[0, vocab_size)``.

        Returns
        -------
        numpy.ndarray
            Embeddings of shape ``(batch, timesteps, embedding_dim)``.
        """
        token_ids = np.asarray(token_ids)
        embedded = self.infer(token_ids)
        self._cached_ids = token_ids
        return embedded

    def infer(self, token_ids: np.ndarray) -> np.ndarray:
        """:meth:`forward` without keeping the ids for :meth:`backward`."""
        token_ids = np.asarray(token_ids)
        if token_ids.min(initial=0) < 0 or token_ids.max(initial=0) >= self.vocab_size:
            raise ValueError(
                f"token ids must be in [0, {self.vocab_size}), got range "
                f"[{token_ids.min()}, {token_ids.max()}]"
            )
        return self.weights[token_ids]

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Accumulate the gradient of the loss w.r.t. the embedding table.

        Parameters
        ----------
        grad_output:
            Gradient of shape ``(batch, timesteps, embedding_dim)`` matching
            the last :meth:`forward` call.

        Returns
        -------
        numpy.ndarray
            Gradient w.r.t. ``self.weights`` (shape ``(M, O)``).
        """
        if self._cached_ids is None:
            raise RuntimeError("backward called before forward")
        grad_weights = np.zeros_like(self.weights)
        flat_ids = self._cached_ids.reshape(-1)
        flat_grads = grad_output.reshape(-1, self.embedding_dim)
        np.add.at(grad_weights, flat_ids, flat_grads)
        return grad_weights

    def get_weights(self) -> list:
        """Return the parameter arrays, TensorFlow ``get_weights()``-style."""
        return [self.weights.copy()]

    def set_weights(self, weights: list) -> None:
        """Load parameter arrays previously produced by :meth:`get_weights`."""
        (table,) = weights
        if table.shape != self.weights.shape:
            raise ValueError(
                f"expected embedding shape {self.weights.shape}, got {table.shape}"
            )
        self.weights = np.asarray(table, dtype=np.float64).copy()
