"""Fully-connected classification head.

The paper maps the LSTM's final hidden state to a binary classification
with a single fully-connected layer — "32 weights and one bias term"
(Section IV) — followed by a sigmoid.  The layer here is general (any
``units``) but the paper's configuration is ``Dense(32 -> 1)``.
"""

from __future__ import annotations

import numpy as np

from repro.nn.initializers import glorot_uniform, zeros


class Dense:
    """Affine layer ``y = x @ W + b`` with gradient support.

    Parameters
    ----------
    input_dim:
        Incoming feature size (the LSTM hidden size, 32 in the paper).
    units:
        Output size (1 for the paper's binary head).
    rng:
        NumPy random generator used for initialisation.
    """

    def __init__(self, input_dim: int, units: int, rng: np.random.Generator):
        if input_dim <= 0 or units <= 0:
            raise ValueError(
                f"input_dim and units must be positive, got {input_dim} and {units}"
            )
        self.input_dim = input_dim
        self.units = units
        self.W = glorot_uniform(rng, (input_dim, units))
        self.b = zeros((units,))
        self._cached_input: np.ndarray | None = None

    @property
    def parameter_count(self) -> int:
        """Total trainable parameters: ``input_dim * units + units``."""
        return self.W.size + self.b.size

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        """Apply the affine transform to a ``(batch, input_dim)`` array."""
        inputs = np.asarray(inputs, dtype=np.float64)
        outputs = self.infer(inputs)
        self._cached_input = inputs
        return outputs

    def infer(self, inputs: np.ndarray) -> np.ndarray:
        """:meth:`forward` without keeping the input for :meth:`backward`."""
        inputs = np.asarray(inputs, dtype=np.float64)
        if inputs.ndim != 2 or inputs.shape[1] != self.input_dim:
            raise ValueError(
                f"expected inputs of shape (B, {self.input_dim}), got {inputs.shape}"
            )
        return inputs @ self.W + self.b

    def backward(self, grad_output: np.ndarray):
        """Backpropagate a gradient of shape ``(batch, units)``.

        Returns
        -------
        tuple
            ``(grad_inputs, grads)`` with ``grads`` keyed ``"W"``/``"b"``.
        """
        if self._cached_input is None:
            raise RuntimeError("backward called before forward")
        grad_W = self._cached_input.T @ grad_output
        grad_b = grad_output.sum(axis=0)
        grad_inputs = grad_output @ self.W.T
        return grad_inputs, {"W": grad_W, "b": grad_b}

    def get_weights(self) -> list:
        """Return ``[W, b]``."""
        return [self.W.copy(), self.b.copy()]

    def set_weights(self, weights: list) -> None:
        """Load ``[W, b]`` arrays produced by :meth:`get_weights`."""
        w, b = weights
        if np.shape(w) != self.W.shape or np.shape(b) != self.b.shape:
            raise ValueError(
                f"expected shapes {(self.W.shape, self.b.shape)}, got "
                f"{(np.shape(w), np.shape(b))}"
            )
        self.W = np.asarray(w, dtype=np.float64).copy()
        self.b = np.asarray(b, dtype=np.float64).copy()
