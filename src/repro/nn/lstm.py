"""From-scratch LSTM layer with full backpropagation through time.

Implements the cell the paper describes in Section III-A:

.. math::

    i_t &= \\sigma(W_i [h_{t-1}, x_t] + b_i) \\\\
    f_t &= \\sigma(W_f [h_{t-1}, x_t] + b_f) \\\\
    o_t &= \\sigma(W_o [h_{t-1}, x_t] + b_o) \\\\
    C'_t &= g(W_{C'} [h_{t-1}, x_t] + b_{C'}) \\\\
    C_t &= f_t * C_{t-1} + i_t * C'_t \\\\
    h_t &= o_t * g(C_t)

where ``g`` is ``tanh`` in the textbook cell and ``softsign`` in the
deployed FPGA model (Section III-D).  The activation is configurable so the
softsign-vs-tanh ablation can train both variants.

Weight layout follows the TensorFlow/Keras convention the paper's export
path assumes ("``get_weights()`` ... returns three Numpy arrays consisting
of the weights W for x_t, the W for h_{t-1}, and the related b terms"):

* ``W_x`` — shape ``(input_dim, 4*hidden)``;
* ``W_h`` — shape ``(hidden, 4*hidden)``;
* ``b``   — shape ``(4*hidden,)``;

with gates packed in Keras order ``[i, f, C', o]`` along the last axis.

Two forwards share one cell step: :meth:`LSTM.forward` keeps every
timestep's gates, candidates and states for :meth:`LSTM.backward`, and
:meth:`LSTM.infer` (prediction and evaluation) carries only the running
``(B, H)`` hidden and cell states and returns the same ``h_T`` bit for
bit.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.nn.activations import get_activation, sigmoid
from repro.nn.initializers import glorot_uniform, orthogonal, zeros

#: Gate packing order along the 4H axis (Keras convention).
GATE_ORDER = ("i", "f", "c", "o")


@dataclasses.dataclass
class _LSTMCache:
    """Intermediate values saved by the forward pass for BPTT."""

    inputs: np.ndarray        # (B, T, input_dim)
    i: np.ndarray             # (B, T, H) gate activations
    f: np.ndarray
    o: np.ndarray
    c_bar: np.ndarray         # candidate values C'_t
    pre_i: np.ndarray         # pre-activation values, for exact gradients
    pre_f: np.ndarray
    pre_o: np.ndarray
    pre_c_bar: np.ndarray
    cell: np.ndarray          # (B, T+1, H): C_0 .. C_T
    hidden: np.ndarray        # (B, T+1, H): h_0 .. h_T


class LSTM:
    """Single-layer LSTM returning the final hidden state.

    :meth:`forward` caches for BPTT; :meth:`infer` is the cache-free
    inference forward.

    Parameters
    ----------
    input_dim:
        Size of each timestep's input vector (the embedding dim ``O``).
    hidden_size:
        Size ``H`` of the hidden/cell state (the paper uses 32).
    cell_activation:
        Name of the squashing activation ``g`` applied to the candidate
        values and the cell state: ``"softsign"`` (paper's deployment,
        the default) or ``"tanh"`` (textbook cell, for the ablation).
    rng:
        NumPy random generator used for initialisation.
    """

    def __init__(
        self,
        input_dim: int,
        hidden_size: int,
        rng: np.random.Generator,
        cell_activation: str = "softsign",
    ):
        if input_dim <= 0 or hidden_size <= 0:
            raise ValueError(
                f"input_dim and hidden_size must be positive, got "
                f"{input_dim} and {hidden_size}"
            )
        self.input_dim = input_dim
        self.hidden_size = hidden_size
        self.cell_activation_name = cell_activation
        self._g, self._g_grad = get_activation(cell_activation)

        four_h = 4 * hidden_size
        self.W_x = np.concatenate(
            [glorot_uniform(rng, (input_dim, hidden_size)) for _ in GATE_ORDER], axis=1
        )
        self.W_h = np.concatenate(
            [orthogonal(rng, (hidden_size, hidden_size)) for _ in GATE_ORDER], axis=1
        )
        self.b = zeros((four_h,))
        # Forget-gate bias of 1.0 is the standard trick for long sequences
        # (Jozefowicz et al. 2015); it speeds convergence on length-100 API
        # call sequences considerably.
        self.b[hidden_size : 2 * hidden_size] = 1.0

        self._cache: _LSTMCache | None = None

    @property
    def parameter_count(self) -> int:
        """Total trainable parameters: ``4*(H*(input_dim + H) + H)``."""
        return self.W_x.size + self.W_h.size + self.b.size

    def _split_gates(self, packed: np.ndarray):
        """Split a ``(..., 4H)`` array into the four gate slabs."""
        h = self.hidden_size
        return (
            packed[..., 0:h],
            packed[..., h : 2 * h],
            packed[..., 2 * h : 3 * h],
            packed[..., 3 * h : 4 * h],
        )

    def _check_inputs(self, inputs: np.ndarray) -> np.ndarray:
        inputs = np.asarray(inputs, dtype=np.float64)
        if inputs.ndim != 3 or inputs.shape[2] != self.input_dim:
            raise ValueError(
                f"expected inputs of shape (B, T, {self.input_dim}), got {inputs.shape}"
            )
        return inputs

    def _project(self, inputs: np.ndarray) -> np.ndarray:
        """The input-side affine transform ``x_t W_x + b`` for every ``t``.

        It has no recurrent dependency, so all T matmuls batch into one
        ``(B, T, 4H)`` product, hoisted out of the timestep loop; the bias
        is added in place so only one such array is ever live.
        """
        x_proj = inputs @ self.W_x
        x_proj += self.b
        return x_proj

    def _cell_step(self, pre: np.ndarray, c_prev: np.ndarray):
        """One cell update from packed ``(B, 4H)`` pre-activations.

        Returns ``(i, f, o, c_bar, c, h)``: the three gates, the candidate
        ``C'_t``, and the new cell and hidden states.  Both forwards run
        this one function, so the cached and cache-free passes share every
        rounding step.
        """
        p_i, p_f, p_c, p_o = self._split_gates(pre)
        gate_i = sigmoid(p_i)
        gate_f = sigmoid(p_f)
        gate_o = sigmoid(p_o)
        c_bar = self._g(p_c)
        c = gate_f * c_prev + gate_i * c_bar
        return gate_i, gate_f, gate_o, c_bar, c, gate_o * self._g(c)

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        """Run the sequence through the cell, keeping the BPTT cache.

        The cache (every gate, candidate, pre-activation and state at
        every timestep) stays on the layer until the next ``forward`` for
        :meth:`backward` to consume.  Inference uses :meth:`infer`, which
        keeps none of it.

        Parameters
        ----------
        inputs:
            Array of shape ``(batch, timesteps, input_dim)``.

        Returns
        -------
        numpy.ndarray
            Final hidden state ``h_T`` of shape ``(batch, hidden_size)``.
        """
        inputs = self._check_inputs(inputs)
        batch, timesteps, _ = inputs.shape
        h = self.hidden_size

        gate_i = np.empty((batch, timesteps, h))
        gate_f = np.empty((batch, timesteps, h))
        gate_o = np.empty((batch, timesteps, h))
        c_bar = np.empty((batch, timesteps, h))
        pre_i = np.empty((batch, timesteps, h))
        pre_f = np.empty((batch, timesteps, h))
        pre_o = np.empty((batch, timesteps, h))
        pre_c = np.empty((batch, timesteps, h))
        cell = np.zeros((batch, timesteps + 1, h))
        hidden = np.zeros((batch, timesteps + 1, h))

        x_proj = self._project(inputs)
        for t in range(timesteps):
            pre = x_proj[:, t, :] + hidden[:, t, :] @ self.W_h
            pre_i[:, t], pre_f[:, t], pre_c[:, t], pre_o[:, t] = self._split_gates(pre)
            (gate_i[:, t], gate_f[:, t], gate_o[:, t], c_bar[:, t],
             cell[:, t + 1], hidden[:, t + 1]) = self._cell_step(pre, cell[:, t])

        self._cache = _LSTMCache(
            inputs=inputs,
            i=gate_i,
            f=gate_f,
            o=gate_o,
            c_bar=c_bar,
            pre_i=pre_i,
            pre_f=pre_f,
            pre_o=pre_o,
            pre_c_bar=pre_c,
            cell=cell,
            hidden=hidden,
        )
        return hidden[:, timesteps, :]

    def infer(self, inputs: np.ndarray) -> np.ndarray:
        """Inference forward: ``h_T`` without any BPTT cache.

        Carries only the running ``(B, H)`` hidden and cell states through
        the same :meth:`_cell_step` as :meth:`forward`, so the result equals
        ``forward(inputs)`` bit for bit; the layer's cache is left as it
        was.
        """
        inputs = self._check_inputs(inputs)
        batch, timesteps, _ = inputs.shape
        x_proj = self._project(inputs)
        hidden = np.zeros((batch, self.hidden_size))
        cell = np.zeros((batch, self.hidden_size))
        for t in range(timesteps):
            pre = x_proj[:, t, :] + hidden @ self.W_h
            *_, cell, hidden = self._cell_step(pre, cell)
        return hidden

    def backward(self, grad_h_final: np.ndarray):
        """Backpropagate through time from a gradient on ``h_T``.

        Parameters
        ----------
        grad_h_final:
            Gradient of the loss w.r.t. the final hidden state, shape
            ``(batch, hidden_size)``.

        Returns
        -------
        tuple
            ``(grad_inputs, grads)`` where ``grad_inputs`` has the shape of
            the forward inputs and ``grads`` is a dict with keys ``"W_x"``,
            ``"W_h"``, ``"b"``.
        """
        cache = self._cache
        if cache is None:
            raise RuntimeError("backward called before forward")
        batch, timesteps, _ = cache.inputs.shape
        h = self.hidden_size

        grad_W_x = np.zeros_like(self.W_x)
        grad_W_h = np.zeros_like(self.W_h)
        grad_b = np.zeros_like(self.b)
        grad_inputs = np.zeros_like(cache.inputs)

        grad_h = np.asarray(grad_h_final, dtype=np.float64).copy()
        grad_c = np.zeros((batch, h))

        from repro.nn.activations import sigmoid_grad  # local to avoid cycle noise

        for t in range(timesteps - 1, -1, -1):
            c_t = cache.cell[:, t + 1]
            grad_c = grad_c + grad_h * cache.o[:, t] * self._g_grad(c_t)
            grad_o = grad_h * self._g(c_t)
            grad_i = grad_c * cache.c_bar[:, t]
            grad_c_bar = grad_c * cache.i[:, t]
            grad_f = grad_c * cache.cell[:, t]

            d_pre_i = grad_i * sigmoid_grad(cache.pre_i[:, t])
            d_pre_f = grad_f * sigmoid_grad(cache.pre_f[:, t])
            d_pre_o = grad_o * sigmoid_grad(cache.pre_o[:, t])
            d_pre_c = grad_c_bar * self._g_grad(cache.pre_c_bar[:, t])
            d_pre = np.concatenate([d_pre_i, d_pre_f, d_pre_c, d_pre_o], axis=1)

            grad_W_x += cache.inputs[:, t].T @ d_pre
            grad_W_h += cache.hidden[:, t].T @ d_pre
            grad_b += d_pre.sum(axis=0)
            grad_inputs[:, t] = d_pre @ self.W_x.T
            grad_h = d_pre @ self.W_h.T
            grad_c = grad_c * cache.f[:, t]

        return grad_inputs, {"W_x": grad_W_x, "W_h": grad_W_h, "b": grad_b}

    def get_weights(self) -> list:
        """Return ``[W_x, W_h, b]`` — the three arrays of Keras' export."""
        return [self.W_x.copy(), self.W_h.copy(), self.b.copy()]

    def set_weights(self, weights: list) -> None:
        """Load ``[W_x, W_h, b]`` arrays produced by :meth:`get_weights`."""
        w_x, w_h, b = weights
        expected = (self.W_x.shape, self.W_h.shape, self.b.shape)
        got = (np.shape(w_x), np.shape(w_h), np.shape(b))
        if got != expected:
            raise ValueError(f"expected weight shapes {expected}, got {got}")
        self.W_x = np.asarray(w_x, dtype=np.float64).copy()
        self.W_h = np.asarray(w_h, dtype=np.float64).copy()
        self.b = np.asarray(b, dtype=np.float64).copy()
