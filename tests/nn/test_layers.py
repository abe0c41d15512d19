"""Tests for the embedding, LSTM, and dense layers, including exact
numerical gradient checks of the full BPTT backward pass."""

import numpy as np
import pytest

from repro.nn.dense import Dense
from repro.nn.embedding import Embedding
from repro.nn.initializers import glorot_uniform, orthogonal, uniform_embedding, zeros
from repro.nn.lstm import GATE_ORDER, LSTM


class TestInitializers:
    def test_glorot_limit(self, rng):
        weights = glorot_uniform(rng, (64, 32))
        limit = np.sqrt(6.0 / (64 + 32))
        assert np.all(np.abs(weights) <= limit)

    def test_glorot_rejects_non_2d(self, rng):
        with pytest.raises(ValueError):
            glorot_uniform(rng, (4,))

    def test_orthogonal_rows(self, rng):
        weights = orthogonal(rng, (16, 16))
        np.testing.assert_allclose(weights @ weights.T, np.eye(16), atol=1e-10)

    def test_orthogonal_rectangular(self, rng):
        weights = orthogonal(rng, (8, 16))
        np.testing.assert_allclose(weights @ weights.T, np.eye(8), atol=1e-10)

    def test_zeros(self):
        assert np.all(zeros((3, 4)) == 0.0)

    def test_uniform_embedding_range(self, rng):
        table = uniform_embedding(rng, (100, 8), scale=0.05)
        assert np.all(np.abs(table) <= 0.05)


class TestEmbedding:
    def test_forward_shape(self, rng):
        layer = Embedding(20, 6, rng)
        out = layer.forward(np.array([[1, 2], [3, 4], [5, 6]]))
        assert out.shape == (3, 2, 6)

    def test_forward_is_row_lookup(self, rng):
        layer = Embedding(10, 4, rng)
        out = layer.forward(np.array([[7]]))
        np.testing.assert_array_equal(out[0, 0], layer.weights[7])

    def test_rejects_out_of_range_ids(self, rng):
        layer = Embedding(10, 4, rng)
        with pytest.raises(ValueError):
            layer.forward(np.array([[10]]))
        with pytest.raises(ValueError):
            layer.forward(np.array([[-1]]))

    def test_backward_before_forward_raises(self, rng):
        with pytest.raises(RuntimeError):
            Embedding(10, 4, rng).backward(np.zeros((1, 1, 4)))

    def test_infer_validates_ids_and_keeps_no_cache(self, rng):
        layer = Embedding(10, 4, rng)
        with pytest.raises(ValueError):
            layer.infer(np.array([[10]]))
        ids = np.array([[1, 2], [3, 9]])
        np.testing.assert_array_equal(layer.infer(ids), layer.weights[ids])
        assert layer._cached_ids is None

    def test_backward_accumulates_repeated_ids(self, rng):
        layer = Embedding(10, 4, rng)
        ids = np.array([[2, 2, 2]])
        layer.forward(ids)
        grad = layer.backward(np.ones((1, 3, 4)))
        np.testing.assert_array_equal(grad[2], np.full(4, 3.0))
        assert np.all(grad[[0, 1, 3]] == 0.0)

    def test_parameter_count(self, rng):
        assert Embedding(278, 8, rng).parameter_count == 2224

    def test_weights_round_trip(self, rng):
        layer = Embedding(10, 4, rng)
        other = Embedding(10, 4, rng)
        other.set_weights(layer.get_weights())
        np.testing.assert_array_equal(layer.weights, other.weights)

    def test_set_weights_rejects_wrong_shape(self, rng):
        layer = Embedding(10, 4, rng)
        with pytest.raises(ValueError):
            layer.set_weights([np.zeros((5, 4))])

    def test_rejects_nonpositive_dims(self, rng):
        with pytest.raises(ValueError):
            Embedding(0, 4, rng)


class TestLSTM:
    def test_parameter_count_matches_paper(self, rng):
        layer = LSTM(8, 32, rng)
        assert layer.parameter_count == 5248

    def test_forward_shape(self, rng):
        layer = LSTM(4, 7, rng)
        out = layer.forward(rng.standard_normal((5, 9, 4)))
        assert out.shape == (5, 7)

    def test_forward_rejects_wrong_input_dim(self, rng):
        layer = LSTM(4, 7, rng)
        with pytest.raises(ValueError):
            layer.forward(rng.standard_normal((5, 9, 3)))

    def test_forget_bias_initialised_to_one(self, rng):
        layer = LSTM(4, 6, rng)
        np.testing.assert_array_equal(layer.b[6:12], np.ones(6))

    def test_deterministic_given_seed(self):
        a = LSTM(4, 6, np.random.default_rng(5))
        b = LSTM(4, 6, np.random.default_rng(5))
        np.testing.assert_array_equal(a.W_x, b.W_x)

    def test_backward_before_forward_raises(self, rng):
        with pytest.raises(RuntimeError):
            LSTM(4, 6, rng).backward(np.zeros((1, 6)))

    def test_gate_order_is_keras(self):
        assert GATE_ORDER == ("i", "f", "c", "o")

    @pytest.mark.parametrize("activation", ["softsign", "tanh"])
    def test_full_gradient_check(self, activation):
        """Exact BPTT gradients against central differences."""
        rng = np.random.default_rng(3)
        layer = LSTM(3, 4, rng, cell_activation=activation)
        inputs = rng.standard_normal((2, 6, 3))
        upstream = rng.standard_normal((2, 4))

        def loss():
            return float(np.sum(layer.forward(inputs) * upstream))

        loss()
        _, grads = layer.backward(upstream)
        eps = 1e-6
        for key, param in (("W_x", layer.W_x), ("W_h", layer.W_h), ("b", layer.b)):
            flat = param.reshape(-1)
            for index in rng.choice(flat.size, size=5, replace=False):
                original = flat[index]
                flat[index] = original + eps
                up = loss()
                flat[index] = original - eps
                down = loss()
                flat[index] = original
                numeric = (up - down) / (2 * eps)
                analytic = grads[key].reshape(-1)[index]
                assert analytic == pytest.approx(numeric, abs=1e-5), key

    def test_input_gradient_check(self):
        rng = np.random.default_rng(4)
        layer = LSTM(3, 4, rng)
        inputs = rng.standard_normal((2, 5, 3))
        upstream = rng.standard_normal((2, 4))
        layer.forward(inputs)
        grad_inputs, _ = layer.backward(upstream)
        eps = 1e-6
        for _ in range(5):
            b, t, d = (rng.integers(0, s) for s in inputs.shape)
            original = inputs[b, t, d]
            inputs[b, t, d] = original + eps
            up = float(np.sum(layer.forward(inputs) * upstream))
            inputs[b, t, d] = original - eps
            down = float(np.sum(layer.forward(inputs) * upstream))
            inputs[b, t, d] = original
            layer.forward(inputs)
            assert grad_inputs[b, t, d] == pytest.approx((up - down) / (2 * eps), abs=1e-5)

    def test_weights_round_trip(self, rng):
        layer = LSTM(3, 4, rng)
        other = LSTM(3, 4, np.random.default_rng(99))
        other.set_weights(layer.get_weights())
        inputs = rng.standard_normal((2, 5, 3))
        np.testing.assert_allclose(layer.forward(inputs), other.forward(inputs))

    def test_set_weights_rejects_wrong_shapes(self, rng):
        layer = LSTM(3, 4, rng)
        w_x, w_h, b = layer.get_weights()
        with pytest.raises(ValueError):
            layer.set_weights([w_x.T, w_h, b])

    def test_state_is_per_forward_not_persistent(self, rng):
        # Two identical forwards give identical outputs (state resets).
        layer = LSTM(3, 4, rng)
        inputs = rng.standard_normal((2, 5, 3))
        first = layer.forward(inputs)
        second = layer.forward(inputs)
        np.testing.assert_array_equal(first, second)

    @pytest.mark.parametrize("activation", ["softsign", "tanh"])
    @pytest.mark.parametrize("batch", [1, 7, 290])
    def test_infer_equals_forward_bitwise(self, activation, batch):
        layer = LSTM(8, 32, np.random.default_rng(4), cell_activation=activation)
        inputs = np.random.default_rng(batch).standard_normal((batch, 60, 8)) * 2
        inferred = layer.infer(inputs)
        np.testing.assert_array_equal(inferred, layer.forward(inputs))
        assert inferred.shape == (batch, 32)

    def test_infer_keeps_no_cache(self, rng):
        layer = LSTM(3, 4, rng)
        layer.infer(rng.standard_normal((2, 5, 3)))
        assert layer._cache is None
        layer.forward(rng.standard_normal((2, 5, 3)))
        cache = layer._cache
        layer.infer(rng.standard_normal((6, 9, 3)))
        assert layer._cache is cache

    def test_infer_rejects_wrong_input_dim(self, rng):
        with pytest.raises(ValueError):
            LSTM(3, 4, rng).infer(np.zeros((2, 5, 4)))


class TestDense:
    def test_forward_affine(self, rng):
        layer = Dense(4, 2, rng)
        x = rng.standard_normal((3, 4))
        np.testing.assert_allclose(layer.forward(x), x @ layer.W + layer.b)

    def test_parameter_count_matches_paper_head(self, rng):
        assert Dense(32, 1, rng).parameter_count == 33

    def test_backward_gradients(self, rng):
        layer = Dense(4, 2, rng)
        x = rng.standard_normal((3, 4))
        upstream = rng.standard_normal((3, 2))
        layer.forward(x)
        grad_inputs, grads = layer.backward(upstream)
        np.testing.assert_allclose(grads["W"], x.T @ upstream)
        np.testing.assert_allclose(grads["b"], upstream.sum(axis=0))
        np.testing.assert_allclose(grad_inputs, upstream @ layer.W.T)

    def test_backward_before_forward_raises(self, rng):
        with pytest.raises(RuntimeError):
            Dense(4, 2, rng).backward(np.zeros((1, 2)))

    def test_forward_rejects_wrong_width(self, rng):
        with pytest.raises(ValueError):
            Dense(4, 2, rng).forward(np.zeros((3, 5)))

    def test_weights_round_trip(self, rng):
        layer = Dense(4, 2, rng)
        other = Dense(4, 2, np.random.default_rng(77))
        other.set_weights(layer.get_weights())
        x = rng.standard_normal((3, 4))
        np.testing.assert_allclose(layer.forward(x), other.forward(x))
