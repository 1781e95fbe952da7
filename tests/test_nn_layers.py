"""Tests for the layers: Linear, Embedding, MLP, ReLU, RNN cells."""

import numpy as np
import pytest

from repro.autograd import tensor
from repro.errors import ConfigError
from repro.nn import MLP, Embedding, GRUCell, Linear, LSTMCell, ReLU


class TestLinear:
    def test_output_shape(self):
        layer = Linear(3, 5, rng=np.random.default_rng(0))
        assert layer(tensor(np.ones((4, 3)))).shape == (4, 5)

    def test_no_bias(self):
        layer = Linear(3, 5, bias=False, rng=np.random.default_rng(0))
        assert layer.bias is None
        zero_out = layer(tensor(np.zeros((1, 3)))).numpy()
        assert np.allclose(zero_out, 0.0)

    def test_linearity(self):
        layer = Linear(3, 2, bias=False, rng=np.random.default_rng(1))
        x = np.random.default_rng(2).standard_normal((2, 3))
        doubled = layer(tensor(2 * x)).numpy()
        assert np.allclose(doubled, 2 * layer(tensor(x)).numpy())

    def test_invalid_sizes(self):
        with pytest.raises(ConfigError):
            Linear(0, 3)

    def test_gradients_flow_to_parameters(self):
        layer = Linear(3, 2, rng=np.random.default_rng(3))
        layer(tensor(np.ones((2, 3)))).sum().backward()
        assert layer.weight.grad is not None
        assert layer.bias.grad is not None


class TestEmbedding:
    def test_lookup_shape(self):
        emb = Embedding(10, 4, rng=np.random.default_rng(0))
        assert emb(np.array([1, 2, 3])).shape == (3, 4)

    def test_2d_indices(self):
        emb = Embedding(10, 4, rng=np.random.default_rng(0))
        assert emb(np.array([[1, 2], [3, 4]])).shape == (2, 2, 4)

    def test_same_id_same_vector(self):
        emb = Embedding(10, 4, rng=np.random.default_rng(0))
        out = emb(np.array([5, 5])).numpy()
        assert np.allclose(out[0], out[1])

    def test_out_of_range_raises(self):
        emb = Embedding(10, 4)
        with pytest.raises(IndexError):
            emb(np.array([10]))
        with pytest.raises(IndexError):
            emb(np.array([-1]))

    def test_gradient_accumulates_per_id(self):
        emb = Embedding(5, 2, rng=np.random.default_rng(0))
        emb(np.array([1, 1, 2])).sum().backward()
        grad = emb.weight.grad
        assert np.allclose(grad[1], [2.0, 2.0])
        assert np.allclose(grad[2], [1.0, 1.0])
        assert np.allclose(grad[0], [0.0, 0.0])


class TestMLP:
    def test_shapes(self):
        mlp = MLP([3, 8, 8, 2], rng=np.random.default_rng(0))
        assert mlp(tensor(np.ones((5, 3)))).shape == (5, 2)

    def test_needs_two_sizes(self):
        with pytest.raises(ConfigError):
            MLP([3])

    def test_activate_last(self):
        mlp = MLP([3, 2], rng=np.random.default_rng(0), activate_last=True)
        out = mlp(tensor(np.random.default_rng(1).standard_normal((10, 3)))).numpy()
        assert np.all(out >= 0)  # ReLU applied

    def test_last_layer_linear_by_default(self):
        mlp = MLP([3, 4, 2], rng=np.random.default_rng(2))
        out = mlp(tensor(np.random.default_rng(3).standard_normal((50, 3)))).numpy()
        assert (out < 0).any()  # not ReLU'd


class TestActivationModules:
    @pytest.mark.parametrize(
        "module,fn",
        [
            (ReLU(), lambda x: np.maximum(x, 0)),
        ],
    )
    def test_matches_numpy(self, module, fn):
        x = np.random.default_rng(0).standard_normal((3, 4))
        assert np.allclose(module(tensor(x)).numpy(), fn(x))


class TestGRUCell:
    def test_step_shape(self):
        cell = GRUCell(3, 5, rng=np.random.default_rng(0))
        h = cell(tensor(np.ones((2, 3))), cell.initial_state(2))
        assert h.shape == (2, 5)

    def test_state_changes_with_input(self):
        cell = GRUCell(3, 5, rng=np.random.default_rng(0))
        h0 = cell.initial_state(1)
        h1 = cell(tensor(np.ones((1, 3))), h0)
        h2 = cell(tensor(-np.ones((1, 3))), h0)
        assert not np.allclose(h1.numpy(), h2.numpy())

    def test_gradients_flow_through_time(self):
        cell = GRUCell(2, 3, rng=np.random.default_rng(1))
        x = tensor(np.ones((1, 2)), requires_grad=True)
        h = cell.initial_state(1)
        for _ in range(3):
            h = cell(x, h)
        h.sum().backward()
        assert x.grad is not None
        assert np.abs(x.grad).sum() > 0

    def test_invalid_sizes(self):
        with pytest.raises(ConfigError):
            GRUCell(0, 3)


class TestLSTMCell:
    def test_step_shapes(self):
        cell = LSTMCell(3, 5, rng=np.random.default_rng(0))
        h, c = cell(tensor(np.ones((2, 3))), cell.initial_state(2))
        assert h.shape == (2, 5)
        assert c.shape == (2, 5)

    def test_hidden_bounded_by_tanh(self):
        cell = LSTMCell(3, 4, rng=np.random.default_rng(0))
        state = cell.initial_state(1)
        x = tensor(np.random.default_rng(1).standard_normal((1, 3)) * 10)
        for _ in range(5):
            state = cell(x, state)
        assert np.all(np.abs(state[0].numpy()) <= 1.0)

    def test_gradients_reach_parameters(self):
        cell = LSTMCell(2, 3, rng=np.random.default_rng(2))
        h, c = cell(tensor(np.ones((1, 2))), cell.initial_state(1))
        h.sum().backward()
        assert cell.w_x.grad is not None
        assert cell.w_h.grad is not None
