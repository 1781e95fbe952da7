"""Unit tests for the Tensor primitives: forward values and exact gradients."""

import numpy as np
import pytest

from repro.autograd import Tensor, check_gradients, concat, no_grad, ones, stack, tensor, zeros
from repro.errors import GradientError, ShapeError


class TestConstruction:
    def test_tensor_from_list(self):
        t = tensor([1.0, 2.0, 3.0])
        assert t.shape == (3,)
        assert t.dtype == np.float64

    def test_tensor_from_scalar(self):
        t = tensor(2.5)
        assert t.item() == 2.5

    def test_zeros_and_ones(self):
        assert np.all(zeros((2, 3)).numpy() == 0)
        assert np.all(ones((2, 3)).numpy() == 1)

    def test_requires_grad_default_false(self):
        assert not tensor([1.0]).requires_grad

    def test_detach_cuts_graph(self):
        a = tensor([1.0, 2.0], requires_grad=True)
        b = (a * 2).detach()
        assert not b.requires_grad

    def test_len_and_repr(self):
        t = tensor([1.0, 2.0])
        assert len(t) == 2
        assert "Tensor" in repr(t)


class TestArithmeticForward:
    def test_add(self):
        out = tensor([1.0, 2.0]) + tensor([3.0, 4.0])
        assert np.allclose(out.numpy(), [4.0, 6.0])

    def test_add_scalar(self):
        out = tensor([1.0, 2.0]) + 1.0
        assert np.allclose(out.numpy(), [2.0, 3.0])

    def test_radd(self):
        out = 1.0 + tensor([1.0, 2.0])
        assert np.allclose(out.numpy(), [2.0, 3.0])

    def test_sub_and_rsub(self):
        assert np.allclose((tensor([3.0]) - 1.0).numpy(), [2.0])
        assert np.allclose((5.0 - tensor([3.0])).numpy(), [2.0])

    def test_mul_div(self):
        assert np.allclose((tensor([2.0]) * tensor([3.0])).numpy(), [6.0])
        assert np.allclose((tensor([6.0]) / tensor([3.0])).numpy(), [2.0])

    def test_rtruediv(self):
        assert np.allclose((6.0 / tensor([3.0])).numpy(), [2.0])

    def test_neg(self):
        assert np.allclose((-tensor([1.0, -2.0])).numpy(), [-1.0, 2.0])

    def test_pow(self):
        assert np.allclose((tensor([2.0, 3.0]) ** 2).numpy(), [4.0, 9.0])

    def test_pow_tensor_exponent_rejected(self):
        with pytest.raises(TypeError):
            tensor([2.0]) ** tensor([2.0])

    def test_matmul_2d(self):
        a = tensor([[1.0, 2.0], [3.0, 4.0]])
        b = tensor([[5.0, 6.0], [7.0, 8.0]])
        assert np.allclose((a @ b).numpy(), np.array([[19, 22], [43, 50]]))

    def test_broadcast_add(self):
        a = tensor(np.ones((2, 3)))
        b = tensor(np.ones((3,)))
        assert (a + b).shape == (2, 3)


class TestGradients:
    def test_add_gradients(self):
        a = tensor([1.0, 2.0], requires_grad=True)
        b = tensor([3.0, 4.0], requires_grad=True)
        (a + b).sum().backward()
        assert np.allclose(a.grad, [1.0, 1.0])
        assert np.allclose(b.grad, [1.0, 1.0])

    def test_mul_gradients(self):
        a = tensor([2.0, 3.0], requires_grad=True)
        b = tensor([4.0, 5.0], requires_grad=True)
        (a * b).sum().backward()
        assert np.allclose(a.grad, [4.0, 5.0])
        assert np.allclose(b.grad, [2.0, 3.0])

    def test_broadcast_gradient_sums(self):
        a = tensor(np.ones((2, 3)), requires_grad=True)
        b = tensor(np.ones((3,)), requires_grad=True)
        (a * b).sum().backward()
        assert b.grad.shape == (3,)
        assert np.allclose(b.grad, [2.0, 2.0, 2.0])

    def test_matmul_gradcheck(self):
        rng = np.random.default_rng(0)
        a = tensor(rng.standard_normal((3, 4)), requires_grad=True)
        b = tensor(rng.standard_normal((4, 2)), requires_grad=True)
        assert check_gradients(lambda x, y: x @ y, [a, b])

    def test_div_gradcheck(self):
        a = tensor([1.0, 2.0, 3.0], requires_grad=True)
        b = tensor([4.0, 5.0, 6.0], requires_grad=True)
        assert check_gradients(lambda x, y: x / y, [a, b])

    def test_chain_rule_through_reuse(self):
        # y = x * x + x: dy/dx = 2x + 1
        x = tensor([3.0], requires_grad=True)
        (x * x + x).backward(np.array([1.0]))
        assert np.allclose(x.grad, [7.0])

    def test_gradient_accumulates_across_backward_calls(self):
        x = tensor([1.0], requires_grad=True)
        (x * 2).backward(np.array([1.0]))
        (x * 2).backward(np.array([1.0]))
        assert np.allclose(x.grad, [4.0])

    def test_zero_grad(self):
        x = tensor([1.0], requires_grad=True)
        (x * 2).backward(np.array([1.0]))
        x.zero_grad()
        assert x.grad is None

    def test_backward_requires_scalar_without_seed(self):
        x = tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(GradientError):
            (x * 2).backward()

    def test_backward_on_nograd_tensor_raises(self):
        x = tensor([1.0])
        with pytest.raises(GradientError):
            x.backward()

    def test_backward_seed_shape_mismatch(self):
        x = tensor([1.0, 2.0], requires_grad=True)
        y = x * 2
        with pytest.raises(ShapeError):
            y.backward(np.ones((3,)))


class TestNonlinearities:
    @pytest.mark.parametrize(
        "op", ["exp", "log", "sqrt", "tanh", "sigmoid", "relu", "abs"]
    )
    def test_elementwise_gradcheck(self, op):
        rng = np.random.default_rng(1)
        data = rng.uniform(0.5, 2.0, size=(3, 2))  # positive for log/sqrt
        x = tensor(data, requires_grad=True)
        assert check_gradients(lambda t: getattr(t, op)(), [x])

    def test_leaky_relu_values(self):
        x = tensor([-1.0, 0.0, 2.0])
        out = x.leaky_relu(0.2)
        assert np.allclose(out.numpy(), [-0.2, 0.0, 2.0])

    def test_leaky_relu_gradcheck(self):
        x = tensor([-1.5, -0.3, 0.7, 2.0], requires_grad=True)
        assert check_gradients(lambda t: t.leaky_relu(0.2), [x])

    def test_relu_kills_gradient_on_negatives(self):
        x = tensor([-1.0, 1.0], requires_grad=True)
        x.relu().sum().backward()
        assert np.allclose(x.grad, [0.0, 1.0])

    def test_clip_gradcheck_interior(self):
        x = tensor([0.1, 0.5, 0.9], requires_grad=True)
        assert check_gradients(lambda t: t.clip(0.0, 1.0), [x])

    def test_clip_blocks_gradient_outside(self):
        x = tensor([-2.0, 0.5, 2.0], requires_grad=True)
        x.clip(0.0, 1.0).sum().backward()
        assert np.allclose(x.grad, [0.0, 1.0, 0.0])

    def test_sigmoid_saturation_is_stable(self):
        out = tensor([1000.0, -1000.0]).sigmoid().numpy()
        assert np.all(np.isfinite(out))
        assert out[0] == pytest.approx(1.0)
        assert out[1] == pytest.approx(0.0)


class TestReductions:
    def test_sum_all(self):
        assert tensor([[1.0, 2.0], [3.0, 4.0]]).sum().item() == 10.0

    def test_sum_axis(self):
        out = tensor([[1.0, 2.0], [3.0, 4.0]]).sum(axis=0)
        assert np.allclose(out.numpy(), [4.0, 6.0])

    def test_sum_keepdims(self):
        out = tensor(np.ones((2, 3))).sum(axis=1, keepdims=True)
        assert out.shape == (2, 1)

    def test_sum_gradcheck(self):
        x = tensor(np.random.default_rng(2).standard_normal((3, 4)), requires_grad=True)
        assert check_gradients(lambda t: t.sum(axis=1), [x])

    def test_mean_value_and_grad(self):
        x = tensor([2.0, 4.0], requires_grad=True)
        m = x.mean()
        assert m.item() == 3.0
        m.backward()
        assert np.allclose(x.grad, [0.5, 0.5])

    def test_mean_axis_tuple(self):
        x = tensor(np.ones((2, 3, 4)))
        assert x.mean(axis=(0, 2)).shape == (3,)

    def test_max_forward(self):
        assert tensor([1.0, 5.0, 3.0]).max().item() == 5.0

    def test_max_gradient_split_on_ties(self):
        x = tensor([2.0, 2.0], requires_grad=True)
        x.max().backward()
        assert np.allclose(x.grad, [0.5, 0.5])

    def test_max_axis_gradcheck(self):
        rng = np.random.default_rng(3)
        x = tensor(rng.standard_normal((4, 5)), requires_grad=True)
        assert check_gradients(lambda t: t.max(axis=1), [x])


class TestShapeOps:
    def test_reshape_roundtrip_grad(self):
        x = tensor(np.arange(6, dtype=float), requires_grad=True)
        x.reshape(2, 3).sum().backward()
        assert np.allclose(x.grad, np.ones(6))

    def test_transpose_values(self):
        x = tensor([[1.0, 2.0], [3.0, 4.0]])
        assert np.allclose(x.T.numpy(), [[1.0, 3.0], [2.0, 4.0]])

    def test_transpose_axes_gradcheck(self):
        rng = np.random.default_rng(4)
        x = tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
        assert check_gradients(lambda t: t.transpose(2, 0, 1), [x])

    def test_getitem_gradient_scatter(self):
        x = tensor([1.0, 2.0, 3.0], requires_grad=True)
        x[np.array([0, 0, 2])].sum().backward()
        assert np.allclose(x.grad, [2.0, 0.0, 1.0])

    def test_slice(self):
        x = tensor([1.0, 2.0, 3.0, 4.0])
        assert np.allclose(x[1:3].numpy(), [2.0, 3.0])


class TestGatherScatter:
    def test_take_rows_values(self):
        x = tensor([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        out = x.take_rows(np.array([2, 0]))
        assert np.allclose(out.numpy(), [[5.0, 6.0], [1.0, 2.0]])

    def test_take_rows_duplicate_gradient_accumulates(self):
        x = tensor(np.ones((3, 2)), requires_grad=True)
        x.take_rows(np.array([1, 1, 1])).sum().backward()
        assert np.allclose(x.grad, [[0, 0], [3, 3], [0, 0]])

    def test_segment_sum_values(self):
        x = tensor([[1.0], [2.0], [3.0]])
        out = x.segment_sum(np.array([0, 1, 0]), 2)
        assert np.allclose(out.numpy(), [[4.0], [2.0]])

    def test_segment_sum_gradient_is_gather(self):
        x = tensor(np.ones((3, 2)), requires_grad=True)
        out = x.segment_sum(np.array([0, 1, 0]), 2)
        (out * tensor([[1.0, 1.0], [2.0, 2.0]])).sum().backward()
        assert np.allclose(x.grad, [[1, 1], [2, 2], [1, 1]])

    def test_segment_sum_length_mismatch_raises(self):
        x = tensor(np.ones((3, 2)))
        with pytest.raises(ShapeError):
            x.segment_sum(np.array([0, 1]), 2)

    def test_segment_sum_empty_segment(self):
        x = tensor(np.ones((2, 1)))
        out = x.segment_sum(np.array([0, 0]), 3)
        assert np.allclose(out.numpy(), [[2.0], [0.0], [0.0]])


class TestConcatStack:
    def test_concat_values(self):
        out = concat([tensor([1.0]), tensor([2.0, 3.0])])
        assert np.allclose(out.numpy(), [1.0, 2.0, 3.0])

    def test_concat_axis1_gradients(self):
        a = tensor(np.ones((2, 2)), requires_grad=True)
        b = tensor(np.ones((2, 3)), requires_grad=True)
        concat([a, b], axis=1).sum().backward()
        assert a.grad.shape == (2, 2)
        assert b.grad.shape == (2, 3)

    def test_concat_empty_raises(self):
        with pytest.raises(ShapeError):
            concat([])

    def test_stack_values_and_grad(self):
        a = tensor([1.0, 2.0], requires_grad=True)
        b = tensor([3.0, 4.0], requires_grad=True)
        out = stack([a, b])
        assert out.shape == (2, 2)
        (out * tensor([[1.0, 1.0], [2.0, 2.0]])).sum().backward()
        assert np.allclose(a.grad, [1.0, 1.0])
        assert np.allclose(b.grad, [2.0, 2.0])

    def test_stack_empty_raises(self):
        with pytest.raises(ShapeError):
            stack([])


class TestNoGrad:
    def test_no_grad_blocks_graph(self):
        x = tensor([1.0], requires_grad=True)
        with no_grad():
            y = x * 2
        assert not y.requires_grad

    def test_no_grad_restores_state(self):
        from repro.autograd import is_grad_enabled

        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_no_grad_restores_on_exception(self):
        from repro.autograd import is_grad_enabled

        with pytest.raises(ValueError):
            with no_grad():
                raise ValueError("boom")
        assert is_grad_enabled()


class TestGraphFreedByBackward:
    def test_second_backward_through_same_graph_raises(self):
        x = tensor([1.0, 2.0], requires_grad=True)
        out = (x * x).sum()
        out.backward()
        with pytest.raises(GradientError):
            out.backward()
        assert np.allclose(x.grad, [2.0, 4.0])

    def test_shared_interior_node_raises_instead_of_accumulating(self):
        x = tensor([3.0], requires_grad=True)
        shared = x * 2
        (shared * 1).backward(np.array([1.0]))
        with pytest.raises(GradientError):
            (shared * 1).backward(np.array([1.0]))
