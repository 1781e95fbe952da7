"""Tests for composite autograd ops: softmax family, the segment-softmax oracle, losses."""

import numpy as np
import pytest

from attention_oracle import segment_softmax

from repro.autograd import (
    binary_cross_entropy_with_logits,
    check_gradients,
    cross_entropy_with_logits,
    kl_standard_normal,
    log_softmax,
    softmax,
    tensor,
)
from repro.errors import ShapeError


class TestSoftmax:
    def test_rows_sum_to_one(self):
        x = tensor(np.random.default_rng(0).standard_normal((4, 5)))
        out = softmax(x).numpy()
        assert np.allclose(out.sum(axis=1), 1.0)
        assert np.all(out >= 0)

    def test_shift_invariance(self):
        x = tensor([[1.0, 2.0, 3.0]])
        assert np.allclose(softmax(x).numpy(), softmax(x + 100.0).numpy())

    def test_large_values_stable(self):
        out = softmax(tensor([[1000.0, 1001.0]])).numpy()
        assert np.all(np.isfinite(out))

    def test_gradcheck(self):
        x = tensor(np.random.default_rng(1).standard_normal((3, 4)), requires_grad=True)
        assert check_gradients(lambda t: softmax(t), [x])

    def test_log_softmax_matches_log_of_softmax(self):
        x = tensor(np.random.default_rng(2).standard_normal((3, 4)))
        assert np.allclose(log_softmax(x).numpy(), np.log(softmax(x).numpy()))

    def test_log_softmax_gradcheck(self):
        x = tensor(np.random.default_rng(3).standard_normal((2, 5)), requires_grad=True)
        assert check_gradients(lambda t: log_softmax(t), [x])


class TestSegmentSoftmax:
    def test_sums_to_one_per_segment(self):
        scores = tensor(np.random.default_rng(4).standard_normal(6))
        ids = np.array([0, 0, 1, 1, 1, 2])
        out = segment_softmax(scores, ids, 3).numpy()
        for segment in range(3):
            assert np.isclose(out[ids == segment].sum(), 1.0)

    def test_matches_dense_softmax_single_segment(self):
        scores = tensor(np.array([1.0, 2.0, 3.0]))
        out = segment_softmax(scores, np.zeros(3, dtype=int), 1).numpy()
        expected = softmax(tensor([[1.0, 2.0, 3.0]])).numpy()[0]
        assert np.allclose(out, expected)

    def test_gradcheck(self):
        scores = tensor(np.random.default_rng(5).standard_normal(5), requires_grad=True)
        ids = np.array([0, 1, 0, 1, 1])
        assert check_gradients(lambda t: segment_softmax(t, ids, 2), [scores])

    def test_id_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            segment_softmax(tensor(np.ones(3)), np.array([0, 1]), 2)

    def test_extreme_scores_stable(self):
        scores = tensor(np.array([1e4, 1e4 + 1.0, -1e4]))
        out = segment_softmax(scores, np.array([0, 0, 0]), 1).numpy()
        assert np.all(np.isfinite(out))
        assert np.isclose(out.sum(), 1.0)


class TestCrossEntropy:
    def test_integer_targets_value(self):
        logits = tensor([[10.0, 0.0], [0.0, 10.0]])
        loss = cross_entropy_with_logits(logits, np.array([0, 1]))
        assert loss.item() < 1e-3

    def test_dense_targets_match_integer(self):
        logits = tensor(np.random.default_rng(7).standard_normal((3, 4)))
        labels = np.array([1, 3, 0])
        dense = np.eye(4)[labels]
        a = cross_entropy_with_logits(logits, labels).item()
        b = cross_entropy_with_logits(logits, dense).item()
        assert a == pytest.approx(b)

    def test_gradcheck_integer_targets(self):
        logits = tensor(np.random.default_rng(8).standard_normal((3, 4)), requires_grad=True)
        labels = np.array([0, 2, 1])
        assert check_gradients(lambda t: cross_entropy_with_logits(t, labels), [logits])

    def test_bad_target_shape_raises(self):
        with pytest.raises(ShapeError):
            cross_entropy_with_logits(tensor(np.ones((2, 3))), np.zeros((2, 2, 2)))


class TestBCE:
    def test_perfect_prediction_near_zero(self):
        logits = tensor([100.0, -100.0])
        loss = binary_cross_entropy_with_logits(logits, np.array([1.0, 0.0]))
        assert loss.item() < 1e-6

    def test_matches_reference_formula(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal(10)
        t = rng.integers(0, 2, 10).astype(float)
        loss = binary_cross_entropy_with_logits(tensor(x), t).item()
        p = 1 / (1 + np.exp(-x))
        reference = -(t * np.log(p) + (1 - t) * np.log(1 - p)).mean()
        assert loss == pytest.approx(reference, rel=1e-6)

    def test_weighted(self):
        logits = tensor([0.0, 0.0])
        unweighted = binary_cross_entropy_with_logits(logits, np.array([1.0, 0.0])).item()
        weighted = binary_cross_entropy_with_logits(
            logits, np.array([1.0, 0.0]), weight=np.array([2.0, 2.0])
        ).item()
        assert weighted == pytest.approx(2 * unweighted)

    def test_gradcheck(self):
        logits = tensor(np.random.default_rng(10).standard_normal(6), requires_grad=True)
        targets = np.array([1.0, 0.0, 1.0, 1.0, 0.0, 0.0])
        assert check_gradients(
            lambda t: binary_cross_entropy_with_logits(t, targets), [logits]
        )

    def test_extreme_logits_stable(self):
        loss = binary_cross_entropy_with_logits(
            tensor([1e4, -1e4]), np.array([0.0, 1.0])
        )
        assert np.isfinite(loss.item())


class TestKL:
    def test_standard_normal_is_zero(self):
        mu = tensor(np.zeros((4, 3)))
        log_sigma = tensor(np.zeros((4, 3)))
        assert kl_standard_normal(mu, log_sigma).item() == pytest.approx(0.0)

    def test_positive_otherwise(self):
        mu = tensor(np.ones((2, 3)))
        log_sigma = tensor(np.full((2, 3), -0.5))
        assert kl_standard_normal(mu, log_sigma).item() > 0

    def test_closed_form(self):
        # KL(N(m, s^2) || N(0,1)) per dim = 0.5 (s^2 + m^2 - 1 - log s^2)
        m, log_s = 0.7, 0.3
        mu = tensor(np.full((1, 1), m))
        log_sigma = tensor(np.full((1, 1), log_s))
        expected = 0.5 * (np.exp(2 * log_s) + m**2 - 1 - 2 * log_s)
        assert kl_standard_normal(mu, log_sigma).item() == pytest.approx(expected)

    def test_gradcheck(self):
        rng = np.random.default_rng(11)
        mu = tensor(rng.standard_normal((2, 3)), requires_grad=True)
        log_sigma = tensor(rng.standard_normal((2, 3)) * 0.1, requires_grad=True)
        assert check_gradients(kl_standard_normal, [mu, log_sigma])

