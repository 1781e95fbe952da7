"""Composite differentiable operations built on the :class:`~repro.autograd.tensor.Tensor` primitives.

These are the numerically-stable building blocks used by the TGAE model and
the learning-based baselines: softmax families, the per-target softmax of
the attention kernel (Eq. 5) with its vector-Jacobian product, and the loss
terms from Eqs. 6-7 of the paper.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import ShapeError
from .tensor import Tensor


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    shifted = x - x.max(axis=axis, keepdims=True).detach()
    exp = shifted.exp()
    return exp / exp.sum(axis=axis, keepdims=True)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    shifted = x - x.max(axis=axis, keepdims=True).detach()
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def sorted_segment_softmax(
    scores: np.ndarray, starts: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    """Softmax of each run ``scores[starts[i] : starts[i] + counts[i]]``.

    ``scores`` is sorted by segment (see
    :func:`repro.autograd.tensor.segment_runs`); every run is shifted by its
    own maximum for stability.  This is Eq. 5's normalisation over the edges
    into one target in the attention kernel.
    """
    shifted = scores - np.repeat(np.maximum.reduceat(scores, starts, axis=0), counts, axis=0)
    exp = np.exp(shifted, out=shifted)
    return exp / np.repeat(np.add.reduceat(exp, starts, axis=0), counts, axis=0)


def sorted_segment_softmax_vjp(
    alpha: np.ndarray, grad: np.ndarray, starts: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    """Gradient of the scores of :func:`sorted_segment_softmax`.

    The standard softmax vector-Jacobian product per run:
    ``alpha * (grad - sum(alpha * grad))``.
    """
    weighted = alpha * grad
    total = np.repeat(np.add.reduceat(weighted, starts, axis=0), counts, axis=0)
    return weighted - alpha * total


def cross_entropy_with_logits(logits: Tensor, targets: np.ndarray, axis: int = -1) -> Tensor:
    """Mean cross-entropy between ``softmax(logits)`` and one-hot/dense targets.

    ``targets`` may be an integer class array (one label per row) or a dense
    probability array with the same shape as ``logits``.
    """
    logp = log_softmax(logits, axis=axis)
    targets_arr = np.asarray(targets)
    if targets_arr.shape == logits.shape:
        per_row = -(logp * Tensor(targets_arr)).sum(axis=axis)
        return per_row.mean()
    if targets_arr.ndim != logits.ndim - 1:
        raise ShapeError(
            f"targets shape {targets_arr.shape} incompatible with logits {logits.shape}"
        )
    flat = logp.reshape(-1, logits.shape[-1])
    idx = targets_arr.reshape(-1).astype(np.int64)
    rows = np.arange(idx.shape[0])
    picked = flat[(rows, idx)]
    return -picked.mean()


def binary_cross_entropy_with_logits(
    logits: Tensor, targets: np.ndarray, weight: Optional[np.ndarray] = None
) -> Tensor:
    """Stable elementwise BCE, mean-reduced.

    Uses the standard ``max(x,0) - x*t + log(1+exp(-|x|))`` formulation so
    large-magnitude logits do not overflow.
    """
    t = Tensor(np.asarray(targets, dtype=logits.data.dtype))
    relu_x = logits.relu()
    loss = relu_x - logits * t + ((-logits.abs()).exp() + 1.0).log()
    if weight is not None:
        loss = loss * Tensor(np.asarray(weight, dtype=logits.data.dtype))
    return loss.mean()


def kl_standard_normal(
    mu: Tensor, log_sigma: Tensor, scale: Optional[float] = None
) -> Tensor:
    """KL( N(mu, sigma^2) || N(0, 1) ), mean over rows.

    This is the regulariser of Eq. 6; ``log_sigma`` parameterises the scale to
    keep the optimisation unconstrained.

    ``scale`` replaces the ``1 / rows`` of the mean with an explicit factor,
    which is how the sharded trainer makes per-shard KL terms additive: each
    shard contributes ``row_sums.sum() * (1 / total_rows)`` so the sum over
    shards equals the global mean.  ``None`` keeps the plain per-call mean.
    """
    sigma_sq = (log_sigma * 2.0).exp()
    per_element = 0.5 * (sigma_sq + mu * mu - 1.0 - log_sigma * 2.0)
    per_row = per_element.sum(axis=-1)
    if scale is None:
        return per_row.mean()
    return per_row.sum() * scale
