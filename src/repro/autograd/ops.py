"""Composite differentiable operations built on the :class:`~repro.autograd.tensor.Tensor` primitives.

These are the numerically-stable building blocks used by the TGAE model and
the learning-based baselines: softmax families, segment (per-group) softmax
for graph attention, and the loss terms from Eqs. 6-7 of the paper.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import ShapeError
from .tensor import Tensor, segment_runs
from .tensor import checkpoint as _checkpoint


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    shifted = x - x.max(axis=axis, keepdims=True).detach()
    exp = shifted.exp()
    return exp / exp.sum(axis=axis, keepdims=True)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    shifted = x - x.max(axis=axis, keepdims=True).detach()
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def segment_softmax(
    scores: Tensor,
    segment_ids: np.ndarray,
    num_segments: int,
    checkpoint: bool = False,
) -> Tensor:
    """Softmax over groups of rows sharing a segment id.

    This implements the attention normalisation of Eq. 5: each edge score is
    normalised over all edges pointing at the same target node.  One graph
    node: the rows are stably sorted by segment (:func:`segment_runs`), the
    forward is :func:`sorted_segment_softmax` and the backward the standard
    softmax vector-Jacobian product :func:`sorted_segment_softmax_vjp`.

    Parameters
    ----------
    scores:
        1-D tensor of per-edge scores (or 2-D ``(edges, heads)``).
    segment_ids:
        Integer array mapping each row of ``scores`` to its target segment,
        in ``range(num_segments)``.
    num_segments:
        Total number of segments (target nodes).
    checkpoint:
        Recompute-in-backward mode (:func:`repro.autograd.checkpoint`).
        Values and gradients are bit-identical to the plain path; the node
        keeps only its output alive either way.
    """
    ids = np.asarray(segment_ids, dtype=np.int64)
    if ids.ndim != 1 or ids.shape[0] != scores.shape[0]:
        raise ShapeError("segment_ids must be 1-D and match scores rows")
    if ids.size and (ids.min() < 0 or ids.max() >= num_segments):
        raise ShapeError(f"segment_ids must lie in range({num_segments})")
    if checkpoint:
        return _checkpoint(lambda s: _segment_softmax_impl(s, ids), scores)
    return _segment_softmax_impl(scores, ids)


def sorted_segment_softmax(
    scores: np.ndarray, starts: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    """Softmax of each run ``scores[starts[i] : starts[i] + counts[i]]``.

    ``scores`` is sorted by segment (see :func:`segment_runs`); every run is
    shifted by its own maximum for stability.  Shared by
    :func:`segment_softmax` and the attention kernel, so both associate the
    sums identically.
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


def _segment_softmax_impl(scores: Tensor, ids: np.ndarray) -> Tensor:
    """The recorded segment-softmax node shared by both modes."""
    order, starts, counts = segment_runs(ids)
    perm = slice(None) if order is None else order
    alpha = sorted_segment_softmax(scores.data[perm], starts, counts)
    data = np.empty_like(alpha)
    data[perm] = alpha

    def grad_fn(g: np.ndarray) -> np.ndarray:
        out = np.empty_like(alpha)
        out[perm] = sorted_segment_softmax_vjp(alpha, g[perm], starts, counts)
        return out

    return Tensor._from_op(data, (scores,), (grad_fn,), "segment_softmax")


def segment_mean(values: Tensor, segment_ids: np.ndarray, num_segments: int) -> Tensor:
    """Average rows of ``values`` within each segment."""
    ids = np.asarray(segment_ids, dtype=np.int64)
    totals = values.segment_sum(ids, num_segments)
    counts = np.zeros(num_segments, dtype=values.data.dtype)
    np.add.at(counts, ids, 1.0)
    counts = np.maximum(counts, 1.0)
    shape = (num_segments,) + (1,) * (values.ndim - 1)
    return totals / Tensor(counts.reshape(shape))


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


def mse(prediction: Tensor, target: np.ndarray) -> Tensor:
    """Mean squared error against a constant target."""
    diff = prediction - Tensor(np.asarray(target, dtype=prediction.data.dtype))
    return (diff * diff).mean()


def logsumexp(x: Tensor, axis: int = -1, keepdims: bool = False) -> Tensor:
    """Numerically stable log-sum-exp reduction."""
    m = x.max(axis=axis, keepdims=True).detach()
    out = (x - m).exp().sum(axis=axis, keepdims=True).log() + m
    if not keepdims:
        out = out.reshape(*np.delete(np.array(out.shape), axis))
    return out
