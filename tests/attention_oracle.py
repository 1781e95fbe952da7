"""Composed segment softmax: the reference for the attention kernel's Eq. 5.

``segment_softmax`` normalises edge scores over the edges into each
target as one autograd node: the rows are stably sorted by segment
(``repro.autograd.tensor.segment_runs``), the forward is
``sorted_segment_softmax`` and the backward the standard softmax
vector-Jacobian product ``sorted_segment_softmax_vjp``.  The attention
kernel (``TemporalGraphAttention._head``) runs the same two functions inline
and is checked bit for bit against a composition built on this op
(``_head_reference`` in ``tests/test_nn_attention_fused.py``).
"""

from __future__ import annotations

import numpy as np

from repro.autograd import Tensor
from repro.autograd.ops import sorted_segment_softmax, sorted_segment_softmax_vjp
from repro.autograd.tensor import segment_runs
from repro.errors import ShapeError


def segment_softmax(scores: Tensor, segment_ids: np.ndarray, num_segments: int) -> Tensor:
    """Softmax over the rows of ``scores`` that share a segment id.

    ``scores`` is 1-D per-edge scores (or 2-D ``(edges, heads)``);
    ``segment_ids`` maps each row to its target in ``range(num_segments)``.
    """
    ids = np.asarray(segment_ids, dtype=np.int64)
    if ids.ndim != 1 or ids.shape[0] != scores.shape[0]:
        raise ShapeError("segment_ids must be 1-D and match scores rows")
    if ids.size and (ids.min() < 0 or ids.max() >= num_segments):
        raise ShapeError(f"segment_ids must lie in range({num_segments})")
    return _segment_softmax_impl(scores, ids)


def _segment_softmax_impl(scores: Tensor, ids: np.ndarray) -> Tensor:
    """The recorded segment-softmax node."""
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
