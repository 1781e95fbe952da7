"""Temporal graph attention (TGAT) layers -- Eqs. 3-5 of the paper.

The layer operates on a *bipartite computation graph* (Fig. 4): a set of
source rows, a set of target rows, and an edge list connecting them.  For
every edge ``(s, d)`` and attention head ``i`` the unnormalised score is

    e_i = LeakyReLU( a_i^T [ W h_s || W h_d ] )        (Eq. 5 numerator)

scores are normalised with a per-target softmax (Eq. 5 denominator), messages
``W h_s`` are aggregated by an attention-weighted sum per target (Eq. 4), the
heads are concatenated and projected by ``W_o`` (Eq. 3).  Because
``a_i^T [W h_s || W h_d] = a_src . W h_s + a_dst . W h_d``, the target half
of every score is computed once per target node and gathered per edge.

Temporal information enters through a sinusoidal time encoding of the edge
time difference, added to the source message before scoring, which lets the
attention discriminate between neighbours at different temporal distances.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..autograd import Tensor, checkpoint, concat, row_matmul, scatter_add_rows
from ..autograd.ops import sorted_segment_softmax, sorted_segment_softmax_vjp
from ..autograd.tensor import segment_runs
from ..errors import ConfigError, ShapeError
from . import init
from .module import Module, Parameter


class TimeEncoding(Module):
    """Bochner-style sinusoidal encoding of (relative) timestamps.

    Maps a scalar time difference to ``dim`` features
    ``cos(w_k * dt + b_k)`` with learnable frequencies, following the
    functional time encoding used by temporal graph attention networks.
    """

    def __init__(self, dim: int, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        if dim <= 0:
            raise ConfigError("time encoding dim must be positive")
        rng = rng if rng is not None else np.random.default_rng()
        self.dim = dim
        # Geometric frequency ladder, perturbed slightly so heads differ.
        base = 1.0 / (10.0 ** np.linspace(0.0, 4.0, dim))
        self.frequency = Parameter(base * (1.0 + 0.01 * rng.standard_normal(dim)))
        self.phase = Parameter(np.zeros(dim))

    def forward(self, delta_t: np.ndarray) -> Tensor:
        """Encode time offsets ``delta_t`` as ``(..., dim)`` features."""
        dt = np.asarray(delta_t, dtype=self.frequency.data.dtype).reshape(-1, 1)
        return _cos(Tensor(dt) * self.frequency.reshape(1, self.dim) + self.phase)


def _cos(x: Tensor) -> Tensor:
    """Differentiable cosine built directly on the raw data/closure API."""
    data = np.cos(x.data)
    # The sine is taken in the backward, so inference never computes it.
    return Tensor._from_op(data, (x,), (lambda g: -g * np.sin(x.data),), "cos")


def _scatter_head(param_data: np.ndarray, head: int, grad: np.ndarray) -> np.ndarray:
    """Scatter one head's gradient into a zeroed full-parameter buffer.

    Replicates the ``__getitem__`` backward of the composed graph
    (``np.zeros`` + ``np.add.at`` -- never direct assignment, which would
    differ on signed zeros), so per-head parameter gradients from the fused
    kernel are bit-identical to the reference composition's.
    """
    out = np.zeros(param_data.shape, dtype=param_data.dtype)
    np.add.at(out, head, grad)
    return out


#: Width of the zero-padded GEMM that computes attention logits.  A row's
#: dot product with one vector is a one-column product, which NumPy hands
#: to GEMV, and GEMV's rows depend on their position in the batch; so do
#: OpenBLAS GEMM rows at some widths (1-3 mod 8 in float64).  At width 16
#: rows were position-independent for every K up to 128 in both dtypes.
LOGIT_COLUMNS = 16

#: Rows per :func:`_logits` GEMM.  The padded product is :data:`LOGIT_COLUMNS`
#: times the size of the logits it yields: whole, a training batch's
#: outermost layer (20,000+ edges) made a 1.3 MB float32 transient per head.
#: Rows are invariant, so the bits do not depend on this size.  Swept on the
#: e2e ``train`` workload (4 seeds, interleaved): 1,024 and 4,096 rows cut
#: ``train_centres_per_s`` 6-9% against no chunking, through the allocator
#: (a fit took ~7,000 more minor page faults); 8,192 rows (512 KiB float32)
#: read within 2% of it.
LOGIT_CHUNK_ROWS = 8192


def _logits(x: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Each row's dot product with ``a``: column 0 of ``x @ [a | 0 ...]``.

    A row-invariant GEMM (:data:`LOGIT_COLUMNS` wide), so a logit's bits
    never depend on the other rows in the batch; it runs in blocks of
    :data:`LOGIT_CHUNK_ROWS` rows.
    """
    cols = np.zeros((a.shape[0], LOGIT_COLUMNS), dtype=a.dtype)
    cols[:, 0] = a
    out = np.empty(x.shape[0], dtype=np.result_type(x, cols))
    for start in range(0, x.shape[0], LOGIT_CHUNK_ROWS):
        block = slice(start, start + LOGIT_CHUNK_ROWS)
        out[block] = row_matmul(x[block], cols)[:, 0]
    return out


def _logits_vjp(g: np.ndarray, x: np.ndarray, a: np.ndarray):
    """Gradients of ``x`` and ``a`` from the gradient ``g`` of :func:`_logits`.

    ``a``'s is column 0 of the padded GEMM's weight gradient, as the
    composed reference computes it; ``x``'s is the outer product, which
    equals that GEMM's output bit for bit (every other term is ``0 * 0``).
    """
    first = np.zeros((g.shape[0], LOGIT_COLUMNS), dtype=g.dtype)
    first[:, 0] = g
    return g[:, None] * a, (np.swapaxes(x, -1, -2) @ first)[:, 0]


class TemporalGraphAttention(Module):
    """One multi-head TGAT layer over a bipartite computation graph.

    Parameters
    ----------
    in_features:
        Dimensionality of the incoming node representations.
    out_features:
        Dimensionality of the layer output (after the ``W_o`` projection).
    num_heads:
        Number of attention heads ``h_tga`` (Eq. 3).
    head_dim:
        Per-head representation width ``d_enc``; defaults to
        ``out_features // num_heads``.
    time_dim:
        Width of the sinusoidal time encoding added to source messages.
        Set to 0 to disable temporal conditioning.
    negative_slope:
        LeakyReLU slope used in Eq. 5 (paper value: 0.2).
    checkpoint:
        Activation-checkpointing (recompute-in-backward) mode.  When
        ``True`` and gradients are being recorded, the per-edge
        intermediates of the attention kernel (gathered messages, scores,
        softmax weights -- the O(edges * head_dim) tensors that dominate
        training memory) are *not* kept alive for the backward pass;
        instead the whole layer kernel is re-evaluated once when its
        gradient arrives.  The recompute replays the identical full-shape
        array operations, so losses and gradients are bit-identical to the
        plain path -- only peak memory and a ~30% compute overhead change.
        Inference (``no_grad``) is unaffected.  May also be toggled after
        construction via the attribute.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        num_heads: int = 4,
        head_dim: Optional[int] = None,
        time_dim: int = 8,
        negative_slope: float = 0.2,
        rng: Optional[np.random.Generator] = None,
        checkpoint: bool = False,
    ) -> None:
        super().__init__()
        if num_heads <= 0:
            raise ConfigError("num_heads must be positive")
        rng = rng if rng is not None else np.random.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.num_heads = num_heads
        self.head_dim = head_dim if head_dim is not None else max(out_features // num_heads, 1)
        self.time_dim = time_dim
        self.negative_slope = negative_slope
        self.checkpoint = checkpoint

        d = self.head_dim
        # Per-head projections W (shared src/dst as in GAT) and vectors a_i.
        self.w_src = Parameter(init.xavier_uniform((num_heads, in_features, d), rng))
        self.w_dst = Parameter(init.xavier_uniform((num_heads, in_features, d), rng))
        # a_i is split into the source half and destination half so the
        # concatenation in Eq. 5 becomes a sum of two dot products.
        self.attn_src = Parameter(init.xavier_uniform((num_heads, d), rng))
        self.attn_dst = Parameter(init.xavier_uniform((num_heads, d), rng))
        self.w_out = Parameter(init.xavier_uniform((num_heads * d, out_features), rng))
        self.bias = Parameter(init.zeros((out_features,)))
        if time_dim > 0:
            self.time_encoding = TimeEncoding(time_dim, rng=rng)
            self.w_time = Parameter(init.xavier_uniform((num_heads, time_dim, d), rng))
        else:
            self.time_encoding = None
            self.w_time = None

    def forward(
        self,
        h_src: Tensor,
        h_dst: Tensor,
        src_index: np.ndarray,
        dst_index: np.ndarray,
        delta_t: Optional[np.ndarray] = None,
    ) -> Tensor:
        """Aggregate source messages into target representations.

        The edges, in any order, are stably sorted by target once here, and
        every head gets the target runs, so no head sorts or scans them
        again.  Each distinct time offset is encoded once and every head
        projects it once, gathering per edge: the encoding is elementwise
        and the projection row-invariant, so the forward bits equal a
        per-edge encoding's, and the backward sums each offset's edge
        gradients before its projection.  In checkpoint mode each head
        becomes a recompute-in-backward unit
        (:func:`repro.autograd.checkpoint`): the O(edges * head_dim)
        intermediates of at most *one head* exist at any moment of the
        backward pass, instead of every head of every layer staying alive
        from forward to backward.

        Parameters
        ----------
        h_src:
            ``(n_src, in_features)`` source-node representations.
        h_dst:
            ``(n_dst, in_features)`` target-node representations (used only
            for attention scoring; self-information should be provided via
            a self-loop edge, which the sampler adds).
        src_index, dst_index:
            Parallel ``(n_edges,)`` integer arrays defining the bipartite
            edges: edge ``e`` flows ``src_index[e] -> dst_index[e]``.
            Several independent bipartite graphs go in one call as one
            block-diagonal graph (:class:`~repro.graph.PackedEgoBatch`).
        delta_t:
            Optional time differences ``t_dst - t_src`` for the temporal
            encoding, one per edge.

        Returns the ``(n_dst, out_features)`` target representations.
        """
        src_index = np.asarray(src_index, dtype=np.int64)
        dst_index = np.asarray(dst_index, dtype=np.int64)
        if src_index.shape != dst_index.shape or src_index.ndim != 1:
            raise ShapeError("src_index and dst_index must be 1-D and of equal length")
        if h_src.ndim != 2 or h_dst.ndim != 2:
            raise ShapeError("attention expects 2-D h_src and h_dst")
        n_dst = h_dst.shape[0]
        if src_index.shape[0] == 0:
            return (
                Tensor(np.zeros((n_dst, self.out_features), dtype=self.bias.data.dtype))
                + self.bias
            )
        order, starts, counts = segment_runs(dst_index)
        if order is not None:
            src_index, dst_index = src_index[order], dst_index[order]
            if delta_t is not None:
                delta_t = np.asarray(delta_t)[order]
        runs = (starts, counts)
        time_feat = time_rows = None
        inputs = [h_src, h_dst, self.w_src, self.w_dst, self.attn_src, self.attn_dst]
        if self.time_encoding is not None and delta_t is not None:
            # One encoding per distinct offset; edge e reads row time_rows[e].
            offsets, time_rows = np.unique(delta_t, return_inverse=True)
            time_feat = self.time_encoding(offsets)
            inputs[2:2] = [time_feat]
            inputs.append(self.w_time)

        def head_fn(head: int):
            def fn(hs, hd, *rest):
                if time_feat is None:
                    rest = (None,) + rest
                return self._head(
                    head, src_index, dst_index, n_dst, hs, hd, *rest,
                    runs=runs, time_rows=time_rows,
                )

            return fn

        head_outputs = [
            checkpoint(head_fn(head), *inputs) if self.checkpoint else head_fn(head)(*inputs)
            for head in range(self.num_heads)
        ]
        stacked = concat(head_outputs, axis=1)
        return stacked @ self.w_out + self.bias


    def _head(
        self,
        head: int,
        src_index: np.ndarray,
        dst_index: np.ndarray,
        n_dst: int,
        h_src: Tensor,
        h_dst: Tensor,
        time_feat: Optional[Tensor],
        w_src: Tensor,
        w_dst: Tensor,
        attn_src: Tensor,
        attn_dst: Tensor,
        w_time: Optional[Tensor] = None,
        *,
        runs: Optional[Tuple[np.ndarray, np.ndarray]] = None,
        time_rows: Optional[np.ndarray] = None,
    ) -> Tensor:
        """Fused one-pass kernel for one head: logits -> segment softmax -> sum.

        One graph node with a hand-derived vector-Jacobian product; the
        readable specification is the composed oracle ``_head_reference``
        in ``tests/test_nn_attention_fused.py``, which it matches bit for
        bit (output and every gradient).  The work per edge is small:

        * the target half of Eq. 5's score is per node:
          ``er = (h_dst W_dst) . a_dst`` once per target, gathered as one
          scalar per edge, so no ``(edges, head_dim)`` target projection is
          gathered or multiplied.  The source half ``msg . a_src`` stays per
          edge (the time term makes each edge's message its own);
        * both dot products are :func:`_logits`, one row-invariant GEMM
          each rather than a per-row reduction loop;
        * edges are grouped by target with one stable sort
          (:func:`~repro.autograd.tensor.segment_runs`), so the segment
          max, the softmax denominator and the message sum are
          ``ufunc.reduceat`` over contiguous runs.  :meth:`forward` sorts
          once and passes every head the ``runs`` (starts, counts) of its
          target-sorted edges; without them the head sorts for itself;
        * ``time_feat`` holds one encoding per distinct time offset and
          edge ``e`` (in the caller's order) takes row ``time_rows[e]`` of
          its projection; the backward scatters the per-edge message
          gradient into those rows before it multiplies by ``W_t``.

        Edges may come in any order; a target's result depends only on its
        own edges in their given order.  The backward is the standard
        segment-softmax VJP (:func:`~repro.autograd.ops.sorted_segment_softmax_vjp`)
        feeding per-edge and per-target logit gradients.  Every tensor
        argument receives exactly one gradient contribution per call, which
        keeps per-head checkpoint units bit-identical to the plain path.
        """
        if time_feat is None:
            w_time = None
        if runs is None:
            order, starts, counts = segment_runs(dst_index)
        else:
            order, (starts, counts) = None, runs
        if order is not None:
            src_index, dst_index = src_index[order], dst_index[order]
        targets = dst_index[starts]
        hs, hd = h_src.data, h_dst.data
        ws, wd = w_src.data[head], w_dst.data[head]
        a_s, a_d = attn_src.data[head], attn_dst.data[head]

        # --- forward -----------------------------------------------------
        msg = np.take(row_matmul(hs, ws), src_index, axis=0)
        if time_feat is not None:
            tf, wt = time_feat.data, w_time.data[head]
            rows = time_rows if order is None else time_rows[order]
            np.add(msg, np.take(row_matmul(tf, wt), rows, axis=0), out=msg)
        z_dst = row_matmul(hd, wd)
        score = _logits(msg, a_s) + _logits(z_dst, a_d)[dst_index]
        scale = np.where(score > 0, 1.0, self.negative_slope).astype(
            score.dtype, copy=False
        )
        np.multiply(score, scale, out=score)
        alpha = sorted_segment_softmax(score, starts, counts)
        del score
        out = np.zeros((n_dst, msg.shape[1]), dtype=msg.dtype)
        out[targets] = np.add.reduceat(msg * alpha[:, None], starts, axis=0)

        parents = [h_src, h_dst]
        if time_feat is not None:
            parents.append(time_feat)
        parents.extend([w_src, w_dst, attn_src, attn_dst])
        if w_time is not None:
            parents.append(w_time)

        # --- backward: all VJPs derived once per seed, cached until the
        # engine has collected every parent's slot (checkpoint-style).
        cache: dict = {}
        state = {"pending": sum(1 for t in parents if t.requires_grad)}

        def _grads(g: np.ndarray) -> list:
            if "grads" in cache:
                return cache["grads"]
            g_w = np.repeat(g[targets], counts, axis=0)
            g_alpha = (g_w * msg).sum(axis=(1,), keepdims=True).reshape(-1)
            g_score = sorted_segment_softmax_vjp(alpha, g_alpha, starts, counts)
            np.multiply(g_score, scale, out=g_score)
            # Source half: per edge, into the messages.
            g_msg, g_as_h = _logits_vjp(g_score, msg, a_s)
            g_msg += g_w * alpha[:, None]
            # Target half: per node, through the target projection.
            g_er = scatter_add_rows(dst_index, g_score, z_dst.shape[0], g.dtype)
            g_z_dst, g_ad_h = _logits_vjp(g_er, z_dst, a_d)
            g_h_dst = g_z_dst @ np.swapaxes(wd, -1, -2)
            g_wd_h = np.swapaxes(hd, -1, -2) @ g_z_dst
            g_z_src = scatter_add_rows(src_index, g_msg, hs.shape[0], g.dtype)
            g_h_src = g_z_src @ np.swapaxes(ws, -1, -2)
            g_ws_h = np.swapaxes(hs, -1, -2) @ g_z_src
            grads = [g_h_src, g_h_dst]
            if time_feat is not None:
                g_p = scatter_add_rows(rows, g_msg, tf.shape[0], g.dtype)
                grads.append(g_p @ np.swapaxes(wt, -1, -2))
            grads.append(_scatter_head(w_src.data, head, g_ws_h))
            grads.append(_scatter_head(w_dst.data, head, g_wd_h))
            grads.append(_scatter_head(attn_src.data, head, g_as_h))
            grads.append(_scatter_head(attn_dst.data, head, g_ad_h))
            if w_time is not None:
                grads.append(
                    _scatter_head(w_time.data, head, np.swapaxes(tf, -1, -2) @ g_p)
                )
            cache["grads"] = grads
            return grads

        def make_fn(i: int):
            def backward_fn(g: np.ndarray) -> np.ndarray:
                value = _grads(g)[i]
                state["pending"] -= 1
                if state["pending"] == 0:
                    cache.clear()
                return value

            return backward_fn

        return Tensor._from_op(
            out, tuple(parents), tuple(make_fn(i) for i in range(len(parents))),
            "tga_head",
        )

    def __repr__(self) -> str:
        return (
            f"TemporalGraphAttention(in={self.in_features}, out={self.out_features}, "
            f"heads={self.num_heads}, head_dim={self.head_dim}, time_dim={self.time_dim})"
        )
