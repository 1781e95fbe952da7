"""Temporal graph attention (TGAT) layers -- Eqs. 3-5 of the paper.

The layer operates on a *bipartite computation graph* (Fig. 4): a set of
source rows, a set of target rows, and an edge list connecting them.  For
every edge ``(s, d)`` and attention head ``i`` the unnormalised score is

    e_i = LeakyReLU( a_i^T [ W h_s || W h_d ] )        (Eq. 5 numerator)

scores are normalised with a per-target softmax (Eq. 5 denominator), messages
``W h_s`` are aggregated by attention-weighted scatter-add (Eq. 4), the heads
are concatenated and projected by ``W_o`` (Eq. 3).

Temporal information enters through a sinusoidal time encoding of the edge
time difference, added to the source message before scoring, which lets the
attention discriminate between neighbours at different temporal distances.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..autograd import Tensor, checkpoint, concat, is_grad_enabled, row_matmul, scatter_add_rows
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
        return _time_encode(delta_t, self.frequency, self.phase, self.dim)


def _time_encode(
    delta_t: np.ndarray, frequency: Tensor, phase: Tensor, dim: int
) -> Tensor:
    """Functional form of :class:`TimeEncoding` (parameters passed explicitly).

    The attention layer's checkpointed recompute path substitutes leaf
    copies of ``frequency``/``phase``, so the encoding must be expressible
    as a pure function of its parameter tensors.
    """
    dt = np.asarray(delta_t, dtype=frequency.data.dtype).reshape(-1, 1)
    angles = Tensor(dt) * frequency.reshape(1, dim) + phase
    return _cos(angles)


def _cos(x: Tensor) -> Tensor:
    """Differentiable cosine built directly on the raw data/closure API."""
    data = np.cos(x.data)
    sin = np.sin(x.data)
    return Tensor._from_op(data, (x,), (lambda g: -g * sin,), "cos")


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
        edge_mask: Optional[np.ndarray] = None,
    ) -> Tensor:
        """Aggregate source messages into target representations.

        Two input layouts are supported:

        * **Flat** (one merged bipartite graph): ``h_src`` is
          ``(n_src, in_features)``, ``h_dst`` is ``(n_dst, in_features)``
          and the index arrays are ``(n_edges,)``.
        * **Batched/padded** (one independent bipartite graph per leading
          batch row, e.g. a :class:`~repro.graph.bipartite.PackedEgoBatch`
          level): ``h_src`` is ``(batch, n_src, in_features)``, ``h_dst`` is
          ``(batch, n_dst, in_features)``, the index arrays (and optional
          ``delta_t`` / ``edge_mask``) are ``(batch, n_edges)``, and the
          output is ``(batch, n_dst, out_features)``.

        Parameters
        ----------
        h_src:
            Source-node representations.
        h_dst:
            Target-node representations (used only for attention scoring;
            self-information should be provided via a self-loop edge, which
            the sampler adds).
        src_index, dst_index:
            Parallel integer arrays defining the bipartite edges: edge ``e``
            flows ``src_index[e] -> dst_index[e]`` (within its batch row in
            the padded layout).
        delta_t:
            Optional time differences ``t_dst - t_src`` for the temporal
            encoding, one per edge.
        edge_mask:
            Optional boolean array marking *real* edges in the padded
            layout; ``False`` entries are padding and contribute nothing to
            any target (their messages are routed to a discarded dummy row).
        """
        src_index = np.asarray(src_index, dtype=np.int64)
        dst_index = np.asarray(dst_index, dtype=np.int64)
        if src_index.shape != dst_index.shape:
            raise ShapeError("src_index and dst_index must have equal length")
        if h_src.ndim == 3:
            return self._forward_padded(
                h_src, h_dst, src_index, dst_index, delta_t, edge_mask
            )
        return self._forward_flat(
            h_src, h_dst, src_index, dst_index, delta_t, h_dst.shape[0]
        )

    def _forward_padded(
        self,
        h_src: Tensor,
        h_dst: Tensor,
        src_index: np.ndarray,
        dst_index: np.ndarray,
        delta_t: Optional[np.ndarray],
        edge_mask: Optional[np.ndarray],
    ) -> Tensor:
        """Batched forward over per-ego padded bipartite graphs.

        Each batch row is an independent bipartite graph; the whole batch is
        flattened into one block-diagonal graph (per-row index offsets) so
        the flat gather/scatter kernels compute every row concurrently.
        Masked (padding) edges are redirected to one extra dummy target row
        which is sliced away afterwards, so they influence neither the
        softmax normalisation nor the aggregation of any real target.
        """
        if h_dst.ndim != 3 or src_index.ndim != 2:
            raise ShapeError(
                "padded attention expects 3-D h_src/h_dst and 2-D index arrays"
            )
        batch, n_src = h_src.shape[0], h_src.shape[1]
        n_dst = h_dst.shape[1]
        if h_dst.shape[0] != batch or src_index.shape[0] != batch:
            raise ShapeError("batch dimension mismatch between inputs")
        flat_src = h_src.reshape(batch * n_src, h_src.shape[2])
        flat_dst = h_dst.reshape(batch * n_dst, h_dst.shape[2])
        row_offset = np.arange(batch, dtype=np.int64)[:, None]
        src_flat = (src_index + row_offset * n_src).reshape(-1)
        dst_flat = (dst_index + row_offset * n_dst).reshape(-1)
        num_targets = batch * n_dst
        if edge_mask is not None:
            mask_flat = np.asarray(edge_mask, dtype=bool).reshape(-1)
            dst_flat = np.where(mask_flat, dst_flat, num_targets)
            # One dummy target row absorbs every padding edge.
            zero_row = Tensor(np.zeros((1, flat_dst.shape[1]), dtype=flat_dst.data.dtype))
            flat_dst = concat([flat_dst, zero_row], axis=0)
            num_targets += 1
        dt_flat = None if delta_t is None else np.asarray(delta_t).reshape(-1)
        out = self._forward_flat(flat_src, flat_dst, src_flat, dst_flat, dt_flat, num_targets)
        if edge_mask is not None:
            out = out[: batch * n_dst]
        return out.reshape(batch, n_dst, self.out_features)

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
    ) -> Tensor:
        """Fused one-pass kernel for one head: QK -> segment softmax -> sum.

        Computes exactly what the composed reference head (the oracle in
        ``tests/test_nn_attention_fused.py``) builds out of ~15 autograd
        nodes, but as a *single* graph node with a hand-derived
        vector-Jacobian product.  Wins:

        * the per-edge intermediates that the composed graph keeps alive for
          backward (projections, score products, shifted scores, weighted
          messages) become transient scratch -- only ``msg``, the gathered
          ``z_dst`` rows, and three ``(edges,)`` softmax vectors survive to
          the backward closure;
        * scratch buffers are reused in place (the score/shifted-exp chain
          runs through two ``(edges,)`` buffers instead of six).

        Bit-exactness contract: every forward array expression and every
        backward accumulation replicates the composed graph's NumPy idioms
        operation for operation (same per-target update order, via
        :func:`~repro.autograd.scatter_add_rows`; same
        ``swapaxes`` matmul transposes, same broadcast-then-reduce shapes,
        same two-operand gradient-sum order -- IEEE addition of two operands
        is commutative bitwise), so losses, gradients, and the float64
        GOLDEN_DENSE fingerprints are unchanged.  Like the reference, every
        tensor argument receives exactly one gradient contribution per call,
        which keeps per-head checkpoint units bit-identical too.
        """
        hs, hd = h_src.data, h_dst.data
        ws, wd = w_src.data[head], w_dst.data[head]
        a_s, a_d = attn_src.data[head], attn_dst.data[head]
        tf = None if time_feat is None else time_feat.data
        wt = None if w_time is None else w_time.data[head]

        # --- forward: one pass, scratch reused -------------------------
        z_src = row_matmul(hs, ws)
        z_dst = row_matmul(hd, wd)
        z_src_rows, z_dst_rows = z_src.shape[0], z_dst.shape[0]
        msg = z_src[src_index]
        if tf is not None:
            np.add(msg, row_matmul(tf, wt), out=msg)
        zd_g = z_dst[dst_index]
        del z_src, z_dst
        score = (msg * a_s).sum(axis=-1)
        np.add(score, (zd_g * a_d).sum(axis=-1), out=score)
        scale = np.where(score > 0, 1.0, self.negative_slope).astype(
            score.dtype, copy=False
        )
        np.multiply(score, scale, out=score)
        # Segment softmax, replicating _segment_softmax_impl expression by
        # expression (the detached per-segment max shift, the 1e-30 guard).
        seg_max = np.full((n_dst,), -np.inf, dtype=score.dtype)
        np.maximum.at(seg_max, dst_index, score)
        seg_max = np.where(np.isfinite(seg_max), seg_max, 0.0)
        shifted = score - seg_max[dst_index]
        exp = np.exp(shifted, out=shifted)
        denom = scatter_add_rows(dst_index, exp, n_dst, exp.dtype)
        np.add(denom, np.asarray(1e-30, dtype=exp.dtype), out=denom)
        denom_g = denom[dst_index]
        alpha = exp / denom_g
        weighted = msg * alpha[:, None]
        out = scatter_add_rows(dst_index, weighted, n_dst, msg.dtype)
        del weighted, score, denom

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
            g_w = g[dst_index]
            # alpha <- weighted-mul; exp <- div + denom paths (2-op sums).
            g_alpha = (g_w * msg).sum(axis=(1,), keepdims=True).reshape(msg.shape[0])
            g_exp = g_alpha / denom_g
            g_denomg = -g_alpha * exp / (denom_g**2)
            g_denom = scatter_add_rows(dst_index, g_denomg, n_dst, exp.dtype)
            g_exp = g_exp + g_denom[dst_index]
            g_score = (g_exp * exp) * scale
            # Score products: broadcast the per-edge grad over head_dim.
            g_col = np.expand_dims(g_score, -1)
            g_msg = g_w * alpha[:, None] + np.broadcast_to(g_col, msg.shape) * a_s
            g_attn_src_h = (np.broadcast_to(g_col, msg.shape) * msg).sum(axis=0)
            g_zdg = np.broadcast_to(g_col, zd_g.shape) * a_d
            g_attn_dst_h = (np.broadcast_to(g_col, zd_g.shape) * zd_g).sum(axis=0)
            # dst projection chain.
            g_z_dst = scatter_add_rows(dst_index, g_zdg, z_dst_rows, g.dtype)
            g_h_dst = g_z_dst @ np.swapaxes(wd, -1, -2)
            g_wd_h = np.swapaxes(hd, -1, -2) @ g_z_dst
            # src projection (+ optional time) chain.
            g_z_src = scatter_add_rows(src_index, g_msg, z_src_rows, g.dtype)
            g_h_src = g_z_src @ np.swapaxes(ws, -1, -2)
            g_ws_h = np.swapaxes(hs, -1, -2) @ g_z_src
            grads = [g_h_src, g_h_dst]
            if tf is not None:
                grads.append(g_msg @ np.swapaxes(wt, -1, -2))
            grads.append(_scatter_head(w_src.data, head, g_ws_h))
            grads.append(_scatter_head(w_dst.data, head, g_wd_h))
            grads.append(_scatter_head(attn_src.data, head, g_attn_src_h))
            grads.append(_scatter_head(attn_dst.data, head, g_attn_dst_h))
            if wt is not None:
                grads.append(
                    _scatter_head(w_time.data, head, np.swapaxes(tf, -1, -2) @ g_msg)
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

    def _forward_flat(
        self,
        h_src: Tensor,
        h_dst: Tensor,
        src_index: np.ndarray,
        dst_index: np.ndarray,
        delta_t: Optional[np.ndarray],
        n_dst: int,
    ) -> Tensor:
        """Shared per-head attention kernel over a flat edge list.

        In checkpoint mode the time encoding and each head become
        recompute-in-backward units (:func:`repro.autograd.checkpoint`):
        the O(edges * head_dim) intermediates of at most *one head* exist at
        any moment of the backward pass, instead of every head of every
        layer staying alive from forward to backward.
        """
        if src_index.shape[0] == 0:
            return (
                Tensor(np.zeros((n_dst, self.out_features), dtype=self.bias.data.dtype))
                + self.bias
            )
        params = [self.w_src, self.w_dst, self.attn_src, self.attn_dst]
        use_checkpoint = (
            self.checkpoint
            and is_grad_enabled()
            and any(t.requires_grad for t in [h_src, h_dst] + params)
        )
        time_feat = None
        if self.time_encoding is not None and delta_t is not None:
            if use_checkpoint:
                time_feat = checkpoint(
                    lambda frequency, phase: _time_encode(
                        delta_t, frequency, phase, self.time_dim
                    ),
                    self.time_encoding.frequency,
                    self.time_encoding.phase,
                )
            else:
                time_feat = self.time_encoding(delta_t)
        head_outputs = []
        for head in range(self.num_heads):
            if use_checkpoint:
                if time_feat is not None:
                    out_h = checkpoint(
                        lambda hs, hd, tf, ws, wd, a_s, a_d, wt, _h=head: self._head(
                            _h, src_index, dst_index, n_dst, hs, hd, tf,
                            ws, wd, a_s, a_d, wt,
                        ),
                        h_src, h_dst, time_feat, *params, self.w_time,
                    )
                else:
                    out_h = checkpoint(
                        lambda hs, hd, ws, wd, a_s, a_d, _h=head: self._head(
                            _h, src_index, dst_index, n_dst, hs, hd, None,
                            ws, wd, a_s, a_d,
                        ),
                        h_src, h_dst, *params,
                    )
            else:
                out_h = self._head(
                    head, src_index, dst_index, n_dst, h_src, h_dst, time_feat,
                    *params, self.w_time,
                )
            head_outputs.append(out_h)
        stacked = concat(head_outputs, axis=1)
        return stacked @ self.w_out + self.bias

    def __repr__(self) -> str:
        return (
            f"TemporalGraphAttention(in={self.in_features}, out={self.out_features}, "
            f"heads={self.num_heads}, head_dim={self.head_dim}, time_dim={self.time_dim})"
        )
