"""Regression tests for the fused per-head attention kernel.

``TemporalGraphAttention._head`` is a single autograd node whose forward
replicates the composed reference implementation expression by expression
and whose backward is a hand-derived VJP.  These tests pin the contract the
fusion relies on: *bitwise* equality with :func:`_head_reference` -- forward
output and every gradient, under both dtype policies, with and without the
time encoding -- plus an independent finite-difference check.
"""

import numpy as np
import pytest

from attention_oracle import segment_softmax

from repro.autograd import Tensor, check_gradients, concat, row_matmul
from repro.nn import TemporalGraphAttention
from repro.nn.attention import LOGIT_CHUNK_ROWS, LOGIT_COLUMNS
from repro.nn.attention import _logits as chunked_logits

N_SRC, N_DST, N_EDGES = 9, 5, 23
IN_F, OUT_F, HEADS, TIME_DIM = 6, 8, 3, 4


def _logits(x, a):
    """Row-wise ``x . a`` as column 0 of ``x @ [a | 0 ...]`` (a row-invariant GEMM)."""
    pad = Tensor(np.zeros((a.shape[0], LOGIT_COLUMNS - 1), dtype=a.data.dtype))
    return (x @ concat([a.reshape(-1, 1), pad], axis=1))[:, 0]


def _head_reference(
    layer, head, src_index, dst_index, n_dst, h_src, h_dst, time_feat,
    w_src, w_dst, attn_src, attn_dst, w_time=None, *, time_rows=None,
):
    """One head's Eq. 4-5 aggregation composed from autograd primitives.

    The readable specification of the attention head and the oracle for
    the fused kernel: ``TemporalGraphAttention._head`` must reproduce this
    composition's output *and* every input gradient bit for bit, under both
    dtype policies.  The production paths (plain and checkpointed) always
    run the fused kernel.

    Eq. 5's ``a^T [W h_s || W h_d]`` splits into a per-edge source term and
    a per-target term gathered to each edge.  Edges are taken in stable
    target order, the order the segment reductions associate in.
    ``time_feat`` holds one encoding per distinct time offset, and edge
    ``e`` reads the projection of row ``time_rows[e]``.
    """
    order = np.argsort(dst_index, kind="stable")
    src, dst = src_index[order], dst_index[order]
    msg = (h_src @ w_src[head]).take_rows(src)
    if time_feat is not None:
        msg = msg + (time_feat @ w_time[head]).take_rows(time_rows[order])
    target_term = _logits(h_dst @ w_dst[head], attn_dst[head])
    score = _logits(msg, attn_src[head]) + target_term.take_rows(dst)
    alpha = segment_softmax(score.leaky_relu(layer.negative_slope), dst, n_dst)
    return (msg * alpha.reshape(-1, 1)).segment_sum(dst, n_dst)


def _make_inputs(dtype, with_time, seed=11):
    rng = np.random.default_rng(seed)
    h_src = rng.standard_normal((N_SRC, IN_F)).astype(dtype)
    h_dst = rng.standard_normal((N_DST, IN_F)).astype(dtype)
    src_index = rng.integers(0, N_SRC, size=N_EDGES)
    # Every target receives at least one edge so no segment is empty,
    # then the rest land anywhere (duplicates exercise the scatter paths).
    src_index[:N_DST] = rng.integers(0, N_SRC, size=N_DST)
    dst_index = np.concatenate(
        [np.arange(N_DST), rng.integers(0, N_DST, size=N_EDGES - N_DST)]
    )
    delta_t = rng.integers(0, 7, size=N_EDGES) if with_time else None
    weight = rng.standard_normal((N_DST, 1)).astype(dtype)
    return h_src, h_dst, src_index, dst_index, delta_t, weight


def _run(layer, impl, dtype, with_time):
    """One full forward+backward through ``impl`` for every head.

    Returns the stacked forward data plus a dict of every gradient
    (leaf inputs and layer parameters).
    """
    h_src_a, h_dst_a, src_index, dst_index, delta_t, weight = _make_inputs(
        dtype, with_time
    )
    layer.zero_grad()
    h_src = Tensor(h_src_a.copy(), requires_grad=True)
    h_dst = Tensor(h_dst_a.copy(), requires_grad=True)
    time_feat = time_rows = None
    if with_time and layer.time_encoding is not None:
        offsets, time_rows = np.unique(delta_t, return_inverse=True)
        time_feat = layer.time_encoding(offsets)
    outs = [
        impl(
            head, src_index, dst_index, N_DST, h_src, h_dst, time_feat,
            layer.w_src, layer.w_dst, layer.attn_src, layer.attn_dst,
            layer.w_time, time_rows=time_rows,
        )
        for head in range(HEADS)
    ]
    total = outs[0]
    for out in outs[1:]:
        total = total + out
    (total * Tensor(weight)).sum().backward()
    grads = {"h_src": h_src.grad.copy(), "h_dst": h_dst.grad.copy()}
    for name, param in layer.named_parameters():
        if param.grad is not None:
            grads[name] = param.grad.copy()
    return np.stack([out.data for out in outs]), grads


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("with_time", [True, False], ids=["time", "no-time"])
def test_fused_head_bitwise_equals_reference(dtype, with_time):
    layer = TemporalGraphAttention(
        IN_F, OUT_F, num_heads=HEADS,
        time_dim=TIME_DIM if with_time else 0,
        rng=np.random.default_rng(0),
    ).to_dtype(dtype)
    fused_out, fused_grads = _run(layer, layer._head, dtype, with_time)
    ref_out, ref_grads = _run(
        layer, lambda *args, **kw: _head_reference(layer, *args, **kw), dtype, with_time
    )
    assert fused_out.dtype == np.dtype(dtype)
    assert np.array_equal(fused_out, ref_out)
    assert fused_grads.keys() == ref_grads.keys()
    for name in ref_grads:
        assert np.array_equal(fused_grads[name], ref_grads[name]), name


def test_fused_head_finite_differences():
    """The hand-derived VJP agrees with central differences, independently
    of the reference implementation."""
    layer = TemporalGraphAttention(
        4, 4, num_heads=2, time_dim=3, rng=np.random.default_rng(2)
    )
    h_src_a, h_dst_a, src_index, dst_index, delta_t, _ = _make_inputs(
        np.float64, True, seed=5
    )
    h_src_a, h_dst_a = h_src_a[:, :4], h_dst_a[:, :4]
    offsets, time_rows = np.unique(delta_t, return_inverse=True)
    time_feat_data = layer.time_encoding(offsets).data

    def fn(hs, hd, tf, ws, wd, a_s, a_d, wt):
        return layer._head(
            0, src_index, dst_index, N_DST, hs, hd, tf, ws, wd, a_s, a_d, wt,
            time_rows=time_rows,
        )

    inputs = [
        Tensor(h_src_a, requires_grad=True),
        Tensor(h_dst_a, requires_grad=True),
        Tensor(time_feat_data, requires_grad=True),
        layer.w_src,
        layer.w_dst,
        layer.attn_src,
        layer.attn_dst,
        layer.w_time,
    ]
    assert check_gradients(fn, inputs, atol=1e-6, rtol=1e-5)


def test_checkpointed_layer_matches_plain():
    """Checkpoint mode recomputes the fused node: forward and gradients stay
    bitwise identical to the plain path."""
    results = []
    for use_checkpoint in (False, True):
        layer = TemporalGraphAttention(
            IN_F, OUT_F, num_heads=HEADS, time_dim=TIME_DIM,
            rng=np.random.default_rng(7), checkpoint=use_checkpoint,
        )
        h_src_a, h_dst_a, src_index, dst_index, delta_t, weight = _make_inputs(
            np.float64, True, seed=9
        )
        h_src = Tensor(h_src_a.copy(), requires_grad=True)
        h_dst = Tensor(h_dst_a.copy(), requires_grad=True)
        out = layer(h_src, h_dst, src_index, dst_index, delta_t=delta_t)
        (out * Tensor(weight)).sum().backward()
        grads = {name: p.grad.copy() for name, p in layer.named_parameters()}
        grads["h_src"] = h_src.grad.copy()
        results.append((out.data.copy(), grads))
    (plain_out, plain_grads), (ckpt_out, ckpt_grads) = results
    assert np.array_equal(plain_out, ckpt_out)
    for name in plain_grads:
        assert np.array_equal(plain_grads[name], ckpt_grads[name]), name


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("width", [4, 8, 16])
@pytest.mark.parametrize(
    "rows",
    [1, LOGIT_CHUNK_ROWS - 1, LOGIT_CHUNK_ROWS, LOGIT_CHUNK_ROWS + 1, 2 * LOGIT_CHUNK_ROWS + 3],
)
def test_chunked_logits_equal_one_product(dtype, width, rows):
    """Row blocks of the logit GEMM give the bytes of one whole-batch product."""
    rng = np.random.default_rng(rows + width)
    x = rng.standard_normal((rows, width)).astype(dtype)
    a = rng.standard_normal(width).astype(dtype)
    cols = np.zeros((width, LOGIT_COLUMNS), dtype=dtype)
    cols[:, 0] = a
    got = chunked_logits(x, a)
    assert got.dtype == np.dtype(dtype)
    assert got.tobytes() == row_matmul(x, cols)[:, 0].tobytes()
