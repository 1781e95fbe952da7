"""Test oracle: the TGAE encoder run per row and per edge.

``TGAEEncoder.forward`` runs its input pipeline once per distinct
``(u, t)`` of a batch and gathers every level's rows from that key table,
and each attention layer encodes each distinct time offset once.
:func:`encode_per_row` is the same computation with none of that sharing:
every level's table rows go through the input pipeline, the outermost
layer projects one source row per table row, and every edge gets its own
time-encoding row.  Its forward bytes must equal the encoder's, and its
gradients may differ only in summation order.
"""

import numpy as np

from repro.autograd import Tensor, concat
from repro.autograd.tensor import segment_runs


def attention_per_edge(layer, h_src, h_dst, src_index, dst_index, delta_t):
    """``TemporalGraphAttention.forward`` with one time-encoding row per edge."""
    src_index = np.asarray(src_index, dtype=np.int64)
    dst_index = np.asarray(dst_index, dtype=np.int64)
    n_dst = h_dst.shape[0]
    if src_index.shape[0] == 0:
        zeros = np.zeros((n_dst, layer.out_features), dtype=layer.bias.data.dtype)
        return Tensor(zeros) + layer.bias
    order, starts, counts = segment_runs(dst_index)
    if order is not None:
        src_index, dst_index = src_index[order], dst_index[order]
        if delta_t is not None:
            delta_t = np.asarray(delta_t)[order]
    time_feat = time_rows = None
    if layer.time_encoding is not None and delta_t is not None:
        time_feat = layer.time_encoding(delta_t)
        time_rows = np.arange(src_index.shape[0])
    heads = [
        layer._head(
            head, src_index, dst_index, n_dst, h_src, h_dst, time_feat,
            layer.w_src, layer.w_dst, layer.attn_src, layer.attn_dst, layer.w_time,
            runs=(starts, counts), time_rows=time_rows,
        )
        for head in range(layer.num_heads)
    ]
    return concat(heads, axis=1) @ layer.w_out + layer.bias


def encode_per_row(encoder, packed):
    """``encoder(packed)`` with the input pipeline run on every table row."""
    radius = packed.radius
    current = encoder._level_input(packed.nodes[radius])
    for level in range(radius, 0, -1):
        edges = packed.levels[level - 1]
        current = attention_per_edge(
            encoder.layers[radius - level],
            current,
            encoder._level_input(packed.nodes[level - 1]),
            edges.src,
            edges.dst,
            edges.delta_t,
        )
    if packed.tables == packed.num_centers:
        return current
    return current.take_rows(packed.center_rows)
