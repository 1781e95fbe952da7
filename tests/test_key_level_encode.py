"""The encoder does its row-invariant work once per key, on every path.

``TGAEEncoder.forward`` runs the input pipeline once per distinct
``(u, t)`` of a batch and gathers every level's rows from that key table,
the outermost attention layer projects its sources once per key, and every
layer encodes each distinct time offset once -- with or without gradient
recording.  ``tests/encoder_oracle.py`` runs the same computation per row
and per edge.  These tests demand the same forward bytes (with and
without gradient recording) and parameter gradients that differ only by
summation order, across radius 1-3, both dtypes, time encoding on and off,
no / static / per-snapshot external features, the per-ego and merged
layouts, and one batch with heavy key repetition and one with none.
Checkpointed attention must give the plain path's gradients bit for bit.
"""

import itertools

import numpy as np
import pytest

from encoder_oracle import encode_per_row

from repro.autograd import no_grad
from repro.core import EgoGraphSampler, fast_config
from repro.core.model import TGAEModel
from repro.datasets import communication_network
from repro.graph import TemporalGraph

FEATURE_DIM = 3

#: Gradient tolerance, in machine epsilons of the gradient's largest
#: entry: ``|key-level - per-row| <= GRAD_ULPS * eps * max|per-row|`` for
#: every parameter.  Summing each key's rows first moved the gradients by
#: at most 85 (float32) and 91 (float64) such epsilons over this matrix;
#: the bound leaves about 5x headroom.
GRAD_ULPS = 512

MATRIX = list(
    itertools.product(["float32", "float64"], [1, 2, 3], [4, 0], [None, "static", "snapshot"])
)


def _repeating():
    """Few nodes, many edges: neighbouring egos share most of their rows."""
    return communication_network(12, 200, 3, seed=1)


def _disjoint():
    """Eight two-node components: no row of one ego appears in another."""
    left = np.arange(0, 16, 2)
    return TemporalGraph(16, left, left + 1, np.zeros(8, dtype=np.int64), num_timestamps=2)


GRAPHS = {"repeating": _repeating, "disjoint": _disjoint}


def _model(graph, dtype, radius, time_dim, features, checkpoint=False):
    config = fast_config(
        dtype=dtype, radius=radius, time_dim=time_dim, neighbor_threshold=4, seed=5,
        checkpoint_attention=checkpoint,
    )
    model = TGAEModel(
        graph.num_nodes, graph.num_timestamps, config,
        feature_dim=FEATURE_DIM if features else 0,
    )
    if features is not None:
        rng = np.random.default_rng(11)
        shape = (graph.num_nodes, FEATURE_DIM)
        if features == "snapshot":
            shape = (graph.num_timestamps,) + shape
        model.encoder.set_external_features(rng.standard_normal(shape))
    return model, config


def _packed(graph, config, graph_name, merge):
    T = graph.num_timestamps
    keys = np.unique(graph.src * np.int64(T) + graph.t)
    if graph_name == "disjoint":
        keys = keys[::2]  # one centre per component
    centers = np.stack([keys // T, keys % T], axis=1)
    return EgoGraphSampler(graph, config).inference_batch(centers).tile.packed(merge=merge)


def _gradients(encoder, encode, packed):
    """Forward bytes and every parameter gradient under a fixed seed."""
    encoder.zero_grad()
    out = encode(packed)
    seed = np.random.default_rng(3).standard_normal(out.shape).astype(out.data.dtype)
    out.backward(seed)
    return out.data.copy(), {
        name: param.grad.copy() for name, param in encoder.named_parameters()
        if param.grad is not None
    }


@pytest.mark.parametrize("merge", [False, True], ids=["per-ego", "merged"])
@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
@pytest.mark.parametrize(
    "dtype,radius,time_dim,features", MATRIX, ids=lambda p: str(p)
)
def test_key_level_encode_matches_per_row(dtype, radius, time_dim, features, graph_name, merge):
    graph = GRAPHS[graph_name]()
    model, config = _model(graph, dtype, radius, time_dim, features)
    packed = _packed(graph, config, graph_name, merge)
    T = graph.num_timestamps
    distinct = np.unique(packed.nodes[-1][:, 0] * T + packed.nodes[-1][:, 1]).size
    if graph_name == "disjoint" or merge:
        assert distinct == packed.nodes[-1].shape[0]
    else:
        assert 3 * distinct < packed.nodes[-1].shape[0]
    encoder = model.encoder

    ref_out, ref_grads = _gradients(encoder, lambda p: encode_per_row(encoder, p), packed)
    out, grads = _gradients(encoder, encoder, packed)
    with no_grad():
        keyed = encoder(packed)
    assert out.dtype == np.dtype(dtype)
    assert out.tobytes() == ref_out.tobytes()
    assert keyed.data.tobytes() == ref_out.tobytes()

    assert grads.keys() == ref_grads.keys()
    eps = np.finfo(np.dtype(dtype)).eps
    for name, ref in ref_grads.items():
        bound = GRAD_ULPS * eps * np.abs(ref).max()
        assert np.abs(grads[name] - ref).max() <= bound, name


@pytest.mark.parametrize("merge", [False, True], ids=["per-ego", "merged"])
@pytest.mark.parametrize("time_dim", [4, 0])
def test_checkpointed_encoder_matches_plain_bitwise(time_dim, merge):
    graph = _repeating()
    results = []
    for checkpoint in (False, True):
        model, config = _model(graph, "float64", 2, time_dim, "static", checkpoint)
        packed = _packed(graph, config, "repeating", merge)
        results.append(_gradients(model.encoder, model.encoder, packed))
    (plain_out, plain_grads), (ckpt_out, ckpt_grads) = results
    assert plain_out.tobytes() == ckpt_out.tobytes()
    assert plain_grads.keys() == ckpt_grads.keys()
    for name in plain_grads:
        assert plain_grads[name].tobytes() == ckpt_grads[name].tobytes(), name
