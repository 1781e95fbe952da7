"""The inference encode does its row-invariant work once per key, bit for bit.

Without gradient recording, ``TGAEEncoder.forward`` runs the input pipeline
once per distinct ``(u, t)`` of a batch and gathers every level's rows from
that key table, the outermost attention layer projects its sources once
per key, and every layer encodes each distinct time offset once.  The
gradient path runs all of it per row and per edge.  These tests demand
that both give the same bytes, across radius 1-3, both dtypes, time
encoding on and off, no / static / per-snapshot external features, the
per-ego and merged layouts, and one batch with heavy key repetition and
one with none.
"""

import itertools

import numpy as np
import pytest

from repro.autograd import no_grad
from repro.core import EgoGraphSampler, fast_config
from repro.core.model import TGAEModel
from repro.datasets import communication_network
from repro.graph import TemporalGraph

FEATURE_DIM = 3

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


def _model(graph, dtype, radius, time_dim, features):
    config = fast_config(
        dtype=dtype, radius=radius, time_dim=time_dim, neighbor_threshold=4, seed=5
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


@pytest.mark.parametrize("merge", [False, True], ids=["per-ego", "merged"])
@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
@pytest.mark.parametrize(
    "dtype,radius,time_dim,features", MATRIX, ids=lambda p: str(p)
)
def test_no_grad_forward_equals_grad_forward(dtype, radius, time_dim, features, graph_name, merge):
    graph = GRAPHS[graph_name]()
    model, config = _model(graph, dtype, radius, time_dim, features)
    T = graph.num_timestamps
    keys = np.unique(graph.src * np.int64(T) + graph.t)
    if graph_name == "disjoint":
        keys = keys[::2]  # one centre per component
    centers = np.stack([keys // T, keys % T], axis=1)
    packed = EgoGraphSampler(graph, config).inference_batch(centers).tile.packed(merge=merge)
    encoder = model.encoder

    distinct = np.unique(packed.nodes[-1][:, 0] * T + packed.nodes[-1][:, 1]).size
    if graph_name == "disjoint" or merge:
        assert distinct == packed.nodes[-1].shape[0]
    else:
        assert 3 * distinct < packed.nodes[-1].shape[0]

    reference = encoder(packed)
    assert reference.requires_grad  # the per-row gradient path
    with no_grad():
        keyed = encoder(packed)
    assert keyed.data.dtype == np.dtype(dtype)
    assert keyed.data.tobytes() == reference.data.tobytes()
