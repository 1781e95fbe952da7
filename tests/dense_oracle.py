"""Dense score and adjacency references for small graphs.

These helpers materialise the node x node arrays that production paths
never build, kept verbatim as test oracles:

* ``dense_score_rows`` decodes full softmax rows for explicit ``(u, t)``
  centres against the whole node universe, regardless of
  ``candidate_limit``; ``score_matrix`` stacks those rows into the
  ``(n, T, n)`` score tensor ``S`` that the sparse ``score_topk`` triples
  are checked against.  Both validate their centres first, so an
  out-of-range centre cannot alias another centre's ``u * T + t`` key.
* ``dense_temporal_adjacency`` is the textbook ``(T, n, n)`` 0/1 tensor the
  sparse ``TemporalGraph.adjacency_at`` provider is checked against.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.autograd import no_grad, softmax
from repro.core import GenerationEngine, TGAEGenerator
from repro.errors import GenerationError
from repro.graph import TemporalGraph


def dense_score_rows(engine: GenerationEngine, centers: np.ndarray) -> np.ndarray:
    """Full softmax rows for explicit ``(u, t)`` centres (test/debug helper).

    Always decodes against the whole node universe regardless of
    ``candidate_limit``; used by the small-graph score-matrix helper.
    Embeddings come from :meth:`warm_rows`.  A centre outside the
    ``(n, T)`` universe raises :class:`GenerationError` naming it, before
    it can alias another centre's ``u * T + t`` key.
    """
    centers = np.asarray(centers, dtype=np.int64)
    n, T = engine.graph.num_nodes, engine.graph.num_timestamps
    outside = (centers < 0).any(axis=1) | (centers[:, 0] >= n) | (centers[:, 1] >= T)
    if outside.any():
        u, t = centers[np.argmax(outside)].tolist()
        raise GenerationError(
            f"centres must lie in [0, {n}) x [0, {T}), got ({u}, {t})"
        )
    keys = centers[:, 0] * np.int64(T) + centers[:, 1]
    with no_grad():
        embeddings = engine.warm_rows(keys)
        decoded = engine.model.decode_from_embeddings(embeddings, centers)
        return softmax(decoded.logits, axis=-1).numpy()


def score_matrix(
    generator: TGAEGenerator, timestamps: Optional[List[int]] = None
) -> np.ndarray:
    """Dense score matrix ``S`` rows for inspection.

    **Test-only helper** for small graphs: materialises the
    ``(n, T, n)``-shaped array the tests use to check normalisation.
    Production inspection goes through :meth:`score_topk`.
    """
    if generator.model is None:
        raise GenerationError("generator is not fitted")
    graph = generator.observed
    stamps = timestamps if timestamps is not None else list(range(graph.num_timestamps))
    engine = generator.engine()
    scores = np.zeros((graph.num_nodes, len(stamps), graph.num_nodes))
    generator.model.eval()
    for j, timestamp in enumerate(stamps):
        centers = np.stack(
            [np.arange(graph.num_nodes), np.full(graph.num_nodes, timestamp)], axis=1
        )
        scores[:, j, :] = dense_score_rows(engine, centers)
    return scores


def dense_temporal_adjacency(graph: TemporalGraph) -> np.ndarray:
    """Dense ``(T, n, n)`` 0/1 adjacency tensor ``A_{t=1:T}`` (Sec. IV-A).

    **Test-only helper.**  Production paths never materialise a node x node
    array; they go through :meth:`TemporalGraph.adjacency_at` (sparse CSR per
    snapshot) and :meth:`TemporalGraph.out_partner_groups` instead.  This
    function exists so equivalence tests can check the sparse providers
    against the textbook dense tensor on small graphs.
    """
    adj = np.zeros(
        (graph.num_timestamps, graph.num_nodes, graph.num_nodes), dtype=np.int8
    )
    adj[graph.t, graph.src, graph.dst] = 1
    return adj
