"""Temporal graph transformations and null models.

Temporal-network analysis calibrates metrics against *null models*: graphs
that keep some properties of the observed one and randomise the rest
(Holme & Saramaki's randomised reference models).  They answer "is this
statistic structural or an artifact?" and serve as sanity baselines for the
generator comparisons: a generator must at least beat the null model that
destroys the property being measured.

Provided transforms (all return new :class:`TemporalGraph` objects and never
mutate the input):

* :func:`shuffle_timestamps` -- keep the static multigraph, permute edge
  times (destroys temporal correlations, keeps per-snapshot edge counts
  when ``preserve_counts=True``);
* :func:`rewire_degree_preserving` -- per-snapshot directed double-edge
  swaps (keeps in/out degree sequences and timestamps, destroys triadic
  structure).

Both are the reference models of the motif-significance profile
(:mod:`repro.metrics.significance`).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import GraphFormatError
from .temporal_graph import TemporalGraph


def shuffle_timestamps(
    graph: TemporalGraph,
    seed: Optional[int] = None,
    preserve_counts: bool = True,
) -> TemporalGraph:
    """Permute edge timestamps, keeping the static structure.

    With ``preserve_counts=True`` (the standard randomised-reference model)
    the multiset of timestamps is permuted across edges, so every snapshot
    keeps its edge count.  With ``preserve_counts=False`` each edge draws a
    fresh uniform timestamp.
    """
    rng = np.random.default_rng(seed)
    if preserve_counts:
        new_t = rng.permutation(graph.t)
    else:
        new_t = rng.integers(0, graph.num_timestamps, size=graph.num_edges)
    return TemporalGraph(
        graph.num_nodes, graph.src.copy(), graph.dst.copy(), new_t,
        num_timestamps=graph.num_timestamps, validate=False,
    )


def rewire_degree_preserving(
    graph: TemporalGraph,
    seed: Optional[int] = None,
    swaps_per_edge: float = 2.0,
) -> TemporalGraph:
    """Directed double-edge swaps within each snapshot.

    A swap picks two edges ``(a, b)`` and ``(c, d)`` of the same snapshot and
    replaces them with ``(a, d)`` and ``(c, b)`` unless that would create a
    self-loop.  In- and out-degree sequences per snapshot are exactly
    preserved; wedges survive, triangles do not.
    """
    if swaps_per_edge < 0:
        raise GraphFormatError(f"swaps_per_edge must be >= 0, got {swaps_per_edge}")
    rng = np.random.default_rng(seed)
    src = graph.src.copy()
    dst = graph.dst.copy()
    for timestamp in range(graph.num_timestamps):
        idx = np.where(graph.t == timestamp)[0]
        if idx.size < 2:
            continue
        attempts = int(np.ceil(swaps_per_edge * idx.size))
        picks_a = rng.integers(0, idx.size, size=attempts)
        picks_b = rng.integers(0, idx.size, size=attempts)
        for a_local, b_local in zip(picks_a, picks_b):
            i, j = idx[a_local], idx[b_local]
            if i == j:
                continue
            # Swap targets unless a self-loop would appear.
            if src[i] == dst[j] or src[j] == dst[i]:
                continue
            dst[i], dst[j] = dst[j], dst[i]
    return TemporalGraph(
        graph.num_nodes, src, dst, graph.t.copy(),
        num_timestamps=graph.num_timestamps, validate=False,
    )
