"""Controlled edge noise for building test inputs.

``perturb_edges`` replaces a fraction of a graph's edges with uniformly
random non-loop edges at the same timestamps, so a test can make a
"generated" graph that is near to, or far from, an observed one.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import GraphFormatError
from repro.graph import TemporalGraph


def perturb_edges(
    graph: TemporalGraph,
    fraction: float,
    seed: Optional[int] = None,
) -> TemporalGraph:
    """Replace a uniform ``fraction`` of edges with random non-loop edges.

    The replacement edge keeps its timestamp, so the temporal activity
    profile is untouched while structure degrades smoothly.
    """
    if not 0.0 <= fraction <= 1.0:
        raise GraphFormatError(f"fraction must be in [0, 1], got {fraction}")
    rng = np.random.default_rng(seed)
    src = graph.src.copy()
    dst = graph.dst.copy()
    count = int(round(fraction * graph.num_edges))
    if count and graph.num_nodes >= 2:
        chosen = rng.choice(graph.num_edges, size=count, replace=False)
        new_src = rng.integers(0, graph.num_nodes, size=count)
        new_dst = rng.integers(0, graph.num_nodes, size=count)
        loops = new_src == new_dst
        new_dst[loops] = (new_dst[loops] + 1) % graph.num_nodes
        src[chosen] = new_src
        dst[chosen] = new_dst
    return TemporalGraph(
        graph.num_nodes, src, dst, graph.t.copy(),
        num_timestamps=graph.num_timestamps, validate=False,
    )
