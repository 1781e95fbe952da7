"""Graph statistics of Table III.

Seven statistics measured on (cumulative) snapshots: mean degree, claw count,
wedge count, triangle count, size of the largest connected component, the
power-law exponent of the degree distribution, and the number of connected
components.  All are computed on the undirected simple view of the snapshot,
as is standard for these structural measures.

The per-snapshot functions in :data:`STATISTIC_FUNCTIONS` score one
:class:`~repro.graph.snapshot.Snapshot`; :func:`statistic_series` returns all
seven for every cumulative snapshot of a temporal graph in one pass over its
edges, bit-identical to mapping the per-snapshot functions over
:func:`~repro.graph.snapshot.cumulative_snapshots`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Union

import numpy as np

from ..graph.snapshot import Snapshot
from ..graph.temporal_graph import TemporalGraph


def mean_degree(snapshot: Snapshot) -> float:
    """Average undirected degree over active nodes (``E[d(v)]``)."""
    return _degree_statistics(_active_degrees(snapshot))["mean_degree"]


def wedge_count(snapshot: Snapshot) -> float:
    """Number of wedges (paths of length 2): ``sum_v C(d(v), 2)``."""
    return _degree_statistics(_active_degrees(snapshot))["wedge_count"]


def claw_count(snapshot: Snapshot) -> float:
    """Number of claws (stars with 3 leaves): ``sum_v C(d(v), 3)``."""
    return _degree_statistics(_active_degrees(snapshot))["claw_count"]


def triangle_count(snapshot: Snapshot) -> float:
    """Number of triangles: ``trace(A^3) / 6`` on the undirected adjacency."""
    adj = snapshot.undirected_adjacency()
    if adj.nnz == 0:
        return 0.0
    # trace(A^3) = sum of elementwise product of A^2 and A -- avoids forming A^3.
    a2 = adj @ adj
    return float(a2.multiply(adj).sum() / 6.0)


def largest_connected_component(snapshot: Snapshot) -> float:
    """Size (node count) of the largest weakly connected component."""
    sizes = _component_sizes(snapshot)
    return float(sizes.max()) if sizes.size else 0.0


def num_components(snapshot: Snapshot) -> float:
    """Number of connected components among active nodes."""
    sizes = _component_sizes(snapshot)
    return float(sizes.size)


def power_law_exponent(snapshot: Snapshot) -> float:
    """Maximum-likelihood power-law exponent (Table III):

    ``PLE = 1 + n * ( sum_v log(d(v) / d_min) )^{-1}``

    computed over active nodes, with ``d_min`` the minimum positive degree.
    Returns 0 for degenerate (regular) degree sequences where the sum of logs
    vanishes.
    """
    return _degree_statistics(_active_degrees(snapshot))["ple"]


def _degree_statistics(degrees: np.ndarray) -> Dict[str, float]:
    """The four degree-based statistics of one float64 active-degree array
    (node order, ``deg > 0``).

    The per-snapshot functions and :func:`statistic_series` both read them
    from here, so their values are bit-identical by construction.
    """
    if degrees.size == 0:
        return dict.fromkeys(("mean_degree", "wedge_count", "claw_count", "ple"), 0.0)
    log_sum = float(np.sum(np.log(degrees / degrees.min())))
    return {
        "mean_degree": float(degrees.mean()),
        "wedge_count": float(np.sum(degrees * (degrees - 1) / 2.0)),
        "claw_count": float(np.sum(degrees * (degrees - 1) * (degrees - 2) / 6.0)),
        "ple": 1.0 + degrees.size / log_sum if log_sum > 0.0 else 0.0,
    }


def _active_degrees(snapshot: Snapshot) -> np.ndarray:
    """Undirected degrees restricted to nodes with at least one edge."""
    if snapshot.num_edges == 0:
        return np.array([], dtype=np.float64)
    degrees = snapshot.degrees()
    return degrees[degrees > 0]


def _component_sizes(snapshot: Snapshot) -> np.ndarray:
    import scipy.sparse as sp
    from scipy.sparse.csgraph import connected_components

    if snapshot.num_edges == 0:
        return np.array([], dtype=np.int64)
    active = snapshot.active_nodes()
    adj = snapshot.undirected_adjacency()[active][:, active]
    n_comp, labels = connected_components(sp.csr_matrix(adj), directed=False)
    return np.bincount(labels, minlength=n_comp)


# Registry in the order the paper's tables report them.
STATISTIC_FUNCTIONS: Dict[str, Callable[[Snapshot], float]] = {
    "mean_degree": mean_degree,
    "lcc": largest_connected_component,
    "wedge_count": wedge_count,
    "claw_count": claw_count,
    "triangle_count": triangle_count,
    "ple": power_law_exponent,
    "n_components": num_components,
}

STATISTIC_LABELS: Dict[str, str] = {
    "mean_degree": "Mean Degree",
    "lcc": "LCC",
    "wedge_count": "Wedge Count",
    "claw_count": "Claw Count",
    "triangle_count": "Triangle Count",
    "ple": "PLE",
    "n_components": "N-Components",
}


def compute_all_statistics(snapshot: Snapshot) -> Dict[str, float]:
    """Evaluate every Table III statistic on one snapshot."""
    return {name: fn(snapshot) for name, fn in STATISTIC_FUNCTIONS.items()}


def statistic_names() -> List[str]:
    """Canonical metric order used by the benchmark tables."""
    return list(STATISTIC_FUNCTIONS)


def select_statistics(
    statistics: Union[str, Sequence[str], None] = None, reduction: str = "mean"
) -> List[str]:
    """Validate a statistic selection and reduction; return the names.

    ``None`` selects all seven Table III statistics and a bare string is one
    statistic name.  Unknown names raise ``KeyError``; a reduction other
    than ``"mean"`` or ``"median"`` raises ``ValueError``.
    """
    if reduction not in ("mean", "median"):
        raise ValueError(f"reduction must be 'mean' or 'median', got {reduction!r}")
    if statistics is None:
        return list(STATISTIC_FUNCTIONS)
    names = [statistics] if isinstance(statistics, str) else list(statistics)
    unknown = [n for n in names if n not in STATISTIC_FUNCTIONS]
    if unknown:
        raise KeyError(f"unknown statistics: {unknown}")
    return names


def statistic_series(graph: TemporalGraph) -> Dict[str, np.ndarray]:
    """Every Table III statistic on every cumulative snapshot, in one pass.

    Returns ``{name: values}`` in :data:`STATISTIC_FUNCTIONS` order, where
    ``values[t]`` is bit-identical to ``STATISTIC_FUNCTIONS[name]`` applied
    to ``cumulative_snapshots(graph)[t]``.  Each undirected simple pair is
    kept once, at the first timestamp it appears, and the pairs are
    replayed in time order: degrees grow by ``bincount``, a union-find over
    the activated nodes gives ``lcc`` and ``n_components`` (active nodes
    minus successful unions), and each new pair ``(u, v)`` closes
    ``|N(u) & N(v)|`` triangles.  Self-loops are dropped from the pairs but
    still activate their node, exactly as in the snapshot view.  Memory is
    O(n + E) and no snapshot or sparse matrix is built.
    """
    n, num_t = graph.num_nodes, graph.num_timestamps
    src, dst, t = graph.src, graph.dst, graph.t
    first_seen = np.full(n, num_t, dtype=np.int64)
    np.minimum.at(first_seen, src, t)
    np.minimum.at(first_seen, dst, t)
    active = np.cumsum(np.bincount(first_seen, minlength=num_t + 1)[:num_t])

    keep = src != dst
    lo = np.minimum(src, dst)[keep]
    hi = np.maximum(src, dst)[keep]
    times = t[keep]
    order = np.argsort(times, kind="stable")
    # np.unique's first occurrence in time order is the pair's first timestamp.
    _, first = np.unique((lo * n + hi)[order], return_index=True)
    pick = order[np.sort(first)]
    lo, hi, times = lo[pick], hi[pick], times[pick]
    cut = np.searchsorted(times, np.arange(num_t), side="right")
    # Compact ids for the union-find and neighbour sets: only paired nodes.
    paired, compact = np.unique(np.concatenate([lo, hi]), return_inverse=True)
    lo_ids = compact[: lo.size].tolist()
    hi_ids = compact[lo.size :].tolist()
    neighbours: List[set] = [set() for _ in range(paired.size)]
    parent = list(range(paired.size))
    size = [1] * paired.size

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    out = {name: np.zeros(num_t, dtype=np.float64) for name in STATISTIC_FUNCTIONS}
    degrees = np.zeros(n, dtype=np.int64)
    triangles = unions = largest = 0
    start = 0
    for step in range(num_t):
        stop = int(cut[step])
        for u, v in zip(lo_ids[start:stop], hi_ids[start:stop]):
            triangles += len(neighbours[u] & neighbours[v])
            neighbours[u].add(v)
            neighbours[v].add(u)
            ru, rv = find(u), find(v)
            if ru != rv:
                if size[ru] < size[rv]:
                    ru, rv = rv, ru
                parent[rv] = ru
                size[ru] += size[rv]
                largest = max(largest, size[ru])
                unions += 1
        degrees += np.bincount(lo[start:stop], minlength=n)
        degrees += np.bincount(hi[start:stop], minlength=n)
        start = stop
        active_degrees = degrees[degrees > 0].astype(np.float64)
        for name, value in _degree_statistics(active_degrees).items():
            out[name][step] = value
        out["triangle_count"][step] = float(triangles)
        out["lcc"][step] = float(max(largest, 1)) if active[step] else 0.0
        out["n_components"][step] = float(active[step] - unions)
    return out
