"""Static snapshot views of a temporal graph.

Evaluation (Sec. V) compares *cumulative* snapshots: all edges from the
initial timestamp up to ``t``.  :class:`Snapshot` is a light immutable static
directed graph over the full node universe, with conversions to scipy sparse
adjacency and networkx for metric computation.
"""

from __future__ import annotations

from typing import List, Optional

import networkx as nx
import numpy as np
import scipy.sparse as sp

from ..errors import GraphFormatError
from .temporal_graph import TemporalGraph


class Snapshot:
    """A static directed graph ``G_t`` over ``num_nodes`` nodes."""

    __slots__ = ("num_nodes", "src", "dst", "_adjacency", "_undirected")

    def __init__(self, num_nodes: int, src: np.ndarray, dst: np.ndarray) -> None:
        self.num_nodes = int(num_nodes)
        self.src = np.asarray(src, dtype=np.int64).reshape(-1)
        self.dst = np.asarray(dst, dtype=np.int64).reshape(-1)
        if self.src.shape != self.dst.shape:
            raise GraphFormatError("snapshot src/dst must be parallel arrays")
        self._adjacency: Optional[sp.csr_matrix] = None
        self._undirected: Optional[sp.csr_matrix] = None

    @property
    def num_edges(self) -> int:
        return int(self.src.size)

    def __repr__(self) -> str:
        return f"Snapshot(n={self.num_nodes}, m={self.num_edges})"

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------
    def adjacency(self) -> sp.csr_matrix:
        """Directed binary adjacency as a cached scipy CSR matrix.

        Multi-edges are always deduplicated to 1.0 -- the cached matrix is
        shared by every downstream consumer (undirected view, degrees,
        metrics, baselines), so it must not depend on call-site flags.
        """
        if self._adjacency is None:
            data = np.ones(self.num_edges, dtype=np.float64)
            mat = sp.coo_matrix(
                (data, (self.src, self.dst)), shape=(self.num_nodes, self.num_nodes)
            ).tocsr()
            mat.data = np.minimum(mat.data, 1.0)
            self._adjacency = mat
        return self._adjacency

    def undirected_adjacency(self) -> sp.csr_matrix:
        """Symmetrised binary adjacency, built once and shared.

        Every undirected statistic (clustering, assortativity, density,
        spectra) reads this cached CSR, so a snapshot symmetrises its edge
        list exactly once however many metrics are computed on it.
        """
        if self._undirected is None:
            adj = self.adjacency()
            sym = adj.maximum(adj.T)
            sym.setdiag(0)
            sym.eliminate_zeros()
            self._undirected = sym.tocsr()
        return self._undirected

    def to_networkx(self, directed: bool = True) -> nx.Graph:
        """Convert to a networkx graph over the *active* nodes only."""
        graph: nx.Graph = nx.DiGraph() if directed else nx.Graph()
        graph.add_edges_from(zip(self.src.tolist(), self.dst.tolist()))
        return graph

    # ------------------------------------------------------------------
    # Degree views
    # ------------------------------------------------------------------
    def degrees(self) -> np.ndarray:
        """Undirected degree per node (unique neighbours, self-loops ignored)."""
        sym = self.undirected_adjacency()
        return np.asarray(sym.sum(axis=1)).reshape(-1)

    def active_nodes(self) -> np.ndarray:
        """Nodes that participate in at least one edge."""
        return np.unique(np.concatenate([self.src, self.dst])) if self.num_edges else np.array(
            [], dtype=np.int64
        )


def cumulative_snapshots(graph: TemporalGraph) -> List[Snapshot]:
    """Build the paper's evaluation sequence: snapshot ``t`` holds all edges with time <= t."""
    result: List[Snapshot] = []
    order = np.argsort(graph.t, kind="stable")
    sorted_t = graph.t[order]
    cut = np.searchsorted(sorted_t, np.arange(graph.num_timestamps), side="right")
    for timestamp in range(graph.num_timestamps):
        sel = order[: cut[timestamp]]
        result.append(Snapshot(graph.num_nodes, graph.src[sel], graph.dst[sel]))
    return result


def snapshot_at(graph: TemporalGraph, timestamp: int) -> Snapshot:
    """Single cumulative snapshot at ``timestamp``."""
    if not 0 <= timestamp < graph.num_timestamps:
        raise GraphFormatError(
            f"timestamp {timestamp} outside [0, {graph.num_timestamps})"
        )
    src, dst = graph.edges_until(timestamp)
    return Snapshot(graph.num_nodes, src, dst)
