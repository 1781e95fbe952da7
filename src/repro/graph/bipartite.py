"""k-bipartite computation graphs (Fig. 4 of the paper).

All ego-graphs of a mini-batch are merged, layer by layer, into ``k``
bipartite graphs.  Level ``l`` connects source temporal nodes at hop ``l``
to target temporal nodes at hop ``l-1``; the encoder then runs one TGAT
layer per level, so every target representation in a level is computed
concurrently -- the GPU-friendly parallel training strategy that reduces the
number of sequential computation steps from ``O(nT)`` to ``O(nT / n_s)``.

Two details matter for correctness:

* **Deduplication** -- a temporal node appearing in several ego-graphs (or
  several times in one) is stored once per level, so repeated work is
  eliminated exactly as Sec. IV-C describes.
* **Self-loops / nesting** -- every level-``l-1`` node is also injected into
  level ``l`` with a zero-offset self-edge ("we added self-loops to all
  temporal nodes to pass messages to themselves"), which guarantees each
  target can see its own previous representation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..errors import GraphFormatError
from .ego_graph import EgoGraph, EgoTile

TemporalNode = Tuple[int, int]


@dataclass
class PackedLevel:
    """Padded edge tensors of one bipartite level across a batch of egos.

    All arrays are ``(batch, max_edges)``; ``src_index[b, e]`` points into
    ego ``b``'s padded level-``l`` node table and ``dst_index[b, e]`` into
    its level-``l-1`` table.  Entries with ``edge_mask[b, e] == False`` are
    padding and must not contribute messages.
    """

    src_index: np.ndarray
    dst_index: np.ndarray
    delta_t: np.ndarray
    edge_mask: np.ndarray

    @property
    def num_edges(self) -> int:
        """Total number of *real* (unmasked) edges in the level."""
        return int(self.edge_mask.sum())


@dataclass
class PackedEgoBatch:
    """A batch of layered ego-graphs in padded, ego-parallel bipartite form.

    Unlike :class:`BipartiteBatch` (which merges and deduplicates temporal
    nodes *across* ego-graphs, so a shared node aggregates messages from
    neighbours sampled in other egos), a packed batch keeps every ego-graph
    independent: encoding a packed batch is numerically equivalent to
    encoding each ego-graph on its own, just vectorised over the leading
    batch dimension.  This is the fast path used by training minibatches and
    the Sec. IV-G score-matrix row construction.

    Attributes
    ----------
    level_nodes:
        ``level_nodes[l]`` is ``(batch, n_l, 2)`` of padded
        ``(node_id, timestamp)`` pairs at hop ``l``; padding rows are zeros.
    node_mask:
        ``node_mask[l]`` is ``(batch, n_l)`` with ``True`` on real rows.
    levels:
        ``levels[l-1]`` holds the padded edges from level ``l`` sources to
        level ``l-1`` targets.
    center_index:
        ``(batch,)`` row of each ego's centre inside its level-0 table
        (always 0: level 0 holds exactly the centre).
    """

    level_nodes: List[np.ndarray]
    node_mask: List[np.ndarray]
    levels: List[PackedLevel]
    center_index: np.ndarray

    @property
    def radius(self) -> int:
        """Ego-graph radius ``k`` (number of bipartite levels)."""
        return len(self.levels)

    @property
    def batch_size(self) -> int:
        """Number of ego-graphs packed into the batch."""
        return int(self.level_nodes[0].shape[0])

    @property
    def num_centers(self) -> int:
        """Alias of :attr:`batch_size` (one centre per ego-graph)."""
        return self.batch_size

    @property
    def center_nodes(self) -> np.ndarray:
        """``(batch, 2)`` array of centre ``(node_id, timestamp)`` pairs."""
        return self.level_nodes[0][np.arange(self.batch_size), self.center_index]


def pack_ego_batch(ego_graphs: Sequence[EgoGraph]) -> PackedEgoBatch:
    """Pack ego-graphs into one padded, ego-parallel k-bipartite batch.

    Each ego-graph keeps its own (deduplicated, nested) node tables; tables
    and edge lists are right-padded to the batch maximum per level so the
    encoder can run one vectorised forward over the whole batch.  Encoding
    the result matches encoding each ego-graph individually, which makes
    this the exact batched counterpart of the per-node hot path.  The
    packer is :meth:`EgoTile.packed`, the one the tile sampler's batches
    use.
    """
    return EgoTile.from_egos(ego_graphs).packed()


@dataclass
class BipartiteLevel:
    """Edges of one bipartite computation graph (hop ``l``).

    ``src_index[e]`` points into the level-``l`` node table and
    ``dst_index[e]`` into the level-``l-1`` table; ``delta_t[e]`` is the time
    offset ``t_dst - t_src`` fed to the temporal encoding.
    """

    src_index: np.ndarray
    dst_index: np.ndarray
    delta_t: np.ndarray

    @property
    def num_edges(self) -> int:
        return int(self.src_index.size)


@dataclass
class BipartiteBatch:
    """A merged mini-batch of ego-graphs in layered bipartite form.

    Attributes
    ----------
    level_nodes:
        ``level_nodes[l]`` is an ``(n_l, 2)`` array of distinct
        ``(node_id, timestamp)`` pairs at hop ``l`` (level 0 = centres).
        Levels are nested: every level-``l-1`` node also appears in level
        ``l``.
    levels:
        ``levels[l-1]`` holds the edges from level ``l`` sources to level
        ``l-1`` targets.
    center_index:
        For each ego-graph in the original batch, the row of its centre in
        ``level_nodes[0]``.
    """

    level_nodes: List[np.ndarray]
    levels: List[BipartiteLevel]
    center_index: np.ndarray

    @property
    def radius(self) -> int:
        return len(self.levels)

    @property
    def num_centers(self) -> int:
        return int(self.level_nodes[0].shape[0])


def build_bipartite_batch(ego_graphs: Sequence[EgoGraph]) -> BipartiteBatch:
    """Merge ego-graphs into the k-bipartite computation graphs of Fig. 4."""
    if not ego_graphs:
        raise GraphFormatError("cannot build a bipartite batch from zero ego-graphs")
    radius = ego_graphs[0].radius
    if any(eg.radius != radius for eg in ego_graphs):
        raise GraphFormatError("all ego-graphs in a batch must share the same radius")

    # ------------------------------------------------------------------
    # Level 0: deduplicated centres.
    # ------------------------------------------------------------------
    index_maps: List[Dict[TemporalNode, int]] = [dict() for _ in range(radius + 1)]
    node_tables: List[List[TemporalNode]] = [[] for _ in range(radius + 1)]

    def intern(level: int, node: TemporalNode) -> int:
        idx = index_maps[level].get(node)
        if idx is None:
            idx = len(node_tables[level])
            index_maps[level][node] = idx
            node_tables[level].append(node)
        return idx

    center_index = np.array(
        [intern(0, (int(eg.center[0]), int(eg.center[1]))) for eg in ego_graphs],
        dtype=np.int64,
    )

    # ------------------------------------------------------------------
    # Levels 1..k: union of per-ego layers, then nesting self-loops.
    # ------------------------------------------------------------------
    edge_sets: List[set] = [set() for _ in range(radius)]
    for eg in ego_graphs:
        # Per-ego local-index -> batch-index maps, built level by level.
        local_maps: List[np.ndarray] = []
        layer0 = eg.layers[0]
        local_maps.append(
            np.array([index_maps[0][(int(layer0[0, 0]), int(layer0[0, 1]))]], dtype=np.int64)
        )
        for level in range(1, radius + 1):
            layer = eg.layers[level]
            mapped = np.array(
                [intern(level, (int(layer[i, 0]), int(layer[i, 1]))) for i in range(layer.shape[0])],
                dtype=np.int64,
            )
            local_maps.append(mapped)
            for child_local, parent_local in eg.edges[level - 1]:
                src_batch = int(mapped[child_local])
                dst_batch = int(local_maps[level - 1][parent_local])
                edge_sets[level - 1].add((src_batch, dst_batch))

    # Nesting: inject each level-(l-1) node into level l and add a self edge.
    self_edges: List[List[Tuple[int, int]]] = [[] for _ in range(radius)]
    for level in range(1, radius + 1):
        for node, dst_idx in list(index_maps[level - 1].items()):
            src_idx = intern(level, node)
            self_edges[level - 1].append((src_idx, dst_idx))

    level_nodes = [np.array(table, dtype=np.int64).reshape(-1, 2) for table in node_tables]
    levels: List[BipartiteLevel] = []
    for level in range(1, radius + 1):
        pairs = sorted(edge_sets[level - 1]) + self_edges[level - 1]
        arr = np.array(pairs, dtype=np.int64).reshape(-1, 2)
        src_idx, dst_idx = arr[:, 0], arr[:, 1]
        t_src = level_nodes[level][src_idx, 1]
        t_dst = level_nodes[level - 1][dst_idx, 1]
        levels.append(
            BipartiteLevel(
                src_index=src_idx,
                dst_index=dst_idx,
                delta_t=(t_dst - t_src).astype(np.float64),
            )
        )
    return BipartiteBatch(level_nodes=level_nodes, levels=levels, center_index=center_index)
