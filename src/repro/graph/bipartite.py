"""k-bipartite computation graphs (Fig. 4 of the paper).

A batch of ego-graphs is laid out, level by level, as ``k`` bipartite
graphs.  Level ``l`` connects source temporal nodes at hop ``l`` to target
temporal nodes at hop ``l-1``; the encoder then runs one TGAT layer per
level, so every target representation in a level is computed concurrently
-- the GPU-friendly parallel training strategy that reduces the number of
sequential computation steps from ``O(nT)`` to ``O(nT / n_s)``.

Two details matter for correctness:

* **Deduplication** -- a temporal node appearing several times in one
  table's ego-graphs is stored once per level.  In the merged layout of
  Fig. 4 (:meth:`EgoTile.packed` with ``merge=True``) all ego-graphs share
  one table, so repeated work across egos is eliminated exactly as Sec.
  IV-C describes; the default layout keeps one table per ego.
* **Self-loops / nesting** -- every level-``l-1`` node is also injected into
  level ``l`` with a zero-offset self-edge ("we added self-loops to all
  temporal nodes to pass messages to themselves"), which guarantees each
  target can see its own previous representation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from .ego_graph import EgoGraph, EgoTile


@dataclass
class PackedLevel:
    """Padded edge tensors of one bipartite level across a batch of tables.

    All arrays are ``(tables, max_edges)``; ``src_index[b, e]`` points into
    table ``b``'s padded level-``l`` node table and ``dst_index[b, e]`` into
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
    """A batch of layered ego-graphs in padded k-bipartite form.

    The leading dimension indexes *tables*.  In the default layout each
    ego-graph is its own table, so encoding the batch is numerically
    equivalent to encoding each ego-graph on its own, just vectorised over
    the leading dimension; this is the layout of generation and of default
    training.  In the merged layout of Fig. 4 (``packed_batches=False``
    training) there is one table shared by every ego-graph, so a temporal
    node common to several egos is stored once and aggregates the messages
    of neighbours sampled in all of them.

    Attributes
    ----------
    level_nodes:
        ``level_nodes[l]`` is ``(tables, n_l, 2)`` of padded
        ``(node_id, timestamp)`` pairs at hop ``l``; padding rows are zeros.
    node_mask:
        ``node_mask[l]`` is ``(tables, n_l)`` with ``True`` on real rows.
    levels:
        ``levels[l-1]`` holds the padded edges from level ``l`` sources to
        level ``l-1`` targets.
    center_index:
        ``(num_centers,)`` row of each centre inside its level-0 table:
        all zeros with one table per ego (level 0 holds exactly the
        centre), the centre's row of the shared table when merged.
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
        """Number of tables (one per ego-graph unless merged)."""
        return int(self.level_nodes[0].shape[0])

    @property
    def num_centers(self) -> int:
        """Number of ego-graphs (one centre each)."""
        return int(self.center_index.size)

    @property
    def center_nodes(self) -> np.ndarray:
        """``(num_centers, 2)`` centre ``(node_id, timestamp)`` pairs."""
        if self.batch_size == self.num_centers:  # one table per ego
            return self.level_nodes[0][np.arange(self.batch_size), self.center_index]
        return self.level_nodes[0][0, self.center_index]


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
