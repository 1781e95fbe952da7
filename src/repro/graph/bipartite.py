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
    """The edges of one bipartite level, every table's edges in one list.

    ``src[e]`` is a row of the level-``l`` node array and ``dst[e]`` a row
    of the level-``l-1`` node array; ``delta_t[e]`` is the edge's time
    offset ``t_dst - t_src``.  All three are ``(E_l,)``; a table's edges
    are contiguous, in table order.
    """

    src: np.ndarray
    dst: np.ndarray
    delta_t: np.ndarray


@dataclass
class PackedEgoBatch:
    """A batch of layered ego-graphs in flat k-bipartite form.

    A level's node tables are stacked table-major into one array with no
    padding, and its edges index those stacked rows, so one TGAT layer call
    covers every table.  In the default layout each ego-graph is its own
    table, so encoding the batch is numerically equivalent to encoding each
    ego-graph on its own; this is the layout of generation and of default
    training.  In the merged layout of Fig. 4 (``packed_batches=False``
    training) there is one table shared by every ego-graph, so a temporal
    node common to several egos is stored once and aggregates the messages
    of neighbours sampled in all of them.

    Attributes
    ----------
    nodes:
        ``nodes[l]`` is ``(N_l, 2)``: the ``(node_id, timestamp)`` rows of
        every table at hop ``l``, table by table.
    levels:
        ``levels[l-1]`` holds the edges from level ``l`` sources to level
        ``l-1`` targets.
    center_rows:
        ``(num_centers,)`` row of each centre in ``nodes[0]``: ``arange``
        with one table per ego (level 0 holds exactly the centres), the
        centre's row of the shared table when merged.
    tables:
        Number of tables: one per ego-graph, or 1 when merged.
    """

    nodes: List[np.ndarray]
    levels: List[PackedLevel]
    center_rows: np.ndarray
    tables: int

    @property
    def radius(self) -> int:
        """Ego-graph radius ``k`` (number of bipartite levels)."""
        return len(self.levels)

    @property
    def num_centers(self) -> int:
        """Number of ego-graphs (one centre each)."""
        return int(self.center_rows.size)

    @property
    def center_nodes(self) -> np.ndarray:
        """``(num_centers, 2)`` centre ``(node_id, timestamp)`` pairs."""
        return self.nodes[0][self.center_rows]


def pack_ego_batch(ego_graphs: Sequence[EgoGraph]) -> PackedEgoBatch:
    """Pack ego-graphs into one flat, ego-parallel k-bipartite batch.

    Each ego-graph keeps its own (deduplicated, nested) node tables, stacked
    per level so the encoder can run one vectorised forward over the whole
    batch.  Encoding the result matches encoding each ego-graph
    individually, which makes this the exact batched counterpart of the
    per-node hot path.  The packer is :meth:`EgoTile.packed`, the one the
    tile sampler's batches use.
    """
    return EgoTile.from_egos(ego_graphs).packed()
