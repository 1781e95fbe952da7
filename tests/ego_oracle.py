"""Per-row reference implementations of ego sampling and packing.

These are the original scalar loops the array-level tile sampler
(:func:`repro.graph.ego_graph.sample_ego_tile`) and its packer
(:meth:`repro.graph.ego_graph.EgoTile.packed`) replaced, kept verbatim as
test oracles: ``oracle_ego_graph`` walks one centre's layers parent by
parent with ``sample_neighbors`` truncation, and ``oracle_pack_ego_batch``
packs egos one at a time through ``_pack_single_ego`` into the padded
``(tables, max)`` layout the encoder once ran on; ``drop_padding`` reads
its real rows and edges back, table-major, as the flat
:class:`~repro.graph.PackedEgoBatch` the packer now emits.  Their truncation
draws come from a NumPy ``Generator``, so they agree with the tile sampler
bit for bit only where no window exceeds the threshold.
``counter_ego_graph`` is the same per-row loop with the tile sampler's
counter-keyed truncation draws, so it agrees everywhere.
Both read each parent's window through ``first_order_neighbors``, a
binary search of the node's time-sorted incident events.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.errors import ConfigError, GraphFormatError
from repro.graph import EgoGraph, PackedEgoBatch, PackedLevel, TemporalGraph
from repro.graph.ego_graph import counter_hash

TemporalNode = Tuple[int, int]


def first_order_neighbors(
    graph: TemporalGraph, node: int, timestamp: int, time_window: int
) -> Tuple[np.ndarray, np.ndarray]:
    """First-order temporal neighbours of ``(node, timestamp)`` (Definition 3).

    Returns parallel arrays ``(neighbor_ids, neighbor_timestamps)`` of every
    event ``(u, t')`` with an edge between ``u`` and ``node`` at time ``t'``
    and ``|t' - timestamp| <= time_window``.  Events are returned per edge
    occurrence (multi-edges count multiple times), matching the temporal
    degree definition used by Eq. 2.
    """
    others, times = graph.incident_events(node)
    if others.size == 0:
        return others, times
    lo = np.searchsorted(times, timestamp - time_window, side="left")
    hi = np.searchsorted(times, timestamp + time_window, side="right")
    return others[lo:hi], times[lo:hi]


def sample_neighbors(
    neighbor_ids: np.ndarray,
    neighbor_times: np.ndarray,
    threshold: int,
    rng: np.random.Generator,
) -> Tuple[np.ndarray, np.ndarray]:
    """``NodeSampling`` of Alg. 1: truncate a neighbour set to ``threshold``.

    When the set is small enough it is returned untouched; otherwise
    ``threshold`` entries are drawn *with replacement*, exactly as the paper
    specifies ("we sample several times with replacement and get a limited
    number of nodes").
    """
    if threshold <= 0:
        raise ConfigError(f"neighbor threshold must be positive, got {threshold}")
    count = neighbor_ids.shape[0]
    if count <= threshold:
        return neighbor_ids, neighbor_times
    pick = rng.integers(0, count, size=threshold)
    return neighbor_ids[pick], neighbor_times[pick]


def oracle_ego_graph(
    graph: TemporalGraph,
    center: TemporalNode,
    radius: int,
    threshold: int,
    time_window: int,
    rng: np.random.Generator,
) -> EgoGraph:
    """``k-EgoGraph`` of Alg. 1, returned in layered form.

    Parameters
    ----------
    graph:
        The observed temporal graph.
    center:
        Centre temporal node ``(node_id, timestamp)``.
    radius:
        Ego-graph radius ``k`` (number of stacked TGAT hops).
    threshold:
        Per-node neighbour truncation ``th``.
    time_window:
        Temporal window ``t_N`` of Definition 3.
    rng:
        Random generator (sampling with replacement above the threshold).
    """
    if radius < 1:
        raise ConfigError(f"ego-graph radius must be >= 1, got {radius}")
    layers: List[np.ndarray] = [np.array([center], dtype=np.int64)]
    edges: List[np.ndarray] = []
    for _ in range(radius):
        parent_layer = layers[-1]
        child_nodes: List[Tuple[int, int]] = []
        child_edges: List[Tuple[int, int]] = []
        seen: dict = {}
        for parent_idx in range(parent_layer.shape[0]):
            node, timestamp = int(parent_layer[parent_idx, 0]), int(parent_layer[parent_idx, 1])
            neigh, times = first_order_neighbors(graph, node, timestamp, time_window)
            neigh, times = sample_neighbors(neigh, times, threshold, rng)
            for v, t_v in zip(neigh.tolist(), times.tolist()):
                key = (v, t_v)
                # Deduplicate within the layer ("ignore repeated nodes each
                # time a new node is inserted into S_k", Sec. IV-C) but keep
                # one edge per distinct (child, parent) pair.
                child_idx = seen.get(key)
                if child_idx is None:
                    child_idx = len(child_nodes)
                    seen[key] = child_idx
                    child_nodes.append(key)
                child_edges.append((child_idx, parent_idx))
        if child_nodes:
            layer_arr = np.array(child_nodes, dtype=np.int64)
            edge_arr = np.unique(np.array(child_edges, dtype=np.int64), axis=0)
        else:
            layer_arr = np.zeros((0, 2), dtype=np.int64)
            edge_arr = np.zeros((0, 2), dtype=np.int64)
        layers.append(layer_arr)
        edges.append(edge_arr)
    return EgoGraph(center=center, layers=layers, edges=edges)


def _pack_single_ego(
    ego: EgoGraph, key_mod: int
) -> Tuple[List[np.ndarray], List[np.ndarray], List[np.ndarray]]:
    """Nested per-level node tables and edge lists for one ego-graph.

    Within-ego deduplication, level nesting and self-loop edges, with
    vectorised ``np.unique`` interning instead of per-node dict lookups.
    """
    tables: List[np.ndarray] = [ego.layers[0].reshape(1, 2).astype(np.int64)]
    layer_maps: List[np.ndarray] = [np.zeros(1, dtype=np.int64)]
    edge_src: List[np.ndarray] = []
    edge_dst: List[np.ndarray] = []
    for level in range(1, ego.radius + 1):
        layer = ego.layers[level].reshape(-1, 2)
        prev = tables[level - 1]
        n_layer = layer.shape[0]
        combined = np.concatenate([layer, prev], axis=0)
        keys = combined[:, 0] * key_mod + combined[:, 1]
        unique_keys, inverse = np.unique(keys, return_inverse=True)
        table = np.stack([unique_keys // key_mod, unique_keys % key_mod], axis=1)
        layer_map = inverse[:n_layer]
        nest_map = inverse[n_layer:]
        edges = ego.edges[level - 1].reshape(-1, 2)
        sampled_src = layer_map[edges[:, 0]]
        sampled_dst = layer_maps[level - 1][edges[:, 1]]
        # Nesting self-loops: every level-(l-1) node receives its own
        # previous representation through a zero-offset self edge.
        edge_src.append(np.concatenate([sampled_src, nest_map]))
        edge_dst.append(
            np.concatenate([sampled_dst, np.arange(prev.shape[0], dtype=np.int64)])
        )
        tables.append(table)
        layer_maps.append(layer_map)
    return tables, edge_src, edge_dst


@dataclass
class PaddedEgoBatch:
    """Ego-graphs in padded k-bipartite form, one table per ego.

    ``level_nodes[l]`` is ``(tables, n_l, 2)`` with ``node_mask[l]`` ``True``
    on real rows; level ``l``'s edges are ``(tables, e_l)`` arrays of row
    indices within each table, with ``edge_mask[l-1]`` ``True`` on real
    edges.  Padding is zero.
    """

    level_nodes: List[np.ndarray]
    node_mask: List[np.ndarray]
    src_index: List[np.ndarray]
    dst_index: List[np.ndarray]
    delta_t: List[np.ndarray]
    edge_mask: List[np.ndarray]


def oracle_pack_ego_batch(ego_graphs: Sequence[EgoGraph]) -> PaddedEgoBatch:
    """Pack ego-graphs into one padded, ego-parallel k-bipartite batch.

    Each ego-graph keeps its own (deduplicated, nested) node tables; tables
    and edge lists are right-padded to the batch maximum per level.
    """
    if not ego_graphs:
        raise GraphFormatError("cannot pack a batch of zero ego-graphs")
    radius = ego_graphs[0].radius
    if any(eg.radius != radius for eg in ego_graphs):
        raise GraphFormatError("all ego-graphs in a batch must share the same radius")
    max_time = 0
    for ego in ego_graphs:
        for layer in ego.layers:
            if layer.size:
                max_time = max(max_time, int(layer[:, 1].max()))
    key_mod = max_time + 1

    packed = [_pack_single_ego(ego, key_mod) for ego in ego_graphs]
    batch = len(packed)
    out = PaddedEgoBatch([], [], [], [], [], [])

    for level in range(radius + 1):
        width = max(tables[level].shape[0] for tables, _, _ in packed)
        nodes = np.zeros((batch, width, 2), dtype=np.int64)
        mask = np.zeros((batch, width), dtype=bool)
        for b, (tables, _, _) in enumerate(packed):
            rows = tables[level].shape[0]
            nodes[b, :rows] = tables[level]
            mask[b, :rows] = True
        out.level_nodes.append(nodes)
        out.node_mask.append(mask)

    for level in range(1, radius + 1):
        width = max(src[level - 1].shape[0] for _, src, _ in packed)
        src_index = np.zeros((batch, width), dtype=np.int64)
        dst_index = np.zeros((batch, width), dtype=np.int64)
        edge_mask = np.zeros((batch, width), dtype=bool)
        for b, (_, src, dst) in enumerate(packed):
            count = src[level - 1].shape[0]
            src_index[b, :count] = src[level - 1]
            dst_index[b, :count] = dst[level - 1]
            edge_mask[b, :count] = True
        t_src = np.take_along_axis(out.level_nodes[level][:, :, 1], src_index, axis=1)
        t_dst = np.take_along_axis(out.level_nodes[level - 1][:, :, 1], dst_index, axis=1)
        out.src_index.append(src_index)
        out.dst_index.append(dst_index)
        out.delta_t.append(np.where(edge_mask, (t_dst - t_src).astype(np.float64), 0.0))
        out.edge_mask.append(edge_mask)
    return out


def _real_rows(node_mask: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Positions among a level's real rows of per-table row indices.

    ``node_mask`` is the level's ``(tables, n)`` mask and ``index`` is
    ``(tables, k)`` rows of each table; the real rows are numbered
    table-major, the order ``level_nodes[l][node_mask[l]]`` lists them in.
    """
    tables, width = node_mask.shape
    rank = np.cumsum(node_mask.reshape(-1)) - 1
    return rank[index + np.arange(tables, dtype=np.int64)[:, None] * width]


def drop_padding(padded: PaddedEgoBatch) -> PackedEgoBatch:
    """The flat batch of ``padded``'s real rows and edges, read row-major."""
    masks = padded.node_mask
    levels = [
        PackedLevel(
            src=_real_rows(masks[level], padded.src_index[level - 1])[real],
            dst=_real_rows(masks[level - 1], padded.dst_index[level - 1])[real],
            delta_t=padded.delta_t[level - 1][real],
        )
        for level, real in enumerate(padded.edge_mask, start=1)
    ]
    tables = masks[0].shape[0]
    return PackedEgoBatch(
        nodes=[nodes[mask] for nodes, mask in zip(padded.level_nodes, masks)],
        levels=levels,
        center_rows=_real_rows(masks[0], np.zeros((tables, 1), dtype=np.int64))[:, 0],
        tables=tables,
    )


def counter_ego_graph(
    graph: TemporalGraph,
    center: TemporalNode,
    key: int,
    radius: int,
    threshold: int,
    time_window: int,
) -> EgoGraph:
    """``oracle_ego_graph`` with the tile sampler's counter-keyed draws.

    The same per-parent loop, but a parent at layer slot ``slot`` of hop
    ``hop`` whose window holds ``count > threshold`` events takes exactly
    ``threshold`` picks ``j``, each the window index
    ``((counter_hash(key, hop, slot, j) >> 32) * count) >> 32``.
    """
    layers: List[np.ndarray] = [np.array([center], dtype=np.int64)]
    edges: List[np.ndarray] = []
    for hop in range(1, radius + 1):
        parent_layer = layers[-1]
        child_nodes: List[Tuple[int, int]] = []
        child_edges: List[Tuple[int, int]] = []
        seen: dict = {}
        for slot in range(parent_layer.shape[0]):
            node, timestamp = int(parent_layer[slot, 0]), int(parent_layer[slot, 1])
            neigh, times = first_order_neighbors(graph, node, timestamp, time_window)
            count = neigh.shape[0]
            if count > threshold:
                h = counter_hash(key, hop, slot, np.arange(threshold))
                pick = ((h >> np.uint64(32)) * np.uint64(count)) >> np.uint64(32)
                assert pick.size == threshold and int(pick.max()) < count
                neigh, times = neigh[pick.astype(np.int64)], times[pick.astype(np.int64)]
            for v, t_v in zip(neigh.tolist(), times.tolist()):
                child_idx = seen.get((v, t_v))
                if child_idx is None:
                    child_idx = seen[(v, t_v)] = len(child_nodes)
                    child_nodes.append((v, t_v))
                child_edges.append((child_idx, slot))
        layers.append(np.array(child_nodes, dtype=np.int64).reshape(-1, 2))
        edges.append(np.unique(np.array(child_edges, dtype=np.int64).reshape(-1, 2), axis=0))
    return EgoGraph(center=center, layers=layers, edges=edges)
