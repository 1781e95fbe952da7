"""k-radius temporal ego-graph sampling (Algorithm 1 + Eq. 2).

The sampler produces *layered* ego-graphs: the centre temporal node sits in
layer 0 and layer ``l`` holds the temporal nodes reached after ``l`` hops.
Each hop records the (child -> parent) edges actually used, together with
their time offsets, because those are exactly the message-passing edges of
the k-bipartite computation graphs (Fig. 4).

Two behaviours from the paper are implemented faithfully:

* **Neighbour truncation** -- once a temporal node has more than ``threshold``
  first-order neighbours, ``threshold`` of them are sampled *with
  replacement* (``NodeSampling`` in Alg. 1), bounding the ego-graph size even
  in dense regions.
* **Degree-weighted initial sampling** (Eq. 2) -- centre nodes are drawn with
  probability proportional to their temporal degree, focusing training on
  representative local structures.

Sampling is array-level: :func:`sample_ego_tile` expands every centre of a
tile hop by hop over the graph's incidence CSR, with one vectorised
``searchsorted`` for all window slices of a hop.  Truncation draws are
*counter-keyed*: pick ``j`` of a truncated parent is a hash of
``(ego key, hop, parent slot, j)`` (:func:`counter_hash`), so an ego-graph
depends only on its 64-bit key, never on which tile, call or worker sampled
it.  Callers choose the keys: the generation engine hashes ``(u, t)`` into
one per-call word of the ``(seed, "tgae", "infer-ego")`` stream, the trainer
hashes the ego's shard index into one word drawn from the shard's RNG.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigError, GraphFormatError
from .temporal_graph import TemporalGraph

if TYPE_CHECKING:
    from .bipartite import PackedEgoBatch

TemporalNode = Tuple[int, int]

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_INT64_MAX = np.iinfo(np.int64).max
_SHIFT32 = np.uint64(32)


@dataclass
class EgoGraph:
    """A layered k-radius temporal ego-graph.

    Attributes
    ----------
    center:
        The centre temporal node ``(node_id, timestamp)``.
    layers:
        ``layers[l]`` is an ``(n_l, 2)`` array of ``(node_id, timestamp)``
        pairs at hop distance ``l``; ``layers[0]`` contains only the centre.
    edges:
        ``edges[l-1]`` (for hop ``l = 1..k``) is a ``(e_l, 2)`` array of
        local indices ``(child_idx_in_layer_l, parent_idx_in_layer_{l-1})``.
    """

    center: TemporalNode
    layers: List[np.ndarray] = field(default_factory=list)
    edges: List[np.ndarray] = field(default_factory=list)

    @property
    def radius(self) -> int:
        """Ego-graph radius ``k`` (number of layers after the centre)."""
        return len(self.layers) - 1

    @property
    def num_nodes(self) -> int:
        """Number of layer rows over all layers (a node may repeat across layers)."""
        return int(sum(layer.shape[0] for layer in self.layers))

    def all_nodes(self) -> np.ndarray:
        """All ``(node_id, timestamp)`` pairs across layers (may repeat)."""
        return np.concatenate([layer for layer in self.layers], axis=0)


def _mix64(x: np.ndarray, scratch: Optional[np.ndarray] = None) -> np.ndarray:
    """SplitMix64 finaliser: a bijective avalanche mix of ``uint64`` words.

    Mixes ``x`` in place (callers pass a fresh array) and returns it; one
    scratch array of ``x``'s shape serves all three shifts (``scratch``,
    or a fresh one).
    """
    scratch = np.right_shift(x, np.uint64(30), out=scratch)
    x ^= scratch
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= np.right_shift(x, np.uint64(27), out=scratch)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= np.right_shift(x, np.uint64(31), out=scratch)
    return x


def counter_hash(key, *words) -> np.ndarray:
    """64-bit hash of ``key`` chained with counter ``words`` (broadcasting).

    Each word is folded in as ``mix((h ^ word) + golden)``; every step is a
    bijection of ``h`` for a fixed word, so distinct counters under one key
    collide only by chance.  Returns a ``uint64`` array of at least one
    dimension (wrapping arithmetic, no scalar overflow warnings).
    """
    h = np.atleast_1d(np.asarray(key, dtype=np.uint64))
    for word in words:
        h = _mix64((h ^ np.asarray(word).astype(np.uint64)) + _GOLDEN)
    return h


def _pick_hashes(
    keys: np.ndarray, hop: int, owner: np.ndarray, slot: np.ndarray, threshold: int
) -> np.ndarray:
    """``(P, threshold)`` truncation hashes ``counter_hash(keys[owner[i]], hop, slot[i], j)``.

    The same chain folded one word per level of the loop: ``(key, hop)``
    once per ego, the parent's slot once per parent, pick ``j`` once per
    draw, so each draw costs one mix instead of three.
    """
    per_parent = counter_hash(counter_hash(keys, hop)[owner], slot)
    return counter_hash(per_parent[:, None], np.arange(threshold))


def ego_keys(rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` ego keys: each ego's index hashed into one word drawn from ``rng``."""
    word = rng.integers(np.iinfo(np.uint64).max, dtype=np.uint64, endpoint=True)
    return counter_hash(word, np.arange(count))


def _pairs(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """``(k, 2)`` int64 array of two columns (a cheaper ``np.stack``)."""
    out = np.empty((first.size, 2), dtype=np.int64)
    out[:, 0] = first
    out[:, 1] = second
    return out


def _group_starts(sorted_keys: np.ndarray) -> np.ndarray:
    """Mask of the first element of every run of equal sorted keys."""
    starts = np.empty(sorted_keys.size, dtype=bool)
    starts[:1] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=starts[1:])
    return starts


def _first_seen(keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """First-seen deduplication of ``keys``.

    Returns ``(rows, index)``: ``rows`` are the positions of each distinct
    key's first occurrence, ascending, and ``index[i]`` is the row of
    ``keys[i]``'s first occurrence within ``rows``.
    """
    size = keys.size
    if size and keys.min() >= 0 and keys.max() <= (_INT64_MAX - size) // size:
        # The composite ``key * size + position`` is unique, so any sort of
        # it is the stable order of the keys, without a stable (timsort) sort.
        composite = keys.astype(np.int64, copy=False) * size + np.arange(size)
        sorted_keys, order = np.divmod(np.sort(composite), size)
    else:  # the composite would overflow int64
        order = keys.argsort(kind="stable")
        sorted_keys = keys[order]
    starts = _group_starts(sorted_keys)
    first = order[starts]  # stable sort: the earliest position of each key
    is_first = np.zeros(keys.size, dtype=bool)
    is_first[first] = True
    index = np.empty(keys.size, dtype=np.int64)
    index[order] = (is_first.cumsum() - 1)[first][starts.cumsum() - 1]
    return is_first.nonzero()[0], index


@dataclass
class EgoTile:
    """A tile of layered ego-graphs held as flat, ego-major level arrays.

    Attributes
    ----------
    nodes:
        ``nodes[l]`` is the ``(N_l, 2)`` concatenation of every ego's layer
        ``l`` in ego order; ``nodes[0]`` holds the ``B`` centres.
    owners:
        ``owners[l]`` is ``(N_l,)``: the ego of each row of ``nodes[l]``
        (non-decreasing).
    offsets:
        ``offsets[l]`` is ``(B + 1,)``: ego ``b``'s layer ``l`` is
        ``nodes[l][offsets[l][b]:offsets[l][b + 1]]``.
    edges:
        ``edges[l-1]`` is ``(E_l, 2)`` of ``(child row in nodes[l], parent
        row in nodes[l-1])``, grouped by ego in ego order.

    Three views: :meth:`packed` (the flat k-bipartite batch, per ego or
    merged as in Fig. 4), :meth:`egos` (per-ego :class:`EgoGraph` objects)
    and :meth:`from_egos` (the inverse of :meth:`egos`).
    """

    nodes: List[np.ndarray]
    owners: List[np.ndarray]
    offsets: List[np.ndarray]
    edges: List[np.ndarray]

    @property
    def centers(self) -> np.ndarray:
        """``(B, 2)`` centre ``(node_id, timestamp)`` of each ego-graph."""
        return self.nodes[0]

    @property
    def radius(self) -> int:
        """Ego-graph radius ``k`` (number of hops sampled)."""
        return len(self.edges)

    @property
    def batch_size(self) -> int:
        """Number of ego-graphs (one per centre) in the tile."""
        return int(self.nodes[0].shape[0])

    @classmethod
    def from_egos(cls, egos: Sequence[EgoGraph]) -> "EgoTile":
        """Concatenate per-ego layers and edges into one tile."""
        if not egos:
            raise GraphFormatError("cannot pack a batch of zero ego-graphs")
        radius = egos[0].radius
        if any(ego.radius != radius for ego in egos):
            raise GraphFormatError("all ego-graphs in a batch must share the same radius")
        nodes: List[np.ndarray] = []
        owners: List[np.ndarray] = []
        offsets: List[np.ndarray] = []
        for level in range(radius + 1):
            layers = [np.asarray(ego.layers[level], dtype=np.int64).reshape(-1, 2) for ego in egos]
            sizes = [layer.shape[0] for layer in layers]
            nodes.append(np.concatenate(layers))
            owners.append(np.arange(len(egos), dtype=np.int64).repeat(sizes))
            offsets.append(np.cumsum([0] + sizes))
        edges = [
            np.concatenate(
                [
                    np.asarray(ego.edges[level - 1], dtype=np.int64).reshape(-1, 2)
                    + [offsets[level][b], offsets[level - 1][b]]
                    for b, ego in enumerate(egos)
                ]
            )
            for level in range(1, radius + 1)
        ]
        return cls(nodes, owners, offsets, edges)

    def egos(self) -> List[EgoGraph]:
        """One :class:`EgoGraph` per centre (layer and edge views of the tile)."""
        ego_range = np.arange(self.batch_size + 1)
        bounds = [
            self.owners[level][self.edges[level - 1][:, 0]].searchsorted(ego_range)
            for level in range(1, self.radius + 1)
        ]
        out = []
        for b in range(self.batch_size):
            layers = [
                nodes[off[b] : off[b + 1]] for nodes, off in zip(self.nodes, self.offsets)
            ]
            edges = [
                self.edges[level - 1][bound[b] : bound[b + 1]]
                - [self.offsets[level][b], self.offsets[level - 1][b]]
                for level, bound in enumerate(bounds, start=1)
            ]
            center = (int(self.centers[b, 0]), int(self.centers[b, 1]))
            out.append(EgoGraph(center=center, layers=layers, edges=edges))
        return out

    def packed(self, merge: bool = False) -> PackedEgoBatch:
        """The tile's k-bipartite computation graphs as one flat batch.

        ``merge=False`` gives each ego its own tables (the ego-parallel
        layout); ``merge=True`` gives every row one owner, so all egos share
        one table per level (the merged, cross-ego deduplicated layout of
        Fig. 4).  Per table and level ``l``, the node table is the sorted
        union of the layer-``l`` rows it owns and its level ``l-1`` table
        (nesting); level 0 holds the centres.  A level's tables are stacked
        in table order with no padding.  Per table, the edges are the
        sampled edges in tile order, the first of each ``(src row, dst
        row)`` pair kept, followed by one zero-offset self edge per level
        ``l-1`` row; the tables' edge lists follow each other in table
        order.  ``center_rows`` is each centre's row of level 0.
        """
        from . import bipartite

        batch = self.batch_size
        if batch == 0:
            raise GraphFormatError("cannot pack a batch of zero ego-graphs")
        node_mod, time_mod = (
            np.max([nodes.max(axis=0) for nodes in self.nodes if nodes.size], axis=0) + 1
        ).tolist()
        stride = node_mod * time_mod
        owners = [np.zeros_like(owner) for owner in self.owners] if merge else self.owners
        table_range = np.arange((1 if merge else batch) + 1)
        # Tables are kept as sorted ``(owner, node, time)`` keys.
        table_keys = np.zeros(0, dtype=np.int64)
        level_nodes, levels = [], []
        for level in range(self.radius + 1):
            layer = self.nodes[level]
            keys = np.concatenate(
                [owners[level] * stride + layer[:, 0] * time_mod + layer[:, 1], table_keys]
            )
            order = keys.argsort()
            starts = _group_starts(keys[order])
            inverse = np.empty(keys.size, dtype=np.int64)
            inverse[order] = starts.cumsum() - 1
            layer_map, nest_map = inverse[: layer.shape[0]], inverse[layer.shape[0] :]
            table_keys = keys[order[starts]]
            table_owner = table_keys // stride
            within = table_keys - table_owner * stride
            table_u = within // time_mod
            table_t = within - table_u * time_mod
            level_nodes.append(_pairs(table_u, table_t))
            if level == 0:
                center_rows = layer_map
            else:
                edges = self.edges[level - 1]
                sampled_src, sampled_dst = layer_map[edges[:, 0]], row_map[edges[:, 1]]
                if merge:  # an edge sampled by several egos is stored once
                    first, _ = _first_seen(sampled_src * prev_owner.size + sampled_dst)
                    sampled_src, sampled_dst = sampled_src[first], sampled_dst[first]
                # Per table: the sampled edges in tile order (already grouped
                # by table), then the nesting self-loops in level l-1 order.
                # Table b's edges start after the sampled edges and level
                # l-1 rows of tables before it.
                sampled_owner = table_owner[sampled_src]
                sampled_end = sampled_owner.searchsorted(table_range[1:])
                prev_rows = np.arange(prev_owner.size)
                src = np.empty(sampled_src.size + prev_rows.size, dtype=np.int64)
                dst = np.empty_like(src)
                at = np.arange(sampled_src.size) + prev_off[sampled_owner]
                src[at], dst[at] = sampled_src, sampled_dst
                at = sampled_end[prev_owner] + prev_rows
                src[at], dst[at] = nest_map, prev_rows
                delta_t = (prev_t[dst] - table_t[src]).astype(np.float64)
                levels.append(bipartite.PackedLevel(src=src, dst=dst, delta_t=delta_t))
            # This level's tables parent the next; row_map: nodes[l] row -> table row.
            prev_owner, prev_t, row_map = table_owner, table_t, layer_map
            prev_off = table_owner.searchsorted(table_range)
        return bipartite.PackedEgoBatch(
            nodes=level_nodes,
            levels=levels,
            center_rows=center_rows,
            tables=table_range.size - 1,
        )


def sample_ego_tile(
    graph: TemporalGraph,
    centers: np.ndarray,
    keys: np.ndarray,
    radius: int,
    threshold: int,
    time_window: int,
) -> EgoTile:
    """``k-EgoGraph`` of Alg. 1 for a whole tile of centres at once.

    Parameters
    ----------
    graph:
        The observed temporal graph.
    centers:
        ``(B, 2)`` centre temporal nodes ``(node_id, timestamp)``; each
        must lie in ``[0, n) x [0, T)``.
    keys:
        ``(B,)`` 64-bit ego keys; ego ``b``'s truncation draws are a pure
        function of ``keys[b]`` (see :func:`counter_hash`).
    radius:
        Ego-graph radius ``k`` (number of stacked TGAT hops).
    threshold:
        Per-node neighbour truncation ``th``.
    time_window:
        Temporal window ``t_N`` of Definition 3.

    Every hop finds each parent's window slice ``|t' - t| <= time_window``
    of its incidence events with one ``searchsorted`` on the ``(node,
    time)`` keys.  A parent with more than ``threshold`` events draws
    ``threshold`` of them with replacement, pick ``j`` being
    ``counter_hash(key, hop, parent slot, j)`` mapped onto the slice by
    multiply-shift.  Each ego's layer keeps its children in first-seen
    order ("ignore repeated nodes each time a new node is inserted into
    S_k", Sec. IV-C) and one edge per distinct ``(child, parent)`` pair,
    sorted.
    """
    if radius < 1:
        raise ConfigError(f"ego-graph radius must be >= 1, got {radius}")
    if threshold <= 0:
        raise ConfigError(f"neighbor threshold must be positive, got {threshold}")
    if time_window < 0:
        raise ConfigError(f"time window must be >= 0, got {time_window}")
    centers = np.asarray(centers, dtype=np.int64).reshape(-1, 2)
    keys = np.asarray(keys, dtype=np.uint64).reshape(-1)
    if keys.size != centers.shape[0]:
        raise GraphFormatError(f"got {keys.size} ego keys for {centers.shape[0]} centres")
    n, T = graph.num_nodes, graph.num_timestamps
    bad = (centers[:, 0] < 0) | (centers[:, 0] >= n) | (centers[:, 1] < 0) | (centers[:, 1] >= T)
    if bad.any():
        node, timestamp = centers[bad.argmax()].tolist()
        raise GraphFormatError(
            f"ego-graph centre ({node}, {timestamp}) lies outside [0, {n}) x [0, {T})"
        )
    inc = graph.incidence
    event_keys, others, times = inc["keys"], inc["other"], inc["times"]
    batch = centers.shape[0]
    ego_range = np.arange(batch + 1)
    stride = n * T
    nodes, owners, offsets = [centers], [ego_range[:-1]], [ego_range]
    edges: List[np.ndarray] = []
    slot = np.zeros(batch, dtype=np.int64)
    for hop in range(1, radius + 1):
        parents, owner = nodes[-1], owners[-1]
        base = parents[:, 0] * T
        lo = event_keys.searchsorted(base + np.maximum(parents[:, 1] - time_window, 0))
        hi = event_keys.searchsorted(
            base + np.minimum(parents[:, 1] + time_window, T - 1), side="right"
        )
        count = hi - lo
        take = np.minimum(count, threshold)
        parent = np.arange(parents.shape[0]).repeat(take)
        draw = np.arange(parent.size) - (take.cumsum() - take).repeat(take)
        pos = lo[parent] + draw
        cut = np.flatnonzero(count > threshold)
        if cut.size:  # each truncated parent's draws are contiguous, in order
            h = _pick_hashes(keys, hop, owner[cut], slot[cut], threshold)
            h >>= _SHIFT32
            h *= count[cut, None].astype(np.uint64)
            h >>= _SHIFT32
            pos[count[parent] > threshold] = (lo[cut, None] + h.astype(np.int64)).ravel()
        child_owner = owner[parent]
        child_u, child_t = others[pos], times[pos]
        rows, child_row = _first_seen(child_owner * stride + child_u * T + child_t)
        owner = child_owner[rows]
        level_off = owner.searchsorted(ego_range)
        slot = np.arange(rows.size) - level_off[owner]
        nodes.append(_pairs(child_u[rows], child_t[rows]))
        owners.append(owner)
        offsets.append(level_off)
        width = parents.shape[0]
        pairs = child_row * width + parent
        pairs.sort()
        pairs = pairs[_group_starts(pairs)]
        child = pairs // width
        edges.append(_pairs(child, pairs - child * width))
    return EgoTile(nodes, owners, offsets, edges)


def sample_ego_graph(
    graph: TemporalGraph,
    center: TemporalNode,
    radius: int,
    threshold: int,
    time_window: int,
    rng: np.random.Generator,
) -> EgoGraph:
    """``k-EgoGraph`` of Alg. 1 for one centre, returned in layered form.

    A one-centre :func:`ego_graph_batch`: the ego key is hashed from one
    word drawn from ``rng``.
    """
    return ego_graph_batch(graph, np.array([center]), radius, threshold, time_window, rng)[0]


def initial_node_probabilities(graph: TemporalGraph, uniform: bool = False) -> np.ndarray:
    """Eq. 2 sampling distribution over temporal nodes, flattened to (n*T,).

    ``P(u^t) = deg(u^t) / sum_v deg(v^t)``; the ``uniform`` flag implements
    the TGAE-n ablation variant (uniform over *active* temporal nodes).
    """
    degrees = graph.temporal_degrees().astype(np.float64).reshape(-1)
    total = degrees.sum()
    if total == 0:
        raise ConfigError("graph has no edges; cannot build a sampling distribution")
    if uniform:
        active = (degrees > 0).astype(np.float64)
        return active / active.sum()
    return degrees / total


def sample_initial_nodes(
    graph: TemporalGraph,
    count: int,
    rng: np.random.Generator,
    uniform: bool = False,
) -> np.ndarray:
    """Draw ``count`` centre temporal nodes; returns an ``(count, 2)`` array.

    Sampling is with replacement from the Eq. 2 distribution (or the uniform
    variant), matching the per-epoch sampling of the set ``V_s``.
    """
    probs = initial_node_probabilities(graph, uniform=uniform)
    flat = rng.choice(probs.size, size=count, p=probs)
    nodes = flat // graph.num_timestamps
    times = flat % graph.num_timestamps
    return np.stack([nodes, times], axis=1).astype(np.int64)


def ego_graph_batch(
    graph: TemporalGraph,
    centers: np.ndarray,
    radius: int,
    threshold: int,
    time_window: int,
    rng: np.random.Generator,
) -> List[EgoGraph]:
    """Sample one ego-graph per centre row of ``centers`` (the data loader of Alg. 1).

    One tile: ego ``i``'s key hashes its row index into one word drawn
    from ``rng``.
    """
    centers = np.asarray(centers, dtype=np.int64).reshape(-1, 2)
    keys = ego_keys(rng, centers.shape[0])
    return sample_ego_tile(graph, centers, keys, radius, threshold, time_window).egos()
