"""Versioned per-``(node, t)`` inference embedding cache.

Encoder embeddings at inference time are pure functions of
``(model weights, observed graph, config)``: the decoder consumes the
posterior mean (``sample=False``, no RNG) and — since the inference
ego-graphs draw their truncation sampling from *named per-centre streams*
(``(seed, "tgae", "infer-ego", u, t)``, see
:meth:`repro.core.sampler.EgoGraphSampler.inference_batch`) — the encoder
input is too.  This module caches those embeddings across ``generate`` /
``score_topk`` / ``dense_score_rows`` calls so repeat inference against the
same fitted model skips the encoder entirely and becomes decode-only.

Three design rules make every cache hit *bitwise* equal to a cold encode:

* **Canonical encode groups.**  The key universe ``key = u * T + t`` is
  partitioned into timestamp-major tiles ``(t, u // EMBED_TILE)``: the
  :data:`EMBED_TILE` node ids of one block at one timestamp.  A key is
  encoded together with exactly the members of its tile that share its
  *activity* (active = the temporal node has an out-edge at ``t``), in
  ascending key order (:func:`encode_groups`).  So a cold ``generate``
  encodes only active keys, and ``score_topk`` at timestamp ``t`` encodes
  the inactive rows it asked for.  The batch composition seen by the
  packed encoder (and by BLAS, whose kernels are *not* row-count
  invariant) is a pure function of the graph and the group, never of the
  request.  Cache-off engines run the exact same groups ephemerally.
* **Version tokens.**  The cache stores a weights fingerprint
  (:func:`weights_token`, the same digest the worker pool uses to decide
  when to refresh its parameter segment) and a graph/config fingerprint
  (:func:`graph_token`).
  :meth:`EmbeddingCache.ensure` loudly flushes on any mismatch and counts
  the reason (``weight_flushes`` / ``graph_flushes``) — a hit can never be
  served across a version boundary.
* **Incremental invalidation.**  After an observed-edge append
  (:meth:`repro.core.generator.TGAEGenerator.update` with ``epochs=0``),
  :func:`dirty_temporal_nodes` walks the incidence CSR backwards from the
  new edges' windowed query points for ``radius - 1`` predecessor steps.
  It adds the whole tile of every *newly active* key, because that key
  moves from its tile's inactive group to its active group and so changes
  the composition of both.  Only those rows are dropped (plus the rows
  sharing their groups at re-encode time); the clean remainder keeps
  serving hits under the new graph token.

The cache lives in the calling process only.  Pooled inference never reads
it from a worker: :meth:`repro.core.engine.GenerationEngine.warm_rows`
serves and fills it in the caller, and each chunk task carries its rows.
"""

from __future__ import annotations

import hashlib
import threading
from typing import Any, Dict, List, Optional

import numpy as np

from ..graph.temporal_graph import TemporalGraph

#: Node ids per timestamp-major encode tile ``(t, u // EMBED_TILE)``; each
#: tile splits into an active and an inactive encode group.  This is a
#: determinism contract, not a tuning knob: changing it changes the batch
#: composition of every inference encode and therefore (through BLAS
#: kernel selection) the low-order bits of cached embeddings, which would
#: break the pinned fingerprint corpus.  It is deliberately not
#: configurable.
EMBED_TILE: int = 32

#: Two concatenated sha256 hexdigests: ``weights_token + graph_token``.
_TOKEN_BYTES = 128

_STAT_KEYS = (
    "hit_rows",
    "encoded_rows",
    "encode_calls",
    "flushes",
    "weight_flushes",
    "graph_flushes",
    "invalidated_rows",
)


def weights_token(model: Any) -> str:
    """Fingerprint of the model's weight values (sorted-name sha256).

    The cache and the worker pool's parameter-segment refresh both use it,
    so they agree on what "the weights changed" means.
    """
    digest = hashlib.sha256()
    for name, param in sorted(model.named_parameters()):
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(param.data).tobytes())
    return digest.hexdigest()


def graph_token(
    graph: TemporalGraph,
    config: Any,
    external_features: Optional[np.ndarray] = None,
) -> str:
    """Fingerprint of everything besides the weights that embeddings see.

    Covers the edge arrays, the ``(n, T)`` universe, the full config repr
    (radius/threshold/window/seed shape the inference ego-graphs and their
    named truncation streams) and any external node features.
    """
    digest = hashlib.sha256()
    digest.update(repr(config).encode())
    digest.update(f"{graph.num_nodes}:{graph.num_timestamps}".encode())
    for arr in (graph.src, graph.dst, graph.t):
        digest.update(np.ascontiguousarray(arr).tobytes())
    if external_features is not None:
        digest.update(np.ascontiguousarray(external_features).tobytes())
    return digest.hexdigest()


def _token_array(weights: str, graph: str) -> np.ndarray:
    """Pack the two hexdigests into the 128-byte token array."""
    packed = (weights + graph).encode("ascii")
    if len(packed) != _TOKEN_BYTES:
        raise ValueError(f"expected two sha256 hexdigests, got {len(packed)} bytes")
    return np.frombuffer(packed, dtype=np.uint8).copy()


class EmbeddingCache:
    """Per-``(node, t)`` encoder embeddings, versioned by weights/graph tokens.

    Parameters
    ----------
    num_rows:
        Size of the temporal-node universe, ``num_nodes * num_timestamps``;
        row ``u * T + t`` holds the embedding of temporal node ``(u, t)``.
    hidden_dim:
        Encoder output width.
    dtype:
        The session dtype policy (``config.np_dtype``).

    The cache owns its arrays and is read and mutated only by the engine
    that holds it, in the calling process (`store`/`invalidate_rows`/
    `flush` serialise on an internal lock).
    """

    def __init__(self, num_rows: int, hidden_dim: int, dtype: Any) -> None:
        self.rows = np.zeros((int(num_rows), int(hidden_dim)), dtype=np.dtype(dtype))
        self.valid = np.zeros(int(num_rows), dtype=bool)
        self._token = np.zeros(_TOKEN_BYTES, dtype=np.uint8)
        self.stats: Dict[str, int] = {key: 0 for key in _STAT_KEYS}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Versioning
    # ------------------------------------------------------------------
    @property
    def tokens_set(self) -> bool:
        """Whether the cache has ever been bound to a (weights, graph) pair."""
        return bool(self._token.any())

    def _matches(self, weights: str, graph: str) -> bool:
        return bool(np.array_equal(self._token, _token_array(weights, graph)))

    def ensure(self, weights: str, graph: str) -> bool:
        """Bind the cache to a token pair, after which its rows may be served.

        A cache that holds a *different* pair is loudly flushed (every row
        invalidated, ``flushes`` plus the per-reason counter bumped) and
        rebound.  Always returns ``True``.
        """
        with self._lock:
            if self._matches(weights, graph):
                return True
            if self.tokens_set:
                self.stats["flushes"] += 1
                current = self._token.tobytes().decode("ascii")
                if current[:64] != weights:
                    self.stats["weight_flushes"] += 1
                if current[64:] != graph:
                    self.stats["graph_flushes"] += 1
                self.valid[:] = False
            self._token[:] = _token_array(weights, graph)
            return True

    # ------------------------------------------------------------------
    # Row access
    # ------------------------------------------------------------------
    def fill(self, keys: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Copy cached rows for ``keys`` into ``out``; returns the hit mask."""
        hit = self.valid[keys]
        if hit.any():
            out[hit] = self.rows[keys[hit]]
            self.stats["hit_rows"] += int(hit.sum())
        return hit

    def store(self, keys: np.ndarray, values: np.ndarray) -> None:
        """Insert freshly encoded rows."""
        with self._lock:
            self.rows[keys] = values
            self.valid[keys] = True
            self.stats["encoded_rows"] += int(keys.size)
            self.stats["encode_calls"] += 1

    def invalidate_rows(
        self, keys: np.ndarray, graph: Optional[str] = None
    ) -> int:
        """Drop specific rows, optionally rebinding the graph-token half.

        The incremental-ingest path: after an observed-edge append the
        dirty ego-neighbourhood rows are dropped and ``graph`` (the token
        of the *post-append* graph) replaces the stored graph fingerprint,
        so the surviving rows keep serving hits without a flush.  Returns
        the number of previously valid rows dropped.
        """
        keys = np.asarray(keys, dtype=np.int64)
        with self._lock:
            dropped = int(self.valid[keys].sum())
            self.valid[keys] = False
            self.stats["invalidated_rows"] += dropped
            if graph is not None and self.tokens_set:
                self._token[64:] = np.frombuffer(
                    graph.encode("ascii"), dtype=np.uint8
                )
        return dropped

    def flush(self) -> None:
        """Drop every row and unbind the token pair (explicit full reset)."""
        with self._lock:
            self.valid[:] = False
            self._token[:] = 0
            self.stats["flushes"] += 1

    # ------------------------------------------------------------------
    # Storage
    # ------------------------------------------------------------------
    def share_arrays(self) -> Dict[str, np.ndarray]:
        """The arrays the cache's state lives in: rows, valid mask, token.

        Their total ``nbytes`` is the cache's memory footprint.
        """
        return {"rows": self.rows, "valid": self.valid, "token": self._token}


def _tile_keys(t: int, block: int, num_nodes: int, num_timestamps: int) -> np.ndarray:
    """Every universe key of tile ``(t, block)``, ascending."""
    first = block * EMBED_TILE
    nodes = np.arange(first, min(first + EMBED_TILE, num_nodes), dtype=np.int64)
    return nodes * np.int64(num_timestamps) + t


def encode_groups(
    keys: np.ndarray, active: np.ndarray, num_timestamps: int
) -> List[np.ndarray]:
    """The canonical encode groups covering ``keys``, each ascending.

    ``active`` is the universe's activity mask: ``active[u * T + t]`` is
    true when ``(u, t)`` has an out-edge at ``t``.  A key's group is the
    members of its tile ``(t, u // EMBED_TILE)`` that share its activity,
    so every group is a pure function of the graph, never of which keys a
    request asked for.
    """
    T = int(num_timestamps)
    num_nodes = active.size // T
    keys = np.asarray(keys, dtype=np.int64)
    specs = np.unique(
        np.stack([keys % T, keys // T // EMBED_TILE, active[keys]], axis=1), axis=0
    )
    groups = []
    for t, block, is_active in specs.tolist():
        members = _tile_keys(t, block, num_nodes, T)
        groups.append(members[active[members] == bool(is_active)])
    return groups


def dirty_temporal_nodes(
    graph: TemporalGraph,
    new_src: np.ndarray,
    new_dst: np.ndarray,
    new_t: np.ndarray,
    radius: int,
    time_window: int,
) -> np.ndarray:
    """Universe keys whose inference embedding may change after an append.

    Walks backwards from the appended edges on the *post-append* graph's
    incidence CSR.  A centre ``(u, t)``'s ego-graph issues windowed
    neighbour queries at layer depths ``0 .. radius-1``; its embedding can
    only move if some reachable query point ``(x, s)`` sees a new edge —
    i.e. ``x`` is an endpoint of an appended edge at time ``te`` with
    ``|s - te| <= time_window`` (presence alone matters: it perturbs the
    truncation-sampling input even when the new edge is not drawn).  Level
    0 is exactly those windowed query points; each further level adds the
    predecessors ``(p, s_p)`` whose query could have produced a frontier
    node ``(x, s)`` as a child — ``p`` a partner of ``x`` at event time
    exactly ``s`` with ``|s - s_p| <= time_window``.  The union over all
    ``radius`` levels is a sound superset of the changed rows (append-only
    edits never un-reach a query point).

    A cached row also depends on the composition of its encode group, so
    the whole tile of every *newly active* key (an appended source with no
    earlier out-edge at that timestamp) is dirty too.  ``graph`` must hold
    the appended edges last, as :meth:`TemporalGraph.appended` builds it.
    Returns sorted ``u * T + t`` keys.
    """
    T = int(graph.num_timestamps)
    new_src = np.asarray(new_src, dtype=np.int64)
    new_t = np.asarray(new_t, dtype=np.int64)
    nodes = np.concatenate([new_src, np.asarray(new_dst, dtype=np.int64)])
    times = np.concatenate([new_t, new_t])
    frontier = set()
    for x, te in zip(nodes.tolist(), times.tolist()):
        for s in range(max(te - time_window, 0), min(te + time_window, T - 1) + 1):
            frontier.add((x, s))
    dirty = set(frontier)
    for _ in range(max(int(radius) - 1, 0)):
        next_frontier = set()
        for x, s in frontier:
            partners, event_times = graph.incident_events(int(x))
            preds = np.unique(partners[event_times == s])
            for p in preds.tolist():
                lo, hi = max(s - time_window, 0), min(s + time_window, T - 1)
                for s_p in range(lo, hi + 1):
                    key = (p, s_p)
                    if key not in dirty:
                        dirty.add(key)
                        next_frontier.add(key)
        if not next_frontier:
            break
        frontier = next_frontier
    keys = np.fromiter(
        (x * T + s for x, s in dirty), dtype=np.int64, count=len(dirty)
    )
    # A newly active key leaves its tile's inactive encode group for the
    # active one, changing the composition of both: the whole tile is dirty.
    prior = graph.num_edges - new_src.size
    new_keys = np.unique(new_src * T + new_t)
    newly_active = new_keys[
        ~np.isin(new_keys, graph.src[:prior] * np.int64(T) + graph.t[:prior])
    ]
    tiles = [
        _tile_keys(key % T, key // T // EMBED_TILE, graph.num_nodes, T)
        for key in newly_active.tolist()
    ]
    return np.unique(np.concatenate([keys, *tiles]))
