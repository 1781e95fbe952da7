"""Versioned per-``(node, t)`` inference embedding cache.

Encoder embeddings at inference time are pure functions of
``(model weights, observed graph, config)``: the decoder consumes the
posterior mean (``sample=False``, no RNG) and — since the inference
ego-graphs take *counter-keyed* truncation draws whose key hashes
``(u, t)`` into one word of the ``(seed, "tgae", "infer-ego")`` stream
(see :meth:`repro.core.sampler.EgoGraphSampler.inference_batch`) — the
encoder input is too.  This module caches those embeddings across ``generate`` /
``score_topk`` / :meth:`~repro.core.engine.GenerationEngine.warm_rows` calls so
repeat inference against the same fitted model skips the encoder entirely and
becomes decode-only.

Three design rules make every cache hit *bitwise* equal to a cold encode:

* **Row-invariant encodes.**  An embedding is a pure function of
  (weights, graph, config, key): besides the ``(u, t)``-keyed truncation
  draws, every encoder product goes through
  :func:`~repro.autograd.row_matmul`, whose output rows never depend on the
  other rows of the batch.  So the engine encodes whatever keys miss, in
  fixed row blocks of the packed layout
  (:meth:`repro.core.engine.GenerationEngine.warm_rows`), and a key's row
  has the same bits alone, in any block, cached or not.
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
  Exactly those rows are dropped; the clean remainder keeps serving hits
  under the new graph token.

The cache lives in the calling process only.  Pooled inference never reads
it from a worker: :meth:`repro.core.engine.GenerationEngine.warm_rows`
serves and fills it in the caller, and each chunk task carries its rows.
"""

from __future__ import annotations

import hashlib
import threading
from typing import Any, Dict, Optional

import numpy as np

from ..graph.temporal_graph import TemporalGraph, sorted_unique

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
    truncation keys) and any external node features.
    """
    digest = hashlib.sha256()
    digest.update(repr(config).encode())
    digest.update(f"{graph.num_nodes}:{graph.num_timestamps}".encode())
    for arr in (graph.src, graph.dst, graph.t):
        digest.update(np.ascontiguousarray(arr).tobytes())
    if external_features is not None:
        digest.update(np.ascontiguousarray(external_features).tobytes())
    return digest.hexdigest()


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
        #: The bound (weights, graph) token pair; empty until :meth:`ensure`.
        self._weights = ""
        self._graph = ""
        self.stats: Dict[str, int] = {key: 0 for key in _STAT_KEYS}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Versioning
    # ------------------------------------------------------------------
    @property
    def tokens_set(self) -> bool:
        """Whether the cache has ever been bound to a (weights, graph) pair."""
        return bool(self._weights)

    def ensure(self, weights: str, graph: str) -> bool:
        """Bind the cache to a token pair, after which its rows may be served.

        A cache that holds a *different* pair is loudly flushed (every row
        invalidated, ``flushes`` plus the per-reason counter bumped) and
        rebound.  Always returns ``True``.
        """
        with self._lock:
            if (self._weights, self._graph) == (weights, graph):
                return True
            if self.tokens_set:
                self.stats["flushes"] += 1
                self.stats["weight_flushes"] += int(self._weights != weights)
                self.stats["graph_flushes"] += int(self._graph != graph)
                self.valid[:] = False
            self._weights, self._graph = weights, graph
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
                self._graph = graph
        return dropped

    # ------------------------------------------------------------------
    # Storage
    # ------------------------------------------------------------------
    def share_arrays(self) -> Dict[str, np.ndarray]:
        """The arrays the cache's rows live in: the rows and their valid mask.

        Their total ``nbytes`` is the cache's memory footprint.
        """
        return {"rows": self.rows, "valid": self.valid}


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
    edits never un-reach a query point).  Encodes are row-invariant, so no
    other row is affected.  Each level is array-level: one ``searchsorted``
    of the frontier's keys on the incidence CSR's ``(node, time)`` keys,
    then window expansion of the partners found.  Returns sorted
    ``u * T + t`` keys.
    """
    T = int(graph.num_timestamps)
    offsets = np.arange(-int(time_window), int(time_window) + 1)

    def windows(nodes: np.ndarray, times: np.ndarray) -> np.ndarray:
        """Sorted unique keys ``(x, s)`` with ``|s - t| <= time_window``."""
        s = times[:, None] + offsets
        inside = (s >= 0) & (s < T)
        return sorted_unique((nodes[:, None] * T + s)[inside])

    new_t = np.asarray(new_t, dtype=np.int64)
    nodes = np.concatenate(
        [np.asarray(new_src, dtype=np.int64), np.asarray(new_dst, dtype=np.int64)]
    )
    frontier = dirty = windows(nodes, np.concatenate([new_t, new_t]))
    inc = graph.incidence
    for _ in range(max(int(radius) - 1, 0)):
        # The events of frontier node x at exactly time s are one slice of
        # the (node, time)-sorted incidence keys, which encode as x * T + s.
        lo = inc["keys"].searchsorted(frontier)
        count = inc["keys"].searchsorted(frontier, side="right") - lo
        slot = np.arange(frontier.size).repeat(count)
        events = lo[slot] + np.arange(slot.size) - (count.cumsum() - count)[slot]
        reached = windows(inc["other"][events], frontier[slot] % T)
        seen = dirty.searchsorted(reached)
        seen[seen == dirty.size] = 0
        frontier = reached[dirty[seen] != reached]
        if not frontier.size:
            break
        dirty = np.sort(np.concatenate([dirty, frontier]))
    return dirty
