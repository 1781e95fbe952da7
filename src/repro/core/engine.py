"""Streaming O(E) generation engine (Sec. IV-G without the dense wall).

:class:`GenerationEngine` implements the paper's assembling procedure with a
memory model of O(E + n*C) instead of O(T * n^2):

* active temporal nodes, their out-degree budgets ``d(u, t)`` and distinct
  target counts ``k(u, t)`` come from one vectorised group-by over the edge
  arrays -- no ``(n, T)`` scratch tensors;
* candidate pools are assembled in batch from the graph's cached
  :meth:`~repro.graph.temporal_graph.TemporalGraph.out_partner_groups` CSR
  slices (historical partners + uniform negatives), padded with extra
  distinct negatives whenever a row's pool would under-fill its distinct
  target count;
* edges are sampled *within* the candidate sets (an exponential race over
  the ``(rows, C)`` decoded weights) -- the old scatter into full
  ``(rows, num_nodes)`` rows is gone;
* :meth:`GenerationEngine.score_topk` replaces the dense score matrix with
  sharded sparse ``(row, col, score)`` triples;
* every draw is *row-keyed*: draw ``j`` of stage ``s`` for active temporal
  node ``(u, t)`` is ``counter_hash(counter_hash(word, u, t), s, j)``, with
  one ``word`` per call (from the caller's generator in ``generate``, the
  ``(seed, "tgae", "score-topk")`` stream in ``score_topk``).  A row's
  candidates, draws and edges are therefore a function of the row alone,
  and the centre set is cut into shards (:func:`shard_rows`) only for
  speed: the shards run in a plain sequential loop for ``workers=1``
  or on a process/thread pool (:mod:`repro.core.parallel`), and the output
  is bit-identical for every partition, worker count and backend;
* encoder embeddings are made in one place,
  :meth:`GenerationEngine.warm_rows`, in the calling process: public entry
  points encode every missing key once, in fixed row blocks, hand each
  chunk its rows inside the task, and chunks (in any worker) only decode.
  With the versioned inference cache (:mod:`repro.core.embed_cache`)
  attached, repeat calls against unchanged weights/graph skip the encoder
  entirely -- with outputs bitwise identical to the uncached path.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..autograd import no_grad, softmax
from ..errors import GenerationError
from ..graph.ego_graph import _GOLDEN, _mix64, counter_hash
from ..graph.temporal_graph import TemporalGraph, sorted_unique
# ``spawn_streams`` is no longer called here; the import stays only because
# the e2e benchmark's tracer resolves ``repro.core.engine:spawn_streams``
# (ROADMAP item 4 replaces that tracer and deletes this line).
from ..rng import seed_sequence, spawn_streams  # noqa: F401
from .config import TGAEConfig
from .embed_cache import EmbeddingCache, graph_token, weights_token
from .model import TGAEModel
from .parallel import WorkerPool, check_dispatch, run_sharded
from .sampler import EgoGraphSampler

#: Rejection-sampling rounds before the exact set-difference fallback when
#: padding a deficient candidate row with distinct negatives.
_PAD_ATTEMPTS = 8

#: Scratch elements per generation / score shard (:func:`shard_rows`): a
#: shard holds about this many elements of its widest intermediate, the
#: ``(rows, n)`` race of the dense decoder or the ``(rows, C, hidden)``
#: gathered decoder columns of the streaming one, so a shard's scratch stays
#: a few MiB at any universe size, and a call under one block is one shard
#: that never leaves the caller.  Every draw is keyed by its row, so this
#: is a speed and memory choice only: any partition gives the same bits.
#: Swept over 2^16..2^20 (``draw_blocks`` in ``BENCH_parallel.json``):
#: 2^18 is within noise of the fastest at the CI size and at n=5000, where
#: 2^20 (209-row shards) made warm ``generate`` ~35% slower.  Not
#: configurable.
DRAW_BLOCK_ELEMENTS = 2**18

#: Rows per inference encode block in :meth:`GenerationEngine.warm_rows`.
#: A peak-memory ceiling, not a determinism contract: every encoder product
#: is row-invariant, so any block size yields the same bits.  The encoder
#: runs its per-key stages once per block's distinct keys, so per-row
#: input and time-feature tensors no longer grow with the block.  Swept
#: over 64/128/256 rows on the four e2e workloads (6 alternating pairs
#: each against 64-row blocks of the per-row encoder): 128 rows moved the
#: median ``peak_rss_mb`` by -0.1% to +2.8% and cut cold ``generate``
#: 8-24%; 256 rows raised ``peak_rss_mb`` 5-9% on ``dense``, ``train`` and
#: ``pooled``.  Not configurable.
ENCODE_BLOCK_ROWS = 128

# Stage words of the keyed draws: draw ``j`` of stage ``s`` for a row with
# key ``k`` is ``counter_hash(k, s, j)``.
_NEGATIVES, _HUB, _PAD, _RACE, _REPEAT = range(5)
_SHIFT11 = np.uint64(11)
_SHIFT32 = np.uint64(32)


def row_draw_keys(word, centers: np.ndarray) -> np.ndarray:
    """Per-row draw keys: each centre ``(u, t)`` hashed into one call word.

    ``generate`` draws its word from the caller's generator and
    ``score_topk`` takes it from the ``(seed, "tgae", "score-topk")``
    stream.  A row's draws then depend on ``(word, u, t)`` alone, never on
    which other rows share its shard.
    """
    centers = np.asarray(centers, dtype=np.int64).reshape(-1, 2)
    return counter_hash(word, centers[:, 0], centers[:, 1])


def shard_rows(total: int, width: int) -> List[slice]:
    """Row slices of ``total`` rows cut into shards of about one draw block each.

    ``ceil(total * width / DRAW_BLOCK_ELEMENTS)`` shards (at most one per
    row), the rows split evenly across them: shard sizes differ by at most
    one row, and no shard holds more than one block plus one row of
    ``width``-element scratch.  Work that fits in one block is one shard,
    which :func:`~repro.core.parallel.run_sharded` runs in the caller: a
    dispatch costs more than the decode it would spread (``dispatch_floor``
    in ``BENCH_parallel.json``).
    """
    shards = min(total, -(-total * width // DRAW_BLOCK_ELEMENTS))
    return [slice(i * total // shards, (i + 1) * total // shards) for i in range(shards)]


_SCRATCH = threading.local()


def _scratch(name: str, shape: Tuple[int, int], dtype) -> np.ndarray:
    """A reusable uninitialised ``shape`` array of this thread's ``name`` buffer.

    :func:`race_order` runs once per shard on ``(rows, n)`` arrays of up
    to :data:`DRAW_BLOCK_ELEMENTS` elements.  Allocated fresh, arrays that
    large sit above glibc's dynamic mmap threshold unless an earlier, larger
    free has raised it, and are then mapped and page-faulted on every call.
    Each thread keeps one buffer per name, grown to the largest shard it
    has seen; a shard wider than the block gets a fresh array.  A buffer is
    scratch only: nothing that holds one outlives the call.
    """
    size = shape[0] * shape[1]
    if size > DRAW_BLOCK_ELEMENTS:
        return np.empty(shape, dtype)
    buffer = getattr(_SCRATCH, name, None)
    if buffer is None or buffer.size < size:
        buffer = np.empty(size, dtype)
        setattr(_SCRATCH, name, buffer)
    return buffer[:size].reshape(shape)


def _stage_hashes(
    keys: np.ndarray,
    stage: int,
    count: int,
    out: Optional[np.ndarray] = None,
    scratch: Optional[np.ndarray] = None,
) -> np.ndarray:
    """``(rows, count)`` hashes ``counter_hash(keys[i], stage, j)``.

    Written into ``out`` (uint64) with ``scratch`` for the mix when given.
    """
    h = np.bitwise_xor(
        counter_hash(keys, stage)[:, None], np.arange(count, dtype=np.uint64), out=out
    )
    h += _GOLDEN
    return _mix64(h, scratch)


def _keyed_uniforms(
    keys: np.ndarray,
    stage: int,
    count: int,
    out: Optional[np.ndarray] = None,
    scratch: Optional[np.ndarray] = None,
) -> np.ndarray:
    """``(rows, count)`` float64 uniforms on ``[0, 1)``, draw ``j`` of ``stage`` per row.

    Computed in place: the result is the hash array (``out`` when given)
    reinterpreted as float64.
    """
    h = _stage_hashes(keys, stage, count, out, scratch)
    h >>= _SHIFT11
    uniforms = h.view(np.float64)
    np.multiply(h, 2.0**-53, out=uniforms)
    return uniforms


def _keyed_integers(keys: np.ndarray, stage: int, count: int, high) -> np.ndarray:
    """``(rows, count)`` integers on ``[0, high)`` by multiply-shift (``high < 2**32``)."""
    h = _stage_hashes(keys, stage, count)
    h >>= _SHIFT32
    h *= np.asarray(high, dtype=np.uint64)
    h >>= _SHIFT32
    return h.astype(np.int64)


def _smallest(keys: np.ndarray, k: int) -> np.ndarray:
    """Column indices of each row's ``k`` smallest keys, in ascending key order."""
    if k < keys.shape[1]:
        top = np.argpartition(keys, k - 1, axis=1)[:, :k]
    else:
        top = np.broadcast_to(np.arange(keys.shape[1]), keys.shape)
    within = np.argsort(np.take_along_axis(keys, top, axis=1), axis=1, kind="stable")
    return np.take_along_axis(top, within, axis=1)


def race_order(
    probs: np.ndarray,
    counts: np.ndarray,
    row_keys: np.ndarray,
    forbid: Optional[np.ndarray] = None,
    allowed: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Row-batched sampling without replacement by an exponential race.

    Draws ``counts[i]`` distinct column indices from the categorical
    distribution ``probs[i]`` for every row ``i``: each usable column ``j``
    finishes at ``E_ij / p_ij`` with ``E_ij = -log(1 - U_ij)`` a unit
    exponential, and the ``counts[i]`` first to finish are the draw, in
    finishing order.  That is the law of successive sampling proportional
    to weight without replacement -- the same as Gumbel top-k -- at one log
    per element.  ``U_ij`` is the keyed uniform ``counter_hash(row_keys[i],
    stage, j)``, so a row's draw depends on its key and its own weights
    alone, never on which rows share the call.

    Parameters
    ----------
    probs:
        ``(rows, n)`` non-negative weights; rows need not be normalised
        (the race is invariant to per-row scaling).
    counts:
        ``(rows,)`` number of distinct draws requested per row; clipped to
        the number of columns with positive allowed mass.
    row_keys:
        ``(rows,)`` uint64 draw keys (:func:`row_draw_keys`).
    forbid:
        Optional ``(rows,)`` column index excluded per row (no self-loop
        edges during generation).
    allowed:
        Optional ``(rows, n)`` boolean mask; ``False`` columns are excluded.
        This is how the streaming engine masks duplicate candidate slots
        and self-loops when sampling within candidate sets.

    Returns ``(order, counts)``: the clipped ``counts`` and the padded
    ``(rows, counts.max())`` finishing order, whose row ``i`` holds the
    draw in its first ``counts[i]`` lanes.

    A row whose entire mass sits on forbidden/zero entries falls back to
    uniform sampling over the allowed columns; if no allowed column remains
    at all (e.g. a single-node universe whose only column is forbidden) the
    row yields an empty draw rather than dividing by zero or returning the
    forbidden index.
    """
    p = np.asarray(probs)
    if p.ndim != 2:
        raise GenerationError(f"probs must be 2-D, got shape {p.shape}")
    rows, n = p.shape
    if p.dtype != np.float64:
        weights = _scratch("weights", p.shape, np.float64)
        np.copyto(weights, p)
        p = weights
    usable = np.ones(p.shape, dtype=bool) if allowed is None else np.array(allowed, dtype=bool)
    if forbid is not None:
        usable[np.arange(rows), np.asarray(forbid, dtype=np.int64)] = False
    positive = usable & (p > 0)
    degenerate = ~positive.any(axis=1)
    # Degenerate rows: every usable column races at unit weight (uniform).
    positive[degenerate] = usable[degenerate]
    counts = np.minimum(np.asarray(counts, dtype=np.int64), positive.sum(axis=1)).clip(min=0)
    max_k = int(counts.max()) if counts.size else 0
    if max_k == 0:
        return np.zeros((rows, 0), dtype=np.int64), counts
    race = _keyed_uniforms(
        np.asarray(row_keys, dtype=np.uint64), _RACE, n,
        out=_scratch("hashes", p.shape, np.uint64),
        scratch=_scratch("mix", p.shape, np.uint64),
    )
    np.negative(race, out=race)
    np.log1p(race, out=race)
    np.negative(race, out=race)
    np.divide(race, p, out=race, where=positive & ~degenerate[:, None])
    race[~positive] = np.inf
    return _smallest(race, max_k), counts


def repeat_columns(
    weights: np.ndarray,
    order: np.ndarray,
    counts: np.ndarray,
    extra: np.ndarray,
    row_keys: np.ndarray,
) -> np.ndarray:
    """Multi-edge repeats: ``extra[i]`` draws with replacement from a row's draw.

    Generation's remaining ``d - k`` edge budget repeats a row's distinct
    targets ``order[i, :counts[i]]`` (:func:`race_order`) proportionally to
    their weights, so bursty multi-edge structure survives.  Draw ``j`` of
    row ``i`` is the keyed uniform ``counter_hash(row_keys[i], stage, j)``
    searched (``side="right"``) in the cumulative ``weights[i,
    order[i, :counts[i]]]``, uniform over those columns when they are all
    zero.  Every row's search runs at once: one row-wise cumsum, and a pick
    is the count of cumulative lanes at or below its target.  Returns the
    padded ``(rows, extra.max())`` columns, row ``i`` in its first
    ``extra[i]`` lanes; a row with ``extra[i] > 0`` must have
    ``counts[i] > 0``.
    """
    out = np.zeros((order.shape[0], int(extra.max(initial=0))), dtype=np.int64)
    repeat_rows = np.nonzero(extra)[0]
    if repeat_rows.size == 0:
        return out
    lanes = order[repeat_rows]
    counts = counts[repeat_rows]
    # Sequential float64 sums per row, so a row's first ``counts`` lanes hold
    # the bits of a 1-D cumsum of its draw.  The padding lanes after them
    # sum to at least the row's total, which no target exceeds: a count
    # that reaches them has counted every drawn lane, and the clip below
    # maps it to the last one, as a 1-D search past the end would.
    cum = np.cumsum(weights[repeat_rows[:, None], lanes], axis=1, dtype=np.float64)
    total = cum[np.arange(lanes.shape[0]), counts - 1]
    flat = total <= 0
    cum[flat] = np.arange(1.0, lanes.shape[1] + 1)
    total[flat] = counts[flat]
    targets = _keyed_uniforms(
        np.asarray(row_keys, dtype=np.uint64)[repeat_rows], _REPEAT, out.shape[1]
    )
    targets *= total[:, None]
    picks = np.empty(targets.shape, dtype=np.int64)
    # The ``(rows, extra, lanes)`` comparison holds at most
    # DRAW_BLOCK_ELEMENTS elements at a time (one row if a row is wider).
    step = max(1, DRAW_BLOCK_ELEMENTS // (targets.shape[1] * lanes.shape[1]))
    for start in range(0, lanes.shape[0], step):
        block = slice(start, start + step)
        picks[block] = (cum[block, None, :] <= targets[block, :, None]).sum(axis=2)
    np.minimum(picks, (counts - 1)[:, None], out=picks)
    out[repeat_rows] = np.take_along_axis(lanes, picks, axis=1)
    return out


def distinct_allowed_mask(
    candidates: np.ndarray, forbid_nodes: Optional[np.ndarray] = None
) -> np.ndarray:
    """Boolean mask of the usable slots in per-row candidate sets.

    A slot is usable when it holds the *first* occurrence of its node id in
    the row (duplicate negatives collapse to one slot, so a node can never
    be drawn twice through two slots) and, when ``forbid_nodes`` is given,
    the node differs from the row's centre (no self-loops).
    """
    candidates = np.asarray(candidates, dtype=np.int64)
    order = np.argsort(candidates, axis=1, kind="stable")
    sorted_c = np.take_along_axis(candidates, order, axis=1)
    dup_sorted = np.zeros(candidates.shape, dtype=bool)
    dup_sorted[:, 1:] = sorted_c[:, 1:] == sorted_c[:, :-1]
    dup = np.empty_like(dup_sorted)
    np.put_along_axis(dup, order, dup_sorted, axis=1)
    allowed = ~dup
    if forbid_nodes is not None:
        allowed &= candidates != np.asarray(forbid_nodes, dtype=np.int64)[:, None]
    return allowed


def fold_duplicate_mass(candidates: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Sum each row's duplicate-slot probabilities onto the first occurrence.

    The softmax over a candidate row normalises across *slots*; when uniform
    negatives collide with partners (or each other) the same node holds mass
    in several slots.  This folds that mass onto the node's first slot and
    zeroes the rest -- exactly the semantics of the old scatter-into-full-rows
    path, where ``np.add.at`` summed duplicate contributions -- so each row
    stays a proper distribution over its distinct candidates.
    """
    candidates = np.asarray(candidates, dtype=np.int64)
    rows, width = candidates.shape
    flat = np.asarray(probs, dtype=np.float64).reshape(-1)
    keys = (
        np.arange(rows, dtype=np.int64)[:, None] * np.int64(candidates.max() + 1)
        + candidates
    ).reshape(-1)
    uniq, inverse = np.unique(keys, return_inverse=True)
    sums = np.bincount(inverse, weights=flat)
    first = np.full(uniq.size, flat.size, dtype=np.int64)
    np.minimum.at(first, inverse, np.arange(flat.size))
    folded = np.zeros_like(flat)
    folded[first] = sums
    return folded.reshape(rows, width)


def active_temporal_nodes(
    graph: TemporalGraph,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Active centres with out-degree and distinct-target budgets, in O(E).

    Returns ``(centers, degrees, distinct_counts)`` where ``centers`` is the
    ``(rows, 2)`` array of active ``(u, t)`` pairs sorted ascending (the
    same order the dense ``np.nonzero`` scan used to produce), ``degrees``
    the observed out-degree ``d(u, t)`` and ``distinct_counts`` the number
    of distinct targets ``k(u, t)``.  No ``(n, T)`` scratch array is built:
    one sort of the int64 edge keys ``(u * T + t) * n + v`` and run-length
    counts over it give both.
    """
    if graph.num_edges == 0:
        raise GenerationError("observed graph has no edges to imitate")
    n, T = int(graph.num_nodes), int(graph.num_timestamps)
    if n * T * n - 1 > np.iinfo(np.int64).max:  # the largest edge key
        raise GenerationError(
            f"{n} nodes x {T} timestamps x {n} targets overflow the int64 edge keys"
        )
    edge_keys = np.sort((graph.src * np.int64(T) + graph.t) * np.int64(n) + graph.dst)
    pair_keys = edge_keys // n
    new_pair = np.ones(edge_keys.size + 1, dtype=bool)
    np.not_equal(pair_keys[1:], pair_keys[:-1], out=new_pair[1:-1])
    pair_starts = np.flatnonzero(new_pair)
    new_edge = np.empty(edge_keys.size, dtype=bool)
    new_edge[:1] = True
    np.not_equal(edge_keys[1:], edge_keys[:-1], out=new_edge[1:])
    distinct_counts = np.add.reduceat(new_edge, pair_starts[:-1], dtype=np.int64)
    uniq_keys = pair_keys[pair_starts[:-1]]
    centers = np.stack([uniq_keys // T, uniq_keys % T], axis=1)
    return centers, np.diff(pair_starts), distinct_counts


@dataclass
class TopKScores:
    """Sparse top-k decoded scores: parallel ``(node, timestamp, target, score)``.

    The streaming replacement for the dense ``(n, T, n)`` score matrix:
    entry ``i`` says the decoded edge distribution of centre
    ``(node[i], timestamp[i])`` puts probability ``score[i]`` on target
    ``target[i]``, and only the top ``k`` targets per centre are kept.
    """

    node: np.ndarray
    timestamp: np.ndarray
    target: np.ndarray
    score: np.ndarray

    @property
    def nnz(self) -> int:
        """Number of stored triples."""
        return int(self.node.size)


@dataclass(frozen=True)
class GenerateChunkTask:
    """One shard of the generation fan-out.

    Carries only what a worker cannot derive itself: the shard's centre
    rows with their edge budgets (index arrays, never graph objects), the
    call's draw ``word`` (every row keys its draws by ``(word, u, t)``, see
    :func:`row_draw_keys`), and the centres' encoder ``embeddings`` (rows
    from :meth:`GenerationEngine.warm_rows`; only an empty shard may omit
    them).
    """

    index: int
    centers: np.ndarray
    degrees: np.ndarray
    distinct: np.ndarray
    word: int
    embeddings: Optional[np.ndarray] = None


@dataclass(frozen=True)
class TopKChunkTask:
    """One shard of the :meth:`GenerationEngine.score_topk` fan-out.

    ``centers`` holds the shard's ``(rows, 2)`` centres ``(u, t)``, whose
    timestamps may differ; ``word`` keys the rows' candidate draws and
    ``embeddings`` holds the centres' encoder rows, as in
    :class:`GenerateChunkTask`.
    """

    index: int
    centers: np.ndarray
    k: int
    word: int
    embeddings: Optional[np.ndarray] = None


class GenerationEngine:
    """Streaming Sec. IV-G assembler over a fitted :class:`TGAEModel`.

    Parameters
    ----------
    model:
        The fitted TGAE model (encoder + decoder).
    graph:
        The observed temporal graph whose edge budgets are imitated.
    config:
        The generator's hyper-parameters; ``candidate_limit > 0`` selects
        the streaming sampled-softmax path, ``0`` the exact dense decoder.
    cache:
        Optional :class:`~repro.core.embed_cache.EmbeddingCache` holding
        per-``(u, t)`` encoder embeddings across calls.  ``None`` disables
        persistence: the engine encodes the same keys in the same row
        blocks, once per call -- outputs are bitwise identical either way.
    """

    def __init__(
        self,
        model: TGAEModel,
        graph: TemporalGraph,
        config: TGAEConfig,
        cache: Optional[EmbeddingCache] = None,
    ) -> None:
        self.model = model
        self.graph = graph
        self.config = config
        self.cache = cache
        self._active: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None
        self._graph_token: Optional[str] = None

    def active_nodes(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Cached :func:`active_temporal_nodes` triple for this engine's graph.

        The graph is immutable for an engine's lifetime (appends build a
        new graph and a new engine), so the O(E log E) group-by runs once
        instead of on every ``generate`` call.
        """
        if self._active is None:
            self._active = active_temporal_nodes(self.graph)
        return self._active

    # ------------------------------------------------------------------
    # Inference embeddings (fixed row blocks + versioned cache)
    # ------------------------------------------------------------------
    def warm_rows(self, keys: np.ndarray) -> np.ndarray:
        """Encoder embeddings of universe keys ``u * T + t``, one row per key.

        The one place inference embeddings are made, always in the calling
        process; public entry points call it once and hand every chunk its
        slice, so pooled workers only decode.  Cache hits are copied out;
        the sorted unique misses are sampled and encoded in
        :data:`ENCODE_BLOCK_ROWS`-row blocks of the ego-parallel packed
        layout and, when a cache is attached, stored for later calls.  An
        embedding is a pure function of (weights, graph, config, key): the
        truncation draws are keyed by ``(u, t)`` (see
        :meth:`~repro.core.sampler.EgoGraphSampler.inference_batch`) and
        every encoder product is row-invariant
        (:func:`~repro.autograd.row_matmul`), so a row's bits never depend
        on which other misses shared its block.  That is what lets cache
        hits, cold encodes and cache-off runs agree exactly.  Consumes no
        RNG.
        """
        keys = np.asarray(keys, dtype=np.int64)
        out = np.empty((keys.size, self.config.hidden_dim), dtype=self.config.np_dtype)
        cache = self.cache
        if cache is not None:
            if self._graph_token is None:
                self._graph_token = graph_token(
                    self.graph, self.config, self.model.encoder._external_features
                )
            cache.ensure(weights_token(self.model), self._graph_token)
            need = ~cache.fill(keys, out)
        else:
            need = np.ones(keys.size, dtype=bool)
        if not need.any():
            return out
        T = self.graph.num_timestamps
        sampler = EgoGraphSampler(self.graph, self.config)
        misses = sorted_unique(keys[need])
        encoded = np.empty((misses.size, out.shape[1]), dtype=out.dtype)
        for start in range(0, misses.size, ENCODE_BLOCK_ROWS):
            block = misses[start : start + ENCODE_BLOCK_ROWS]
            batch = sampler.inference_batch(np.stack([block // T, block % T], axis=1))
            rows = encoded[start : start + block.size]
            rows[:] = self.model.encode_inference(batch.tile.packed())
            if cache is not None:
                cache.store(block, rows)
        out[need] = encoded[np.searchsorted(misses, keys[need])]
        return out

    # ------------------------------------------------------------------
    # Candidate assembly (vectorised)
    # ------------------------------------------------------------------
    def candidate_batch(
        self,
        centers: np.ndarray,
        row_keys: np.ndarray,
        min_distinct: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Batched candidate sets: historical partners + uniform negatives.

        One vectorised gather from the graph's cached partner CSR replaces
        the old per-row python loop: every row starts with (up to its
        width) of its centre's distinct historical out-partners and is
        completed with uniform negatives, slot ``j`` of row ``i`` drawing
        ``counter_hash(row_keys[i], stage, j)``.

        Row ``i`` is ``max(candidate_limit, min_distinct[i] + 1)`` slots
        wide (``candidate_limit`` without ``min_distinct``); the array is
        as wide as its widest row, and a narrower row's trailing slots hold
        its own centre, which the usable-slot mask always excludes.  Any row
        whose distinct usable slots still fall short of its requirement is
        padded with extra *distinct* uniform negatives -- the fix for the
        silent under-fill degenerate case where a small pool produced fewer
        targets than observed.  A row's candidates are therefore a function
        of its centre, its key and its own requirement alone.
        """
        return self.candidates_with_mask(centers, row_keys, min_distinct=min_distinct)[0]

    def candidates_with_mask(
        self,
        centers: np.ndarray,
        row_keys: np.ndarray,
        min_distinct: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`candidate_batch` plus its usable-slot mask, computed once.

        Returns ``(candidates, allowed)`` where ``allowed`` is the
        :func:`distinct_allowed_mask` of the final candidate array with the
        centres forbidden -- the mask the sampler needs, produced as a
        by-product of the padding pass instead of being recomputed.
        """
        n = self.graph.num_nodes
        nodes = np.asarray(centers[:, 0], dtype=np.int64)
        row_keys = np.asarray(row_keys, dtype=np.uint64)
        limit = max(self.config.candidate_limit, 1)
        widths = np.full(nodes.size, limit, dtype=np.int64)
        needed: Optional[np.ndarray] = None
        if min_distinct is not None:
            needed = np.minimum(np.asarray(min_distinct, dtype=np.int64), n - 1)
            widths = np.maximum(widths, needed + 1)
        width = int(widths.max(initial=limit))
        cols = np.arange(width)
        offsets, partners = self.graph.out_partner_groups()
        out = _keyed_integers(row_keys, _NEGATIVES, width, n)
        if partners.size:
            pool_counts = offsets[nodes + 1] - offsets[nodes]
            partner_slot = cols < np.minimum(pool_counts, widths)[:, None]
            # Slot j holds pool entry j -- except on hubs with more partners
            # than slots, where an ascending-id prefix would systematically
            # exclude high-id partners: there the pool entries with the
            # row's smallest keyed hashes, in ascending order, form an
            # unbiased without-replacement subsample.
            entry = np.broadcast_to(cols, out.shape).copy()
            over = np.nonzero(pool_counts > widths)[0]
            if over.size:
                max_pool = int(pool_counts[over].max())
                keys = _stage_hashes(row_keys[over], _HUB, max_pool)
                keys[np.arange(max_pool) >= pool_counts[over][:, None]] = np.iinfo(np.uint64).max
                pick = _smallest(keys, min(width, max_pool))
                entry[over, : pick.shape[1]] = pick
            gather = np.where(partner_slot, offsets[nodes][:, None] + entry, 0)
            np.copyto(out, partners[gather], where=partner_slot)
        np.copyto(out, nodes[:, None], where=cols >= widths[:, None])
        allowed = distinct_allowed_mask(out, nodes)
        if needed is not None:
            self._pad_deficient_rows(out, nodes, needed, widths, row_keys, allowed)
        return out, allowed

    def _pad_deficient_rows(
        self,
        candidates: np.ndarray,
        nodes: np.ndarray,
        needed: np.ndarray,
        widths: np.ndarray,
        row_keys: np.ndarray,
        allowed: np.ndarray,
    ) -> None:
        """Top up rows whose distinct usable candidates fall short (in place).

        Unusable slots within the row's width are overwritten with fresh
        node ids not yet present in the row: a few rejection-sampling
        rounds of keyed uniform negatives (``4 * missing`` draws a round),
        then an exact set-difference fallback for tiny universes that takes
        the remaining ids with the smallest keyed hashes.  Row widths
        guarantee enough surplus slots (``width >= needed + 1``).  Both
        ``candidates`` and its ``allowed`` mask are updated in place.
        """
        n = self.graph.num_nodes
        have = allowed.sum(axis=1)
        for row in np.nonzero(have < needed)[0]:
            missing = int(needed[row] - have[row])
            taken = set(candidates[row].tolist())
            taken.add(int(nodes[row]))
            fresh: List[int] = []
            draws = _PAD_ATTEMPTS * 4 * missing
            for value in _keyed_integers(row_keys[row : row + 1], _PAD, draws, n)[0].tolist():
                if value not in taken:
                    taken.add(value)
                    fresh.append(value)
                    if len(fresh) == missing:
                        break
            if len(fresh) < missing:
                remaining = np.setdiff1d(
                    np.arange(n), np.fromiter(taken, dtype=np.int64, count=len(taken))
                )
                # Draw ``draws + v`` of the stage orders the remaining ids.
                order = np.argsort(
                    counter_hash(row_keys[row], _PAD, draws + remaining), kind="stable"
                )
                fresh.extend(remaining[order[: missing - len(fresh)]].tolist())
            slots = np.nonzero(~allowed[row, : widths[row]])[0][: len(fresh)]
            candidates[row, slots] = np.asarray(fresh, dtype=np.int64)
            allowed[row] = distinct_allowed_mask(
                candidates[row : row + 1], nodes[row : row + 1]
            )[0]

    def _decode_width(self) -> int:
        """Scratch elements per decoded row (see :data:`DRAW_BLOCK_ELEMENTS`)."""
        limit = self.config.candidate_limit
        return limit * self.config.hidden_dim if limit else self.graph.num_nodes

    # ------------------------------------------------------------------
    # Generation (Sec. IV-G)
    # ------------------------------------------------------------------
    def generate(
        self,
        rng: np.random.Generator,
        workers: Optional[int] = None,
        backend: Optional[str] = None,
        pool: Optional[WorkerPool] = None,
    ) -> TemporalGraph:
        """Assemble one synthetic graph matching the observed edge budgets.

        Every active temporal node ``(u, t)`` draws its observed number of
        distinct targets without replacement from its decoded distribution;
        the remaining ``d - k`` edge budget repeats those targets
        proportionally to their probabilities so multi-edge (bursty)
        structure survives.  In streaming mode the draw happens inside the
        candidate set -- probabilities are never scattered into full
        ``num_nodes``-wide rows.

        One 64-bit word drawn from ``rng`` keys every draw of the call by
        row (:func:`row_draw_keys`), so the generated graph is a function of
        (weights, graph, config, ``rng``'s state) alone: the shards
        (:func:`shard_rows`), ``workers`` and ``backend`` change wall-clock
        time, never output.  ``workers``/``backend``
        default to the config knobs; ``pool`` dispatches through a
        persistent :class:`~repro.core.parallel.WorkerPool` instead of one
        opened for this call (amortising startup over repeated calls).
        """
        graph = self.graph
        centers_all, degrees, distinct_counts = self.active_nodes()
        workers, backend = check_dispatch(workers, backend, self.config)
        word = rng.integers(np.iinfo(np.uint64).max, dtype=np.uint64, endpoint=True)
        self.model.eval()
        embeddings = self.warm_rows(
            centers_all[:, 0] * np.int64(graph.num_timestamps) + centers_all[:, 1]
        )
        tasks = [
            GenerateChunkTask(
                index=i,
                centers=centers_all[rows],
                degrees=degrees[rows],
                distinct=distinct_counts[rows],
                word=word,
                embeddings=embeddings[rows],
            )
            for i, rows in enumerate(shard_rows(centers_all.shape[0], self._decode_width()))
        ]
        results = run_sharded(
            self, "generate", tasks, workers=workers, backend=backend, pool=pool
        )
        src_out = [src for src, _, _ in results if src.size]
        dst_out = [dst for _, dst, _ in results if dst.size]
        t_out = [t for _, _, t in results if t.size]
        if not src_out:
            raise GenerationError("generation produced no edges")
        return TemporalGraph(
            graph.num_nodes,
            np.concatenate(src_out),
            np.concatenate(dst_out),
            np.concatenate(t_out),
            num_timestamps=graph.num_timestamps,
            validate=False,
        )

    def generate_chunk(
        self, task: GenerateChunkTask
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sample the edges of one centre shard; pure given the task.

        Runs in the parent (``workers=1``), in a worker thread, or in a
        worker process against a rebuilt engine -- identically in all
        three, because its only randomness is keyed by ``(task.word, u, t)``
        and its embeddings ride in the task.  Each row's edges depend on
        that row alone, so any partition of the centres into tasks yields
        the same edges.  Returns ``(src, dst, t)`` arrays (possibly empty:
        an empty centre shard is an explicit no-op).
        """
        empty = np.array([], dtype=np.int64)
        if task.centers.shape[0] == 0:
            return empty, empty, empty
        streaming = self.config.candidate_limit > 0
        part = task.centers
        keys = row_draw_keys(task.word, part)
        with no_grad():
            if streaming:
                cand, allowed = self.candidates_with_mask(
                    part, keys, min_distinct=task.distinct
                )
            else:
                cand = allowed = None
            logits = self.model.decode_from_embeddings(
                task.embeddings, part, candidates=cand
            ).logits.numpy()
        # The race and the repeats need weights only up to a per-row scale,
        # so rows are never normalised: ``exp(logit - max)`` with the max
        # over the row's usable slots.  Duplicate slots of a usable node
        # share its logit; only the centre's own (never usable) slots can
        # exceed the max, and the clip keeps them finite.
        if streaming:
            top = logits.max(axis=1, keepdims=True, where=allowed, initial=-np.inf)
            weights = fold_duplicate_mass(cand, np.exp(np.minimum(logits - top, 0)))
            order, sizes = race_order(weights, task.distinct, keys, allowed=allowed)
        else:
            # In place: the logits are this call's own array.
            weights = np.exp(
                np.subtract(logits, logits.max(axis=1, keepdims=True), out=logits), out=logits
            )
            order, sizes = race_order(weights, task.distinct, keys, forbid=part[:, 0])
        extra = np.where(sizes > 0, np.maximum(task.degrees - sizes, 0), 0)
        if not sizes.any():
            return empty, empty, empty
        repeats = repeat_columns(weights, order, sizes, extra, keys)
        # Row-major over ``[drawn | repeats]``: each row's distinct targets,
        # then its repeats.
        live = np.concatenate(
            [
                np.arange(order.shape[1]) < sizes[:, None],
                np.arange(repeats.shape[1]) < extra[:, None],
            ],
            axis=1,
        )
        rows = np.nonzero(live)[0]
        cols = np.concatenate([order, repeats], axis=1)[live]
        dst = cand[rows, cols] if cand is not None else cols
        return (
            part[rows, 0].astype(np.int64),
            dst.astype(np.int64),
            part[rows, 1].astype(np.int64),
        )

    # ------------------------------------------------------------------
    # Score inspection
    # ------------------------------------------------------------------
    def score_topk(
        self,
        k: int,
        timestamps: Optional[List[int]] = None,
        workers: Optional[int] = None,
        backend: Optional[str] = None,
        pool: Optional[WorkerPool] = None,
    ) -> TopKScores:
        """Sharded top-``k`` decoded scores as sparse triples.

        Cuts the centres ``(u, t)``, timestamp-major, into shards
        (:func:`shard_rows`), decodes each shard once (over
        candidate sets in streaming mode, the full universe otherwise) and
        keeps only the ``k`` highest-probability targets per centre -- peak
        memory is O(block * max(C, n)) while the output is O(n * k)
        triples, never an ``(n, T, n)`` tensor.  Candidate draws are keyed
        by row under one word of the named ``(seed, "tgae", "score-topk")``
        stream, so the triples are bit-identical for every partition,
        worker count and backend.
        """
        if k < 1:
            raise GenerationError(f"k must be >= 1, got {k}")
        graph = self.graph
        stamps = (
            list(timestamps) if timestamps is not None else list(range(graph.num_timestamps))
        )
        outside = [t for t in stamps if not 0 <= t < graph.num_timestamps]
        if outside:
            raise GenerationError(
                f"score_topk timestamps must lie in [0, {graph.num_timestamps}), "
                f"got {outside[0]}"
            )
        workers, backend = check_dispatch(workers, backend, self.config)
        word = seed_sequence(self.config.seed, "tgae", "score-topk").generate_state(
            1, np.uint64
        )[0]
        n, T = graph.num_nodes, graph.num_timestamps
        centers = np.stack(
            [np.tile(np.arange(n), len(stamps)), np.repeat(np.asarray(stamps, dtype=np.int64), n)],
            axis=1,
        )
        self.model.eval()
        embeddings = self.warm_rows(centers[:, 0] * np.int64(T) + centers[:, 1])
        tasks = [
            TopKChunkTask(
                index=i, centers=centers[rows], k=k, word=word, embeddings=embeddings[rows]
            )
            for i, rows in enumerate(shard_rows(centers.shape[0], self._decode_width()))
        ]
        results = run_sharded(
            self, "topk", tasks, workers=workers, backend=backend, pool=pool
        )
        if not results:  # no timestamps asked for
            empty = np.empty(0, dtype=np.int64)
            return TopKScores(empty, empty, empty, np.empty(0, dtype=np.float64))
        return TopKScores(*(np.concatenate(field) for field in zip(*results)))

    def topk_chunk(
        self, task: TopKChunkTask
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Top-``k`` triples for one shard of centres ``(u, t)``.

        Pure given the task (candidate draws keyed by ``(task.word, u,
        t)``); returns ``(nodes, timestamps, targets, scores)`` arrays.
        """
        part = task.centers
        if part.shape[0] == 0:
            empty = np.array([], dtype=np.int64)
            return empty, empty, empty, np.array([], dtype=np.float64)
        streaming = self.config.candidate_limit > 0
        with no_grad():
            cand = (
                self.candidate_batch(part, row_draw_keys(task.word, part))
                if streaming else None
            )
            decoded = self.model.decode_from_embeddings(
                task.embeddings, part, candidates=cand
            )
            probs = softmax(decoded.logits, axis=-1).numpy()
            if streaming:
                # Fold duplicate-slot mass so each target appears once
                # and the row remains a proper distribution.
                probs = fold_duplicate_mass(cand, probs)
        kk = min(task.k, probs.shape[1])
        top = np.argpartition(-probs, kk - 1, axis=1)[:, :kk]
        top_scores = np.take_along_axis(probs, top, axis=1)
        order = np.argsort(-top_scores, axis=1, kind="stable")
        top = np.take_along_axis(top, order, axis=1)
        top_scores = np.take_along_axis(top_scores, order, axis=1)
        columns = (
            np.take_along_axis(cand, top, axis=1) if cand is not None else top
        )
        keep = top_scores > 0
        rows = np.nonzero(keep)[0]
        return part[rows, 0], part[rows, 1], columns[keep], top_scores[keep]
