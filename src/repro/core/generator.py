"""The high-level TGAE generator API (Sec. IV-G behind the common interface).

Fitting trains the TGAE model (Sec. IV-C/D); generation delegates to the
streaming :class:`~repro.core.engine.GenerationEngine`, which re-encodes
every active temporal node ``(u, t)`` from a fresh ego-graph, decodes its
categorical edge distribution, and draws out-edges without replacement until
the generated edge count matches the observed graph -- exactly the
assembling procedure of Sec. IV-G, with O(E + n*C) additional memory (no
dense node x node array is ever materialised outside tests).
"""

from __future__ import annotations

import copy
import dataclasses
from typing import Any, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..base import TemporalGraphGenerator
from ..errors import GenerationError, GraphFormatError, NotFittedError
from ..graph.temporal_graph import TemporalGraph
from ..rng import stream
from .config import TGAEConfig
from .embed_cache import EmbeddingCache, dirty_temporal_nodes, graph_token
from .encoder import check_features
from .engine import GenerationEngine, TopKScores
from .model import TGAEModel
from .parallel import WorkerPool, check_dispatch, pool_for
from .trainer import TrainingHistory, TrainingState, train_tgae

EdgeBatch = Union[TemporalGraph, np.ndarray, Tuple[Sequence[int], Sequence[int], Sequence[int]]]


def _as_edge_arrays(new_edges: EdgeBatch) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Normalise an edge batch to parallel ``(src, dst, t)`` int64 arrays.

    Accepts a :class:`TemporalGraph`, a ``(src, dst, t)`` triple of
    sequences, or a ``(k, 3)`` array of ``src dst t`` rows.
    """
    if isinstance(new_edges, TemporalGraph):
        return new_edges.src, new_edges.dst, new_edges.t
    if isinstance(new_edges, tuple) and len(new_edges) == 3:
        return tuple(np.asarray(col, dtype=np.int64).reshape(-1) for col in new_edges)
    array = np.asarray(new_edges, dtype=np.int64)
    if array.ndim != 2 or array.shape[1] != 3:
        raise GraphFormatError(
            "new_edges must be a TemporalGraph, a (src, dst, t) triple of "
            f"arrays, or a (k, 3) array of rows; got shape {array.shape}"
        )
    return array[:, 0], array[:, 1], array[:, 2]


class TGAEGenerator(TemporalGraphGenerator):
    """The paper's contribution, packaged behind the common generator API.

    Parameters
    ----------
    config:
        TGAE hyper-parameters; variant configs (Sec. IV-F) plug in here.

    Examples
    --------
    >>> from repro.datasets import load_dataset
    >>> from repro.core import TGAEGenerator, fast_config
    >>> observed = load_dataset("DBLP", scale="small")
    >>> generator = TGAEGenerator(fast_config(epochs=2)).fit(observed)
    >>> synthetic = generator.generate(seed=0)
    >>> synthetic.num_edges == observed.num_edges
    True
    """

    name = "TGAE"

    def __init__(self, config: Optional[TGAEConfig] = None) -> None:
        super().__init__()
        self.config = config if config is not None else TGAEConfig()
        self.model: Optional[TGAEModel] = None
        self.history: Optional[TrainingHistory] = None
        #: Resume/warm-start handle of the last training run (cumulative
        #: lineage); ``None`` until fitted, or for generators restored from
        #: weights-only (format-v1) checkpoints.
        self.train_state: Optional[TrainingState] = None
        self._pool: Optional[WorkerPool] = None
        #: Persistent inference plumbing: one engine per (model, graph)
        #: pair, and one embedding cache surviving engine rebuilds so
        #: appends can invalidate incrementally instead of recomputing.
        self._engine: Optional[GenerationEngine] = None
        self._embed_cache: Optional[EmbeddingCache] = None

    def fit(
        self,
        graph: TemporalGraph,
        node_features: Optional[np.ndarray] = None,
        verbose: bool = False,
        track_memory: bool = False,
        checkpoint_every: Optional[int] = None,
        checkpoint_path: Optional[Any] = None,
    ):
        """Fit on a temporal graph, optionally with external node features.

        ``node_features`` may be ``(n, d)`` (static) or ``(T, n, d)``
        (per-snapshot ``X^{(t)}``); when omitted the paper's default
        node-identity features are used.  ``verbose`` prints one line per
        epoch; ``track_memory`` records per-epoch tracemalloc peaks into
        :attr:`history`; ``checkpoint_every``/``checkpoint_path`` autosave
        an atomically-written resume checkpoint every N epochs (see
        :func:`~repro.core.trainer.train_tgae`).
        """
        if node_features is not None:
            node_features = np.asarray(node_features, dtype=self.config.np_dtype)
            check_features(node_features, graph.num_nodes, graph.num_timestamps)
        model = TGAEModel(
            graph.num_nodes, graph.num_timestamps, self.config,
            rng=np.random.default_rng(self.config.seed),
            feature_dim=node_features.shape[-1] if node_features is not None else 0,
        )
        if node_features is not None:
            model.encoder.set_external_features(node_features)
        history = train_tgae(
            model, graph, self.config,
            verbose=verbose,
            track_memory=track_memory,
            pool=self._active_pool(),
            checkpoint_every=checkpoint_every,
            checkpoint_path=checkpoint_path,
        )
        self._commit(graph, model, history)
        return self

    def _commit(
        self, graph: TemporalGraph, model: TGAEModel, history: Optional[TrainingHistory]
    ) -> None:
        """Install a finished run; ``history`` is ``None`` when none trained.

        Called only once training returned, so a ``fit`` or ``update`` that
        raises leaves the generator as it was -- unfitted, or still on its
        previous graph, weights and lineage.
        """
        self._observed = graph
        self.model = model
        if history is not None:
            self.history = history
            self.train_state = history.state
        self._engine = None

    @property
    def _node_features(self) -> Optional[np.ndarray]:
        """The external node features of the fit, held by the encoder."""
        return None if self.model is None else self.model.encoder._external_features

    def _fit(self, graph: TemporalGraph) -> None:
        self.fit(graph)

    # ------------------------------------------------------------------
    # Incremental ingestion (append + warm-start)
    # ------------------------------------------------------------------
    def update(
        self,
        new_edges: Optional[EdgeBatch] = None,
        epochs: Optional[int] = None,
        verbose: bool = False,
        checkpoint_every: Optional[int] = None,
        checkpoint_path: Optional[Any] = None,
    ) -> "TGAEGenerator":
        """Append observed edges and warm-start training from the current state.

        The online-ingestion path: ``new_edges`` (a :class:`TemporalGraph`,
        a ``(src, dst, t)`` triple, or a ``(k, 3)`` row array) are appended
        to the observed graph via :meth:`TemporalGraph.appended` -- the
        node/timestamp universe is fixed (the model's embeddings are sized
        by it), so out-of-universe edges are rejected.  Training then
        continues for ``epochs`` epochs (default ``config.epochs``) from the current
        weights, optimizer moments and RNG position (:attr:`train_state`),
        exactly as if the run had never stopped.  With ``new_edges=None``
        this is a pure resume -- the ``fit --resume`` path.  ``epochs=0``
        is the *ingest-only* refresh: the edges are appended and the
        inference plumbing updated, but no training step runs -- the
        serve-time path for a daemon absorbing observations between
        retrains.

        Generators restored from weights-only (format-v1) checkpoints have
        no :attr:`train_state`; they warm-start the weights but run a cold
        optimizer on a fresh RNG lineage.

        The update is atomic: training runs on a copy of the model, and the
        appended graph, the trained weights, :attr:`history`,
        :attr:`train_state` and the cache invalidation are committed only
        once it returns, so an update that raises leaves the generator as
        it was.  ``epochs=0`` trains nothing and makes no copy.

        The next pooled dispatch after an append publishes a new
        shared-memory graph segment and swaps it under the running workers:
        the pool's graph token covers the edge arrays, so this happens
        exactly once per append, with no executor restart and no worker
        rebuild (the old segment is unlinked).  The inference
        embedding cache is *not* flushed by an append: only the rows within
        the encoder's ego-radius of a new edge
        (:func:`~repro.core.embed_cache.dirty_temporal_nodes`) are dropped,
        and the surviving rows keep serving hits under the post-append
        graph fingerprint.  (Training epochs change the weights, so any
        ``epochs > 0`` update flushes the cache loudly through its weights
        token on the next call.)
        """
        if self.model is None or self._observed is None:
            raise NotFittedError("update() requires a fitted generator")
        observed = self.observed
        if new_edges is not None:
            new_src, new_dst, new_t = _as_edge_arrays(new_edges)
            observed = observed.appended(
                new_src, new_dst, new_t, num_timestamps=observed.num_timestamps
            )
        model, history = self.model, None
        if epochs is None or int(epochs) != 0:
            config = (
                self.config
                if epochs is None
                else dataclasses.replace(self.config, epochs=int(epochs))
            )
            # Train a copy, so that an update that raises steps no weight.
            model = copy.deepcopy(self.model)
            history = train_tgae(
                model, observed, config,
                verbose=verbose,
                pool=self._active_pool(),
                resume_from=self.train_state,
                checkpoint_every=checkpoint_every,
                checkpoint_path=checkpoint_path,
            )
        cache = self._embed_cache
        if new_edges is not None and cache is not None and cache.tokens_set:
            cache.invalidate_rows(
                dirty_temporal_nodes(
                    observed, new_src, new_dst, new_t,
                    radius=self.config.radius,
                    time_window=self.config.time_window,
                ),
                graph=graph_token(
                    observed, self.config, model.encoder._external_features
                ),
            )
        self._commit(observed, model, history)
        return self

    # ------------------------------------------------------------------
    # Persistent worker pool
    # ------------------------------------------------------------------
    def worker_pool(
        self, workers: Optional[int] = None, backend: Optional[str] = None
    ) -> WorkerPool:
        """The generator's persistent worker pool (created lazily).

        Repeated calls return the same open pool as long as the requested
        worker count and backend match, so many-sample workloads
        (significance tests drawing dozens of graphs, ``score_topk``
        sweeps, refits) amortise process startup across calls::

            with generator.worker_pool(workers=4):
                graphs = [generator.generate(seed=s) for s in range(20)]
            # pool processes reaped here

        Outside a ``with`` block, call :meth:`close_pool` (or
        ``pool.close()``) when done; an open pool is also picked up by
        :meth:`generate`, :meth:`score_topk` and :meth:`fit` automatically.
        """
        workers, backend = check_dispatch(workers, backend, self.config)
        pool = self._pool
        # Compare against the *requested* backend: a pool whose process
        # backend degraded to threads stays valid for "process" requests
        # (rebuilding it would just retry the known-broken backend).
        if (
            pool is None
            or pool.closed
            or pool.workers != workers
            or pool.requested_backend != backend
        ):
            if pool is not None and not pool.closed:
                pool.close()
            self._pool = pool = pool_for(self.config, workers, backend)
        return pool

    def close_pool(self) -> None:
        """Shut down the generator's persistent pool, if one is open."""
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    def _active_pool(self, workers: Optional[int] = None) -> Optional[WorkerPool]:
        """The open pool, if compatible with an explicit ``workers`` override."""
        pool = self._pool
        if pool is None or pool.closed:
            return None
        if workers is not None and workers != pool.workers:
            return None
        return pool

    # ------------------------------------------------------------------
    # Generation (Sec. IV-G, streaming)
    # ------------------------------------------------------------------
    def engine(self) -> GenerationEngine:
        """The streaming generation engine over the fitted model.

        Cached per ``(model, graph)`` pair: repeated ``generate`` /
        ``score_topk`` calls reuse one engine (and with it the memoised
        active-centre triple and the warm embedding cache) until a refit
        or an append swaps the underlying graph/model.  When
        ``config.embed_cache`` is on, the engine carries the generator's
        persistent :class:`~repro.core.embed_cache.EmbeddingCache`.
        """
        graph = self.observed  # raises NotFittedError before fit
        if self.model is None:
            raise GenerationError("internal error: model missing after fit")
        if self._engine is None or self._engine.graph is not graph:
            cache = None
            if self.config.embed_cache:
                rows = graph.num_nodes * graph.num_timestamps
                cache = self._embed_cache
                if (
                    cache is None
                    or cache.rows.shape != (rows, self.config.hidden_dim)
                    or cache.rows.dtype != self.config.np_dtype
                ):
                    cache = EmbeddingCache(
                        rows, self.config.hidden_dim, dtype=self.config.np_dtype
                    )
                self._embed_cache = cache
            self._engine = GenerationEngine(
                self.model, graph, self.config, cache=cache
            )
        return self._engine

    def cache_stats(self) -> Optional[dict]:
        """Embedding-cache counters (hits, encodes, flushes, invalidations).

        The health-style report for the inference cache: ``hit_rows`` /
        ``encoded_rows`` / ``encode_calls`` measure encoder work skipped
        vs done, ``flushes`` (+ ``weight_flushes`` / ``graph_flushes``)
        count loud version resets, ``invalidated_rows`` the rows dropped by
        incremental appends.  ``None`` when the cache is disabled or the
        generator has never built an engine.
        """
        cache = self._embed_cache
        return None if cache is None else dict(cache.stats)

    def _generation_rng(self, seed: Optional[int]) -> np.random.Generator:
        """The generation stream: explicit seed, or the named default stream."""
        if seed is not None:
            return np.random.default_rng(seed)
        return stream(self.config.seed, "tgae", "generate")

    def generate(
        self,
        seed: Optional[int] = None,
        workers: Optional[int] = None,
    ) -> TemporalGraph:
        """Sample a synthetic temporal graph mimicking the observed one.

        ``workers`` overrides the config's worker count for this call (see
        :class:`~repro.core.engine.GenerationEngine`); the output is
        bit-identical for every worker count.  An open
        :meth:`worker_pool` is used automatically (unless ``workers``
        explicitly disagrees with its size).
        """
        if self._observed is None:
            raise NotFittedError(f"{type(self).__name__} has not been fitted")
        return self.engine().generate(
            self._generation_rng(seed),
            workers=workers,
            pool=self._active_pool(workers),
        )

    def _generate(self, seed: Optional[int]) -> TemporalGraph:
        return self.engine().generate(self._generation_rng(seed))

    # ------------------------------------------------------------------
    # Score inspection
    # ------------------------------------------------------------------
    def score_topk(
        self,
        k: int,
        timestamps: Optional[List[int]] = None,
        workers: Optional[int] = None,
    ) -> TopKScores:
        """Top-``k`` decoded edge scores as sparse ``(row, col, score)`` triples.

        The scalable replacement for the dense score matrix: sharded
        decoding, O(n * k) output, no ``(n, T, n)`` tensor; ``workers``
        fans the chunks out without changing the triples.  An open
        :meth:`worker_pool` is reused automatically.
        """
        return self.engine().score_topk(
            k, timestamps=timestamps, workers=workers,
            pool=self._active_pool(workers),
        )
