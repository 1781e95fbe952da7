"""Sharded parallel execution of generation and training chunk tasks.

The streaming :class:`~repro.core.engine.GenerationEngine` and the
data-parallel trainer (:mod:`repro.core.trainer`) both split their work into
independent units -- a decode-and-assemble pass per chunk of centre temporal
nodes, or one forward + backward per training shard -- where every unit owns
a spawned :class:`~numpy.random.SeedSequence` child (see :mod:`repro.rng`),
touches only its own centre rows, and returns plain arrays.  Inference chunks
carry their encoder embeddings in the task (the caller makes them once, in
:meth:`~repro.core.engine.GenerationEngine.warm_rows`), so workers only
decode.  This module fans the units out:

* ``workers=1`` runs the chunks as a plain in-process loop over the live
  engine -- the reference sequential path.
* Everything else goes through one dispatch entry, :meth:`WorkerPool.run`:
  on the caller's persistent pool, or on an ephemeral pool built from the
  engine's config for the one call.
* ``backend="process"`` (default) runs chunks in worker *processes* -- the
  right choice for the CPU-bound NumPy passes, which the GIL would
  serialise under threads.  Each worker rebuilds the model/graph once from
  a payload shipped through the pool initializer; per-task messages carry
  index arrays, a seed-sequence child and (inference) the chunk's
  embedding rows.
* ``backend="thread"`` shares the live engine across a thread pool -- the
  fallback for environments where process pools are unavailable (no POSIX
  semaphores, restricted sandboxes); the process backend degrades to it
  automatically.  *Training* shards run backward passes, which accumulate
  into parameter gradients, so the thread backend gives each worker thread
  its own model replica instead of the shared live model.

Because chunk streams are spawned from one root before any dispatch and
results are merged in chunk order, every execution mode is
**bit-identical**: worker count and backend change wall-clock time, never
output.

:class:`WorkerPool` makes the executor *persistent*: one pool outlives many
``fit()`` / ``generate()`` / ``score_topk()`` calls and every epoch of a
training run, so many-sample workloads (significance tests, top-k sweeps,
multi-epoch training) pay process startup and graph shipping once instead
of per call.

Shared-memory dispatch
----------------------

On the process backend a pool additionally publishes everything large --
the model parameters and the graph's edge/CSR arrays -- into
:mod:`multiprocessing.shared_memory` segments (:class:`SharedArrayStore`:
one writer, N readers).  Workers attach the segments once, by name, through
a ~5 KB :class:`ShmWorkerPayload` of handles; after that, per-epoch and
per-generate dispatch is **O(1) in model size**: a refreshed model (a new
epoch, a refit) is shipped by overwriting the parameter segment *in place*
and bumping a version counter -- no re-pickle, no executor rebuild.  The
graph/config/shape *structure* token decides when workers must be rebuilt,
while weight-only changes ride the in-place update path, so one pool serves
``fit`` -> ``generate`` -> ``score_topk`` on one executor.  The pool owns
the segments and unlinks them on :meth:`WorkerPool.close` (and on degrade,
worker crash, or interpreter exit); teardown is idempotent and safe to run
from ``atexit``.  ``shm_dispatch=False`` (or
``TGAEConfig(shm_dispatch=False)``) restores the plain pickled-payload
dispatch.

Fault tolerance
---------------

Every shard is a pure function of (task, seed-sequence child, weights), so
recovery never risks the bit-identity contract.  Within a rung a pool
retries transient shard failures (bounded, exponential backoff),
re-dispatches stragglers that exceed ``shard_timeout``, and rebuilds a
process executor whose worker crashed (the parent-owned segments survive).
When a rung is exhausted the pool steps down the degradation ladder
``shm -> pickle -> thread -> sequential`` -- permanently and loudly, one
:class:`~repro.errors.DegradeWarning` per step -- with counters exposed on
:attr:`WorkerPool.health`.  All of it is provoked deterministically in tests
through :mod:`repro.faults`.
"""

from __future__ import annotations

import atexit
import itertools
import multiprocessing
import os
import pickle
import queue
import threading
import time
import warnings
import weakref
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .. import faults
from ..errors import ConfigError, DegradeWarning, PoolError
from ..graph.temporal_graph import TemporalGraph
from .config import TGAEConfig
from .embed_cache import graph_token, weights_token

__all__ = [
    "BACKENDS",
    "LADDER",
    "SharedArrayStore",
    "ShmArraySpec",
    "ShmHandle",
    "ShmWorkerPayload",
    "WorkerPayload",
    "WorkerPool",
    "attach_shared_arrays",
    "payload_from_engine",
    "run_sharded",
    "shared_memory_supported",
]

#: Supported executor backends, in order of preference.
BACKENDS = ("process", "thread")

#: Pool-infrastructure failures that trigger the loud degradation ladder.
_POOL_FAILURES = (OSError, BrokenProcessPool, pickle.PicklingError)

#: Shard-level errors worth a bounded in-rung retry before degrading.
#: Deliberately narrower than ``_POOL_FAILURES``: a ``BrokenProcessPool``
#: needs an executor rebuild, not a plain resubmit.
_RETRYABLE_TASK_ERRORS = (OSError, pickle.PicklingError)

#: Byte alignment of arrays inside a shared segment (cache-line friendly).
_SHM_ALIGN = 64

#: The degradation ladder, fastest rung first.  A persistent pool starts on
#: the highest rung its configuration allows and only ever moves down.
LADDER = ("shm", "pickle", "thread", "sequential")


class _RungExhausted(Exception):
    """Internal: one shard burned through ``max_shard_retries`` on a rung.

    Carries the final underlying error so :meth:`WorkerPool.run` can report
    it in the :class:`~repro.errors.DegradeWarning` for the next rung down.
    Never escapes :class:`WorkerPool`.
    """

    def __init__(self, shard: Optional[int], cause: BaseException) -> None:
        super().__init__(str(cause))
        self.shard = shard
        self.cause = cause


#: What the ladder in :meth:`WorkerPool.run` catches before stepping down.
_RUNG_FAILURES = (_RungExhausted,) + _POOL_FAILURES


@dataclass(frozen=True)
class WorkerPayload:
    """Everything a worker process needs, reduced to plain picklable data.

    Shipped once per worker through the pool initializer (cheap under
    ``fork``, a single pickle under ``spawn``); the worker rebuilds the
    model from its ``state_dict`` and the graph from its edge arrays, the
    same way :func:`repro.core.persistence.load_generator` does.  This is
    the non-shared-memory dispatch format; see :class:`ShmWorkerPayload`
    for the O(1)-in-model-size variant.
    """

    state: Dict[str, np.ndarray]
    config: TGAEConfig
    num_nodes: int
    num_timestamps: int
    src: np.ndarray
    dst: np.ndarray
    t: np.ndarray
    external_features: Optional[np.ndarray]


def payload_from_engine(engine: Any) -> WorkerPayload:
    """Flatten a live :class:`~repro.core.engine.GenerationEngine` into arrays."""
    graph = engine.graph
    return WorkerPayload(
        state=engine.model.state_dict(),
        config=engine.config,
        num_nodes=graph.num_nodes,
        num_timestamps=graph.num_timestamps,
        src=graph.src,
        dst=graph.dst,
        t=graph.t,
        external_features=engine.model.encoder._external_features,
    )


# ----------------------------------------------------------------------
# Shared-memory array store (one writer, N readers)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ShmArraySpec:
    """Location of one named array inside a shared segment."""

    key: str
    dtype: str
    shape: Tuple[int, ...]
    offset: int


@dataclass(frozen=True)
class ShmHandle:
    """A picklable reference to a shared segment and the arrays it holds.

    A handle is a few hundred bytes regardless of how many megabytes the
    arrays weigh -- this is what makes shm dispatch O(1) in model size.
    Readers turn it back into arrays with :func:`attach_shared_arrays`.
    """

    segment: str
    nbytes: int
    specs: Tuple[ShmArraySpec, ...]


class SharedArrayStore:
    """A writer-owned ``multiprocessing.shared_memory`` segment of named arrays.

    The creating process is the single writer: it lays the arrays out
    contiguously (64-byte aligned) in one segment at construction and may
    later overwrite them in place with :meth:`update` (same keys, shapes
    and dtypes -- the in-place path is how a training run re-publishes its
    weights every epoch without re-shipping anything).  Reader processes
    attach by name through the store's :attr:`handle` and get zero-copy
    read-only NumPy views.

    Only the creating process ever unlinks the segment (:meth:`close` is a
    no-op on the unlink step in forked children), closing is idempotent,
    and every teardown error is swallowed so interpreter-shutdown ordering
    can never raise ``BufferError`` out of an ``atexit`` hook.
    """

    __slots__ = ("handle", "_shm", "_spec_by_key", "_owner_pid")

    def __init__(self, arrays: Mapping[str, np.ndarray]) -> None:
        from multiprocessing import shared_memory

        # Assigned before anything that can fail: close() / __del__ on a
        # half-constructed store must be a clean no-op, not an AttributeError.
        self._shm: Optional[Any] = None
        self._owner_pid = os.getpid()
        faults.check("shm-create")
        specs: List[ShmArraySpec] = []
        contiguous: Dict[str, np.ndarray] = {}
        offset = 0
        for key, arr in arrays.items():
            arr = np.ascontiguousarray(arr)
            contiguous[key] = arr
            offset = ((offset + _SHM_ALIGN - 1) // _SHM_ALIGN) * _SHM_ALIGN
            specs.append(ShmArraySpec(key, arr.dtype.str, tuple(arr.shape), offset))
            offset += arr.nbytes
        size = max(offset, 1)
        self._shm = shared_memory.SharedMemory(create=True, size=size)
        self.handle = ShmHandle(self._shm.name, size, tuple(specs))
        self._spec_by_key = {spec.key: spec for spec in specs}
        for key, arr in contiguous.items():
            self._write(self._spec_by_key[key], arr)

    def _write(self, spec: ShmArraySpec, arr: np.ndarray) -> None:
        """Copy ``arr`` into its slot; the view is transient so close() stays safe."""
        if self._shm is None:
            raise RuntimeError("shared array store is closed")
        view = np.ndarray(
            spec.shape, dtype=np.dtype(spec.dtype), buffer=self._shm.buf, offset=spec.offset
        )
        view[...] = arr
        del view

    def update(self, arrays: Mapping[str, np.ndarray]) -> None:
        """Overwrite stored arrays in place (single-writer refresh path).

        Keys must already exist with matching shape and dtype -- a shape
        change is a *structure* change and requires a fresh store (and
        fresh workers).
        """
        for key, arr in arrays.items():
            spec = self._spec_by_key.get(key)
            if spec is None:
                raise KeyError(f"array {key!r} is not part of this store")
            arr = np.ascontiguousarray(arr)
            if tuple(arr.shape) != spec.shape or arr.dtype.str != spec.dtype:
                raise ValueError(
                    f"array {key!r} changed layout: {arr.dtype.str}{arr.shape} != "
                    f"stored {spec.dtype}{spec.shape}"
                )
            self._write(spec, arr)

    @property
    def closed(self) -> bool:
        """Whether the segment has been released by this process."""
        return self._shm is None

    def close(self) -> None:
        """Release (and, in the owning process, unlink) the segment.

        Idempotent and exception-free by design: it runs from ``atexit``
        hooks, ``finally`` blocks and worker-crash cleanup, where a raising
        teardown would mask the original error or spam interpreter
        shutdown.  A forked child closes its mapping but never unlinks the
        owner's segment.
        """
        shm = getattr(self, "_shm", None)
        if shm is None:
            return
        self._shm = None
        try:
            shm.close()
        except Exception:
            pass
        if os.getpid() != getattr(self, "_owner_pid", -1):
            return
        try:
            shm.unlink()
        except Exception:
            pass

    def __del__(self) -> None:
        # ``__del__`` can run on a store whose __init__ raised, and runs
        # again after an explicit close(); both must stay silent no-ops.
        try:
            self.close()
        except Exception:
            pass


def attach_shared_arrays(handle: ShmHandle) -> Tuple[Any, Dict[str, np.ndarray]]:
    """Attach a reader to a published segment; returns ``(shm, views)``.

    The views are zero-copy and read-only (workers must never write shared
    state); the returned ``SharedMemory`` object must be kept alive as long
    as the views are used.  Readers close but never unlink.
    """
    from multiprocessing import shared_memory

    faults.check("shm-attach")
    shm = shared_memory.SharedMemory(name=handle.segment)
    views: Dict[str, np.ndarray] = {}
    for spec in handle.specs:
        view = np.ndarray(
            spec.shape, dtype=np.dtype(spec.dtype), buffer=shm.buf, offset=spec.offset
        )
        view.flags.writeable = False
        views[spec.key] = view
    return shm, views


_SHM_SUPPORTED: Optional[bool] = None


def shared_memory_supported() -> bool:
    """Whether this platform can create POSIX shared-memory segments.

    Probed once per process with a 1-byte segment; a platform that cannot
    (no ``/dev/shm``, sandboxed runtime) silently falls back to the plain
    pickled-payload dispatch.
    """
    global _SHM_SUPPORTED
    if _SHM_SUPPORTED is None:
        try:
            from multiprocessing import shared_memory

            probe = shared_memory.SharedMemory(create=True, size=1)
            probe.close()
            probe.unlink()
            _SHM_SUPPORTED = True
        except Exception:
            _SHM_SUPPORTED = False
    return _SHM_SUPPORTED


@dataclass(frozen=True)
class ShmWorkerPayload:
    """The O(1)-in-model-size worker payload: segment handles, not arrays.

    Shipped once per worker through the pool initializer.  The worker
    attaches the ``graph`` and ``params`` segments by name and rebuilds its
    engine from zero-copy views; afterwards the weights travel as a
    parameter *version* in each task message -- when it advances, the
    worker reloads weights from the (in-place updated) parameter segment.
    """

    config: TGAEConfig
    num_nodes: int
    num_timestamps: int
    feature_dim: int
    graph: ShmHandle
    params: ShmHandle
    version: int


def _shm_graph_arrays(engine: Any) -> Dict[str, np.ndarray]:
    """The graph-side arrays a worker needs: edges, partner CSR, features."""
    graph = engine.graph
    offsets, partners = graph.out_partner_groups()
    arrays = {
        "src": graph.src,
        "dst": graph.dst,
        "t": graph.t,
        "partner_offsets": offsets,
        "partners": partners,
    }
    external = engine.model.encoder._external_features
    if external is not None:
        arrays["external_features"] = external
    return arrays


def _shm_param_arrays(engine: Any) -> Dict[str, np.ndarray]:
    """Current model parameters in deterministic (sorted-name) order."""
    return {name: param.data for name, param in sorted(engine.model.named_parameters())}


def _engine_token(engine: Any, include_state: bool) -> str:
    """Fingerprint of an engine, deciding when shipped workers are stale.

    Generation tasks read the worker's resident weights, so their token
    covers the state arrays; training shards carry the current weights in
    every task message, so their token covers only the graph/config/shape
    structure -- which is what lets one process pool survive a whole
    training run even though the weights change every epoch.  Reads the
    live arrays in place (no ``state_dict`` copy).

    Both flavours hash the graph's edge arrays, so appending observed
    edges (:meth:`TGAEGenerator.update`) changes the token and the next
    pooled dispatch republishes the shared-memory graph segment -- exactly
    once, after which the new token is cached like any other.
    """
    token = graph_token(engine.graph, engine.config, engine.model.encoder._external_features)
    if include_state:
        return "state:" + token + weights_token(engine.model)
    shapes = [(name, p.data.shape) for name, p in sorted(engine.model.named_parameters())]
    return "structure:" + token + repr(shapes)


def _build_engine(payload: WorkerPayload, graph: Optional[TemporalGraph] = None) -> Any:
    """Rebuild a generation engine (model + graph) from plain arrays.

    ``graph`` short-circuits the graph rebuild for same-process replicas
    (thread-backend training), which can safely share the live read-only
    graph and its caches.
    """
    from .engine import GenerationEngine
    from .model import TGAEModel

    if graph is None:
        graph = TemporalGraph(
            payload.num_nodes,
            payload.src,
            payload.dst,
            payload.t,
            num_timestamps=payload.num_timestamps,
            validate=False,
        )
    feature_dim = (
        payload.external_features.shape[-1]
        if payload.external_features is not None
        else 0
    )
    model = TGAEModel(
        payload.num_nodes, payload.num_timestamps, payload.config,
        feature_dim=feature_dim,
    )
    model.load_state_dict(payload.state)
    if payload.external_features is not None:
        model.encoder.set_external_features(payload.external_features)
    model.eval()
    return GenerationEngine(model, graph, payload.config)


#: Per-process engine rebuilt by :func:`_init_worker`; ``None`` in the parent.
_WORKER_ENGINE: Optional[Any] = None
#: Attached shared segments (kept alive for the views' lifetime) + param views.
_WORKER_SHM: List[Any] = []
_WORKER_PARAM_VIEWS: Optional[Dict[str, np.ndarray]] = None
_WORKER_PARAM_VERSION: Optional[int] = None


def _init_worker(payload: WorkerPayload) -> None:
    """Pool initializer: rebuild the engine once per worker process."""
    global _WORKER_ENGINE
    _WORKER_ENGINE = _build_engine(payload)


def _release_worker_attachments() -> None:
    """Worker ``atexit``: drop engine + views, then close shm mappings quietly."""
    global _WORKER_ENGINE, _WORKER_PARAM_VIEWS
    _WORKER_ENGINE = None
    _WORKER_PARAM_VIEWS = None
    import gc

    gc.collect()
    while _WORKER_SHM:
        shm = _WORKER_SHM.pop()
        try:
            shm.close()
        except Exception:
            pass


def _init_worker_shm(payload: ShmWorkerPayload) -> None:
    """Pool initializer for shm dispatch: attach segments, rebuild the engine.

    The graph's edge and partner-CSR arrays stay zero-copy views into the
    shared segment for the worker's whole life; the model weights are
    *copied* out of the parameter segment (``load_state_dict`` copies), so
    the parent can overwrite that segment between runs without racing
    in-flight forwards.
    """
    global _WORKER_ENGINE, _WORKER_PARAM_VIEWS, _WORKER_PARAM_VERSION
    from .engine import GenerationEngine
    from .model import TGAEModel

    graph_shm, graph_views = attach_shared_arrays(payload.graph)
    param_shm, param_views = attach_shared_arrays(payload.params)
    if not _WORKER_SHM:
        atexit.register(_release_worker_attachments)
    _WORKER_SHM[:] = [graph_shm, param_shm]
    graph = TemporalGraph(
        payload.num_nodes,
        graph_views["src"],
        graph_views["dst"],
        graph_views["t"],
        num_timestamps=payload.num_timestamps,
        validate=False,
    )
    # Hand the prebuilt partner CSR straight to the graph cache: workers
    # never redo the O(E log E) group-by the parent already did.
    graph._partner_groups = (
        graph_views["partner_offsets"], graph_views["partners"]
    )
    model = TGAEModel(
        payload.num_nodes, payload.num_timestamps, payload.config,
        feature_dim=payload.feature_dim,
    )
    model.load_state_dict(dict(param_views))
    if "external_features" in graph_views:
        model.encoder.set_external_features(graph_views["external_features"])
    model.eval()
    _WORKER_ENGINE = GenerationEngine(model, graph, payload.config)
    _WORKER_PARAM_VIEWS = param_views
    _WORKER_PARAM_VERSION = payload.version


def _run_on(engine: Any, kind: str, task: Any) -> Any:
    """Execute one chunk task against an engine instance."""
    if engine is None:
        raise RuntimeError("worker engine was not initialised")
    if kind == "generate":
        return engine.generate_chunk(task)
    if kind == "topk":
        return engine.topk_chunk(task)
    if kind == "train":
        from .trainer import run_train_shard

        return run_train_shard(engine, task)
    raise ValueError(f"unknown sharded task kind {kind!r}")


def _shard_index(task: Any) -> Optional[int]:
    """The shard index a task carries, for fault-rule matching."""
    return getattr(task, "index", None)


def _run_remote(kind: str, task: Any, attempt: int = 0) -> Any:
    """Module-level trampoline executed inside pool worker processes."""
    faults.check("shard", index=_shard_index(task), attempt=attempt)
    return _run_on(_WORKER_ENGINE, kind, task)


def _run_remote_shm(kind: str, version: int, task: Any, attempt: int = 0) -> Any:
    """Shm-dispatch trampoline: refresh weights from the segment when stale.

    ``version`` advances whenever the parent rewrote the parameter segment;
    a worker reloads at most once per version, so an epoch of S shards
    costs one weight copy per worker, not per shard.
    """
    global _WORKER_PARAM_VERSION
    faults.check("shard", index=_shard_index(task), attempt=attempt)
    engine = _WORKER_ENGINE
    if engine is None:
        raise RuntimeError("worker engine was not initialised")
    if version != _WORKER_PARAM_VERSION:
        if _WORKER_PARAM_VIEWS is None:
            raise RuntimeError("worker has no attached parameter segment")
        engine.model.load_state_dict(dict(_WORKER_PARAM_VIEWS))
        _WORKER_PARAM_VERSION = version
    return _run_on(engine, kind, task)


def _checked(execute: Callable[[Any], Any], task: Any, attempt: int) -> Any:
    """Thread/sequential-rung shard wrapper: fault check, then execution."""
    faults.check("shard", index=_shard_index(task), attempt=attempt)
    return execute(task)


def _prewarm_graph(graph: TemporalGraph) -> None:
    """Build the shared lazy graph caches before thread fan-out.

    Worker threads then only ever read them: the partner CSR (candidate
    assembly), the incidence structure (ego sampling) and the snapshot time
    order.
    """
    if graph.num_edges:
        graph.out_partner_groups()
        graph.incidence
        graph._snapshot_order_bounds()


def _build_train_replicas(engine: Any, count: int) -> List[Any]:
    """Per-thread model replicas for training shards.

    Backward passes accumulate into parameter gradients, so concurrent
    shards must not share one model.  Replicas share the live (read-only)
    graph; each run checks replicas out of a queue and returns them.
    """
    payload = payload_from_engine(engine)
    return [_build_engine(payload, graph=engine.graph) for _ in range(count)]


def _process_context() -> multiprocessing.context.BaseContext:
    # fork skips model re-pickling and re-import; fall back to the platform
    # default (spawn on macOS/Windows) where fork is unavailable.
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else None)


def _pickled_bytes(obj: Any) -> int:
    """Size of ``obj`` on the dispatch wire (for the benchmark gates)."""
    return len(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))


class WorkerPool:
    """A persistent, reusable worker pool for sharded chunk tasks.

    One pool amortises process startup and graph shipping over many
    ``run()`` calls: repeated ``generate()`` draws (significance tests),
    ``score_topk`` sweeps, and every epoch of a training run reuse the same
    worker processes.  On the process backend the pool publishes the model
    parameters and the graph's CSR arrays into shared-memory segments
    (:class:`SharedArrayStore`, enabled by ``shm_dispatch=True`` where the
    platform supports it): workers attach once, per-task messages carry
    index arrays, a parameter version and (inference) the chunk's
    embedding rows, and weight changes (every training epoch, every refit)
    are an in-place segment rewrite -- O(1) dispatch in model size.
    Without shm the pool re-ships a pickled payload whenever the
    fingerprint of what workers need actually changes; either way, for
    training shards -- whose fingerprint ignores weight values -- one pool
    survives a whole optimisation run.

    Usage is either explicit::

        with WorkerPool(workers=4) as pool:
            graph_a = engine.generate(rng_a, pool=pool)
            graph_b = engine.generate(rng_b, pool=pool)

    or through the owning objects: :meth:`repro.core.TGAEGenerator.worker_pool`
    and ``train_tgae(..., workers=N)`` manage a pool for you, and
    :func:`run_sharded` opens one for a single call when none is given.  When a rung
    of the dispatch ladder cannot run (no POSIX semaphores, crashed and
    unrebuildable workers, restricted sandbox) the pool steps down
    ``shm -> pickle -> thread -> sequential`` -- loudly, one
    :class:`~repro.errors.DegradeWarning` per step (``backend`` then
    reports the effective backend, ``requested_backend`` the original,
    :attr:`rung` the active rung); results are bit-identical on every rung,
    and any shared segments are unlinked at the moment of degradation.
    Transient per-shard failures are retried in place (``max_shard_retries``,
    exponential backoff) and stragglers re-dispatched (``shard_timeout``)
    before any degrade; :attr:`health` reports the counters.  Concurrent
    ``run()`` calls from different threads serialise on the pool's internal
    lock.
    """

    _ids = itertools.count()

    def __init__(
        self,
        workers: int,
        backend: str = "process",
        shm_dispatch: bool = True,
        track_dispatch: bool = False,
        max_shard_retries: int = 2,
        shard_timeout: Optional[float] = None,
        retry_backoff: float = 0.05,
    ) -> None:
        #: Assigned before any validation so close()/__del__ on a pool whose
        #: __init__ raised stays a clean no-op.
        self.closed = True
        if workers < 1:
            raise ConfigError(f"workers must be >= 1, got {workers}")
        if backend not in BACKENDS:
            raise ConfigError(
                f"parallel backend must be one of {BACKENDS}, got {backend!r}"
            )
        if max_shard_retries < 0:
            raise ConfigError(
                f"max_shard_retries must be >= 0, got {max_shard_retries}"
            )
        if shard_timeout is not None and shard_timeout <= 0:
            raise ConfigError(
                f"shard_timeout must be positive (or None), got {shard_timeout}"
            )
        if retry_backoff < 0:
            raise ConfigError(f"retry_backoff must be >= 0, got {retry_backoff}")
        self.workers = workers
        self.max_shard_retries = int(max_shard_retries)
        self.shard_timeout = shard_timeout
        self.retry_backoff = float(retry_backoff)
        self.backend = backend
        self.requested_backend = backend
        self.shm_dispatch = bool(shm_dispatch)
        self.track_dispatch = bool(track_dispatch)
        self.pool_id = f"workerpool-{next(WorkerPool._ids)}"
        self.runs = 0
        self.closed = False
        #: Dispatch accounting (populated when ``track_dispatch=True``):
        #: pickled bytes of task messages / one-time payloads, and counts of
        #: payload publishes and in-place parameter updates.
        self.dispatch_stats: Dict[str, int] = {
            "task_bytes": 0,
            "payload_bytes": 0,
            "payload_publishes": 0,
            "param_updates": 0,
        }
        #: Robustness counters surfaced through :attr:`health`.
        self._health: Dict[str, Any] = {
            "retries": 0,
            "timeouts": 0,
            "redispatches": 0,
            "worker_crashes": 0,
            "stragglers_verified": 0,
            "degrades": [],
        }
        #: Final ladder rung: no executor at all, shards run in-process.
        self._sequential = False
        self._owner_pid = os.getpid()
        self._executor: Optional[ProcessPoolExecutor] = None
        #: ``(initializer, payload)`` behind the live process executor, kept
        #: so a broken executor can be rebuilt against surviving segments.
        self._active_payload: Optional[Tuple[Callable[..., None], Any]] = None
        self._token: Optional[str] = None
        self._thread_executor: Optional[ThreadPoolExecutor] = None
        self._replicas: Optional[List[Any]] = None
        self._replica_token: Optional[str] = None
        self._stores: Dict[str, SharedArrayStore] = {}
        self._param_version = 0
        self._param_token: Optional[str] = None
        #: (weakref-to-engine, token) cache: the structure token is constant
        #: for an engine's lifetime, so a whole training run hashes the
        #: graph arrays once instead of once per epoch.
        self._structure_cache: Optional[tuple] = None
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    @property
    def shm_active(self) -> bool:
        """Whether dispatch currently goes through shared-memory segments."""
        return (
            self.shm_dispatch
            and self.backend == "process"
            and shared_memory_supported()
        )

    @property
    def needs_inline_state(self) -> bool:
        """Whether training tasks must carry the weights inline.

        ``False`` on the thread and sequential rungs (replicas / the live
        engine are refreshed from the live model) and under shm dispatch
        (weights ride the shared parameter segment); ``True`` only for the
        plain pickle process rung, where each task message must ship the
        current ``state_dict``.
        """
        if self._sequential or self.backend == "thread":
            return False
        return not self.shm_active

    @property
    def rung(self) -> str:
        """The degradation-ladder rung dispatch currently uses (see ``LADDER``)."""
        return self._rung_locked()

    @property
    def health(self) -> Dict[str, Any]:
        """A structured operational report: rung, knobs, fault counters.

        ``degrades`` lists every ladder step taken (e.g. ``"shm->pickle"``)
        in order; ``retries`` / ``timeouts`` / ``redispatches`` /
        ``worker_crashes`` count recovered incidents, and
        ``stragglers_verified`` counts abandoned originals that finished
        anyway and were bit-compared against their re-dispatched twin.
        """
        report: Dict[str, Any] = {
            "pool_id": self.pool_id,
            "rung": self.rung,
            "backend": self.backend,
            "requested_backend": self.requested_backend,
            "workers": self.workers,
            "runs": self.runs,
            "closed": self.closed,
            "max_shard_retries": self.max_shard_retries,
            "shard_timeout": self.shard_timeout,
        }
        for key, value in self._health.items():
            report[key] = list(value) if isinstance(value, list) else value
        return report

    def shm_segments(self) -> Tuple[str, ...]:
        """Names of the currently published shared segments (tests/debug)."""
        return tuple(
            store.handle.segment
            for store in self._stores.values()
            if not store.closed
        )

    # ------------------------------------------------------------------
    def run(
        self,
        engine: Any,
        kind: str,
        tasks: Sequence[Any],
        collector: Optional[Any] = None,
    ) -> Optional[List[Any]]:
        """Run chunk ``tasks`` against ``engine``; results in task order.

        Without ``collector`` the results come back as a list.  With a
        ``collector`` (an object with ``add(result)`` and ``reset()``),
        results are *streamed* into it in task order as workers finish --
        the consumer's merge work overlaps the remaining shards' compute.

        Failure handling is layered.  *Within* a rung, a shard that dies
        with a transient error (``OSError``/pickling) is retried up to
        ``max_shard_retries`` times with exponential backoff, a shard that
        exceeds ``shard_timeout`` seconds is re-dispatched (the abandoned
        straggler, if it ever finishes, is bit-compared against its
        replacement), and a crashed worker gets the executor rebuilt
        against the surviving shared segments.  Only when a rung is
        *exhausted* does the pool step down the degradation ladder
        shm -> pickle -> thread -> sequential -- permanently, loudly (one
        :class:`~repro.errors.DegradeWarning` per step) and with the
        collector reset so partially-consumed results can never be
        double-counted.  Re-running is safe: each task's draws come from
        its own seed-sequence child, so every recovery path is
        bit-identical to the undisturbed run.
        """
        if self.closed:
            raise PoolError(f"{self.pool_id} has been shut down")
        tasks = list(tasks)
        self.runs += 1
        if not tasks:
            return [] if collector is None else None
        if self.track_dispatch:
            self.dispatch_stats["task_bytes"] += sum(
                _pickled_bytes(task) for task in tasks
            )
        if self.workers == 1 or len(tasks) == 1:
            return self._run_sequential(engine, kind, tasks, collector)
        while True:
            try:
                if self._sequential:
                    return self._run_sequential(engine, kind, tasks, collector)
                if self.backend == "thread":
                    return self._run_on_threads(engine, kind, tasks, collector)
                return self._run_on_processes(engine, kind, tasks, collector)
            except _RUNG_FAILURES as exc:
                cause = exc.cause if isinstance(exc, _RungExhausted) else exc
                if collector is not None:
                    collector.reset()
                self._degrade(cause)

    # ------------------------------------------------------------------
    def _token_for(self, engine: Any, kind: str) -> str:
        """The staleness token for ``engine``, with the structure flavour cached."""
        include_state = kind != "train"
        if not include_state and self._structure_cache is not None:
            ref, token = self._structure_cache
            if ref() is engine:
                return token
        token = _engine_token(engine, include_state=include_state)
        if not include_state:
            self._structure_cache = (weakref.ref(engine), token)
        return token

    def _run_on_processes(
        self, engine: Any, kind: str, tasks: List[Any], collector: Optional[Any] = None
    ) -> Optional[List[Any]]:
        # The whole dispatch holds the lock so a concurrent run() with a
        # different payload token cannot swap the executor out from under
        # this one -- concurrent callers serialise instead.
        with self._lock:
            faults.check("dispatch")
            if self.shm_active:
                self._ensure_shm_executor_locked(engine, kind)
                version = self._param_version

                def submit(task: Any, attempt: int) -> Any:
                    return self._executor.submit(
                        _run_remote_shm, kind, version, task, attempt
                    )
            else:
                self._ensure_pickle_executor_locked(engine, kind)

                def submit(task: Any, attempt: int) -> Any:
                    return self._executor.submit(_run_remote, kind, task, attempt)

            return self._consume_futures(
                tasks, submit, self._rebuild_process_executor_locked, collector
            )

    def _ensure_shm_executor_locked(self, engine: Any, kind: str) -> None:
        """Make the shm executor current for ``engine``; caller holds the lock.

        The *structure* token (graph + config + parameter shapes) gates the
        expensive path -- executor rebuild and segment republish; a pure
        weight change is an in-place parameter-segment rewrite plus a
        version bump that rides inside the per-task trampoline arguments.
        Training always rewrites (weights change every step); generation
        rewrites only when the weight fingerprint actually moved.
        """
        structure = self._token_for(engine, kind="train")
        if self._executor is None or structure != self._token:
            self._shutdown_process_executor_locked()
            self._release_stores_locked()
            payload = self._publish_engine_locked(engine)
            self._start_process_executor_locked(_init_worker_shm, payload)
            self._token = structure
            self._param_token = None if kind == "train" else weights_token(engine.model)
        elif kind == "train":
            self._update_params_locked(engine)
            self._param_token = None
        else:
            state = weights_token(engine.model)
            if state != self._param_token:
                self._update_params_locked(engine)
                self._param_token = state

    def _ensure_pickle_executor_locked(self, engine: Any, kind: str) -> None:
        """Make the pickled-payload executor current; caller holds the lock."""
        token = self._token_for(engine, kind)
        if self._executor is None or token != self._token:
            self._shutdown_process_executor_locked()
            payload = payload_from_engine(engine)
            if self.track_dispatch:
                self.dispatch_stats["payload_bytes"] += _pickled_bytes(payload)
                self.dispatch_stats["payload_publishes"] += 1
            self._start_process_executor_locked(_init_worker, payload)
            self._token = token

    def _start_process_executor_locked(
        self, initializer: Callable[..., None], payload: Any
    ) -> None:
        self._active_payload = (initializer, payload)
        self._executor = ProcessPoolExecutor(
            max_workers=self.workers,
            mp_context=_process_context(),
            initializer=initializer,
            initargs=(payload,),
        )

    def _rebuild_process_executor_locked(self) -> None:
        """Replace a broken process executor in place; caller holds the lock.

        A crashed worker poisons the whole ``ProcessPoolExecutor`` but not
        the parent-owned shared segments or the cached initializer payload,
        so the replacement pool re-attaches to what is already published.
        (A stale payload ``version`` only costs each fresh worker one extra
        weight reload -- task messages carry the current version.)
        """
        if self._active_payload is None:
            raise RuntimeError(
                f"{self.pool_id}: no payload cached to rebuild workers from"
            )
        if self._executor is not None:
            try:
                self._executor.shutdown(wait=False)
            except Exception:
                pass
            self._executor = None
        initializer, payload = self._active_payload
        self._start_process_executor_locked(initializer, payload)

    def _consume_futures(
        self,
        tasks: List[Any],
        submit: Callable[[Any, int], Any],
        rebuild: Optional[Callable[[], None]],
        collector: Optional[Any],
    ) -> Optional[List[Any]]:
        """Submit every task, then consume results in task order with recovery.

        The retry/timeout engine shared by the process and thread rungs.
        Consuming in task order keeps the merge bit-identical and lets a
        collector overlap with outstanding shards; per-shard ``attempt``
        numbers flow into the workers so :mod:`repro.faults` rules can
        target (or spare) retries.
        """
        attempts = [0] * len(tasks)
        futures = self._submit_all(tasks, attempts, submit, rebuild)
        results: Optional[List[Any]] = [] if collector is None else None
        for i in range(len(tasks)):
            result = self._await_shard(i, tasks, futures, attempts, submit, rebuild)
            if results is not None:
                results.append(result)
            else:
                collector.add(result)
        return results

    def _submit_all(
        self,
        tasks: List[Any],
        attempts: List[int],
        submit: Callable[[Any, int], Any],
        rebuild: Optional[Callable[[], None]],
    ) -> List[Any]:
        """Dispatch every shard, surviving a worker crash mid-submission.

        A worker that dies while the parent is still submitting the rest of
        the dispatch poisons the executor, so ``submit`` itself raises
        ``BrokenProcessPool``; that is the same recoverable incident as a
        crash surfaced through a future and takes the same rebuild path
        (every shard re-dispatched at its next attempt number), not the
        degradation ladder.
        """
        while True:
            try:
                return [submit(task, attempts[j]) for j, task in enumerate(tasks)]
            except BrokenProcessPool as exc:
                self._health["worker_crashes"] += 1
                if rebuild is None:
                    raise
                for j in range(len(tasks)):
                    self._bump_attempt(j, attempts, exc)
                rebuild()

    def _await_shard(
        self,
        i: int,
        tasks: List[Any],
        futures: List[Any],
        attempts: List[int],
        submit: Callable[[Any, int], Any],
        rebuild: Optional[Callable[[], None]],
    ) -> Any:
        stale: List[Any] = []
        while True:
            try:
                result = futures[i].result(timeout=self.shard_timeout)
            except FuturesTimeout as exc:
                # Straggler: abandon the in-flight future (it keeps running)
                # and race a re-dispatch against it.
                self._health["timeouts"] += 1
                self._bump_attempt(i, attempts, exc)
                self._health["redispatches"] += 1
                stale.append(futures[i])
                futures[i] = submit(tasks[i], attempts[i])
            except BrokenProcessPool as exc:
                # A worker died abruptly, poisoning the whole executor and
                # every in-flight shard: rebuild it and re-dispatch all
                # unconsumed shards at their next attempt number (which is
                # what keeps an attempt-pinned crash rule from re-firing).
                self._health["worker_crashes"] += 1
                self._bump_attempt(i, attempts, exc)
                if rebuild is None:
                    raise
                rebuild()
                for j in range(i + 1, len(tasks)):
                    attempts[j] += 1
                for j in range(i, len(tasks)):
                    futures[j] = submit(tasks[j], attempts[j])
            except _RETRYABLE_TASK_ERRORS as exc:
                self._health["retries"] += 1
                self._bump_attempt(i, attempts, exc)
                time.sleep(self.retry_backoff * (2 ** (attempts[i] - 1)))
                futures[i] = submit(tasks[i], attempts[i])
            else:
                self._verify_stragglers(i, stale, result)
                return result

    def _bump_attempt(self, i: int, attempts: List[int], exc: BaseException) -> None:
        attempts[i] += 1
        if attempts[i] > self.max_shard_retries:
            raise _RungExhausted(i, exc) from exc

    def _verify_stragglers(self, index: int, stale: List[Any], result: Any) -> None:
        """Bit-compare straggler results that finished despite re-dispatch.

        Shards are pure functions of (task, seed child, weights), so an
        abandoned original that completed anyway must equal its replacement
        bit for bit; divergence means nondeterminism leaked in and is a
        loud failure, never something to paper over.
        """
        for future in stale:
            if (
                not future.done()
                or future.cancelled()
                or future.exception() is not None
            ):
                continue
            original = pickle.dumps(future.result(), protocol=pickle.HIGHEST_PROTOCOL)
            replacement = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
            if original != replacement:
                raise PoolError(
                    f"{self.pool_id}: re-dispatched shard {index} diverged from "
                    "its abandoned straggler -- shards must be deterministic"
                )
            self._health["stragglers_verified"] += 1

    def _publish_engine_locked(self, engine: Any) -> ShmWorkerPayload:
        """Create fresh graph/parameter segments and the handle payload."""
        stores: Dict[str, SharedArrayStore] = {}
        try:
            stores["graph"] = SharedArrayStore(_shm_graph_arrays(engine))
            stores["params"] = SharedArrayStore(_shm_param_arrays(engine))
        except Exception:
            for store in stores.values():
                store.close()
            raise
        self._stores = stores
        self._param_version += 1
        external = engine.model.encoder._external_features
        payload = ShmWorkerPayload(
            config=engine.config,
            num_nodes=engine.graph.num_nodes,
            num_timestamps=engine.graph.num_timestamps,
            feature_dim=external.shape[-1] if external is not None else 0,
            graph=stores["graph"].handle,
            params=stores["params"].handle,
            version=self._param_version,
        )
        if self.track_dispatch:
            self.dispatch_stats["payload_bytes"] += _pickled_bytes(payload)
            self.dispatch_stats["payload_publishes"] += 1
        return payload

    def _update_params_locked(self, engine: Any) -> None:
        """Rewrite the parameter segment in place and advance the version."""
        self._stores["params"].update(_shm_param_arrays(engine))
        self._param_version += 1
        if self.track_dispatch:
            self.dispatch_stats["param_updates"] += 1

    def _run_on_threads(
        self, engine: Any, kind: str, tasks: List[Any], collector: Optional[Any] = None
    ) -> Optional[List[Any]]:
        faults.check("dispatch")
        _prewarm_graph(engine.graph)
        with self._lock:
            if self._thread_executor is None:
                self._thread_executor = ThreadPoolExecutor(
                    max_workers=self.workers,
                    thread_name_prefix=self.pool_id,
                )
            executor = self._thread_executor
        if kind != "train":

            def execute(task: Any) -> Any:
                return _run_on(engine, kind, task)

        else:
            with self._lock:
                token = self._token_for(engine, kind)
                if self._replicas is None or token != self._replica_token:
                    self._replicas = _build_train_replicas(engine, self.workers)
                    self._replica_token = token
                elif getattr(tasks[0], "state", None) is None:
                    # Tasks without inline weights expect workers to hold the
                    # *current* weights: refresh cached replicas from the live
                    # model (an exact copy, so the run stays bit-identical).
                    state = engine.model.state_dict()
                    for replica in self._replicas:
                        replica.model.load_state_dict(state)
                replicas: "queue.SimpleQueue" = queue.SimpleQueue()
                for replica in self._replicas:
                    replicas.put(replica)

            def execute(task: Any) -> Any:
                replica = replicas.get()
                try:
                    return _run_on(replica, kind, task)
                finally:
                    replicas.put(replica)

        def submit(task: Any, attempt: int) -> Any:
            return executor.submit(_checked, execute, task, attempt)

        # No rebuild callback: a thread pool has no crashed-worker mode.
        return self._consume_futures(tasks, submit, None, collector)

    def _run_sequential(
        self, engine: Any, kind: str, tasks: List[Any], collector: Optional[Any]
    ) -> Optional[List[Any]]:
        """The bottom rung (and the ``workers=1`` path): a plain in-process loop.

        Still retries transient per-shard errors, but there is nothing to
        degrade to below it -- exhaustion raises
        :class:`~repro.errors.PoolError` instead of stepping down.
        """
        results: Optional[List[Any]] = [] if collector is None else None
        for task in tasks:
            result = self._run_one_retrying(engine, kind, task)
            if results is not None:
                results.append(result)
            else:
                collector.add(result)
        return results

    def _run_one_retrying(self, engine: Any, kind: str, task: Any) -> Any:
        attempt = 0
        while True:
            try:
                return _checked(
                    lambda t: _run_on(engine, kind, t), task, attempt
                )
            except _RETRYABLE_TASK_ERRORS as exc:
                attempt += 1
                self._health["retries"] += 1
                if attempt > self.max_shard_retries:
                    raise PoolError(
                        f"{self.pool_id}: shard failed {attempt} attempts on the "
                        f"sequential rung ({type(exc).__name__}: {exc})"
                    ) from exc
                time.sleep(self.retry_backoff * (2 ** (attempt - 1)))

    def _degrade(self, cause: BaseException) -> None:
        """Step one rung down the ladder, releasing the failed rung's resources."""
        with self._lock:
            from_rung = self._rung_locked()
            if from_rung == "shm":
                # Keep the process backend, drop shared-memory dispatch:
                # segments are unlinked *and* the weight version advanced
                # (in _release_stores_locked) so a future republish can
                # never hand workers a version they think they already have.
                self._shutdown_process_executor_locked()
                self._release_stores_locked()
                self.shm_dispatch = False
            elif from_rung == "pickle":
                self._shutdown_process_executor_locked()
                self._release_stores_locked()
                self.backend = "thread"
            elif from_rung == "thread":
                if self._thread_executor is not None:
                    self._thread_executor.shutdown(wait=True)
                    self._thread_executor = None
                self._sequential = True
            else:
                raise PoolError(
                    f"{self.pool_id}: sequential execution failed "
                    f"({type(cause).__name__}: {cause}); no rung left to degrade to"
                ) from cause
            to_rung = self._rung_locked()
        self._health["degrades"].append(f"{from_rung}->{to_rung}")
        warnings.warn(
            f"{self.pool_id}: {from_rung} dispatch failed "
            f"({type(cause).__name__}: {cause}); degrading {from_rung}->{to_rung} "
            "for the remainder of this pool's life",
            DegradeWarning,
            stacklevel=3,
        )

    def _rung_locked(self) -> str:
        if self._sequential:
            return "sequential"
        if self.backend == "thread":
            return "thread"
        return "shm" if self.shm_active else "pickle"

    # ------------------------------------------------------------------
    def _release_stores_locked(self) -> None:
        """Unlink every published segment; caller must hold ``self._lock``.

        Also advances the weight-version counter past anything ever
        dispatched: if the pool later republishes (a re-promote after a
        degrade, a structure change), surviving or fresh workers can never
        mistake the new segment's contents for a version they already
        loaded and skip the reload.
        """
        for store in self._stores.values():
            store.close()
        self._stores = {}
        self._param_token = None
        self._param_version += 1

    def _shutdown_process_executor_locked(self) -> None:
        """Drop the process executor; caller must hold ``self._lock``."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
            self._token = None
        self._active_payload = None

    def close(self) -> None:
        """Shut down every executor, replica and shared segment.

        Fully idempotent (double-close and ``__del__``-after-close are
        no-ops by state, not by exception swallowing), safe from ``atexit``
        and from forked children (a child never tears down its parent's
        executors or unlinks the parent's segments), and exception-free so
        interpreter-shutdown ordering can never turn cleanup into a crash.
        The pool becomes unusable.
        """
        # getattr: __del__ may run on a pool whose __init__ raised before
        # (or while) attributes were assigned; treat that as already closed.
        if getattr(self, "closed", True):
            return
        self.closed = True
        if os.getpid() != self._owner_pid:
            # Forked child (e.g. inherited atexit hook): the executors and
            # segments belong to the parent; touching them here would rip
            # shared state out from under a live process.
            return
        try:
            with self._lock:
                self._shutdown_process_executor_locked()
                if self._thread_executor is not None:
                    self._thread_executor.shutdown(wait=True)
                    self._thread_executor = None
                self._release_stores_locked()
                self._replicas = None
                self._replica_token = None
                self._structure_cache = None
        except Exception:
            # Interpreter shutdown can break executor internals mid-close;
            # still make sure the shared segments are gone.
            for store in list(self._stores.values()):
                store.close()
            self._stores = {}

    # Context-manager protocol: ``with WorkerPool(4) as pool: ...``
    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __del__(self) -> None:
        # Garbage collection of an unclosed pool must reap its segments;
        # after an explicit close() (the normal case) this is a pure no-op.
        try:
            self.close()
        except Exception:
            pass

    def __repr__(self) -> str:
        state = "closed" if self.closed else "open"
        return (
            f"WorkerPool(id={self.pool_id}, workers={self.workers}, "
            f"backend={self.backend!r}, rung={self.rung}, runs={self.runs}, {state})"
        )


def run_sharded(
    engine: Any,
    kind: str,
    tasks: Sequence[Any],
    workers: int,
    backend: str = "process",
    pool: Optional[WorkerPool] = None,
) -> List[Any]:
    """Run chunk ``tasks`` on ``workers`` workers; results in task order.

    When ``pool`` is given (and open), dispatch goes through that persistent
    :class:`WorkerPool` -- its worker count, backend and shared-memory
    dispatch mode govern.  Otherwise ``workers=1`` (or a single task) is a
    plain loop over the live engine -- the reference sequential path -- and
    anything wider runs on an ephemeral :class:`WorkerPool` built from the
    engine's config, torn down before returning.  Either way the result is
    bit-identical because every task carries its own spawned seed-sequence
    child.
    """
    if backend not in BACKENDS:
        raise ConfigError(
            f"parallel backend must be one of {BACKENDS}, got {backend!r}"
        )
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    tasks = list(tasks)
    if pool is not None and not pool.closed:
        return pool.run(engine, kind, tasks)
    if workers == 1 or len(tasks) <= 1:
        return [_run_on(engine, kind, task) for task in tasks]
    config = engine.config
    with WorkerPool(
        min(workers, len(tasks)),
        backend,
        shm_dispatch=config.shm_dispatch,
        max_shard_retries=config.max_shard_retries,
        shard_timeout=config.shard_timeout,
    ) as ephemeral:
        return ephemeral.run(engine, kind, tasks)
