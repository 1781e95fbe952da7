"""Sharded parallel execution of generation and training chunk tasks.

The streaming :class:`~repro.core.engine.GenerationEngine` and the
data-parallel trainer (:mod:`repro.core.trainer`) both split their work into
independent units -- a decode-and-assemble pass per chunk of centre temporal
nodes, or one forward + backward per training shard -- where every unit
draws only from randomness fixed before dispatch (a training shard owns a
spawned :class:`~numpy.random.SeedSequence` child, see :mod:`repro.rng`; an
inference chunk keys each row's draws by the call's word and the row's
``(u, t)``), touches only its own centre rows, and returns plain arrays.  Inference chunks
carry their encoder embeddings in the task (the caller makes them once, in
:meth:`~repro.core.engine.GenerationEngine.warm_rows`), so workers only
decode.  This module fans the units out, and :func:`run_sharded` is the
one place that decides how:

* An open :class:`WorkerPool` gets the run.  Without one, ``workers=1``
  (or a single task) is a plain in-process loop over the live engine --
  the reference sequential path -- and anything wider runs on an
  ephemeral pool built from the engine's config for the one call.  A
  single task runs in the caller under an open pool too, and inference
  cuts one task per draw block of work
  (:func:`~repro.core.engine.shard_rows`), so a small call never
  dispatches.
  Training opens its pool once per run (:func:`pool_for`) and hands it to
  every epoch's :func:`run_sharded` call.
* :func:`check_dispatch` is the one validation of a ``(workers,
  backend)`` pair; the engine, the trainer and the pool call it at entry.
* ``backend="process"`` (default) runs chunks in worker *processes* -- the
  right choice for the CPU-bound NumPy passes, which the GIL would
  serialise under threads.  Each worker attaches the shared graph and
  parameter segments at start-up, through a handle payload shipped by the
  pool initializer (an append moves it onto a new graph segment, see
  below); per-task messages carry index arrays, a seed-sequence
  child (training) or a draw word (inference), a parameter version and
  (inference) the chunk's embedding rows.
* ``backend="thread"`` shares the live engine across a thread pool -- the
  fallback for environments where process pools are unavailable (no POSIX
  shared memory or semaphores, restricted sandboxes); the process backend
  degrades to it automatically.  *Training* shards run backward passes,
  which accumulate into parameter gradients, so the thread backend gives
  each worker thread its own model replica, refreshed from the live model
  before every run.

Because every unit's randomness is fixed before any dispatch and results
are merged in task order, every execution mode is **bit-identical**: worker
count and backend change wall-clock time, never output.

:class:`WorkerPool` makes the executor *persistent*: one pool outlives many
``fit()`` / ``generate()`` / ``score_topk()`` calls and every epoch of a
training run, so many-sample workloads (significance tests, top-k sweeps,
multi-epoch training) pay process startup and graph shipping once instead
of per call.

Shared-memory dispatch
----------------------

On the process backend a pool publishes everything large -- the model
parameters and the graph's edge/CSR arrays -- into
:mod:`multiprocessing.shared_memory` segments (:class:`SharedArrayStore`:
one writer, N readers).  Workers attach the segments once, by name, through
a ~5 KB :class:`ShmWorkerPayload` of handles; after that, per-epoch and
per-generate dispatch is **O(1) in model size**: a refreshed model (a new
epoch, a refit) is shipped by overwriting the parameter segment *in place*
and bumping a version counter -- no re-pickle, no executor rebuild.  Three
tiers of change detection decide what a dispatch costs
(:func:`_pool_tokens`):

* the *worker* token (config, ``(n, T)`` universe, feature shape,
  parameter layout) covers what a worker builds at start-up; only its
  change restarts the executor and republishes both segments;
* the *graph* token (edge arrays, feature values) moves on an append: the
  pool publishes a new graph segment, moves every worker onto it with a
  one-task-per-worker rendezvous and unlinks the old one -- same workers,
  same models, same parameter segment;
* the *weights* token: the parameter segment is rewritten in place iff it
  moved, for training and inference alike.

So one pool serves ``fit`` -> ``generate`` -> ``score_topk`` ->
``update`` on one executor.  The pool owns
the segments and unlinks them on :meth:`WorkerPool.close` (and on degrade,
worker crash, or interpreter exit); teardown is idempotent and safe to run
from ``atexit``.  A platform without POSIX shared memory has no working
process pools either (their semaphores live in the same ``/dev/shm``), so
a process pool there starts on the thread rung.

Fault tolerance
---------------

Every shard is a pure function of (task, weights) -- its randomness rides
in the task as a seed-sequence child or a draw word -- so recovery never
risks the bit-identity contract.  Within a rung a pool
retries transient shard failures (bounded, exponential backoff),
re-dispatches stragglers that exceed ``shard_timeout``, and rebuilds a
process executor whose worker crashed (the parent-owned segments survive);
one retry loop serves every rung, the in-process sequential one included.
When a rung is exhausted the pool steps down the degradation ladder
``shm -> thread -> sequential`` and re-runs the whole task list there --
permanently and loudly, one
:class:`~repro.errors.DegradeWarning` per step -- with counters exposed on
:attr:`WorkerPool.health`.  The pool's ladder position is one field; its
``backend`` and ``rung`` are views of it.  All of it is provoked
deterministically in tests through :mod:`repro.faults`.
"""

from __future__ import annotations

import atexit
import gc
import itertools
import multiprocessing
import os
import pickle
import queue
import threading
import time
import warnings
import weakref
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
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
    "WorkerPool",
    "attach_shared_arrays",
    "check_dispatch",
    "pool_for",
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

#: Seconds a graph swap waits for every worker to arrive at its rendezvous
#: before rebuilding the executor instead; a worker waits twice as long
#: for the parent's release, so it never gives up first.
_RENDEZVOUS_TIMEOUT = 30.0

#: The degradation ladder, fastest rung first.  A persistent pool starts on
#: the highest rung its configuration allows and only ever moves down.
LADDER = ("shm", "thread", "sequential")


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


def check_dispatch(
    workers: Optional[int], backend: Optional[str], config: Optional[TGAEConfig] = None
) -> Tuple[int, str]:
    """The validated ``(workers, backend)`` pair a call dispatches with.

    ``None`` values fall back to ``config.workers`` /
    ``config.parallel_backend``.  The one check behind every entry point
    (engine, trainer, :func:`run_sharded`, :class:`WorkerPool`), so each
    raises the same :class:`~repro.errors.ConfigError` before doing any work.
    """
    if config is not None:
        workers = config.workers if workers is None else workers
        backend = config.parallel_backend if backend is None else backend
    workers = int(workers)
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    if backend not in BACKENDS:
        raise ConfigError(
            f"parallel backend must be one of {BACKENDS}, got {backend!r}"
        )
    return workers, backend


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

    __slots__ = ("handle", "_shm", "_spec_by_key", "_owner_pid", "__weakref__")

    #: Every store of this process; a forked pool worker closes its
    #: inherited copies (:func:`_init_worker_shm`).
    _live: "weakref.WeakSet[SharedArrayStore]" = weakref.WeakSet()

    def __init__(self, arrays: Mapping[str, np.ndarray]) -> None:
        from multiprocessing import shared_memory

        # Assigned before anything that can fail: close() / __del__ on a
        # half-constructed store must be a clean no-op, not an AttributeError.
        self._shm: Optional[Any] = None
        self._owner_pid = os.getpid()
        SharedArrayStore._live.add(self)
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
        change (an append, a new model layout) requires a fresh store.
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

    Probed once per process with a 1-byte segment; on a platform that
    cannot (no ``/dev/shm``, sandboxed runtime) a process pool silently
    starts on the thread rung.
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
    An append moves running workers onto a new ``graph`` segment
    (:func:`_swap_graph_rendezvous`), and the pool's cached payload names
    the new segment from then on, so a crash rebuild attaches the live one.
    """

    config: TGAEConfig
    num_nodes: int
    num_timestamps: int
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


def _pool_tokens(engine: Any) -> Tuple[str, str]:
    """The ``(worker, graph)`` fingerprints that decide how stale workers are.

    The *worker* token covers what a worker builds at start-up: the config
    but ``epochs`` (only the parent's epoch loop reads it), the ``(n, T)``
    universe, the external-feature shape and the parameter layout.  The
    *graph* token hashes the edge arrays and feature values, so an append
    (:meth:`TGAEGenerator.update`, which keeps the universe fixed) moves
    only it.  Weight values are in neither: they travel through the
    in-place parameter-segment update (or the replica refresh), which is
    what lets one pool survive a whole training run.  Reads the live arrays
    in place (no ``state_dict`` copy).
    """
    graph = engine.graph
    external = engine.model.encoder._external_features
    shapes = [(name, p.data.shape) for name, p in sorted(engine.model.named_parameters())]
    worker = (
        replace(engine.config, epochs=1),
        graph.num_nodes,
        graph.num_timestamps,
        None if external is None else external.shape,
        shapes,
    )
    return "worker:" + repr(worker), "graph:" + graph_token(graph, None, external)


def _engine_from_state(
    config: TGAEConfig,
    graph: TemporalGraph,
    state: Mapping[str, np.ndarray],
    external_features: Optional[np.ndarray],
) -> Any:
    """Build an eval-mode generation engine from a state dict and a graph.

    The one engine builder behind both worker processes (state read from
    the parameter segment) and thread-backend training replicas (state
    copied from the live model).  ``load_state_dict`` copies, so the
    engine never aliases ``state``.
    """
    from .engine import GenerationEngine
    from .model import TGAEModel

    feature_dim = external_features.shape[-1] if external_features is not None else 0
    model = TGAEModel(
        graph.num_nodes, graph.num_timestamps, config, feature_dim=feature_dim
    )
    model.load_state_dict(state)
    if external_features is not None:
        model.encoder.set_external_features(external_features)
    model.eval()
    return GenerationEngine(model, graph, config)


#: Per-process engine rebuilt by :func:`_init_worker_shm`; ``None`` in the parent.
_WORKER_ENGINE: Optional[Any] = None
#: Attached graph and parameter segments, in that order (kept alive for
#: the views' lifetime) + param views.
_WORKER_SHM: List[Any] = []
_WORKER_PARAM_VIEWS: Optional[Dict[str, np.ndarray]] = None
_WORKER_PARAM_VERSION: Optional[int] = None
#: ``(arrived, depart)`` semaphores of the executor's graph-swap rendezvous.
_WORKER_RENDEZVOUS: Optional[Tuple[Any, Any]] = None


def _release_worker_attachments() -> None:
    """Worker ``atexit``: drop engine + views, then close shm mappings quietly."""
    global _WORKER_ENGINE, _WORKER_PARAM_VIEWS
    _WORKER_ENGINE = None
    _WORKER_PARAM_VIEWS = None
    gc.collect()
    while _WORKER_SHM:
        shm = _WORKER_SHM.pop()
        try:
            shm.close()
        except Exception:
            pass


def _attach_graph(
    handle: ShmHandle, num_nodes: int, num_timestamps: int
) -> Tuple[Any, TemporalGraph, Optional[np.ndarray]]:
    """Attach a graph segment: ``(segment, zero-copy graph, external features)``."""
    shm, views = attach_shared_arrays(handle)
    graph = TemporalGraph(
        num_nodes,
        views["src"],
        views["dst"],
        views["t"],
        num_timestamps=num_timestamps,
        validate=False,
    )
    # Hand the prebuilt partner CSR straight to the graph cache: workers
    # never redo the O(E log E) group-by the parent already did.
    graph._partner_groups = (views["partner_offsets"], views["partners"])
    return shm, graph, views.get("external_features")


def _init_worker_shm(payload: ShmWorkerPayload, rendezvous: Tuple[Any, Any]) -> None:
    """Pool initializer: attach the shared segments, rebuild the engine.

    The graph's edge and partner-CSR arrays stay zero-copy views into the
    shared segment until a graph swap moves the worker onto a new one; the
    model weights are *copied* out of the parameter segment
    (``load_state_dict`` copies), so the parent can overwrite that segment
    between runs without racing in-flight forwards.
    """
    global _WORKER_ENGINE, _WORKER_PARAM_VIEWS, _WORKER_PARAM_VERSION
    global _WORKER_RENDEZVOUS
    # A forked worker inherits the parent's writer mappings of every
    # segment; closing them leaves only its own attachments, so a swapped
    # out (unlinked) segment stays mapped nowhere.
    for store in list(SharedArrayStore._live):
        store.close()
    graph_shm, graph, external = _attach_graph(
        payload.graph, payload.num_nodes, payload.num_timestamps
    )
    param_shm, param_views = attach_shared_arrays(payload.params)
    if not _WORKER_SHM:
        atexit.register(_release_worker_attachments)
    _WORKER_SHM[:] = [graph_shm, param_shm]
    _WORKER_ENGINE = _engine_from_state(payload.config, graph, param_views, external)
    _WORKER_PARAM_VIEWS = param_views
    _WORKER_PARAM_VERSION = payload.version
    _WORKER_RENDEZVOUS = rendezvous


def _swap_graph_rendezvous(handle: ShmHandle, timeout: float) -> None:
    """Broadcast task: move this worker onto graph segment ``handle``, then wait.

    The worker builds a new engine around its *existing* model (weights
    untouched, external features re-set from the new segment), then closes
    its old mapping: every view of the old segment died with the old
    engine, so no unlinked segment stays mapped.  Holding each worker until
    the parent's release -- given once every worker has arrived -- lands
    the pool's ``workers`` such tasks on ``workers`` distinct processes.
    """
    global _WORKER_ENGINE
    from .engine import GenerationEngine

    arrived, depart = _WORKER_RENDEZVOUS
    try:
        old = _WORKER_ENGINE
        shm, graph, external = _attach_graph(
            handle, old.graph.num_nodes, old.graph.num_timestamps
        )
        if external is not None:
            old.model.encoder.set_external_features(external)
        _WORKER_ENGINE = GenerationEngine(old.model, graph, old.config)
        stale, _WORKER_SHM[0] = _WORKER_SHM[0], shm
        del old
        try:
            stale.close()
        except BufferError:  # a view kept alive by a reference cycle
            gc.collect()
            stale.close()
    finally:
        arrived.release()
        depart.acquire(timeout=timeout)


def _run_on(engine: Any, kind: str, task: Any) -> Any:
    """Execute one chunk task against an engine instance."""
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


def _run_remote_shm(kind: str, version: int, task: Any, attempt: int = 0) -> Any:
    """Worker-process trampoline: refresh weights from the segment when stale.

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
    state = engine.model.state_dict()
    external = engine.model.encoder._external_features
    return [
        _engine_from_state(engine.config, engine.graph, state, external)
        for _ in range(count)
    ]


def _process_context() -> multiprocessing.context.BaseContext:
    # fork skips model re-pickling and re-import; fall back to the platform
    # default (spawn on macOS/Windows) where fork is unavailable.
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else None)


class WorkerPool:
    """A persistent, reusable worker pool for sharded chunk tasks.

    One pool amortises process startup and graph shipping over many
    ``run()`` calls: repeated ``generate()`` draws (significance tests),
    ``score_topk`` sweeps, and every epoch of a training run reuse the same
    worker processes.  On the process backend the pool publishes the model
    parameters and the graph's CSR arrays into shared-memory segments
    (:class:`SharedArrayStore`): workers attach once, per-task messages
    carry index arrays, a parameter version and (inference) the chunk's
    embedding rows, and weight changes (every training epoch, every refit)
    are an in-place segment rewrite -- O(1) dispatch in model size.  An
    append (:meth:`repro.core.TGAEGenerator.update`) publishes a new graph
    segment and swaps it under the running workers; only a change of
    config, ``(n, T)`` universe or parameter shapes restarts the executor,
    so one pool survives a whole optimisation run and any number of
    appends.

    Usage is either explicit::

        with WorkerPool(workers=4) as pool:
            graph_a = engine.generate(rng_a, pool=pool)
            graph_b = engine.generate(rng_b, pool=pool)

    or through the owning objects: :meth:`repro.core.TGAEGenerator.worker_pool`
    and ``train_tgae(..., workers=N)`` manage a pool for you (both build it
    with :func:`pool_for`), and :func:`run_sharded` opens one for a single
    call when none is given.  When a rung of the dispatch ladder cannot run
    (no POSIX semaphores, crashed and unrebuildable workers, restricted
    sandbox) the pool steps down ``shm -> thread -> sequential`` -- loudly,
    one :class:`~repro.errors.DegradeWarning` per step.  The rung is the
    pool's one piece of ladder state: :attr:`rung` reports it,
    :attr:`backend` the effective backend it implies and
    :attr:`requested_backend` the original.  Results are bit-identical on
    every rung, and any shared segments are unlinked at the moment of
    degradation.  A
    ``"process"`` pool on a platform without shared memory starts on the
    thread rung, silently.  Transient per-shard failures are retried in
    place (``max_shard_retries``, exponential backoff) and stragglers
    re-dispatched (``shard_timeout``) before any degrade; :attr:`health`
    reports the counters.  Concurrent ``run()`` calls from different
    threads serialise on the pool's internal lock.
    """

    _ids = itertools.count()

    def __init__(
        self,
        workers: int,
        backend: str = "process",
        max_shard_retries: int = 2,
        shard_timeout: Optional[float] = None,
        retry_backoff: float = 0.05,
    ) -> None:
        #: Assigned before any validation so close()/__del__ on a pool whose
        #: __init__ raised stays a clean no-op.
        self.closed = True
        workers, backend = check_dispatch(workers, backend)
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
        self._requested_backend = backend
        #: The ladder position (a ``LADDER`` entry), only ever moving down.
        #: Process pools need POSIX semaphores, which live in the same
        #: /dev/shm as the segments: without shared memory, start on threads.
        self._rung = (
            "shm" if backend == "process" and shared_memory_supported() else "thread"
        )
        self.pool_id = f"workerpool-{next(self._ids)}"
        self.runs = 0
        self.closed = False
        #: Dispatch and robustness counters surfaced through :attr:`health`.
        self._health: Dict[str, Any] = {
            "executor_starts": 0,
            "publishes": 0,
            "param_updates": 0,
            "retries": 0,
            "timeouts": 0,
            "redispatches": 0,
            "worker_crashes": 0,
            "stragglers_verified": 0,
            "degrades": [],
        }
        self._owner_pid = os.getpid()
        self._executor: Optional[ProcessPoolExecutor] = None
        #: Handle payload behind the live process executor, kept so a broken
        #: executor can be rebuilt against the surviving segments.  A graph
        #: swap points it at the new graph segment.
        self._active_payload: Optional[ShmWorkerPayload] = None
        #: ``(arrived, depart)`` semaphores the live executor's workers share.
        self._rendezvous: Optional[Tuple[Any, Any]] = None
        #: ``(worker, graph)`` tokens (:func:`_pool_tokens`) the executor serves.
        self._tokens: Optional[Tuple[str, str]] = None
        self._thread_executor: Optional[ThreadPoolExecutor] = None
        self._replicas: Optional[List[Any]] = None
        self._replica_tokens: Optional[Tuple[str, str]] = None
        self._stores: Dict[str, SharedArrayStore] = {}
        self._param_version = 0
        self._param_token: Optional[str] = None
        #: (weakref-to-engine, tokens) cache: the tokens are constant for an
        #: engine's lifetime, so a whole training run hashes the graph
        #: arrays once instead of once per epoch.
        self._token_cache: Optional[tuple] = None
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    @property
    def shm_active(self) -> bool:
        """Whether dispatch currently goes through shared-memory segments."""
        return self.rung == "shm"

    @property
    def rung(self) -> str:
        """The degradation-ladder rung dispatch currently uses (see ``LADDER``)."""
        return self._rung

    @property
    def backend(self) -> str:
        """The effective backend: ``"process"`` on the shm rung, else ``"thread"``."""
        return "process" if self._rung == "shm" else "thread"

    @property
    def requested_backend(self) -> str:
        """The backend the pool was built for, whatever rung it is on now."""
        return self._requested_backend

    @property
    def health(self) -> Dict[str, Any]:
        """A structured operational report: rung, knobs, dispatch and fault counters.

        ``executor_starts`` counts process-executor starts, crash rebuilds
        included.  ``publishes`` counts segment publishes: both segments on
        a worker-token change, the graph segment alone on an append.
        ``param_updates`` counts in-place parameter-segment rewrites.
        ``degrades`` lists every ladder step taken (e.g.
        ``"shm->thread"``) in order; ``retries`` / ``timeouts`` /
        ``redispatches`` / ``worker_crashes`` count recovered incidents, and
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
    def run(self, engine: Any, kind: str, tasks: Sequence[Any]) -> List[Any]:
        """Run chunk ``tasks`` against ``engine``; results as a list in task order.

        Every rung -- shm, thread and sequential -- runs through one
        retry/timeout loop (:meth:`_consume_futures`).  A call with
        ``workers == 1`` or at most one task runs on the sequential rung
        without moving the pool's own rung.

        Failure handling is layered.  *Within* a rung, a shard that dies
        with a transient error (``OSError``/pickling) is retried up to
        ``max_shard_retries`` times with exponential backoff, a shard that
        exceeds ``shard_timeout`` seconds is re-dispatched (the abandoned
        straggler, if it ever finishes, is bit-compared against its
        replacement), and a crashed worker gets the executor rebuilt
        against the surviving shared segments.  Only when a rung is
        *exhausted* does the pool step down the degradation ladder
        shm -> thread -> sequential -- permanently and loudly (one
        :class:`~repro.errors.DegradeWarning` per step) -- and re-runs the
        whole task list there; exhausting the sequential rung raises
        :class:`~repro.errors.PoolError`.  Re-running is safe: each task's
        draws are fixed by the task itself, so every recovery path is
        bit-identical to the undisturbed run.
        """
        if self.closed:
            raise PoolError(f"{self.pool_id} has been shut down")
        tasks = list(tasks)
        self.runs += 1
        while True:
            rung = "sequential" if self.workers == 1 or len(tasks) <= 1 else self._rung
            runner = {
                "shm": self._run_on_processes,
                "thread": self._run_on_threads,
                "sequential": self._run_sequential,
            }[rung]
            try:
                return runner(engine, kind, tasks)
            except _RUNG_FAILURES as exc:
                self._degrade(rung, exc.cause if isinstance(exc, _RungExhausted) else exc)

    # ------------------------------------------------------------------
    def _tokens_for(self, engine: Any) -> Tuple[str, str]:
        """:func:`_pool_tokens` of ``engine``, cached for the engine's lifetime."""
        if self._token_cache is not None:
            ref, tokens = self._token_cache
            if ref() is engine:
                return tokens
        tokens = _pool_tokens(engine)
        self._token_cache = (weakref.ref(engine), tokens)
        return tokens

    def _run_on_processes(self, engine: Any, kind: str, tasks: List[Any]) -> List[Any]:
        # The whole dispatch holds the lock so a concurrent run() with a
        # different payload token cannot swap the executor out from under
        # this one -- concurrent callers serialise instead.
        with self._lock:
            faults.check("dispatch")
            self._ensure_shm_executor_locked(engine)
            version = self._param_version

            def submit(task: Any, attempt: int) -> Any:
                return self._executor.submit(
                    _run_remote_shm, kind, version, task, attempt
                )

            return self._consume_futures(
                tasks, submit, self._rebuild_process_executor_locked
            )

    def _ensure_shm_executor_locked(self, engine: Any) -> None:
        """Make the shm executor current for ``engine``; caller holds the lock.

        The *worker* token (config, universe, parameter shapes) gates the
        expensive path -- executor rebuild and segment republish.  A moved
        *graph* token (an append) swaps the graph segment under the running
        workers (:meth:`_swap_graph_locked`).  Then one rule serves every
        task kind: the parameter segment is rewritten in place (plus a
        version bump that rides inside the per-task trampoline arguments)
        iff the weights token moved -- every training epoch, a refit, never
        a repeat ``generate``.
        """
        tokens = self._tokens_for(engine)
        state = weights_token(engine.model)
        if self._executor is None or tokens[0] != self._tokens[0]:
            self._shutdown_process_executor_locked()
            self._release_stores_locked()
            self._start_process_executor_locked(self._publish_engine_locked(engine))
        else:
            if tokens[1] != self._tokens[1]:
                self._swap_graph_locked(engine)
            if state != self._param_token:
                self._update_params_locked(engine)
        self._tokens = tokens
        self._param_token = state

    def _start_process_executor_locked(self, payload: ShmWorkerPayload) -> None:
        context = _process_context()
        self._active_payload = payload
        self._rendezvous = (context.Semaphore(0), context.Semaphore(0))
        self._executor = ProcessPoolExecutor(
            max_workers=self.workers,
            mp_context=context,
            initializer=_init_worker_shm,
            initargs=(payload, self._rendezvous),
        )
        self._health["executor_starts"] += 1

    def _swap_graph_locked(self, engine: Any) -> None:
        """Publish ``engine``'s graph as a new segment and move every worker onto it.

        The executor, the workers' models and the parameter segment stay.
        ``workers`` rendezvous tasks (:func:`_swap_graph_rendezvous`) land
        one per worker, so every worker closes its old mapping before the
        old segment is unlinked.  A worker that does not arrive in time
        (dead, or busy with an abandoned straggler) gets the executor
        rebuilt instead, on the live segments.
        """
        store = SharedArrayStore(_shm_graph_arrays(engine))
        stale, self._stores["graph"] = self._stores["graph"], store
        self._active_payload = replace(self._active_payload, graph=store.handle)
        self._health["publishes"] += 1
        try:
            if not self._move_workers_locked(store.handle):
                self._rebuild_process_executor_locked()
        finally:
            stale.close()

    def _move_workers_locked(self, handle: ShmHandle) -> bool:
        """One :func:`_swap_graph_rendezvous` per worker; whether every worker came.

        The deadline is taken before the first submit and each worker waits
        twice as long for its release, so no worker gives up while the
        parent may still release it: no permit outlives the rendezvous.
        """
        arrived, depart = self._rendezvous
        deadline = time.monotonic() + _RENDEZVOUS_TIMEOUT
        try:
            futures = [
                self._executor.submit(
                    _swap_graph_rendezvous, handle, 2 * _RENDEZVOUS_TIMEOUT
                )
                for _ in range(self.workers)
            ]
        except BrokenProcessPool:  # a worker died while the pool was idle
            self._health["worker_crashes"] += 1
            return False
        met = 0
        while met < self.workers and time.monotonic() < deadline:
            if arrived.acquire(timeout=0.05):
                met += 1
            elif any(future.done() for future in futures):
                # Only a dead worker's task ends before its release.
                self._health["worker_crashes"] += 1
                break
        for _ in range(met):
            depart.release()
        if met < self.workers:
            return False
        for future in futures:
            future.result()
        return True

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
        self._start_process_executor_locked(self._active_payload)

    def _consume_futures(
        self,
        tasks: List[Any],
        submit: Callable[[Any, int], Any],
        rebuild: Optional[Callable[[], None]],
    ) -> List[Any]:
        """Submit every task, then collect results in task order with recovery.

        The one retry/timeout loop, shared by every rung.  Collecting in task
        order keeps the caller's merge bit-identical; per-shard ``attempt``
        numbers flow into the shards so :mod:`repro.faults` rules can target
        (or spare) retries.
        """
        attempts = [0] * len(tasks)
        futures = self._submit_all(tasks, attempts, submit, rebuild)
        return [
            self._await_shard(i, tasks, futures, attempts, submit, rebuild)
            for i in range(len(tasks))
        ]

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
        self._health["publishes"] += 1
        return ShmWorkerPayload(
            config=engine.config,
            num_nodes=engine.graph.num_nodes,
            num_timestamps=engine.graph.num_timestamps,
            graph=stores["graph"].handle,
            params=stores["params"].handle,
            version=self._param_version,
        )

    def _update_params_locked(self, engine: Any) -> None:
        """Rewrite the parameter segment in place and advance the version."""
        self._stores["params"].update(_shm_param_arrays(engine))
        self._param_version += 1
        self._health["param_updates"] += 1

    def _run_on_threads(self, engine: Any, kind: str, tasks: List[Any]) -> List[Any]:
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
                tokens = self._tokens_for(engine)
                if self._replicas is None or tokens != self._replica_tokens:
                    self._replicas = _build_train_replicas(engine, self.workers)
                    self._replica_tokens = tokens
                else:
                    # Cached replicas must hold the *current* weights: refresh
                    # them from the live model (an exact copy, so the run
                    # stays bit-identical).
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
        return self._consume_futures(tasks, submit, None)

    def _run_sequential(self, engine: Any, kind: str, tasks: List[Any]) -> List[Any]:
        """The bottom rung (and the ``workers=1`` path): shards run in-process.

        ``submit`` runs the shard at once and returns a completed future, so
        retries, backoff and exhaustion go through the same loop as the
        pooled rungs; below this rung there is nothing to degrade to (see
        :meth:`_degrade`).
        """

        def submit(task: Any, attempt: int) -> Future:
            future: Future = Future()
            try:
                future.set_result(
                    _checked(lambda t: _run_on(engine, kind, t), task, attempt)
                )
            except Exception as exc:
                future.set_exception(exc)
            return future

        return self._consume_futures(tasks, submit, None)

    def _degrade(self, from_rung: str, cause: BaseException) -> None:
        """Step one rung down from ``from_rung``, releasing its resources.

        The sequential rung has no rung below it: its exhaustion raises
        :class:`~repro.errors.PoolError` and leaves the pool's rung alone.
        """
        if from_rung == "sequential":
            raise PoolError(
                f"{self.pool_id}: shard failed on the sequential rung "
                f"({type(cause).__name__}: {cause}); no rung left to degrade to"
            ) from cause
        with self._lock:
            if self._rung != from_rung:
                return  # a concurrent run() already stepped down
            if from_rung == "shm":
                # Drop the process backend: segments are unlinked *and* the
                # weight version advanced (in _release_stores_locked) so a
                # future republish can never hand workers a version they
                # think they already have.
                self._shutdown_process_executor_locked()
                self._release_stores_locked()
            elif self._thread_executor is not None:
                self._thread_executor.shutdown(wait=True)
                self._thread_executor = None
            self._rung = to_rung = LADDER[LADDER.index(from_rung) + 1]
        self._health["degrades"].append(f"{from_rung}->{to_rung}")
        warnings.warn(
            f"{self.pool_id}: {from_rung} dispatch failed "
            f"({type(cause).__name__}: {cause}); degrading {from_rung}->{to_rung} "
            "for the remainder of this pool's life",
            DegradeWarning,
            stacklevel=3,
        )

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
            self._tokens = None
        self._active_payload = None
        self._rendezvous = None

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
                self._replica_tokens = None
                self._token_cache = None
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


def pool_for(config: TGAEConfig, workers: int, backend: str) -> WorkerPool:
    """The :class:`WorkerPool` of ``workers`` on ``backend`` that ``config`` asks for.

    The one mapping from a config to a pool: its fault knobs
    (``max_shard_retries``, ``shard_timeout``) come from ``config``.
    """
    return WorkerPool(
        workers,
        backend,
        max_shard_retries=config.max_shard_retries,
        shard_timeout=config.shard_timeout,
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

    The one place that decides how shards run.  When ``pool`` is given (and
    open), dispatch goes through that persistent :class:`WorkerPool` -- its
    worker count and backend govern.  Otherwise ``workers=1`` (or a single
    task) is a plain loop over the live engine -- the reference sequential
    path -- and anything wider runs on an ephemeral pool from
    :func:`pool_for`, torn down before returning.  Either way the result is
    bit-identical because every task's randomness is fixed before dispatch
    (a spawned seed-sequence child, or a row-keyed draw word).
    """
    check_dispatch(workers, backend)
    tasks = list(tasks)
    if pool is not None and not pool.closed:
        return pool.run(engine, kind, tasks)
    if workers == 1 or len(tasks) <= 1:
        return [_run_on(engine, kind, task) for task in tasks]
    with pool_for(engine.config, min(workers, len(tasks)), backend) as ephemeral:
        return ephemeral.run(engine, kind, tasks)
