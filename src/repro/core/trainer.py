"""Data-parallel mini-batch training for TGAE (Sec. IV-E).

Each epoch draws one batch of ``n_s`` centre ego-graphs (the approximate
objective of Eq. 7 - the paper's trade-off knob between quality and speed),
partitions it into fixed-size *shards*, runs forward+backward per shard, and
merges the shard gradients -- in shard order -- into one Adam step with
gradient clipping.

Sharding is what makes training scale on both axes at once:

* **Time**: shards are independent, so ``workers > 1`` fans them out over
  the same process/thread pool the generation engine uses
  (:mod:`repro.core.parallel`).  Every shard owns a spawned
  :class:`~numpy.random.SeedSequence` child driving its ego sampling,
  candidate negatives and reparameterisation noise, and gradients are summed
  in shard order, so the loss/gradient trajectory -- and therefore the final
  weights -- are **bit-identical for every worker count and backend**.
* **Memory**: with ``config.checkpoint_attention`` the TGAT layers free
  their per-edge activations (the O(batch * ego^2) tensors that dominate
  training peak memory) after the forward pass and recompute them during
  backward; checkpointing is exact, so the loss trajectory does not change
  by a single bit.  Smaller ``train_shard_size`` additionally bounds how
  many ego-graphs are ever in flight at once.
"""

from __future__ import annotations

import math
import time
import tracemalloc
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from .. import faults
from ..errors import ConfigError
from ..graph.ego_graph import sample_initial_nodes
from ..graph.temporal_graph import TemporalGraph
from ..optim import Adam, clip_grad_norm, load_gradients
from ..rng import seed_sequence, spawn_streams
from .config import TGAEConfig
from .loss import adjacency_target_rows, tgae_shard_loss
from .model import TGAEModel
from .parallel import BACKENDS, WorkerPool
from .sampler import EgoGraphSampler

#: Default number of shards an epoch batch is split into when
#: ``config.train_shard_size`` is unset.  Fixed (never derived from the
#: worker count) so the partitioning -- and therefore every draw -- is
#: identical no matter how many workers execute the shards.
DEFAULT_TRAIN_SHARDS = 4


@dataclass
class TrainingState:
    """Everything needed to continue a training run exactly where it stopped.

    Captured at the end of every :func:`train_tgae` call (on the returned
    history's ``state``) and persisted by format-v2 checkpoints.  Feeding it
    back via ``train_tgae(..., resume_from=state)`` re-derives the epoch
    seed-stream from the recorded RNG position and warm-starts the optimizer
    from the recorded moments, so a run split into 5+5 epochs is
    bit-identical to an uninterrupted 10-epoch run -- for any worker count,
    backend and dtype (see docs/ARCHITECTURE.md, "Append / warm-start
    lifecycle").
    """

    #: Number of epochs completed so far, across all runs of this lineage.
    epoch: int
    #: Name-keyed :meth:`~repro.optim.base.Optimizer.state_dict` snapshot.
    optimizer: Dict[str, Any]
    #: ``entropy`` of the run's root :class:`~numpy.random.SeedSequence`.
    rng_entropy: int
    #: ``spawn_key`` of the run's root seed sequence.  Together with the
    #: entropy this pins the root exactly; epoch ``i``'s stream is child
    #: ``i`` of the root no matter how the epochs are batched into runs.
    rng_spawn_key: Tuple[int, ...]
    #: Cumulative per-epoch losses across all runs of this lineage.
    losses: List[float] = field(default_factory=list)
    #: Cumulative per-epoch clipped gradient norms, parallel to ``losses``.
    grad_norms: List[float] = field(default_factory=list)


@dataclass
class TrainingHistory:
    """Per-epoch diagnostics collected during :func:`train_tgae`.

    The per-epoch lists cover *this call only*; ``state`` carries the
    cumulative lineage (prior-run epochs included) for checkpointing.
    """

    losses: List[float] = field(default_factory=list)
    grad_norms: List[float] = field(default_factory=list)
    #: Wall-clock seconds per epoch (always recorded).
    epoch_seconds: List[float] = field(default_factory=list)
    #: Peak traced bytes per epoch; zeros unless ``track_memory`` was on.
    peak_memory_bytes: List[int] = field(default_factory=list)
    #: Resume/warm-start handle captured when the run completes.
    state: Optional[TrainingState] = None

    @property
    def final_loss(self) -> Optional[float]:
        """Loss of the last completed epoch (``None`` before any epoch)."""
        return self.losses[-1] if self.losses else None

    @property
    def total_seconds(self) -> float:
        """Total training wall-clock over all epochs."""
        return float(sum(self.epoch_seconds))

    @property
    def peak_memory(self) -> int:
        """Largest per-epoch traced peak (0 when memory was not tracked)."""
        return max(self.peak_memory_bytes, default=0)


@dataclass(frozen=True)
class TrainShardTask:
    """One shard of an epoch's data-parallel fan-out.

    Mirrors :class:`~repro.core.engine.GenerateChunkTask`: index arrays and
    a spawned seed-sequence child, never live graph or model objects.  The
    global loss normalisers (``recon_scale = 1/active_total``,
    ``kl_scale = 1/batch_rows``) ride along so shard losses and gradients
    are additive; ``state`` carries the current weights only when the pool
    reports :attr:`~repro.core.parallel.WorkerPool.needs_inline_state`
    (plain pickled process dispatch).  It stays ``None`` on the in-process
    sequential path (the live model already has the weights), on the thread
    backend (replicas are refreshed from the live model) and under
    shared-memory dispatch (workers reload from the parameter segment).
    """

    index: int
    centers: np.ndarray
    target_rows: Tuple[np.ndarray, ...]
    recon_scale: float
    kl_scale: float
    seed_seq: np.random.SeedSequence
    state: Optional[Dict[str, np.ndarray]] = None


@dataclass(frozen=True)
class TrainShardResult:
    """What one shard reports back: its loss term and gradient sums."""

    index: int
    loss: float
    grads: Dict[str, np.ndarray]


def run_train_shard(engine, task: TrainShardTask) -> TrainShardResult:
    """Forward+backward for one shard; pure given the task.

    Runs in the parent (``workers=1``), on a thread-pool model replica, or
    in a worker process against a rebuilt engine -- identically in all
    three: ego sampling, candidate negatives and reparameterisation noise
    all come from the task's spawned seed-sequence child, and the weights
    are either the live model's (sequential), the bit-equal copy shipped in
    ``task.state``, or -- under shared-memory dispatch, where ``state`` is
    ``None`` -- the bit-equal copy the worker loaded from the version-stamped
    parameter segment.
    """
    model: TGAEModel = engine.model
    config: TGAEConfig = engine.config
    if task.state is not None:
        model.load_state_dict(task.state)
    rng = np.random.default_rng(task.seed_seq)
    sampler = EgoGraphSampler(engine.graph, config, rng)
    batch = sampler.batch_for_centers(task.centers, target_rows=list(task.target_rows))
    computation = batch.computation_batch(config.packed_batches)
    decoded = model(
        computation, sample=True, candidates=batch.candidates, noise_rng=rng
    )
    loss = tgae_shard_loss(
        decoded,
        batch.target_rows,
        kl_weight=config.kl_weight,
        recon_scale=task.recon_scale,
        kl_scale=task.kl_scale,
        candidates=batch.candidates,
    )
    model.zero_grad()
    if loss.requires_grad:
        loss.backward()
    grads = {
        name: param.grad.copy()
        for name, param in model.named_parameters()
        if param.grad is not None
    }
    return TrainShardResult(index=task.index, loss=loss.item(), grads=grads)


class _EpochShardCollector:
    """Streams shard results into the merged gradient as they arrive.

    Fed by :meth:`WorkerPool.run` in *shard order* (the pool awaits its
    per-shard futures in task-submission order), so
    while worker K computes shard K the parent is already summing shard
    K-1's gradients -- the merge overlaps shard compute instead of waiting
    for the full result list.  The accumulation is bit-identical to
    ``merge_gradient_shards`` over the complete list: first occurrence of a
    parameter copies, later occurrences add left-to-right, and the loss sum
    runs in the same order as ``sum(result.loss for result in results)``.
    """

    __slots__ = ("loss", "grads")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Drop everything accumulated so far (pool degrade re-runs all shards)."""
        self.loss: float = 0.0
        self.grads: Dict[str, np.ndarray] = {}

    def add(self, result: TrainShardResult) -> None:
        """Fold one shard's loss and gradients into the running totals."""
        self.loss += result.loss
        for name, grad in result.grads.items():
            if name in self.grads:
                self.grads[name] = self.grads[name] + grad
            else:
                self.grads[name] = grad.copy()


def _resolve_shard_size(config: TGAEConfig) -> int:
    if config.train_shard_size is not None:
        return config.train_shard_size
    return max(1, math.ceil(config.num_initial_nodes / DEFAULT_TRAIN_SHARDS))


def train_tgae(
    model: TGAEModel,
    graph: TemporalGraph,
    config: Optional[TGAEConfig] = None,
    rng: Optional[np.random.Generator] = None,
    verbose: bool = False,
    workers: Optional[int] = None,
    backend: Optional[str] = None,
    pool: Optional[WorkerPool] = None,
    track_memory: bool = False,
    resume_from: Optional[TrainingState] = None,
    checkpoint_every: Optional[int] = None,
    checkpoint_path: Optional[Any] = None,
) -> TrainingHistory:
    """Optimise ``model`` on ``graph`` with the Eq. 7 mini-batch objective.

    Parameters
    ----------
    model, graph, config:
        The model to optimise, the observed graph, and the hyper-parameters
        (``None``: the model's own config).
    rng:
        Optional generator seeding the run (its next draw becomes the root
        of every epoch/shard stream).  ``None`` uses the named
        ``(seed, "tgae", "trainer")`` stream -- the reproducible default.
    verbose:
        Print one line per epoch (loss, gradient norm, wall-clock and, when
        tracked, peak memory).
    workers, backend:
        Data-parallel knobs, defaulting to ``config.workers`` /
        ``config.parallel_backend``.  Shard partitioning and per-shard
        streams never depend on them, so the training trajectory is
        bit-identical for every worker count and backend.
    pool:
        A caller-owned persistent :class:`~repro.core.parallel.WorkerPool`
        to dispatch shards through.  ``None`` with ``workers > 1`` creates
        a private pool for the run and tears it down afterwards (the pool
        persists *across epochs* either way -- that is what amortises
        process startup).
    track_memory:
        Record per-epoch tracemalloc peaks into the history.  Starts
        tracing if it is not already running (and stops it afterwards);
        when a caller already traces, the caller's peak counters are reset
        every epoch.
    resume_from:
        A :class:`TrainingState` from a previous run (``history.state`` or a
        format-v2 checkpoint).  The run then executes ``config.epochs``
        *additional* epochs: the root seed sequence is rebuilt from the
        recorded RNG position and epoch ``i`` of the lineage always consumes
        child stream ``i``, and the optimizer restores its moments and step
        count -- so a resumed 5+5 split is bit-identical to a straight
        10-epoch run.  Mutually exclusive with ``rng`` (the recorded
        position already pins the streams).  The model must already hold
        the weights the state was captured against (load the checkpoint
        first); ``resume_from`` itself carries only optimizer/RNG state.
    checkpoint_every, checkpoint_path:
        Crash-safe autosave: every ``checkpoint_every`` completed epochs the
        full format-v2 checkpoint (weights, optimizer moments, RNG position,
        loss lineage) is written *atomically* -- to a temp file first, then
        an ``os.replace`` -- at ``checkpoint_path``, so a kill mid-fit can
        never leave a torn file.  Reloading the checkpoint and resuming via
        ``resume_from`` for the remaining epochs reproduces the final
        weights bit for bit.  Both must be given together; the cadence must
        be >= 1.

    Returns the loss/gradient/etc. history so callers (and tests) can verify
    the optimisation actually made progress; ``history.state`` is the
    resume/warm-start handle for the next run.
    """
    from .engine import GenerationEngine

    config = config if config is not None else model.config
    workers = int(workers if workers is not None else config.workers)
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    backend = backend if backend is not None else config.parallel_backend
    if backend not in BACKENDS:
        raise ConfigError(
            f"parallel backend must be one of {BACKENDS}, got {backend!r}"
        )
    if (checkpoint_every is None) != (checkpoint_path is None):
        raise ConfigError(
            "checkpoint_every and checkpoint_path must be given together"
        )
    if checkpoint_every is not None and checkpoint_every < 1:
        raise ConfigError(
            f"checkpoint_every must be >= 1, got {checkpoint_every}"
        )
    shard_size = _resolve_shard_size(config)
    if resume_from is not None:
        if rng is not None:
            raise ConfigError(
                "pass either rng or resume_from, not both: a resumed run re-derives "
                "its streams from the recorded RNG position"
            )
        start_epoch = int(resume_from.epoch)
        if start_epoch < 0:
            raise ConfigError(f"resume_from.epoch must be >= 0, got {start_epoch}")
        root = np.random.SeedSequence(
            entropy=int(resume_from.rng_entropy),
            spawn_key=tuple(int(word) for word in resume_from.rng_spawn_key),
        )
    elif rng is None:
        start_epoch = 0
        root = seed_sequence(config.seed, "tgae", "trainer")
    else:
        start_epoch = 0
        root = np.random.SeedSequence(int(rng.integers(np.iinfo(np.int64).max)))
    rng_entropy = int(root.entropy)
    rng_spawn_key = tuple(int(word) for word in root.spawn_key)
    total_epochs = start_epoch + config.epochs
    # Spawning the full lineage and slicing makes epoch i consume child
    # stream i of the root regardless of how the epochs were batched into
    # runs -- the resume bit-identity contract.
    epoch_seqs = spawn_streams(root, total_epochs)[start_epoch:]

    optimizer = Adam(model.named_parameters(), lr=config.learning_rate)
    if resume_from is not None:
        optimizer.load_state_dict(resume_from.optimizer)
    history = TrainingHistory()
    engine = GenerationEngine(model, graph, config)
    own_pool = pool is None and workers > 1
    if own_pool:
        pool = WorkerPool(
            workers,
            backend,
            shm_dispatch=config.shm_dispatch,
            max_shard_retries=config.max_shard_retries,
            shard_timeout=config.shard_timeout,
        )
    prior_losses = list(resume_from.losses) if resume_from is not None else []
    prior_norms = list(resume_from.grad_norms) if resume_from is not None else []

    def capture_state(epochs_done: int) -> TrainingState:
        """The lineage state as of ``epochs_done`` completed epochs."""
        return TrainingState(
            epoch=epochs_done,
            optimizer=optimizer.state_dict(),
            rng_entropy=rng_entropy,
            rng_spawn_key=rng_spawn_key,
            losses=prior_losses + list(history.losses),
            grad_norms=prior_norms + list(history.grad_norms),
        )

    started_tracing = False
    if track_memory and not tracemalloc.is_tracing():
        tracemalloc.start()
        started_tracing = True
    model.train()
    try:
        for offset, epoch_seq in enumerate(epoch_seqs):
            epoch = start_epoch + offset
            # Nemesis hook: an armed "epoch" rule (e.g. a simulated mid-fit
            # kill) fires here, after the previous epoch's checkpoint.
            faults.check("epoch", index=epoch)
            tick = time.perf_counter()
            if track_memory:
                tracemalloc.reset_peak()
            # One centre stream and one shard root per epoch, both spawned
            # from the run root -- execution order can never leak in.
            center_seq, shard_root = epoch_seq.spawn(2)
            centers = sample_initial_nodes(
                graph,
                config.num_initial_nodes,
                np.random.default_rng(center_seq),
                uniform=config.uniform_initial_sampling,
            )
            targets = adjacency_target_rows(graph.src, graph.dst, graph.t, centers)
            active_total = sum(1 for row in targets if np.asarray(row).size)
            recon_scale = (1.0 / active_total) if active_total else 0.0
            kl_scale = 1.0 / centers.shape[0]
            starts = list(range(0, centers.shape[0], shard_size))
            children = spawn_streams(shard_root, len(starts))
            pooled = (
                pool is not None
                and not pool.closed
                and pool.workers > 1
                and len(starts) > 1
            )
            # Weights ride inline in the task messages only when the pool
            # has no cheaper channel: under shared-memory dispatch they live
            # in the parameter segment, and thread-backend replicas are
            # refreshed from the live model.
            inline_state = pooled and pool.needs_inline_state
            state = model.state_dict() if inline_state else None
            tasks = [
                TrainShardTask(
                    index=i,
                    centers=centers[start : start + shard_size],
                    target_rows=tuple(targets[start : start + shard_size]),
                    recon_scale=recon_scale,
                    kl_scale=kl_scale,
                    seed_seq=children[i],
                    state=state,
                )
                for i, start in enumerate(starts)
            ]
            # Deterministic merge, overlapped with compute: the collector
            # receives results in shard order as workers finish, so the
            # gradient sum for shard K-1 happens while shard K still runs.
            collector = _EpochShardCollector()
            if pooled:
                pool.run(engine, "train", tasks, collector=collector)
            else:
                for task in tasks:
                    collector.add(run_train_shard(engine, task))
            load_gradients(model.named_parameters(), collector.grads)
            loss_value = float(collector.loss)
            grad_norm = clip_grad_norm(model.parameters(), config.grad_clip)
            optimizer.step()
            history.losses.append(loss_value)
            history.grad_norms.append(grad_norm)
            history.epoch_seconds.append(time.perf_counter() - tick)
            peak = tracemalloc.get_traced_memory()[1] if track_memory else 0
            history.peak_memory_bytes.append(int(peak))
            if checkpoint_every is not None and (offset + 1) % checkpoint_every == 0:
                from .persistence import save_training_checkpoint

                save_training_checkpoint(
                    checkpoint_path, model, graph, config, capture_state(epoch + 1)
                )
            if verbose:
                memory = (
                    f"  peak={peak / 1e6:.1f}MB" if track_memory else ""
                )
                print(
                    f"[tgae] epoch {epoch + 1}/{total_epochs}  "
                    f"loss={loss_value:.4f}  grad_norm={grad_norm:.3f}  "
                    f"{history.epoch_seconds[-1]:.2f}s{memory}"
                )
    finally:
        # An epoch that raises must not leak training state: the model goes
        # back to eval mode, tracing we started stops, and a pool we created
        # is torn down (a caller-owned pool is returned untouched).
        model.eval()
        if started_tracing:
            tracemalloc.stop()
        if own_pool and pool is not None:
            pool.close()
    history.state = capture_state(total_epochs)
    return history
