"""Training-side perf gates: checkpointed attention + data-parallel shards.

PR 3 parallelised *generation*; training remained a single-process loop
whose peak memory is dominated by the O(batch * ego^2) per-edge attention
activations.  This benchmark gates the two training levers that close that
gap, and records the numbers into ``BENCH_training.json``:

* ``bench_training_checkpoint_memory`` -- activation checkpointing
  (``checkpoint_attention=True``) must cut measured peak training memory by
  at least :data:`MEMORY_CUT_FLOOR` while reproducing the plain loss
  trajectory **bit for bit** (checkpointing is exact: the recompute replays
  identical full-shape operations).
* ``bench_training_parallel_speedup`` -- sharded training at ``workers=4``
  vs ``workers=1``.  Bit-identity of the loss/grad-norm trajectory and the
  final weights is asserted always; the wall-clock speedup floor only when
  the machine actually exposes >= 4 cores (set
  ``REPRO_BENCH_REQUIRE_SPEEDUP=1`` to force it).
* ``bench_training_parallel_smoke`` -- the CI gate: workers=2 with
  checkpointing on, bit-identical to the sequential plain-memory run.
* ``bench_training_train_stages`` -- no gate: where a ``fit`` at the e2e
  ``train`` workload's size spends its time (sampling + packing, forward,
  loss, backward, gradient copy, optimiser) and how many minor page faults
  (``ru_minflt``) a fit, a cold ``generate`` and a warm ``generate`` take.
  Page faults show allocator effects that per-stage seconds hide (see
  docs/BENCHMARKS.md).
* ``bench_dtype_tokens_per_sec`` -- the raw-speed kernel gate: training
  throughput (centre temporal nodes per second, "tokens/sec") under the
  ``float32`` production policy must be at least
  :data:`DTYPE_SPEEDUP_FLOOR` times the ``float64`` golden path measured in
  the same process, and the float32 shm parameter segment must be ~half the
  float64 one.  Both are recorded into ``BENCH_training.json`` as the
  tokens/sec trajectory (see docs/BENCHMARKS.md for the schema and the
  re-baselining rule).
"""

import contextlib
import dataclasses
import os
import resource
import time

import numpy as np

from _artifacts import write_bench_artifact
from repro.autograd import Tensor
from repro.core import TGAEGenerator, TGAEModel, fast_config, train_tgae
from repro.core import trainer
from repro.core.parallel import SharedArrayStore, shared_memory_supported
from repro.core.sampler import EgoGraphSampler, TrainingBatch
from repro.datasets import communication_network
from repro.datasets.synthetic import erdos_renyi_temporal

#: Checkpointing must cut peak traced training memory by at least this much.
MEMORY_CUT_FLOOR = 0.40

PARALLEL_WORKERS = 4
SPEEDUP_FLOOR = 1.3

#: Last recorded float32/float64 tokens-per-second ratio at the bench config
#: (the trajectory point this PR lands; absolute tok/s is machine-dependent,
#: the ratio is not, so the ratio is what carries the baseline).
RECORDED_DTYPE_SPEEDUP = 1.55

#: float32 + fused attention must beat the float64 golden path by at least
#: this factor in tokens/sec (same process, interleaved best-of-N timing).
#: This is :data:`RECORDED_DTYPE_SPEEDUP` minus the regression budget,
#: clamped at the 1.3x acceptance minimum of the raw-speed kernel pass.
DTYPE_SPEEDUP_FLOOR = 1.3

#: The float32 parameter segment must stay within this fraction of the
#: float64 one (payload is exactly half; 64-byte alignment padding allows a
#: little slack).
SHM_HALVING_CEILING = 0.6

#: Timing repetitions per dtype.  Repeats of the two policies are
#: interleaved (f64, f32, f64, f32, ...) so drifting background load hits
#: both equally, and the minimum per policy is reported -- timing noise only
#: ever adds wall-clock, so min-of-N is the least biased estimator.
_TIMING_REPEATS = 4


def _available_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without affinity masks
        return os.cpu_count() or 1


def _train(observed, config, workers=1, track_memory=False):
    model = TGAEModel(observed.num_nodes, observed.num_timestamps, config)
    history = train_tgae(
        model, observed, config, workers=workers, track_memory=track_memory
    )
    return history, model.state_dict()


def _assert_same_trajectory(run_a, run_b, label):
    history_a, state_a = run_a
    history_b, state_b = run_b
    assert history_a.losses == history_b.losses, (
        f"{label}: loss trajectories diverged\n"
        f"a={history_a.losses}\nb={history_b.losses}"
    )
    assert history_a.grad_norms == history_b.grad_norms, (
        f"{label}: gradient-norm trajectories diverged"
    )
    for name in state_a:
        assert np.array_equal(state_a[name], state_b[name]), (
            f"{label}: final weights diverged at {name!r}"
        )


def bench_training_checkpoint_memory():
    """Checkpointed attention: >= 40% peak-memory cut, bit-identical losses."""
    observed = communication_network(300, 3000, 5, seed=5)
    base = fast_config(
        epochs=2,
        num_initial_nodes=48,
        neighbor_threshold=20,
        candidate_limit=24,
        num_heads=4,
        hidden_dim=32,
        time_dim=8,
        train_shard_size=48,
        seed=7,
    )
    import dataclasses

    plain = _train(observed, base, track_memory=True)
    checkpointed = _train(
        observed,
        dataclasses.replace(base, checkpoint_attention=True),
        track_memory=True,
    )
    plain_peak = plain[0].peak_memory
    ckpt_peak = checkpointed[0].peak_memory
    cut = 1.0 - ckpt_peak / plain_peak
    print(
        f"\n=== checkpointed attention @ n={observed.num_nodes}, "
        f"batch={base.num_initial_nodes}, th={base.neighbor_threshold} ===\n"
        f"peak plain: {plain_peak / 1e6:6.2f} MB   "
        f"peak checkpointed: {ckpt_peak / 1e6:6.2f} MB   cut: {cut:.1%}\n"
        f"epoch time plain: {np.mean(plain[0].epoch_seconds):.2f}s   "
        f"checkpointed: {np.mean(checkpointed[0].epoch_seconds):.2f}s"
    )
    _assert_same_trajectory(plain, checkpointed, "checkpoint-vs-plain")
    assert cut >= MEMORY_CUT_FLOOR, (
        f"checkpointing cut peak memory by only {cut:.1%} "
        f"({plain_peak} -> {ckpt_peak} B); floor is {MEMORY_CUT_FLOOR:.0%}"
    )
    write_bench_artifact(
        "BENCH_training.json",
        "checkpoint_memory",
        {
            "peak_plain_bytes": int(plain_peak),
            "peak_checkpointed_bytes": int(ckpt_peak),
            "cut_fraction": round(cut, 4),
            "epoch_seconds_plain": round(float(np.mean(plain[0].epoch_seconds)), 4),
            "epoch_seconds_checkpointed": round(
                float(np.mean(checkpointed[0].epoch_seconds)), 4
            ),
            "bit_identical": True,
            "floor": MEMORY_CUT_FLOOR,
        },
    )


def bench_training_parallel_speedup():
    """Sharded training workers=4 vs workers=1: identity always, speed on cores."""
    observed = communication_network(600, 6000, 5, seed=3)
    config = fast_config(
        epochs=6,
        num_initial_nodes=64,
        neighbor_threshold=16,
        candidate_limit=24,
        num_heads=4,
        hidden_dim=32,
        train_shard_size=16,
        seed=9,
    )
    start = time.perf_counter()
    sequential = _train(observed, config, workers=1)
    seq_s = time.perf_counter() - start
    start = time.perf_counter()
    parallel = _train(observed, config, workers=PARALLEL_WORKERS)
    par_s = time.perf_counter() - start
    speedup = seq_s / par_s
    cores = _available_cores()
    print(
        f"\n=== data-parallel training @ n={observed.num_nodes}, "
        f"{config.epochs} epochs, shard={config.train_shard_size} ===\n"
        f"workers=1: {seq_s:6.2f}s   workers={PARALLEL_WORKERS}: {par_s:6.2f}s   "
        f"speedup: {speedup:.2f}x   (cores available: {cores})"
    )
    _assert_same_trajectory(sequential, parallel, "workers-1-vs-4")
    enforced = cores >= PARALLEL_WORKERS or bool(
        os.environ.get("REPRO_BENCH_REQUIRE_SPEEDUP")
    )
    if enforced:
        assert speedup >= SPEEDUP_FLOOR, (
            f"workers={PARALLEL_WORKERS} training speedup {speedup:.2f}x below "
            f"the {SPEEDUP_FLOOR}x floor on {cores} cores"
        )
    else:
        print(
            f"only {cores} core(s) exposed -- speedup floor not asserted "
            "(bit-identity still verified)"
        )
    write_bench_artifact(
        "BENCH_training.json",
        "parallel_speedup",
        {
            "workers": PARALLEL_WORKERS,
            "seconds_workers_1": round(seq_s, 4),
            "seconds_workers_n": round(par_s, 4),
            "speedup": round(speedup, 4),
            "cores": cores,
            "floor_enforced": enforced,
            "bit_identical": True,
        },
    )


def _timed_dtype_runs(observed, configs):
    """Interleaved best-of-N wall-clock per config (one untimed warmup each)."""
    for config in configs.values():
        _train(observed, config)  # warm allocator, BLAS threads, code paths
    seconds = {name: [] for name in configs}
    for _ in range(_TIMING_REPEATS):
        for name, config in configs.items():
            start = time.perf_counter()
            _train(observed, config)
            seconds[name].append(time.perf_counter() - start)
    return seconds


def _param_segment_bytes(observed, config):
    """Shm segment size (bytes) of the model's parameter block under ``config``."""
    model = TGAEModel(observed.num_nodes, observed.num_timestamps, config)
    store = SharedArrayStore(model.state_dict())
    try:
        return int(store.handle.nbytes)
    finally:
        store.close()


def bench_dtype_tokens_per_sec():
    """float32 production policy: >= 1.3x tokens/sec and ~half the shm params."""
    observed = communication_network(600, 6000, 5, seed=3)
    base = fast_config(
        epochs=4,
        num_initial_nodes=64,
        neighbor_threshold=32,
        candidate_limit=32,
        num_heads=4,
        hidden_dim=128,
        time_dim=16,
        embed_dim=96,
        train_shard_size=64,
        seed=9,
    )
    # One centre temporal node consumed per training step: epochs * batch.
    tokens = base.epochs * base.num_initial_nodes
    configs = {
        dtype: dataclasses.replace(base, dtype=dtype)
        for dtype in ("float64", "float32")
    }
    timings = _timed_dtype_runs(observed, configs)
    results = {
        dtype: {
            "seconds": [round(s, 4) for s in seconds],
            "best_seconds": round(min(seconds), 4),
            "tokens_per_sec": [round(tokens / s, 2) for s in seconds],
            "best_tokens_per_sec": round(tokens / min(seconds), 2),
        }
        for dtype, seconds in timings.items()
    }
    speedup = results["float64"]["best_seconds"] / results["float32"]["best_seconds"]
    shm = {}
    if shared_memory_supported():
        for dtype in ("float64", "float32"):
            shm[dtype] = _param_segment_bytes(
                observed, dataclasses.replace(base, dtype=dtype)
            )
    shm_ratio = shm["float32"] / shm["float64"] if shm else None
    print(
        f"\n=== dtype tokens/sec @ n={observed.num_nodes}, "
        f"{base.epochs} epochs x batch={base.num_initial_nodes} "
        f"({tokens} tokens) ===\n"
        f"float64: {results['float64']['best_tokens_per_sec']:7.1f} tok/s   "
        f"float32: {results['float32']['best_tokens_per_sec']:7.1f} tok/s   "
        f"speedup: {speedup:.2f}x\n"
        + (
            f"shm params: float64 {shm['float64']} B, float32 {shm['float32']} B "
            f"(ratio {shm_ratio:.2f})"
            if shm
            else "shm params: shared memory unsupported on this platform"
        )
    )
    assert speedup >= DTYPE_SPEEDUP_FLOOR, (
        f"float32 tokens/sec speedup {speedup:.2f}x below the "
        f"{DTYPE_SPEEDUP_FLOOR}x floor "
        f"(best-of-{_TIMING_REPEATS}: {results['float64']['best_seconds']}s f64 "
        f"vs {results['float32']['best_seconds']}s f32)"
    )
    if shm:
        assert shm_ratio <= SHM_HALVING_CEILING, (
            f"float32 shm parameter segment is {shm_ratio:.2f}x the float64 one; "
            f"ceiling is {SHM_HALVING_CEILING}"
        )
    write_bench_artifact(
        "BENCH_training.json",
        "dtype_tokens_per_sec",
        {
            "tokens": tokens,
            "repeats": _TIMING_REPEATS,
            "per_dtype": results,
            "speedup": round(speedup, 4),
            "speedup_floor": DTYPE_SPEEDUP_FLOOR,
            "recorded_speedup": RECORDED_DTYPE_SPEEDUP,
            "shm_param_bytes": shm or None,
            "shm_ratio": round(shm_ratio, 4) if shm_ratio is not None else None,
            "shm_halving_ceiling": SHM_HALVING_CEILING,
        },
    )


def bench_training_parallel_smoke():
    """CI gate: workers=N + checkpointing reproduce the plain sequential run."""
    workers = int(os.environ.get("REPRO_BENCH_WORKERS", "2"))
    observed = communication_network(120, 900, 4, seed=2)
    base = fast_config(
        epochs=3,
        num_initial_nodes=24,
        candidate_limit=12,
        train_shard_size=6,
        seed=4,
    )
    import dataclasses

    start = time.perf_counter()
    sequential = _train(observed, base, workers=1)
    seq_s = time.perf_counter() - start
    start = time.perf_counter()
    parallel = _train(
        observed,
        dataclasses.replace(base, checkpoint_attention=True),
        workers=workers,
    )
    par_s = time.perf_counter() - start
    print(
        f"\ntraining smoke @ n={observed.num_nodes}: workers=1 plain {seq_s:.2f}s, "
        f"workers={workers} checkpointed {par_s:.2f}s"
    )
    _assert_same_trajectory(sequential, parallel, "smoke")
    write_bench_artifact(
        "BENCH_training.json",
        "smoke",
        {
            "workers": workers,
            "seconds_workers_1": round(seq_s, 4),
            "seconds_workers_n": round(par_s, 4),
            "checkpoint_attention": True,
            "bit_identical": True,
        },
    )


#: Fits timed by ``bench_training_train_stages``; each stage reports its median.
_STAGE_FITS = 3


def _minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


@contextlib.contextmanager
def _stage_clock(seconds):
    """Add the wall-clock of the training stages to ``seconds`` (a dict).

    Wraps the library's stage functions for the duration: a shard's
    sampling + packing (``batch_for_centers`` and ``computation_batch``),
    the model forward, the loss, ``Tensor.backward`` and the whole shard
    (``run_train_shard``, whose remainder is the gradient copy), plus the
    optimiser (``clip_grad_norm`` and ``Adam.step``) outside the shards.
    Nested calls count once, in their outermost stage.
    """
    active = []
    targets = [
        (EgoGraphSampler, "batch_for_centers", "sampling_packing"),
        (TrainingBatch, "computation_batch", "sampling_packing"),
        (TGAEModel, "forward", "forward"),
        (trainer, "tgae_shard_loss", "loss"),
        (Tensor, "backward", "backward"),
        (trainer, "run_train_shard", "shard"),
        (trainer, "clip_grad_norm", "optimiser"),
        (trainer.Adam, "step", "optimiser"),
    ]

    def timed(fn, stage):
        def wrapper(*args, **kwargs):
            if stage in active:
                return fn(*args, **kwargs)
            active.append(stage)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[stage] = seconds.get(stage, 0.0) + time.perf_counter() - start
                active.remove(stage)

        return wrapper

    saved = [(owner, name, getattr(owner, name)) for owner, name, _ in targets]
    try:
        for (owner, name, stage), (_, _, fn) in zip(targets, saved):
            setattr(owner, name, timed(fn, stage))
        yield seconds
    finally:
        for owner, name, fn in saved:
            setattr(owner, name, fn)


def bench_training_train_stages():
    """No gate: per-stage seconds of a fit and minor faults of fit / generate.

    The e2e ``train`` workload's graph and configuration
    (``erdos_renyi_temporal(96, 1920, 5)``, float32, 256 centres, 6 epochs,
    one process), fitted :data:`_STAGE_FITS` times on fresh generators.
    """
    observed = erdos_renyi_temporal(96, 1920, 5, seed=1)
    config = fast_config(
        dtype="float32", embed_cache=True, seed=1, epochs=6, num_initial_nodes=256
    )
    fits, faults = [], {"fit": [], "generate_cold": [], "generate_warm": []}
    for _ in range(_STAGE_FITS):
        generator = TGAEGenerator(config)
        start, before = time.perf_counter(), _minor_faults()
        with _stage_clock({}) as seconds:
            generator.fit(observed)
        seconds["fit"] = time.perf_counter() - start
        faults["fit"].append(_minor_faults() - before)
        before = _minor_faults()
        generator.generate(seed=0)
        faults["generate_cold"].append(_minor_faults() - before)
        for seed in range(1, 4):
            before = _minor_faults()
            generator.generate(seed=seed)
            faults["generate_warm"].append(_minor_faults() - before)
        shard = seconds.pop("shard")
        inner = sum(seconds[k] for k in ("sampling_packing", "forward", "loss", "backward"))
        seconds["gradient_copy"] = shard - inner
        fits.append(seconds)
    stages = {
        stage: round(float(np.median([fit[stage] for fit in fits])), 5)
        for stage in fits[0]
    }
    minor_faults = {
        kind: {"median": int(np.median(counts)), "min": min(counts), "max": max(counts)}
        for kind, counts in faults.items()
    }
    print(
        f"\n=== train stages @ n={observed.num_nodes}, m={observed.num_edges}, "
        f"T={observed.num_timestamps}, {config.epochs} epochs x "
        f"{config.num_initial_nodes} centres (median of {_STAGE_FITS} fits) ===\n"
        + "  ".join(f"{stage} {value * 1e3:.1f} ms" for stage, value in stages.items())
        + "\nminor faults (median): "
        + "  ".join(f"{kind} {value['median']}" for kind, value in minor_faults.items())
    )
    assert stages["fit"] > 0 and all(value >= 0 for value in stages.values())
    write_bench_artifact(
        "BENCH_training.json",
        "train_stages",
        {
            "size": [observed.num_nodes, observed.num_edges, observed.num_timestamps],
            "epochs": config.epochs,
            "centres": config.num_initial_nodes,
            "fits": _STAGE_FITS,
            "seconds_per_fit": stages,
            "minor_faults": minor_faults,
        },
    )
