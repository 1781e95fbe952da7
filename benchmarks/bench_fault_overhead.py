"""No-fault overhead gate for the fault-tolerance layer.

Every shard of a :class:`repro.core.parallel.WorkerPool` dispatch goes
through per-shard futures with retry/timeout bookkeeping, and
:func:`repro.faults.check` sits on every shard's hot path.  Both must stay
cheap when nothing goes wrong:

* ``bench_fault_overhead`` -- the absolute dispatch cost per shard: 256
  empty :class:`~repro.core.engine.TopKChunkTask` shards (each returns at
  once, so the time is the pool's own: submit, futures bookkeeping, worker
  trampoline with its fault check, result pickling) on a warm 2-worker
  process pool with retries live (``max_shard_retries=2``).  The minimum
  over :data:`REPEATS` repeats is gated at :data:`SHARD_CEILING_US`
  microseconds per shard.
* ``bench_fault_check_disarmed`` -- a disarmed ``faults.check`` call is a
  single global-flag read; its cost is recorded and gated at
  :data:`CHECK_CEILING_NS` nanoseconds.

Results land in the ``fault_overhead`` section of ``BENCH_dispatch.json``
so future PRs can diff the trend instead of re-deriving it from logs.
"""

import os
import time

import numpy as np

from _artifacts import write_bench_artifact
from repro import faults
from repro.core import TGAEGenerator, TopKChunkTask, WorkerPool, fast_config

#: Empty shards per timed dispatch.
SHARDS = 256

#: Ceiling on the dispatch cost of one empty shard, in microseconds.
#: Measured 157-180 us/shard (min of 7, three runs) on a 2-vCPU x86
#: container, shm rung, when the gate was set; the ceiling leaves ~3.5x
#: headroom for slower shared CI runners, whose scheduler noise inflates
#: even the minimum.
SHARD_CEILING_US = 600

#: A disarmed ``faults.check`` must stay below this many nanoseconds per
#: call (measured ~60ns on the reference container; the gate is generous
#: because shared CI runners jitter).
CHECK_CEILING_NS = 1_000

#: Timed repeats of the dispatch.  The *minimum* is gated: on a shared
#: runner it is the estimator least contaminated by scheduler noise, and
#: the systematic cost of the dispatch bookkeeping is what survives in it.
REPEATS = 7


def bench_fault_overhead():
    """Dispatch cost per empty shard on a warm pool, retries live: gated."""
    from repro.datasets import communication_network

    workers = int(os.environ.get("REPRO_BENCH_WORKERS", "2"))
    observed = communication_network(60, 300, 4, seed=2)
    config = fast_config(epochs=1, num_initial_nodes=16, candidate_limit=8, seed=4)
    engine = TGAEGenerator(config).fit(observed).engine()
    assert not faults.active(), "fault rules must be disarmed for this gate"
    empty = np.empty(0, dtype=np.int64)
    tasks = [
        TopKChunkTask(index=i, node_ids=empty, timestamp=0, k=1, seed_seq=child)
        for i, child in enumerate(np.random.SeedSequence(0).spawn(SHARDS))
    ]

    times = []
    with WorkerPool(workers, backend="process", max_shard_retries=2) as pool:
        pool.run(engine, "topk", tasks)  # warm workers + segments
        for _ in range(REPEATS):
            start = time.perf_counter()
            results = pool.run(engine, "topk", tasks)
            times.append(time.perf_counter() - start)
        health = pool.health

    assert len(results) == SHARDS and all(r[0].size == 0 for r in results)
    assert health["retries"] == 0 and health["degrades"] == [], (
        f"no-fault run recorded incidents: {health}"
    )
    per_shard_us = min(times) / SHARDS * 1e6
    print(
        f"\n=== dispatch overhead: {SHARDS} empty shards, workers={workers}, "
        f"rung={health['rung']}, min of {REPEATS} ===\n"
        f"{per_shard_us:7.1f} us/shard (ceiling {SHARD_CEILING_US} us)"
    )
    assert per_shard_us <= SHARD_CEILING_US, (
        f"dispatch costs {per_shard_us:.1f} us per empty shard; "
        f"ceiling is {SHARD_CEILING_US} us"
    )
    write_bench_artifact(
        "BENCH_dispatch.json",
        "fault_overhead",
        {
            "workers": workers,
            "shards": SHARDS,
            "repeats": REPEATS,
            "rung": health["rung"],
            "us_per_shard": round(per_shard_us, 1),
            "ceiling_us": SHARD_CEILING_US,
        },
    )


def bench_fault_check_disarmed():
    """A disarmed faults.check is one global read -- nanoseconds, gated."""
    faults.clear()
    calls = 200_000
    check = faults.check
    start = time.perf_counter()
    for _ in range(calls):
        check("shard", index=3, attempt=0)
    per_call_ns = (time.perf_counter() - start) / calls * 1e9
    print(
        f"\ndisarmed faults.check: {per_call_ns:.0f} ns/call "
        f"(ceiling {CHECK_CEILING_NS} ns)"
    )
    assert per_call_ns <= CHECK_CEILING_NS, (
        f"disarmed faults.check costs {per_call_ns:.0f}ns; "
        f"ceiling {CHECK_CEILING_NS}ns"
    )
    write_bench_artifact(
        "BENCH_dispatch.json",
        "fault_check_disarmed",
        {
            "calls": calls,
            "ns_per_call": round(per_call_ns, 1),
            "ceiling_ns": CHECK_CEILING_NS,
        },
    )
