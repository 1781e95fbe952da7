"""End-to-end benchmark of the TGAE library: one workload per run.

    python3 benchmarks/e2e/run.py --workload sparse --seed 0 --trace 0
    python3 benchmarks/e2e/run.py --all --seed 0

The load is a closed loop: one client in one process calls the public
library API (``TGAEGenerator.fit/generate/score_topk/update`` and
``metrics.streaming.streaming_evaluate``) one operation at a time and checks
every output.  A run is a fixed number of rounds, each on a freshly fitted
generator, and a round repeats each operation a fixed number of times
(``RUN``).  Timings are medians over all rounds, each sample scaled to the
reference host's speed (``HostSpeed``).  Before it exits, the run stops and
waits for every process it started.

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json`` with
tracing off.  ``--trace 1`` runs a shorter round (``TRACED``) three times in
one process: a discarded warm-up pass, an untraced pass and a traced pass
(see ``tracing.py``); it checks that all three produce bitwise the same
outputs and prints every per-layer metric.  An operation that raises or
fails a check counts as failed; a raise also ends the run.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the run record (and, traced, the spans) is also
written under ``--out``.
"""

from __future__ import annotations

import os
import sys
import time

_START = time.perf_counter()
# One BLAS thread per process: a run then never uses more threads than its
# processes (one client, plus two pool workers on the pooled workload).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from multiprocessing import resource_tracker  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, List, Optional  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import repro  # noqa: E402

if Path(repro.__file__).resolve().parents[1] != SRC.resolve():
    raise SystemExit(f"run.py: imported repro from {repro.__file__}, not from {SRC}")

from repro.core import TGAEGenerator, fast_config  # noqa: E402
from repro.datasets.synthetic import erdos_renyi_temporal  # noqa: E402
from repro.metrics import streaming  # noqa: E402

from tracing import Tracer  # noqa: E402
from workloads import SCALES, WORKLOADS, Workload, at_scale  # noqa: E402

#: ``score_topk`` width.
TOP_K = 8


@dataclass(frozen=True)
class Counts:
    """How many rounds a session runs, and how often a round repeats each operation.

    A round fits a fresh generator (with a fresh pool on the pooled
    workload), so its first ``generate`` is cold, then runs every other
    operation on it.  Every round starts from the same seed and, its ingest
    batches aside, must reproduce the first round's outputs, so later
    rounds only add timing samples, and the samples of every metric spread
    over the whole run.
    ``rescores`` are the ``score_topk`` calls after a round's first.
    """

    rounds: int
    warm: int
    rescores: int
    ingests: int
    evaluations: int


#: An untraced run.  The counts are fixed, so every run and every commit
#: measures the same operations on the same graph sizes.
RUN = Counts(rounds=5, warm=8, rescores=8, ingests=2, evaluations=4)
#: An untraced run at ``--scale tiny``: every operation and check, few repeats.
TINY_RUN = Counts(rounds=2, warm=3, rescores=3, ingests=2, evaluations=3)
#: Each pass of a traced run.  Its outputs are a prefix of an untraced
#: run's first round, and only this prefix enters a session's fingerprint.
TRACED = Counts(rounds=1, warm=3, rescores=3, ingests=2, evaluations=3)


def load_spec() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def setup(workload: Workload, seed: int):
    """Build the seeded input graph and a first generator."""
    n, m, T = workload.size
    return erdos_renyi_temporal(n, m, T, seed=seed), new_generator(workload, seed)


def new_generator(workload: Workload, seed: int) -> TGAEGenerator:
    """An unfitted generator for ``workload``, its pool opened if pooled."""
    config = fast_config(
        dtype="float32", embed_cache=True, seed=seed, epochs=workload.epochs,
        **workload.config,
    )
    generator = TGAEGenerator(config)
    if workload.pooled:
        generator.worker_pool()
    return generator


def ingest_batch(seed: int, batch: int, n: int, T: int, count: int):
    """``count`` uniformly random new edges, the ``batch``-th ingest batch of a session."""
    rng = np.random.default_rng([seed, 1, batch])
    src = rng.integers(0, n, size=count)
    dst = rng.integers(0, n, size=count)
    dst = np.where(src == dst, (dst + 1) % n, dst)
    return src, dst, rng.integers(0, T, size=count)


def graph_digest(graph) -> str:
    """SHA-256 over the graph's ``(src, dst, t)`` triples in sorted order."""
    triples = np.stack([graph.src, graph.dst, graph.t], axis=1).astype(np.int64)
    triples = triples[np.lexsort(triples.T[::-1])]
    return hashlib.sha256(triples.tobytes()).hexdigest()


def topk_digest(scores) -> str:
    digest = hashlib.sha256()
    for array in (scores.node, scores.timestamp, scores.target, scores.score):
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


# ----------------------------------------------------------------------
# The closed-loop client
# ----------------------------------------------------------------------
class Aborted(Exception):
    """An operation raised; the client recorded it and the run stops."""


class Client:
    """Runs operations one at a time, times them and records failed ones."""

    def __init__(
        self, tracer: Optional[Tracer] = None, speed: Optional[HostSpeed] = None
    ) -> None:
        self.tracer = tracer
        self.speed = speed
        self.times: Dict[str, List[float]] = {}
        #: The host's slowdown around each sample of ``times`` (with ``speed``).
        self.slowdowns: Dict[str, List[float]] = {}
        self.attempted = 0
        self.failures: List[str] = []
        self._failed_ops: set = set()
        #: Digest of the outputs of the ``TRACED`` prefix of a session.
        self.fingerprint = hashlib.sha256()

    def run(self, kind: str, fn, *args, **kwargs):
        self.attempted += 1
        context = self.tracer.op(kind) if self.tracer is not None else nullcontext()
        start = time.perf_counter()
        try:
            with context:
                result = fn(*args, **kwargs)
        except Exception as error:
            traceback.print_exc()
            self.check(False, f"{kind} raised {type(error).__name__}: {error}")
            raise Aborted(kind) from error
        self.times.setdefault(kind, []).append(time.perf_counter() - start)
        if self.speed is not None:
            self.slowdowns.setdefault(kind, []).append(self.speed.around())
        return result

    def reference_times(self) -> Dict[str, List[float]]:
        """``times`` with each sample divided by the host's slowdown around it."""
        return {
            kind: [t / s for t, s in zip(samples, self.slowdowns[kind])]
            for kind, samples in self.times.items()
        }

    def check(self, ok: bool, message: str) -> None:
        """Count the latest operation as failed unless ``ok``."""
        if not ok:
            self.failures.append(message)
            self._failed_ops.add(self.attempted)

    @property
    def failed(self) -> int:
        return len(self._failed_ops)

    def generated(self, graph, expected_edges: int) -> str:
        self.check(
            graph.num_edges == expected_edges,
            f"generate returned {graph.num_edges} edges, observed has {expected_edges}",
        )
        return graph_digest(graph)

    def scored(self, scores, k: int) -> str:
        keys = scores.node * np.int64(1 << 32) + scores.timestamp
        per_row = np.unique(keys, return_counts=True)[1]
        self.check(
            scores.nnz > 0
            and int(per_row.max()) <= k
            and bool(np.all(np.isfinite(scores.score)))
            and bool(np.all((scores.score > 0) & (scores.score <= 1))),
            "score_topk rows must hold at most k finite scores in (0, 1]",
        )
        return topk_digest(scores)


def run_round(
    client: Client,
    workload: Workload,
    seed: int,
    graph,
    generator: TGAEGenerator,
    counts: Counts,
    index: int,
    first: Optional[List[str]],
) -> Dict[str, Any]:
    """Round ``index`` on an unfitted generator: fit, generate, score, ingest, evaluate.

    ``first`` holds the output digests of the session's first round, which
    this round must reproduce one by one (ingests aside); it is ``None`` in
    the first round, whose ``TRACED`` prefix feeds the client's fingerprint
    instead.  Returns this round's digests and what the metrics need
    besides the client's timings.
    """
    n, _, T = workload.size
    base = 1000 * seed
    outputs: List[str] = []

    def keep(label: str, digest: str, traced: bool = True) -> None:
        if first is not None:
            client.check(digest == first[len(outputs)], f"{label} differs from the first round's")
        elif traced:
            client.fingerprint.update(digest.encode())
        outputs.append(digest)

    client.run("fit", generator.fit, graph)
    losses = list(generator.history.losses)
    keep("the loss curve", hashlib.sha256(np.asarray(losses).tobytes()).hexdigest())

    cold = client.run("generate_cold", generator.generate, seed=base)
    cold_digest = client.generated(cold, graph.num_edges)
    encoded_cold = generator.cache_stats()["encoded_rows"]
    keep("the cold generate", cold_digest)
    samples = [cold]
    for i in range(counts.warm):
        warm = client.run("generate_warm", generator.generate, seed=base + i)
        digest = client.generated(warm, graph.num_edges)
        if i == 0:
            client.check(digest == cold_digest, "first warm generate differs from the cold one")
            continue
        if i < TRACED.warm:
            samples.append(warm)
        keep(f"warm generate {i}", digest, traced=i < TRACED.warm)
    if workload.pooled:
        # Timed under its own kind, which no metric reads.
        sequential = client.run("check", generator.generate, seed=base, workers=1)
        client.check(
            client.generated(sequential, graph.num_edges) == cold_digest,
            "generate with workers=1 differs from the pooled generate",
        )
    # The first score_topk also encodes the requested rows no generate
    # needed; how many depends on the seed, so only the repeats, which
    # decode the same rows every time, make the score_topk_s samples.
    stamps = list(range(0, T, workload.topk_stride))
    scores = client.run("score_topk_first", generator.score_topk, TOP_K, timestamps=stamps)
    scores_digest = client.scored(scores, TOP_K)
    keep("the score_topk", scores_digest)
    for _ in range(counts.rescores):
        scores = client.run("score_topk", generator.score_topk, TOP_K, timestamps=stamps)
        client.check(
            client.scored(scores, TOP_K) == scores_digest,
            "a repeated score_topk differs from the first",
        )

    # How long an ingest takes depends on how many rows its batch dirties,
    # which depends on where the batch lands.  So the batches are 5% of m,
    # not 1% (on sparse the dirtied rows had a quartile spread of 0.31 over
    # ten seeds at 1%, 0.075 at 5%), and every round appends batches of its
    # own, so that a run's median is taken over many of them.  Their outputs
    # therefore differ from round to round.
    count = max(1, graph.num_edges // 20)
    for cycle in range(counts.ingests):
        batch = index * counts.ingests + cycle
        edges = ingest_batch(seed, batch, n, T, count)
        before = generator.observed.num_edges
        fresh = client.run("ingest", ingest, generator, edges, base + 100 + batch)
        after = generator.observed.num_edges
        client.check(after == before + count, f"ingest grew the graph by {after - before}")
        digest = client.generated(fresh, after)
        if first is None and cycle < TRACED.ingests:
            client.fingerprint.update(digest.encode())

    quality = []
    for i in range(counts.evaluations):
        sample = samples[i % len(samples)]
        errors = client.run("evaluate", streaming.streaming_evaluate, graph, sample)
        values = np.asarray(list(errors.values()), dtype=np.float64)
        client.check(
            bool(np.all(np.isfinite(values))), "streaming_evaluate returned a non-finite error"
        )
        if i < len(samples):
            quality.append(float(values.mean()))
        keep(f"evaluation {i}", hashlib.sha256(values.tobytes()).hexdigest(),
             traced=i < len(samples))

    pool = generator.worker_pool() if workload.pooled else None
    return {
        "outputs": outputs,
        "losses": losses,
        "quality": quality,
        "active_keys": int(np.unique(graph.src * np.int64(T) + graph.t).size),
        "encoded_cold": int(encoded_cold),
        "cache": generator.cache_stats(),
        "cache_bytes": int(
            sum(a.nbytes for a in generator.engine().cache.share_arrays().values())
        ),
        "pool": pool.health if pool is not None else None,
    }


def ingest(generator: TGAEGenerator, edges, seed: int):
    """Append observations without training, then draw a fresh sample."""
    generator.update(edges, epochs=0)
    return generator.generate(seed=seed)


# ----------------------------------------------------------------------
# Host speed
# ----------------------------------------------------------------------
#: Seconds of one :func:`calibrate` sample on the reference host: about the
#: median of 10,000 samples taken in runs of this benchmark on a 2-vCPU
#: virtual machine (Intel Xeon, 2.1 GHz) on a shared host.
CALIBRATION_S = 0.015

_CAL_RNG = np.random.default_rng(0)
_CAL_KEYS = _CAL_RNG.integers(0, 20_000, size=20_000)
_CAL_VALUES = _CAL_RNG.random(20_000)


def calibrate() -> float:
    """Seconds of a fixed NumPy kernel: gathers, sorts and de-duplications of 20k values."""
    start = time.perf_counter()
    for _ in range(3):
        order = np.argsort(_CAL_VALUES[_CAL_KEYS], kind="stable")
        np.unique(_CAL_KEYS[order])
    return time.perf_counter() - start


class HostSpeed:
    """How much slower than the reference host this one ran around each timed interval.

    A shared host runs everything up to twice as slow for seconds or
    minutes at a time.  The calibration kernel slows with the library's
    operations: timed right around them, the ratio of a warm ``generate``
    to it stayed within 0.80-1.11 while the ``generate`` itself took from 9
    to 20 ms.  So every time metric is reported at reference
    speed: each sample divided by the slowdown around it, the mean of the
    calibration samples taken right before and right after it, over
    ``CALIBRATION_S``.  Calibration runs between operations only, when no
    pool worker has work.
    """

    def __init__(self) -> None:
        self.last = calibrate()
        self.samples = [self.last]

    def around(self) -> float:
        """The slowdown over the interval since the previous sample."""
        before, self.last = self.last, calibrate()
        self.samples.append(self.last)
        return (before + self.last) / (2 * CALIBRATION_S)


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def end_to_end(
    workload: Workload,
    times: Dict[str, List[float]],
    setup_samples: List[float],
    outcome: Dict[str, Any],
) -> Dict[str, float]:
    losses = outcome["losses"]
    tail = losses[-max(1, len(losses) // 10):]
    median = statistics.median
    return {
        "setup_s": median(setup_samples),
        "train_centres_per_s": (
            workload.epochs * workload.config["num_initial_nodes"] / median(times["fit"])
        ),
        "final_loss": float(np.mean(tail)),
        "generate_cold_s": median(times["generate_cold"]),
        "generate_warm_s": median(times["generate_warm"]),
        "score_topk_s": median(times["score_topk"]),
        "ingest_s": median(times["ingest"]),
        "evaluate_s": median(times["evaluate"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


#: Span aggregates a per-layer metric name may end in.
SPAN_FIELDS = {"calls": "calls", "self_s": "self_s", "total_s": "total_s",
               "rows": "count", "egos": "count"}


def per_layer(
    names: List[str], tracer: Tracer, outcome: Dict[str, Any], overhead: float
) -> Dict[str, float]:
    cache = outcome["cache"]
    health = outcome["pool"] or {}
    counters = {
        "core.embed_cache.encoded_rows": cache["encoded_rows"],
        "core.embed_cache.hit_rows": cache["hit_rows"],
        "core.embed_cache.invalidated_rows": cache["invalidated_rows"],
        "core.embed_cache.useful_ratio": outcome["active_keys"] / max(outcome["encoded_cold"], 1),
        "core.embed_cache.bytes": outcome["cache_bytes"],
        "core.parallel.runs": health.get("runs", 0),
        "core.parallel.retries": health.get("retries", 0),
        "core.parallel.degrades": len(health.get("degrades", [])),
        "core.parallel.embed_publishes": health.get("embed_publishes", 0),
        "core.parallel.embed_updates": health.get("embed_updates", 0),
        # Pool workers are the only children a traced run starts and waits for.
        "core.parallel.worker_peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0 if health else 0.0
        ),
        "metrics.streaming.quality_err": float(np.mean(outcome["quality"])),
        "trace.coverage": min(tracer.coverage()),
        "trace.overhead": overhead,
    }
    metrics = {}
    for name in names:
        if name in counters:
            metrics[name] = float(counters[name])
            continue
        span, _, field = name.rpartition(".")
        if field not in SPAN_FIELDS:
            raise KeyError(f"no source for per-layer metric {name!r}")
        metrics[name] = float(tracer.total(span, SPAN_FIELDS[field]))
    return metrics


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def probe_setup(args) -> float:
    """Set-up time of a fresh process running only the set-up."""
    completed = subprocess.run(
        [sys.executable, str(Path(__file__)), "--workload", args.workload,
         "--seed", str(args.seed), "--scale", args.scale, "--setup-probe"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(json.loads(completed.stdout.strip().splitlines()[-1])["setup_s"])


def run_untraced(args, workload: Workload, spec, clients: List[Client]) -> Dict[str, Any]:
    graph, generator = setup(workload, args.seed)
    setup_samples = [time.perf_counter() - _START]
    speed = HostSpeed()
    setup_slowdowns = [speed.last / CALIBRATION_S]
    client = Client(speed=speed)
    clients.append(client)
    counts = RUN if args.scale == "full" else TINY_RUN
    start = time.perf_counter()
    outcomes: List[Dict[str, Any]] = []
    for index in range(counts.rounds):
        if index:
            generator = new_generator(workload, args.seed)
        first = outcomes[0]["outputs"] if outcomes else None
        try:
            outcomes.append(
                run_round(client, workload, args.seed, graph, generator, counts, index, first)
            )
        finally:
            generator.close_pool()
        if index % 2:
            # A fresh process times the set-up after every other round, so
            # that the set-up samples, like the operations', spread over the
            # run; after every round they took a sixth of it.
            setup_samples.append(probe_setup(args))
            setup_slowdowns.append(speed.around())
    measured = time.perf_counter() - start
    raw = end_to_end(workload, client.times, setup_samples, outcomes[0])
    metrics = end_to_end(
        workload,
        client.reference_times(),
        [t / s for t, s in zip(setup_samples, setup_slowdowns)],
        outcomes[0],
    )
    return {
        "metrics": {m["name"]: metrics[m["name"]] for m in spec["end_to_end"]},
        "raw_metrics": raw,
        "calibration": speed.samples,
        "measured_s": measured,
        "samples": client.times,
        "slowdowns": client.slowdowns,
        "setup_samples": setup_samples,
        "setup_slowdowns": setup_slowdowns,
        "quality_err": float(np.mean(outcomes[0]["quality"])),
    }


def run_traced(args, workload: Workload, spec, clients: List[Client]) -> Dict[str, Any]:
    # The first pass only warms the process (imports, allocator, page
    # cache), so that neither measured pass is the process's first; its
    # outputs must match the others' all the same.
    outcome = None
    for traced in (False, False, True):
        tracer = Tracer() if traced else None
        graph, generator = setup(workload, args.seed)
        client = Client(tracer)
        clients.append(client)
        try:
            with tracer.installed() if tracer is not None else nullcontext():
                outcome = run_round(
                    client, workload, args.seed, graph, generator, TRACED, index=0, first=None
                )
        finally:
            generator.close_pool()
    _, plain, client = clients
    for other in clients[:-1]:
        client.check(
            client.fingerprint.hexdigest() == other.fingerprint.hexdigest(),
            "traced and untraced passes produced different outputs",
        )
    op_time = {kind: sum(values) for kind, values in client.times.items()}
    plain_time = {kind: sum(values) for kind, values in plain.times.items()}
    overhead = sum(op_time.values()) / sum(plain_time.values())
    tracer = client.tracer
    names = [m["name"] for m in spec["per_layer"]]
    tracer.write(str(args.out / f"{workload.name}-s{args.seed}.spans.jsonl.gz"))
    return {
        "metrics": per_layer(names, tracer, outcome, overhead),
        "ops": [
            {"op": op["op"], "seconds": op["end"] - op["start"], "coverage": coverage}
            for op, coverage in zip(tracer.ops, tracer.coverage())
        ],
        "overhead_by_op": {kind: op_time[kind] / plain_time[kind] for kind in op_time},
    }


def run_one(args) -> int:
    spec = load_spec()
    workload = at_scale(WORKLOADS[args.workload], args.scale)
    if args.setup_probe:
        _, generator = setup(workload, args.seed)
        elapsed = time.perf_counter() - _START
        generator.close_pool()
        print(json.dumps({"setup_s": elapsed}))
        return 0
    args.out.mkdir(parents=True, exist_ok=True)
    clients: List[Client] = []
    try:
        run = (run_traced if args.trace else run_untraced)(args, workload, spec, clients)
    except Aborted:
        # The raise is counted as a failed operation; no metrics follow.
        run = {"metrics": {}}
    metrics: Dict[str, float] = run.pop("metrics")
    failures = [failure for client in clients for failure in client.failures]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for failure in failures:
        print(f"FAILED: {failure}")
    for name, value in metrics.items():
        print(f"{name:42s} {value:14.6g} {units[name]}")
    failed = sum(client.failed for client in clients)
    result = {
        "correct": failed == 0,
        "attempted": sum(client.attempted for client in clients),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }
    record = dict(
        result, workload=workload.name, scale=args.scale, seed=args.seed,
        trace=int(args.trace), failures=failures,
        fingerprint=clients[-1].fingerprint.hexdigest(), **run,
    )
    name = f"{workload.name}-s{args.seed}-trace{int(args.trace)}.json"
    (args.out / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Run every workload, each in a fresh process; print a combined summary."""
    summary = {}
    for name in WORKLOADS:
        command = [
            sys.executable, str(Path(__file__)), "--workload", name,
            "--seed", str(args.seed), "--trace", str(int(args.trace)),
            "--scale", args.scale, "--out", str(args.out),
        ]
        print(f"== {name}", flush=True)
        completed = subprocess.run(command, capture_output=True, text=True, timeout=600)
        sys.stdout.write(completed.stdout)
        sys.stderr.write(completed.stderr)
        lines = completed.stdout.strip().splitlines()
        summary[name] = json.loads(lines[-1]) if completed.returncode == 0 and lines else None
    ok = all(result is not None and result["correct"] for result in summary.values())
    print(json.dumps({"correct": ok, "workloads": summary}))
    return 0 if ok else 1


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--workload", choices=sorted(WORKLOADS))
    target.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="accepted and ignored: a run's work is fixed (RUN); it measures about "
        "run_seconds of BENCHMARK.json on a 2-core machine",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1: the TRACED round warm-up, untraced, traced; print per-layer metrics",
    )
    parser.add_argument("--scale", choices=SCALES, default="full")
    parser.add_argument(
        "--out", type=Path, default=ROOT / ".bench_out" / "e2e",
        help="directory for run records and spans",
    )
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    args.out = args.out.resolve()
    return args


def stop_helpers() -> None:
    """Stop and wait for every helper process the run started.

    Pools are closed by then, but ``multiprocessing`` keeps a resource
    tracker process for shared memory that would otherwise outlive the run
    by a moment, and forked workers of a broken pool may still be exiting.
    """
    for child in multiprocessing.active_children():
        child.join()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    try:
        return run_all(args) if args.all else run_one(args)
    finally:
        stop_helpers()


if __name__ == "__main__":
    sys.exit(main())
