"""Outside-in span tracing for the end-to-end benchmark.

The library carries no instrumentation of its own, so the benchmark times
its layers from outside: :meth:`Tracer.installed` replaces public functions
and methods *at the site where their callers look them up* (a module global
such as ``repro.core.sampler.sample_ego_graph``, or a class attribute such as
``TGAEModel.encode_inference``) with wrappers that record one span per call,
and puts every original back on exit.

Each span carries its name, start, end, parent span and the benchmark
operation (``fit``, ``generate_cold``, ...) it ran under.  Self time is the
span's duration minus the time covered by its child spans.  Spans stay in
memory and are written out once, as gzipped JSON lines, when the run ends.

The wrappers consume no RNG and change no argument or result, so a traced run
produces bitwise the same outputs as an untraced one.  They record only in
the process and thread that installed them: pool workers forked while the
wrappers are installed run them as plain pass-throughs, and their spans are
not returned to the parent.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import os
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

CountFn = Optional[Callable[[tuple, Any], int]]


def _rows_of_result(args: tuple, result: Any) -> int:
    return int(result.shape[0])


def _rows_of_first_array(args: tuple, result: Any) -> int:
    # Bound methods: args[0] is self, args[1] the (rows, ...) array.
    return int(len(args[1]))


def _egos(args: tuple, result: Any) -> int:
    return int(len(args[0]))


#: ``(span name, lookup site, counter)``.  The span name is the defining
#: module and function; the site is where the caller finds it, which is the
#: only place a replacement is seen.  A function looked up at two sites is
#: wrapped at both under one name.  The counter, when given, adds to the
#: span's ``rows``/``egos`` count.
TARGETS: Tuple[Tuple[str, str, CountFn], ...] = (
    # Ego sampling and packing (the inference and training samplers).
    ("graph.ego_graph.sample_ego_graph", "repro.core.sampler:sample_ego_graph", None),
    ("graph.ego_graph.sample_ego_graph", "repro.graph.ego_graph:sample_ego_graph", None),
    ("rng.stream", "repro.core.sampler:stream", None),
    ("rng.seed_sequence", "repro.core.engine:seed_sequence", None),
    ("rng.seed_sequence", "repro.core.trainer:seed_sequence", None),
    ("rng.spawn_streams", "repro.core.engine:spawn_streams", None),
    ("rng.spawn_streams", "repro.core.trainer:spawn_streams", None),
    ("graph.bipartite.pack_ego_batch", "repro.core.sampler:pack_ego_batch", _egos),
    ("core.sampler.inference_batch", "repro.core.sampler:EgoGraphSampler.inference_batch",
     None),
    ("core.sampler.batch_for_centers",
     "repro.core.sampler:EgoGraphSampler.batch_for_centers", None),
    # The model.
    ("core.model.encode_inference", "repro.core.model:TGAEModel.encode_inference",
     _rows_of_result),
    ("core.model.decode_from_embeddings",
     "repro.core.model:TGAEModel.decode_from_embeddings", _rows_of_first_array),
    ("core.model.forward", "repro.core.model:TGAEModel.forward", None),
    # The generation engine and its embedding cache.  The entry points'
    # self time is the assembly around the chunks, about 5% of a few-
    # millisecond warm generate or score_topk that no other span covers.
    ("core.engine.generate", "repro.core.engine:GenerationEngine.generate", None),
    ("core.engine.score_topk", "repro.core.engine:GenerationEngine.score_topk", None),
    ("core.engine.active_nodes", "repro.core.engine:GenerationEngine.active_nodes", None),
    ("core.engine.warm_rows", "repro.core.engine:GenerationEngine.warm_rows", None),
    ("core.engine.candidates_with_mask",
     "repro.core.engine:GenerationEngine.candidates_with_mask", None),
    ("core.engine.generate_chunk", "repro.core.engine:GenerationEngine.generate_chunk",
     None),
    ("core.engine.topk_chunk", "repro.core.engine:GenerationEngine.topk_chunk", None),
    ("core.embed_cache.store", "repro.core.embed_cache:EmbeddingCache.store", None),
    ("core.embed_cache.invalidate_rows",
     "repro.core.embed_cache:EmbeddingCache.invalidate_rows", None),
    ("core.embed_cache.dirty_temporal_nodes", "repro.core.generator:dirty_temporal_nodes",
     None),
    ("core.embed_cache.graph_token", "repro.core.generator:graph_token", None),
    ("graph.temporal_graph.appended",
     "repro.graph.temporal_graph:TemporalGraph.appended", None),
    # Dispatch.
    ("core.parallel.run_sharded", "repro.core.engine:run_sharded", None),
    ("core.parallel.pool_run", "repro.core.parallel:WorkerPool.run", None),
    # Training.  The loop's own self time is its per-epoch bookkeeping.
    ("core.trainer.train_tgae", "repro.core.generator:train_tgae", None),
    ("core.trainer.run_train_shard", "repro.core.trainer:run_train_shard", None),
    ("core.trainer.sample_initial_nodes", "repro.core.trainer:sample_initial_nodes", None),
    ("core.trainer.adjacency_target_rows", "repro.core.trainer:adjacency_target_rows",
     None),
    ("autograd.backward", "repro.autograd.tensor:Tensor.backward", None),
    ("optim.load_gradients", "repro.core.trainer:load_gradients", None),
    ("optim.clip_grad_norm", "repro.core.trainer:clip_grad_norm", None),
    ("optim.adam_step", "repro.optim.adam:Adam.step", None),
    # Evaluation.
    ("metrics.streaming.streaming_evaluate",
     "repro.metrics.streaming:streaming_evaluate", None),
)


def _resolve(site: str) -> Tuple[Any, str]:
    """``"pkg.module:Class.attr"`` -> ``(owner object, attribute name)``."""
    module_name, _, path = site.partition(":")
    owner: Any = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attr


class Tracer:
    """Records spans of wrapped library calls under benchmark operations.

    Use :meth:`installed` around the traced part of a run and :meth:`op`
    around each benchmark operation; calls made outside an operation are
    not recorded.
    """

    def __init__(self) -> None:
        #: ``(op index, name, parent name, start, end, self seconds)``.
        self.spans: List[Tuple[int, str, str, float, float, float]] = []
        #: One dict per operation: name, start, end and covered seconds.
        self.ops: List[Dict[str, Any]] = []
        #: name -> [calls, self_s, total_s, count]
        self.totals: Dict[str, List[float]] = {}
        self._stack: List[list] = []
        self._pid = os.getpid()
        self._thread = threading.get_ident()
        self._origin = time.perf_counter()

    # ------------------------------------------------------------------
    def _wrap(self, name: str, fn: Callable, counter: CountFn) -> Callable:
        stack = self._stack
        close = self._close
        pid, thread = self._pid, self._thread

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not stack or os.getpid() != pid or threading.get_ident() != thread:
                return fn(*args, **kwargs)
            frame = [name, time.perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                close(frame, end)
            if counter is not None:
                self.totals[name][3] += counter(args, result)
            return result

        return traced

    def _close(self, frame: list, end: float) -> None:
        name, start, children = frame
        duration = end - start
        parent = self._stack[-1]
        parent[2] += duration
        self_s = duration - children
        self.spans.append((len(self.ops), name, parent[0], start, end, self_s))
        totals = self.totals.setdefault(name, [0, 0.0, 0.0, 0])
        totals[0] += 1
        totals[1] += self_s
        totals[2] += duration

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap every :data:`TARGETS` site; restore each original on exit."""
        saved: List[Tuple[Any, str, Any]] = []
        missing = object()
        try:
            for name, site, counter in TARGETS:
                owner, attr = _resolve(site)
                saved.append((owner, attr, vars(owner).get(attr, missing)))
                setattr(owner, attr, self._wrap(name, getattr(owner, attr), counter))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                if original is missing:
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, original)

    @contextmanager
    def op(self, name: str) -> Iterator[None]:
        """Record one benchmark operation as the root span of its calls."""
        if self._stack:
            raise RuntimeError(f"operation {name!r} started inside {self._stack[0][0]!r}")
        frame = [name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.ops.append(
                {"op": name, "start": frame[1], "end": end, "covered": frame[2]}
            )

    # ------------------------------------------------------------------
    def coverage(self) -> List[float]:
        """Share of each operation's wall-clock covered by its child spans."""
        return [
            op["covered"] / (op["end"] - op["start"]) if op["end"] > op["start"] else 1.0
            for op in self.ops
        ]

    def total(self, name: str, field: str) -> float:
        """Aggregate of one span name: ``calls``, ``self_s``, ``total_s`` or ``count``."""
        index = ("calls", "self_s", "total_s", "count").index(field)
        return self.totals.get(name, [0, 0.0, 0.0, 0])[index]

    def write(self, path: str) -> None:
        """Write operations then spans as gzipped JSON lines (times from trace start)."""
        origin = self._origin
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for index, (op, coverage) in enumerate(zip(self.ops, self.coverage())):
                record = {
                    "type": "op", "index": index, "name": op["op"],
                    "start": op["start"] - origin, "end": op["end"] - origin,
                    "coverage": coverage,
                }
                handle.write(json.dumps(record) + "\n")
            for op_index, name, parent, start, end, self_s in self.spans:
                record = {
                    "type": "span", "op": op_index, "name": name, "parent": parent,
                    "start": start - origin, "end": end - origin, "self_s": self_s,
                }
                handle.write(json.dumps(record) + "\n")
