"""Throughput of the batched ego-graph encoding pipeline (the TGAE hot path).

Every TGAE training step and every Sec. IV-G generation chunk encodes one
ego-graph per active temporal node.  This benchmark measures encoder
throughput (centre temporal nodes per second) on the Figure 6 scalability
grid for two execution strategies over the *same* sampled ego-graphs:

* **per-node** -- the sequential path: one single-ego ``pack_ego_batch``
  + one encoder forward per ego-graph, exactly what a non-batched
  implementation of Alg. 1/2 does;
* **batched** -- the ego-parallel path: ``pack_ego_batch`` packs a chunk
  of ego-graphs into flat per-level node and edge arrays and the encoder
  runs one vectorised forward per chunk.

Both paths produce numerically identical centre representations (asserted
here and, with tighter seeding, in ``tests/test_core_batched.py``); the
benchmark asserts the batched path reaches at least 3x the per-node
throughput on the medium grid point.
"""

import time

import numpy as np

from repro.core import TGAEEncoder, fast_config
from repro.datasets import make_scalability_graph, node_scale_sweep
from repro.autograd import no_grad
from repro.graph import ego_graph_batch, pack_ego_batch

BASE_NODES = 120
STEPS = 3
EGOS_PER_POINT = 96
CHUNK = 32


def _encode_sequential(encoder, egos):
    with no_grad():
        return np.stack([encoder(pack_ego_batch([ego])).numpy()[0] for ego in egos])


def _encode_batched(encoder, egos):
    outputs = []
    with no_grad():
        for start in range(0, len(egos), CHUNK):
            packed = pack_ego_batch(egos[start : start + CHUNK])
            outputs.append(encoder(packed).numpy())
    return np.concatenate(outputs, axis=0)


def _measure(fn, encoder, egos, repeats=2):
    """Best-of-``repeats`` throughput, so one noisy-CI-runner stall on a
    single pass cannot sink the speedup assertion."""
    best = 0.0
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn(encoder, egos)
        elapsed = time.perf_counter() - start
        best = max(best, len(egos) / elapsed)
    return result, best


def _run_grid():
    config = fast_config(num_initial_nodes=CHUNK)
    rows = []
    for point in node_scale_sweep(base_nodes=BASE_NODES, steps=STEPS):
        graph = make_scalability_graph(point)
        rng = np.random.default_rng(11)
        centers = np.stack(
            [
                rng.integers(0, graph.num_nodes, EGOS_PER_POINT),
                rng.integers(0, graph.num_timestamps, EGOS_PER_POINT),
            ],
            axis=1,
        )
        egos = ego_graph_batch(
            graph,
            centers,
            radius=config.radius,
            threshold=config.neighbor_threshold,
            time_window=config.time_window,
            rng=rng,
        )
        encoder = TGAEEncoder(graph.num_nodes, graph.num_timestamps, config)
        sequential, seq_rate = _measure(_encode_sequential, encoder, egos)
        batched, batch_rate = _measure(_encode_batched, encoder, egos)
        assert np.allclose(sequential, batched, atol=1e-8), point.label
        rows.append((point.label, seq_rate, batch_rate, batch_rate / seq_rate))
    return rows


def bench_batched_encoding(benchmark):
    rows = benchmark.pedantic(_run_grid, rounds=1, iterations=1)
    print("\n=== Batched ego-graph encoding throughput (centres / s) ===")
    print(f"{'grid point':>14} {'per-node':>10} {'batched':>10} {'speedup':>8}")
    for label, seq_rate, batch_rate, speedup in rows:
        print(f"{label:>14} {seq_rate:>10.1f} {batch_rate:>10.1f} {speedup:>7.1f}x")
    # Acceptance: >= 3x throughput on the medium grid point (the middle of
    # the node-scale sweep); in practice the margin is much larger.
    medium = rows[len(rows) // 2]
    assert medium[3] >= 3.0, f"batched speedup {medium[3]:.1f}x < 3x on {medium[0]}"
