"""Inference embedding cache gates for the decode-only hot path PR.

Two wins are gated and logged into ``BENCH_dispatch.json``:

* ``bench_embed_cache_warm`` -- once the cache is populated, repeat
  ``generate`` / ``score_topk`` calls must skip *all* encoder work
  (``encoded_rows`` / ``encode_calls`` frozen, counter-asserted) and run
  at least :data:`WARM_SPEEDUP_FLOOR` x faster than the cache-off path,
  while reproducing its output **bit for bit**.
* ``bench_embed_cache_encode_budget`` -- a cold ``generate`` followed by
  a first ``score_topk`` encodes no more rows than the active temporal
  nodes plus the rows ``score_topk`` requested (counter-asserted on a
  graph whose temporal nodes are mostly inactive).
* ``bench_embed_cache_invalidation`` -- after appending ~5% new observed
  edges with ``epochs=0``, only the encode groups of the dirty
  ego-neighbourhood re-encode (a strict subset of the universe,
  counter-asserted) and the post-append output equals a cold-cache twin
  exactly.

The floor is deliberately conservative: the encoder (ego sampling plus
packed TGAT attention) dominates inference, so warm decode-only calls are
typically far above 2x; 2x is the regression tripwire, not the headline.
"""

import time

import numpy as np

from _artifacts import write_bench_artifact
from repro.core import EMBED_TILE, TGAEGenerator, dirty_temporal_nodes, fast_config
from repro.datasets import communication_network, erdos_renyi_temporal

#: Warm (cache-hit) inference must beat cache-off inference by at least
#: this factor at the bench config before the gate trips.
WARM_SPEEDUP_FLOOR = 2.0


def _fingerprint(graph):
    import hashlib

    triples = np.stack([graph.t, graph.src, graph.dst], axis=1)
    order = np.lexsort((graph.dst, graph.src, graph.t))
    return hashlib.sha256(np.ascontiguousarray(triples[order]).tobytes()).hexdigest()


def _fitted_pair(observed, **overrides):
    params = dict(epochs=2, num_initial_nodes=24, seed=3)
    params.update(overrides)
    on = TGAEGenerator(fast_config(embed_cache=True, **params)).fit(observed)
    off = TGAEGenerator(fast_config(embed_cache=False, **params)).fit(observed)
    return on, off


def _median_seconds(fn, repeats=3):
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return float(np.median(samples))


def bench_embed_cache_warm():
    """Warm inference: zero encoder work, >= 2x faster, same bits."""
    observed = communication_network(150, 1200, 6, seed=11)
    cached, uncached = _fitted_pair(observed)

    cold_start = time.perf_counter()
    cold_graph = cached.generate(seed=0)
    cold_seconds = time.perf_counter() - cold_start
    stats_cold = cached.cache_stats()

    warm_graph = {}
    warm_seconds = _median_seconds(
        lambda: warm_graph.__setitem__("g", cached.generate(seed=0))
    )
    stats_warm = cached.cache_stats()
    assert stats_warm["encoded_rows"] == stats_cold["encoded_rows"], (
        "warm generate re-encoded rows: "
        f"{stats_warm['encoded_rows']} != {stats_cold['encoded_rows']}"
    )
    assert stats_warm["encode_calls"] == stats_cold["encode_calls"], (
        "warm generate invoked the encoder"
    )
    assert stats_warm["hit_rows"] > stats_cold["hit_rows"]

    off_graph = {}
    off_seconds = _median_seconds(
        lambda: off_graph.__setitem__("g", uncached.generate(seed=0))
    )
    fp = _fingerprint(warm_graph["g"])
    assert fp == _fingerprint(cold_graph), "warm generate diverged from cold"
    assert fp == _fingerprint(off_graph["g"]), "cache-on diverged from cache-off"

    topk_warm_seconds = _median_seconds(lambda: cached.score_topk(8))
    topk_off_seconds = _median_seconds(lambda: uncached.score_topk(8))
    topk_on = cached.score_topk(8)
    topk_off = uncached.score_topk(8)
    assert np.array_equal(topk_on.node, topk_off.node)
    assert np.array_equal(topk_on.target, topk_off.target)
    assert topk_on.score.tobytes() == topk_off.score.tobytes()

    generate_speedup = off_seconds / warm_seconds
    topk_speedup = topk_off_seconds / topk_warm_seconds
    print(
        f"\n=== embed cache warm @ n={observed.num_nodes}, "
        f"m={observed.num_edges}, T={observed.num_timestamps} ===\n"
        f"generate: cold {cold_seconds:6.2f}s  warm {warm_seconds:6.2f}s  "
        f"off {off_seconds:6.2f}s  -> {generate_speedup:.1f}x\n"
        f"score_topk: warm {topk_warm_seconds:6.2f}s  "
        f"off {topk_off_seconds:6.2f}s  -> {topk_speedup:.1f}x"
    )
    assert generate_speedup >= WARM_SPEEDUP_FLOOR, (
        f"warm generate speedup {generate_speedup:.2f}x is below the "
        f"{WARM_SPEEDUP_FLOOR}x floor"
    )
    assert topk_speedup >= WARM_SPEEDUP_FLOOR, (
        f"warm score_topk speedup {topk_speedup:.2f}x is below the "
        f"{WARM_SPEEDUP_FLOOR}x floor"
    )
    write_bench_artifact(
        "BENCH_dispatch.json",
        "embed_cache",
        {
            "num_nodes": observed.num_nodes,
            "num_edges": observed.num_edges,
            "num_timestamps": observed.num_timestamps,
            "cold_generate_seconds": round(cold_seconds, 3),
            "warm_generate_seconds": round(warm_seconds, 3),
            "off_generate_seconds": round(off_seconds, 3),
            "generate_speedup": round(generate_speedup, 2),
            "warm_topk_seconds": round(topk_warm_seconds, 3),
            "off_topk_seconds": round(topk_off_seconds, 3),
            "topk_speedup": round(topk_speedup, 2),
            "speedup_floor": WARM_SPEEDUP_FLOOR,
            "encoded_rows": stats_warm["encoded_rows"],
            "encode_calls": stats_warm["encode_calls"],
            "hit_rows": stats_warm["hit_rows"],
            "bit_identical": True,
        },
    )


def bench_embed_cache_encode_budget():
    """Cold generate + first score_topk encode only active + requested rows."""
    observed = erdos_renyi_temporal(128, 256, 24, seed=5)
    generator = TGAEGenerator(
        fast_config(embed_cache=True, epochs=2, num_initial_nodes=24, seed=3)
    ).fit(observed)
    T = observed.num_timestamps
    active = np.unique(observed.src * np.int64(T) + observed.t)

    generator.generate(seed=0)
    after_generate = generator.cache_stats()["encoded_rows"]
    stamps = [0, T // 2]
    generator.score_topk(8, timestamps=stamps)
    encoded = generator.cache_stats()["encoded_rows"]
    nodes = np.arange(observed.num_nodes, dtype=np.int64)
    requested = np.concatenate([nodes * T + t for t in stamps])
    budget = int(np.union1d(active, requested).size)
    universe = observed.num_nodes * T
    print(
        f"\n=== embed cache encode budget @ n={observed.num_nodes}, "
        f"m={observed.num_edges}, T={T} ===\n"
        f"active {active.size}/{universe}  requested {requested.size}  "
        f"encoded: generate {after_generate}, +score_topk {encoded} "
        f"(budget {budget})"
    )
    assert after_generate <= active.size, (
        f"cold generate encoded {after_generate} rows for {active.size} "
        "active temporal nodes"
    )
    assert encoded <= budget, (
        f"cold generate + score_topk encoded {encoded} rows, more than the "
        f"{budget} active or requested rows"
    )
    write_bench_artifact(
        "BENCH_dispatch.json",
        "embed_cache_encode_budget",
        {
            "num_nodes": observed.num_nodes,
            "num_edges": observed.num_edges,
            "num_timestamps": T,
            "universe_rows": int(universe),
            "active_rows": int(active.size),
            "requested_rows": int(requested.size),
            "generate_encoded_rows": int(after_generate),
            "encoded_rows": int(encoded),
            "budget_rows": budget,
        },
    )


def bench_embed_cache_invalidation():
    """5% append: only dirty groups re-encode, output equals a cold twin."""
    observed = communication_network(120, 900, 5, seed=2)

    def fit_cached():
        return TGAEGenerator(
            fast_config(embed_cache=True, epochs=2, num_initial_nodes=24, seed=3)
        ).fit(observed)

    warm, cold = fit_cached(), fit_cached()

    warm.generate(seed=0)  # populate
    before = warm.cache_stats()

    rng = np.random.default_rng(7)
    k = max(1, int(0.05 * observed.num_edges))
    hubs = rng.integers(0, 10, size=k)  # concentrate on few endpoints
    new = (hubs, (hubs + 1) % observed.num_nodes,
           np.full(k, 0, dtype=np.int64))
    warm.update(new, epochs=0)
    cold.update(new, epochs=0)
    dirty = dirty_temporal_nodes(
        warm.observed, *new,
        radius=warm.config.radius, time_window=warm.config.time_window,
    )

    after_append = warm.cache_stats()
    invalidated = after_append["invalidated_rows"] - before["invalidated_rows"]
    warm_graph = warm.generate(seed=0)
    cold_graph = cold.generate(seed=0)
    assert _fingerprint(warm_graph) == _fingerprint(cold_graph), (
        "incrementally invalidated cache diverged from a cold cache"
    )
    after = warm.cache_stats()
    reencoded = after["encoded_rows"] - before["encoded_rows"]
    universe = observed.num_nodes * observed.num_timestamps
    T = observed.num_timestamps
    tiles = np.unique(np.stack([dirty % T, dirty // T // EMBED_TILE], axis=1), axis=0)
    tile_sizes = np.bincount(np.arange(observed.num_nodes) // EMBED_TILE)
    dirty_tile_rows = int(tile_sizes[tiles[:, 1]].sum())
    print(
        f"\n=== embed cache invalidation @ n={observed.num_nodes}, "
        f"{k} appended edges ===\n"
        f"dirty rows {dirty.size}/{universe}  invalidated {invalidated}  "
        f"re-encoded {reencoded} (tile ceiling {dirty_tile_rows})"
    )
    assert reencoded <= dirty_tile_rows, (
        f"re-encoded {reencoded} rows, more than the {dirty_tile_rows} rows "
        "of the tiles covering the dirty set"
    )
    assert reencoded < universe, "append re-encoded the whole universe"
    write_bench_artifact(
        "BENCH_dispatch.json",
        "embed_cache_invalidation",
        {
            "num_nodes": observed.num_nodes,
            "appended_edges": int(k),
            "universe_rows": int(universe),
            "dirty_rows": int(dirty.size),
            "invalidated_rows": int(invalidated),
            "reencoded_rows": int(reencoded),
            "dirty_tile_rows": dirty_tile_rows,
            "bit_identical_to_cold": True,
        },
    )
