"""Extension benchmark: larger-than-observed generation (future work, Sec. VI).

The paper's conclusion targets "large graphs with billion nodes"; the
clone-expansion upscaler is the standard bridge from a learned n-node
distribution to an (n * factor)-node graph.  This bench measures what the
expansion preserves and what it costs:

* node/edge counts and the temporal activity profile must scale exactly;
* mean degree must stay flat (the degree distribution is preserved in
  expectation);
* expansion time must grow linearly in the factor (it is a single
  vectorised pass over the edge list).
"""

import time

import numpy as np

from repro.core import TGAEGenerator, UpscaledGenerator
from repro.graph import snapshot_at
from repro.metrics import mean_degree

FACTORS = [1, 2, 4, 8]


def bench_upscaled_generation(benchmark, dblp, bench_config):
    def run():
        base = TGAEGenerator(bench_config).fit(dblp)
        rows = []
        for factor in FACTORS:
            up = UpscaledGenerator(base, factor=factor)
            up._observed = dblp  # base is already fitted; skip re-training
            start = time.perf_counter()
            graph = up._generate(seed=0)
            elapsed = time.perf_counter() - start
            final = snapshot_at(graph, graph.num_timestamps - 1)
            rows.append(
                {
                    "factor": factor,
                    "nodes": graph.num_nodes,
                    "edges": graph.num_edges,
                    "mean_degree": mean_degree(final),
                    "seconds": elapsed,
                }
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)

    print("\n=== Upscaled generation (DBLP, TGAE base) ===")
    print(f"{'factor':>7s} {'nodes':>8s} {'edges':>8s} {'mean deg':>9s} {'gen s':>8s}")
    for row in rows:
        print(
            f"{row['factor']:7d} {row['nodes']:8d} {row['edges']:8d} "
            f"{row['mean_degree']:9.2f} {row['seconds']:8.3f}"
        )

    base = rows[0]
    for row in rows[1:]:
        assert row["nodes"] == base["nodes"] * row["factor"]
        assert row["edges"] == base["edges"] * row["factor"]
    # Mean degree flat within sampling noise (clone expansion dilutes
    # multi-edges into distinct pairs, so allow a modest band).
    degrees = np.array([row["mean_degree"] for row in rows])
    assert degrees.max() / max(degrees.min(), 1e-9) < 1.8
