"""Scenario: simulating community-driven dynamics in a collaboration network.

Real collaboration and social networks are organised around communities that
appear, stay active for a bounded period, and dissolve -- the "time-bound
communities" that the TED model (Zheng et al., ICDE 2024, discussed in the
paper's related work) is built around.  This example:

1. builds a citation-style collaboration network with strong community
   structure (the DBLP stand-in);
2. fits both TGAE (the paper's model) and the TED-style community baseline;
3. compares how well each preserves the community-level temporal texture:
   block time bounds, burstiness of the continuous-time event stream, and
   the extended structural statistics (clustering, assortativity);
4. shows the continuous-time round trip: snapshots -> event stream ->
   statistics computed in continuous time.

    python examples/community_dynamics.py
"""

import numpy as np

from repro.baselines import TEDGenerator
from repro.core import TGAEGenerator, fast_config
from repro.datasets import load_dataset
from repro.graph import (
    burstiness,
    from_temporal_graph,
    inter_event_times,
    snapshot_at,
)
from repro.metrics import (
    degree_assortativity,
    global_clustering,
)


def describe(name, graph):
    """Community-relevant fingerprint of one temporal graph."""
    final = snapshot_at(graph, graph.num_timestamps - 1)
    stream = from_temporal_graph(graph, spread="uniform", seed=0)
    gaps = inter_event_times(stream, per="node")
    return {
        "name": name,
        "clustering": global_clustering(final),
        "assortativity": degree_assortativity(final),
        "node_burstiness": burstiness(gaps),
    }


def main() -> None:
    observed = load_dataset("DBLP", scale="small")
    print(f"observed collaboration network: {observed}")

    print("\nfitting TGAE (the paper's model)...")
    tgae = TGAEGenerator(fast_config(epochs=15)).fit(observed)
    tgae_graph = tgae.generate(seed=1)

    print("fitting TED (time-bound-community baseline)...")
    ted = TEDGenerator().fit(observed)
    ted_graph = ted.generate(seed=1)

    # Community census learned by TED on the observed graph.
    labels = ted.community_labels
    bounds = ted.community_time_bounds()
    sizes = np.bincount(labels)
    print(f"\nTED found {len(bounds)} active communities "
          f"(sizes: {sorted(sizes[sizes > 0].tolist(), reverse=True)[:8]} ...)")
    print("community time bounds (first 5):")
    for block, (first, last) in list(sorted(bounds.items()))[:5]:
        print(f"  community {block:3d}: active t in [{first}, {last}], "
              f"{int(sizes[block])} members")

    # Temporal/structural fingerprints.
    rows = [
        describe("observed", observed),
        describe("TGAE", tgae_graph),
        describe("TED", ted_graph),
    ]
    print(f"\n{'graph':10s} {'clustering':>11s} {'assortativity':>14s} {'burstiness':>11s}")
    for row in rows:
        print(f"{row['name']:10s} {row['clustering']:11.3f} "
              f"{row['assortativity']:14.3f} {row['node_burstiness']:11.3f}")

    # Which generator keeps the fingerprint better?
    reference = rows[0]
    for row in rows[1:]:
        gap = sum(
            abs(row[key] - reference[key])
            for key in ("clustering", "assortativity", "node_burstiness")
        )
        print(f"{row['name']}: total fingerprint deviation {gap:.3f}")


if __name__ == "__main__":
    main()
