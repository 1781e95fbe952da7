"""Ego sampling and packing cost gate for the cold inference encode.

A cold ``generate`` encodes every active temporal node, in ascending key
order, in blocks of :data:`repro.core.engine.ENCODE_BLOCK_ROWS` keys
(:meth:`GenerationEngine.warm_rows`): per block, one tile sampled by
:meth:`EgoGraphSampler.inference_batch`, packed by ``EgoTile.packed`` and
encoded by ``TGAEModel.encode_inference``.  This benchmark times those
three stages over exactly those blocks, at the CI size and at n=5000,
m=20000, T=48, and writes the ``ego_sampling`` section of
``BENCH_stages.json``.  Three gates:

* **Ratio** -- sampling plus packing takes at most
  :data:`STAGE_RATIO_CEILING` times the encoder's time on the same blocks:
  the sampler is never the largest stage of an encode.
* **Absolute** -- sampling plus packing costs at most
  :data:`US_PER_CENTRE_CEILING` microseconds per centre at each size, so
  a slower encoder cannot pass the ratio gate for a slower sampler.
* **Encoder** -- the encode itself costs at most
  :data:`ENCODE_US_PER_CENTRE_CEILING` microseconds per centre at each
  size: the ratio's denominator has its own ceiling, so a slower encoder
  cannot hide behind a ratio that it made easier to pass.

Each stage total is the minimum over :data:`REPEATS` passes.
"""

import time

import numpy as np

from _artifacts import write_bench_artifact
from repro.core import EgoGraphSampler, TGAEGenerator, fast_config
from repro.core.engine import ENCODE_BLOCK_ROWS
from repro.datasets import erdos_renyi_temporal

#: ``(name, (n, m, T))`` of the measured graphs.
SIZES = (("ci", (300, 1200, 12)), ("n5000", (5000, 20000, 48)))

#: Sampling + packing seconds over encode seconds on the same blocks.
STAGE_RATIO_CEILING = 1.0

#: Sampling + packing microseconds per encoded centre, per size.  Set when
#: the encode ran in groups of ~8.6 centres at the CI size and ~2.8 at
#: n5000 (measured 43-57 / 122-140 us on a 2-vCPU x86-64 container, 2.5x
#: headroom over the slowest); 64-row blocks amortise a tile's fixed cost
#: and measure 17.6 / 12.6 us there.
US_PER_CENTRE_CEILING = {"ci": 140.0, "n5000": 350.0}

#: Encode microseconds per centre, per size.  Set at 2.5x the slowest of
#: 3 runs on a shared 2-vCPU x86-64 container (float64): 31-52 / 26.4-29.2
#: us with the padding-free encoder and target-sorted attention kernel,
#: against 76-108 / 35-42 us with the padded scatter kernel before them.
ENCODE_US_PER_CENTRE_CEILING = {"ci": 130.0, "n5000": 73.0}

REPEATS = 3


def _stage_seconds(generator, blocks, num_timestamps):
    """Min-of-``REPEATS`` sample, pack and encode seconds over ``blocks``."""
    engine = generator.engine()
    engine.model.eval()
    sampler = EgoGraphSampler(engine.graph, engine.config)
    best = np.full(3, np.inf)
    for _ in range(REPEATS):
        spent = np.zeros(3)
        for block in blocks:
            centers = np.stack([block // num_timestamps, block % num_timestamps], axis=1)
            start = time.perf_counter()
            batch = sampler.inference_batch(centers)
            sampled = time.perf_counter()
            packed = batch.tile.packed()
            packed_at = time.perf_counter()
            engine.model.encode_inference(packed)
            spent += (sampled - start, packed_at - sampled, time.perf_counter() - packed_at)
        best = np.minimum(best, spent)
    return best


def bench_ego_sampling():
    """Sampling + packing <= encode; both stages under per-centre ceilings; two sizes."""
    payload = {}
    for name, (n, m, T) in SIZES:
        observed = erdos_renyi_temporal(n, m, T, seed=0)
        generator = TGAEGenerator(
            fast_config(epochs=1, num_initial_nodes=16, seed=0)
        ).fit(observed)
        keys = np.unique(observed.src * np.int64(T) + observed.t)
        blocks = np.split(keys, np.arange(ENCODE_BLOCK_ROWS, keys.size, ENCODE_BLOCK_ROWS))
        centres = keys.size
        sample_s, pack_s, encode_s = _stage_seconds(generator, blocks, T)
        ratio = (sample_s + pack_s) / encode_s
        us_per_centre = 1e6 * (sample_s + pack_s) / centres
        encode_us_per_centre = 1e6 * encode_s / centres
        print(
            f"\n=== ego sampling @ {name}: n={n}, m={m}, T={T}, "
            f"{len(blocks)} blocks, {centres} centres ===\n"
            f"sample {sample_s:7.3f}s  pack {pack_s:7.3f}s  encode {encode_s:7.3f}s  "
            f"-> (sample+pack)/encode {ratio:.2f}, {us_per_centre:.1f} us/centre, "
            f"encode {encode_us_per_centre:.1f} us/centre"
        )
        payload[name] = {
            "num_nodes": n,
            "num_edges": m,
            "num_timestamps": T,
            "blocks": len(blocks),
            "centres": int(centres),
            "sample_seconds": round(float(sample_s), 4),
            "pack_seconds": round(float(pack_s), 4),
            "encode_seconds": round(float(encode_s), 4),
            "stage_ratio": round(float(ratio), 3),
            "us_per_centre": round(float(us_per_centre), 2),
            "encode_us_per_centre": round(float(encode_us_per_centre), 2),
        }
        assert ratio <= STAGE_RATIO_CEILING, (
            f"{name}: sampling + packing took {ratio:.2f}x the encoder's time "
            f"(ceiling {STAGE_RATIO_CEILING}x)"
        )
        assert us_per_centre <= US_PER_CENTRE_CEILING[name], (
            f"{name}: sampling + packing cost {us_per_centre:.1f} us per centre "
            f"(ceiling {US_PER_CENTRE_CEILING[name]} us)"
        )
        assert encode_us_per_centre <= ENCODE_US_PER_CENTRE_CEILING[name], (
            f"{name}: the encoder cost {encode_us_per_centre:.1f} us per centre "
            f"(ceiling {ENCODE_US_PER_CENTRE_CEILING[name]} us)"
        )
    payload["stage_ratio_ceiling"] = STAGE_RATIO_CEILING
    payload["us_per_centre_ceiling"] = US_PER_CENTRE_CEILING
    payload["encode_us_per_centre_ceiling"] = ENCODE_US_PER_CENTRE_CEILING
    write_bench_artifact("BENCH_stages.json", "ego_sampling", payload)
