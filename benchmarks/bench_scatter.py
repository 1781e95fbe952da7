"""Order-preserving flat scatter-add gate.

The TGAT kernel's message sum and its ``g_z_dst``/``g_z_src`` backward, and
the gather backward of ``Tensor.take_rows``, scatter-add edge rows into
target rows through :func:`repro.autograd.scatter_add_rows`, which
flattens the row scatter into 1-D ``np.add.at`` calls (NumPy's fast indexed
loop) without changing any output bit.  This benchmark times the helper
against the row ``np.add.at`` it replaces, at float32 (the production
dtype), on the level-1 edge and target counts of two end-to-end
workloads:

* ``train`` -- 6,400 edges into 705 targets, a ``num_initial_nodes=256``
  training batch;
* ``sparse`` -- 160 edges into 65 targets, where egos are small and the
  fixed per-call cost dominates.

Rows are 16 wide, the CLI model's hidden width (each of its two attention
heads scatters 8 columns, where the saving is smaller).  Target indices
are uniform draws from a fixed seed.  It writes the
``scatter`` section of ``BENCH_stages.json`` and gates, at each shape:

* **Bits** -- the output is byte-equal to ``np.add.at`` into zeros;
* **Ratio** -- the helper takes at most :data:`RATIO_CEILING` times the
  row ``np.add.at``'s time;
* **Absolute** -- the helper takes at most :data:`US_CEILING` microseconds,
  so a slower ``np.add.at`` cannot pass the ratio gate for a slower helper.

Each time is the minimum over :data:`REPEATS` rounds of the mean of
:data:`CALLS` calls, the two sides alternating round by round.
"""

import time

import numpy as np

from _artifacts import write_bench_artifact
from repro.autograd import scatter_add_rows

#: ``(name, (edges, targets, width))`` of the measured scatters.
SHAPES = (("train", (6400, 705, 16)), ("sparse", (160, 65, 16)))

#: Helper seconds over row ``np.add.at`` seconds on the same scatter.
RATIO_CEILING = 0.5

#: Helper microseconds per call.  Measured 290-510 us (train) and
#: 12-23 us (sparse) on a shared 2-vCPU x86-64 container with NumPy 2.4;
#: the ceilings leave 2.5x headroom over the slowest.
US_CEILING = {"train": 1300.0, "sparse": 60.0}

REPEATS = 7
CALLS = {"train": 20, "sparse": 400}


def _row_add_at(index, values, rows, dtype):
    out = np.zeros((rows,) + values.shape[1:], dtype=dtype)
    np.add.at(out, index, values)
    return out


def _mean_seconds(fn, args, calls):
    start = time.perf_counter()
    for _ in range(calls):
        fn(*args)
    return (time.perf_counter() - start) / calls


def bench_scatter():
    """Flat scatter is bitwise the row scatter, <= 0.5x its time, under a ceiling."""
    payload = {}
    for name, (edges, targets, width) in SHAPES:
        rng = np.random.default_rng(0)
        args = (
            rng.integers(0, targets, edges),
            rng.standard_normal((edges, width)).astype(np.float32),
            targets,
            np.float32,
        )
        assert scatter_add_rows(*args).tobytes() == _row_add_at(*args).tobytes(), (
            f"{name}: scatter_add_rows differs from np.add.at"
        )
        best = np.full(2, np.inf)
        for _ in range(REPEATS):
            spent = [_mean_seconds(fn, args, CALLS[name]) for fn in (_row_add_at, scatter_add_rows)]
            best = np.minimum(best, spent)
        add_at_us, helper_us = 1e6 * best
        ratio = helper_us / add_at_us
        print(
            f"\n=== scatter @ {name}: {edges} edges -> {targets} x {width}, float32 ===\n"
            f"np.add.at {add_at_us:8.1f} us  scatter_add_rows {helper_us:8.1f} us  "
            f"-> ratio {ratio:.2f}"
        )
        payload[name] = {
            "edges": edges,
            "targets": targets,
            "width": width,
            "add_at_us": round(float(add_at_us), 2),
            "scatter_add_rows_us": round(float(helper_us), 2),
            "ratio": round(float(ratio), 3),
        }
        assert ratio <= RATIO_CEILING, (
            f"{name}: scatter_add_rows took {ratio:.2f}x np.add.at's time "
            f"(ceiling {RATIO_CEILING}x)"
        )
        assert helper_us <= US_CEILING[name], (
            f"{name}: scatter_add_rows took {helper_us:.1f} us (ceiling {US_CEILING[name]} us)"
        )
    payload["ratio_ceiling"] = RATIO_CEILING
    payload["us_ceiling"] = US_CEILING
    write_bench_artifact("BENCH_stages.json", "scatter", payload)
