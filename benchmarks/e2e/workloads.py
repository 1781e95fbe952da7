"""The four workloads of the end-to-end benchmark.

Every workload is one seeded ``erdos_renyi_temporal`` graph plus the
generator configuration a user would pick for it: the CLI's model dimensions
(``fast_config`` with ``dtype="float32"``), the inference embedding cache on,
and ``workers=1`` unless stated.  Uniform random graphs keep the work of a
run nearly the same for every seed, so seeds vary the inputs without moving
the timings.  The benchmark seed drives graph synthesis, the ingest batches,
the ``generate`` seeds and ``config.seed``; the library receives only the
generated inputs.

The sizes are chosen so that one run, with its set-up, fits the benchmark's
per-run time budget on a 2-core machine while each workload keeps the
property it was chosen for: the ``why`` of each workload in
``BENCHMARK.json``.  They also keep every operation under about a second:
the host's speed is measured between operations (``HostSpeed`` in
``run.py``), and it can change within a longer one.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Tuple

#: Scales a run can use: ``full`` is the measured benchmark, ``tiny`` the
#: smoke-test size that exercises every operation and check in seconds.
SCALES = ("full", "tiny")


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``size`` is the graph's ``(num_nodes, num_edges, num_timestamps)`` and
    ``config`` the ``fast_config`` overrides besides the common ones.
    ``topk_stride`` picks the ``score_topk`` timestamps
    ``range(0, T, topk_stride)``.
    """

    name: str
    size: Tuple[int, int, int]
    epochs: int
    config: Dict[str, object]
    topk_stride: int = 1

    @property
    def pooled(self) -> bool:
        """Whether the workload runs inside the generator's worker pool."""
        return int(self.config.get("workers", 1)) > 1


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload("sparse", (128, 256, 24), 30, {"num_initial_nodes": 64}, topk_stride=6),
        Workload("dense", (96, 2304, 6), 12, {"num_initial_nodes": 64, "candidate_limit": 64}),
        Workload("train", (96, 1920, 5), 6, {"num_initial_nodes": 256}),
        Workload(
            "pooled", (96, 1920, 5), 6,
            {"num_initial_nodes": 256, "workers": 2, "parallel_backend": "process"},
        ),
    )
}

#: ``--scale tiny`` sizes and epochs, per workload.
TINY: Dict[str, Tuple[Tuple[int, int, int], int]] = {
    "sparse": ((150, 600, 16), 3),
    "dense": ((80, 1200, 4), 3),
    "train": ((150, 1500, 4), 3),
    "pooled": ((150, 1500, 4), 2),
}


def at_scale(workload: Workload, scale: str) -> Workload:
    """``workload`` resized for ``scale`` (``full`` returns it unchanged)."""
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}; choose from {SCALES}")
    if scale == "full":
        return workload
    size, epochs = TINY[workload.name]
    return replace(
        workload, size=size, epochs=epochs,
        config=dict(workload.config, num_initial_nodes=16),
    )
