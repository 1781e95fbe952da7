"""Per-snapshot reference implementation of the Eq. 10 comparison scores.

This is the original loop that
:func:`repro.metrics.streaming.streaming_evaluate` (also exported as
``compare_graphs``) replaced, kept verbatim as a test oracle:
``reference_compare_graphs`` builds every cumulative snapshot of both
graphs, applies each :data:`~repro.metrics.statistics.STATISTIC_FUNCTIONS`
entry to every snapshot pair, and reduces the relative errors in timestamp
order.  The one-pass path must return exactly equal scores.
"""

from __future__ import annotations

from typing import Dict, Sequence, Union

import numpy as np

from repro.errors import GraphFormatError
from repro.graph import TemporalGraph, cumulative_snapshots
from repro.metrics.statistics import STATISTIC_FUNCTIONS, select_statistics


def reference_compare_graphs(
    observed: TemporalGraph,
    generated: TemporalGraph,
    statistics: Union[str, Sequence[str], None] = None,
    reduction: str = "mean",
) -> Dict[str, float]:
    """Score a generated graph on several statistics at once.

    Parameters
    ----------
    statistics:
        Names from :data:`~repro.metrics.statistics.STATISTIC_FUNCTIONS`
        (a bare string is one name); defaults to all seven Table III
        statistics.
    reduction:
        ``"mean"`` (f_avg) or ``"median"`` (f_med).
    """
    names = select_statistics(statistics, reduction)
    if observed.num_timestamps != generated.num_timestamps:
        raise GraphFormatError(
            "observed and generated graphs must span the same number of "
            f"timestamps ({observed.num_timestamps} != {generated.num_timestamps})"
        )
    obs_snaps = cumulative_snapshots(observed)
    gen_snaps = cumulative_snapshots(generated)
    scores: Dict[str, float] = {}
    for name in names:
        fn = STATISTIC_FUNCTIONS[name]
        errors = []
        for obs, gen in zip(obs_snaps, gen_snaps):
            reference = fn(obs)
            if abs(reference) < 1e-12:
                continue
            errors.append(abs((reference - fn(gen)) / reference))
        if not errors:
            scores[name] = 0.0
        elif reduction == "mean":
            scores[name] = float(np.mean(errors))
        else:
            scores[name] = float(np.median(errors))
    return scores
