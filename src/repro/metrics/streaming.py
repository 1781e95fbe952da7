"""The Eq. 10 comparison scores, in one pass over each graph's edges.

:func:`streaming_evaluate` is the one implementation of Eq. 10;
:func:`~repro.metrics.comparison.compare_graphs` is the same function under
the name the table harness and the examples use.  It reads each graph's
statistic series from :func:`~repro.metrics.statistics.statistic_series`,
which walks the time-sorted edges once and keeps only O(n + E) state
(degrees, a union-find, neighbour sets), then reduces the per-timestamp
relative errors.  No snapshot or sparse matrix is built.  The scores are
**bit-identical** to mapping the per-snapshot statistics over every
cumulative snapshot pair and reducing the errors in timestamp order: the
series values equal the per-snapshot statistics bit for bit, and the
errors are formed and reduced with the same floating-point operations in
the same order.  The test suite keeps that per-snapshot loop as its
reference.
"""

from __future__ import annotations

from typing import Dict, Sequence, Union

import numpy as np

from ..errors import GraphFormatError
from ..graph.temporal_graph import TemporalGraph
from .statistics import select_statistics, statistic_series

__all__ = ["streaming_evaluate"]


def streaming_evaluate(
    observed: TemporalGraph,
    generated: TemporalGraph,
    statistics: Union[str, Sequence[str], None] = None,
    reduction: str = "mean",
) -> Dict[str, float]:
    """Score a generated graph on several statistics at once (Eq. 10).

    Both graphs' statistic series come from one
    :func:`~repro.metrics.statistics.statistic_series` pass each (O(n + E)
    memory), timestamps where the observed statistic is numerically zero
    are skipped (the paper's rule), and the remaining relative errors
    reduce by mean (f_avg) or median (f_med).

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
    obs_series = statistic_series(observed)
    gen_series = statistic_series(generated)
    scores: Dict[str, float] = {}
    for name in names:
        reference = obs_series[name]
        kept = np.abs(reference) >= 1e-12
        errors = np.abs((reference[kept] - gen_series[name][kept]) / reference[kept])
        if not errors.size:
            scores[name] = 0.0
        elif reduction == "mean":
            scores[name] = float(np.mean(errors))
        else:
            scores[name] = float(np.median(errors))
    return scores
