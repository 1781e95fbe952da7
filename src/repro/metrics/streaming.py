"""One-pass O(n + E) evaluation of the Eq. 10 comparison scores.

:func:`~repro.metrics.comparison.compare_graphs` materialises *every*
cumulative snapshot of both graphs up front -- ``sum_t E_t = O(T * E)``
edge arrays -- and rebuilds each one's sparse adjacency to score it.  It is
the reference path; :func:`streaming_evaluate` is the production one.

:func:`streaming_evaluate` reads each graph's statistic series from
:func:`~repro.metrics.statistics.statistic_series`, which walks the
time-sorted edges once and keeps only O(n + E) state (degrees, a
union-find, neighbour sets), then reduces the per-timestamp relative errors
exactly as ``compare_graphs`` does.  No snapshot or sparse matrix is built,
and the returned scores are **bit-identical** to the dense path: the series
values equal the per-snapshot statistics bit for bit, and the errors are
formed and reduced with the same floating-point operations in the same
order.
"""

from __future__ import annotations

from typing import Dict, Sequence, Union

import numpy as np

from ..errors import GraphFormatError
from ..graph.temporal_graph import TemporalGraph
from .comparison import select_statistics
from .statistics import statistic_series
from .temporal import compare_temporal_signatures

__all__ = ["streaming_evaluate"]


def streaming_evaluate(
    observed: TemporalGraph,
    generated: TemporalGraph,
    statistics: Union[str, Sequence[str], None] = None,
    reduction: str = "mean",
    include_temporal: bool = False,
) -> Dict[str, float]:
    """Eq. 10 comparison scores in one pass over each graph's edges.

    Drop-in replacement for :func:`~repro.metrics.comparison.compare_graphs`
    returning bit-identical scores: both graphs' statistic series come from
    one :func:`~repro.metrics.statistics.statistic_series` pass each
    (O(n + E) memory), timestamps where the observed statistic is
    numerically zero are skipped (the paper's rule), and the remaining
    relative errors reduce by mean (f_avg) or median (f_med).

    Parameters
    ----------
    statistics:
        Names from :data:`~repro.metrics.statistics.STATISTIC_FUNCTIONS`
        (a bare string is one name); defaults to all seven Table III
        statistics.
    reduction:
        ``"mean"`` (f_avg) or ``"median"`` (f_med).
    include_temporal:
        Also merge the temporal-signature deltas
        (:func:`~repro.metrics.temporal.compare_temporal_signatures` --
        already O(E): they read the raw edge arrays, never snapshots) into
        the result under ``"temporal:<name>"`` keys.
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
    if include_temporal:
        deltas = compare_temporal_signatures(observed, generated)
        scores.update({f"temporal:{name}": value for name, value in deltas.items()})
    return scores
