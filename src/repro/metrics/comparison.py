"""Temporal comparison scores f_avg / f_med (Eq. 10 of the paper).

Given an observed temporal graph and a generated one, both are unrolled into
cumulative snapshots ``S_t`` and ``S'_t``; for every statistic ``f_m`` the
relative error ``| (f_m(S_t) - f_m(S'_t)) / f_m(S_t) |`` is computed per
timestamp and reduced by mean (Table V) or median (Table IV).

:func:`compare_graphs` scores the Table III statistics and *is*
:func:`~repro.metrics.streaming.streaming_evaluate`, which reads both
graphs' one-pass statistic series.  :func:`f_avg`, :func:`f_med` and
:func:`relative_error_series` score any ``Snapshot -> float`` callable
(such as the extended statistics) snapshot by snapshot.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Union

import numpy as np

from ..errors import GraphFormatError
from ..graph.snapshot import Snapshot, cumulative_snapshots
from ..graph.temporal_graph import TemporalGraph
from .statistics import select_statistics, statistic_series
from .streaming import streaming_evaluate


def relative_error_series(
    observed: TemporalGraph,
    generated: TemporalGraph,
    statistic: Callable[[Snapshot], float],
    eps: float = 1e-12,
) -> np.ndarray:
    """Per-timestamp relative errors of one statistic between two graphs.

    Timestamps where the observed statistic is (numerically) zero are skipped
    -- the paper's ratio is undefined there and early empty snapshots would
    otherwise dominate the score.
    """
    if observed.num_timestamps != generated.num_timestamps:
        raise GraphFormatError(
            "observed and generated graphs must span the same number of "
            f"timestamps ({observed.num_timestamps} != {generated.num_timestamps})"
        )
    obs_snaps = cumulative_snapshots(observed)
    gen_snaps = cumulative_snapshots(generated)
    errors: List[float] = []
    for obs, gen in zip(obs_snaps, gen_snaps):
        reference = statistic(obs)
        if abs(reference) < eps:
            continue
        errors.append(abs((reference - statistic(gen)) / reference))
    return np.asarray(errors, dtype=np.float64)


def f_avg(
    observed: TemporalGraph,
    generated: TemporalGraph,
    statistic: Callable[[Snapshot], float],
) -> float:
    """Mean relative error across timestamps (Eq. 10, Table V)."""
    errors = relative_error_series(observed, generated, statistic)
    return float(errors.mean()) if errors.size else 0.0


def f_med(
    observed: TemporalGraph,
    generated: TemporalGraph,
    statistic: Callable[[Snapshot], float],
) -> float:
    """Median relative error across timestamps (Eq. 10, Table IV)."""
    errors = relative_error_series(observed, generated, statistic)
    return float(np.median(errors)) if errors.size else 0.0


#: Eq. 10 over several statistics at once: the one implementation, by its
#: table-harness name.
compare_graphs = streaming_evaluate


def statistic_time_series(
    graph: TemporalGraph, statistics: Union[str, Sequence[str], None] = None
) -> Dict[str, np.ndarray]:
    """Per-timestamp values of each statistic on cumulative snapshots.

    This is the data behind Figure 5 (temporal tendency curves), read from
    :func:`~repro.metrics.statistics.statistic_series`.
    """
    names = select_statistics(statistics)
    series = statistic_series(graph)
    return {name: series[name] for name in names}
