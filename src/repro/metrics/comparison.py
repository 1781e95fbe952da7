"""Temporal comparison scores f_avg / f_med (Eq. 10 of the paper).

Given an observed temporal graph and a generated one, both are unrolled into
cumulative snapshots ``S_t`` and ``S'_t``; for every statistic ``f_m`` the
relative error ``| (f_m(S_t) - f_m(S'_t)) / f_m(S_t) |`` is computed per
timestamp and reduced by mean (Table V) or median (Table IV).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Union

import numpy as np

from ..errors import GraphFormatError
from ..graph.snapshot import Snapshot, cumulative_snapshots
from ..graph.temporal_graph import TemporalGraph
from .statistics import STATISTIC_FUNCTIONS, statistic_series


def select_statistics(
    statistics: Union[str, Sequence[str], None] = None, reduction: str = "mean"
) -> List[str]:
    """Validate a statistic selection and reduction; return the names.

    ``None`` selects all seven Table III statistics and a bare string is one
    statistic name.  Unknown names raise ``KeyError``; a reduction other
    than ``"mean"`` or ``"median"`` raises ``ValueError``.
    """
    if reduction not in ("mean", "median"):
        raise ValueError(f"reduction must be 'mean' or 'median', got {reduction!r}")
    if statistics is None:
        return list(STATISTIC_FUNCTIONS)
    names = [statistics] if isinstance(statistics, str) else list(statistics)
    unknown = [n for n in names if n not in STATISTIC_FUNCTIONS]
    if unknown:
        raise KeyError(f"unknown statistics: {unknown}")
    return names


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


def compare_graphs(
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
