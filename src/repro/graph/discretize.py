"""Continuous-time ingestion: binning raw timestamps into snapshots.

The public temporal-network datasets of Table II carry UNIX timestamps;
the paper models temporal graphs as series of snapshots (Def. 2), obtained
by aggregating timestamps into ``T`` bins.  This module provides the two
standard binning policies:

* **equal-width** -- bins of equal time span (calendar-like periods);
* **equal-frequency** -- bins holding (approximately) equal numbers of
  edges, which is what evaluation protocols use on bursty networks so no
  snapshot is empty.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from ..errors import GraphFormatError
from .temporal_graph import TemporalGraph


def discretize_timestamps(
    raw_times: Sequence[float],
    num_bins: int,
    policy: str = "equal_width",
) -> Tuple[np.ndarray, np.ndarray]:
    """Map raw (continuous) timestamps to integer bins ``0..num_bins-1``.

    Returns ``(bins, boundaries)`` where ``boundaries`` has
    ``num_bins + 1`` entries (``boundaries[i] <= bin i < boundaries[i+1]``).
    """
    times = np.asarray(raw_times, dtype=np.float64).reshape(-1)
    if times.size == 0:
        raise GraphFormatError("cannot discretise an empty timestamp array")
    if num_bins < 1:
        raise GraphFormatError(f"num_bins must be >= 1, got {num_bins}")
    lo, hi = float(times.min()), float(times.max())
    if policy == "equal_width":
        if hi == lo:
            boundaries = np.linspace(lo, lo + 1.0, num_bins + 1)
        else:
            boundaries = np.linspace(lo, hi, num_bins + 1)
    elif policy == "equal_frequency":
        quantiles = np.linspace(0.0, 1.0, num_bins + 1)
        boundaries = np.quantile(times, quantiles)
        # Strictly increasing boundaries (ties collapse bins otherwise).
        for i in range(1, boundaries.size):
            if boundaries[i] <= boundaries[i - 1]:
                boundaries[i] = boundaries[i - 1] + 1e-9
    else:
        raise GraphFormatError(
            f"unknown policy {policy!r}; options: equal_width, equal_frequency"
        )
    bins = np.clip(np.searchsorted(boundaries, times, side="right") - 1, 0, num_bins - 1)
    return bins.astype(np.int64), boundaries


def from_continuous(
    num_nodes: int,
    src: Sequence[int],
    dst: Sequence[int],
    raw_times: Sequence[float],
    num_bins: int,
    policy: str = "equal_width",
) -> TemporalGraph:
    """Build a :class:`TemporalGraph` from continuously-timestamped edges."""
    bins, _ = discretize_timestamps(raw_times, num_bins, policy=policy)
    return TemporalGraph(num_nodes, src, dst, bins, num_timestamps=num_bins)
