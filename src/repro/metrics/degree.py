"""Degree-distribution comparison metrics (GraphRNN-style extensions).

Beyond the scalar statistics of Table III, temporal-graph papers commonly
compare *degree distributions* with an MMD (GraphRNN [37], followed by
TagGen and TIGGER).  These utilities extend the evaluation suite with:

* histogram-based degree distributions per snapshot;
* the Gaussian-TV MMD between the degree distributions of two graphs
  (whole-graph and per-timestamp variants);
* a temporal-tendency summary measuring how a statistic's *growth curve*
  differs between observed and generated graphs.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..graph.snapshot import Snapshot, cumulative_snapshots
from ..graph.temporal_graph import TemporalGraph
from .mmd import mmd_squared
from .statistics import STATISTIC_FUNCTIONS, statistic_series


def degree_histogram(snapshot: Snapshot, max_degree: int = 0) -> np.ndarray:
    """Normalised undirected-degree histogram of a snapshot.

    Parameters
    ----------
    max_degree:
        Histogram support; ``0`` sizes it to the observed maximum.  Pass a
        common value when comparing two graphs.
    """
    degrees = snapshot.degrees().astype(np.int64)
    degrees = degrees[degrees > 0]
    if degrees.size == 0:
        size = max(max_degree, 1) + 1
        return np.full(size, 1.0 / size)
    top = max(int(degrees.max()), max_degree)
    hist = np.bincount(degrees, minlength=top + 1).astype(np.float64)
    return hist / hist.sum()


def degree_mmd(observed: TemporalGraph, generated: TemporalGraph, sigma: float = 1.0) -> float:
    """MMD between per-timestamp degree distributions of two graphs.

    Each cumulative snapshot contributes one distribution sample, so the
    statistic reflects the *evolution* of the degree structure, not just the
    final state.
    """
    obs_snaps = cumulative_snapshots(observed)
    gen_snaps = cumulative_snapshots(generated)
    top = 0
    for snap in obs_snaps + gen_snaps:
        degrees = snap.degrees()
        if degrees.size:
            top = max(top, int(degrees.max()))
    obs_hists = [degree_histogram(s, max_degree=top) for s in obs_snaps]
    gen_hists = [degree_histogram(s, max_degree=top) for s in gen_snaps]
    return mmd_squared(obs_hists, gen_hists, sigma=sigma)


def final_degree_mmd(observed: TemporalGraph, generated: TemporalGraph, sigma: float = 1.0) -> float:
    """MMD between the final-snapshot degree distributions only."""
    obs = cumulative_snapshots(observed)[-1]
    gen = cumulative_snapshots(generated)[-1]
    top = 0
    for snap in (obs, gen):
        degrees = snap.degrees()
        if degrees.size:
            top = max(top, int(degrees.max()))
    return mmd_squared(
        [degree_histogram(obs, max_degree=top)],
        [degree_histogram(gen, max_degree=top)],
        sigma=sigma,
    )


def temporal_tendency_error(
    observed: TemporalGraph,
    generated: TemporalGraph,
    statistic: str = "wedge_count",
) -> float:
    """Mean absolute log-space deviation of a statistic's growth curve.

    The scalar behind Figure 5: how far (in log units, averaged over
    timestamps) the generated graph's cumulative-statistic curve sits from
    the observed one.
    """
    if statistic not in STATISTIC_FUNCTIONS:
        raise KeyError(f"unknown statistic {statistic!r}")
    obs_series = statistic_series(observed)[statistic]
    gen_series = statistic_series(generated)[statistic]

    def safe_log(x: np.ndarray) -> np.ndarray:
        out = np.zeros_like(x, dtype=np.float64)
        positive = x > 0
        out[positive] = np.log(x[positive])
        return out

    return float(np.mean(np.abs(safe_log(obs_series) - safe_log(gen_series))))


def tendency_report(
    observed: TemporalGraph, generated: TemporalGraph
) -> Dict[str, float]:
    """Temporal-tendency error for every Table III statistic."""
    return {
        name: temporal_tendency_error(observed, generated, name)
        for name in STATISTIC_FUNCTIONS
    }
