"""One-shot evaluation report: everything we can measure about a simulation.

The tables and figures of the paper each probe one axis; a user deciding
whether a generated graph is good enough wants all axes at once.
:func:`evaluation_report` runs the full measurement battery on one
(observed, generated) pair and returns a nested dict;
:func:`render_report` formats it as markdown (the artifact a data-sharing
review would attach).

Sections:

* **counts** -- n / m / T of both graphs;
* **statistics** -- the seven Table III statistics under f_avg and f_med
  (Eq. 10);
* **extended** -- clustering, assortativity, reciprocity, density relative
  errors on the final cumulative snapshot, plus degree-KS and spectral
  distance;
* **temporal** -- motif MMD (Eq. 1, Table VI), significance-profile cosine,
  burstiness gap;
* **utility** -- train-on-synthetic/test-on-real link-prediction AUC vs the
  train-on-real oracle.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..graph.event_stream import burstiness, from_temporal_graph, inter_event_times
from ..graph.snapshot import snapshot_at
from ..graph.temporal_graph import TemporalGraph
from ..metrics import (
    EXTENDED_STATISTIC_FUNCTIONS,
    compare_graphs,
    degree_ks_distance,
    motif_distribution,
    motif_mmd,
    motif_significance_profile,
    significance_similarity,
    spectral_distance,
    utility_report,
)

ReportDict = Dict[str, Dict[str, float]]


def evaluation_report(
    observed: TemporalGraph,
    generated: TemporalGraph,
    delta: int = 2,
    num_nulls: int = 8,
    seed: int = 0,
    include_utility: bool = True,
    include_significance: bool = True,
) -> ReportDict:
    """Run the full measurement battery on one simulation.

    ``include_utility`` / ``include_significance`` gate the two expensive
    sections (negative sampling, null ensembles) for quick looks.
    """
    report: ReportDict = {}
    report["counts"] = {
        "observed_nodes": float(observed.num_nodes),
        "observed_edges": float(observed.num_edges),
        "generated_nodes": float(generated.num_nodes),
        "generated_edges": float(generated.num_edges),
        "timestamps": float(observed.num_timestamps),
    }

    f_avg_scores = compare_graphs(observed, generated, reduction="mean")
    f_med_scores = compare_graphs(observed, generated, reduction="median")
    report["statistics_f_avg"] = dict(f_avg_scores)
    report["statistics_f_med"] = dict(f_med_scores)

    final_obs = snapshot_at(observed, observed.num_timestamps - 1)
    final_gen = snapshot_at(generated, generated.num_timestamps - 1)
    extended: Dict[str, float] = {}
    for name, func in EXTENDED_STATISTIC_FUNCTIONS.items():
        reference = func(final_obs)
        value = func(final_gen)
        extended[name] = (
            abs(reference - value) / abs(reference) if reference else abs(value)
        )
    extended["degree_ks"] = degree_ks_distance(final_obs, final_gen)
    extended["spectral_distance"] = spectral_distance(final_obs, final_gen)
    report["extended"] = extended

    temporal: Dict[str, float] = {}
    temporal["motif_mmd"] = motif_mmd(
        motif_distribution(observed, delta), motif_distribution(generated, delta)
    )
    obs_b = burstiness(
        inter_event_times(from_temporal_graph(observed, spread="uniform", seed=seed))
    )
    gen_b = burstiness(
        inter_event_times(from_temporal_graph(generated, spread="uniform", seed=seed))
    )
    temporal["burstiness_gap"] = abs(obs_b - gen_b)
    if include_significance:
        _, obs_profile = motif_significance_profile(
            observed, delta=delta, num_nulls=num_nulls, seed=seed
        )
        _, gen_profile = motif_significance_profile(
            generated, delta=delta, num_nulls=num_nulls, seed=seed
        )
        temporal["significance_cosine"] = significance_similarity(
            obs_profile, gen_profile
        )
    report["temporal"] = temporal

    if include_utility and observed.num_timestamps >= 2:
        utility = utility_report(observed, generated, seed=seed)
        report["utility"] = {
            f"{scorer}_{key}": value
            for scorer, row in utility.items()
            for key, value in row.items()
        }
    return report


def render_report(report: ReportDict, title: str = "Simulation report") -> str:
    """Format an :func:`evaluation_report` dict as markdown."""
    lines = [f"# {title}", ""]
    section_titles = {
        "counts": "Graph sizes",
        "statistics_f_avg": "Table III statistics — mean relative error (f_avg)",
        "statistics_f_med": "Table III statistics — median relative error (f_med)",
        "extended": "Extended structural statistics (relative error / distance)",
        "temporal": "Temporal attribute preservation",
        "utility": "Downstream utility (link-prediction AUC)",
    }
    for section, rows in report.items():
        lines.append(f"## {section_titles.get(section, section)}")
        lines.append("")
        lines.append("| metric | value |")
        lines.append("|---|---|")
        for metric, value in rows.items():
            if float(value).is_integer() and abs(value) < 1e15:
                rendered = f"{int(value)}"
            else:
                rendered = f"{value:.4g}"
            lines.append(f"| {metric} | {rendered} |")
        lines.append("")
    return "\n".join(lines)


def report_headline(report: ReportDict) -> Dict[str, float]:
    """The four numbers a reviewer checks first."""
    headline = {
        "mean_statistic_error": float(
            np.mean(list(report["statistics_f_avg"].values()))
        ),
        "motif_mmd": report["temporal"]["motif_mmd"],
    }
    if "significance_cosine" in report["temporal"]:
        headline["significance_cosine"] = report["temporal"]["significance_cosine"]
    if "utility" in report:
        headline["utility_gap"] = report["utility"]["common_neighbors_gap"]
    return headline
