"""Tests for the one-shot evaluation report."""

import numpy as np
import pytest

from perturb import perturb_edges

from repro.bench import evaluation_report, render_report, report_headline
from repro.cli import main
from repro.datasets import communication_network
from repro.graph import save_edge_list, shuffle_timestamps


@pytest.fixture(scope="module")
def pair():
    observed = communication_network(25, 200, 5, seed=11)
    generated = perturb_edges(observed, 0.2, seed=0)
    return observed, generated


@pytest.fixture(scope="module")
def report(pair):
    observed, generated = pair
    return evaluation_report(observed, generated, num_nulls=4, seed=0)


class TestEvaluationReport:
    def test_all_sections_present(self, report):
        assert set(report) == {
            "counts",
            "statistics_f_avg",
            "statistics_f_med",
            "extended",
            "temporal",
            "utility",
        }

    def test_counts_section(self, pair, report):
        observed, generated = pair
        assert report["counts"]["observed_edges"] == observed.num_edges
        assert report["counts"]["generated_edges"] == generated.num_edges

    def test_statistics_cover_table_three(self, report):
        for section in ("statistics_f_avg", "statistics_f_med"):
            assert "triangle_count" in report[section]
            assert len(report[section]) == 7

    def test_extended_section_keys(self, report):
        extended = report["extended"]
        for key in ("global_clustering", "degree_ks", "spectral_distance"):
            assert key in extended

    def test_temporal_section(self, report):
        assert report["temporal"]["motif_mmd"] >= 0.0
        assert -1.0 <= report["temporal"]["significance_cosine"] <= 1.0

    def test_utility_section(self, report):
        assert "common_neighbors_gap" in report["utility"]

    def test_fast_mode_skips_expensive_sections(self, pair):
        observed, generated = pair
        fast = evaluation_report(
            observed, generated, include_utility=False, include_significance=False
        )
        assert "utility" not in fast
        assert "significance_cosine" not in fast["temporal"]

    def test_identical_graphs_score_zero_errors(self, pair):
        observed, _ = pair
        self_report = evaluation_report(
            observed, observed.copy(), num_nulls=4, seed=0
        )
        for value in self_report["statistics_f_avg"].values():
            assert value == pytest.approx(0.0)
        assert self_report["temporal"]["motif_mmd"] == pytest.approx(0.0, abs=1e-9)

    def test_noise_worsens_headline(self, pair):
        """More perturbation -> worse headline error (report is monotone)."""
        observed, _ = pair
        mild = evaluation_report(
            observed, perturb_edges(observed, 0.1, seed=1),
            include_utility=False, include_significance=False,
        )
        heavy = evaluation_report(
            observed, perturb_edges(observed, 0.9, seed=1),
            include_utility=False, include_significance=False,
        )
        assert (
            np.mean(list(heavy["statistics_f_avg"].values()))
            > np.mean(list(mild["statistics_f_avg"].values()))
        )

    def test_time_shuffle_hits_temporal_not_static(self, pair):
        observed, _ = pair
        shuffled_report = evaluation_report(
            observed, shuffle_timestamps(observed, seed=2),
            include_utility=False, include_significance=False,
        )
        # The final cumulative snapshot is identical, so final-snapshot
        # errors vanish while the temporal section reacts.
        assert shuffled_report["extended"]["degree_ks"] == 0.0
        assert shuffled_report["temporal"]["motif_mmd"] > 0.0


class TestRendering:
    def test_markdown_structure(self, report):
        text = render_report(report)
        assert text.startswith("# Simulation report")
        assert "## Temporal attribute preservation" in text
        assert "| motif_mmd |" in text

    def test_headline_keys(self, report):
        headline = report_headline(report)
        assert "mean_statistic_error" in headline
        assert "motif_mmd" in headline
        assert "significance_cosine" in headline
        assert "utility_gap" in headline


class TestCliReport:
    def test_report_command_writes_file(self, tmp_path, pair):
        observed, generated = pair
        obs_path = tmp_path / "observed.txt"
        gen_path = tmp_path / "generated.txt"
        out_path = tmp_path / "report.md"
        save_edge_list(observed, obs_path)
        save_edge_list(generated, gen_path)
        assert main([
            "report", "--observed", str(obs_path), "--generated", str(gen_path),
            "--output", str(out_path), "--fast",
        ]) == 0
        text = out_path.read_text()
        assert "# Simulation report" in text

    def test_report_command_stdout(self, tmp_path, pair, capsys):
        observed, generated = pair
        obs_path = tmp_path / "observed.txt"
        gen_path = tmp_path / "generated.txt"
        save_edge_list(observed, obs_path)
        save_edge_list(generated, gen_path)
        assert main([
            "report", "--observed", str(obs_path), "--generated", str(gen_path),
            "--fast",
        ]) == 0
        assert "Graph sizes" in capsys.readouterr().out

    def test_report_command_with_mismatched_timestamp_universe(self, tmp_path, pair):
        """Generated file with fewer distinct timestamps must still report."""
        observed, _ = pair
        obs_path = tmp_path / "obs.txt"
        gen_path = tmp_path / "gen.txt"
        save_edge_list(observed, obs_path)
        # A generated graph active only at t=0 (one distinct timestamp).
        gen_path.write_text("\n".join(f"{u} {v} 0" for u, v in
                                      zip(observed.src[:50], observed.dst[:50])) + "\n")
        assert main([
            "report", "--observed", str(obs_path), "--generated", str(gen_path),
            "--fast",
        ]) == 0
