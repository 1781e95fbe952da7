"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.bench import evaluation_report, format_value, render_report
from repro.cli import build_parser, main
from repro.datasets import communication_network
from repro.graph import TemporalGraph, load_edge_list, save_edge_list
from repro.metrics import compare_graphs


@pytest.fixture()
def edge_list(tmp_path):
    rng = np.random.default_rng(0)
    g = TemporalGraph(15, rng.integers(0, 15, 80), rng.integers(0, 15, 80),
                      np.sort(rng.integers(0, 4, 80)), num_timestamps=4)
    path = tmp_path / "observed.txt"
    save_edge_list(g, path)
    return path


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_datasets_command(self, capsys):
        assert main(["datasets", "--scale", "small"]) == 0
        out = capsys.readouterr().out
        assert "DBLP" in out
        assert "UBUNTU" in out

    def test_table_bad_number(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table", "9"])


class TestPipeline:
    def test_fit_generate_evaluate(self, tmp_path, edge_list, capsys):
        model_path = tmp_path / "model.npz"
        output_path = tmp_path / "generated.txt"
        assert main([
            "fit", "--input", str(edge_list), "--model", str(model_path),
            "--epochs", "3", "--initial-nodes", "16",
        ]) == 0
        assert model_path.exists()

        assert main([
            "generate", "--model", str(model_path),
            "--output", str(output_path), "--seed", "1",
        ]) == 0
        generated = load_edge_list(output_path)
        observed = load_edge_list(edge_list)
        assert generated.num_edges == observed.num_edges

        assert main([
            "evaluate", "--observed", str(edge_list),
            "--generated", str(output_path), "--delta", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "motif_mmd" in out

    def test_missing_graph_source_exits(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["fit", "--model", str(tmp_path / "m.npz")])


@pytest.fixture()
def gapped_pair(tmp_path):
    """An observed file and a generated graph with no edges at t=2.

    The generated graph addresses the observed graph's universe as ``fit``
    reads it, as a model's ``generate`` output does; its file holds only
    four distinct timestamps.
    """
    obs_path = tmp_path / "observed.txt"
    save_edge_list(communication_network(40, 300, 5, seed=3), obs_path)
    observed = load_edge_list(obs_path)
    keep = observed.t != 2
    generated = TemporalGraph(
        observed.num_nodes, observed.src[keep], observed.dst[keep], observed.t[keep],
        num_timestamps=observed.num_timestamps,
    )
    gen_path = tmp_path / "generated.txt"
    save_edge_list(generated, gen_path)
    return observed, generated, obs_path, gen_path


class TestGeneratedFileKeepsItsTimeline:
    """``evaluate`` and ``report`` do not re-rank the generated file's timestamps."""

    @pytest.mark.parametrize("reduction", ["mean", "median"])
    def test_evaluate_keeps_an_empty_middle_timestamp(self, gapped_pair, capsys, reduction):
        observed, generated, obs_path, gen_path = gapped_pair
        assert main([
            "evaluate", "--observed", str(obs_path), "--generated", str(gen_path),
            "--reduction", reduction,
        ]) == 0
        out = capsys.readouterr().out
        for metric, value in compare_graphs(observed, generated, reduction=reduction).items():
            assert f"{metric:16s} {format_value(value):>10s}" in out

    def test_report_keeps_an_empty_middle_timestamp(self, gapped_pair, capsys):
        observed, generated, obs_path, gen_path = gapped_pair
        assert main([
            "report", "--observed", str(obs_path), "--generated", str(gen_path),
            "--fast",
        ]) == 0
        expected = render_report(evaluation_report(
            observed, generated, include_utility=False, include_significance=False,
        ))
        assert capsys.readouterr().out == expected + "\n"


class TestResumeAndUpdate:
    def _fit(self, edge_list, model_path):
        assert main([
            "fit", "--input", str(edge_list), "--model", str(model_path),
            "--epochs", "2", "--initial-nodes", "16",
        ]) == 0

    def test_fit_resume_continues_lineage(self, tmp_path, edge_list, capsys):
        model_path = tmp_path / "model.npz"
        self._fit(edge_list, model_path)
        assert main([
            "fit", "--resume", str(model_path), "--model", str(model_path),
            "--epochs", "2",
        ]) == 0
        from repro.core import load_generator

        generator = load_generator(model_path)
        assert generator.train_state is not None
        assert generator.train_state.epoch == 4

    def test_fit_resume_rejects_graph_source(self, edge_list, tmp_path):
        with pytest.raises(SystemExit, match="update"):
            main([
                "fit", "--resume", str(tmp_path / "m.npz"),
                "--model", str(tmp_path / "m.npz"), "--input", str(edge_list),
            ])

    def test_update_appends_edges(self, tmp_path, edge_list, capsys):
        model_path = tmp_path / "model.npz"
        self._fit(edge_list, model_path)
        rng = np.random.default_rng(4)
        batch = TemporalGraph(
            15, rng.integers(0, 15, 12), rng.integers(0, 15, 12),
            rng.integers(0, 4, 12), num_timestamps=4,
        )
        new_path = tmp_path / "new.txt"
        save_edge_list(batch, new_path)
        out_path = tmp_path / "updated.npz"
        assert main([
            "update", "--model", str(model_path), "--edges", str(new_path),
            "--epochs", "2", "--output", str(out_path),
        ]) == 0
        from repro.core import load_generator

        updated = load_generator(out_path)
        observed = load_edge_list(edge_list)
        assert updated.observed.num_edges == observed.num_edges + batch.num_edges
        assert updated.train_state.epoch == 4
        # the original checkpoint was left untouched
        assert load_generator(model_path).train_state.epoch == 2

    def test_update_with_zero_epochs_only_ingests(self, tmp_path, edge_list, capsys):
        model_path = tmp_path / "model.npz"
        self._fit(edge_list, model_path)
        capsys.readouterr()
        new_path = tmp_path / "new.txt"
        new_path.write_text("1 2 3\n4 5 3\n")
        out_path = tmp_path / "updated.npz"
        assert main([
            "update", "--model", str(model_path), "--edges", str(new_path),
            "--epochs", "0", "--output", str(out_path),
        ]) == 0
        assert "trained" not in capsys.readouterr().out
        from repro.core import load_generator

        updated = load_generator(out_path)
        assert updated.observed.num_edges == load_edge_list(edge_list).num_edges + 2
        assert updated.train_state.epoch == 2


class TestTableCommand:
    def test_table6_on_file(self, edge_list, capsys):
        assert main([
            "table", "6", "--input", str(edge_list),
            "--epochs", "2", "--initial-nodes", "16", "--delta", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "TGAE" in out

    def test_sensitivity_command(self, edge_list, capsys):
        assert main([
            "sensitivity", "--input", str(edge_list),
            "--epochs", "2", "--initial-nodes", "8",
            "--parameter", "radius", "--values", "1", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "radius" in out
        assert "mean err" in out


class TestStats:
    def test_stats_on_edge_list(self, edge_list, capsys):
        assert main(["stats", "--input", str(edge_list)]) == 0
        out = capsys.readouterr().out
        assert "Table III statistics" in out
        assert "global_clustering" in out
        assert "burstiness" in out

    def test_stats_on_dataset(self, capsys):
        assert main(["stats", "--dataset", "DBLP", "--scale", "small"]) == 0
        out = capsys.readouterr().out
        assert "temporal signature" in out

    def test_stats_requires_source(self):
        with pytest.raises(SystemExit):
            main(["stats"])


class TestConvert:
    def test_snapshots_to_events_and_back(self, tmp_path, edge_list, capsys):
        events_path = tmp_path / "events.txt"
        back_path = tmp_path / "back.txt"
        assert main([
            "convert", "--to", "events", "--input", str(edge_list),
            "--output", str(events_path), "--spread", "start",
        ]) == 0
        assert events_path.exists()
        assert main([
            "convert", "--to", "snapshots", "--input", str(events_path),
            "--output", str(back_path), "--bins", "4",
        ]) == 0
        original = load_edge_list(edge_list)
        back = load_edge_list(back_path)
        assert back.num_edges == original.num_edges
        # Deterministic "start" spread + equal-width re-binning round-trips.
        assert back == original

    def test_convert_to_events_uniform_seeded(self, tmp_path, edge_list):
        out1 = tmp_path / "e1.txt"
        out2 = tmp_path / "e2.txt"
        for out in (out1, out2):
            assert main([
                "convert", "--to", "events", "--input", str(edge_list),
                "--output", str(out), "--spread", "uniform", "--seed", "9",
            ]) == 0
        assert out1.read_text() == out2.read_text()

    def test_convert_requires_to(self, edge_list, tmp_path):
        with pytest.raises(SystemExit):
            main(["convert", "--input", str(edge_list),
                  "--output", str(tmp_path / "x.txt")])
