"""Tests for the degree-distribution and temporal-tendency extension metrics,
and for the final-snapshot reads of `stats`, `report` and `final_degree_mmd`."""

import numpy as np
import pytest

from repro.bench import evaluation_report
from repro.cli import main
from repro.datasets import communication_network
from repro.graph import (
    Snapshot,
    TemporalGraph,
    cumulative_snapshots,
    save_edge_list,
    snapshot_at,
)
from repro.metrics import (
    EXTENDED_STATISTIC_FUNCTIONS,
    STATISTIC_FUNCTIONS,
    degree_histogram,
    degree_mmd,
    final_degree_mmd,
    temporal_tendency_error,
    tendency_report,
)


def graph():
    return communication_network(20, 100, 4, seed=7)


class TestDegreeHistogram:
    def test_normalised(self):
        snap = cumulative_snapshots(graph())[-1]
        hist = degree_histogram(snap)
        assert hist.sum() == pytest.approx(1.0)
        assert np.all(hist >= 0)

    def test_support_extension(self):
        snap = cumulative_snapshots(graph())[-1]
        hist = degree_histogram(snap, max_degree=100)
        assert hist.size == 101

    def test_star_histogram(self):
        snap = Snapshot(5, np.zeros(4, dtype=int), np.arange(1, 5))
        hist = degree_histogram(snap)
        # degrees: hub 4, leaves 1,1,1,1 -> bin1 = 4/5, bin4 = 1/5.
        assert hist[1] == pytest.approx(0.8)
        assert hist[4] == pytest.approx(0.2)

    def test_empty_uniform(self):
        snap = Snapshot(4, np.array([], dtype=int), np.array([], dtype=int))
        hist = degree_histogram(snap, max_degree=3)
        assert np.allclose(hist, 0.25)


class TestDegreeMMD:
    def test_identity_zero(self):
        g = graph()
        assert degree_mmd(g, g.copy()) == pytest.approx(0.0, abs=1e-12)
        assert final_degree_mmd(g, g.copy()) == pytest.approx(0.0, abs=1e-12)

    def test_detects_degree_shift(self):
        g = graph()
        # Concentrate every edge on node 0: radically different histogram.
        concentrated = TemporalGraph(
            g.num_nodes,
            np.zeros(g.num_edges, dtype=int),
            np.maximum(g.dst, 1),
            g.t.copy(),
            num_timestamps=g.num_timestamps,
        )
        assert degree_mmd(g, concentrated) > 0.01

    def test_symmetric(self):
        g = graph()
        other = communication_network(20, 100, 4, seed=8)
        assert degree_mmd(g, other) == pytest.approx(degree_mmd(other, g))


class TestTendency:
    def test_identity_zero(self):
        g = graph()
        assert temporal_tendency_error(g, g.copy()) == 0.0

    def test_report_covers_all_statistics(self):
        g = graph()
        report = tendency_report(g, g.copy())
        assert len(report) == 7
        assert all(v == 0.0 for v in report.values())

    def test_unknown_statistic_raises(self):
        g = graph()
        with pytest.raises(KeyError):
            temporal_tendency_error(g, g.copy(), statistic="nope")

    def test_detects_curve_divergence(self):
        g = graph()
        # Push all edges to the last timestamp: growth curve changes shape.
        late = TemporalGraph(
            g.num_nodes,
            g.src.copy(),
            g.dst.copy(),
            np.full(g.num_edges, g.num_timestamps - 1),
            num_timestamps=g.num_timestamps,
        )
        assert temporal_tendency_error(g, late, "wedge_count") > 0.1


def drawn_graph(seed):
    """Unsorted timestamps, self-loops, repeated pairs and isolated nodes."""
    rng = np.random.default_rng(seed)
    n, m, num_t = 30, 120, 5
    return TemporalGraph(
        n, rng.integers(0, n, m), rng.integers(0, n, m), rng.integers(0, num_t, m),
        num_timestamps=num_t,
    )


def all_snapshots_final(graph, timestamp):
    """The final snapshot read off the full cumulative sequence."""
    return cumulative_snapshots(graph)[timestamp]


class TestFinalSnapshotOnly:
    """Building only the final snapshot gives the bytes building all T gave."""

    @pytest.mark.parametrize("seed", range(4))
    def test_every_statistic_is_repr_equal(self, seed):
        graph = drawn_graph(seed)
        alone = snapshot_at(graph, graph.num_timestamps - 1)
        final = cumulative_snapshots(graph)[-1]
        functions = {**STATISTIC_FUNCTIONS, **EXTENDED_STATISTIC_FUNCTIONS}
        for name, fn in functions.items():
            assert repr(fn(alone)) == repr(fn(final)), name

    @pytest.mark.parametrize("seed", range(4))
    def test_final_degree_mmd(self, monkeypatch, seed):
        observed, generated = drawn_graph(seed), drawn_graph(seed + 100)
        alone = final_degree_mmd(observed, generated)
        monkeypatch.setattr("repro.metrics.degree.snapshot_at", all_snapshots_final)
        assert repr(final_degree_mmd(observed, generated)) == repr(alone)

    @pytest.mark.parametrize("seed", range(2))
    def test_cli_stats(self, tmp_path, capsys, monkeypatch, seed):
        path = tmp_path / "graph.txt"
        save_edge_list(drawn_graph(seed), path)
        assert main(["stats", "--input", str(path)]) == 0
        alone = capsys.readouterr().out
        monkeypatch.setattr("repro.cli.snapshot_at", all_snapshots_final)
        assert main(["stats", "--input", str(path)]) == 0
        assert capsys.readouterr().out == alone

    @pytest.mark.parametrize("seed", range(2))
    def test_report_extended_section(self, monkeypatch, seed):
        observed, generated = drawn_graph(seed), drawn_graph(seed + 100)
        fast = dict(include_utility=False, include_significance=False)
        alone = evaluation_report(observed, generated, **fast)["extended"]
        monkeypatch.setattr("repro.bench.report.snapshot_at", all_snapshots_final)
        full = evaluation_report(observed, generated, **fast)["extended"]
        assert {k: repr(v) for k, v in full.items()} == {k: repr(v) for k, v in alone.items()}
