"""The Fig. 5 temporal-tendency error, and the final-snapshot reads of
`stats`, `report` and every snapshot statistic."""

import numpy as np
import pytest

from repro.bench import evaluation_report, tendency_fit_error
from repro.cli import main
from repro.datasets import communication_network
from repro.graph import (
    TemporalGraph,
    cumulative_snapshots,
    save_edge_list,
    snapshot_at,
)
from repro.metrics import (
    EXTENDED_STATISTIC_FUNCTIONS,
    STATISTIC_FUNCTIONS,
    statistic_time_series,
)


def graph():
    return communication_network(20, 100, 4, seed=7)


def tendency_errors(observed, generated, metrics):
    """``tendency_fit_error`` of ``generated`` against ``observed`` per metric."""
    data = {
        "Origin": statistic_time_series(observed, metrics),
        "Generated": statistic_time_series(generated, metrics),
    }
    return {metric: tendency_fit_error(data, metric)["Generated"] for metric in metrics}


class TestTendency:
    def test_identity_zero(self):
        g = graph()
        assert tendency_errors(g, g.copy(), ["wedge_count"]) == {"wedge_count": 0.0}

    def test_report_covers_all_statistics(self):
        g = graph()
        report = tendency_errors(g, g.copy(), list(STATISTIC_FUNCTIONS))
        assert len(report) == 7
        assert all(v == 0.0 for v in report.values())

    def test_unknown_statistic_raises(self):
        g = graph()
        data = {"Origin": statistic_time_series(g, ["wedge_count"])}
        with pytest.raises(KeyError):
            tendency_fit_error(data, "nope")

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
        assert tendency_errors(g, late, ["wedge_count"])["wedge_count"] > 0.1


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
