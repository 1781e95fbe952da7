"""``TemporalGraph.appended()`` and the one-shot cache builders.

Every derived graph -- ``appended`` included -- starts cold and builds each
cache lazily through the one builder a fresh graph uses.  These tests pin
``appended``'s validation, the cold-start contract for every derived-graph
constructor, the builders' layouts against reference implementations, and
(through a Hypothesis rule-based state machine driving arbitrary
append/warm-cache sequences) that every materialised cache is
**bitwise-equal** to the one a from-scratch build over the concatenated
edge list produces.
"""

import numpy as np
import pytest
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from strategies import STATE_MACHINE_SETTINGS

from repro.errors import GraphFormatError
from repro.graph.temporal_graph import TemporalGraph


def _fresh_equivalent(graph: TemporalGraph) -> TemporalGraph:
    """One-shot rebuild of ``graph`` from its concatenated edge list."""
    return TemporalGraph(
        graph.num_nodes,
        graph.src.copy(),
        graph.dst.copy(),
        graph.t.copy(),
        num_timestamps=graph.num_timestamps,
    )


def assert_caches_bitwise_equal(
    graph: TemporalGraph, fresh: TemporalGraph, force: bool = False
) -> None:
    """Compare caches of ``graph`` against ``fresh`` (values *and* dtypes).

    With ``force=False`` only caches already materialised on ``graph`` are
    compared (the fresh rebuild builds its own on demand); ``force=True``
    builds and compares everything, including every snapshot adjacency.
    """
    if force or graph._incidence is not None:
        a, b = graph.incidence, fresh.incidence
        for key in ("offsets", "other", "times", "direction", "keys"):
            assert a[key].dtype == b[key].dtype, key
            np.testing.assert_array_equal(a[key], b[key], err_msg=key)
    if force or graph._partner_groups is not None:
        for name, x, y in zip(
            ("offsets", "partners"), graph.out_partner_groups(), fresh.out_partner_groups()
        ):
            assert x.dtype == y.dtype, name
            np.testing.assert_array_equal(x, y, err_msg=name)
    if force or graph._time_order is not None:
        order_a, bounds_a = graph._snapshot_order_bounds()
        order_b, bounds_b = fresh._snapshot_order_bounds()
        assert order_a.dtype == order_b.dtype
        assert bounds_a.dtype == bounds_b.dtype
        np.testing.assert_array_equal(order_a, order_b)
        np.testing.assert_array_equal(bounds_a, bounds_b)
    stamps = range(graph.num_timestamps) if force else list(graph._snapshot_cache)
    for ts in stamps:
        diff = graph.adjacency_at(ts) != fresh.adjacency_at(ts)
        assert diff.nnz == 0, f"adjacency_at({ts}) differs"


def _random_graph(rng, n=10, T=6, m=40):
    return TemporalGraph(
        n, rng.integers(0, n, m), rng.integers(0, n, m), rng.integers(0, T, m), num_timestamps=T
    )


class TestAppended:
    def test_appends_edges_after_existing(self):
        g = TemporalGraph(4, [0, 1], [1, 2], [0, 1], num_timestamps=3)
        g2 = g.appended([3], [0], [2])
        assert g2.num_edges == 3
        np.testing.assert_array_equal(g2.src, [0, 1, 3])
        np.testing.assert_array_equal(g2.dst, [1, 2, 0])
        np.testing.assert_array_equal(g2.t, [0, 1, 2])
        # the source graph is untouched
        assert g.num_edges == 2

    def test_grows_horizon_by_default(self):
        g = TemporalGraph(4, [0], [1], [0], num_timestamps=2)
        assert g.appended([1], [2], [5]).num_timestamps == 6

    def test_fixed_horizon_rejects_out_of_range(self):
        g = TemporalGraph(4, [0], [1], [0], num_timestamps=2)
        with pytest.raises(GraphFormatError, match="new_t"):
            g.appended([1], [2], [5], num_timestamps=2)

    def test_rejects_out_of_universe_nodes(self):
        g = TemporalGraph(4, [0], [1], [0], num_timestamps=2)
        with pytest.raises(GraphFormatError, match="new_src"):
            g.appended([4], [0], [0])
        with pytest.raises(GraphFormatError, match="new_dst"):
            g.appended([0], [-1], [0])

    def test_rejects_horizon_shrink(self):
        g = TemporalGraph(4, [0], [1], [3], num_timestamps=4)
        with pytest.raises(GraphFormatError, match="shrink"):
            g.appended([0], [1], [0], num_timestamps=2)

    def test_rejects_ragged_batch(self):
        g = TemporalGraph(4, [0], [1], [0], num_timestamps=2)
        with pytest.raises(GraphFormatError, match="parallel"):
            g.appended([0, 1], [1], [0])

    def test_cold_source_stays_lazy(self):
        g = TemporalGraph(4, [0, 1], [1, 2], [0, 1], num_timestamps=2)
        g2 = g.appended([2], [3], [1])
        assert g2._incidence is None
        assert g2._partner_groups is None
        assert g2._time_order is None
        assert g2._snapshot_cache == {}

    def test_horizon_growth_with_warm_caches(self):
        rng = np.random.default_rng(2)
        g = _random_graph(rng, T=4)
        g.incidence
        g._snapshot_order_bounds()
        g2 = g.appended([0, 1], [1, 2], [5, 6])
        assert g2.num_timestamps == 7
        assert_caches_bitwise_equal(g2, _fresh_equivalent(g2), force=True)


class TestDerivedGraphsStartCold:
    """Regression: derived graphs must never inherit parent cache state."""

    @pytest.mark.parametrize(
        "derive",
        [
            lambda g: g.appended([0, 1], [1, 2], [2, 3]),
            lambda g: g.appended([], [], []),
            lambda g: g.copy(),
            lambda g: g.restricted_to(2),
            lambda g: g.deduplicated(),
            lambda g: g.without_self_loops(),
        ],
        ids=[
            "appended", "appended_empty", "copy", "restricted_to", "deduplicated",
            "without_self_loops",
        ],
    )
    def test_caches_empty_after_derivation(self, derive):
        rng = np.random.default_rng(3)
        g = _random_graph(rng)
        # warm everything on the parent first
        g.incidence
        g.out_partner_groups()
        g._snapshot_order_bounds()
        for ts in range(g.num_timestamps):
            g.snapshot_view(ts)
        derived = derive(g)
        assert derived._incidence is None
        assert derived._partner_groups is None
        assert derived._time_order is None
        assert derived._snapshot_cache == {}
        # and the lazily rebuilt caches describe the derived edge list,
        # not the parent's (a stale carry would fail here)
        assert_caches_bitwise_equal(derived, _fresh_equivalent(derived), force=True)


def _lexsort_incidence(graph: TemporalGraph) -> dict:
    """Reference incidence layout: a two-key lexsort of the entry columns.

    Entries are laid out ``[out-edges, in-edges]`` and ordered by
    ``(owner, time)``; lexsort is stable, so ties keep the layout order.
    """
    m = graph.num_edges
    owner = np.concatenate([graph.src, graph.dst])
    other = np.concatenate([graph.dst, graph.src])
    times = np.concatenate([graph.t, graph.t])
    direction = np.concatenate([np.zeros(m, dtype=np.int8), np.ones(m, dtype=np.int8)])
    order = np.lexsort((times, owner))
    counts = np.bincount(owner, minlength=graph.num_nodes)
    return {
        "offsets": np.concatenate([[0], np.cumsum(counts)]).astype(np.int64),
        "other": other[order],
        "times": times[order],
        "direction": direction[order],
        "keys": owner[order] * np.int64(graph.num_timestamps) + times[order],
    }


def _unique_partner_groups(graph: TemporalGraph):
    """Reference out-partner CSR: ``np.unique`` over the ``src * n + dst`` keys."""
    pairs = np.unique(graph.src * np.int64(graph.num_nodes) + graph.dst)
    counts = np.bincount(pairs // graph.num_nodes, minlength=graph.num_nodes)
    offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    return offsets, (pairs % graph.num_nodes).astype(np.int64)


_BUILDER_GRAPHS = {
    "empty": lambda rng: TemporalGraph(5, [], [], [], num_timestamps=3),
    "random": lambda rng: _random_graph(rng, n=30, T=8, m=200),
    # 4 nodes x 2 timestamps: every (owner, t) group holds many ties, in
    # both directions, including self-loops (one out- and one in-entry).
    "heavy_ties": lambda rng: _random_graph(rng, n=4, T=2, m=300),
    "single_node": lambda rng: _random_graph(rng, n=1, T=3, m=20),
}


class TestOneShotBuilders:
    """The cache builders against reference layouts, values and dtypes."""

    @pytest.mark.parametrize("case", sorted(_BUILDER_GRAPHS))
    @pytest.mark.parametrize("seed", range(3))
    def test_incidence_matches_lexsort_layout(self, case, seed):
        graph = _BUILDER_GRAPHS[case](np.random.default_rng(seed))
        got, want = graph.incidence, _lexsort_incidence(graph)
        assert set(got) == set(want)
        for key in want:
            assert got[key].dtype == want[key].dtype, key
            np.testing.assert_array_equal(got[key], want[key], err_msg=key)

    @pytest.mark.parametrize("case", sorted(_BUILDER_GRAPHS))
    @pytest.mark.parametrize("seed", range(3))
    def test_partner_groups_match_unique(self, case, seed):
        graph = _BUILDER_GRAPHS[case](np.random.default_rng(seed))
        for got, want in zip(graph.out_partner_groups(), _unique_partner_groups(graph)):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)


class AppendMachine(RuleBasedStateMachine):
    """Random interleaving of appends and cache warm-ups.

    After every rule, each cache materialised on the appended graph must be
    bitwise-equal to the one a from-scratch build over the concatenated
    edge list produces; the teardown forces *all* caches and compares the
    complete query surface.
    """

    NODES = 8
    STAMPS = 5

    def __init__(self):
        super().__init__()
        empty = np.empty(0, dtype=np.int64)
        self.graph = TemporalGraph(
            self.NODES, empty, empty, empty, num_timestamps=self.STAMPS
        )
        self.src, self.dst, self.t = [], [], []

    @rule(
        batch=st.lists(
            st.tuples(
                st.integers(0, NODES - 1),
                st.integers(0, NODES - 1),
                st.integers(0, STAMPS - 1),
            ),
            max_size=6,
        )
    )
    def append(self, batch):
        src = [edge[0] for edge in batch]
        dst = [edge[1] for edge in batch]
        t = [edge[2] for edge in batch]
        self.graph = self.graph.appended(src, dst, t, num_timestamps=self.STAMPS)
        self.src += src
        self.dst += dst
        self.t += t

    @rule()
    def warm_incidence(self):
        self.graph.incidence

    @rule()
    def warm_partner_groups(self):
        self.graph.out_partner_groups()

    @rule()
    def warm_time_order(self):
        self.graph._snapshot_order_bounds()

    @rule(ts=st.integers(0, STAMPS - 1))
    def warm_snapshot(self, ts):
        self.graph.snapshot_view(ts)

    @invariant()
    def materialised_caches_match_one_shot_build(self):
        assert self.graph.num_edges == len(self.src)
        assert_caches_bitwise_equal(self.graph, self._one_shot())

    def teardown(self):
        assert_caches_bitwise_equal(self.graph, self._one_shot(), force=True)

    def _one_shot(self):
        return TemporalGraph(
            self.NODES, self.src, self.dst, self.t, num_timestamps=self.STAMPS
        )


AppendMachine.TestCase.settings = STATE_MACHINE_SETTINGS
TestAppendMachine = AppendMachine.TestCase
