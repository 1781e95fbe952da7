"""``dirty_temporal_nodes`` against the per-node set walk it replaced.

The array-level walk must return exactly the sorted keys of
``reference_dirty_temporal_nodes``, the original Python set walk kept here
as the oracle, for radius 1-3 and time window 0-2 on three kinds of
graph: uniform random edges, heavy ties (few nodes and timestamps, so
every frontier node has many events at one time) and appends at the first
and last timestamps, where the window is clipped.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from strategies import STANDARD_SETTINGS

from repro.core import dirty_temporal_nodes
from repro.graph import TemporalGraph


def reference_dirty_temporal_nodes(graph, new_src, new_dst, new_t, radius, time_window):
    """The set walk: windowed query points, then ``radius - 1`` predecessor steps."""
    T = int(graph.num_timestamps)
    new_t = np.asarray(new_t, dtype=np.int64)
    nodes = np.concatenate(
        [np.asarray(new_src, dtype=np.int64), np.asarray(new_dst, dtype=np.int64)]
    )
    times = np.concatenate([new_t, new_t])
    frontier = set()
    for x, te in zip(nodes.tolist(), times.tolist()):
        for s in range(max(te - time_window, 0), min(te + time_window, T - 1) + 1):
            frontier.add((x, s))
    dirty = set(frontier)
    for _ in range(max(int(radius) - 1, 0)):
        next_frontier = set()
        for x, s in frontier:
            partners, event_times = graph.incident_events(int(x))
            preds = np.unique(partners[event_times == s])
            for p in preds.tolist():
                lo, hi = max(s - time_window, 0), min(s + time_window, T - 1)
                for s_p in range(lo, hi + 1):
                    key = (p, s_p)
                    if key not in dirty:
                        dirty.add(key)
                        next_frontier.add(key)
        if not next_frontier:
            break
        frontier = next_frontier
    return np.sort(
        np.fromiter((x * T + s for x, s in dirty), dtype=np.int64, count=len(dirty))
    )


@st.composite
def appends(draw):
    """``(post-append graph, new_src, new_dst, new_t)`` of one of three kinds."""
    kind = draw(st.sampled_from(["random", "ties", "window_edge"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    if kind == "ties":
        n, T, m = draw(st.integers(2, 4)), draw(st.integers(1, 2)), draw(st.integers(5, 60))
    else:
        n, T, m = draw(st.integers(2, 20)), draw(st.integers(1, 8)), draw(st.integers(0, 60))
    k = draw(st.integers(0, 4))
    src = rng.integers(0, n, m + k)
    dst = rng.integers(0, n, m + k)
    t = rng.integers(0, T, m + k)
    if kind == "window_edge":
        t[m:] = rng.choice([0, T - 1], k)
    graph = TemporalGraph(n, src, dst, t, num_timestamps=T)
    return graph, src[m:], dst[m:], t[m:]


@given(appends(), st.integers(1, 3), st.integers(0, 2))
@STANDARD_SETTINGS
def test_matches_set_walk(case, radius, window):
    graph, src, dst, t = case
    actual = dirty_temporal_nodes(graph, src, dst, t, radius=radius, time_window=window)
    expected = reference_dirty_temporal_nodes(graph, src, dst, t, radius, window)
    assert actual.dtype == expected.dtype
    np.testing.assert_array_equal(actual, expected)


def test_no_new_edges_dirties_nothing():
    graph = TemporalGraph(3, [0, 1], [1, 2], [0, 1])
    empty = np.zeros(0, dtype=np.int64)
    dirty = dirty_temporal_nodes(graph, empty, empty, empty, radius=3, time_window=1)
    assert dirty.dtype == np.int64 and dirty.size == 0
