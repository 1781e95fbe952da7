"""The :class:`TemporalGraph` container (Definitions 1-2 of the paper).

A temporal graph is stored as parallel arrays of directed timestamped edges
``(src[i], dst[i], t[i])`` over integer node ids ``0..num_nodes-1`` and
integer timestamps ``0..num_timestamps-1``.  This columnar layout is the
format every sampler, generator, metric and baseline in the repro operates
on; conversions to per-timestamp snapshots and adjacency structures are
provided (and cached) here.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import GraphFormatError


def _check_ranges(*columns: Tuple[str, np.ndarray, int]) -> None:
    """Raise unless every ``(name, values, upper)`` column lies in ``[0, upper)``."""
    for name, arr, upper in columns:
        if arr.size:
            low, high = int(arr.min()), int(arr.max())
            if low < 0 or high >= upper:
                raise GraphFormatError(
                    f"{name} values must lie in [0, {upper}), found [{low}, {high}]"
                )


def sorted_unique(keys: np.ndarray) -> np.ndarray:
    """``np.unique(keys)`` by a sort and an adjacent-difference mask.

    Plain ``np.unique`` takes a hash path on integer keys in recent NumPy
    releases, 20-60x slower than sorting; the output is the same.
    """
    keys = np.sort(keys)
    first = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return keys[first]


class TemporalGraph:
    """A directed temporal graph as a set of timestamped edges.

    Parameters
    ----------
    num_nodes:
        Total number of nodes ``n``; node ids must lie in ``[0, n)``.
    src, dst, t:
        Parallel integer arrays of edge sources, destinations and timestamps.
    num_timestamps:
        Number of distinct timestamps ``T``; defaults to ``max(t) + 1``.
    validate:
        Whether to check id/timestamp ranges (disable only on trusted input).
    """

    __slots__ = (
        "num_nodes",
        "src",
        "dst",
        "t",
        "num_timestamps",
        "_incidence",
        "_time_order",
        "_partner_groups",
        "_snapshot_cache",
    )

    def __init__(
        self,
        num_nodes: int,
        src: Sequence[int],
        dst: Sequence[int],
        t: Sequence[int],
        num_timestamps: Optional[int] = None,
        validate: bool = True,
    ) -> None:
        self.num_nodes = int(num_nodes)
        self.src = np.asarray(src, dtype=np.int64).reshape(-1)
        self.dst = np.asarray(dst, dtype=np.int64).reshape(-1)
        self.t = np.asarray(t, dtype=np.int64).reshape(-1)
        if not (self.src.shape == self.dst.shape == self.t.shape):
            raise GraphFormatError(
                f"edge arrays must be parallel: src={self.src.shape}, "
                f"dst={self.dst.shape}, t={self.t.shape}"
            )
        if num_timestamps is None:
            num_timestamps = int(self.t.max()) + 1 if self.t.size else 1
        self.num_timestamps = int(num_timestamps)
        if validate:
            self._validate()
        self._incidence: Optional[Dict[str, np.ndarray]] = None
        self._time_order: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._partner_groups: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._snapshot_cache: Dict[int, object] = {}

    # ------------------------------------------------------------------
    # Validation / basic properties
    # ------------------------------------------------------------------
    def _validate(self) -> None:
        if self.num_nodes <= 0:
            raise GraphFormatError(f"num_nodes must be positive, got {self.num_nodes}")
        if self.num_timestamps <= 0:
            raise GraphFormatError(f"num_timestamps must be positive, got {self.num_timestamps}")
        _check_ranges(
            ("src", self.src, self.num_nodes),
            ("dst", self.dst, self.num_nodes),
            ("t", self.t, self.num_timestamps),
        )

    @property
    def num_edges(self) -> int:
        """Total number of temporal edges ``m``."""
        return int(self.src.size)

    @property
    def num_temporal_nodes(self) -> int:
        """Number of distinct (node, timestamp) occurrences."""
        if self.num_edges == 0:
            return 0
        pairs = np.concatenate(
            [self.src * self.num_timestamps + self.t, self.dst * self.num_timestamps + self.t]
        )
        return int(np.unique(pairs).size)

    def __repr__(self) -> str:
        return (
            f"TemporalGraph(n={self.num_nodes}, m={self.num_edges}, "
            f"T={self.num_timestamps})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TemporalGraph):
            return NotImplemented
        return (
            self.num_nodes == other.num_nodes
            and self.num_timestamps == other.num_timestamps
            and self.num_edges == other.num_edges
            and bool(np.array_equal(self._sorted_triples(), other._sorted_triples()))
        )

    def _sorted_triples(self) -> np.ndarray:
        triples = np.stack([self.t, self.src, self.dst], axis=1)
        order = np.lexsort((self.dst, self.src, self.t))
        return triples[order]

    # ------------------------------------------------------------------
    # Snapshot access
    # ------------------------------------------------------------------
    def edges_at(self, timestamp: int) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(src, dst)`` of edges whose timestamp equals ``timestamp``."""
        mask = self.t == timestamp
        return self.src[mask], self.dst[mask]

    def edges_until(self, timestamp: int) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(src, dst)`` of edges with timestamp ``<= timestamp``.

        This is the accumulation the paper uses to build evaluation snapshots
        ("accumulate the nodes and edges generated from the initial timestamp
        to the current timestamp", Sec. III).
        """
        mask = self.t <= timestamp
        return self.src[mask], self.dst[mask]

    def _snapshot_order_bounds(self) -> Tuple[np.ndarray, np.ndarray]:
        """Cached stable time-sort of the edges plus per-timestamp bounds.

        One O(E log E) sort serves every per-timestamp consumer
        (:meth:`snapshots`, :meth:`snapshot_view`); within a timestamp the
        original edge order is preserved (stable sort).
        """
        if self._time_order is None:
            order = np.argsort(self.t, kind="stable")
            bounds = np.searchsorted(self.t[order], np.arange(self.num_timestamps + 1))
            self._time_order = (order, bounds)
        return self._time_order

    def snapshots(self) -> Iterator[Tuple[int, np.ndarray, np.ndarray]]:
        """Yield ``(t, src, dst)`` for every timestamp in order."""
        order, bounds = self._snapshot_order_bounds()
        for timestamp in range(self.num_timestamps):
            sel = order[bounds[timestamp] : bounds[timestamp + 1]]
            yield timestamp, self.src[sel], self.dst[sel]

    # ------------------------------------------------------------------
    # Degrees
    # ------------------------------------------------------------------
    def temporal_degrees(self) -> np.ndarray:
        """Degree of every temporal node as a dense ``(n, T)`` array.

        The temporal degree of ``(u, t)`` counts the edges incident to ``u``
        at timestamp ``t`` in either direction -- the quantity used by the
        degree-weighted initial-node sampling of Eq. 2.
        """
        deg = np.zeros((self.num_nodes, self.num_timestamps), dtype=np.int64)
        np.add.at(deg, (self.src, self.t), 1)
        np.add.at(deg, (self.dst, self.t), 1)
        return deg

    def static_degrees(self) -> np.ndarray:
        """Total (time-aggregated) degree per node."""
        deg = np.zeros(self.num_nodes, dtype=np.int64)
        np.add.at(deg, self.src, 1)
        np.add.at(deg, self.dst, 1)
        return deg

    # ------------------------------------------------------------------
    # Incidence structure (cached) for fast temporal neighbour queries
    # ------------------------------------------------------------------
    def _build_incidence(self) -> Dict[str, np.ndarray]:
        """Build a CSR-like per-node incidence list sorted by (node, time).

        For every node ``u`` we store all incident temporal events
        ``(other_endpoint, timestamp)`` -- both out- and in-edges, because the
        temporal neighbourhood of Definition 3 is direction-agnostic.
        ``keys`` holds each entry's ``owner * T + time``, sorted, so the
        window slices of many ``(node, time)`` queries are one
        ``searchsorted`` (the ego-graph tile sampler).
        """
        owner = np.concatenate([self.src, self.dst])
        times = np.concatenate([self.t, self.t])
        keys = owner * np.int64(self.num_timestamps) + times
        # One stable sort of the (owner, time) keys: ties keep the entry
        # layout's order, out-edges (the first half) before in-edges.
        order = np.argsort(keys, kind="stable")
        offsets = np.zeros(self.num_nodes + 1, dtype=np.int64)
        np.cumsum(np.bincount(owner, minlength=self.num_nodes), out=offsets[1:])
        return {
            "offsets": offsets,
            "other": np.concatenate([self.dst, self.src])[order],
            "times": times[order],
            "direction": (order >= self.num_edges).astype(np.int8),
            "keys": keys[order],
        }

    @property
    def incidence(self) -> Dict[str, np.ndarray]:
        """Cached incidence structure (see :meth:`_build_incidence`)."""
        if self._incidence is None:
            self._incidence = self._build_incidence()
        return self._incidence

    def incident_events(self, node: int) -> Tuple[np.ndarray, np.ndarray]:
        """All ``(neighbour, timestamp)`` events incident to ``node``, time-sorted."""
        inc = self.incidence
        lo, hi = inc["offsets"][node], inc["offsets"][node + 1]
        return inc["other"][lo:hi], inc["times"][lo:hi]

    # ------------------------------------------------------------------
    # Sparse adjacency provider (shared by generation, metrics, baselines)
    # ------------------------------------------------------------------
    def out_partner_groups(self) -> Tuple[np.ndarray, np.ndarray]:
        """CSR-style slices of each node's distinct historical out-partners.

        Returns ``(offsets, partners)`` where
        ``partners[offsets[u]:offsets[u + 1]]`` are the sorted distinct
        targets ``v`` such that an edge ``u -> v`` exists at any timestamp.
        Built once in O(E log E) with a vectorised group-by over the sorted
        edge arrays and cached; this is the partner-pool structure the
        streaming generation engine's candidate assembly reads.
        """
        if self._partner_groups is None:
            n = np.int64(self.num_nodes)
            owners, partners = np.divmod(sorted_unique(self.src * n + self.dst), n)
            offsets = np.zeros(self.num_nodes + 1, dtype=np.int64)
            np.cumsum(np.bincount(owners, minlength=self.num_nodes), out=offsets[1:])
            self._partner_groups = (offsets, partners)
        return self._partner_groups

    def snapshot_view(self, timestamp: int):
        """Cached :class:`~repro.graph.snapshot.Snapshot` of the edges at ``timestamp``.

        The snapshot (and thus its CSR adjacency) is built once per timestamp
        and shared by every consumer of this graph -- e.g. all per-snapshot
        baselines fitting on one observed graph slice the same objects.  The
        cache holds at most ``num_timestamps`` entries totalling O(E).
        """
        from .snapshot import Snapshot  # local import: snapshot.py imports this module

        timestamp = int(timestamp)
        if not 0 <= timestamp < self.num_timestamps:
            raise GraphFormatError(
                f"timestamp {timestamp} outside [0, {self.num_timestamps})"
            )
        if timestamp not in self._snapshot_cache:
            order, bounds = self._snapshot_order_bounds()
            sel = order[bounds[timestamp] : bounds[timestamp + 1]]
            self._snapshot_cache[timestamp] = Snapshot(
                self.num_nodes, self.src[sel], self.dst[sel]
            )
        return self._snapshot_cache[timestamp]

    def adjacency_at(self, timestamp: int, symmetric: bool = False):
        """Sparse CSR adjacency ``A^{(t)}`` of one snapshot, built lazily.

        The streaming replacement for the dense ``(T, n, n)`` tensor of
        Sec. IV-A: O(E_t) memory per timestamp, deduplicated binary entries,
        optionally symmetrised (self-loops dropped in the symmetric view).
        """
        snapshot = self.snapshot_view(timestamp)
        return snapshot.undirected_adjacency() if symmetric else snapshot.adjacency()

    # ------------------------------------------------------------------
    # Append (the online-ingestion path)
    # ------------------------------------------------------------------
    def appended(
        self,
        new_src: Sequence[int],
        new_dst: Sequence[int],
        new_t: Sequence[int],
        num_timestamps: Optional[int] = None,
        validate: bool = True,
    ) -> "TemporalGraph":
        """New graph with ``(new_src, new_dst, new_t)`` edges appended.

        The returned graph has the appended edges *after* the existing ones
        (edge indices of the original graph are preserved).  Like every
        derived graph it starts cold: each cache is built lazily, on first
        use, by the same one-shot builder a fresh graph uses.

        ``num_timestamps`` defaults to growing the horizon just enough to
        accommodate the new timestamps; pass it explicitly (e.g. the current
        ``num_timestamps``) to reject out-of-universe appends instead.
        The node universe is always fixed: new endpoints must lie in
        ``[0, num_nodes)``.
        """
        new_src = np.asarray(new_src, dtype=np.int64).reshape(-1)
        new_dst = np.asarray(new_dst, dtype=np.int64).reshape(-1)
        new_t = np.asarray(new_t, dtype=np.int64).reshape(-1)
        if not (new_src.shape == new_dst.shape == new_t.shape):
            raise GraphFormatError(
                f"appended edge arrays must be parallel: new_src={new_src.shape}, "
                f"new_dst={new_dst.shape}, new_t={new_t.shape}"
            )
        if num_timestamps is None:
            num_timestamps = max(self.num_timestamps, int(new_t.max(initial=-1)) + 1)
        num_timestamps = int(num_timestamps)
        if num_timestamps < self.num_timestamps:
            raise GraphFormatError(
                f"appended() cannot shrink the horizon: num_timestamps={num_timestamps} "
                f"< existing {self.num_timestamps}"
            )
        if validate:
            _check_ranges(
                ("new_src", new_src, self.num_nodes),
                ("new_dst", new_dst, self.num_nodes),
                ("new_t", new_t, num_timestamps),
            )
        return self._derived(
            np.concatenate([self.src, new_src]),
            np.concatenate([self.dst, new_dst]),
            np.concatenate([self.t, new_t]),
            num_timestamps,
        )

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def _derived(
        self, src: np.ndarray, dst: np.ndarray, t: np.ndarray,
        num_timestamps: Optional[int] = None,
    ) -> "TemporalGraph":
        """A graph over trusted edge arrays in this node universe.

        Every derived graph is made here, and so starts cold: each cache is
        rebuilt lazily on first use, so no derived graph can hold a stale one.
        """
        if num_timestamps is None:
            num_timestamps = self.num_timestamps
        return TemporalGraph(
            self.num_nodes, src, dst, t, num_timestamps=num_timestamps, validate=False
        )

    def copy(self) -> "TemporalGraph":
        """Deep copy of the edge arrays; like every derived graph it starts cold."""
        return self._derived(self.src.copy(), self.dst.copy(), self.t.copy())

    def restricted_to(self, max_timestamp: int) -> "TemporalGraph":
        """Sub-temporal-graph containing only edges with ``t <= max_timestamp``."""
        mask = self.t <= max_timestamp
        return self._derived(
            self.src[mask], self.dst[mask], self.t[mask],
            min(self.num_timestamps, max_timestamp + 1),
        )

    def deduplicated(self) -> "TemporalGraph":
        """Remove duplicate ``(src, dst, t)`` triples."""
        if self.num_edges == 0:
            return self.copy()
        unique = np.unique(np.stack([self.src, self.dst, self.t], axis=1), axis=0)
        return self._derived(unique[:, 0], unique[:, 1], unique[:, 2])

    def without_self_loops(self) -> "TemporalGraph":
        """Drop edges whose endpoints coincide."""
        mask = self.src != self.dst
        return self._derived(self.src[mask], self.dst[mask], self.t[mask])


def merge(graphs: List[TemporalGraph]) -> TemporalGraph:
    """Union of several temporal graphs over the same node universe."""
    if not graphs:
        raise GraphFormatError("merge() requires at least one graph")
    n = max(g.num_nodes for g in graphs)
    big_t = max(g.num_timestamps for g in graphs)
    return TemporalGraph(
        n,
        np.concatenate([g.src for g in graphs]),
        np.concatenate([g.dst for g in graphs]),
        np.concatenate([g.t for g in graphs]),
        num_timestamps=big_t,
        validate=False,
    )
