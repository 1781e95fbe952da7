"""Temporal graph data structures and sampling (Definitions 1-4, Alg. 1, Fig. 4)."""

from .bipartite import PackedEgoBatch, PackedLevel, pack_ego_batch
from .ego_graph import (
    EgoGraph,
    EgoTile,
    ego_graph_batch,
    initial_node_probabilities,
    sample_ego_graph,
    sample_ego_tile,
    sample_initial_nodes,
)
from .discretize import (
    discretize_timestamps,
    edges_per_snapshot,
    from_continuous,
    rebin,
)
from .event_stream import (
    EventStream,
    burstiness,
    event_rate_series,
    from_temporal_graph,
    inter_event_times,
    load_event_stream,
    memory_coefficient,
    save_event_stream,
)
from .event_stream import merge as merge_streams
from .io import load_edge_list, save_edge_list
from .validation import ValidationReport, validate_generated
from .neighborhood import first_order_neighbors, temporal_degree, temporal_neighborhood
from .snapshot import Snapshot, cumulative_snapshots, snapshot_at
from .transforms import (
    perturb_edges,
    relabel_nodes,
    reverse_time,
    rewire_degree_preserving,
    shuffle_timestamps,
    subsample_nodes,
)
from .temporal_graph import TemporalGraph, merge
from .walks import sample_temporal_walk, sample_walk_corpus, walks_to_graph

__all__ = [
    "discretize_timestamps",
    "from_continuous",
    "rebin",
    "edges_per_snapshot",
    "validate_generated",
    "ValidationReport",
    "TemporalGraph",
    "merge",
    "Snapshot",
    "cumulative_snapshots",
    "snapshot_at",
    "first_order_neighbors",
    "temporal_neighborhood",
    "temporal_degree",
    "EgoGraph",
    "EgoTile",
    "sample_ego_graph",
    "sample_ego_tile",
    "sample_initial_nodes",
    "initial_node_probabilities",
    "ego_graph_batch",
    "PackedEgoBatch",
    "PackedLevel",
    "pack_ego_batch",
    "sample_temporal_walk",
    "sample_walk_corpus",
    "walks_to_graph",
    "load_edge_list",
    "save_edge_list",
    "EventStream",
    "merge_streams",
    "from_temporal_graph",
    "inter_event_times",
    "burstiness",
    "memory_coefficient",
    "event_rate_series",
    "save_event_stream",
    "load_event_stream",
    "shuffle_timestamps",
    "rewire_degree_preserving",
    "perturb_edges",
    "reverse_time",
    "relabel_nodes",
    "subsample_nodes",
]
