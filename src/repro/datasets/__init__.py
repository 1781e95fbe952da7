"""Datasets: synthetic stand-ins for Table II plus the Figure 6 scalability grid."""

from .registry import (
    DATASETS,
    DatasetSpec,
    available_datasets,
    dataset_statistics,
    get_spec,
    load_dataset,
)
from .scalability import (
    ScalabilityPoint,
    density_scale_sweep,
    make_scalability_graph,
    node_scale_sweep,
    timestamp_scale_sweep,
)
from .synthetic import (
    citation_network,
    communication_network,
    erdos_renyi_temporal,
    make_synthetic,
    qa_network,
    trust_network,
)

__all__ = [
    "DatasetSpec",
    "DATASETS",
    "available_datasets",
    "get_spec",
    "load_dataset",
    "dataset_statistics",
    "citation_network",
    "communication_network",
    "trust_network",
    "qa_network",
    "erdos_renyi_temporal",
    "make_synthetic",
    "ScalabilityPoint",
    "make_scalability_graph",
    "node_scale_sweep",
    "timestamp_scale_sweep",
    "density_scale_sweep",
]
