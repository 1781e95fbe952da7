"""repro -- full reproduction of *Efficient Learning-Based Graph Simulation
for Temporal Graphs* (TGAE, ICDE 2025).

Sub-packages
------------
``repro.autograd``
    NumPy reverse-mode automatic differentiation (PyTorch substitute).
``repro.nn`` / ``repro.optim``
    Neural-network layers (incl. temporal graph attention) and optimizers.
``repro.graph``
    Temporal graph data structures, ego-graph sampling, packed bipartite batches.
``repro.datasets``
    Synthetic stand-ins for the paper's seven datasets + scalability grid.
``repro.metrics``
    Table III statistics, Eq. 10 comparison scores, motif MMD (Eq. 1).
``repro.core``
    TGAE itself: encoder, decoder, trainer, generator, ablation variants.
``repro.baselines``
    The ten comparison methods of Sec. V.
``repro.bench``
    The experiment harness regenerating every table and figure.

The batched ego-graph encoding pipeline
---------------------------------------
The hot path of both training and Sec. IV-G generation is encoding one
k-radius ego-graph per active temporal node.  ``repro.graph.EgoTile.packed``
lays a tile of ego-graphs out as flat k-bipartite tables (per level, the
tables' rows stacked with no padding and one edge list over them) and
``repro.core.TGAEEncoder`` runs **one** vectorised forward per batch.  The packer has two layouts:

* ``packed()`` gives each ego-graph its own tables -- numerically identical
  to encoding each ego-graph on its own, several times faster, and the
  default (``TGAEConfig.packed_batches = True``);
  ``repro.graph.pack_ego_batch`` runs it on a list of ego-graphs.
* ``packed(merge=True)`` shares one table per level across the tile: the
  merged k-bipartite graphs of Fig. 4 (cross-ego node deduplication),
  available for *training* via ``TGAEConfig(packed_batches=False)``.

Inference always encodes one table per ego, in fixed 128-row blocks:
every encoder product is row-invariant (``repro.autograd.row_matmul``), so
a temporal node's embedding is a pure function of (weights, graph, config,
node) and the embedding cache can serve it from any earlier call.

Generation draws every row of a shard's decoded weights in one vectorised
exponential race (sampling without replacement per temporal node), with
every draw keyed by its row, so the generated graph never depends on how
the rows were sharded.
"""

from .base import TemporalGraphGenerator
from .errors import (
    ConfigError,
    DatasetError,
    DegradeWarning,
    FaultInjected,
    GenerationError,
    GradientError,
    GraphFormatError,
    NotFittedError,
    PoolError,
    ReproError,
    ShapeError,
)
from .graph.temporal_graph import TemporalGraph

__version__ = "1.0.0"

__all__ = [
    "TemporalGraph",
    "TemporalGraphGenerator",
    "ReproError",
    "ShapeError",
    "GradientError",
    "GraphFormatError",
    "ConfigError",
    "DatasetError",
    "GenerationError",
    "NotFittedError",
    "PoolError",
    "FaultInjected",
    "DegradeWarning",
    "__version__",
]
