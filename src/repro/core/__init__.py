"""TGAE: the paper's primary contribution (Sec. IV)."""

from .config import NO_TRUNCATION, TGAEConfig, fast_config
from .decoder import DecoderOutput, EgoGraphDecoder
from .embed_cache import EmbeddingCache, dirty_temporal_nodes, graph_token, weights_token
from .encoder import TGAEEncoder
from .engine import (
    GenerateChunkTask,
    GenerationEngine,
    TopKChunkTask,
    TopKScores,
    active_temporal_nodes,
)
from .parallel import WorkerPool, run_sharded
from .generator import TGAEGenerator
from .persistence import load_generator, save_generator, save_training_checkpoint
from .loss import (
    adjacency_target_rows,
    reconstruction_loss,
    tgae_loss,
    tgae_shard_loss,
)
from .model import TGAEModel
from .sampler import EgoGraphSampler, TrainingBatch
from .trainer import (
    TrainShardResult,
    TrainShardTask,
    TrainingHistory,
    TrainingState,
    run_train_shard,
    train_tgae,
)
from .continuous import ContinuousTimeGenerator
from .upscale import UpscaledGenerator, expand_temporal_graph
from .variants import VARIANTS, tgae_full, tgae_g, tgae_n, tgae_p, tgae_t

__all__ = [
    "save_generator",
    "load_generator",
    "save_training_checkpoint",
    "TGAEConfig",
    "fast_config",
    "NO_TRUNCATION",
    "TGAEEncoder",
    "EgoGraphDecoder",
    "DecoderOutput",
    "TGAEModel",
    "EgoGraphSampler",
    "TrainingBatch",
    "train_tgae",
    "TrainingHistory",
    "TrainingState",
    "tgae_loss",
    "reconstruction_loss",
    "adjacency_target_rows",
    "tgae_shard_loss",
    "TrainShardTask",
    "TrainShardResult",
    "run_train_shard",
    "TGAEGenerator",
    "GenerationEngine",
    "GenerateChunkTask",
    "TopKChunkTask",
    "WorkerPool",
    "run_sharded",
    "TopKScores",
    "EmbeddingCache",
    "dirty_temporal_nodes",
    "graph_token",
    "weights_token",
    "active_temporal_nodes",
    "VARIANTS",
    "tgae_full",
    "tgae_g",
    "tgae_t",
    "tgae_n",
    "tgae_p",
    "ContinuousTimeGenerator",
    "UpscaledGenerator",
    "expand_temporal_graph",
]
