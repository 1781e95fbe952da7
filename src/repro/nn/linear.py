"""Affine layers: Linear and Embedding."""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..autograd import Tensor
from ..errors import ConfigError, ShapeError
from . import init
from .module import Module, Parameter


class Linear(Module):
    """Fully-connected layer ``y = x W + b``.

    The layer is applied to the last axis, so inputs may carry arbitrary
    leading batch dimensions: ``(n, in)`` and ``(batch, n, in)`` (the padded
    ego-batch layout) are both supported, producing matching output shapes.

    Parameters
    ----------
    in_features, out_features:
        Input/output dimensionality.
    bias:
        Whether to learn an additive bias term.
    rng:
        Random generator for Xavier-uniform weight initialisation.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ConfigError("Linear features must be positive")
        rng = rng if rng is not None else np.random.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.xavier_uniform((in_features, out_features), rng))
        self.bias = Parameter(init.zeros((out_features,))) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        """Return ``x @ W + b`` over the last dimension of ``x``."""
        if x.shape[-1] != self.in_features:
            raise ShapeError(
                f"Linear expects last dim {self.in_features}, got {x.shape}"
            )
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out

    def __repr__(self) -> str:
        return f"Linear({self.in_features}, {self.out_features}, bias={self.bias is not None})"


def embedding_lookup(weight: Tensor, indices: np.ndarray) -> Tensor:
    """Embedding gather on an explicit weight tensor.

    The functional core of :class:`Embedding`, shared with code (the TGAE
    encoder's checkpointed input pipeline) that must run the lookup on leaf
    copies of the weight rather than through the module.
    """
    idx = np.asarray(indices, dtype=np.int64)
    num_embeddings, embedding_dim = weight.shape
    if idx.size and (idx.min() < 0 or idx.max() >= num_embeddings):
        raise IndexError(
            f"embedding index out of range [0, {num_embeddings}): "
            f"[{idx.min()}, {idx.max()}]"
        )
    return weight.take_rows(idx.reshape(-1)).reshape(*idx.shape, embedding_dim)


class Embedding(Module):
    """Lookup table mapping integer ids to dense vectors.

    Used for the paper's default node features ("node identity numbers",
    Sec. IV-B) and by the walk-sequence baselines.
    """

    def __init__(
        self,
        num_embeddings: int,
        embedding_dim: int,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if num_embeddings <= 0 or embedding_dim <= 0:
            raise ConfigError("Embedding sizes must be positive")
        rng = rng if rng is not None else np.random.default_rng()
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        self.weight = Parameter(init.normal((num_embeddings, embedding_dim), rng, std=0.1))

    def forward(self, indices: np.ndarray) -> Tensor:
        """Return the embedding rows of ``indices`` (any integer shape)."""
        return embedding_lookup(self.weight, indices)

    def __repr__(self) -> str:
        return f"Embedding({self.num_embeddings}, {self.embedding_dim})"
