"""Weight initialisation: Glorot uniform, small Gaussian and zeros.

All initialisers take an explicit ``numpy.random.Generator`` so that every
model in the repro is fully deterministic under a seed -- a requirement for
reproducible benchmark tables.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def xavier_uniform(shape: Tuple[int, ...], rng: np.random.Generator, gain: float = 1.0) -> np.ndarray:
    """Glorot & Bengio (2010) uniform initialisation."""
    fan_in, fan_out = _fans(shape)
    limit = gain * np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def normal(shape: Tuple[int, ...], rng: np.random.Generator, std: float = 0.01) -> np.ndarray:
    """Zero-mean Gaussian initialisation."""
    return rng.normal(0.0, std, size=shape)


def zeros(shape: Tuple[int, ...]) -> np.ndarray:
    """All-zero initialisation (biases)."""
    return np.zeros(shape)


def _fans(shape: Tuple[int, ...]) -> Tuple[int, int]:
    if len(shape) == 0:
        return 1, 1
    if len(shape) == 1:
        return shape[0], shape[0]
    receptive = int(np.prod(shape[2:])) if len(shape) > 2 else 1
    return shape[0] * receptive, shape[1] * receptive
