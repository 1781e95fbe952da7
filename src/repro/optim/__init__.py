"""The Adam optimizer and its gradient plumbing for the repro substrate."""

from .accumulate import load_gradients
from .adam import Adam
from .base import Optimizer
from .clip import clip_grad_norm

__all__ = [
    "Optimizer",
    "Adam",
    "clip_grad_norm",
    "load_gradients",
]
