"""Optimizers, learning-rate schedules, and gradient plumbing for the repro substrate."""

from .accumulate import load_gradients
from .adam import Adam
from .base import Optimizer
from .clip import clip_grad_norm
from .scheduler import ConstantLR, ExponentialDecayLR, StepLR
from .sgd import SGD

__all__ = [
    "Optimizer",
    "SGD",
    "Adam",
    "clip_grad_norm",
    "load_gradients",
    "ConstantLR",
    "StepLR",
    "ExponentialDecayLR",
]
