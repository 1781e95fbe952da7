"""Neural-network layer library built on :mod:`repro.autograd`."""

from .activations import ReLU
from .attention import TemporalGraphAttention, TimeEncoding
from .container import ModuleList
from .linear import Embedding, Linear, embedding_lookup
from .mlp import MLP
from .module import Module, Parameter
from .rnn import GRUCell, LSTMCell

__all__ = [
    "Module",
    "Parameter",
    "Linear",
    "Embedding",
    "embedding_lookup",
    "MLP",
    "ModuleList",
    "ReLU",
    "TemporalGraphAttention",
    "TimeEncoding",
    "GRUCell",
    "LSTMCell",
]
