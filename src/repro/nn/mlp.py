"""Multi-layer perceptron used by the decoder heads (MLP_mu / MLP_sigma)."""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..autograd import Tensor
from ..errors import ConfigError
from .activations import ReLU
from .container import ModuleList
from .linear import Linear
from .module import Module


class MLP(Module):
    """A stack of Linear layers with ReLU activations between them.

    Parameters
    ----------
    sizes:
        ``[in, hidden..., out]`` layer widths; must contain at least two
        entries.
    rng:
        Random generator used for weight initialisation.
    activate_last:
        Whether to apply the activation after the final layer.
    """

    def __init__(
        self,
        sizes: Sequence[int],
        rng: Optional[np.random.Generator] = None,
        activate_last: bool = False,
    ) -> None:
        super().__init__()
        if len(sizes) < 2:
            raise ConfigError(f"MLP needs at least [in, out] sizes, got {list(sizes)}")
        rng = rng if rng is not None else np.random.default_rng()
        self.sizes = list(sizes)
        self.activate_last = activate_last
        self.linears = ModuleList(
            [Linear(sizes[i], sizes[i + 1], rng=rng) for i in range(len(sizes) - 1)]
        )
        self.activation = ReLU()

    def forward(self, x: Tensor) -> Tensor:
        """Apply the layers in order, with ReLU between them.

        With ``activate_last`` the last layer's output goes through ReLU too.
        """
        last = len(self.linears) - 1
        for i, layer in enumerate(self.linears):
            x = layer(x)
            if i != last or self.activate_last:
                x = self.activation(x)
        return x

    def __repr__(self) -> str:
        return f"MLP({self.sizes})"
