"""The ReLU activation module (the MLP nonlinearity).

The attention kernel applies Eq. 5's LeakyReLU through
:meth:`repro.autograd.Tensor.leaky_relu` directly, not through a module.
"""

from __future__ import annotations

from ..autograd import Tensor
from .module import Module


class ReLU(Module):
    """Rectified linear unit."""

    def forward(self, x: Tensor) -> Tensor:
        """Apply ``max(x, 0)`` elementwise."""
        return x.relu()
