"""Adam optimizer (Kingma & Ba, 2015) -- the workhorse for all learning-based models."""

from __future__ import annotations

from typing import Dict, Iterable, Tuple

import numpy as np

from ..errors import ConfigError
from .base import Optimizer, ParameterLike


class Adam(Optimizer):
    """Adam with bias-corrected first/second moment estimates.

    The first/second moments are name-keyed (see :class:`Optimizer`), so
    ``state_dict()`` / ``load_state_dict()`` round-trip them together with
    the step count -- warm-starting a resumed run reproduces the exact
    update sequence of an uninterrupted one.
    """

    def __init__(
        self,
        parameters: Iterable[ParameterLike],
        lr: float = 1e-3,
        betas: Tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(parameters, lr)
        if not (0.0 <= betas[0] < 1.0 and 0.0 <= betas[1] < 1.0):
            raise ConfigError(f"betas must lie in [0,1), got {betas}")
        self.betas = (float(betas[0]), float(betas[1]))
        self.eps = float(eps)
        self.weight_decay = float(weight_decay)
        self._m = {name: np.zeros_like(p.data) for name, p in self.named_parameters()}
        self._v = {name: np.zeros_like(p.data) for name, p in self.named_parameters()}

    def _state_slots(self) -> Dict[str, Dict[str, np.ndarray]]:
        return {"m": self._m, "v": self._v}

    def step(self) -> None:
        """Apply one bias-corrected Adam update to every parameter with a gradient."""
        self.step_count += 1
        beta1, beta2 = self.betas
        bias1 = 1.0 - beta1**self.step_count
        bias2 = 1.0 - beta2**self.step_count
        for name, param in self.named_parameters():
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            m = self._m[name]
            v = self._v[name]
            m *= beta1
            m += (1.0 - beta1) * grad
            v *= beta2
            v += (1.0 - beta2) * grad * grad
            m_hat = m / bias1
            v_hat = v / bias2
            param.data = param.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
