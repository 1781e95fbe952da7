"""NumPy reverse-mode autograd substrate (PyTorch substitute for this repro).

Public surface:

* :class:`Tensor` and constructors (:func:`tensor`, :func:`zeros`,
  :func:`ones`, :func:`concat`, :func:`stack`)
* :func:`row_matmul`, the batch-invariant matmul every encoder product uses
* :func:`scatter_add_rows`, the order-preserving row scatter-add of the
  attention kernel and the gather backward
* :func:`no_grad` context manager
* composite ops in :mod:`repro.autograd.ops`
* :func:`check_gradients` for finite-difference validation
"""

from .grad_check import check_gradients, numerical_gradient
from .ops import (
    binary_cross_entropy_with_logits,
    cross_entropy_with_logits,
    kl_standard_normal,
    log_softmax,
    softmax,
)
from .tensor import (
    Tensor,
    checkpoint,
    concat,
    dtype_audit,
    enable_grad,
    is_grad_enabled,
    no_grad,
    ones,
    row_matmul,
    scatter_add_rows,
    stack,
    tensor,
    zeros,
)

__all__ = [
    "Tensor",
    "tensor",
    "zeros",
    "ones",
    "concat",
    "stack",
    "no_grad",
    "enable_grad",
    "is_grad_enabled",
    "checkpoint",
    "dtype_audit",
    "row_matmul",
    "scatter_add_rows",
    "softmax",
    "log_softmax",
    "cross_entropy_with_logits",
    "binary_cross_entropy_with_logits",
    "kl_standard_normal",
    "check_gradients",
    "numerical_gradient",
]
