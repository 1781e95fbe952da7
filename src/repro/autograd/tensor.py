"""A NumPy-backed reverse-mode automatic differentiation engine.

The paper's reference implementation relies on PyTorch; this environment has
no deep-learning framework available, so the repro package ships its own
minimal-yet-complete autograd substrate.  The design follows the classic
dynamic-graph ("define by run") approach:

* :class:`Tensor` wraps a ``numpy.ndarray`` together with an optional
  gradient buffer and a back-pointer to the operation that produced it.
* Every primitive operation records a closure computing the vector-Jacobian
  product for each differentiable input.
* :meth:`Tensor.backward` topologically sorts the recorded graph and
  accumulates gradients.

Only the operations required by the TGAE model family and the learning-based
baselines are implemented, but each is implemented fully (broadcasting,
gather/scatter for graph message passing, numerically stable reductions) and
is validated against finite differences by the property-based test-suite.
"""

from __future__ import annotations

import contextlib
import math
import threading
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import GradientError, ShapeError

ArrayLike = Union["Tensor", np.ndarray, float, int, list, tuple]

_DEFAULT_DTYPE = np.float64


class _GradMode(threading.local):
    """Thread-local flag controlling whether operations record gradients."""

    def __init__(self) -> None:
        self.enabled = True


_grad_mode = _GradMode()


class _DtypeAudit(threading.local):
    """Thread-local sink recording the dtype of every Tensor created."""

    def __init__(self) -> None:
        self.active: Optional[set] = None


_dtype_audit = _DtypeAudit()


@contextlib.contextmanager
def dtype_audit():
    """Record the dtype of every :class:`Tensor` created inside the block.

    Yields a set that accumulates ``numpy.dtype`` objects.  Used by the
    no-float64-on-production-path smoke: running ``fit -> generate`` under a
    ``float32`` policy inside this context and asserting ``np.float64`` never
    appears proves no kernel silently upcast.  Auditing is thread-local, so
    concurrent sessions do not pollute each other's records.
    """
    previous = _dtype_audit.active
    seen: set = set()
    _dtype_audit.active = seen
    try:
        yield seen
    finally:
        _dtype_audit.active = previous


@contextlib.contextmanager
def no_grad():
    """Context manager that disables graph recording (like ``torch.no_grad``)."""
    previous = _grad_mode.enabled
    _grad_mode.enabled = False
    try:
        yield
    finally:
        _grad_mode.enabled = previous


@contextlib.contextmanager
def enable_grad():
    """Context manager that re-enables graph recording inside :func:`no_grad`.

    Needed by :func:`checkpoint`, whose backward recomputation must record a
    graph even when the surrounding backward pass runs without one.
    """
    previous = _grad_mode.enabled
    _grad_mode.enabled = True
    try:
        yield
    finally:
        _grad_mode.enabled = previous


def is_grad_enabled() -> bool:
    """Return whether operations currently record the autograd graph."""
    return _grad_mode.enabled


def _as_array(value: ArrayLike) -> np.ndarray:
    """Convert ``value`` to a floating ndarray, preserving float dtypes.

    The dtype-preservation contract: an ndarray (or Tensor) that is already
    floating keeps its dtype -- a ``float32`` array never silently widens to
    ``float64`` just because it passed through a ``Tensor`` constructor.
    Everything else (Python scalars, lists, integer/bool arrays) converts to
    :data:`_DEFAULT_DTYPE` exactly as before.
    """
    if isinstance(value, Tensor):
        return value.data
    arr = np.asarray(value)
    if arr.dtype.kind == "f":  # np.issubdtype(.., np.floating), without its cost
        return arr
    return np.asarray(arr, dtype=_DEFAULT_DTYPE)


def _coerce_operand(other: ArrayLike, dtype: np.dtype) -> "Tensor":
    """Wrap a non-Tensor binary-op operand at the left operand's dtype.

    Binary ops between a Tensor and a plain scalar/array must not change the
    Tensor's dtype: a Python-float constant in a ``float32`` graph would
    otherwise drag every downstream node back to ``float64``.  Tensor-Tensor
    ops are left to NumPy's promotion rules (mixing dtypes across Tensors is
    an explicit caller choice).
    """
    if isinstance(other, Tensor):
        return other
    return Tensor(np.asarray(other, dtype=dtype))


def row_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` for a 2-D ``b`` whose every output row ignores ``a``'s other rows.

    NumPy hands a one-row product -- ``(1, K) @ (K, N)``, each ``(1, K)``
    item of a stacked ``(B, 1, K) @ (K, N)``, a tiny-``K`` single row -- to
    a different BLAS kernel than a many-row GEMM, and the two can disagree
    in the last bit.  Flattening the leading dims into one 2-D GEMM and
    duplicating a lone row to two makes each output row a function of its
    own input row alone, whatever batch it arrived in (the batch-invariant
    kernel rule of He et al., "Defeating Nondeterminism in LLM Inference",
    2025).  Inference embeddings rely on it: encoding a key alone or among
    any other keys yields the same bits.  Other operand shapes fall back to
    plain ``@``.
    """
    if b.ndim != 2:
        return a @ b
    rows = a.reshape(-1, a.shape[-1])
    out = (np.repeat(rows, 2, axis=0) @ b)[:1] if rows.shape[0] == 1 else rows @ b
    return out.reshape(a.shape[:-1] + b.shape[1:])


#: Flat elements per 1-D ``np.add.at`` call of :func:`scatter_add_rows`.  It
#: bounds the int64 flat-index transient at 128 KiB whatever the edge count,
#: which keeps checkpointed attention's peak-memory cut; not configurable.
SCATTER_CHUNK_ELEMENTS = 16384


def scatter_add_rows(
    index: np.ndarray, values: np.ndarray, rows: int, dtype: np.dtype
) -> np.ndarray:
    """``np.add.at`` of ``values`` into ``np.zeros((rows,) + values.shape[1:], dtype)``.

    ``index`` is 1-D and names the output row of each of ``values``' rows.
    NumPy (>= 1.25) runs a 1-D ``ufunc.at`` through a fast indexed loop,
    while a 1-D index into a wider array takes the generic per-row path,
    several times slower.  Flattening ``(index, values)`` to
    ``index[:, None] * width + arange(width)`` performs the same scalar
    additions in the same order -- each output element receives its updates
    in increasing ``index`` position, starting from +0.0 -- so the result
    is bitwise the row scatter's at any dtype and on any NumPy; only the
    speed needs the fast path.  The rows go in consecutive chunks of
    :data:`SCATTER_CHUNK_ELEMENTS` flat elements, which keeps that order.
    An out-of-range index raises ``IndexError``, as ``np.add.at`` does.
    """
    index = np.asarray(index, dtype=np.int64)
    out = np.zeros((rows,) + values.shape[1:], dtype=dtype)
    width = math.prod(values.shape[1:])
    if width == 0:  # nothing to add, but np.add.at still checks the index
        np.add.at(out, index, values)
        return out
    flat = out.reshape(-1)
    cols = np.arange(width, dtype=np.int64)
    step = max(1, SCATTER_CHUNK_ELEMENTS // width)
    for start in range(0, index.shape[0], step):
        part = index[start : start + step]
        flat_index = part if width == 1 else (part[:, None] * width + cols).reshape(-1)
        np.add.at(flat, flat_index, values[start : start + step].reshape(-1))
    return out


def segment_runs(ids: np.ndarray) -> Tuple[Optional[np.ndarray], np.ndarray, np.ndarray]:
    """Group ``ids`` into runs of equal values by one stable sort.

    Returns ``(order, starts, counts)``: ``order`` is the stable argsort of
    ``ids`` (``None`` when they are sorted already, so callers skip the
    permutation), and run ``i`` of the sorted ids covers positions
    ``starts[i]`` to ``starts[i] + counts[i] - 1``.  Segment reductions
    then run as ``ufunc.reduceat(values, starts)`` over contiguous rows
    and spread back per row with ``np.repeat(per_run, counts)``.  A run's
    result depends only on its own rows, in their given order, so a
    segment's bits never depend on which other segments share the array.
    """
    ids = np.asarray(ids, dtype=np.int64)
    order = None
    if not (ids[1:] >= ids[:-1]).all():
        order = np.argsort(ids, kind="stable")
        ids = ids[order]
    edges = np.ones(ids.shape[0] + 1, dtype=bool)
    np.not_equal(ids[1:], ids[:-1], out=edges[1:-1])
    bounds = np.flatnonzero(edges)
    return order, bounds[:-1], np.subtract(bounds[1:], bounds[:-1])


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` to undo NumPy broadcasting.

    Broadcasting in the forward pass duplicates values; the corresponding
    adjoint operation sums gradients over the broadcast axes.
    """
    if grad.shape == shape:
        return grad
    # Sum over leading axes that were added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were size-1 in the original shape.
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    if grad.shape != shape:
        raise ShapeError(f"cannot unbroadcast gradient {grad.shape} to {shape}")
    return grad


class Tensor:
    """An n-dimensional array participating in automatic differentiation.

    Parameters
    ----------
    data:
        Anything convertible to a ``numpy.ndarray`` of floats.
    requires_grad:
        When ``True`` the tensor accumulates gradients during
        :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fns", "_op")

    #: Subclasses created *before* the session dtype policy is applied (model
    #: parameters, which are initialised at float64 so RNG draws never depend
    #: on the policy and are cast once by ``Module.to_dtype``) set this True
    #: to opt out of :func:`dtype_audit` recording; their post-policy dtype
    #: is asserted separately.
    _dtype_audit_exempt = False

    def __init__(self, data: ArrayLike, requires_grad: bool = False) -> None:
        self.data: np.ndarray = _as_array(data)
        if _dtype_audit.active is not None and not self._dtype_audit_exempt:
            _dtype_audit.active.add(self.data.dtype)
        self.requires_grad: bool = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self._parents: Tuple[Tensor, ...] = ()
        self._backward_fns: Tuple[Optional[Callable[[np.ndarray], np.ndarray]], ...] = ()
        self._op: str = "leaf"

    # ------------------------------------------------------------------
    # Graph construction
    # ------------------------------------------------------------------
    @staticmethod
    def _from_op(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward_fns: Sequence[Optional[Callable[[np.ndarray], np.ndarray]]],
        op: str,
    ) -> "Tensor":
        requires = is_grad_enabled() and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires)
        if requires:
            out._parents = tuple(parents)
            out._backward_fns = tuple(backward_fns)
            out._op = op
        return out

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({np.array2string(self.data, precision=4, threshold=8)}{grad_flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (shared, not copied)."""
        return self.data

    def item(self) -> float:
        return float(self.data.item())

    def detach(self) -> "Tensor":
        """Return a view of this tensor cut out of the autograd graph."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        """Reset the accumulated gradient buffer."""
        self.grad = None

    # ------------------------------------------------------------------
    # Backward pass
    # ------------------------------------------------------------------
    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Run reverse-mode differentiation from this tensor.

        Parameters
        ----------
        grad:
            Seed gradient.  Defaults to ``1.0`` which is only valid for
            scalar outputs (matching the PyTorch convention).
        """
        if not self.requires_grad:
            raise GradientError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise GradientError("backward() without a seed requires a scalar output")
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=self.data.dtype)
            if grad.shape != self.data.shape:
                raise ShapeError(
                    f"seed gradient shape {grad.shape} != tensor shape {self.data.shape}"
                )

        order = _topological_order(self)
        grads: dict = {id(self): grad}
        for position, node in enumerate(order):
            order[position] = None  # the pass keeps no node it has finished
            node_grad = grads.pop(id(node), None)
            if node_grad is None:
                continue
            if node._op == "freed":
                raise GradientError("backward() through a graph an earlier backward() freed")
            if node.requires_grad and not node._parents:
                # Leaf: accumulate into .grad
                if node.grad is None:
                    node.grad = node_grad.copy()
                else:
                    node.grad = node.grad + node_grad
                continue
            if node.grad is None and node._parents and node is self:
                pass
            for parent, fn in zip(node._parents, node._backward_fns):
                if fn is None or not parent.requires_grad:
                    continue
                contribution = fn(node_grad)
                key = id(parent)
                if key in grads:
                    grads[key] = grads[key] + contribution
                else:
                    grads[key] = contribution
            # Interior node gradients are not retained, and the graph is freed
            # as the pass goes (like PyTorch): the closures and parent links
            # hold input arrays nothing reads again, so they go now rather
            # than when the caller drops the graph.
            node._parents, node._backward_fns, node._op = (), (), "freed"

    # ------------------------------------------------------------------
    # Arithmetic (each returns a new node)
    # ------------------------------------------------------------------
    def __add__(self, other: ArrayLike) -> "Tensor":
        other_t = _coerce_operand(other, self.data.dtype)
        data = self.data + other_t.data
        return Tensor._from_op(
            data,
            (self, other_t),
            (
                lambda g: _unbroadcast(g, self.data.shape),
                lambda g: _unbroadcast(g, other_t.data.shape),
            ),
            "add",
        )

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        return Tensor._from_op(-self.data, (self,), (lambda g: -g,), "neg")

    def __sub__(self, other: ArrayLike) -> "Tensor":
        other_t = _coerce_operand(other, self.data.dtype)
        data = self.data - other_t.data
        return Tensor._from_op(
            data,
            (self, other_t),
            (
                lambda g: _unbroadcast(g, self.data.shape),
                lambda g: _unbroadcast(-g, other_t.data.shape),
            ),
            "sub",
        )

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return _coerce_operand(other, self.data.dtype) - self

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other_t = _coerce_operand(other, self.data.dtype)
        data = self.data * other_t.data
        return Tensor._from_op(
            data,
            (self, other_t),
            (
                lambda g: _unbroadcast(g * other_t.data, self.data.shape),
                lambda g: _unbroadcast(g * self.data, other_t.data.shape),
            ),
            "mul",
        )

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other_t = _coerce_operand(other, self.data.dtype)
        data = self.data / other_t.data
        return Tensor._from_op(
            data,
            (self, other_t),
            (
                lambda g: _unbroadcast(g / other_t.data, self.data.shape),
                lambda g: _unbroadcast(-g * self.data / (other_t.data**2), other_t.data.shape),
            ),
            "div",
        )

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return _coerce_operand(other, self.data.dtype) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if isinstance(exponent, Tensor):
            raise TypeError("tensor exponents are not supported; use exp/log")
        data = self.data**exponent
        base = self.data

        def grad_fn(g: np.ndarray) -> np.ndarray:
            return g * exponent * base ** (exponent - 1)

        return Tensor._from_op(data, (self,), (grad_fn,), "pow")

    def __matmul__(self, other: "Tensor") -> "Tensor":
        other_t = _coerce_operand(other, self.data.dtype)
        data = row_matmul(self.data, other_t.data)

        def grad_self(g: np.ndarray) -> np.ndarray:
            if other_t.data.ndim == 1:
                return np.outer(g, other_t.data) if self.data.ndim == 2 else g * other_t.data
            grad = g @ np.swapaxes(other_t.data, -1, -2)
            return _unbroadcast(grad, self.data.shape)

        def grad_other(g: np.ndarray) -> np.ndarray:
            if self.data.ndim == 1:
                return np.outer(self.data, g) if other_t.data.ndim == 2 else self.data * g
            grad = np.swapaxes(self.data, -1, -2) @ g
            return _unbroadcast(grad, other_t.data.shape)

        return Tensor._from_op(data, (self, other_t), (grad_self, grad_other), "matmul")

    # ------------------------------------------------------------------
    # Elementwise nonlinearities
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        data = np.exp(self.data)
        return Tensor._from_op(data, (self,), (lambda g: g * data,), "exp")

    def log(self) -> "Tensor":
        data = np.log(self.data)
        return Tensor._from_op(data, (self,), (lambda g: g / self.data,), "log")

    def sqrt(self) -> "Tensor":
        data = np.sqrt(self.data)
        return Tensor._from_op(data, (self,), (lambda g: g / (2.0 * data),), "sqrt")

    def tanh(self) -> "Tensor":
        data = np.tanh(self.data)
        return Tensor._from_op(data, (self,), (lambda g: g * (1.0 - data**2),), "tanh")

    def sigmoid(self) -> "Tensor":
        data = 1.0 / (1.0 + np.exp(-np.clip(self.data, -60.0, 60.0)))
        return Tensor._from_op(data, (self,), (lambda g: g * data * (1.0 - data),), "sigmoid")

    def relu(self) -> "Tensor":
        mask = self.data > 0
        return Tensor._from_op(self.data * mask, (self,), (lambda g: g * mask,), "relu")

    def leaky_relu(self, negative_slope: float = 0.2) -> "Tensor":
        """LeakyReLU with the paper's default negative slope of 0.2 (Eq. 5)."""
        mask = self.data > 0
        scale = np.where(mask, 1.0, negative_slope).astype(self.data.dtype, copy=False)
        return Tensor._from_op(self.data * scale, (self,), (lambda g: g * scale,), "leaky_relu")

    def abs(self) -> "Tensor":
        sign = np.sign(self.data)
        return Tensor._from_op(np.abs(self.data), (self,), (lambda g: g * sign,), "abs")

    def clip(self, low: float, high: float) -> "Tensor":
        mask = (self.data >= low) & (self.data <= high)
        data = np.clip(self.data, low, high)
        return Tensor._from_op(data, (self,), (lambda g: g * mask,), "clip")

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False) -> "Tensor":
        data = self.data.sum(axis=axis, keepdims=keepdims)
        shape = self.data.shape

        def grad_fn(g: np.ndarray) -> np.ndarray:
            if axis is None:
                return np.broadcast_to(g, shape).copy() if np.ndim(g) == 0 else np.full(shape, g)
            g_expanded = g if keepdims else np.expand_dims(g, axis)
            return np.broadcast_to(g_expanded, shape).copy()

        return Tensor._from_op(np.asarray(data), (self,), (grad_fn,), "sum")

    def mean(self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        elif isinstance(axis, tuple):
            count = int(np.prod([self.data.shape[a] for a in axis]))
        else:
            count = self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        data = self.data.max(axis=axis, keepdims=keepdims)

        def grad_fn(g: np.ndarray) -> np.ndarray:
            expanded = data if keepdims or axis is None else np.expand_dims(data, axis)
            mask = (self.data == expanded).astype(self.data.dtype)
            mask /= mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
            g_expanded = g if keepdims or axis is None else np.expand_dims(g, axis)
            return mask * g_expanded

        return Tensor._from_op(np.asarray(data), (self,), (grad_fn,), "max")

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original = self.data.shape
        data = self.data.reshape(shape)
        return Tensor._from_op(data, (self,), (lambda g: g.reshape(original),), "reshape")

    def transpose(self, *axes: int) -> "Tensor":
        axes_t: Optional[Tuple[int, ...]] = axes if axes else None
        data = self.data.transpose(axes_t)
        if axes_t is None:
            inverse: Optional[Tuple[int, ...]] = None
        else:
            inverse = tuple(int(i) for i in np.argsort(axes_t))
        return Tensor._from_op(data, (self,), (lambda g: g.transpose(inverse),), "transpose")

    @property
    def T(self) -> "Tensor":  # noqa: N802 - mirrors numpy naming
        return self.transpose()

    def __getitem__(self, index) -> "Tensor":
        data = self.data[index]
        shape = self.data.shape

        def grad_fn(g: np.ndarray) -> np.ndarray:
            out = np.zeros(shape, dtype=self.data.dtype)
            np.add.at(out, index, g)
            return out

        return Tensor._from_op(np.asarray(data), (self,), (grad_fn,), "getitem")

    # ------------------------------------------------------------------
    # Graph gather / scatter primitives
    # ------------------------------------------------------------------
    def take_rows(self, indices: np.ndarray) -> "Tensor":
        """Gather rows along axis 0 (``out[i] = self[indices[i]]``).

        ``np.take`` copies the same rows as fancy indexing, several times
        faster on narrow 2-D rows.
        """
        idx = np.asarray(indices, dtype=np.int64)
        data = np.take(self.data, idx, axis=0)
        shape = self.data.shape

        def grad_fn(g: np.ndarray) -> np.ndarray:
            if idx.ndim == 1:
                return scatter_add_rows(idx, g, shape[0], self.data.dtype)
            out = np.zeros(shape, dtype=self.data.dtype)
            np.add.at(out, idx, g)
            return out

        return Tensor._from_op(data, (self,), (grad_fn,), "take_rows")

    def segment_sum(self, segment_ids: np.ndarray, num_segments: int) -> "Tensor":
        """Scatter-add rows into ``num_segments`` buckets along axis 0.

        The adjoint of :meth:`take_rows`; this is the aggregation of Eq. 4,
        summing the messages arriving at each target node of a bipartite
        computation graph.  Rows are summed per segment in their given
        order by ``np.add.reduceat`` over the stably sorted rows
        (:func:`segment_runs`), the association the attention kernel uses.
        """
        ids = np.asarray(segment_ids, dtype=np.int64)
        if ids.shape[0] != self.data.shape[0]:
            raise ShapeError(
                f"segment_ids length {ids.shape[0]} != rows {self.data.shape[0]}"
            )
        order, starts, _ = segment_runs(ids)
        perm = slice(None) if order is None else order
        data = np.zeros((num_segments,) + self.data.shape[1:], dtype=self.data.dtype)
        data[ids[perm][starts]] = np.add.reduceat(self.data[perm], starts, axis=0)
        return Tensor._from_op(data, (self,), (lambda g: g[ids],), "segment_sum")


def checkpoint(fn: Callable[..., Tensor], *inputs: Tensor) -> Tensor:
    """Activation checkpointing: run ``fn`` without recording, recompute in backward.

    The forward pass evaluates ``fn(*inputs)`` under :func:`no_grad`, so none
    of its intermediate tensors survive -- only the output data is kept.  The
    returned tensor is wired into the surrounding graph with one parent per
    input; the first time a gradient reaches it, ``fn`` is re-evaluated on
    leaf copies of the inputs, the local graph is differentiated once, and
    the per-input gradients are cached for the remaining parents.

    Exactness: the recomputation executes the very same array operations on
    the very same full-shape operands as an unwrapped call would, and the
    local backward walks the identical subgraph in the identical topological
    order, so both the forward values and the gradients delivered to every
    input are **bit-identical** to the non-checkpointed path.  Peak memory
    drops because the subgraph's per-edge/per-row intermediates exist only
    transiently -- during the forward (freed immediately) and again during
    the one recomputation in backward.

    ``fn`` must be a pure function of its tensor inputs (plain-array
    constants captured by closure are fine; anything stateful is not).
    """
    tensors = tuple(t if isinstance(t, Tensor) else Tensor(t) for t in inputs)
    if not (is_grad_enabled() and any(t.requires_grad for t in tensors)):
        with no_grad():
            return fn(*tensors)
    with no_grad():
        out = fn(*tensors)
    cache: dict = {}
    # The backward engine invokes one closure per grad-requiring parent (all
    # with the same seed, in one processing step); the recompute runs on the
    # first call and the cached per-input grads are dropped after the last,
    # so at most one checkpoint unit's recomputation is ever alive.
    pending = sum(1 for t in tensors if t.requires_grad)

    def _recomputed_grads(seed: np.ndarray) -> List[np.ndarray]:
        if "grads" not in cache:
            leaves = [Tensor(t.data, requires_grad=t.requires_grad) for t in tensors]
            with enable_grad():
                recomputed = fn(*leaves)
                recomputed.backward(seed)
            cache["grads"] = [
                leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data)
                for leaf in leaves
            ]
        return cache["grads"]

    def make_fn(i: int) -> Callable[[np.ndarray], np.ndarray]:
        def backward_fn(g: np.ndarray) -> np.ndarray:
            nonlocal pending
            grad = _recomputed_grads(g)[i]
            pending -= 1
            if pending == 0:
                cache.clear()
            return grad

        return backward_fn

    return Tensor._from_op(
        out.data, tensors, tuple(make_fn(i) for i in range(len(tensors))), "checkpoint"
    )


def _topological_order(root: Tensor) -> List[Tensor]:
    """Return nodes reachable from ``root`` in reverse-topological order."""
    order: List[Tensor] = []
    visited = set()
    stack: List[Tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    return list(reversed(order))


# ----------------------------------------------------------------------
# Constructors
# ----------------------------------------------------------------------
def tensor(data: ArrayLike, requires_grad: bool = False) -> Tensor:
    """Create a :class:`Tensor` (conversion helper mirroring ``torch.tensor``)."""
    return Tensor(data, requires_grad=requires_grad)


def zeros(
    shape: Union[int, Tuple[int, ...]],
    requires_grad: bool = False,
    dtype: Optional[np.dtype] = None,
) -> Tensor:
    """An all-zeros tensor of the given shape."""
    return Tensor(
        np.zeros(shape, dtype=dtype or _DEFAULT_DTYPE), requires_grad=requires_grad
    )


def ones(
    shape: Union[int, Tuple[int, ...]],
    requires_grad: bool = False,
    dtype: Optional[np.dtype] = None,
) -> Tensor:
    """An all-ones tensor of the given shape."""
    return Tensor(
        np.ones(shape, dtype=dtype or _DEFAULT_DTYPE), requires_grad=requires_grad
    )


def concat(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` with full gradient support."""
    ts = list(tensors)
    if not ts:
        raise ShapeError("concat() received an empty sequence")
    data = np.concatenate([t.data for t in ts], axis=axis)
    sizes = [t.data.shape[axis] for t in ts]
    offsets = np.cumsum([0] + sizes)

    def make_grad_fn(i: int) -> Callable[[np.ndarray], np.ndarray]:
        def grad_fn(g: np.ndarray) -> np.ndarray:
            slicer = [slice(None)] * g.ndim
            slicer[axis] = slice(int(offsets[i]), int(offsets[i + 1]))
            return g[tuple(slicer)]

        return grad_fn

    return Tensor._from_op(data, ts, tuple(make_grad_fn(i) for i in range(len(ts))), "concat")


def stack(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis with gradient support."""
    ts = list(tensors)
    if not ts:
        raise ShapeError("stack() received an empty sequence")
    data = np.stack([t.data for t in ts], axis=axis)

    def make_grad_fn(i: int) -> Callable[[np.ndarray], np.ndarray]:
        def grad_fn(g: np.ndarray) -> np.ndarray:
            return np.take(g, i, axis=axis)

        return grad_fn

    return Tensor._from_op(data, ts, tuple(make_grad_fn(i) for i in range(len(ts))), "stack")
