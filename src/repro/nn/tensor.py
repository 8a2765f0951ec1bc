"""A small reverse-mode automatic differentiation engine on numpy.

This module is the substrate that replaces PyTorch for this reproduction.
Shredder (paper section 2.1) needs exactly one capability from its framework:
the gradient of the remote network's output with respect to an additive noise
tensor, ``dy/dn``.  :class:`Tensor` provides define-by-run reverse-mode
autodiff over numpy arrays with full broadcasting support, which is enough to
train both the backbone networks and the noise tensors.

Design notes:

* Every ``Tensor`` optionally records the operation that produced it
  (``_parents`` plus a ``_backward`` closure).  Calling :meth:`Tensor.backward`
  topologically sorts the graph and accumulates ``.grad`` arrays.
* Gradients through broadcast operations are reduced back to the parent's
  shape by :func:`unbroadcast`.
* Graph recording can be suspended with :func:`no_grad` (used for inference
  and for evaluation loops, where building the tape would waste memory).
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from repro.errors import GradientError, ShapeError

#: Default floating point dtype for all tensors.
DEFAULT_DTYPE = np.float32

_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad() -> Iterator[None]:
    """Context manager that disables autograd graph construction."""
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


def is_grad_enabled() -> bool:
    """Return whether operations currently record the autograd graph."""
    return _GRAD_ENABLED


def unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so it matches ``shape`` after numpy broadcasting.

    Broadcasting can both prepend dimensions and stretch size-1 dimensions;
    the adjoint of broadcasting is summation over exactly those axes.
    """
    if grad.shape == shape:
        return grad
    # Sum out prepended dimensions.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over stretched size-1 dimensions.
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    if grad.shape != shape:
        raise ShapeError(f"cannot unbroadcast {grad.shape} to {shape}")
    return grad


def _as_array(value: "Tensor | np.ndarray | float | int") -> np.ndarray:
    """Coerce to ndarray, keeping existing float dtypes (so float64
    gradient checks stay float64) and defaulting everything else to
    ``float32``."""
    if isinstance(value, Tensor):
        return value.data
    array = np.asarray(value)
    if array.dtype.kind != "f":
        array = array.astype(DEFAULT_DTYPE)
    return array


class Tensor:
    """A numpy array plus an optional autograd tape entry.

    Args:
        data: Array-like payload.  Converted to ``float32`` by default.
        requires_grad: Whether gradients should be accumulated into
            :attr:`grad` during :meth:`backward`.
        name: Optional debug name surfaced in ``repr``.
    """

    __slots__ = ("data", "grad", "requires_grad", "name", "_parents", "_backward")

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        name: str | None = None,
        _parents: Sequence["Tensor"] = (),
        _backward: Callable[[np.ndarray], None] | None = None,
    ) -> None:
        self.data = _as_array(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self.name = name
        self._parents: tuple[Tensor, ...] = tuple(_parents)
        self._backward = _backward

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        tag = f" name={self.name!r}" if self.name else ""
        grad = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad}{tag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (shared, not copied)."""
        return self.data

    def item(self) -> float:
        """Return the sole element of a scalar tensor as a Python float."""
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else _raise_not_scalar(self)

    def detach(self) -> "Tensor":
        """Return a tensor sharing data but severed from the graph."""
        return Tensor(self.data, requires_grad=False)

    def copy(self) -> "Tensor":
        """Return a graph-free deep copy."""
        return Tensor(self.data.copy(), requires_grad=False)

    def zero_grad(self) -> None:
        """Clear the accumulated gradient."""
        self.grad = None

    # ------------------------------------------------------------------
    # Graph construction
    # ------------------------------------------------------------------
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        """Create an op result, recording the tape entry if needed."""
        track = _GRAD_ENABLED and any(p.requires_grad for p in parents)
        if not track:
            return Tensor(data)
        needing = tuple(p for p in parents if p.requires_grad)
        return Tensor(data, requires_grad=True, _parents=needing, _backward=backward)

    def accumulate_grad(self, grad: np.ndarray) -> None:
        """Add ``grad`` into this tensor's gradient buffer."""
        grad = unbroadcast(np.asarray(grad, dtype=self.data.dtype), self.shape)
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad += grad

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Run reverse-mode autodiff from this tensor.

        Args:
            grad: Seed gradient.  Defaults to ones, which is only sensible
                for scalar outputs (e.g. a loss value).

        Raises:
            GradientError: If this tensor does not require grad.
        """
        if not self.requires_grad:
            raise GradientError("backward() called on a tensor without requires_grad")
        if grad is None:
            if self.data.size != 1:
                raise GradientError(
                    "backward() without an explicit gradient requires a scalar output"
                )
            grad = np.ones_like(self.data)
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        self.accumulate_grad(grad)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # ------------------------------------------------------------------
    # Elementwise arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other) -> "Tensor":
        other = _operand(other, self)
        out_data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self.accumulate_grad(grad)
            if other.requires_grad:
                other.accumulate_grad(grad)

        return Tensor._make(out_data, (self, other), backward)

    __radd__ = __add__

    def __sub__(self, other) -> "Tensor":
        other = _operand(other, self)
        out_data = self.data - other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self.accumulate_grad(grad)
            if other.requires_grad:
                other.accumulate_grad(-grad)

        return Tensor._make(out_data, (self, other), backward)

    def __rsub__(self, other) -> "Tensor":
        return _operand(other, self).__sub__(self)

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            self.accumulate_grad(-grad)

        return Tensor._make(-self.data, (self,), backward)

    def __mul__(self, other) -> "Tensor":
        other = _operand(other, self)
        out_data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self.accumulate_grad(grad * other.data)
            if other.requires_grad:
                other.accumulate_grad(grad * self.data)

        return Tensor._make(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = _operand(other, self)
        out_data = self.data / other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self.accumulate_grad(grad / other.data)
            if other.requires_grad:
                other.accumulate_grad(-grad * self.data / (other.data * other.data))

        return Tensor._make(out_data, (self, other), backward)

    def __rtruediv__(self, other) -> "Tensor":
        return _operand(other, self).__truediv__(self)

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise ShapeError("Tensor ** only supports scalar exponents")
        out_data = self.data**exponent

        def backward(grad: np.ndarray) -> None:
            self.accumulate_grad(grad * exponent * self.data ** (exponent - 1))

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # Elementwise functions
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            self.accumulate_grad(grad * out_data)

        return Tensor._make(out_data, (self,), backward)

    def log(self) -> "Tensor":
        out_data = np.log(self.data)

        def backward(grad: np.ndarray) -> None:
            self.accumulate_grad(grad / self.data)

        return Tensor._make(out_data, (self,), backward)

    def sqrt(self) -> "Tensor":
        out_data = np.sqrt(self.data)

        def backward(grad: np.ndarray) -> None:
            self.accumulate_grad(grad * 0.5 / out_data)

        return Tensor._make(out_data, (self,), backward)

    def abs(self) -> "Tensor":
        out_data = np.abs(self.data)

        def backward(grad: np.ndarray) -> None:
            self.accumulate_grad(grad * np.sign(self.data))

        return Tensor._make(out_data, (self,), backward)

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            self.accumulate_grad(grad * (1.0 - out_data * out_data))

        return Tensor._make(out_data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-self.data))

        def backward(grad: np.ndarray) -> None:
            self.accumulate_grad(grad * out_data * (1.0 - out_data))

        return Tensor._make(out_data, (self,), backward)

    def relu(self) -> "Tensor":
        mask = self.data > 0
        # Single-pass maximum: where()+astype would copy the array twice.
        out_data = np.maximum(self.data, 0.0)

        def backward(grad: np.ndarray) -> None:
            self.accumulate_grad(grad * mask)

        return Tensor._make(out_data, (self,), backward)

    def clip(self, low: float, high: float) -> "Tensor":
        out_data = np.clip(self.data, low, high)
        mask = (self.data > low) & (self.data < high)

        def backward(grad: np.ndarray) -> None:
            self.accumulate_grad(grad * mask)

        return Tensor._make(out_data, (self,), backward)

    def square(self) -> "Tensor":
        return self * self

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            g = grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
            self.accumulate_grad(np.broadcast_to(g, self.shape))

        return Tensor._make(np.asarray(out_data, dtype=self.data.dtype), (self,), backward)

    def mean(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = (axis,) if isinstance(axis, int) else axis
            count = 1
            for a in axes:
                count *= self.shape[a]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def var(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        """Biased (population) variance, matching BatchNorm conventions."""
        mu = self.mean(axis=axis, keepdims=True)
        centered = self - mu
        out = (centered * centered).mean(axis=axis, keepdims=keepdims)
        return out

    def max(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)
        expanded = self.data.max(axis=axis, keepdims=True)
        mask = self.data == expanded
        counts = mask.sum(axis=axis, keepdims=True)

        def backward(grad: np.ndarray) -> None:
            g = grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
            self.accumulate_grad(mask * g / counts)

        return Tensor._make(np.asarray(out_data, dtype=self.data.dtype), (self,), backward)

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)
        original = self.shape

        def backward(grad: np.ndarray) -> None:
            self.accumulate_grad(grad.reshape(original))

        return Tensor._make(out_data, (self,), backward)

    def flatten_batch(self) -> "Tensor":
        """Flatten all but the leading (batch) dimension."""
        return self.reshape(self.shape[0], -1)

    def transpose(self, *axes: int) -> "Tensor":
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        out_data = self.data.transpose(axes)
        inverse = tuple(np.argsort(axes))

        def backward(grad: np.ndarray) -> None:
            self.accumulate_grad(grad.transpose(inverse))

        return Tensor._make(out_data, (self,), backward)

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __getitem__(self, index) -> "Tensor":
        out_data = self.data[index]

        def backward(grad: np.ndarray) -> None:
            full = np.zeros_like(self.data)
            np.add.at(full, index, grad)
            self.accumulate_grad(full)

        return Tensor._make(out_data, (self,), backward)

    def pad2d(self, padding: int | tuple[int, int]) -> "Tensor":
        """Zero-pad the trailing two (spatial) dimensions of an NCHW tensor."""
        ph, pw = (padding, padding) if isinstance(padding, int) else padding
        if ph == 0 and pw == 0:
            return self
        pads = [(0, 0)] * (self.ndim - 2) + [(ph, ph), (pw, pw)]
        out_data = np.pad(self.data, pads)

        def backward(grad: np.ndarray) -> None:
            slices = tuple(
                [slice(None)] * (self.ndim - 2)
                + [slice(ph, grad.shape[-2] - ph), slice(pw, grad.shape[-1] - pw)]
            )
            self.accumulate_grad(grad[slices])

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # Linear algebra
    # ------------------------------------------------------------------
    def matmul(self, other: "Tensor") -> "Tensor":
        other = as_tensor(other)
        if self.ndim != 2 or other.ndim != 2:
            raise ShapeError(
                f"matmul expects 2-D operands, got {self.shape} @ {other.shape}"
            )
        out_data = self.data @ other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self.accumulate_grad(grad @ other.data.T)
            if other.requires_grad:
                other.accumulate_grad(self.data.T @ grad)

        return Tensor._make(out_data, (self, other), backward)

    __matmul__ = matmul

    # ------------------------------------------------------------------
    # Comparison conveniences (no gradients)
    # ------------------------------------------------------------------
    def argmax(self, axis: int | None = None) -> np.ndarray:
        return self.data.argmax(axis=axis)


def _raise_not_scalar(tensor: Tensor) -> float:
    raise ShapeError(f"item() requires a scalar tensor, got shape {tensor.shape}")


def as_tensor(value: "Tensor | np.ndarray | float | int") -> Tensor:
    """Coerce array-likes to :class:`Tensor` (passing tensors through)."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


def _operand(value: "Tensor | np.ndarray | float | int", like: Tensor) -> Tensor:
    """The other operand of a binary op on ``like``.

    A Python scalar takes ``like``'s float dtype.  As a 0-d float64 array
    it would be a strong operand under NumPy 2 promotion (NEP 50) and turn
    a float32 result into float64; float64 tensors stay float64.
    """
    if isinstance(value, (int, float)):
        return Tensor(np.asarray(value, dtype=like.data.dtype))
    return as_tensor(value)


def concatenate(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Differentiable concatenation along ``axis``."""
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if tensor.requires_grad:
                index = [slice(None)] * grad.ndim
                index[axis] = slice(int(start), int(stop))
                tensor.accumulate_grad(grad[tuple(index)])

    return Tensor._make(out_data, tensors, backward)


def stack(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Differentiable stack along a new ``axis``."""
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray) -> None:
        slabs = np.moveaxis(grad, axis, 0)
        for tensor, slab in zip(tensors, slabs):
            if tensor.requires_grad:
                tensor.accumulate_grad(slab)

    return Tensor._make(out_data, tensors, backward)


def zeros(shape: tuple[int, ...], requires_grad: bool = False) -> Tensor:
    return Tensor(np.zeros(shape, dtype=DEFAULT_DTYPE), requires_grad=requires_grad)


def ones(shape: tuple[int, ...], requires_grad: bool = False) -> Tensor:
    return Tensor(np.ones(shape, dtype=DEFAULT_DTYPE), requires_grad=requires_grad)
