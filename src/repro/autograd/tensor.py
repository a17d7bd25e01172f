"""The :class:`Tensor` class: a NumPy array with a reverse-mode autograd graph.

Design notes
------------
* Data is a ``float64`` or ``float32`` :class:`numpy.ndarray`; complex
  quantities are carried as separate real/imaginary channels by callers.
* Every op computes in its input's dtype.  Python scalars and arrays combined
  with a tensor take that tensor's dtype, so a float32 graph stays float32;
  :meth:`Tensor.astype` is the one explicit, differentiable cast.  The dtype
  policy of the package: the surrogate models train in float32 (their
  :class:`~repro.nn.module.Parameter` storage), while the design
  parametrization and fabrication transforms that feed the Maxwell solver
  stay in float64.
* Each differentiable operation returns a new :class:`Tensor` holding a
  ``_backward`` closure and references to its parents; :meth:`Tensor.backward`
  runs the closures in reverse topological order.  Gradients are accumulated
  in each parent's own dtype.
* Broadcasting follows NumPy semantics; gradients are reduced back to the
  parent shapes with :func:`_unbroadcast`.
* A module-level switch (:func:`no_grad`) disables graph construction for
  inference and for the inner loops of the numerical solver integration.
"""

from __future__ import annotations

import contextlib
import math
from typing import Callable, Iterable, Sequence

import numpy as np

_GRAD_ENABLED = True


def is_grad_enabled() -> bool:
    """Return whether new operations record gradient information."""
    return _GRAD_ENABLED


@contextlib.contextmanager
def no_grad():
    """Context manager that disables graph construction inside its block."""
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` over broadcast dimensions so it matches ``shape``."""
    if grad.shape == shape:
        return grad
    # Remove leading dimensions added by broadcasting.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum over axes that were 1 in the original shape.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


def _as_array(value, dtype=np.float64) -> np.ndarray:
    arr = np.asarray(value, dtype=dtype)
    return arr


class Tensor:
    """A differentiable dense array.

    Parameters
    ----------
    data:
        Array-like value; converted to ``float64`` by default.
    requires_grad:
        Whether gradients should be accumulated into :attr:`grad` during
        :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    def __init__(self, data, requires_grad: bool = False, dtype=np.float64):
        self.data = _as_array(data, dtype=dtype)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad) and is_grad_enabled()
        self._backward: Callable[[np.ndarray], None] | None = None
        self._parents: tuple[Tensor, ...] = ()
        self.name: str | None = None

    # -- construction helpers -------------------------------------------------
    @staticmethod
    def zeros(shape, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.zeros(shape), requires_grad=requires_grad)

    @staticmethod
    def ones(shape, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.ones(shape), requires_grad=requires_grad)

    @staticmethod
    def ensure(value, dtype=np.float64) -> "Tensor":
        """Wrap plain arrays/scalars into a constant tensor of ``dtype``.

        Tensors pass through unchanged.  Operators pass the dtype of the
        tensor a value combines with, so ``x * 2.0`` keeps the dtype of ``x``.
        """
        if isinstance(value, Tensor):
            return value
        return Tensor(value, dtype=dtype)

    @staticmethod
    def _ensure_all(values: Iterable) -> list["Tensor"]:
        """:meth:`ensure` each value in the dtype of the first tensor among them."""
        values = list(values)
        dtype = next((v.dtype for v in values if isinstance(v, Tensor)), np.float64)
        return [Tensor.ensure(v, dtype) for v in values]

    # -- basic properties ------------------------------------------------------
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

    def numpy(self) -> np.ndarray:
        """Return the underlying array (not a copy)."""
        return self.data

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut from the graph."""
        return Tensor(self.data, requires_grad=False, dtype=self.dtype)

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=self.requires_grad, dtype=self.dtype)

    def astype(self, dtype) -> "Tensor":
        """This tensor cast to ``dtype`` (float32 or float64), differentiably.

        Returns ``self`` when the dtype already matches.  The backward pass
        casts the gradient back to the source dtype.
        """
        dtype = np.dtype(dtype)
        if dtype == self.dtype:
            return self
        if dtype not in (np.float32, np.float64):
            raise ValueError(f"tensors hold float32 or float64 data, not {dtype}")
        source = self.dtype

        def backward(grad, accumulate):
            accumulate(self, np.asarray(grad, dtype=source))

        return self._make_child(self.data.astype(dtype), (self,), backward)

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag})"

    def __len__(self) -> int:
        return len(self.data)

    # -- graph construction ----------------------------------------------------
    def _make_child(
        self,
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        requires = is_grad_enabled() and any(p.requires_grad for p in parents)
        # A float32 result stays float32; anything else becomes float64.
        dtype = np.float32 if getattr(data, "dtype", None) == np.float32 else np.float64
        out = Tensor(data, requires_grad=False, dtype=dtype)
        out.requires_grad = requires
        if requires:
            out._backward = backward
            out._parents = tuple(parents)
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        if not self.requires_grad:
            return
        grad = np.asarray(grad, dtype=self.data.dtype)
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad = self.grad + grad

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Run reverse-mode differentiation from this tensor.

        Parameters
        ----------
        grad:
            Seed gradient.  Defaults to 1.0 and requires ``self`` to be a
            scalar in that case.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("backward() without a gradient requires a scalar output")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)
        if grad.shape != self.data.shape:
            grad = np.broadcast_to(grad, self.data.shape).astype(self.data.dtype)

        # Topological order over the reachable graph.
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        grads: dict[int, np.ndarray] = {id(self): grad}
        for node in reversed(topo):
            node_grad = grads.pop(id(node), None)
            if node_grad is None:
                continue
            if node._backward is None:
                node._accumulate(node_grad)
                continue
            node._accumulate(node_grad) if node.requires_grad and not node._parents else None
            # Delegate to the op's backward, which accumulates into parents via
            # the `grads` dict captured through closures on `_accumulate_into`.
            node._run_backward(node_grad, grads)

        # Leaf gradients were accumulated inside _run_backward; nothing to do.

    def _run_backward(self, grad: np.ndarray, grads: dict[int, np.ndarray]) -> None:
        """Invoke the backward closure, routing parent gradients through ``grads``."""

        def accumulate(parent: "Tensor", value: np.ndarray) -> None:
            if not parent.requires_grad:
                return
            value = np.asarray(value, dtype=parent.data.dtype)
            if parent._parents or parent._backward is not None:
                key = id(parent)
                if key in grads:
                    grads[key] = grads[key] + value
                else:
                    grads[key] = value
            else:
                parent._accumulate(value)

        self._backward(grad, accumulate)  # type: ignore[misc]

    # -- arithmetic -------------------------------------------------------------
    def __add__(self, other) -> "Tensor":
        other = Tensor.ensure(other, self.dtype)
        data = self.data + other.data

        def backward(grad, accumulate):
            accumulate(self, _unbroadcast(grad, self.shape))
            accumulate(other, _unbroadcast(grad, other.shape))

        return self._make_child(data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        data = -self.data

        def backward(grad, accumulate):
            accumulate(self, -grad)

        return self._make_child(data, (self,), backward)

    def __sub__(self, other) -> "Tensor":
        other = Tensor.ensure(other, self.dtype)
        data = self.data - other.data

        def backward(grad, accumulate):
            accumulate(self, _unbroadcast(grad, self.shape))
            accumulate(other, _unbroadcast(-grad, other.shape))

        return self._make_child(data, (self, other), backward)

    def __rsub__(self, other) -> "Tensor":
        return Tensor.ensure(other, self.dtype) - self

    def __mul__(self, other) -> "Tensor":
        other = Tensor.ensure(other, self.dtype)
        data = self.data * other.data

        def backward(grad, accumulate):
            accumulate(self, _unbroadcast(grad * other.data, self.shape))
            accumulate(other, _unbroadcast(grad * self.data, other.shape))

        return self._make_child(data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = Tensor.ensure(other, self.dtype)
        data = self.data / other.data

        def backward(grad, accumulate):
            accumulate(self, _unbroadcast(grad / other.data, self.shape))
            accumulate(other, _unbroadcast(-grad * self.data / (other.data**2), other.shape))

        return self._make_child(data, (self, other), backward)

    def __rtruediv__(self, other) -> "Tensor":
        return Tensor.ensure(other, self.dtype) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if isinstance(exponent, Tensor):
            raise TypeError("tensor exponents are not supported; use exp/log")
        data = self.data**exponent

        def backward(grad, accumulate):
            accumulate(self, grad * exponent * self.data ** (exponent - 1))

        return self._make_child(data, (self,), backward)

    def __matmul__(self, other) -> "Tensor":
        other = Tensor.ensure(other, self.dtype)
        data = self.data @ other.data

        def backward(grad, accumulate):
            a, b = self.data, other.data
            if a.ndim == 1 and b.ndim == 1:
                accumulate(self, grad * b)
                accumulate(other, grad * a)
            elif a.ndim >= 2 and b.ndim >= 2:
                grad_a = grad @ np.swapaxes(b, -1, -2)
                grad_b = np.swapaxes(a, -1, -2) @ grad
                accumulate(self, _unbroadcast(grad_a, a.shape))
                accumulate(other, _unbroadcast(grad_b, b.shape))
            elif a.ndim == 1:
                # (k,) @ (..., k, n) -> (..., n)
                grad_a = (grad[..., None, :] * b).sum(axis=-1)
                grad_a = _unbroadcast(grad_a, a.shape)
                grad_b = a[:, None] * grad[..., None, :]
                accumulate(self, grad_a)
                accumulate(other, _unbroadcast(grad_b, b.shape))
            else:
                # (..., m, k) @ (k,) -> (..., m)
                grad_a = grad[..., :, None] * b[None, :]
                accumulate(self, _unbroadcast(grad_a, a.shape))
                grad_b = (grad[..., :, None] * a).sum(axis=tuple(range(grad.ndim - 1)) + (-2,))
                accumulate(other, _unbroadcast(grad_b.reshape(b.shape), b.shape))

        return self._make_child(data, (self, other), backward)

    # -- comparisons (non-differentiable, return numpy arrays) -------------------
    def __gt__(self, other):
        other = other.data if isinstance(other, Tensor) else other
        return self.data > other

    def __lt__(self, other):
        other = other.data if isinstance(other, Tensor) else other
        return self.data < other

    def __ge__(self, other):
        other = other.data if isinstance(other, Tensor) else other
        return self.data >= other

    def __le__(self, other):
        other = other.data if isinstance(other, Tensor) else other
        return self.data <= other

    # -- elementwise functions ----------------------------------------------------
    def exp(self) -> "Tensor":
        data = np.exp(self.data)

        def backward(grad, accumulate):
            accumulate(self, grad * data)

        return self._make_child(data, (self,), backward)

    def log(self) -> "Tensor":
        data = np.log(self.data)

        def backward(grad, accumulate):
            accumulate(self, grad / self.data)

        return self._make_child(data, (self,), backward)

    def sqrt(self) -> "Tensor":
        data = np.sqrt(self.data)

        def backward(grad, accumulate):
            # The floor in the data's dtype: a float 1e-300 rounds to 0 in float32.
            accumulate(self, grad * 0.5 / np.maximum(data, np.finfo(data.dtype).tiny))

        return self._make_child(data, (self,), backward)

    def tanh(self) -> "Tensor":
        data = np.tanh(self.data)

        def backward(grad, accumulate):
            accumulate(self, grad * (1.0 - data**2))

        return self._make_child(data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        data = 1.0 / (1.0 + np.exp(-self.data))

        def backward(grad, accumulate):
            accumulate(self, grad * data * (1.0 - data))

        return self._make_child(data, (self,), backward)

    def relu(self) -> "Tensor":
        mask = self.data > 0
        data = self.data * mask

        def backward(grad, accumulate):
            accumulate(self, grad * mask)

        return self._make_child(data, (self,), backward)

    def gelu(self) -> "Tensor":
        """Gaussian error linear unit (tanh approximation).

        ``0.5 x (1 + t)`` with ``t = tanh(c (x + 0.044715 x^3))``.  Forward and
        backward work in place on one or two temporaries; the closure keeps
        only ``x`` and ``t``.  The temporaries are allocated with ``out=`` so
        that a 0-d input still yields arrays, not scalars, to work in place on.
        """
        x = self.data
        # A Python float, so the in-place products keep a float32 loop.
        c = math.sqrt(2.0 / math.pi)
        t = np.multiply(x, x, out=np.empty_like(x))
        t *= 0.044715
        t += 1.0
        t *= x
        t *= c
        np.tanh(t, out=t)
        data = t + 1.0
        data *= x
        data *= 0.5

        def backward(grad, accumulate):
            # d/dx = 0.5 (1 + t) + 0.5 x (1 - t^2) c (1 + 3 * 0.044715 x^2)
            dx = np.multiply(x, x, out=np.empty_like(x))
            dx *= 3 * 0.044715
            dx *= c
            dx += c
            dx *= x
            one_minus_t2 = np.multiply(t, t, out=np.empty_like(t))
            np.subtract(1.0, one_minus_t2, out=one_minus_t2)
            dx *= one_minus_t2
            dx += t
            dx += 1.0
            dx *= 0.5
            dx *= grad
            accumulate(self, dx)

        return self._make_child(data, (self,), backward)

    def abs(self) -> "Tensor":
        data = np.abs(self.data)
        sign = np.sign(self.data)

        def backward(grad, accumulate):
            accumulate(self, grad * sign)

        return self._make_child(data, (self,), backward)

    def sin(self) -> "Tensor":
        data = np.sin(self.data)

        def backward(grad, accumulate):
            accumulate(self, grad * np.cos(self.data))

        return self._make_child(data, (self,), backward)

    def cos(self) -> "Tensor":
        data = np.cos(self.data)

        def backward(grad, accumulate):
            accumulate(self, -grad * np.sin(self.data))

        return self._make_child(data, (self,), backward)

    def clamp(self, lo: float | None = None, hi: float | None = None) -> "Tensor":
        data = np.clip(self.data, lo, hi)
        mask = np.ones_like(self.data)
        if lo is not None:
            mask = mask * (self.data >= lo)
        if hi is not None:
            mask = mask * (self.data <= hi)

        def backward(grad, accumulate):
            accumulate(self, grad * mask)

        return self._make_child(data, (self,), backward)

    # -- reductions -----------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad, accumulate):
            g = np.asarray(grad)
            if axis is not None and not keepdims:
                axes = axis if isinstance(axis, tuple) else (axis,)
                axes = tuple(a % self.data.ndim for a in axes)
                for a in sorted(axes):
                    g = np.expand_dims(g, a)
            accumulate(self, np.broadcast_to(g, self.shape).copy())

        return self._make_child(data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad, accumulate):
            expanded = self.data.max(axis=axis, keepdims=True)
            mask = (self.data == expanded).astype(self.data.dtype)
            mask = mask / np.maximum(mask.sum(axis=axis, keepdims=True), 1.0)
            g = np.asarray(grad)
            if axis is not None and not keepdims:
                axes = axis if isinstance(axis, tuple) else (axis,)
                axes = tuple(a % self.data.ndim for a in axes)
                for a in sorted(axes):
                    g = np.expand_dims(g, a)
            accumulate(self, mask * g)

        return self._make_child(data, (self,), backward)

    def norm(self, eps: float = 1e-12) -> "Tensor":
        """Frobenius (L2) norm of the whole tensor as a scalar tensor."""
        return ((self * self).sum() + eps).sqrt()

    # -- shape manipulation ------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        data = self.data.reshape(shape)
        original = self.shape

        def backward(grad, accumulate):
            accumulate(self, np.asarray(grad).reshape(original))

        return self._make_child(data, (self,), backward)

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        data = self.data.transpose(axes)
        inverse = np.argsort(axes)

        def backward(grad, accumulate):
            accumulate(self, np.asarray(grad).transpose(inverse))

        return self._make_child(data, (self,), backward)

    def __getitem__(self, index) -> "Tensor":
        data = self.data[index]

        def backward(grad, accumulate):
            full = np.zeros_like(self.data)
            np.add.at(full, index, grad)
            accumulate(self, full)

        return self._make_child(data, (self,), backward)

    def flatten(self, start_dim: int = 0) -> "Tensor":
        shape = self.shape[:start_dim] + (-1,)
        return self.reshape(shape)

    # -- combining tensors ----------------------------------------------------------------
    @staticmethod
    def cat(tensors: Iterable["Tensor"], axis: int = 0) -> "Tensor":
        tensors = Tensor._ensure_all(tensors)
        data = np.concatenate([t.data for t in tensors], axis=axis)
        sizes = [t.data.shape[axis] for t in tensors]

        def backward(grad, accumulate):
            grad = np.asarray(grad)
            start = 0
            for t, size in zip(tensors, sizes):
                index = [slice(None)] * grad.ndim
                index[axis] = slice(start, start + size)
                accumulate(t, grad[tuple(index)])
                start += size

        proto = tensors[0]
        return proto._make_child(data, tuple(tensors), backward)

    @staticmethod
    def stack(tensors: Iterable["Tensor"], axis: int = 0) -> "Tensor":
        tensors = Tensor._ensure_all(tensors)
        data = np.stack([t.data for t in tensors], axis=axis)

        def backward(grad, accumulate):
            grad = np.asarray(grad)
            for i, t in enumerate(tensors):
                index = [slice(None)] * grad.ndim
                index[axis] = i
                accumulate(t, grad[tuple(index)])

        proto = tensors[0]
        return proto._make_child(data, tuple(tensors), backward)
