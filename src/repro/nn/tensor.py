"""A small reverse-mode automatic differentiation engine on top of numpy.

This module provides the :class:`Tensor` class used by every neural network
component in the NetTAG reproduction (ExprLLM, TAGFormer, the auxiliary RTL and
layout encoders, the baseline GNNs and all MLP heads).  The paper trains its
models with PyTorch on GPUs; this repository substitutes a compact, dependency
free autograd engine so that the full pre-training and fine-tuning code paths
run on CPU with only numpy installed.

Only the operations required by the model zoo are implemented, but each of them
supports broadcasting and arbitrary batch dimensions, mirroring the semantics
of the corresponding numpy / PyTorch operations.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence, Tuple, Union

import numpy as np

from .backend import get_backend

ArrayLike = Union[np.ndarray, float, int, Sequence[float], Sequence[Sequence[float]]]


def _as_array(data: ArrayLike, dtype=None) -> np.ndarray:
    if dtype is None:
        dtype = get_backend().compute_dtype
    if isinstance(data, np.ndarray):
        if data.dtype != dtype:
            return data.astype(dtype)
        return data
    return np.asarray(data, dtype=dtype)


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` to reverse numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum over leading broadcast axes.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were 1 in the original shape.
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A node in the autograd graph wrapping a numpy array.

    Parameters
    ----------
    data:
        Array contents; converted to the active backend's compute dtype
        (``float64`` for the default ``reference`` backend).
    requires_grad:
        Whether gradients should be accumulated for this tensor.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_prev", "name")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        _prev: Iterable["Tensor"] = (),
        name: str = "",
    ) -> None:
        self.data = _as_array(data)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self._backward: Callable[[], None] = lambda: None
        self._prev: Tuple[Tensor, ...] = tuple(_prev)
        self.name = name

    # ------------------------------------------------------------------
    # Basic protocol
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
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def numpy(self) -> np.ndarray:
        return self.data

    def detach(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------
    # Autograd machinery
    # ------------------------------------------------------------------
    def _accumulate(self, grad: np.ndarray) -> None:
        if not self.requires_grad:
            return
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad = self.grad + grad

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Run reverse-mode differentiation from this tensor."""
        if grad is None:
            if self.data.size != 1:
                raise ValueError("backward() without a gradient requires a scalar tensor")
            grad = np.ones_like(self.data)
        else:
            grad = _as_array(grad, dtype=self.data.dtype)

        # Iterative topological sort to avoid recursion limits on deep graphs.
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._prev:
                if id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(grad)
        for node in reversed(topo):
            node._backward()

    # ------------------------------------------------------------------
    # Elementwise arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        out = Tensor(
            self.data + other.data,
            requires_grad=self.requires_grad or other.requires_grad,
            _prev=(self, other),
        )

        def _backward() -> None:
            if out.grad is None:
                return
            self._accumulate(_unbroadcast(out.grad, self.shape))
            other._accumulate(_unbroadcast(out.grad, other.shape))

        out._backward = _backward
        return out

    def __radd__(self, other: ArrayLike) -> "Tensor":
        return self.__add__(other)

    def __neg__(self) -> "Tensor":
        return self * -1.0

    def __sub__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        return self + (-other)

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return Tensor(other) + (-self)

    def __mul__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        out = Tensor(
            self.data * other.data,
            requires_grad=self.requires_grad or other.requires_grad,
            _prev=(self, other),
        )

        def _backward() -> None:
            if out.grad is None:
                return
            self._accumulate(_unbroadcast(out.grad * other.data, self.shape))
            other._accumulate(_unbroadcast(out.grad * self.data, other.shape))

        out._backward = _backward
        return out

    def __rmul__(self, other: ArrayLike) -> "Tensor":
        return self.__mul__(other)

    def __truediv__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        return self * other.pow(-1.0)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return Tensor(other) * self.pow(-1.0)

    def pow(self, exponent: float) -> "Tensor":
        out = Tensor(
            np.power(self.data, exponent),
            requires_grad=self.requires_grad,
            _prev=(self,),
        )

        def _backward() -> None:
            if out.grad is None:
                return
            self._accumulate(out.grad * exponent * np.power(self.data, exponent - 1.0))

        out._backward = _backward
        return out

    def __pow__(self, exponent: float) -> "Tensor":
        return self.pow(exponent)

    def sqrt(self) -> "Tensor":
        return self.pow(0.5)

    def exp(self) -> "Tensor":
        out_data = get_backend().exp(self.data)
        out = Tensor(out_data, requires_grad=self.requires_grad, _prev=(self,))

        def _backward() -> None:
            if out.grad is None:
                return
            self._accumulate(out.grad * out_data)

        out._backward = _backward
        return out

    def log(self, eps: float = 1e-12) -> "Tensor":
        out = Tensor(np.log(self.data + eps), requires_grad=self.requires_grad, _prev=(self,))

        def _backward() -> None:
            if out.grad is None:
                return
            self._accumulate(out.grad / (self.data + eps))

        out._backward = _backward
        return out

    # ------------------------------------------------------------------
    # Nonlinearities
    # ------------------------------------------------------------------
    def relu(self) -> "Tensor":
        out_data, mask = get_backend().relu(self.data)
        out = Tensor(out_data, requires_grad=self.requires_grad, _prev=(self,))

        def _backward() -> None:
            if out.grad is None:
                return
            self._accumulate(out.grad * mask)

        out._backward = _backward
        return out

    def tanh(self) -> "Tensor":
        out_data = get_backend().tanh(self.data)
        out = Tensor(out_data, requires_grad=self.requires_grad, _prev=(self,))

        def _backward() -> None:
            if out.grad is None:
                return
            self._accumulate(out.grad * (1.0 - out_data ** 2))

        out._backward = _backward
        return out

    def sigmoid(self) -> "Tensor":
        out_data = get_backend().sigmoid(self.data)
        out = Tensor(out_data, requires_grad=self.requires_grad, _prev=(self,))

        def _backward() -> None:
            if out.grad is None:
                return
            self._accumulate(out.grad * out_data * (1.0 - out_data))

        out._backward = _backward
        return out

    def gelu(self) -> "Tensor":
        """Gaussian error linear unit (tanh approximation)."""
        backend = get_backend()
        x = self.data
        out_data, tanh_inner = backend.gelu(x)
        out = Tensor(out_data, requires_grad=self.requires_grad, _prev=(self,))

        def _backward() -> None:
            if out.grad is None:
                return
            self._accumulate(backend.gelu_backward(out.grad, x, tanh_inner))

        out._backward = _backward
        return out

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False) -> "Tensor":
        out_data = get_backend().sum(self.data, axis=axis, keepdims=keepdims)
        out = Tensor(out_data, requires_grad=self.requires_grad, _prev=(self,))

        def _backward() -> None:
            if out.grad is None:
                return
            grad = out.grad
            if axis is not None and not keepdims:
                axes = axis if isinstance(axis, tuple) else (axis,)
                axes = tuple(a % self.data.ndim for a in axes)
                for a in sorted(axes):
                    grad = np.expand_dims(grad, a)
            self._accumulate(np.broadcast_to(grad, self.shape).copy())

        out._backward = _backward
        return out

    def mean(self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis: int, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)
        out = Tensor(out_data, requires_grad=self.requires_grad, _prev=(self,))

        def _backward() -> None:
            if out.grad is None:
                return
            grad = out.grad
            expanded = grad if keepdims else np.expand_dims(grad, axis)
            max_expanded = out_data if keepdims else np.expand_dims(out_data, axis)
            mask = (self.data == max_expanded).astype(self.data.dtype)
            mask = mask / np.maximum(mask.sum(axis=axis, keepdims=True), 1.0)
            self._accumulate(mask * expanded)

        out._backward = _backward
        return out

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out = Tensor(self.data.reshape(shape), requires_grad=self.requires_grad, _prev=(self,))

        def _backward() -> None:
            if out.grad is None:
                return
            self._accumulate(out.grad.reshape(self.shape))

        out._backward = _backward
        return out

    def transpose(self, *axes: int) -> "Tensor":
        if not axes:
            axes_tuple: Optional[Tuple[int, ...]] = None
        else:
            axes_tuple = tuple(axes)
        out = Tensor(np.transpose(self.data, axes_tuple), requires_grad=self.requires_grad, _prev=(self,))

        def _backward() -> None:
            if out.grad is None:
                return
            if axes_tuple is None:
                self._accumulate(np.transpose(out.grad))
            else:
                inverse = np.argsort(axes_tuple)
                self._accumulate(np.transpose(out.grad, inverse))

        out._backward = _backward
        return out

    def __getitem__(self, index) -> "Tensor":
        out = Tensor(self.data[index], requires_grad=self.requires_grad, _prev=(self,))

        def _backward() -> None:
            if out.grad is None:
                return
            grad = np.zeros_like(self.data)
            np.add.at(grad, index, out.grad)
            self._accumulate(grad)

        out._backward = _backward
        return out

    # ------------------------------------------------------------------
    # Linear algebra
    # ------------------------------------------------------------------
    def matmul(self, other: "Tensor") -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        out = Tensor(
            get_backend().matmul(self.data, other.data),
            requires_grad=self.requires_grad or other.requires_grad,
            _prev=(self, other),
        )

        def _backward() -> None:
            if out.grad is None:
                return
            grad = out.grad
            a, b = self.data, other.data
            if a.ndim == 1 and b.ndim == 1:
                self._accumulate(grad * b)
                other._accumulate(grad * a)
                return
            a2 = a if a.ndim > 1 else a.reshape(1, -1)
            b2 = b if b.ndim > 1 else b.reshape(-1, 1)
            grad2 = grad
            if a.ndim == 1:
                grad2 = grad.reshape(1, *grad.shape) if grad.ndim == b.ndim - 1 else grad
            if b.ndim == 1:
                grad2 = grad2.reshape(*grad2.shape, 1)
            grad_a = grad2 @ np.swapaxes(b2, -1, -2)
            grad_b = np.swapaxes(a2, -1, -2) @ grad2
            self._accumulate(_unbroadcast(grad_a.reshape(a2.shape) if a.ndim > 1 else grad_a.reshape(a.shape), a.shape))
            other._accumulate(_unbroadcast(grad_b if b.ndim > 1 else grad_b.reshape(b.shape), b.shape))

        out._backward = _backward
        return out

    def __matmul__(self, other: "Tensor") -> "Tensor":
        return self.matmul(other)

    # ------------------------------------------------------------------
    # Softmax-family helpers (fused for numerical stability)
    # ------------------------------------------------------------------
    def softmax(self, axis: int = -1) -> "Tensor":
        backend = get_backend()
        out_data = backend.softmax(self.data, axis=axis)
        out = Tensor(out_data, requires_grad=self.requires_grad, _prev=(self,))

        def _backward() -> None:
            if out.grad is None:
                return
            self._accumulate(backend.softmax_backward(out.grad, out_data, axis=axis))

        out._backward = _backward
        return out

    def log_softmax(self, axis: int = -1) -> "Tensor":
        backend = get_backend()
        out_data = backend.log_softmax(self.data, axis=axis)
        out = Tensor(out_data, requires_grad=self.requires_grad, _prev=(self,))

        def _backward() -> None:
            if out.grad is None:
                return
            self._accumulate(backend.log_softmax_backward(out.grad, out_data, axis=axis))

        out._backward = _backward
        return out


# ----------------------------------------------------------------------
# Free functions building on Tensor
# ----------------------------------------------------------------------
def tensor(data: ArrayLike, requires_grad: bool = False) -> Tensor:
    """Convenience constructor mirroring ``torch.tensor``."""
    return Tensor(data, requires_grad=requires_grad)


def zeros(shape: Tuple[int, ...], requires_grad: bool = False) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=requires_grad)


def ones(shape: Tuple[int, ...], requires_grad: bool = False) -> Tensor:
    return Tensor(np.ones(shape), requires_grad=requires_grad)


def concatenate(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient support."""
    data = np.concatenate([t.data for t in tensors], axis=axis)
    out = Tensor(data, requires_grad=any(t.requires_grad for t in tensors), _prev=tuple(tensors))
    sizes = [t.data.shape[axis] for t in tensors]

    def _backward() -> None:
        if out.grad is None:
            return
        start = 0
        for t, size in zip(tensors, sizes):
            index = [slice(None)] * out.grad.ndim
            index[axis] = slice(start, start + size)
            t._accumulate(out.grad[tuple(index)])
            start += size

    out._backward = _backward
    return out


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis with gradient support."""
    data = np.stack([t.data for t in tensors], axis=axis)
    out = Tensor(data, requires_grad=any(t.requires_grad for t in tensors), _prev=tuple(tensors))

    def _backward() -> None:
        if out.grad is None:
            return
        grads = np.split(out.grad, len(tensors), axis=axis)
        for t, g in zip(tensors, grads):
            t._accumulate(np.squeeze(g, axis=axis).reshape(t.shape))

    out._backward = _backward
    return out


def embedding_lookup(table: Tensor, indices: np.ndarray) -> Tensor:
    """Gather rows of ``table`` by integer ``indices`` (supports any index shape)."""
    indices = np.asarray(indices, dtype=np.int64)
    out = Tensor(table.data[indices], requires_grad=table.requires_grad, _prev=(table,))

    def _backward() -> None:
        if out.grad is None:
            return
        grad = np.zeros_like(table.data)
        np.add.at(grad, indices, out.grad)
        table._accumulate(grad)

    out._backward = _backward
    return out


def where_mask(mask: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Elementwise select: ``mask ? a : b`` where ``mask`` is a constant array."""
    mask = np.asarray(mask, dtype=bool)
    out = Tensor(
        np.where(mask, a.data, b.data),
        requires_grad=a.requires_grad or b.requires_grad,
        _prev=(a, b),
    )

    def _backward() -> None:
        if out.grad is None:
            return
        a._accumulate(_unbroadcast(out.grad * mask, a.shape))
        b._accumulate(_unbroadcast(out.grad * (~mask), b.shape))

    out._backward = _backward
    return out
