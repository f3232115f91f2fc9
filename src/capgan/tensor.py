"""Dense tensors with reverse-mode automatic differentiation.

Small numpy-backed engine, just large enough for the three caption models.
Each differentiable op records its inputs and a backward closure on the
output node; ``backward()`` topologically sorts the recorded graph and
visits every node exactly once, accumulating gradients into leaves that
have ``requires_grad`` set. Gradients accumulate across calls until zeroed
(the optimizer owns zeroing). Inside ``no_grad()`` ops record nothing, so
inference builds no graph.

Broadcasting is deliberately restricted: binary elementwise ops accept
equal shapes or a scalar paired with a tensor, nothing else. Row/column
broadcasts must go through an explicit ``broadcast_to``.
"""
from __future__ import annotations

from contextlib import contextmanager

import numpy as np

__all__ = [
    "Tensor",
    "no_grad",
    "DimensionError",
    "DomainError",
    "concat",
    "embedding",
    "cross_entropy",
    "layer_norm",
    "Adam",
]


_grad_enabled = True


@contextmanager
def no_grad():
    """Ops inside the block record no parents and no backward closure."""
    global _grad_enabled
    previous = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = previous


class DimensionError(ValueError):
    """Operand shapes violate an op's contract."""


class DomainError(ValueError):
    """Input value outside an op's mathematical domain."""


def _sum_to_shape(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a broadcast gradient back to the original operand shape."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


def _check_elementwise(a: "Tensor", b: "Tensor") -> None:
    if a.shape == b.shape or a.data.size == 1 or b.data.size == 1:
        return
    raise DimensionError(
        f"elementwise op needs equal shapes or a scalar operand, got {a.shape} and {b.shape}"
    )


class Tensor:
    """A dense array node in the autodiff graph.

    ``data`` is row-major; ``grad`` is allocated on demand and always
    matches ``data``'s shape. Nodes created by ops carry a backward
    closure and references to their parents; leaves carry neither.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_prev")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype.kind not in "fiu":
            raise TypeError(f"unsupported dtype {arr.dtype}")
        if arr.dtype.kind in "iu":
            arr = arr.astype(np.float64)
        self.data = arr
        self.grad = None
        self.requires_grad = requires_grad
        self._backward = None
        self._prev = ()

    # -- construction helpers -------------------------------------------------

    @classmethod
    def _from_op(cls, data: np.ndarray, parents, backward) -> "Tensor":
        out = cls.__new__(cls)
        out.data = data
        out.grad = None
        out._prev = tuple(p for p in parents if p.requires_grad) if _grad_enabled else ()
        out.requires_grad = bool(out._prev)
        out._backward = backward if out.requires_grad else None
        return out

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += grad

    def zero_grad(self) -> None:
        self.grad = None

    # -- elementwise ----------------------------------------------------------

    @staticmethod
    def _wrap(other, like: "Tensor") -> "Tensor":
        if isinstance(other, Tensor):
            return other
        return Tensor(np.asarray(other, dtype=like.dtype))

    def __add__(self, other):
        other = self._wrap(other, self)
        _check_elementwise(self, other)
        out_data = self.data + other.data

        def backward(grad):
            if self.requires_grad:
                self._accumulate(_sum_to_shape(grad, self.shape))
            if other.requires_grad:
                other._accumulate(_sum_to_shape(grad, other.shape))

        return Tensor._from_op(out_data, (self, other), backward)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._wrap(other, self)
        _check_elementwise(self, other)
        out_data = self.data - other.data

        def backward(grad):
            if self.requires_grad:
                self._accumulate(_sum_to_shape(grad, self.shape))
            if other.requires_grad:
                other._accumulate(_sum_to_shape(-grad, other.shape))

        return Tensor._from_op(out_data, (self, other), backward)

    def __rsub__(self, other):
        return self._wrap(other, self).__sub__(self)

    def __mul__(self, other):
        other = self._wrap(other, self)
        _check_elementwise(self, other)
        out_data = self.data * other.data

        def backward(grad):
            if self.requires_grad:
                self._accumulate(_sum_to_shape(grad * other.data, self.shape))
            if other.requires_grad:
                other._accumulate(_sum_to_shape(grad * self.data, other.shape))

        return Tensor._from_op(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._wrap(other, self)
        _check_elementwise(self, other)
        out_data = self.data / other.data

        def backward(grad):
            if self.requires_grad:
                self._accumulate(_sum_to_shape(grad / other.data, self.shape))
            if other.requires_grad:
                other._accumulate(
                    _sum_to_shape(-grad * self.data / other.data**2, other.shape)
                )

        return Tensor._from_op(out_data, (self, other), backward)

    def __neg__(self):
        def backward(grad):
            self._accumulate(-grad)

        return Tensor._from_op(-self.data, (self,), backward)

    # -- unary functions ------------------------------------------------------

    def exp(self):
        out_data = np.exp(self.data)

        def backward(grad):
            self._accumulate(grad * out_data)

        return Tensor._from_op(out_data, (self,), backward)

    def log(self):
        if np.any(self.data <= 0):
            raise DomainError("log requires strictly positive input")
        out_data = np.log(self.data)

        def backward(grad):
            self._accumulate(grad / self.data)

        return Tensor._from_op(out_data, (self,), backward)

    def sqrt(self):
        if np.any(self.data < 0):
            raise DomainError("sqrt requires non-negative input")
        out_data = np.sqrt(self.data)

        def backward(grad):
            self._accumulate(grad * 0.5 / out_data)

        return Tensor._from_op(out_data, (self,), backward)

    def sigmoid(self):
        out_data = 1.0 / (1.0 + np.exp(-self.data))

        def backward(grad):
            self._accumulate(grad * out_data * (1.0 - out_data))

        return Tensor._from_op(out_data, (self,), backward)

    def tanh(self):
        out_data = np.tanh(self.data)

        def backward(grad):
            self._accumulate(grad * (1.0 - out_data**2))

        return Tensor._from_op(out_data, (self,), backward)

    def relu(self):
        out_data = np.maximum(self.data, 0.0)

        def backward(grad):
            self._accumulate(grad * (self.data > 0))

        return Tensor._from_op(out_data, (self,), backward)

    # -- shape manipulation ---------------------------------------------------

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        old_shape = self.shape
        out_data = self.data.reshape(shape)

        def backward(grad):
            self._accumulate(grad.reshape(old_shape))

        return Tensor._from_op(out_data, (self,), backward)

    def transpose(self, *axes):
        if not axes:
            axes = tuple(reversed(range(self.data.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        inverse = np.argsort(axes)
        out_data = self.data.transpose(axes)

        def backward(grad):
            self._accumulate(grad.transpose(inverse))

        return Tensor._from_op(out_data, (self,), backward)

    def broadcast_to(self, shape):
        shape = tuple(shape)
        old_shape = self.shape
        out_data = np.broadcast_to(self.data, shape).copy()

        def backward(grad):
            self._accumulate(_sum_to_shape(grad, old_shape))

        return Tensor._from_op(out_data, (self,), backward)

    def __getitem__(self, index):
        out_data = self.data[index]
        if not isinstance(out_data, np.ndarray):
            out_data = np.asarray(out_data)

        def backward(grad):
            full = np.zeros_like(self.data)
            np.add.at(full, index, grad)
            self._accumulate(full)

        return Tensor._from_op(out_data, (self,), backward)

    # -- reductions -----------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False):
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad):
            g = np.asarray(grad)
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._accumulate(np.broadcast_to(g, self.shape).copy())

        return Tensor._from_op(np.asarray(out_data), (self,), backward)

    def mean(self, axis=None, keepdims: bool = False):
        count = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    # -- linear algebra -------------------------------------------------------

    def matmul(self, other: "Tensor") -> "Tensor":
        other = self._wrap(other, self)
        if self.data.ndim < 1 or other.data.ndim < 2:
            raise DimensionError("matmul needs at least 1-D @ 2-D operands")
        if self.data.shape[-1] != other.data.shape[-2]:
            raise DimensionError(
                f"matmul inner dimensions disagree: {self.shape} @ {other.shape}"
            )
        out_data = np.matmul(self.data, other.data)

        def backward(grad):
            a, b = self.data, other.data
            if a.ndim == 1:
                a = a[None, :]
            g = grad if grad.ndim >= 2 else grad[None, :]
            if self.requires_grad:
                da = np.matmul(g, np.swapaxes(b, -1, -2))
                self._accumulate(_sum_to_shape(da, self.shape))
            if other.requires_grad:
                db = np.matmul(np.swapaxes(a, -1, -2), g)
                other._accumulate(_sum_to_shape(db, other.shape))

        return Tensor._from_op(out_data, (self, other), backward)

    __matmul__ = matmul

    # -- softmax family -------------------------------------------------------

    def softmax(self, axis: int = -1) -> "Tensor":
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        e = np.exp(shifted)
        out_data = e / e.sum(axis=axis, keepdims=True)

        def backward(grad):
            inner = (grad * out_data).sum(axis=axis, keepdims=True)
            self._accumulate(out_data * (grad - inner))

        return Tensor._from_op(out_data, (self,), backward)

    def log_softmax(self, axis: int = -1) -> "Tensor":
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        out_data = shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))

        def backward(grad):
            soft = np.exp(out_data)
            self._accumulate(grad - soft * grad.sum(axis=axis, keepdims=True))

        return Tensor._from_op(out_data, (self,), backward)

    # -- autodiff -------------------------------------------------------------

    def backward(self) -> None:
        """Backpropagate from a scalar root, visiting each node once."""
        if self.data.size != 1:
            raise ValueError("backward requires a scalar root")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._prev:
                if id(parent) not in seen:
                    stack.append((parent, False))
        self._accumulate(np.ones_like(self.data))
        for node in reversed(topo):
            if node._backward is not None:
                node._backward(node.grad)
                if node is not self:
                    node.grad = None  # interior grads are transient

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


# -- free functions -----------------------------------------------------------


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = list(tensors)
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad):
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                index = [slice(None)] * grad.ndim
                index[axis] = slice(start, stop)
                t._accumulate(grad[tuple(index)])

    return Tensor._from_op(out_data, tensors, backward)


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup into an embedding table, differentiable w.r.t. the table."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise IndexError("token id outside embedding table")
    out_data = table.data[ids]

    def backward(grad):
        full = np.zeros_like(table.data)
        np.add.at(full, ids, grad)
        table._accumulate(full)

    return Tensor._from_op(out_data, (table,), backward)


def cross_entropy(logits: Tensor, targets, mask=None) -> Tensor:
    """Mean negative log-likelihood over unmasked positions.

    ``logits`` has vocabulary on the last axis; ``targets`` matches the
    leading shape. ``mask`` (same shape as targets, 1 = keep) defaults to
    all positions.
    """
    targets = np.asarray(targets, dtype=np.int64)
    if targets.shape != logits.shape[:-1]:
        raise DimensionError(
            f"targets shape {targets.shape} does not match logits {logits.shape}"
        )
    vocab = logits.shape[-1]
    if targets.size and (targets.min() < 0 or targets.max() >= vocab):
        raise IndexError("target id outside vocabulary range")
    if mask is None:
        mask = np.ones(targets.shape, dtype=logits.dtype)
    else:
        mask = np.asarray(mask, dtype=logits.dtype)
    n_kept = mask.sum()
    if n_kept == 0:
        raise DomainError("cross_entropy over an empty unmasked set")

    shifted = logits.data - logits.data.max(axis=-1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    picked = np.take_along_axis(log_probs, targets[..., None], axis=-1)[..., 0]
    out_data = np.asarray(-(picked * mask).sum() / n_kept)

    def backward(grad):
        soft = np.exp(log_probs)
        onehot = np.zeros_like(soft)
        np.put_along_axis(onehot, targets[..., None], 1.0, axis=-1)
        logits._accumulate(grad * (soft - onehot) * (mask / n_kept)[..., None])

    return Tensor._from_op(out_data, (logits,), backward)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    if gain.shape != (x.shape[-1],) or bias.shape != (x.shape[-1],):
        raise DimensionError("layer_norm gain/bias must match the last axis")
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv_std
    out_data = xhat * gain.data + bias.data

    def backward(grad):
        d = x.shape[-1]
        if gain.requires_grad:
            gain._accumulate((grad * xhat).reshape(-1, d).sum(axis=0))
        if bias.requires_grad:
            bias._accumulate(grad.reshape(-1, d).sum(axis=0))
        if x.requires_grad:
            dxhat = grad * gain.data
            dx = (
                dxhat
                - dxhat.mean(axis=-1, keepdims=True)
                - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
            ) * inv_std
            x._accumulate(dx)

    return Tensor._from_op(out_data, (x, gain, bias), backward)


class Adam:
    """Adam optimizer; owns gradient zeroing per the training-loop contract."""

    def __init__(self, params, lr: float = 1e-4, betas=(0.9, 0.999), eps: float = 1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for i, p in enumerate(self.params):
            if p.grad is None:
                continue
            g = p.grad
            self.m[i] = b1 * self.m[i] + (1 - b1) * g
            self.v[i] = b2 * self.v[i] + (1 - b2) * g * g
            m_hat = self.m[i] / (1 - b1**self.t)
            v_hat = self.v[i] / (1 - b2**self.t)
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None
