"""Dense tensors with reverse-mode automatic differentiation.

Small numpy-backed engine, just large enough for the three caption models.
A ``Tensor`` holds an array, ``data``; a tensor that needs a gradient also
holds a node, the graph's record of it. A leaf's node holds the gradient
that the leaf reads as ``.grad``. Each differentiable op gives its output a
node that links the nodes of its operands and holds a backward closure.

A node keeps only the arrays its backward reads. It links nodes, never
tensors, so an array that no backward reads is freed during the forward,
as soon as the model code drops it: residual sums, the inputs of a ReLU,
the outputs of projections that feed only an add. What each op's node
saves:

    op                                 saves
    ---------------------------------  --------------------------------------
    + - (negation too), reshape,       shapes, axes and indices only
    transpose, broadcast_to, sum,
    mean, concat, indexing
    * and /                            the other operand, only when this
                                       operand's gradient is needed; / also
                                       saves both for the divisor's gradient
    x @ w, linear                      x when w needs a gradient, w when x does
    concat_linear                      x and z when w needs a gradient, w when
                                       x does; never their concatenation
    conv1d_k3                          its input and the three weights
    relu, exp, sqrt, sigmoid, tanh,    their output (relu's ``out > 0`` is
    softmax, log_softmax               ``x > 0`` for every x, -0.0 and NaN too)
    log                                its input
    attention                          q, k, v [B, T, d], the softmax and the
                                       dropout
    layer_norm                         xhat, the inverse std and the gain
    gru_cell                           h_prev, the gates, the candidate,
                                       ``r * h_prev`` and the recurrent weights
    embedding, cross_entropy           the ids; the log-softmax and targets

The backward allocates little beside the graph (README, "Training
memory", gives the sizes). ``_Node.accumulate`` copies a first gradient,
since the array may be shared: the incoming gradient, its views and
slices, whatever ``+``/``reshape``/``concat`` pass on. The GEMM nodes,
``conv1d_k3`` and ``attention`` compute each gradient into a new array
that nothing else holds and hand it over with ``_Node.accumulate_fresh``,
which adopts it as a first gradient; a later contribution adds into it.
``attention`` splits its [B, T, d] operands into heads as views, writes
each head product (its output, dq, dk, dv) through the head view of a new
[B, T, d] array, so no merge copy is made, and forms d_scores in d_probs's
buffer.

``backward()`` topologically sorts the nodes and visits each exactly once,
accumulating gradients into the leaves' nodes. Each node drops its
closure and its parents once it has passed its gradient on, so the saved
arrays are freed during the walk and a graph can be backpropagated only
once. Leaf gradients accumulate across graphs until zeroed (the optimizer
owns zeroing). Inside ``no_grad()`` ops record nothing, so inference builds
no graph.

Nodes with one or two operands come from two builders, one per arity:
``_unary`` (``-x``, the elementwise functions, the shape ops and
``__getitem__``, which ``embedding`` is, ``sum``, the softmax family and
``cross_entropy``) and ``_binary`` (the four arithmetic ops). An op
states only its forward array and the gradient of each operand. The
multi-input kernels below write their own backward. Every gradient a node
passes on has its operand's shape; ``_Node.accumulate`` never broadcasts.

The models' hot paths are single nodes with closed-form backwards:
``x @ w`` with a 2-D ``w`` and ``linear`` fold the leading axes into one
GEMM per product, ``concat_linear`` is the encoder's noise merge,
``conv1d_k3`` is a width-3 convolution over time,
``attention`` is multi-head over [B, T, d] and keeps its softmax for the
backward, and ``gru_cell`` is one
recurrent step. Scales stay Python floats, so float32 data is never
upcast. The forwards of ``linear``/``x @ w``, ``attention`` and
``layer_norm`` are array kernels (``linear_kernel``, ``attention_kernel``,
``layer_norm_kernel``) that tape-free code calls directly, so a decode
step runs the numpy calls the taped pass runs.

Broadcasting is deliberately restricted: binary elementwise ops accept
equal shapes or a scalar paired with a tensor, nothing else. Row/column
broadcasts must go through an explicit ``broadcast_to``.
"""
from __future__ import annotations

import functools
import operator
from contextlib import contextmanager

import numpy as np

__all__ = [
    "Tensor",
    "no_grad",
    "DimensionError",
    "DomainError",
    "Diverged",
    "quiet_numerics",
    "concat",
    "concat_linear",
    "embedding",
    "linear",
    "linear_kernel",
    "conv1d_k3",
    "attention",
    "attention_kernel",
    "gru_cell",
    "cross_entropy",
    "log_softmax",
    "layer_norm",
    "layer_norm_kernel",
    "Adam",
]


_grad_enabled = True

LAYER_NORM_EPS = 1e-5
ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8


def log_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """``log(softmax(x))`` along ``axis``, shifted by the max for range."""
    shifted = x - x.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))


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


class Diverged(RuntimeError):
    """A loss or a decoder's logits became non-finite."""


def quiet_numerics(run):
    """``run`` with numpy's floating-point warnings off, so a value that
    overflows is reported once, by the non-finite check that refuses it."""
    @functools.wraps(run)
    def quiet(*args, **kwargs):
        with np.errstate(all="ignore"):
            return run(*args, **kwargs)
    return quiet


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


def _released(grad) -> None:
    """The backward of a node whose graph has been backpropagated."""
    raise RuntimeError("this graph was already backpropagated; build it again")


class _Node:
    """The graph's record of a tensor that needs a gradient.

    ``grad`` is the gradient accumulated so far, in the tensor's ``dtype``.
    An op's node also holds ``parents``, the nodes of its operands that need
    a gradient, and ``backward``, which passes each of them its share; a
    leaf's node holds neither.
    """

    __slots__ = ("grad", "dtype", "backward", "parents")

    def __init__(self, dtype, backward=None, parents=()):
        self.grad = None
        self.dtype = dtype
        self.backward = backward
        self.parents = parents

    def accumulate(self, grad: np.ndarray) -> None:
        """Adds ``grad``; a first gradient is copied, since ``grad`` may be
        shared (an incoming gradient, its views and slices, or an array of
        another dtype)."""
        if self.grad is None:
            self.grad = np.array(grad, dtype=self.dtype)
        else:
            self.grad += grad

    def accumulate_fresh(self, grad: np.ndarray) -> None:
        """``accumulate`` for an array the caller has just allocated and
        keeps no other reference to: a first gradient of the node's dtype
        is adopted, not copied."""
        if self.grad is None and grad.dtype == self.dtype:
            self.grad = grad
        else:
            self.accumulate(grad)


def _nodes(*tensors) -> tuple:
    """The node of each operand (None may stand for an absent one), or None
    where it needs no gradient; all None inside ``no_grad``."""
    if not _grad_enabled:
        return (None,) * len(tensors)
    return tuple(None if t is None else t._node for t in tensors)


class Tensor:
    """A dense array, with a node in the autodiff graph when it needs a
    gradient.

    ``data`` is row-major; ``grad`` is allocated on demand and always
    matches ``data``'s shape. The graph holds nodes, not tensors: an op's
    output tensor can be dropped while its node still passes gradients.
    """

    __slots__ = ("data", "_node")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype.kind not in "fiu":
            raise TypeError(f"unsupported dtype {arr.dtype}")
        if arr.dtype.kind in "iu":
            arr = arr.astype(np.float64)
        self.data = arr
        self._node = _Node(arr.dtype) if requires_grad else None

    # -- construction helpers -------------------------------------------------

    @classmethod
    def _from_op(cls, data: np.ndarray, nodes, backward) -> "Tensor":
        """An op's output: it gets a node when any of the operands' ``nodes``
        (from ``_nodes``) is not None, and ``backward`` then becomes its
        closure."""
        out = cls.__new__(cls)
        out.data = data
        parents = tuple(n for n in nodes if n is not None)
        out._node = _Node(data.dtype, backward, parents) if parents else None
        return out

    @property
    def requires_grad(self) -> bool:
        return self._node is not None

    @property
    def grad(self):
        return None if self._node is None else self._node.grad

    @grad.setter
    def grad(self, value) -> None:
        self._node.grad = value

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        if self._node is not None:
            self._node.grad = None

    # -- elementwise ----------------------------------------------------------

    @staticmethod
    def _wrap(other, like: "Tensor") -> "Tensor":
        if isinstance(other, Tensor):
            return other
        return Tensor(np.asarray(other, dtype=like.dtype))

    def _binary(self, other, forward, grad_self, grad_other, reads=("", "")) -> "Tensor":
        """An elementwise node on ``self`` and ``other``, a tensor or a number:
        ``forward(a, b)`` on the operands' arrays, and ``grad_self(grad, a, b)``
        and ``grad_other(...)``, each operand's gradient before ``_sum_to_shape``.
        ``reads`` names the arrays ("a", "b") each of the two gradients reads;
        the node saves those of the gradients it will pass, and the
        gradients get None for the others."""
        other = self._wrap(other, self)
        _check_elementwise(self, other)
        a_node, b_node = _nodes(self, other)
        read = (reads[0] if a_node is not None else "") + (reads[1] if b_node is not None else "")
        a = self.data if "a" in read else None
        b = other.data if "b" in read else None
        a_shape, b_shape = self.shape, other.shape

        def backward(grad):
            if a_node is not None:
                a_node.accumulate(_sum_to_shape(grad_self(grad, a, b), a_shape))
            if b_node is not None:
                b_node.accumulate(_sum_to_shape(grad_other(grad, a, b), b_shape))

        return Tensor._from_op(forward(self.data, other.data), (a_node, b_node), backward)

    def _unary(self, out_data: np.ndarray, grad_fn) -> "Tensor":
        """A node on ``self`` alone: ``out_data`` is its forward array, and
        ``grad_fn(grad)`` the gradient it passes to ``self``, in ``self``'s
        shape. ``grad_fn`` holds the node's saved arrays, so it must not
        refer to ``self``."""
        node, = _nodes(self)

        def backward(grad):
            node.accumulate(grad_fn(grad))

        return Tensor._from_op(out_data, (node,), backward)

    def __add__(self, other):
        return self._binary(other, operator.add, lambda g, a, b: g, lambda g, a, b: g)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binary(other, operator.sub, lambda g, a, b: g, lambda g, a, b: -g)

    def __rsub__(self, other):
        return self._wrap(other, self).__sub__(self)

    def __mul__(self, other):
        return self._binary(other, operator.mul, lambda g, a, b: g * b, lambda g, a, b: g * a,
                            reads=("b", "a"))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._binary(other, operator.truediv,
                            lambda g, a, b: g / b, lambda g, a, b: -g * a / b**2,
                            reads=("b", "ab"))

    def __neg__(self):
        return self._unary(-self.data, operator.neg)

    # -- unary functions ------------------------------------------------------

    def exp(self):
        out_data = np.exp(self.data)
        return self._unary(out_data, lambda g: g * out_data)

    def log(self):
        x = self.data
        if np.any(x <= 0):
            raise DomainError("log requires strictly positive input")
        return self._unary(np.log(x), lambda g: g / x)

    def sqrt(self):
        if np.any(self.data < 0):
            raise DomainError("sqrt requires non-negative input")
        out_data = np.sqrt(self.data)
        return self._unary(out_data, lambda g: g * 0.5 / out_data)

    def sigmoid(self):
        out_data = 1.0 / (1.0 + np.exp(-self.data))
        return self._unary(out_data, lambda g: g * out_data * (1.0 - out_data))

    def tanh(self):
        out_data = np.tanh(self.data)
        return self._unary(out_data, lambda g: g * (1.0 - out_data**2))

    def relu(self):
        # out > 0 exactly where x > 0 (NaN and -0.0 included), so the node
        # saves the output, which the next op usually reads anyway
        out_data = np.maximum(self.data, 0.0)
        return self._unary(out_data, lambda g: g * (out_data > 0))

    # -- shape manipulation ---------------------------------------------------

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        own = self.shape
        return self._unary(self.data.reshape(shape), lambda g: g.reshape(own))

    def transpose(self, *axes):
        if not axes:
            axes = tuple(reversed(range(self.data.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        return self._unary(self.data.transpose(axes), lambda g: g.transpose(np.argsort(axes)))

    def broadcast_to(self, shape):
        own = self.shape
        return self._unary(np.broadcast_to(self.data, tuple(shape)).copy(),
                           lambda g: _sum_to_shape(g, own))

    def __getitem__(self, index):
        own, dtype = self.shape, self.dtype

        def grad_fn(grad):
            full = np.zeros(own, dtype=dtype)
            np.add.at(full, index, grad)
            return full

        return self._unary(np.asarray(self.data[index]), grad_fn)

    # -- reductions -----------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False):
        own = self.shape

        def grad_fn(grad):
            if axis is not None and not keepdims:
                grad = np.expand_dims(grad, axis)
            return np.broadcast_to(grad, own)

        return self._unary(np.asarray(self.data.sum(axis=axis, keepdims=keepdims)), grad_fn)

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
        if other.data.ndim == 2:
            return _folded_matmul(self, other, None)
        out_data = np.matmul(self.data, other.data)
        a_node, b_node = _nodes(self, other)
        a = self.data if b_node is not None else None
        b = other.data if a_node is not None else None
        a_shape, b_shape = self.shape, other.shape

        def backward(grad):
            g = grad if grad.ndim >= 2 else grad[None, :]
            if a_node is not None:
                da = np.matmul(g, np.swapaxes(b, -1, -2))
                a_node.accumulate(_sum_to_shape(da, a_shape))
            if b_node is not None:
                a2 = a[None, :] if a.ndim == 1 else a
                db = np.matmul(np.swapaxes(a2, -1, -2), g)
                b_node.accumulate(_sum_to_shape(db, b_shape))

        return Tensor._from_op(out_data, (a_node, b_node), backward)

    __matmul__ = matmul

    # -- softmax family -------------------------------------------------------

    def softmax(self, axis: int = -1) -> "Tensor":
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        e = np.exp(shifted)
        out_data = e / e.sum(axis=axis, keepdims=True)

        def grad_fn(grad):
            inner = (grad * out_data).sum(axis=axis, keepdims=True)
            return out_data * (grad - inner)

        return self._unary(out_data, grad_fn)

    def log_softmax(self, axis: int = -1) -> "Tensor":
        out_data = log_softmax(self.data, axis)
        return self._unary(
            out_data, lambda g: g - np.exp(out_data) * g.sum(axis=axis, keepdims=True))

    # -- autodiff -------------------------------------------------------------

    def backward(self) -> None:
        """Backpropagate from a scalar root, visiting each node once.

        Each node is released once it has passed its gradient on: its
        closure and parent links go, and with them the arrays they saved.
        A second ``backward()`` through a released node raises before any
        gradient is touched. A root that needs no gradient has nothing to
        backpropagate.
        """
        if self.data.size != 1:
            raise ValueError("backward requires a scalar root")
        root = self._node
        if root is None:
            return
        topo: list[_Node | None] = []
        seen: set[int] = set()
        stack = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            if node.backward is _released:
                _released(None)
            seen.add(id(node))
            stack.append((node, True))
            for parent in node.parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        root.accumulate(np.ones_like(self.data))
        for i in range(len(topo) - 1, -1, -1):
            node, topo[i] = topo[i], None  # the walk keeps no visited node alive
            if node.backward is not None:
                node.backward(node.grad)
                node.backward, node.parents = _released, ()
                if node is not root:
                    node.grad = None  # interior grads are transient

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


# -- free functions -----------------------------------------------------------


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = list(tensors)
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)
    nodes = _nodes(*tensors)

    def backward(grad):
        for node, start, stop in zip(nodes, offsets[:-1], offsets[1:]):
            if node is not None:
                index = [slice(None)] * grad.ndim
                index[axis] = slice(start, stop)
                node.accumulate(grad[tuple(index)])

    return Tensor._from_op(out_data, nodes, backward)


def linear_kernel(x: np.ndarray, w: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """``x[..., d] @ w[d, e] (+ b[e])`` on arrays, the leading axes folded
    into the rows of one GEMM. The forward of ``x @ w`` and ``linear``."""
    out2 = x.reshape(-1, x.shape[-1]) @ w
    if b is not None:
        out2 += b
    return out2.reshape(*x.shape[:-1], w.shape[1])


def _folded_matmul(x: Tensor, w: Tensor, b: Tensor | None) -> Tensor:
    """``x[..., d] @ w[d, e] (+ b[e])`` as one node: one GEMM forward and
    one per gradient. Saves ``x`` when ``w`` needs a gradient and ``w``
    when ``x`` does."""
    x_node, w_node, b_node = _nodes(x, w, b)
    x_data = x.data if w_node is not None else None
    w_data = w.data if x_node is not None else None
    x_shape, (d_in, d_out) = x.shape, w.shape

    def backward(grad):
        g2 = grad.reshape(-1, d_out)
        if x_node is not None:
            x_node.accumulate_fresh((g2 @ w_data.T).reshape(x_shape))
        if w_node is not None:
            w_node.accumulate_fresh(x_data.reshape(-1, d_in).T @ g2)
        if b_node is not None:
            b_node.accumulate(g2.sum(axis=0))

    out_data = linear_kernel(x.data, w.data, None if b is None else b.data)
    return Tensor._from_op(out_data, (x_node, w_node, b_node), backward)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x[..., d] @ w[d, e] + b[e]`` as one node."""
    if w.data.ndim != 2 or b.shape != (w.shape[1],) or x.shape[-1] != w.shape[0]:
        raise DimensionError(
            f"linear needs x[..., d], w[d, e], b[e], got {x.shape}, {w.shape}, {b.shape}"
        )
    return _folded_matmul(x, w, b)


def concat_linear(x: Tensor, z: np.ndarray, w: Tensor, b: Tensor) -> Tensor:
    """``linear(concat([x, z], axis=2), w, b)`` as one node, where x [1 or B,
    F, d] is repeated to z's B rows and each constant row z[i] [n] is
    repeated over the F frames.

    The node keeps x and z, not their [B, F, d + n] concatenation: the
    backward rebuilds that for w's gradient. x's gradient is the first d
    columns of the concatenation's gradient, summed over the repeats when x
    has one row.
    """
    (x_rows, frames, d_x), batch = x.shape, len(z)
    d_z, d_out = z.shape[-1], w.shape[-1]
    if (z.ndim != 2 or x_rows not in (1, batch)
            or w.shape != (d_x + d_z, d_out) or b.shape != (d_out,)):
        raise DimensionError(
            f"concat_linear needs x[1 or B, F, d], z[B, n], w[d + n, e] and b[e], got "
            f"{x.shape}, {z.shape}, {w.shape}, {b.shape}"
        )

    def merged(x_data):
        return np.concatenate([np.broadcast_to(x_data, (batch, frames, d_x)),
                               np.broadcast_to(z[:, None, :], (batch, frames, d_z))], axis=2)

    nodes = x_node, w_node, b_node = _nodes(x, w, b)
    x_data = x.data if w_node is not None else None
    w_data = w.data if x_node is not None else None

    def backward(grad):
        g2 = grad.reshape(-1, d_out)
        if x_node is not None:
            dx = (g2 @ w_data.T).reshape(batch, frames, d_x + d_z)[..., :d_x]
            if x_rows != batch:
                x_node.accumulate_fresh(dx.sum(axis=0, keepdims=True))
            else:
                x_node.accumulate(dx)
        if w_node is not None:
            w_node.accumulate_fresh(merged(x_data).reshape(-1, d_x + d_z).T @ g2)
        if b_node is not None:
            b_node.accumulate(g2.sum(axis=0))

    return Tensor._from_op(linear_kernel(merged(x.data), w.data, b.data), nodes, backward)


def _shifted(x: np.ndarray, step: int) -> np.ndarray:
    """``x`` [B, T, d] moved ``step`` (1 or -1) positions along time,
    zero filled: row t holds x[t - step]."""
    out = np.zeros_like(x)
    if step > 0:
        out[:, step:] = x[:, :-step]
    else:
        out[:, :step] = x[:, -step:]
    return out


def conv1d_k3(x: Tensor, w_left: Tensor, w_center: Tensor, w_right: Tensor,
              b: Tensor) -> Tensor:
    """Width-3 convolution over the time axis of x [B, T, d], zero padded,
    as one node: ``x[t-1] @ w_left + x[t] @ w_center + b + x[t+1] @ w_right``.

    Each tap is one GEMM over all B*T rows, added into the output one step
    over, in the order center (with bias), left, right. The backward
    rebuilds the shifted, zero-padded inputs for the side taps' weight
    gradients from the saved input; the node keeps no array of its own.
    """
    d_out = w_center.shape[-1]
    if x.data.ndim != 3 or b.shape != (d_out,) or any(
            w.shape != (x.shape[-1], d_out) for w in (w_left, w_center, w_right)):
        raise DimensionError(
            f"conv1d_k3 needs x[B, T, d], three w[d, e] and b[e], got {x.shape}, "
            f"{w_left.shape}, {w_center.shape}, {w_right.shape}, {b.shape}"
        )
    batch, t_steps, d_in = x.shape
    x2 = x.data.reshape(-1, d_in)
    out2 = x2 @ w_center.data
    out2 += b.data
    out = out2.reshape(batch, t_steps, d_out)
    if t_steps > 1:
        out[:, 1:] += (x2 @ w_left.data).reshape(out.shape)[:, :-1]
        out[:, :-1] += (x2 @ w_right.data).reshape(out.shape)[:, 1:]

    nodes = _nodes(x, w_left, w_center, w_right, b)
    x_node, left_node, center_node, right_node, b_node = nodes
    x_data, x_shape = x.data, x.shape
    left, center, right = w_left.data, w_center.data, w_right.data

    def backward(grad):
        g2 = grad.reshape(-1, d_out)
        if x_node is not None:
            dx = (g2 @ center.T).reshape(x_shape)
            dx[:, :-1] += (g2 @ left.T).reshape(x_shape)[:, 1:]
            dx[:, 1:] += (g2 @ right.T).reshape(x_shape)[:, :-1]
            x_node.accumulate_fresh(dx)
        if center_node is not None:
            center_node.accumulate_fresh(x_data.reshape(-1, d_in).T @ g2)
        for w_node, step in ((left_node, 1), (right_node, -1)):
            if w_node is not None:
                w_node.accumulate_fresh(_shifted(x_data, step).reshape(-1, d_in).T @ g2)
        if b_node is not None:
            b_node.accumulate(g2.sum(axis=0))

    return Tensor._from_op(out, nodes, backward)


def _heads(x: np.ndarray, n_heads: int) -> np.ndarray:
    """The [B, H, T, d / H] view of x [B, T, d]'s heads."""
    return x.reshape(*x.shape[:2], n_heads, -1).transpose(0, 2, 1, 3)


def _merged_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` [B, H, T, w], written through the head view of a new [B, T, H * w] array."""
    out = np.empty((a.shape[0], a.shape[2], a.shape[1] * b.shape[-1]), np.result_type(a, b))
    np.matmul(a, b, out=_heads(out, a.shape[1]))
    return out


def attention_kernel(q: np.ndarray, k: np.ndarray, v: np.ndarray, n_heads: int, mask: np.ndarray,
                     drop: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """``dropout(softmax(q k^T / sqrt(d_head) + mask)) v`` per head on
    arrays, the forward of ``attention``: returns the output [B, Tq, d] and
    the softmax [B, H, Tq, Tk] before dropout."""
    qh = _heads(q, n_heads)
    scores = np.matmul(qh, np.swapaxes(_heads(k, n_heads), -1, -2))
    scores *= 1.0 / float(np.sqrt(qh.shape[-1]))
    scores += mask
    scores -= scores.max(axis=-1, keepdims=True)
    probs = np.exp(scores)
    probs /= probs.sum(axis=-1, keepdims=True)
    return _merged_matmul(probs if drop is None else probs * drop, _heads(v, n_heads)), probs


def attention(q: Tensor, k: Tensor, v: Tensor, n_heads: int, mask: np.ndarray,
              drop: np.ndarray | None = None) -> Tensor:
    """Multi-head ``dropout(softmax(q k^T / sqrt(d_head) + mask)) v`` as one
    node whose backward reuses the saved softmax.

    q is [B, Tq, d]; k and v are [B, Tk, d], d a multiple of ``n_heads``.
    ``mask`` is additive and broadcasts to the scores [B, n_heads, Tq, Tk];
    ``drop`` is a multiplier of that shape (0, or 1/keep).
    """
    if ({q.data.ndim, k.data.ndim} != {3} or k.shape != v.shape
            or k.shape[::2] != q.shape[::2] or q.shape[2] % n_heads):
        raise DimensionError(f"attention needs q [B, Tq, d], k and v [B, Tk, d], d divisible "
                             f"by {n_heads} heads, got {q.shape}, {k.shape}, {v.shape}")
    out_data, probs = attention_kernel(q.data, k.data, v.data, n_heads, mask, drop)
    qh, kh, vh = (_heads(t.data, n_heads) for t in (q, k, v))
    scale = 1.0 / float(np.sqrt(qh.shape[-1]))
    nodes = q_node, k_node, v_node = _nodes(q, k, v)

    def backward(grad):
        gh = _heads(grad, n_heads)
        if v_node is not None:
            weights = probs if drop is None else probs * drop
            v_node.accumulate_fresh(_merged_matmul(np.swapaxes(weights, -1, -2), gh))
        if q_node is None and k_node is None:
            return
        # d_probs, turned in its own buffer into
        # d_scores = probs * (d_probs - sum(d_probs * probs)) * scale
        d_scores = np.matmul(gh, np.swapaxes(vh, -1, -2))
        if drop is not None:
            d_scores *= drop
        d_scores -= (d_scores * probs).sum(axis=-1, keepdims=True)
        d_scores *= probs
        d_scores *= scale
        if q_node is not None:
            q_node.accumulate_fresh(_merged_matmul(d_scores, kh))
        if k_node is not None:
            k_node.accumulate_fresh(_merged_matmul(np.swapaxes(d_scores, -1, -2), qh))

    return Tensor._from_op(out_data, nodes, backward)


def gru_cell(x_proj: Tensor, t: int, h_prev: Tensor, u_r: Tensor, u_u: Tensor, u_h: Tensor,
             alive: np.ndarray) -> Tensor:
    """GRU step ``t`` as one node.

    ``x_proj`` [B, T, 3H] holds every step's reset, update and candidate
    input projections (biases included); the node reads step ``t`` and
    passes its gradient into slice ``t`` of ``x_proj``'s gradient. ``u_*`` [H, H]
    are the recurrent weights. Rows where ``alive`` [B, 1] is False keep
    ``h_prev``.
    """
    h = h_prev.data
    hid = h.shape[-1]
    if x_proj.data.ndim != 3 or (x_proj.shape[0], x_proj.shape[2]) != (h.shape[0], 3 * hid):
        raise DimensionError(
            f"gru_cell needs x_proj [B, T, 3H] for h_prev [B, H], got {x_proj.shape}, {h.shape}"
        )
    xp = x_proj.data[:, t]
    r = 1.0 / (1.0 + np.exp(-(xp[:, :hid] + h @ u_r.data)))
    u = 1.0 / (1.0 + np.exp(-(xp[:, hid : 2 * hid] + h @ u_u.data)))
    rh = r * h
    c = np.tanh(xp[:, 2 * hid :] + rh @ u_h.data)
    out_data = np.where(alive, (1.0 - u) * h + u * c, h)
    nodes = x_node, h_node, r_node, u_node, c_node = _nodes(x_proj, h_prev, u_r, u_u, u_h)
    x_shape = x_proj.shape
    w_r, w_u, w_h = u_r.data, u_u.data, u_h.data

    def backward(grad):
        g = np.where(alive, grad, 0.0)
        d_c = g * u * (1.0 - c * c)
        d_u = g * (c - h) * u * (1.0 - u)
        d_rh = d_c @ w_h.T
        d_r = d_rh * h * r * (1.0 - r)
        if x_node is not None:
            if x_node.grad is None:
                x_node.grad = np.zeros(x_shape, dtype=x_node.dtype)
            x_node.grad[:, t] += np.concatenate([d_r, d_u, d_c], axis=1)
        if h_node is not None:
            dh = g * (1.0 - u) + d_rh * r + d_r @ w_r.T + d_u @ w_u.T
            dh += np.where(alive, 0.0, grad)
            h_node.accumulate(dh)
        for w_node, d_gate, inp in ((r_node, d_r, h), (u_node, d_u, h), (c_node, d_c, rh)):
            if w_node is not None:
                w_node.accumulate(inp.T @ d_gate)

    return Tensor._from_op(out_data, nodes, backward)


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup into an embedding table, differentiable w.r.t. the table."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise IndexError("token id outside embedding table")
    return table[ids]


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

    log_probs = log_softmax(logits.data)
    picked = np.take_along_axis(log_probs, targets[..., None], axis=-1)[..., 0]
    out_data = np.asarray(-(picked * mask).sum() / n_kept)

    def grad_fn(grad):
        soft = np.exp(log_probs)
        onehot = np.zeros_like(soft)
        np.put_along_axis(onehot, targets[..., None], 1.0, axis=-1)
        return grad * (soft - onehot) * (mask / n_kept)[..., None]

    return logits._unary(out_data, grad_fn)


def layer_norm_kernel(x: np.ndarray, gain: np.ndarray, bias: np.ndarray):
    """Layer norm of the last axis on arrays, the forward of ``layer_norm``:
    returns the output, the normalized input and the inverse std."""
    d = x.shape[-1]
    # the reductions np.mean and np.var run, with the mean taken once
    centered = x - x.sum(axis=-1, keepdims=True) / d
    var = np.square(centered).sum(axis=-1, keepdims=True) / d
    inv_std = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat = np.multiply(centered, inv_std, out=centered)  # no second [..., d] array
    return xhat * gain + bias, xhat, inv_std


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    if gain.shape != (x.shape[-1],) or bias.shape != (x.shape[-1],):
        raise DimensionError("layer_norm gain/bias must match the last axis")
    d = x.shape[-1]
    out_data, xhat, inv_std = layer_norm_kernel(x.data, gain.data, bias.data)
    nodes = x_node, gain_node, bias_node = _nodes(x, gain, bias)
    gain_data = gain.data

    def backward(grad):
        if gain_node is not None:
            gain_node.accumulate((grad * xhat).reshape(-1, d).sum(axis=0))
        if bias_node is not None:
            bias_node.accumulate(grad.reshape(-1, d).sum(axis=0))
        if x_node is not None:
            dxhat = grad * gain_data
            dx = (
                dxhat
                - dxhat.mean(axis=-1, keepdims=True)
                - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
            ) * inv_std
            x_node.accumulate(dx)

    return Tensor._from_op(out_data, nodes, backward)


class Adam:
    """Adam optimizer; owns gradient zeroing per the training-loop contract."""

    def __init__(self, params, lr: float):
        self.params = list(params)
        self.lr = lr
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        self.t += 1
        b1, b2 = ADAM_BETAS
        for i, p in enumerate(self.params):
            if p.grad is None:
                continue
            # in place, in the order of m = b1 m + (1 - b1) g,
            # v = b2 v + (1 - b2) g g and p -= lr m_hat / (sqrt(v_hat) + eps)
            g, m, v = p.grad, self.m[i], self.v[i]
            m *= b1
            m += (1 - b1) * g
            v *= b2
            g2 = (1 - b2) * g
            g2 *= g
            v += g2
            update = np.divide(m, 1 - b1**self.t, out=g2)
            update *= self.lr
            v_hat = v / (1 - b2**self.t)
            np.sqrt(v_hat, out=v_hat)
            v_hat += ADAM_EPS
            update /= v_hat
            p.data -= update

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None
