import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capgan.tensor import (
    Adam,
    DimensionError,
    DomainError,
    Tensor,
    attention,
    attention_kernel,
    concat,
    conv1d_k3,
    cross_entropy,
    embedding,
    layer_norm,
    linear,
    log_softmax,
    no_grad,
)

from conftest import assert_grads_close, finite_difference, param


class TestMatmul:
    def test_identity(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = a @ Tensor(np.eye(2))
        np.testing.assert_array_equal(out.data, [[1, 2], [3, 4]])

    def test_identity_column(self):
        out = Tensor(np.eye(2)) @ Tensor([[5.0], [7.0]])
        np.testing.assert_array_equal(out.data, [[5], [7]])

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            Tensor(np.ones((3, 4))) @ Tensor(np.ones((5, 2)))

    def test_gradient(self, rng):
        a = param(rng, 3, 4)
        b = param(rng, 4, 2)
        (a @ b).sum().backward()
        fd = finite_difference(lambda: float((a.data @ b.data).sum()), [a, b])
        assert_grads_close([a, b], fd)

    def test_batched_gradient(self, rng):
        a = param(rng, 2, 3, 4)
        b = param(rng, 2, 4, 5)
        ((a @ b) * (a @ b)).sum().backward()
        fd = finite_difference(lambda: float(((a.data @ b.data) ** 2).sum()), [a, b])
        assert_grads_close([a, b], fd)


def reference_matmul(a: np.ndarray, w: np.ndarray, grad: np.ndarray):
    """``a[..., T, d] @ w[d, e]`` the batched way the folded GEMM replaced:
    (out, da, dw), dw as one [d, T] @ [T, e] product per leading index,
    then summed."""
    dw = np.matmul(np.swapaxes(a, -1, -2), grad)
    while dw.ndim > 2:
        dw = dw.sum(axis=0)
    return np.matmul(a, w), np.matmul(grad, w.T), dw


def reference_linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """The composed linear the one-node op replaced."""
    out = x @ w
    return out + b.broadcast_to(out.shape)


def split_heads(x, n_heads):
    """x [B, T, d], a ``Tensor`` or an array, as [B, H, T, d / H] heads."""
    batch, t_len, d = x.shape
    return x.reshape(batch, t_len, n_heads, d // n_heads).transpose(0, 2, 1, 3)


def merge_heads(x):
    """[B, H, T, w] heads, a ``Tensor`` or an array, as [B, T, H * w]."""
    batch, n_heads, t_len, width = x.shape
    return x.transpose(0, 2, 1, 3).reshape(batch, t_len, n_heads * width)


def reference_attention(q: Tensor, k: Tensor, v: Tensor, n_heads, mask, drop) -> Tensor:
    """The head split, scores / mask / softmax / dropout / ``@ v`` chain and
    head merge that the attention node replaced, composed of ``Tensor`` ops."""
    qh, kh, vh = (split_heads(t, n_heads) for t in (q, k, v))
    scores = (qh @ kh.transpose(0, 1, 3, 2)) * (1.0 / np.sqrt(qh.shape[-1]))
    scores = scores + Tensor(np.broadcast_to(mask, scores.shape).astype(q.dtype))
    weights = scores.softmax(axis=-1)
    if drop is not None:
        weights = weights * Tensor(drop)
    return merge_heads(weights @ vh)


def head_layout_attention(q, k, v, n_heads, mask, drop, grad):
    """(out, dq, dk, dv) of ``attention`` for the output gradient ``grad``,
    on arrays, by the head-layout formula the op replaced: q, k, v and grad
    split into [B, H, T, d_head] heads, the old kernel's forward and
    in-place d_scores backward over them, each result merged back."""
    qh, kh, vh, gh = (split_heads(a, n_heads) for a in (q, k, v, grad))
    scale = 1.0 / float(np.sqrt(qh.shape[-1]))
    scores = np.matmul(qh, np.swapaxes(kh, -1, -2))
    scores *= scale
    scores += mask
    scores -= scores.max(axis=-1, keepdims=True)
    probs = np.exp(scores)
    probs /= probs.sum(axis=-1, keepdims=True)
    weights = probs if drop is None else probs * drop
    out = np.matmul(weights, vh)
    dv = np.matmul(np.swapaxes(weights, -1, -2), gh)
    d_scores = np.matmul(gh, np.swapaxes(vh, -1, -2))
    if drop is not None:
        d_scores *= drop
    d_scores -= (d_scores * probs).sum(axis=-1, keepdims=True)
    d_scores *= probs
    d_scores *= scale
    dq = np.matmul(d_scores, kh)
    dk = np.matmul(np.swapaxes(d_scores, -1, -2), qh)
    return tuple(merge_heads(a) for a in (out, dq, dk, dv))


def f32(rng, *shape):
    return Tensor(rng.standard_normal(shape).astype(np.float32), requires_grad=True)


def rows(a):
    """``a`` [..., d] as the [N, d] rows of a folded GEMM."""
    return a.reshape(-1, a.shape[-1])


def unfused_attention_grads(q, k, v, n_heads, mask, drop, grad):
    """(dq, dk, dv) of ``attention`` for the output gradient ``grad``, with
    d_scores built through separate temporaries, as before the backward
    formed it in d_probs's buffer; heads split and merged as arrays."""
    _, probs = attention_kernel(q, k, v, n_heads, mask, drop)
    q, k, v, grad = (split_heads(a, n_heads) for a in (q, k, v, grad))
    weights = probs if drop is None else probs * drop
    dv = np.matmul(np.swapaxes(weights, -1, -2), grad)
    d_probs = np.matmul(grad, np.swapaxes(v, -1, -2))
    if drop is not None:
        d_probs *= drop
    d_scores = probs * (d_probs - (d_probs * probs).sum(axis=-1, keepdims=True))
    d_scores *= 1.0 / float(np.sqrt(q.shape[-1]))
    return tuple(merge_heads(a) for a in (
        np.matmul(d_scores, k), np.matmul(np.swapaxes(d_scores, -1, -2), q), dv))


def _grads_of(make_out, inputs, weight):
    """Forward value and the gradient of (out * weight).sum() for each input."""
    for t in inputs:
        t.zero_grad()
    out = make_out()
    (out * Tensor(weight)).sum().backward()
    grads = [t.grad.copy() for t in inputs]
    for t in inputs:
        t.zero_grad()
    return out.data, grads


class TestFoldedMatmul:
    @pytest.mark.parametrize("lead", [(3,), (2, 3)], ids=["3-D", "4-D"])
    def test_gradient(self, lead, rng):
        a, w = param(rng, *lead, 4, 3), param(rng, 3, 5)
        c = rng.standard_normal((*lead, 4, 5))
        ((a @ w) * Tensor(c)).sum().backward()
        fd = finite_difference(lambda: float(((a.data @ w.data) * c).sum()), [a, w])
        assert_grads_close([a, w], fd)

    @pytest.mark.parametrize("lead", [(8,), (4, 3)], ids=["3-D", "4-D"])
    def test_matches_batched_products(self, lead, rng):
        a = Tensor(rng.standard_normal((*lead, 23, 16)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.standard_normal((16, 12)).astype(np.float32), requires_grad=True)
        c = rng.standard_normal((*lead, 23, 12)).astype(np.float32)
        out, (da, dw) = _grads_of(lambda: a @ w, [a, w], c)
        ref_out, ref_da, ref_dw = reference_matmul(a.data, w.data, c)
        for got, want in ((out, ref_out), (da, ref_da), (dw, ref_dw)):
            assert got.dtype == np.float32 and got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-5)


class TestLinear:
    @pytest.mark.parametrize("shape", [(5,), (4, 5), (2, 3, 5)], ids=["1-D", "2-D", "3-D"])
    def test_gradient(self, shape, rng):
        x, w, b = param(rng, *shape), param(rng, 5, 3), param(rng, 3)
        c = rng.standard_normal((*shape[:-1], 3))
        (linear(x, w, b) * Tensor(c)).sum().backward()
        fd = finite_difference(lambda: float(((x.data @ w.data + b.data) * c).sum()), [x, w, b])
        assert_grads_close([x, w, b], fd)

    def test_matches_composed(self, rng):
        x = Tensor(rng.standard_normal((8, 23, 16)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.standard_normal((16, 12)).astype(np.float32), requires_grad=True)
        b = Tensor(rng.standard_normal(12).astype(np.float32), requires_grad=True)
        c = rng.standard_normal((8, 23, 12)).astype(np.float32)
        out, grads = _grads_of(lambda: linear(x, w, b), [x, w, b], c)
        ref_out, ref_grads = _grads_of(lambda: reference_linear(x, w, b), [x, w, b], c)
        for got, want in zip([out, *grads], [ref_out, *ref_grads]):
            assert got.dtype == np.float32
            np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-5)

    def test_shape_contract(self, rng):
        with pytest.raises(DimensionError):
            linear(param(rng, 2, 5), param(rng, 5, 3), param(rng, 4))


def _masks(name, rng, batch, n_heads, t_q, t_k, dtype):
    """(mask, drop) of one masking case: a causal mask over the last t_q of
    t_k positions; or a frame mask keeping the first 6, 3 and 1 keys of the
    three rows, with dropout at keep 0.7 in the "dropout" case."""
    if name == "causal":
        return np.triu(np.full((t_q, t_k), -1e9, dtype=dtype), k=1 + t_k - t_q), None
    alive = np.arange(t_k)[None, :] < np.array([6, 3, 1])[:, None]
    mask = np.where(alive, 0.0, -1e9).astype(dtype)[:, None, None, :]
    if name == "frame mask":
        return mask, None
    return mask, ((rng.random((batch, n_heads, t_q, t_k)) < 0.7) / 0.7).astype(dtype)


def _attention_case(name, rng, dtype):
    """(q, k, v, mask, drop) for one masking case: batch 3, 3 query and 6
    key positions, width 8 in 2 heads."""
    batch, t_q, t_k, width = 3, 3, 6, 8

    def t(*shape):
        return Tensor(rng.standard_normal(shape).astype(dtype), requires_grad=True)

    q, k, v = t(batch, t_q, width), t(batch, t_k, width), t(batch, t_k, width)
    return (q, k, v, *_masks(name, rng, batch, 2, t_q, t_k, dtype))


ATTENTION_CASES = ["causal", "frame mask", "dropout"]


class TestAttention:
    @pytest.mark.parametrize("case", ATTENTION_CASES)
    def test_gradient(self, case, rng):
        q, k, v, mask, drop = _attention_case(case, rng, np.float64)
        c = rng.standard_normal(q.shape)
        (attention(q, k, v, 2, mask, drop) * Tensor(c)).sum().backward()
        fd = finite_difference(
            lambda: float((reference_attention(q, k, v, 2, mask, drop).data * c).sum()),
            [q, k, v],
        )
        assert_grads_close([q, k, v], fd)

    @pytest.mark.parametrize("case", ATTENTION_CASES)
    def test_matches_composed(self, case, rng):
        q, k, v, mask, drop = _attention_case(case, rng, np.float32)
        c = rng.standard_normal(q.shape).astype(np.float32)
        out, grads = _grads_of(lambda: attention(q, k, v, 2, mask, drop), [q, k, v], c)
        ref_out, ref_grads = _grads_of(
            lambda: reference_attention(q, k, v, 2, mask, drop), [q, k, v], c
        )
        for got, want in zip([out, *grads], [ref_out, *ref_grads]):
            assert got.dtype == np.float32 and got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-5)

    @pytest.mark.parametrize("case", ATTENTION_CASES)
    @pytest.mark.parametrize("t_q", [1, 5])
    @pytest.mark.parametrize("n_heads", [1, 2, 4])
    def test_bit_identical_to_the_head_layout_formula(self, n_heads, t_q, case, rng):
        # width 12: head widths 12, 6 and 3, whose scales 1/sqrt(d_head)
        # round, so the order of the products shows in the bits; one query
        # position takes numpy's matrix-vector path
        q, k, v = (f32(rng, 3, t, 12) for t in (t_q, 6, 6))
        mask, drop = _masks(case, rng, 3, n_heads, t_q, 6, np.float32)
        c = rng.standard_normal(q.shape).astype(np.float32)
        out, grads = _grads_of(lambda: attention(q, k, v, n_heads, mask, drop), [q, k, v], c)
        want = head_layout_attention(q.data, k.data, v.data, n_heads, mask, drop, c)
        for got, ref in zip([out, *grads], want):
            assert got.dtype == ref.dtype == np.float32 and got.shape == ref.shape
            assert got.tobytes() == ref.tobytes()

    def test_masked_keys_get_no_weight(self, rng):
        q, k, v, mask, _ = _attention_case("frame mask", rng, np.float64)
        out = attention(q, k, v, 2, mask).data
        v_changed = v.data.copy()
        v_changed[2, 1:] += 100.0  # row 2 sees only its first key
        out_changed = attention(q, k, Tensor(v_changed), 2, mask).data
        np.testing.assert_array_equal(out[2], out_changed[2])

    @pytest.mark.parametrize("dropped", [False, True], ids=["no dropout", "dropout"])
    @pytest.mark.parametrize("masked", [False, True], ids=["no mask", "frame mask"])
    def test_gradients_bit_identical_to_the_three_temporary_formula(self, masked, dropped, rng):
        # head width 6: a scale of 1/sqrt(6) rounds, so the order of the
        # products shows in the bits
        q, k, v = (f32(rng, 3, t, 12) for t in (3, 5, 5))
        alive = np.arange(5)[None, :] < np.array([5, 3, 1])[:, None]
        mask = np.where(alive | (not masked), 0.0, -1e9).astype(np.float32)[:, None, None, :]
        drop = None
        if dropped:
            drop = ((rng.random((3, 2, 3, 5)) < 0.7) / 0.7).astype(np.float32)
        c = rng.standard_normal(q.shape).astype(np.float32)
        _, grads = _grads_of(lambda: attention(q, k, v, 2, mask, drop), [q, k, v], c)
        want = unfused_attention_grads(q.data, k.data, v.data, 2, mask, drop, c)
        for got, ref in zip(grads, want):
            assert got.dtype == ref.dtype == np.float32
            assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("kv_batch", [1, 2])
    def test_key_batch_must_match(self, kv_batch, rng):
        q = param(rng, 3, 1, 8)
        kv = param(rng, kv_batch, 5, 8)
        with pytest.raises(DimensionError):
            attention(q, kv, kv, 2, np.zeros((1, 5)))

    def test_width_must_split_into_heads(self, rng):
        q, kv = param(rng, 3, 1, 8), param(rng, 3, 5, 8)
        with pytest.raises(DimensionError):
            attention(q, kv, kv, 3, np.zeros((1, 5)))


class TestElementwise:
    def test_sigmoid_at_zero(self):
        assert Tensor([0.0]).sigmoid().data[0] == 0.5

    def test_tanh_at_zero(self):
        assert Tensor([0.0]).tanh().data[0] == 0.0

    def test_sigmoid_gradient(self):
        x = Tensor([1.0], requires_grad=True)
        x.sigmoid().sum().backward()
        fd = finite_difference(lambda: float(1 / (1 + np.exp(-x.data[0]))), [x])
        assert_grads_close([x], fd)

    def test_log_domain_error(self):
        with pytest.raises(DomainError):
            Tensor([0.0, 1.0]).log()

    def test_illegal_broadcast(self):
        with pytest.raises(DimensionError):
            Tensor(np.ones((3, 4))) + Tensor(np.ones(4))

    def test_scalar_broadcast_allowed(self):
        out = Tensor(np.ones((3, 4))) * 2.0
        assert out.data.sum() == 24.0

    @pytest.mark.parametrize("op", [
        "add", "sub", "mul", "div", "neg", "exp", "log", "sigmoid", "tanh", "relu", "sqrt",
        "log_softmax", "sum_axis0", "sum_axis1_keepdims", "mean_axis0",
    ])
    def test_gradients(self, op, rng):
        x = param(rng, 4, 3)
        y = Tensor(np.abs(rng.standard_normal((4, 3))) + 0.5, requires_grad=True)
        # weights, so a reduced axis or a softmax row gets an uneven gradient
        w = rng.standard_normal((4, 3))
        fns = {
            "add": (lambda: (x + y).sum(), lambda: (x.data + y.data).sum()),
            "sub": (lambda: (x - y).sum(), lambda: (x.data - y.data).sum()),
            "mul": (lambda: (x * y).sum(), lambda: (x.data * y.data).sum()),
            "div": (lambda: (x / y).sum(), lambda: (x.data / y.data).sum()),
            "exp": (lambda: x.exp().sum(), lambda: np.exp(x.data).sum()),
            "tanh": (lambda: x.tanh().sum(), lambda: np.tanh(x.data).sum()),
            "relu": (lambda: x.relu().sum(), lambda: np.maximum(x.data, 0).sum()),
            "sqrt": (lambda: y.sqrt().sum(), lambda: np.sqrt(y.data).sum()),
            "neg": (lambda: (-x * Tensor(w)).sum(), lambda: (-x.data * w).sum()),
            "log": (lambda: y.log().sum(), lambda: np.log(y.data).sum()),
            "sigmoid": (lambda: x.sigmoid().sum(), lambda: (1 / (1 + np.exp(-x.data))).sum()),
            "log_softmax": (lambda: (x.log_softmax() * Tensor(w)).sum(),
                            lambda: ((x.data - np.log(np.exp(x.data).sum(axis=-1, keepdims=True)))
                                     * w).sum()),
            "sum_axis0": (lambda: (x.sum(axis=0) * Tensor(w[0])).sum(),
                          lambda: (x.data.sum(axis=0) * w[0]).sum()),
            "sum_axis1_keepdims": (lambda: (x.sum(axis=1, keepdims=True) * Tensor(w[:, :1])).sum(),
                                   lambda: (x.data.sum(axis=1, keepdims=True) * w[:, :1]).sum()),
            "mean_axis0": (lambda: (x.mean(axis=0) * Tensor(w[0])).sum(),
                           lambda: (x.data.mean(axis=0) * w[0]).sum()),
        }
        forward, numeric = fns[op]
        forward().backward()
        fd = finite_difference(lambda: float(numeric()), [x, y])
        assert_grads_close([x, y], fd)

    def test_relu_gradient_is_the_input_mask(self):
        # the node saves relu's output; out > 0 must select what x > 0 does
        x = np.array([-1.0, -0.0, 0.0, np.nan, 2.0])
        g = np.array([3.0, 5.0, 7.0, 11.0, 13.0])
        leaf = Tensor(x, requires_grad=True)
        (leaf.relu() * Tensor(g)).sum().backward()
        assert leaf.grad.tobytes() == (g * (x > 0)).tobytes()


class TestSoftmax:
    def test_uniform(self):
        out = Tensor([0.0, 0.0, 0.0]).softmax()
        np.testing.assert_allclose(out.data, [1 / 3] * 3)

    def test_stabilized(self):
        out = Tensor([1000.0, 1000.0]).softmax()
        np.testing.assert_allclose(out.data, [0.5, 0.5])
        assert np.all(np.isfinite(out.data))

    def test_gradient(self, rng):
        x = param(rng, 5)
        w = rng.standard_normal(5)
        (x.softmax() * Tensor(w)).sum().backward()

        def numeric():
            e = np.exp(x.data - x.data.max())
            return float((e / e.sum() * w).sum())

        fd = finite_difference(numeric, [x])
        assert_grads_close([x], fd)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=12), st.integers(0, 3))
    def test_sums_to_one(self, values, seed):
        x = Tensor(np.array(values))
        out = x.softmax(axis=0).data
        assert np.all(out >= 0)
        assert abs(out.sum() - 1.0) < 1e-9


class TestCrossEntropy:
    def test_confident_correct(self):
        logits = Tensor(np.array([[30.0, 0.0, 0.0], [0.0, 30.0, 0.0]]))
        loss = cross_entropy(logits, [0, 1])
        assert loss.item() < 1e-9

    def test_uniform_logits(self):
        logits = Tensor(np.zeros((3, 4)))
        loss = cross_entropy(logits, [0, 1, 2])
        np.testing.assert_allclose(loss.item(), np.log(4))

    def test_empty_mask(self):
        with pytest.raises(DomainError):
            cross_entropy(Tensor(np.zeros((2, 3))), [0, 1], mask=[0, 0])

    def test_gradient(self, rng):
        logits = param(rng, 4, 6)
        targets = rng.integers(0, 6, size=4)
        mask = np.array([1.0, 1.0, 0.0, 1.0])
        cross_entropy(logits, targets, mask).backward()

        def numeric():
            shifted = logits.data - logits.data.max(axis=-1, keepdims=True)
            lp = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
            picked = lp[np.arange(4), targets]
            return float(-(picked * mask).sum() / mask.sum())

        fd = finite_difference(numeric, [logits])
        assert_grads_close([logits], fd)

    def test_masked_positions_get_no_gradient(self, rng):
        logits = param(rng, 3, 5)
        cross_entropy(logits, [0, 1, 2], mask=[1, 0, 1]).backward()
        np.testing.assert_array_equal(logits.grad[1], np.zeros(5))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gradient_is_the_one_hot_formula_bit_for_bit(self, rng, dtype):
        # the MLE layout: [B, T, V] logits, with padded positions masked off
        logits = Tensor(rng.standard_normal((3, 5, 7)).astype(dtype), requires_grad=True)
        targets = rng.integers(0, 7, size=(3, 5))
        mask = (np.arange(5)[None, :] < np.array([5, 3, 1])[:, None]).astype(np.float64)
        loss = cross_entropy(logits, targets, mask)
        grad = np.ones_like(loss.data)
        loss.backward()

        soft = np.exp(log_softmax(logits.data))
        onehot = np.zeros_like(soft)
        np.put_along_axis(onehot, targets[..., None], 1.0, axis=-1)
        kept = mask.astype(dtype)
        want = grad * (soft - onehot) * (kept / kept.sum())[..., None]
        assert logits.grad.dtype == want.dtype
        assert logits.grad.tobytes() == want.tobytes()
        assert not logits.grad[2, 1:].any()


class TestBackward:
    def test_root_is_leaf(self):
        x = Tensor([3.0], requires_grad=True)
        x.sum().backward()
        np.testing.assert_array_equal(x.grad, [1.0])

    def test_linear(self):
        x = Tensor(np.arange(4.0), requires_grad=True)
        (x * 2.0).sum().backward()
        np.testing.assert_array_equal(x.grad, [2.0] * 4)

    def test_non_scalar_root_rejected(self):
        with pytest.raises(ValueError):
            Tensor(np.ones(3), requires_grad=True).backward()

    def test_shared_subexpression(self):
        # y = x*x; root = y + y  =>  d root/dx = 4x
        x = Tensor([3.0], requires_grad=True)
        y = x * x
        (y + y).sum().backward()
        np.testing.assert_allclose(x.grad, [12.0])

    def test_accumulation_until_zeroed(self):
        x = Tensor([1.0], requires_grad=True)
        (x * 2.0).sum().backward()
        (x * 2.0).sum().backward()
        np.testing.assert_allclose(x.grad, [4.0])
        x.zero_grad()
        assert x.grad is None

    def test_deterministic_forward(self, rng):
        a = rng.standard_normal((6, 6))
        out1 = (Tensor(a) @ Tensor(a)).tanh().softmax().data
        out2 = (Tensor(a) @ Tensor(a)).tanh().softmax().data
        assert np.array_equal(out1, out2)


class TestNoGrad:
    def test_ops_record_no_graph(self, rng):
        x, w = param(rng, 2, 3), param(rng, 3, 4)
        g, b = param(rng, 4), param(rng, 4)
        with no_grad():
            outs = [
                x @ w,
                (x * 2.0).exp().sum(axis=1),
                concat([x, x], axis=0)[1:],
                layer_norm(x @ w, g, b).softmax(),
                embedding(w, np.array([0, 2])),
                cross_entropy(x @ w, [0, 3]),
            ]
        for out in outs:
            assert out.requires_grad is False
            assert out._node is None  # no parents, no backward closure

    def test_restored_after_exception(self, rng):
        x = param(rng, 2)
        with pytest.raises(RuntimeError):
            with no_grad():
                raise RuntimeError("inside")
        out = x * 3.0
        assert out.requires_grad and out._node.parents == (x._node,)

    def test_nested_restores_outer_mode(self, rng):
        x = param(rng, 2)
        with no_grad():
            with no_grad():
                pass
            assert not (x * 2.0).requires_grad
        assert (x * 2.0).requires_grad

    def test_backward_after_decode_matches_finite_differences(self):
        from capgan.decoding import beam_decode, rollout

        from test_models import tiny_generator, tiny_inputs

        gen = tiny_generator()
        rng = np.random.default_rng(8)
        features, feat_lengths, z, tokens = tiny_inputs(rng)
        targets = rng.integers(0, 11, size=tokens.shape)
        rollout(gen, features, feat_lengths, z, "greedy", max_length=4)
        beam_decode(gen, features[:1], feat_lengths[:1], z[:1], beam_size=3, max_length=4,
                    n_best=1)

        def loss():
            return cross_entropy(gen.forward(features, feat_lengths, z, tokens), targets)

        loss().backward()
        params = gen.store.tensors()
        fd = finite_difference(lambda: loss().item(), params)
        assert_grads_close(params, fd, rtol=1e-3)


class TestRelease:
    """A backward releases the graph it walks."""

    def test_interior_arrays_freed_while_the_root_is_held(self, rng):
        x, w = param(rng, 4, 3), param(rng, 3, 5)
        h = (x @ w).tanh()
        activation = weakref.ref(h.data)
        loss = (h * h).sum()
        del h
        loss.backward()
        assert activation() is None
        fd = finite_difference(lambda: float((np.tanh(x.data @ w.data) ** 2).sum()), [x, w])
        assert_grads_close([x, w], fd)

    def test_forward_frees_the_arrays_no_backward_reads(self, rng):
        # residual add, linear -> relu, attention: of the arrays below only
        # the inputs of the projections are read by a gradient formula
        x, w1, b1 = param(rng, 2, 3, 4), param(rng, 4, 4), param(rng, 4)
        wq, wk, wv, wo = (param(rng, 4, 4) for _ in range(4))
        mask = np.zeros((1, 1, 1, 3))

        def forward(refs=None):
            pre = linear(x, w1, b1)
            h = pre.relu()
            att = attention(h @ wq, h @ wk, h @ wv, 2, mask)
            out = att @ wo
            res = x + out
            if refs is not None:
                refs.update(pre=weakref.ref(pre.data), att=weakref.ref(att.data),
                            out=weakref.ref(out.data), res=weakref.ref(res.data),
                            h=weakref.ref(h.data))
            return res.tanh().sum()

        refs = {}
        loss = forward(refs)
        assert refs["pre"]() is None, "pre-ReLU array kept"
        assert refs["out"]() is None, "output projection kept"
        assert refs["res"]() is None, "residual sum kept"
        assert refs["h"]() is not None, "matmul input freed before its backward"
        assert refs["att"]() is not None, "output projection input freed before its backward"
        loss.backward()
        params = [x, w1, b1, wq, wk, wv, wo]
        fd = finite_difference(lambda: forward().item(), params)
        assert_grads_close(params, fd)

    def test_second_backward_raises_and_leaves_gradients(self, rng):
        x = param(rng, 3)
        y = x * 2.0
        loss = (y * y).sum()
        loss.backward()
        first = x.grad.copy()
        with pytest.raises(RuntimeError, match="already backpropagated"):
            loss.backward()
        # a new graph through a released node raises too, before any gradient moves
        with pytest.raises(RuntimeError, match="already backpropagated"):
            (y * 3.0).sum().backward()
        np.testing.assert_array_equal(x.grad, first)

    @pytest.mark.parametrize("second", ["product", "basic slice"])
    def test_shared_gradient_survives_a_second_contribution(self, second, rng):
        # s = a + b hands its one gradient array to both a and b; a then
        # receives a second contribution, which must not write into it
        a, b = param(rng, 4), param(rng, 4)
        c, k = rng.standard_normal(4), rng.standard_normal(3)

        def forward(a, b):
            other = a * Tensor(np.r_[k, 0.0]) if second == "product" else a[1:] * Tensor(k)
            return ((a + b) * Tensor(c)).sum() + other.sum()

        loss = forward(a, b)
        s = loss._node.parents[0].parents[0].parents[0]  # the a + b node
        shared = []
        real = s.backward

        def spy(grad):
            shared.append((grad, grad.copy()))
            real(grad)

        s.backward = spy
        loss.backward()
        (array, before), = shared
        np.testing.assert_array_equal(array, before)
        fd = finite_difference(lambda: forward(a, b).item(), [a, b])
        assert_grads_close([a, b], fd)


class TestHandedGradients:
    """The GEMM, convolution and attention nodes hand their freshly computed
    gradients to the receiving node as its first gradient, without a copy.
    A second contribution then adds into that array, so it must belong to
    no other node. Each case gives some node two or three contributions;
    every gradient must equal its numpy formula bit for bit (a sum of two
    terms does not depend on their order)."""

    @staticmethod
    def _assert_bits(tensors, wants):
        for t, want in zip(tensors, wants):
            assert t.grad.dtype == want.dtype == np.float32
            assert t.grad.tobytes() == want.tobytes()

    def test_one_weight_in_two_products(self, rng):
        a, b, w = f32(rng, 3, 5, 4), f32(rng, 6, 4), f32(rng, 4, 3)
        ca, cb = f32(rng, 3, 5, 3).data, f32(rng, 6, 3).data
        (((a @ w) * Tensor(ca)).sum() + ((b @ w) * Tensor(cb)).sum()).backward()
        self._assert_bits([a, b, w], [
            (rows(ca) @ w.data.T).reshape(a.shape),
            cb @ w.data.T,
            rows(a.data).T @ rows(ca) + b.data.T @ cb,
        ])

    def test_one_activation_read_by_two_products(self, rng):
        x, w0, w1, w2 = f32(rng, 2, 5, 4), f32(rng, 4, 6), f32(rng, 6, 3), f32(rng, 6, 2)
        c1, c2 = f32(rng, 2, 5, 3).data, f32(rng, 2, 5, 2).data
        h = x @ w0
        (((h @ w1) * Tensor(c1)).sum() + ((h @ w2) * Tensor(c2)).sum()).backward()
        h2 = rows(x.data) @ w0.data
        dh = rows(c1) @ w1.data.T + rows(c2) @ w2.data.T
        self._assert_bits([x, w0, w1, w2], [
            (dh @ w0.data.T).reshape(x.shape),
            rows(x.data).T @ dh,
            h2.T @ rows(c1),
            h2.T @ rows(c2),
        ])

    def test_convolution_input_also_read_by_a_linear(self, rng):
        x = f32(rng, 2, 5, 4)
        w_l, w_c, w_r, w_lin = (f32(rng, 4, 3) for _ in range(4))
        b, b_lin = f32(rng, 3), f32(rng, 3)
        c1, c2 = f32(rng, 2, 5, 3).data, f32(rng, 2, 5, 3).data
        conv = conv1d_k3(x, w_l, w_c, w_r, b)
        ((conv * Tensor(c1)).sum() + (linear(x, w_lin, b_lin) * Tensor(c2)).sum()).backward()
        g = rows(c1)
        dx_conv = (g @ w_c.data.T).reshape(x.shape)
        dx_conv[:, :-1] += (g @ w_l.data.T).reshape(x.shape)[:, 1:]
        dx_conv[:, 1:] += (g @ w_r.data.T).reshape(x.shape)[:, :-1]
        left, right = np.zeros_like(x.data), np.zeros_like(x.data)
        left[:, 1:], right[:, :-1] = x.data[:, :-1], x.data[:, 1:]
        self._assert_bits([x, w_l, w_c, w_r, w_lin], [
            dx_conv + (rows(c2) @ w_lin.data.T).reshape(x.shape),
            rows(left).T @ g,
            rows(x.data).T @ g,
            rows(right).T @ g,
            rows(x.data).T @ rows(c2),
        ])

    @pytest.mark.parametrize("case", ATTENTION_CASES)
    def test_self_attention_on_one_input(self, case, rng):
        x = f32(rng, 3, 6, 8)
        mask, drop = _masks(case, rng, 3, 2, 6, 6, np.float32)
        c = rng.standard_normal(x.shape).astype(np.float32)
        (attention(x, x, x, 2, mask, drop) * Tensor(c)).sum().backward()
        dq, dk, dv = unfused_attention_grads(x.data, x.data, x.data, 2, mask, drop, c)
        # the node passes v's gradient first, then q's, then k's
        self._assert_bits([x], [dv + dq + dk])


class TestShapeOps:
    def test_reshape_transpose_gradient(self, rng):
        x = param(rng, 2, 6)
        (x.reshape(3, 4).transpose() * x.reshape(4, 3)).sum().backward()
        fd = finite_difference(
            lambda: float((x.data.reshape(3, 4).T * x.data.reshape(4, 3)).sum()), [x]
        )
        assert_grads_close([x], fd)

    @pytest.mark.parametrize("axes", [(1, 2, 0), (2, 0, 1)])
    def test_cyclic_transpose_gradient(self, axes, rng):
        # a permutation that is not its own inverse: the backward must
        # transpose by the inverse, not by the permutation again
        x = param(rng, 2, 3, 4)
        w = rng.standard_normal(np.transpose(x.data, axes).shape)
        (x.transpose(axes) * Tensor(w)).sum().backward()
        fd = finite_difference(lambda: float((np.transpose(x.data, axes) * w).sum()), [x])
        assert_grads_close([x], fd)

    def test_broadcast_to_gradient(self, rng):
        b = param(rng, 4)
        x = rng.standard_normal((3, 4))
        (b.broadcast_to((3, 4)) * Tensor(x)).sum().backward()
        fd = finite_difference(lambda: float((b.data * x).sum()), [b])
        assert_grads_close([b], fd)

    def test_concat_gradient(self, rng):
        a, b = param(rng, 2, 3), param(rng, 4, 3)
        (concat([a, b], axis=0) * concat([a, b], axis=0)).sum().backward()
        fd = finite_difference(
            lambda: float((np.concatenate([a.data, b.data]) ** 2).sum()), [a, b]
        )
        assert_grads_close([a, b], fd)

    def test_getitem_gradient(self, rng):
        x = param(rng, 5, 3)
        (x[1:4] * x[0:3]).sum().backward()
        fd = finite_difference(lambda: float((x.data[1:4] * x.data[0:3]).sum()), [x])
        assert_grads_close([x], fd)

    def test_embedding_gradient(self, rng):
        table = param(rng, 7, 4)
        ids = np.array([1, 1, 3])
        (embedding(table, ids) * embedding(table, ids)).sum().backward()
        fd = finite_difference(lambda: float((table.data[ids] ** 2).sum()), [table])
        assert_grads_close([table], fd)

    def test_embedding_range_check(self):
        with pytest.raises(IndexError):
            embedding(Tensor(np.ones((3, 2)), requires_grad=True), np.array([3]))


def add_at_gradient(shape, index, grad) -> np.ndarray:
    """The gradient of ``x[index]`` through ``np.add.at``, the general path."""
    full = np.zeros(shape)
    np.add.at(full, index, grad)
    return full


BASIC_INDICES = {
    "slice": np.s_[1:4],
    "int": np.s_[2],
    "int and slice": np.s_[:, 1],
    "strided": np.s_[..., ::2],
    "new axis": np.s_[None, 1:3, -1],
    "negative int": np.s_[-1, 1:],
}


class TestGetitemBackward:
    @pytest.mark.parametrize("name", sorted(BASIC_INDICES))
    def test_basic_index_bit_identical_to_add_at(self, name, rng):
        index = BASIC_INDICES[name]
        x = param(rng, 5, 3)
        g = rng.standard_normal(x.data[index].shape)
        (x[index] * Tensor(g)).sum().backward()
        assert x.grad.tobytes() == add_at_gradient(x.shape, index, g).tobytes()

    def test_overlapping_slices_bit_identical_to_add_at(self, rng):
        x = param(rng, 5, 3)
        g1, g2 = rng.standard_normal((3, 3)), rng.standard_normal((3, 3))
        ((x[1:4] * Tensor(g1)).sum() + (x[0:3] * Tensor(g2)).sum()).backward()
        expected = add_at_gradient(x.shape, np.s_[1:4], g1)
        expected += add_at_gradient(x.shape, np.s_[0:3], g2)
        assert x.grad.tobytes() == expected.tobytes()

    def test_interior_node_slices(self, rng):
        # the slices' gradients land in an op output's transient gradient
        x = param(rng, 4, 6)
        y = x * 2.0
        (y[:, :3] * y[:, 3:]).sum().backward()
        fd = finite_difference(lambda: float(4.0 * (x.data[:, :3] * x.data[:, 3:]).sum()), [x])
        assert_grads_close([x], fd)

    @pytest.mark.parametrize(
        "index",
        [(np.arange(3), np.arange(3)), np.array([0, 0, 2]), [1, 1], np.array([True, False, True])],
        ids=["diagonal", "repeated rows", "list", "bool mask"],
    )
    def test_advanced_index_accumulates_through_add_at(self, index, rng):
        x = param(rng, 3, 3)
        g = rng.standard_normal(x.data[index].shape)
        (x[index] * Tensor(g)).sum().backward()
        assert x.grad.tobytes() == add_at_gradient(x.shape, index, g).tobytes()

    def test_repeated_rows_sum(self):
        x = Tensor(np.zeros((3, 2)), requires_grad=True)
        x[np.array([0, 0, 2])].sum().backward()
        np.testing.assert_array_equal(x.grad, [[2.0, 2.0], [0.0, 0.0], [1.0, 1.0]])


def reference_layer_norm(x, g, b, eps=1e-5):
    """Layer norm composed from np.mean and np.var."""
    mu = x.mean(-1, keepdims=True)
    var = x.var(-1, keepdims=True)
    return (x - mu) * (1.0 / np.sqrt(var + eps)) * g + b


class TestLayerNorm:
    @pytest.mark.parametrize("shape", [(16, 64), (3, 7, 64)], ids=["N,d", "B,T,d"])
    def test_bit_identical_to_mean_var(self, shape, rng):
        x = (rng.standard_normal(shape) * 3.0 + 1.5).astype(np.float32)
        g = rng.standard_normal(shape[-1]).astype(np.float32)
        b = rng.standard_normal(shape[-1]).astype(np.float32)
        out = layer_norm(Tensor(x), Tensor(g), Tensor(b)).data
        want = reference_layer_norm(x, g, b)
        assert out.dtype == want.dtype == np.float32
        np.testing.assert_array_equal(out, want)

    def test_gradient(self, rng):
        x, g, b = param(rng, 3, 6), param(rng, 6), param(rng, 6)

        def numeric():
            return float((reference_layer_norm(x.data, g.data, b.data) ** 2).sum())

        out = layer_norm(x, g, b)
        (out * out).sum().backward()
        fd = finite_difference(numeric, [x, g, b])
        assert_grads_close([x, g, b], fd, rtol=5e-4)


class TestAdam:
    def test_minimizes_quadratic(self):
        x = Tensor([5.0], requires_grad=True)
        opt = Adam([x], lr=0.1)
        for _ in range(500):
            opt.zero_grad()
            (x * x).sum().backward()
            opt.step()
        assert abs(x.data[0]) < 1e-2

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_in_place_step_equals_the_formula(self, dtype):
        # parameters and moments bit for bit against the textbook update,
        # with the moment buffers updated where they are
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((6, 5)).astype(dtype), requires_grad=True)
        opt = Adam([x], lr=1e-2)
        buffers = (opt.m[0], opt.v[0])
        want, m, v = x.data.copy(), np.zeros_like(x.data), np.zeros_like(x.data)
        for t in range(1, 51):
            g = rng.standard_normal(x.shape).astype(dtype)
            x.grad = g.copy()
            opt.step()
            m = 0.9 * m + (1 - 0.9) * g
            v = 0.999 * v + (1 - 0.999) * g * g
            m_hat = m / (1 - 0.9**t)
            v_hat = v / (1 - 0.999**t)
            want -= 1e-2 * m_hat / (np.sqrt(v_hat) + 1e-8)
            np.testing.assert_array_equal(x.data, want)
            np.testing.assert_array_equal(opt.m[0], m)
            np.testing.assert_array_equal(opt.v[0], v)
            np.testing.assert_array_equal(x.grad, g)
        assert (opt.m[0], opt.v[0]) == buffers and x.data.dtype == dtype

    def test_skips_gradless_params(self):
        x = Tensor([1.0], requires_grad=True)
        opt = Adam([x], lr=0.1)
        opt.step()
        np.testing.assert_array_equal(x.data, [1.0])
