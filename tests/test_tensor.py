import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capgan.tensor import (
    Adam,
    DimensionError,
    DomainError,
    Tensor,
    concat,
    cross_entropy,
    embedding,
    layer_norm,
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

    @pytest.mark.parametrize("op", ["add", "sub", "mul", "div", "exp", "tanh", "relu", "sqrt"])
    def test_gradients(self, op, rng):
        x = param(rng, 4, 3)
        y = Tensor(np.abs(rng.standard_normal((4, 3))) + 0.5, requires_grad=True)
        fns = {
            "add": (lambda: (x + y).sum(), lambda: (x.data + y.data).sum()),
            "sub": (lambda: (x - y).sum(), lambda: (x.data - y.data).sum()),
            "mul": (lambda: (x * y).sum(), lambda: (x.data * y.data).sum()),
            "div": (lambda: (x / y).sum(), lambda: (x.data / y.data).sum()),
            "exp": (lambda: x.exp().sum(), lambda: np.exp(x.data).sum()),
            "tanh": (lambda: x.tanh().sum(), lambda: np.tanh(x.data).sum()),
            "relu": (lambda: x.relu().sum(), lambda: np.maximum(x.data, 0).sum()),
            "sqrt": (lambda: y.sqrt().sum(), lambda: np.sqrt(y.data).sum()),
        }
        forward, numeric = fns[op]
        forward().backward()
        fd = finite_difference(lambda: float(numeric()), [x, y])
        assert_grads_close([x, y], fd)


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
            assert out._prev == ()
            assert out._backward is None

    def test_restored_after_exception(self, rng):
        x = param(rng, 2)
        with pytest.raises(RuntimeError):
            with no_grad():
                raise RuntimeError("inside")
        out = x * 3.0
        assert out.requires_grad and out._prev == (x,)

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
        beam_decode(gen, features[:1], feat_lengths[:1], z[:1], beam_size=3, max_length=4)

        def loss():
            return cross_entropy(gen.forward(features, feat_lengths, z, tokens), targets)

        loss().backward()
        params = gen.store.tensors()
        fd = finite_difference(lambda: loss().item(), params)
        assert_grads_close(params, fd, rtol=1e-3)


class TestShapeOps:
    def test_reshape_transpose_gradient(self, rng):
        x = param(rng, 2, 6)
        (x.reshape(3, 4).transpose() * x.reshape(4, 3)).sum().backward()
        fd = finite_difference(
            lambda: float((x.data.reshape(3, 4).T * x.data.reshape(4, 3)).sum()), [x]
        )
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


class TestLayerNorm:
    def test_gradient(self, rng):
        x, g, b = param(rng, 3, 6), param(rng, 6), param(rng, 6)

        def numeric():
            mu = x.data.mean(-1, keepdims=True)
            var = x.data.var(-1, keepdims=True)
            xhat = (x.data - mu) / np.sqrt(var + 1e-5)
            return float(((xhat * g.data + b.data) ** 2).sum())

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

    def test_skips_gradless_params(self):
        x = Tensor([1.0], requires_grad=True)
        opt = Adam([x], lr=0.1)
        opt.step()
        np.testing.assert_array_equal(x.data, [1.0])
