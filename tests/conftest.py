import numpy as np
import pytest

from capgan.tensor import Tensor


def finite_difference(fn, params, eps=1e-5):
    """Central-difference gradient of scalar fn w.r.t. each parameter tensor.

    fn must be a pure function of the current parameter values.
    """
    grads = []
    for p in params:
        g = np.zeros_like(p.data)
        flat = p.data.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = fn()
            flat[i] = orig - eps
            lo = fn()
            flat[i] = orig
            gflat[i] = (hi - lo) / (2 * eps)
        grads.append(g)
    return grads


def assert_grads_close(params, fd_grads, rtol=1e-4):
    for p, fd in zip(params, fd_grads):
        got = p.grad if p.grad is not None else np.zeros_like(p.data)
        assert got.shape == fd.shape, f"gradient shape {got.shape}, operand {fd.shape}"
        denom = np.maximum(np.abs(fd), 1e-6)
        rel = np.abs(got - fd) / denom
        assert rel.max() < rtol, f"gradient mismatch: max rel err {rel.max():.3g}"


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def param(rng, *shape, scale=1.0):
    return Tensor(rng.standard_normal(shape) * scale, requires_grad=True)
