"""Tape mechanics: accumulation, graph reuse, grad mode, RNG streams."""

import numpy as np
import pytest

from wavepool.autodiff import Parameter, Tensor, make_rng, no_grad
from wavepool.errors import ShapeMismatch
from wavepool.ops import linear, relu


class TestTensorBasics:
    def test_float64_default(self):
        t = Tensor([1, 2, 3])
        assert t.data.dtype == np.float64

    def test_float32_input_stored_as_float64(self):
        x = np.array([0.1, 1.0, -3.5], dtype=np.float32)
        t = Tensor(x)
        assert t.data.dtype == np.float64
        assert np.array_equal(t.data, x.astype(np.float64))

    def test_item_and_shape(self):
        t = Tensor([[1.0, 2.0]])
        assert t.shape == (1, 2) and t.ndim == 2 and t.data.size == 2
        assert Tensor(5.0).item() == 5.0

    def test_repr_names_shape_and_grad(self):
        assert repr(Tensor(np.zeros((2, 3)), requires_grad=True)) == "Tensor(shape=(2, 3), grad)"
        assert repr(Tensor(1.0)) == "Tensor(shape=())"

    def test_backward_requires_scalar(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ShapeMismatch):
            (a + a).backward()

    def test_backward_with_seed(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        (a + a).backward(np.array([1.0, 10.0]))
        assert np.array_equal(a.grad, [2.0, 20.0])
        with pytest.raises(ShapeMismatch):
            (a + a).backward(np.ones(3))


W = np.array([[1.0, 2.0], [-3.0, 0.5]])
NO_BIAS = np.zeros(2)
SEED = np.array([[1.0, -2.0]])


class TestArithmeticGradients:
    def test_add_mul_chain(self):
        a = Tensor([[2.0, 3.0]], requires_grad=True)
        b = Tensor([[4.0, -5.0]], requires_grad=True)
        (linear(a + b, Tensor(W), Tensor(NO_BIAS)) + a).backward(SEED)
        # y = (a + b) W^T + a, so dy/da = g W + g and dy/db = g W
        assert np.allclose(a.grad, SEED @ W + SEED)
        assert np.allclose(b.grad, SEED @ W)

    def test_reuse_accumulates(self):
        a = Tensor([[3.0, -1.0]], requires_grad=True)
        (a + a + a).backward(SEED)
        assert np.array_equal(a.grad, 3 * SEED)

    def test_diamond_graph(self):
        a = Tensor([[1.0, -2.0]], requires_grad=True)
        left = relu(a)
        right = linear(a, Tensor(W), Tensor(NO_BIAS))
        (left + right).backward(SEED)
        assert np.allclose(a.grad, SEED * [1.0, 0.0] + SEED @ W)

    def test_scalar_mul(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        (a * 2.5).backward(np.array([1.0, -4.0]))
        assert np.array_equal(a.grad, [2.5, -10.0])
        with pytest.raises(TypeError):
            a * a

    def test_incompatible_add_rejected(self):
        with pytest.raises(ShapeMismatch):
            Tensor(np.ones((2, 3))) + Tensor(np.ones((4, 5)))
        with pytest.raises(ShapeMismatch):  # broadcastable, still rejected
            Tensor(np.ones((2, 3, 4))) + Tensor(np.ones((1, 3, 1)))


class TestGradMode:
    def test_no_grad_blocks_tape(self):
        a = Tensor([1.0], requires_grad=True)
        with no_grad():
            b = relu(a)
        assert not b.requires_grad
        assert relu(a).requires_grad

    def test_no_grad_restores_on_error(self):
        try:
            with no_grad():
                raise RuntimeError
        except RuntimeError:
            pass
        a = Tensor([1.0], requires_grad=True)
        assert (a + a).requires_grad

    def test_leaf_grad_only(self):
        a = Tensor([[1.0, 2.0]], requires_grad=True)
        mid = a + a
        relu(mid).backward(SEED)
        assert mid.grad is None and a.grad is not None


class TestParameter:
    def test_momentum_buffer(self):
        p = Parameter(np.zeros((2, 2)))
        assert p.momentum.shape == (2, 2) and np.all(p.momentum == 0.0)
        assert p.requires_grad


class TestRng:
    def test_same_seed_same_stream(self):
        assert make_rng(7).normal(size=4).tolist() == make_rng(7).normal(size=4).tolist()

    def test_different_seeds_differ(self):
        assert make_rng(0).normal(size=4).tolist() != make_rng(1).normal(size=4).tolist()
