"""Tape mechanics: accumulation, broadcasting, graph reuse, RNG streams."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavepool.autodiff import Parameter, Tensor, make_rng, no_grad
from wavepool.errors import MissingGradient, ShapeMismatch


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
        assert t.shape == (1, 2) and t.ndim == 2 and t.size == 2
        assert Tensor(5.0).item() == 5.0

    def test_backward_requires_scalar(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ShapeMismatch):
            (a * 2.0).backward()

    def test_backward_with_seed(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        (a * 3.0).backward(np.array([1.0, 10.0]))
        assert np.allclose(a.grad, [3.0, 30.0])


class TestArithmeticGradients:
    def test_add_mul_chain(self):
        a = Tensor([2.0, 3.0], requires_grad=True)
        b = Tensor([4.0, 5.0], requires_grad=True)
        ((a + b) * a).sum().backward()
        # d/da (a^2 + ab) = 2a + b, d/db = a
        assert np.allclose(a.grad, [8.0, 11.0])
        assert np.allclose(b.grad, [2.0, 3.0])

    def test_reuse_accumulates(self):
        a = Tensor([3.0], requires_grad=True)
        (a * a * a).sum().backward()
        assert np.allclose(a.grad, [27.0])  # 3 a^2

    def test_diamond_graph(self):
        a = Tensor([1.0, -2.0], requires_grad=True)
        left = a * 2.0
        right = a * 3.0
        (left + right).sum().backward()
        assert np.allclose(a.grad, [5.0, 5.0])

    def test_sub_neg(self):
        a = Tensor([1.0], requires_grad=True)
        b = Tensor([4.0], requires_grad=True)
        (a - b).sum().backward()
        assert np.allclose(a.grad, [1.0]) and np.allclose(b.grad, [-1.0])

    def test_mean_reshape(self):
        a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        a.reshape(3, 2).mean().backward()
        assert np.allclose(a.grad, np.full((2, 3), 1 / 6))

    def test_broadcast_add_unbroadcasts(self):
        a = Tensor(np.ones((2, 3, 4)), requires_grad=True)
        b = Tensor(np.ones((1, 3, 1)), requires_grad=True)
        (a + b).sum().backward()
        assert a.grad.shape == (2, 3, 4) and np.all(a.grad == 1.0)
        assert b.grad.shape == (1, 3, 1) and np.all(b.grad == 8.0)

    def test_incompatible_add_rejected(self):
        with pytest.raises(ShapeMismatch):
            Tensor(np.ones((2, 3))) + Tensor(np.ones((4, 5)))

    def test_scalar_mul(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        (2.5 * a).sum().backward()
        assert np.allclose(a.grad, [2.5, 2.5])

    @given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=25, deadline=None)
    def test_sum_gradient_is_ones(self, n, seed):
        x = make_rng(seed).normal(size=n)
        t = Tensor(x, requires_grad=True)
        t.sum().backward()
        assert np.array_equal(t.grad, np.ones(n))


class TestGradMode:
    def test_no_grad_blocks_tape(self):
        a = Tensor([1.0], requires_grad=True)
        with no_grad():
            b = a * 2.0
        assert not b.requires_grad
        assert (a * 2.0).requires_grad

    def test_no_grad_restores_on_error(self):
        try:
            with no_grad():
                raise RuntimeError
        except RuntimeError:
            pass
        a = Tensor([1.0], requires_grad=True)
        assert (a * 2.0).requires_grad

    def test_leaf_grad_only(self):
        a = Tensor([1.0], requires_grad=True)
        mid = a * 2.0
        mid.sum().backward()
        assert mid.grad is None and a.grad is not None


class TestParameter:
    def test_momentum_buffer(self):
        p = Parameter(np.zeros((2, 2)))
        assert p.momentum.shape == (2, 2) and np.all(p.momentum == 0.0)
        assert p.requires_grad

    def test_missing_gradient(self):
        p = Parameter(np.ones(3))
        with pytest.raises(MissingGradient):
            p.materialized_grad()


class TestRng:
    def test_same_seed_same_stream(self):
        assert make_rng(7).normal(size=4).tolist() == make_rng(7).normal(size=4).tolist()

    def test_different_seeds_differ(self):
        assert make_rng(0).normal(size=4).tolist() != make_rng(1).normal(size=4).tolist()
