"""Tape mechanics: accumulation, graph reuse, grad mode, what the tape
keeps, the tracer's hooks, RNG streams."""

import weakref

import numpy as np
import pytest

from wavepool import autodiff, backbone, ops, pooling
from wavepool.autodiff import Parameter, Tensor, make_rng, no_grad
from wavepool.backbone import Network, micro_schedule
from wavepool.errors import ShapeMismatch
from wavepool.ops import PAD_MODES, batchnorm2d, conv2d, linear, relu, softmax_cross_entropy
from wavepool.pooling import parse_pool


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


def _bn(training):
    return lambda x: batchnorm2d(x, Parameter(np.ones(3)), Parameter(np.zeros(3)),
                                 np.zeros(3), np.ones(3), training)


def _conv(k, stride, pad):
    w = Parameter(make_rng(1).normal(size=(4, 3, k, k)))
    return lambda x: conv2d(x, w, stride=stride, pad=pad)


IMAGES = (2, 3, 8, 8)
# op -> (op, input shape) for the ops whose backward reads nothing of their
# input Tensor
FREES_INPUT = {
    "batchnorm2d-train": (_bn(True), IMAGES),
    "batchnorm2d-eval": (_bn(False), IMAGES),
    "relu": (relu, IMAGES),
    "residual-add": (lambda x: x + x, IMAGES),
    "input-normalization": (
        lambda x: backbone._Normalize((0.5,) * 3, (0.25,) * 3, 3)(x, True), IMAGES),
    **{f"pool-{kind}": (parse_pool(kind).op(), IMAGES)
       for kind in ("max", "avg", "strided", "blur:1-2-1", "wavelet:haar", "wavelet:db4")},
    **{f"conv3x3-stride{stride}-{pad}": (_conv(3, stride, pad), IMAGES)
       for stride in (1, 2) for pad in PAD_MODES},
}
# and those whose dw reads it
KEEPS_INPUT = {
    "conv1x1-stride1": (_conv(1, 1, "circular"), IMAGES),
    "conv1x1-stride2": (_conv(1, 2, "circular"), IMAGES),
    "linear": (lambda x: linear(x, Parameter(np.ones((4, 3))), Parameter(np.zeros(4))), (2, 3)),
}


def _frees_input(op, shape) -> bool:
    """Whether ``op`` on a recorded input lets the input's array go once
    the caller drops the input; its backward still runs."""
    leaf = Tensor(make_rng(0).normal(size=shape), requires_grad=True)
    x = leaf + leaf
    data = weakref.ref(x.data)
    out = op(x)
    del x
    freed = data() is None
    out.backward(np.ones(out.shape))
    assert leaf.grad is not None
    return freed


class TestWhatTheTapeKeeps:
    """A node holds its parents' nodes, never their arrays: an op output
    lives only while a caller or a backward closure holds it."""

    @pytest.mark.parametrize("name", sorted(FREES_INPUT))
    def test_op_frees_its_input(self, name):
        assert _frees_input(*FREES_INPUT[name])

    @pytest.mark.parametrize("name", sorted(KEEPS_INPUT))
    def test_op_keeps_the_input_its_weight_gradient_reads(self, name):
        assert not _frees_input(*KEEPS_INPUT[name])


def _tape_nodes(root) -> int:
    """The walk ``perfbench``'s tracer makes: everything reached through
    ``_parents`` that has a ``_backward``."""
    seen, stack, nodes = set(), [root], 0
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        nodes += t._backward is not None
        stack.extend(t._parents)
    return nodes


class TestTracerHooks:
    """What a tracer that wraps the ops relies on: an op output's
    ``_backward`` can be read and replaced, and ``_parents`` walks the tape."""

    def test_assigned_backward_runs_in_the_sweep(self):
        a = Tensor([[1.0, -2.0]], requires_grad=True)
        out = relu(a)
        inner, seen = out._backward, []
        out._backward = lambda g: seen.append(g) or inner(2.0 * g)
        out.backward(SEED)
        assert len(seen) == 1 and np.array_equal(seen[0], SEED)
        assert np.array_equal(a.grad, 2.0 * SEED * [1.0, 0.0])

    def test_parent_walk_counts_every_recorded_op(self, monkeypatch):
        """78 nodes on a micro haar/c training step: the count perfbench's
        baseline records as ``autodiff.tape_nodes`` on ``train_haar``."""
        recorded, make_op = [], autodiff.make_op

        def counting(*args):
            out = make_op(*args)
            recorded.append(out.requires_grad)
            return out

        for module in (autodiff, backbone, ops, pooling):
            monkeypatch.setattr(module, "make_op", counting)
        model = Network(micro_schedule(), parse_pool("wavelet:haar"), "c", num_classes=4,
                        seed=3, input_mean=(0.5,) * 3, input_std=(0.25,) * 3)
        x = make_rng(5).uniform(size=(2, 3, 16, 16))
        loss = softmax_cross_entropy(model(x, training=True), np.arange(2))
        assert _tape_nodes(loss) == sum(recorded) == 78

    def test_grad_lands_on_leaves_only(self):
        a = Tensor([[1.0, -2.0]], requires_grad=True)
        w, b = Parameter(W), Parameter(NO_BIAS)
        c = Tensor([[0.5, 0.5]])
        mid = linear(a + c, w, b)
        top = relu(mid)
        out = top + mid
        out.backward(SEED)
        assert all(t.grad is not None for t in (a, w, b))
        assert all(t.grad is None for t in (c, mid, top, out))
        leaves, stack = set(), [out]
        while stack:
            t = stack.pop()
            if t._backward is None:
                leaves.add(id(t))
            stack.extend(t._parents)
        assert leaves == {id(t) for t in (a, c, w, b)}


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
