"""Differentiable ops: finite-difference oracles and contract errors."""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _gradcheck import gradcheck
from wavepool import ops
from wavepool.autodiff import Tensor, make_rng, no_grad
from wavepool.errors import (
    InputTooShort,
    InvalidHyperparameter,
    OddLengthInput,
    ShapeMismatch,
)
from wavepool.ops import (
    batchnorm2d,
    conv2d,
    global_avg_pool,
    kd_loss,
    linear,
    relu,
    softmax_cross_entropy,
)


@pytest.fixture
def rng():
    return make_rng(1234)


class TestConv2dForward:
    def test_identity_kernel(self, rng):
        x = rng.normal(size=(2, 3, 6, 6))
        w = np.zeros((3, 3, 1, 1))
        for c in range(3):
            w[c, c, 0, 0] = 1.0
        out = conv2d(Tensor(x), Tensor(w), pad="same")
        assert np.allclose(out.data, x)

    def test_averaging_kernel_on_constant(self):
        x = np.full((1, 1, 4, 4), 5.0)
        w = np.full((1, 1, 3, 3), 1 / 9)
        out = conv2d(Tensor(x), Tensor(w), pad="circular")
        assert np.allclose(out.data, 5.0)

    def test_stride2_shape(self, rng):
        x = rng.normal(size=(1, 2, 8, 10))
        w = rng.normal(size=(4, 2, 3, 3))
        assert conv2d(Tensor(x), Tensor(w), stride=2, pad="same").shape == (1, 4, 4, 5)

    def test_circular_pad_wraps(self):
        # single row of zeros with one spike: circular neighbor sees it
        x = np.zeros((1, 1, 2, 4))
        x[0, 0, 0, 0] = 1.0
        w = np.zeros((1, 1, 1, 3))
        w[0, 0, 0, 0] = 1.0  # tap at offset -1
        out = conv2d(Tensor(x), Tensor(w), pad="circular")
        assert out.data[0, 0, 0, 1] == 1.0  # spike picked up from the left

    def test_bias_added(self, rng):
        x = rng.normal(size=(1, 1, 4, 4))
        w = np.zeros((2, 1, 1, 1))
        b = np.array([3.0, -1.0])
        out = conv2d(Tensor(x), Tensor(w), Tensor(b), pad="same")
        assert np.allclose(out.data[0, 0], 3.0) and np.allclose(out.data[0, 1], -1.0)

    def test_errors(self, rng):
        x = Tensor(rng.normal(size=(1, 2, 6, 6)))
        w = Tensor(rng.normal(size=(3, 2, 3, 3)))
        with pytest.raises(ShapeMismatch):
            conv2d(Tensor(rng.normal(size=(1, 5, 6, 6))), w, pad="same")
        with pytest.raises(InvalidHyperparameter):
            conv2d(x, w, stride=3, pad="same")
        for pad in ("reflect", "valid"):
            with pytest.raises(InvalidHyperparameter):
                conv2d(x, w, pad=pad)
        with pytest.raises(OddLengthInput):
            conv2d(Tensor(rng.normal(size=(1, 2, 5, 6))), w, stride=2, pad="same")
        with pytest.raises(InvalidHyperparameter):
            conv2d(x, Tensor(rng.normal(size=(3, 2, 2, 2))), pad="same")


class TestConv2dGradients:
    @pytest.mark.parametrize("pad", ["same", "circular"])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_fd_all_modes(self, rng, pad, stride):
        x = rng.normal(size=(2, 2, 6, 6))
        w = rng.normal(size=(3, 2, 3, 3))
        b = rng.normal(size=3)
        gradcheck(
            lambda xt, wt, bt: conv2d(xt, wt, bt, stride=stride, pad=pad),
            x, w, b, rng=rng,
        )

    @pytest.mark.parametrize(
        "k, stride, hw", [(3, 1, (5, 6)), (3, 2, (4, 6)), (5, 1, (3, 5)), (5, 2, (4, 2))]
    )
    def test_circular_adjoint_identity(self, rng, k, stride, hw):
        # 5x5 on 3 rows folds both padded strips onto the same core rows
        _check_adjoint(rng, (2, 2) + hw, (3, 2, k, k), stride, "circular")

    @given(
        pad=st.sampled_from(["same", "circular"]),
        stride=st.sampled_from([1, 2]),
        k=st.sampled_from([1, 3]),
        n=st.integers(1, 2),
        c=st.integers(1, 3),
        f=st.integers(1, 3),
        rows=st.integers(1, 8),
        cols=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_adjoint_identity_over_shapes(self, pad, stride, k, n, c, f, rows, cols, seed):
        if stride == 2:  # stride 2 needs even sides
            rows, cols = rows + rows % 2, cols + cols % 2
        _check_adjoint(make_rng(seed), (n, c, rows, cols), (f, c, k, k), stride, pad)

    def test_fd_1x1(self, rng):
        x = rng.normal(size=(2, 3, 4, 4))
        w = rng.normal(size=(2, 3, 1, 1))
        gradcheck(lambda xt, wt: conv2d(xt, wt, pad="same"), x, w, rng=rng)


def _reference_conv(x, w, stride, pad):
    """Tap-by-tap sum over the padded input: the definition conv2d's GEMMs
    must match up to rounding."""
    p = w.shape[-1] // 2
    mode = "wrap" if pad == "circular" else "constant"
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)), mode=mode)
    ho, wo = (xp.shape[2] - w.shape[2]) // stride + 1, (xp.shape[3] - w.shape[3]) // stride + 1
    out = np.zeros((x.shape[0], w.shape[0], ho, wo))
    for u in range(w.shape[2]):
        for v in range(w.shape[3]):
            window = xp[:, :, u:u + stride * ho:stride, v:v + stride * wo:stride]
            out += np.einsum("fc,nchw->nfhw", w[:, :, u, v], window)
    return out


def _check_adjoint(rng, x_shape, w_shape, stride, pad):
    """conv2d is linear in each argument, and one seeded backward gives both
    transposes: <conv(x2, w), g> = <x2, dx> and <conv(x, w2), g> = <w2, dw>.
    Unlike a sampled finite difference this covers every coordinate,
    including the wrapped or zero-padded edges.  The forward itself is
    compared with a tap-by-tap reference.

    The one-sided backward branches must agree with it bit for bit: with
    x frozen, then w frozen, the frozen side gets no gradient and the other
    side the same one; with a bias, db is the summed cotangent."""
    x = Tensor(rng.normal(size=x_shape), requires_grad=True)
    w = Tensor(rng.normal(size=w_shape), requires_grad=True)
    out = conv2d(x, w, stride=stride, pad=pad)
    assert np.allclose(out.data, _reference_conv(x.data, w.data, stride, pad), rtol=0, atol=1e-12)
    g = rng.normal(size=out.shape)
    out.backward(g)
    x2, w2 = rng.normal(size=x_shape), rng.normal(size=w_shape)
    x0, w0 = Tensor(x.data), Tensor(w.data)  # frozen operands
    for lhs_out, arg, grad in ((conv2d(Tensor(x2), w0, stride=stride, pad=pad), x2, x.grad),
                               (conv2d(x0, Tensor(w2), stride=stride, pad=pad), w2, w.grad)):
        lhs = float(np.sum(lhs_out.data * g))
        assert abs(lhs - float(np.sum(arg * grad))) <= 1e-12 * max(1.0, abs(lhs))

    for x_grad, w_grad in ((False, True), (True, False)):
        x1, w1 = Tensor(x.data, requires_grad=x_grad), Tensor(w.data, requires_grad=w_grad)
        conv2d(x1, w1, stride=stride, pad=pad).backward(g)
        for t, needed, full in ((x1, x_grad, x.grad), (w1, w_grad, w.grad)):
            assert np.array_equal(t.grad, full) if needed else t.grad is None
    x1, w1 = Tensor(x.data, requires_grad=True), Tensor(w.data, requires_grad=True)
    b = Tensor(rng.normal(size=w_shape[0]), requires_grad=True)
    conv2d(x1, w1, b, stride=stride, pad=pad).backward(g)
    assert np.array_equal(b.grad, g.sum(axis=(0, 2, 3)))
    assert np.array_equal(x1.grad, x.grad) and np.array_equal(w1.grad, w.grad)


@pytest.mark.parametrize("pad", ["same", "circular"])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("k", [1, 3])
def test_conv_keeps_only_output_and_padded_input(rng, k, stride, pad):
    """Between forward and backward a conv keeps its output and, for k > 1,
    the padded input.  The column matrix (k*k input copies) is rebuilt in
    backward, and a 1x1 conv keeps no copy of its input at all.  One
    identical conv runs first, so that the scratch table has grown to this
    shape before the measured window."""
    n, c, h, wd, f = 50, 16, 8, 8, 8
    x = Tensor(rng.normal(size=(n, c, h, wd)), requires_grad=True)
    w = Tensor(rng.normal(size=(f, c, k, k)), requires_grad=True)
    warm = conv2d(x, w, stride=stride, pad=pad)
    warm.backward(np.ones(warm.shape))
    del warm
    xp_nbytes = 0 if k == 1 else n * c * (h + k - 1) * (wd + k - 1) * x.data.itemsize
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = conv2d(x, w, stride=stride, pad=pad)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept <= out.data.nbytes + xp_nbytes + 64 * 1024


def _unrecorded_conv_peak(x, w, stride):
    """tracemalloc peak of one conv under no_grad, above what was live
    before it, and its output."""
    with no_grad():
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = conv2d(x, w, stride=stride, pad="same")
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
    return peak, out


@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("k", [1, 3])
def test_unrecorded_conv_peak_is_columns_input_and_output(rng, k, stride):
    """Under no_grad a conv's peak is its padded input, the column matrix,
    the product and its output; a 1x1 stride-1 conv builds no columns."""
    n, c, h, wd, f = 50, 16, 8, 8, 8
    x = Tensor(rng.normal(size=(n, c, h, wd)), requires_grad=True)
    w = Tensor(rng.normal(size=(f, c, k, k)), requires_grad=True)
    m = n * (h // stride) * (wd // stride)
    xp_nbytes = 0 if k == 1 else n * c * (h + k - 1) * (wd + k - 1) * 8
    gemm_nbytes = 0 if k == stride == 1 else (c * k * k + f) * m * 8
    peak, out = _unrecorded_conv_peak(x, w, stride)
    assert peak <= xp_nbytes + gemm_nbytes + out.data.nbytes + 64 * 1024


def test_pointwise_conv_builds_no_column_view(rng, monkeypatch):
    """A 1x1 stride-1 conv reads no column matrix: its forward, and its
    backward with the weight frozen, run without a sliding-window view."""
    def no_view(*args, **kwargs):
        raise AssertionError("column view built")

    monkeypatch.setattr(ops, "sliding_window_view", no_view)
    x = Tensor(rng.normal(size=(2, 3, 4, 4)), requires_grad=True)
    w = Tensor(rng.normal(size=(5, 3, 1, 1)))
    with no_grad():
        assert conv2d(x, w, pad="same").shape == (2, 5, 4, 4)
    conv2d(x, w, pad="circular").backward(rng.normal(size=(2, 5, 4, 4)))
    assert x.grad.shape == x.shape and w.grad is None


def test_scratch_holds_only_the_largest_site(rng, monkeypatch):
    """Recorded convs of several shapes leave at most the column matrix and
    transposed cotangent of the largest one in the scratch table; a conv
    under no_grad leaves the table's buffers, sizes and contents as they
    were."""
    monkeypatch.setattr(ops, "_scratch", {})
    largest = 0
    for n, c, hw, f, k, stride in [(4, 3, 16, 8, 3, 1), (6, 8, 12, 16, 3, 2),
                                   (5, 16, 8, 4, 1, 1), (2, 4, 10, 6, 1, 2)]:
        x = Tensor(rng.normal(size=(n, c, hw, hw)), requires_grad=True)
        w = Tensor(rng.normal(size=(f, c, k, k)), requires_grad=True)
        out = conv2d(x, w, stride=stride, pad="circular")
        out.backward(rng.normal(size=out.shape))
        m = n * (hw // stride) ** 2
        largest = max(largest, (c * k * k * m + f * m) * 8)
    assert 0 < sum(buf.nbytes for buf in ops._scratch.values()) <= largest

    before = {slot: (buf, buf.size, buf.copy()) for slot, buf in ops._scratch.items()}
    with no_grad():
        conv2d(Tensor(rng.normal(size=(8, 16, 20, 20)), requires_grad=True),
               Tensor(rng.normal(size=(16, 16, 3, 3)), requires_grad=True), pad="same")
    assert ops._scratch.keys() == before.keys()
    for slot, (buf, size, contents) in before.items():
        assert ops._scratch[slot] is buf and buf.size == size
        assert buf.tobytes() == contents.tobytes()


def _signed_zeros(rng, shape):
    """Normal samples with about a third of the entries -0.0, as a
    ReLU-masked gradient carries them."""
    g = rng.normal(size=shape)
    g[rng.random(shape) < 1 / 3] = -0.0
    return g


@pytest.mark.parametrize("pad", ["same", "circular"])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("k", [1, 3])
def test_conv_matches_per_call_kernels_byte_for_byte(rng, k, stride, pad):
    """conv2d's scratch buffers and channel-major fold change no byte: the
    output, dw and dx equal a fresh column matrix's GEMMs and a tap-by-tap
    NCHW scatter-and-fold of dcols."""
    n, c, h, wd, f = 3, 4, 6, 8, 5
    x = Tensor(_signed_zeros(rng, (n, c, h, wd)), requires_grad=True)
    w = Tensor(rng.normal(size=(f, c, k, k)), requires_grad=True)
    out = conv2d(x, w, stride=stride, pad=pad)
    g = _signed_zeros(rng, out.shape)
    out.backward(g)

    p = k // 2
    mode = "wrap" if pad == "circular" else "constant"
    xp = np.pad(x.data, ((0, 0), (0, 0), (p, p), (p, p)), mode=mode)
    ho, wo = out.shape[2:]
    sn, sc, sh, sw = xp.strides
    cols = np.lib.stride_tricks.as_strided(
        xp, (c, k, k, n, ho, wo), (sc, sh, sw, sn, sh * stride, sw * stride)
    ).reshape(c * k * k, n * ho * wo)
    w2 = w.data.reshape(f, -1)
    g2 = g.transpose(1, 0, 2, 3).reshape(f, -1)
    dw = (g2 @ cols.T).reshape(w.shape)
    if k == stride == 1:
        ref_out = (w2 @ x.data.reshape(n, c, h * wd)).reshape(out.shape)
        dx = (w2.T @ g.reshape(n, f, h * wd)).reshape(x.shape)
    else:
        ref_out = (w2 @ cols).reshape(f, n, ho, wo).transpose(1, 0, 2, 3)
        dcols = (w2.T @ g2).reshape(c, k, k, n, ho, wo)
        dxp = np.zeros_like(xp)
        for u in range(k):
            for v in range(k):
                dxp[:, :, u:u + stride * ho:stride, v:v + stride * wo:stride] += (
                    dcols[:, u, v].transpose(1, 0, 2, 3))
        if pad == "circular" and p:
            dxp[:, :, h:h + p] += dxp[:, :, :p]
            dxp[:, :, p:2 * p] += dxp[:, :, h + p:]
            dxp[:, :, :, wd:wd + p] += dxp[:, :, :, :p]
            dxp[:, :, :, p:2 * p] += dxp[:, :, :, wd + p:]
        dx = dxp[:, :, p:p + h, p:p + wd]
    for got, want in ((out.data, ref_out), (w.grad, dw), (x.grad, dx)):
        assert got.shape == want.shape
        assert got.tobytes() == np.ascontiguousarray(want).tobytes()


@pytest.mark.parametrize("pad", ["same", "circular"])
@pytest.mark.parametrize("c,f", [(3, 16), (16, 16), (32, 32), (64, 64)])
def test_forward_matches_one_gemm_byte_for_byte(rng, c, f, pad):
    """The forward, recorded and under no_grad, equals one GEMM over the
    whole column matrix, over sides 2-48 (Ho*Wo = 9, 25, 36 and 100 among
    them), batches 1-200 and both strides."""
    for side in (2, 3, 5, 6, 10, 12, 20, 32, 48):
        for n in (1, 13, 50, 200):
            for stride in (1, 2):
                ho = (side - 1) // stride + 1
                k = c * 9
                if stride == 2 and side % 2 or k * n * ho * ho * 8 > 48 << 20:
                    continue
                x = rng.normal(size=(n, c, side, side))
                w = rng.normal(size=(f, c, 3, 3))
                mode = "wrap" if pad == "circular" else "constant"
                xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)), mode=mode)
                sn, sc, sh, sw = xp.strides
                cols = np.lib.stride_tricks.as_strided(
                    xp, (c, 3, 3, n, ho, ho), (sc, sh, sw, sn, sh * stride, sw * stride)
                ).reshape(k, n * ho * ho)
                want = (w.reshape(f, k) @ cols).reshape(f, n, ho, ho).transpose(1, 0, 2, 3)
                want = np.ascontiguousarray(want).tobytes()
                got = conv2d(Tensor(x, requires_grad=True), Tensor(w), stride=stride, pad=pad)
                assert got.data.tobytes() == want, (side, n, stride)
                with no_grad():
                    got = conv2d(Tensor(x), Tensor(w), stride=stride, pad=pad)
                assert got.data.tobytes() == want, (side, n, stride)


class TestBatchNorm:
    def test_train_normalizes(self, rng):
        x = rng.normal(loc=3.0, scale=2.0, size=(8, 4, 5, 5))
        gamma, beta = np.ones(4), np.zeros(4)
        rm, rv = np.zeros(4), np.ones(4)
        out = batchnorm2d(Tensor(x), Tensor(gamma), Tensor(beta), rm, rv, training=True)
        assert np.allclose(out.data.mean(axis=(0, 2, 3)), 0.0, atol=1e-10)
        assert np.allclose(out.data.std(axis=(0, 2, 3)), 1.0, atol=1e-3)

    def test_running_stats_update(self, rng):
        x = rng.normal(loc=1.0, size=(16, 2, 4, 4))
        rm, rv = np.zeros(2), np.ones(2)
        batchnorm2d(Tensor(x), Tensor(np.ones(2)), Tensor(np.zeros(2)), rm, rv, training=True)
        n = 16 * 4 * 4
        mean = x.mean(axis=(0, 2, 3))
        var_unbiased = x.var(axis=(0, 2, 3)) * n / (n - 1)
        assert np.allclose(rm, 0.9 * 0.0 + 0.1 * mean)
        assert np.allclose(rv, 0.9 * 1.0 + 0.1 * var_unbiased)

    def test_eval_uses_running(self, rng):
        x = rng.normal(size=(2, 3, 4, 4))
        rm, rv = np.full(3, 2.0), np.full(3, 4.0)
        out = batchnorm2d(Tensor(x), Tensor(np.ones(3)), Tensor(np.zeros(3)), rm, rv,
                          training=False)
        expected = (x - 2.0) / np.sqrt(4.0 + 1e-5)
        assert np.allclose(out.data, expected)
        assert np.all(rm == 2.0) and np.all(rv == 4.0)  # eval never mutates

    @pytest.mark.parametrize(
        "shape", [(50, 16, 32, 32), (50, 64, 8, 8), (50, 256, 4, 4), (3, 5, 7, 9), (1, 2, 1, 1)]
    )
    def test_train_mode_rounds_as_two_pass_formula(self, rng, shape):
        # batchnorm2d centres x once for both the variance and xhat; that
        # must round exactly as ndarray.var followed by (x - mu) * inv
        x = rng.normal(loc=0.5, scale=2.0, size=shape)
        c = shape[1]
        gamma, beta = rng.normal(size=c), rng.normal(size=c)
        rm, rv = rng.normal(size=c), rng.uniform(0.5, 2.0, size=c)
        rv_expected = rv.copy()
        out = batchnorm2d(Tensor(x), Tensor(gamma), Tensor(beta), rm, rv, training=True)
        mu, var = x.mean(axis=(0, 2, 3)), x.var(axis=(0, 2, 3))
        n = x.size // c
        rv_expected *= 0.9
        rv_expected += 0.1 * (var * (n / (n - 1)) if n > 1 else var)
        inv = 1.0 / np.sqrt(var + 1e-5)
        xhat = (x - mu[None, :, None, None]) * inv[None, :, None, None]
        expected = gamma[None, :, None, None] * xhat + beta[None, :, None, None]
        assert out.data.tobytes() == expected.tobytes()
        assert np.array_equal(rv, rv_expected)

    @pytest.mark.parametrize("shape", [(50, 16, 32, 32), (3, 5, 7, 9)])
    def test_eval_mode_rounds_as_affine_formula(self, rng, shape):
        c = shape[1]
        x = _signed_zeros(rng, shape)
        gamma, beta = _signed_zeros(rng, c), _signed_zeros(rng, c)
        rm, rv = rng.normal(size=c), rng.uniform(0.5, 2.0, size=c)
        out = batchnorm2d(Tensor(x), Tensor(gamma), Tensor(beta), rm, rv, training=False)
        xhat = (x - rm[None, :, None, None]) * (1.0 / np.sqrt(rv + 1e-5))[None, :, None, None]
        expected = gamma[None, :, None, None] * xhat + beta[None, :, None, None]
        assert out.data.tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "shape", [(50, 16, 32, 32), (50, 64, 8, 8), (3, 5, 7, 9), (1, 2, 1, 1)]
    )
    def test_train_backward_rounds_as_textbook_formula(self, rng, shape):
        # the in-place backward must round exactly as
        # (inv / n) * (n * dxhat - s1 - xhat * s2)
        x = rng.normal(loc=0.5, scale=2.0, size=shape)
        c = shape[1]
        gamma = rng.normal(size=c)
        g = rng.normal(size=shape)
        xt = Tensor(x, requires_grad=True)
        batchnorm2d(xt, Tensor(gamma), Tensor(np.zeros(c)), np.zeros(c), np.ones(c),
                    training=True).backward(g)
        n = x.size // c
        inv = (1.0 / np.sqrt(x.var(axis=(0, 2, 3)) + 1e-5))[None, :, None, None]
        xhat = (x - x.mean(axis=(0, 2, 3))[None, :, None, None]) * inv
        dxhat = g * gamma[None, :, None, None]
        s1 = dxhat.sum(axis=(0, 2, 3), keepdims=True)
        s2 = (dxhat * xhat).sum(axis=(0, 2, 3), keepdims=True)
        assert np.array_equal(xt.grad, (inv / n) * (n * dxhat - s1 - xhat * s2))

    @pytest.mark.parametrize("training", [True, False])
    def test_unrecorded_output_does_not_alias_its_input(self, rng, training):
        # under no_grad the output overwrites batchnorm's own xhat, never x
        x = rng.normal(size=(4, 3, 5, 5))
        xt = Tensor(x.copy(), requires_grad=True)
        with no_grad():
            out = batchnorm2d(xt, Tensor(np.ones(3)), Tensor(np.zeros(3)), np.zeros(3),
                              np.ones(3), training=training)
        assert not np.shares_memory(out.data, xt.data)
        assert xt.data.tobytes() == x.tobytes()

    @pytest.mark.parametrize("training", [True, False])
    def test_fd_gradients(self, rng, training):
        x = rng.normal(size=(4, 3, 4, 4))
        gamma = rng.normal(size=3) + 1.5
        beta = rng.normal(size=3)
        rm, rv = rng.normal(size=3), rng.uniform(0.5, 2.0, size=3)
        # gradcheck's random cotangent matters here: a squared objective
        # would be exactly constant in x under train-mode normalization
        # (sum(xhat) = 0 and sum(xhat^2) fixed per channel), leaving
        # nothing for FD to measure.

        def f(xt, gt, bt):
            return batchnorm2d(xt, gt, bt, rm.copy(), rv.copy(), training=training)

        gradcheck(f, x, gamma, beta, rng=rng)


class TestPointwiseAndHead:
    def test_relu_values(self):
        out = relu(Tensor([-2.0, 0.0, 3.0]))
        assert np.array_equal(out.data, [0.0, 0.0, 3.0])

    def test_relu_matches_where_on_special_values(self):
        # short arrays and the tails of long ones take fmax's scalar path,
        # which keeps -0.0
        tiny = np.nextafter(0.0, 1.0)
        values = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, tiny, -tiny,
                  2.2e-308, -2.2e-308, 1.5, -1.5]
        for x in [np.tile(values, 3)] + [np.array([v]) for v in values]:
            xt = Tensor(x, requires_grad=True)
            out = relu(xt)
            assert out.data.tobytes() == np.where(x > 0, x, 0.0).tobytes()
            g = np.resize([1.0, -0.0, 2.0, np.nan, -3.0, 4.0, -0.0, 5.0, 6.0, -7.0, np.inf],
                          x.shape)
            with np.errstate(invalid="ignore"):  # inf * 0 is NaN in the reference too
                out.backward(g)
                assert xt.grad.tobytes() == (g * np.where(x > 0, 1.0, 0.0)).tobytes()

    def test_relu_composition_fd(self, rng):
        x = rng.normal(size=(3, 4)) + 0.05  # keep away from the kink
        w = rng.normal(size=(2, 4))
        b = rng.normal(size=2)
        gradcheck(
            lambda xt, wt, bt: relu(linear(relu(xt), wt, bt)),
            x, w, b, rng=rng,
        )

    def test_linear_matches_matmul(self, rng):
        x = rng.normal(size=(5, 3))
        w = rng.normal(size=(4, 3))
        b = rng.normal(size=4)
        out = linear(Tensor(x), Tensor(w), Tensor(b))
        assert np.allclose(out.data, x @ w.T + b)

    def test_linear_shape_errors(self, rng):
        with pytest.raises(ShapeMismatch):
            linear(Tensor(rng.normal(size=(5, 3))), Tensor(rng.normal(size=(4, 7))),
                   Tensor(rng.normal(size=4)))
        with pytest.raises(ShapeMismatch):
            linear(Tensor(rng.normal(size=(5, 3))), Tensor(rng.normal(size=(4, 3))),
                   Tensor(rng.normal(size=3)))

    def test_global_avg_pool(self, rng):
        x = rng.normal(size=(2, 3, 4, 6))
        out = global_avg_pool(Tensor(x))
        assert out.shape == (2, 3)
        assert np.allclose(out.data, x.mean(axis=(2, 3)))
        gradcheck(global_avg_pool, x, rng=rng)


class TestCrossEntropy:
    def test_uniform_logits(self):
        loss = softmax_cross_entropy(Tensor(np.zeros((4, 10))), np.arange(4))
        assert abs(loss.item() - np.log(10)) < 1e-12

    def test_matches_manual(self, rng):
        z = rng.normal(size=(6, 5))
        y = rng.integers(0, 5, size=6)
        loss = softmax_cross_entropy(Tensor(z), y)
        p = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
        manual = -np.log(p[np.arange(6), y]).mean()
        assert abs(loss.item() - manual) < 1e-12

    def test_fd_gradient(self, rng):
        z = rng.normal(size=(5, 7))
        y = rng.integers(0, 7, size=5)
        gradcheck(lambda t: softmax_cross_entropy(t, y), z, rng=rng)

    def test_label_validation(self, rng):
        z = Tensor(rng.normal(size=(3, 4)))
        with pytest.raises(ShapeMismatch):
            softmax_cross_entropy(z, np.array([0, 1]))
        with pytest.raises(ShapeMismatch):
            softmax_cross_entropy(z, np.array([0, 1, 4]))


class TestKdLoss:
    def test_pure_hard_is_cross_entropy(self, rng):
        z = rng.normal(size=(4, 6))
        t = rng.normal(size=(4, 6))
        y = rng.integers(0, 6, size=4)
        kd = kd_loss(Tensor(z), t, y, temperature=4.0, mix=1.0)
        ce = softmax_cross_entropy(Tensor(z), y)
        assert abs(kd.item() - ce.item()) < 1e-12

    def test_teacher_equals_student_soft_term_zero(self, rng):
        z = rng.normal(size=(4, 6))
        y = rng.integers(0, 6, size=4)
        kd = kd_loss(Tensor(z), z.copy(), y, temperature=2.0, mix=0.0)
        assert abs(kd.item()) < 1e-12

    def test_fd_gradient(self, rng):
        z = rng.normal(size=(5, 8))
        t = rng.normal(size=(5, 8))
        y = rng.integers(0, 8, size=5)
        gradcheck(lambda s: kd_loss(s, t, y, temperature=3.0, mix=0.3), z, rng=rng)

    def test_teacher_gets_no_gradient(self, rng):
        t = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        s = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        kd_loss(s, t, np.array([0, 1]), temperature=2.0, mix=0.5).backward()
        assert s.grad is not None and t.grad is None

    def test_hyperparameter_validation(self, rng):
        z = Tensor(rng.normal(size=(2, 3)))
        t = rng.normal(size=(2, 3))
        y = np.array([0, 1])
        with pytest.raises(InvalidHyperparameter):
            kd_loss(z, t, y, temperature=0.0)
        with pytest.raises(InvalidHyperparameter):
            kd_loss(z, t, y, temperature=-1.0)
        with pytest.raises(InvalidHyperparameter):
            kd_loss(z, t, y, mix=1.5)
        with pytest.raises(InvalidHyperparameter):
            kd_loss(z, t, y, mix=-0.1)


def _zeros(*shape):
    return Tensor(np.zeros(shape))


@pytest.mark.parametrize("call, error, fragment", [
    pytest.param(lambda: conv2d(_zeros(2, 3, 4), _zeros(1, 2, 3, 1, 1), pad="same"),
                 ShapeMismatch, "conv2d: need 4D input/weight", id="conv2d-not-4d"),
    pytest.param(lambda: conv2d(_zeros(1, 1, 1, 8), _zeros(1, 1, 5, 5), pad="circular"),
                 InputTooShort, "circular pad 2x2 exceeds input 1x8", id="conv2d-circular-pad"),
    pytest.param(lambda: conv2d(_zeros(1, 1, 0, 4), _zeros(1, 1, 1, 1), pad="same"),
                 InputTooShort, "padded input 0x4 smaller than kernel 1x1", id="conv2d-empty-axis"),
    pytest.param(lambda: batchnorm2d(_zeros(4, 3), _zeros(3), _zeros(3), np.zeros(3), np.ones(3),
                                     training=True),
                 ShapeMismatch, "batchnorm2d: need 4D input", id="batchnorm2d-not-4d"),
    pytest.param(lambda: batchnorm2d(_zeros(2, 3, 2, 2), _zeros(3), _zeros(3), np.zeros(3),
                                     np.ones(4), training=False),
                 ShapeMismatch, "running_var shape (4,) != (3,)", id="batchnorm2d-param-shape"),
    pytest.param(lambda: global_avg_pool(_zeros(2, 3)),
                 ShapeMismatch, "global_avg_pool: need 4D input", id="global_avg_pool-not-4d"),
    pytest.param(lambda: softmax_cross_entropy(_zeros(3), np.array([0])),
                 ShapeMismatch, "need (batch, classes) logits", id="cross_entropy-not-2d"),
    pytest.param(lambda: kd_loss(_zeros(2, 3), np.zeros((2, 4)), np.array([0, 1])),
                 ShapeMismatch, "teacher logits (2, 4) != student (2, 3)", id="kd_loss-teacher"),
])
def test_contract_errors(call, error, fragment):
    with pytest.raises(error, match=re.escape(fragment)):
        call()


class TestCircularConvEquivariance:
    def test_shift_commutes_exactly(self, rng):
        x = rng.normal(size=(1, 2, 8, 8))
        w = rng.normal(size=(3, 2, 3, 3))
        with no_grad():
            base = conv2d(Tensor(x), Tensor(w), pad="circular").data
            shifted = conv2d(Tensor(np.roll(x, (2, 5), axis=(2, 3))), Tensor(w),
                             pad="circular").data
        assert np.allclose(np.roll(base, (2, 5), axis=(2, 3)), shifted, atol=1e-12)
