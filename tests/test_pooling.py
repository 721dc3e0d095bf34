"""Down-sampling operators: values, adjoints, gradients, and config parsing."""

import numpy as np
import pytest

from _gradcheck import gradcheck
from wavepool import pooling
from wavepool.autodiff import Tensor, make_rng
from wavepool.backbone import Block, Network, StageSchedule, _run, micro_schedule
from wavepool.errors import (
    InputTooShort,
    InvalidHyperparameter,
    OddLengthInput,
    ShapeMismatch,
)
from wavepool.filterbank import parse_wavelet, supported_wavelets
from wavepool.ops import conv2d
from wavepool.pooling import (
    DEFAULT_BLUR_KERNEL,
    PoolKind,
    avg_pool2,
    blur_pool,
    max_pool2,
    parse_pool,
    subsample2,
    wavelet_pool,
)
from wavepool.transforms import dwt2d, reconstruct_lowpass

WAVELET_NAMES = ["haar", "db2", "db4", "ch3.3", "ch5.5"]
LINEAR_POOLS = ["avg", "strided", "blur:1-2-1", "blur:1-4-6-4-1"] + [
    f"wavelet:{name}" for name in WAVELET_NAMES]
ALL_POOLS = ["max"] + LINEAR_POOLS


def pool_params(texts):
    """Parsed pool kinds, each wavelet one named by its wavelet alone."""
    return [pytest.param(parse_pool(t), id=t.removeprefix("wavelet:")) for t in texts]


@pytest.fixture
def rng():
    return make_rng(7)


def checkerboard(h, w):
    i, j = np.indices((h, w))
    return ((-1.0) ** (i + j)).reshape(1, 1, h, w)


class TestPoolKind:
    def test_blur_kernel_must_be_odd_length(self):
        with pytest.raises(InvalidHyperparameter):
            PoolKind("blur", blur_kernel=(0.5, 0.5))

    def test_blur_kernel_must_be_nonnegative(self):
        with pytest.raises(InvalidHyperparameter):
            PoolKind("blur", blur_kernel=(-0.5, 2.0, -0.5))

    def test_blur_kernel_must_sum_to_one(self):
        with pytest.raises(InvalidHyperparameter):
            PoolKind("blur", blur_kernel=(0.3, 0.3, 0.3))

    @pytest.mark.parametrize("kernel", [(np.nan, 0.5, 0.5), (0.0, 1.0, np.nan)])
    def test_blur_kernel_must_be_finite(self, kernel):
        with pytest.raises(InvalidHyperparameter):
            PoolKind("blur", blur_kernel=kernel)

    def test_blur_kernel_rejected_on_other_families(self):
        with pytest.raises(InvalidHyperparameter):
            PoolKind("max", blur_kernel=(0.25, 0.5, 0.25))

    def test_wavelet_spec_required_iff_wavelet_family(self):
        with pytest.raises(InvalidHyperparameter):
            PoolKind("wavelet")
        with pytest.raises(InvalidHyperparameter):
            PoolKind("avg", wavelet=parse_wavelet("haar"))

    @pytest.mark.parametrize("family", ["median", "MAX", "", "blur:1-2-1"])
    def test_unknown_family_rejected(self, family):
        with pytest.raises(InvalidHyperparameter):
            PoolKind(family)

    @pytest.mark.parametrize(
        "text",
        ["max", "avg", "strided", "blur:1-2-1", "blur:1-4-6-4-1", "blur:1-2.5-1",
         "wavelet:haar", "wavelet:db4", "wavelet:ch3.3"],
    )
    def test_parse_config_string_round_trip(self, text):
        kind = parse_pool(text)
        assert parse_pool(kind.config_string()) == kind

    def test_parse_blur_normalizes_weights(self):
        kind = parse_pool("blur:1-2-1")
        assert kind.blur_kernel == pytest.approx((0.25, 0.5, 0.25))

    def test_parse_bare_blur_uses_default_kernel(self):
        assert parse_pool("blur").blur_kernel == DEFAULT_BLUR_KERNEL

    @pytest.mark.parametrize(
        "text",
        ["median", "wavelet:", "max:3", "blur:a-b", "blur:0-0", "blur:nan-1-1", "blur:1-nan-1",
         "blur:inf-1-1"],
    )
    def test_parse_rejects_malformed(self, text):
        with pytest.raises(InvalidHyperparameter):
            parse_pool(text)


class TestWaveletPool:
    def test_ones_haar_gives_twos(self):
        x = np.ones((1, 1, 4, 4))
        out = wavelet_pool(Tensor(x), parse_wavelet("haar"))
        assert out.shape == (1, 1, 2, 2)
        assert np.allclose(out.data, 2.0, atol=1e-12)

    def test_checkerboard_haar_gives_zeros(self):
        out = wavelet_pool(Tensor(checkerboard(8, 8)), parse_wavelet("haar"))
        assert np.max(np.abs(out.data)) <= 1e-12

    @pytest.mark.parametrize("name", supported_wavelets())
    def test_matches_dwt2d_ll_subband(self, rng, name):
        # both run the same width-then-height analysis, so the bytes agree
        spec = parse_wavelet(name)
        x = rng.normal(size=(2, 3, 16, 16))
        out = wavelet_pool(Tensor(x), spec)
        for n in range(2):
            for c in range(3):
                assert out.data[n, c].tobytes() == dwt2d(x[n, c], spec).ll.tobytes()

    @pytest.mark.parametrize("kind", pool_params(LINEAR_POOLS))
    def test_adjoint_identity(self, rng, kind):
        # <pool(x), g> == <x, backward(g)> pins the backward pass exactly;
        # max is nonlinear and has no adjoint
        x = Tensor(rng.normal(size=(1, 2, 16, 16)), requires_grad=True)
        g = rng.normal(size=(1, 2, 8, 8))
        out = kind.op()(x)
        out.backward(g)
        lhs = float((out.data * g).sum())
        rhs = float((x.data * x.grad).sum())
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    @pytest.mark.parametrize("name", ["haar", "db4", "ch3.3"])
    def test_fd_gradients(self, rng, name):
        # for biorthogonal wavelets only the analysis adjoint passes this;
        # running the synthesis filters backward would not
        spec = parse_wavelet(name)
        x = rng.normal(size=(1, 2, 12, 12))
        gradcheck(lambda xt: wavelet_pool(xt, spec), x, rng=rng)

    @pytest.mark.parametrize("kind", pool_params(ALL_POOLS))
    def test_full_stride_shift_equivariance(self, rng, kind):
        pool = kind.op()
        x = rng.normal(size=(1, 1, 16, 16))
        shifted = np.roll(x, shift=(2, 2), axis=(2, 3))
        a = pool(Tensor(shifted)).data
        b = np.roll(pool(Tensor(x)).data, shift=(1, 1), axis=(2, 3))
        assert np.max(np.abs(a - b)) <= 1e-12

    @pytest.mark.parametrize("name", WAVELET_NAMES)
    def test_lowpass_exactness(self, rng, name):
        # details are discarded either way
        spec = parse_wavelet(name)
        x = rng.normal(size=(1, 1, 16, 16))
        low = np.empty_like(x)
        low[0, 0] = reconstruct_lowpass(x[0, 0], spec)
        a = wavelet_pool(Tensor(low), spec).data
        b = wavelet_pool(Tensor(x), spec).data
        assert np.max(np.abs(a - b)) <= 1e-10

    def test_odd_dims_rejected(self, rng):
        with pytest.raises(OddLengthInput):
            wavelet_pool(Tensor(rng.normal(size=(1, 1, 5, 4))), parse_wavelet("haar"))

    def test_non_4d_rejected(self, rng):
        with pytest.raises(ShapeMismatch):
            wavelet_pool(Tensor(rng.normal(size=(4, 4))), parse_wavelet("haar"))

    def test_input_shorter_than_filter_rejected(self, rng):
        with pytest.raises(InputTooShort):
            wavelet_pool(Tensor(rng.normal(size=(1, 1, 4, 4))), parse_wavelet("db4"))


class TestMaxAvgPool:
    def test_single_window_values(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2)
        assert max_pool2(Tensor(x)).data.item() == 4.0
        assert avg_pool2(Tensor(x)).data.item() == 2.5

    def test_constant_input(self):
        x = np.full((1, 2, 4, 4), 3.25)
        assert np.all(max_pool2(Tensor(x)).data == 3.25)
        assert np.allclose(avg_pool2(Tensor(x)).data, 3.25)

    def test_max_tie_breaks_to_first_window_index(self):
        # window order is row-major: (0,0), (0,1), (1,0), (1,1)
        x = np.array([[5.0, 5.0], [3.0, 5.0]]).reshape(1, 1, 2, 2)
        t = Tensor(x, requires_grad=True)
        max_pool2(t).backward(np.ones((1, 1, 1, 1)))
        expected = np.array([[1.0, 0.0], [0.0, 0.0]]).reshape(1, 1, 2, 2)
        assert np.array_equal(t.grad, expected)

    def test_avg_fd_gradients(self, rng):
        x = rng.normal(size=(2, 2, 6, 6))
        gradcheck(avg_pool2, x, rng=rng)

    def test_max_fd_gradients_away_from_ties(self, rng):
        x = rng.normal(size=(2, 2, 6, 6))  # continuous values: ties have measure zero
        gradcheck(max_pool2, x, rng=rng)

    @pytest.mark.parametrize("pool", [max_pool2, avg_pool2, subsample2])
    def test_odd_dims_rejected(self, pool, rng):
        with pytest.raises(OddLengthInput):
            pool(Tensor(rng.normal(size=(1, 1, 4, 7))))


class TestSubsample:
    def test_takes_even_indices(self, rng):
        x = rng.normal(size=(1, 1, 6, 6))
        out = subsample2(Tensor(x))
        assert np.array_equal(out.data, x[:, :, ::2, ::2])

    def test_fd_gradients(self, rng):
        x = rng.normal(size=(1, 2, 6, 6))
        gradcheck(subsample2, x, rng=rng)


class TestBlurPool:
    def test_constant_input_preserved(self):
        x = np.full((1, 1, 8, 8), 2.5)
        assert np.allclose(blur_pool(Tensor(x)).data, 2.5, atol=1e-12)

    def test_checkerboard_killed_by_binomial_null(self):
        # [1,2,1]/4 has a zero at the Nyquist frequency
        out = blur_pool(Tensor(checkerboard(8, 8)))
        assert np.max(np.abs(out.data)) <= 1e-12

    def test_adjoint_identity(self, rng):
        # 5 and 7 taps wrap past both edges of an 8x8 input; a single tap
        # wraps nothing
        for kernel, size in [(DEFAULT_BLUR_KERNEL, 8), (np.array([1, 4, 6, 4, 1]) / 16, 8),
                             (np.array([1, 6, 15, 20, 15, 6, 1]) / 64, 8), ((1.0,), 4)]:
            x = Tensor(rng.normal(size=(1, 2, size, size)), requires_grad=True)
            g = rng.normal(size=(1, 2, size // 2, size // 2))
            out = blur_pool(x, kernel)
            out.backward(g)
            lhs = float((out.data * g).sum())
            rhs = float((x.data * x.grad).sum())
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    def test_fd_gradients(self, rng):
        x = rng.normal(size=(1, 2, 8, 8))
        gradcheck(blur_pool, x, rng=rng)

    def test_bad_kernel_rejected(self, rng):
        x = Tensor(rng.normal(size=(1, 1, 8, 8)))
        with pytest.raises(InvalidHyperparameter):
            blur_pool(x, kernel=(0.5, 0.5))
        with pytest.raises(InvalidHyperparameter):
            blur_pool(x, kernel=(0.2, 0.2, 0.2))

    def test_kernel_radius_too_large(self, rng):
        x = Tensor(rng.normal(size=(1, 1, 4, 4)))
        big = np.full(11, 1.0 / 11)
        with pytest.raises(InputTooShort):
            blur_pool(x, kernel=big)


class TestAliasAttenuation:
    """DFT oracle: mean spectral power retained across the 2x down-sampling
    for a pure sinusoid above the post-decimation Nyquist."""

    @staticmethod
    def mean_power(arr):
        f = np.fft.fft2(arr)
        return float((np.abs(f) ** 2).sum()) / arr.size**2

    def test_haar_attenuates_while_naive_aliases(self):
        n = 64
        j = np.arange(n)
        omega = 3 * np.pi / 4
        x = np.cos(omega * j)[None, :].repeat(n, axis=0).reshape(1, 1, n, n)
        p_in = self.mean_power(x[0, 0])

        pooled = wavelet_pool(Tensor(x), parse_wavelet("haar")).data[0, 0] / 2.0
        naive = subsample2(Tensor(x)).data[0, 0]

        haar_ratio = self.mean_power(pooled) / p_in
        naive_ratio = self.mean_power(naive) / p_in
        assert haar_ratio <= 0.35
        assert naive_ratio >= 0.95


class TestPoolOp:
    def test_families_map_to_operators(self, rng):
        x = Tensor(rng.normal(size=(1, 1, 8, 8)))
        assert PoolKind("max").op() is max_pool2
        assert PoolKind("avg").op() is avg_pool2
        assert PoolKind("strided").op() is subsample2
        blur_out = parse_pool("blur:1-2-1").op()(x)
        assert np.allclose(blur_out.data, blur_pool(x).data)
        wave_out = parse_pool("wavelet:haar").op()(x)
        assert np.allclose(wave_out.data, wavelet_pool(x, parse_wavelet("haar")).data)

    @pytest.mark.parametrize("kind", pool_params(ALL_POOLS))
    def test_circular_network_is_full_stride_shift_equivariant(self, rng, kind):
        # three 2x down-samplings: an (8, 8) circular shift of the input is
        # a (1, 1) shift of the head's map, which global pooling ignores
        variant = "a" if kind.family == "strided" else "c"
        model = Network(micro_schedule(), kind, variant, num_classes=3, seed=0,
                        conv_pad="circular")
        x = rng.normal(size=(2, 3, 64, 64))
        a = model.forward(Tensor(x), training=False).data
        b = model.forward(Tensor(np.roll(x, (8, 8), axis=(2, 3))), training=False).data
        assert np.max(np.abs(a - b)) <= 1e-12

    def test_network_runs_pool_functions_patched_before_it_is_built(self, rng, monkeypatch):
        # span tracing replaces the module attributes before building a
        # network, so op() must read them when it is called
        calls = []

        def recording(fn):
            def wrapped(*args):
                calls.append(fn.__name__)
                return fn(*args)
            return wrapped

        monkeypatch.setattr(pooling, "max_pool2", recording(max_pool2))
        monkeypatch.setattr(pooling, "wavelet_pool", recording(wavelet_pool))
        sched = StageSchedule(stages=((1, 2, True),), stem_channels=2,
                              stem_pool=PoolKind("max"), expansion=1)
        model = Network(sched, parse_pool("strided"), "a", num_classes=2)
        model(Tensor(rng.normal(size=(1, 3, 8, 8))))
        assert calls == ["max_pool2"]
        calls.clear()
        model = Network(sched, parse_pool("wavelet:haar"), "c", num_classes=2)
        model(Tensor(rng.normal(size=(1, 3, 8, 8))))
        assert calls == ["wavelet_pool"] * 3  # stem site, main path, skip path


class TestApplyReplacement:
    """The down-sampling substitution as the backbone builds its layer lists."""

    def test_max_site_replacement_is_bare_pool(self, rng):
        sched = StageSchedule(stages=((1, 2, False),), stem_channels=2,
                              stem_pool=PoolKind("max"), expansion=1)
        model = Network(sched, parse_pool("wavelet:haar"), "c",
                        num_classes=2)
        site = model.layers[3]  # after the stem conv, bn and relu
        assert site.name == "stem.pool" and model.layers[4] is model.blocks[0]
        x = Tensor(rng.normal(size=(1, 2, 8, 8)))
        out = site(x, training=False)
        assert out.shape == (1, 2, 4, 4)
        assert np.allclose(out.data, wavelet_pool(x, parse_wavelet("haar")).data)

    def test_strided_site_keeps_same_weights_as_stride1_then_pool(self, rng):
        wave = Block("b", 2, 4, True, parse_pool("wavelet:haar"), "c", 1,
                     "circular", make_rng(0))
        strided = Block("b", 2, 4, True, parse_pool("strided"), "a", 1,
                        "circular", make_rng(0))
        assert np.array_equal(wave.conv2.weight.data, strided.conv2.weight.data)
        conv, pool = wave.main[3:5]
        assert conv is wave.conv2
        x = Tensor(rng.normal(size=(1, 4, 8, 8)))
        manual = wavelet_pool(conv2d(x, conv.weight, stride=1, pad="circular"),
                              parse_wavelet("haar"))
        assert np.allclose(_run([conv, pool], x, training=False).data, manual.data, atol=1e-12)

    def test_pointwise_conv_commutes_with_pooling(self, rng):
        # 1x1 convs mix channels only; linear per-channel spatial pooling
        # commutes with them, so pool-then-conv equals conv-then-pool
        db2 = parse_pool("wavelet:db2")
        after = Block("b", 3, 5, True, db2, "c", 1, "same", make_rng(0))
        before = Block("b", 3, 5, True, db2, "b", 1, "same", make_rng(0))
        x = Tensor(rng.normal(size=(1, 3, 8, 8)))
        conv_then_pool = _run(after.skip[:2], x, training=False)
        pool_then_conv = _run(before.skip[:2], x, training=False)
        assert after.skip[0] is after.skip_conv and before.skip[1] is before.skip_conv
        assert np.max(np.abs(conv_then_pool.data - pool_then_conv.data)) <= 1e-10

    def test_strided_kind_reproduces_stride2_conv(self, rng):
        sched = StageSchedule(stages=((1, 2, False),), stem_channels=4, stem_stride=2)
        model = Network(sched, PoolKind("strided"), "a",
                        num_classes=2, conv_pad="same")
        conv, after = model.layers[:2]
        assert after.name == "stem.bn"  # no pool follows the conv
        x = Tensor(rng.normal(size=(1, 3, 8, 8)))
        want = conv2d(x, conv.weight, stride=2, pad="same")
        assert np.allclose(conv(x, training=False).data, want.data)
