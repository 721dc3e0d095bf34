"""DWT/IDWT round trips, linearity, energy conservation, adjoint identity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavepool.errors import InputTooShort, OddLengthInput, ShapeMismatch
from wavepool.filterbank import parse_wavelet, supported_wavelets
from wavepool.transforms import (
    SubbandSet,
    _analyze,
    _analyze_ll,
    _analyze_ll_adjoint,
    _synthesize,
    dwt1d,
    dwt2d,
    idwt1d,
    idwt2d,
    reconstruct_lowpass,
)

ALL_NAMES = list(supported_wavelets())
ORTHOGONAL = ["haar", "db1", "db2", "db3", "db4", "ch1.1"]

SQRT2 = np.sqrt(2.0)


class TestTrivialExamples:
    def test_constant_vector_haar(self):
        low, high = dwt1d([1.0, 1.0, 1.0, 1.0], parse_wavelet("haar"))
        np.testing.assert_allclose(low, [SQRT2, SQRT2], atol=1e-15)
        np.testing.assert_allclose(high, [0.0, 0.0], atol=1e-15)

    def test_nyquist_vector_haar_all_energy_high(self):
        x = np.array([1.0, -1.0, 1.0, -1.0])
        low, high = dwt1d(x, parse_wavelet("haar"))
        np.testing.assert_allclose(low, 0.0, atol=1e-15)
        assert abs(np.sum(high**2) - np.sum(x**2)) <= 1e-12

    def test_idwt_constant_haar(self):
        out = idwt1d([SQRT2, SQRT2], [0.0, 0.0], parse_wavelet("haar"))
        np.testing.assert_allclose(out, 1.0, atol=1e-14)

    def test_ones_matrix_haar(self):
        s = dwt2d(np.ones((4, 4)), parse_wavelet("haar"))
        np.testing.assert_allclose(s.ll, 2.0, atol=1e-14)
        for band in (s.lh, s.hl, s.hh):
            np.testing.assert_allclose(band, 0.0, atol=1e-14)

    def test_tiled_2x2_block_haar(self):
        a, b, c, d = 1.0, 2.0, -3.0, 0.5
        X = np.tile([[a, b], [c, d]], (3, 4))
        s = dwt2d(X, parse_wavelet("haar"))
        np.testing.assert_allclose(s.ll, (a + b + c + d) / 2.0, atol=1e-14)

    def test_idwt2d_constant_ll(self):
        z = np.zeros((2, 2))
        out = idwt2d(SubbandSet(ll=np.full((2, 2), 2.0), lh=z, hl=z, hh=z), parse_wavelet("haar"))
        np.testing.assert_allclose(out, 1.0, atol=1e-14)

    def test_hh_only_blocks_zero_mean(self):
        rng = np.random.default_rng(7)
        z = np.zeros((4, 4))
        out = idwt2d(
            SubbandSet(ll=z, lh=z, hl=z, hh=rng.standard_normal((4, 4))),
            parse_wavelet("haar"),
        )
        block_sums = out.reshape(4, 2, 4, 2).sum(axis=(1, 3))
        np.testing.assert_allclose(block_sums, 0.0, atol=1e-12)


class TestRoundTrip:
    @pytest.mark.parametrize("name", ALL_NAMES)
    @pytest.mark.parametrize("n", [16, 64, 256])
    def test_1d_reconstruction(self, name, n):
        spec = parse_wavelet(name)
        if n < spec.max_length:
            pytest.skip("shorter than filter")
        rng = np.random.default_rng(hash((name, n)) % 2**32)
        x = rng.standard_normal(n)
        low, high = dwt1d(x, spec)
        assert np.abs(idwt1d(low, high, spec) - x).max() <= 1e-10

    @pytest.mark.parametrize("name", ORTHOGONAL)
    def test_1d_other_direction(self, name):
        # dwt(idwt(low, high)) = (low, high): orthogonal operators only
        spec = parse_wavelet(name)
        rng = np.random.default_rng(3)
        low = rng.standard_normal(32)
        high = rng.standard_normal(32)
        low2, high2 = dwt1d(idwt1d(low, high, spec), spec)
        np.testing.assert_allclose(low2, low, atol=1e-12)
        np.testing.assert_allclose(high2, high, atol=1e-12)

    @pytest.mark.parametrize("name", ALL_NAMES)
    @pytest.mark.parametrize("shape", [(16, 16), (32, 48), (64, 64)])
    def test_2d_reconstruction(self, name, shape):
        spec = parse_wavelet(name)
        if min(shape) < spec.max_length:
            pytest.skip("shorter than filter")
        rng = np.random.default_rng(hash((name,) + shape) % 2**32)
        X = rng.standard_normal(shape)
        assert np.abs(idwt2d(dwt2d(X, spec), spec) - X).max() <= 1e-10

    @given(st.integers(min_value=4, max_value=32), st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_1d_round_trip_property_db2(self, half_n, seed):
        spec = parse_wavelet("db2")
        x = np.random.default_rng(seed).standard_normal(2 * half_n)
        low, high = dwt1d(x, spec)
        assert np.abs(idwt1d(low, high, spec) - x).max() <= 1e-10


class TestLinearityAndEnergy:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_linearity(self, name):
        spec = parse_wavelet(name)
        rng = np.random.default_rng(11)
        x, y = rng.standard_normal((2, 64))
        a, b = -1.7, 0.3
        lx, hx = dwt1d(x, spec)
        ly, hy = dwt1d(y, spec)
        lc, hc = dwt1d(a * x + b * y, spec)
        np.testing.assert_allclose(lc, a * lx + b * ly, atol=1e-12)
        np.testing.assert_allclose(hc, a * hx + b * hy, atol=1e-12)

    @pytest.mark.parametrize("name", ORTHOGONAL)
    def test_energy_conservation_2d(self, name):
        spec = parse_wavelet(name)
        rng = np.random.default_rng(13)
        X = rng.standard_normal((32, 32))
        s = dwt2d(X, spec)
        total = sum(float(np.sum(band**2)) for band in (s.ll, s.lh, s.hl, s.hh))
        assert abs(total - float(np.sum(X**2))) / float(np.sum(X**2)) <= 1e-9

    def test_subbands_share_shape(self):
        s = dwt2d(np.zeros((8, 12)), parse_wavelet("haar"))
        assert s.ll.shape == s.lh.shape == s.hl.shape == s.hh.shape == (4, 6)


class TestAdjointIdentity:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_ll_analysis_adjoint(self, name):
        # <A x, g> = <x, A^T g> for the low-pass analysis operator
        spec = parse_wavelet(name)
        rng = np.random.default_rng(17)
        x = rng.standard_normal((16, 16))
        g = rng.standard_normal((8, 8))
        lhs = float(np.sum(_analyze_ll(x, spec.analysis_low) * g))
        rhs = float(np.sum(x * _analyze_ll_adjoint(g, spec.analysis_low)))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    @pytest.mark.parametrize("name", ORTHOGONAL)
    def test_idwt_is_dwt_transpose_orthogonal(self, name):
        spec = parse_wavelet(name)
        rng = np.random.default_rng(19)
        x = rng.standard_normal(32)
        gl = rng.standard_normal(16)
        gh = rng.standard_normal(16)
        low, high = dwt1d(x, spec)
        lhs = float(np.dot(low, gl) + np.dot(high, gh))
        rhs = float(np.dot(x, idwt1d(gl, gh, spec)))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def _per_tap_analyze(x, filt, axis, offset):
    """out[m] = sum_i filt[i] * x[(2m + i + offset) mod n], one gathered
    tap and one fresh product at a time, summed in tap order."""
    n = x.shape[axis]
    taps = [np.take(x, (2 * np.arange(n // 2) + i + offset) % n, axis=axis) * filt[i]
            for i in range(filt.size)]
    out = taps[0]
    for tap in taps[1:]:
        out = out + tap
    return out


def _per_tap_synthesize(c, filt, offset, axis):
    """out[(2m + i + offset) mod n] += filt[i] * c[m] into zeros, one fresh
    product per tap, taps in order."""
    c = np.moveaxis(c, axis, -1)
    half = c.shape[-1]
    out = np.zeros(c.shape[:-1] + (2 * half,))
    for i in range(filt.size):
        out[..., (2 * np.arange(half) + i + offset) % (2 * half)] += filt[i] * c
    return np.moveaxis(out, -1, axis)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_pair_matches_per_tap_formula_byte_for_byte(name):
    """The reused tap buffer changes no byte: every filter of every wavelet,
    along both axes, at every distinct offset, on inputs carrying -0.0."""
    spec = parse_wavelet(name)
    n = max(spec.max_length, 4) + 2
    rng = np.random.default_rng(41)
    x = rng.standard_normal((2, n, n))
    x[rng.random(x.shape) < 1 / 3] = -0.0
    for filt in (spec.analysis_low, spec.analysis_high, spec.synthesis_low,
                 spec.synthesis_high):
        for axis in (-1, -2):
            for offset in range(-n + 1, 1):
                got, want = _analyze(x, filt, axis, offset), _per_tap_analyze(x, filt, axis, offset)
                assert got.tobytes() == np.ascontiguousarray(want).tobytes()
            c = x[:, : n // 2] if axis == -2 else x[..., : n // 2]
            for offset in range(-n, n + 1):
                got, want = _synthesize(c, filt, offset, axis), _per_tap_synthesize(
                    c, filt, offset, axis)
                assert got.tobytes() == np.ascontiguousarray(want).tobytes()


class TestMaximalWrap:
    """Inputs exactly as long as the longest filter, so the taps wrap as far
    as they can (ch5.5 has 14 taps)."""

    @pytest.mark.parametrize("name", ALL_NAMES)
    @pytest.mark.parametrize("axis", [-1, -2])
    def test_pair_adjoint(self, name, axis):
        spec = parse_wavelet(name)
        n = spec.max_length
        rng = np.random.default_rng(29)
        x = rng.standard_normal((3, n) if axis == -1 else (n, 3))
        for filt in (spec.analysis_low, spec.analysis_high, spec.synthesis_low,
                     spec.synthesis_high):
            y = _analyze(x, filt, axis)
            c = rng.standard_normal(y.shape)
            lhs = float(np.sum(y * c))
            rhs = float(np.sum(x * _synthesize(c, filt, 0, axis)))
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_2d_reconstruction(self, name):
        spec = parse_wavelet(name)
        n = spec.max_length
        X = np.random.default_rng(31).standard_normal((n, n))
        assert np.abs(idwt2d(dwt2d(X, spec), spec) - X).max() <= 1e-10

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_lowpass_is_ll_only_reconstruction(self, name):
        spec = parse_wavelet(name)
        n = spec.max_length
        X = np.random.default_rng(37).standard_normal((n, n))
        z = np.zeros((n // 2, n // 2))
        want = idwt2d(SubbandSet(ll=dwt2d(X, spec).ll, lh=z, hl=z, hh=z), spec)
        assert np.abs(reconstruct_lowpass(X, spec) - want).max() <= 1e-12


class TestReconstructLowpass:
    def test_constant_unchanged(self):
        X = np.full((8, 8), 3.25)
        for name in ALL_NAMES:
            spec = parse_wavelet(name)
            if 8 < spec.max_length:
                continue
            np.testing.assert_allclose(reconstruct_lowpass(X, spec), X, atol=1e-12)

    def test_checkerboard_annihilated_haar(self):
        ii, jj = np.indices((8, 8))
        X = np.where((ii + jj) % 2 == 0, 1.0, -1.0)
        np.testing.assert_allclose(
            reconstruct_lowpass(X, parse_wavelet("haar")), 0.0, atol=1e-12
        )

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_idempotent(self, name):
        spec = parse_wavelet(name)
        rng = np.random.default_rng(23)
        X = rng.standard_normal((16, 16))
        once = reconstruct_lowpass(X, spec)
        twice = reconstruct_lowpass(once, spec)
        assert np.abs(twice - once).max() <= 1e-10


class TestErrors:
    def test_odd_length_1d(self):
        with pytest.raises(OddLengthInput):
            dwt1d(np.zeros(5), parse_wavelet("haar"))

    def test_too_short_1d(self):
        with pytest.raises(InputTooShort):
            dwt1d(np.zeros(4), parse_wavelet("db4"))

    def test_band_length_mismatch(self):
        with pytest.raises(ShapeMismatch):
            idwt1d(np.zeros(4), np.zeros(6), parse_wavelet("haar"))

    def test_odd_dimension_2d(self):
        with pytest.raises(OddLengthInput):
            dwt2d(np.zeros((5, 4)), parse_wavelet("haar"))
        with pytest.raises(OddLengthInput):
            dwt2d(np.zeros((4, 7)), parse_wavelet("haar"))

    def test_subband_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            SubbandSet(
                ll=np.zeros((2, 2)), lh=np.zeros((2, 3)), hl=np.zeros((2, 2)), hh=np.zeros((2, 2))
            )

    @pytest.mark.parametrize("shape", [(4,), (2, 2, 2)])
    def test_subbands_must_be_matrices(self, shape):
        z = np.zeros(shape)
        with pytest.raises(ShapeMismatch, match="subbands must be matrices"):
            SubbandSet(ll=z, lh=z, hl=z, hh=z)

    def test_dwt1d_rejects_matrix(self):
        with pytest.raises(ShapeMismatch):
            dwt1d(np.zeros((4, 4)), parse_wavelet("haar"))
