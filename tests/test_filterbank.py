"""Filter construction, normalization, and duality conditions."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from wavepool.errors import UnsupportedWavelet
from wavepool.filterbank import (
    WaveletSpec,
    check_biorthogonality,
    parse_wavelet,
    supported_wavelets,
)

INV_SQRT2 = 1.0 / np.sqrt(2.0)

ALL_NAMES = list(supported_wavelets())


def all_specs():
    return [parse_wavelet(n) for n in ALL_NAMES]


class TestHaar:
    def test_analysis_low_values(self):
        spec = parse_wavelet("haar")
        np.testing.assert_allclose(spec.analysis_low, [INV_SQRT2, INV_SQRT2], rtol=0, atol=1e-15)

    def test_analysis_high_alternating_sign(self):
        spec = parse_wavelet("haar")
        np.testing.assert_allclose(spec.analysis_high, [INV_SQRT2, -INV_SQRT2], rtol=0, atol=1e-15)

    def test_high_sums_to_zero_exactly(self):
        assert parse_wavelet("haar").analysis_high.sum() == 0.0

    def test_family_orthogonal_and_filters_shared(self):
        spec = parse_wavelet("haar")
        assert spec.orthogonal
        np.testing.assert_array_equal(spec.analysis_low, spec.synthesis_low)
        np.testing.assert_array_equal(spec.analysis_high, spec.synthesis_high)

    def test_residual_below_1e15(self):
        assert max(check_biorthogonality(parse_wavelet("haar")).values()) < 1e-15


class TestDaubechies:
    def test_db1_equals_haar(self):
        db1, haar = parse_wavelet("db1"), parse_wavelet("haar")
        np.testing.assert_array_equal(db1.analysis_low, haar.analysis_low)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_length_is_2k(self, k):
        assert parse_wavelet(f"db{k}").analysis_low.size == 2 * k

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_unit_energy_and_vanishing_moment(self, k):
        l = parse_wavelet(f"db{k}").analysis_low
        assert abs(np.sum(l**2) - 1.0) <= 1e-12
        n = np.arange(l.size)
        # first moment of the high-pass mirror: sum (-1)^n n l[n]
        assert abs(np.sum((-1.0) ** n * n * l)) <= 1e-11

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_qmf_rule(self, k):
        spec = parse_wavelet(f"db{k}")
        n = np.arange(2 * k)
        expected = (-1.0) ** n * spec.analysis_low[::-1]
        np.testing.assert_array_equal(spec.analysis_high, expected)

    @pytest.mark.parametrize("k", [0, 5, -1, 12])
    def test_out_of_range_rejected(self, k):
        with pytest.raises(UnsupportedWavelet):
            parse_wavelet(f"db{k}")


class TestCohen:
    def test_ch11_identical_to_haar(self):
        a, b = parse_wavelet("ch1.1"), parse_wavelet("haar")
        np.testing.assert_array_equal(a.analysis_low, b.analysis_low)
        np.testing.assert_array_equal(a.analysis_high, b.analysis_high)
        assert a.orthogonal

    def test_ch33_lengths(self):
        spec = parse_wavelet("ch3.3")
        assert spec.analysis_low.size == 8
        assert spec.synthesis_low.size == 4
        assert not spec.orthogonal

    def test_ch55_lengths_even(self):
        spec = parse_wavelet("ch5.5")
        assert spec.analysis_low.size == 14
        assert spec.synthesis_low.size == 6
        for f in (spec.analysis_high, spec.synthesis_high):
            assert f.size % 2 == 0

    def test_shorter_lowpass_is_synthesis(self):
        for spec in (parse_wavelet("ch3.3"), parse_wavelet("ch5.5")):
            assert spec.synthesis_low.size < spec.analysis_low.size

    @pytest.mark.parametrize("pair", [(2, 2), (1, 3), (5, 3), (7, 7)])
    def test_unsupported_pairs_rejected(self, pair):
        with pytest.raises(UnsupportedWavelet):
            parse_wavelet("ch{}.{}".format(*pair))


def _exact_lowpass():
    """Analysis and synthesis low-pass filters of every closed-form wavelet
    but haar, from 60-digit decimals, each rounded once by ``float``."""
    with localcontext() as ctx:
        ctx.prec = 60
        s2, s3, s10 = (Decimal(n).sqrt() for n in (2, 3, 10))
        r = (5 + 2 * s10).sqrt()
        db2 = [v / (4 * s2) for v in (1 + s3, 3 + s3, 3 - s3, 1 - s3)]
        db3 = [
            v / (16 * s2)
            for v in (
                1 + s10 + r, 5 + s10 + 3 * r, 10 - 2 * s10 + 2 * r,
                10 - 2 * s10 - 2 * r, 5 + s10 - 3 * r, 1 + s10 - r,
            )
        ]
        ch33 = [s2 * k / 64 for k in (3, -9, -7, 45, 45, -7, -9, 3)]
        ch33_dual = [s2 * k / 8 for k in (1, 3, 3, 1)]
        ch55_half = (35, -175, 120, 800, -1357, -1575, 4200)
        ch55 = [s2 * k / 4096 for k in ch55_half + ch55_half[::-1]]
        ch55_dual = [s2 * k / 32 for k in (1, 5, 10, 10, 5, 1)]
        exact = {
            "db2": (db2, db2),
            "db3": (db3, db3),
            "ch3.3": (ch33, ch33_dual),
            "ch5.5": (ch55, ch55_dual),
        }
        return {
            name: tuple(np.array([float(v) for v in f]) for f in pair)
            for name, pair in exact.items()
        }


class TestExactTaps:
    """Every shipped filter with a closed form, pinned byte for byte.  The
    high-pass filters follow from these by the QMF rule."""

    @pytest.mark.parametrize("name", ["db2", "db3", "ch3.3", "ch5.5"])
    def test_lowpass_is_exact_value_rounded_once(self, name):
        analysis, synthesis = _exact_lowpass()[name]
        spec = parse_wavelet(name)
        assert np.array_equal(spec.analysis_low, analysis)
        assert np.array_equal(spec.synthesis_low, synthesis)

    @pytest.mark.parametrize("name", ["haar", "db1", "ch1.1"])
    def test_haar_taps_are_one_over_math_sqrt2(self, name):
        # 1/math.sqrt(2) is one ulp below the correctly rounded 1/sqrt(2);
        # archived results depend on these bytes
        h = 1 / math.sqrt(2)
        spec = parse_wavelet(name)
        for f in (spec.analysis_low, spec.synthesis_low):
            assert np.array_equal(f, [h, h])
        for f in (spec.analysis_high, spec.synthesis_high):
            assert np.array_equal(f, [h, -h])


class TestNormalization:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_lowpass_dc_gain_sqrt2(self, name):
        spec = parse_wavelet(name)
        assert abs(spec.analysis_low.sum() - np.sqrt(2.0)) <= 1e-12
        assert abs(spec.synthesis_low.sum() - np.sqrt(2.0)) <= 1e-12

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_highpass_zero_sum(self, name):
        spec = parse_wavelet(name)
        assert abs(spec.analysis_high.sum()) <= 1e-12
        assert abs(spec.synthesis_high.sum()) <= 1e-12

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_even_length_at_least_two(self, name):
        spec = parse_wavelet(name)
        for f in (spec.analysis_low, spec.analysis_high, spec.synthesis_low, spec.synthesis_high):
            assert f.size >= 2 and f.size % 2 == 0


class TestBiorthogonality:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_residual_below_1e10(self, name):
        residuals = check_biorthogonality(parse_wavelet(name))
        assert max(residuals.values()) <= 1e-10, residuals

    def test_report_has_four_conditions(self):
        residuals = check_biorthogonality(parse_wavelet("ch3.3"))
        assert set(residuals) == {"low_low", "high_high", "low_high", "high_low"}

    def test_degenerate_spec_flagged(self):
        # analysis_high = analysis_low violates the cross conditions by >= 1
        good = parse_wavelet("haar")
        bad = WaveletSpec(
            name="bad",
            analysis_low=good.analysis_low,
            analysis_high=good.analysis_low,
            synthesis_low=good.synthesis_low,
            synthesis_high=good.synthesis_low,
        )
        assert max(check_biorthogonality(bad).values()) >= 1.0 - 1e-9

    @staticmethod
    def _oracle(spec):
        """Each condition's residual summed shift by shift: every s = 2m + off
        at which the two filters overlap."""
        pairs = {
            "low_low": (spec.analysis_low, spec.synthesis_low, spec.synthesis_low_offset, True),
            "high_high": (spec.analysis_high, spec.synthesis_high, spec.synthesis_high_offset, True),
            "low_high": (spec.analysis_low, spec.synthesis_high, spec.synthesis_high_offset, False),
            "high_low": (spec.analysis_high, spec.synthesis_low, spec.synthesis_low_offset, False),
        }
        out = {}
        for cond, (a, b, off, is_delta) in pairs.items():
            worst = 0.0
            for s in range(-(b.size - 1), a.size):
                if (s - off) % 2:
                    continue
                terms = [a[n] * b[n - s] for n in range(a.size) if 0 <= n - s < b.size]
                if is_delta and s == off:
                    terms.append(-1.0)
                worst = max(worst, abs(math.fsum(terms)))
            out[cond] = worst
        return out

    @staticmethod
    def _random_specs(count=40):
        # unit-norm filters of even lengths 2-14; unequal analysis and
        # synthesis lengths make the offsets negative, zero and positive
        rng = np.random.default_rng(20)
        specs = []
        for i in range(count):
            taps = []
            for size in rng.choice(np.arange(2, 15, 2), size=4):
                f = rng.normal(size=size)
                taps.append(f / np.linalg.norm(f))
            specs.append(WaveletSpec(f"random{i}", *taps))
        return specs

    def test_random_specs_cover_every_offset_sign(self):
        specs = self._random_specs()
        offsets = {s.synthesis_low_offset for s in specs} | {s.synthesis_high_offset for s in specs}
        assert {np.sign(off) for off in offsets} == {-1, 0, 1}

    @pytest.mark.parametrize("which", ALL_NAMES + ["random"])
    def test_matches_brute_force_oracle(self, which):
        specs = self._random_specs() if which == "random" else [parse_wavelet(which)]
        for spec in specs:
            got = check_biorthogonality(spec)
            want = self._oracle(spec)
            assert got.keys() == want.keys()
            for cond in want:
                assert abs(got[cond] - want[cond]) <= 1e-15, (spec.name, cond)

    @pytest.mark.parametrize("name", ["haar", "db2", "db3", "db4"])
    def test_orthonormal_shifts(self, name):
        # sum_n l[n] l[n-2m] = delta_m, checked directly by brute force
        l = parse_wavelet(name).analysis_low
        L = l.size
        for m in range(-(L // 2) + 1, L // 2):
            acc = sum(
                l[n] * l[n - 2 * m] for n in range(L) if 0 <= n - 2 * m < L
            )
            assert abs(acc - (1.0 if m == 0 else 0.0)) <= 1e-12


class TestParsing:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_round_trip_name(self, name):
        assert parse_wavelet(name).name == name

    @pytest.mark.parametrize(
        "bad", ["", "haar2", "db", "db0", "ch3", "ch3.3.3", "sym4", "DB2", "db01", "ch03.3"]
    )
    def test_malformed_names_rejected(self, bad):
        with pytest.raises(UnsupportedWavelet):
            parse_wavelet(bad)

    def test_whitespace_tolerated(self):
        assert parse_wavelet(" db2 ").name == "db2"


class TestImmutability:
    def test_arrays_read_only(self):
        spec = parse_wavelet("db2")
        with pytest.raises(ValueError):
            spec.analysis_low[0] = 0.0

    def test_odd_length_filter_rejected(self):
        with pytest.raises(UnsupportedWavelet):
            WaveletSpec(
                name="odd",
                analysis_low=np.ones(3),
                analysis_high=np.ones(3),
                synthesis_low=np.ones(3),
                synthesis_high=np.ones(3),
            )
