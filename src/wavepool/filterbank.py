"""Wavelet filter banks used by every transform and pooling operation.

Each wavelet is a set of four FIR filters: analysis low/high-pass used for
decomposition, and synthesis (dual) low/high-pass used for reconstruction.
For orthogonal wavelets the synthesis filters equal the analysis filters;
biorthogonal (Cohen/CDF) wavelets carry a distinct, shorter dual pair.

Normalization convention: every low-pass filter sums to sqrt(2) (so a
constant signal gains sqrt(2) per transformed axis) and every high-pass
filter sums to zero.  High-pass filters follow the alternating-sign
quadrature-mirror rule h[n] = (-1)^n * l~[L-1-n] built from the opposite
branch's low-pass filter, which for orthogonal wavelets reduces to
h[n] = (-1)^n * l[L-1-n].

Filters of different lengths are center-aligned: a synthesis filter of
length K pairs with an analysis filter of length J by shifting its support
(J - K) / 2 taps, exposed as ``synthesis_low_offset``/``synthesis_high_offset``
and consumed by the transforms when building the adjoint operators.

The Cohen filters are built at import from their integer tables (sqrt(2)/d
times integers), each tap rounded once to the nearest double.  The
Daubechies filters db2-db4 are double literals (a 60-digit spectral
factorization rounded to double).  haar, db1 and ch1.1 use
``1/math.sqrt(2)`` = 0.7071067811865475, one ulp below the correctly
rounded 1/sqrt(2): archived results depend on haar's bytes, and ch1.1 must
equal haar, so ch1.1 is not built from the integer rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedWavelet

_INVSQRT2 = 1.0 / math.sqrt(2.0)


@dataclass(frozen=True, eq=False)
class WaveletSpec:
    """A named wavelet: four filter coefficient vectors.  Every shipped spec
    is one object, so specs compare by identity."""

    name: str
    analysis_low: np.ndarray
    analysis_high: np.ndarray
    synthesis_low: np.ndarray
    synthesis_high: np.ndarray

    def __post_init__(self):
        for attr in ("analysis_low", "analysis_high", "synthesis_low", "synthesis_high"):
            arr = np.asarray(getattr(self, attr), dtype=np.float64)
            if arr.ndim != 1 or arr.size < 2 or arr.size % 2 != 0:
                raise UnsupportedWavelet(
                    f"{self.name}: filter '{attr}' must be a 1D even-length vector of >= 2 taps"
                )
            arr.flags.writeable = False
            object.__setattr__(self, attr, arr)

    @property
    def orthogonal(self) -> bool:
        """Synthesis runs the analysis filters (otherwise a biorthogonal pair)."""
        return np.array_equal(self.analysis_low, self.synthesis_low)

    @property
    def max_length(self) -> int:
        return max(self.analysis_low.size, self.analysis_high.size)

    @property
    def synthesis_low_offset(self) -> int:
        """Support shift aligning synthesis_low with analysis_low."""
        return (self.analysis_low.size - self.synthesis_low.size) // 2

    @property
    def synthesis_high_offset(self) -> int:
        """Support shift aligning synthesis_high with analysis_high."""
        return (self.analysis_high.size - self.synthesis_high.size) // 2


def _qmf(low_dual: np.ndarray) -> np.ndarray:
    """Alternating-sign mirror: h[n] = (-1)^n * low_dual[L-1-n]."""
    L = low_dual.size
    signs = np.where(np.arange(L) % 2 == 0, 1.0, -1.0)
    return signs * low_dual[::-1]


def _spec(name, analysis_low, synthesis_low=None):
    l = np.asarray(analysis_low, dtype=np.float64)
    lt = l if synthesis_low is None else np.asarray(synthesis_low, dtype=np.float64)
    return WaveletSpec(
        name=name,
        analysis_low=l,
        analysis_high=_qmf(lt),
        synthesis_low=lt,
        synthesis_high=_qmf(l),
    )


# Daubechies analysis low-pass filters (min-phase, sum = sqrt(2)).
_DB_LOW = {
    1: (_INVSQRT2, _INVSQRT2),
    2: (
        0.48296291314453416,
        0.8365163037378079,
        0.2241438680420134,
        -0.12940952255126037,
    ),
    3: (
        0.33267055295008263,
        0.8068915093110925,
        0.45987750211849154,
        -0.13501102001025458,
        -0.08544127388202666,
        0.03522629188570953,
    ),
    4: (
        0.2303778133088965,
        0.7148465705529157,
        0.6308807679298589,
        -0.027983769416859854,
        -0.18703481171909309,
        0.030841381835560764,
        0.0328830116668852,
        -0.010597401785069032,
    ),
}

# Cohen (CDF spline) pairs from Cohen, Daubechies & Feauveau (1992), each
# filter as (d, k) for the taps sqrt(2) * k / d: the analysis low-pass (the
# long filter), then the synthesis low-pass (the short B-spline dual).
_COHEN = {
    (3, 3): ((64, (3, -9, -7, 45, 45, -7, -9, 3)), (8, (1, 3, 3, 1))),
    (5, 5): (
        (4096, (35, -175, 120, 800, -1357, -1575, 4200, 4200, -1575, -1357, 800, 120, -175, 35)),
        (32, (1, 5, 10, 10, 5, 1)),
    ),
}


def _sqrt2_times(d: int, taps: tuple[int, ...]) -> tuple[float, ...]:
    """sqrt(2) * k / d for each integer k, rounded once to the nearest
    double: isqrt gives floor(sqrt(2) * 2**100), and int-by-int true
    division rounds correctly."""
    sqrt2_scaled = math.isqrt(2 << 200)
    return tuple(k * sqrt2_scaled / (d << 100) for k in taps)


# Every shipped wavelet by config name, in the order supported_wavelets()
# lists them.  Daubechies(1) is the Haar wavelet, and Cohen(1,1) is
# coefficient-identical to it and therefore orthogonal.
_WAVELETS = {
    spec.name: spec
    for spec in [
        _spec("haar", _DB_LOW[1]),
        *(_spec(f"db{k}", low) for k, low in _DB_LOW.items()),
        _spec("ch1.1", _DB_LOW[1]),
        *(
            _spec(f"ch{k}.{k_dual}", _sqrt2_times(*ana), _sqrt2_times(*syn))
            for (k, k_dual), (ana, syn) in _COHEN.items()
        ),
    ]
}


def parse_wavelet(name: str) -> WaveletSpec:
    """The spec for a config name (surrounding whitespace ignored): one of
    ``supported_wavelets()``."""
    try:
        return _WAVELETS[name.strip()]
    except KeyError:
        raise UnsupportedWavelet(
            f"unknown wavelet {name!r}; supported: {', '.join(_WAVELETS)}"
        ) from None


def supported_wavelets() -> tuple[str, ...]:
    return tuple(_WAVELETS)


def check_biorthogonality(spec: WaveletSpec) -> dict[str, float]:
    """Maximum absolute violation of each filter-duality condition, keyed
    by condition, over every integer shift m (filters center-aligned):

      low_low:   sum_n l[n] * l~[n - 2m] = delta_m
      high_high: sum_n h[n] * h~[n - 2m] = delta_m
      low_high:  sum_n l[n] * h~[n - 2m] = 0
      high_low:  sum_n h[n] * l~[n - 2m] = 0

    For orthogonal specs (synthesis = analysis) this reduces to the usual
    orthonormality conditions sum_n l[n] l[n-2m] = delta_m.
    """
    pairs = {
        "low_low": (spec.analysis_low, spec.synthesis_low, spec.synthesis_low_offset, True),
        "high_high": (spec.analysis_high, spec.synthesis_high, spec.synthesis_high_offset, True),
        "low_high": (spec.analysis_low, spec.synthesis_high, spec.synthesis_high_offset, False),
        "high_low": (spec.analysis_high, spec.synthesis_low, spec.synthesis_low_offset, False),
    }
    residuals = {}
    for cond, (a, b, off, is_delta) in pairs.items():
        # entry s + len(b) - 1 of the full correlation is
        # sum_n a[n] b[n - s]; keep the overlapping shifts s = 2m + off
        k = off + b.size - 1
        corr = np.correlate(a, b, "full")[k % 2::2]
        if is_delta:
            corr[k // 2] -= 1.0
        residuals[cond] = float(np.max(np.abs(corr)))
    return residuals
