"""Single-level 1D and 2D discrete wavelet transforms with periodic boundary.

The analysis operators are realized directly from their definition: output
index m taps the input starting at sample 2m (offset 0), indices wrapped
modulo the signal length.  Periodic extension keeps the finite analysis and
synthesis matrices exactly (bi)orthogonal, so round-trip reconstruction is
accurate to machine precision rather than to some boundary-dependent bound.

Synthesis applies the transposed operators built from the synthesis (dual)
filters.  Filters of unequal length are center-aligned using the offsets
carried by the WaveletSpec, which is what makes the biorthogonal pairs
(ch3.3, ch5.5) invert exactly.

Odd-sized inputs are rejected rather than padded: padding would silently
change operation counts downstream and break the exact-adjoint property the
training code relies on.  Only single-level transforms are provided;
multi-level decomposition is composition at the call site.

All public entry points accept plain vectors/matrices.  The private
``_analyze_pair_2d`` / ``_synthesize_ll_adjoint`` helpers accept arbitrary
leading batch axes and back the pooling layers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputTooShort, OddLengthInput, ShapeMismatch
from .filterbank import WaveletSpec


@dataclass(frozen=True)
class SubbandSet:
    """The four half-resolution subbands of one 2D decomposition level.

    ``ll`` is low-pass along both axes; ``lh`` is high-pass along the height
    axis, ``hl`` high-pass along the width axis, ``hh`` along both.
    """

    ll: np.ndarray
    lh: np.ndarray
    hl: np.ndarray
    hh: np.ndarray

    def __post_init__(self):
        shapes = {np.shape(self.ll), np.shape(self.lh), np.shape(self.hl), np.shape(self.hh)}
        if len(shapes) != 1:
            raise ShapeMismatch(f"subbands must share one shape, got {sorted(shapes)}")
        if np.ndim(self.ll) != 2:
            raise ShapeMismatch("subbands must be matrices")


def _analyze_last(x: np.ndarray, filt: np.ndarray) -> np.ndarray:
    """Decimating correlation along the last axis: out[..., m] = sum_i
    filt[i] * x[..., (2m + i) mod n].

    Implemented as strided slices over a periodically extended copy (taps
    reach at most L-2 past the end), which is much faster than a gathered
    index matrix for the small filters used here.
    """
    n = x.shape[-1]
    half = n // 2
    L = filt.size
    wrap = L - 2  # furthest tap index is 2*(half-1) + L-1 = n + L - 3
    ext = np.concatenate([x, x[..., :wrap]], axis=-1) if wrap > 0 else x
    out = ext[..., 0:2 * half:2] * filt[0]
    for i in range(1, L):
        out += filt[i] * ext[..., i:i + 2 * half:2]
    return out


def _synthesize_last(c: np.ndarray, filt: np.ndarray, n: int, offset: int) -> np.ndarray:
    """Adjoint of ``_analyze_last`` with the filter support shifted by
    ``offset``: out[(2m + i + offset) mod n] += filt[i] * c[..., m].

    Scatters into an extended buffer with plain strided slices, then folds
    the out-of-range ends back periodically in contiguous chunks.
    """
    half = c.shape[-1]
    L = filt.size
    lo = offset
    hi = 2 * (half - 1) + (L - 1) + offset
    ext = np.zeros(c.shape[:-1] + (hi - lo + 1,), dtype=np.float64)
    for i in range(L):
        ext[..., i:i + 2 * half:2] += filt[i] * c
    out = np.zeros(c.shape[:-1] + (n,), dtype=np.float64)
    pos = lo
    idx = 0
    while pos <= hi:
        tgt = pos % n
        block = min(hi - pos + 1, n - tgt)
        out[..., tgt:tgt + block] += ext[..., idx:idx + block]
        pos += block
        idx += block
    return out


def _analyze_height(x: np.ndarray, filt: np.ndarray) -> np.ndarray:
    return _analyze_last(x.swapaxes(-1, -2), filt).swapaxes(-1, -2)


def _synthesize_height(c: np.ndarray, filt: np.ndarray, n: int, offset: int) -> np.ndarray:
    return _synthesize_last(c.swapaxes(-1, -2), filt, n, offset).swapaxes(-1, -2)


def _check_even_last2(x: np.ndarray, spec: WaveletSpec, op: str) -> None:
    h, w = x.shape[-2], x.shape[-1]
    if h % 2 or w % 2:
        raise OddLengthInput(f"{op}: spatial dims must be even, got {h}x{w}")
    if h < spec.max_length or w < spec.max_length:
        raise InputTooShort(
            f"{op}: spatial dims {h}x{w} shorter than filter length {spec.max_length}"
        )


def dwt1d(x, spec: WaveletSpec):
    """One analysis level: returns (low, high), each of length n/2.

    low[m] = sum_i l[i] x[(2m+i) mod n] and likewise for high with the
    analysis high-pass filter.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ShapeMismatch(f"dwt1d expects a vector, got shape {x.shape}")
    if x.size % 2:
        raise OddLengthInput(f"dwt1d: length {x.size} is odd")
    if x.size < spec.max_length:
        raise InputTooShort(f"dwt1d: length {x.size} < filter length {spec.max_length}")
    return _analyze_last(x, spec.analysis_low), _analyze_last(x, spec.analysis_high)


def idwt1d(low, high, spec: WaveletSpec) -> np.ndarray:
    """Inverse of dwt1d: transposed synthesis operators, periodic indexing."""
    low = np.asarray(low, dtype=np.float64)
    high = np.asarray(high, dtype=np.float64)
    if low.ndim != 1 or low.shape != high.shape:
        raise ShapeMismatch(f"idwt1d: band shapes {low.shape} vs {high.shape}")
    n = 2 * low.size
    return _synthesize_last(
        low, spec.synthesis_low, n, spec.synthesis_low_offset
    ) + _synthesize_last(high, spec.synthesis_high, n, spec.synthesis_high_offset)


def dwt2d(X, spec: WaveletSpec) -> SubbandSet:
    """Separable 2D analysis: 1D passes along width then height.

    With L and H the 1D analysis operators, the subbands are
    ll = L X L^T, lh = H X L^T, hl = L X H^T, hh = H X H^T.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ShapeMismatch(f"dwt2d expects a matrix, got shape {X.shape}")
    _check_even_last2(X, spec, "dwt2d")
    row_low = _analyze_last(X, spec.analysis_low)
    row_high = _analyze_last(X, spec.analysis_high)
    return SubbandSet(
        ll=_analyze_height(row_low, spec.analysis_low),
        lh=_analyze_height(row_low, spec.analysis_high),
        hl=_analyze_height(row_high, spec.analysis_low),
        hh=_analyze_height(row_high, spec.analysis_high),
    )


def idwt2d(s: SubbandSet, spec: WaveletSpec) -> np.ndarray:
    """Inverse of dwt2d: transposed synthesis operators on both axes."""
    h2, w2 = s.ll.shape
    lo, hi = spec.synthesis_low_offset, spec.synthesis_high_offset
    low_branch = _synthesize_height(
        np.asarray(s.ll, dtype=np.float64), spec.synthesis_low, 2 * h2, lo
    ) + _synthesize_height(np.asarray(s.lh, dtype=np.float64), spec.synthesis_high, 2 * h2, hi)
    high_branch = _synthesize_height(
        np.asarray(s.hl, dtype=np.float64), spec.synthesis_low, 2 * h2, lo
    ) + _synthesize_height(np.asarray(s.hh, dtype=np.float64), spec.synthesis_high, 2 * h2, hi)
    return _synthesize_last(low_branch, spec.synthesis_low, 2 * w2, lo) + _synthesize_last(
        high_branch, spec.synthesis_high, 2 * w2, hi
    )


def reconstruct_lowpass(X, spec: WaveletSpec) -> np.ndarray:
    """Full-resolution low-pass projection: keep ll, zero the detail bands,
    reconstruct.  For orthogonal wavelets this is an orthogonal projection
    (hence idempotent); it is what the anti-aliasing analysis measures."""
    s = dwt2d(X, spec)
    z = np.zeros_like(s.ll)
    return idwt2d(SubbandSet(ll=s.ll, lh=z, hl=z, hh=z), spec)


def _analyze_ll(x: np.ndarray, spec: WaveletSpec) -> np.ndarray:
    """LL subband of every trailing 2D slice; accepts leading batch axes."""
    return _analyze_height(_analyze_last(x, spec.analysis_low), spec.analysis_low)


def _analyze_ll_adjoint(g: np.ndarray, spec: WaveletSpec, height: int, width: int) -> np.ndarray:
    """Exact adjoint of ``_analyze_ll``: transpose of the analysis operator
    applied to a gradient living in the LL slot (detail slots zero).

    Note this uses the analysis filters at offset 0, not the synthesis
    filters; for biorthogonal wavelets the two differ and only the former
    is the true gradient.
    """
    return _synthesize_height(
        _synthesize_last(g, spec.analysis_low, width, 0), spec.analysis_low, height, 0
    )
