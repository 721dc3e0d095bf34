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

All public entry points accept plain vectors/matrices.  Every transform
composes one private pair acting along a chosen axis: ``_analyze`` (the
decimating periodic correlation) and its adjoint ``_synthesize``.  One level
along one axis is ``_split`` (both analysis filters) and its inverse ``_merge``
(both synthesis filters, summed); a 2D level splits along width then height
and merges back in reverse.  ``_analyze_ll`` and its exact adjoint
``_analyze_ll_adjoint`` run one filter along both trailing axes, accept
arbitrary leading batch axes and back every linear pooling layer; with the
synthesis low-pass, the adjoint is also ``reconstruct_lowpass``'s 2D
synthesis.  Each call of the pair writes every tap's product into one
buffer it allocates once and reuses, rather than a fresh temporary per tap.
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


def _at(s, axis: int) -> tuple:
    """Index applying ``s`` along ``axis`` (-1 or -2) of an array."""
    return (Ellipsis, s) + (slice(None),) * (-1 - axis)


def _analyze(x: np.ndarray, filt: np.ndarray, axis: int = -1, offset: int = 0) -> np.ndarray:
    """Decimating periodic correlation along ``axis``: out[m] = sum_i
    filt[i] * x[(2m + i + offset) mod n], for -n < offset <= 0.

    Implemented as strided slices over a periodically extended copy (taps
    reach -offset samples before the start and at most L-2+offset past the
    end), which is much faster than a gathered index matrix for the small
    filters used here.
    """
    n = x.shape[axis]
    L = filt.size
    before, after = -offset, max(L - 2 + offset, 0)
    if before or after:
        x = np.concatenate(
            [x[_at(slice(n - before, n), axis)], x, x[_at(slice(0, after), axis)]], axis=axis
        )
    out = x[_at(slice(0, n, 2), axis)] * filt[0]
    tap = np.empty_like(out)
    for i in range(1, L):
        np.multiply(x[_at(slice(i, i + n, 2), axis)], filt[i], out=tap)
        out += tap
    return out


def _synthesize(c: np.ndarray, filt: np.ndarray, offset: int, axis: int = -1) -> np.ndarray:
    """Adjoint of ``_analyze`` with the filter support shifted by ``offset``:
    out[(2m + i + offset) mod n] += filt[i] * c[m], where n is twice the
    length of ``c`` along ``axis``.

    Tap i lands on the output samples of parity (i + offset) mod 2, rotated
    by (i + offset) // 2 of them, so it is scattered with at most two
    strided adds (before and after the wrap point).
    """
    half = c.shape[axis]
    n = 2 * half
    shape = list(c.shape)
    shape[axis] = n
    # zero-filled rather than assigned from the first tap: 0.0 + -0.0 is
    # 0.0, so the -0.0 of ReLU-masked gradients keeps its old result
    out = np.zeros(shape)
    tap = np.empty(c.shape)
    for i in range(filt.size):
        rot, parity = divmod(i + offset, 2)
        rot %= half
        np.multiply(c, filt[i], out=tap)
        out[_at(slice(parity + 2 * rot, n, 2), axis)] += tap[_at(slice(0, half - rot), axis)]
        if rot:
            out[_at(slice(parity, 2 * rot, 2), axis)] += tap[_at(slice(half - rot, half), axis)]
    return out


def _as_input(x, min_side: int, op: str, ndim: int) -> np.ndarray:
    """``x`` as a float array of ``ndim`` axes whose last one or two (the
    transformed sides) are even and no shorter than ``min_side``."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != ndim:
        raise ShapeMismatch(f"{op}: expected {ndim} axes, got shape {x.shape}")
    sides = x.shape[-2:]
    size = "x".join(map(str, sides))
    if any(n % 2 for n in sides):
        raise OddLengthInput(f"{op}: sides must be even, got {size}")
    if min(sides) < min_side:
        raise InputTooShort(f"{op}: size {size} is below the minimum side {min_side}")
    return x


def _split(x: np.ndarray, spec: WaveletSpec, axis: int = -1) -> tuple:
    """(low, high): one analysis step along ``axis`` with both filters."""
    return _analyze(x, spec.analysis_low, axis), _analyze(x, spec.analysis_high, axis)


def _merge(low: np.ndarray, high: np.ndarray, spec: WaveletSpec, axis: int = -1) -> np.ndarray:
    """Inverse of ``_split``: the sum of both bands' synthesis along ``axis``."""
    lows = _synthesize(low, spec.synthesis_low, spec.synthesis_low_offset, axis)
    return lows + _synthesize(high, spec.synthesis_high, spec.synthesis_high_offset, axis)


def dwt1d(x, spec: WaveletSpec):
    """One analysis level: returns (low, high), each of length n/2.

    low[m] = sum_i l[i] x[(2m+i) mod n] and likewise for high with the
    analysis high-pass filter.
    """
    return _split(_as_input(x, spec.max_length, "dwt1d", 1), spec)


def idwt1d(low, high, spec: WaveletSpec) -> np.ndarray:
    """Inverse of dwt1d: transposed synthesis operators, periodic indexing."""
    low = np.asarray(low, dtype=np.float64)
    high = np.asarray(high, dtype=np.float64)
    if low.ndim != 1 or low.shape != high.shape:
        raise ShapeMismatch(f"idwt1d: band shapes {low.shape} vs {high.shape}")
    return _merge(low, high, spec)


def dwt2d(X, spec: WaveletSpec) -> SubbandSet:
    """Separable 2D analysis: 1D passes along width then height.

    With L and H the 1D analysis operators, the subbands are
    ll = L X L^T, lh = H X L^T, hl = L X H^T, hh = H X H^T.
    """
    row_low, row_high = _split(_as_input(X, spec.max_length, "dwt2d", 2), spec)
    return SubbandSet(*_split(row_low, spec, axis=-2), *_split(row_high, spec, axis=-2))


def idwt2d(s: SubbandSet, spec: WaveletSpec) -> np.ndarray:
    """Inverse of dwt2d: transposed synthesis operators on both axes."""
    ll, lh, hl, hh = (np.asarray(b, dtype=np.float64) for b in (s.ll, s.lh, s.hl, s.hh))
    return _merge(_merge(ll, lh, spec, axis=-2), _merge(hl, hh, spec, axis=-2), spec)


def reconstruct_lowpass(X, spec: WaveletSpec) -> np.ndarray:
    """Full-resolution low-pass projection: keep ll, zero the detail bands,
    reconstruct.  For orthogonal wavelets this is an orthogonal projection
    (hence idempotent); it is what the anti-aliasing analysis measures.
    Only ll is analyzed and synthesized: the zero bands add nothing."""
    X = _as_input(X, spec.max_length, "reconstruct_lowpass", 2)
    ll = _analyze_ll(X, spec.analysis_low)
    return _analyze_ll_adjoint(ll, spec.synthesis_low, spec.synthesis_low_offset)


def _analyze_ll(x: np.ndarray, filt: np.ndarray, offset: int = 0) -> np.ndarray:
    """``_analyze`` with one filter along both trailing axes (the LL subband
    when ``filt`` is a wavelet's analysis low-pass); accepts leading batch
    axes."""
    return _analyze(_analyze(x, filt, offset=offset), filt, axis=-2, offset=offset)


def _analyze_ll_adjoint(g: np.ndarray, filt: np.ndarray, offset: int = 0) -> np.ndarray:
    """Exact adjoint of ``_analyze_ll``.

    For a wavelet this is the transpose of the analysis operator applied to
    a gradient living in the LL slot (detail slots zero): it runs the
    analysis filter, not the synthesis filter; for biorthogonal wavelets the
    two differ and only the former is the true gradient.  Run with the
    synthesis low-pass and its offset, it is the LL synthesis instead.
    """
    return _synthesize(_synthesize(g, filt, offset), filt, offset, axis=-2)
