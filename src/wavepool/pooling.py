"""Down-sampling operators: wavelet low-pass pooling and its baselines.

All operators map (N, C, H, W) tensors to (N, C, H/2, W/2) and carry exact
backward passes.  Every linear one is the same separable, periodic
decimation, ``transforms._analyze_ll``: along each spatial axis output m is
sum_i f[i] * x[(2m + i + offset) mod n] for one 1D filter f, and the
backward pass is that operator's exact adjoint.  One filter describes each
linear family:

- ``wavelet_pool``: the wavelet's analysis low-pass, so the output is the
  LL subband of a single-level 2D DWT.  High frequencies are discarded
  rather than folded, which is the entire anti-aliasing story.  The
  backward pass transposes the analysis filter; for biorthogonal wavelets
  running the synthesis filters instead would differ, only the adjoint is
  the true gradient, and the finite-difference tests pin that choice.
- ``avg_pool2``: (1/2, 1/2), the 2x2 window mean.
- ``subsample2``: (1,), naive decimation at even indices; the
  aliasing-prone baseline a strided convolution reduces to for frequency
  analysis.
- ``blur_pool``: its odd-length kernel, centred on each kept sample
  (offset -K//2), so the blur wraps periodically like every other filter
  in the network.

``max_pool2`` is the one nonlinear operator: 2x2 window, stride 2, the
gradient routed to the window argmax with first-index tie-break.

``PoolKind`` is the one description of a down-sampling operator: it is
parsed from strings like "max", "avg", "strided", "blur:1-2-1" or
"wavelet:haar", and gives the operator (``op``) and, derived from the
family's filter, its FLOP cost (``flops``), its smallest input side
(``min_size``) and its gain on constants (``dc_gain``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .autodiff import Tensor, make_op
from .errors import InvalidHyperparameter
from .filterbank import WaveletSpec, parse_wavelet
from .transforms import _analyze_ll, _analyze_ll_adjoint, _as_input

DEFAULT_BLUR_KERNEL = (0.25, 0.5, 0.25)
FAMILIES = ("max", "avg", "strided", "blur", "wavelet")
_AVG_FILTER = np.array([0.5, 0.5])
_SUBSAMPLE_FILTER = np.array([1.0])


def _check_blur_kernel(kernel) -> np.ndarray:
    """The kernel as a float array; raises InvalidHyperparameter unless it is
    1D, odd-length, non-negative and sums to 1 (comparisons written so that
    NaN fails them)."""
    k = np.asarray(kernel, dtype=np.float64)
    if k.ndim != 1 or k.size % 2 == 0:
        raise InvalidHyperparameter(f"blur kernel must be 1D odd-length, got shape {k.shape}")
    if not k.min() >= 0 or not abs(k.sum() - 1.0) <= 1e-12:
        raise InvalidHyperparameter("blur kernel must be non-negative and sum to 1")
    return k


@dataclass(frozen=True)
class PoolKind:
    """Which down-sampling operator a network site uses.

    ``family`` is one of ``FAMILIES``; ``blur_kernel`` is set only for
    "blur", ``wavelet`` only for "wavelet".
    """

    family: str
    blur_kernel: tuple[float, ...] | None = None
    wavelet: WaveletSpec | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise InvalidHyperparameter(f"unknown pool family {self.family!r}")
        if self.family == "blur":
            _check_blur_kernel(self.blur_kernel)
        elif self.blur_kernel is not None:
            raise InvalidHyperparameter("blur_kernel only valid for blur pooling")
        if (self.wavelet is not None) != (self.family == "wavelet"):
            raise InvalidHyperparameter("wavelet spec required iff family is wavelet")

    def op(self):
        """The unary Tensor -> Tensor operator.

        The pool functions are read as module globals on each call, so a
        network built after ``pooling.max_pool2`` (say) is replaced runs the
        replacement.  "strided" has no standalone pooling action (the
        decimation lives in the convolution); its operator is naive
        subsampling, which is exactly what the frequency analysis needs as
        the aliasing baseline.
        """
        if self.family == "blur":
            return lambda x: blur_pool(x, self.blur_kernel)
        if self.family == "wavelet":
            return lambda x: wavelet_pool(x, self.wavelet)
        return {"max": max_pool2, "avg": avg_pool2, "strided": subsample2}[self.family]

    def _filter(self) -> np.ndarray | None:
        """The 1D filter a linear family runs along each axis; None for max."""
        if self.family == "wavelet":
            return self.wavelet.analysis_low
        if self.family == "blur":
            return np.asarray(self.blur_kernel)
        return {"avg": _AVG_FILTER, "strided": _SUBSAMPLE_FILTER}.get(self.family)

    def flops(self, ch: int, h: int, w: int) -> int:
        """Forward FLOPs on one (ch, h, w) input: 1 per filter tap per
        produced element, as the operators run.  A linear pool runs two
        separable passes, so a filter of length L costs L*(h*w/2) +
        L*(h*w/4) per channel; max costs 4 per output element."""
        oh, ow = h // 2, w // 2
        f = self._filter()
        if f is None:
            return 4 * ch * oh * ow
        return ch * f.size * (h * ow + oh * ow)

    def min_size(self) -> int:
        """Smallest input side the operator accepts: the filter length, and
        at least one 2x2 window."""
        f = self._filter()
        return 2 if f is None else max(2, f.size)

    def dc_gain(self) -> float:
        """Gain of the operator on a constant input: the squared filter sum.

        Wavelet low-pass filters sum to sqrt(2) per axis, so the wavelet
        pool scales constants by 2; the other linear filters sum to 1, and
        max pooling is nonlinear (gain 1 on constants).
        """
        f = self._filter()
        return 1.0 if f is None else float(np.sum(f)) ** 2

    def config_string(self) -> str:
        if self.family == "blur":
            scale = min(v for v in self.blur_kernel if v > 0)
            ints = [v / scale for v in self.blur_kernel]
            if all(abs(v - round(v)) < 1e-9 for v in ints):
                return "blur:" + "-".join(str(int(round(v))) for v in ints)
            return "blur:" + "-".join(repr(v) for v in self.blur_kernel)
        if self.family == "wavelet":
            return f"wavelet:{self.wavelet.name}"
        return self.family


def parse_pool(text: str) -> PoolKind:
    """Parse a pool config string: max | avg | strided | blur[:a-b-c] |
    wavelet:<name>."""
    text = text.strip()
    head, _, arg = text.partition(":")
    if head in ("max", "avg", "strided") and not arg:
        return PoolKind(head)
    if head == "blur":
        if not arg:
            return PoolKind("blur", DEFAULT_BLUR_KERNEL)
        try:
            weights = [float(v) for v in arg.split("-")]
        except ValueError:
            raise InvalidHyperparameter(f"cannot parse blur kernel {arg!r}") from None
        total = sum(weights)
        if not 0 < total < np.inf:
            raise InvalidHyperparameter(f"blur kernel must have positive finite sum, got {arg!r}")
        return PoolKind("blur", tuple(v / total for v in weights))
    if head == "wavelet" and arg:
        return PoolKind("wavelet", wavelet=parse_wavelet(arg))
    raise InvalidHyperparameter(f"cannot parse pool kind {text!r}")


def _linear_pool(x, filt: np.ndarray, offset: int, op: str) -> Tensor:
    """Periodic decimation by ``filt`` along both spatial axes, taps
    starting ``offset`` samples from each kept sample, with its exact
    adjoint as the backward pass.  Sides must be even and no shorter than
    the filter."""
    _as_input(x.data, max(2, filt.size), op, 4)
    return make_op(
        _analyze_ll(x.data, filt, offset),
        (x,),
        lambda g: (_analyze_ll_adjoint(g, filt, offset),),
    )


def wavelet_pool(x, spec: WaveletSpec) -> Tensor:
    """LL subband of each channel: anti-aliased 2x down-sampling.

    Output values carry the transform's DC gain of 2 relative to a plain
    average; the batchnorm that follows every pooling site in the backbone
    absorbs the constant.
    """
    return _linear_pool(x, spec.analysis_low, 0, "wavelet_pool")


def max_pool2(x) -> Tensor:
    """2x2 max pooling, stride 2; ties break to the first window index."""
    N, C, H, W = _as_input(x.data, 2, "max_pool2", 4).shape
    # windows in row-major order (0,0), (0,1), (1,0), (1,1) on the last axis
    win = sliding_window_view(x.data, (2, 2), axis=(2, 3))[:, :, ::2, ::2].reshape(
        N, C, H // 2, W // 2, 4)
    amax = win.argmax(axis=-1)
    out = np.take_along_axis(win, amax[..., None], axis=-1)[..., 0]

    def backward_fn(g):
        # reads the argmax, not the windows (a copy the size of x)
        dwin = np.zeros((N, C, H // 2, W // 2, 4))
        np.put_along_axis(dwin, amax[..., None], g[..., None], axis=-1)
        dx = (
            dwin.reshape(N, C, H // 2, W // 2, 2, 2)
            .transpose(0, 1, 2, 4, 3, 5)
            .reshape(N, C, H, W)
        )
        return (dx,)

    return make_op(out, (x,), backward_fn)


def avg_pool2(x) -> Tensor:
    """2x2 average pooling, stride 2."""
    return _linear_pool(x, _AVG_FILTER, 0, "avg_pool2")


def subsample2(x) -> Tensor:
    """Naive stride-2 decimation at even indices (what a strided identity
    convolution computes); the aliasing-prone reference point."""
    return _linear_pool(x, _SUBSAMPLE_FILTER, 0, "subsample2")


def blur_pool(x, kernel=DEFAULT_BLUR_KERNEL) -> Tensor:
    """Separable depthwise periodic blur, centred on each kept sample, and
    stride-2 subsampling in one decimating pass."""
    k = _check_blur_kernel(kernel)
    return _linear_pool(x, k, -(k.size // 2), "blur_pool")
