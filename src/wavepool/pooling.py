"""Down-sampling operators: wavelet low-pass pooling and its baselines.

All operators map (N, C, H, W) tensors to (N, C, H/2, W/2) and carry exact
backward passes:

- ``wavelet_pool``: keeps the LL subband of a single-level 2D DWT.  High
  frequencies are discarded rather than folded, which is the entire
  anti-aliasing story.  The backward pass is the adjoint of the analysis
  operator (embed the gradient in the LL slot, apply the transpose with the
  analysis filters).  For biorthogonal wavelets this differs from running
  the synthesis filters; only the adjoint is the true gradient, and the
  finite-difference tests pin that choice.
- ``max_pool2`` / ``avg_pool2``: 2x2 window, stride 2.  Max routes the
  gradient to the window argmax with first-index tie-break.
- ``blur_pool``: depthwise separable binomial blur (reflect padding)
  followed by stride-2 subsampling at even indices.
- ``subsample2``: naive decimation at even indices; the aliasing-prone
  baseline a strided convolution reduces to for frequency analysis.

``PoolKind`` is the one description of a down-sampling operator: it is
parsed from strings like "max", "avg", "strided", "blur:1-2-1" or
"wavelet:haar", and gives the operator (``op``), its FLOP cost (``flops``)
and its gain on constants (``dc_gain``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, make_op
from .errors import InputTooShort, InvalidHyperparameter, OddLengthInput, ShapeMismatch
from .filterbank import WaveletSpec, parse_wavelet
from .ops import _as_tensor
from .transforms import _analyze_ll, _analyze_ll_adjoint, _as_input, _at

DEFAULT_BLUR_KERNEL = (0.25, 0.5, 0.25)
FAMILIES = ("max", "avg", "strided", "blur", "wavelet")


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

    def flops(self, ch: int, h: int, w: int) -> int:
        """Forward FLOPs on one (ch, h, w) input: 1 per filter tap per
        produced element, as the operators run.  Wavelet pooling runs
        separable passes, so a filter of length L costs L*(h*w/2) +
        L*(h*w/4) per channel; 2x2 max/avg cost 4 per output element; blur
        costs its two full-resolution separable passes plus the subsample;
        naive decimation costs one per output element."""
        oh, ow = h // 2, w // 2
        if self.family == "wavelet":
            L = int(self.wavelet.analysis_low.size)
            return ch * (L * h * ow + L * oh * ow)
        if self.family == "blur":
            return ch * (2 * len(self.blur_kernel) * h * w + oh * ow)
        return (4 if self.family in ("max", "avg") else 1) * ch * oh * ow

    def min_size(self) -> int:
        """Smallest input side the operator accepts: the wavelet filter
        length, the blur radius plus one, or one 2x2 window."""
        if self.family == "wavelet":
            return self.wavelet.max_length
        if self.family == "blur":
            return len(self.blur_kernel) // 2 + 1
        return 2

    def dc_gain(self) -> float:
        """Gain of the operator on a constant input.

        Wavelet low-pass filters are normalized to sqrt(2) DC gain per axis,
        so the separable pool scales constants by 2; the linear baselines
        are already energy-normalized, and max pooling is nonlinear (gain 1
        on constants).
        """
        if self.family == "wavelet":
            return float(np.sum(self.wavelet.analysis_low)) ** 2
        return 1.0

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


def _check_even_4d(x: Tensor, op: str) -> tuple[int, int, int, int]:
    if x.ndim != 4:
        raise ShapeMismatch(f"{op}: need (N, C, H, W) input, got {x.shape}")
    N, C, H, W = x.shape
    if H % 2 or W % 2:
        raise OddLengthInput(f"{op}: spatial dims must be even, got {H}x{W}")
    return N, C, H, W


def wavelet_pool(x, spec: WaveletSpec) -> Tensor:
    """LL subband of each channel: anti-aliased 2x down-sampling.

    Output values carry the transform's DC gain of 2 relative to a plain
    average; the batchnorm that follows every pooling site in the backbone
    absorbs the constant.
    """
    x = _as_tensor(x)
    _as_input(x.data, spec, "wavelet_pool", 4)
    return make_op(_analyze_ll(x.data, spec), (x,), lambda g: (_analyze_ll_adjoint(g, spec),))


def _windows(data: np.ndarray) -> np.ndarray:
    """(N, C, H, W) -> (N, C, H/2, W/2, 4) view-free window expansion in
    row-major window order (0,0), (0,1), (1,0), (1,1)."""
    N, C, H, W = data.shape
    r = data.reshape(N, C, H // 2, 2, W // 2, 2)
    return r.transpose(0, 1, 2, 4, 3, 5).reshape(N, C, H // 2, W // 2, 4)


def max_pool2(x) -> Tensor:
    """2x2 max pooling, stride 2; ties break to the first window index."""
    x = _as_tensor(x)
    N, C, H, W = _check_even_4d(x, "max_pool2")
    win = _windows(x.data)
    amax = win.argmax(axis=-1)
    out = np.take_along_axis(win, amax[..., None], axis=-1)[..., 0]

    def backward_fn(g):
        dwin = np.zeros_like(win)
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
    x = _as_tensor(x)
    N, C, H, W = _check_even_4d(x, "avg_pool2")

    def backward_fn(g):
        dx = np.repeat(np.repeat(g, 2, axis=2), 2, axis=3)
        return (dx * 0.25,)

    return make_op(_windows(x.data).mean(axis=-1), (x,), backward_fn)


def subsample2(x) -> Tensor:
    """Naive stride-2 decimation at even indices (what a strided identity
    convolution computes); the aliasing-prone reference point."""
    x = _as_tensor(x)
    N, C, H, W = _check_even_4d(x, "subsample2")

    def backward_fn(g):
        dx = np.zeros((N, C, H, W))
        dx[:, :, ::2, ::2] = g
        return (dx,)

    return make_op(x.data[:, :, ::2, ::2].copy(), (x,), backward_fn)


def _reflect_index(j: np.ndarray, n: int) -> np.ndarray:
    """Reflect indices into [0, n) without repeating the edge sample."""
    j = np.abs(j)
    return np.where(j >= n, 2 * (n - 1) - j, j)


def _blur(data: np.ndarray, kernel: np.ndarray, axis: int) -> np.ndarray:
    """Correlation with ``kernel`` along ``axis`` (-1 or -2), centered, over
    a reflect-padded copy."""
    n = data.shape[axis]
    p = kernel.size // 2
    ext = data[_at(_reflect_index(np.arange(-p, n + p), n), axis)]
    out = kernel[0] * ext[_at(slice(0, n), axis)]
    for t in range(1, kernel.size):
        out += kernel[t] * ext[_at(slice(t, t + n), axis)]
    return out


def _blur_adjoint(g: np.ndarray, kernel: np.ndarray, axis: int) -> np.ndarray:
    """Adjoint of ``_blur``: each tap adds into the reflect-padded extent,
    then the p padded samples at each edge fold back, reversed, onto the
    samples they were reflected from (``[1, p]`` and ``[n-1-p, n-2]``)."""
    n = g.shape[axis]
    p = kernel.size // 2
    shape = list(g.shape)
    shape[axis] = n + 2 * p
    ext = np.zeros(shape)
    for t in range(kernel.size):
        ext[_at(slice(t, t + n), axis)] += kernel[t] * g
    out = ext[_at(slice(p, p + n), axis)]
    out[_at(slice(1, p + 1), axis)] += np.flip(ext[_at(slice(0, p), axis)], axis)
    out[_at(slice(n - 1 - p, n - 1), axis)] += np.flip(ext[_at(slice(n + p, None), axis)], axis)
    return out


def blur_pool(x, kernel=DEFAULT_BLUR_KERNEL) -> Tensor:
    """Separable depthwise blur (reflect padding) then stride-2 subsample."""
    x = _as_tensor(x)
    N, C, H, W = _check_even_4d(x, "blur_pool")
    k = _check_blur_kernel(kernel)
    p = k.size // 2
    if p >= min(H, W):
        raise InputTooShort(f"blur kernel radius {p} too large for {H}x{W} input")

    out = _blur(_blur(x.data, k, -1), k, -2)[:, :, ::2, ::2].copy()

    def backward_fn(g):
        gfull = np.zeros((N, C, H, W))
        gfull[:, :, ::2, ::2] = g
        return (_blur_adjoint(_blur_adjoint(gfull, k, -2), k, -1),)

    return make_op(out, (x,), backward_fn)

