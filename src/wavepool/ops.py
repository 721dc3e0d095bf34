"""Differentiable network operations built on the autodiff tape.

Every op takes Tensors; arrays enter at ``Network.forward`` (and
``kd_loss``'s teacher, a constant, may be one).

Layout convention: image tensors are (batch, channel, height, width);
convolution weights are (out_channels, in_channels, kh, kw); linear weights
are (out_features, in_features).  Convolution is cross-correlation (no
kernel flip), the usual deep-learning convention.

``conv2d`` supports two padding modes, both for odd kernels only: "same"
(zero padding preserving spatial size at stride 1) and "circular" (periodic
wrap padding).  Circular padding makes a stride-1 convolution exactly
shift-equivariant on the torus, which is what lets a network of circular
convolutions plus wavelet pooling achieve perfect consistency under
full-stride input shifts.

Convolution is one GEMM per direction on a channel-major column matrix
(im2col): numpy's ``sliding_window_view`` of the padded input, reshaped to
(C*kh*kw, N*Ho*Wo).  Forward is ``w2 @ cols`` with one transpose to NCHW;
backward computes ``dw = g2 @ cols.T`` and ``dcols = w2.T @ g2``, and folds
dcols back with kh*kw strided slice additions into a zeroed (C, N, Hp, Wp)
buffer, the channel-major layout dcols already has; one transposing copy
then gives the contiguous NCHW input gradient.  The column matrix is k*k
times the input, so it is rebuilt from the padded input in backward rather
than kept on the tape: keeping it measured only a small gain in step time
for a 40% rise in peak memory.  A 1x1 stride-1 convolution skips the column
matrix and multiplies each image's (C, H*W) block directly.

Forward builds the whole column matrix of its batch.  Nothing in conv2d
bounds its size, and nothing needs to: unrecorded eval forwards are chunked
by ``Network.forward``, and a recorded forward's backward rebuilds the
columns at the same size anyway.

Backward needs the whole column matrix, since splitting ``dw``'s reduction
changes bytes.  It, dcols and the transposed cotangent ``g2`` live in a
scratch table rather than being allocated, page-faulted and freed on every
call: one flat float64 buffer per slot, grown to the largest request and
handed out as a reshaped prefix.  Only storage that dies inside one backward
may live there, since the next request for the slot overwrites it; for the
same reason the table, shared by the whole process, allows no two backward
passes to run at once in different threads (nothing here starts one).
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .autodiff import Tensor, is_recorded, make_op
from .errors import InputTooShort, InvalidHyperparameter, OddLengthInput, ShapeMismatch

PAD_MODES = ("circular", "same")
BN_MOMENTUM = 0.1  # weight of the batch statistics in the running averages
BN_EPS = 1e-5


_scratch: dict[str, np.ndarray] = {}


def _scratch_view(slot: str, shape) -> np.ndarray:
    """A C-contiguous float64 array of ``shape`` over the prefix of slot
    ``slot``'s buffer, which grows to the largest request."""
    size = math.prod(shape)
    if slot not in _scratch or _scratch[slot].size < size:
        _scratch.pop(slot, None)  # free the smaller buffer before allocating
        _scratch[slot] = np.empty(size)
    return _scratch[slot][:size].reshape(shape)


def conv2d(x, w, b=None, stride: int = 1, *, pad: str) -> Tensor:
    """2D cross-correlation with optional bias.

    Parameters
    ----------
    x : Tensor, shape (N, C, H, W)
    w : Tensor, shape (F, C, kh, kw)
    b : Tensor of shape (F,), optional
    stride : 1 or 2
    pad : one of ``PAD_MODES``
    """
    if x.ndim != 4 or w.ndim != 4:
        raise ShapeMismatch(f"conv2d: need 4D input/weight, got {x.shape} and {w.shape}")
    N, C, H, W = x.shape
    F, Cw, kh, kw = w.shape
    if C != Cw:
        raise ShapeMismatch(f"conv2d: input has {C} channels, weight expects {Cw}")
    if stride not in (1, 2):
        raise InvalidHyperparameter(f"conv2d: stride must be 1 or 2, got {stride}")
    if pad not in PAD_MODES:
        raise InvalidHyperparameter(f"conv2d: pad must be one of {PAD_MODES}, got {pad!r}")
    if stride == 2 and (H % 2 or W % 2):
        raise OddLengthInput(f"conv2d: stride 2 requires even spatial dims, got {H}x{W}")
    if b is not None and b.shape != (F,):
        raise ShapeMismatch(f"conv2d: bias shape {b.shape} != ({F},)")

    if kh % 2 == 0 or kw % 2 == 0:
        raise InvalidHyperparameter(f"conv2d: {pad} padding requires odd kernels, got {kh}x{kw}")
    ph, pw = kh // 2, kw // 2
    if pad == "circular" and (ph > H or pw > W):
        raise InputTooShort(f"conv2d: circular pad {ph}x{pw} exceeds input {H}x{W}")
    if ph or pw:
        mode = "wrap" if pad == "circular" else "constant"
        xp = np.pad(x.data, ((0, 0), (0, 0), (ph, ph), (pw, pw)), mode=mode)
    else:
        xp = x.data

    Hp, Wp = xp.shape[2:]
    if Hp < kh or Wp < kw:
        raise InputTooShort(f"conv2d: padded input {Hp}x{Wp} smaller than kernel {kh}x{kw}")
    Ho = (Hp - kh) // stride + 1
    Wo = (Wp - kw) // stride + 1
    K, M = C * kh * kw, N * Ho * Wo
    w2 = w.data.reshape(F, K)
    # a 1x1 stride-1 conv maps each image's (C, H*W) block on its own, so it
    # needs neither the column matrix nor a transpose to NCHW
    pointwise = kh == kw == stride == 1

    parents = (x, w) if b is None else (x, w, b)

    def columns():
        # the (C, kh, kw, N, Ho, Wo) column matrix as a view of xp
        return sliding_window_view(xp, (kh, kw), axis=(2, 3))[:, :, ::stride, ::stride].transpose(
            1, 4, 5, 0, 2, 3)

    if pointwise:
        out = (w2 @ xp.reshape(N, C, H * W)).reshape(N, F, H, W)
    else:
        # no name holds the columns: they are freed before the output is
        # copied out
        out = np.ascontiguousarray(
            (w2 @ columns().reshape(K, M)).reshape(F, N, Ho, Wo).transpose(1, 0, 2, 3))
    if b is not None:
        out += b.data[None, :, None, None]

    def backward_fn(g):
        g2 = _scratch_view("g2", (F, N, Ho, Wo))
        np.copyto(g2, g.transpose(1, 0, 2, 3))
        g2 = g2.reshape(F, M)
        dw = None
        if w.requires_grad:
            cols = _scratch_view("cols", (C, kh, kw, N, Ho, Wo))
            np.copyto(cols, columns())
            dw = (g2 @ cols.reshape(K, M).T).reshape(w.shape)
        dx = None
        if x.requires_grad and pointwise:
            dx = (w2.T @ g.reshape(N, F, H * W)).reshape(N, C, H, W)
        elif x.requires_grad:
            # the columns are dead, so their slot takes dcols
            dcols = np.matmul(w2.T, g2, out=_scratch_view("cols", (K, M)))
            dcols = dcols.reshape(C, kh, kw, N, Ho, Wo)
            dxp = np.zeros((C, N, Hp, Wp))
            for u in range(kh):
                for v in range(kw):
                    dxp[:, :, u:u + stride * Ho:stride, v:v + stride * Wo:stride] += dcols[:, u, v]
            if pad == "circular":
                # each padded strip is a copy of the far end of the core
                dxp[:, :, H:H + ph] += dxp[:, :, :ph]
                dxp[:, :, ph:2 * ph] += dxp[:, :, H + ph:]
                dxp[:, :, :, W:W + pw] += dxp[:, :, :, :pw]
                dxp[:, :, :, pw:2 * pw] += dxp[:, :, :, W + pw:]
            dx = np.ascontiguousarray(dxp[:, :, ph:ph + H, pw:pw + W].transpose(1, 0, 2, 3))
        if b is None:
            return (dx, dw)
        db = g.sum(axis=(0, 2, 3)) if b.requires_grad else None
        return (dx, dw, db)

    return make_op(out, parents, backward_fn)


def batchnorm2d(
    x,
    gamma,
    beta,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    training: bool,
) -> Tensor:
    """Per-channel batch normalization with running statistics.

    In training mode the batch mean/variance normalize and the running
    buffers are updated in place (exponential moving average, the unbiased
    variance estimate enters the buffer).  In eval mode the running buffers
    normalize, making the op a fixed per-channel affine map.
    """
    if x.ndim != 4:
        raise ShapeMismatch(f"batchnorm2d: need 4D input, got {x.shape}")
    C = x.shape[1]
    for name, v in (("gamma", gamma.data), ("beta", beta.data),
                    ("running_mean", running_mean), ("running_var", running_var)):
        if v.shape != (C,):
            raise ShapeMismatch(f"batchnorm2d: {name} shape {v.shape} != ({C},)")

    if training:
        n = x.data.shape[0] * x.data.shape[2] * x.data.shape[3]
        mu = x.data.mean(axis=(0, 2, 3))
        # the centred values serve both the variance and xhat; the sum of
        # squares over n rounds exactly as ndarray.var does.  The output
        # buffer holds the squares until it takes gamma * xhat
        xhat = x.data - mu[None, :, None, None]
        out = np.multiply(xhat, xhat)
        var = out.sum(axis=(0, 2, 3)) / n
        running_mean *= 1.0 - BN_MOMENTUM
        running_mean += BN_MOMENTUM * mu
        var_unbiased = var * (n / (n - 1)) if n > 1 else var
        running_var *= 1.0 - BN_MOMENTUM
        running_var += BN_MOMENTUM * var_unbiased
    else:
        n = 0
        xhat = x.data - running_mean[None, :, None, None]
        var = running_var
        out = None

    inv = 1.0 / np.sqrt(var + BN_EPS)
    xhat *= inv[None, :, None, None]
    if not is_recorded((x, gamma, beta)):
        out = xhat  # no backward reads xhat, so the output overwrites it
    out = np.multiply(gamma.data[None, :, None, None], xhat, out=out)
    out += beta.data[None, :, None, None]

    def backward_fn(g):
        dgamma = (g * xhat).sum(axis=(0, 2, 3)) if gamma.requires_grad else None
        dbeta = g.sum(axis=(0, 2, 3)) if beta.requires_grad else None
        dx = None
        if x.requires_grad:
            if training:
                # (inv / n) * (n * dxhat - s1 - xhat * s2) in two buffers;
                # ending in t rather than dxhat keeps a step's peak RSS lower
                dxhat = g * gamma.data[None, :, None, None]
                s1 = dxhat.sum(axis=(0, 2, 3), keepdims=True)
                t = dxhat * xhat
                s2 = t.sum(axis=(0, 2, 3), keepdims=True)
                np.multiply(xhat, s2, out=t)
                dxhat *= n
                dxhat -= s1
                np.subtract(dxhat, t, out=t)
                t *= inv[None, :, None, None] / n
                dx = t
            else:
                dx = g * (gamma.data * inv)[None, :, None, None]
        return (dx, dgamma, dbeta)

    return make_op(out, (x, gamma, beta), backward_fn)


def relu(x) -> Tensor:
    # fmax drops NaN and adding +0.0 turns -0.0 into 0.0, so this matches
    # np.where(x > 0, x, 0.0) in one pass
    out = np.fmax(x.data, 0.0)
    out += 0.0

    def backward_fn(g):
        return (g * (x.data > 0),)

    return make_op(out, (x,), backward_fn)


def linear(x, w, b) -> Tensor:
    """Affine map: out = x @ w.T + b, with w of shape (out, in)."""
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[1]:
        raise ShapeMismatch(f"linear: {x.shape} incompatible with weight {w.shape}")
    if b.shape != (w.shape[0],):
        raise ShapeMismatch(f"linear: bias shape {b.shape} != ({w.shape[0]},)")
    out = x.data @ w.data.T + b.data[None, :]

    def backward_fn(g):
        dx = g @ w.data if x.requires_grad else None
        dw = g.T @ x.data if w.requires_grad else None
        return (dx, dw, g.sum(axis=0) if b.requires_grad else None)

    return make_op(out, (x, w, b), backward_fn)


def global_avg_pool(x) -> Tensor:
    """(N, C, H, W) -> (N, C) spatial mean."""
    if x.ndim != 4:
        raise ShapeMismatch(f"global_avg_pool: need 4D input, got {x.shape}")
    N, C, H, W = x.shape

    def backward_fn(g):
        return (np.broadcast_to(g[:, :, None, None] / (H * W), (N, C, H, W)),)

    return make_op(x.data.mean(axis=(2, 3)), (x,), backward_fn)


def _log_softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=1, keepdims=True))


def _cross_entropy(logits: Tensor, labels) -> tuple[float, np.ndarray]:
    """Mean cross-entropy between softmax(logits) and integer labels, and
    its gradient times the batch size (softmax minus one-hot)."""
    labels = np.asarray(labels)
    if logits.ndim != 2:
        raise ShapeMismatch(f"need (batch, classes) logits, got {logits.shape}")
    if labels.shape != (logits.shape[0],) or not np.issubdtype(labels.dtype, np.integer):
        raise ShapeMismatch(f"labels must be {logits.shape[0]} integers, got {labels.shape}")
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= logits.shape[1]:
        raise ShapeMismatch("label id outside class range")
    rows = np.arange(logits.shape[0])
    logp = _log_softmax(logits.data)
    dz = np.exp(logp)
    dz[rows, labels] -= 1.0
    return -logp[rows, labels].mean(), dz


def softmax_cross_entropy(logits, labels) -> Tensor:
    """Mean cross-entropy between softmax(logits) and integer labels."""
    loss, dz = _cross_entropy(logits, labels)
    N = logits.shape[0]
    return make_op(np.asarray(loss), (logits,), lambda g: (g * dz / N,))


def kd_loss(student_logits, teacher_logits, hard_labels, temperature: float = 4.0,
            mix: float = 0.5) -> Tensor:
    """Distillation objective mixing hard and soft targets.

    loss = mix * CE(student, hard) +
           (1 - mix) * T^2 * KL(softmax(teacher/T) || softmax(student/T))

    The KL term is a mean over the batch.  Gradients flow to the student
    logits only; the teacher enters as a constant.
    """
    if not temperature > 0:
        raise InvalidHyperparameter(f"temperature must be > 0, got {temperature}")
    if not 0.0 <= mix <= 1.0:
        raise InvalidHyperparameter(f"mix must lie in [0, 1], got {mix}")
    ce, d_hard = _cross_entropy(student_logits, hard_labels)
    teacher = teacher_logits.data if isinstance(teacher_logits, Tensor) else np.asarray(
        teacher_logits, dtype=np.float64)
    if teacher.shape != student_logits.shape:
        raise ShapeMismatch(f"teacher logits {teacher.shape} != student {student_logits.shape}")
    N = student_logits.shape[0]
    T = float(temperature)

    logq = _log_softmax(student_logits.data / T)
    logp_t = _log_softmax(teacher / T)
    p_t = np.exp(logp_t)
    kl = float((p_t * (logp_t - logq)).sum(axis=1).mean())
    loss = mix * ce + (1.0 - mix) * T * T * kl

    def backward_fn(g):
        d_soft = np.exp(logq) - p_t
        return (g * (mix * d_hard + (1.0 - mix) * T * d_soft) / N,)

    return make_op(np.asarray(loss), (student_logits,), backward_fn)
