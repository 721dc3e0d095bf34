"""Float64 reference for the first training step of the micro net.

It recomputes the loss of the benchmark's training configuration (micro
schedule, variant c, circular padding, wavelet pooling, batchnorm in
training mode) from the network's checkpoint tensors, written out plainly:
convolution as a sum of rolled copies, the wavelet LL subband as a product
with the periodic analysis matrix.  It shares no code with wavepool's
forward pass, so a change to that pass that alters the arithmetic beyond
rounding shows as a mismatch.

``first_step_slope`` gives the loss's derivative along a direction in
parameter space by central difference.  It checks wavepool's backward pass
and SGD update without a reference backward of its own.
"""

from __future__ import annotations

import numpy as np

BN_EPS = 1e-5


def _conv(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Stride-1 circular cross-correlation, odd square kernels."""
    k = w.shape[-1]
    p = k // 2
    out = np.zeros((x.shape[0], w.shape[0]) + x.shape[2:])
    for u in range(k):
        for v in range(k):
            shifted = np.roll(x, shift=(p - u, p - v), axis=(2, 3))
            out += np.einsum("nchw,fc->nfhw", shifted, w[:, :, u, v])
    return out


def _batchnorm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray) -> np.ndarray:
    mu = x.mean(axis=(0, 2, 3), keepdims=True)
    var = x.var(axis=(0, 2, 3), keepdims=True)
    return gamma[None, :, None, None] * (x - mu) / np.sqrt(var + BN_EPS) + beta[
        None, :, None, None
    ]


def _analysis_matrix(filt: np.ndarray, n: int) -> np.ndarray:
    """Rows m of the periodic decimating low-pass: a[m, (2m + i) % n] = filt[i]."""
    a = np.zeros((n // 2, n))
    for m in range(n // 2):
        for i, c in enumerate(filt):
            a[m, (2 * m + i) % n] += c
    return a


def _pool(x: np.ndarray, filt: np.ndarray) -> np.ndarray:
    ah = _analysis_matrix(filt, x.shape[2])
    aw = _analysis_matrix(filt, x.shape[3])
    return np.einsum("ih,nchw,jw->ncij", ah, x, aw)


def first_step_loss(state: dict, images: np.ndarray, labels: np.ndarray,
                    mean: np.ndarray, std: np.ndarray, filt: np.ndarray,
                    gates: list | None = None) -> float:
    """Mean cross-entropy of the micro net (variant c) on one batch.

    ``state`` maps checkpoint names to arrays.  The first block of every
    stage down-samples, as in the micro schedule.  ``gates``, if given, holds
    the ReLU on-masks: an empty list is filled with them, a filled one is
    used instead of the ReLU's own.
    """
    replay = iter(gates) if gates else None

    def relu(a):
        if replay is not None:
            return a * next(replay)
        if gates is not None:
            gates.append(a > 0)
        return np.maximum(a, 0.0)

    def bn(name, a):
        return _batchnorm(a, state[name + ".gamma"], state[name + ".beta"])

    h = (images - mean[None, :, None, None]) / std[None, :, None, None]
    h = relu(bn("stem.bn", _conv(h, state["stem.conv.weight"])))
    blocks = sorted({k.rsplit(".", 2)[0] for k in state if k.startswith("stage")})
    for name in blocks:
        down = name.endswith(".block0")
        main = relu(bn(name + ".bn1", _conv(h, state[name + ".conv1.weight"])))
        main = _conv(main, state[name + ".conv2.weight"])
        if down:
            main = _pool(main, filt)
        main = relu(bn(name + ".bn2", main))
        main = bn(name + ".bn3", _conv(main, state[name + ".conv3.weight"]))
        skip = h
        if name + ".skip_conv.weight" in state:
            skip = _conv(h, state[name + ".skip_conv.weight"])
            if down:
                skip = _pool(skip, filt)
            skip = bn(name + ".skip_bn", skip)
        h = relu(main + skip)
    feats = h.mean(axis=(2, 3))
    logits = feats @ state["head.fc.weight"].T + state["head.fc.bias"]
    z = logits - logits.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    return float(-logp[np.arange(len(labels)), labels].mean())


def first_step_slope(state: dict, direction: dict, images: np.ndarray, labels: np.ndarray,
                     mean: np.ndarray, std: np.ndarray, filt: np.ndarray, gates: list,
                     eps: float = 1e-6) -> float:
    """Derivative of the loss at ``state`` along ``direction`` (names to
    arrays, a subset of ``state``'s), by central difference.

    The ReLU gates are held at those of ``state`` (``gates``, as filled by
    ``first_step_loss``): the loss is then smooth along the line, with the
    same derivative at ``state``, and a ReLU that switches within ``eps``
    does not bias the difference.
    """

    def moved(sign):
        out = dict(state)
        out.update({name: state[name] + sign * eps * d for name, d in direction.items()})
        return first_step_loss(out, images, labels, mean, std, filt, gates)

    return (moved(1.0) - moved(-1.0)) / (2 * eps)
