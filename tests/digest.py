"""Byte digest of the numeric core, for checking that a change to it leaves
every output byte as it was.

Run from the root of a checkout:

    PYTHONPATH=src python3 tests/digest.py

and against another tree's sources (say a clean checkout of the parent
commit) with ``PYTHONPATH=<tree>/src python3 tests/digest.py``.  Two trees
compute the same bytes when the totals on the last line are equal.

For each micro net (32x32 input, batch 24, seed 3; every pool family,
every valid variant, both conv pads) it hashes the parameter gradients of
two cross-entropy SGD steps (momentum 0.9, weight decay 5e-4) and of one
distillation step, the final state, the ``no_grad`` logits at batches of 7
and 24, and the input gradients of a recorded eval forward of 5 images.
It also hashes ``max_pool2``'s forward and backward, and for every
wavelet in ``supported_wavelets()`` its four filters, ``dwt1d`` and
``idwt1d`` of a seeded 64-vector, and the ``dwt2d`` bands, ``idwt2d`` and
``reconstruct_lowpass`` of a seeded 64x64 image.  It prints one line per
wavelet and per net, and the total over all of them.

The digest depends on the BLAS build and its thread count, so compare two
trees on one machine only; no test asserts its value.
"""

import hashlib
import os
import sys

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy is imported

import numpy as np  # noqa: E402

from wavepool.autodiff import Tensor, make_rng, no_grad  # noqa: E402
from wavepool.backbone import VARIANTS, Network, micro_schedule  # noqa: E402
from wavepool.data import make_tiny_object_set  # noqa: E402
from wavepool.filterbank import parse_wavelet, supported_wavelets  # noqa: E402
from wavepool.ops import PAD_MODES, kd_loss, softmax_cross_entropy  # noqa: E402
from wavepool.optim import sgd_step, zero_grads  # noqa: E402
from wavepool.pooling import max_pool2, parse_pool  # noqa: E402
from wavepool.transforms import dwt1d, dwt2d, idwt1d, idwt2d, reconstruct_lowpass  # noqa: E402

POOLS = ("max", "avg", "strided", "blur:1-2-1", "wavelet:haar", "wavelet:db4", "wavelet:ch3.3")
BATCH, SIZE, CLASSES, SEED = 24, 32, 4, 3


def _update(h, arrays):
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())


def _step(h, model, loss):
    loss.backward()
    params = model.parameters()
    _update(h, (p.grad for p in params))
    sgd_step(params, lr=0.05, momentum=0.9, weight_decay=5e-4)
    zero_grads(params)


def net_digest(data, teacher, pool: str, variant: str, pad: str) -> str:
    h = hashlib.sha256()
    mean, std = data.channel_stats()
    model = Network(micro_schedule(), parse_pool(pool), variant, num_classes=CLASSES,
                    seed=SEED, conv_pad=pad, input_mean=mean, input_std=std)
    x, y = data.images, data.labels
    for _ in range(2):
        _step(h, model, softmax_cross_entropy(model(x, training=True), y))
    _step(h, model, kd_loss(model(x, training=True), teacher, y))
    _update(h, (t for _name, t in model.state()))
    with no_grad():
        _update(h, (model(x[:n]).data for n in (7, BATCH)))
    x5 = Tensor(x[:5], requires_grad=True)
    model(x5).backward(make_rng(SEED).normal(size=(5, CLASSES)))
    _update(h, (x5.grad,))
    return h.hexdigest()


def max_pool_digest() -> str:
    rng = make_rng(SEED)
    x = Tensor(rng.normal(size=(BATCH, 8, 16, 16)), requires_grad=True)
    out = max_pool2(x)
    out.backward(rng.normal(size=out.shape))
    h = hashlib.sha256()
    _update(h, (out.data, x.grad))
    return h.hexdigest()


def wavelet_digest(name: str) -> str:
    spec = parse_wavelet(name)
    rng = make_rng(SEED)
    x, image = rng.normal(size=64), rng.normal(size=(64, 64))
    low, high = dwt1d(x, spec)
    bands = dwt2d(image, spec)
    h = hashlib.sha256()
    _update(h, (spec.analysis_low, spec.analysis_high, spec.synthesis_low, spec.synthesis_high))
    _update(h, (low, high, idwt1d(low, high, spec)))
    _update(h, (bands.ll, bands.lh, bands.hl, bands.hh, idwt2d(bands, spec)))
    _update(h, (reconstruct_lowpass(image, spec),))
    return h.hexdigest()


def main() -> int:
    data = make_tiny_object_set(BATCH, SIZE, 4, CLASSES, seed=SEED)
    teacher = make_rng(SEED).normal(size=(BATCH, CLASSES))
    total = hashlib.sha256()
    rows = [("max_pool2", max_pool_digest())]
    print(*rows[0], flush=True)
    for name in supported_wavelets():
        rows.append((f"wavelet {name}", wavelet_digest(name)))
        print(*rows[-1], flush=True)
    for pool in POOLS:
        for variant in ("a",) if pool == "strided" else VARIANTS:
            for pad in PAD_MODES:
                digest = net_digest(data, teacher, pool, variant, pad)
                rows.append((f"{pool} {variant} {pad}", digest))
                print(*rows[-1], flush=True)
    for _name, digest in rows:
        total.update(digest.encode())
    print(f"total {total.hexdigest()} over {len(rows)} lines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
