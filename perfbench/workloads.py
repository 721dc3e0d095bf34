"""The four benchmark workloads: seeded inputs, one timed operation, checks.

Each workload is a closed loop with one caller: ``op()`` runs one operation
(a training step, an eval round, a transform round) and the next starts
when it returns.  The constructor is the set-up: it generates the inputs
from the seed, writes the files wavepool reads, and builds the network.
``warmup()`` runs the operations that are checked against a reference and
are not timed; ``check(result)`` checks each timed operation's output and
returns a list of problems.  ``mpixels_per_op`` is the input the operation
processes.

The inputs are made here from the seed, not by wavepool: tiny-object images
(smooth background plus one small period-2 texture patch whose texture is
the label), the files they are stored in, and the network's init seed.
"""

from __future__ import annotations

import math
import os

import numpy as np

from wavepool import analysis, backbone, config, filterbank, imageio, ops, optim, transforms
from wavepool.autodiff import no_grad

from reference import first_step_loss, first_step_slope

IMAGE_SIZE = 32
OBJECT_SIZE = 6
CLASSES = 4
BATCH = 50
TRAIN_IMAGES = 500  # ten batches, cycled
LR = 0.08
MOMENTUM = 0.9
EVAL_STATS_IMAGES = 200  # training split read only for the input normalization
EVAL_IMAGES = 200  # shift_consistency forwards the whole set as one batch
MAX_SHIFT = 1
EXACT_SHIFT = (8, 8)  # three 2x down-samplings with circular padding
EXACT_SHIFT_IMAGES = 50
TRANSFORM_SIZE = 512
TRANSFORM_IMAGES = 4
RECONSTRUCTION_TOL = 1e-10
LOSS_RTOL = 1e-9
SLOPE_RTOL = 1e-6
REPEAT_RTOL = 1e-12

CONFIG = """\
[dataset]
kind = {kind}
path = {path}
image_size = {size}
classes = {classes}

[model]
schedule = micro
pool = {pool}
variant = c
conv_pad = circular

[train]
batch_size = {batch}
lr = {lr}
momentum = {momentum}
seed = {seed}
"""


def seeded_rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, stream])))


def tiny_object_images(rng, n: int, size: int, channels: int = 3):
    """n images in [0, 1] of shape (channels, size, size) and balanced labels."""
    labels = rng.permutation(np.arange(n) % CLASSES)
    i = np.arange(size)
    cycles = rng.integers(0, 3, size=(n, channels, 2, 2))  # at most 2 per axis
    phase = rng.uniform(0.0, 2 * np.pi, size=(n, channels, 2, 1, 1))
    arg = (
        cycles[..., 0, None, None] * i[:, None] + cycles[..., 1, None, None] * i[None, :]
    ) * (2 * np.pi / size) + phase
    bg = np.cos(arg).sum(axis=2)
    peak = np.abs(bg).max(axis=(2, 3), keepdims=True)
    images = 0.5 + 0.2 * bg / np.where(peak > 0, peak, 1.0)
    ii, jj = np.meshgrid(np.arange(OBJECT_SIZE), np.arange(OBJECT_SIZE), indexing="ij")
    dots = np.where((ii % 2 == 0) & (jj % 2 == 0), 1.0, 0.0)
    textures = np.stack([(-1.0) ** (ii + jj), (-1.0) ** ii, (-1.0) ** jj,
                         (dots - dots.mean()) / np.abs(dots - dots.mean()).max()])
    slots = rng.integers(0, (size - OBJECT_SIZE) // 2 + 1, size=(n, 2)) * 2
    for k in range(n):
        r, c = slots[k]
        images[k, :, r:r + OBJECT_SIZE, c:c + OBJECT_SIZE] += 0.3 * textures[labels[k]]
    return np.clip(images, 0.0, 1.0), labels


def write_wvds(path, images: np.ndarray, labels: np.ndarray) -> None:
    """Image-set file: magic, u32 version N C H W classes, u32 labels, f8 pixels."""
    n, c, h, w = images.shape
    with open(path, "wb") as f:
        f.write(b"WVDS")
        f.write(np.array([1, n, c, h, w, CLASSES], dtype="<u4").tobytes())
        f.write(labels.astype("<u4").tobytes())
        f.write(images.astype("<f8").tobytes())


def write_cifar(path, images: np.ndarray, labels: np.ndarray) -> None:
    """CIFAR-100 binary records: coarse label, fine label, 3072 pixel bytes."""
    pixels = np.rint(images * 255).astype(np.uint8).reshape(len(images), -1)
    coarse = np.zeros((len(images), 1), dtype=np.uint8)
    fine = labels.astype(np.uint8).reshape(-1, 1)
    with open(path, "wb") as f:
        f.write(np.concatenate([coarse, fine, pixels], axis=1).tobytes())


def write_pgm16(path, image: np.ndarray) -> None:
    h, w = image.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n65535\n".encode("ascii"))
        f.write(np.rint(image * 65535).astype(">u2").tobytes())


def _config(kind: str, path: str, pool: str, seed: int):
    text = CONFIG.format(kind=kind, path=path, size=IMAGE_SIZE, classes=CLASSES, pool=pool,
                         batch=BATCH, lr=LR, momentum=MOMENTUM, seed=seed)
    return config.parse_config(text)


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


class Train:
    """Training steps on the acceptance configuration with one pool kind."""

    mpixels_per_op = BATCH * IMAGE_SIZE * IMAGE_SIZE / 1e6

    def __init__(self, pool: str, seed: int, workdir: str, tracer):
        self.pool = pool
        self.seed = seed
        images, labels = tiny_object_images(seeded_rng(seed, 0), TRAIN_IMAGES, IMAGE_SIZE)
        path = os.path.join(workdir, "train.wvds")
        write_wvds(path, images, labels)
        # the reference normalizes the input with statistics of its own
        self.stats = images.mean(axis=(0, 2, 3)), np.maximum(images.std(axis=(0, 2, 3)), 1e-8)
        cfg = _config("file", path, pool, seed)
        self.train_set = tracer.wrap("data.load", analysis.load_dataset)(cfg, "train")
        self.model = analysis.build_model_from_config(
            cfg, self.train_set.class_count, self.train_set)
        self.params = self.model.parameters()
        self.sgd_step = tracer.wrap("optim.step", optim.sgd_step)
        self.zero_grads = tracer.wrap("optim.step", optim.zero_grads)
        self.tracer = tracer
        self.order_rng = seeded_rng(seed, 1)
        self.order = np.empty(0, dtype=np.int64)

    def _batch(self):
        with self.tracer.span("data.batch"):
            if self.order.size < BATCH:
                self.order = self.order_rng.permutation(len(self.train_set))
            idx, self.order = self.order[:BATCH], self.order[BATCH:]
            return self.train_set.images[idx], self.train_set.labels[idx]

    def _step(self, x, y) -> float:
        loss = ops.softmax_cross_entropy(self.model.forward(x, training=True), y)
        loss.backward()
        self.sgd_step(self.params, lr=LR, momentum=MOMENTUM)
        self.zero_grads(self.params)
        return loss.item()

    def op(self) -> float:
        return self._step(*self._batch())

    def check(self, loss: float) -> list[str]:
        return [] if math.isfinite(loss) else [f"loss is not finite: {loss}"]

    def warmup(self) -> list[str]:
        """First step checked against the float64 reference: its loss, and
        its parameter update along a seeded random direction against the
        loss's slope there.  The second step warms."""
        x, y = self._batch()
        state = {name: arr.copy() for name, arr in self.model.state()}
        learnable = [name for name, arr in self.model.state()
                     if any(arr is p.data for p in self.params)]
        rng = seeded_rng(self.seed, 2)
        direction = {name: rng.standard_normal(state[name].shape) for name in learnable}
        filt = filterbank.parse_wavelet(self.pool.partition(":")[2]).analysis_low
        gates = []
        want = first_step_loss(state, x, y, *self.stats, filt, gates)
        want_slope = first_step_slope(state, direction, x, y, *self.stats, filt, gates)
        got = self._step(x, y)
        # The momentum buffer starts at zero, so the first step moves the
        # parameters by -LR times the gradient.
        got_slope = sum(float(((state[name] - arr) * direction[name]).sum())
                        for name, arr in self.model.state() if name in direction) / LR
        problems = self.check(got)
        if not _close(got, want, LOSS_RTOL):
            problems.append(f"first-step loss {got!r} != reference {want!r}")
        if not _close(got_slope, want_slope, SLOPE_RTOL):
            problems.append(f"first-step update along a random direction {got_slope!r} "
                            f"!= reference slope {want_slope!r}")
        return problems + self.check(self.op())


class EvalShift:
    """The ``wavepool consistency`` path: evaluate, then shift consistency."""

    # evaluate forwards the set once; shift_consistency forwards it unshifted
    # and once per shift
    images_per_op = EVAL_IMAGES * (2 + MAX_SHIFT * MAX_SHIFT)
    mpixels_per_op = images_per_op * IMAGE_SIZE * IMAGE_SIZE / 1e6

    def __init__(self, seed: int, workdir: str, tracer):
        root = os.path.join(workdir, "cifar")
        os.makedirs(root, exist_ok=True)
        rng = seeded_rng(seed, 0)
        for split, n in (("train", EVAL_STATS_IMAGES), ("test", EVAL_IMAGES)):
            write_cifar(os.path.join(root, f"{split}.bin"),
                        *tiny_object_images(rng, n, IMAGE_SIZE))
        cfg = _config("cifar100", root, "wavelet:haar", seed)
        load = tracer.wrap("data.load", analysis.load_dataset)
        train_set = load(cfg, "train")
        self.test_set = load(cfg, "test")
        checkpoint = os.path.join(workdir, "seeded.wvpk")
        backbone.save_checkpoint(
            analysis.build_model_from_config(cfg, train_set.class_count, train_set), checkpoint)
        self.model = analysis.build_model_from_config(cfg, train_set.class_count, train_set)
        backbone.load_checkpoint(self.model, checkpoint)
        self.evaluate = tracer.wrap("analysis.evaluate", analysis.evaluate)
        self.consistency = tracer.wrap("analysis.consistency", analysis.shift_consistency)
        self.first = None

    def op(self):
        loss, acc = self.evaluate(self.model, self.test_set)
        report = self.consistency(self.model, self.test_set, MAX_SHIFT)
        return loss, acc, report.value("argmax_agreement"), report.value("logit_cosine")

    def check(self, result) -> list[str]:
        loss, acc, agree, cosine = result
        problems = []
        if not (math.isfinite(loss) and 0.0 <= acc <= 1.0 and 0.0 <= agree <= 1.0
                and -1.0 <= cosine <= 1.0 + 1e-12):
            problems.append(f"eval result out of range: {result}")
        if self.first is None:
            self.first = result
        elif not all(_close(a, b, REPEAT_RTOL) for a, b in zip(result, self.first)):
            problems.append(f"eval result {result} differs from first round {self.first}")
        return problems

    def warmup(self) -> list[str]:
        """Logits of a circular shift by the network's total stride are unchanged."""
        images = self.test_set.images[:EXACT_SHIFT_IMAGES]
        with no_grad():
            base = self.model.forward(images).data
            shifted = self.model.forward(np.roll(images, EXACT_SHIFT, axis=(2, 3))).data
        err = float(np.abs(shifted - base).max())
        scale = float(np.abs(base).max())
        if not err <= 1e-9 * max(scale, 1.0):
            return [f"{EXACT_SHIFT} shift moved logits by {err} (scale {scale})"]
        return []


class Transform:
    """``dwt2d``, ``idwt2d`` and ``reconstruct_lowpass`` for every wavelet."""

    def __init__(self, seed: int, workdir: str, tracer):
        rng = seeded_rng(seed, 0)
        images, _labels = tiny_object_images(rng, TRANSFORM_IMAGES, TRANSFORM_SIZE, channels=1)
        noisy = np.clip(images[:, 0] + 0.05 * rng.standard_normal(images[:, 0].shape), 0, 1)
        read = tracer.wrap("data.load", imageio.read_image)
        self.images = []
        for k, image in enumerate(noisy):
            path = os.path.join(workdir, f"image{k}.pgm")
            write_pgm16(path, image)
            self.images.append(read(path))
        self.specs = [filterbank.parse_wavelet(name) for name in filterbank.supported_wavelets()]
        self.dwt2d = tracer.wrap("transforms.dwt2d", transforms.dwt2d)
        self.idwt2d = tracer.wrap("transforms.idwt2d", transforms.idwt2d)
        self.lowpass = tracer.wrap("transforms.lowpass", transforms.reconstruct_lowpass)
        self.next = 0
        self.mpixels_per_op = len(self.specs) * TRANSFORM_SIZE * TRANSFORM_SIZE / 1e6

    def op(self):
        x = self.images[self.next]
        self.next = (self.next + 1) % len(self.images)
        out = []
        for spec in self.specs:
            bands = self.dwt2d(x, spec)
            out.append((x, bands.ll, self.idwt2d(bands, spec), self.lowpass(x, spec)))
        return out

    def check(self, result) -> list[str]:
        """Perfect reconstruction, and the low-pass projection keeps x's ll
        and nothing else: its own transform is (ll, 0, 0, 0)."""
        problems = []
        for spec, (x, ll, back, low) in zip(self.specs, result):
            err = float(np.abs(back - x).max())
            if not err <= RECONSTRUCTION_TOL:
                problems.append(f"{spec.name}: reconstruction error {err}")
            bands = transforms.dwt2d(low, spec)
            err = max(float(np.abs(bands.ll - ll).max()),
                      *(float(np.abs(b).max()) for b in (bands.lh, bands.hl, bands.hh)))
            if not err <= RECONSTRUCTION_TOL:
                problems.append(f"{spec.name}: low-pass projection off by {err}")
        return problems

    def warmup(self) -> list[str]:
        return self.check(self.op())


def make(name: str, seed: int, workdir: str, tracer):
    if name == "train_haar":
        return Train("wavelet:haar", seed, workdir, tracer)
    if name == "train_db4":
        return Train("wavelet:db4", seed, workdir, tracer)
    if name == "eval_shift":
        return EvalShift(seed, workdir, tracer)
    if name == "transform":
        return Transform(seed, workdir, tracer)
    raise ValueError(f"unknown workload {name!r}")
