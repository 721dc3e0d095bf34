"""Aliasing measurements, shift-consistency scoring, and experiment runs.

The quantitative story: down-sampling a signal with content above the
half-band frequency folds that content onto lower frequencies unless an
anti-aliasing filter removes it first.  ``alias_energy_sweep`` measures the
fold on pure plane waves, and ``spectrum_energy_fraction_above`` a map's
energy above a cutoff, both with numpy's FFT; ``shift_consistency`` measures
the practical symptom (predictions that flip under small input shifts);
``train_model`` trains micro networks so the numbers can be compared across
pooling operators.

All randomness in an experiment derives from the single config seed, and
wall-clock time is quarantined in report metadata, so two runs of one
config produce bit-identical metric rows.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import backbone as bb
from .autodiff import Tensor, make_rng, no_grad
from .config import ExperimentConfig, config_hash, serialize_config
from .data import LabeledImageSet, load_cifar100, load_image_set, make_tiny_object_set
from .errors import InvalidConfig
from .ops import kd_loss, softmax_cross_entropy
from .optim import LR_SCHEDULES, sgd_step, zero_grads
from .pooling import PoolKind, parse_pool


@dataclass
class MetricsReport:
    """Named scalar metrics plus run metadata.

    ``metrics`` maps name -> (value, unit).  Metadata (config hash, seed,
    wall-clock) lives outside the metric rows so CSV output is bit-identical
    across reruns of one config.
    """

    metrics: dict = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)

    def add(self, name: str, value: float, unit: str = "") -> None:
        self.metrics[name] = (float(value), unit)

    def value(self, name: str) -> float:
        return self.metrics[name][0]

    # -- serialization ------------------------------------------------------

    def to_csv(self) -> str:
        lines = ["name,value,unit"]
        for name, (value, unit) in self.metrics.items():
            lines.append(f"{name},{value!r},{unit}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = {
            "metadata": self.metadata,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in self.metrics.items()},
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def write(self, outdir, stem: str) -> tuple[str, str]:
        """Write CSV and JSON next to each other; returns the two paths."""
        os.makedirs(outdir or os.curdir, exist_ok=True)
        csv_path = os.path.join(outdir, stem + ".csv")
        json_path = os.path.join(outdir, stem + ".json")
        for path, text in ((csv_path, self.to_csv()), (json_path, self.to_json())):
            with open(path, "w", encoding="utf-8") as f:
                f.write(text)
        return csv_path, json_path


# ---------------------------------------------------------------------------
# spectra


def spectrum_energy_fraction_above(x, cutoff: float) -> float:
    """Fraction of spectral energy at frequencies max(|wi|, |wj|) >= cutoff.

    Bin k of an n-point axis sits at 2 pi |k| / n, k signed; the test runs
    as |k| / n >= cutoff / 2 pi, which a bin on the cutoff passes exactly.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise InvalidConfig(f"spectrum expects a matrix, got shape {x.shape}")
    spec = np.abs(np.fft.fft2(x)) ** 2
    (m, n), f = x.shape, cutoff / (2 * np.pi)
    i, j = np.arange(m), np.arange(n)
    mask = (np.minimum(i, m - i)[:, None] / m >= f) | (np.minimum(j, n - j)[None, :] / n >= f)
    total = spec.sum()
    return float(spec[mask].sum() / total) if total else 0.0


# ---------------------------------------------------------------------------
# alias energy sweep

_SWEEP_GRID = 64


def _on_grid_bin(freq: float, n: int) -> int:
    # the range test comes first: it also rejects nan and inf, which round()
    # cannot take; bin 0 is DC, not a probe in (0, pi]
    if 0 < freq <= np.pi:
        k = round(freq * n / (2 * np.pi))
        if k > 0 and abs(k * 2 * np.pi / n - freq) <= 1e-9:
            return int(k)
    raise InvalidConfig(f"frequency {freq:.6f} is not an exact bin of the {n}-point sweep grid")


def alias_energy_sweep(pool: PoolKind, freqs) -> MetricsReport:
    """Energy retention and alias folding for diagonal plane waves.

    For each frequency w the probe is the quadrature pair of the plane
    wave exp(i w (a+b)) on a 64x64 grid: the pooling operator runs on the
    cosine and sine parts separately and the two outputs are recombined as
    a complex signal.  A complex probe has constant power, so a linear
    energy-normalized pool can never exceed unit ratio by sampling the
    wave at its extremes the way a fixed-phase cosine can be sampled.
    After dividing by the operator's DC gain the report carries:

    - ``energy_ratio@...``: mean squared output over mean squared input;
    - ``folded_fraction@...``: fraction of output spectral energy at the
      bin where 2w lands after decimation, i.e. the location the content
      occupies in the half-resolution signal;
    - ``folded_freq@...``: that landing frequency, in units of pi;
    - ``folded_below_nyquist@...``: 1.0 when the landing frequency had to
      wrap (2w beyond the output band), the aliasing case.  This row and
      ``folded_freq`` describe the probe, so they are the same for every pool.

    The unit-ratio bound applies to energy-normalized linear pools: avg,
    blur, naive decimation, and orthonormal-wavelet pools (their analysis
    response satisfies |L(w)|^2 <= L(0)^2).  Biorthogonal analysis filters
    legitimately exceed their DC gain in-band (the dual synthesis filter
    compensates), and max pooling is nonlinear; both report descriptive
    numbers outside the bound.
    """
    freqs = list(freqs)
    if not freqs:
        raise InvalidConfig("alias sweep needs at least one frequency")
    n = _SWEEP_GRID
    bins = [_on_grid_bin(freq, n) for freq in freqs]
    i = np.arange(n)
    grid = i[:, None] + i[None, :]
    op = pool.op()
    gain = pool.dc_gain()
    report = MetricsReport(metadata={"pool": pool.config_string(), "grid": str(n)})
    for j, (freq, k) in enumerate(zip(freqs, bins)):
        if k in bins[:j]:  # rows are keyed by frequency, so one per bin
            raise InvalidConfig(f"frequency {freq:.6f} repeats bin {k} of an earlier one")
        x_re = np.cos(freq * grid)
        x_im = np.sin(freq * grid)
        y_re, y_im = op(Tensor(np.stack([x_re, x_im])[:, None])).data[:, 0] / gain
        in_power = np.mean(x_re**2 + x_im**2)  # == 1
        ratio = float(np.mean(y_re**2 + y_im**2) / in_power)
        label = f"{freq / np.pi:.4f}pi"
        report.add(f"energy_ratio@{label}", ratio, "ratio")

        # Decimation doubles the frequency: the wave lands on diagonal bin
        # k mod (n/2) of the half grid.
        n_out = n // 2
        k_fold = k % n_out
        spec = np.abs(np.fft.fft2(y_re + 1j * y_im)) ** 2
        total = spec.sum()
        folded = spec[k_fold, k_fold]
        # below 1e-20 the output is rounding noise at a filter null, not a
        # response (the weakest real one in a sweep is about 4e-12)
        report.add(
            f"folded_fraction@{label}",
            float(folded / total) if ratio > 1e-20 else 0.0,
            "fraction",
        )
        k_signed = k_fold if k_fold <= n_out // 2 else k_fold - n_out
        report.add(f"folded_freq@{label}", abs(k_signed) * 2.0 / n_out, "pi")
        # aliasing proper: 2w exceeds the output Nyquist, so the content
        # wraps to a lower frequency instead of a faithful doubling
        report.add(f"folded_below_nyquist@{label}", 1.0 if k > n // 4 else 0.0, "flag")
    return report


# ---------------------------------------------------------------------------
# shift consistency


def _cosine(a: np.ndarray, b: np.ndarray) -> float:
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 and nb == 0.0:
        return 1.0  # zero logits tie: documented convention
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.dot(a, b) / (na * nb))


def shift_consistency(model, dataset: LabeledImageSet, max_shift: int,
                      sample_limit: int = 0) -> MetricsReport:
    """Prediction stability under circular input shifts.

    For every sample and every shift (dr, dc) in [1, max_shift]^2 the image
    is rolled circularly and re-classified; the report carries the mean
    argmax agreement with the unshifted prediction and the mean cosine
    similarity of logits.  Circular shifts match the periodic convolution
    semantics, making full-stride agreement an exact identity.
    """
    side = min(dataset.images.shape[2:])
    if not 1 <= max_shift < side:
        raise InvalidConfig(f"max_shift must be in [1, {side}), the image side, got {max_shift}")
    if sample_limit < 0:
        raise InvalidConfig(f"sample_limit must be >= 0, got {sample_limit}")
    images = dataset.images
    if sample_limit:
        images = images[:sample_limit]
    n = images.shape[0]
    agree = []
    cosines = []
    with no_grad():
        base = model.forward(images, training=False).data
        base_cls = base.argmax(axis=1)
        for dr in range(1, max_shift + 1):
            for dc in range(1, max_shift + 1):
                shifted = np.roll(images, shift=(dr, dc), axis=(2, 3))
                out = model.forward(shifted, training=False).data
                agree.append(np.mean(out.argmax(axis=1) == base_cls))
                cosines.extend(_cosine(base[s], out[s]) for s in range(n))
    report = MetricsReport(metadata={"max_shift": str(max_shift), "samples": str(n)})
    report.add("argmax_agreement", float(np.mean(agree)), "fraction")
    report.add("logit_cosine", float(np.mean(cosines)), "similarity")
    return report


# ---------------------------------------------------------------------------
# experiment driver

# images per forward in ``evaluate``; the classifier runs one GEMM per
# forward, so the logits' bytes depend on it
EVAL_BATCH = 100


def load_dataset(cfg: ExperimentConfig, split: str, data_dir: str = "") -> LabeledImageSet:
    ds = cfg.dataset
    if ds.kind == "synthetic":
        n = ds.n_train if split == "train" else ds.n_test
        # disjoint deterministic streams per split
        seed = cfg.train.seed * 2 + (0 if split == "train" else 1)
        return make_tiny_object_set(n, ds.image_size, ds.object_size, ds.classes, seed=seed)
    path = os.path.join(data_dir, ds.path)
    if ds.kind == "cifar100":
        return load_cifar100(path, split)
    return load_image_set(path)


def build_model_from_config(cfg: ExperimentConfig, num_classes: int,
                            data: LabeledImageSet, pool: str | None = None) -> bb.Network:
    """The configured network over ``data``'s channels, its input normalized
    by ``data``'s channel stats (until a checkpoint replaces them)."""
    mean, std = data.channel_stats()
    return bb.Network(
        cfg.model.layout(),
        parse_pool(pool if pool is not None else cfg.model.pool),
        cfg.model.variant,
        num_classes=num_classes,
        seed=cfg.train.seed,
        conv_pad=cfg.model.conv_pad,
        input_mean=mean, input_std=std, in_channels=data.images.shape[1],
    )


def evaluate(model, dataset: LabeledImageSet):
    """(mean cross-entropy, accuracy) over a dataset, forwarded in batches
    of ``EVAL_BATCH`` images."""
    total_loss = 0.0
    correct = 0
    n = len(dataset)
    with no_grad():
        for start in range(0, n, EVAL_BATCH):
            x = dataset.images[start:start + EVAL_BATCH]
            y = dataset.labels[start:start + EVAL_BATCH]
            logits = model.forward(x, training=False)
            total_loss += softmax_cross_entropy(logits, y).item() * len(y)
            correct += int(np.sum(logits.data.argmax(axis=1) == y))
    return total_loss / n, correct / n


def train_model(cfg: ExperimentConfig, data_dir: str = "",
                checkpoint_dir: str | None = None):
    """Train a model per config; returns (model, MetricsReport).

    Modes: ``plain`` trains on cross-entropy; ``kd`` distills from a
    serialized teacher via kd_loss, building the teacher from the same
    schedule with the config's ``teacher_pool`` operator.  Deterministic
    given the config seed.  The dataset and teacher paths are joined to
    ``data_dir``.  When ``checkpoint_dir`` is set, parameters are
    serialized after every epoch plus a final checkpoint.
    """
    t0 = time.time()
    t = cfg.train
    train_set = load_dataset(cfg, "train", data_dir)
    test_set = load_dataset(cfg, "test", data_dir)
    model = build_model_from_config(cfg, train_set.class_count, train_set)
    params = model.parameters()

    teacher = None
    if t.mode == "kd":
        teacher = build_model_from_config(
            cfg, train_set.class_count, train_set, pool=t.teacher_pool
        )
        bb.load_checkpoint(teacher, os.path.join(data_dir, t.teacher))

    report = MetricsReport(
        metadata={
            "config_hash": config_hash(cfg),
            "seed": str(t.seed),
            "mode": t.mode,
            "pool": cfg.model.pool,
        }
    )
    shuffle_rng = make_rng(t.seed + 1)
    n = len(train_set)
    if checkpoint_dir:
        os.makedirs(checkpoint_dir, exist_ok=True)

    for epoch in range(t.epochs):
        lr = LR_SCHEDULES[t.lr_schedule](t, epoch)
        order = shuffle_rng.permutation(n)
        epoch_loss = 0.0
        epoch_correct = 0
        for start in range(0, n, t.batch_size):
            batch = order[start:start + t.batch_size]
            x = train_set.images[batch]
            y = train_set.labels[batch]
            logits = model.forward(x, training=True)
            if teacher is not None:
                with no_grad():
                    teacher_logits = teacher.forward(x, training=False)
                loss = kd_loss(logits, teacher_logits.data, y, t.temperature, t.alpha)
            else:
                loss = softmax_cross_entropy(logits, y)
            loss.backward()
            sgd_step(params, lr=lr, momentum=t.momentum, weight_decay=t.weight_decay)
            zero_grads(params)
            epoch_loss += loss.item() * len(batch)
            epoch_correct += int(np.sum(logits.data.argmax(axis=1) == y))
        report.add(f"train_loss_epoch{epoch}", epoch_loss / n, "nats")
        report.add(f"train_accuracy_epoch{epoch}", epoch_correct / n, "fraction")
        if checkpoint_dir:
            bb.save_checkpoint(
                model, os.path.join(checkpoint_dir, f"epoch{epoch:03d}.wvpk")
            )

    test_loss, test_acc = evaluate(model, test_set)
    report.add("final_train_loss", report.value(f"train_loss_epoch{t.epochs - 1}"), "nats")
    report.add("final_test_loss", test_loss, "nats")
    report.add("final_test_accuracy", test_acc, "fraction")
    report.add("param_count", bb.count_params(model), "params")
    report.metadata["wallclock_s"] = f"{time.time() - t0:.3f}"
    report.metadata["config"] = serialize_config(cfg)
    if checkpoint_dir:
        bb.save_checkpoint(model, os.path.join(checkpoint_dir, "final.wvpk"))
    return model, report
