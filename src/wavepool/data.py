"""Datasets: CIFAR-100 binary ingestion and synthetic tiny-object images.

The synthetic generator builds a classification task whose signal lives
almost entirely above the half-band frequency: each image is a smooth
low-frequency background with one small high-frequency textured patch, and
the label is the patch texture.  No pool separates the textures on raw
pixels: of an even-aligned patch on a zero background, ``wavelet:haar`` and
``avg`` leave zero for every texture, ``strided`` and ``max`` leave one
patch identical for all four, and longer filters (db4, ``blur:1-2-1``)
leave only terms at the patch edges.  A network tells the textures apart
only through the convolutions before its first pool.

File formats handled here, byte-exact:

- CIFAR-100 binary (read only): records of 3074 bytes (1 coarse label, 1
  fine label, 3072 image bytes row-major channel-planar R,G,B), ``train.bin``
  holding 50,000 records and ``test.bin`` 10,000.
- image-set flat binary (extension ``.wvds``): header magic ``WVDS``,
  u32 version (=1), u32 N, C, H, W, class_count, all little-endian; then
  N u32 labels; then N*C*H*W float64 little-endian pixels in [0,1].  A
  file with a non-finite pixel or one outside [0, 1] is refused.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

from .autodiff import make_rng
from .errors import (
    CorruptDataset,
    InvalidConfig,
    UnsupportedFormat,
    read_file,
)

CIFAR_RECORD_BYTES = 3074
IMAGESET_MAGIC = b"WVDS"
IMAGESET_VERSION = 1


@dataclass
class LabeledImageSet:
    """Images N x C x H x W as float64 in [0,1] with integer labels."""

    images: np.ndarray
    labels: np.ndarray
    class_count: int

    def __post_init__(self):
        self.images = np.asarray(self.images, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.images.ndim != 4:
            raise InvalidConfig(f"images must be N x C x H x W, got {self.images.shape}")
        n, _c, h, w = self.images.shape
        if self.images.size == 0:
            raise InvalidConfig(f"empty image set refused: shape {self.images.shape}")
        if h % 2 or w % 2:
            raise InvalidConfig(f"image dims must be even, got {h}x{w}")
        if self.labels.shape != (n,):
            raise InvalidConfig(f"labels shape {self.labels.shape} does not match N={n}")
        if self.class_count < 2:
            raise InvalidConfig("class_count must be >= 2")
        if self.labels.min() < 0 or self.labels.max() >= self.class_count:
            raise InvalidConfig("labels out of range [0, class_count)")

    def __len__(self) -> int:
        return self.images.shape[0]

    def channel_stats(self):
        """Per-channel (mean, std) for the model stem's fixed normalization."""
        mean = self.images.mean(axis=(0, 2, 3))
        std = self.images.std(axis=(0, 2, 3))
        return mean, np.maximum(std, 1e-8)


# ---------------------------------------------------------------------------
# CIFAR-100 binary


def read_cifar_records(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Parse a CIFAR-100 binary file into (coarse, fine, images_u8).

    images_u8 has shape (N, 3, 32, 32) and dtype uint8, exactly as stored.
    """
    blob = read_file(path)
    if len(blob) == 0 or len(blob) % CIFAR_RECORD_BYTES:
        raise CorruptDataset(
            f"{path}: size {len(blob)} is not a positive multiple of {CIFAR_RECORD_BYTES}"
        )
    raw = np.frombuffer(blob, dtype=np.uint8).reshape(-1, CIFAR_RECORD_BYTES)
    coarse = raw[:, 0].copy()
    fine = raw[:, 1].copy()
    if fine.max() > 99 or coarse.max() > 19:
        raise CorruptDataset(f"{path}: label byte out of range")
    images = raw[:, 2:].reshape(-1, 3, 32, 32).copy()
    return coarse, fine, images


def load_cifar100(path, split: str) -> LabeledImageSet:
    """Load a CIFAR-100 split, returning fine labels and [0,1] pixels.

    ``path`` may be the dataset directory (containing ``train.bin`` /
    ``test.bin``) or a direct path to one binary file.
    """
    if split not in ("train", "test"):
        raise InvalidConfig(f"split must be 'train' or 'test', got {split!r}")
    if os.path.isdir(path):
        path = os.path.join(path, f"{split}.bin")
    _coarse, fine, images = read_cifar_records(path)
    return LabeledImageSet(
        images=images.astype(np.float64) / 255.0,
        labels=fine.astype(np.int64),
        class_count=100,
    )


# ---------------------------------------------------------------------------
# synthetic tiny-object set

# Patch textures as +/-1 modulations with period 2: all of their spectral
# energy sits at the band edge (|w| = pi on at least one axis), far above
# the pi/2 half-band boundary.
TEXTURE_NAMES = ("checkerboard", "h_stripes", "v_stripes", "dot_grid")


def _texture(kind: int, size: int) -> np.ndarray:
    i, j = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    if kind == 0:  # checkerboard: peak at (pi, pi)
        t = (-1.0) ** (i + j)
    elif kind == 1:  # horizontal stripes: peak at (pi, 0)
        t = (-1.0) ** i
    elif kind == 2:  # vertical stripes: peak at (0, pi)
        t = (-1.0) ** j
    else:  # dot grid: peaks at (pi,0), (0,pi), (pi,pi)
        t = np.where((i % 2 == 0) & (j % 2 == 0), 1.0, 0.0)
        t = t - t.mean()
        t = t / np.max(np.abs(t))
    return t


def _smooth_background(rng, size: int, channels: int) -> np.ndarray:
    """Low-frequency background in [0.3, 0.7]: at most two cycles per axis."""
    i, j = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    bg = np.zeros((channels, size, size))
    for c in range(channels):
        acc = np.zeros((size, size))
        for _ in range(2):
            fi, fj = rng.integers(0, 3, size=2)  # cycles per image, <= 2
            phase = rng.uniform(0, 2 * np.pi)
            acc += np.cos(2 * np.pi * (fi * i + fj * j) / size + phase)
        peak = np.max(np.abs(acc))
        bg[c] = 0.5 + 0.2 * acc / (peak if peak > 0 else 1.0)
    return bg


def check_tiny_object_args(n: int, image_size: int, object_size: int, classes: int) -> None:
    """Raise InvalidConfig unless ``make_tiny_object_set`` can build this set."""
    if n < 1:
        raise InvalidConfig(f"n must be >= 1 (empty set refused), got {n}")
    if not 2 <= object_size <= 8:
        raise InvalidConfig(f"object_size must be in [2, 8], got {object_size}")
    if object_size >= image_size / 4:
        raise InvalidConfig(
            f"object_size {object_size} must be < image_size/4 = {image_size / 4:g}"
        )
    if image_size % 2:
        raise InvalidConfig(f"image_size must be even, got {image_size}")
    if not 2 <= classes <= len(TEXTURE_NAMES):
        raise InvalidConfig(f"classes must be in [2, {len(TEXTURE_NAMES)}], got {classes}")


def make_tiny_object_set(
    n: int,
    image_size: int = 32,
    object_size: int = 6,
    classes: int = 4,
    seed: int = 0,
) -> LabeledImageSet:
    """Generate n labeled images: smooth background + one textured patch.

    The patch (the "tiny object") sits at a uniformly random even-aligned
    position, its texture determined by the label.  Classes are balanced to
    within one sample.  Deterministic per seed.
    """
    check_tiny_object_args(n, image_size, object_size, classes)
    rng = make_rng(seed)
    labels = np.arange(n, dtype=np.int64) % classes
    rng.shuffle(labels)
    textures = [_texture(k, object_size) for k in range(classes)]

    images = np.empty((n, 3, image_size, image_size))
    max_slot = (image_size - object_size) // 2  # even-aligned placements
    for idx in range(n):
        img = _smooth_background(rng, image_size, 3)
        r = 2 * int(rng.integers(0, max_slot + 1))
        c = 2 * int(rng.integers(0, max_slot + 1))
        patch = 0.3 * textures[labels[idx]]
        img[:, r:r + object_size, c:c + object_size] += patch[None, :, :]
        images[idx] = img
    np.clip(images, 0.0, 1.0, out=images)
    return LabeledImageSet(images=images, labels=labels, class_count=classes)


# ---------------------------------------------------------------------------
# flat binary image-set files


def save_image_set(path, dataset: LabeledImageSet) -> None:
    with open(path, "wb") as f:
        n, c, h, w = dataset.images.shape
        f.write(IMAGESET_MAGIC)
        f.write(struct.pack("<6I", IMAGESET_VERSION, n, c, h, w, dataset.class_count))
        f.write(dataset.labels.astype("<u4").tobytes())
        f.write(np.ascontiguousarray(dataset.images, dtype="<f8").tobytes())


def load_image_set(path) -> LabeledImageSet:
    blob = read_file(path)
    if blob[:4] != IMAGESET_MAGIC:
        raise UnsupportedFormat(f"{path}: not an image-set file (bad magic)")
    if len(blob) < 28:
        raise CorruptDataset(f"{path}: truncated header")
    version, n, c, h, w, class_count = struct.unpack_from("<6I", blob, 4)
    if version != IMAGESET_VERSION:
        raise UnsupportedFormat(f"{path}: image-set version {version} unsupported")
    expected = 28 + 4 * n + 8 * n * c * h * w
    if len(blob) != expected:
        raise CorruptDataset(f"{path}: size {len(blob)}, expected {expected}")
    labels = np.frombuffer(blob, dtype="<u4", count=n, offset=28).astype(np.int64)
    images = np.frombuffer(blob, dtype="<f8", count=n * c * h * w, offset=28 + 4 * n)
    if not np.all(np.isfinite(images)):
        raise CorruptDataset(f"{path}: non-finite pixel values")
    if images.min(initial=0.0) < 0.0 or images.max(initial=1.0) > 1.0:
        raise CorruptDataset(f"{path}: pixel values outside [0, 1]")
    return LabeledImageSet(
        images=images.reshape(n, c, h, w).astype(np.float64),
        labels=labels,
        class_count=class_count,
    )
