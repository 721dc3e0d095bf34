"""Binary PGM/PPM image files.

Reads P5 (grayscale) and P6 (color) with maxval 255 or 65535; multi-byte
samples are big-endian per the netpbm convention.  Pixel values map to
floats in [0,1].  The one writer, ``write_pgm``, emits 8-bit grayscale by
default; subband dumps use its 16-bit form so that quantization error stays
far below one 8-bit gray level after reconstruction.
"""

from __future__ import annotations

import re

import numpy as np

from .errors import ShapeMismatch, UnsupportedFormat, read_file


# The header grammar: the magic, then width, height and maxval, each token
# preceded by whitespace or by ``#`` comments that run to the end of their
# line, then one whitespace byte ending the header.
_GAP = rb"(?:\s|#[^\n]*\n)*"
_HEADER = re.compile(rb"P[56]" + (_GAP + rb"([^\s#]\S*)\s") * 3)


def read_image(path) -> np.ndarray:
    """Read a binary PGM/PPM; returns (H, W) or (3, H, W) floats in [0,1]."""
    blob = read_file(path)
    magic = blob[:2]
    if magic not in (b"P5", b"P6"):
        raise UnsupportedFormat(
            f"{path}: unsupported image magic {magic!r} (binary P5/P6 only)"
        )
    header = _HEADER.match(blob)
    if header is None:
        raise UnsupportedFormat(f"{path}: truncated or malformed header")
    offset = header.end()
    try:
        width, height, maxval = (int(t) for t in header.groups())
    except ValueError:
        raise UnsupportedFormat(f"{path}: non-numeric header fields") from None
    if width <= 0 or height <= 0:
        raise UnsupportedFormat(f"{path}: image size {width}x{height} is not positive")
    if maxval not in (255, 65535):
        raise UnsupportedFormat(f"{path}: maxval {maxval} unsupported (255 or 65535)")
    channels = 1 if magic == b"P5" else 3
    count = width * height * channels
    dtype = np.dtype(np.uint8) if maxval == 255 else np.dtype(">u2")
    if len(blob) - offset < count * dtype.itemsize:
        raise UnsupportedFormat(f"{path}: truncated raster")
    raster = np.frombuffer(blob, dtype=dtype, count=count, offset=offset)
    data = raster.astype(np.float64) / maxval
    if channels == 1:
        return data.reshape(height, width)
    return data.reshape(height, width, 3).transpose(2, 0, 1)


def _quantize(image, maxval: int) -> np.ndarray:
    arr = np.clip(np.asarray(image, dtype=np.float64), 0.0, 1.0)
    levels = np.rint(arr * maxval)
    return levels.astype(np.uint8 if maxval == 255 else np.dtype(">u2"))


def write_pgm(path, image, maxval: int = 255) -> None:
    """Write a (H, W) array of [0,1] floats as binary PGM."""
    image = np.asarray(image)
    if image.ndim != 2:
        raise ShapeMismatch(f"PGM wants a matrix, got shape {image.shape}")
    if maxval not in (255, 65535):
        raise UnsupportedFormat(f"maxval {maxval} unsupported (255 or 65535)")
    h, w = image.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n{maxval}\n".encode("ascii"))
        f.write(_quantize(image, maxval).tobytes())

