"""Dataset loading, synthesis, and the two binary formats."""

import re
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wavepool.analysis import spectrum_energy_fraction_above
from wavepool.autodiff import Tensor
from wavepool.backbone import read_checkpoint
from wavepool.config import load_config
from wavepool.data import (
    CIFAR_RECORD_BYTES,
    IMAGESET_MAGIC,
    TEXTURE_NAMES,
    LabeledImageSet,
    _texture,
    load_cifar100,
    load_image_set,
    make_tiny_object_set,
    read_cifar_records,
    save_image_set,
)
from wavepool.errors import (
    CorruptDataset,
    InvalidConfig,
    MissingInput,
    UnsupportedFormat,
    WavepoolError,
)
from wavepool.imageio import read_image
from wavepool.pooling import parse_pool


def make_cifar_fixture_bytes(n=5, seed=20):
    """Deterministic stand-in for a CIFAR-100 binary file."""
    rng = np.random.default_rng(seed)
    out = bytearray()
    for _ in range(n):
        out.append(int(rng.integers(0, 20)))    # coarse label
        out.append(int(rng.integers(0, 100)))   # fine label
        out.extend(rng.integers(0, 256, size=3072, dtype=np.uint8).tobytes())
    return bytes(out)


class TestCifarLoader:
    def test_golden_values_against_independent_byte_parser(self, tmp_path):
        blob = make_cifar_fixture_bytes()
        path = tmp_path / "train.bin"
        path.write_bytes(blob)

        # oracle: pure byte slicing, no library code
        record0 = blob[:CIFAR_RECORD_BYTES]
        fine0 = record0[1]
        planes = record0[2:]
        channel_means = [sum(planes[c * 1024:(c + 1) * 1024]) / 1024 for c in range(3)]

        data = load_cifar100(tmp_path, "train")
        assert data.class_count == 100
        assert int(data.labels[0]) == fine0
        for c in range(3):
            assert data.images[0, c].mean() * 255.0 == pytest.approx(
                channel_means[c], abs=1e-10
            )

    def test_pixel_range_and_shape(self, tmp_path):
        path = tmp_path / "test.bin"
        path.write_bytes(make_cifar_fixture_bytes(n=3))
        data = load_cifar100(tmp_path, "test")
        assert data.images.shape == (3, 3, 32, 32)
        assert data.images.min() >= 0.0 and data.images.max() <= 1.0
        assert data.labels.min() >= 0 and data.labels.max() <= 99

    def test_round_trip_reproduces_bytes_exactly(self, tmp_path):
        blob = make_cifar_fixture_bytes(n=4)
        path = tmp_path / "x.bin"
        path.write_bytes(blob)
        coarse, fine, images = read_cifar_records(path)
        assert np.column_stack([coarse, fine, images.reshape(4, -1)]).tobytes() == blob

    def test_direct_file_path_works(self, tmp_path):
        path = tmp_path / "anything.bin"
        path.write_bytes(make_cifar_fixture_bytes(n=2))
        assert len(load_cifar100(path, "train")) == 2

    def test_missing_file_raises(self, tmp_path):
        path = tmp_path / "nope.bin"
        with pytest.raises(MissingInput, match=f"cannot read {re.escape(str(path))}"):
            load_cifar100(path, "train")

    def test_truncated_file_raises(self, tmp_path):
        path = tmp_path / "train.bin"
        path.write_bytes(make_cifar_fixture_bytes(n=2)[:-7])
        with pytest.raises(CorruptDataset):
            load_cifar100(path, "train")

    def test_label_byte_out_of_range_raises(self, tmp_path):
        blob = bytearray(make_cifar_fixture_bytes(n=1))
        blob[1] = 100  # fine label must be <= 99
        path = tmp_path / "train.bin"
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptDataset):
            load_cifar100(path, "train")

    def test_bad_split_rejected(self, tmp_path):
        with pytest.raises(InvalidConfig):
            load_cifar100(tmp_path, "validation")

    @pytest.fixture(scope="class")
    def saved_blob(self, tmp_path_factory):
        """Two records' bytes, and a directory to write variants to."""
        return tmp_path_factory.mktemp("cifar"), make_cifar_fixture_bytes(n=2)

    @staticmethod
    def loads_in_range_or_raises_corrupt(path):
        try:
            data = load_cifar100(path, "train")
        except CorruptDataset:
            return
        assert data.labels.max() < 100
        assert data.images.min() >= 0.0 and data.images.max() <= 1.0

    @settings(max_examples=200, deadline=None)
    @given(bit=st.integers(min_value=0))
    def test_single_bit_flip_loads_or_raises_corrupt(self, saved_blob, bit):
        folder, blob = saved_blob
        flipped = bytearray(blob)
        bit %= 8 * len(blob)
        flipped[bit // 8] ^= 1 << (bit % 8)
        path = folder / "flipped.bin"
        path.write_bytes(bytes(flipped))
        self.loads_in_range_or_raises_corrupt(path)

    @settings(max_examples=100, deadline=None)
    @given(cut=st.integers(min_value=0), tail=st.binary(min_size=1, max_size=16))
    @example(cut=CIFAR_RECORD_BYTES, tail=bytes(CIFAR_RECORD_BYTES))  # whole records
    @example(cut=0, tail=bytes([0, 100]) + bytes(CIFAR_RECORD_BYTES - 2))  # fine label 100
    def test_cut_or_padded_file_loads_or_raises_corrupt(self, saved_blob, cut, tail):
        folder, blob = saved_blob
        path = folder / "resized.bin"
        for resized in (blob[:cut % len(blob)], blob + tail):
            path.write_bytes(resized)
            self.loads_in_range_or_raises_corrupt(path)


class TestTinyObjectSet:
    def test_empty_set_refused(self):
        with pytest.raises(InvalidConfig):
            make_tiny_object_set(0)

    def test_deterministic_per_seed(self):
        a = make_tiny_object_set(6, image_size=16, object_size=2, classes=4, seed=9)
        b = make_tiny_object_set(6, image_size=16, object_size=2, classes=4, seed=9)
        assert np.array_equal(a.images, b.images)
        assert np.array_equal(a.labels, b.labels)
        c = make_tiny_object_set(6, image_size=16, object_size=2, classes=4, seed=10)
        assert not np.array_equal(a.images, c.images)

    def test_shapes_ranges_and_labels(self):
        data = make_tiny_object_set(10, image_size=32, object_size=6, classes=3, seed=0)
        assert data.images.shape == (10, 3, 32, 32)
        assert data.images.min() >= 0.0 and data.images.max() <= 1.0
        assert data.class_count == 3
        assert set(np.unique(data.labels)) <= {0, 1, 2}

    def test_class_balance_within_one(self):
        data = make_tiny_object_set(10, image_size=32, object_size=4, classes=4, seed=3)
        counts = np.bincount(data.labels, minlength=4)
        assert counts.max() - counts.min() <= 1

    def test_checkerboard_texture_peaks_at_pi_pi(self):
        assert TEXTURE_NAMES[0] == "checkerboard"
        patch = _texture(0, 6)
        spec = np.abs(np.fft.fft2(patch)) ** 2
        assert np.unravel_index(spec.argmax(), spec.shape) == (3, 3)  # (pi, pi)

    @pytest.mark.parametrize("kind", range(4))
    def test_all_textures_live_above_half_band(self, kind):
        patch = _texture(kind, 6)
        assert spectrum_energy_fraction_above(patch, np.pi / 2) >= 0.5

    @pytest.mark.parametrize("size", [2, 4, 6])
    def test_no_pool_separates_textures_on_raw_pixels(self, size):
        """An even-aligned 0.3 patch of each texture on a zero 16x16 image:
        haar and avg leave zero, strided and max one patch shared by all."""
        outs = {pool: [] for pool in ("wavelet:haar", "avg", "strided", "max")}
        for pool, out in outs.items():
            for kind in range(len(TEXTURE_NAMES)):
                img = np.zeros((1, 1, 16, 16))
                img[0, 0, 4:4 + size, 6:6 + size] = 0.3 * _texture(kind, size)
                out.append(parse_pool(pool).op()(Tensor(img)).data[0, 0])
        for pool in ("wavelet:haar", "avg"):
            assert max(np.abs(o).max() for o in outs[pool]) <= 3e-17, pool
        shared = np.zeros((8, 8))
        shared[2:2 + size // 2, 3:3 + size // 2] = 0.3
        for pool in ("strided", "max"):
            assert all(np.array_equal(o, shared) for o in outs[pool]), pool

    def test_size_validation(self):
        with pytest.raises(InvalidConfig):
            make_tiny_object_set(4, image_size=32, object_size=1)
        with pytest.raises(InvalidConfig):
            make_tiny_object_set(4, image_size=64, object_size=9)
        with pytest.raises(InvalidConfig):
            make_tiny_object_set(4, image_size=16, object_size=4)  # not < 16/4
        with pytest.raises(InvalidConfig):
            make_tiny_object_set(4, image_size=31, object_size=2)
        with pytest.raises(InvalidConfig):
            make_tiny_object_set(4, image_size=32, object_size=6, classes=1)
        with pytest.raises(InvalidConfig):
            make_tiny_object_set(4, image_size=32, object_size=6, classes=9)


class TestLabeledImageSet:
    def test_invariants_enforced(self):
        good = np.zeros((2, 3, 4, 4))
        with pytest.raises(InvalidConfig):
            LabeledImageSet(np.zeros((0, 3, 4, 4)), np.zeros(0, int), 2)
        with pytest.raises(InvalidConfig):
            LabeledImageSet(np.zeros((2, 3, 5, 4)), np.zeros(2, int), 2)
        with pytest.raises(InvalidConfig):
            LabeledImageSet(good, np.array([0, 2]), 2)  # label out of range
        with pytest.raises(InvalidConfig):
            LabeledImageSet(good, np.zeros(3, int), 2)  # length mismatch
        with pytest.raises(InvalidConfig):
            LabeledImageSet(good, np.zeros(2, int), 1)  # single class
        with pytest.raises(InvalidConfig):
            LabeledImageSet(np.zeros((2, 3, 4)), np.zeros(2, int), 2)

    def test_channel_stats(self):
        images = np.zeros((2, 3, 2, 2))
        images[:, 0] = 0.5          # constant channel: std floored
        images[0, 1] = 1.0          # half ones: mean 0.5, std 0.5
        data = LabeledImageSet(images, np.array([0, 1]), 2)
        mean, std = data.channel_stats()
        assert mean[0] == pytest.approx(0.5)
        assert std[0] == pytest.approx(1e-8)
        assert mean[1] == pytest.approx(0.5)
        assert std[1] == pytest.approx(0.5)


class TestImageSetFormat:
    def test_round_trip(self, tmp_path):
        data = make_tiny_object_set(7, image_size=16, object_size=2, classes=3, seed=1)
        path = tmp_path / "set.wvds"
        save_image_set(path, data)
        back = load_image_set(path)
        assert np.array_equal(back.images, data.images)
        assert np.array_equal(back.labels, data.labels)
        assert back.class_count == data.class_count

    def test_header_layout(self, tmp_path):
        data = make_tiny_object_set(3, image_size=16, object_size=2, classes=2, seed=1)
        path = tmp_path / "set.wvds"
        save_image_set(path, data)
        blob = path.read_bytes()
        assert blob[:4] == IMAGESET_MAGIC == b"WVDS"
        version, n, c, h, w, classes = struct.unpack_from("<6I", blob, 4)
        assert (version, n, c, h, w, classes) == (1, 3, 3, 16, 16, 2)
        assert len(blob) == 28 + 4 * n + 8 * n * c * h * w

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.wvds"
        path.write_bytes(b"XXXX" + b"\x00" * 40)
        with pytest.raises(UnsupportedFormat):
            load_image_set(path)

    def test_bad_version_rejected(self, tmp_path):
        path = tmp_path / "bad.wvds"
        path.write_bytes(b"WVDS" + struct.pack("<6I", 3, 1, 3, 4, 4, 2) + b"\x00" * 400)
        with pytest.raises(UnsupportedFormat):
            load_image_set(path)

    def test_truncated_rejected(self, tmp_path):
        data = make_tiny_object_set(3, image_size=16, object_size=2, classes=2, seed=1)
        path = tmp_path / "set.wvds"
        save_image_set(path, data)
        blob = path.read_bytes()
        path.write_bytes(blob[:-20])
        with pytest.raises(CorruptDataset):
            load_image_set(path)

    @pytest.mark.parametrize("length", [4, 27])
    def test_truncated_header_rejected(self, tmp_path, length):
        path = tmp_path / "short.wvds"
        path.write_bytes((IMAGESET_MAGIC + struct.pack("<6I", 1, 2, 3, 4, 4, 2))[:length])
        with pytest.raises(CorruptDataset, match=re.escape(f"{path}: truncated header")):
            load_image_set(path)

    def test_missing_file_raises(self, tmp_path):
        path = tmp_path / "gone.wvds"
        with pytest.raises(MissingInput, match=f"cannot read {re.escape(str(path))}"):
            load_image_set(path)

    @pytest.mark.parametrize("c, h, w", [(0, 4, 4), (3, 0, 0)])
    def test_empty_axis_refused(self, tmp_path, c, h, w):
        # two labels and no pixels: the header is valid, the set is empty
        path = tmp_path / "empty.wvds"
        path.write_bytes(IMAGESET_MAGIC + struct.pack("<6I", 1, 2, c, h, w, 2)
                         + np.array([0, 1], dtype="<u4").tobytes())
        with pytest.raises(InvalidConfig, match=f"shape \\(2, {c}, {h}, {w}\\)"):
            load_image_set(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_pixel_rejected(self, tmp_path, bad):
        # a NaN pixel would give NaN channel statistics, which pass a
        # ``std <= 0`` test, and a network that returns all-zero logits
        data = make_tiny_object_set(3, image_size=16, object_size=2, classes=2, seed=1)
        data.images[1, 2, 3, 4] = bad
        path = tmp_path / "set.wvds"
        save_image_set(path, data)
        with pytest.raises(CorruptDataset, match="non-finite"):
            load_image_set(path)

    @pytest.mark.parametrize("bad", [7.19e307, -0.5])
    def test_pixel_outside_unit_range_rejected(self, tmp_path, bad):
        # 7.19e307 is a pixel with one exponent bit flipped; it would
        # overflow the channel std to inf
        data = make_tiny_object_set(3, image_size=16, object_size=2, classes=2, seed=1)
        data.images[1, 2, 3, 4] = bad
        path = tmp_path / "set.wvds"
        save_image_set(path, data)
        with pytest.raises(CorruptDataset, match=re.escape(f"{path}: pixel values outside")):
            load_image_set(path)

    @pytest.fixture(scope="class")
    def saved_blob(self, tmp_path_factory):
        """A small image set's bytes, and a directory to write variants to."""
        data = make_tiny_object_set(3, image_size=16, object_size=2, classes=3, seed=1)
        data = LabeledImageSet(data.images[:, :, :4, :4], data.labels, data.class_count)
        path = tmp_path_factory.mktemp("imageset") / "set.wvds"
        save_image_set(path, data)
        return path.parent, path.read_bytes()

    @settings(max_examples=200, deadline=None)
    @given(bit=st.integers(min_value=0))
    def test_single_bit_flip_loads_or_raises_named_error(self, saved_blob, bit):
        folder, blob = saved_blob
        flipped = bytearray(blob)
        bit %= 8 * len(blob)
        flipped[bit // 8] ^= 1 << (bit % 8)
        path = folder / "flipped.wvds"
        path.write_bytes(bytes(flipped))
        try:
            images = load_image_set(path).images
        except WavepoolError:
            return
        assert images.min() >= 0.0 and images.max() <= 1.0


# ---------------------------------------------------------------------------
# the one file reader

READERS = {
    "checkpoint": read_checkpoint,
    "cifar": read_cifar_records,
    "config": load_config,
    "image": read_image,
    "image_set": load_image_set,
}


@pytest.mark.parametrize("kind", ["missing", "directory"])
@pytest.mark.parametrize("reader", sorted(READERS))
def test_every_reader_names_a_path_it_cannot_read(tmp_path, reader, kind):
    path = tmp_path / "input"
    if kind == "directory":
        path.mkdir()
    reason = "No such file or directory" if kind == "missing" else "Is a directory"
    with pytest.raises(MissingInput, match=f"^cannot read {re.escape(str(path))}: {reason}$"):
        READERS[reader](path)


def test_cifar_directory_without_the_split_names_the_split_file(tmp_path):
    (tmp_path / "train.bin").write_bytes(make_cifar_fixture_bytes(n=1))
    assert len(load_cifar100(tmp_path, "train")) == 1
    with pytest.raises(MissingInput, match=f"cannot read {re.escape(str(tmp_path / 'test.bin'))}"):
        load_cifar100(tmp_path, "test")
