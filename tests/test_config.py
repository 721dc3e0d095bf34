"""Config parsing/serialization and PGM/PPM image files."""

import re
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavepool import backbone, ops, optim
from wavepool.analysis import build_model_from_config
from wavepool.autodiff import no_grad
from wavepool.config import (
    _CHOICES,
    ExperimentConfig,
    config_hash,
    load_config,
    parse_config,
    serialize_config,
)
from wavepool.data import make_tiny_object_set
from wavepool.errors import (
    InvalidConfig,
    MissingInput,
    ShapeMismatch,
    UnsupportedFormat,
    WavepoolError,
)
from wavepool.imageio import read_image, write_pgm

SAMPLE = """
# an experiment
[dataset]
kind = synthetic
n_train = 100
image_size = 16
object_size = 2

[model]
pool = wavelet:db2
variant = b

[train]
epochs = 3
lr = 0.02
mode = plain
seed = 11

[output]
dir = out
"""


class TestParsing:
    def test_values_land_in_sections(self):
        cfg = parse_config(SAMPLE)
        assert cfg.dataset.n_train == 100
        assert cfg.dataset.kind == "synthetic"
        assert cfg.model.pool == "wavelet:db2"
        assert cfg.model.variant == "b"
        assert cfg.train.epochs == 3
        assert cfg.train.lr == pytest.approx(0.02)
        assert cfg.output.dir == "out"

    def test_defaults_fill_unset_keys(self):
        cfg = parse_config("[train]\nepochs = 2\n")
        assert cfg.train.batch_size == 50
        assert cfg.model.pool == "wavelet:haar"
        assert cfg.train.teacher_pool == "max"
        assert cfg.dataset.classes == 4

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config("# top\n\n[train]\n# inner\nseed = 5\n\n")
        assert cfg.train.seed == 5

    def test_unknown_section_rejected_with_line_number(self):
        with pytest.raises(InvalidConfig, match="line 1"):
            parse_config("[nonsense]\n")

    def test_unknown_key_rejected_with_line_number(self):
        with pytest.raises(InvalidConfig, match="line 2"):
            parse_config("[train]\nlearning_rate = 0.1\n")

    @pytest.mark.parametrize("text, line", [
        ("[train]\nlr = 0.1\nlr = 0.3\n", 3),
        ("[train]\nlr = 0.1\n[model]\npool = avg\n[train]\nlr = 0.3\n", 6),
    ])
    def test_repeated_key_rejected_with_line_number(self, text, line):
        with pytest.raises(InvalidConfig, match=rf"^line {line}: repeated key 'lr' in \[train\]$"):
            parse_config(text)

    def test_key_before_section_rejected(self):
        with pytest.raises(InvalidConfig):
            parse_config("epochs = 2\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(InvalidConfig, match="line 2"):
            parse_config("[train]\nepochs\n")

    def test_bad_value_type_rejected(self):
        with pytest.raises(InvalidConfig):
            parse_config("[train]\nepochs = three\n")

    def test_choice_fields_validated(self):
        with pytest.raises(InvalidConfig):
            parse_config("[model]\nvariant = d\n")
        for mode in ("distill", "short"):
            with pytest.raises(InvalidConfig):
                parse_config(f"[train]\nmode = {mode}\n")
        with pytest.raises(InvalidConfig):
            parse_config("[dataset]\nkind = imagenet\npath = x\n")

    def test_semantic_validation(self):
        with pytest.raises(InvalidConfig):
            parse_config("[train]\nepochs = 0\n")
        with pytest.raises(InvalidConfig):
            parse_config("[train]\nmode = kd\n")  # teacher required
        with pytest.raises(InvalidConfig):
            parse_config("[dataset]\nkind = cifar100\n")  # path required
        with pytest.raises(InvalidConfig):
            parse_config("[train]\nmilestones = 1,x\n")
        with pytest.raises(InvalidConfig, match="seed"):
            parse_config("[train]\nseed = -1\n")

    @pytest.mark.parametrize("lines, key", [
        ("lr = -0.01", "lr"),
        ("period = -3", "period"),
        ("lr_schedule = cosine\nlr_min = 1", "lr_min"),
        ("lr_schedule = step\nfactor = 0", "factor"),
        ("lr_schedule = step\nfactor = -0.5", "factor"),
        ("mode = kd\nteacher = t.wvpk\nalpha = 1.5", "alpha"),
        ("mode = kd\nteacher = t.wvpk\nalpha = -0.1", "alpha"),
        ("mode = kd\nteacher = t.wvpk\ntemperature = 0", "temperature"),
    ])
    def test_train_values_refused_at_parse_time(self, lines, key):
        with pytest.raises(InvalidConfig, match=rf"\[train\] {key}"):
            parse_config(f"[train]\n{lines}\n")

    @pytest.mark.parametrize("lines, message", [
        ("n_test = 0", "n must be >= 1"),
        ("n_train = 0", "n must be >= 1"),
        ("object_size = 9", "object_size must be in"),
        ("classes = 5", "classes must be in"),
        ("image_size = 33\nobject_size = 2", "image_size must be even"),
        ("image_size = 24", "must be < image_size/4"),
    ])
    def test_synthetic_set_refused_at_parse_time(self, lines, message):
        # the generator's own rule, applied before any image is made
        with pytest.raises(InvalidConfig, match=rf"\[dataset\] .*{message}"):
            parse_config(f"[dataset]\n{lines}\n")

    def test_synthetic_rule_skips_file_datasets(self):
        parse_config("[dataset]\nkind = file\npath = x.wvds\nn_test = 0\nimage_size = 7\n")

    @pytest.mark.parametrize("schedule, shift", [("micro", -1), ("micro", 2), ("resnet50", 3)])
    def test_bottom_heavy_shift_refused_at_parse_time(self, schedule, shift):
        with pytest.raises(InvalidConfig, match=r"\[model\] bottom_heavy_shift"):
            parse_config(f"[model]\nschedule = {schedule}\nbottom_heavy_shift = {shift}\n")

    @pytest.mark.parametrize("schedule, shift", [("micro", 0), ("micro", 1), ("resnet50", 2)])
    def test_bottom_heavy_shift_boundary_values_parse(self, schedule, shift):
        parse_config(f"[model]\nschedule = {schedule}\nbottom_heavy_shift = {shift}\n")

    @pytest.mark.parametrize("lines", [
        "lr = 0\nperiod = 0",
        "lr_schedule = cosine\nlr = 0.1\nlr_min = 0.1",
        "lr_schedule = constant\nfactor = 0\nlr_min = 5",  # unused by the schedule
        "mode = kd\nteacher = t.wvpk\nalpha = 0\ntemperature = 0.5",
        "mode = kd\nteacher = t.wvpk\nalpha = 1",
        "mode = plain\nalpha = 2\ntemperature = -1",  # unused outside kd mode
    ])
    def test_train_boundary_values_parse(self, lines):
        parse_config(f"[train]\n{lines}\n")

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("section, key", [
        (s.name, f.name) for s in fields(ExperimentConfig) for f in fields(s.default_factory)
        if type(getattr(s.default_factory(), f.name)) is float
    ])
    def test_non_finite_floats_rejected(self, section, key, raw):
        with pytest.raises(InvalidConfig, match=f"{key}: '{raw}' is not a finite number"):
            parse_config(f"[{section}]\n{key} = {raw}\n")

    @pytest.mark.parametrize("text", [
        "[model]\npool = wavelet:db9\n",
        "[model]\npool = blur:1-x-1\n",
        "[train]\nteacher_pool = maxx\n",
    ])
    def test_pool_strings_checked_at_parse_time(self, text):
        key = text.split("\n")[1].partition(" =")[0]
        with pytest.raises(InvalidConfig, match=key):
            parse_config(text)

    @pytest.mark.parametrize("variant", ["b", "c"])
    @pytest.mark.parametrize("lines, key", [
        ("[model]\npool = strided\n", r"\[model\] pool"),
        ("[train]\nmode = kd\nteacher = t.wvpk\nteacher_pool = strided\n",
         r"\[train\] teacher_pool"),
    ])
    def test_strided_pool_with_pooling_variant_refused_at_parse_time(self, lines, key, variant):
        with pytest.raises(InvalidConfig, match=key + ": variant .* not StridedConv"):
            parse_config(f"[model]\nvariant = {variant}\n{lines}")

    @pytest.mark.parametrize("text", [
        "[model]\npool = strided\nvariant = a\n",
        "[model]\nvariant = a\n[train]\nmode = kd\nteacher = t.wvpk\nteacher_pool = strided\n",
        "[model]\nvariant = c\n[train]\nteacher_pool = strided\n",  # no teacher outside kd
    ])
    def test_strided_pool_with_variant_a_parses(self, text):
        parse_config(text)

    def test_milestone_list(self):
        cfg = parse_config("[train]\nmilestones = 100,150\n")
        assert cfg.train.milestone_list() == [100, 150]
        assert ExperimentConfig().train.milestone_list() == []


class TestChoiceTables:
    """Each config choice a module owns is that module's table itself."""

    def test_choices_are_the_owners_tables(self):
        assert _CHOICES[("model", "schedule")] is backbone.SCHEDULES
        assert _CHOICES[("model", "variant")] is backbone.VARIANTS
        assert _CHOICES[("model", "conv_pad")] is ops.PAD_MODES
        assert _CHOICES[("train", "lr_schedule")] is optim.LR_SCHEDULES
        assert ops.PAD_MODES[0] == ExperimentConfig().model.conv_pad

    def test_unknown_choice_names_the_table(self):
        with pytest.raises(InvalidConfig, match=r"\('micro', 'resnet50'\)"):
            parse_config("[model]\nschedule = resnet18\n")

    @pytest.mark.parametrize("schedule", list(backbone.SCHEDULES))
    def test_every_schedule_builds(self, schedule):
        cfg = parse_config(f"[model]\nschedule = {schedule}\n")
        model = build_model_from_config(cfg, 4, make_tiny_object_set(4, 16, 2, 4))
        assert backbone.count_params(model) > 0

    @pytest.mark.parametrize("variant", backbone.VARIANTS)
    @pytest.mark.parametrize("pad", ops.PAD_MODES)
    def test_every_variant_and_pad_runs(self, variant, pad):
        cfg = parse_config(f"[model]\nvariant = {variant}\nconv_pad = {pad}\n")
        data = make_tiny_object_set(4, 16, 2, 4)
        model = build_model_from_config(cfg, 4, data)
        with no_grad():
            logits = model.forward(data.images[:2])
        assert logits.shape == (2, 4) and np.all(np.isfinite(logits.data))

    @pytest.mark.parametrize("name", list(optim.LR_SCHEDULES))
    def test_every_lr_schedule_starts_at_lr(self, name):
        cfg = parse_config(f"[train]\nlr_schedule = {name}\nlr = 0.03\nmilestones = 2\n")
        assert optim.LR_SCHEDULES[name](cfg.train, 0) == cfg.train.lr == 0.03


class TestSerialization:
    def test_round_trip_identity_on_canonical_form(self):
        cfg = parse_config(SAMPLE)
        canonical = serialize_config(cfg)
        assert serialize_config(parse_config(canonical)) == canonical

    def test_round_trip_preserves_every_field(self):
        cfg = parse_config(SAMPLE)
        back = parse_config(serialize_config(cfg))
        assert back == cfg

    def test_hash_stable_and_sensitive(self):
        a = parse_config(SAMPLE)
        b = parse_config(SAMPLE)
        assert config_hash(a) == config_hash(b)
        assert len(config_hash(a)) == 12
        c = parse_config(SAMPLE.replace("seed = 11", "seed = 12"))
        assert config_hash(c) != config_hash(a)

    def test_hash_ignores_formatting_noise(self):
        spaced = SAMPLE.replace("epochs = 3", "epochs   =    3")
        assert config_hash(parse_config(spaced)) == config_hash(parse_config(SAMPLE))

    def test_load_config_from_file(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(SAMPLE)
        assert load_config(path) == parse_config(SAMPLE)
        with pytest.raises(MissingInput, match="cannot read .*missing.cfg"):
            load_config(tmp_path / "missing.cfg")

    def test_byte_order_mark_is_skipped(self, tmp_path):
        text = SAMPLE[SAMPLE.index("[dataset]"):]
        plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
        plain.write_bytes(text.encode("utf-8"))
        marked.write_bytes(text.encode("utf-8-sig"))
        assert load_config(marked) == load_config(plain)
        assert config_hash(load_config(marked)) == config_hash(load_config(plain))

    @pytest.mark.parametrize("newline", ["\r\n", "\r"])
    def test_any_line_ending_gives_the_same_config(self, tmp_path, newline):
        path = tmp_path / "exp.cfg"
        path.write_bytes(SAMPLE.replace("\n", newline).encode("utf-8"))
        assert load_config(path) == parse_config(SAMPLE)
        assert config_hash(load_config(path)) == config_hash(parse_config(SAMPLE))

    @pytest.mark.parametrize("encoding", ["utf-8", "utf-8-sig"])
    def test_bad_byte_offset_does_not_count_a_byte_order_mark(self, tmp_path, encoding):
        path = tmp_path / "latin1.cfg"
        path.write_bytes("# r".encode(encoding) + "\u00e9sum\u00e9\n".encode("latin-1")
                         + SAMPLE.encode("utf-8"))
        with pytest.raises(InvalidConfig, match=re.escape(f"{path}: not UTF-8 text (byte 3)")):
            load_config(path)


class TestImageIo:
    def test_pgm_8bit_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        img = rng.uniform(size=(6, 9))
        path = tmp_path / "x.pgm"
        write_pgm(path, img)
        back = read_image(path)
        assert back.shape == (6, 9)
        assert np.max(np.abs(back - img)) <= 0.5 / 255 + 1e-12

    def test_pgm_16bit_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        img = rng.uniform(size=(5, 4))
        path = tmp_path / "x16.pgm"
        write_pgm(path, img, maxval=65535)
        back = read_image(path)
        assert np.max(np.abs(back - img)) <= 0.5 / 65535 + 1e-12

    def test_ppm_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        img = rng.uniform(size=(3, 4, 7))
        path = tmp_path / "x.ppm"
        raster = np.rint(img.transpose(1, 2, 0) * 255).astype(np.uint8)
        path.write_bytes(b"P6\n7 4\n255\n" + raster.tobytes())
        back = read_image(path)
        assert back.shape == (3, 4, 7)
        assert np.max(np.abs(back - img)) <= 0.5 / 255 + 1e-12

    def test_header_comments_parsed(self, tmp_path):
        path = tmp_path / "c.pgm"
        raster = bytes(range(6))
        path.write_bytes(b"P5\n# a comment\n3 2\n# another\n255\n" + raster)
        img = read_image(path)
        assert img.shape == (2, 3)
        assert img[0, 0] == 0.0
        assert img[1, 2] == pytest.approx(5 / 255)

    def test_16bit_samples_are_big_endian(self, tmp_path):
        path = tmp_path / "be.pgm"
        path.write_bytes(b"P5\n1 1\n65535\n" + (256).to_bytes(2, "big"))
        assert read_image(path)[0, 0] == pytest.approx(256 / 65535)

    def test_values_clipped_to_unit_range(self, tmp_path):
        path = tmp_path / "clip.pgm"
        write_pgm(path, np.array([[-0.5, 1.5]]))
        back = read_image(path)
        assert back[0, 0] == 0.0
        assert back[0, 1] == 1.0

    def test_unsupported_magic_rejected(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P2\n1 1\n255\n0")  # ASCII PGM not supported
        with pytest.raises(UnsupportedFormat):
            read_image(path)

    def test_bad_maxval_rejected(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n1 1\n1023\n\x00\x00")
        with pytest.raises(UnsupportedFormat):
            read_image(path)
        with pytest.raises(UnsupportedFormat):
            write_pgm(tmp_path / "w.pgm", np.zeros((2, 2)), maxval=1023)

    @pytest.mark.parametrize("size", [b"-2 -3", b"4 -2", b"0 4"])
    def test_non_positive_size_rejected(self, tmp_path, size):
        # eight raster bytes: a 4 by -2 header must not read them as 2x4
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n" + size + b"\n255\n" + bytes(8))
        with pytest.raises(UnsupportedFormat, match="not positive"):
            read_image(path)

    def test_truncated_raster_rejected(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n4 4\n255\n\x00\x00")
        with pytest.raises(UnsupportedFormat):
            read_image(path)

    @pytest.mark.parametrize("blob, expected", [
        (b"P53 2\n255\n" + bytes(6), (2, 3)),  # token straight after the magic
        (b"P5# c\n3 2\n255\n" + bytes(6), (2, 3)),  # comment straight after it
        (b"P5\r3\t2\r\n255\r" + bytes(6), (2, 3)),  # CR and tab separators
        (b"P5\n3#4 2\n255\n" + bytes(6), "non-numeric"),  # '#' inside a token
        (b"P5\n3 2\n# no newline", "truncated or malformed"),  # unterminated comment
        (b"P5\n3 2\n255", "truncated or malformed"),  # no byte after the maxval
    ], ids=["token-after-magic", "comment-after-magic", "cr-tab", "hash-in-token",
            "unterminated-comment", "unterminated-header"])
    def test_header_grammar_edges(self, tmp_path, blob, expected):
        path = tmp_path / "h.pgm"
        path.write_bytes(blob)
        if isinstance(expected, tuple):
            assert read_image(path).shape == expected
        else:
            with pytest.raises(UnsupportedFormat, match=expected):
                read_image(path)

    def test_truncated_header_names_the_file(self, tmp_path):
        path = tmp_path / "cut.pgm"
        path.write_bytes(b"P5\n3 ")
        with pytest.raises(UnsupportedFormat) as err:
            read_image(path)
        assert str(path) in str(err.value)

    def test_shape_validation_on_write(self, tmp_path):
        with pytest.raises(ShapeMismatch):
            write_pgm(tmp_path / "x.pgm", np.zeros((2, 2, 2)))


@st.composite
def _netpbm_files(draw):
    """A valid binary P5/P6 file of either maxval, its raster random."""
    magic = draw(st.sampled_from([b"P5", b"P6"]))
    maxval = draw(st.sampled_from([255, 65535]))
    width, height = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    nbytes = width * height * (1 if magic == b"P5" else 3) * (1 if maxval == 255 else 2)
    raster = draw(st.binary(min_size=nbytes, max_size=nbytes))
    return magic + b"\n%d %d\n%d\n" % (width, height, maxval) + raster


class TestImageIoProperties:
    """Damaged PGM/PPM files read as an array in [0, 1] of the shape their
    header states, or fail with a named WavepoolError."""

    @pytest.fixture(scope="class")
    def folder(self, tmp_path_factory):
        return tmp_path_factory.mktemp("netpbm")

    @staticmethod
    def _read_or_refuse(folder, blob):
        path = folder / "damaged.pnm"
        path.write_bytes(blob)
        try:
            img = read_image(path)
        except WavepoolError:
            return
        assert img.min() >= 0.0 and img.max() <= 1.0
        header = re.match(rb"P([56])\s(\d+)\s(\d+)\s", blob)
        if header:  # the header still reads as written: its shape holds
            shape = (int(header[3]), int(header[2]))
            assert img.shape == (shape if header[1] == b"5" else (3, *shape))

    @settings(max_examples=300, deadline=None)
    @given(blob=_netpbm_files(), bit=st.integers(min_value=0))
    def test_single_bit_flip(self, folder, blob, bit):
        flipped = bytearray(blob)
        bit %= 8 * len(blob)
        flipped[bit // 8] ^= 1 << (bit % 8)
        self._read_or_refuse(folder, bytes(flipped))

    @settings(max_examples=200, deadline=None)
    @given(blob=_netpbm_files(), cut=st.integers(min_value=0))
    def test_cut_file(self, folder, blob, cut):
        self._read_or_refuse(folder, blob[:cut % len(blob)])

    @settings(max_examples=100, deadline=None)
    @given(blob=_netpbm_files(), pad=st.binary(min_size=1, max_size=16))
    def test_padded_file(self, folder, blob, pad):
        self._read_or_refuse(folder, blob + pad)
