"""End-to-end tests for the command-line interface.

Every test drives ``wavepool.cli.main`` in-process with argv lists, then
inspects the files the command wrote: PGM subband dumps, energy JSON,
metrics CSV/JSON pairs, and checkpoint directories.  Error paths must
exit with code 2 and a message on standard error.
"""

import json
import os
import re
import shutil
import struct

import numpy as np
import pytest

from wavepool import analysis, backbone
from wavepool.cli import main
from wavepool.config import config_hash, load_config
from wavepool.data import (
    LabeledImageSet,
    make_tiny_object_set,
    save_image_set,
)
from wavepool.filterbank import parse_wavelet
from wavepool.imageio import read_image, write_pgm
from wavepool.transforms import SubbandSet, dwt2d, idwt2d


def tiny_config_text(outdir, **kw):
    """Config for fast end-to-end runs: 20 train images at 16x16."""
    base = {
        "kind": "synthetic",
        "path": "",
        "pool": "wavelet:haar",
        "variant": "c",
        "epochs": 1,
        "lr": 0.05,
        "mode": "plain",
        "seed": 3,
    }
    base.update(kw)
    return (
        "[dataset]\n"
        f"kind = {base['kind']}\n"
        f"path = {base['path']}\n"
        "n_train = 20\n"
        "n_test = 10\n"
        "image_size = 16\n"
        "object_size = 2\n"
        "classes = 2\n"
        "[model]\n"
        "schedule = micro\n"
        f"pool = {base['pool']}\n"
        f"variant = {base['variant']}\n"
        "[train]\n"
        f"epochs = {base['epochs']}\n"
        "batch_size = 10\n"
        f"lr = {base['lr']}\n"
        f"mode = {base['mode']}\n"
        f"seed = {base['seed']}\n"
        "[output]\n"
        f"dir = {outdir}\n"
    )


def override(text, extra):
    """``text`` plus the lines of ``extra``, where a ``key = value`` line whose
    key ``text`` already sets replaces that line: a repeated key is refused."""
    rest = []
    for line in extra.splitlines():
        pattern = f"^{re.escape(line.partition(' = ')[0])} = .*$"
        text, found = re.subn(pattern, lambda _m: line, text, flags=re.M)
        if not found:
            rest.append(line + "\n")
    return text + "".join(rest)


def write_config(path, text):
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)
    return str(path)


def read_metric_rows(path):
    """Parse a metrics CSV into {name: (value, unit)}."""
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()
    assert lines[0] == "name,value,unit"
    rows = {}
    for line in lines[1:]:
        name, value, unit = line.split(",")
        rows[name] = (float(value), unit)
    return rows


# ---------------------------------------------------------------------------
# transform


class TestTransform:
    def transform(self, image_path, outdir, wavelet="haar"):
        code = main(
            ["transform", str(image_path), "--wavelet", wavelet, "--outdir", str(outdir)]
        )
        assert code == 0
        with open(os.path.join(str(outdir), "energy.json"), encoding="utf-8") as f:
            return json.load(f)

    def load_subbands(self, outdir, summary):
        """Undo the per-subband min/max normalization of the PGM dumps."""
        bands = {}
        for name in ("ll", "lh", "hl", "hh"):
            stats = summary["subbands"][name]
            pixels = read_image(os.path.join(str(outdir), f"{name}.pgm"))
            bands[name] = pixels * (stats["max"] - stats["min"]) + stats["min"]
        return SubbandSet(**bands)

    def test_missing_image_exits_2(self, tmp_path, capsys):
        path = tmp_path / "absent.pgm"
        assert main(["transform", str(path), "--outdir", str(tmp_path / "out")]) == 2
        assert f"error: cannot read {path}: No such file" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_constant_image(self, tmp_path):
        src = tmp_path / "flat.pgm"
        write_pgm(src, np.full((16, 16), 0.5))
        summary = self.transform(src, tmp_path / "out")
        assert summary["input"] == [16, 16]
        assert summary["subbands"]["ll"]["energy_fraction"] == pytest.approx(1.0)
        for name in ("lh", "hl", "hh"):
            assert summary["subbands"][name]["energy"] <= 1e-18
        # ll of a constant image is constant, so its dump has zero spread
        stats = summary["subbands"]["ll"]
        assert stats["max"] - stats["min"] <= 1e-12
        for name in ("ll", "lh", "hl", "hh", "lowpass"):
            assert (tmp_path / "out" / f"{name}.pgm").exists()

    def test_checkerboard_energy_split(self, tmp_path):
        i, j = np.indices((16, 16))
        src = tmp_path / "check.pgm"
        write_pgm(src, ((i + j) % 2).astype(float))
        summary = self.transform(src, tmp_path / "out")
        bands = summary["subbands"]
        # A 0/1 checkerboard is a pi-frequency oscillation on a DC pedestal:
        # ll holds exactly the pedestal, hh holds 100% of the detail energy.
        assert bands["lh"]["energy"] <= 1e-18
        assert bands["hl"]["energy"] <= 1e-18
        assert bands["hh"]["energy_fraction"] == pytest.approx(0.5, abs=1e-12)
        assert bands["ll"]["energy_fraction"] == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("wavelet", ["haar", "db2", "ch3.3"])
    def test_round_trip_within_one_gray_level(self, tmp_path, wavelet):
        rng = np.random.default_rng(11)
        src = tmp_path / "noise.pgm"
        write_pgm(src, rng.uniform(size=(32, 32)))
        original = read_image(src)  # the exact 8-bit image on disk
        outdir = tmp_path / "out"
        summary = self.transform(src, outdir, wavelet=wavelet)
        rebuilt = idwt2d(self.load_subbands(outdir, summary), parse_wavelet(wavelet))
        assert np.max(np.abs(rebuilt - original)) <= 1.0 / 255.0

    def test_ppm_transforms_channel_mean(self, tmp_path):
        rng = np.random.default_rng(12)
        raster = rng.integers(0, 256, size=(16, 16, 3), dtype=np.uint8)
        src = tmp_path / "color.ppm"
        src.write_bytes(b"P6\n16 16\n255\n" + raster.tobytes())
        summary = self.transform(src, tmp_path / "out")
        assert summary["input"] == [16, 16]
        expected = dwt2d(read_image(src).mean(axis=0), parse_wavelet("haar"))
        assert summary["subbands"]["ll"]["energy"] == pytest.approx(
            float(np.sum(expected.ll**2))
        )

    def test_idempotent_outputs(self, tmp_path):
        src = tmp_path / "flat.pgm"
        write_pgm(src, np.full((16, 16), 0.25))
        outdir = tmp_path / "out"
        self.transform(src, outdir)
        first = (outdir / "energy.json").read_bytes()
        self.transform(src, outdir)
        assert (outdir / "energy.json").read_bytes() == first

    def test_empty_outdir_is_the_working_dir(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        write_pgm(tmp_path / "flat.pgm", np.full((8, 8), 0.5))
        assert main(["transform", "flat.pgm", "--outdir", ""]) == 0
        for name in ("ll.pgm", "lowpass.pgm", "energy.json"):
            assert (tmp_path / name).exists()

    def test_ascii_pgm_rejected(self, tmp_path, capsys):
        src = tmp_path / "ascii.pgm"
        src.write_bytes(b"P2\n2 2\n255\n0 1 2 3\n")
        code = main(["transform", str(src), "--outdir", str(tmp_path / "out")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_input(self, tmp_path, capsys):
        code = main(["transform", str(tmp_path / "nope.pgm")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("size", [b"-2 -3", b"4 -2"])
    def test_non_positive_image_size_exits_2(self, tmp_path, capsys, size):
        src = tmp_path / "bad.pgm"
        src.write_bytes(b"P5\n" + size + b"\n255\n" + bytes(8))
        code = main(["transform", str(src), "--outdir", str(tmp_path / "out")])
        assert code == 2
        assert "not positive" in capsys.readouterr().err

    def test_odd_image_size_rejected(self, tmp_path, capsys):
        src = tmp_path / "odd.pgm"
        write_pgm(src, np.zeros((15, 16)))
        code = main(["transform", str(src), "--outdir", str(tmp_path / "out")])
        assert code == 2
        assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# train / eval


@pytest.fixture(scope="session")
def trained_run(tmp_path_factory):
    """One tiny training run shared by the train/eval/consistency tests."""
    root = tmp_path_factory.mktemp("cli_train")
    outdir = root / "runs"
    cfg_path = write_config(root / "exp.config", tiny_config_text(outdir))
    assert main(["train", cfg_path]) == 0
    digest = config_hash(load_config(cfg_path))
    csv_path = outdir / f"metrics_{digest}.csv"
    return {
        "config": cfg_path,
        "outdir": outdir,
        "digest": digest,
        "csv": csv_path,
        "csv_bytes": csv_path.read_bytes(),
        "checkpoint": outdir / f"run_{digest}" / "checkpoints" / "final.wvpk",
    }


class TestTrain:
    def test_writes_metrics_and_checkpoints(self, trained_run):
        digest = trained_run["digest"]
        outdir = trained_run["outdir"]
        assert (outdir / f"metrics_{digest}.csv").exists()
        assert (outdir / f"metrics_{digest}.json").exists()
        ckpt_dir = outdir / f"run_{digest}" / "checkpoints"
        assert (ckpt_dir / "epoch000.wvpk").exists()
        assert (ckpt_dir / "final.wvpk").exists()
        rows = read_metric_rows(trained_run["csv"])
        assert 0.0 <= rows["final_test_accuracy"][0] <= 1.0

    def test_rerun_is_bit_identical(self, trained_run, capsys):
        assert main(["train", trained_run["config"]]) == 0
        assert "wrote" in capsys.readouterr().out
        assert trained_run["csv"].read_bytes() == trained_run["csv_bytes"]

    def test_trains_configs_in_turn(self, tmp_path):
        outdir = tmp_path / "runs"
        paths, digests = [], []
        for seed in (5, 6):
            text = tiny_config_text(outdir, seed=seed)
            paths.append(write_config(tmp_path / f"s{seed}.config", text))
            digests.append(config_hash(load_config(paths[-1])))
        assert digests[0] != digests[1]
        assert main(["train", *paths]) == 0
        for digest in digests:
            assert (outdir / f"metrics_{digest}.csv").exists()

    def test_one_channel_file_trains_then_evaluates(self, tmp_path):
        # the network's input channels follow the data, not a fixed RGB
        rgb = make_tiny_object_set(20, 16, 2, 2, seed=7)
        gray = tmp_path / "gray.wvds"
        save_image_set(gray, LabeledImageSet(rgb.images[:, :1], rgb.labels, rgb.class_count))
        text = tiny_config_text(tmp_path / "runs", kind="file", path=str(gray))
        cfg_path = write_config(tmp_path / "gray.config", text)
        assert main(["train", cfg_path]) == 0
        digest = config_hash(load_config(cfg_path))
        checkpoint = tmp_path / "runs" / f"run_{digest}" / "checkpoints" / "final.wvpk"
        assert main(["eval", cfg_path, "--checkpoint", str(checkpoint)]) == 0
        assert (tmp_path / "runs" / f"eval_{digest}.csv").exists()

    def test_invalid_config_exits_2(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "bad.config", "[dataset]\nkind = synthetic\nwheels = 4\n"
        )
        assert main(["train", cfg]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_config_exits_2(self, tmp_path, capsys):
        assert main(["train", str(tmp_path / "none.config")]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("c, h, w", [(0, 16, 16), (3, 0, 0)])
    def test_empty_axis_file_exits_2(self, tmp_path, capsys, c, h, w):
        path = tmp_path / "empty.wvds"
        path.write_bytes(b"WVDS" + struct.pack("<6I", 1, 2, c, h, w, 2)
                         + np.array([0, 1], dtype="<u4").tobytes())
        text = tiny_config_text(tmp_path / "runs", kind="file", path=str(path))
        assert main(["train", write_config(tmp_path / "empty.config", text)]) == 2
        assert "empty image set refused" in capsys.readouterr().err

    def test_non_finite_lr_exits_2(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path / "nan.config", tiny_config_text(tmp_path / "runs",
                                                                          lr="nan"))
        assert main(["train", cfg_path]) == 2
        assert "not a finite number" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()


    @pytest.mark.parametrize("lines", [
        "lr = -0.05",
        "lr_schedule = cosine\nlr_min = 1",
        "lr_schedule = step\nfactor = 0",
        "mode = kd\nteacher = t.wvpk\ntemperature = 0",
        "period = -3",
    ])
    def test_bad_train_value_exits_2_before_reading_data(self, tmp_path, capsys, monkeypatch,
                                                          lines):
        opened = []
        monkeypatch.setattr(analysis, "load_dataset", lambda *a, **k: opened.append(a))
        text = override(tiny_config_text(tmp_path / "runs"), f"[train]\n{lines}\n")
        assert main(["train", write_config(tmp_path / "bad.config", text)]) == 2
        assert "[train]" in capsys.readouterr().err
        assert not opened and not (tmp_path / "runs").exists()

    def test_repeated_key_exits_2_before_reading_data(self, tmp_path, capsys, monkeypatch):
        opened = []
        monkeypatch.setattr(analysis, "load_dataset", lambda *a, **k: opened.append(a))
        text = tiny_config_text(tmp_path / "runs") + "[train]\nlr = 0.3\n"
        assert main(["train", write_config(tmp_path / "bad.config", text)]) == 2
        assert "repeated key 'lr' in [train]" in capsys.readouterr().err
        assert not opened and not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("shift", [-1, 2])
    def test_bad_bottom_heavy_shift_exits_2_before_reading_data(self, tmp_path, capsys,
                                                                 monkeypatch, shift):
        opened = []
        monkeypatch.setattr(analysis, "load_dataset", lambda *a, **k: opened.append(a))
        text = tiny_config_text(tmp_path / "runs") + f"[model]\nbottom_heavy_shift = {shift}\n"
        assert main(["train", write_config(tmp_path / "bad.config", text)]) == 2
        assert "[model] bottom_heavy_shift" in capsys.readouterr().err
        assert not opened and not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("lines", ["n_test = 0", "object_size = 9", "classes = 5",
                                       "image_size = 15", "object_size = 4"])
    def test_bad_synthetic_set_exits_2_before_reading_data(self, tmp_path, capsys,
                                                           monkeypatch, lines):
        opened = []
        monkeypatch.setattr(analysis, "load_dataset", lambda *a, **k: opened.append(a))
        text = override(tiny_config_text(tmp_path / "runs"), f"[dataset]\n{lines}\n")
        assert main(["train", write_config(tmp_path / "bad.config", text)]) == 2
        assert "[dataset]" in capsys.readouterr().err
        assert not opened and not (tmp_path / "runs").exists()

    def test_empty_output_dir_is_the_working_dir(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = write_config(tmp_path / "here.config", tiny_config_text(""))
        assert main(["train", path]) == 0
        digest = config_hash(load_config(path))
        assert (tmp_path / f"metrics_{digest}.csv").exists()
        assert (tmp_path / f"run_{digest}" / "checkpoints").is_dir()

    @pytest.mark.parametrize("extra, key", [
        ("[model]\npool = strided\n", "[model] pool"),
        ("[train]\nmode = kd\nteacher = t.wvpk\nteacher_pool = strided\n",
         "[train] teacher_pool"),
    ])
    def test_strided_pool_with_variant_c_exits_2_before_reading_data(self, tmp_path, capsys,
                                                                      monkeypatch, extra, key):
        opened = []
        monkeypatch.setattr(analysis, "load_dataset", lambda *a, **k: opened.append(a))
        text = override(tiny_config_text(tmp_path / "runs"), extra)
        assert main(["train", write_config(tmp_path / "bad.config", text)]) == 2
        assert f"{key}: variant 'c' requires a pooling operator" in capsys.readouterr().err
        assert not opened and not (tmp_path / "runs").exists()


class TestEval:
    def test_eval_writes_report(self, trained_run):
        code = main(
            ["eval", trained_run["config"], "--checkpoint", str(trained_run["checkpoint"])]
        )
        assert code == 0
        rows = read_metric_rows(trained_run["outdir"] / f"eval_{trained_run['digest']}.csv")
        assert rows["test_loss"][1] == "nats"
        assert rows["test_loss"][0] >= 0.0
        assert 0.0 <= rows["test_accuracy"][0] <= 1.0
        # the final checkpoint reproduces the training run's test accuracy
        train_rows = read_metric_rows(trained_run["csv"])
        assert rows["test_accuracy"][0] == train_rows["final_test_accuracy"][0]

    def test_missing_checkpoint_exits_2(self, trained_run, tmp_path, capsys):
        code = main(
            ["eval", trained_run["config"], "--checkpoint", str(tmp_path / "no.wvpk")]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_checkpoint_directory_exits_2(self, trained_run, tmp_path, capsys):
        assert main(["eval", trained_run["config"], "--checkpoint", str(tmp_path)]) == 2
        assert f"error: cannot read {tmp_path}: Is a directory" in capsys.readouterr().err

    def test_checkpoint_without_input_stats_exits_2(self, trained_run, tmp_path, capsys):
        # the trained checkpoint without its input.* tensors
        old = tmp_path / "old.wvpk"
        tensors = backbone.read_checkpoint(trained_run["checkpoint"])
        net = backbone.Network(backbone.micro_schedule(), backbone.PoolKind("max"), "c", 2)
        net.load_state({name: arr for name, arr in tensors.items()
                        if not name.startswith("input.")})
        backbone.save_checkpoint(net, old)
        assert main(["eval", trained_run["config"], "--checkpoint", str(old)]) == 2
        assert "missing ['input.mean', 'input.std']" in capsys.readouterr().err

    def test_eval_and_consistency_read_no_training_split(self, tmp_path):
        root = tmp_path / "cifar"
        root.mkdir()
        for split, n, seed in (("train", 20, 1), ("test", 10, 2)):
            data = make_tiny_object_set(n, 32, 4, 4, seed=seed)
            pixels = np.round(data.images * 255).astype(np.uint8)
            (root / f"{split}.bin").write_bytes(
                np.column_stack([data.labels, data.labels, pixels.reshape(n, -1)])
                .astype(np.uint8).tobytes())
        text = tiny_config_text(tmp_path / "runs", kind="cifar100", path="cifar")
        cfg_path = write_config(tmp_path / "cifar.config", text)
        digest = config_hash(load_config(cfg_path))
        checkpoint = tmp_path / "runs" / f"run_{digest}" / "checkpoints" / "final.wvpk"
        assert main(["train", cfg_path, "--data-dir", str(tmp_path)]) == 0
        outputs = {}
        for present in (True, False):
            if not present:
                (root / "train.bin").unlink()
            for command in ("eval", "consistency"):
                assert main([command, cfg_path, "--checkpoint", str(checkpoint),
                             "--data-dir", str(tmp_path)]) == 0
                csv = tmp_path / "runs" / f"{command}_{digest}.csv"
                outputs[command, present] = csv.read_bytes()
        for command in ("eval", "consistency"):
            assert outputs[command, True] == outputs[command, False]
        train_rows = read_metric_rows(tmp_path / "runs" / f"metrics_{digest}.csv")
        eval_rows = read_metric_rows(tmp_path / "runs" / f"eval_{digest}.csv")
        assert eval_rows["test_accuracy"][0] == train_rows["final_test_accuracy"][0]

    def test_constant_channel_test_split_takes_the_checkpoint_stats(self, tmp_path):
        # the net is built with the test split's stats before the checkpoint's
        # replace them; a channel with no spread there has its std floored, so
        # the commands run on the checkpoint's stats
        root = tmp_path / "cifar"
        root.mkdir()
        for split, n, seed in (("train", 20, 1), ("test", 10, 2)):
            data = make_tiny_object_set(n, 32, 4, 4, seed=seed)
            pixels = np.round(data.images * 255).astype(np.uint8)
            if split == "test":
                pixels[:, 0] = 128
            (root / f"{split}.bin").write_bytes(
                np.column_stack([data.labels, data.labels, pixels.reshape(n, -1)])
                .astype(np.uint8).tobytes())
        cfg_path = write_config(
            tmp_path / "cifar.config",
            tiny_config_text(tmp_path / "runs", kind="cifar100", path="cifar"))
        cfg = load_config(cfg_path)
        model = analysis.build_model_from_config(
            cfg, 100, analysis.load_dataset(cfg, "train", str(tmp_path)))
        checkpoint = tmp_path / "net.wvpk"
        backbone.save_checkpoint(model, checkpoint)
        for command in ("eval", "consistency"):
            assert main([command, cfg_path, "--checkpoint", str(checkpoint),
                         "--data-dir", str(tmp_path)]) == 0
        rows = read_metric_rows(tmp_path / "runs" / f"eval_{config_hash(cfg)}.csv")
        _loss, acc = analysis.evaluate(model, analysis.load_dataset(cfg, "test", str(tmp_path)))
        assert rows["test_accuracy"][0] == acc


class TestDataDir:
    @pytest.fixture()
    def file_dataset(self, tmp_path):
        dataroot = tmp_path / "data"
        dataroot.mkdir()
        save_image_set(dataroot / "toy.wvds", make_tiny_object_set(20, 16, 2, 2, seed=7))
        cfg_path = write_config(
            tmp_path / "file.config",
            tiny_config_text(tmp_path / "runs", kind="file", path="toy.wvds"),
        )
        return dataroot, cfg_path, config_hash(load_config(cfg_path))

    def test_env_var_supplies_dataset_root(self, file_dataset, tmp_path, monkeypatch):
        dataroot, cfg_path, digest = file_dataset
        monkeypatch.setenv("WAVEPOOL_DATA_DIR", str(dataroot))
        assert main(["train", cfg_path]) == 0
        assert (tmp_path / "runs" / f"metrics_{digest}.csv").exists()

    def test_flag_overrides_env_var(self, file_dataset, tmp_path, monkeypatch):
        dataroot, cfg_path, _ = file_dataset
        monkeypatch.setenv("WAVEPOOL_DATA_DIR", str(tmp_path / "wrong"))
        assert main(["train", cfg_path, "--data-dir", str(dataroot)]) == 0

    def test_bad_flag_beats_good_env_var(self, file_dataset, tmp_path, monkeypatch, capsys):
        dataroot, cfg_path, _ = file_dataset
        monkeypatch.setenv("WAVEPOOL_DATA_DIR", str(dataroot))
        assert main(["train", cfg_path, "--data-dir", str(tmp_path / "wrong")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unresolvable_path_exits_2(self, file_dataset, monkeypatch, capsys):
        _, cfg_path, _ = file_dataset
        monkeypatch.delenv("WAVEPOOL_DATA_DIR", raising=False)
        monkeypatch.chdir(os.path.dirname(cfg_path))
        assert main(["train", cfg_path]) == 2
        assert "error:" in capsys.readouterr().err

    @staticmethod
    def kd_config(tmp_path):
        text = override(tiny_config_text(tmp_path / "runs"),
                        "[train]\nmode = kd\nteacher = t.wvpk\n")
        return write_config(tmp_path / "kd.config", text)

    def test_relative_teacher_joins_the_data_dir(self, trained_run, tmp_path, monkeypatch):
        monkeypatch.delenv("WAVEPOOL_DATA_DIR", raising=False)
        (tmp_path / "data").mkdir()
        shutil.copy(trained_run["checkpoint"], tmp_path / "data" / "t.wvpk")
        cfg_path = self.kd_config(tmp_path)
        assert main(["train", cfg_path, "--data-dir", str(tmp_path / "data")]) == 0
        assert (tmp_path / "runs" / f"metrics_{config_hash(load_config(cfg_path))}.csv").exists()

    def test_teacher_beside_the_working_dir_only_exits_2(self, trained_run, tmp_path,
                                                          monkeypatch, capsys):
        # the data dir applies to the teacher as to the dataset, with no
        # fallback to the working directory
        (tmp_path / "data").mkdir()
        shutil.copy(trained_run["checkpoint"], tmp_path / "t.wvpk")
        monkeypatch.chdir(tmp_path)
        cfg_path = self.kd_config(tmp_path)
        assert main(["train", cfg_path, "--data-dir", str(tmp_path / "data")]) == 2
        joined = os.path.join(str(tmp_path / "data"), "t.wvpk")
        assert f"cannot read {joined}: " in capsys.readouterr().err


# ---------------------------------------------------------------------------
# count / alias / consistency


class TestCount:
    def count(self, tmp_path, pool, extra=()):
        cfg_path = write_config(
            tmp_path / f"{pool.replace(':', '_')}.config",
            tiny_config_text(tmp_path / "runs", pool=pool),
        )
        assert main(["count", cfg_path, *extra]) == 0
        digest = config_hash(load_config(cfg_path))
        return read_metric_rows(tmp_path / "runs" / f"count_{digest}.csv")

    def test_pool_swap_keeps_params_changes_flops(self, tmp_path):
        by_max = self.count(tmp_path, "max")
        by_wavelet = self.count(tmp_path, "wavelet:haar")
        assert by_max["param_count"][0] == by_wavelet["param_count"][0]
        assert by_max["flop_count"][0] != by_wavelet["flop_count"][0]
        for rows in (by_max, by_wavelet):
            assert rows["param_count"][0].is_integer()
            assert rows["flop_count"][0].is_integer()
            assert rows["param_count"][1] == "params"
            assert rows["flop_count"][1] == "flops@16x16"

    @pytest.mark.parametrize("kind", ["file", "cifar100"])
    def test_counts_the_network_train_builds(self, tmp_path, kind):
        # channels, classes and input normalization come from the data: a
        # 1-channel 16x16 image set, and CIFAR-100's 100-class head
        if kind == "file":
            rgb = make_tiny_object_set(20, 16, 2, 3, seed=7)
            save_image_set(tmp_path / "gray.wvds",
                           LabeledImageSet(rgb.images[:, :1], rgb.labels, rgb.class_count))
            path = "gray.wvds"
        else:
            (tmp_path / "cifar").mkdir()
            data = make_tiny_object_set(4, 32, 4, 4, seed=7)
            pixels = np.round(data.images * 255).astype(np.uint8)
            for split in ("train", "test"):
                (tmp_path / "cifar" / f"{split}.bin").write_bytes(
                    np.column_stack([data.labels, data.labels, pixels.reshape(4, -1)])
                    .astype(np.uint8).tobytes())
            path = "cifar"
        text = tiny_config_text(tmp_path / "runs", kind=kind, path=path)
        cfg_path = write_config(tmp_path / f"{kind}.config", text)
        assert main(["count", cfg_path, "--data-dir", str(tmp_path)]) == 0
        cfg = load_config(cfg_path)
        rows = read_metric_rows(tmp_path / "runs" / f"count_{config_hash(cfg)}.csv")
        train_set = analysis.load_dataset(cfg, "train", str(tmp_path))
        trained = analysis.build_model_from_config(cfg, train_set.class_count, train_set)
        _n, c, h, w = train_set.images.shape
        assert (c, trained.head.classes) == ((1, 3) if kind == "file" else (3, 100))
        assert rows["param_count"][0] == backbone.count_params(trained)
        assert rows["flop_count"] == (backbone.count_flops(trained, h, w), f"flops@{h}x{w}")

    def test_height_width_override(self, tmp_path):
        rows = self.count(tmp_path, "avg", extra=["--height", "8", "--width", "8"])
        assert rows["flop_count"][1] == "flops@8x8"

    def test_resolution_scales_flops_not_params(self, tmp_path):
        small = self.count(tmp_path, "max")
        big = self.count(tmp_path, "max", extra=["--height", "32", "--width", "32"])
        assert small["param_count"][0] == big["param_count"][0]
        assert big["flop_count"][0] > small["flop_count"][0]

    def test_negative_size_exits_2(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path / "max.config", tiny_config_text(tmp_path / "runs"))
        for size in ("-32", "0"):
            assert main(["count", cfg_path, "--height", size, "--width", size]) == 2
            assert "positive" in capsys.readouterr().err
            assert not (tmp_path / "runs").exists()

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path / "seed.config",
                                tiny_config_text(tmp_path / "runs", seed=-1))
        assert main(["count", cfg_path]) == 2
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_config_not_utf8_exits_2(self, tmp_path, capsys):
        path = tmp_path / "latin1.config"
        text = "# r\u00e9sum\u00e9 of the run\n" + tiny_config_text(tmp_path / "runs")
        path.write_bytes(text.encode("latin-1"))
        assert main(["count", str(path)]) == 2
        assert f"{path}: not UTF-8 text (byte 3)" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_dataset_too_large_to_allocate_exits_2(self, tmp_path, capsys):
        # 2 test images of 3 x 10^6 x 10^6 float64 pixels: about 44 TiB
        text = override(tiny_config_text(tmp_path / "runs"),
                        "[dataset]\nn_test = 2\nimage_size = 1000000\n")
        assert main(["count", write_config(tmp_path / "huge.config", text)]) == 2
        err = capsys.readouterr().err
        assert "Unable to allocate" in err and "Traceback" not in err

    def test_pool_input_below_filter_length_exits_2(self, tmp_path, capsys):
        cfg_path = write_config(
            tmp_path / "ch55.config", tiny_config_text(tmp_path / "runs", pool="wavelet:ch5.5")
        )
        assert main(["count", cfg_path, "--height", "32", "--width", "32"]) == 2
        assert "stage3.block0.conv2.pool" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()


class TestAlias:
    def test_haar_at_pi_ratio_in_csv(self, tmp_path):
        code = main(
            ["alias", "wavelet:haar", "--freqs", "1.0", "--outdir", str(tmp_path)]
        )
        assert code == 0
        rows = read_metric_rows(tmp_path / "alias_wavelet_haar.csv")
        assert rows["energy_ratio@1.0000pi"][0] <= 1e-12

    def test_strided_folds_at_three_quarters_pi(self, tmp_path):
        assert main(["alias", "strided", "--freqs", "0.75", "--outdir", str(tmp_path)]) == 0
        rows = read_metric_rows(tmp_path / "alias_strided.csv")
        assert rows["energy_ratio@0.7500pi"][0] >= 0.95
        assert rows["folded_below_nyquist@0.7500pi"][0] == 1.0

    def test_default_frequency_grid(self, tmp_path):
        assert main(["alias", "blur:1-2-1", "--outdir", str(tmp_path)]) == 0
        rows = read_metric_rows(tmp_path / "alias_blur_1-2-1.csv")
        for tag in ("0.2500", "0.5000", "0.7500", "1.0000"):
            assert f"energy_ratio@{tag}pi" in rows

    def test_empty_outdir_is_the_working_dir(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["alias", "wavelet:haar", "--outdir", ""]) == 0
        assert (tmp_path / "alias_wavelet_haar.csv").exists()

    def test_slug_escapes_dots(self, tmp_path):
        assert main(["alias", "wavelet:ch3.3", "--freqs", "0.5", "--outdir", str(tmp_path)]) == 0
        assert (tmp_path / "alias_wavelet_ch3p3.csv").exists()

    def test_unknown_pool_exits_2(self, tmp_path, capsys):
        assert main(["alias", "gaussian", "--outdir", str(tmp_path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_nan_blur_weight_exits_2(self, tmp_path, capsys):
        assert main(["alias", "blur:nan-1-1", "--outdir", str(tmp_path / "out")]) == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_off_grid_frequency_exits_2(self, tmp_path, capsys):
        code = main(["alias", "max", "--freqs", "0.77", "--outdir", str(tmp_path)])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_frequency_in_the_dc_bin_exits_2(self, tmp_path, capsys):
        code = main(
            ["alias", "wavelet:haar", "--freqs", "1e-10", "--outdir", str(tmp_path / "out")]
        )
        assert code == 2
        assert "not an exact bin" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_repeated_frequency_exits_2(self, tmp_path, capsys):
        code = main(["alias", "avg", "--freqs", "0.5,0.5", "--outdir", str(tmp_path / "out")])
        assert code == 2
        assert "repeats bin 16" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("freqs", ["abc", "nan", "inf", ""])
    def test_malformed_frequency_list_exits_2(self, tmp_path, capsys, freqs):
        code = main(["alias", "max", "--freqs", freqs, "--outdir", str(tmp_path / "out")])
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestConsistency:
    def test_report_written(self, trained_run):
        code = main(
            [
                "consistency",
                trained_run["config"],
                "--checkpoint",
                str(trained_run["checkpoint"]),
                "--max-shift",
                "2",
                "--samples",
                "4",
            ]
        )
        assert code == 0
        digest = trained_run["digest"]
        rows = read_metric_rows(trained_run["outdir"] / f"consistency_{digest}.csv")
        assert 0.0 <= rows["argmax_agreement"][0] <= 1.0
        assert -1.0 <= rows["logit_cosine"][0] <= 1.0
        json_path = trained_run["outdir"] / f"consistency_{digest}.json"
        payload = json.loads(json_path.read_text(encoding="utf-8"))
        assert payload["metadata"]["pool"] == "wavelet:haar"
        assert payload["metadata"]["samples"] == "4"

    def test_zero_max_shift_exits_2(self, trained_run, capsys):
        code = main(
            [
                "consistency",
                trained_run["config"],
                "--checkpoint",
                str(trained_run["checkpoint"]),
                "--max-shift",
                "0",
            ]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_shift_of_a_whole_side_exits_2(self, trained_run, capsys):
        # the run's images are 16x16: a roll by 16 is no shift at all
        code = main(["consistency", trained_run["config"],
                     "--checkpoint", str(trained_run["checkpoint"]), "--max-shift", "16"])
        assert code == 2
        assert "max_shift must be in [1, 16)" in capsys.readouterr().err

    def test_negative_samples_exits_2(self, trained_run, capsys):
        code = main(
            [
                "consistency",
                trained_run["config"],
                "--checkpoint",
                str(trained_run["checkpoint"]),
                "--samples",
                "-3",
            ]
        )
        assert code == 2
        assert "sample_limit" in capsys.readouterr().err


class TestReportNames:
    @pytest.mark.parametrize("command, stem", [
        ("train", "metrics"), ("eval", "eval"), ("count", "count"), ("consistency", "consistency"),
    ])
    def test_json_carries_the_hash_in_its_name(self, trained_run, command, stem):
        checkpoint = ["--checkpoint", str(trained_run["checkpoint"])]
        extra = {"train": [], "count": [], "eval": checkpoint,
                 "consistency": [*checkpoint, "--max-shift", "1", "--samples", "2"]}[command]
        assert main([command, trained_run["config"], *extra]) == 0
        digest = trained_run["digest"]
        payload = json.loads((trained_run["outdir"] / f"{stem}_{digest}.json").read_text())
        assert payload["metadata"]["config_hash"] == digest
        assert (trained_run["outdir"] / f"{stem}_{digest}.csv").exists()


# ---------------------------------------------------------------------------
# parser


class TestParser:
    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main(["defragment"])
        assert exc.value.code == 2

    def test_no_arguments(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
