"""Spectra, alias sweeps, shift consistency, and the experiment driver."""

import json
import os
import re

import numpy as np
import pytest

from wavepool.analysis import (
    EVAL_BATCH,
    MetricsReport,
    alias_energy_sweep,
    build_model_from_config,
    evaluate,
    load_dataset,
    shift_consistency,
    spectrum_energy_fraction_above,
    train_model,
)
from wavepool.autodiff import Tensor, no_grad
from wavepool.backbone import (
    Network,
    StageSchedule,
    micro_schedule,
    read_checkpoint,
    save_checkpoint,
)
from wavepool.config import parse_config
from wavepool.data import LabeledImageSet, make_tiny_object_set
from wavepool.errors import (
    InvalidConfig,
    MissingInput,
)
from wavepool.filterbank import parse_wavelet
from wavepool.optim import LR_SCHEDULES
from wavepool.pooling import parse_pool

PI = np.pi


def tiny_config_text(**kw):
    """Config for fast end-to-end runs: 20 train images at 16x16."""
    base = {
        "pool": "wavelet:haar",
        "variant": "c",
        "epochs": 1,
        "lr": 0.05,
        "mode": "plain",
        "teacher": "",
        "alpha": 0.5,
        "seed": 3,
        "lr_schedule": "constant",
    }
    base.update(kw)
    return (
        "[dataset]\n"
        "kind = synthetic\n"
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
        f"lr_schedule = {base['lr_schedule']}\n"
        f"mode = {base['mode']}\n"
        f"teacher = {base['teacher']}\n"
        f"alpha = {base['alpha']}\n"
        f"seed = {base['seed']}\n"
    )


class TestMetricsReport:
    def test_csv_format(self):
        r = MetricsReport()
        r.add("accuracy", 0.975, "fraction")
        r.add("loss", 0.125, "nats")
        lines = r.to_csv().splitlines()
        assert lines[0] == "name,value,unit"
        assert lines[1] == "accuracy,0.975,fraction"
        assert len(lines) == 3

    def test_json_round_trip_lossless(self):
        r = MetricsReport(metadata={"seed": "7", "config_hash": "abc123"})
        r.add("ratio", 1.0 / 3.0, "ratio")
        r.add("count", 25557032.0, "params")
        back = json.loads(r.to_json())
        assert {k: (e["value"], e["unit"]) for k, e in back["metrics"].items()} == r.metrics
        assert back["metadata"] == r.metadata

    def test_write_emits_both_files(self, tmp_path):
        r = MetricsReport()
        r.add("x", 2.0)
        csv_path, json_path = r.write(tmp_path, "metrics_test")
        assert os.path.exists(csv_path) and os.path.exists(json_path)
        with open(json_path, encoding="utf-8") as f:
            assert f.read() == r.to_json()
        with open(csv_path, encoding="utf-8") as f:
            assert f.read() == r.to_csv()


class TestSpectrumFraction:
    def test_checkerboard_is_all_high_frequency(self):
        i, j = np.indices((8, 8))
        x = (-1.0) ** (i + j)
        assert spectrum_energy_fraction_above(x, PI / 2) == pytest.approx(1.0)

    def test_constant_is_all_low_frequency(self):
        assert spectrum_energy_fraction_above(np.ones((8, 8)), PI / 2) <= 1e-12

    def test_zero_input_reports_zero(self):
        assert spectrum_energy_fraction_above(np.zeros((8, 8)), PI / 2) == 0.0

    def test_constant_concentrates_at_dc(self):
        # 2 pi / 8 is the lowest nonzero bin of an 8-point axis: nothing of a
        # constant reaches it, while a zero cutoff takes in all its energy
        x = np.full((8, 8), 3.0)
        assert spectrum_energy_fraction_above(x, 2 * PI / 8) <= 1e-12
        assert spectrum_energy_fraction_above(x, 0.0) == pytest.approx(1.0)

    def test_sinusoid_energy_sits_at_its_signed_frequency(self):
        # cos(3pi/8 a) puts half its energy in bin 3 and half in bin 13, i.e.
        # -3: both lie at 3pi/8, so the cutoff splits them all or nothing
        a = np.arange(16)
        x = np.cos(2 * PI * 3 * a / 16)[:, None].repeat(16, axis=1)
        assert spectrum_energy_fraction_above(x, PI / 4) == pytest.approx(1.0)
        assert spectrum_energy_fraction_above(x, PI / 2) <= 1e-12

    # A bin that lies exactly on the cutoff counts as above it.  2 pi k / n
    # rounds an ulp below pi / 2 (bin n/4) at n = 44 and 60, and below pi
    # (bin n/2) at n = 22, 30 and 44; at n = 16 it is exact.
    @pytest.mark.parametrize("n", [16, 44, 60])
    def test_quarter_band_bin_on_pi_over_2_counts_as_above(self, n):
        x = np.cos(PI / 2 * np.arange(n))[:, None].repeat(n, axis=1)
        assert spectrum_energy_fraction_above(x, PI / 2) == pytest.approx(1.0)

    @pytest.mark.parametrize("n", [16, 22, 30, 44])
    def test_nyquist_bin_on_pi_counts_as_above(self, n):
        i, j = np.indices((n, n))
        assert spectrum_energy_fraction_above((-1.0) ** (i + j), PI) == pytest.approx(1.0)

    def test_tall_600x8_checkerboard_has_no_size_cap(self):
        i, j = np.indices((600, 8))
        x = (-1.0) ** (i + j)
        assert spectrum_energy_fraction_above(x, PI / 2) == pytest.approx(1.0)

    def test_non_matrix_rejected(self):
        with pytest.raises(InvalidConfig, match="matrix"):
            spectrum_energy_fraction_above(np.zeros(16), PI / 2)


class TestAliasEnergySweep:
    def test_haar_kills_checkerboard_frequency(self):
        report = alias_energy_sweep(parse_pool("wavelet:haar"), [PI])
        assert report.value("energy_ratio@1.0000pi") <= 1e-12

    def test_naive_subsampling_folds_pi_to_dc(self):
        report = alias_energy_sweep(parse_pool("strided"), [PI])
        assert report.value("energy_ratio@1.0000pi") == pytest.approx(1.0, abs=1e-9)
        assert report.value("folded_freq@1.0000pi") == 0.0
        assert report.value("folded_fraction@1.0000pi") == pytest.approx(1.0, abs=1e-9)
        assert report.value("folded_below_nyquist@1.0000pi") == 1.0

    def test_three_quarter_band_contrast(self):
        freq = 3 * PI / 4
        haar = alias_energy_sweep(parse_pool("wavelet:haar"), [freq])
        naive = alias_energy_sweep(parse_pool("strided"), [freq])
        assert haar.value("energy_ratio@0.7500pi") <= 0.35
        assert naive.value("energy_ratio@0.7500pi") >= 0.95
        assert naive.value("folded_below_nyquist@0.7500pi") == 1.0

    def test_below_half_band_passes_through(self):
        freq = PI / 4  # doubles to pi/2: still representable after decimation
        naive = alias_energy_sweep(parse_pool("strided"), [freq])
        assert naive.value("energy_ratio@0.2500pi") == pytest.approx(1.0, abs=1e-9)
        assert naive.value("folded_freq@0.2500pi") == pytest.approx(0.5)
        assert naive.value("folded_below_nyquist@0.2500pi") == 0.0
        haar = alias_energy_sweep(parse_pool("wavelet:haar"), [freq])
        assert 0.5 <= haar.value("energy_ratio@0.2500pi") <= 1.0

    @pytest.mark.parametrize(
        "pool_text", ["avg", "blur:1-2-1", "strided", "wavelet:haar", "wavelet:db2",
                      "wavelet:db4"]
    )
    def test_unit_ratio_bound_for_energy_normalized_pools(self, pool_text):
        freqs = [k * PI / 8 for k in range(1, 9)]
        report = alias_energy_sweep(parse_pool(pool_text), freqs)
        for name, (value, _unit) in report.metrics.items():
            if name.startswith("energy_ratio@"):
                assert 0.0 <= value <= 1.0 + 1e-9, (pool_text, name, value)

    @pytest.mark.parametrize(
        "pool_text,taps",
        [pytest.param(text, taps, id=text) for text, taps in
         [("avg", [1, 1]), ("strided", [1]), ("blur:1-2-1", [1, 2, 1]),
          ("blur:1-4-6-4-1", [1, 4, 6, 4, 1])]
         + [(f"wavelet:{name}", parse_wavelet(name).analysis_low)
            for name in ("haar", "db2", "db4", "ch3.3", "ch5.5")]],
    )
    def test_linear_pools_follow_their_filter_response(self, pool_text, taps):
        # a plane wave through a periodic decimating filter K keeps its
        # shape: each axis scales it by |K(w)| / K(0) and moves it to 2w
        freqs = [k * PI / 8 for k in range(1, 8)]  # pi is a null of some filters
        report = alias_energy_sweep(parse_pool(pool_text), freqs)
        for freq in freqs:
            label = f"{freq / PI:.4f}pi"
            response = abs(np.polyval(taps[::-1], np.exp(-1j * freq))) / np.sum(taps)
            assert report.value(f"energy_ratio@{label}") == pytest.approx(response**4, abs=1e-12)
            assert report.value(f"folded_fraction@{label}") == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("pool_text", ["avg", "wavelet:haar", "blur:1-2-1", "blur:1-4-6-4-1"])
    def test_filter_null_reports_no_folded_energy(self, pool_text):
        # pi is a null of these filters: the output is rounding noise
        # (about 4e-29), so there is no energy to find at the folded bin
        report = alias_energy_sweep(parse_pool(pool_text), [PI])
        assert report.value("energy_ratio@1.0000pi") <= 1e-20
        assert report.value("folded_fraction@1.0000pi") == 0.0

    @pytest.mark.parametrize(
        "pool_text", ["strided", "avg", "max", "blur:1-2-1", "wavelet:haar", "wavelet:db4"]
    )
    def test_folding_rows_describe_the_probe_not_the_pool(self, pool_text):
        # where 2w lands, and whether it wraps, depend on w alone; the
        # energy a pool keeps as alias is its energy_ratio where the flag is 1
        freqs = [k * PI / 8 for k in (2, 4, 6, 8)]
        report = alias_energy_sweep(parse_pool(pool_text), freqs)
        landed = [report.value(f"folded_freq@{f / PI:.4f}pi") for f in freqs]
        wrapped = [report.value(f"folded_below_nyquist@{f / PI:.4f}pi") for f in freqs]
        assert landed == [0.5, 1.0, 0.5, 0.0]
        assert wrapped == [0.0, 0.0, 1.0, 1.0]

    def test_off_grid_frequency_rejected(self):
        with pytest.raises(InvalidConfig):
            alias_energy_sweep(parse_pool("avg"), [0.77])

    def test_out_of_band_frequency_rejected(self):
        with pytest.raises(InvalidConfig):
            alias_energy_sweep(parse_pool("avg"), [0.0])
        with pytest.raises(InvalidConfig):
            alias_energy_sweep(parse_pool("avg"), [3.5])

    def test_frequency_in_the_dc_bin_rejected(self):
        with pytest.raises(InvalidConfig, match="not an exact bin"):
            alias_energy_sweep(parse_pool("avg"), [1e-12])

    def test_repeated_bin_rejected(self):
        # rows are keyed by frequency, so a second probe of one bin would
        # overwrite the first
        for freqs in ([PI / 2, PI / 2], [PI / 2, PI / 2 + 1e-12], [PI / 4, PI / 2, PI / 4]):
            with pytest.raises(InvalidConfig, match="repeats bin"):
                alias_energy_sweep(parse_pool("avg"), freqs)

    def test_metadata_names_the_pool(self):
        report = alias_energy_sweep(parse_pool("wavelet:haar"), [PI / 2])
        assert report.metadata["pool"] == "wavelet:haar"


class TestShiftConsistency:
    def test_stride_one_network_is_perfectly_consistent(self):
        # with no down-sampling every circular shift is a full-stride shift,
        # so predictions cannot move
        schedule = StageSchedule(stages=((1, 8, False),), stem_channels=8, expansion=2)
        model = Network(schedule, parse_pool("wavelet:haar"), "c",
                        num_classes=4, seed=1, conv_pad="circular")
        data = make_tiny_object_set(6, image_size=16, object_size=2, classes=4, seed=0)
        report = shift_consistency(model, data, max_shift=3)
        assert report.value("argmax_agreement") == 1.0
        assert report.value("logit_cosine") >= 1.0 - 1e-12

    def test_zero_weight_model_reports_unit_cosine_by_convention(self):
        model = Network(micro_schedule(), parse_pool("max"), "c",
                        num_classes=4, seed=0)
        for _name, arr in model.state():
            arr[...] = 0.0
        data = make_tiny_object_set(4, image_size=16, object_size=2, classes=4, seed=0)
        report = shift_consistency(model, data, max_shift=2)
        assert report.value("logit_cosine") == 1.0
        assert report.value("argmax_agreement") == 1.0

    def test_zero_logits_against_nonzero_logits_score_cosine_zero(self):
        class ZeroUntilShifted:
            """Zero logits for the unshifted forward, ones for every shift."""

            calls = 0

            def forward(self, images, training):
                self.calls += 1
                return Tensor(np.full((images.shape[0], 3), float(self.calls > 1)))

        data = make_tiny_object_set(3, image_size=16, object_size=2, classes=3, seed=0)
        report = shift_consistency(ZeroUntilShifted(), data, max_shift=2)
        assert report.value("logit_cosine") == 0.0
        assert report.value("argmax_agreement") == 1.0

    def test_scores_bounded(self):
        model = Network(micro_schedule(), parse_pool("strided"), "a",
                        num_classes=4, seed=5, conv_pad="same")
        data = make_tiny_object_set(5, image_size=16, object_size=2, classes=4, seed=2)
        report = shift_consistency(model, data, max_shift=2)
        assert 0.0 <= report.value("argmax_agreement") <= 1.0
        assert -1.0 <= report.value("logit_cosine") <= 1.0

    def test_sample_limit(self):
        model = Network(micro_schedule(), parse_pool("max"), "c",
                        num_classes=4, seed=0)
        data = make_tiny_object_set(6, image_size=16, object_size=2, classes=4, seed=0)
        report = shift_consistency(model, data, max_shift=1, sample_limit=2)
        assert report.metadata["samples"] == "2"
        with pytest.raises(InvalidConfig):
            shift_consistency(model, data, max_shift=1, sample_limit=-3)

    def test_shift_of_a_whole_side_rejected(self):
        # a roll by the image side is the identity along that axis, so the
        # largest shift that moves the image is one pixel short of the side
        class Constant:
            def forward(self, images, training):
                return Tensor(np.ones((images.shape[0], 2)))

        data = make_tiny_object_set(2, image_size=16, object_size=2, classes=2, seed=0)
        assert shift_consistency(Constant(), data, max_shift=15).metadata["max_shift"] == "15"
        # the shorter side bounds the shift
        wide = LabeledImageSet(np.zeros((1, 1, 8, 12)), np.zeros(1), 2)
        for images, side in ((data, 16), (wide, 8)):
            with pytest.raises(InvalidConfig, match=re.escape(f"must be in [1, {side})")):
                shift_consistency(Constant(), images, max_shift=side)

    def test_bad_max_shift_rejected(self):
        model = Network(micro_schedule(), parse_pool("max"), "c",
                        num_classes=4, seed=0)
        data = make_tiny_object_set(2, image_size=16, object_size=2, classes=2, seed=0)
        with pytest.raises(InvalidConfig):
            shift_consistency(model, data, max_shift=0)


class TestLoadDataset:
    def test_synthetic_deterministic_and_split_disjoint(self):
        cfg = parse_config(tiny_config_text())
        a = load_dataset(cfg, "train")
        b = load_dataset(cfg, "train")
        t = load_dataset(cfg, "test")
        assert np.array_equal(a.images, b.images)
        assert np.array_equal(a.labels, b.labels)
        assert not np.array_equal(a.images[: len(t)], t.images)

    def test_file_kind_round_trips(self, tmp_path):
        from wavepool.data import save_image_set

        data = make_tiny_object_set(8, image_size=16, object_size=2, classes=2, seed=4)
        path = tmp_path / "set.wvds"
        save_image_set(path, data)
        text = tiny_config_text().replace(
            "kind = synthetic", f"kind = file\npath = {path}"
        )
        loaded = load_dataset(parse_config(text), "train")
        assert np.array_equal(loaded.images, data.images)
        assert np.array_equal(loaded.labels, data.labels)

    def test_relative_path_joins_data_dir(self, tmp_path):
        from wavepool.data import save_image_set

        data = make_tiny_object_set(4, image_size=16, object_size=2, classes=2, seed=4)
        save_image_set(tmp_path / "set.wvds", data)
        text = tiny_config_text().replace("kind = synthetic", "kind = file\npath = set.wvds")
        loaded = load_dataset(parse_config(text), "train", data_dir=str(tmp_path))
        assert len(loaded) == 4

    def test_missing_file_raises(self):
        text = tiny_config_text().replace(
            "kind = synthetic", "kind = file\npath = /nonexistent/set.wvds"
        )
        with pytest.raises(MissingInput, match="cannot read /nonexistent/"):
            load_dataset(parse_config(text), "train")


def lr_at(cfg, epoch):
    """The rate ``train_model`` uses in ``epoch``."""
    return LR_SCHEDULES[cfg.train.lr_schedule](cfg.train, epoch)


class TestEpochLr:
    def test_step_schedule_reproduction(self):
        text = tiny_config_text(lr="0.1", epochs="200").replace(
            "lr_schedule = constant", "lr_schedule = step\nmilestones = 100,150\nfactor = 0.1"
        )
        cfg = parse_config(text)
        assert lr_at(cfg, 0) == pytest.approx(0.1)
        assert lr_at(cfg, 120) == pytest.approx(0.01)
        assert lr_at(cfg, 180) == pytest.approx(0.001)

    def test_cosine_schedule_reproduction(self):
        text = tiny_config_text(lr="0.00375", epochs="60", lr_schedule="cosine").replace(
            "seed = 3", "seed = 3\nlr_min = 3.75e-05\nperiod = 30"
        )
        cfg = parse_config(text)
        assert lr_at(cfg, 0) == pytest.approx(3.75e-3)
        assert lr_at(cfg, 30) == pytest.approx(3.75e-3)
        assert lr_at(cfg, 15) == pytest.approx((3.75e-3 + 3.75e-5) / 2)

    def test_constant_schedule(self):
        cfg = parse_config(tiny_config_text(lr="0.07"))
        assert lr_at(cfg, 0) == lr_at(cfg, 9) == pytest.approx(0.07)


class TestExperimentRuns:
    def test_two_runs_bit_identical(self):
        cfg = parse_config(tiny_config_text())
        r1 = train_model(cfg)[1]
        r2 = train_model(cfg)[1]
        assert r1.metrics == r2.metrics  # exact float equality, all rows
        assert r1.metadata["config_hash"] == r2.metadata["config_hash"]

    def test_report_contents(self):
        cfg = parse_config(tiny_config_text(epochs="2"))
        report = train_model(cfg)[1]
        for key in ("train_loss_epoch0", "train_accuracy_epoch1", "final_test_loss",
                    "final_test_accuracy", "param_count"):
            assert key in report.metrics
        assert 0.0 <= report.value("final_test_accuracy") <= 1.0
        assert report.value("param_count") > 0
        assert report.metadata["mode"] == "plain"

    def test_checkpoints_written_each_epoch(self, tmp_path):
        cfg = parse_config(tiny_config_text(epochs="2"))
        model, _report = train_model(cfg, checkpoint_dir=str(tmp_path))
        for name in ("epoch000.wvpk", "epoch001.wvpk", "final.wvpk"):
            assert (tmp_path / name).exists()
        tensors = read_checkpoint(tmp_path / "final.wvpk")
        for name, arr in model.state():
            assert np.array_equal(tensors[name], arr)

    def test_kd_with_full_hard_label_weight_matches_plain(self, tmp_path):
        # alpha = 1 reduces kd_loss to plain cross-entropy exactly, so the
        # whole run must be bit-identical to plain mode
        cfg = parse_config(tiny_config_text())
        teacher = build_model_from_config(cfg, 2, load_dataset(cfg, "train"), pool="max")
        tpath = tmp_path / "teacher.wvpk"
        save_checkpoint(teacher, tpath)
        plain = train_model(cfg)[1]
        kd = train_model(
            parse_config(tiny_config_text(mode="kd", teacher=str(tpath), alpha="1.0"))
        )[1]
        assert kd.metrics == plain.metrics

    def test_kd_missing_teacher_raises(self):
        cfg = parse_config(tiny_config_text(mode="kd", teacher="/nonexistent/t.wvpk"))
        with pytest.raises(MissingInput, match="cannot read /nonexistent/t.wvpk"):
            train_model(cfg)[1]

    def test_missing_dataset_raises(self):
        text = tiny_config_text().replace(
            "kind = synthetic", "kind = cifar100\npath = /nonexistent/cifar"
        )
        with pytest.raises(MissingInput, match="cannot read /nonexistent/"):
            train_model(parse_config(text))[1]

    def test_evaluate_bounds(self):
        """The per-image mean of cross-entropy and accuracy over a set whose
        last batch is ragged."""
        model = Network(micro_schedule(), parse_pool("max"), "c", num_classes=2, seed=0)
        data = make_tiny_object_set(EVAL_BATCH + 30, image_size=16, object_size=2,
                                    classes=2, seed=1)
        sizes, forward = [], model.forward
        model.forward = lambda x, training: sizes.append(len(x)) or forward(x, training)
        loss, acc = evaluate(model, data)
        assert sizes == [EVAL_BATCH, 30]
        with no_grad():
            z = forward(data.images).data
        logp = z - z.max(axis=1, keepdims=True)
        logp -= np.log(np.exp(logp).sum(axis=1, keepdims=True))
        assert loss == pytest.approx(-logp[np.arange(len(data)), data.labels].mean(), rel=1e-12)
        assert acc == np.mean(z.argmax(axis=1) == data.labels)
        assert loss > 0.0 and 0.0 < acc < 1.0
