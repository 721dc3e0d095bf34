"""Backbone construction, variants, schedules, counters, and checkpoints.

The counter tests use an independent spreadsheet-style oracle: parameter and
FLOP totals are re-derived here layer by layer from the documented
conventions (2 FLOPs per MAC, 2 per batchnorm element, 1 per relu/add
element, 1 per produced pooling element per tap) without touching the
library's own layer objects.
"""

import contextlib
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _gradcheck import gradcheck
from wavepool.autodiff import Parameter, Tensor, make_rng, no_grad
from wavepool.backbone import (
    EVAL_CHUNK,
    VARIANTS,
    Block,
    Network,
    StageSchedule,
    _Layer,
    _run,
    bottom_heavy,
    count_flops,
    count_params,
    load_checkpoint,
    micro_schedule,
    read_checkpoint,
    resnet50_schedule,
    save_checkpoint,
)
from wavepool.errors import (
    InvalidConfig,
    MissingInput,
    ShapeMismatch,
    UnsupportedFormat,
    WavepoolError,
)
from wavepool.ops import global_avg_pool, softmax_cross_entropy
from wavepool.pooling import PoolKind, parse_pool

# input statistics the network refuses: a non-finite mean, a std that is
# not finite and > 0
BAD_STATS = [((0.5, np.nan, 0.5), (0.2, 0.2, 0.2)), ((0.5, 0.5, np.inf), (0.2, 0.2, 0.2)),
             ((0.5, 0.5, 0.5), (0.2, 0.0, 0.2)), ((0.5, 0.5, 0.5), (-0.2, 0.2, 0.2)),
             ((0.5, 0.5, 0.5), (0.2, np.nan, 0.2)), ((0.5, 0.5, 0.5), (0.2, 0.2, np.inf))]

STATS = dict(input_mean=(0.4, 0.5, 0.6), input_std=(0.2, 0.25, 0.3))
HAAR = parse_pool("wavelet:haar")
MAX = parse_pool("max")
STRIDED = parse_pool("strided")


# ---------------------------------------------------------------------------
# independent closed-form counting oracle


def bottleneck_params(in_ch, width, out_ch, skip):
    p = in_ch * width + 2 * width            # 1x1 conv + bn
    p += 9 * width * width + 2 * width       # 3x3 conv + bn
    p += width * out_ch + 2 * out_ch         # 1x1 conv + bn
    if skip:
        p += in_ch * out_ch + 2 * out_ch     # 1x1 skip conv + bn
    return p


def schedule_params(schedule, num_classes, in_channels=3):
    total = in_channels * schedule.stem_channels * schedule.stem_kernel**2
    total += 2 * schedule.stem_channels
    in_ch = schedule.stem_channels
    for count, width, _down in schedule.stages:
        out_ch = width * schedule.expansion
        for bi in range(count):
            skip = bi == 0 and (in_ch != out_ch or _down)
            total += bottleneck_params(in_ch, width, out_ch, skip)
            in_ch = out_ch
    total += in_ch * num_classes + num_classes  # classifier with bias
    return total


def conv_flops(k, cin, cout, oh, ow):
    return 2 * k * k * cin * cout * oh * ow


def wavelet_pool_flops(taps, ch, h, w):
    return ch * taps * (h * w // 2 + h * w // 4)


def micro_haar_variant_c_flops(h, w, num_classes, taps=2):
    """Hand-walked FLOP table for the micro schedule, wavelet pooling,
    consistent order, no input normalization."""
    total = conv_flops(3, 3, 16, h, w) + 2 * 16 * h * w + 16 * h * w  # stem
    in_ch = 16
    for count, width, _down in ((2, 16, True), (2, 32, True), (2, 64, True)):
        out_ch = width * 2  # micro expansion
        for bi in range(count):
            down = _down and bi == 0
            oh, ow = (h // 2, w // 2) if down else (h, w)
            total += conv_flops(1, in_ch, width, h, w) + 2 * width * h * w + width * h * w
            total += conv_flops(3, width, width, h, w)  # stride-1 3x3 at full res
            if down:
                total += wavelet_pool_flops(taps, width, h, w)
            total += 2 * width * oh * ow + width * oh * ow
            total += conv_flops(1, width, out_ch, oh, ow) + 2 * out_ch * oh * ow
            if bi == 0 and (in_ch != out_ch or down):
                total += conv_flops(1, in_ch, out_ch, h, w)  # skip conv, full res
                if down:
                    total += wavelet_pool_flops(taps, out_ch, h, w)
                total += 2 * out_ch * oh * ow
            total += 2 * out_ch * oh * ow  # residual add + final relu
            in_ch = out_ch
            h, w = oh, ow
    total += in_ch * (h * w + 1)               # global average pool
    total += 2 * in_ch * num_classes + num_classes
    return total


@pytest.fixture
def rng():
    return make_rng(5)


class TestSchedules:
    def test_micro_feature_map_is_4x4_on_32x32(self):
        model = Network(micro_schedule(), HAAR, "c", num_classes=4)
        assert model.trace_shapes(32, 32) == (4, 4)

    def test_micro_has_three_downsamples(self):
        model = Network(micro_schedule(), STRIDED, "a", num_classes=4)
        assert model.trace_shapes(32, 32) == (4, 4)

    def test_resnet50_shape_has_five_downsamples(self):
        model = Network(resnet50_schedule(), STRIDED, "a", num_classes=1000)
        assert model.trace_shapes(224, 224) == (7, 7)

    def test_invalid_schedules_rejected(self):
        with pytest.raises(InvalidConfig):
            StageSchedule(stages=())
        with pytest.raises(InvalidConfig):
            StageSchedule(stages=((0, 16, True),))
        with pytest.raises(InvalidConfig):
            StageSchedule(stages=((2, 16, True),), stem_kernel=4)
        with pytest.raises(InvalidConfig):
            StageSchedule(stages=((2, 16, True),), stem_stride=3)

    @pytest.mark.parametrize("field", ["stem_channels", "expansion"])
    def test_stem_channels_and_expansion_below_1_rejected(self, field):
        with pytest.raises(InvalidConfig, match="stem channels and expansion must be positive"):
            StageSchedule(stages=((2, 16, True),), **{field: 0})

    def test_parse_variant(self):
        # a variant is its config letter; any other spelling is refused
        assert VARIANTS == ("a", "b", "c")
        for text in ("d", "B", "original", "pool_before_conv_skip", " c"):
            with pytest.raises(InvalidConfig, match="variant"):
                Network(micro_schedule(), HAAR, text, num_classes=4)
            with pytest.raises(InvalidConfig, match="variant"):
                Block("block", 8, 16, True, HAAR, text, 2, "circular", make_rng(0))


class TestBlockVariants:
    def test_non_downsampling_blocks_identical_across_variants(self, rng):
        x = Tensor(rng.normal(size=(2, 8, 8, 8)))
        outs = []
        for variant in ("a", "b", "c"):
            block = Block("block", 8, 8, False, HAAR, variant, 2, "circular", make_rng(3))
            outs.append(block.forward(x, training=False).data)
        assert np.array_equal(outs[0], outs[1])
        assert np.array_equal(outs[1], outs[2])

    def test_b_and_c_skip_paths_commute(self, rng):
        # 1x1 bias-free skip conv and linear pooling commute exactly
        x = Tensor(rng.normal(size=(2, 8, 8, 8)))
        b = Block("block", 8, 16, True, HAAR, "b", 2, "circular", make_rng(3))
        c = Block("block", 8, 16, True, HAAR, "c", 2, "circular", make_rng(3))
        sb = _run(b.skip, x, training=False).data
        sc = _run(c.skip, x, training=False).data
        assert np.max(np.abs(sb - sc)) <= 1e-10

    def test_b_and_c_full_blocks_agree(self, rng):
        # main paths are identical by construction, skip paths commute
        x = Tensor(rng.normal(size=(2, 8, 8, 8)))
        b = Block("block", 8, 16, True, HAAR, "b", 2, "circular", make_rng(3))
        c = Block("block", 8, 16, True, HAAR, "c", 2, "circular", make_rng(3))
        ob = b.forward(x, training=False).data
        oc = c.forward(x, training=False).data
        assert np.max(np.abs(ob - oc)) <= 1e-10

    def test_variant_a_downsamples_with_stride(self, rng):
        block = Block("block", 8, 16, True, STRIDED, "a", 2, "circular", rng)
        out = block.forward(Tensor(rng.normal(size=(1, 8, 8, 8))), training=False)
        assert out.shape == (1, 16, 4, 4)

    def test_pooling_variants_downsample_too(self, rng):
        for variant in ("b", "c"):
            block = Block("block", 8, 16, True, MAX, variant, 2, "circular", make_rng(1))
            out = block.forward(Tensor(rng.normal(size=(1, 8, 8, 8))), training=False)
            assert out.shape == (1, 16, 4, 4)

    def test_strided_pool_with_pooling_variant_rejected(self):
        with pytest.raises(InvalidConfig):
            Block("block", 8, 16, True, STRIDED, "c", 4, "circular", make_rng(0))

    def test_bad_channels_rejected(self):
        with pytest.raises(InvalidConfig):
            Block("block", 0, 16, False, HAAR, "c", 4, "circular", make_rng(0))


class TestParamCounts:
    def test_single_conv_closed_form(self):
        # 3x3 conv, one channel in and out, no bias, 8x8 same-pad input:
        # 9 weights; 2 FLOPs per MAC * 9 taps * 64 outputs = 1152
        from wavepool.backbone import _Conv

        conv = _Conv("c", 1, 1, 3, 1, "same", make_rng(0))
        assert sum(p.data.size for p in conv.parameters()) == 9
        assert conv.flops(8, 8) == 1152

    def test_resnet50_shape_param_count_exact(self):
        model = Network(resnet50_schedule(), STRIDED, "a", num_classes=1000)
        n = count_params(model)
        assert n == schedule_params(resnet50_schedule(), 1000)
        assert n == 25_557_032

    def test_micro_param_count_exact(self):
        model = Network(micro_schedule(), HAAR, "c", num_classes=4)
        n = count_params(model)
        assert n == schedule_params(micro_schedule(), 4)
        assert n == 148_372

    @pytest.mark.parametrize(
        "pool_text,variant",
        [pytest.param(pool_text, variant, id=f"{pool_text}-BlockOrderVariant.{name}")
         for pool_text, variant, name in (
             ("strided", "a", "ORIGINAL"),
             ("max", "c", "CONSISTENT_POOL_AFTER_CONV"),
             ("avg", "c", "CONSISTENT_POOL_AFTER_CONV"),
             ("blur:1-2-1", "c", "CONSISTENT_POOL_AFTER_CONV"),
             ("wavelet:haar", "c", "CONSISTENT_POOL_AFTER_CONV"),
             ("wavelet:db4", "b", "POOL_BEFORE_CONV_SKIP"))],
    )
    def test_pool_replacement_leaves_params_invariant(self, pool_text, variant):
        # every pooling operator is parameter-free and strided convs keep
        # their weight tensors, so the count never moves
        model = Network(micro_schedule(), parse_pool(pool_text), variant, num_classes=4)
        assert count_params(model) == 148_372

    def test_wavelet_pool_itself_has_no_params(self):
        wave = Network(micro_schedule(), HAAR, "c", num_classes=4)
        maxp = Network(micro_schedule(), MAX, "c", num_classes=4)
        assert count_params(wave) == count_params(maxp)


class TestFlopCounts:
    def test_micro_haar_matches_hand_walked_table(self):
        model = Network(micro_schedule(), HAAR, "c", num_classes=4)
        assert count_flops(model, 32, 32) == micro_haar_variant_c_flops(32, 32, 4)

    def test_normalization_is_a_layer_counted_in_the_walk(self):
        # 2 FLOPs per input element, no parameters, two state tensors first
        plain = Network(micro_schedule(), HAAR, "c", num_classes=4, in_channels=1)
        norm = Network(micro_schedule(), HAAR, "c", num_classes=4, in_channels=1,
                       input_mean=(0.5,), input_std=(0.25,))
        assert count_flops(norm, 32, 32) - count_flops(plain, 32, 32) == 2 * 1 * 32 * 32
        assert count_params(norm) == count_params(plain)
        assert [name for name, _arr in norm.state()][:3] == [
            "input.mean", "input.std", "stem.conv.weight"]
        assert [name for name, _arr in norm.state()][2:] == [
            name for name, _arr in plain.state()]

    def test_flops_scale_with_input_area(self):
        model = Network(micro_schedule(), HAAR, "c", num_classes=4)
        f32 = count_flops(model, 32, 32)
        f64 = count_flops(model, 64, 64)
        # constant head terms break exact 4x scaling, but barely
        assert 3.9 < f64 / f32 < 4.0

    def test_pool_swap_changes_flops_by_pool_terms_only(self):
        # at a fixed variant the networks differ only in the pooling
        # operators, so the FLOP difference is the sum of per-site pool terms
        wave = Network(micro_schedule(), HAAR, "c", num_classes=4)
        maxp = Network(micro_schedule(), MAX, "c", num_classes=4)
        diff = count_flops(wave, 32, 32) - count_flops(maxp, 32, 32)
        sites = []  # (channels, h, w) of each pooling site
        h = w = 32
        for bi, (width, out_ch) in enumerate([(16, 32), (32, 64), (64, 128)]):
            sites.append((width, h, w))       # main path pool
            sites.append((out_ch, h, w))      # skip path pool (variant c: full res)
            h, w = h // 2, w // 2
        expected = sum(
            wavelet_pool_flops(2, ch, hh, ww) - 4 * ch * (hh // 2) * (ww // 2)
            for ch, hh, ww in sites
        )
        assert diff == expected

    def test_wavelet_flops_grow_with_filter_length(self):
        short = Network(micro_schedule(), HAAR, "c", num_classes=4)
        long = Network(micro_schedule(), parse_pool("wavelet:db4"), "c",
                       num_classes=4)
        assert count_flops(long, 32, 32) > count_flops(short, 32, 32)
        assert count_params(long) == count_params(short)

    @pytest.mark.parametrize(
        "pool_text,variant,flops",
        [("strided", "a", 8_212_574_730), ("wavelet:haar", "a", 8_925_876_746),
         ("wavelet:haar", "b", 11_009_936_906), ("wavelet:haar", "c", 12_861_732_362),
         ("max", "c", 12_857_969_162), ("avg", "c", 12_861_732_362),
         ("blur:1-2-1", "c", 12_867_377_162), ("wavelet:db4", "b", 11_037_483_530)],
    )
    def test_resnet50_counters_pinned(self, pool_text, variant, flops):
        # substituted stem sites (stride-2 conv, max pool) and every block
        # order on the ResNet50 layout; wavelet with variant a substitutes
        # the stem sites but keeps the block convs strided
        model = Network(resnet50_schedule(), parse_pool(pool_text),
                        variant, num_classes=10)
        assert count_params(model) == 23_528_522
        assert model.trace_shapes(224, 224) == (7, 7)
        assert count_flops(model, 224, 224) == flops


class TestBottomHeavy:
    def test_shift_zero_is_identity(self):
        toy = StageSchedule(stages=((2, 8, True), (2, 16, False)))
        assert bottom_heavy(toy, shift=0) == toy

    def test_preserves_downsample_count_and_output_shape(self):
        base = resnet50_schedule()
        heavy = bottom_heavy(base, shift=2)
        a = Network(base, STRIDED, "a", num_classes=10)
        b = Network(heavy, STRIDED, "a", num_classes=10)
        assert a.trace_shapes(224, 224) == b.trace_shapes(224, 224) == (7, 7)

    def test_moves_blocks_from_deepest_stage(self):
        base = resnet50_schedule()
        heavy = bottom_heavy(base, shift=2)
        assert heavy.stages[-1][0] == base.stages[-1][0] - 2
        assert sum(c for c, _w, _d in heavy.stages) == sum(
            c for c, _w, _d in base.stages
        )

    def test_resnet50_shape_param_and_flop_relationship(self):
        base = Network(resnet50_schedule(), STRIDED, "a", num_classes=1000)
        heavy = Network(bottom_heavy(resnet50_schedule(), shift=2), STRIDED,
                        "a", num_classes=1000)
        p0, p1 = count_params(base), count_params(heavy)
        f0, f1 = count_flops(base, 640, 512), count_flops(heavy, 640, 512)
        assert (p0 - p1) / p0 >= 0.25
        assert abs(f1 - f0) / f0 <= 0.05

    def test_micro_counters_move_the_same_direction(self):
        base = Network(micro_schedule(), HAAR, "c", num_classes=4)
        heavy = Network(bottom_heavy(micro_schedule(), shift=1), HAAR,
                        "c", num_classes=4)
        assert count_params(heavy) < count_params(base)
        f0, f1 = count_flops(base, 32, 32), count_flops(heavy, 32, 32)
        assert abs(f1 - f0) / f0 <= 0.05

    def test_infeasible_shifts_rejected(self):
        toy = StageSchedule(stages=((2, 8, True), (2, 16, False)))
        with pytest.raises(InvalidConfig):
            bottom_heavy(toy, shift=-1)
        with pytest.raises(InvalidConfig):
            bottom_heavy(toy, shift=2)  # would empty the deepest stage
        with pytest.raises(InvalidConfig):
            bottom_heavy(StageSchedule(stages=((2, 8, True),)), shift=1)


class TestNetwork:
    def test_forward_shape_and_determinism(self, rng):
        model = Network(micro_schedule(), HAAR, "c", num_classes=4, seed=1)
        x = rng.normal(size=(3, 3, 32, 32))
        out1 = model(Tensor(x)).data
        out2 = model(Tensor(x)).data
        assert out1.shape == (3, 4)
        assert np.array_equal(out1, out2)

    @pytest.mark.parametrize("recording", [True, False])
    def test_forward_between_forward_and_backward_leaves_gradients(self, rng, recording):
        """A backward reads nothing that another network's forward can
        overwrite when it runs between that backward and its own forward:
        with the tape on, and under no_grad as distillation runs its
        teacher.  The other batch is larger, so shared buffers regrow."""
        x, y = rng.normal(size=(4, 3, 32, 32)), np.arange(4)
        other_x = rng.normal(size=(6, 3, 32, 32))

        def gradients(interleave: bool):
            model = Network(micro_schedule(), HAAR, "c", num_classes=4, seed=5)
            loss = softmax_cross_entropy(model(Tensor(x), training=True), y)
            if interleave:
                other = Network(micro_schedule(), MAX, "a", num_classes=4, seed=6)
                with contextlib.nullcontext() if recording else no_grad():
                    other(Tensor(other_x), training=recording)
            loss.backward()
            return [p.grad for p in model.parameters()]

        for undisturbed, disturbed in zip(gradients(False), gradients(True), strict=True):
            assert np.array_equal(undisturbed, disturbed)

    def test_same_seed_same_init(self):
        a = Network(micro_schedule(), HAAR, "c", num_classes=4, seed=7)
        b = Network(micro_schedule(), HAAR, "c", num_classes=4, seed=7)
        for (na, pa), (nb, pb) in zip(a.state(), b.state()):
            assert na == nb
            assert np.array_equal(pa, pb)

    def test_different_seed_different_init(self):
        a = Network(micro_schedule(), HAAR, "c", num_classes=4, seed=7)
        b = Network(micro_schedule(), HAAR, "c", num_classes=4, seed=8)
        assert not np.array_equal(a.stem_conv.weight.data, b.stem_conv.weight.data)

    def test_input_normalization_matches_manual(self, rng):
        mean, std = (0.4, 0.5, 0.6), (0.2, 0.25, 0.3)
        norm = Network(micro_schedule(), HAAR, "c", num_classes=4, seed=2,
                       input_mean=mean, input_std=std)
        plain = Network(micro_schedule(), HAAR, "c", num_classes=4, seed=2)
        x = rng.uniform(size=(2, 3, 32, 32))
        xn = (x - np.asarray(mean)[None, :, None, None]) / np.asarray(std)[None, :, None, None]
        assert np.allclose(norm(Tensor(x)).data, plain(Tensor(xn)).data, atol=1e-10)
        # bit for bit: the net normalizes as (x + -mean) * (1 / std)
        xb = (x + -np.asarray(mean)[None, :, None, None]) * (
            1.0 / np.asarray(std)[None, :, None, None])
        assert np.array_equal(norm(Tensor(x)).data, plain(Tensor(xb)).data)

    def test_normalized_net_passes_gradient_to_its_input(self, rng):
        model = Network(micro_schedule(), HAAR, "c", num_classes=4, seed=2, **STATS)
        gradcheck(lambda t: model(t), rng.uniform(size=(2, 3, 16, 16)), rng=rng)

    def test_odd_dim_error_names_offending_layer(self):
        model = Network(micro_schedule(), HAAR, "c", num_classes=4)
        with pytest.raises(InvalidConfig, match="stage3.block0"):
            model.trace_shapes(20, 20)

    def test_pool_input_below_filter_length_names_layer(self):
        # ch5.5 has 14 taps; the third down-sampling sees 8x8 on 32x32 input
        model = Network(micro_schedule(), parse_pool("wavelet:ch5.5"), "c", num_classes=4)
        for walk in (model.trace_shapes, lambda h, w: count_flops(model, h, w)):
            with pytest.raises(InvalidConfig, match=r"stage3\.block0\.conv2\.pool: input 8x8"):
                walk(32, 32)
        assert model.trace_shapes(64, 64) == (8, 8)

    def test_blur_length_bounds_pool_input(self):
        # like a wavelet filter, a 5-tap blur needs inputs of at least 5x5
        model = Network(micro_schedule(), parse_pool("blur:1-1-1-1-1"), "c", num_classes=4)
        with pytest.raises(InvalidConfig, match=r"stage3\.block0\.conv2\.pool: input 4x4"):
            model.trace_shapes(16, 16)
        assert model.trace_shapes(32, 32) == (4, 4)

    @pytest.mark.parametrize("h, w", [(-32, -32), (0, 0), (32, 0), (-2, 32)])
    def test_non_positive_size_rejected(self, h, w):
        model = Network(micro_schedule(), HAAR, "c", num_classes=4)
        with pytest.raises(InvalidConfig, match="positive"):
            model.trace_shapes(h, w)
        with pytest.raises(InvalidConfig, match="positive"):
            count_flops(model, h, w)

    def test_wrong_input_shape_rejected(self, rng):
        model = Network(micro_schedule(), HAAR, "c", num_classes=4)
        with pytest.raises(ShapeMismatch):
            model(Tensor(rng.normal(size=(2, 1, 32, 32))))

    def test_config_validation(self):
        with pytest.raises(InvalidConfig):
            Network(micro_schedule(), HAAR, "c", num_classes=1)
        with pytest.raises(InvalidConfig):
            Network(micro_schedule(), STRIDED, "c", num_classes=4)
        with pytest.raises(InvalidConfig):
            Network(micro_schedule(), HAAR, "c", num_classes=4,
                    input_mean=(0.5, 0.5, 0.5))
        with pytest.raises(ShapeMismatch):
            Network(micro_schedule(), HAAR, "c", num_classes=4,
                    input_mean=(0.5,), input_std=(0.2,))
        for mean, std in BAD_STATS:
            with pytest.raises(InvalidConfig, match="input"):
                Network(micro_schedule(), HAAR, "c", num_classes=4,
                        input_mean=mean, input_std=std)
        for pad in ("bogus", "valid"):
            with pytest.raises(InvalidConfig):
                Network(micro_schedule(), HAAR, "c", num_classes=4, conv_pad=pad)

    def test_stem_sites_replaced_for_pooling_kinds(self, rng):
        # stride-2 stem conv + stem max pool both substituted when the pool
        # kind is not StridedConv; spatial bookkeeping must agree
        sched = StageSchedule(stages=((1, 8, True),), stem_channels=8, stem_kernel=3,
                              stem_stride=2, stem_pool=PoolKind("max"), expansion=2)
        for pool, variant in ((STRIDED, "a"), (HAAR, "c")):
            model = Network(sched, pool, variant, num_classes=4, seed=0)
            out = model(Tensor(rng.normal(size=(1, 3, 32, 32))))
            assert out.shape == (1, 4)
            # stem conv halves, stem pool halves, the stage halves: 32 -> 4
            assert model.trace_shapes(32, 32) == (4, 4)

    def test_load_state_rejects_mismatches(self, rng):
        model = Network(micro_schedule(), HAAR, "c", num_classes=4)
        good = dict(model.state())
        missing = dict(good)
        missing.pop("stem.conv.weight")
        with pytest.raises(ShapeMismatch):
            model.load_state(missing)
        extra = dict(good)
        extra["bogus"] = np.zeros(3)
        with pytest.raises(ShapeMismatch):
            model.load_state(extra)
        bad_shape = dict(good)
        bad_shape["stem.conv.weight"] = np.zeros((1, 1, 1, 1))
        with pytest.raises(ShapeMismatch):
            model.load_state(bad_shape)


class _BatchSizes(_Layer):
    """An identity layer recording the batch size of every call."""

    def __init__(self):
        self.sizes = []

    def __call__(self, x, training):
        self.sizes.append(x.shape[0])
        return x

    def flops(self, h, w):
        return 0


def spied(model):
    """``model`` with a _BatchSizes layer first; returns the spy."""
    spy = _BatchSizes()
    model.layers.insert(0, spy)
    model.parts.insert(0, spy)
    return spy


class TestChunkedEvalForward:
    """An eval forward that records no tape runs the layers in chunks of
    EVAL_CHUNK images and the classifier once over the whole batch."""

    RAGGED = 2 * EVAL_CHUNK + 3

    def test_equals_classifier_of_per_chunk_features(self, rng):
        model = Network(micro_schedule(), HAAR, "c", num_classes=4, seed=1, **STATS)
        spy = spied(model)
        x = rng.uniform(size=(self.RAGGED, 3, 16, 16))
        with no_grad():
            got = model(x).data
            assert spy.sizes == [EVAL_CHUNK, EVAL_CHUNK, 3]
            features = [global_avg_pool(_run(model.layers, Tensor(x[i:i + EVAL_CHUNK]),
                                             False)).data
                        for i in range(0, len(x), EVAL_CHUNK)]
            want = model.head.classify(Tensor(np.concatenate(features))).data
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("pool, variant, pad", [
        ("wavelet:haar", "c", "circular"), ("wavelet:db4", "b", "same"),
        ("max", "a", "same"), ("blur", "c", "circular"), ("strided", "a", "circular"),
    ])
    def test_equals_whole_batch_bytes_at_32x32(self, rng, pool, variant, pad):
        model = Network(micro_schedule(), parse_pool(pool), variant, num_classes=10, seed=2,
                        conv_pad=pad, **STATS)
        x = rng.uniform(size=(self.RAGGED, 3, 32, 32))
        with no_grad():
            assert model(x).data.tobytes() == _run(model.parts, Tensor(x), False).data.tobytes()

    def test_training_forward_updates_running_stats_once_from_whole_batch(self, rng):
        x = rng.uniform(size=(self.RAGGED, 3, 16, 16))
        model = Network(micro_schedule(), HAAR, "c", num_classes=4, seed=3, **STATS)
        reference = Network(micro_schedule(), HAAR, "c", num_classes=4, seed=3, **STATS)
        spy = spied(model)
        with no_grad():
            got = model(x, training=True).data
            want = _run(reference.parts, Tensor(x), True).data
        assert spy.sizes == [self.RAGGED]
        assert got.tobytes() == want.tobytes()
        for (name, a), (_name, b) in zip(model.state(), reference.state(), strict=True):
            assert a.tobytes() == b.tobytes(), name

    def test_recorded_eval_forward_builds_one_tape(self, rng):
        sched = StageSchedule(stages=((1, 2, True),), stem_channels=2, expansion=1)
        model = Network(sched, HAAR, "c", num_classes=3, seed=4, **STATS)
        spy = spied(model)
        x = rng.uniform(size=(EVAL_CHUNK + 2, 3, 8, 8))
        gradcheck(lambda t: model(t, training=False), x, rng=rng)
        assert set(spy.sizes) == {EVAL_CHUNK + 2}

    def test_empty_batch_gives_empty_logits(self):
        model = Network(micro_schedule(), HAAR, "c", num_classes=5, seed=1)
        x = np.zeros((0, 3, 32, 32))
        with no_grad():
            assert model(x).shape == (0, 5)
        assert model(x).shape == (0, 5)

    @staticmethod
    def least_peaks(model, *batches):
        """For each batch, the least ``tracemalloc`` peak above the memory
        live before it of a no_grad forward, over three interleaved rounds
        after one warm forward: CPython now and then rebuilds its
        interned-string table (about 2 MB here), at a time set by the whole
        process's history; rebuilds come thousands of chunks apart, so one
        can land in one round only."""
        def peak(x):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            with no_grad():
                model(x)
            return tracemalloc.get_traced_memory()[1] - before

        with no_grad():
            model(batches[0])
        tracemalloc.start()
        try:
            return list(map(min, zip(*[[peak(x) for x in batches] for _round in range(3)])))
        finally:
            tracemalloc.stop()

    def test_memory_does_not_grow_with_the_batch(self, rng):
        """Past the input, only the pooled features and the logits grow."""
        model = Network(micro_schedule(), HAAR, "c", num_classes=4, seed=5, **STATS)
        small, large = (rng.uniform(size=(n, 3, 16, 16)) for n in (200, 800))
        small_peak, large_peak = self.least_peaks(model, small, large)
        grown = (len(large) - len(small)) * (model.head.ch + model.head.classes) * 8
        # one whole-batch activation of the 600 extra images would be 39 MB
        assert large_peak <= small_peak + grown + (256 << 10)

    def test_peak_stays_far_below_the_largest_column_matrix(self, rng):
        """At (200, 3, 32, 32) the column matrix of the micro net's largest
        3x3 conv (16 channels at 32x32) is 236 MB for the whole batch; a
        chunked forward builds one chunk's at a time."""
        model = Network(micro_schedule(), HAAR, "c", num_classes=4, seed=5, **STATS)
        x = rng.uniform(size=(200, 3, 32, 32))
        cols_nbytes = 16 * 9 * len(x) * 32 * 32 * 8
        assert self.least_peaks(model, x)[0] < cols_nbytes // 3


class TestCheckpoints:
    def test_micro_layout_and_parameter_walk(self):
        def bn(name):
            return [f"{name}.{key}" for key in ("gamma", "beta", "running_mean", "running_var")]

        want = ["stem.conv.weight"] + bn("stem.bn")
        for stage in (1, 2, 3):
            for b in (0, 1):
                block = f"stage{stage}.block{b}"
                for i in (1, 2, 3):
                    want += [f"{block}.conv{i}.weight"] + bn(f"{block}.bn{i}")
                if b == 0:
                    want += [f"{block}.skip_conv.weight"] + bn(f"{block}.skip_bn")
        want += ["head.fc.weight", "head.fc.bias"]
        model = Network(micro_schedule(), HAAR, "c", num_classes=4)
        state = model.state()
        assert [name for name, _arr in state] == want and len(want) == 112
        # parameters() is exactly the Parameter-backed state entries, in order
        learnable = [arr for name, arr in state if not name.endswith(("_mean", "_var"))]
        params = model.parameters()
        assert all(isinstance(p, Parameter) for p in params)
        assert len(params) == len(learnable)
        assert all(p.data is arr for p, arr in zip(params, learnable))

    def test_round_trip_preserves_outputs(self, tmp_path, rng):
        model = Network(micro_schedule(), HAAR, "c", num_classes=4, seed=3)
        x = Tensor(rng.normal(size=(2, 3, 32, 32)))
        want = model(x).data
        path = tmp_path / "model.bin"
        save_checkpoint(model, path)
        fresh = Network(micro_schedule(), HAAR, "c", num_classes=4, seed=99)
        assert not np.allclose(fresh(x).data, want)
        load_checkpoint(fresh, path)
        assert np.array_equal(fresh(x).data, want)

    def test_read_checkpoint_returns_exact_tensors(self, tmp_path):
        model = Network(micro_schedule(), MAX, "c", num_classes=4, seed=3)
        path = tmp_path / "model.bin"
        save_checkpoint(model, path)
        tensors = read_checkpoint(path)
        for name, arr in model.state():
            assert np.array_equal(tensors[name], arr)

    def test_missing_file_raises_missing_input(self, tmp_path):
        path = tmp_path / "absent.wvpk"
        message = f"cannot read {re.escape(str(path))}: No such file or directory"
        with pytest.raises(MissingInput, match=message):
            read_checkpoint(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(UnsupportedFormat):
            read_checkpoint(path)

    def test_bad_version_rejected(self, tmp_path):
        import struct

        path = tmp_path / "bad.bin"
        path.write_bytes(b"WVPK" + struct.pack("<II", 99, 0))
        with pytest.raises(UnsupportedFormat):
            read_checkpoint(path)

    def test_truncated_file_rejected(self, tmp_path):
        model = Network(micro_schedule(), MAX, "c", num_classes=4)
        path = tmp_path / "model.bin"
        save_checkpoint(model, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(UnsupportedFormat):
            read_checkpoint(path)

    def test_repeated_tensor_name_rejected(self, tmp_path):
        import struct

        model = Network(micro_schedule(), HAAR, "c", num_classes=4)
        path = tmp_path / "model.wvpk"
        save_checkpoint(model, path)
        blob = bytearray(path.read_bytes())
        (count,) = struct.unpack_from("<I", blob, 8)
        struct.pack_into("<I", blob, 8, count + 1)
        name = b"head.fc.bias"
        blob += struct.pack("<H", len(name)) + name + struct.pack("<BI", 1, 4)
        blob += np.full(4, 7.0).astype("<f8").tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(UnsupportedFormat, match="'head.fc.bias' appears twice"):
            load_checkpoint(model, path)
        assert not np.any(dict(model.state())["head.fc.bias"] == 7.0)

    @pytest.mark.parametrize("shape", [(2**32 - 1,) * 2, (2**31, 2**31, 4), (2**16,) * 4])
    def test_tensor_too_large_for_an_index_rejected(self, tmp_path, shape):
        # element counts of 2**63 or more; (2**31, 2**31, 4) is 2**64
        import struct

        path = tmp_path / "huge.wvpk"
        header = struct.pack(f"<IIHsB{len(shape)}I", 1, 1, 1, b"t", len(shape), *shape)
        path.write_bytes(b"WVPK" + header + bytes(16))
        with pytest.raises(UnsupportedFormat, match="truncated or corrupt"):
            read_checkpoint(path)

    @pytest.fixture(scope="class")
    def saved_blob(self, tmp_path_factory):
        """A small net's checkpoint bytes, and a directory to write variants to."""
        sched = StageSchedule(stages=((1, 2, True),), stem_channels=2, expansion=1)
        path = tmp_path_factory.mktemp("checkpoint") / "model.wvpk"
        save_checkpoint(Network(sched, HAAR, "c", num_classes=2, **STATS), path)
        return path.parent, path.read_bytes()

    @settings(max_examples=50, deadline=None)
    @given(cut=st.integers(min_value=0, max_value=2**20), tail=st.binary(min_size=1, max_size=1))
    @example(cut=5, tail=b"\x00")  # b"WVPK\x01": shorter than the 12-byte header
    def test_cut_or_padded_file_rejected(self, saved_blob, cut, tail):
        folder, blob = saved_blob
        path = folder / "bad.wvpk"
        for bad in (blob[: cut % len(blob)], blob + tail):
            path.write_bytes(bad)
            with pytest.raises(UnsupportedFormat):
                read_checkpoint(path)

    @settings(max_examples=200, deadline=None)
    @given(bit=st.integers(min_value=0))
    def test_single_bit_flip_loads_or_raises_named_error(self, saved_blob, bit):
        folder, blob = saved_blob
        flipped = bytearray(blob)
        bit %= 8 * len(blob)
        flipped[bit // 8] ^= 1 << (bit % 8)
        path = folder / "flipped.wvpk"
        path.write_bytes(bytes(flipped))
        sched = StageSchedule(stages=((1, 2, True),), stem_channels=2, expansion=1)
        model = Network(sched, HAAR, "c", num_classes=2, **STATS)
        try:
            load_checkpoint(model, path)
        except WavepoolError:
            pass

    @pytest.mark.parametrize("mean, std", BAD_STATS)
    def test_bad_normalization_stats_refused_on_load(self, mean, std):
        model = Network(micro_schedule(), HAAR, "c", num_classes=4, seed=1, **STATS)
        before = [arr.copy() for _name, arr in model.state()]
        tensors = dict(model.state())
        tensors["input.mean"], tensors["input.std"] = np.array(mean), np.array(std)
        with pytest.raises(InvalidConfig, match="input"):
            model.load_state(tensors)
        # refused before any tensor is written
        for (_name, arr), old in zip(model.state(), before, strict=True):
            assert np.array_equal(arr, old)

    def test_bad_last_shape_refused_before_any_write(self):
        model = Network(micro_schedule(), HAAR, "c", num_classes=4, seed=1, **STATS)
        before = [arr.tobytes() for _name, arr in model.state()]
        tensors = {name: arr + 1.0 for name, arr in model.state()}
        assert list(tensors)[-1] == "head.fc.bias"
        tensors["head.fc.bias"] = np.zeros(7)
        with pytest.raises(ShapeMismatch, match="head.fc.bias"):
            model.load_state(tensors)
        assert [arr.tobytes() for _name, arr in model.state()] == before

    def test_checkpoint_without_stats_refused_by_name(self, tmp_path):
        # an unnormalized net's checkpoint has no input.* tensors
        path = tmp_path / "old.wvpk"
        save_checkpoint(Network(micro_schedule(), HAAR, "c", num_classes=4), path)
        model = Network(micro_schedule(), HAAR, "c", num_classes=4, **STATS)
        with pytest.raises(ShapeMismatch, match=r"missing \['input.mean', 'input.std'\]"):
            load_checkpoint(model, path)

    def test_stats_round_trip_through_checkpoint(self, tmp_path, rng):
        trained = Network(micro_schedule(), HAAR, "c", num_classes=4, seed=3, **STATS)
        path = tmp_path / "model.wvpk"
        save_checkpoint(trained, path)
        fresh = Network(micro_schedule(), HAAR, "c", num_classes=4, seed=9,
                        input_mean=(0.1, 0.2, 0.3), input_std=(1.0, 2.0, 3.0))
        load_checkpoint(fresh, path)
        x = Tensor(rng.uniform(size=(2, 3, 32, 32)))
        assert np.array_equal(fresh(x).data, trained(x).data)

    def test_checkpoint_for_wrong_architecture_rejected(self, tmp_path):
        small = Network(micro_schedule(), HAAR, "c", num_classes=4)
        path = tmp_path / "model.bin"
        save_checkpoint(small, path)
        other = Network(micro_schedule(), HAAR, "c", num_classes=7)
        with pytest.raises(ShapeMismatch):
            load_checkpoint(other, path)

    def test_pool_invariant_state_dicts(self, tmp_path):
        # pooling operators are parameter-free, so checkpoints transfer
        # between pool kinds: this is what makes KD teachers loadable
        wave = Network(micro_schedule(), HAAR, "c", num_classes=4, seed=1)
        path = tmp_path / "w.bin"
        save_checkpoint(wave, path)
        maxp = Network(micro_schedule(), MAX, "c", num_classes=4, seed=2)
        load_checkpoint(maxp, path)  # must not raise
