"""Residual micro-networks with selectable down-sampling and accounting.

A network is one list of layers: input normalization, the stem's, the
bottleneck blocks, then the head (global average pool and classifier).  A
variant is its config letter; three block orders exist at down-sampling blocks:

- "a" (original): stride-2 convolutions on both the main and skip path;
- "b" (pool before the skip conv): the stride-2 convs become stride-1 convs
  and a pooling operator; the pool sits after the 3x3 conv on the main path
  but before the 1x1 conv on the skip path;
- "c" (consistent, pool after the conv): pooling after the conv on both
  paths.

The main paths of (b) and (c) are identical by construction; the variants
differ only in skip-path order.  For 1x1 bias-free skip convs and a linear
pooling operator the two skip orders commute exactly, which the test suite
asserts.  Blocks that do not down-sample are identical across variants.

One function, ``_substitute``, rewrites every down-sampling site: a
stride-2 conv keeps its weights as a stride-1 conv followed by the pool (on
the skip path of (b), preceded by it), and a bare max pool site becomes the
pool alone.  Blocks apply it in variants (b) and (c); the stem (a stride-2
conv, a max pool) applies it whenever ``pool`` is not StridedConv, in every
variant.

Conventions used by the counters (all integers, per single input image):

- conv/linear: 2 FLOPs per multiply-accumulate, plus one per output
  element for the bias, which only the linear head has;
- batchnorm and input normalization: 2 per element; relu, residual add: 1;
- pooling: 1 FLOP per produced element per filter tap, as the operators
  are actually implemented; ``PoolKind.flops`` derives it from each
  family's filter;
- global average pooling: H*W + 1 per channel.

Parameter counts sum the learnable tensors (conv weights, the linear
head's weight and bias, batchnorm scale and shift); batchnorm running
statistics and the input mean and std are state; checkpoints carry them.

Convolutions default to circular padding so that the whole network is
exactly equivariant to full-stride circular shifts of its input, making
shift-consistency at full stride an identity rather than an approximation;
zero padding remains available via ``conv_pad="same"``.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, replace

import numpy as np

from .autodiff import Parameter, Tensor, is_recorded, make_op, make_rng
from .errors import InvalidConfig, ShapeMismatch, UnsupportedFormat, read_file
from .ops import PAD_MODES, batchnorm2d, conv2d, global_avg_pool, linear, relu
from .pooling import PoolKind

CHECKPOINT_MAGIC = b"WVPK"
CHECKPOINT_VERSION = 1
# images per chunk of an eval forward that records no tape; a micro-net eval
# round at 32x32 measured fastest with chunks of 10-16 images (x86-64 Xeon,
# OpenBLAS at one thread), and 50 gave back most of the gain
EVAL_CHUNK = 10


VARIANTS = ("a", "b", "c")


@dataclass(frozen=True)
class StageSchedule:
    """Stage layout plus stem shape.

    ``stages`` holds (block_count, bottleneck_width, downsample) triples.
    ``stem_pool`` names the stem's original pooling site (None for none);
    ``expansion`` is the bottleneck output multiple (stage output channels
    are width * expansion).
    """

    stages: tuple[tuple[int, int, bool], ...]
    stem_channels: int = 16
    stem_kernel: int = 3
    stem_stride: int = 1
    stem_pool: PoolKind | None = None
    expansion: int = 4

    def __post_init__(self):
        if not self.stages:
            raise InvalidConfig("schedule needs at least one stage")
        for count, width, _down in self.stages:
            if count < 1 or width < 1:
                raise InvalidConfig(f"stage ({count}, {width}) must have positive sizes")
        if self.stem_channels < 1 or self.expansion < 1:
            raise InvalidConfig("stem channels and expansion must be positive")
        if self.stem_kernel % 2 == 0:
            raise InvalidConfig("stem kernel must be odd")
        if self.stem_stride not in (1, 2):
            raise InvalidConfig("stem stride must be 1 or 2")


def micro_schedule() -> StageSchedule:
    """Three-stage micro net: [(2,16,T),(2,32,T),(2,64,T)], expansion 2.

    On 32x32 inputs the head sees a 4x4 map; parameter count stays under
    0.2 M for small class counts.
    """
    return StageSchedule(
        stages=((2, 16, True), (2, 32, True), (2, 64, True)),
        stem_channels=16,
        stem_kernel=3,
        stem_stride=1,
        stem_pool=None,
        expansion=2,
    )


def resnet50_schedule() -> StageSchedule:
    """ResNet50-shaped layout: used for counter validation, not training."""
    return StageSchedule(
        stages=((3, 64, False), (4, 128, True), (6, 256, True), (3, 512, True)),
        stem_channels=64,
        stem_kernel=7,
        stem_stride=2,
        stem_pool=PoolKind("max"),
        expansion=4,
    )


# the layout builder behind each config ``schedule`` name
SCHEDULES = {"micro": micro_schedule, "resnet50": resnet50_schedule}


def bottom_heavy(schedule: StageSchedule, shift: int = 2) -> StageSchedule:
    """Re-allocate ``shift`` blocks from the deepest stage to earlier stages.

    Donated blocks are handed round-robin to the earliest stages, so every
    down-sampling transition happens later in depth while the total
    down-sampling count and the output shape are unchanged.  Interior
    bottleneck blocks cost the same FLOPs at every stage (channel width
    doubles exactly as spatial area quarters), so the swap trades a large
    parameter reduction for a near-zero FLOP change.
    """
    if len(schedule.stages) < 2:
        raise InvalidConfig("bottom_heavy needs at least 2 stages")
    if shift < 0:
        raise InvalidConfig(f"shift must be >= 0, got {shift}")
    counts = [c for c, _w, _d in schedule.stages]
    if counts[-1] - shift < 1:
        raise InvalidConfig(
            f"shift {shift} would empty the deepest stage ({counts[-1]} blocks)"
        )
    counts[-1] -= shift
    for i in range(shift):
        counts[i % (len(counts) - 1)] += 1
    stages = tuple(
        (counts[i], schedule.stages[i][1], schedule.stages[i][2])
        for i in range(len(counts))
    )
    return replace(schedule, stages=stages)


# ---------------------------------------------------------------------------
# layers
#
# A network is described as ordered lists of layers: input normalization
# and the stem, each block's main and skip path, and the head.  Every layer
# is called as layer(x, training) and reports, for one (h, w) input image,
# its output size (``out_hw``) and its forward FLOPs (``flops``); forward,
# shape tracing, FLOP counting, parameters and checkpoint state all iterate
# the same lists.


def _kaiming_uniform(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    bound = float(np.sqrt(6.0 / fan_in))
    return rng.uniform(-bound, bound, size=shape)


def _halve(name, h, w):
    if h % 2 or w % 2:
        raise InvalidConfig(f"{name}: odd spatial dim {h}x{w} at downsample")
    return h // 2, w // 2


class _Layer:
    """Defaults for a parameter-free layer that keeps the spatial size.

    ``tensors`` holds the layer's (key, value) pairs in checkpoint order: a
    Parameter is learnable, a plain array (batchnorm running statistics, the
    input mean and std) is state only.  Checkpoint names are
    ``f"{name}.{key}"``; the tensors of the sublayers in ``parts`` follow.
    """

    tensors = ()
    parts = ()

    def parameters(self):
        own = [t for _key, t in self.tensors if isinstance(t, Parameter)]
        return own + [p for part in self.parts for p in part.parameters()]

    def state(self):
        own = [(f"{self.name}.{key}", t.data if isinstance(t, Parameter) else t)
               for key, t in self.tensors]
        return own + [item for part in self.parts for item in part.state()]

    def out_hw(self, h, w):
        return h, w


class _Normalize(_Layer):
    """Fixed per-channel input normalization, ``(x + -mean) * (1 / std)``."""

    def __init__(self, mean, std, ch):
        self.name = "input"
        self.mean = np.array(mean, dtype=np.float64).reshape(-1)
        self.std = np.array(std, dtype=np.float64).reshape(-1)
        if self.mean.shape != (ch,) or self.std.shape != (ch,):
            raise ShapeMismatch("normalization stats must have one entry per channel")
        self.check(self.mean, self.std)
        self.tensors = (("mean", self.mean), ("std", self.std))

    def check(self, mean, std):
        """Refuse stats the layer cannot run with; ``Network.load_state``
        asks before it writes any tensor."""
        if not (np.isfinite(mean).all() and np.isfinite(std).all() and (std > 0).all()):
            raise InvalidConfig("input.mean must be finite and input.std finite and positive, "
                                f"got {mean} and {std}")

    def __call__(self, x: Tensor, training: bool) -> Tensor:
        scale = 1.0 / self.std[None, :, None, None]
        out = (x.data + -self.mean[None, :, None, None]) * scale
        return make_op(out, (x,), lambda g: (g * scale,))

    def flops(self, h, w) -> int:
        return 2 * self.mean.size * h * w


class _Conv(_Layer):
    """A bias-free convolution: batchnorm follows every conv."""

    def __init__(self, name, in_ch, out_ch, kernel, stride, pad, rng):
        self.name = name
        self.in_ch, self.out_ch, self.kernel = in_ch, out_ch, kernel
        self.stride, self.pad = stride, pad
        fan_in = in_ch * kernel * kernel
        self.weight = Parameter(_kaiming_uniform(rng, (out_ch, in_ch, kernel, kernel), fan_in))
        self.tensors = (("weight", self.weight),)

    def __call__(self, x: Tensor, training: bool) -> Tensor:
        return conv2d(x, self.weight, stride=self.stride, pad=self.pad)

    def out_hw(self, h, w):
        return _halve(self.name, h, w) if self.stride == 2 else (h, w)

    def flops(self, h, w) -> int:
        oh, ow = self.out_hw(h, w)
        return 2 * self.kernel * self.kernel * self.in_ch * self.out_ch * oh * ow


class _BatchNorm(_Layer):
    def __init__(self, name, ch):
        self.name = name
        self.ch = ch
        self.gamma = Parameter(np.ones(ch))
        self.beta = Parameter(np.zeros(ch))
        self.running_mean = np.zeros(ch)
        self.running_var = np.ones(ch)
        self.tensors = (("gamma", self.gamma), ("beta", self.beta),
                        ("running_mean", self.running_mean), ("running_var", self.running_var))

    def __call__(self, x: Tensor, training: bool) -> Tensor:
        return batchnorm2d(
            x, self.gamma, self.beta, self.running_mean, self.running_var, training
        )

    def flops(self, h, w) -> int:
        return 2 * self.ch * h * w


class _ReLU(_Layer):
    def __init__(self, ch):
        self.ch = ch

    def __call__(self, x: Tensor, training: bool) -> Tensor:
        return relu(x)

    def flops(self, h, w) -> int:
        return self.ch * h * w


class _Pool(_Layer):
    """A parameter-free 2x down-sampling site of ``ch`` channels."""

    def __init__(self, name, kind: PoolKind, ch):
        self.name = name
        self.kind, self.ch = kind, ch
        self._op = kind.op()

    def __call__(self, x: Tensor, training: bool) -> Tensor:
        return self._op(x)

    def out_hw(self, h, w):
        if min(h, w) < self.kind.min_size():
            raise InvalidConfig(f"{self.name}: input {h}x{w} is below the minimum side "
                                f"{self.kind.min_size()} of {self.kind.config_string()}")
        return _halve(self.name, h, w)

    def flops(self, h, w) -> int:
        return self.kind.flops(self.ch, h, w)


class _Head(_Layer):
    """Global average pool over ``ch`` channels, then the linear classifier."""

    def __init__(self, ch, classes, rng):
        self.name = "head.fc"
        self.ch, self.classes = ch, classes
        self.weight = Parameter(_kaiming_uniform(rng, (classes, ch), ch))
        self.bias = Parameter(np.zeros(classes))
        self.tensors = (("weight", self.weight), ("bias", self.bias))

    def __call__(self, x: Tensor, training: bool) -> Tensor:
        return self.classify(global_avg_pool(x))

    def classify(self, features: Tensor) -> Tensor:
        """Logits of (N, ``ch``) pooled features."""
        return linear(features, self.weight, self.bias)

    def out_hw(self, h, w):
        return 1, 1

    def flops(self, h, w) -> int:
        return self.ch * (h * w + 1) + (2 * self.ch + 1) * self.classes


def check_variant(pool: PoolKind, variant: str) -> None:
    """Refuse an unknown variant, or b or c with StridedConv (no pool to place)."""
    if variant not in VARIANTS:
        raise InvalidConfig(f"unknown block variant {variant!r}")
    if variant != "a" and pool.family == "strided":
        raise InvalidConfig(f"variant {variant!r} requires a pooling operator, not StridedConv")


def _substitute(layers, pool: PoolKind, pool_first: bool = False):
    """The down-sampling substitution rule, applied to one path.

    ``layers`` is a path as the original network has it, whose down-sampling
    sites are stride-2 convs and bare pools.  Unless ``pool`` is StridedConv,
    a stride-2 conv keeps its weights as a stride-1 conv followed by
    ``pool`` (preceded by it when ``pool_first``, the skip order of
    PoolBeforeConvSkip), and a bare pool site becomes ``pool`` alone.
    """
    if pool.family == "strided":
        return layers
    out = []
    for layer in layers:
        if isinstance(layer, _Pool):
            out.append(_Pool(layer.name, pool, layer.ch))
        elif isinstance(layer, _Conv) and layer.stride == 2:
            layer.stride = 1
            if pool_first:
                out += [_Pool(f"{layer.name}.pool", pool, layer.in_ch), layer]
            else:
                out += [layer, _Pool(f"{layer.name}.pool", pool, layer.out_ch)]
        else:
            out.append(layer)
    return out


def _run(layers, x: Tensor, training: bool) -> Tensor:
    for layer in layers:
        x = layer(x, training)
    return x


def _walk(layers, h, w):
    """(FLOPs, h, w) of ``layers`` on one (h, w) image; raises InvalidConfig
    for a non-positive size or naming the first layer that would halve an
    odd dimension or pool an input its operator rejects as too small."""
    if h < 1 or w < 1:
        raise InvalidConfig(f"spatial size must be positive, got {h}x{w}")
    total = 0
    for layer in layers:
        total += layer.flops(h, w)
        h, w = layer.out_hw(h, w)
    return total, h, w


# ---------------------------------------------------------------------------
# blocks and networks


class Block(_Layer):
    """Bottleneck residual block: 1x1 -> 3x3 -> 1x1 with skip connection.

    ``main`` and ``skip`` are the two paths as layer lists (an identity skip
    is the empty list); the block's output is relu(main(x) + skip(x)).
    """

    def __init__(self, name, in_ch, out_ch, downsample, pool, variant, expansion, pad, rng):
        if in_ch < 1 or out_ch < 1:
            raise InvalidConfig(f"{name}: channel counts must be positive")
        check_variant(pool, variant)
        self.name = name
        self.out_ch = out_ch
        width = max(1, out_ch // expansion)
        stride = 2 if downsample else 1

        self.conv1 = _Conv(f"{name}.conv1", in_ch, width, 1, 1, pad, rng)
        self.bn1 = _BatchNorm(f"{name}.bn1", width)
        self.conv2 = _Conv(f"{name}.conv2", width, width, 3, stride, pad, rng)
        self.bn2 = _BatchNorm(f"{name}.bn2", width)
        self.conv3 = _Conv(f"{name}.conv3", width, out_ch, 1, 1, pad, rng)
        self.bn3 = _BatchNorm(f"{name}.bn3", out_ch)
        self.main = [self.conv1, self.bn1, _ReLU(width), self.conv2, self.bn2, _ReLU(width),
                     self.conv3, self.bn3]

        self.has_skip_conv = bool(downsample) or in_ch != out_ch
        self.skip = []
        if self.has_skip_conv:
            self.skip_conv = _Conv(f"{name}.skip_conv", in_ch, out_ch, 1, stride, pad, rng)
            self.skip_bn = _BatchNorm(f"{name}.skip_bn", out_ch)
            self.skip = [self.skip_conv, self.skip_bn]

        if variant != "a":
            self.main = _substitute(self.main, pool)
            self.skip = _substitute(self.skip, pool, pool_first=variant == "b")
        self.parts = self.main + self.skip

    def forward(self, x: Tensor, training: bool) -> Tensor:
        return relu(_run(self.main, x, training) + _run(self.skip, x, training))

    __call__ = forward

    def out_hw(self, h, w):
        return _walk(self.main, h, w)[1:]

    def flops(self, h, w) -> int:
        main, oh, ow = _walk(self.main, h, w)
        skip = _walk(self.skip, h, w)[0]
        return main + skip + 2 * self.out_ch * oh * ow  # residual add + relu


class Network(_Layer):
    """Input normalization -> stem -> stages -> global average pool -> classifier.

    ``layers`` is the input normalization (when its stats are given), the
    stem's layer list and the blocks; ``head`` is the global average pool
    and classifier that follow them.  ``variant`` is one of ``VARIANTS``.

    An eval forward that records no tape runs ``layers`` over consecutive
    chunks of ``EVAL_CHUNK`` images and the classifier over the whole
    batch's pooled features, so its memory is bounded by one chunk's
    activations plus the input, the features and the logits.  Training
    forwards keep the whole batch (batchnorm needs its statistics) and so
    do recorded ones (one tape).
    """

    def __init__(self, schedule: StageSchedule, pool: PoolKind, variant: str,
                 num_classes: int, seed: int = 0, conv_pad: str = "circular",
                 input_mean=None, input_std=None, in_channels: int = 3):
        if num_classes < 2:
            raise InvalidConfig(f"num_classes must be >= 2, got {num_classes}")
        if conv_pad not in PAD_MODES:
            raise InvalidConfig(f"conv_pad must be one of {PAD_MODES}, got {conv_pad!r}")
        if (input_mean is None) != (input_std is None):
            raise InvalidConfig("input_mean and input_std must be given together")
        norm = [] if input_mean is None else [_Normalize(input_mean, input_std, in_channels)]

        rng = make_rng(seed)
        ch = schedule.stem_channels
        self.stem_conv = _Conv(
            "stem.conv", in_channels, ch, schedule.stem_kernel, schedule.stem_stride,
            conv_pad, rng,
        )
        stem = [self.stem_conv, _BatchNorm("stem.bn", ch), _ReLU(ch)]
        if schedule.stem_pool is not None:
            stem.append(_Pool("stem.pool", schedule.stem_pool, ch))

        self.blocks: list[Block] = []
        in_ch = ch
        for si, (count, width, down) in enumerate(schedule.stages):
            out_ch = width * schedule.expansion
            for bi in range(count):
                block = Block(
                    f"stage{si + 1}.block{bi}",
                    in_ch,
                    out_ch,
                    down and bi == 0,
                    pool,
                    variant,
                    schedule.expansion,
                    conv_pad,
                    rng,
                )
                self.blocks.append(block)
                in_ch = out_ch
        self.layers = norm + _substitute(stem, pool) + self.blocks
        self.head = _Head(in_ch, num_classes, rng)
        self.parts = self.layers + [self.head]

    def trace_shapes(self, h: int, w: int):
        """Walk spatial dims; raise InvalidConfig for a non-positive size or
        naming the first layer that would halve an odd dimension or pool
        too small an input."""
        return _walk(self.layers, h, w)[1:]

    def forward(self, x, training: bool = False) -> Tensor:
        x = x if isinstance(x, Tensor) else Tensor(x)
        if x.ndim != 4 or x.shape[1] != self.stem_conv.in_ch:
            raise ShapeMismatch(
                f"expected (N, {self.stem_conv.in_ch}, H, W) input, got {x.shape}"
            )
        self.trace_shapes(x.shape[2], x.shape[3])
        if training or is_recorded([x, *self.parameters()]):
            return _run(self.parts, x, training)
        # Eval without a tape maps each image on its own, so the layers run
        # in chunks whose activations stay cache-sized.  The classifier is
        # one GEMM over the whole batch's pooled features: BLAS picks its
        # kernel by matrix size, so per-chunk GEMMs would change bytes.
        features = np.empty((x.shape[0], self.head.ch))
        for start in range(0, x.shape[0], EVAL_CHUNK):
            chunk = _run(self.layers, Tensor(x.data[start:start + EVAL_CHUNK]), False)
            features[start:start + EVAL_CHUNK] = global_avg_pool(chunk).data
        return self.head.classify(Tensor(features))

    __call__ = forward

    def load_state(self, tensors: dict[str, np.ndarray]) -> None:
        own = self.state()
        own_names = [name for name, _arr in own]
        missing = [n for n in own_names if n not in tensors]
        extra = [n for n in tensors if n not in set(own_names)]
        if missing or extra:
            raise ShapeMismatch(
                f"checkpoint does not match model (missing {missing[:3]}, "
                f"unexpected {extra[:3]})"
            )
        if isinstance(self.layers[0], _Normalize):
            self.layers[0].check(tensors["input.mean"], tensors["input.std"])
        # every shape is checked before any tensor is written
        for name, arr in own:
            new = tensors[name]
            if new.shape != arr.shape:
                raise ShapeMismatch(f"{name}: checkpoint shape {new.shape} != {arr.shape}")
        for name, arr in own:
            arr[...] = tensors[name]


# ---------------------------------------------------------------------------
# counters


def count_params(model: Network) -> int:
    return int(sum(p.data.size for p in model.parameters()))


def count_flops(model: Network, h: int, w: int) -> int:
    """Forward FLOPs for one (in_channels, h, w) image per the documented
    integer conventions."""
    return int(_walk(model.parts, h, w)[0])


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(model: Network, path) -> None:
    """Versioned flat binary of named tensors, little-endian doubles."""
    items = model.state()
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<II", CHECKPOINT_VERSION, len(items)))
        for name, arr in items:
            encoded = name.encode("utf-8")
            f.write(struct.pack("<H", len(encoded)))
            f.write(encoded)
            f.write(struct.pack("<B", arr.ndim))
            f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            f.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def read_checkpoint(path) -> dict[str, np.ndarray]:
    blob = read_file(path)
    if blob[:4] != CHECKPOINT_MAGIC:
        raise UnsupportedFormat(f"{path}: not a checkpoint file (bad magic)")
    if len(blob) < 12:
        raise UnsupportedFormat(f"{path}: truncated checkpoint header")
    version, count = struct.unpack_from("<II", blob, 4)
    if version != CHECKPOINT_VERSION:
        raise UnsupportedFormat(f"{path}: checkpoint version {version} unsupported")
    off = 12
    tensors: dict[str, np.ndarray] = {}
    try:
        for _ in range(count):
            (name_len,) = struct.unpack_from("<H", blob, off)
            off += 2
            name = blob[off:off + name_len].decode("utf-8")
            off += name_len
            (ndim,) = struct.unpack_from("<B", blob, off)
            off += 1
            shape = struct.unpack_from(f"<{ndim}I", blob, off)
            off += 4 * ndim
            n = math.prod(shape)
            arr = np.frombuffer(blob, dtype="<f8", count=n, offset=off).reshape(shape)
            off += 8 * n
            if name in tensors:
                raise UnsupportedFormat(f"{path}: tensor {name!r} appears twice")
            tensors[name] = arr.astype(np.float64)
    except (struct.error, ValueError, OverflowError) as exc:
        raise UnsupportedFormat(f"{path}: truncated or corrupt checkpoint") from exc
    if off != len(blob):
        raise UnsupportedFormat(f"{path}: {len(blob) - off} bytes after the last tensor")
    return tensors


def load_checkpoint(model: Network, path) -> None:
    model.load_state(read_checkpoint(path))
