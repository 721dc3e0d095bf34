"""Experiment configuration: plain-text key=value files with sections.

A config file is UTF-8 text (a leading byte order mark is skipped) and
line-oriented: ``[section]`` headers, ``key = value`` pairs, blank lines
and ``#`` comments ignored.  Unknown sections or keys
are rejected rather than silently dropped, and a key set twice in a
section (headers may repeat) rather than letting the last value win, so a
typo cannot quietly change an experiment; so are non-finite floats, pool
strings that do not parse, choices missing from the table of the module
that owns them (named below), and values the run would refuse only once
its data is read (a ``bottom_heavy_shift`` the schedule cannot take; a
pool, or in kd mode a teacher_pool, that cannot take the variant; a
negative lr or period, lr_min above lr under cosine, a non-positive step
factor, a kd alpha outside [0, 1] or a non-positive temperature; a
synthetic set the generator refuses).  Only an ``image_size`` too small
for the schedule waits for the shape walk of the first forward.
``serialize_config(parse_config(text))`` is the identity on canonical
form, and the canonical text is what gets hashed into output file names,
so a config hash pins the exact experiment.

Sections and keys (defaults in parentheses):

[dataset]
  kind (synthetic) | cifar100 | file        file: one .wvds image-set path,
                                            also read as the test split
  path ()                                   dataset dir/file, joined to
                                            the data dir (see cli); a
                                            cifar100 path naming one .bin
                                            file serves both splits too
  n_train (2000)   n_test (500)
  image_size (32)  object_size (6)  classes (4)

[model]
  schedule (micro)                          backbone.SCHEDULES
  pool (wavelet:haar)                       see pooling.parse_pool
  variant (c)                               backbone.VARIANTS
  bottom_heavy_shift (0)
  conv_pad (circular)                       ops.PAD_MODES

[train]
  epochs (10)  batch_size (50)
  lr (0.05)  momentum (0.9)  weight_decay (0.0)
  lr_schedule (constant)                    optim.LR_SCHEDULES
  milestones ()                             comma ints, step schedule
  factor (0.1)  lr_min (0.0)  period (0)    period 0: one cosine arc
  mode (plain) | kd                         kd: teacher names a checkpoint,
                                            joined to the data dir as path is
  teacher ()  teacher_pool (max)  alpha (0.5)  temperature (4.0)
  seed (0)

[output]
  dir (runs)
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, fields

from .backbone import SCHEDULES, VARIANTS, StageSchedule, bottom_heavy, check_variant
from .data import check_tiny_object_args
from .errors import InvalidConfig, InvalidHyperparameter, UnsupportedWavelet, read_file
from .ops import PAD_MODES
from .optim import LR_SCHEDULES
from .pooling import parse_pool


@dataclass
class DatasetConfig:
    kind: str = "synthetic"
    path: str = ""
    n_train: int = 2000
    n_test: int = 500
    image_size: int = 32
    object_size: int = 6
    classes: int = 4


@dataclass
class ModelConfig:
    schedule: str = "micro"
    pool: str = "wavelet:haar"
    variant: str = "c"
    bottom_heavy_shift: int = 0
    conv_pad: str = "circular"

    def layout(self) -> StageSchedule:
        """The stages the network is built from: ``schedule``'s layout with
        ``bottom_heavy_shift`` blocks moved off its deepest stage."""
        return bottom_heavy(SCHEDULES[self.schedule](), self.bottom_heavy_shift)


@dataclass
class TrainConfig:
    epochs: int = 10
    batch_size: int = 50
    lr: float = 0.05
    momentum: float = 0.9
    weight_decay: float = 0.0
    lr_schedule: str = "constant"
    milestones: str = ""
    factor: float = 0.1
    lr_min: float = 0.0
    period: int = 0
    mode: str = "plain"
    teacher: str = ""
    teacher_pool: str = "max"
    alpha: float = 0.5
    temperature: float = 4.0
    seed: int = 0

    def milestone_list(self) -> list[int]:
        text = self.milestones.strip()
        if not text:
            return []
        try:
            return [int(tok) for tok in text.split(",")]
        except ValueError:
            raise InvalidConfig(f"bad milestones list: {self.milestones!r}") from None


@dataclass
class OutputConfig:
    dir: str = "runs"


@dataclass
class ExperimentConfig:
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    output: OutputConfig = field(default_factory=OutputConfig)


_CHOICES = {
    ("dataset", "kind"): ("synthetic", "cifar100", "file"),
    ("model", "schedule"): SCHEDULES,
    ("model", "variant"): VARIANTS,
    ("model", "conv_pad"): PAD_MODES,
    ("train", "lr_schedule"): LR_SCHEDULES,
    ("train", "mode"): ("plain", "kd"),
}


def _coerce(section: str, key: str, raw: str, target_type):
    try:
        if target_type is int:
            value = int(raw)
        elif target_type is float:
            value = float(raw)
        else:
            value = raw
    except ValueError:
        raise InvalidConfig(f"[{section}] {key}: cannot parse {raw!r}") from None
    if target_type is float and not math.isfinite(value):
        raise InvalidConfig(f"[{section}] {key}: {raw!r} is not a finite number")
    choices = _CHOICES.get((section, key))
    if choices and value not in choices:
        raise InvalidConfig(f"[{section}] {key}: {value!r} not one of {tuple(choices)}")
    return value


def parse_config(text: str) -> ExperimentConfig:
    """Parse config text; unknown sections/keys and repeated keys raise InvalidConfig."""
    cfg = ExperimentConfig()
    section = None
    seen: set[tuple[str, str]] = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            section = stripped[1:-1].strip()
            if section not in {f.name for f in fields(cfg)}:
                raise InvalidConfig(f"line {lineno}: unknown section [{section}]")
            continue
        if "=" not in stripped:
            raise InvalidConfig(f"line {lineno}: expected key = value, got {stripped!r}")
        if section is None:
            raise InvalidConfig(f"line {lineno}: key before any [section]")
        key, _, raw = stripped.partition("=")
        key, raw = key.strip(), raw.strip()
        target = getattr(cfg, section)
        if key not in {f.name for f in fields(target)}:
            raise InvalidConfig(f"line {lineno}: unknown key {key!r} in [{section}]")
        if (section, key) in seen:
            raise InvalidConfig(f"line {lineno}: repeated key {key!r} in [{section}]")
        seen.add((section, key))
        setattr(target, key, _coerce(section, key, raw, type(getattr(target, key))))
    _validate(cfg)
    return cfg


def _validate(cfg: ExperimentConfig) -> None:
    t = cfg.train
    if t.epochs < 1 or t.batch_size < 1:
        raise InvalidConfig("epochs and batch_size must be >= 1")
    if t.seed < 0:
        raise InvalidConfig(f"seed must be >= 0, got {t.seed}")
    if t.mode == "kd" and not t.teacher:
        raise InvalidConfig("kd mode requires a teacher checkpoint path")
    # refused here rather than by optim or kd_loss once both splits are read
    for bad, what in (
        (t.lr < 0, f"lr must be >= 0, got {t.lr}"),
        (t.period < 0, f"period must be >= 0 (0: one arc), got {t.period}"),
        (t.lr_schedule == "cosine" and t.lr_min > t.lr,
         f"lr_min {t.lr_min} exceeds lr {t.lr} under the cosine schedule"),
        (t.lr_schedule == "step" and t.factor <= 0,
         f"factor must be > 0 under the step schedule, got {t.factor}"),
        (t.mode == "kd" and not 0 <= t.alpha <= 1,
         f"alpha must lie in [0, 1] in kd mode, got {t.alpha}"),
        (t.mode == "kd" and t.temperature <= 0,
         f"temperature must be > 0 in kd mode, got {t.temperature}"),
    ):
        if bad:
            raise InvalidConfig(f"[train] {what}")
    ds = cfg.dataset
    if ds.kind in ("cifar100", "file") and not ds.path:
        raise InvalidConfig(f"dataset kind {ds.kind!r} requires a path")
    if ds.kind == "synthetic":
        try:
            for n in (ds.n_train, ds.n_test):
                check_tiny_object_args(n, ds.image_size, ds.object_size, ds.classes)
        except InvalidConfig as exc:
            raise InvalidConfig(f"[dataset] {exc}") from None
    t.milestone_list()
    try:
        cfg.model.layout()
    except InvalidConfig as exc:
        raise InvalidConfig(f"[model] bottom_heavy_shift: {exc}") from None
    for key, text, built in (("[model] pool", cfg.model.pool, True),
                             ("[train] teacher_pool", t.teacher_pool, t.mode == "kd")):
        try:
            pool = parse_pool(text)
            if built:
                check_variant(pool, cfg.model.variant)
        except (InvalidConfig, InvalidHyperparameter, UnsupportedWavelet) as exc:
            raise InvalidConfig(f"{key}: {exc}") from None


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical text form: fixed section and key order, one key per line."""
    lines = []
    for section in fields(cfg):
        lines.append(f"[{section.name}]")
        target = getattr(cfg, section.name)
        for f in fields(target):
            value = getattr(target, f.name)
            if isinstance(value, float):
                value = repr(value)
            lines.append(f"{f.name} = {value}")
        lines.append("")
    return "\n".join(lines)


def load_config(path) -> ExperimentConfig:
    try:
        return parse_config(read_file(path).decode("utf-8-sig"))
    except UnicodeDecodeError as exc:
        raise InvalidConfig(f"{path}: not UTF-8 text (byte {exc.start})") from None


def config_hash(cfg: ExperimentConfig) -> str:
    """Twelve hex digits of the canonical form's SHA-256; names run files."""
    return hashlib.sha256(serialize_config(cfg).encode("utf-8")).hexdigest()[:12]
