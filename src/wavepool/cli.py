"""Command-line entry point.

Subcommands: transform, train, eval, count, alias, consistency.  The
config commands (train, eval, count, consistency) write a MetricsReport as
CSV + JSON into the output directory, with the config hash embedded in the
file names; ``train`` trains its configs one after another.  ``transform``
writes subband PGMs and ``energy.json``, and ``alias`` writes
``alias_<pool>.csv``/``.json``; neither name carries a hash.  An empty
output directory is the working directory.  Reruns overwrite rather than
append, so a command is idempotent for fixed inputs.  A config's dataset
``path`` and kd ``teacher`` are joined to the data dir (``--data-dir``,
else ``$WAVEPOOL_DATA_DIR``) by ``os.path.join``, which keeps an absolute
path.  A domain error prints to standard error and exits 2.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import backbone as bb
from .analysis import (
    MetricsReport,
    alias_energy_sweep,
    evaluate,
    load_dataset,
    build_model_from_config,
    shift_consistency,
    train_model,
)
from .config import config_hash, load_config
from .errors import InvalidConfig, WavepoolError
from .filterbank import parse_wavelet
from .imageio import read_image, write_pgm
from .pooling import parse_pool
from .transforms import dwt2d, reconstruct_lowpass


def _data_dir(args) -> str:
    return args.data_dir or os.environ.get("WAVEPOOL_DATA_DIR", "")


def _write(cfg, kind: str, report: MetricsReport) -> str:
    """Stamp ``report`` with the config hash, write it to the output dir as
    ``<kind>_<hash>`` CSV + JSON, and return the CSV path."""
    digest = config_hash(cfg)
    report.metadata["config_hash"] = digest
    csv_path, _ = report.write(cfg.output.dir, f"{kind}_{digest}")
    return csv_path


# ---------------------------------------------------------------------------
# transform


def cmd_transform(args) -> int:
    image = read_image(args.input)
    if image.ndim == 3:
        image = image.mean(axis=0)  # PPM: transform the channel mean
    spec = parse_wavelet(args.wavelet)
    bands = dwt2d(image, spec)
    os.makedirs(args.outdir or os.curdir, exist_ok=True)

    summary = {"wavelet": spec.name, "input": list(image.shape), "subbands": {}}
    named = {"ll": bands.ll, "lh": bands.lh, "hl": bands.hl, "hh": bands.hh}
    energies = {name: float(np.sum(band**2)) for name, band in named.items()}
    total = sum(energies.values())
    for name, band in named.items():
        lo, hi = float(band.min()), float(band.max())
        scale = hi - lo
        normalized = (band - lo) / scale if scale > 0 else np.zeros_like(band)
        write_pgm(os.path.join(args.outdir, f"{name}.pgm"), normalized, maxval=65535)
        summary["subbands"][name] = {
            "min": lo,
            "max": hi,
            "energy": energies[name],
            "energy_fraction": energies[name] / total if total > 0 else 0.0,
        }
    lowpass = reconstruct_lowpass(image, spec)
    write_pgm(os.path.join(args.outdir, "lowpass.pgm"), np.clip(lowpass, 0, 1))
    with open(os.path.join(args.outdir, "energy.json"), "w", encoding="utf-8") as f:
        json.dump(summary, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote ll/lh/hl/hh.pgm, lowpass.pgm, energy.json to {args.outdir}")
    return 0


# ---------------------------------------------------------------------------
# train / eval


def cmd_train(args) -> int:
    for config_path in args.configs:
        cfg = load_config(config_path)
        ckpt_dir = os.path.join(cfg.output.dir, f"run_{config_hash(cfg)}", "checkpoints")
        _model, report = train_model(cfg, data_dir=_data_dir(args), checkpoint_dir=ckpt_dir)
        print(f"wrote {_write(cfg, 'metrics', report)}")
    return 0


def _build(args):
    """(config, test split, the network ``train`` builds for the config); a
    checkpoint loaded into it brings its own input normalization, so no
    command but ``train`` reads the training split."""
    cfg = load_config(args.config)
    test_set = load_dataset(cfg, "test", _data_dir(args))
    return cfg, test_set, build_model_from_config(cfg, test_set.class_count, test_set)


def cmd_eval(args) -> int:
    cfg, test_set, model = _build(args)
    bb.load_checkpoint(model, args.checkpoint)
    loss, acc = evaluate(model, test_set)
    report = MetricsReport(metadata={"checkpoint": args.checkpoint})
    report.add("test_loss", loss, "nats")
    report.add("test_accuracy", acc, "fraction")
    print(f"wrote {_write(cfg, 'eval', report)}")
    return 0


# ---------------------------------------------------------------------------
# count / alias / consistency


def cmd_count(args) -> int:
    cfg, test_set, model = _build(args)
    h = test_set.images.shape[2] if args.height is None else args.height
    w = test_set.images.shape[3] if args.width is None else args.width
    report = MetricsReport()
    report.add("param_count", bb.count_params(model), "params")
    report.add("flop_count", bb.count_flops(model, h, w), f"flops@{h}x{w}")
    print(f"wrote {_write(cfg, 'count', report)}")
    return 0


def _parse_freqs(text: str) -> list[float]:
    try:
        return [float(tok) * np.pi for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise InvalidConfig(f"--freqs: expected a comma list of numbers, got {text!r}") from None


def cmd_alias(args) -> int:
    kind = parse_pool(args.pool)
    report = alias_energy_sweep(kind, _parse_freqs(args.freqs))
    slug = kind.config_string().replace(":", "_").replace(".", "p")
    csv_path, _ = report.write(args.outdir, f"alias_{slug}")
    print(f"wrote {csv_path}")
    return 0


def cmd_consistency(args) -> int:
    cfg, test_set, model = _build(args)
    bb.load_checkpoint(model, args.checkpoint)
    report = shift_consistency(model, test_set, args.max_shift, args.samples)
    report.metadata["pool"] = cfg.model.pool
    print(f"wrote {_write(cfg, 'consistency', report)}")
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wavepool",
        description="Wavelet-based anti-aliased down-sampling: transforms, "
        "training experiments, and aliasing reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    data = argparse.ArgumentParser(add_help=False)
    data.add_argument("--data-dir", default="", help="dataset root override")

    p = sub.add_parser("transform", help="decompose an image into subbands")
    p.add_argument("input", help="binary PGM/PPM file")
    p.add_argument("--wavelet", default="haar")
    p.add_argument("--outdir", default="transform_out")
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("train", parents=[data], help="train models from config files")
    p.add_argument("configs", nargs="+", help="experiment config file(s)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", parents=[data], help="evaluate a checkpoint on the test split")
    p.add_argument("config")
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("count", parents=[data], help="parameter and FLOP counters")
    p.add_argument("config")
    p.add_argument("--height", type=int, default=None)
    p.add_argument("--width", type=int, default=None)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("alias", help="alias energy sweep for one pool kind")
    p.add_argument("pool", help='pool string, e.g. "wavelet:haar" or "max"')
    p.add_argument("--freqs", default="0.25,0.5,0.75,1.0",
                   help="comma list in units of pi, each in (0, 1]")
    p.add_argument("--outdir", default="alias_out")
    p.set_defaults(func=cmd_alias)

    p = sub.add_parser("consistency", parents=[data], help="shift-consistency of a checkpoint")
    p.add_argument("config")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--max-shift", type=int, default=4)
    p.add_argument("--samples", type=int, default=0, help="0 = full test set")
    p.set_defaults(func=cmd_consistency)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (WavepoolError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
