"""Benchmark of wavepool: training steps, eval under input shifts, transforms.

Run from the root of a checkout:

    python3 perfbench/run.py --workload train_haar --seed 1 --seconds 20 --trace 0

Workloads are listed in ``WORKLOADS`` and built by ``workloads.make``.
With ``--trace 0`` the last line of standard output is a JSON object whose
metrics are the end-to-end ones; with ``--trace 1`` the operations
alternate between traced and untraced and the metrics are the per-layer
ones from the spans.  The line before it is a JSON record of the run:
machine facts, op-time quartiles, the set-up samples.  The exit code is 0
only when every output check passed.
"""

from __future__ import annotations

import os

# One BLAS thread: the benchmark drives wavepool from one single-threaded
# process, and on a shared machine a second BLAS thread mostly adds spread.
# This must happen before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60
WORKLOADS = ("train_haar", "train_db4", "eval_shift", "transform")
# Each workload's throughput in its own unit, for the record line: its name,
# unit, and value per unit of mpixels_per_cpu_s.  An image is 32x32 pixels.
NAMED_RATES = {
    "train_haar": ("train_images_per_s", "images/s", 1e6 / 1024),
    "train_db4": ("train_images_per_s", "images/s", 1e6 / 1024),
    "eval_shift": ("eval_images_per_s", "images/s", 1e6 / 1024),
    "transform": ("transform_mpixels_per_s", "Mpx/s", 1.0),
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


def blas_threads():
    """Thread count reported by the OpenBLAS library loaded in this process."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or None


def machine_facts(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
    }


def measure_setup(args) -> list[tuple[float, float]]:
    """(wall, CPU) seconds of fresh processes that import, make the inputs,
    build the network and exit: process start to where the first op could
    run."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    samples = []
    for _ in range(SETUP_REPEATS):
        c0 = _children_cpu()
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
                       timeout=SETUP_TIMEOUT_S)
        samples.append((time.perf_counter() - t0, _children_cpu() - c0))
    return samples


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_ops(workload, seconds: float, tracer=None):
    """Timed closed loop.  Returns ({op index: (wall, CPU) seconds} for the
    ops that passed their check, attempted, failed).  With a tracer, even
    ops are traced and odd ones are not, so at least two ops run."""
    times = {}
    attempted = failed = 0
    min_ops = 1 if tracer is None else 2
    deadline = time.perf_counter() + seconds
    while attempted < min_ops or time.perf_counter() < deadline:
        if tracer is not None:
            tracer.op = attempted
            tracer.enabled = attempted % 2 == 0
        t0 = time.perf_counter()
        c0 = time.process_time()
        try:
            result = workload.op()
        except Exception:  # an op that raises is counted as failed
            traceback.print_exc()
            failed += 1
        else:
            elapsed = (time.perf_counter() - t0, time.process_time() - c0)
            problems = workload.check(result)
            if problems:
                print("check failed: " + "; ".join(problems), file=sys.stderr)
                failed += 1
            else:
                times[attempted] = elapsed
        attempted += 1
    return times, attempted, failed


def summary(values) -> dict:
    """Sample count, extremes, quartiles of a list of timings."""
    values = sorted(values)
    out = {"n": len(values)}
    if values:
        out.update(min=values[0], median=statistics.median(values), max=values[-1])
    if len(values) >= 2:
        out["q1"], _median, out["q3"] = statistics.quantiles(values, n=4)
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "wavepool" / "__init__.py").is_file():
        print(f"error: no wavepool sources at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import numpy as np
    import spans
    import workloads

    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_only:
            workloads.make(args.workload, args.seed, str(workdir), spans.NullTracer())
            return 0
        setup_samples = measure_setup(args)

        tracer = spans.Tracer() if args.trace else None
        with tracer.installed() if tracer else contextlib.nullcontext():
            workload = workloads.make(args.workload, args.seed, str(workdir),
                                      tracer or spans.NullTracer())
            if tracer:
                tracer.enabled = False
            problems = workload.warmup()
            if problems:
                print("check failed: " + "; ".join(problems), file=sys.stderr)
            times, attempted, failed = run_ops(workload, args.seconds, tracer)
        attempted += 1
        failed += bool(problems)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    wall = summary(t for t, _cpu in times.values())
    cpu = summary(c for _wall, c in times.values())
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_facts(np),
        "failed_frac": failed / attempted,
        "op_wall_s": wall,
        "op_cpu_s": cpu,
        "setup_wall_s": summary(t for t, _cpu in setup_samples),
        "setup_cpu_s": summary(c for _wall, c in setup_samples),
    }
    if args.trace:
        traced = {i: t for i, (t, _cpu) in times.items() if i % 2 == 0}
        traced_cpu = [c for i, (_t, c) in times.items() if i % 2 == 0]
        untraced_cpu = [c for i, (_t, c) in times.items() if i % 2 == 1]
        overhead = (statistics.median(traced_cpu) / statistics.median(untraced_cpu)
                    if traced_cpu and untraced_cpu else 0.0)
        metrics = {name: {"value": value, "unit": spans.unit_of(name)}
                   for name, value in spans.layer_metrics(tracer, traced, overhead).items()}
        OUT.mkdir(exist_ok=True)
        spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans_file)
        record["spans_file"] = str(spans_file.relative_to(ROOT))
    else:
        rate = workload.mpixels_per_op / cpu.get("median", float("inf"))
        name, unit, scale = NAMED_RATES[args.workload]
        record[name] = {"value": rate * scale, "unit": unit, "per": "CPU second"}
        metrics = {
            "mpixels_per_cpu_s": {"value": rate, "unit": "Mpx/s"},
            "setup_s": {"value": record["setup_cpu_s"]["median"], "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB",
            },
        }
    print(json.dumps(record))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
