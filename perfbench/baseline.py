"""Run the benchmark over several seeds and summarize each metric.

From the root of a checkout:

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline.json

For every workload it makes one untraced run per seed, seeds in the outer
loop so that a slow spell of the machine is shared out over the workloads,
then one traced run on the first seed.  Each end-to-end metric is reported
with its ten values, median, quartiles and spread: the distance between
the quartiles as a share of the median, as ``statistics.quantiles`` gives
them.  Any run that exits nonzero stops the script.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, seconds: int, trace: int):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    record, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    return record, result


def describe(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=seed_list, default=seed_list("1-10"),
                   help="inclusive range, e.g. 1-10")
    p.add_argument("--out", help="write the summary here as JSON")
    args = p.parse_args(argv)
    if len(args.seeds) < 2:
        p.error("need at least two seeds")

    names = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    values = {w: {} for w in names}
    machine = None
    for seed in args.seeds:
        for workload in names:
            record, result = run(workload, seed, seconds, 0)
            machine = record["machine"]
            for name, metric in result["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])
            print(workload, seed, {k: round(v, 4) for k, v in
                                   ((n, m["value"]) for n, m in result["metrics"].items())},
                  flush=True)
    summary = {"seconds": seconds, "seeds": args.seeds, "machine": machine,
               "workloads": {}}
    for workload in names:
        _record, traced = run(workload, args.seeds[0], seconds, 1)
        summary["workloads"][workload] = {
            "end_to_end": {name: describe(v) for name, v in values[workload].items()},
            "per_layer": {name: m["value"] for name, m in traced["metrics"].items()},
        }
        for name, d in summary["workloads"][workload]["end_to_end"].items():
            print(f"{workload} {name}: median {d['median']:.6g} spread {d['spread']:.3f}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
