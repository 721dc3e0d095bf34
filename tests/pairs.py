"""Alternating pairs of benchmark runs: a parent tree against a changed one.

Run from the root of a checkout, naming the two tree roots to compare:

    python3 tests/pairs.py --parent <parent-tree> --change <change-tree> \
        --workload train_haar --pairs 10 --seed 51

Pair i runs ``perfbench/run.py --workload W --seed S+i --trace 0`` once
in each tree, for the ``run_seconds`` that ``BENCHMARK.json`` sets, one
process at a time, and alternates which side goes first: the parent in even
pairs, the change in odd ones.  Every run is printed with its seed, side,
``correct``, ``failed`` and end-to-end metrics; a failed, incorrect or
timed-out run is printed and counted, never dropped.

Then, for each workload and each end-to-end metric in ``BENCHMARK.json``,
it prints both medians and their relative change, the pairs the change won
(ties count for neither side), the parent's interquartile range and the
metric's bound, and a verdict:

- ``gain``: the change won at least 9 in 10 of the pairs run, and its
  median is better than the parent's by more than the parent's
  interquartile range, and its runs fail no larger share of operations
  than the parent's (a pair in which either side read no value is run but
  not won);
- ``worse``: the change's median is worse than the parent's by more than
  the bound times the parent's median;
- ``unresolved``: the parent's interquartile range is wider than the bound
  times its median, and not every run of the change reads better than
  every run of the parent;
- ``held`` otherwise.

A workload whose change runs fail a larger share of operations than the
parent's is reported ``worse`` on its ``failures`` line.  pytest does not
collect this file; ``tests/test_pairs.py`` checks the summary.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
SIDES = ("parent", "change")
TIMEOUT_S = 600


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in the tree at ``root``: its result line, or one
    failed operation and no metrics when the process printed none or ran
    past ``TIMEOUT_S``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    failed = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    try:
        proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{root}: {workload} seed {seed} ran past {TIMEOUT_S} s", file=sys.stderr)
        return failed
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
        return {"correct": result["correct"], "attempted": result["attempted"],
                "failed": result["failed"], "metrics": metrics}
    except (IndexError, KeyError, TypeError, json.JSONDecodeError):
        print(proc.stderr, file=sys.stderr, end="")
        return failed


def _iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _median, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def verdict(parent: list[float], change: list[float], pairs: list[tuple[float, float]],
            pairs_run: int, better: str, bound: float) -> dict:
    """Compare one metric's runs: ``parent`` and ``change`` hold every
    value read on each side, ``pairs`` the (parent, change) values of the
    pairs in which both sides read one, out of ``pairs_run`` pairs.
    ``better`` is "higher" or "lower"; ``bound`` is the regression allowed,
    relative to the parent's median."""
    sign = 1.0 if better == "higher" else -1.0
    med_p, med_c = statistics.median(parent), statistics.median(change)
    iqr = _iqr(parent)
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    losses = sum(sign * (c - p) < 0 for p, c in pairs)
    gap = sign * (med_c - med_p)
    if wins >= 0.9 * pairs_run and gap > iqr:
        outcome = "gain"
    elif -gap > bound * abs(med_p):
        outcome = "worse"
    elif iqr > bound * abs(med_p) and not all(
        sign * (c - p) > 0 for c in change for p in parent
    ):
        outcome = "unresolved"
    else:
        outcome = "held"
    return {"parent_median": med_p, "change_median": med_c,
            "relative_change": (med_c - med_p) / med_p if med_p else float("nan"),
            "wins": wins, "losses": losses, "pairs": pairs_run, "parent_iqr": iqr,
            "bound": bound, "verdict": outcome}


def summarize(runs: list[dict], end_to_end: list[dict]) -> dict:
    """Per workload: the failure counts of each side, and the ``verdict`` of
    each end-to-end metric (``end_to_end`` as in BENCHMARK.json).  Each run
    is a ``run_once`` result with its ``workload``, ``pair`` and ``side``;
    a metric's ``gain`` reads ``held`` when the change fails a larger share
    of operations."""
    out = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        pairs_run = max(r["pair"] for r in mine) + 1
        failures = {}
        for side in SIDES:
            side_runs = [r for r in mine if r["side"] == side]
            failed = sum(r["failed"] for r in side_runs)
            attempted = sum(r["attempted"] for r in side_runs)
            failures[side] = {"failed": failed, "attempted": attempted,
                              "incorrect_runs": sum(not r["correct"] for r in side_runs)}
        share = {side: f["failed"] / max(f["attempted"], 1) for side, f in failures.items()}
        failures["verdict"] = "worse" if share["change"] > share["parent"] else "held"
        metrics = {}
        for metric in end_to_end:
            name = metric["name"]
            by_pair = {}
            for r in mine:
                if name in r["metrics"]:
                    by_pair.setdefault(r["pair"], {})[r["side"]] = r["metrics"][name]
            values = {side: [v[side] for v in by_pair.values() if side in v] for side in SIDES}
            if not values["parent"] or not values["change"]:
                metrics[name] = {"verdict": "unresolved", "pairs": pairs_run}
                continue
            pairs = [(v["parent"], v["change"]) for v in by_pair.values() if len(v) == 2]
            metrics[name] = verdict(values["parent"], values["change"], pairs, pairs_run,
                                    metric["better"], metric["bound"])
            if metrics[name]["verdict"] == "gain" and failures["verdict"] == "worse":
                metrics[name]["verdict"] = "held"
        out[workload] = {"failures": failures, "metrics": metrics}
    return out


def print_summary(summary: dict, end_to_end: list[dict]) -> None:
    units = {m["name"]: m["unit"] for m in end_to_end}
    for workload, result in summary.items():
        f = result["failures"]
        print(f"{workload} failures: parent {f['parent']['failed']}/{f['parent']['attempted']} "
              f"({f['parent']['incorrect_runs']} incorrect runs), change "
              f"{f['change']['failed']}/{f['change']['attempted']} "
              f"({f['change']['incorrect_runs']} incorrect runs): {f['verdict']}")
        for name, m in result["metrics"].items():
            if "parent_median" not in m:
                print(f"{workload} {name}: no values on one side: {m['verdict']}")
                continue
            print(f"{workload} {name} ({units[name]}): median {m['parent_median']:.6g} -> "
                  f"{m['change_median']:.6g} ({m['relative_change']:+.2%}), change won "
                  f"{m['wins']} of {m['pairs']} pairs (lost {m['losses']}), parent IQR "
                  f"{m['parent_iqr']:.4g}, bound {m['bound']:.0%} = "
                  f"{m['bound'] * abs(m['parent_median']):.4g}: {m['verdict']}")


def main(argv=None) -> int:
    bench = json.loads(BENCHMARK.read_text())
    names = [w["name"] for w in bench["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, type=Path, help="root of the parent tree")
    p.add_argument("--change", required=True, type=Path, help="root of the changed tree")
    p.add_argument("--workload", action="append", choices=names,
                   help="a workload to run (repeatable; default: every workload)")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    roots = {"parent": args.parent, "change": args.change}
    for side, root in roots.items():
        if not (root / "perfbench" / "run.py").is_file():
            p.error(f"--{side}: no perfbench/run.py under {root}")
    runs = []
    for workload in args.workload or names:
        for i in range(args.pairs):
            seed = args.seed + i
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                run = run_once(roots[side], workload, seed, bench["run_seconds"])
                run.update(workload=workload, pair=i, seed=seed, side=side)
                runs.append(run)
                values = " ".join(f"{k}={v:.6g}" for k, v in run["metrics"].items())
                print(f"{workload} seed {seed} {side}: correct={run['correct']} "
                      f"failed={run['failed']}/{run['attempted']} {values}", flush=True)
    print_summary(summarize(runs, bench["end_to_end"]), bench["end_to_end"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
