"""The alternating-pairs summary of ``tests/pairs.py``, on hand-made runs."""

import subprocess

import pytest

from pairs import run_once, summarize, verdict

RATE = {"name": "mpixels_per_cpu_s", "unit": "Mpx/s", "better": "higher", "bound": 0.25}
RSS = {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1}


def _runs(parent, change, workload="w", failed=(0, 0)):
    """Runs of pair i reading parent[i] and change[i] for every metric."""
    runs = []
    for i, (p, c) in enumerate(zip(parent, change)):
        for side, value, bad in (("parent", p, failed[0]), ("change", c, failed[1])):
            runs.append({"workload": workload, "pair": i, "seed": i, "side": side,
                         "correct": not bad, "attempted": 10, "failed": bad,
                         "metrics": {"mpixels_per_cpu_s": value, "peak_rss_mb": value}})
    return runs


PARENT = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.02]


def test_ties_count_for_neither_side():
    change = PARENT[:5] + [v + 0.1 for v in PARENT[5:]]
    m = summarize(_runs(PARENT, change), [RATE])["w"]["metrics"]["mpixels_per_cpu_s"]
    assert (m["wins"], m["losses"], m["pairs"]) == (5, 0, 10)
    assert m["verdict"] == "held"


@pytest.mark.parametrize("wins, outcome", [(10, "gain"), (9, "gain"), (8, "held")])
def test_gain_needs_nine_wins_in_ten(wins, outcome):
    change = [v + 0.5 if i < wins else v - 0.01 for i, v in enumerate(PARENT)]
    m = summarize(_runs(PARENT, change), [RATE])["w"]["metrics"]["mpixels_per_cpu_s"]
    assert m["wins"] == wins
    assert m["change_median"] - m["parent_median"] > m["parent_iqr"]
    assert m["verdict"] == outcome


def test_gain_needs_the_median_gap_to_exceed_the_parent_iqr():
    change = [v + 0.001 for v in PARENT]
    m = verdict(PARENT, change, list(zip(PARENT, change)), 10, "higher", 0.25)
    assert m["wins"] == 10 and m["verdict"] == "held"


def test_regression_beyond_the_bound_is_worse():
    # 12% up is a regression for peak RSS (10% bound) and a gain for the
    # rate; the rate 12% down stays inside its 25% bound
    change = [v * 1.12 for v in PARENT]
    metrics = summarize(_runs(PARENT, change), [RATE, RSS])["w"]["metrics"]
    assert metrics["peak_rss_mb"]["verdict"] == "worse"
    assert metrics["peak_rss_mb"]["relative_change"] == pytest.approx(0.12)
    assert metrics["mpixels_per_cpu_s"]["verdict"] == "gain"
    lower = summarize(_runs(PARENT, [v / 1.12 for v in PARENT]), [RATE])
    assert lower["w"]["metrics"]["mpixels_per_cpu_s"]["verdict"] == "held"


def test_parent_spread_wider_than_the_bound_is_unresolved():
    parent = [1.0, 2.0, 1.0, 2.0]
    assert verdict(parent, [1.5] * 4, list(zip(parent, [1.5] * 4)), 4, "lower", 0.1)["verdict"] \
        == "unresolved"
    assert verdict(parent, [0.5] * 4, list(zip(parent, [0.5] * 4)), 4, "lower", 0.1)["verdict"] \
        == "held"


def test_failed_runs_are_counted_and_judged():
    runs = _runs(PARENT[:3], PARENT[:3], failed=(0, 2))
    runs.append({"workload": "w", "pair": 3, "seed": 3, "side": "parent", "correct": False,
                 "attempted": 1, "failed": 1, "metrics": {}})
    failures = summarize(runs, [RATE])["w"]["failures"]
    assert failures["parent"] == {"failed": 1, "attempted": 31, "incorrect_runs": 1}
    assert failures["change"] == {"failed": 6, "attempted": 30, "incorrect_runs": 3}
    assert failures["verdict"] == "worse"


def test_pairs_whose_change_run_failed_count_against_a_gain():
    # the change wins the 5 pairs in which it read a value and crashes in
    # the other 5: 5 wins of 10 pairs run is no gain
    runs = [r for r in _runs(PARENT, [v + 0.5 for v in PARENT])
            if not (r["side"] == "change" and r["pair"] >= 5)]
    runs += [{"workload": "w", "pair": i, "seed": i, "side": "change", "correct": False,
              "attempted": 1, "failed": 1, "metrics": {}} for i in range(5, 10)]
    result = summarize(runs, [RATE])["w"]
    m = result["metrics"]["mpixels_per_cpu_s"]
    assert (m["wins"], m["pairs"]) == (5, 10)
    assert m["change_median"] - m["parent_median"] > m["parent_iqr"]
    assert m["verdict"] == "held"
    assert result["failures"]["verdict"] == "worse"


def test_no_gain_when_the_change_fails_more_operations():
    result = summarize(_runs(PARENT, [v + 0.5 for v in PARENT], failed=(0, 1)), [RATE])["w"]
    assert result["metrics"]["mpixels_per_cpu_s"]["wins"] == 10
    assert result["failures"]["verdict"] == "worse"
    assert result["metrics"]["mpixels_per_cpu_s"]["verdict"] == "held"


def test_a_run_past_the_timeout_is_one_failed_operation(monkeypatch, tmp_path):
    def hang(cmd, **kwargs):
        raise subprocess.TimeoutExpired(cmd, kwargs["timeout"])

    monkeypatch.setattr(subprocess, "run", hang)
    assert run_once(tmp_path, "w", 1, 20) == {"correct": False, "attempted": 1, "failed": 1,
                                              "metrics": {}}
