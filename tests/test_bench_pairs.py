"""The statistics and claim rule of tools/bench_pairs.py, on made-up runs."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

SEEDS = list(range(1, 11))
BETTER = {"build_s": "lower", "peak_rss_mib": "lower"}
BOUNDS = {"build_s": 0.25, "peak_rss_mib": 0.1}


def run(build_s, failed=0, correct=True, peak_rss_mib=None):
    metrics = {} if build_s is None else {"build_s": {"value": build_s, "unit": "s"}}
    if peak_rss_mib is not None:
        metrics["peak_rss_mib"] = {"value": peak_rss_mib, "unit": "MiB"}
    return {"correct": correct, "attempted": 10, "failed": failed, "exit": 0, "metrics": metrics}


def workload(parent, change):
    return {"io": bench_pairs.summarize(SEEDS, {"parent": parent, "change": change}, BETTER, BOUNDS)}


def test_a_clear_win_in_every_pair_meets_the_claim():
    w = workload([run(0.12 + k / 1000) for k in range(10)], [run(0.09 + k / 1000) for k in range(10)])
    claim = bench_pairs.claim_of(w, "io", "build_s", "t")
    assert claim["met"] and claim["change_better_pairs"] == 10 and "why_not" not in claim


def test_eight_wins_in_ten_do_not_meet_the_claim():
    change = [run(0.09)] * 8 + [run(0.2)] * 2
    claim = bench_pairs.claim_of(workload([run(0.12)] * 10, change), "io", "build_s", "t")
    assert not claim["met"] and "8 of 10" in claim["why_not"]


def test_more_failed_requests_or_an_incorrect_run_do_not_meet_the_claim():
    parent = [run(0.12 + k / 1000) for k in range(10)]
    failing = [run(0.09, failed=1)] + [run(0.09)] * 9
    claim = bench_pairs.claim_of(workload(parent, failing), "io", "build_s", "t")
    assert not claim["met"] and "failed more" in claim["why_not"]
    wrong = [run(0.09, correct=False)] + [run(0.09)] * 9
    claim = bench_pairs.claim_of(workload(parent, wrong), "io", "build_s", "t")
    assert not claim["met"] and "incorrect" in claim["why_not"]


def test_a_crashed_run_drops_only_its_own_pair():
    parent = [run(0.12 + k / 1000) for k in range(10)]
    change = [run(None, correct=False)] + [run(0.09)] * 9
    w = workload(parent, change)
    stats = w["io"]["metrics"]["build_s"]
    assert stats["pairs"] == 9 and stats["change_better_pairs"] == 9
    assert not w["io"]["correct"]
    claim = bench_pairs.claim_of(w, "io", "build_s", "t")
    assert not claim["met"]


def test_a_metric_no_pair_reported_is_an_unmet_claim():
    w = workload([run(None)] * 10, [run(None)] * 10)
    assert w["io"]["metrics"] == {}
    claim = bench_pairs.claim_of(w, "io", "build_s", "t")
    assert claim == {"workload": "io", "metric": "build_s", "target": "t", "met": False,
                     "why_not": "no pair reported the metric"}


def test_a_metric_worse_than_its_bound_is_listed_and_fails_the_claim():
    parent = [run(0.12 + k / 1000, peak_rss_mib=58.0) for k in range(10)]
    within = workload(parent, [run(0.09 + k / 1000, peak_rss_mib=63.7) for k in range(10)])
    assert within["io"]["over_bound"] == []
    assert bench_pairs.claim_of(within, "io", "build_s", "t")["met"]
    over = workload(parent, [run(0.09 + k / 1000, peak_rss_mib=64.0) for k in range(10)])
    assert over["io"]["over_bound"] == ["peak_rss_mib"]
    claim = bench_pairs.claim_of(over, "io", "build_s", "t")
    assert not claim["met"] and claim["why_not"] == "worse than its bound: peak_rss_mib on io"


def test_a_claim_needs_its_target_and_no_claim_needs_neither(capsys):
    common = ["--parent", "p", "--change", "c", "--parent-rev", "r", "--topic", "t", "--text", "x"]
    for extra in (["--claim", "io", "build_s"], ["--target", "9 of 10"]):
        with pytest.raises(SystemExit, match="2"):
            bench_pairs.main(common + extra)
        assert "--claim and --target go together" in capsys.readouterr().err
