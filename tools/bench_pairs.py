"""Run alternating parent/change pairs of the benchmark and write a BENCH file.

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --parent-rev 84702a9 --topic build_batch --text "what the change does" \\
        --claim io build_s --target "change better in at least 9 of 10 pairs"

Leave out ``--claim`` and ``--target`` for a change that claims no gain; the
file then records ``"claim": null`` and still lists each workload's
``over_bound``.

``--parent`` and ``--change`` are two source checkouts, for example two
``git worktree``s.  For each workload (io, eval, symbolic, in that order) and
each of the ten seeds 21-30, the script runs
``perfbench/run.py --workload W --seed S --seconds T --trace 0`` once in each
checkout, one run at a time, with T the ``run_seconds`` of the change's
``BENCHMARK.json``: odd seeds run the parent first, even seeds the change
first.  Each run's result line goes to standard error as it arrives.
The script writes ``BENCH_<topic>.json`` in the current directory, with
the keys topic, change, parent, machine, python, command, seconds, seeds,
pairing, statistics, claim and workloads.  Every metric holds each side's
median and quartiles (inclusive method) and how many pairs the change won
and lost, in the direction ``BENCHMARK.json`` gives the metric, over the
seeds where both runs reported it.  Each workload lists in ``over_bound``
the end-to-end metrics whose change median is worse than the parent median
by more than the metric's ``bound`` in ``BENCHMARK.json``, a fraction of the
parent median.  The claim is met only if the change won at least nine of the
ten pairs, the medians differ by more than the parent's interquartile range,
every run of the claimed workload was correct, the change failed no more
requests than the parent, and no workload lists a metric over its bound.
It edits no file in either checkout.  The exit code is 1 if some run failed
or reported an incorrect result, else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from typing import Dict, List

SIDES = ("parent", "change")
WORKLOADS = ("io", "eval", "symbolic")
SEEDS = list(range(21, 31))
PAIRS = len(SEEDS)


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one benchmark run in ``checkout``, with its exit code."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    result["exit"] = proc.returncode
    if proc.returncode:
        print(proc.stderr, file=sys.stderr)
    return result


def quartiles(values: List[float]) -> Dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": round(q1, 4), "median": round(median, 4), "q3": round(q3, 4)}


def summarize(seeds: List[int], runs: Dict[str, List[dict]], better: Dict[str, str],
              bounds: Dict[str, float]) -> dict:
    """One workload's entry: counts, correctness, per-metric statistics and
    ``over_bound``, the end-to-end metrics whose change median is worse than
    the parent median by more than the metric's relative bound.

    A metric's statistics use the seeds where both runs reported it, so one
    crashed run, which reports no metrics, drops only its own pair."""
    metrics, over_bound = {}, []
    names = sorted(set().union(*(r["metrics"] for side in SIDES for r in runs[side])))
    for name in names:
        paired = [(p["metrics"][name], c["metrics"][name])
                  for p, c in zip(runs["parent"], runs["change"])
                  if name in p["metrics"] and name in c["metrics"]]
        if len(paired) < 2:
            continue
        values = {side: [pair[k]["value"] for pair in paired] for k, side in enumerate(SIDES)}
        sign = -1 if better.get(name, "lower") == "higher" else 1
        diffs = [sign * (c - p) for p, c in zip(values["parent"], values["change"])]
        parent, change = quartiles(values["parent"]), quartiles(values["change"])
        if name in bounds:
            p_median, c_median = statistics.median(values["parent"]), statistics.median(values["change"])
            if sign * (c_median - p_median) > bounds[name] * abs(p_median):
                over_bound.append(name)
        metrics[name] = {
            "unit": paired[0][0]["unit"],
            "pairs": len(paired),
            "parent": parent,
            "change": change,
            "change_over_parent": round(change["median"] / parent["median"], 3) if parent["median"] else None,
            "change_better_pairs": sum(d < 0 for d in diffs),
            "change_worse_pairs": sum(d > 0 for d in diffs),
        }
    return {
        "pairs": len(seeds),
        "seeds": seeds,
        "attempted": {side: sum(r["attempted"] for r in runs[side]) for side in SIDES},
        "failed": {side: sum(r["failed"] for r in runs[side]) for side in SIDES},
        "correct": all(r["correct"] and r["exit"] == 0 for side in SIDES for r in runs[side]),
        "over_bound": over_bound,
        "metrics": metrics,
    }


def claim_of(workloads: dict, workload: str, metric: str, target: str) -> dict:
    """The claim judged by the rule: the change wins at least nine of the ten
    pairs and the medians differ by more than the parent's interquartile
    range, with every run correct, no more failed requests than the parent,
    and no end-to-end metric of any workload worse than its bound."""
    entry = workloads[workload]
    claim = {"workload": workload, "metric": metric, "target": target}
    stats = entry["metrics"].get(metric)
    if stats is None:
        return {**claim, "met": False, "why_not": "no pair reported the metric"}
    parent, change = stats["parent"], stats["change"]
    iqr = round(parent["q3"] - parent["q1"], 4)
    why_not = []
    if 10 * stats["change_better_pairs"] < 9 * PAIRS:
        why_not.append(f"change better in {stats['change_better_pairs']} of {PAIRS} pairs")
    if abs(change["median"] - parent["median"]) <= iqr:
        why_not.append("medians within the parent's interquartile range")
    if not entry["correct"]:
        why_not.append("a run failed or reported an incorrect result")
    if entry["failed"]["change"] > entry["failed"]["parent"]:
        why_not.append("the change failed more requests than the parent")
    over = [f"{name} on {w}" for w, e in workloads.items() for name in e["over_bound"]]
    if over:
        why_not.append("worse than its bound: " + ", ".join(over))
    return {
        **claim,
        "parent_median": parent["median"],
        "change_median": change["median"],
        "parent_iqr": iqr,
        "change_better_pairs": stats["change_better_pairs"],
        "pairs": stats["pairs"],
        "met": not why_not,
        **({"why_not": "; ".join(why_not)} if why_not else {}),
    }


def machine() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"cpu": cpu, "cores": os.cpu_count(), "os": f"{platform.system()} {platform.machine()}"}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, help="checkout of the parent commit")
    p.add_argument("--change", required=True, help="checkout of the change")
    p.add_argument("--parent-rev", required=True, help="the parent commit, as recorded")
    p.add_argument("--topic", required=True)
    p.add_argument("--text", required=True, help="one sentence on what the change does")
    p.add_argument("--claim", nargs=2, metavar=("WORKLOAD", "METRIC"), help="left out: no gain claimed")
    p.add_argument("--target", help="the claim's target, as stated before the runs")
    args = p.parse_args(argv)
    if (args.claim is None) != (args.target is None):
        p.error("--claim and --target go together")
    if args.claim and args.claim[0] not in WORKLOADS:
        p.error(f"the claimed workload {args.claim[0]!r} is not one of {', '.join(WORKLOADS)}")

    checkouts = {"parent": args.parent, "change": args.change}
    with open(os.path.join(args.change, "BENCHMARK.json")) as f:
        benchmark = json.load(f)
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    seconds = benchmark["run_seconds"]
    workloads = {}
    for workload in WORKLOADS:
        runs: Dict[str, List[dict]] = {side: [] for side in SIDES}
        for seed in SEEDS:
            for side in SIDES if seed % 2 else SIDES[::-1]:
                result = run_once(checkouts[side], workload, seed, seconds)
                runs[side].append(result)
                print(json.dumps({"workload": workload, "seed": seed, "side": side, **result}),
                      file=sys.stderr, flush=True)
        workloads[workload] = summarize(SEEDS, runs, better, bounds)

    bench = {
        "topic": args.topic,
        "change": args.text,
        "parent": args.parent_rev,
        "machine": machine(),
        "python": platform.python_version(),
        "command": f"python3 perfbench/run.py --workload <{'|'.join(sorted(WORKLOADS))}> "
                   f"--seed <s> --seconds {seconds} --trace 0",
        "seconds": seconds,
        "seeds": SEEDS,
        "pairing": "one parent run and one change run per seed, each from its own checkout; odd "
                   f"seeds run the parent first, even seeds the change first; {' then '.join(WORKLOADS)}.",
        "statistics": "per metric: median and quartiles (inclusive method) over the runs of "
                      "each side whose pair both reported the metric; change_better_pairs / "
                      "change_worse_pairs count seeds where the change read better / worse",
        "claim": claim_of(workloads, *args.claim, args.target) if args.claim else None,
        "workloads": workloads,
    }
    out = f"BENCH_{args.topic}.json"
    with open(out, "w") as f:
        json.dump(bench, f, indent=2)
        f.write("\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0 if all(e["correct"] for e in workloads.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
