"""Run one workload of the abpc benchmark and print its metrics.

    python3 perfbench/run.py --workload eval --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory.  One process, one thread, one client: each request is
sent after the previous one returned (a closed loop).  A run checks the
Berkowitz reference against the library's brute-force oracles, sets the
workload up three times, then repeats whole rounds of the same requests
until ``--seconds`` have passed.  Each output is checked, outside the
timed region, against the reference or a property of the construction.

``--trace 0`` reports the end-to-end metrics: medians over set-ups and
over rounds.  ``--trace 1`` reports the per-layer metrics instead: one
untraced set-up and round for the baseline, then profiled set-up plus
round pairs until ``--seconds`` have passed, each metric the median over
the profiled pairs.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 only when every check passed and no request failed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "peak_rss_mib": "MiB",
    "eval_one_s": "s", "eval_all_s": "s", "expand_s": "s", "verify_s": "s",
    "build_s": "s", "stats_s": "s", "dot_s": "s",
}


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name == "graph.sweep_edges_per_s":
        return "edges/s"
    if name == "trace.overhead_x":
        return "x"
    return "s" if name.endswith("_s") else "count"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("eval", "symbolic", "io"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    sys.path.insert(0, SRC)
    try:
        import abpc
    except ImportError as exc:
        print(f"error: cannot import abpc from {SRC}: {exc}", file=sys.stderr)
        return 2
    if os.path.dirname(os.path.dirname(os.path.abspath(abpc.__file__))) != SRC:
        print(f"error: abpc was imported from {abpc.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import harness
    import reference
    import workloads

    os.environ["ABPC_GUARD_N"] = str(workloads.EXPANSION_GUARD_N)
    try:
        reference.self_check(args.seed)
    except reference.ReferenceMismatch as exc:
        print(f"error: reference self-check failed: {exc}", file=sys.stderr)
        return 1

    work_root = os.path.join(ROOT, ".bench_work")
    workdir = os.path.join(work_root, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    tally = harness.Tally()
    try:
        run = harness.per_layer if args.trace else harness.end_to_end
        metrics = run(args, workdir, tally)
    except workloads.CheckFailed as exc:
        print(f"error: set-up check failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(work_root)
    for line in tally.wrong:
        print(f"check failed: {line}", file=sys.stderr)
    correct = not tally.wrong
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in sorted(metrics.items())},
    }))
    return 0 if correct and tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
