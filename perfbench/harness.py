"""Set-ups, rounds and the two kinds of run: end-to-end and traced."""

from __future__ import annotations

import cProfile
import gc
import json
import os
import platform
import pstats
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass
from functools import partial
from typing import Dict, List

import layers
import speed
from workloads import CLASSES, set_up

SETUPS = 3

# per-layer metrics counted by the request checks
COUNT_METRICS = ("poly.output_terms", "identities.checks", "cli.stdout_bytes",
                 "graph.vertices", "graph.edges", "graph.json_bytes")


class Tally:
    """Requests attempted and failed, and checks that did not hold."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong: List[str] = []


@dataclass
class Round:
    times: Dict[str, float]  # normalized seconds per request class
    wall: float  # plain wall seconds of all requests
    counts: Counter


def _profiled(fn, profiler):
    return fn if profiler is None else partial(profiler.runcall, fn)


def run_round(requests, tally: Tally, profiler=None) -> Round:
    """Send every request once; time each, then check its output untimed.

    A collection before each request gives every request the same
    collector state, whatever the previous request left behind.
    """
    rnd = Round(dict.fromkeys(CLASSES, 0.0), 0.0, Counter())
    timer = speed.Timer()
    for req in requests:
        tally.attempted += 1
        gc.collect()
        try:
            out, wall, elapsed = timer(_profiled(req.run, profiler))
        except Exception:  # a failed request is counted and reported, the run goes on
            tally.failed += 1
            print(f"request failed: {req.cls} {req.label}", file=sys.stderr)
            traceback.print_exc()
            continue
        rnd.times[req.cls] += elapsed
        rnd.wall += wall
        try:
            rnd.counts.update(req.check(out))
        except Exception as exc:  # a check that cannot complete is a failed check
            tally.wrong.append(f"{req.cls} {req.label}: {exc!r}")
    return rnd


def fresh_setup(workload: str, seed: int, workdir: str, profiler=None):
    """Set the workload up once; return (requests, wall s, normalized s).

    The caller drops the previous requests first.  What the set-up built
    is then frozen out of the cyclic collector, so collections during the
    rounds do not rescan it.
    """
    gc.unfreeze()
    gc.collect()
    timer = speed.Timer()
    requests, wall, elapsed = timer(_profiled(partial(set_up, workload, seed, workdir), profiler))
    gc.collect()
    gc.freeze()
    return requests, wall, elapsed


def end_to_end(args, workdir: str, tally: Tally) -> Dict[str, float]:
    setup_times = []
    requests = None
    for _ in range(SETUPS):
        requests = None
        requests, _wall, elapsed = fresh_setup(args.workload, args.seed, workdir)
        setup_times.append(elapsed)
    rounds: List[Round] = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < args.seconds:
        rounds.append(run_round(requests, tally))
    med = statistics.median
    metrics = {
        "setup_s": med(setup_times),
        "wall_s": med(sum(r.times.values()) for r in rounds),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    for cls in CLASSES:
        metrics[f"{cls}_s"] = med(r.times[cls] for r in rounds)
    info(args, rounds=len(rounds), setups=SETUPS,
         unnormalized_wall_s=med(r.wall for r in rounds))
    return metrics


def per_layer(args, workdir: str, tally: Tally) -> Dict[str, float]:
    requests, _, base_setup = fresh_setup(args.workload, args.seed, workdir)
    base = run_round(requests, tally)
    base_total = base_setup + sum(base.times.values())
    units = []
    start = time.perf_counter()
    while not units or time.perf_counter() - start < args.seconds:
        requests = None
        profiler = cProfile.Profile()
        requests, _, traced_setup = fresh_setup(args.workload, args.seed, workdir, profiler)
        traced = run_round(requests, tally, profiler)
        unit = layers.attribute(pstats.Stats(profiler))
        unit["trace.overhead_x"] = (traced_setup + sum(traced.times.values())) / base_total
        units.append(unit)
    metrics = {name: statistics.median(u[name] for u in units) for name in units[0]}
    for name in metrics:
        if name.endswith(".calls"):
            metrics[name] = int(metrics[name])  # the same in every unit
    metrics.update((name, base.counts[name]) for name in COUNT_METRICS)
    metrics["graph.sweep_edges_per_s"] = base.counts["sweep_edges"] / base.times["eval_one"]
    info(args, traced_units=len(units), untraced_s=base_total)
    return metrics


def info(args, **extra) -> None:
    """Record the run's parameters and machine on a line before the result."""
    print("# " + json.dumps({"workload": args.workload, "seed": args.seed,
                             "seconds": args.seconds, "trace": args.trace,
                             "python": platform.python_version(),
                             "cores": os.cpu_count(), **extra}, sort_keys=True))
