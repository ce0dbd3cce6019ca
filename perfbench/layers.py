"""Per-layer attribution of a ``cProfile`` run to the modules of ``abpc``.

A layer is one module file of the package.  Its self time and call count
are summed over the functions defined in that file.  A layer's entry time
is the cumulative time of calls that reach it from outside the layer, so
calls within the layer are not counted twice.  The profiler charges a
fixed cost to every call, which inflates layers made of many small calls
(``rings`` above all): shares locate time, they do not measure it.
"""

from __future__ import annotations

import os
import pstats
import sysconfig
from typing import Dict, Optional

import abpc

MODULES = ("cli", "identities", "build", "graph", "oracle", "poly", "rings")

# metric -> (module, function): cumulative time of one public function.
FUNCTIONS = {
    "graph.evaluate_s": ("graph", "evaluate"),
    "graph.expand_all_s": ("graph", "expand_all"),
    "graph.to_json_s": ("graph", "graph_to_json_dict"),
    "graph.from_json_s": ("graph", "graph_from_json_dict"),
    "graph.validate_s": ("graph", "validate"),
    "graph.to_dot_s": ("graph", "graph_to_dot"),
    "cli.main_s": ("cli", "main"),
}

# metric -> module: time spent in calls entering the module from outside.
ENTRIES = {
    "oracle.reference_s": "oracle",
    "identities.verify_s": "identities",
    "build.construct_s": "build",
}

_PACKAGE_DIR = os.path.dirname(os.path.abspath(abpc.__file__))
_STDLIB_DIR = sysconfig.get_paths()["stdlib"]


def _module(filename: str) -> Optional[str]:
    head, tail = os.path.split(os.path.abspath(filename))
    if head == _PACKAGE_DIR and tail.endswith(".py"):
        return tail[:-3]
    return None


def attribute(stats: pstats.Stats) -> Dict[str, float]:
    """Self time, calls and entry times per layer, plus builtin and stdlib self time.

    ``builtin`` covers C functions and code generated at run time, such as
    dataclass ``__init__`` and ``__eq__``; ``stdlib`` covers Python files
    of the standard library (json, argparse, fractions).
    """
    out: Dict[str, float] = {}
    for m in MODULES:
        out[f"{m}.self_s"] = 0.0
        out[f"{m}.calls"] = 0
    out["builtin.self_s"] = 0.0
    out["stdlib.self_s"] = 0.0
    for name in list(FUNCTIONS) + list(ENTRIES):
        out[name] = 0.0
    wanted = {v: k for k, v in FUNCTIONS.items()}
    for (filename, _line, func), (_cc, nc, tt, ct, callers) in stats.stats.items():
        mod = _module(filename)
        if mod is None:
            if filename == "~" or filename.startswith("<"):
                out["builtin.self_s"] += tt
            elif os.path.abspath(filename).startswith(_STDLIB_DIR):
                out["stdlib.self_s"] += tt
            continue
        out[f"{mod}.self_s"] += tt
        out[f"{mod}.calls"] += nc
        if (mod, func) in wanted:
            out[wanted[(mod, func)]] += ct
        for metric, entry_mod in ENTRIES.items():
            if entry_mod == mod:
                out[metric] += sum(c[3] for caller, c in callers.items()
                                   if _module(caller[0]) != mod)
    return out
