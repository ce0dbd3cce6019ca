"""Command-line surface: build, eval, verify, verify-all, stats, export-dot.

Exit codes: 0 success, 1 verification failure or semantic error, 2 usage
error (including unparseable ring specs).  All output is deterministic
for fixed inputs.  A usage error that a command finds itself prints that
command's usage line, as argparse does for its own errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import gc
import json
import os
import sys
from typing import Dict, List, Optional, Tuple

from .build import (
    _build_gradient,
    build_bivariate_abp,
    build_charzero_abp,
    comparison_report,
    stats_from_graph,
)
from .graph import (
    GraphError,
    evaluate_all,
    graph_from_json_dict,
    graph_to_dot,
    graph_to_json_text,
    require_valid,
    resolve_output,
)
from .identities import IDENTITY_NAMES, side_entries, verify_all, verify_with_sides
from .rings import AbpcError, element_from_str, element_to_str, descriptor_from_spec


# each construction ``build --construction`` offers, in its --help order
_BUILDERS = {"charzero": build_charzero_abp, "bivariate": build_bivariate_abp,
             "gradient": _build_gradient}


@functools.cache
def _parser() -> Tuple[argparse.ArgumentParser, Dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each command's parser by name, built once
    per process: ``parse_args`` makes a fresh namespace on every call, and
    help text is formatted when it is printed."""
    p = argparse.ArgumentParser(prog="abpc",
                                description="exact branching programs for "
                                            "characteristic-polynomial coefficients")
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="build a construction and write its JSON")
    b.add_argument("--construction", required=True, choices=tuple(_BUILDERS))
    b.add_argument("--n", type=int, required=True)
    b.add_argument("--d", type=int, required=True)
    b.add_argument("--ring", required=True)
    b.add_argument("--out", required=True)
    b.add_argument("--dot", default=None)

    e = sub.add_parser("eval", help="evaluate a graph at a concrete matrix")
    e.add_argument("graph")
    e.add_argument("--matrix", required=True,
                   help="JSON array of arrays of ring-element strings")
    e.add_argument("--output", action="append", default=None,
                   help="output name; repeatable; default: all outputs")

    v = sub.add_parser("verify", help="verify one identity symbolically")
    v.add_argument("--identity", required=True, choices=IDENTITY_NAMES)
    v.add_argument("--n", type=int, required=True)
    v.add_argument("--d", type=int, default=0)
    v.add_argument("--ring", required=True)
    v.add_argument("--combinatorial", action="store_true")
    v.add_argument("--dump", action="store_true")

    va = sub.add_parser("verify-all", help="run the whole identity grid")
    va.add_argument("--n-max", type=int, required=True)
    va.add_argument("--d-max", type=int, required=True)
    va.add_argument("--ring", required=True)
    va.add_argument("--combinatorial", action="store_true")

    st = sub.add_parser("stats", help="construction statistics and baseline ratios")
    st.add_argument("graph", nargs="?", default=None)
    st.add_argument("--formula", action="store_true",
                    help="closed-form counts only, no graph needed")
    st.add_argument("--n", type=int, default=None)
    st.add_argument("--d", type=int, default=None)

    xd = sub.add_parser("export-dot", help="write a Graphviz rendering")
    xd.add_argument("graph")
    xd.add_argument("--out", default=None)
    return p, sub.choices


def _ring(parser: argparse.ArgumentParser, spec: str):
    try:
        return descriptor_from_spec(spec)
    except AbpcError as exc:
        parser.error(str(exc))  # exits with code 2


def _load_graph(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise GraphError(f"cannot read graph {path}: {exc}") from exc
    return graph_from_json_dict(data)


def _write(path: str, text: str) -> None:
    """Overwrite in place, then cut the tail: truncating first frees every block."""
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        size = fh.write(text.encode("utf-8"))
        if os.fstat(fh.fileno()).st_size > size:  # never true for a pipe or terminal
            fh.truncate(size)


def _cmd_build(parser, args) -> int:
    g = _BUILDERS[args.construction](args.n, args.d, _ring(parser, args.ring))
    _write(args.out, graph_to_json_text(g))
    if args.dot:
        _write(args.dot, graph_to_dot(g))
    print(f"wrote {args.out}")
    return 0


def _cmd_eval(parser, args) -> int:
    g = _load_graph(args.graph)
    require_valid(g)
    try:
        raw = json.loads(args.matrix)
    except (json.JSONDecodeError, RecursionError) as exc:
        parser.error(f"bad matrix JSON: {exc}")
    # a cell is a JSON string or integer; ``type`` because a bool is an int instance
    if not isinstance(raw, list) or any(not isinstance(row, list) or
                                        any(type(cell) not in (str, int) for cell in row)
                                        for row in raw):
        parser.error("matrix must be an array of arrays of strings")
    entries = [[element_from_str(g.ring, str(cell)) for cell in row] for row in raw]
    names = args.output or sorted(g.outputs)
    for name in names:
        resolve_output(g, name)  # an unknown name fails before anything is printed
    values = evaluate_all(g, entries)
    for name in names:
        print(f"{name} = {element_to_str(values[name])}")
    return 0


def _cmd_verify(parser, args) -> int:
    ring = _ring(parser, args.ring)
    report, lhs, rhs = verify_with_sides(args.identity, args.n, args.d, ring,
                                         combinatorial=args.combinatorial)
    print(report.line())
    if args.dump:
        for tag, side in (("lhs", lhs), ("rhs", rhs)):
            for position, entry in side_entries(side):
                where = "" if position is None else f"[{position[0]},{position[1]}]"
                print(f"{tag}{where} = {entry.text()}")
    if report.witness is not None:
        w = report.witness
        where = f" at entry {w.position}" if w.position else ""
        print(f"mismatch{where}")
        print(f"  diff: {w.difference}")
    return 0 if report.passed else 1


def _cmd_verify_all(parser, args) -> int:
    ring = _ring(parser, args.ring)
    reports = verify_all(args.n_max, args.d_max, ring,
                         combinatorial=args.combinatorial)
    for rep in reports:
        print(rep.line())
    failed = sum(1 for rep in reports if not rep.passed)
    print(f"total={len(reports)} failed={failed}")
    return 0 if failed == 0 else 1


def _baseline_line(n: int, vertices: int, width: int) -> str:
    """The n^3 / n^2 baseline against a vertex count and a width."""
    try:
        ratios = f"{n ** 3 / vertices:.4f} {n * n / width:.4f}" if vertices and width else "n/a"
    except OverflowError:  # a graph file's n so large that a ratio leaves float range
        ratios = "n/a"
    return (f"baseline n^3={n ** 3} width n^2={n * n}; "
            f"this construction vertices={vertices} width={width}; "
            f"ratios {ratios}")


def _cmd_stats(parser, args) -> int:
    if args.formula:
        if args.n is None:
            parser.error("--formula needs --n")
        rep = comparison_report(args.n, args.d)
        print(json.dumps(rep, indent=2, sort_keys=True))
        print(_baseline_line(args.n, rep["vertices"], rep["width"]))
        return 0
    if args.graph is None:
        parser.error("stats needs a graph file or --formula")
    g = _load_graph(args.graph)
    stats = stats_from_graph(g)
    print(json.dumps(dataclasses.asdict(stats), indent=2, sort_keys=True))
    print(_baseline_line(g.ambient_n, stats.size, stats.width))
    return 0


def _cmd_export_dot(parser, args) -> int:
    text = graph_to_dot(_load_graph(args.graph))
    if args.out:
        _write(args.out, text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


_COMMANDS = {
    "build": _cmd_build,
    "eval": _cmd_eval,
    "verify": _cmd_verify,
    "verify-all": _cmd_verify_all,
    "stats": _cmd_stats,
    "export-dot": _cmd_export_dot,
}


def main(argv: Optional[List[str]] = None) -> int:
    """Run one command and return its exit code; a usage error raises
    ``SystemExit(2)`` after argparse prints it.

    ``main(argv)`` may be called many times in one process.  The parser is
    built on the first call and reused.  For the length of each call the
    cyclic collector is paused and the int/str digit limit lifted, and both
    are given back as they were.  That makes a call not thread-safe.
    """
    parser, commands = _parser()
    args = parser.parse_args(argv)
    # The data holds no reference cycles, so the cyclic collector would only
    # rescan a freshly parsed graph; pause it and give the caller theirs back.
    # Exact values have any length: lift the int/str digit limit (3.11+) alike.
    was_enabled = gc.isenabled()
    gc.disable()
    digits = sys.get_int_max_str_digits() if hasattr(sys, "set_int_max_str_digits") else None
    if digits is not None:
        sys.set_int_max_str_digits(0)
    try:
        return _COMMANDS[args.command](commands[args.command], args)
    except (AbpcError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if was_enabled:
            gc.enable()
        if digits is not None:
            sys.set_int_max_str_digits(digits)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
