"""Command-line surface: build, eval, verify, verify-all, stats, export-dot.

Exit codes: 0 success, 1 verification failure or semantic error, 2 usage
error (including unparseable ring specs).  All output is deterministic
for fixed inputs.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from .build import (
    build_bivariate_abp,
    build_charzero_abp,
    build_gradient_abp,
    comparison_report,
    stats_from_graph,
)
from .graph import (
    GraphError,
    evaluate_all,
    graph_from_json_dict,
    graph_to_dot,
    graph_to_json_dict,
    resolve_output,
    validate,
)
from .identities import IDENTITY_NAMES, verify_all, verify_identity
from .rings import AbpcError, element_from_str, element_to_str, descriptor_from_spec


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="abpc",
                                description="exact branching programs for "
                                            "characteristic-polynomial coefficients")
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="build a construction and write its JSON")
    b.add_argument("--construction", required=True,
                   choices=("charzero", "bivariate", "gradient"))
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
    return p


def _ring(parser: argparse.ArgumentParser, spec: str):
    try:
        return descriptor_from_spec(spec)
    except AbpcError as exc:
        parser.error(str(exc))  # exits with code 2


def _load_graph(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise GraphError(f"cannot read graph {path}: {exc}") from exc
    return graph_from_json_dict(data)


def _cmd_build(parser, args) -> int:
    ring = _ring(parser, args.ring)
    if args.construction == "charzero":
        g = build_charzero_abp(args.n, args.d, ring)
    elif args.construction == "bivariate":
        g = build_bivariate_abp(args.n, args.d, ring)
    else:
        g, _stats = build_gradient_abp(args.n, args.d, ring)
    payload = json.dumps(graph_to_json_dict(g), indent=2, sort_keys=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(payload + "\n")
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(graph_to_dot(g))
    print(f"wrote {args.out}")
    return 0


def _cmd_eval(parser, args) -> int:
    g = _load_graph(args.graph)
    problems = validate(g)
    if problems:
        raise GraphError("invalid graph: " + "; ".join(problems))
    try:
        raw = json.loads(args.matrix)
    except json.JSONDecodeError as exc:
        parser.error(f"bad matrix JSON: {exc}")
    if not isinstance(raw, list) or any(not isinstance(row, list) for row in raw):
        parser.error("matrix must be an array of arrays of strings")
    entries = [[element_from_str(g.ring, str(cell)) for cell in row] for row in raw]
    names = args.output or sorted(g.outputs)
    for name in names:
        resolve_output(g, name)  # an unknown name fails before anything is printed
    values = evaluate_all(g, entries)
    for name in names:
        print(f"{name} = {element_to_str(values[name])}")
    return 0


def _dump_sides(identity, n, d, ring, combinatorial) -> None:
    from .identities import identity_sides
    from .poly import PolyMatrix

    lhs, rhs = identity_sides(identity, n, d, ring, combinatorial=combinatorial)
    for tag, side in (("lhs", lhs), ("rhs", rhs)):
        if isinstance(side, PolyMatrix):
            for a in range(1, side.rows + 1):
                for b in range(1, side.cols + 1):
                    print(f"{tag}[{a},{b}] = {side.entry(a, b).text()}")
        else:
            print(f"{tag} = {side.text()}")


def _cmd_verify(parser, args) -> int:
    ring = _ring(parser, args.ring)
    report = verify_identity(args.identity, args.n, args.d, ring,
                             combinatorial=args.combinatorial)
    print(report.line())
    if args.dump:
        _dump_sides(args.identity, args.n, args.d, ring, args.combinatorial)
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
    if vertices and width:
        ratios = f"{n ** 3 / vertices:.4f} {n * n / width:.4f}"
    else:
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
    print(json.dumps(stats.to_json_dict(), indent=2, sort_keys=True))
    vertices = stats.rvector_total if stats.rvector_total is not None else stats.size
    print(_baseline_line(g.ambient_n, vertices, stats.width))
    return 0


def _cmd_export_dot(parser, args) -> int:
    g = _load_graph(args.graph)
    text = graph_to_dot(g)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
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
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](parser, args)
    except (AbpcError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
