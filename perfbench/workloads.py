"""The benchmark's workloads: what a set-up builds, the requests of a round,
and the check that judges each request's output.

Every workload issues all seven request classes, so every end-to-end
metric is defined on every workload.  Each workload runs its own classes
at full size and the others as a small fixed probe (``PROBES``), so a
change to one path shows mainly on the workload built for it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import re
from dataclasses import dataclass
from math import comb, factorial
from typing import Callable, Dict, List, Tuple

from abpc import (
    build_bivariate_abp,
    build_charzero_abp,
    build_gradient_abp,
    descriptor_from_spec,
    evaluate,
    expand_all,
    graph_from_json_dict,
    graph_to_json_dict,
    validate,
    verify_all,
)
from abpc.cli import main as cli_main
from abpc.rings import element_from_str

import reference

CLASSES = ("eval_one", "eval_all", "expand", "verify", "build", "stats", "dot")


class CheckFailed(Exception):
    """An output of the program disagrees with the reference or a property."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


@dataclass(frozen=True)
class Program:
    construction: str
    n: int
    ring: str

    @property
    def label(self) -> str:
        return f"{self.construction}-{self.n}-{self.ring.replace(':', '')}"

    @property
    def top(self) -> str:
        return f"cpc_{self.n}_{self.n}"

    def build(self):
        ring = descriptor_from_spec(self.ring)
        if self.construction == "gradient":
            return build_gradient_abp(self.n, self.n, ring)[0]
        if self.construction == "bivariate":
            return build_bivariate_abp(self.n, self.n, ring)
        return build_charzero_abp(self.n, self.n, ring)

    def output_indices(self) -> List[Tuple[int, int]]:
        """(i, j) of every output cpc_i_j the construction promises, with d = n."""
        if self.construction == "charzero":
            return [(self.n, j) for j in range(self.n + 1)]
        return [(i, j) for i in range(self.n + 1) for j in range(i + 1)]


@dataclass(frozen=True)
class Grid:
    n_max: int
    d_max: int
    ring: str
    combinatorial: bool = False

    def report_count(self) -> int:
        """Lines of ``verify_all``: cayley_hamilton and adjugate once per n;
        transition_product for sizes 2..n_max; rnd_block for d >= 1; the
        five other identities for d >= 0."""
        n, d = self.n_max, self.d_max
        return 2 * n + (n - 1) + n * d + 5 * n * (d + 1)


# Full-size requests per workload.  eval_one entries carry the number of
# matrices evaluated per round; "io" programs each get build, stats, dot.
WORKLOADS: Dict[str, Dict[str, list]] = {
    "eval": {
        "eval_one": [(Program("gradient", 24, "int"), 1), (Program("gradient", 16, "mod:6"), 1),
                     (Program("gradient", 16, "rat"), 1), (Program("bivariate", 10, "mod:6"), 1)],
        "eval_all": [Program("gradient", 7, "int"), Program("gradient", 7, "mod:4"),
                     Program("gradient", 7, "rat"), Program("bivariate", 5, "int")],
    },
    "symbolic": {
        "expand": [Program("gradient", 7, "int"), Program("bivariate", 6, "mod:4"),
                   Program("charzero", 5, "rat")],
        "verify": [Grid(5, 4, "int"), Grid(4, 4, "mod:4"), Grid(4, 4, "rat"),
                   Grid(4, 4, "int", combinatorial=True)],
    },
    "io": {
        "io": [Program("gradient", 18, "int"), Program("bivariate", 8, "mod:6"),
               Program("charzero", 6, "rat")],
    },
}

# Small requests of the classes a workload is not built for.
PROBES: Dict[str, list] = {
    "eval_one": [(Program("gradient", 12, "int"), 3)],
    "eval_all": [Program("gradient", 7, "int")],
    "expand": [Program("gradient", 6, "int"), Program("bivariate", 5, "mod:4"),
               Program("charzero", 4, "rat")],
    "verify": [Grid(3, 3, "int"), Grid(3, 3, "mod:4"), Grid(3, 3, "rat")],
    "io": [Program("gradient", 12, "int")],
}

# expand_all refuses ambient sizes above ABPC_GUARD_N (default 5).
EXPANSION_GUARD_N = max(p.n for p in WORKLOADS["symbolic"]["expand"] + PROBES["expand"])


@dataclass
class Request:
    cls: str
    label: str
    run: Callable[[], object]
    check: Callable[[object], Dict[str, int]]  # raises CheckFailed; returns counts by metric


def run_cli(argv: List[str]) -> Tuple[int, str]:
    """``abpc.cli.main`` in-process, with its standard output captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(argv)
    return code, buf.getvalue()


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class Case:
    """One program with a seeded matrix and the reference table at it."""

    def __init__(self, prog: Program, rnd: random.Random):
        self.prog = prog
        self.matrix = reference.random_matrix(prog.ring, prog.n, rnd)
        self.table = reference.cpc_table(self.matrix, prog.ring)
        ring = descriptor_from_spec(prog.ring)
        self.entries = [[element_from_str(ring, reference.to_text(prog.ring, x)) for x in row]
                        for row in self.matrix]

    def matrix_json(self) -> str:
        return json.dumps([[reference.to_text(self.prog.ring, x) for x in row]
                           for row in self.matrix])


def _built(prog: Program):
    g = prog.build()
    problems = validate(g)
    require(not problems, f"{prog.label}: built program invalid: {problems[:3]}")
    return g


# -- request constructors ----------------------------------------------------------


def _eval_one(prog: Program, rnd: random.Random, copies: int) -> List[Request]:
    g = _built(prog)
    edges = len(g.edges)
    out = []
    for k in range(copies):
        case = Case(prog, rnd)

        def check(value, case=case):
            require(value.value == case.table[(prog.n, prog.n)],
                    f"eval_one {prog.label}: {value} != reference")
            return {"sweep_edges": edges}

        out.append(Request("eval_one", f"{prog.label}#{k}",
                           lambda g=g, case=case: evaluate(g, case.entries, at=prog.top), check))
    return out


def _eval_all(prog: Program, rnd: random.Random, workdir: str) -> List[Request]:
    g = _built(prog)
    path = os.path.join(workdir, f"eval-{prog.label}.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(graph_to_json_dict(g), indent=2, sort_keys=True) + "\n")
    case = Case(prog, rnd)
    argv = ["eval", path, "--matrix", case.matrix_json()]
    values = {f"cpc_{i}_{j}": case.table[(i, j)] for i, j in prog.output_indices()}
    expected = "".join(f"{name} = {reference.to_text(prog.ring, values[name])}\n"
                       for name in sorted(values))

    def check(result):
        code, out = result
        require(code == 0, f"eval_all {prog.label}: exit code {code}")
        require(out == expected, f"eval_all {prog.label}: output differs from the reference")
        return {"cli.stdout_bytes": len(out.encode())}

    return [Request("eval_all", prog.label, lambda: run_cli(argv), check)]


def _poly_value(poly, matrix, spec: str):
    n = len(matrix)
    total = 0
    for mono, c in poly.terms.items():
        prod = c.value
        for v, e in mono:
            prod = prod * matrix[v // n][v % n] ** e
        total += prod
    return reference.reducer(spec)(total)


def _expand(prog: Program, rnd: random.Random) -> List[Request]:
    g = _built(prog)
    case = Case(prog, rnd)
    red = reference.reducer(prog.ring)
    unit = {red(1), red(-1)}

    def check(polys):
        names = {f"cpc_{i}_{j}": (i, j) for i, j in prog.output_indices()}
        require(set(polys) == set(names), f"expand {prog.label}: output names differ")
        terms = 0
        for name, poly in polys.items():
            i, j = names[name]
            require(len(poly.terms) == factorial(i) // factorial(i - j),
                    f"expand {prog.label}: {name} has {len(poly.terms)} terms")
            require(all(c.value in unit for c in poly.terms.values()),
                    f"expand {prog.label}: {name} has a coefficient other than +-1")
            require(_poly_value(poly, case.matrix, prog.ring) == case.table[(i, j)],
                    f"expand {prog.label}: {name} at the seeded matrix != reference")
            terms += len(poly.terms)
        return {"poly.output_terms": terms}

    return [Request("expand", prog.label, lambda: expand_all(g), check)]


def _verify(grid: Grid) -> List[Request]:
    ring = descriptor_from_spec(grid.ring)
    label = f"{grid.n_max}x{grid.d_max}-{grid.ring}" + ("-comb" if grid.combinatorial else "")

    def check(reports):
        require(len(reports) == grid.report_count(),
                f"verify {label}: {len(reports)} reports, grid has {grid.report_count()}")
        for rep in reports:
            require(rep.passed and rep.line().endswith(f" ring={grid.ring} PASS"),
                    f"verify {label}: {rep.line()}")
        return {"identities.checks": len(reports)}

    return [Request("verify", label,
                    lambda: verify_all(grid.n_max, grid.d_max, ring,
                                       combinatorial=grid.combinatorial), check)]


_DOT_EDGE = re.compile(r'^  "([^"]+)" -> "([^"]+)" \[label="[^"]*"(, style=dashed)?\];$')
_DOT_VERTEX = re.compile(r'^    "([^"]+)";$')


def _io(prog: Program, rnd: random.Random, workdir: str) -> List[Request]:
    """build --out, stats, export-dot --out on one program, through the CLI.

    The first round's files are checked in depth and fingerprinted; later
    rounds must write identical bytes.
    """
    case = Case(prog, rnd)
    path = os.path.join(workdir, f"io-{prog.label}.json")
    dot_path = os.path.join(workdir, f"io-{prog.label}.dot")
    n = prog.n
    facts: Dict[str, object] = {}

    def check_build(result):
        code, out = result
        require(code == 0 and out == f"wrote {path}\n", f"build {prog.label}: {code} {out!r}")
        digest = _digest(path)
        if "json" not in facts:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
            g = graph_from_json_dict(data)
            value = evaluate(g, case.entries, at=prog.top)
            require(value.value == case.table[(n, n)],
                    f"build {prog.label}: file read back evaluates {value} != reference")
            facts.update(json=digest, data=data, bytes=os.path.getsize(path))
        require(digest == facts["json"], f"build {prog.label}: file differs between rounds")
        data = facts["data"]
        return {"graph.vertices": len(data["vertices"]), "graph.edges": len(data["edges"]),
                "graph.json_bytes": facts["bytes"], "cli.stdout_bytes": len(out.encode())}

    def check_stats(result):
        code, out = result
        require(code == 0, f"stats {prog.label}: exit code {code}")
        *body, last = out.rstrip("\n").split("\n")
        stats = json.loads("\n".join(body))
        data = facts["data"]
        require(stats["total_vertices"] == len(data["vertices"])
                and stats["edge_count"] == len(data["edges"]),
                f"stats {prog.label}: counts differ from the file")
        counts = stats["per_layer_counts"]
        if prog.construction == "gradient":
            require(counts == [(n - j) * (n + j + 1) // 2 for j in range(1, n)],
                    f"stats {prog.label}: per-layer counts break (n-j)(n+j+1)/2")
            require(stats["width"] == comb(n + 1, 2) - 1,
                    f"stats {prog.label}: width != C(n+1,2)-1")
            require(stats["rvector_total"] == (n - 1) * comb(n + 1, 2) - comb(n + 1, 3),
                    f"stats {prog.label}: total != (d-1)C(n+1,2)-C(d+1,3)")
        else:
            require(stats["width"] == max(counts, default=0), f"stats {prog.label}: width")
        require(last.startswith(f"baseline n^3={n ** 3} width n^2={n * n}; "),
                f"stats {prog.label}: baseline line {last!r}")
        return {"cli.stdout_bytes": len(out.encode())}

    def check_dot(result):
        code, out = result
        require(code == 0 and out == f"wrote {dot_path}\n", f"dot {prog.label}: {code} {out!r}")
        digest = _digest(dot_path)
        if "dot" not in facts:
            data = facts["data"]
            edges, vertices = {}, []
            with open(dot_path, "r", encoding="utf-8") as fh:
                for line in fh:
                    m = _DOT_EDGE.match(line)
                    if m:
                        require((m[1], m[2]) not in edges, f"dot {prog.label}: repeated edge")
                        edges[(m[1], m[2])] = bool(m[3])
                        continue
                    m = _DOT_VERTEX.match(line)
                    if m:
                        vertices.append(m[1])
            want = {(e["from"], e["to"]): not e["linear"] for e in data["edges"]}
            require(edges == want, f"dot {prog.label}: edge lines differ from the JSON edges")
            require(sorted(vertices) == sorted(v["id"] for v in data["vertices"]),
                    f"dot {prog.label}: vertex lines differ from the JSON vertices")
            facts["dot"] = digest
        require(digest == facts["dot"], f"dot {prog.label}: file differs between rounds")
        return {"cli.stdout_bytes": len(out.encode())}

    build_argv = ["build", "--construction", prog.construction, "--n", str(n), "--d", str(n),
                  "--ring", prog.ring, "--out", path]
    return [
        Request("build", prog.label, lambda: run_cli(build_argv), check_build),
        Request("stats", prog.label, lambda: run_cli(["stats", path]), check_stats),
        Request("dot", prog.label, lambda: run_cli(["export-dot", path, "--out", dot_path]),
                check_dot),
    ]


def set_up(workload: str, seed: int, workdir: str) -> List[Request]:
    """Build the programs, files, matrices and reference values of one round.

    The same seed gives the same requests; only the generated inputs reach
    the program.
    """
    spec = dict(PROBES, **WORKLOADS[workload])
    rnd = random.Random(f"{workload}/{seed}")
    requests: List[Request] = []
    for prog, copies in spec["eval_one"]:
        requests += _eval_one(prog, rnd, copies)
    for prog in spec["eval_all"]:
        requests += _eval_all(prog, rnd, workdir)
    for prog in spec["expand"]:
        requests += _expand(prog, rnd)
    for grid in spec["verify"]:
        requests += _verify(grid)
    for prog in spec["io"]:
        requests += _io(prog, rnd, workdir)
    return requests
