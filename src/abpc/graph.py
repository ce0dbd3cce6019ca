"""Layered algebraic branching programs and their exactness-preserving rewrites.

Three flavors share one data structure.  ``abp``: vertices carry layers
0..d, cross-layer edges carry homogeneous linear labels, intra-layer edges
carry ring constants and may not form directed cycles.  ``pabp``: no
constant edges at all, exactly one vertex in layer 0 and one in layer d.
``aabp``: arbitrary DAG with affine (degree <= 1) labels; the layer field
stores a topological index and paths may have different lengths.

A graph computes, at every named output vertex, the sum over all
source-to-vertex paths of the product of the edge labels.  Evaluation and
symbolic expansion run as a forward sweep (never path enumeration), which
is the matrix-product semantics of the layered model.
"""

from __future__ import annotations

import heapq
import os
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .poly import Polynomial, PolyMatrix
from .rings import (
    AbpcError,
    RingDescriptor,
    RingElement,
    descriptor_from_spec,
    descriptor_to_spec,
    element_from_str,
    element_to_str,
    int_embed,
)

DEFAULT_EXPANSION_GUARD = 5


class GraphError(AbpcError):
    pass


def expansion_guard() -> int:
    """Ambient-size cap for symbolic expansion; ABPC_GUARD_N overrides."""
    raw = os.environ.get("ABPC_GUARD_N")
    if not raw:
        return DEFAULT_EXPANSION_GUARD
    try:
        return int(raw)
    except ValueError:
        raise GraphError(f"ABPC_GUARD_N must be an integer, got {raw!r}") from None


@dataclass(frozen=True)
class AffineLabel:
    """An edge label: a ring constant plus a linear form in the x[i,j].

    ``linear`` holds (i, j, coeff) triples sorted by (i, j) with nonzero
    coefficients only.  A label is constant iff ``linear`` is empty and
    homogeneous-linear iff ``constant`` is zero.
    """

    constant: RingElement
    linear: Tuple[Tuple[int, int, RingElement], ...] = ()

    @property
    def ring(self) -> RingDescriptor:
        return self.constant.descriptor

    @classmethod
    def const(cls, value: RingElement) -> "AffineLabel":
        return cls(value, ())

    @classmethod
    def variable(cls, ring: RingDescriptor, i: int, j: int, coeff: int = 1) -> "AffineLabel":
        return cls.make(ring.zero(), {(i, j): int_embed(ring, coeff)})

    @classmethod
    def make(cls, constant: RingElement, linear: Dict[Tuple[int, int], RingElement]) -> "AffineLabel":
        triples = tuple(
            (i, j, c) for (i, j), c in sorted(linear.items()) if not c.is_zero()
        )
        return cls(constant, triples)

    @classmethod
    def from_polynomial(cls, p: Polynomial) -> "AffineLabel":
        if p.degree > 1:
            raise GraphError("edge labels must have degree at most 1")
        from .poly import unflatten

        linear = {}
        for mono, c in p.terms.items():
            if not mono:
                continue
            (v, _e), = mono
            linear[unflatten(v, p.ambient_n)] = c
        return cls.make(p.constant_term(), linear)

    def is_zero(self) -> bool:
        return self.constant.is_zero() and not self.linear

    def is_constant(self) -> bool:
        return not self.linear

    def is_homogeneous_linear(self) -> bool:
        return self.constant.is_zero()

    def single_variable(self) -> Optional[Tuple[int, int, int]]:
        """(i, j, +-1) when the label is exactly a signed variable, else None."""
        if not self.constant.is_zero() or len(self.linear) != 1:
            return None
        i, j, c = self.linear[0]
        if c.is_one():
            return i, j, 1
        if (-c).is_one():
            return i, j, -1
        return None

    def add(self, other: "AffineLabel") -> "AffineLabel":
        merged = {(i, j): c for i, j, c in self.linear}
        for i, j, c in other.linear:
            cur = merged.get((i, j))
            merged[(i, j)] = c if cur is None else cur + c
        return AffineLabel.make(self.constant + other.constant, merged)

    def scale(self, c: RingElement) -> "AffineLabel":
        return AffineLabel.make(self.constant * c, {(i, j): coeff * c for i, j, coeff in self.linear})

    def neg(self) -> "AffineLabel":
        return self.scale(int_embed(self.ring, -1))

    def homogeneous_part(self) -> "AffineLabel":
        return AffineLabel(self.ring.zero(), self.linear)

    def to_polynomial(self, n: int) -> Polynomial:
        p = Polynomial.constant(self.ring, n, self.constant)
        for i, j, c in self.linear:
            p = p + Polynomial.variable(self.ring, n, i, j).scale(c)
        return p

    def evaluate(self, entries: Sequence[Sequence[RingElement]]) -> RingElement:
        acc = self.constant
        for i, j, c in self.linear:
            acc = acc + c * entries[i - 1][j - 1]
        return acc


class AbpGraph:
    """A branching program; mutated only during its build phase."""

    __slots__ = ("flavor", "ring", "ambient_n", "num_layers", "layer", "edges",
                 "source", "outputs")

    def __init__(self, flavor: str, ring: RingDescriptor, ambient_n: int, num_layers: int):
        if flavor not in ("abp", "pabp", "aabp"):
            raise GraphError(f"unknown flavor {flavor!r}")
        self.flavor = flavor
        self.ring = ring
        self.ambient_n = ambient_n
        self.num_layers = num_layers
        self.layer: Dict[str, int] = {}
        self.edges: Dict[Tuple[str, str], AffineLabel] = {}
        self.source: Optional[str] = None
        self.outputs: Dict[str, str] = {}

    # -- build phase ---------------------------------------------------------

    def add_vertex(self, vid: str, layer: int) -> str:
        if vid in self.layer:
            if self.layer[vid] != layer:
                raise GraphError(f"vertex {vid!r} re-added in a different layer")
            return vid
        self.layer[vid] = layer
        return vid

    def set_source(self, vid: str) -> None:
        if vid not in self.layer:
            raise GraphError(f"source {vid!r} is not a vertex")
        self.source = vid

    def add_edge(self, u: str, v: str, label: AffineLabel) -> None:
        """Insert an edge; parallel edges are merged by adding their labels."""
        if u not in self.layer or v not in self.layer:
            raise GraphError("edge endpoint is not a vertex")
        if u == v:
            raise GraphError("self-loops are not allowed")
        existing = self.edges.get((u, v))
        merged = label if existing is None else existing.add(label)
        if merged.is_zero():
            self.edges.pop((u, v), None)
        else:
            self.edges[(u, v)] = merged

    def remove_edge(self, u: str, v: str) -> None:
        self.edges.pop((u, v), None)

    def remove_vertex(self, vid: str) -> None:
        self.layer.pop(vid, None)
        for key in [k for k in self.edges if vid in k]:
            del self.edges[key]
        for name in [n for n, v in self.outputs.items() if v == vid]:
            del self.outputs[name]

    def add_output(self, name: str, vid: str) -> None:
        if vid not in self.layer:
            raise GraphError(f"output {name!r} points at a missing vertex")
        self.outputs[name] = vid

    def copy(self) -> "AbpGraph":
        g = AbpGraph(self.flavor, self.ring, self.ambient_n, self.num_layers)
        g.layer = dict(self.layer)
        g.edges = dict(self.edges)
        g.source = self.source
        g.outputs = dict(self.outputs)
        return g

    # -- derived views ---------------------------------------------------------

    def in_adj(self) -> Dict[str, List[Tuple[str, AffineLabel]]]:
        adj: Dict[str, List[Tuple[str, AffineLabel]]] = {v: [] for v in self.layer}
        for (u, v), lab in self.edges.items():
            adj[v].append((u, lab))
        return adj

    def out_adj(self) -> Dict[str, List[Tuple[str, AffineLabel]]]:
        adj: Dict[str, List[Tuple[str, AffineLabel]]] = {v: [] for v in self.layer}
        for (u, v), lab in self.edges.items():
            adj[u].append((v, lab))
        return adj

    def by_layer(self) -> Dict[int, List[str]]:
        """Layer -> sorted vertex ids, for every layer that holds a vertex."""
        groups: Dict[int, List[str]] = {}
        for vid in sorted(self.layer):
            groups.setdefault(self.layer[vid], []).append(vid)
        return groups

    def width(self) -> int:
        """Maximum vertex count over the intermediate layers 1..d-1."""
        groups = self.by_layer()
        return max((len(groups.get(l, ())) for l in range(1, self.num_layers)), default=0)

    def size(self) -> int:
        """Vertex count excluding the source and the out-degree-0 sinks."""
        has_out = {u for (u, _v) in self.edges}
        return sum(1 for v in self.layer if v != self.source and v in has_out)

    def __repr__(self) -> str:
        return (f"AbpGraph({self.flavor}, n={self.ambient_n}, d={self.num_layers}, "
                f"|V|={len(self.layer)}, |E|={len(self.edges)})")


# -- topological order -------------------------------------------------------------


def topological_order(verts: Sequence[str], edges: Iterable[Tuple[str, str]]) -> List[str]:
    """Kahn's algorithm over ``edges``, ties broken by position in ``verts``.

    Repeated edges are allowed.  When the edges contain a cycle the result
    is short: it omits every vertex on a cycle or reachable from one.
    """
    pos = {v: k for k, v in enumerate(verts)}
    succ: List[List[int]] = [[] for _ in verts]
    indeg = [0] * len(verts)
    for u, v in edges:
        succ[pos[u]].append(pos[v])
        indeg[pos[v]] += 1
    ready = [k for k, deg in enumerate(indeg) if deg == 0]
    order: List[str] = []
    while ready:
        k = heapq.heappop(ready)
        order.append(verts[k])
        for w in succ[k]:
            indeg[w] -= 1
            if indeg[w] == 0:
                heapq.heappush(ready, w)
    return order


# -- validation ---------------------------------------------------------------


def validate(g: AbpGraph) -> List[str]:
    """Return all flavor-invariant violations; empty means the graph is valid."""
    problems: List[str] = []
    if g.source is None or g.source not in g.layer:
        return ["missing source vertex"]
    for name, vid in sorted(g.outputs.items()):
        if vid not in g.layer:
            problems.append(f"output {name!r} points at a missing vertex")
    if any(v == g.source for (_u, v) in g.edges):
        problems.append("source has incoming edges")
    if g.flavor in ("abp", "pabp"):
        if g.layer[g.source] != 0:
            problems.append("source must be in layer 0")
        for vid, lay in sorted(g.layer.items()):
            if not 0 <= lay <= g.num_layers:
                problems.append(f"vertex {vid!r} outside layers 0..{g.num_layers}")
        for (u, v) in sorted(g.edges):
            lab = g.edges[(u, v)]
            du, dv = g.layer[u], g.layer[v]
            if dv == du + 1:
                if not lab.is_homogeneous_linear():
                    problems.append(f"cross-layer edge {u}->{v} must be homogeneous linear")
            elif dv == du:
                if g.flavor == "pabp":
                    problems.append("pabp forbids constant edges")
                elif not lab.is_constant():
                    problems.append(f"intra-layer edge {u}->{v} must be constant")
            else:
                problems.append(f"edge {u}->{v} skips layers")
        if g.flavor == "abp":
            const_edges = [(u, v) for (u, v), lab in g.edges.items()
                           if lab.is_constant() and g.layer[u] == g.layer[v]]
            settled = set(topological_order(list(g.layer), const_edges))
            cyclic = {lay for vid, lay in g.layer.items() if vid not in settled}
            for lay in range(0, g.num_layers + 1):
                if lay in cyclic:
                    problems.append(f"constant-edge cycle in layer {lay}")
        if g.flavor == "pabp":
            groups = g.by_layer()
            if len(groups.get(0, ())) != 1:
                problems.append("pabp requires exactly one vertex in layer 0")
            if len(groups.get(g.num_layers, ())) != 1:
                problems.append(f"pabp requires exactly one vertex in layer {g.num_layers}")
    else:  # aabp
        for (u, v) in sorted(g.edges):
            if g.layer[v] <= g.layer[u]:
                problems.append(f"edge {u}->{v} must increase the topological index")
    return problems


# -- evaluation --------------------------------------------------------------


def resolve_output(g: AbpGraph, at: Optional[str] = None) -> Tuple[str, str]:
    """Pick an output by name, or the unique one, or the unique top-layer one."""
    if at is not None:
        if at not in g.outputs:
            raise GraphError(f"unknown output {at!r}")
        return at, g.outputs[at]
    if len(g.outputs) == 1:
        return next(iter(g.outputs.items()))
    top = [(name, v) for name, v in sorted(g.outputs.items()) if g.layer[v] == g.num_layers]
    if len(top) == 1:
        return top[0]
    raise GraphError("ambiguous output; name one explicitly")


def _forward_values(g: AbpGraph, one, label_factor: Callable[[AffineLabel], object]) -> Dict[str, object]:
    """Sweep values through the graph; the value type supports + and *."""
    zero = one - one
    verts = sorted(g.layer, key=lambda vid: (g.layer[vid], vid))
    order = topological_order(verts, g.edges)
    if len(order) != len(verts):
        raise GraphError("constant-edge cycle")
    values: Dict[str, object] = {}
    in_adj = g.in_adj()
    for v in order:
        acc = one if v == g.source else zero
        for u, lab in in_adj[v]:
            acc = acc + values[u] * label_factor(lab)
        values[v] = acc
    return values


def evaluate_all(g: AbpGraph, entries: Sequence[Sequence[RingElement]]) -> Dict[str, RingElement]:
    """All named outputs at a concrete matrix from a single forward sweep."""
    n = g.ambient_n
    if len(entries) != n or any(len(row) != n for row in entries):
        raise GraphError("matrix dimension mismatch")
    for row in entries:
        for e in row:
            if e.descriptor != g.ring:
                raise GraphError("matrix entries from a different ring")
    values = _forward_values(g, g.ring.one(), lambda lab: lab.evaluate(entries))
    return {name: values[vid] for name, vid in sorted(g.outputs.items())}


def evaluate(g: AbpGraph, entries: Sequence[Sequence[RingElement]], at: Optional[str] = None) -> RingElement:
    """Evaluate the polynomial at a concrete matrix via a layer sweep."""
    name, _target = resolve_output(g, at)
    return evaluate_all(g, entries)[name]


def expand_all(g: AbpGraph) -> Dict[str, Polynomial]:
    """All named outputs from a single forward sweep."""
    guard = expansion_guard()
    if g.ambient_n > guard:
        raise GraphError(
            f"symbolic expansion guard exceeded (n={g.ambient_n} > {guard}); "
            "set ABPC_GUARD_N to override"
        )
    one = Polynomial.from_int(g.ring, g.ambient_n, 1)
    values = _forward_values(g, one, lambda lab: lab.to_polynomial(g.ambient_n))
    return {name: values[vid] for name, vid in sorted(g.outputs.items())}


def expand_symbolic(g: AbpGraph, at: Optional[str] = None) -> Polynomial:
    """The exact polynomial computed at the named vertex."""
    name, _target = resolve_output(g, at)
    return expand_all(g)[name]


def sub_abp(g: AbpGraph, at: Optional[str] = None) -> AbpGraph:
    """The sub-program of all edges on all source-to-output paths."""
    name, target = resolve_output(g, at)
    out_adj = g.out_adj()
    in_adj = g.in_adj()

    def reach(start: str, adj) -> set:
        seen = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for w, _lab in adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return seen

    forward = reach(g.source, out_adj)
    backward = reach(target, in_adj)
    kept = (forward & backward) | {g.source, target}
    sub = AbpGraph(g.flavor, g.ring, g.ambient_n, g.layer[target])
    for vid in sorted(kept, key=lambda v: (g.layer[v], v)):
        sub.add_vertex(vid, g.layer[vid])
    sub.set_source(g.source)
    for (u, v) in sorted(g.edges):
        if u in kept and v in kept and u in backward and v in forward:
            sub.add_edge(u, v, g.edges[(u, v)])
    sub.add_output(name, target)
    return sub


# -- constant-edge elimination -------------------------------------------------


def constant_edge_elimination_steps(g: AbpGraph, at: Optional[str] = None) -> Iterator[AbpGraph]:
    """Yield the intermediate graphs of the constant-edge elimination.

    Every yielded graph computes the same polynomial at the designated
    output.  Each step picks a vertex with no incoming constant edges but
    an outgoing one, removes that edge and reroutes the affected paths; a
    vertex with no incoming constant edges always exists because the
    intra-layer constant edges are acyclic.
    """
    problems = validate(g)
    if problems:
        raise GraphError("invalid input graph: " + "; ".join(problems))
    name, target = resolve_output(g, at)
    if g.layer[target] < 1:
        raise GraphError("elimination needs an output of degree at least 1")
    cur = sub_abp(g, name)
    yield cur
    step_limit = 4 * (len(cur.layer) + len(cur.edges) + 4) ** 2
    steps = 0
    while True:
        const_edges = sorted((u, v) for (u, v), lab in cur.edges.items() if lab.is_constant())
        if not const_edges:
            break
        steps += 1
        if steps > step_limit:
            raise GraphError("constant-edge elimination did not terminate")
        has_const_in = {v for (_u, v) in const_edges}
        candidates = sorted(
            {u for (u, _v) in const_edges if u not in has_const_in},
            key=lambda vid: (cur.layer[vid], vid),
        )
        v = next((c for c in candidates if c != cur.source), candidates[0])
        w = min(t for (x, t) in const_edges if x == v)
        alpha = cur.edges[(v, w)].constant
        nxt = cur.copy()
        nxt.remove_edge(v, w)
        if v == cur.source:
            # paths s -(alpha)-> w -> y become direct edges s -> y
            for (x, y) in sorted(cur.edges):
                if x == w:
                    nxt.add_edge(v, y, cur.edges[(x, y)].scale(alpha))
        else:
            # paths u -> v -(alpha)-> w become direct edges u -> w
            for (x, y) in sorted(cur.edges):
                if y == v:
                    nxt.add_edge(x, w, cur.edges[(x, y)].scale(alpha))
        cur = nxt
        yield cur
    final = cur.copy()
    target = final.outputs[name]
    for vid in sorted(cur.layer):
        lay = cur.layer[vid]
        if (lay == 0 and vid != cur.source) or (lay == cur.num_layers and vid != target):
            final.remove_vertex(vid)
    final.flavor = "pabp"
    final.outputs = {name: target}
    yield final


def eliminate_constant_edges(g: AbpGraph, at: Optional[str] = None) -> AbpGraph:
    """Convert a layered program into one without constant edges.

    The result computes the same polynomial at its sink, and no
    intermediate layer gains a vertex.
    """
    result = None
    for result in constant_edge_elimination_steps(g, at):
        pass
    return result


# -- homogenization -------------------------------------------------------------


def homogenize(g: AbpGraph, k: int) -> AbpGraph:
    """Layered program for the degree-k homogeneous component of an affine one.

    Every vertex v is replaced by copies v#0..v#k tracking the degree
    accumulated so far: linear label parts advance a degree, constant parts
    stay.  The source keeps only copy 0 and the sink only copy k.
    """
    if g.flavor != "aabp":
        raise GraphError("homogenize expects an aabp-flavor graph")
    problems = validate(g)
    if problems:
        raise GraphError("invalid input graph: " + "; ".join(problems))
    if k < 0:
        raise GraphError("negative target degree")
    name, sink = resolve_output(g)
    if sink == g.source:
        raise GraphError("source and sink coincide")
    out = AbpGraph("abp", g.ring, g.ambient_n, k)

    def copies(v: str) -> range:
        if v == g.source:
            return range(0, 1)
        if v == sink:
            return range(k, k + 1)
        return range(0, k + 1)

    for v in sorted(g.layer, key=lambda vid: (g.layer[vid], vid)):
        for i in copies(v):
            out.add_vertex(f"{v}#{i}", i)
    out.set_source(f"{g.source}#0")
    for (u, v) in sorted(g.edges):
        lab = g.edges[(u, v)]
        linear = lab.homogeneous_part()
        const = lab.constant
        targets = copies(v)
        for i in copies(u):
            if not linear.is_zero() and (i + 1) in targets:
                out.add_edge(f"{u}#{i}", f"{v}#{i + 1}", linear)
            if not const.is_zero() and i in targets:
                out.add_edge(f"{u}#{i}", f"{v}#{i}", AffineLabel.const(const))
    out.add_output(name, f"{sink}#{k}")
    return out


# -- sum and product -------------------------------------------------------------


def combine(g1: AbpGraph, g2: AbpGraph, op: str,
            at1: Optional[str] = None, at2: Optional[str] = None) -> AbpGraph:
    """Sum or product of two programs by gluing sources and sinks.

    Sum identifies the two sources and the two sinks (equal degree
    required); product identifies the first sink with the second source.
    """
    if op not in ("sum", "product"):
        raise GraphError(f"unknown combination {op!r}")
    a = sub_abp(g1, at1)
    b = sub_abp(g2, at2)
    if a.num_layers < 1 or b.num_layers < 1:
        raise GraphError("combine requires outputs of degree at least 1")
    if a.ring != b.ring:
        raise GraphError("ring mismatch")
    ambient = max(a.ambient_n, b.ambient_n)
    flavor = "pabp" if a.flavor == b.flavor == "pabp" else "abp"
    _na, sink_a = resolve_output(a)
    _nb, sink_b = resolve_output(b)
    if op == "sum":
        if a.num_layers != b.num_layers:
            raise GraphError("degree mismatch on sum")
        d, shift_b, sink_a_id, source_b_id = a.num_layers, 0, "t", "s"
    else:
        d, shift_b, sink_a_id, source_b_id = a.num_layers + b.num_layers, a.num_layers, "m", "m"
    out = AbpGraph(flavor, a.ring, ambient, d)
    glue = {("f", a.source): "s", ("f", sink_a): sink_a_id,
            ("h", b.source): source_b_id, ("h", sink_b): "t"}
    parts = (("f", a, 0), ("h", b, shift_b))

    def rename(tag: str, v: str) -> str:
        return glue.get((tag, v), f"{tag}.{v}")

    for tag, part, shift in parts:
        for v in sorted(part.layer, key=lambda vid: (part.layer[vid], vid)):
            out.add_vertex(rename(tag, v), part.layer[v] + shift)
    out.set_source("s")
    for tag, part, _shift in parts:
        for (u, v) in sorted(part.edges):
            out.add_edge(rename(tag, u), rename(tag, v), part.edges[(u, v)])
    out.add_output("sink", "t")
    return out


# -- determinantal representation -------------------------------------------------


def abp_to_determinant(g: AbpGraph, at: Optional[str] = None) -> PolyMatrix:
    """Square affine matrix whose determinant is the computed polynomial.

    The source and sink are identified into one vertex and every other
    vertex receives a loop with label 1; the determinant of the adjacency
    matrix then sums exactly the signed cycle covers, which correspond to
    the source-to-sink paths.  For even degree two rows are swapped so the
    determinant equals the polynomial itself.  The matrix size is at most
    (d-1) * width + 1.
    """
    a = sub_abp(g, at)
    if a.flavor != "pabp":
        raise GraphError("determinant conversion expects a pabp-flavor graph")
    problems = validate(a)
    if problems:
        raise GraphError("invalid input graph: " + "; ".join(problems))
    d = a.num_layers
    if d < 1:
        raise GraphError("degree must be at least 1")
    _name, sink = resolve_output(a)
    inner = sorted(
        (vid for vid in a.layer if vid not in (a.source, sink)),
        key=lambda vid: (a.layer[vid], vid),
    )
    index = {a.source: 0, sink: 0}
    for pos, vid in enumerate(inner, start=1):
        index[vid] = pos
    size = len(inner) + 1
    one = Polynomial.from_int(a.ring, a.ambient_n, 1)
    rows = [[Polynomial.zero(a.ring, a.ambient_n) for _ in range(size)] for _ in range(size)]
    for pos in range(1, size):
        rows[pos][pos] = one
    for (u, v) in sorted(a.edges):
        lab = a.edges[(u, v)]
        rows[index[u]][index[v]] = rows[index[u]][index[v]] + lab.to_polynomial(a.ambient_n)
    if d % 2 == 0 and size >= 2:
        rows[0], rows[1] = rows[1], rows[0]
    return PolyMatrix.from_rows(a.ring, a.ambient_n, rows)


# -- serialization ------------------------------------------------------------------


def graph_to_json_dict(g: AbpGraph) -> dict:
    verts = [
        {"id": vid, "layer": g.layer[vid]}
        for vid in sorted(g.layer, key=lambda v: (g.layer[v], v))
    ]
    edges = []
    for (u, v) in sorted(g.edges):
        lab = g.edges[(u, v)]
        edges.append({
            "from": u,
            "to": v,
            "const": element_to_str(lab.constant),
            "linear": [
                {"i": i, "j": j, "coeff": element_to_str(c)} for i, j, c in lab.linear
            ],
        })
    return {
        "flavor": g.flavor,
        "d": g.num_layers,
        "n": g.ambient_n,
        "ring": descriptor_to_spec(g.ring),
        "vertices": verts,
        "edges": edges,
        "source": g.source,
        "outputs": dict(sorted(g.outputs.items())),
    }


def _field(obj: dict, key: str, kind: type):
    """``obj[key]``, which must be exactly a ``str`` or an ``int`` (so not a bool)."""
    value = obj[key]
    if type(value) is not kind:
        what = "a string" if kind is str else "an integer"
        raise GraphError(f"malformed graph JSON: field {key!r} must be {what}, got {value!r}")
    return value


def _index_field(obj: dict, key: str, n: int) -> int:
    value = _field(obj, key, int)
    if not 1 <= value <= n:
        raise GraphError(f"malformed graph JSON: field {key!r} must be in 1..{n}, got {value}")
    return value


def graph_from_json_dict(data: dict) -> AbpGraph:
    try:
        ring = descriptor_from_spec(_field(data, "ring", str))
        n = _field(data, "n", int)
        g = AbpGraph(data["flavor"], ring, n, _field(data, "d", int))
        for v in data["vertices"]:
            g.add_vertex(_field(v, "id", str), _field(v, "layer", int))
        g.set_source(_field(data, "source", str))
        for e in data["edges"]:
            const = element_from_str(ring, _field(e, "const", str))
            linear = {
                (_index_field(t, "i", n), _index_field(t, "j", n)):
                    element_from_str(ring, _field(t, "coeff", str))
                for t in e["linear"]
            }
            g.add_edge(_field(e, "from", str), _field(e, "to", str),
                       AffineLabel.make(const, linear))
        outputs = data["outputs"]
        for name in outputs:
            g.add_output(name, _field(outputs, name, str))
    except (KeyError, TypeError) as exc:
        raise GraphError(f"malformed graph JSON: {exc}") from exc
    return g


def graph_to_dot(g: AbpGraph) -> str:
    """Graphviz rendering: one rank per layer, constant edges dashed."""
    lines = ["digraph abp {", "  rankdir=LR;", "  node [shape=circle];"]
    for _lay, verts in sorted(g.by_layer().items()):
        lines.append("  { rank=same;")
        for vid in verts:
            lines.append(f'    "{vid}";')
        lines.append("  }")
    for (u, v) in sorted(g.edges):
        lab = g.edges[(u, v)]
        text = lab.to_polynomial(g.ambient_n).text()
        style = ", style=dashed" if lab.is_constant() else ""
        lines.append(f'  "{u}" -> "{v}" [label="{text}"{style}];')
    lines.append("}")
    return "\n".join(lines) + "\n"
