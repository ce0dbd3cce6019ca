"""Layered algebraic branching programs and their exactness-preserving rewrites.

Three flavors share one data structure.  ``abp``: vertices carry layers
0..d, cross-layer edges carry homogeneous linear labels, intra-layer edges
carry ring constants and may not form directed cycles.  ``pabp``: no
constant edges at all, exactly one vertex in layer 0 and one in layer d.
``aabp``: arbitrary DAG with affine (degree <= 1) labels; the layer field
stores a topological index and paths may have different lengths.

A graph computes, at every named output vertex, the sum over all
source-to-vertex paths of the product of the edge labels.  Evaluation and
symbolic expansion run as one forward sweep (never path enumeration), the
matrix-product semantics of the layered model.  Both sweep one plan: the
vertices in topological order, found by sorting only the edges that do not
go up a layer, and all in-edges grouped by head in that order as two flat
``array('i')``s of tail positions and label slots with an offsets array.
The plan is built on the first sweep and kept on the graph until one of
its writers changes it, so evaluating one graph at K matrices builds it
once.  Numeric evaluation sweeps on Python integers: over ``rat`` the
label values are computed on integers scaled by the lcm G of their
denominators and a vertex holds its value times a power of G, so only the
requested outputs become ``Fraction``s, once each.  Symbolic expansion
sums each vertex's in-edge products in one call of ``poly``'s
raw-coefficient kernel, and over ``rat`` also sweeps on integers: the
labels are scaled by the lcm G of their coefficients' denominators, a
vertex holds its polynomial times a power of G, and only the outputs'
coefficients become ``Fraction``s.
"""

from __future__ import annotations

import heapq
import json
import os
from array import array
from collections import Counter
from fractions import Fraction
from itertools import accumulate, groupby, islice, pairwise
from json.encoder import encode_basestring_ascii as _quote
from math import gcd, lcm
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .poly import _ONE, Polynomial, PolyMatrix, Raw, _raw_value, _sum_products, flatten, unflatten
from .rings import (
    MOD,
    RAT,
    AbpcError,
    RingDescriptor,
    RingElement,
    descriptor_from_spec,
    descriptor_to_spec,
    element_from_str,
    element_to_str,
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


class AbpGraph:
    """A branching program; mutated only during its build phase.

    Only its methods, ``constant_edge_elimination_steps`` and the JSON reader
    ``graph_from_json_dict`` write ``layer``, ``edges`` and ``source``: each
    such write drops the sweep plan kept in ``_plan``, which a direct write
    would leave stale, or (the reader's) leaves it ``None``.
    """

    __slots__ = ("flavor", "ring", "ambient_n", "num_layers", "layer", "edges",
                 "source", "outputs", "_plan")

    def __init__(self, flavor: str, ring: RingDescriptor, ambient_n: int, num_layers: int):
        if flavor not in ("abp", "pabp", "aabp"):
            raise GraphError(f"unknown flavor {flavor!r}")
        self.flavor = flavor
        self.ring = ring
        self.ambient_n = ambient_n
        self.num_layers = num_layers
        self.layer: Dict[str, int] = {}
        self.edges: Dict[Tuple[str, str], Polynomial] = {}
        self.source: Optional[str] = None
        self.outputs: Dict[str, str] = {}
        self._plan: Optional[_Plan] = None

    # -- build phase ---------------------------------------------------------

    def add_vertex(self, vid: str, layer: int) -> str:
        if vid in self.layer:
            if self.layer[vid] != layer:
                raise GraphError(f"vertex {vid!r} re-added in a different layer")
            return vid
        self.layer[vid] = layer
        self._plan = None
        return vid

    def set_source(self, vid: str) -> None:
        if vid not in self.layer:
            raise GraphError(f"source {vid!r} is not a vertex")
        self.source = vid
        self._plan = None

    def add_edge(self, u: str, v: str, label: Polynomial) -> None:
        """Insert an edge; parallel edges are merged by adding their labels.

        A label is a polynomial of degree at most 1 over the graph's ring
        and ambient size.  Nothing mutates a label, so one object may label
        many edges.
        """
        if u not in self.layer or v not in self.layer:
            raise GraphError("edge endpoint is not a vertex")
        if u == v:
            raise GraphError("self-loops are not allowed")
        if label.ring is not self.ring and label.ring != self.ring:
            raise GraphError(f"edge {u}->{v} has a label from another ring")
        if label.ambient_n != self.ambient_n:
            raise GraphError(f"edge {u}->{v} has a label of ambient size "
                             f"{label.ambient_n}, not {self.ambient_n}")
        if label.degree > 1:
            raise GraphError(f"edge {u}->{v} has a label of degree above 1")
        existing = self.edges.get((u, v))
        merged = label if existing is None else existing + label
        if merged.is_zero():
            self.edges.pop((u, v), None)
        else:
            self.edges[(u, v)] = merged
        self._plan = None

    def add_output(self, name: str, vid: str) -> None:
        if vid not in self.layer:
            raise GraphError(f"output {name!r} points at a missing vertex")
        # the plan places every vertex, so a new output leaves it valid
        self.outputs[name] = vid

    # -- derived views ---------------------------------------------------------

    def layer_order(self) -> List[str]:
        """Vertex ids sorted by (layer, id)."""
        return sorted(self.layer, key=lambda vid: (self.layer[vid], vid))

    def width(self) -> int:
        """Maximum vertex count over the intermediate layers 1..d-1."""
        counts = Counter(self.layer.values())
        return max((counts[l] for l in range(1, self.num_layers)), default=0)

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
                if () in lab.raw:
                    problems.append(f"cross-layer edge {u}->{v} must be homogeneous linear")
            elif dv == du:
                if g.flavor == "pabp":
                    problems.append("pabp forbids constant edges")
                elif lab.degree != 0:
                    problems.append(f"intra-layer edge {u}->{v} must be constant")
            else:
                problems.append(f"edge {u}->{v} skips layers")
        if g.flavor == "abp":
            const_edges = [(u, v) for (u, v), lab in g.edges.items()
                           if g.layer[u] == g.layer[v] and lab.degree == 0]
            settled = set(topological_order(list(g.layer), const_edges))
            cyclic = {lay for vid, lay in g.layer.items() if vid not in settled}
            for lay in range(0, g.num_layers + 1):
                if lay in cyclic:
                    problems.append(f"constant-edge cycle in layer {lay}")
        if g.flavor == "pabp":
            counts = Counter(g.layer.values())
            if counts[0] != 1:
                problems.append("pabp requires exactly one vertex in layer 0")
            if counts[g.num_layers] != 1:
                problems.append(f"pabp requires exactly one vertex in layer {g.num_layers}")
    else:  # aabp
        for (u, v) in sorted(g.edges):
            if g.layer[v] <= g.layer[u]:
                problems.append(f"edge {u}->{v} must increase the topological index")
    return problems


def require_valid(g: AbpGraph) -> None:
    """Raise one ``GraphError`` naming every violation ``validate`` finds."""
    problems = validate(g)
    if problems:
        raise GraphError("invalid input graph: " + "; ".join(problems))


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


class _Plan(NamedTuple):
    """The sweep plan that ``_compile`` builds: each vertex's position in
    sweep order, and the in-edges of all positions grouped by head in that
    order, those of position k at ``offsets[k]:offsets[k + 1]`` of the
    tail positions and the label slots, one slot per distinct label."""

    index: Dict[str, int]
    offsets: array
    tails: array
    slots: array
    labels: List[Polynomial]


def _compile(g: AbpGraph) -> _Plan:
    """The graph's sweep plan, built on the first call after the graph
    last changed and kept on it until the next change.

    The order is ``topological_order(g.layer_order(), g.edges)``.  Edges up
    a layer already follow ``layer_order``, so only the others (on a valid
    graph, the intra-layer constant edges) are sorted; when an edge then
    has its tail after its head, as only a graph outside every flavor can,
    the plan is built again from a sort over every edge.
    """
    if g.source is None:
        raise GraphError("missing source vertex")
    if g._plan is None:
        verts, layer = g.layer_order(), g.layer
        plan = _plan(g, topological_order(verts, [(u, v) for (u, v) in g.edges if layer[v] <= layer[u]]))
        if plan is None:
            plan = _plan(g, topological_order(verts, g.edges))
        g._plan = plan
    return g._plan


def _plan(g: AbpGraph, order: List[str]) -> Optional[_Plan]:
    """``_compile``'s plan over ``order``, or None if some edge's tail does
    not come before its head in it."""
    if len(order) != len(g.layer):
        raise GraphError("constant-edge cycle")
    index = {v: k for k, v in enumerate(order)}
    tails: List[List[int]] = [[] for _ in order]
    slots: List[List[int]] = [[] for _ in order]
    slot_of: Dict[int, int] = {}
    labels: List[Polynomial] = []
    for (u, v), lab in g.edges.items():
        ku, kv = index[u], index[v]
        if ku >= kv:
            return None
        s = slot_of.get(id(lab))
        if s is None:
            s = slot_of[id(lab)] = len(labels)
            labels.append(lab)
        tails[kv].append(ku)
        slots[kv].append(s)
    # the plan lives as long as the graph, so it keeps flat int arrays, not lists
    flat_tails, flat_slots = array("i"), array("i")
    for ts, ss in zip(tails, slots):
        flat_tails.fromlist(ts)
        flat_slots.fromlist(ss)
    return _Plan(index, array("i", accumulate(map(len, tails), initial=0)), flat_tails, flat_slots, labels)


def _sweep(plan: _Plan, source: int, factors: List[int], scale: int,
           modulus: int) -> Tuple[List[int], List[int]]:
    """Every vertex's value on integers, by one forward sweep over the plan.

    A label's value is ``factors[slot] / scale``.  Vertex v gets an integer
    ``W_v`` and an exponent ``e_v`` with value ``W_v / scale**e_v``: e = 0
    without in-edges, else e_v = 1 + max e_u over its tails, and each term
    ``W_u * F`` is scaled by ``scale**(e_v - 1 - e_u)``.  With scale 1 (``int``, ``mod:m``, and
    rationals whose label values are integers) every exponent is 0 and the
    plain loop runs, reducing mod ``modulus`` when it is nonzero.
    """
    tails, slots = plan.tails, plan.slots
    values: List[int] = []
    if scale == 1:
        edges = zip(tails, slots)
        for k, (lo, hi) in enumerate(pairwise(plan.offsets)):
            acc = 1 if k == source else 0
            for u, s in islice(edges, hi - lo):
                acc += values[u] * factors[s]
            values.append(acc % modulus if modulus else acc)
        return values, [0] * len(values)
    exps: List[int] = []
    powers = [1]
    for k, (lo, hi) in enumerate(pairwise(plan.offsets)):
        ts = tails[lo:hi]
        e = 1 + max(map(exps.__getitem__, ts)) if ts else 0
        if e == len(powers):
            powers.append(powers[-1] * scale)
        acc = powers[e] if k == source else 0
        for u, s in zip(ts, slots[lo:hi]):
            acc += values[u] * factors[s] * powers[e - 1 - exps[u]]
        values.append(acc)
        exps.append(e)
    return values, exps


def _integer_labels(labels: List[Polynomial]) -> Tuple[List[Raw], int]:
    """Each rational label's raw dict times G, on integers, and G: the lcm
    of the denominators of all their coefficients."""
    g = lcm(*(a.denominator for lab in labels for a in lab.raw.values()))
    return [{m: a.numerator * (g // a.denominator) for m, a in lab.raw.items()}
            for lab in labels], g


def _rational_factors(labels: List[Polynomial], flat: List[Fraction]) -> Tuple[List[int], int]:
    """Integers F and one scale G with each label's value at ``flat`` equal
    to F / G, where G is the lcm of the values' denominators.

    Everything is computed on integers.  With D the lcm of the entries'
    denominators and C that of the labels' coefficients, a label of degree
    at most 1 times C * D is an integer; the common factor of that scale
    and the scaled values is divided out at the end.
    """
    d = lcm(*(x.denominator for x in flat))
    entries = [x.numerator * (d // x.denominator) for x in flat]
    scaled, c = _integer_labels(labels)
    factors = [sum(a * (entries[m[0]] if m else d) for m, a in raw.items()) for raw in scaled]
    common = gcd(c * d, *factors)
    return [f // common for f in factors], c * d // common


def _evaluate(g: AbpGraph, entries: Sequence[Sequence[RingElement]],
              names: Iterable[str]) -> Dict[str, RingElement]:
    """The named outputs at a concrete matrix from a single forward sweep
    on integers; only those outputs are boxed as ring elements.

    Over ``rat`` every label value is scaled to an integer by the lcm G of
    their denominators, and an output with integer W and exponent e is
    boxed once as ``Fraction(W, G**e)``.
    """
    n, ring = g.ambient_n, g.ring
    if len(entries) != n or any(len(row) != n for row in entries):
        raise GraphError("matrix dimension mismatch")
    if any(e.descriptor != ring for row in entries for e in row):
        raise GraphError("matrix entries from a different ring")
    flat = [e.value for row in entries for e in row]
    plan = _compile(g)
    if ring.kind == RAT:
        factors, scale = _rational_factors(plan.labels, flat)
    else:
        factors, scale = [_raw_value(lab, flat) for lab in plan.labels], 1
    values, exps = _sweep(plan, plan.index[g.source], factors, scale,
                          ring.modulus if ring.kind == MOD else 0)
    out = {}
    for name in names:
        k = plan.index[g.outputs[name]]
        out[name] = RingElement(ring, Fraction(values[k], scale ** exps[k])
                                if ring.kind == RAT else values[k])
    return out


def evaluate_all(g: AbpGraph, entries: Sequence[Sequence[RingElement]]) -> Dict[str, RingElement]:
    """All named outputs at a concrete matrix from a single forward sweep."""
    return _evaluate(g, entries, sorted(g.outputs))


def evaluate(g: AbpGraph, entries: Sequence[Sequence[RingElement]], at: Optional[str] = None) -> RingElement:
    """Evaluate the polynomial at a concrete matrix via a layer sweep."""
    name, _target = resolve_output(g, at)
    return _evaluate(g, entries, (name,))[name]


def expand_all(g: AbpGraph) -> Dict[str, Polynomial]:
    """All named outputs from a single forward sweep on raw polynomials
    over ``_compile``'s plan; each vertex sums its in-edge products in one
    call of the raw kernel.  Over ``rat`` the sweep runs on integers, with
    ``_integer_labels``' scale G and ``_sweep``'s exponents, and only the
    outputs' coefficients become ``Fraction``s; elsewhere G = 1."""
    guard = expansion_guard()
    if g.ambient_n > guard:
        raise GraphError(
            f"symbolic expansion guard exceeded (n={g.ambient_n} > {guard}); "
            "set ABPC_GUARD_N to override"
        )
    ring, n = g.ring, g.ambient_n
    plan = _compile(g)
    source, tails, slots = plan.index[g.source], plan.tails, plan.slots
    if ring.kind == RAT:
        labels, scale = _integer_labels(plan.labels)
        kernel_ring = RingDescriptor.integers()
    else:
        labels, scale, kernel_ring = [lab.raw for lab in plan.labels], 1, ring
    values: List[Raw] = []
    exps: List[int] = []
    powers = [1]
    for k, (lo, hi) in enumerate(pairwise(plan.offsets)):
        ts = tails[lo:hi]
        e = 1 + max(map(exps.__getitem__, ts)) if ts else 0
        if e == len(powers):
            powers.append(powers[-1] * scale)
        pairs = []
        for u, s in zip(ts, slots[lo:hi]):
            p = powers[e - 1 - exps[u]]
            pairs.append((values[u], labels[s] if p == 1 else {m: c * p for m, c in labels[s].items()}))
        if k == source:
            pairs.append(({(): powers[e]}, _ONE))
        values.append(_sum_products(kernel_ring, n, pairs).raw)
        exps.append(e)
    out = {}
    for name, vid in sorted(g.outputs.items()):
        k = plan.index[vid]
        raw = values[k]
        if ring.kind == RAT:
            denominator = scale ** exps[k]
            raw = {m: Fraction(c, denominator) for m, c in raw.items()}
        out[name] = Polynomial._of(ring, n, raw)
    return out


def expand_symbolic(g: AbpGraph, at: Optional[str] = None) -> Polynomial:
    """The exact polynomial computed at the named vertex."""
    name, _target = resolve_output(g, at)
    return expand_all(g)[name]


def sub_abp(g: AbpGraph, at: Optional[str] = None) -> AbpGraph:
    """The sub-program of all edges on all source-to-output paths."""
    name, target = resolve_output(g, at)

    def reach(start: str, arcs: Iterable[Tuple[str, str]]) -> set:
        adj: Dict[str, List[str]] = {}
        for a, b in arcs:
            adj.setdefault(a, []).append(b)
        seen = {start}
        stack = [start]
        while stack:
            for w in adj.get(stack.pop(), ()):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return seen

    forward = reach(g.source, g.edges)
    backward = reach(target, [(v, u) for (u, v) in g.edges])
    kept = (forward & backward) | {g.source, target}
    sub = AbpGraph(g.flavor, g.ring, g.ambient_n, g.layer[target])
    for vid in g.layer_order():
        if vid in kept:
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
    output.  The first is ``sub_abp(g, at)``; every later one is that same
    working graph, edited in place by the steps after it (``g`` is never
    touched).  The heads of constant edges are visited once each in
    topological order, so every tail ``v`` of a removed edge ``v -> w`` has
    no constant in-edges left, and the only new constant edges, ``s -> y``
    for a constant ``w -> y``, point at a head still to come.
    """
    require_valid(g)
    name, target = resolve_output(g, at)
    if g.layer[target] < 1:
        raise GraphError("elimination needs an output of degree at least 1")
    cur = sub_abp(g, name)
    yield cur
    # neighbour sets may keep edges that are gone since; cur.edges decides
    preds: Dict[str, set] = {v: set() for v in cur.layer}
    succs: Dict[str, set] = {v: set() for v in cur.layer}
    for (u, v) in cur.edges:
        preds[v].add(u)
        succs[u].add(v)
    for w in topological_order(cur.layer_order(), [e for e, lab in cur.edges.items() if lab.degree == 0]):
        for v in sorted(preds[w]):
            lab = cur.edges.get((v, w))
            if lab is None or lab.degree != 0:
                continue
            alpha = cur.edges.pop((v, w)).constant_term()
            cur._plan = None
            if v == cur.source:
                # paths s -(alpha)-> w -> y become direct edges s -> y
                rerouted = [(v, y, (w, y)) for y in sorted(succs[w])]
            else:
                # paths x -> v -(alpha)-> w become direct edges x -> w
                rerouted = [(x, w, (x, v)) for x in sorted(preds[v])]
            for x, y, old in rerouted:
                if old in cur.edges:
                    cur.add_edge(x, y, cur.edges[old].scale(alpha))
                    preds[y].add(x)
                    succs[x].add(y)
            yield cur
    dropped = {vid for vid, lay in cur.layer.items()
               if (lay == 0 and vid != cur.source) or (lay == cur.num_layers and vid != target)}
    for vid in dropped:
        del cur.layer[vid]
    cur.edges = {(u, v): lab for (u, v), lab in cur.edges.items()
                 if u not in dropped and v not in dropped}
    cur._plan = None
    cur.flavor = "pabp"
    cur.outputs = {name: target}
    yield cur


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
    require_valid(g)
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

    # each copy's id string, made once and reused by every edge key
    names = {v: {i: f"{v}#{i}" for i in copies(v)} for v in g.layer_order()}
    for v, ids in names.items():
        for i, vid in ids.items():
            out.add_vertex(vid, i)
    out.set_source(names[g.source][0])
    for (u, v) in sorted(g.edges):
        lab = g.edges[(u, v)]
        linear = lab.homogeneous_component(1)
        const = lab.homogeneous_component(0)
        targets = names[v]
        for i, tail in names[u].items():
            if not linear.is_zero() and (i + 1) in targets:
                out.add_edge(tail, targets[i + 1], linear)
            if not const.is_zero() and i in targets:
                out.add_edge(tail, targets[i], const)
    out.add_output(name, names[sink][k])
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
    # each vertex's new id string, made once and reused by every edge key
    names = {tag: {v: glue.get((tag, v), f"{tag}.{v}") for v in part.layer_order()}
             for tag, part, _shift in parts}
    for tag, part, shift in parts:
        for v, vid in names[tag].items():
            out.add_vertex(vid, part.layer[v] + shift)
    out.set_source("s")
    for tag, part, _shift in parts:
        rename = names[tag]
        for (u, v) in sorted(part.edges):
            out.add_edge(rename[u], rename[v], part.edges[(u, v)].promote(ambient))
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
    require_valid(a)
    d = a.num_layers
    if d < 1:
        raise GraphError("degree must be at least 1")
    _name, sink = resolve_output(a)
    inner = [vid for vid in a.layer_order() if vid not in (a.source, sink)]
    index = {a.source: 0, sink: 0}
    for pos, vid in enumerate(inner, start=1):
        index[vid] = pos
    size = len(inner) + 1
    one = Polynomial.from_int(a.ring, a.ambient_n, 1)
    rows = [[Polynomial.zero(a.ring, a.ambient_n) for _ in range(size)] for _ in range(size)]
    for pos in range(1, size):
        rows[pos][pos] = one
    for (u, v) in sorted(a.edges):
        rows[index[u]][index[v]] = rows[index[u]][index[v]] + a.edges[(u, v)]
    if d % 2 == 0 and size >= 2:
        rows[0], rows[1] = rows[1], rows[0]
    return PolyMatrix.from_rows(a.ring, a.ambient_n, rows)


# -- serialization ------------------------------------------------------------------


def _block(items: List[str], brackets: str, indent: str) -> str:
    """A JSON array or object from its rendered items, laid out as
    ``json.dumps(..., indent=2)`` lays it out at ``indent``."""
    if not items:
        return brackets
    return f"{brackets[0]}\n" + ",\n".join(items) + f"\n{indent}{brackets[1]}"


def graph_to_json_text(g: AbpGraph) -> str:
    """The graph's JSON file: the bytes of ``json.dumps`` of its data with
    ``indent=2`` and ``sort_keys=True``, then one newline.

    Every string is escaped to ASCII as ``json.dumps`` escapes it.  Each
    vertex id is quoted once, and each distinct label object is rendered
    once, however many edges it labels.
    """
    n, ring = g.ambient_n, g.ring
    quoted = {vid: _quote(vid) for vid in g.layer}
    # the text of a label's edge before its tail id and between its ids
    parts: Dict[int, Tuple[str, str]] = {}
    edges = []
    for (u, v) in sorted(g.edges):
        lab = g.edges[(u, v)]
        part = parts.get(id(lab))
        if part is None:
            terms = []
            # a label's monomials are () and (flat,); flat order is (i, j) order
            for mono, c in sorted(lab.raw.items()):
                if mono:
                    i, j = unflatten(mono[0], n)
                    coeff = _quote(element_to_str(RingElement(ring, c)))
                    terms.append(f'        {{\n          "coeff": {coeff},\n'
                                 f'          "i": {i},\n          "j": {j}\n        }}')
            const = _quote(element_to_str(lab.constant_term()))
            part = parts[id(lab)] = (f'    {{\n      "const": {const},\n      "from": ',
                                     f',\n      "linear": {_block(terms, "[]", "      ")},'
                                     f'\n      "to": ')
        edges.append(f"{part[0]}{quoted[u]}{part[1]}{quoted[v]}\n    }}")
    verts = [f'    {{\n      "id": {quoted[vid]},\n      "layer": {g.layer[vid]}\n    }}'
             for vid in g.layer_order()]
    outputs = [f"    {_quote(name)}: {quoted[vid]}" for name, vid in sorted(g.outputs.items())]
    source = "null" if g.source is None else quoted[g.source]
    return (f'{{\n  "d": {g.num_layers},\n  "edges": {_block(edges, "[]", "  ")},\n'
            f'  "flavor": {_quote(g.flavor)},\n  "n": {n},\n'
            f'  "outputs": {_block(outputs, "{}", "  ")},\n'
            f'  "ring": {_quote(descriptor_to_spec(ring))},\n  "source": {source},\n'
            f'  "vertices": {_block(verts, "[]", "  ")}\n}}\n')


def graph_to_json_dict(g: AbpGraph) -> dict:
    """The graph as JSON data: ``graph_to_json_text`` parsed, so every edge
    has its own ``linear`` list."""
    return json.loads(graph_to_json_text(g))


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
    """The graph that JSON data describes.  Edge fields are tested inline and,
    only on a failure, read again by ``_field`` and ``_index_field`` in field order."""
    try:
        ring = descriptor_from_spec(_field(data, "ring", str))
        n = _field(data, "n", int)
        g = AbpGraph(data["flavor"], ring, n, _field(data, "d", int))
        # each vertex's one id string, which every edge key then reuses
        ids: Dict[str, str] = {}
        for v in data["vertices"]:
            vid = _field(v, "id", str)
            g.add_vertex(ids.setdefault(vid, vid), _field(v, "layer", int))
        g.set_source(_field(data, "source", str))
        # one label object per key (const, i, j, coeff, i, j, coeff, ...), as the builders share them
        labels: Dict[tuple, Polynomial] = {}
        layer, edges = g.layer, g.edges
        for e in data["edges"]:
            try:
                u, v, key = e["from"], e["to"], (e["const"],)
                ok = type(u) is str and type(v) is str and type(key[0]) is str
                for t in e["linear"]:
                    i, j, c = t["i"], t["j"], t["coeff"]
                    ok = ok and type(i) is type(j) is int and type(c) is str and 0 < i <= n and 0 < j <= n
                    key += (i, j, c)
            except (KeyError, TypeError):
                ok = False
            if not ok:
                u, v, key = _field(e, "from", str), _field(e, "to", str), (_field(e, "const", str),)
                for t in e["linear"]:
                    key += (_index_field(t, "i", n), _index_field(t, "j", n), _field(t, "coeff", str))
            label = labels.get(key)
            if label is None:
                terms = {(): element_from_str(ring, key[0])}
                for k in range(1, len(key), 3):
                    terms[((flatten(key[k], key[k + 1], n), 1),)] = element_from_str(ring, key[k + 2])
                if len(terms) != len(key) // 3 + 1:
                    raise GraphError(f"malformed graph JSON: edge {u}->{v} repeats a linear term")
                label = labels[key] = Polynomial(ring, n, terms)
            u, v = ids.get(u, u), ids.get(v, v)
            # a parsed label fits the graph, so add_edge sees only what it merges, drops or rejects
            if u != v and u in layer and v in layer and (u, v) not in edges and label.raw:
                edges[(u, v)] = label
            else:
                g.add_edge(u, v, label)
        outputs = data["outputs"]
        for name in outputs:
            g.add_output(name, _field(outputs, name, str))
    except (KeyError, TypeError) as exc:
        raise GraphError(f"malformed graph JSON: {exc}") from exc
    return g


def graph_to_dot(g: AbpGraph) -> str:
    """Graphviz rendering: one rank per layer, constant edges dashed."""
    lines = ["digraph abp {", "  rankdir=LR;", "  node [shape=circle];"]
    for _lay, verts in groupby(g.layer_order(), key=g.layer.__getitem__):
        lines.append("  { rank=same;")
        for vid in verts:
            lines.append(f'    "{vid}";')
        lines.append("  }")
    # edges share label objects, so each distinct label is rendered once
    attrs: Dict[int, str] = {}
    for (u, v) in sorted(g.edges):
        lab = g.edges[(u, v)]
        at = attrs.get(id(lab))
        if at is None:
            style = ", style=dashed" if lab.degree == 0 else ""
            at = attrs[id(lab)] = f'label="{lab.text()}"{style}'
        lines.append(f'  "{u}" -> "{v}" [{at}];')
    lines.append("}")
    return "\n".join(lines) + "\n"
