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
lists of tail positions and slots with each vertex's in-edge count.  A
head whose in-edges begin with all of an earlier head's reads that head's
value instead, through a copy slot of factor 1, so each of the gradient
program's running sums is swept once.  The two lists share the int objects
of the vertex index and the slot table, so a sweep boxes no int per edge,
as it would reading an ``array('i')``, for about 9 bytes more per edge.
The plan is built on the first sweep and kept on the graph until one of its
writers changes it, so evaluating one graph at K matrices builds it once.
One plain loop sweeps every ring on Python integers, numbers or raw
polynomials (summed in one call of ``poly``'s raw-coefficient kernel per
vertex).  Over ``rat`` the labels are scaled to integers by one lcm G of
their denominators, and the plan holds each vertex's depth e and each
in-edge's slot as a (label, shift) pair: a vertex holds its value times
G**e, an edge's factor is its scaled label times G**shift, and only the
requested outputs become ``Fraction``s, once each.  Elsewhere every depth
and shift is 0.
"""

from __future__ import annotations

import heapq
import json
from collections import Counter
from fractions import Fraction
from itertools import accumulate, chain, groupby, islice, repeat
from json.encoder import encode_basestring_ascii as _quote
from math import gcd, lcm
from operator import mul
from typing import Dict, FrozenSet, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .poly import (_ONE, Polynomial, PolyMatrix, Raw, _boxed, _held, _prime, _sum_products, flatten,
                   monomial_code, monomial_indices, unflatten)
from .rings import (
    MOD,
    RAT,
    AbpcError,
    RingDescriptor,
    RingElement,
    Value,
    descriptor_from_spec,
    descriptor_to_spec,
    element_from_str,
    element_to_str,
    int_embed,
)

# a live term costs about 115 bytes (140 over rat), so the held values stay near half a GiB
EXPANSION_TERM_BUDGET = 4_000_000


class GraphError(AbpcError):
    pass


class AbpGraph:
    """A branching program; mutated only during its build phase.

    Edges go in through ``add_edges``, which takes ``(u, v, label)``
    triples in order and checks each distinct label object once per call;
    ``add_edge`` inserts one.  Only its methods and the JSON reader
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

    def __getstate__(self):
        # the plan holds monomial codes, which are private to this process
        return None, {**{name: getattr(self, name) for name in self.__slots__}, "_plan": None}

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
        """Insert one edge: ``add_edges(((u, v, label),))``."""
        self.add_edges(((u, v, label),))

    def add_edges(self, triples: Iterable[Tuple[str, str, Polynomial]]) -> None:
        """Insert the edges ``(u, v, label)`` in order; an edge parallel to
        one already there is merged by adding the labels, and an edge whose
        label is or sums to zero is dropped.

        A label is a polynomial of degree at most 1 over the graph's ring
        and ambient size.  Nothing mutates a label, so one object may label
        many edges, and each call checks ring, ambient size and degree once
        per distinct label object, at the first edge that carries it; the
        endpoints are checked per edge.  The first failed check raises, and
        the edges before it stay inserted.
        """
        layer, edges, ring, n = self.layer, self.edges, self.ring, self.ambient_n
        # id -> label; holding each label keeps its id from being reused in this call
        checked: Dict[int, Polynomial] = {}
        self._plan = None
        for u, v, label in triples:
            if u not in layer or v not in layer:
                raise GraphError("edge endpoint is not a vertex")
            if u == v:
                raise GraphError("self-loops are not allowed")
            if id(label) not in checked:
                if label.ring is not ring and label.ring != ring:
                    raise GraphError(f"edge {u}->{v} has a label from another ring")
                if label.ambient_n != n:
                    raise GraphError(f"edge {u}->{v} has a label of ambient size "
                                     f"{label.ambient_n}, not {n}")
                if label.degree > 1:
                    raise GraphError(f"edge {u}->{v} has a label of degree above 1")
                checked[id(label)] = label
            existing = edges.get((u, v))
            if existing is not None:
                label = existing + label
            if label.raw:
                edges[(u, v)] = label
            elif existing is not None:
                del edges[(u, v)]

    def add_output(self, name: str, vid: str) -> None:
        if vid not in self.layer:
            raise GraphError(f"output {name!r} points at a missing vertex")
        # the plan places every vertex, so a new output leaves it valid
        self.outputs[name] = vid

    # -- derived views ---------------------------------------------------------

    def layer_order(self) -> List[str]:
        """Vertex ids sorted by (layer, id)."""
        return sorted(self.layer, key=lambda vid: (self.layer[vid], vid))

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
    """Return all flavor-invariant violations; empty means the graph is valid.

    One pass over the edges finds the bad ones, the source's in-edges and
    the constant edges; only the problems found are sorted, so edge and
    vertex messages come in (tail, head) and id order.
    """
    layer, source, d = g.layer, g.source, g.num_layers
    if source is None or source not in layer:
        return ["missing source vertex"]
    problems = [f"output {name!r} points at a missing vertex"
                for name, vid in sorted(g.outputs.items()) if vid not in layer]
    bad: List[Tuple[str, str, str]] = []
    one = monomial_code(())
    const_edges: List[Tuple[str, str]] = []
    source_in = False
    aabp, pabp = g.flavor == "aabp", g.flavor == "pabp"
    for (u, v), lab in g.edges.items():
        source_in = source_in or v == source
        du, dv = layer[u], layer[v]
        if aabp:
            if dv <= du:
                bad.append((u, v, f"edge {u}->{v} must increase the topological index"))
        elif dv == du + 1:
            if one in lab.raw:
                bad.append((u, v, f"cross-layer edge {u}->{v} must be homogeneous linear"))
        elif dv == du:
            if pabp:
                bad.append((u, v, "pabp forbids constant edges"))
            elif lab.degree != 0:
                bad.append((u, v, f"intra-layer edge {u}->{v} must be constant"))
            else:
                const_edges.append((u, v))
        else:
            bad.append((u, v, f"edge {u}->{v} skips layers"))
    if source_in:
        problems.append("source has incoming edges")
    if aabp:
        return problems + [msg for _u, _v, msg in sorted(bad)]
    if layer[source] != 0:
        problems.append("source must be in layer 0")
    problems += [f"vertex {vid!r} outside layers 0..{d}"
                 for vid in sorted(vid for vid, lay in layer.items() if not 0 <= lay <= d)]
    problems += [msg for _u, _v, msg in sorted(bad)]
    if g.flavor == "abp":
        settled = set(topological_order(list(layer), const_edges))
        cyclic = {lay for vid, lay in layer.items() if vid not in settled}
        problems += [f"constant-edge cycle in layer {lay}" for lay in sorted(cyclic) if 0 <= lay <= d]
    else:
        counts = Counter(layer.values())
        if counts[0] != 1:
            problems.append("pabp requires exactly one vertex in layer 0")
        if counts[d] != 1:
            problems.append(f"pabp requires exactly one vertex in layer {d}")
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
    order, position k's ``counts[k]`` in-edges next in the tail positions
    and the slots: lists of the int objects that ``index`` and the slot
    table hold, one pointer per entry.  The counts are mostly small ints
    that Python caches, so they cost one pointer per vertex.  Slot s is
    the pair ``pairs[s]`` of a label's index in ``raws`` and a shift, and
    slot ``len(pairs)`` is the copy slot, whose factor is exactly 1: an
    entry through it, always its head's first, reads the whole value of an
    earlier head that is not the source.

    A sweep gives a label with value F / G the factor ``F * G**shift`` and
    starts the source at ``G**depths[source]``; position k then holds its
    value times ``G**depths[k]``.  Over ``rat`` a depth is 0 without
    in-edges, else 1 + the largest depth of its tails, an edge u -> v has
    shift depths[v] - 1 - depths[u], and ``raws`` holds each label's raw
    dict times ``scale``, the lcm C of all the labels' coefficients'
    denominators, on integers.  Elsewhere every depth and shift is 0, slot s is (s, 0),
    ``raws`` holds the labels' own dicts and C is 1.  ``linear`` holds each
    of ``raws`` decoded once, as (flat index, coefficient) pairs with -1
    for the constant term, so an evaluation decodes no monomial."""

    index: Dict[str, int]
    counts: List[int]
    tails: List[int]
    slots: List[int]
    pairs: List[Tuple[int, int]]
    depths: List[int]
    raws: List[Raw]
    linear: List[List[Tuple[int, Value]]]
    scale: int


def _compile(g: AbpGraph) -> _Plan:
    """The graph's sweep plan, built on the first call after the graph
    last changed and kept on it until the next change.

    The order is ``topological_order(g.layer_order(), g.edges)``.  Edges up
    a layer already follow ``layer_order``, so only the others (on a valid
    graph, the intra-layer constant edges) are sorted; when an edge then
    has its tail after its head, as only a graph outside every flavor can,
    the plan is built again from a sort over every edge.  The plan holds at
    most one entry per edge, fewer when a head reads an earlier head's value
    through the copy slot.
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
    not come before its head in it.  Over ``rat`` one more pass in sweep
    order gives each position its depth and each in-edge its (label,
    shift) slot; the plain plan has one slot per label.

    A last pass rewrites each head whose in-edges (tails and slots, in
    order) begin with the whole in-edge list of its owner: the latest
    earlier head, not the source, with the same first in-edge and at least
    two in-edges.
    That prefix becomes one entry from the owner through the copy slot.
    Equal slots give equal shifts, so over ``rat`` the two have one depth;
    the source is no owner, since its value also holds its start."""
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
    if g.ring.kind == RAT:
        depths: List[int] = []
        slot_of_pair: Dict[Tuple[int, int], int] = {}
        for ts, ss in zip(tails, slots):
            e = 1 + max(map(depths.__getitem__, ts)) if ts else 0
            ss[:] = [slot_of_pair.setdefault((s, e - 1 - depths[u]), len(slot_of_pair))
                     for u, s in zip(ts, ss)]
            depths.append(e)
        pairs = list(slot_of_pair)
        scale = lcm(*(a.denominator for lab in labels for a in lab.raw.values()))
        raws = [{m: a.numerator * (scale // a.denominator) for m, a in lab.raw.items()} for lab in labels]
    else:
        depths, pairs, scale = [0] * len(order), [(s, 0) for s in range(len(labels))], 1
        raws = [lab.raw for lab in labels]
    # first in-edge -> the latest owner with it: position and original lists
    copy, source = len(pairs), index[g.source]
    owners: Dict[Tuple[int, int], Tuple[int, List[int], List[int]]] = {}
    for kv, ts, ss in zip(index.values(), tails, slots):
        if len(ts) < 2:
            continue
        first = (ts[0], ss[0])
        owner = owners.get(first)
        if kv != source:
            owners[first] = (kv, ts, ss)
        if owner is not None:
            ko, ots, oss = owner
            m = len(ots)
            if ts[:m] == ots and ss[:m] == oss:
                tails[kv] = [ko, *ts[m:]]
                slots[kv] = [copy, *ss[m:]]
    # a label has degree <= 1, so each of its monomials has at most one index
    linear = [[(ix[0] if ix else -1, c) for ix, c in zip(map(monomial_indices, raw), raw.values())]
              for raw in raws]
    # lists, not int arrays: a sweep then reads each tail and slot without boxing an int
    return _Plan(index, list(map(len, tails)), list(chain.from_iterable(tails)),
                 list(chain.from_iterable(slots)), pairs, depths, raws, linear, scale)


def _powers(plan: _Plan, scale: int) -> List[int]:
    """``scale**e`` for every e up to the plan's largest depth."""
    return list(accumulate(repeat(scale, max(plan.depths, default=0)), mul, initial=1))


def _sweep(plan: _Plan, source: int, start: int, factors: List[int], modulus: int) -> List[int]:
    """Every position's integer value by one forward sweep over the plan:
    the source starts at ``start``, each in-edge adds its tail's value
    times ``factors[slot]``, and a value is reduced mod ``modulus`` when
    that is nonzero."""
    values: List[int] = []
    edges = zip(plan.tails, plan.slots)
    for k, c in enumerate(plan.counts):
        acc = start if k == source else 0
        for u, s in islice(edges, c):
            acc += values[u] * factors[s]
        values.append(acc % modulus if modulus else acc)
    return values


def _rational_factors(plan: _Plan, flat: List[Fraction]) -> Tuple[List[int], int]:
    """Integers F and one scale G with each label's value at ``flat`` equal
    to F / G, where G is the lcm of the values' denominators.

    Everything is computed on integers.  With D the lcm of the entries'
    denominators, each of the plan's integer label dicts (a label times C)
    at the entries times D is the label's value times C * D; the common
    factor of that scale and those integers is divided out at the end.
    """
    d = lcm(*(x.denominator for x in flat))
    entries = [x.numerator * (d // x.denominator) for x in flat]
    entries.append(d)  # at index -1, the constant term's
    factors = [sum(a * entries[v] for v, a in terms) for terms in plan.linear]
    common = gcd(plan.scale * d, *factors)
    return [f // common for f in factors], plan.scale * d // common


def _evaluate(g: AbpGraph, entries: Sequence[Sequence[RingElement]],
              names: Iterable[str]) -> Dict[str, RingElement]:
    """The named outputs at a concrete matrix from a single forward sweep
    on integers; only those outputs are boxed as ring elements.

    Over ``rat`` every label value is F / G with one lcm G, and an output
    at depth e with integer W is boxed once as ``Fraction(W, G**e)``.
    """
    n, ring = g.ambient_n, g.ring
    if len(entries) != n or any(len(row) != n for row in entries):
        raise GraphError("matrix dimension mismatch")
    if any(e.descriptor is not ring and e.descriptor != ring for row in entries for e in row):
        raise GraphError("matrix entries from a different ring")
    flat = [e.value for row in entries for e in row]
    plan = _compile(g)
    if ring.kind == RAT:
        label_values, scale = _rational_factors(plan, flat)
        powers = _powers(plan, scale)
        factors = [label_values[label] * powers[shift] for label, shift in plan.pairs]
    else:  # every slot is (label, 0) and every depth 0
        flat.append(1)  # at index -1, the constant term's
        factors = [sum(c * flat[v] for v, c in terms) for terms in plan.linear]
        if ring.kind == MOD:
            factors = [f % ring.modulus for f in factors]
        powers = [1]
    factors.append(1)  # the copy slot's
    source = plan.index[g.source]
    values = _sweep(plan, source, powers[plan.depths[source]], factors,
                    ring.modulus if ring.kind == MOD else 0)
    out = {}
    for name in names:
        k = plan.index[g.outputs[name]]
        out[name] = RingElement(ring, Fraction(values[k], powers[plan.depths[k]])
                                if ring.kind == RAT else values[k])
    return out


def evaluate_all(g: AbpGraph, entries: Sequence[Sequence[RingElement]]) -> Dict[str, RingElement]:
    """All named outputs at a concrete matrix from a single forward sweep."""
    return _evaluate(g, entries, sorted(g.outputs))


def evaluate(g: AbpGraph, entries: Sequence[Sequence[RingElement]], at: Optional[str] = None) -> RingElement:
    """Evaluate the polynomial at a concrete matrix via a layer sweep."""
    name, _target = resolve_output(g, at)
    return _evaluate(g, entries, (name,))[name]


def _release_schedule(plan: _Plan, kept: FrozenSet[int]) -> List[List[int]]:
    """For each position k, the positions whose values no sweep step needs
    once k's is computed: every position outside ``kept`` once, at its
    last reader, or at itself when nothing reads it."""
    heads = chain.from_iterable(map(repeat, range(len(plan.counts)), plan.counts))
    last = dict(zip(plan.tails, heads))  # in-edges come in head order, so the last reader wins
    schedule: List[List[int]] = [[] for _ in plan.counts]
    for u in range(len(plan.counts)):
        if u not in kept:
            schedule[last.get(u, u)].append(u)
    return schedule


def _expand(g: AbpGraph, names: Sequence[str]) -> Dict[str, Polynomial]:
    """The named outputs from a single forward sweep on raw polynomials
    over ``_compile``'s plan; each vertex sums its in-edge products in one
    call of the raw kernel.  Each slot's factor is its label's raw dict in
    the plan times C**shift, so over ``rat`` the sweep runs on integers and
    only the outputs' non-integral coefficients become ``Fraction``s.  A
    value that is not named drops right after its last reader; the terms
    of the values held are counted as they are made and dropped."""
    ring, n = g.ring, g.ambient_n
    plan = _compile(g)
    powers = _powers(plan, plan.scale)
    factors = [plan.raws[label] if powers[shift] == 1 else
               {m: c * powers[shift] for m, c in plan.raws[label].items()} for label, shift in plan.pairs]
    factors.append(_ONE)  # the copy slot's
    kernel_ring = RingDescriptor.integers() if ring.kind == RAT else ring
    source = plan.index[g.source]
    released = _release_schedule(plan, frozenset(plan.index[g.outputs[name]] for name in names))
    values: List[Optional[Raw]] = []
    live = 0
    edges = zip(plan.tails, plan.slots)
    for k, c in enumerate(plan.counts):
        pairs = [(values[u], factors[s]) for u, s in islice(edges, c)]
        if k == source:
            pairs.append(({monomial_code(()): powers[plan.depths[k]]}, _ONE))
        values.append(_sum_products(kernel_ring, n, pairs).raw)
        live += len(values[k])
        if live > EXPANSION_TERM_BUDGET:
            raise GraphError(f"symbolic expansion guard exceeded (over {EXPANSION_TERM_BUDGET:,} live terms)")
        for u in released[k]:
            live -= len(values[u])
            values[u] = None
    out = {}
    for name in names:
        k = plan.index[g.outputs[name]]
        raw = values[k]
        if ring.kind == RAT:
            den, raw = powers[plan.depths[k]], {}
            for m, c in values[k].items():
                q, r = divmod(c, den)
                raw[m] = Fraction(c, den) if r else q
        out[name] = Polynomial._of(ring, n, raw)
    return out


def expand_all(g: AbpGraph) -> Dict[str, Polynomial]:
    """All named outputs as exact polynomials from one sweep.  A sweep
    that holds more than ``EXPANSION_TERM_BUDGET`` live terms at once
    raises ``GraphError``: the guard is the work, not the ambient size."""
    return _expand(g, sorted(g.outputs))


def expand_symbolic(g: AbpGraph, at: Optional[str] = None) -> Polynomial:
    """The exact polynomial computed at the named vertex; no other output
    is kept, so only this one counts against the budget at the end."""
    name, _target = resolve_output(g, at)
    return _expand(g, (name,))[name]


def sub_abp(g: AbpGraph, at: Optional[str] = None) -> AbpGraph:
    """The sub-program of all edges on all source-to-output paths: those
    whose tail the source reaches and whose head reaches the output."""
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
    sub.add_edges((u, v, g.edges[(u, v)]) for (u, v) in sorted(g.edges) if u in forward and v in backward)
    sub.add_output(name, target)
    return sub


# -- constant-edge elimination -------------------------------------------------


def eliminate_constant_edges(g: AbpGraph, at: Optional[str] = None) -> AbpGraph:
    """A fresh ``pabp`` graph without constant edges that computes the same
    polynomial at the output of ``sub_abp(g, at)``, with no more vertices
    in any layer.  A layer with constant-edge matrix C maps its cross-edge
    inflows through (I - C)^-1 = sum_k C^k, whose entry ``down[v][w]``
    sums the label products over the constant paths v ~> w (1 for the
    empty one).  So a cross edge u -> v becomes the edges u -> w, its label
    times ``down[v][w]``; a tail u in layer 0 becomes the source, the label
    also times ``down[source][u]``.  Layer 0 keeps only the source and the
    top layer only the output."""
    if g.flavor == "aabp":
        raise GraphError("eliminate_constant_edges expects an abp- or pabp-flavor graph")
    require_valid(g)
    name, target = resolve_output(g, at)
    if g.layer[target] < 1:
        raise GraphError("elimination needs an output of degree at least 1")
    a = sub_abp(g, name)
    layer, source, d = a.layer, a.source, a.num_layers
    const = [(u, v) for (u, v) in a.edges if layer[u] == layer[v]]
    pos = {v: k for k, v in enumerate(topological_order(a.layer_order(), const))}
    one = int_embed(a.ring, 1)
    down = {v: {v: one} for v in layer}
    # tails in reverse topological order, so down[w] is complete when read
    for u, w in sorted(const, key=lambda e: pos[e[0]], reverse=True):
        c, row = a.edges[(u, w)].constant_term(), down[u]
        for x, b in down[w].items():
            row[x] = row[x] + c * b if x in row else c * b
    p = AbpGraph("pabp", a.ring, a.ambient_n, d)
    for vid, lay in layer.items():
        if 0 < lay < d or vid in (source, target):
            p.add_vertex(vid, lay)
    p.set_source(source)

    def scaled(lab: Polynomial, f: RingElement) -> Polynomial:
        return lab if f.is_one() else lab.scale(f)

    def rerouted() -> Iterator[Tuple[str, str, Polynomial]]:
        for (u, v), lab in a.edges.items():
            if layer[u] < layer[v]:
                if layer[u] == 0:
                    u, lab = source, scaled(lab, down[source][u])
                yield from ((u, w, scaled(lab, f)) for w, f in down[v].items() if w in p.layer)

    p.add_edges(rerouted())
    p.add_output(name, target)
    return p


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

    def edges() -> Iterator[Tuple[str, str, Polynomial]]:
        for (u, v) in sorted(g.edges):
            lab = g.edges[(u, v)]
            linear = lab.homogeneous_component(1)
            const = lab.homogeneous_component(0)
            targets = names[v]
            for i, tail in names[u].items():
                if not linear.is_zero() and (i + 1) in targets:
                    yield tail, targets[i + 1], linear
                if not const.is_zero() and i in targets:
                    yield tail, targets[i], const

    out.add_edges(edges())
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
    out.add_edges((names[tag][u], names[tag][v], part.edges[(u, v)].promote(ambient))
                  for tag, part, _shift in parts for (u, v) in sorted(part.edges))
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

    Every string is escaped to ASCII as ``json.dumps`` escapes it.  The file
    is one join over each vertex id quoted once and each distinct label object
    rendered once, however many edges it labels.
    """
    n, ring, edges = g.ambient_n, g.ring, g.edges
    quoted = {vid: _quote(vid) for vid in g.layer}
    # the text of a label's edge before its tail id and between its ids
    parts: Dict[int, Tuple[str, str]] = {}
    out = [f'{{\n  "d": {g.num_layers},\n  "edges": [']
    sep = "\n"
    for key in sorted(edges):
        lab = edges[key]
        part = parts.get(id(lab))
        if part is None:
            terms = []
            # a label's monomials are () and (flat,); flat order is (i, j) order
            for mono, c in sorted(zip(map(monomial_indices, lab.raw), lab.raw.values())):
                if mono:
                    i, j = unflatten(mono[0], n)
                    coeff = _quote(element_to_str(_boxed(ring, c)))
                    terms.append(f'        {{\n          "coeff": {coeff},\n'
                                 f'          "i": {i},\n          "j": {j}\n        }}')
            const = _quote(element_to_str(lab.constant_term()))
            part = parts[id(lab)] = (f'    {{\n      "const": {const},\n      "from": ',
                                     f',\n      "linear": {_block(terms, "[]", "      ")},'
                                     f'\n      "to": ')
        out += (sep, part[0], quoted[key[0]], part[1], quoted[key[1]])
        sep = "\n    },\n"
    verts = [f'    {{\n      "id": {quoted[vid]},\n      "layer": {g.layer[vid]}\n    }}'
             for vid in g.layer_order()]
    outputs = [f"    {_quote(name)}: {quoted[vid]}" for name, vid in sorted(g.outputs.items())]
    source = "null" if g.source is None else quoted[g.source]
    out.append("\n    }\n  ]" if edges else "]")
    out.append(f',\n  "flavor": {_quote(g.flavor)},\n  "n": {n},\n'
               f'  "outputs": {_block(outputs, "{}", "  ")},\n'
               f'  "ring": {_quote(descriptor_to_spec(ring))},\n  "source": {source},\n'
               f'  "vertices": {_block(verts, "[]", "  ")}\n}}\n')
    return "".join(out)


def graph_to_json_dict(g: AbpGraph) -> dict:
    """The graph as JSON data: ``graph_to_json_text`` parsed, so every edge
    has its own ``linear`` list."""
    return json.loads(graph_to_json_text(g))


def _field(obj: dict, key: str, kind: type):
    """``obj[key]``, which must be exactly a ``str``, an ``int`` (so not a
    bool) or a ``dict``."""
    value = obj[key]
    if type(value) is not kind:
        what = {str: "a string", int: "an integer", dict: "an object"}[kind]
        raise GraphError(f"malformed graph JSON: field {key!r} must be {what}, got {value!r}")
    return value


def _index_field(obj: dict, key: str, n: int) -> int:
    value = _field(obj, key, int)
    if not 1 <= value <= n:
        raise GraphError(f"malformed graph JSON: field {key!r} must be in 1..{n}, got {value}")
    return value


def graph_from_json_dict(data: dict) -> AbpGraph:
    """The graph that JSON data describes.  An edge whose ends name vertices
    and whose label key is cached was checked in full where the key first
    appeared; any other is read by ``_field`` and ``_index_field`` in field order.
    The parse fixes each label's ring, ambient size and degree <= 1, so an
    edge with a nonzero label on a new pair of distinct vertices is stored
    as it is; any other goes through ``add_edge``, which merges or raises."""
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
        # nonzero labels by key (const, i, j, coeff, ...), and coefficient texts' raw values
        labels: Dict[tuple, Polynomial] = {}
        values: Dict[str, Value] = {}
        edges = g.edges
        for e in data["edges"]:
            try:
                u, v, key = ids[e["from"]], ids[e["to"]], (e["const"],)
                for t in e["linear"]:
                    i, j = t["i"], t["j"]
                    if type(i) is not int or type(j) is not int:  # True == 1 and 1.0 == 1 hash alike
                        raise TypeError
                    key += (i, j, t["coeff"])
                label = labels[key]
            except (KeyError, TypeError):
                label = None
            if label is None:
                u, v, key = _field(e, "from", str), _field(e, "to", str), (_field(e, "const", str),)
                for t in e["linear"]:
                    key += (_index_field(t, "i", n), _index_field(t, "j", n), _field(t, "coeff", str))
                raw = {}
                for k in range(0, len(key), 3):
                    if key[k] not in values:
                        values[key[k]] = _held(element_from_str(ring, key[k]).value)
                    raw[_prime(flatten(key[k - 2], key[k - 1], n)) if k else 1] = values[key[k]]
                if len(raw) != len(key) // 3 + 1:
                    raise GraphError(f"malformed graph JSON: edge {u}->{v} repeats a linear term")
                label = Polynomial._of(ring, n, {m: c for m, c in raw.items() if c})
                if not label.raw or u not in ids or v not in ids:
                    g.add_edge(ids.get(u, u), ids.get(v, v), label)
                    continue
                labels[key] = label
                u, v = ids[u], ids[v]
            if u != v and (u, v) not in edges:
                edges[(u, v)] = label
            else:
                g.add_edge(u, v, label)
        outputs = _field(data, "outputs", dict)
        for name in outputs:
            g.add_output(name, _field(outputs, name, str))
    except (LookupError, TypeError) as exc:  # LookupError: KeyError, or IndexError from a list
        raise GraphError(f"malformed graph JSON: {exc}") from exc
    return g


def graph_to_dot(g: AbpGraph) -> str:
    """Graphviz rendering: one rank per layer, constant edges dashed; one join
    over each vertex id quoted once and each distinct label's text rendered once."""
    # with \ and " escaped, no id ends its DOT string early
    quoted = {vid: '"' + vid.replace("\\", "\\\\").replace('"', '\\"') + '"' for vid in g.layer}
    out = ["digraph abp {\n  rankdir=LR;\n  node [shape=circle];\n"]
    for _lay, verts in groupby(g.layer_order(), key=g.layer.__getitem__):
        out += ["  { rank=same;\n", *(f"    {quoted[vid]};\n" for vid in verts), "  }\n"]
    ends: Dict[int, str] = {}
    for key in sorted(g.edges):
        lab = g.edges[key]
        end = ends.get(id(lab))
        if end is None:
            style = ", style=dashed" if lab.degree == 0 else ""
            end = ends[id(lab)] = f' [label="{lab.text()}"{style}];\n'
        out += ("  ", quoted[key[0]], " -> ", quoted[key[1]], end)
    out.append("}\n")
    return "".join(out)
