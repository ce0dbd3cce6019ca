"""Seeded random generators and reference builders shared by the test modules."""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from itertools import accumulate, groupby
from typing import Dict, Iterable, List, Optional, Tuple

from abpc.build import ConstructionStats, build_bivariate_abp, build_charzero_abp, build_gradient_abp
from abpc.graph import (AbpGraph, GraphError, _field, _index_field, require_valid, resolve_output, sub_abp,
                        topological_order)
from abpc.oracle import cpc_minor_sum
from abpc.poly import Polynomial, PolyMatrix, flatten, monomial_indices, unflatten
from abpc.rings import (
    RingDescriptor,
    RingElement,
    descriptor_from_spec,
    descriptor_to_spec,
    element_from_str,
    element_to_str,
    int_embed,
)

Z = RingDescriptor.integers()
Z4 = RingDescriptor.modular(4)
Z7 = RingDescriptor.modular(7)
Q = RingDescriptor.rationals()

RING_FAMILIES = {"int": Z, "mod4": Z4, "mod7": Z7, "rat": Q}

# each construction by name, as a function of (n, d, ring) to its graph
BUILDERS = {"charzero": build_charzero_abp, "bivariate": build_bivariate_abp,
            "gradient": lambda n, d, ring: build_gradient_abp(n, d, ring)[0]}


def reference_add_edge(g: AbpGraph, u: str, v: str, label: Polynomial) -> None:
    """Insert one edge with every check made on it: the reference for
    ``AbpGraph.add_edges``, which checks each label object once per call."""
    if u not in g.layer or v not in g.layer:
        raise GraphError("edge endpoint is not a vertex")
    if u == v:
        raise GraphError("self-loops are not allowed")
    if label.ring is not g.ring and label.ring != g.ring:
        raise GraphError(f"edge {u}->{v} has a label from another ring")
    if label.ambient_n != g.ambient_n:
        raise GraphError(f"edge {u}->{v} has a label of ambient size "
                         f"{label.ambient_n}, not {g.ambient_n}")
    if label.degree > 1:
        raise GraphError(f"edge {u}->{v} has a label of degree above 1")
    existing = g.edges.get((u, v))
    merged = label if existing is None else existing + label
    if merged.is_zero():
        g.edges.pop((u, v), None)
    else:
        g.edges[(u, v)] = merged
    g._plan = None


def tuple_raw(raw: dict) -> dict:
    """A raw dict with each monomial code written as the sorted tuple of its
    flat indices with repeats (x[1,1]^2 x[1,2] at n = 2 is (0, 0, 1)): the
    tuple form in which the tests spell raw keys."""
    return {monomial_indices(m): c for m, c in raw.items()}


def reference_sum_products(ring: RingDescriptor, pairs) -> dict:
    """The sum of a*b over (a, b) pairs of raw dicts in tuple form, as a raw
    dict in tuple form: the product of two monomials is their sorted
    concatenation, and every rational coefficient is lifted to a
    ``Fraction`` first, so that each rational sum and product runs in
    ``Fraction``.  The reference for ``poly._sum_products``, which
    multiplies monomial codes and holds integral rational coefficients as
    ints."""
    acc: dict = {}
    get = acc.get
    for a, b in pairs:
        if ring.kind == "rat":
            a = {m: Fraction(c) for m, c in a.items()}
            b = {m: Fraction(c) for m, c in b.items()}
        if len(a) < len(b):  # the inner loop runs over the larger factor
            a, b = b, a
        for mb, cb in b.items():
            if mb:
                for ma, ca in a.items():
                    m = tuple(sorted(ma + mb))
                    acc[m] = get(m, 0) + ca * cb
            else:
                for ma, ca in a.items():
                    acc[ma] = get(ma, 0) + ca * cb
    if ring.kind == "mod":
        modulus = ring.modulus
        return {m: r for m, c in acc.items() if (r := c % modulus)}
    return {m: c for m, c in acc.items() if c}


def holds_rat_raw_form(p: Polynomial) -> bool:
    """Every raw coefficient of the rational polynomial ``p`` is nonzero, an
    ``int`` if it is integral and a ``Fraction`` otherwise."""
    return all(c and type(c) is (int if c.denominator == 1 else Fraction) for c in p.raw.values())


def reference_validate(g: AbpGraph) -> List[str]:
    """Every flavor-invariant violation, found by sorting all vertices and
    all edges: the reference for ``validate``'s one pass over the edges."""
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
                if () in tuple_raw(lab.raw):
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


def gradient_layer_count(n: int, j: int) -> int:
    """The closed form for the vertices in layer j of the gradient program."""
    return (n - j) * (n + j + 1) // 2


def graph_width(g: AbpGraph) -> int:
    """Maximum vertex count over the intermediate layers 1..d-1, sinks
    included, so the gradient program reads C(n+1,2) here against
    ``ConstructionStats.width``'s C(n+1,2)-1: a bound for the rewrite tests."""
    counts = Counter(g.layer.values())
    return max((counts[l] for l in range(1, g.num_layers)), default=0)


def reference_stats_from_graph(g: AbpGraph) -> ConstructionStats:
    """Statistics inferred from the gradient builder's ``r_``/``c_`` vertex
    names: the reference for ``stats_from_graph``, which reads only edges."""
    rverts = [v for v in g.layer if v.startswith("r_")]
    per_layer = Counter(g.layer[v] for v in (rverts or g.layer))
    counts = tuple(per_layer[lay] for lay in range(1, g.num_layers))
    if rverts:
        extra = sum(1 for v in g.layer if v.startswith("c_"))
        rtotal = len(rverts)
    else:
        extra = None
        rtotal = None
    has_out = {u for (u, _v) in g.edges}
    outputs = tuple(sorted((name, g.layer[v]) for name, v in g.outputs.items()))
    return ConstructionStats(
        width=max(counts, default=0),
        per_layer_counts=counts,
        rvector_total=rtotal,
        extra_output_vertices=extra,
        total_vertices=len(g.layer),
        size=sum(1 for v in g.layer if v != g.source and v in has_out),
        edge_count=len(g.edges),
        outputs=outputs,
    )


def renamed(g: AbpGraph, rng: random.Random) -> AbpGraph:
    """``g`` with its vertices renamed ``v0, v1, ..`` in a shuffled order,
    which is also the new graph's vertex order."""
    verts = list(g.layer)
    rng.shuffle(verts)
    name = {vid: f"v{k}" for k, vid in enumerate(verts)}
    h = AbpGraph(g.flavor, g.ring, g.ambient_n, g.num_layers)
    for vid in verts:
        h.add_vertex(name[vid], g.layer[vid])
    h.set_source(name[g.source])
    h.add_edges((name[u], name[v], lab) for (u, v), lab in g.edges.items())
    for out, vid in g.outputs.items():
        h.add_output(out, name[vid])
    return h


def reference_eliminate_constant_edges(g: AbpGraph, at: Optional[str] = None) -> AbpGraph:
    """Constant-edge elimination by rerouting paths on one working copy,
    ``sub_abp(g, at)``, edited in place: the reference for
    ``eliminate_constant_edges``, which builds its result in one pass from
    per-layer constant-path sums.

    The heads of constant edges are visited once each in topological
    order, so every tail ``v`` of a removed edge ``v -> w`` has no constant
    in-edges left, and the only new constant edges, ``s -> y`` for a
    constant ``w -> y``, point at a head still to come.  Nothing sweeps the
    working copy, so it never holds a plan that the direct writes could
    leave stale.
    """
    require_valid(g)
    name, target = resolve_output(g, at)
    if g.layer[target] < 1:
        raise GraphError("elimination needs an output of degree at least 1")
    cur = sub_abp(g, name)
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
    dropped = {vid for vid, lay in cur.layer.items()
               if (lay == 0 and vid != cur.source) or (lay == cur.num_layers and vid != target)}
    for vid in dropped:
        del cur.layer[vid]
    cur.edges = {(u, v): lab for (u, v), lab in cur.edges.items()
                 if u not in dropped and v not in dropped}
    cur.flavor = "pabp"
    return cur


def boxed_sweep(g: AbpGraph, entries: List[List[RingElement]]) -> Dict[str, RingElement]:
    """Every output by a forward sweep on ring elements, substituting each
    edge's label anew: the reference for ``evaluate_all``'s raw-value sweep."""
    verts = sorted(g.layer, key=lambda vid: (g.layer[vid], vid))
    order = topological_order(verts, g.edges)
    assert len(order) == len(verts), "constant-edge cycle"
    ins: Dict[str, list] = {v: [] for v in g.layer}
    for (u, v), lab in g.edges.items():
        ins[v].append((u, lab))
    values: Dict[str, RingElement] = {}
    for v in order:
        acc = int_embed(g.ring, 1 if v == g.source else 0)
        for u, lab in ins[v]:
            acc = acc + values[u] * lab.substitute(entries)
        values[v] = acc
    return {name: values[vid] for name, vid in g.outputs.items()}


def vertex_polys(g: AbpGraph) -> Dict[str, Polynomial]:
    """Every vertex's polynomial by a forward sweep on polynomials in
    topological order, each edge's label multiplied in as a polynomial."""
    verts = sorted(g.layer, key=lambda vid: (g.layer[vid], vid))
    order = topological_order(verts, g.edges)
    assert len(order) == len(verts), "constant-edge cycle"
    ins: Dict[str, list] = {v: [] for v in g.layer}
    for (u, v), lab in g.edges.items():
        ins[v].append((u, lab))
    values: Dict[str, Polynomial] = {}
    for v in order:
        acc = Polynomial.from_int(g.ring, g.ambient_n, 1 if v == g.source else 0)
        for u, lab in ins[v]:
            acc = acc + values[u] * lab
        values[v] = acc
    return values


def poly_sweep(g: AbpGraph) -> Dict[str, Polynomial]:
    """Every output by ``vertex_polys``: the reference for ``expand_all``'s
    raw-coefficient sweep."""
    values = vertex_polys(g)
    return {name: values[vid] for name, vid in g.outputs.items()}


def live_terms(g: AbpGraph, names: Iterable[str]) -> Tuple[int, int]:
    """(peak, made) for a symbolic expansion of a valid graph that keeps
    only the ``names`` outputs: the most terms its values hold at once, and
    the terms of every value it makes.  The values are made in the order
    of ``vertex_polys``, a topological one; each is held from its own turn
    through that of its last reader (its own when nothing reads it), and
    to the end when it is kept."""
    values = vertex_polys(g)
    turn = {v: k for k, v in enumerate(values)}
    last = dict(turn)
    for u, v in g.edges:
        last[u] = max(last[u], turn[v])
    kept = {g.outputs[name] for name in names}
    change = [0] * (len(values) + 1)
    for v, p in values.items():
        change[turn[v]] += len(p.raw)
        change[len(values) if v in kept else last[v] + 1] -= len(p.raw)
    return max(accumulate(change)), sum(len(p.raw) for p in values.values())


def reference_dict(g: AbpGraph) -> dict:
    """The graph as JSON-ready data, built as a dict: ``json.dumps`` of it
    with ``indent=2`` and ``sort_keys=True``, plus a newline, is the
    reference for ``graph_to_json_text``."""
    verts = [{"id": vid, "layer": g.layer[vid]} for vid in g.layer_order()]
    edges = []
    for (u, v) in sorted(g.edges):
        lab = g.edges[(u, v)]
        linear = []
        # a label's monomials are () and (flat,); flat order is (i, j) order
        for mono, c in sorted(tuple_raw(lab.raw).items()):
            if mono:
                i, j = unflatten(mono[0], g.ambient_n)
                linear.append({"i": i, "j": j, "coeff": element_to_str(RingElement(g.ring, c))})
        edges.append({"from": u, "to": v, "const": element_to_str(lab.constant_term()),
                      "linear": linear})
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


def reference_graph_to_dot(g: AbpGraph) -> str:
    """The Graphviz text built line by line, each edge's label rendered on
    its own line: the reference for ``graph_to_dot``."""
    lines = ["digraph abp {", "  rankdir=LR;", "  node [shape=circle];"]
    # with \ and " escaped, no id ends its DOT string early
    quoted = {vid: '"' + vid.replace("\\", "\\\\").replace('"', '\\"') + '"' for vid in g.layer}
    for _lay, verts in groupby(g.layer_order(), key=g.layer.__getitem__):
        lines.append("  { rank=same;")
        for vid in verts:
            lines.append(f"    {quoted[vid]};")
        lines.append("  }")
    for (u, v) in sorted(g.edges):
        lab = g.edges[(u, v)]
        style = ", style=dashed" if lab.degree == 0 else ""
        lines.append(f'  {quoted[u]} -> {quoted[v]} [label="{lab.text()}"{style}];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def reference_graph_from_json_dict(data: dict) -> AbpGraph:
    """The graph that JSON data describes, read with ``_field`` and
    ``_index_field`` on every field and ``reference_add_edge`` on every
    edge: the reference for ``graph_from_json_dict``, its errors included."""
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
        # one label object per distinct (const, linear) text, as the builders share them
        labels: Dict[tuple, Polynomial] = {}
        for e in data["edges"]:
            u, v = _field(e, "from", str), _field(e, "to", str)
            u, v = ids.get(u, u), ids.get(v, v)
            key = (_field(e, "const", str), tuple(
                (_index_field(t, "i", n), _index_field(t, "j", n), _field(t, "coeff", str))
                for t in e["linear"]))
            label = labels.get(key)
            if label is None:
                const, linear = key
                terms = {(): element_from_str(ring, const)}
                for i, j, coeff in linear:
                    terms[((flatten(i, j, n), 1),)] = element_from_str(ring, coeff)
                if len(terms) != len(linear) + 1:
                    raise GraphError(f"malformed graph JSON: edge {u}->{v} repeats a linear term")
                label = labels[key] = Polynomial(ring, n, terms)
            reference_add_edge(g, u, v, label)
        outputs = _field(data, "outputs", dict)
        for name in outputs:
            g.add_output(name, _field(outputs, name, str))
    except (LookupError, TypeError) as exc:  # LookupError: KeyError, or IndexError from a list
        raise GraphError(f"malformed graph JSON: {exc}") from exc
    return g


def block_transition_matrix(n: int, d: int, ring: RingDescriptor) -> PolyMatrix:
    """The transition matrix written out block by block: block (i, i') is
    (-L_i | 0) on the diagonal i = i', (0 | C_i) above it and 0 below.  The
    reference for ``transition_matrix``, which reads the program's edges."""
    row_blocks = list(range(d, n + 1))
    col_blocks = list(range(d + 1, n + 1))
    zero = Polynomial.zero(ring, n)
    ents = [[zero for _ in range(sum(col_blocks))] for _ in range(sum(row_blocks))]
    row_off = 0
    for i in row_blocks:
        col_off = 0
        for ip in col_blocks:
            if i == ip:
                # (-L_i | 0): columns 1..i-1 hold -x[a,b], the last is zero
                for a in range(1, i + 1):
                    for b in range(1, i):
                        ents[row_off + a - 1][col_off + b - 1] = -Polynomial.variable(ring, n, a, b)
            elif i < ip:
                # (0 | C_i): only the last column holds x[a,i]
                for a in range(1, i + 1):
                    ents[row_off + a - 1][col_off + ip - 1] = Polynomial.variable(ring, n, a, i)
            col_off += ip
        row_off += i
    return PolyMatrix.from_rows(ring, n, ents)


def reference_horner_sequence(n: int, k_max: int, ring: RingDescriptor) -> List[PolyMatrix]:
    """T_0 .. T_{k_max} by Horner's rule in three matrix passes per step,
    T_k = cpc_{n,k} I - X T_{k-1}: scale, product and subtract.  The
    reference for ``horner_sequence``, which builds each entry in one
    kernel call."""
    x = PolyMatrix.variables(ring, n)
    one = PolyMatrix.identity(ring, n, n)
    total = PolyMatrix.zeros(ring, n, n, n)
    sums: List[PolyMatrix] = []
    for k in range(k_max + 1):
        total = one.scale(cpc_minor_sum(n, k, ring)) - x * total
        sums.append(total)
    return sums


def reference_restrict_to_diagonal(p: Polynomial) -> Polynomial:
    """``p`` with every off-diagonal variable set to zero, each code decoded
    into its variables: the reference for ``Polynomial.restrict_to_diagonal``,
    which divides by the diagonal primes."""
    n = p.ambient_n
    raw = {m: c for m, c in p.raw.items()
           if all(i == j for i, j in (unflatten(v, n) for v in monomial_indices(m)))}
    return Polynomial._of(p.ring, n, raw)


def reference_girard_newton_sides(n: int, d: int, ring: RingDescriptor) -> Tuple[Polynomial, Polynomial]:
    """-d e_d and sum_{i=1}^{d} (-1)^i e_{d-i} p_i, with e_k the minor sum
    cpc_{n,k} at diagonal matrices and each power sum p_i = x[1,1]^i + .. +
    x[n,n]^i written down as its n monomials; e_{d-i} = 0 for d-i > n, so
    the sum starts at i = d-n.  The reference for girard_newton's sides,
    which restrict trace_ch's."""
    def e(k: int) -> Polynomial:
        return reference_restrict_to_diagonal(cpc_minor_sum(n, k, ring))

    one = int_embed(ring, 1)
    rhs = Polynomial.zero(ring, n)
    for i in range(max(1, d - n), d + 1):
        p = Polynomial(ring, n, {((flatten(a, a, n), i),): one for a in range(1, n + 1)})
        rhs = rhs + e(d - i) * p.scale(int_embed(ring, (-1) ** i))
    return e(d).scale(int_embed(ring, -d)), rhs


def reference_r_vector_first_layer(i: int, ambient: int, ring: RingDescriptor) -> List[Polynomial]:
    """Closed form of r_{i,1}: (-x[i,1], .., -x[i,i-1], x[1,1]+..+x[i-1,i-1]),
    the last row of transpose(grad cpc_{i,2})."""
    entries = [-Polynomial.variable(ring, ambient, i, b) for b in range(1, i)]
    tr = Polynomial.zero(ring, ambient)
    for a in range(1, i):
        tr = tr + Polynomial.variable(ring, ambient, a, a)
    entries.append(tr)
    return entries


def is_canonical(c: RingElement, ring: RingDescriptor) -> bool:
    """``c`` is a nonzero ring element of ``ring`` in canonical form."""
    if c.descriptor != ring or c.is_zero():
        return False
    if ring.kind == "rat":
        return type(c.value) is Fraction
    return type(c.value) is int and (not ring.modulus or 0 <= c.value < ring.modulus)


def random_element(ring: RingDescriptor, rng: random.Random, span: int = 6) -> RingElement:
    k = rng.randint(-span, span)
    if ring.kind == "rat" and rng.random() < 0.5:
        from abpc.rings import invert

        den = rng.randint(1, span)
        return int_embed(ring, k) * invert(int_embed(ring, den))
    return int_embed(ring, k)


def random_nonzero(ring: RingDescriptor, rng: random.Random, span: int = 4) -> RingElement:
    while True:
        e = random_element(ring, rng, span)
        if not e.is_zero():
            return e


def random_matrix(ring: RingDescriptor, n: int, rng: random.Random,
                  span: int = 6) -> List[List[RingElement]]:
    return [[random_element(ring, rng, span) for _ in range(n)] for _ in range(n)]


def random_poly(ring: RingDescriptor, n: int, rng: random.Random,
                max_terms: int = 4, max_deg: int = 3) -> Polynomial:
    p = Polynomial.zero(ring, n)
    for _ in range(rng.randint(0, max_terms)):
        term = Polynomial.constant(ring, n, random_nonzero(ring, rng))
        for _ in range(rng.randint(0, max_deg)):
            term = term * Polynomial.variable(ring, n, rng.randint(1, n), rng.randint(1, n))
        p = p + term
    return p


def random_linear_label(ring: RingDescriptor, n: int, rng: random.Random) -> Polynomial:
    terms = {}
    for _ in range(rng.randint(1, 2)):
        terms[((flatten(rng.randint(1, n), rng.randint(1, n), n), 1),)] = random_nonzero(ring, rng)
    return Polynomial(ring, n, terms)


def random_affine_label(ring: RingDescriptor, n: int, rng: random.Random) -> Polynomial:
    label = random_linear_label(ring, n, rng)
    if rng.random() < 0.5:
        label = label + Polynomial.constant(ring, n, random_nonzero(ring, rng))
    return label


def random_abp(ring: RingDescriptor, n: int, d: int, rng: random.Random,
               max_width: int = 3) -> AbpGraph:
    """Random layered program with constant intra-layer edges and one output."""
    g = AbpGraph("abp", ring, n, d)
    layers = []
    for lay in range(0, d + 1):
        count = 1 if lay in (0, d) and rng.random() < 0.5 else rng.randint(1, max_width)
        ids = [f"v{lay}_{k}" for k in range(count)]
        for vid in ids:
            g.add_vertex(vid, lay)
        layers.append(ids)
    g.set_source(layers[0][0])
    for lay in range(d):
        # guaranteed spine so the output is reachable
        g.add_edge(layers[lay][0], layers[lay + 1][0], random_linear_label(ring, n, rng))
        for u in layers[lay]:
            for v in layers[lay + 1]:
                if rng.random() < 0.4:
                    g.add_edge(u, v, random_linear_label(ring, n, rng))
    for lay in range(0, d + 1):
        ids = layers[lay]
        for a in range(len(ids)):
            for b in range(a + 1, len(ids)):
                if rng.random() < 0.35:
                    # forward within the sorted layer, so no constant cycles
                    g.add_edge(ids[a], ids[b], Polynomial.constant(ring, n, random_nonzero(ring, rng)))
    g.add_output("out", layers[d][0])
    return g


def random_pabp(ring: RingDescriptor, n: int, d: int, rng: random.Random,
                max_width: int = 2) -> AbpGraph:
    g = AbpGraph("pabp", ring, n, d)
    layers = [["s"]]
    g.add_vertex("s", 0)
    for lay in range(1, d):
        ids = [f"v{lay}_{k}" for k in range(rng.randint(1, max_width))]
        for vid in ids:
            g.add_vertex(vid, lay)
        layers.append(ids)
    g.add_vertex("t", d)
    layers.append(["t"])
    g.set_source("s")
    for lay in range(d):
        g.add_edge(layers[lay][0], layers[lay + 1][0], random_linear_label(ring, n, rng))
        for u in layers[lay]:
            for v in layers[lay + 1]:
                if rng.random() < 0.5:
                    g.add_edge(u, v, random_linear_label(ring, n, rng))
    g.add_output("out", "t")
    return g


def _unimodular(ring: RingDescriptor, s: int, rng: random.Random):
    """Random product of integer shears: determinant exactly 1."""
    zero, one = int_embed(ring, 0), int_embed(ring, 1)
    m = [[one if a == b else zero for b in range(s)] for a in range(s)]
    for _ in range(2 * s):
        i, j = rng.randrange(s), rng.randrange(s)
        if i == j:
            continue
        c = int_embed(ring, rng.randint(-2, 2))
        m[i] = [m[i][k] + c * m[j][k] for k in range(s)]
    return m


def planted_determinantal_instance(rng: random.Random, ring: RingDescriptor = Q):
    """(matrix, det, degree) over ``ring`` with the determinant
    homogeneous, size <= 4.

    Built by converting a small random program to its determinantal
    representation and scrambling it with unimodular factors on both
    sides, which preserves the determinant exactly.
    """
    from abpc.graph import abp_to_determinant, expand_symbolic
    from abpc.oracle import det_leibniz
    from abpc.poly import PolyMatrix

    while True:
        d = rng.randint(1, 3)
        width = rng.randint(1, 3) if d == 2 else 1
        n = rng.randint(1, 3)
        g = random_pabp(ring, n, d, rng, max_width=width)
        f = expand_symbolic(g, "out")
        if f.is_zero():
            continue
        m = abp_to_determinant(g)
        if m.rows > 4:
            continue
        left = PolyMatrix.from_constants(ring, n, _unimodular(ring, m.rows, rng))
        right = PolyMatrix.from_constants(ring, n, _unimodular(ring, m.rows, rng))
        scrambled = left * m * right
        assert det_leibniz(scrambled) == f
        return scrambled, f, d


def random_aabp(ring: RingDescriptor, n: int, rng: random.Random,
                inner: int = 3) -> AbpGraph:
    """Random affine DAG with a guaranteed source-to-sink chain."""
    size = inner + 2
    g = AbpGraph("aabp", ring, n, size - 1)
    ids = ["s"] + [f"u{k}" for k in range(inner)] + ["t"]
    for pos, vid in enumerate(ids):
        g.add_vertex(vid, pos)
    g.set_source("s")
    for pos in range(size - 1):
        g.add_edge(ids[pos], ids[pos + 1], random_affine_label(ring, n, rng))
    for a in range(size - 1):
        for b in range(a + 1, size):
            if (a, b) != (0, size - 1) and b > a + 1 and rng.random() < 0.4:
                g.add_edge(ids[a], ids[b], random_affine_label(ring, n, rng))
    g.add_output("out", "t")
    return g


FLAVORS = ("abp", "pabp", "aabp")


def random_program(flavor: str, ring: RingDescriptor, n: int, d: int,
                   rng: random.Random) -> AbpGraph:
    if flavor == "abp":
        return random_abp(ring, n, d, rng)
    if flavor == "pabp":
        return random_pabp(ring, n, d, rng)
    return random_aabp(ring, n, rng, inner=d)


def label_delta(label: Polynomial) -> int:
    """0 for a constant label whose value is an integer, which carries no
    denominator, and 1 for any other label."""
    return 0 if label.degree == 0 and label.constant_term().value.denominator == 1 else 1


def path_depths(g: AbpGraph) -> Dict[str, int]:
    """Each vertex's depth over ``rat``: 0 without in-edges, else the
    largest over its in-edges of the tail's depth plus the label's
    ``label_delta``."""
    ins: Dict[str, List[Tuple[str, int]]] = {v: [] for v in g.layer}
    for (u, v), lab in g.edges.items():
        ins[v].append((u, label_delta(lab)))
    depth: Dict[str, int] = {}
    for v in topological_order(g.layer_order(), g.edges):
        depth[v] = max((depth[u] + delta for u, delta in ins[v]), default=0)
    return depth


def plant_copy_chain(g: AbpGraph, rng: random.Random, heads: int = 3) -> List[Tuple[str, str, bool]]:
    """Plant new output vertices ``zcopy0``, ``zcopy1``, ... in the layer of
    a random non-source vertex w with at least two in-edges; their ids sort
    after every other, so they sweep after w and in that order.  Head k's in-edges begin with head k-1's (w's
    for k = 0): the same tails and label objects in ``g.edges`` order, except
    that a decoy head gives one of them a new random label.  Up to two edges
    from other tails the flavor allows follow.  Returns (head, the vertex it
    repeats, decoy) per head; none when g has no such w."""
    n, ring, layer = g.ambient_n, g.ring, g.layer
    ins: Dict[str, List[Tuple[str, Polynomial]]] = {v: [] for v in layer}
    for (u, v), lab in g.edges.items():
        ins[v].append((u, lab))
    owners = sorted(v for v, edges in ins.items() if len(edges) >= 2 and v != g.source
                    and (g.flavor != "pabp" or 0 < layer[v] < g.num_layers))
    if not owners:
        return []
    prev = rng.choice(owners)
    lay, base = layer[prev], sorted(layer)
    planted = []
    for k in range(heads):
        head = g.add_vertex(f"zcopy{k}", lay)
        edges = list(ins[prev])
        decoy = rng.random() < 0.25
        if decoy:
            at = rng.randrange(len(edges))
            edges[at] = (edges[at][0], random_linear_label(ring, n, rng) if layer[edges[at][0]] < lay
                         else Polynomial.constant(ring, n, random_nonzero(ring, rng)))
        taken = {u for u, _lab in edges}
        others = [u for u in base if u not in taken and
                  (layer[u] < lay if g.flavor == "aabp" else
                   layer[u] == lay - 1 or (g.flavor == "abp" and layer[u] == lay))]
        for u in rng.sample(others, min(len(others), rng.randint(0, 2))):
            if g.flavor == "aabp":
                edges.append((u, random_affine_label(ring, n, rng)))
            elif layer[u] < lay:
                edges.append((u, random_linear_label(ring, n, rng)))
            else:
                edges.append((u, Polynomial.constant(ring, n, random_nonzero(ring, rng))))
        g.add_edges((u, head, lab) for u, lab in edges)
        g.add_output(head, head)
        ins[head] = edges
        planted.append((head, prev, decoy))
        prev = head
    return planted


def merged_heads(g: AbpGraph) -> Dict[str, str]:
    """Each vertex's first vertex with the same in-edges: the reference for
    the sweep plan's shared positions.  In the order of
    ``topological_order(g.layer_order(), g.edges)``, a vertex other than the
    source whose in-edges, in ``g.edges`` order with each tail replaced by
    that tail's first vertex, carry the same label objects from the same
    tails as an earlier vertex's, other than the source, maps to that
    vertex's first vertex; any other vertex maps to itself."""
    ins: Dict[str, List[Tuple[str, int]]] = {v: [] for v in g.layer}
    for (u, v), lab in g.edges.items():
        ins[v].append((u, id(lab)))  # g.edges holds each label, so its id stays its own
    first: Dict[str, str] = {}
    seen: Dict[tuple, str] = {}
    for v in topological_order(g.layer_order(), g.edges):
        key = tuple((first[u], label) for u, label in ins[v])
        first[v] = v if v == g.source else seen.setdefault(key, v)
    return first


def plant_repeats(g: AbpGraph, rng: random.Random) -> Dict[str, Tuple[str, bool]]:
    """Plant new output vertices that repeat part of g, with ids that sort
    after every other: ``zrep0`` in the layer of a random non-source
    vertex w that has in-edges and an edge to a non-source vertex x, with
    w's in-edges, and ``zrep1`` in x's layer with x's in-edges, w's swapped
    for one from ``zrep0``: a repeated two-layer sub-program.  The decoy
    ``zdecoy`` has w's in-edges but one label swapped for an equal one that
    is another object.  ``zsource`` has the source's in-edges, none in a
    valid program.  Returns each planted vertex, the vertex it imitates and
    whether the two must share a position; only ``zsource`` when g has no
    such w and x."""
    layer, d = g.layer, g.num_layers
    ins: Dict[str, List[Tuple[str, Polynomial]]] = {v: [] for v in layer}
    for (u, v), lab in g.edges.items():
        ins[v].append((u, lab))
    # a pabp has one vertex in each of layers 0 and d
    inner = (lambda v: 0 < layer[v] < d) if g.flavor == "pabp" else (lambda v: v != g.source)
    pairs = sorted((u, v) for u, v in g.edges if ins[u] and inner(u) and inner(v))
    planted = {"zsource": (g.source, False)}
    g.add_vertex("zsource", 1 if g.flavor == "pabp" else 0)
    g.add_edges((u, "zsource", lab) for u, lab in ins[g.source])
    if pairs:
        w, x = rng.choice(pairs)
        decoy = list(ins[w])
        at = rng.randrange(len(decoy))
        u, lab = decoy[at]
        decoy[at] = (u, Polynomial(lab.ring, lab.ambient_n, lab.terms))
        for head, like, shares, edges in (
                ("zrep0", w, True, ins[w]),
                ("zrep1", x, True, [("zrep0" if u == w else u, lab) for u, lab in ins[x]]),
                ("zdecoy", w, False, decoy)):
            g.add_vertex(head, layer[like])
            g.add_edges((u, head, lab) for u, lab in edges)
            planted[head] = (like, shares)
    for head in planted:
        g.add_output(head, head)
    return planted
