"""Branching programs: validation, evaluation semantics, and the rewrites."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from abpc.graph import (
    AbpGraph,
    GraphError,
    abp_to_determinant,
    combine,
    eliminate_constant_edges,
    evaluate,
    expand_all,
    expand_symbolic,
    graph_from_json_dict,
    graph_to_dot,
    graph_to_json_dict,
    homogenize,
    sub_abp,
    topological_order,
    validate,
)
from abpc.build import build_bivariate_abp, build_gradient_abp
from abpc.oracle import cpc_minor_sum, det_leibniz
from abpc.poly import Polynomial
from abpc.rings import RingDescriptor, descriptor_from_spec, int_embed
from helpers import (
    BUILDERS,
    RING_FAMILIES,
    graph_width,
    live_terms,
    poly_sweep,
    random_aabp,
    random_abp,
    random_matrix,
    random_pabp,
    reference_eliminate_constant_edges,
    renamed,
)

Z = RingDescriptor.integers()

# hypothesis draws the ring, the sizes and the seed of the seeded generators
rings = st.sampled_from(sorted(RING_FAMILIES.values(), key=repr))
generators = st.integers(0, 2**64).map(random.Random)
rewrite_settings = settings(max_examples=100, deadline=None)


def one(ring=Z, n=1):
    return Polynomial.from_int(ring, n, 1)


def var(i, j, ring=Z, n=1):
    return Polynomial.variable(ring, n, i, j)


def single_edge_graph(ring=Z, n=1):
    g = AbpGraph("pabp", ring, n, 1)
    g.add_vertex("s", 0)
    g.add_vertex("t", 1)
    g.set_source("s")
    g.add_edge("s", "t", var(1, 1, ring=ring, n=n))
    g.add_output("out", "t")
    return g


# -- validation ------------------------------------------------------------


def test_built_construction_is_valid():
    assert validate(build_bivariate_abp(3, 3, Z)) == []


def test_constant_edge_cycle_is_reported():
    g = AbpGraph("abp", Z, 1, 1)
    for vid in ("s", "a", "b"):
        g.add_vertex(vid, 0)
    g.add_vertex("t", 1)
    g.set_source("s")
    g.add_edge("a", "b", one())
    g.add_edge("b", "a", one())
    g.add_edge("s", "t", var(1, 1))
    g.add_output("out", "t")
    assert any("constant-edge cycle" in p for p in validate(g))


def test_constant_edge_cycles_in_two_layers_are_each_reported():
    g = AbpGraph("abp", Z, 1, 2)
    g.add_vertex("s", 0)
    for vid in ("a", "b", "c"):
        g.add_vertex(vid, 1)
    for vid in ("e", "f", "t"):
        g.add_vertex(vid, 2)
    g.set_source("s")
    g.add_edge("s", "a", var(1, 1))
    g.add_edge("a", "b", one())
    g.add_edge("b", "a", one())
    g.add_edge("b", "c", one())  # downstream of the cycle, not on it
    g.add_edge("c", "t", var(1, 1))
    g.add_edge("e", "f", one())
    g.add_edge("f", "e", one())
    g.add_output("out", "t")
    assert validate(g) == ["constant-edge cycle in layer 1", "constant-edge cycle in layer 2"]
    with pytest.raises(GraphError, match="constant-edge cycle"):
        evaluate(g, [[int_embed(Z, 1)]], "out")


def test_topological_order_repeated_edges_ties_and_cycles():
    # repeated edges count once per copy; ties go to the earlier position
    assert topological_order(["a", "b", "c"], [("a", "c"), ("a", "c"), ("b", "c")]) == ["a", "b", "c"]
    assert topological_order(["c", "b", "a"], []) == ["c", "b", "a"]
    assert topological_order(["c", "b", "a"], [("b", "c")]) == ["b", "c", "a"]
    # a cycle b <-> c leaves b, c and everything after them unsettled
    edges = [("a", "b"), ("b", "c"), ("c", "b"), ("c", "d")]
    assert topological_order(["a", "b", "c", "d", "e"], edges) == ["a", "e"]


def reference_topological_order(verts, edges):
    """Kahn's algorithm that each step takes the earliest ready vertex of ``verts``."""
    left = list(edges)
    order, rest = [], list(verts)
    while True:
        ready = [v for v in rest if all(b != v for _a, b in left)]
        if not ready:
            return order
        order.append(ready[0])
        rest.remove(ready[0])
        left = [(a, b) for a, b in left if a != ready[0]]


def test_topological_order_matches_the_reference():
    # edges that all go forward in verts return verts itself; any other
    # edge set goes through the heap
    rng = random.Random("topological")
    for _ in range(300):
        verts = [f"v{k}" for k in range(rng.randint(0, 7))]
        rng.shuffle(verts)
        edges = [tuple(rng.sample(verts, 2)) for _ in range(rng.randint(0, 8))] if len(verts) > 1 else []
        if rng.random() < 0.5:
            edges = [(a, b) if verts.index(a) < verts.index(b) else (b, a) for a, b in edges]
        assert topological_order(verts, edges) == reference_topological_order(verts, edges), (verts, edges)


def test_pabp_rejects_constant_edges():
    g = AbpGraph("pabp", Z, 1, 1)
    g.add_vertex("s", 0)
    g.add_vertex("s2", 0)
    g.add_vertex("t", 1)
    g.set_source("s")
    g.add_edge("s", "s2", one())
    g.add_edge("s2", "t", var(1, 1))
    g.add_output("out", "t")
    problems = validate(g)
    assert any("pabp forbids constant edges" in p for p in problems)
    assert any("exactly one vertex in layer 0" in p for p in problems)


def test_add_edge_rejects_labels_that_do_not_fit_the_graph():
    g = AbpGraph("aabp", Z, 1, 1)
    g.add_vertex("s", 0)
    g.add_vertex("t", 1)
    bad = [(var(1, 1, ring=RingDescriptor.modular(4)), "label from another ring"),
           (var(1, 1, n=2), "label of ambient size 2, not 1"),
           (var(1, 1) * var(1, 1), "label of degree above 1")]
    for label, message in bad:
        with pytest.raises(GraphError, match=f"edge s->t has a {message}"):
            g.add_edge("s", "t", label)
    assert g.edges == {}


# -- evaluation ------------------------------------------------------------


def test_single_edge_evaluation():
    g = single_edge_graph()
    assert evaluate(g, [[int_embed(Z, 7)]], "out") == int_embed(Z, 7)


def test_source_output_is_one_and_zero_matrix_kills_higher_layers():
    g = build_bivariate_abp(2, 2, Z)
    zeros = [[int_embed(Z, 0)] * 2 for _ in range(2)]
    assert evaluate(g, zeros, "cpc_0_0").is_one()
    assert evaluate(g, zeros, "cpc_2_1").is_zero()
    assert evaluate(g, zeros, "cpc_2_2").is_zero()


def test_embedded_block_evaluation_matches_oracle():
    # evaluate the 3-ambient construction at a matrix with a 2x2 block
    g = build_bivariate_abp(3, 3, Z)
    rows = [[1, 2, 0], [3, 4, 0], [0, 0, 0]]
    a = [[int_embed(Z, v) for v in row] for row in rows]
    want = cpc_minor_sum(2, 2, Z).promote(3).substitute(a)
    assert evaluate(g, a, "cpc_2_2") == want
    assert want == int_embed(Z, -2)


def test_unknown_output_and_bad_matrix():
    g = single_edge_graph()
    with pytest.raises(GraphError, match="unknown output"):
        evaluate(g, [[int_embed(Z, 1)]], "nope")
    with pytest.raises(GraphError, match="dimension"):
        evaluate(g, [[int_embed(Z, 1)], [int_embed(Z, 1)]], "out")


def test_expand_at_source_is_empty_product():
    g = build_bivariate_abp(2, 2, Z)
    assert expand_symbolic(g, "cpc_0_0") == Polynomial.from_int(Z, 2, 1)


def _refused(monkeypatch, budget, expand, *args):
    """Whether ``expand(*args)`` stops at the guard under ``budget`` live terms."""
    monkeypatch.setattr("abpc.graph.EXPANSION_TERM_BUDGET", budget)
    try:
        expand(*args)
    except GraphError as exc:
        assert str(exc) == f"symbolic expansion guard exceeded (over {budget:,} live terms)"
        return True
    return False


def test_expansion_guard(monkeypatch):
    # the guard counts the terms of the values held at once: refused one
    # term under the peak even though the outputs alone fit, and expanded at
    # the peak or at one under all the terms made, which only dropping each
    # released value's terms allows.  In gradient n = 6 six heads read an
    # earlier head's value instead of repeating its in-edges, and the peaks
    # still equal those that live_terms counts from the graph's edges.
    for kind, n, spec in [("gradient", 4, "int"), ("gradient", 6, "int"), ("bivariate", 3, "mod:4"),
                          ("bivariate", 4, "int"), ("charzero", 4, "rat")]:
        g = BUILDERS[kind](n, n, descriptor_from_spec(spec))
        peak, made = live_terms(g, sorted(g.outputs))
        outputs = poly_sweep(g)
        assert sum(len(p.raw) for p in outputs.values()) < peak < made - 1, (kind, spec)
        assert _refused(monkeypatch, peak - 1, expand_all, g), (kind, spec)
        assert not _refused(monkeypatch, peak, expand_all, g), (kind, spec)
        assert not _refused(monkeypatch, made - 1, expand_all, g), (kind, spec)
        assert expand_all(g) == outputs, (kind, spec)
        # keeping only the top output
        name = f"cpc_{n}_{n}"
        peak = live_terms(g, [name])[0]
        assert _refused(monkeypatch, peak - 1, expand_symbolic, g, name), (kind, spec)
        assert not _refused(monkeypatch, peak, expand_symbolic, g, name), (kind, spec)
        assert expand_symbolic(g, name) == outputs[name], (kind, spec)


def test_expand_symbolic_keeps_only_its_own_output(monkeypatch):
    g, _stats = build_gradient_abp(5, 5, Z)
    one = live_terms(g, ["cpc_5_5"])[0]
    every = live_terms(g, sorted(g.outputs))[0]
    assert one < every
    assert _refused(monkeypatch, every - 1, expand_all, g)
    assert not _refused(monkeypatch, every - 1, expand_symbolic, g, "cpc_5_5")
    assert expand_symbolic(g, "cpc_5_5") == cpc_minor_sum(5, 5, Z)


def test_evaluation_matches_symbolic_expansion_on_random_programs():
    for name, ring in RING_FAMILIES.items():
        rng = random.Random(hash(name) % 9999 + 1)
        for _ in range(100):
            n = rng.randint(1, 3)
            d = rng.randint(1, 4)
            g = random_abp(ring, n, d, rng)
            assert validate(g) == []
            a = random_matrix(ring, n, rng)
            f = expand_symbolic(g, "out")
            assert evaluate(g, a, "out") == f.substitute(a)


def test_layerwise_homogeneity_of_expansion():
    rng = random.Random(42)
    for _ in range(25):
        g = random_abp(Z, 2, 3, rng)
        for vid, lay in sorted(g.layer.items()):
            g2 = graph_from_json_dict(graph_to_json_dict(g))
            g2.add_output("probe", vid)
            f = expand_symbolic(g2, "probe")
            assert f.is_zero() or (f.homogeneous_component(lay) == f), (vid, lay)


# -- constant-edge elimination ----------------------------------------------


def test_elimination_on_construction_graph():
    g = build_bivariate_abp(3, 3, Z)
    before = expand_symbolic(g, "cpc_3_3")
    p = eliminate_constant_edges(g, at="cpc_3_3")
    assert p.flavor == "pabp"
    assert validate(p) == []
    assert expand_symbolic(p, "cpc_3_3") == before
    assert graph_width(p) <= graph_width(g)


def test_elimination_without_constant_edges_is_flavor_retag():
    g = single_edge_graph()
    g.flavor = "abp"
    p = eliminate_constant_edges(g, at="out")
    assert p.flavor == "pabp"
    assert sorted(p.layer) == sorted(g.layer)
    assert p.edges.keys() == g.edges.keys()


def test_elimination_of_source_constant_edge():
    # 3-vertex program: source --2--> w --x--> t, plus a direct path
    g = AbpGraph("abp", Z, 1, 1)
    g.add_vertex("s", 0)
    g.add_vertex("w", 0)
    g.add_vertex("t", 1)
    g.set_source("s")
    g.add_edge("s", "w", Polynomial.from_int(Z, 1, 2))
    g.add_edge("w", "t", var(1, 1))
    g.add_output("out", "t")
    before = expand_symbolic(g, "out")
    p = eliminate_constant_edges(g, "out")
    assert validate(p) == []
    assert expand_symbolic(p, "out") == before
    assert before == Polynomial.variable(Z, 1, 1, 1).scale(int_embed(Z, 2))


def test_elimination_on_random_programs():
    rng = random.Random(101)
    for _ in range(50):
        n = rng.randint(1, 3)
        d = rng.randint(1, 4)
        g = random_abp(Z, n, d, rng)
        want = expand_symbolic(g, "out")
        before = graph_to_json_dict(g)
        p = eliminate_constant_edges(g, "out")
        assert graph_to_json_dict(g) == before
        assert p.flavor == "pabp"
        assert validate(p) == []
        assert expand_symbolic(p, "out") == want
        assert graph_width(p) <= graph_width(g)


@pytest.mark.parametrize("ring_name", sorted(RING_FAMILIES))
def test_elimination_matches_the_rerouting_reference(ring_name):
    # renaming shuffles the vertex order and orients constant edges against id order
    ring = RING_FAMILIES[ring_name]
    for seed in range(100):
        rng = random.Random(f"elimination/{ring_name}/{seed}")
        g = random_abp(ring, rng.randint(1, 3), rng.randint(1, 4), rng, max_width=rng.randint(1, 5))
        if seed % 2:
            g = renamed(g, rng)
        got, want = eliminate_constant_edges(g, "out"), reference_eliminate_constant_edges(g, "out")
        assert (got.layer, got.source, got.outputs, got.flavor, got.num_layers) == \
            (want.layer, want.source, want.outputs, want.flavor, want.num_layers), seed
        assert {e: lab.raw for e, lab in got.edges.items()} == {e: lab.raw for e, lab in want.edges.items()}, seed


@rewrite_settings
@given(rings, st.integers(1, 3), st.integers(1, 4), generators)
def test_elimination_preserves_the_polynomial(ring, n, d, rng):
    g = random_abp(ring, n, d, rng)
    p = eliminate_constant_edges(g, "out")
    assert p.flavor == "pabp" and validate(p) == []
    assert expand_symbolic(p, "out") == expand_symbolic(g, "out")


def test_elimination_refuses_an_aabp_graph():
    # an aabp stores a topological index in its layer field, so "layer 0" and
    # "intra-layer" mean nothing there; elimination made an invalid pabp of it
    bare = AbpGraph("aabp", Z, 1, 0)  # no source either: the flavor is refused first
    for g in [bare] + [random_aabp(Z, 2, random.Random(seed)) for seed in range(20)]:
        with pytest.raises(GraphError) as exc:
            eliminate_constant_edges(g, "out")
        assert str(exc.value) == "eliminate_constant_edges expects an abp- or pabp-flavor graph"


# -- homogenization ------------------------------------------------------------


def test_homogenize_product_of_affine_factors():
    # program computing (1 + x11)(1 + x22); component 2 is x11*x22
    g = AbpGraph("aabp", Z, 2, 2)
    for pos, vid in enumerate(("s", "m", "t")):
        g.add_vertex(vid, pos)
    g.set_source("s")
    x11 = Polynomial.variable(Z, 2, 1, 1)
    x22 = Polynomial.variable(Z, 2, 2, 2)
    g.add_edge("s", "m", one(n=2) + x11)
    g.add_edge("m", "t", one(n=2) + x22)
    g.add_output("f", "t")
    cases = {0: Polynomial.from_int(Z, 2, 1), 1: x11 + x22, 2: x11 * x22,
             3: Polynomial.zero(Z, 2)}
    for k, want in cases.items():
        h = homogenize(g, k)
        assert validate(h) == []
        assert h.flavor == "abp" and h.num_layers == k
        assert expand_symbolic(h, "f") == want
        assert graph_width(h) <= len(g.layer) - 2


def test_homogenize_on_random_affine_programs():
    rng = random.Random(202)
    for _ in range(50):
        n = rng.randint(1, 3)
        g = random_aabp(Z, n, rng)
        full = expand_symbolic(g, "out")
        asize = len(g.layer) - 2
        for k in range(0, full.degree + 2):
            h = homogenize(g, k)
            assert validate(h) == []
            assert expand_symbolic(h, "out") == full.homogeneous_component(k)
            assert graph_width(h) <= asize


@rewrite_settings
@given(rings, st.integers(1, 3), st.integers(1, 4), generators)
def test_homogenize_preserves_each_component(ring, n, inner, rng):
    g = random_aabp(ring, n, rng, inner=inner)
    full = expand_symbolic(g, "out")
    for k in range(0, full.degree + 2):
        h = homogenize(g, k)
        assert validate(h) == []
        assert expand_symbolic(h, "out") == full.homogeneous_component(k)


def test_homogenize_requires_aabp():
    with pytest.raises(GraphError):
        homogenize(single_edge_graph(), 1)


# -- sum and product -------------------------------------------------------------


def _matrix_width(g):
    # matrix-model width: a nonzero polynomial needs size at least 1
    return max(1, graph_width(g))


def test_combine_simple_examples():
    a = single_edge_graph()
    b = AbpGraph("pabp", Z, 2, 1)
    b.add_vertex("s", 0)
    b.add_vertex("t", 1)
    b.set_source("s")
    b.add_edge("s", "t", var(2, 2, n=2))
    b.add_output("out", "t")
    a2 = AbpGraph("pabp", Z, 2, 1)
    a2.add_vertex("s", 0)
    a2.add_vertex("t", 1)
    a2.set_source("s")
    a2.add_edge("s", "t", var(1, 1, n=2))
    a2.add_output("out", "t")
    s = combine(a2, b, "sum")
    assert expand_symbolic(s, "sink") == (
        Polynomial.variable(Z, 2, 1, 1) + Polynomial.variable(Z, 2, 2, 2)
    )
    assert graph_width(s) == 0
    p = combine(a2, b, "product")
    assert expand_symbolic(p, "sink") == (
        Polynomial.variable(Z, 2, 1, 1) * Polynomial.variable(Z, 2, 2, 2)
    )
    assert graph_width(p) == 1
    # a has ambient size 1: its labels are promoted to size 2
    fa = expand_symbolic(a, "out").promote(2)
    fb = expand_symbolic(b, "out")
    for first, second in ((a, b), (b, a)):
        s = combine(first, second, "sum")
        p = combine(first, second, "product")
        assert s.ambient_n == p.ambient_n == 2
        assert validate(s) == [] and validate(p) == []
        assert expand_symbolic(s, "sink") == fa + fb
        assert expand_symbolic(p, "sink") == fa * fb


def test_sum_of_construction_with_itself():
    g = build_bivariate_abp(3, 3, Z)
    s = combine(g, g, "sum", at1="cpc_3_3", at2="cpc_3_3")
    det3 = cpc_minor_sum(3, 3, Z)
    assert expand_symbolic(s, "sink") == det3 + det3
    assert graph_width(s) <= 2 * graph_width(g)


def test_combine_on_random_programs():
    rng = random.Random(303)
    for _ in range(50):
        n = rng.randint(1, 3)
        d = rng.randint(1, 3)
        g1 = random_pabp(Z, n, d, rng)
        g2 = random_pabp(Z, n, d, rng)
        f1 = expand_symbolic(g1, "out")
        f2 = expand_symbolic(g2, "out")
        s = combine(g1, g2, "sum")
        assert validate(s) == []
        assert expand_symbolic(s, "sink") == f1 + f2
        assert _matrix_width(s) <= _matrix_width(g1) + _matrix_width(g2)
        d2 = rng.randint(1, 3)
        g3 = random_pabp(Z, n, d2, rng)
        f3 = expand_symbolic(g3, "out")
        p = combine(g1, g3, "product")
        assert validate(p) == []
        assert expand_symbolic(p, "sink") == f1 * f3
        assert _matrix_width(p) <= max(_matrix_width(g1), _matrix_width(g3))


@rewrite_settings
@given(rings, st.integers(1, 3), st.integers(1, 3), st.integers(1, 3), generators)
def test_combine_preserves_the_sum_and_the_product(ring, n, d, d2, rng):
    g1, g2, g3 = random_pabp(ring, n, d, rng), random_pabp(ring, n, d, rng), random_pabp(ring, n, d2, rng)
    f1 = expand_symbolic(g1, "out")
    s, p = combine(g1, g2, "sum"), combine(g1, g3, "product")
    assert validate(s) == [] and validate(p) == []
    assert expand_symbolic(s, "sink") == f1 + expand_symbolic(g2, "out")
    assert expand_symbolic(p, "sink") == f1 * expand_symbolic(g3, "out")


def test_combine_and_homogenize_reuse_each_renamed_id():
    product = combine(build_bivariate_abp(8, 8, Z), build_gradient_abp(8, 8, Z)[0], "product",
                      "cpc_8_8", "cpc_8_8")
    homogeneous = homogenize(random_aabp(Z, 2, random.Random(7), inner=5), 3)
    for g in (product, homogeneous):
        # every edge key holds its vertices' own id strings, not equal copies
        edge_ids = {id(vid) for key in g.edges for vid in key}
        assert edge_ids <= {id(vid) for vid in g.layer}, g
        assert len(edge_ids) <= len(g.layer)


def test_sum_degree_mismatch():
    g1 = random_pabp(Z, 2, 2, random.Random(1))
    g2 = random_pabp(Z, 2, 3, random.Random(2))
    with pytest.raises(GraphError, match="degree mismatch"):
        combine(g1, g2, "sum")


# -- determinantal representation ---------------------------------------------------


def test_determinant_of_single_edge():
    m = abp_to_determinant(single_edge_graph())
    assert m.rows == 1
    assert m.entry(1, 1) == Polynomial.variable(Z, 1, 1, 1)


def test_determinant_of_length_two_chain():
    g = AbpGraph("pabp", Z, 2, 2)
    g.add_vertex("s", 0)
    g.add_vertex("m", 1)
    g.add_vertex("t", 2)
    g.set_source("s")
    g.add_edge("s", "m", var(1, 1, n=2))
    g.add_edge("m", "t", var(2, 2, n=2))
    g.add_output("out", "t")
    m = abp_to_determinant(g)
    # rows swapped (even degree): [[x22, 1], [0, x11]]
    assert m.entry(1, 1) == Polynomial.variable(Z, 2, 2, 2)
    assert m.entry(1, 2) == Polynomial.from_int(Z, 2, 1)
    assert m.entry(2, 1).is_zero()
    assert m.entry(2, 2) == Polynomial.variable(Z, 2, 1, 1)
    assert det_leibniz(m) == expand_symbolic(g, "out")


def test_determinant_pipeline_from_construction():
    # construction graph -> eliminate constants -> determinantal matrix
    g = build_bivariate_abp(2, 2, Z)
    p = eliminate_constant_edges(g, at="cpc_2_2")
    m = abp_to_determinant(p)
    assert m.rows <= p.num_layers * _matrix_width(p)
    assert det_leibniz(m) == cpc_minor_sum(2, 2, Z)


def test_determinant_on_random_programs():
    rng = random.Random(404)
    for _ in range(50):
        n = rng.randint(1, 3)
        d = rng.randint(1, 4)
        g = random_pabp(Z, n, d, rng, max_width=2)
        m = abp_to_determinant(g)
        assert m.rows <= d * _matrix_width(g)
        assert det_leibniz(m) == expand_symbolic(g, "out")
        # a layered program of degree d and width w is an affine program of
        # size at most d*w: the intermediate vertex count already obeys it
        assert len(g.layer) - 2 <= d * _matrix_width(g)


@rewrite_settings
@given(rings, st.integers(1, 3), st.integers(1, 4), generators)
def test_determinant_preserves_the_polynomial(ring, n, d, rng):
    g = random_pabp(ring, n, d, rng, max_width=2)
    m = abp_to_determinant(g)
    assert m.rows <= d * _matrix_width(g)
    assert det_leibniz(m) == expand_symbolic(g, "out")


# -- serialization ---------------------------------------------------------------


def test_json_round_trip_preserves_polynomials():
    rng = random.Random(505)
    for ring in (Z, RingDescriptor.modular(4), RingDescriptor.rationals()):
        g = random_abp(ring, 2, 3, rng)
        g2 = graph_from_json_dict(graph_to_json_dict(g))
        assert graph_to_json_dict(g2) == graph_to_json_dict(g)
        assert expand_symbolic(g2, "out") == expand_symbolic(g, "out")


def test_dot_export_shape():
    g = build_bivariate_abp(2, 2, Z)
    dot = graph_to_dot(g)
    assert dot.startswith("digraph")
    assert "rank=same" in dot
    assert "style=dashed" in dot  # constant edges
    assert '"v_0_0" -> "v_1_0"' in dot


def test_dot_escapes_a_quote_in_a_vertex_id():
    # a graph file may use any JSON string as an id; DOT escapes " as \",
    # and a backslash is doubled, so that an id ending in one ends no string
    g = AbpGraph("abp", Z, 1, 1)
    g.add_vertex('a"b', 0)
    g.add_vertex("t\\", 1)
    g.set_source('a"b')
    g.add_edge('a"b', "t\\", var(1, 1))
    g.add_output("out", "t\\")
    lines = graph_to_dot(g).splitlines()
    assert '    "a\\"b";' in lines and '    "t\\\\";' in lines
    assert '  "a\\"b" -> "t\\\\" [label="1*x[1,1]"];' in lines


def test_sub_abp_prunes_to_ancestors():
    g = build_bivariate_abp(3, 3, Z)
    s = sub_abp(g, "cpc_1_1")
    assert s.num_layers == 1
    assert expand_symbolic(s, "cpc_1_1") == cpc_minor_sum(1, 1, Z).promote(3)
    assert len(s.layer) < len(g.layer)
    # t -> s is on no source-to-output path: t is not reachable from the source
    g = AbpGraph("abp", Z, 1, 1)
    for vid, layer in (("s", 0), ("a", 1), ("t", 1)):
        g.add_vertex(vid, layer)
    g.set_source("s")
    g.add_edge("s", "a", Polynomial.variable(Z, 1, 1, 1))
    g.add_edge("t", "s", Polynomial.variable(Z, 1, 1, 1))
    g.add_output("out", "t")
    s = sub_abp(g, "out")
    assert sorted(s.layer) == ["s", "t"] and s.edges == {}
