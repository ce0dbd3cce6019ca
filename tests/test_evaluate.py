"""Numeric evaluation and symbolic expansion: the sweep plan's order and
its reuse until the graph changes, ``evaluate_all``'s integer sweep
against a boxed sweep and against symbolic expansion, ``expand_all``'s
raw-coefficient sweep against a sweep on polynomials, and their input
checks."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from abpc.build import build_bivariate_abp, build_charzero_abp, build_gradient_abp
from abpc.graph import (
    AbpGraph,
    GraphError,
    _compile,
    constant_edge_elimination_steps,
    evaluate_all,
    expand_all,
    topological_order,
    validate,
)
from abpc.poly import Polynomial, flatten
from abpc.rings import RingDescriptor, RingElement, int_embed
from helpers import (
    FLAVORS,
    RING_FAMILIES,
    Q,
    Z,
    Z4,
    Z7,
    boxed_sweep,
    is_canonical,
    poly_sweep,
    random_abp,
    random_linear_label,
    random_matrix,
    random_nonzero,
    random_program,
)

def canonical(values):
    """Values with their Python type, since equal values may differ in type."""
    return {name: (type(v.value), v) for name, v in values.items()}


@pytest.mark.parametrize("flavor", FLAVORS)
@pytest.mark.parametrize("ring_name", sorted(RING_FAMILIES))
def test_evaluate_all_equals_boxed_sweep(flavor, ring_name):
    ring = RING_FAMILIES[ring_name]
    for seed in range(40):
        rng = random.Random(f"{flavor}/{ring_name}/{seed}")
        n, d = rng.randint(1, 3), rng.randint(1, 4)
        g = random_program(flavor, ring, n, d, rng)
        g.add_output("src", g.source)
        a = random_matrix(ring, n, rng)
        assert canonical(evaluate_all(g, a)) == canonical(boxed_sweep(g, a)), (flavor, ring_name, seed)


# Derandomized and without an example database, so every run checks the
# same examples.
PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@st.composite
def programs(draw):
    ring = RING_FAMILIES[draw(st.sampled_from(sorted(RING_FAMILIES)))]
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n, d = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    return random_program(draw(st.sampled_from(FLAVORS)), ring, n, d, rng), rng


@PROPERTY
@given(programs())
def test_evaluate_all_equals_substituted_expansion(case):
    g, rng = case
    a = random_matrix(g.ring, g.ambient_n, rng)
    want = {name: f.substitute(a) for name, f in expand_all(g).items()}
    assert canonical(evaluate_all(g, a)) == canonical(want)


EXPAND_RINGS = {"int": Z, "mod4": Z4, "mod6": RingDescriptor.modular(6), "rat": Q}


@st.composite
def expansion_programs(draw):
    """A random program whose source is also an output, plus two side
    outputs: ``cancel`` sums x*x and x*(-x), and ``divisor`` multiplies
    2x by (m/2)x, which is zero over Z/4 and Z/6."""
    ring = EXPAND_RINGS[draw(st.sampled_from(sorted(EXPAND_RINGS)))]
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n, d = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    g = random_program(draw(st.sampled_from(FLAVORS)), ring, n, d, rng)
    g.add_output("src", g.source)
    x = flatten(rng.randint(1, n), rng.randint(1, n), n)

    def linear(c: int) -> Polynomial:
        return Polynomial(ring, n, {((x, 1),): int_embed(ring, c)})

    for vid, layer in (("h1", 1), ("h2", 1), ("cancel", 2), ("h3", 1), ("divisor", 2)):
        g.add_vertex(vid, layer)
    g.add_edge(g.source, "h1", linear(1))
    g.add_edge(g.source, "h2", linear(1))
    g.add_edge("h1", "cancel", linear(1))
    g.add_edge("h2", "cancel", linear(-1))
    g.add_edge(g.source, "h3", linear(2))
    g.add_edge("h3", "divisor", linear(ring.modulus // 2 if ring.modulus else 2))
    g.add_output("cancel", "cancel")
    g.add_output("divisor", "divisor")
    return g


@PROPERTY
@given(expansion_programs())
def test_expand_all_equals_polynomial_sweep(g):
    got = expand_all(g)
    assert got == poly_sweep(g)
    assert got["cancel"].is_zero()
    assert got["divisor"].is_zero() == (g.ring.modulus != 0)
    for f in got.values():
        assert f.ring == g.ring and f.ambient_n == g.ambient_n
        assert all(is_canonical(c, g.ring) for c in f.terms.values())


@PROPERTY
@given(programs())
def test_evaluate_all_rejects_bad_input(case):
    g, rng = case
    n, ring = g.ambient_n, g.ring
    a = random_matrix(ring, n, rng)
    evaluate_all(g, a)

    foreign = Z7 if ring != Z7 else Z
    wrong_ring = [row[:] for row in a]
    wrong_ring[rng.randrange(n)][rng.randrange(n)] = random_nonzero(foreign, rng)
    with pytest.raises(GraphError, match="different ring"):
        evaluate_all(g, wrong_ring)

    with pytest.raises(GraphError, match="dimension"):
        evaluate_all(g, random_matrix(ring, n + 1, rng))
    ragged = [row[:] for row in a]
    ragged[rng.randrange(n)].pop()
    with pytest.raises(GraphError, match="dimension"):
        evaluate_all(g, ragged)

    source, g.source = g.source, None
    for sweep in (lambda: evaluate_all(g, a), lambda: expand_all(g)):
        with pytest.raises(GraphError, match="missing source vertex"):
            sweep()
    g.source = source

    layer = rng.choice(sorted(set(g.layer.values())))
    g.add_vertex("cycle_a", layer)
    g.add_vertex("cycle_b", layer)
    c = Polynomial.constant(ring, n, random_nonzero(ring, rng))
    g.add_edge("cycle_a", "cycle_b", c)
    g.add_edge("cycle_b", "cycle_a", c)
    with pytest.raises(GraphError, match="constant-edge cycle"):
        evaluate_all(g, a)


# -- the sweep plan ------------------------------------------------------------------


def constructions(n, ring):
    """The three constructions of size n that ``ring`` admits."""
    out = [build_gradient_abp(n, n, ring)[0], build_bivariate_abp(n, n, ring)]
    if ring.contains_rationals:
        out.append(build_charzero_abp(n, n, ring))
    return out


def assert_plan_is_the_full_sort(g):
    """The plan's order is the sort over every edge, and its flat tail and
    slot arrays, grouped by head through the offsets, hold exactly the
    graph's edges and labels."""
    index, offsets, tails, slots, labels = _compile(g)
    order = sorted(index, key=index.__getitem__)
    assert order == topological_order(g.layer_order(), g.edges), g
    assert len(offsets) == len(order) + 1 and offsets[0] == 0 and list(offsets) == sorted(offsets)
    planned = {(order[tails[i]], order[v]): labels[slots[i]]
               for v in range(len(order)) for i in range(offsets[v], offsets[v + 1])}
    assert len(planned) == offsets[-1] == len(tails) == len(slots) == len(g.edges)
    assert all(g.edges[key] is lab for key, lab in planned.items())


@pytest.mark.parametrize("ring_name", sorted(RING_FAMILIES))
def test_plan_order_on_constructions(ring_name):
    for n in range(1, 9):
        for g in constructions(n, RING_FAMILIES[ring_name]):
            assert_plan_is_the_full_sort(g)


@pytest.mark.parametrize("flavor", FLAVORS)
def test_plan_order_on_random_programs(flavor):
    for seed in range(200):
        rng = random.Random(f"plan/{flavor}/{seed}")
        ring = RING_FAMILIES[rng.choice(sorted(RING_FAMILIES))]
        assert_plan_is_the_full_sort(random_program(flavor, ring, rng.randint(1, 3), rng.randint(1, 4), rng))


def edge_down_a_layer(ring, rng):
    """An abp with edges from layer 2 to layer 1: sorting only the edges
    that do not go up a layer puts c before its tail z."""
    g = AbpGraph("abp", ring, 2, 2)
    for vid, layer in (("s", 0), ("a", 1), ("z", 1), ("c", 2), ("w", 2)):
        g.add_vertex(vid, layer)
    g.set_source("s")
    for u, v in (("s", "w"), ("w", "z"), ("z", "c"), ("c", "a")):
        g.add_edge(u, v, random_linear_label(ring, 2, rng))
    for vid in ("a", "c"):
        g.add_output(vid, vid)
    return g


def edge_into_source(ring, rng):
    """A random abp whose source has an in-edge from a vertex in layer 1
    that the source does not reach, so it sweeps after that vertex."""
    g = random_abp(ring, 2, 3, rng)
    g.add_vertex("pre", 1)
    g.add_vertex("pre_in", 1)
    g.add_edge("pre_in", "pre", Polynomial.constant(ring, 2, random_nonzero(ring, rng)))
    g.add_edge("pre", g.source, random_linear_label(ring, 2, rng))
    g.add_output("src", g.source)
    return g


@pytest.mark.parametrize("ring_name", sorted(RING_FAMILIES))
@pytest.mark.parametrize("make", [edge_down_a_layer, edge_into_source])
def test_graphs_outside_every_flavor_sweep_in_the_full_order(make, ring_name):
    ring = RING_FAMILIES[ring_name]
    for seed in range(20):
        rng = random.Random(f"outside/{make.__name__}/{ring_name}/{seed}")
        g = make(ring, rng)
        assert_plan_is_the_full_sort(g)
        a = random_matrix(ring, 2, rng)
        assert canonical(evaluate_all(g, a)) == canonical(boxed_sweep(g, a)), seed


@pytest.mark.parametrize("make", [edge_down_a_layer, edge_into_source])
def test_constant_edge_cycle_still_raises_outside_every_flavor(make):
    rng = random.Random(f"outside/cycle/{make.__name__}")
    g = make(Z, rng)
    for vid in ("x", "y"):
        g.add_vertex(vid, 1)
    c = Polynomial.constant(Z, 2, int_embed(Z, 2))
    g.add_edge("x", "y", c)
    g.add_edge("y", "x", c)
    with pytest.raises(GraphError, match="constant-edge cycle"):
        evaluate_all(g, random_matrix(Z, 2, rng))


def test_cycle_through_an_edge_down_a_layer_raises():
    # the edges that do not go up a layer sort, but the cycle a -> w -> z
    # -> c -> a closes through edges up a layer
    rng = random.Random("outside/cycle/down")
    g = edge_down_a_layer(Z, rng)
    g.add_edge("a", "w", random_linear_label(Z, 2, rng))
    with pytest.raises(GraphError, match="constant-edge cycle"):
        evaluate_all(g, random_matrix(Z, 2, rng))


# -- the plan kept on the graph -------------------------------------------------------


def open_a_path(g, rng):
    """New vertices in layers 1..d-1 on a new path from the source to the output."""
    tail = g.source
    for lay in range(1, g.num_layers):
        g.add_vertex(f"new{lay}", lay)
        g.add_edge(tail, f"new{lay}", random_linear_label(g.ring, g.ambient_n, rng))
        tail = f"new{lay}"
    g.add_edge(tail, g.outputs["out"], random_linear_label(g.ring, g.ambient_n, rng))


def add_a_lone_output(g, rng):
    g.add_vertex("lone", rng.randint(0, g.num_layers))
    g.add_output("lone", "lone")


def merge_into_an_edge(g, rng):
    key = rng.choice(sorted(g.edges))
    g.add_edge(*key, random_linear_label(g.ring, g.ambient_n, rng))


def cancel_an_edge(g, rng):
    key = rng.choice(sorted(g.edges))
    g.add_edge(*key, -g.edges[key])
    assert key not in g.edges


def move_the_source(g, rng):
    g.set_source(rng.choice(sorted(v for v, lay in g.layer.items() if lay == 1)))


@pytest.mark.parametrize("ring_name", sorted(RING_FAMILIES))
@pytest.mark.parametrize("write", [open_a_path, add_a_lone_output, merge_into_an_edge,
                                   cancel_an_edge, move_the_source])
def test_writes_after_an_evaluation_drop_the_plan(write, ring_name):
    ring = RING_FAMILIES[ring_name]
    for seed in range(20):
        rng = random.Random(f"cached/{write.__name__}/{ring_name}/{seed}")
        g = random_abp(ring, 2, rng.randint(2, 4), rng)
        for vid in g.layer:
            g.add_output(vid, vid)
        a = random_matrix(ring, 2, rng)
        evaluate_all(g, a)
        write(g, rng)
        assert canonical(evaluate_all(g, a)) == canonical(boxed_sweep(g, a)), seed
        assert_plan_is_the_full_sort(g)


def assert_elimination_steps_sweep_their_own_edges(g, a):
    for snapshot in constant_edge_elimination_steps(g, "out"):
        # every vertex as an output, since the steps keep only the output's value
        for vid in snapshot.layer:
            snapshot.add_output(vid, vid)
        assert canonical(evaluate_all(snapshot, a)) == canonical(boxed_sweep(snapshot, a))
        assert_plan_is_the_full_sort(snapshot)


@pytest.mark.parametrize("ring_name", sorted(RING_FAMILIES))
def test_every_elimination_step_sweeps_its_own_edges(ring_name):
    ring = RING_FAMILIES[ring_name]
    for seed in range(10):
        rng = random.Random(f"cached/elimination/{ring_name}/{seed}")
        g = random_abp(ring, 2, 3, rng)
        assert_elimination_steps_sweep_their_own_edges(g, random_matrix(ring, 2, rng))


def test_elimination_step_that_only_removes_an_edge():
    # removing z -> v reroutes s -> z -> v onto s -> v, which cancels it;
    # v is left without in-edges, so removing v -> w reroutes nothing
    g = AbpGraph("abp", Z, 1, 2)
    for vid, layer in (("s", 0), ("z", 1), ("v", 1), ("w", 1), ("t", 2)):
        g.add_vertex(vid, layer)
    g.set_source("s")
    x = Polynomial(Z, 1, {((0, 1),): int_embed(Z, 1)})
    for u, v, label in (("s", "z", x), ("s", "v", x), ("z", "v", Polynomial.from_int(Z, 1, -1)),
                        ("v", "w", Polynomial.from_int(Z, 1, 2)), ("w", "t", x)):
        g.add_edge(u, v, label)
    g.add_output("out", "t")
    assert_elimination_steps_sweep_their_own_edges(g, [[int_embed(Z, 3)]])


def test_add_output_keeps_the_plan():
    rng = random.Random("cached/add_output")
    for ring in RING_FAMILIES.values():
        g = random_abp(ring, 2, 3, rng)
        a = random_matrix(ring, 2, rng)
        evaluate_all(g, a)
        plan = _compile(g)
        g.add_output("mid", rng.choice(sorted(v for v, lay in g.layer.items() if lay == 2)))
        assert canonical(evaluate_all(g, a)) == canonical(boxed_sweep(g, a))
        assert _compile(g) is plan


# -- rationals swept on integers --------------------------------------------------


def rational_matrix(n, rng, denominators):
    """Entries p/q with q drawn from ``denominators`` (possibly negative),
    a third of them zero."""
    def entry():
        numerator = rng.randint(-9, 9) if rng.random() > 1 / 3 else 0
        return RingElement(Q, Fraction(numerator, rng.choice(denominators)))

    return [[entry() for _ in range(n)] for _ in range(n)]


DENOMINATORS = {
    "small": (1, 2, 3, 4),
    "negative": (-1, -2, -3, 5, -7),
    "coprime": (7, 11, 13, 17, 19, 23),
    "large": (2**61 - 1, 10**12 + 39, -(3**40), 1),
    "integer": (1, -1),
}


@pytest.mark.parametrize("dens", sorted(DENOMINATORS))
def test_rational_sweep_on_constructions(dens):
    rng = random.Random(f"rational/{dens}")
    for n in range(1, 7):
        for g in constructions(n, Q):
            a = rational_matrix(n, rng, DENOMINATORS[dens])
            got = canonical(evaluate_all(g, a))
            assert got == canonical(boxed_sweep(g, a)), (dens, g)
            assert all(kind is Fraction for kind, _v in got.values())


@pytest.mark.parametrize("dens", sorted(DENOMINATORS))
def test_rational_sweep_on_random_programs(dens):
    for seed in range(60):
        rng = random.Random(f"rational/random/{dens}/{seed}")
        n, d = rng.randint(1, 3), rng.randint(1, 4)
        flavor = FLAVORS[seed % 3]
        g = random_program(flavor, Q, n, d, rng) if seed % 4 else edge_into_source(Q, rng)
        g.add_output("source", g.source)
        a = rational_matrix(g.ambient_n, rng, DENOMINATORS[dens])
        got = canonical(evaluate_all(g, a))
        assert got == canonical(boxed_sweep(g, a)), (dens, seed)
        assert all(kind is Fraction for kind, _v in got.values())


# -- rationals expanded on integers -------------------------------------------------


# (tail, head, constant, {(i, j): coefficient}) on a 2 x 2 matrix; output
# ``whole`` at u is x11*x22 from a, 42*x12*x22 - 5*x11*x22 from b and
# 6*x12*x21 from w, so its coefficients are integers
MIXED_EDGES = [
    ("s", "a", 0, {(1, 1): Fraction(1, 7)}),
    ("s", "b", 0, {(1, 2): 1}),
    ("s", "w", 0, {(2, 1): 2}),
    ("a", "b", Fraction(-5, 6), {}),
    ("b", "c", Fraction(1, 13), {}),
    ("a", "t", 0, {(2, 1): Fraction(1, 11)}),
    ("c", "t", 0, {(2, 2): 1}),
    ("a", "u", 0, {(2, 2): 7}),
    ("b", "u", 0, {(2, 2): 42}),
    ("w", "u", 0, {(1, 2): 3}),
]
# the aabp's edges that skip topological indices
SKIP_EDGES = [
    ("s", "t", Fraction(1, 13), {}),
    ("s", "u", 3, {(1, 1): -1}),
    ("a", "c", 0, {(1, 2): Fraction(1, 11)}),
]
MIXED_LAYERS = {
    "abp": {"s": 0, "a": 1, "b": 1, "c": 1, "w": 1, "t": 2, "u": 2},
    "aabp": {"s": 0, "a": 1, "w": 1, "b": 2, "c": 3, "t": 4, "u": 4},
}


def mixed_length_program(flavor, ring):
    """A program whose vertices are reached by paths of different lengths,
    through constant edges inside a layer (``abp``) or also through edges
    that skip indices (``aabp``).  Over ``rat`` the label denominators are
    7, 11, 13 and 6; over another ring each coefficient p/q becomes p*q."""
    def element(q):
        return RingElement(ring, q) if ring == Q else int_embed(ring, q.numerator * q.denominator)

    layers = MIXED_LAYERS[flavor]
    g = AbpGraph(flavor, ring, 2, max(layers.values()))
    for vid, layer in layers.items():
        g.add_vertex(vid, layer)
    g.set_source("s")
    for u, v, const, linear in MIXED_EDGES + (SKIP_EDGES if flavor == "aabp" else []):
        terms = {((flatten(i, j, 2), 1),): element(Fraction(c)) for (i, j), c in linear.items()}
        terms[()] = element(Fraction(const))
        g.add_edge(u, v, Polynomial(ring, 2, terms))
    for name, vid in (("src", "s"), ("a", "a"), ("t", "t"), ("whole", "u")):
        g.add_output(name, vid)
    assert validate(g) == []
    return g


@pytest.mark.parametrize("flavor", sorted(MIXED_LAYERS))
def test_rational_expansion_rescales_each_path_and_boxes_every_output(flavor):
    g = mixed_length_program(flavor, Q)
    got = expand_all(g)
    assert got == poly_sweep(g)
    assert all(type(c) is Fraction for f in got.values() for c in f.raw.values())
    assert got["whole"].raw and all(c.denominator == 1 for c in got["whole"].raw.values())
    for ring in (Z, Z4):
        g = mixed_length_program(flavor, ring)
        got = expand_all(g)
        assert got == poly_sweep(g)
        assert all(is_canonical(c, ring) for f in got.values() for c in f.terms.values())


def test_rational_expansion_into_the_source():
    # the source sweeps after its tails, so its 1 is scaled to their exponent
    for seed in range(20):
        g = edge_into_source(Q, random.Random(f"expand/source/{seed}"))
        got = expand_all(g)
        assert got == poly_sweep(g), seed
        assert all(type(c) is Fraction for f in got.values() for c in f.raw.values())
