"""Numeric evaluation and symbolic expansion: ``evaluate_all``'s raw-value
sweep against a boxed sweep and against symbolic expansion, ``expand_all``'s
raw-coefficient sweep against a sweep on polynomials, and their input
checks."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from abpc.graph import GraphError, evaluate_all, expand_all
from abpc.poly import Polynomial, flatten
from abpc.rings import RingDescriptor, int_embed
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
