"""The rational raw form: ``Polynomial.raw`` over ``rat`` holds an integral
coefficient as an ``int`` and any other as a ``Fraction``.

Every polynomial operation is checked against ``reference_sum_products``,
the raw kernel on tuple-form monomials with every rational coefficient a
``Fraction``, on seeded and hypothesis-drawn polynomials that mix
fractional and integral coefficients.
The oracles, ``expand_all`` and the graph reader must give the raw form too,
and the boxed views must still give canonical ``Fraction`` elements.
"""

import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from abpc.build import build_charzero_abp, build_gradient_abp
from abpc.graph import expand_all, graph_from_json_dict, graph_to_json_dict
from abpc.oracle import cpc_cycle_cover, cpc_minor_sum, det_leibniz, grad_ccp_entry
from abpc.poly import Polynomial, PolyMatrix, flatten, gradient, unflatten
from abpc.rings import RingElement, element_from_str
from helpers import (
    Q,
    Z,
    holds_rat_raw_form,
    is_canonical,
    random_abp,
    reference_sum_products,
    tuple_raw,
)

ONE = {(): Fraction(1)}
MINUS_ONE = {(): Fraction(-1)}


def rational(num: int, den: int) -> RingElement:
    return RingElement(Q, Fraction(num, den))


def poly_from(n: int, terms) -> Polynomial:
    """The rational polynomial with the given (flat indices, coefficient) terms."""
    boxed = {tuple(sorted(Counter(mono).items())): c for mono, c in terms}
    return Polynomial(Q, n, boxed)


def draw_poly(rng: random.Random, n: int, max_terms: int = 4, max_deg: int = 3) -> Polynomial:
    # denominators 1 and 2 make many coefficients integral, some as k/1 and some as 2k/2
    return poly_from(n, [(tuple(rng.randrange(n * n) for _ in range(rng.randint(0, max_deg))),
                          rational(rng.randint(-6, 6), rng.choice((1, 1, 2, 3))))
                         for _ in range(rng.randint(0, max_terms))])


def draw_scalar(rng: random.Random) -> RingElement:
    return rational(rng.randint(-4, 4), rng.choice((1, 2, 3)))


def reference(pairs, n: int) -> Polynomial:
    """The tuple-form oracle's sum of products, as a polynomial."""
    want = reference_sum_products(Q, pairs)
    assert all(type(c) is Fraction for c in want.values())
    return poly_from(n, [(m, RingElement(Q, c)) for m, c in want.items()])


def same(got: Polynomial, want: Polynomial) -> None:
    assert got == want
    assert holds_rat_raw_form(got), got.raw


def reference_partial(f: Polynomial, i: int, j: int) -> Polynomial:
    v = flatten(i, j, f.ambient_n)
    derived = {}
    for mono, c in tuple_raw(f.raw).items():
        if v in mono:
            rest = list(mono)
            rest.remove(v)
            derived[tuple(rest)] = Fraction(c) * mono.count(v)
    return reference(((derived, ONE),), f.ambient_n)


def check_operations(f: Polynomial, g: Polynomial, c: RingElement, rng: random.Random) -> None:
    n = f.ambient_n
    for p in (f, g):
        assert holds_rat_raw_form(p)
        assert all(is_canonical(e, Q) for e in p.terms.values())
        assert type(p.constant_term().value) is Fraction
        assert Polynomial(Q, n, p.terms) == p
    fr, gr = tuple_raw(f.raw), tuple_raw(g.raw)
    same(f + g, reference(((fr, ONE), (gr, ONE)), n))
    same(f - g, reference(((fr, ONE), (gr, MINUS_ONE)), n))
    same(-f, reference(((fr, MINUS_ONE),), n))
    same(f * g, reference(((fr, gr),), n))
    same(f.scale(c), reference(((fr, {(): c.value}),), n))
    i, j = rng.randint(1, n), rng.randint(1, n)
    same(f.partial(i, j), reference_partial(f, i, j))
    promoted = {tuple(flatten(*unflatten(v, n), n + 1) for v in mono): Fraction(c)
                for mono, c in fr.items()}
    same(f.promote(n + 1), reference(((promoted, ONE),), n + 1))
    grad = gradient(f, n)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            same(grad.entry(i, j), reference_partial(f, i, j))


def check_matrices(a: PolyMatrix, b: PolyMatrix) -> None:
    n, k = a.ambient_n, a.rows
    prod = a * b
    for r in range(1, k + 1):
        for s in range(1, k + 1):
            same(prod.entry(r, s), reference([(tuple_raw(a.entry(r, t).raw), tuple_raw(b.entry(t, s).raw))
                                              for t in range(1, k + 1)], n))
    same(a.trace(), reference([(tuple_raw(a.entry(r, r).raw), ONE) for r in range(1, k + 1)], n))


@pytest.mark.parametrize("seed", range(40))
def test_operations_match_the_fraction_kernel(seed):
    rng = random.Random(f"raw-form/{seed}")
    n = rng.randint(1, 3)
    check_operations(draw_poly(rng, n), draw_poly(rng, n), draw_scalar(rng), rng)
    k = rng.randint(1, 3)
    a, b = ([draw_poly(rng, n, 3, 2) for _ in range(k * k)] for _ in range(2))
    check_matrices(PolyMatrix(Q, n, k, k, a), PolyMatrix(Q, n, k, k, b))


coefficients = st.builds(Fraction, st.integers(-12, 12), st.sampled_from((1, 1, 2, 3, 4)))


@st.composite
def polys(draw, n: int):
    monos = st.lists(st.integers(0, n * n - 1), max_size=3).map(tuple)
    terms = draw(st.lists(st.tuples(monos, coefficients.map(lambda c: RingElement(Q, c))),
                          max_size=5))
    return poly_from(n, terms)


@st.composite
def cases(draw):
    n = draw(st.integers(1, 3))
    return draw(polys(n)), draw(polys(n)), RingElement(Q, draw(coefficients)), draw(st.integers(0, 99))


@settings(max_examples=150, deadline=None)
@given(cases())
def test_operations_match_the_fraction_kernel_on_drawn_polynomials(case):
    f, g, c, seed = case
    check_operations(f, g, c, random.Random(seed))
    check_matrices(PolyMatrix(Q, f.ambient_n, 1, 1, [f]), PolyMatrix(Q, f.ambient_n, 1, 1, [g]))


def test_integral_coefficients_are_ints_and_print_as_fractions():
    f = Polynomial(Q, 2, {((0, 1),): rational(4, 2), (): rational(-3, 1), ((3, 2),): rational(1, 2)})
    assert tuple_raw(f.raw) == {(0,): 2, (): -3, (3, 3): Fraction(1, 2)}
    assert [type(c) for c in f.raw.values()] == [int, int, Fraction]
    assert tuple_raw(Polynomial.variable(Q, 2, 1, 2).raw) == {(1,): 1}
    assert type(tuple_raw(Polynomial.from_int(Q, 2, 5).raw)[()]) is int
    assert f.text() == "1/2*x[2,2]^2 + 2/1*x[1,1] + -3/1"
    assert f.constant_term() == rational(-3, 1) and type(f.constant_term().value) is Fraction
    half = f.scale(rational(1, 2))
    assert tuple_raw(half.raw) == {(0,): 1, (): Fraction(-3, 2), (3, 3): Fraction(1, 4)}
    assert holds_rat_raw_form(half) and holds_rat_raw_form(half.scale(rational(2, 1)))


@pytest.mark.parametrize("n", range(1, 5))
def test_oracles_give_the_integer_coefficients(n):
    for d in range(n + 1):
        want = cpc_minor_sum(n, d, Z).raw
        for p in (cpc_minor_sum(n, d, Q), cpc_cycle_cover(n, d, Q)):
            assert p.raw == want and holds_rat_raw_form(p)
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            p = grad_ccp_entry(n, n - 1, a, b, Q)
            assert p.raw == grad_ccp_entry(n, n - 1, a, b, Z).raw and holds_rat_raw_form(p)


def test_leibniz_determinant_holds_the_raw_form():
    for seed in range(10):
        rng = random.Random(f"raw-form/det/{seed}")
        k = rng.randint(1, 3)
        a = PolyMatrix(Q, 2, k, k, [draw_poly(rng, 2, 3, 1) for _ in range(k * k)])
        det = det_leibniz(a)
        assert holds_rat_raw_form(det)
        if k == 2:
            entry = [[tuple_raw(a.entry(r, s).raw) for s in (1, 2)] for r in (1, 2)]
            bc = reference(((entry[0][1], entry[1][0]),), 2)
            same(det, reference(((entry[0][0], entry[1][1]), (tuple_raw(bc.raw), MINUS_ONE)), 2))


def test_expansions_and_read_labels_hold_the_raw_form():
    programs = [build_charzero_abp(4, 4, Q), build_gradient_abp(4, 4, Q)[0]]
    programs += [random_abp(Q, 2, 3, random.Random(f"raw-form/abp/{seed}")) for seed in range(10)]
    for g in programs:
        assert all(holds_rat_raw_form(p) for p in expand_all(g).values())
        read = graph_from_json_dict(graph_to_json_dict(g))
        assert all(holds_rat_raw_form(lab) for lab in read.edges.values())
        assert {k: lab.raw for k, lab in read.edges.items()} == {k: lab.raw for k, lab in g.edges.items()}


def test_read_labels_hold_integral_text_as_ints():
    data = {"ring": "rat", "n": 1, "d": 1, "flavor": "abp", "source": "s",
            "vertices": [{"id": "s", "layer": 0}, {"id": "t", "layer": 1}],
            "edges": [{"from": "s", "to": "t", "const": "0/5",
                       "linear": [{"i": 1, "j": 1, "coeff": "6/3"}]}],
            "outputs": {"out": "t"}}
    label = graph_from_json_dict(data).edges[("s", "t")]
    raw = tuple_raw(label.raw)
    assert raw == {(0,): 2} and type(raw[(0,)]) is int
    assert element_from_str(Q, "6/3") == label.terms[((0, 1),)]
