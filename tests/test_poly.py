"""Polynomial layer: arithmetic, calculus, substitution, matrix powers."""

import random

import pytest

from abpc.poly import Polynomial, PolyMatrix, PolyError, gradient
from abpc.oracle import cpc_minor_sum
from abpc.rings import RingDescriptor, descriptor_from_spec, int_embed
from helpers import (RING_FAMILIES, is_canonical, random_matrix, random_nonzero, random_poly,
                     reference_restrict_to_diagonal)

Z = RingDescriptor.integers()
Z2 = RingDescriptor.modular(2)
Z4 = RingDescriptor.modular(4)


def x(n, i, j, ring=Z):
    return Polynomial.variable(ring, n, i, j)


def test_product_of_sum_and_difference():
    f = x(2, 1, 1) + x(2, 2, 2)
    g = x(2, 1, 1) - x(2, 2, 2)
    assert f * g == x(2, 1, 1) * x(2, 1, 1) - x(2, 2, 2) * x(2, 2, 2)


def test_zero_divisors_collapse_products_and_degree_drops():
    two_x = x(1, 1, 1, Z4).scale(int_embed(Z4, 2))
    prod = two_x * two_x
    assert prod.is_zero()
    assert prod.degree == 0  # strict drop below deg f + deg g


def test_additive_identity():
    rng = random.Random(7)
    for _ in range(20):
        f = random_poly(Z, 3, rng)
        assert f + Polynomial.zero(Z, 3) == f


def test_ambient_mismatch_needs_promotion():
    with pytest.raises(PolyError):
        x(2, 1, 1) + x(3, 1, 1)
    assert x(2, 1, 1).promote(3) == x(3, 1, 1)
    assert (x(2, 1, 1) * x(2, 2, 2)).promote(4) == x(4, 1, 1) * x(4, 2, 2)


def test_partial_derivative_examples():
    assert (x(2, 1, 1) * x(2, 2, 2)).partial(1, 1) == x(2, 2, 2)
    det2 = x(2, 1, 1) * x(2, 2, 2) - x(2, 1, 2) * x(2, 2, 1)
    assert det2.partial(1, 2) == -x(2, 2, 1)
    # characteristic 2 kills the derivative of a square
    sq = x(1, 1, 1, Z2) * x(1, 1, 1, Z2)
    assert sq.partial(1, 1).is_zero()


def test_product_rule_on_random_pairs():
    rng = random.Random(11)
    for _ in range(50):
        n = rng.randint(1, 3)
        f = random_poly(Z, n, rng, max_terms=6)
        g = random_poly(Z, n, rng, max_terms=6)
        i, j = rng.randint(1, n), rng.randint(1, n)
        lhs = (f * g).partial(i, j)
        rhs = f.partial(i, j) * g + f * g.partial(i, j)
        assert lhs == rhs


def test_gradient_of_two_by_two_determinant():
    det2 = x(2, 1, 1) * x(2, 2, 2) - x(2, 1, 2) * x(2, 2, 1)
    grad = gradient(det2, 2)
    assert grad.entry(1, 1) == x(2, 2, 2)
    assert grad.entry(1, 2) == -x(2, 2, 1)
    assert grad.entry(2, 1) == -x(2, 1, 2)
    assert grad.entry(2, 2) == x(2, 1, 1)


def test_gradient_of_trace_is_identity():
    for n in range(1, 7):
        tr = PolyMatrix.variables(Z, n).trace()
        assert gradient(tr, n) == PolyMatrix.identity(Z, n, n)


def test_trace_of_gradient_recursion():
    # trace of the gradient of the degree-2 coefficient at n=3
    g = gradient(cpc_minor_sum(3, 2, Z), 3)
    want = cpc_minor_sum(3, 1, Z).scale(int_embed(Z, 2))
    assert g.trace() == want


def test_homogeneous_components():
    one = Polynomial.from_int(Z, 2, 1)
    f = one + x(2, 1, 1) + x(2, 1, 1) * x(2, 2, 2)
    assert f.homogeneous_component(2) == x(2, 1, 1) * x(2, 2, 2)
    assert f.homogeneous_component(5).is_zero()
    g = (one + x(2, 1, 1)) * (one + x(2, 2, 2))
    assert g.homogeneous_component(1) == x(2, 1, 1) + x(2, 2, 2)
    rng = random.Random(3)
    for _ in range(20):
        f = random_poly(Z, 3, rng, max_terms=6)
        total = Polynomial.zero(Z, 3)
        for k in range(f.degree + 1):
            total = total + f.homogeneous_component(k)
        assert total == f


def test_substitute_examples():
    det2 = x(2, 1, 1) * x(2, 2, 2) - x(2, 1, 2) * x(2, 2, 1)
    a = [[int_embed(Z, 1), int_embed(Z, 2)], [int_embed(Z, 3), int_embed(Z, 4)]]
    assert det2.substitute(a) == int_embed(Z, -2)
    tr = cpc_minor_sum(2, 1, Z4)
    two = int_embed(Z4, 2)
    zero = int_embed(Z4, 0)
    assert tr.substitute([[two, zero], [zero, two]]).is_zero()
    rng = random.Random(5)
    for _ in range(10):
        f = random_poly(Z, 2, rng)
        zeros = [[int_embed(Z, 0)] * 2 for _ in range(2)]
        assert f.substitute(zeros) == f.constant_term()


def test_substitution_is_a_ring_homomorphism():
    for name, ring in RING_FAMILIES.items():
        rng = random.Random(hash(name) % 10000)
        for _ in range(100):
            n = rng.randint(1, 3)
            f = random_poly(ring, n, rng)
            g = random_poly(ring, n, rng)
            a = random_matrix(ring, n, rng)
            assert (f * g).substitute(a) == f.substitute(a) * g.substitute(a)
            assert (f + g).substitute(a) == f.substitute(a) + g.substitute(a)


def test_matrix_product_examples():
    x2 = PolyMatrix.variables(Z, 2)
    assert PolyMatrix.identity(Z, 2, 2) * x2 == x2
    assert x2 * PolyMatrix.identity(Z, 2, 2) == x2
    m = PolyMatrix.zeros(Z, 2, 2, 3)
    with pytest.raises(PolyError, match="inner dimensions"):
        m * m
    # frozen hand expansion, checked once against an independent triple loop
    want = x(2, 2, 1) * x(2, 1, 2) + x(2, 2, 2) * x(2, 2, 2)
    assert (x2 * x2).entry(2, 2) == want
    naive = [[Polynomial.zero(Z, 2) for _ in range(2)] for _ in range(2)]
    for a in range(1, 3):
        for b in range(1, 3):
            for k in range(1, 3):
                naive[a - 1][b - 1] = naive[a - 1][b - 1] + x(2, a, k) * x(2, k, b)
    assert naive[1][1] == want


def test_canonical_text_ordering():
    det2 = x(2, 1, 1) * x(2, 2, 2) - x(2, 1, 2) * x(2, 2, 1)
    assert det2.text() == "1*x[1,1]*x[2,2] + -1*x[1,2]*x[2,1]"
    assert Polynomial.zero(Z, 2).text() == "0"
    f = Polynomial.from_int(Z, 1, 3) + x(1, 1, 1) * x(1, 1, 1)
    assert f.text() == "1*x[1,1]^2 + 3"
    # oracle: descending (degree, dense exponent vector), one term at a time
    rng = random.Random(155)
    for ring in RING_FAMILIES.values():
        for _ in range(60):
            n = rng.randint(1, 3)
            terms = {}
            for _ in range(rng.randint(1, 6)):
                flats = sorted(rng.sample(range(n * n), rng.randint(0, min(n * n, 4))))
                terms[tuple((v, rng.randint(1, 5)) for v in flats)] = random_nonzero(ring, rng)

            def dense(mono):
                vec = [0] * (n * n)
                for v, e in mono:
                    vec[v] = e
                return vec

            want = sorted(terms, key=lambda m: (sum(e for _, e in m), dense(m)), reverse=True)
            assert Polynomial(ring, n, terms).text() == " + ".join(
                Polynomial(ring, n, {m: terms[m]}).text() for m in want)


def test_boxed_view_rebuilds_the_polynomial():
    # products by (m/2) f collapse the even coefficients over Z/4 and Z/6
    rng = random.Random(77)
    for spec in ("int", "mod:4", "mod:6", "rat"):
        ring = descriptor_from_spec(spec)
        half = int_embed(ring, ring.modulus // 2 or 1)
        for _ in range(60):
            n = rng.randint(1, 3)
            f, g = random_poly(ring, n, rng, max_terms=5), random_poly(ring, n, rng, max_terms=5)
            for p in (f, f * g, f * g.scale(half), (f + g) * f.scale(half)):
                terms = p.terms
                assert Polynomial(p.ring, p.ambient_n, terms) == p
                for mono, c in terms.items():
                    assert list(mono) == sorted(mono) and len({v for v, _ in mono}) == len(mono)
                    assert all(e >= 1 for _v, e in mono)
                    assert is_canonical(c, ring), (spec, p.text())


def test_restrict_to_diagonal():
    f = x(2, 1, 1) * x(2, 2, 2) - x(2, 1, 2) * x(2, 2, 1)
    assert f.restrict_to_diagonal() == x(2, 1, 1) * x(2, 2, 2)


def test_restrict_to_diagonal_matches_the_decoding_reference():
    # at ambient 40 some diagonal variables are never interned; powers of
    # diagonal variables keep a term only once every exponent is divided out
    rng = random.Random(31)
    for name, ring in RING_FAMILIES.items():
        for n in (1, 2, 3, 5, 40):
            for _ in range(30):
                f = random_poly(ring, n, rng, max_terms=6, max_deg=5)
                f = f * f + random_poly(ring, n, rng, max_terms=3, max_deg=2)
                assert f.restrict_to_diagonal() == reference_restrict_to_diagonal(f), (name, n)
        c = cpc_minor_sum(5, 3, ring) * cpc_minor_sum(5, 2, ring)
        assert c.restrict_to_diagonal() == reference_restrict_to_diagonal(c), name


def test_variable_flattening_is_a_bijection():
    from abpc.poly import flatten, unflatten

    for n in range(1, 5):
        flats = [flatten(i, j, n) for i in range(1, n + 1) for j in range(1, n + 1)]
        assert sorted(flats) == list(range(n * n))
        for v in range(n * n):
            i, j = unflatten(v, n)
            assert flatten(i, j, n) == v
        for i, j in ((0, 1), (1, n + 1)):
            with pytest.raises(PolyError, match=f"outside ambient {n}"):
                flatten(i, j, n)
