"""Ring arithmetic: canonical forms, axioms, and the embedding Z -> R."""

import operator
import random
from fractions import Fraction

import pytest

from abpc.rings import (
    RingDescriptor,
    RingError,
    descriptor_from_spec,
    descriptor_to_spec,
    element_from_str,
    element_to_str,
    int_embed,
    invert,
)
from helpers import RING_FAMILIES, random_element

Z = RingDescriptor.integers()
Z4 = RingDescriptor.modular(4)
Z7 = RingDescriptor.modular(7)
Q = RingDescriptor.rationals()


def test_basic_arith_examples():
    assert int_embed(Z, 2) + int_embed(Z, 3) == int_embed(Z, 5)
    assert int_embed(Z4, 2) * int_embed(Z4, 2) == int_embed(Z4, 0)
    half = element_from_str(Q, "1/2")
    third = element_from_str(Q, "1/3")
    assert element_to_str(half + third) == "5/6"


def test_int_embed_examples():
    assert int_embed(Z4, 6).value == 2
    assert element_to_str(int_embed(Q, -3)) == "-3/1"
    assert int_embed(Z, 0).is_zero()
    assert int_embed(Z, 1).is_one()


def test_invert_examples():
    assert element_to_str(invert(element_from_str(Q, "2/3"))) == "3/2"
    assert invert(int_embed(Z7, 3)) == int_embed(Z7, 5)
    with pytest.raises(RingError, match="not a unit"):
        invert(int_embed(Z4, 2))
    with pytest.raises(RingError, match="division by zero"):
        invert(int_embed(Q, 0))
    with pytest.raises(RingError, match="not a unit"):
        invert(int_embed(Z, 2))


def test_ring_mismatch_is_rejected():
    with pytest.raises(RingError, match="ring mismatch"):
        int_embed(Z, 1) + int_embed(Z4, 1)


def test_operators_match_raw_arithmetic():
    rng = random.Random(4321)
    for m in (4, 6, 7):
        ring = RingDescriptor.modular(m)
        for _ in range(200):
            x, y = rng.randint(-50, 50), rng.randint(-50, 50)
            a, b = int_embed(ring, x), int_embed(ring, y)
            assert (a + b).value == (x + y) % m
            assert (a - b).value == (x - y) % m
            assert (a * b).value == (x * y) % m
            assert (-a).value == -x % m
    for _ in range(200):
        x, y = rng.randint(-10 ** 20, 10 ** 20), rng.randint(-10 ** 20, 10 ** 20)
        a, b = int_embed(Z, x), int_embed(Z, y)
        assert ((a + b).value, (a - b).value, (a * b).value, (-a).value) == (x + y, x - y, x * y, -x)
        p, q = Fraction(x, rng.randint(1, 99)), Fraction(y, rng.randint(1, 99))
        a, b = element_from_str(Q, str(p)), element_from_str(Q, str(q))
        assert ((a + b).value, (a - b).value, (a * b).value, (-a).value) == (p + q, p - q, p * q, -p)
    # same kind, different ring: the identity fast path must not skip the check
    pairs = [(RingDescriptor.modular(4), RingDescriptor.modular(6)),
             (RingDescriptor.polynomial(Z, 4), RingDescriptor.polynomial(Z4, 4))]
    for r1, r2 in pairs:
        for op in (operator.add, operator.sub, operator.mul):
            with pytest.raises(RingError, match="ring mismatch"):
                op(int_embed(r1, 1), int_embed(r2, 1))


def test_capability_flags_are_pure_functions_of_kind():
    cases = [(Z, False, False), (Z4, False, False), (Z7, True, False),
             (Q, True, True), (RingDescriptor.modular(6), False, False)]
    for ring, field, rat in cases:
        assert ring.is_field == field
        assert ring.contains_rationals == rat
        # recomputing gives the same answer
        assert ring.is_field == field and ring.contains_rationals == rat


def test_modulus_must_be_at_least_two():
    with pytest.raises(RingError):
        RingDescriptor.modular(1)


def test_polynomial_ring_nesting_is_forbidden():
    inner = RingDescriptor.polynomial(Z, 4)
    with pytest.raises(RingError):
        RingDescriptor.polynomial(inner, 4)


def test_axioms_on_random_triples():
    rng = random.Random(1234)
    for name, ring in _families_with_poly().items():
        for _ in range(200):
            a = random_element(ring, rng)
            b = random_element(ring, rng)
            c = random_element(ring, rng)
            assert (a + b) + c == a + (b + c), name
            assert a * b == b * a, name
            assert a * (b + c) == a * b + a * c, name


def _families_with_poly():
    fams = dict(RING_FAMILIES)
    fams["poly"] = RingDescriptor.polynomial(Z, 4)
    return fams


def test_int_embed_is_a_ring_homomorphism():
    for name, ring in _families_with_poly().items():
        step = 1 if name in ("int", "mod4") else 7
        for j in range(-100, 101, step):
            for k in range(-100, 101, step):
                assert int_embed(ring, j) * int_embed(ring, k) == int_embed(ring, j * k), name
                assert int_embed(ring, j) + int_embed(ring, k) == int_embed(ring, j + k), name


def test_zero_divisors_exist_in_z4():
    a = int_embed(Z4, 2)
    assert not a.is_zero()
    assert (a * a).is_zero()


def test_serialization_round_trip():
    rng = random.Random(99)
    for ring in (Z, Z4, Z7, Q):
        for _ in range(50):
            e = random_element(ring, rng, span=10 ** 12)
            assert element_from_str(ring, element_to_str(e)) == e


def test_ring_spec_parsing():
    assert descriptor_from_spec("int") == Z
    assert descriptor_from_spec("rat") == Q
    assert descriptor_from_spec("mod:4") == Z4
    for ring in (Z, Z4, Q):
        assert descriptor_from_spec(descriptor_to_spec(ring)) == ring
    for bad in ("gf:4", "mod:x", "mod:", "integers"):
        with pytest.raises(RingError):
            descriptor_from_spec(bad)


def test_random_element_parsing_rejects_floats():
    with pytest.raises(RingError):
        element_from_str(Q, "1.5")
    with pytest.raises(RingError):
        element_from_str(Z, "two")
