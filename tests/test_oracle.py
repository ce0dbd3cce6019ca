"""Oracle tests: frozen hand-expanded values, then cross-oracle agreement."""

import random
import time

import pytest

from abpc.oracle import (
    OracleLimitError,
    cpc_cycle_cover,
    cpc_minor_sum,
    cpc_table,
    det_leibniz,
    grad_ccp_entry,
    iter_cycle_covers,
)
from abpc.poly import Polynomial, PolyMatrix, gradient
from abpc.rings import RingDescriptor, descriptor_from_spec, int_embed
from helpers import random_matrix

Z = RingDescriptor.integers()


def x(n, i, j):
    return Polynomial.variable(Z, n, i, j)


def test_minor_sum_trace_case():
    assert cpc_minor_sum(2, 1, Z) == x(2, 1, 1) + x(2, 2, 2)


def test_minor_sum_det_case():
    assert cpc_minor_sum(2, 2, Z) == x(2, 1, 1) * x(2, 2, 2) - x(2, 1, 2) * x(2, 2, 1)


def test_minor_sum_three_principal_minors():
    # hand expansion: the three 2x2 principal minors of a 3x3 matrix
    want = (
        x(3, 1, 1) * x(3, 2, 2) - x(3, 1, 2) * x(3, 2, 1)
        + x(3, 1, 1) * x(3, 3, 3) - x(3, 1, 3) * x(3, 3, 1)
        + x(3, 2, 2) * x(3, 3, 3) - x(3, 2, 3) * x(3, 3, 2)
    )
    assert cpc_minor_sum(3, 2, Z) == want


def test_minor_sum_boundaries():
    for n in range(1, 7):
        assert cpc_minor_sum(n, 0, Z) == Polynomial.from_int(Z, n, 1)
        for d in range(n + 1, n + 3):
            assert cpc_minor_sum(n, d, Z).is_zero()


def test_cycle_cover_single_loop():
    assert cpc_cycle_cover(1, 1, Z) == x(1, 1, 1)


def test_cycle_cover_two_by_two():
    assert cpc_cycle_cover(2, 2, Z) == x(2, 1, 1) * x(2, 2, 2) - x(2, 1, 2) * x(2, 2, 1)


def test_cycle_cover_above_n_is_zero():
    # no cover is longer than its vertex pool, so even a far larger d is quick
    start = time.perf_counter()
    for n in range(1, 5):
        for d in (n + 1, n + 2, n + 3, 10 ** 5):
            assert cpc_cycle_cover(n, d, Z).is_zero(), (n, d)
    assert time.perf_counter() - start < 2.0


def test_cycle_cover_enumeration_is_duplicate_free():
    covers = list(iter_cycle_covers([1, 2, 3, 4], 3))
    keys = [tuple(sorted(edges)) for edges, _sign in covers]
    assert len(keys) == len(set(keys))


def test_cross_oracle_minor_vs_cycle_cover():
    for n in range(1, 5):
        for d in range(0, 5):
            assert cpc_minor_sum(n, d, Z) == cpc_cycle_cover(n, d, Z), (n, d)


def test_det_leibniz_identity_and_constants():
    assert det_leibniz(PolyMatrix.identity(Z, 3, 3)) == Polynomial.from_int(Z, 3, 1)
    m = PolyMatrix.from_constants(Z, 2, [[int_embed(Z, 1), int_embed(Z, 2)],
                                         [int_embed(Z, 3), int_embed(Z, 4)]])
    assert det_leibniz(m) == Polynomial.from_int(Z, 2, -2)


def test_det_leibniz_matches_minor_sum():
    for d in range(1, 6):
        assert det_leibniz(PolyMatrix.variables(Z, d)) == cpc_minor_sum(d, d, Z)


def test_det_leibniz_size_guard():
    with pytest.raises(OracleLimitError, match="oracle size limit"):
        det_leibniz(PolyMatrix.identity(Z, 9, 9))


def test_grad_ccp_adjugate_entries_two_by_two():
    # transposed gradient of det_2 is the adjugate of a generic 2x2 matrix
    assert grad_ccp_entry(2, 1, 1, 1, Z) == x(2, 2, 2)
    assert grad_ccp_entry(2, 1, 1, 2, Z) == -x(2, 1, 2)
    assert grad_ccp_entry(2, 1, 2, 1, Z) == -x(2, 2, 1)
    assert grad_ccp_entry(2, 1, 2, 2, Z) == x(2, 1, 1)


def test_grad_ccp_bottom_right_drops_to_smaller_matrix():
    assert grad_ccp_entry(3, 1, 3, 3, Z) == x(3, 1, 1) + x(3, 2, 2)


def test_grad_ccp_matches_transposed_gradient():
    for n in range(1, 4):
        for d in range(0, 4):
            grad = gradient(cpc_minor_sum(n, d + 1, Z), n)
            for a in range(1, n + 1):
                for b in range(1, n + 1):
                    assert grad_ccp_entry(n, d, a, b, Z) == grad.entry(b, a), (n, d, a, b)


def test_enumeration_size_guard():
    with pytest.raises(OracleLimitError):
        cpc_cycle_cover(9, 2, Z)


@pytest.mark.parametrize("spec", ["int", "mod:4", "mod:6", "rat"])
def test_cpc_table_matches_leibniz_and_cycle_covers(spec):
    ring = descriptor_from_spec(spec)
    rng = random.Random(f"cpc_table/{spec}")
    covers = {(i, j): cpc_cycle_cover(i, j, ring) for i in range(1, 7) for j in range(i + 1)}
    for n in range(0, 7):
        for _ in range(2):
            a = random_matrix(ring, n, rng, span=9)
            table = cpc_table(a, ring)
            assert sorted(table) == [(i, j) for i in range(n + 1) for j in range(i + 1)]
            assert table[(0, 0)] == int_embed(ring, 1)
            for i in range(1, n + 1):
                block = [row[:i] for row in a[:i]]
                det = det_leibniz(PolyMatrix.from_constants(ring, i, block))
                assert table[(i, i)] == det.constant_term(), (spec, n, i)
                for j in range(i + 1):
                    assert table[(i, j)] == covers[(i, j)].substitute(block), (spec, n, i, j)
