"""Identity checks: frozen small cases, grids, and the entailed trace form."""

import pytest

from abpc.cli import main
from abpc.build import build_gradient_abp
from abpc.graph import expand_all
from abpc.identities import (
    IDENTITY_NAMES,
    _Ingredients,
    horner_sequence,
    verify_all,
    verify_identity,
    verify_with_sides,
)
from abpc.oracle import ORACLE_SIZE_CAP, OracleLimitError, cpc_minor_sum, det_leibniz, grad_ccp_entry
from abpc.poly import Polynomial, PolyMatrix, gradient
from abpc.rings import RingDescriptor, descriptor_from_spec, int_embed
from helpers import (RING_FAMILIES, reference_girard_newton_sides, reference_horner_sequence,
                     reference_r_vector_first_layer)

Z = RingDescriptor.integers()
Z4 = RingDescriptor.modular(4)
Z6 = RingDescriptor.modular(6)
Z7 = RingDescriptor.modular(7)
Q = RingDescriptor.rationals()


def x(n, i, j):
    return Polynomial.variable(Z, n, i, j)


def test_smallest_case_by_hand():
    # n=1, d=0: both sides are the 1x1 identity
    lhs = gradient(cpc_minor_sum(1, 1, Z), 1).transpose()
    rhs = horner_sequence(1, 0, Z)[0]
    one = Polynomial.from_int(Z, 1, 1)
    assert lhs.entry(1, 1) == one and rhs.entry(1, 1) == one
    assert verify_identity("bivariate_ch", 1, 0, Z).passed


def test_two_by_two_adjugate_case_by_hand():
    # n=2, d=1: the transposed gradient is the adjugate of a generic 2x2
    lhs = gradient(cpc_minor_sum(2, 2, Z), 2).transpose()
    want = PolyMatrix.from_rows(Z, 2, [[x(2, 2, 2), -x(2, 1, 2)],
                                       [-x(2, 2, 1), x(2, 1, 1)]])
    assert lhs == want
    rhs = horner_sequence(2, 1, Z)[1]
    assert rhs == want
    assert verify_identity("bivariate_ch", 2, 1, Z).passed


def test_alternating_power_sum_matches_power_by_power_sum():
    # reference: the sum term by term, X^i kept as a running product
    for ring in (Z, Z4, Q):
        for n in range(1, 4):
            xs = PolyMatrix.variables(ring, n)
            got = horner_sequence(n, n + 1, ring)
            for d in range(0, n + 2):
                want = [Polynomial.zero(ring, n) for _ in range(n * n)]
                power = PolyMatrix.identity(ring, n, n)
                for i in range(d + 1):
                    coeff = cpc_minor_sum(n, d - i, ring).scale(int_embed(ring, (-1) ** i))
                    want = [w + coeff * p for w, p in zip(want, power.entries)]
                    power = power * xs
                assert got[d] == PolyMatrix(ring, n, n, n, want), (ring, n, d)


def test_horner_sequence_matches_the_three_pass_reference():
    for ring in (Z, Z4, Z6, Q):
        for n in range(1, 6):
            # five steps past n for n <= 4, where the sums stop at the zero T_n
            k_max = n + 5 if n <= 4 else n + 1
            assert horner_sequence(n, k_max, ring) == reference_horner_sequence(n, k_max, ring), (ring, n)


def test_girard_newton_two_by_two_binomial_case():
    # -2 e_2 = -e_1 p_1 + e_0 p_2 amounts to -2 x1 x2 = -(x1+x2)^2 + x1^2 + x2^2
    assert verify_identity("girard_newton", 2, 2, Z).passed


def test_girard_newton_sides_match_the_power_sum_reference():
    # trace_ch at diagonal matrices against e_k and p_i written out, past d = n too
    for ring in (Z, Z4, Z6, Q):
        for n in range(1, 6):
            for d in range(0, 2 * n + 3):
                report, lhs, rhs = verify_with_sides("girard_newton", n, d, ring)
                assert report.passed, (ring, n, d)
                assert (lhs, rhs) == reference_girard_newton_sides(n, d, ring), (ring, n, d)


def _girard_newton_at_a_million(n, spec, monkeypatch):
    # past d = n every side is zero, and no polynomial formed on the way,
    # by the kernel (``_of``) or from a boxed view, holds a code of degree above n
    widths = []
    of, init = Polynomial._of.__func__, Polynomial.__init__

    def recorded_of(cls, ring, ambient, raw):
        widths.append(max(map(int.bit_length, raw), default=0))
        return of(cls, ring, ambient, raw)

    def recorded_init(self, *args):
        init(self, *args)
        widths.append(max(map(int.bit_length, self.raw), default=0))

    monkeypatch.setattr(Polynomial, "_of", classmethod(recorded_of))
    monkeypatch.setattr(Polynomial, "__init__", recorded_init)
    report, lhs, rhs = verify_with_sides("girard_newton", n, 10**6, descriptor_from_spec(spec))
    assert report.line() == f"girard_newton n={n} d=1000000 ring={spec} PASS"
    assert lhs.is_zero() and rhs.is_zero()
    assert widths and max(widths) <= 64


@pytest.mark.parametrize("spec", ["int", "mod:4", "rat"])
def test_girard_newton_at_a_million_forms_no_wide_code(spec, monkeypatch):
    _girard_newton_at_a_million(5, spec, monkeypatch)


@pytest.mark.slow
def test_girard_newton_at_a_million_at_the_oracle_cap(monkeypatch):
    _girard_newton_at_a_million(ORACLE_SIZE_CAP, "int", monkeypatch)


def test_transition_product_degenerate_case():
    # d=2: the single first-layer vector against the last column gives det_2
    vec = reference_r_vector_first_layer(2, 2, Z)
    assert vec == [-x(2, 2, 1), x(2, 1, 1)]
    lhs = vec[0] * x(2, 1, 2) + vec[1] * x(2, 2, 2)
    assert lhs == det_leibniz(PolyMatrix.variables(Z, 2))
    assert verify_identity("transition_product", 2, 2, Z).passed


def test_bivariate_grid_over_four_rings():
    for ring in (Z, Z4, Z7, Q):
        for n in range(1, 4):
            for d in range(0, 4):
                assert verify_identity("bivariate_ch", n, d, ring).passed, (ring, n, d)


def test_combinatorial_route_agrees():
    for n in range(1, 4):
        for d in range(0, 3):
            assert verify_identity("bivariate_ch", n, d, Z, combinatorial=True).passed


def test_left_side_vanishes_at_equal_parameters():
    # degree above the matrix size: the gradient side is the zero matrix
    for n in range(1, 4):
        lhs = gradient(cpc_minor_sum(n, n + 1, Z), n).transpose()
        assert all(p.is_zero() for p in lhs.entries)


def test_trace_identity_is_entailed_by_the_gradient():
    # trace of the transposed gradient equals (n-d) cpc_{n,d}
    for n in range(1, 5):
        for d in range(0, 5):
            lhs = gradient(cpc_minor_sum(n, d + 1, Z), n).transpose().trace()
            want = cpc_minor_sum(n, d, Z).scale(int_embed(Z, n - d))
            assert lhs == want, (n, d)


def test_r_vector_last_entry_drops_the_matrix_size():
    for n in range(2, 5):
        for d in range(0, n):
            vec = [cpc_minor_sum(n, d + 1, Z).partial(a, n) for a in range(1, n + 1)]
            assert vec[n - 1] == cpc_minor_sum(n - 1, d, Z).promote(n), (n, d)


def test_r_vector_first_layer_matches_gradient_route():
    # transition_product's first layer, the partials of cpc_{i,2}, against the
    # closed form and against the gradient program's layer-1 vertices
    for name, ring in RING_FAMILIES.items():
        for n in range(2, 5):
            ing = _Ingredients(ring)
            g, _stats = build_gradient_abp(n, n, ring)
            for v in (f"r_{i}_1_{a}" for i in range(2, n + 1) for a in range(1, i + 1)):
                g.add_output(v, v)
            got = expand_all(g)
            for i in range(2, n + 1):
                want = reference_r_vector_first_layer(i, n, ring)
                assert [ing.partial(i, 2, a, i).promote(n) for a in range(1, i + 1)] == want, (name, n, i)
                assert [got[f"r_{i}_1_{a}"] for a in range(1, i + 1)] == want, (name, n, i)


def test_failure_witness_reports_first_mismatch():
    # an intentionally wrong check: compare the gradient side at d and d+1
    from abpc.identities import _first_mismatch

    lhs = gradient(cpc_minor_sum(2, 1, Z), 2).transpose()
    rhs = gradient(cpc_minor_sum(2, 2, Z), 2).transpose()
    w = _first_mismatch(lhs, rhs)
    assert w is not None
    assert w.position == (1, 1)
    assert w.lhs == "1" and w.rhs == "1*x[2,2]"


def test_verify_all_over_zero_divisor_ring():
    reports = verify_all(3, 3, Z4)
    assert all(r.passed for r in reports)
    names = {r.identity for r in reports}
    assert names == set(IDENTITY_NAMES)


def test_verify_all_high_degree_branch():
    reports = verify_all(2, 5, Z)
    assert all(r.passed for r in reports)
    # the vanishing coefficients above n were exercised
    assert any(r.identity == "bivariate_ch" and r.d == 5 for r in reports)


def test_minor_sums_are_built_once_per_call(monkeypatch):
    import abpc.identities as ident

    original = ident.cpc_minor_sum
    calls = []

    def counted(n, k, ring):
        calls.append((n, k))
        return original(n, k, ring)

    monkeypatch.setattr(ident, "cpc_minor_sum", counted)
    assert all(r.passed for r in verify_all(4, 4, Z))
    assert len(calls) == len(set(calls)) == 29
    # both sides of cpc_recursion and its Horner sum read cpc_{3,2}
    calls.clear()
    assert verify_identity("cpc_recursion", 3, 2, Z).passed
    assert sorted(calls) == [(2, 2), (3, 0), (3, 1), (3, 2)]


def test_ingredients_are_built_once_per_call(monkeypatch):
    import abpc.identities as ident

    built = {}  # id of each minor sum built -> (n, k); ``minors`` keeps them alive
    minors, partials, programs = [], [], []

    def minor_sum(n, k, ring):
        p = cpc_minor_sum(n, k, ring)
        built[id(p)] = (n, k)
        minors.append(p)
        return p

    def record(calls, method):
        def counted(self, *args):
            if id(self) in built:
                calls.append(built[id(self)] + args)
            return method(self, *args)
        return counted

    def counted(calls, function):
        def wrapper(*args):
            calls.append(args[:2])
            return function(*args)
        return wrapper

    monkeypatch.setattr(ident, "cpc_minor_sum", minor_sum)
    monkeypatch.setattr(Polynomial, "partial", record(partials, Polynomial.partial))
    monkeypatch.setattr(ident, "_build_gradient", counted(programs, ident._build_gradient))
    for _call in range(2):  # nothing is kept from one call to the next
        for calls in (built, minors, partials, programs):
            calls.clear()
        assert all(r.passed for r in verify_all(5, 5, Z))
        keys = [built[id(p)] for p in minors]
        assert len(keys) == len(set(keys)) == 41
        # the transposed gradients of bivariate_ch, which rnd_block's reads repeat
        assert len(partials) == len(set(partials)) == 6 * (1 + 4 + 9 + 16 + 25)
        assert programs == [(2, 2), (3, 3), (4, 4), (5, 5)]
    # one check of rnd_block takes each partial it reads once: the last rows
    # of cpc_{4,3} and cpc_{4,2}, then of cpc_{2,2} and cpc_{3,2}
    partials.clear()
    assert verify_identity("rnd_block", 4, 2, Z).passed
    assert len(partials) == len(set(partials)) == 4 + 4 + 2 + 3


def test_verify_all_guard(capsys):
    # the grid stops at the oracle cap, as verify does
    with pytest.raises(OracleLimitError, match="^oracle size limit$"):
        verify_all(ORACLE_SIZE_CAP + 1, 2, Z)
    assert main(["verify-all", "--n-max", "9", "--d-max", "2", "--ring", "int"]) == 1
    assert capsys.readouterr() == ("", "error: oracle size limit\n")


@pytest.mark.slow
@pytest.mark.parametrize("spec, combinatorial", [("int", False), ("mod:4", False), ("rat", False),
                                                 ("int", True)])
def test_verify_all_at_the_oracle_cap(spec, combinatorial):
    reports = verify_all(ORACLE_SIZE_CAP, ORACLE_SIZE_CAP, descriptor_from_spec(spec), combinatorial)
    assert len(reports) == 447
    assert all(r.passed for r in reports), [r.line() for r in reports if not r.passed]


@pytest.mark.parametrize("combinatorial", [False, True])
def test_cayley_hamilton_and_adjugate_are_bivariate_ch_at_n_and_n_minus_one(combinatorial):
    for n in range(1, 5):
        # the classical left sides: zero, and the adjugate as the Leibniz determinant's gradient
        adjugate = gradient(det_leibniz(PolyMatrix.variables(Z, n)), n).transpose()
        for identity, d, classical in (("cayley_hamilton", n, PolyMatrix.zeros(Z, n, n, n)),
                                       ("adjugate", n - 1, adjugate)):
            report, lhs, rhs = verify_with_sides(identity, n, 0, Z, combinatorial)
            assert report.passed and report.d == d and lhs == classical
            assert (lhs, rhs) == verify_with_sides("bivariate_ch", n, d, Z, combinatorial)[1:]


def test_grid_reads_each_cycle_cover_entry_once(monkeypatch):
    import abpc.identities as ident

    calls = []

    def counted(n, d, a, b, ring):
        calls.append((n, d, a, b))
        return grad_ccp_entry(n, d, a, b, ring)

    monkeypatch.setattr(ident, "grad_ccp_entry", counted)
    assert all(r.passed for r in verify_all(4, 2, Z, combinatorial=True))
    # bivariate_ch's degrees 0..2, cayley_hamilton's d = n and adjugate's d = n-1,
    # which the grid shares with bivariate_ch for n <= 3
    want = {(n, d, a, b) for n in range(1, 5) for d in {0, 1, 2, n, n - 1}
            for a in range(1, n + 1) for b in range(1, n + 1)}
    assert len(calls) == len(set(calls)) and set(calls) == want


def test_verify_all_at_the_cap_over_zero_divisor_ring():
    reports = verify_all(7, 7, Z4)
    assert len(reports) == 349
    assert all(r.passed for r in reports), [r.line() for r in reports if not r.passed]


def test_verify_all_over_the_rationals_at_six():
    # integral rational coefficients are held as ints, so this grid costs what int's does
    reports = verify_all(6, 6, Q)
    assert len(reports) == 263
    assert all(r.passed for r in reports), [r.line() for r in reports if not r.passed]


def test_report_line_format():
    rep = verify_identity("bivariate_ch", 2, 1, Z4)
    assert rep.line() == "bivariate_ch n=2 d=1 ring=mod:4 PASS"
