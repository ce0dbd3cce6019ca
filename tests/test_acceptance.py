"""Acceptance suite: one test per criterion, exact equalities throughout.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line
per criterion.  Every comparison is exact (zero tolerance); the only
numeric bounds are the two stated runtime budgets.
"""

import random
import time
from functools import lru_cache
from math import comb

from abpc.build import (
    build_bivariate_abp,
    build_charzero_abp,
    build_gradient_abp,
    comparison_report,
    gradient_layer_count,
    gradient_vertex_total,
    gradient_width,
)
from abpc.graph import (
    abp_to_determinant,
    combine,
    eliminate_constant_edges,
    evaluate,
    expand_all,
    expand_symbolic,
    homogenize,
    validate,
)
from abpc.identities import verify_all, verify_identity
from abpc.oracle import cpc_cycle_cover, cpc_minor_sum, det_leibniz, grad_ccp_entry
from abpc.poly import gradient
from abpc.rings import RingDescriptor, descriptor_to_spec
from helpers import (
    graph_width,
    planted_determinantal_instance,
    random_aabp,
    random_abp,
    random_matrix,
    random_pabp,
)

Z = RingDescriptor.integers()
Z4 = RingDescriptor.modular(4)
Z7 = RingDescriptor.modular(7)
Q = RingDescriptor.rationals()


@lru_cache(maxsize=None)
def oracle(n, d, spec):
    ring = {"int": Z, "mod:4": Z4, "mod:7": Z7, "rat": Q}[spec]
    return cpc_minor_sum(n, d, ring)


def test_criterion_1_bivariate_identity_grid():
    started = time.monotonic()
    for ring in (Z, Z4, Z7, Q):
        for n in range(1, 5):
            for d in range(0, 5):
                report = verify_identity("bivariate_ch", n, d, ring)
                assert report.passed, report.line()
    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"grid took {elapsed:.1f}s"
    print(f"criterion 1 (bivariate identity, n<=4, d<=4, four rings, {elapsed:.1f}s): PASS")


def test_criterion_2_classical_identity_family():
    for ring in (Z, Z4):
        for n in range(1, 5):
            assert verify_identity("cayley_hamilton", n, 0, ring).passed
            assert verify_identity("adjugate", n, 0, ring).passed
            for d in range(0, 5):
                assert verify_identity("trace_ch", n, d, ring).passed
                assert verify_identity("samuelson_entry", n, d, ring).passed
                assert verify_identity("cpc_recursion", n, d, ring).passed
        for n in range(1, 6):
            for d in range(0, 6):
                assert verify_identity("girard_newton", n, d, ring).passed
    # whole-grid runs, including the zero-divisor ring
    assert all(r.passed for r in verify_all(4, 4, Z))
    assert all(r.passed for r in verify_all(3, 3, Z4))
    print("criterion 2 (classical identity family over int and mod:4): PASS")


def test_criterion_3_cross_oracle_agreement():
    for n in range(1, 6):
        for d in range(0, 6):
            assert cpc_minor_sum(n, d, Z) == cpc_cycle_cover(n, d, Z), (n, d)
    for n in range(1, 5):
        for d in range(0, 4):
            grad = gradient(cpc_minor_sum(n, d + 1, Z), n)
            for a in range(1, n + 1):
                for b in range(1, n + 1):
                    assert grad_ccp_entry(n, d, a, b, Z) == grad.entry(b, a), (n, d, a, b)
    print("criterion 3 (minor-sum vs cycle-cover vs path-cover oracles): PASS")


def _check_outputs(g, ring):
    for name, poly in expand_all(g).items():
        _tag, i, j = name.split("_")
        want = oracle(int(i), int(j), descriptor_to_spec(ring)).promote(g.ambient_n)
        assert poly == want, (name, descriptor_to_spec(ring))


def test_criterion_4_construction_correctness():
    for n in range(1, 6):
        _check_outputs(build_charzero_abp(n, n, Q), Q)
        for ring in (Z, Z4, Z7):
            _check_outputs(build_bivariate_abp(n, n, ring), ring)
            g, _stats = build_gradient_abp(n, n, ring)
            _check_outputs(g, ring)
    # 100 randomized evaluation checks per ring
    for ring in (Z, Z4, Z7, Q):
        rng = random.Random(9000 + ring.modulus)
        graphs = {}
        for _ in range(100):
            n = rng.randint(1, 4)
            kind = rng.choice(["bivariate", "gradient", "charzero"]
                              if ring is Q else ["bivariate", "gradient"])
            key = (kind, n)
            if key not in graphs:
                if kind == "bivariate":
                    graphs[key] = build_bivariate_abp(n, n, ring)
                elif kind == "gradient":
                    graphs[key] = build_gradient_abp(n, n, ring)[0]
                else:
                    graphs[key] = build_charzero_abp(n, n, ring)
            g = graphs[key]
            name = rng.choice(sorted(g.outputs))
            _tag, i, j = name.split("_")
            a = random_matrix(ring, n, rng)
            want = oracle(int(i), int(j), descriptor_to_spec(ring)).promote(n).substitute(a)
            assert evaluate(g, a, name) == want, (name, descriptor_to_spec(ring))
    print("criterion 4 (three constructions vs oracle, n<=5, plus 100 random "
          "evaluations per ring): PASS")


def test_criterion_5_count_formulas():
    for n in range(2, 9):
        for d in range(2, n + 1):
            _g, stats = build_gradient_abp(n, d, Z)
            assert stats.per_layer_counts == tuple(
                gradient_layer_count(n, j) for j in range(1, d)), (n, d)
            assert stats.width == gradient_width(n) == comb(n + 1, 2) - 1, (n, d)
            assert stats.rvector_total == gradient_vertex_total(n, d), (n, d)
    _g, stats = build_gradient_abp(5, 5, Z)
    assert stats.width == 14 and stats.rvector_total == 40
    small, big = comparison_report(5, 5), comparison_report(30, 30)
    assert abs(big["vertex_ratio"] - 3.0) < 0.01
    assert abs(big["vertex_ratio"] - 3.0) < abs(small["vertex_ratio"] - 3.0)
    assert 1.9 < big["width_ratio"] < 2.0
    assert abs(big["width_ratio"] - 2.0) < abs(small["width_ratio"] - 2.0)
    print("criterion 5 (layer/width/total formulas for 2<=d<=n<=8; (5,5) gives "
          "width 14, 40 vertices; ratios approach 3 and 2): PASS")


def _mwidth(g):
    # matrix-model width: a nonzero polynomial occupies at least one row
    return max(1, graph_width(g))


def test_criterion_6_appendix_transformations():
    rng = random.Random(1717)
    for _ in range(50):
        g = random_abp(Z, rng.randint(1, 3), rng.randint(1, 4), rng)
        want = expand_symbolic(g, "out")
        p = eliminate_constant_edges(g, "out")
        assert validate(p) == [] and p.flavor == "pabp"
        assert expand_symbolic(p, "out") == want
        assert graph_width(p) <= graph_width(g)
    for _ in range(50):
        g = random_aabp(Z, rng.randint(1, 3), rng)
        full = expand_symbolic(g, "out")
        k = rng.randint(0, max(full.degree, 1))
        h = homogenize(g, k)
        assert validate(h) == []
        assert expand_symbolic(h, "out") == full.homogeneous_component(k)
    for _ in range(50):
        n = rng.randint(1, 3)
        d = rng.randint(1, 3)
        g1, g2 = random_pabp(Z, n, d, rng), random_pabp(Z, n, d, rng)
        s = combine(g1, g2, "sum")
        assert expand_symbolic(s, "sink") == expand_symbolic(g1, "out") + expand_symbolic(g2, "out")
        assert _mwidth(s) <= _mwidth(g1) + _mwidth(g2)
        g3 = random_pabp(Z, n, rng.randint(1, 3), rng)
        p = combine(g1, g3, "product")
        assert expand_symbolic(p, "sink") == expand_symbolic(g1, "out") * expand_symbolic(g3, "out")
        assert _mwidth(p) <= max(_mwidth(g1), _mwidth(g3))
    for _ in range(50):
        g = random_pabp(Z, rng.randint(1, 3), rng.randint(1, 4), rng, max_width=2)
        m = abp_to_determinant(g)
        assert m.rows <= g.num_layers * _mwidth(g)
        assert det_leibniz(m) == expand_symbolic(g, "out")
    print("criterion 6 (elimination, homogenization, sum/product, determinant "
          "conversion on 50 random programs each): PASS")


def test_criterion_7_determinantal_recovery():
    from abpc.build import width_from_determinantal

    started = time.monotonic()
    rng = random.Random(4242)
    for _ in range(20):
        m, f, d = planted_determinantal_instance(rng)
        g = width_from_determinantal(m, d, Q)
        assert validate(g) == []
        assert expand_symbolic(g, "det") == f
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"recovery took {elapsed:.1f}s"
    print(f"criterion 7 (20 planted determinantal recoveries, {elapsed:.1f}s): PASS")


def test_criterion_8_transition_product():
    for d in (2, 3, 4):
        report = verify_identity("transition_product", d, d, Z)
        assert report.passed, report.line()
    print("criterion 8 (block transition product equals the determinant, d=2,3,4): PASS")
