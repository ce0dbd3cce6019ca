"""Builders: output correctness, count formulas, label shapes, recovery."""

import json
import random
from math import comb

import pytest

from abpc.build import (
    _field_normal_form,
    build_bivariate_abp,
    build_charzero_abp,
    build_gradient_abp,
    comparison_report,
    gradient_layer_count,
    gradient_vertex_total,
    gradient_width,
    stats_from_graph,
    transition_matrix,
    width_from_determinantal,
)
from abpc.graph import (
    GraphError,
    evaluate,
    evaluate_all,
    expand_all,
    expand_symbolic,
    graph_from_json_dict,
    graph_to_json_dict,
    sub_abp,
    validate,
)
from abpc.oracle import cpc_minor_sum, cpc_table, det_leibniz
from abpc.poly import Polynomial, PolyMatrix
from abpc.rings import RingDescriptor, descriptor_from_spec, int_embed
from helpers import (
    _unimodular,
    block_transition_matrix,
    graph_width,
    planted_determinantal_instance,
    random_matrix,
    random_nonzero,
    reference_stats_from_graph,
    renamed,
)

Z = RingDescriptor.integers()
Z4 = RingDescriptor.modular(4)
Q = RingDescriptor.rationals()
Z7 = RingDescriptor.modular(7)


def x(n, i, j, ring=Z):
    return Polynomial.variable(ring, n, i, j)


# -- trace-recursion builder -------------------------------------------------


def test_charzero_small_cases():
    g = build_charzero_abp(2, 2, Q)
    assert validate(g) == []
    assert expand_symbolic(g, "cpc_2_2") == cpc_minor_sum(2, 2, Q)
    g1 = build_charzero_abp(1, 1, Q)
    assert expand_symbolic(g1, "cpc_1_1") == x(1, 1, 1, Q)


def test_charzero_vanishes_above_matrix_size():
    g = build_charzero_abp(3, 4, Q)
    assert expand_symbolic(g, "cpc_3_4").is_zero()


def test_charzero_needs_rationals():
    with pytest.raises(GraphError, match="characteristic zero"):
        build_charzero_abp(2, 2, Z)


def test_charzero_width_bound():
    for n in (2, 3):
        g = build_charzero_abp(n, n, Q)
        assert graph_width(g) <= comb(n + 1, 2) * n * n


# -- bottom-right-power builder ------------------------------------------------


def test_bivariate_fig_outputs():
    g = build_bivariate_abp(3, 3, Z)
    assert expand_symbolic(g, "cpc_3_3") == cpc_minor_sum(3, 3, Z)
    assert expand_symbolic(g, "cpc_2_2") == cpc_minor_sum(2, 2, Z).promote(3)
    assert expand_symbolic(g, "cpc_3_1") == cpc_minor_sum(3, 1, Z)


def test_bivariate_single_variable_case():
    g = build_bivariate_abp(1, 1, Z)
    assert expand_symbolic(g, "cpc_1_1") == x(1, 1, 1)


def test_bivariate_zero_divisor_evaluation():
    g = build_bivariate_abp(2, 2, Z4)
    two = int_embed(Z4, 2)
    a = [[two, two], [two, two]]
    for (i, j) in [(1, 1), (2, 1), (2, 2)]:
        want = cpc_minor_sum(i, j, Z4).promote(2).substitute(a)
        assert evaluate(g, a, f"cpc_{i}_{j}") == want
    assert evaluate(g, a, "cpc_2_1").is_zero()
    assert evaluate(g, a, "cpc_2_2").is_zero()


# -- gradient-vector builder ------------------------------------------------------


def test_gradient_counts_three_by_three():
    g, stats = build_gradient_abp(3, 3, Z)
    assert validate(g) == []
    assert stats.per_layer_counts == (5, 3)
    assert stats.width == 5 == comb(4, 2) - 1
    assert stats.rvector_total == 8 == 2 * 6 - 4
    assert stats.size == 8
    assert expand_symbolic(g, "cpc_3_3") == cpc_minor_sum(3, 3, Z)


def test_gradient_two_by_two_first_layer():
    g, _stats = build_gradient_abp(2, 2, Z)
    probe, _stats = build_gradient_abp(2, 2, Z)
    probe.add_output("p1", "r_2_1_1")
    probe.add_output("p2", "r_2_1_2")
    assert expand_symbolic(probe, "p1") == -x(2, 2, 1)
    assert expand_symbolic(probe, "p2") == x(2, 1, 1)
    assert expand_symbolic(g, "cpc_2_2") == cpc_minor_sum(2, 2, Z)


def test_gradient_five_by_five_counts():
    g, stats = build_gradient_abp(5, 5, Z)
    assert stats.width == 14
    assert stats.rvector_total == 40
    assert stats.per_layer_counts == (14, 12, 9, 5)


def test_gradient_closed_forms_match_built_graphs():
    for n in range(2, 9):
        for d in range(2, n + 1):
            g, stats = build_gradient_abp(n, d, Z)
            want_layers = tuple(gradient_layer_count(n, j) for j in range(1, d))
            assert stats.per_layer_counts == want_layers, (n, d)
            assert stats.width == gradient_width(n), (n, d)
            assert stats.rvector_total == gradient_vertex_total(n, d), (n, d)
            assert stats.size == stats.rvector_total, (n, d)


def test_gradient_rejects_degree_above_size():
    for n, d in [(2, 3), (2, 0)]:
        with pytest.raises(GraphError, match=r"parameters out of range: need 1 <= d <= n"):
            build_gradient_abp(n, d, Z)


def test_gradient_labels_are_signed_variables_or_constants():
    g, _stats = build_gradient_abp(4, 4, Z)
    for (u, v), lab in sorted(g.edges.items()):
        # one term: a constant, or a single variable with coefficient +-1
        ((mono, c),) = lab.terms.items()
        assert mono == () or c.value in (1, -1), (u, v)


def test_gradient_labels_are_shared_objects():
    # x[i,j], -x[i,j] and the constant 1: one object each, also when read from JSON
    n = 6
    g, _stats = build_gradient_abp(n, n, Z)
    for prog in (g, graph_from_json_dict(graph_to_json_dict(g))):
        assert len({id(lab) for lab in prog.edges.values()}) <= 2 * n * n + 1


def test_gradient_all_outputs_match_oracle():
    g, _stats = build_gradient_abp(4, 3, Z)
    for i in range(0, 5):
        for j in range(0, min(i, 3) + 1):
            want = cpc_minor_sum(i, j, Z).promote(4)
            assert expand_symbolic(g, f"cpc_{i}_{j}") == want, (i, j)


def test_stats_round_trip_through_graph():
    g, stats = build_gradient_abp(4, 4, Z)
    assert stats_from_graph(g) == stats


def _built_programs(n_max):
    """Every builder's program for n <= n_max and each d it accepts: gradient
    and bivariate over int, mod:2, mod:6 and rat, charzero over rat."""
    for n in range(1, n_max + 1):
        for d in range(0, n + 1):
            for spec in ("int", "mod:2", "mod:6", "rat"):
                ring = descriptor_from_spec(spec)
                if d >= 1:
                    yield f"gradient {n} {d} {spec}", build_gradient_abp(n, d, ring)[0]
                yield f"bivariate {n} {d} {spec}", build_bivariate_abp(n, d, ring)
            yield f"charzero {n} {d} rat", build_charzero_abp(n, d, Q)


def test_stats_match_the_name_based_reference():
    # the builders' r_/c_ names and the edges must tell the same story
    checked = 0
    for what, g in _built_programs(6):
        assert stats_from_graph(g) == reference_stats_from_graph(g), what
        checked += 1
    assert checked == 21 * 4 + 27 * 4 + 27


def test_stats_ignore_vertex_names():
    rng = random.Random("stats/rename")
    programs = [(what, g) for what, g in _built_programs(5) if what.split()[-1] in ("int", "rat")]
    five, _stats = build_gradient_abp(5, 5, Z)
    programs += [(name, sub_abp(five, name)) for name in sorted(five.outputs)]
    for what, g in programs:
        assert stats_from_graph(renamed(g, rng)) == stats_from_graph(g), what


def test_stats_of_a_gradient_sub_program():
    # the output cpc_4_2 keeps layer 1 whole and one r-vertex, r_5_2_5, on top;
    # with no sink below the top layer there is no r-vector split to report
    g = sub_abp(build_gradient_abp(5, 5, Z)[0], "cpc_4_2")
    stats = stats_from_graph(g)
    assert stats.per_layer_counts == (9,) and stats.width == 9
    assert stats.size == 9 and stats.total_vertices == 11 and stats.edge_count == 20
    assert stats.rvector_total is None and stats.extra_output_vertices is None
    assert stats.outputs == (("cpc_4_2", 2),)


# -- comparison against the published baseline ---------------------------------------


def test_comparison_ratios_approach_three_and_two():
    small = comparison_report(5, 5)
    big = comparison_report(30, 30)
    assert big["vertices"] == 8990 and big["baseline_vertices"] == 27000
    assert abs(big["vertex_ratio"] - 3.0) < 0.01
    assert 1.9 < big["width_ratio"] < 2.0
    assert abs(big["vertex_ratio"] - 3.0) < abs(small["vertex_ratio"] - 3.0)
    assert abs(big["width_ratio"] - 2.0) < abs(small["width_ratio"] - 2.0)


# -- transition matrices --------------------------------------------------------------


def test_transition_entries_are_signed_variables_or_zero():
    m = transition_matrix(4, 2, Z)
    assert (m.rows, m.cols) == (2 + 3 + 4, 3 + 4)
    for p in m.entries:
        if p.is_zero():
            continue
        assert len(p.terms) == 1
        ((_mono, coeff),) = p.terms.items()
        assert coeff == int_embed(Z, 1) or coeff == int_embed(Z, -1)


def test_transition_block_action_matches_recursion():
    # (r_{2,1}, r_{3,1}) * M_{3,2} = (r_{3,2}), where r_{i,d} is the last row
    # of transpose(grad cpc_{i,d+1})
    n = 3
    vec = [cpc_minor_sum(i, 2, Z).partial(a, i).promote(n) for i in (2, 3) for a in range(1, i + 1)]
    m = transition_matrix(n, 2, Z)
    out = PolyMatrix(Z, n, 1, len(vec), vec) * m
    want = [cpc_minor_sum(3, 3, Z).partial(a, 3) for a in range(1, 4)]
    assert out.entries == want


@pytest.mark.parametrize("ring", [Z, Z4], ids=["int", "mod4"])
def test_transition_matrix_matches_block_reference(ring):
    # d = n gives a matrix with no columns
    for n in range(2, 8):
        for d in range(2, n + 1):
            assert transition_matrix(n, d, ring) == block_transition_matrix(n, d, ring), (n, d)


def test_build_and_transition_paths_skip_the_stats_pass(monkeypatch, tmp_path, capsys):
    # only build_gradient_abp's callers that read its statistics pay for them
    import abpc.build as build
    from abpc.cli import main
    from abpc.identities import verify_identity

    def refuse(g):
        raise AssertionError("the statistics pass ran")

    monkeypatch.setattr(build, "stats_from_graph", refuse)
    out = tmp_path / "g.json"
    assert main(["build", "--construction", "gradient", "--n", "4", "--d", "4",
                 "--ring", "int", "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote {out}\n"
    assert transition_matrix(4, 2, Z) == block_transition_matrix(4, 2, Z)
    assert verify_identity("transition_product", 1, 4, Z).passed
    monkeypatch.undo()
    g, stats = build_gradient_abp(4, 4, Z)
    assert graph_from_json_dict(json.loads(out.read_text())).edges == g.edges
    assert stats == stats_from_graph(g)


# -- recovery from determinantal representations ----------------------------------------


def test_recovery_hand_example_offdiag():
    zero = Polynomial.zero(Q, 2)
    one = Polynomial.from_int(Q, 2, 1)
    m = PolyMatrix.from_rows(Q, 2, [[zero, x(2, 1, 1, Q)], [-x(2, 2, 2, Q), one]])
    g = width_from_determinantal(m, 2, Q)
    assert validate(g) == []
    assert expand_symbolic(g, "det") == x(2, 1, 1, Q) * x(2, 2, 2, Q)


def test_recovery_hand_example_diagonal():
    zero = Polynomial.zero(Q, 2)
    m = PolyMatrix.from_rows(Q, 2, [[x(2, 1, 1, Q), zero], [zero, x(2, 2, 2, Q)]])
    g = width_from_determinantal(m, 2, Q)
    assert expand_symbolic(g, "det") == x(2, 1, 1, Q) * x(2, 2, 2, Q)


def test_recovery_requires_field_and_homogeneity():
    zero = Polynomial.zero(Z, 1)
    m = PolyMatrix.from_rows(Z, 1, [[x(1, 1, 1)]])
    with pytest.raises(GraphError, match="field"):
        width_from_determinantal(m, 1, Z)
    one = Polynomial.from_int(Q, 1, 1)
    bad = PolyMatrix.from_rows(Q, 1, [[x(1, 1, 1, Q) + one]])
    with pytest.raises(GraphError, match="homogeneous"):
        width_from_determinantal(bad, 1, Q)


def test_recovery_with_base_program_larger_than_ambient():
    # the zero block has size k = 3 > 1, so the base program has ambient size 3
    zero = Polynomial.zero(Q, 1)
    x11 = x(1, 1, 1, Q)
    m = PolyMatrix.from_rows(Q, 1, [[x11, zero, zero], [zero, x11, zero], [zero, zero, x11]])
    g = width_from_determinantal(m, 3, Q)
    assert validate(g) == []
    assert expand_symbolic(g, "det") == x11 * x11 * x11


def test_recovery_on_planted_instances():
    rng = random.Random(606)
    for _ in range(6):
        m, f, d = planted_determinantal_instance(rng)
        g = width_from_determinantal(m, d, Q)
        assert validate(g) == []
        assert expand_symbolic(g, "det") == f


def test_recovery_over_a_prime_field():
    rng = random.Random(707)
    for _ in range(20):
        m, f, d = planted_determinantal_instance(rng, Z7)
        g = width_from_determinantal(m, d, Z7)
        assert validate(g) == []
        assert expand_symbolic(g, "det") == f


@pytest.mark.parametrize("ring", [Q, Z7], ids=["rat", "mod7"])
def test_field_normal_form_invariants(ring):
    # m0 = U V with U = P D and V = P' restricted to rank r, where P, P' have
    # determinant 1 and D is a random nonzero diagonal: its rank is exactly r
    rng = random.Random(808)
    zero, one = int_embed(ring, 0), int_embed(ring, 1)

    def const(rows):
        return PolyMatrix.from_constants(ring, 1, rows)

    for s in range(1, 6):
        for r in range(s):
            for _ in range(8):
                left, right = _unimodular(ring, s, rng), _unimodular(ring, s, rng)
                diag = [random_nonzero(ring, rng) for _ in range(r)]
                m0 = [[sum((left[a][t] * diag[t] * right[t][b] for t in range(r)), zero)
                       for b in range(s)] for a in range(s)]
                g, h, rank = _field_normal_form(m0, ring)
                assert rank == r
                normal = [[one if a == b and a >= s - r else zero for b in range(s)]
                          for a in range(s)]
                assert const(g) * const(m0) * const(h) == const(normal)
                assert det_leibniz(const(g)) * det_leibniz(const(h)) == Polynomial.from_int(ring, 1, 1)
        with pytest.raises(GraphError, match="full rank"):
            _field_normal_form(_unimodular(ring, s, rng), ring)


# -- randomized evaluation spot checks ------------------------------------------------


def test_randomized_evaluate_vs_substitute():
    rng = random.Random(707)
    g, _stats = build_gradient_abp(3, 3, Z)
    b = build_bivariate_abp(3, 3, Z)
    for _ in range(25):
        a = random_matrix(Z, 3, rng)
        for i, j in [(3, 1), (3, 2), (3, 3), (2, 2)]:
            want = cpc_minor_sum(i, j, Z).promote(3).substitute(a)
            assert evaluate(g, a, f"cpc_{i}_{j}") == want
            assert evaluate(b, a, f"cpc_{i}_{j}") == want
        for prog in (g, b):
            values = evaluate_all(prog, a)
            assert sorted(values) == sorted(prog.outputs)
            for name, value in values.items():
                _, i, j = name.split("_")
                want = cpc_minor_sum(int(i), int(j), Z).promote(3).substitute(a)
                assert value == want, name


@pytest.mark.parametrize("spec", ["int", "mod:4", "mod:6", "rat"])
def test_evaluate_all_matches_berkowitz_at_size(spec):
    ring = descriptor_from_spec(spec)
    rng = random.Random(f"berkowitz/{spec}")
    programs = [build_gradient_abp(10, 10, ring)[0], build_gradient_abp(20, 20, ring)[0],
                build_bivariate_abp(10, 10, ring)]
    for prog in programs:
        a = random_matrix(ring, prog.ambient_n, rng)
        table = cpc_table(a, ring)
        values = evaluate_all(prog, a)
        assert sorted(values) == sorted(prog.outputs)
        for name, value in values.items():
            _, i, j = name.split("_")
            assert value == table[(int(i), int(j))], (spec, prog, name)


@pytest.mark.parametrize("spec", ["int", "rat"])
def test_every_gradient_output_matches_berkowitz_at_n30(spec):
    ring = descriptor_from_spec(spec)
    g = build_gradient_abp(30, 30, ring)[0]
    a = random_matrix(ring, 30, random.Random(f"berkowitz30/{spec}"))
    table = cpc_table(a, ring)
    values = evaluate_all(g, a)
    assert len(values) == len(table) == 496
    for name, value in values.items():
        _, i, j = name.split("_")
        assert value == table[(int(i), int(j))], (spec, name)


def test_charzero_outputs_match_berkowitz_at_size():
    rng = random.Random("berkowitz/charzero")
    g = build_charzero_abp(10, 10, Q)
    a = random_matrix(Q, 10, rng)
    table = cpc_table(a, Q)
    values = evaluate_all(g, a)
    assert sorted(values) == sorted(f"cpc_10_{j}" for j in range(11))
    for name, value in values.items():
        assert value == table[(10, int(name.split("_")[2]))], name


@pytest.mark.parametrize("spec, n", [
    *(pytest.param(spec, 12, id=spec) for spec in ("int", "mod:4", "mod:6", "rat")),
    *(pytest.param(spec, n, id=f"{spec}-{n}", marks=pytest.mark.slow)
      for n in (16, 30) for spec in ("int", "mod:4", "mod:6", "rat")),
])
def test_gradient_vertices_are_partial_derivatives(spec, n):
    # vertex r_<i>_<j>_<a> computes d cpc_{i,j+1} / d x[a,i], and cpc is affine
    # in each single variable: the value is cpc_{i,j+1}(A + E_{a,i}) - cpc_{i,j+1}(A).
    # One point over Z/4 can hide a wrong vertex: at n = 12 and the first, a build without
    # the edge r_12_5_3 -> r_12_6_2 gives the same values.  So Z/4 gets a second
    # point, whose seed was picked so that this broken build fails.
    ring = descriptor_from_spec(spec)
    seeds = [f"vertices/{spec}"] + (["vertices/mod:4/4"] if spec == "mod:4" else [])
    g, _stats = build_gradient_abp(n, n, ring)
    rvertices = sorted(v for v in g.layer if v.startswith("r_"))
    for v in rvertices:
        g.add_output(v, v)
    for seed in seeds:
        a = random_matrix(ring, n, random.Random(seed))
        values = evaluate_all(g, a)
        base = cpc_table(a, ring)
        shifted = {}
        for v in rvertices:
            i, j, col = (int(part) for part in v.split("_")[1:])
            if (col, i) not in shifted:
                # cpc_{i,*} reads only the leading i x i block
                b = [row[:i] for row in a[:i]]
                b[col - 1][i - 1] = b[col - 1][i - 1] + int_embed(ring, 1)
                shifted[(col, i)] = cpc_table(b, ring)
            assert values[v] == shifted[(col, i)][(i, j + 1)] - base[(i, j + 1)], (spec, v)
    assert len(rvertices) == gradient_vertex_total(n, n)


@pytest.mark.parametrize("spec", ["int", "mod:4"])
def test_gradient_program_is_proved_symbolically_at_seven(spec, monkeypatch):
    # every output and every r-vertex of the n = 7 program as a polynomial:
    # unlike the point checks above, a dropped or wrong edge cannot go unseen
    monkeypatch.setenv("ABPC_GUARD_N", "7")
    ring = descriptor_from_spec(spec)
    g, _stats = build_gradient_abp(7, 7, ring)
    outputs = sorted(g.outputs)
    rvertices = sorted(v for v in g.layer if v.startswith("r_"))
    for v in rvertices:
        g.add_output(v, v)
    got = expand_all(g)
    minor_sums = {}

    def cpc(i, j):
        if (i, j) not in minor_sums:
            minor_sums[(i, j)] = cpc_minor_sum(i, j, ring)
        return minor_sums[(i, j)]

    for name in outputs:
        i, j = (int(part) for part in name.split("_")[1:])
        assert got[name] == cpc(i, j).promote(7), (spec, name)
    for v in rvertices:
        i, j, a = (int(part) for part in v.split("_")[1:])
        assert got[v] == cpc(i, j + 1).partial(a, i).promote(7), (spec, v)
    assert len(outputs) == 36 and len(rvertices) == gradient_vertex_total(7, 7)


@pytest.mark.parametrize("n", [6, pytest.param(7, marks=pytest.mark.slow)])
def test_charzero_program_is_proved_symbolically(n, monkeypatch):
    # every output of the trace recursion over rat as a polynomial, past
    # the default expansion guard of 5
    monkeypatch.setenv("ABPC_GUARD_N", str(n))
    got = expand_all(build_charzero_abp(n, n, Q))
    assert sorted(got) == [f"cpc_{n}_{d}" for d in range(n + 1)]
    for d in range(n + 1):
        assert got[f"cpc_{n}_{d}"] == cpc_minor_sum(n, d, Q), (n, d)


# -- layer layout ------------------------------------------------------------------


def test_rvector_plan_matches_built_graph():
    for n in range(2, 6):
        for d in range(2, n + 1):
            g, stats = build_gradient_abp(n, d, Z)
            assert stats.width == gradient_width(n)
            assert stats.rvector_total == gradient_vertex_total(n, d)
            assert stats.per_layer_counts == tuple(gradient_layer_count(n, j) for j in range(1, d))
            for j in range(1, d):
                ids = {f"r_{i}_{j}_{a}" for i in range(j + 1, n + 1) for a in range(1, i + 1)}
                built = {v for v, lay in g.layer.items()
                         if lay == j and v.startswith("r_")}
                assert ids == built, (n, d, j)


def test_rvector_plan_transition_shape():
    m = transition_matrix(4, 2, Z)
    assert m.rows == gradient_layer_count(4, 1)
    assert m.cols == gradient_layer_count(4, 2)
