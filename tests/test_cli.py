"""CLI surface: commands, exit codes, determinism, round trips, the parser
kept across in-process calls, and the real entry point in a subprocess."""

import argparse
import gc
import io
import json
import os
import random
import re
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from abpc import cli
from abpc.build import build_gradient_abp
from abpc.cli import main
from abpc.graph import expand_symbolic, graph_from_json_dict, graph_to_json_dict, sub_abp
from abpc.oracle import ORACLE_SIZE_CAP, cpc_minor_sum, cpc_table
from abpc.rings import RingDescriptor, RingError, descriptor_from_spec, element_to_str
from helpers import random_matrix

Z = RingDescriptor.integers()


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_pass_line_and_exit_code(capsys):
    code, out, _err = run(capsys, "verify", "--identity", "bivariate_ch",
                          "--n", "3", "--d", "2", "--ring", "int")
    assert code == 0
    assert out == "bivariate_ch n=3 d=2 ring=int PASS\n"


def test_verify_at_a_degree_far_above_the_size_is_quick(capsys):
    for identity, n, d, flags in (
        # T_d = 0 for every d >= n, so the Horner sums stop at n, not at d
        ("bivariate_ch", 2, 100000, ()),
        # e_{d-i} = 0 for d-i > n, so the Girard-Newton sum has at most n+1 terms
        ("girard_newton", 2, 100000, ()),
        # no cycle cover is longer than the n vertices it covers
        ("bivariate_ch", 3, 1000000, ("--combinatorial",)),
    ):
        start = time.perf_counter()
        code, out, err = run(capsys, "verify", "--identity", identity,
                             "--n", str(n), "--d", str(d), "--ring", "int", *flags)
        assert (code, out, err) == (0, f"{identity} n={n} d={d} ring=int PASS\n", "")
        assert time.perf_counter() - start < 2.0, (identity, d, flags)


def test_verify_rejects_negative_degree(capsys):
    def verify(identity, n, d):
        return run(capsys, "verify", "--identity", identity, "--n", str(n), "--d", str(d),
                   "--ring", "int")

    for identity in ("bivariate_ch", "girard_newton", "rnd_block"):
        assert verify(identity, 2, -1) == (1, "", "error: d must be non-negative\n")
    assert verify("rnd_block", 2, 0) == (1, "", "error: rnd_block needs d >= 1\n")
    for d in (-1, 0, 1):
        assert verify("transition_product", 2, d) == (
            1, "", "error: transition_product needs d >= 2\n")
    assert verify("bivariate_ch", 0, 1) == (1, "", "error: n must be positive\n")
    # cayley_hamilton fixes d = n and adjugate d = n - 1, so any --d is accepted
    for d in (-1, 0, 5):
        assert verify("cayley_hamilton", 2, d) == (0, "cayley_hamilton n=2 d=2 ring=int PASS\n", "")
        assert verify("adjugate", 3, d) == (0, "adjugate n=3 d=2 ring=int PASS\n", "")


def test_verify_all_table(capsys):
    code, out, _err = run(capsys, "verify-all", "--n-max", "2", "--d-max", "2",
                          "--ring", "mod:4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "bivariate_ch n=1 d=0 ring=mod:4 PASS"
    assert lines[-1].startswith("total=")
    assert "failed=0" in lines[-1]


def test_build_eval_round_trip(tmp_path, capsys):
    out_file = tmp_path / "g.json"
    code, _out, _err = run(capsys, "build", "--construction", "gradient",
                           "--n", "2", "--d", "2", "--ring", "int",
                           "--out", str(out_file))
    assert code == 0
    code, out, _err = run(capsys, "eval", str(out_file),
                          "--matrix", '[["1","2"],["3","4"]]',
                          "--output", "cpc_2_2")
    assert code == 0
    assert out == "cpc_2_2 = -2\n"
    # loading the JSON gives back the same canonical polynomials
    g = graph_from_json_dict(json.loads(out_file.read_text()))
    assert expand_symbolic(g, "cpc_2_2") == cpc_minor_sum(2, 2, Z)


@pytest.mark.parametrize("ring_spec", ["int", "rat"])
def test_eval_every_output_at_n30_matches_berkowitz(ring_spec, tmp_path, capsys):
    ring = descriptor_from_spec(ring_spec)
    out_file = tmp_path / "g30.json"
    code, _out, _err = run(capsys, "build", "--construction", "gradient", "--n", "30",
                           "--d", "30", "--ring", ring_spec, "--out", str(out_file))
    assert code == 0
    a = random_matrix(ring, 30, random.Random("cli-eval30"))
    matrix = json.dumps([[element_to_str(x) for x in row] for row in a])
    code, out, err = run(capsys, "eval", str(out_file), "--matrix", matrix)
    assert (code, err) == (0, "")
    table = {f"cpc_{i}_{j}": value for (i, j), value in cpc_table(a, ring).items()}
    assert len(table) == 496
    assert out == "".join(f"{name} = {element_to_str(value)}\n"
                          for name, value in sorted(table.items()))


def test_eval_all_outputs_sorted(tmp_path, capsys):
    out_file = tmp_path / "g.json"
    run(capsys, "build", "--construction", "bivariate", "--n", "2", "--d", "1",
        "--ring", "int", "--out", str(out_file))
    code, out, _err = run(capsys, "eval", str(out_file),
                          "--matrix", '[["1","0"],["0","1"]]')
    assert code == 0
    names = [line.split(" = ")[0] for line in out.strip().splitlines()]
    assert names == sorted(names)


def test_eval_unknown_output_fails_before_printing(tmp_path, capsys):
    out_file = tmp_path / "g.json"
    run(capsys, "build", "--construction", "gradient", "--n", "2", "--d", "2",
        "--ring", "int", "--out", str(out_file))
    code, out, err = run(capsys, "eval", str(out_file), "--matrix", '[["1","2"],["3","4"]]',
                         "--output", "cpc_2_2", "--output", "x", "--output", "cpc_2_2")
    assert code == 1 and out == ""
    assert err == "error: unknown output 'x'\n"
    code, out, _err = run(capsys, "eval", str(out_file), "--matrix", '[["1","2"],["3","4"]]',
                          "--output", "cpc_2_2", "--output", "cpc_2_1", "--output", "cpc_2_2")
    assert code == 0
    assert out == "cpc_2_2 = -2\ncpc_2_1 = 5\ncpc_2_2 = -2\n"


def test_stats_reports_width_14_for_five_five(tmp_path, capsys):
    out_file = tmp_path / "g5.json"
    run(capsys, "build", "--construction", "gradient", "--n", "5", "--d", "5",
        "--ring", "int", "--out", str(out_file))
    code, out, _err = run(capsys, "stats", str(out_file))
    assert code == 0
    payload = json.loads(out[: out.rindex("}") + 1])
    assert payload["width"] == 14
    assert payload["rvector_total"] == 40
    assert "ratios" in out


def test_stats_formula_mode(capsys):
    code, out, _err = run(capsys, "stats", "--formula", "--n", "30", "--d", "30")
    assert code == 0
    assert '"vertices": 8990' in out
    assert '"baseline_vertices": 27000' in out


def test_export_dot(tmp_path, capsys):
    out_file = tmp_path / "g.json"
    run(capsys, "build", "--construction", "bivariate", "--n", "2", "--d", "2",
        "--ring", "int", "--out", str(out_file))
    code, out, _err = run(capsys, "export-dot", str(out_file))
    assert code == 0
    assert out.startswith("digraph")
    assert "rank=same" in out


def test_deterministic_stdout(tmp_path, capsys):
    args = ("verify-all", "--n-max", "2", "--d-max", "2", "--ring", "int")
    _code, first, _ = run(capsys, *args)
    _code, second, _ = run(capsys, *args)
    assert first == second
    out_file = tmp_path / "a.json"
    run(capsys, "build", "--construction", "gradient", "--n", "3", "--d", "3",
        "--ring", "rat", "--out", str(out_file))
    first_payload = out_file.read_text()
    run(capsys, "build", "--construction", "gradient", "--n", "3", "--d", "3",
        "--ring", "rat", "--out", str(out_file))
    assert out_file.read_text() == first_payload


def test_out_files_overwrite_longer_and_shorter_files(tmp_path, capsys):
    fresh, dot = tmp_path / "fresh.json", tmp_path / "fresh.dot"
    build = ("build", "--construction", "gradient", "--n", "3", "--d", "3", "--ring", "int")
    run(capsys, *build, "--out", str(fresh), "--dot", str(dot))
    for stale in ("x" * (3 * len(fresh.read_text())), "x"):
        out, out_dot, exported = (tmp_path / name for name in ("o.json", "o.dot", "e.dot"))
        for path in (out, out_dot, exported):
            path.write_text(stale)
        run(capsys, *build, "--out", str(out), "--dot", str(out_dot))
        run(capsys, "export-dot", str(fresh), "--out", str(exported))
        assert out.read_bytes() == fresh.read_bytes()
        assert out_dot.read_bytes() == exported.read_bytes() == dot.read_bytes()
    read_end, write_end = os.pipe()
    assert run(capsys, "export-dot", str(fresh), "--out", f"/dev/fd/{write_end}")[0] == 0
    os.close(write_end)
    with os.fdopen(read_end, "rb") as pipe:
        assert pipe.read() == dot.read_bytes()


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--identity", "bivariate_ch", "--n", "2", "--d", "1",
              "--ring", "galois:4"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--identity", "bivariate_ch", "--unknown-flag"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_semantic_errors_exit_one(capsys, tmp_path):
    code = main(["eval", str(tmp_path / "missing.json"),
                 "--matrix", '[["1"]]'])
    assert code == 1
    bad = tmp_path / "bad.json"
    bad.write_text('{"flavor": "abp"}')
    code = main(["stats", str(bad)])
    assert code == 1


def test_dump_prints_canonical_sides(capsys):
    code, out, _err = run(capsys, "verify", "--identity", "bivariate_ch",
                          "--n", "2", "--d", "1", "--ring", "int", "--dump")
    assert code == 0
    assert "lhs[1,1] = 1*x[2,2]" in out
    assert "rhs[1,1] = 1*x[2,2]" in out
    assert "lhs[1,2] = -1*x[1,2]" in out


def test_dump_prints_scalar_sides(capsys):
    code, out, _err = run(capsys, "verify", "--identity", "trace_ch",
                          "--n", "2", "--d", "2", "--ring", "int", "--dump")
    assert code == 0
    # -2 cpc_{2,2} = -cpc_{2,1} tr X + tr X^2
    side = "-2*x[1,1]*x[2,2] + 2*x[1,2]*x[2,1]"
    assert out == f"trace_ch n=2 d=2 ring=int PASS\nlhs = {side}\nrhs = {side}\n"


def test_dump_builds_the_sides_once(capsys, monkeypatch):
    import abpc.identities as ident

    original = ident._SIDES["bivariate_ch"]
    calls = []

    def counted(n, d, ing):
        calls.append((n, d))
        return original.sides(n, d, ing)

    monkeypatch.setitem(ident._SIDES, "bivariate_ch", original._replace(sides=counted))
    code, out, _err = run(capsys, "verify", "--identity", "bivariate_ch",
                          "--n", "2", "--d", "1", "--ring", "int", "--dump")
    assert code == 0 and "rhs[2,2] = 1*x[1,1]" in out
    assert calls == [(2, 1)]


def test_horner_sums_are_built_once_per_size(capsys, monkeypatch):
    import abpc.identities as ident

    original = ident._horner_step
    calls = []

    def counted(ing, n, k, prev):
        calls.append((n, k))
        return original(ing, n, k, prev)

    monkeypatch.setattr(ident, "_horner_step", counted)
    reports = ident.verify_all(4, 4, Z)
    assert all(rep.passed for rep in reports)
    # past k = n the sum T_n is zero, and so is every later one, without a step
    assert sorted(calls) == [(n, k) for n in range(1, 5) for k in range(0, n + 1)]
    # identities that do not read the Horner sum build none
    for identity in ("girard_newton", "rnd_block", "transition_product"):
        calls.clear()
        code, _out, _err = run(capsys, "verify", "--identity", identity,
                               "--n", "3", "--d", "3", "--ring", "int")
        assert (code, calls) == (0, []), identity
    code, _out, _err = run(capsys, "verify", "--identity", "bivariate_ch",
                           "--n", "3", "--d", "2", "--ring", "int")
    assert (code, calls) == (0, [(3, 0), (3, 1), (3, 2)])


def test_verify_refuses_an_over_cap_size_before_it_builds_a_side(capsys, monkeypatch):
    import abpc.identities as ident

    calls = []
    for name, rule in ident._SIDES.items():
        def counted(n, d, ing, name=name, sides=rule.sides):
            calls.append(name)
            return sides(n, d, ing)
        monkeypatch.setitem(ident._SIDES, name, rule._replace(sides=counted))
    over = ORACLE_SIZE_CAP + 1
    # the matrix size is d for transition_product and n for every other identity
    cases = [(name, over, rule.d_min) for name, rule in ident._SIDES.items() if not rule.d_is_size]
    cases += [("transition_product", 1, over), ("transition_product", 1, 40), ("cayley_hamilton", 600, 0)]
    for identity, n, d in cases:
        for extra in ((), ("--dump",), ("--combinatorial",)):
            result = run(capsys, "verify", "--identity", identity, "--n", str(n), "--d", str(d),
                         "--ring", "int", *extra)
            assert result == (1, "", "error: oracle size limit\n"), (identity, n, d, extra)
    assert calls == []
    # at the cap the sides are built; transition_product ignores n
    for identity, n, d in (("bivariate_ch", ORACLE_SIZE_CAP, 0), ("transition_product", 20, 3)):
        code, out, _err = run(capsys, "verify", "--identity", identity, "--n", str(n), "--d", str(d),
                              "--ring", "int")
        assert (code, out) == (0, f"{identity} n={n} d={d} ring=int PASS\n")
    assert calls == ["bivariate_ch", "transition_product"]


def test_failing_identity_exits_one(capsys, monkeypatch):
    # force a failure by handing back mismatching sides
    import abpc.identities as ident

    original = ident._SIDES["bivariate_ch"]

    def broken(n, d, ing):
        lhs, _rhs = original.sides(n, d, ing)
        _lhs2, rhs2 = original.sides(n, d + 1, ing)
        return lhs, rhs2

    monkeypatch.setitem(ident._SIDES, "bivariate_ch", original._replace(sides=broken))
    code, out, _err = run(capsys, "verify", "--identity", "bivariate_ch",
                          "--n", "2", "--d", "1", "--ring", "int")
    assert code == 1
    assert "FAIL" in out
    assert "diff" in out


def _edit(change):
    """Gradient n=3 graph JSON text with ``change`` applied to its dict."""
    def write(path):
        data = graph_to_json_dict(build_gradient_abp(3, 3, Z)[0])
        change(data)
        path.write_text(json.dumps(data))
    return write


def _first_term(data):
    return next(e for e in data["edges"] if e["linear"])["linear"][0]


def _repeat_first_term(data):
    terms = next(e for e in data["edges"] if e["linear"])["linear"]
    terms.append(dict(terms[0], coeff="2"))


def _repeat_label_with_bool_index(data):
    # a label cache keyed before the type check would take True for 1
    first = next(e for e in data["edges"] if e["linear"] and e["linear"][0]["i"] == 1)
    last = data["edges"][-1]
    last.update(const=first["const"], linear=[dict(t) for t in first["linear"]])
    last["linear"][0]["i"] = True


def _rat_zero_denominator(data):
    data["ring"] = "rat"
    data["edges"][0]["const"] = "1/0"


BAD_INPUTS = {
    # graph content that loads but is invalid: eval validates it
    "layer-minus-one": (_edit(lambda d: d["vertices"].append({"id": "x", "layer": -1})),
                        "eval", "invalid input graph: vertex 'x' outside layers 0..3"),
    "edge-into-source": (_edit(lambda d: d["edges"].append(
        {"from": "r_2_1_1", "to": "s", "const": "1", "linear": []})),
        "eval", "invalid input graph: source has incoming edges; edge r_2_1_1->s skips layers"),
    # field types and ranges
    "n-string": (_edit(lambda d: d.update(n="3")), "eval", "field 'n' must be an integer"),
    "d-bool": (_edit(lambda d: d.update(d=True)), "stats", "field 'd' must be an integer"),
    "layer-float": (_edit(lambda d: d["vertices"][-1].update(layer=1.0)), "export-dot",
                    "field 'layer' must be an integer"),
    "i-too-large": (_edit(lambda d: _first_term(d).update(i=9)), "eval",
                    "field 'i' must be in 1..3, got 9"),
    "j-zero": (_edit(lambda d: _first_term(d).update(j=0)), "stats",
               "field 'j' must be in 1..3, got 0"),
    "id-int": (_edit(lambda d: d["vertices"][-1].update(id=7)), "eval",
               "field 'id' must be a string"),
    "ring-int": (_edit(lambda d: d.update(ring=4)), "stats", "field 'ring' must be a string"),
    "const-int": (_edit(lambda d: d["edges"][0].update(const=0)), "eval",
                  "field 'const' must be a string"),
    "coeff-int": (_edit(lambda d: _first_term(d).update(coeff=-1)), "export-dot",
                  "field 'coeff' must be a string"),
    "output-int": (_edit(lambda d: d["outputs"].update(cpc_3_3=5)), "eval",
                   "field 'cpc_3_3' must be a string"),
    "term-repeated": (_edit(_repeat_first_term), "eval",
                      "malformed graph JSON: edge r_2_1_1->c_3_2 repeats a linear term"),
    "i-bool-on-repeated-label": (_edit(_repeat_label_with_bool_index), "eval",
                                 "field 'i' must be an integer, got True"),
    # a rational with a zero denominator, in the graph and in the matrix
    "const-zero-denominator": (_edit(_rat_zero_denominator), "stats", "cannot parse '1/0' as a rational"),
    "matrix-zero-denominator": (_edit(lambda d: d.update(ring="rat")), "eval",
                                "cannot parse '1/0' as a rational",
                                '[["1/0","2","3"],["4","5","6"],["7","8","9"]]'),
    # files that cannot be read as JSON
    "directory": (lambda path: path.mkdir(), "eval", "cannot read graph"),
    "not-utf8": (lambda path: path.write_bytes(b'{"n": "\xff"}'), "stats", "cannot read graph"),
    "not-json": (lambda path: path.write_text("{"), "export-dot", "cannot read graph"),
    "deeply-nested": (lambda path: path.write_text("[" * 200_000), "stats", "cannot read graph"),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_is_one_error_line(case, tmp_path, capsys):
    write, command, message, *matrix = BAD_INPUTS[case]
    path = tmp_path / "g.json"
    write(path)
    argv = [command, str(path)]
    if command == "eval":
        argv += ["--matrix", matrix[0] if matrix else '[["1","2","3"],["4","5","6"],["7","8","9"]]']
    code, out, err = run(capsys, *argv)
    assert code in (1, 2)
    assert out == ""
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert message in lines[0]


def test_deeply_nested_matrix_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "g.json"
    _edit(lambda d: None)(path)
    with pytest.raises(SystemExit) as exc:
        main(["eval", str(path), "--matrix", "[" * 200_000])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "error: bad matrix JSON" in err


@pytest.mark.parametrize("n_d", [("0",), ("-2",), ("3", "0"), ("3", "4")])
def test_formula_parameters_out_of_range(n_d, capsys):
    argv = ["stats", "--formula", "--n", n_d[0]] + (["--d", n_d[1]] if len(n_d) > 1 else [])
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err == "error: parameters out of range: need 1 <= d <= n\n"


def test_stats_formula_n1_prints_na_ratios(capsys):
    code, out, _err = run(capsys, "stats", "--formula", "--n", "1")
    assert code == 0
    assert out.endswith("this construction vertices=0 width=0; ratios n/a\n")


def test_commands_run_with_the_collector_paused(tmp_path, capsys, monkeypatch):
    seen = []

    def record(parser, args):
        seen.append(gc.isenabled())
        return 0

    monkeypatch.setitem(cli._COMMANDS, "verify-all", record)
    graph = tmp_path / "g.json"
    assert run(capsys, "build", "--construction", "gradient", "--n", "2", "--d", "2",
               "--ring", "int", "--out", str(graph))[0] == 0
    was_enabled = gc.isenabled()
    gc.enable()
    try:
        assert run(capsys, "verify-all", "--n-max", "2", "--d-max", "2", "--ring", "int")[0] == 0
        assert seen == [False] and gc.isenabled()
        code, _out, err = run(capsys, "eval", str(tmp_path / "missing.json"), "--matrix", "[]")
        assert code == 1 and err.startswith("error: cannot read graph")
        assert gc.isenabled()
        with pytest.raises(SystemExit) as exc:
            main(["eval", str(graph), "--matrix", "["])
        assert exc.value.code == 2 and "bad matrix JSON" in capsys.readouterr().err
        assert gc.isenabled()
        gc.disable()
        assert run(capsys, "verify-all", "--n-max", "2", "--d-max", "2", "--ring", "int")[0] == 0
        assert seen == [False, False] and not gc.isenabled()
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_stats_of_a_sub_program_counts_its_non_sinks(tmp_path, capsys):
    path = tmp_path / "sub.json"
    path.write_text(json.dumps(graph_to_json_dict(sub_abp(build_gradient_abp(5, 5, Z)[0], "cpc_4_2"))))
    code, out, _err = run(capsys, "stats", str(path))
    assert code == 0
    payload = json.loads(out[: out.rindex("}") + 1])
    assert payload["rvector_total"] is None and payload["size"] == 9
    assert out.endswith("this construction vertices=9 width=9; ratios 13.8889 2.7778\n")


# -- integers of any length ----------------------------------------------------

_HAS_DIGIT_LIMIT = hasattr(sys, "set_int_max_str_digits")
TEN_5000 = "1" + "0" * 5000  # 10^5000, past Python's default 4,300-digit str/int limit


def _gradient_file(path, n=2, ring="int", **fields):
    """The gradient n x n program's JSON at ``path``, with ``ring`` and ``fields`` replaced."""
    data = graph_to_json_dict(build_gradient_abp(n, n, Z)[0])
    data.update(ring=ring, **fields)
    path.write_text(json.dumps(data))
    return str(path)


def test_ring_spec_digit_that_int_refuses_is_an_error(tmp_path, capsys):
    # "²".isdigit() is true, and int() rejects it
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--identity", "bivariate_ch", "--n", "1", "--d", "1", "--ring", "mod:²"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith("error: bad modulus in ring spec 'mod:²'\n")
    path = _gradient_file(tmp_path / "g.json", ring="mod:²")
    assert run(capsys, "stats", path) == (1, "", "error: bad modulus in ring spec 'mod:²'\n")


def test_matrix_entries_of_any_length_read_and_print_in_full(tmp_path, capsys):
    path = _gradient_file(tmp_path / "g.json")
    # A = [[10^5000, 2], [3, 10^5000]]: tr A = 2*10^5000 and det A = 10^10000 - 6
    want = ("cpc_0_0 = 1\ncpc_1_0 = 1\n"
            f"cpc_1_1 = {TEN_5000}\ncpc_2_0 = 1\ncpc_2_1 = 2{TEN_5000[1:]}\n"
            f"cpc_2_2 = {'9' * 9999}4\n")
    for matrix in (json.dumps([[TEN_5000, "2"], ["3", TEN_5000]]),  # strings
                   f"[[{TEN_5000}, 2], [3, {TEN_5000}]]"):  # bare JSON numbers
        assert run(capsys, "eval", path, "--matrix", matrix) == (0, want, "")
    rat = _gradient_file(tmp_path / "q.json", ring="rat")
    code, out, err = run(capsys, "eval", rat, "--matrix", json.dumps([[TEN_5000 + "/7", "0"], ["0", "0"]]),
                         "--output", "cpc_1_1")
    assert (code, out, err) == (0, f"cpc_1_1 = {TEN_5000}/7\n", "")


def test_products_past_the_digit_limit_print_in_full(tmp_path, capsys):
    # 3,000-digit entries: cpc_2_2 = 10^6000 has 6,001 digits
    ten_3000 = "1" + "0" * 3000
    path = _gradient_file(tmp_path / "g.json")
    code, out, err = run(capsys, "eval", path, "--matrix", json.dumps([[ten_3000, "0"], ["0", ten_3000]]))
    assert (code, err) == (0, "")
    assert out.splitlines()[-2:] == [f"cpc_2_1 = 2{ten_3000[1:]}", f"cpc_2_2 = 1{'0' * 6000}"]


def test_modulus_of_any_length(tmp_path, capsys):
    ring = "mod:" + TEN_5000
    code, out, err = run(capsys, "verify", "--identity", "bivariate_ch", "--n", "1", "--d", "1",
                         "--ring", ring)
    assert (code, out, err) == (0, f"bivariate_ch n=1 d=1 ring={ring} PASS\n", "")
    path = _gradient_file(tmp_path / "g.json", ring=ring)
    code, out, err = run(capsys, "eval", path, "--matrix", '[["-1","0"],["0","0"]]', "--output", "cpc_1_1")
    assert (code, out, err) == (0, f"cpc_1_1 = {'9' * 5000}\n", "")
    # outside the CLI the digit limit holds, and the modulus is a bad one
    if _HAS_DIGIT_LIMIT:
        with pytest.raises(RingError, match="bad modulus"):
            descriptor_from_spec(ring)


def test_graph_file_numbers_of_any_length(tmp_path, capsys):
    # an ambient size of 10^5000 as a bare JSON number: the baseline ratios
    # leave float range and read n/a
    path = tmp_path / "g.json"
    _gradient_file(path, n=2)
    path.write_text(path.read_text().replace('"n": 2', f'"n": {TEN_5000}'))
    code, out, err = run(capsys, "stats", str(path))
    assert (code, err) == (0, "")
    assert out.endswith(f"baseline n^3=1{'0' * 15000} width n^2=1{'0' * 10000}; "
                        "this construction vertices=2 width=2; ratios n/a\n")
    data = json.loads(path.read_text().replace(f'"n": {TEN_5000}', '"n": 2'))
    data["edges"][0]["linear"][0]["coeff"] = TEN_5000
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "export-dot", str(path))
    assert (code, err) == (0, "") and f'label="{TEN_5000}*x[' in out


def test_main_restores_the_callers_digit_limit(tmp_path, capsys):
    if not _HAS_DIGIT_LIMIT:
        pytest.skip("this Python has no int/str digit limit")
    path = _gradient_file(tmp_path / "g.json")
    before = sys.get_int_max_str_digits()
    try:
        for limit in (5000, 0):
            sys.set_int_max_str_digits(limit)
            assert run(capsys, "eval", path, "--matrix", '[["1","2"],["3","4"]]')[0] == 0
            assert sys.get_int_max_str_digits() == limit
            assert run(capsys, "stats", str(tmp_path / "missing.json"))[0] == 1
            assert sys.get_int_max_str_digits() == limit
            with pytest.raises(SystemExit):
                main(["eval", path, "--matrix", "["])  # a usage error inside the command
            assert sys.get_int_max_str_digits() == limit
    finally:
        sys.set_int_max_str_digits(before)


def test_constant_edge_cycle_report_does_not_scan_every_layer(tmp_path, capsys):
    # gradient n=1 with d = 10^12: valid, and evaluated as at d = 1
    path = _gradient_file(tmp_path / "g.json", n=1, d=10 ** 12)
    start = time.perf_counter()
    assert run(capsys, "eval", path, "--matrix", '[["5"]]') == (
        0, "cpc_0_0 = 1\ncpc_1_0 = 1\ncpc_1_1 = 5\n", "")
    assert time.perf_counter() - start < 1.0
    # a constant-edge cycle in layer 1 is reported as at d = 1
    for d in (1, 10 ** 12):
        data = graph_to_json_dict(build_gradient_abp(1, 1, Z)[0])
        data["d"] = d
        data["vertices"].append({"id": "x", "layer": 1})
        data["edges"] += [{"from": "c_1_1", "to": "x", "const": "1", "linear": []},
                          {"from": "x", "to": "c_1_1", "const": "1", "linear": []}]
        cyclic = tmp_path / f"cyclic-{d}.json"
        cyclic.write_text(json.dumps(data))
        assert run(capsys, "eval", str(cyclic), "--matrix", '[["5"]]') == (
            1, "", "error: invalid input graph: constant-edge cycle in layer 1\n")


# -- every ring spec and matrix text ends in a result or one error line --------------

_CELLS = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=6),
                   st.from_regex(r"[+-]?[0-9]{1,30}(/[0-9]{1,4})?", fullmatch=True))
_MATRICES = st.one_of(
    st.text(max_size=30),
    st.lists(st.lists(_CELLS, min_size=2, max_size=2), min_size=2, max_size=2).map(json.dumps),
    st.recursive(_CELLS, lambda inner: st.lists(inner, max_size=3), max_leaves=10).map(json.dumps),
)
_RING_SPECS = st.one_of(st.sampled_from(["int", "rat", "mod:6", "mod:1", "mod:", "mod:07"]),
                        st.text(max_size=10), st.text(max_size=10).map("mod:".__add__),
                        st.from_regex(r"mod:[0-9]{1,40}", fullmatch=True))


def _outcome(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _assert_one_result(code, out, err):
    assert code in (0, 1, 2)
    if code == 0:
        assert err == ""
    elif code == 1:
        assert out == "" and err.startswith("error:") and err.count("\n") == 1 and err.endswith("\n")
    else:  # argparse prints its usage before the error line
        assert out == "" and re.match(r"abpc( [a-z-]+)?: error: ", err.splitlines()[-1])


@settings(max_examples=150, deadline=None)
@given(ring=_RING_SPECS, matrix=_MATRICES)
@example(ring="mod:²", matrix='[["1","2"],["3","4"]]')
@example(ring="mod:" + TEN_5000, matrix='[["1","2"],["3","4"]]')
@example(ring="int", matrix=json.dumps([[TEN_5000, "1"], ["2", "3"]]))
@example(ring="int", matrix=f"[[{TEN_5000}, 1], [2, 3]]")
@example(ring="rat", matrix=json.dumps([[TEN_5000 + "/7", "1"], ["2", "3"]]))
@example(ring="int", matrix=json.dumps([["1" + "0" * 3000] * 2] * 2))
def test_ring_specs_and_matrices_never_raise(tmp_path_factory, ring, matrix):
    path = _gradient_file(tmp_path_factory.mktemp("prop") / "g.json", ring=ring)
    _assert_one_result(*_outcome(["eval", path, "--matrix", matrix]))
    _assert_one_result(*_outcome(["verify", "--identity", "bivariate_ch", "--n", "1", "--d", "1",
                                  "--ring", ring]))


# -- one parser per process: nothing carries over from one call to the next ------------

COMMANDS = ("build", "eval", "verify", "verify-all", "stats", "export-dot")
GRADIENT_2_AT_1234 = ("cpc_0_0 = 1\ncpc_1_0 = 1\ncpc_1_1 = 1\n"
                      "cpc_2_0 = 1\ncpc_2_1 = 5\ncpc_2_2 = -2\n")


def _fresh_parsers():
    """A newly built top-level parser and command parsers, not the kept ones."""
    return cli._parser.__wrapped__()


def test_parser_is_built_once_across_calls(tmp_path, capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli._parser.cache_clear()
    path = _gradient_file(tmp_path / "g.json")
    for _ in range(5):
        assert run(capsys, "eval", path, "--matrix", '[["1","2"],["3","4"]]') == (
            0, GRADIENT_2_AT_1234, "")
        assert run(capsys, "verify", "--identity", "adjugate", "--n", "2", "--ring", "int")[0] == 0
        assert run(capsys, "stats", "--formula", "--n", "3")[0] == 0
    assert len(built) == 1 + len(COMMANDS)  # the top level and one per command, once
    assert cli._parser.cache_info().misses == 1


def test_output_list_does_not_carry_over(tmp_path, capsys):
    path = _gradient_file(tmp_path / "g.json")
    matrix = '[["1","2"],["3","4"]]'
    assert run(capsys, "eval", path, "--matrix", matrix, "--output", "cpc_1_1") == (
        0, "cpc_1_1 = 1\n", "")
    assert run(capsys, "eval", path, "--matrix", matrix) == (0, GRADIENT_2_AT_1234, "")
    assert run(capsys, "eval", path, "--matrix", matrix, "--output", "cpc_2_2",
               "--output", "cpc_2_1") == (0, "cpc_2_2 = -2\ncpc_2_1 = 5\n", "")
    assert run(capsys, "eval", path, "--matrix", matrix) == (0, GRADIENT_2_AT_1234, "")


def test_flags_do_not_carry_over(capsys, monkeypatch):
    seen = []
    original = cli.verify_with_sides

    def recorded(*args, combinatorial):
        seen.append(combinatorial)
        return original(*args, combinatorial=combinatorial)

    monkeypatch.setattr(cli, "verify_with_sides", recorded)
    argv = ["verify", "--identity", "bivariate_ch", "--n", "2", "--d", "1", "--ring", "int"]
    default = run(capsys, *argv)
    assert default == (0, "bivariate_ch n=2 d=1 ring=int PASS\n", "")
    assert run(capsys, *argv, "--combinatorial", "--dump")[0] == 0
    assert run(capsys, *argv) == default
    assert seen == [False, True, False]


@pytest.mark.parametrize("columns", [None, "40", "200"])
def test_help_matches_a_fresh_parser(capsys, monkeypatch, columns):
    """Help is formatted when printed, so the kept parser follows COLUMNS."""
    if columns is None:
        monkeypatch.delenv("COLUMNS", raising=False)
    else:
        monkeypatch.setenv("COLUMNS", columns)
    fresh, fresh_commands = _fresh_parsers()
    assert sorted(fresh_commands) == sorted(COMMANDS)
    for argv in [["--help"]] + [[command, "--help"] for command in COMMANDS]:
        texts = []
        for parse in (main, fresh.parse_args, main):
            with pytest.raises(SystemExit) as exc:
                parse(argv)
            assert exc.value.code == 0
            texts.append(capsys.readouterr().out)
        assert texts[0] == texts[1] == texts[2] and texts[0].startswith("usage: abpc"), argv


def test_usage_error_then_success(tmp_path, capsys):
    path = _gradient_file(tmp_path / "g.json")
    matrix = '[["1","2"],["3","4"]]'
    for bad in (["eval", path, "--matrix", "["], ["eval", path, "--matrix", matrix, "--bogus"],
                ["eval", path], ["verify", "--identity", "adjugate", "--n", "2", "--ring", "gf:4"],
                ["no-such-command"]):
        with pytest.raises(SystemExit) as exc:
            main(bad)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and "error:" in err
        assert run(capsys, "eval", path, "--matrix", matrix) == (0, GRADIENT_2_AT_1234, "")


# -- usage errors found inside a command name that command ---------------------------

@pytest.mark.parametrize("command, argv, message", [
    ("build", ["--construction", "gradient", "--n", "2", "--d", "2", "--ring", "gf:4",
               "--out", "OUT"], "unknown ring spec 'gf:4'"),
    ("verify", ["--identity", "adjugate", "--n", "2", "--ring", "mod:0"], None),
    ("verify-all", ["--n-max", "2", "--d-max", "2", "--ring", "rat:"], "unknown ring spec 'rat:'"),
    ("eval", ["G", "--matrix", "[1,"], None),
    ("eval", ["G", "--matrix", '{"a": 1}'], "matrix must be an array of arrays of strings"),
    ("eval", ["G", "--matrix", '[["1"], 2]'], "matrix must be an array of arrays of strings"),
    ("stats", ["--formula"], "--formula needs --n"),
    ("stats", [], "stats needs a graph file or --formula"),
    # a cell must be a JSON string or integer
    *(("eval", ["G", "--matrix", f'[[{cell},"1"],["1","1"]]'],
       "matrix must be an array of arrays of strings")
      for cell in ("null", "true", "1.5", '["1"]', "{}")),
])
def test_in_command_usage_errors_print_the_commands_usage(tmp_path, capsys, command, argv,
                                                          message):
    path = _gradient_file(tmp_path / "g.json")
    out_file = tmp_path / "out.json"
    argv = [{"G": path, "OUT": str(out_file)}.get(a, a) for a in argv]
    with pytest.raises(SystemExit) as exc:
        main([command, *argv])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    usage = _fresh_parsers()[1][command].format_usage()
    assert out == "" and err.startswith(usage), err
    last = err[len(usage):]
    assert last.startswith(f"abpc {command}: error: ") and last.count("\n") == 1, err
    if message is not None:
        assert last == f"abpc {command}: error: {message}\n"
    assert not out_file.exists()


# -- the real entry point, in a fresh interpreter ------------------------------------

def _entry(*argv, cwd):
    """``python -m abpc.cli argv`` in a subprocess that imports this checkout's package."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, COLUMNS="80")
    return subprocess.run([sys.executable, "-m", "abpc.cli", *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def test_entry_point_in_a_subprocess(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    helped = _entry("--help", cwd=tmp_path)
    with pytest.raises(SystemExit):
        _fresh_parsers()[0].parse_args(["--help"])
    assert (helped.returncode, helped.stdout, helped.stderr) == (0, capsys.readouterr().out, "")
    build = ["build", "--construction", "gradient", "--n", "3", "--d", "3", "--ring", "rat",
             "--out", "g.json"]
    built = _entry(*build, cwd=tmp_path)
    assert (built.returncode, built.stdout, built.stderr) == (0, "wrote g.json\n", "")
    written = (tmp_path / "g.json").read_bytes()
    matrix = '[["1/2","2","0"],["3","4","-1"],["5","0","7/3"]]'
    evaluated = _entry("eval", "g.json", "--matrix", matrix, cwd=tmp_path)
    assert (evaluated.returncode, evaluated.stderr) == (0, "")
    assert "cpc_3_3 = -58/3\n" in evaluated.stdout
    # the same bytes as the in-process calls
    monkeypatch.chdir(tmp_path)
    assert run(capsys, *build) == (0, "wrote g.json\n", "")
    assert (tmp_path / "g.json").read_bytes() == written
    assert run(capsys, "eval", "g.json", "--matrix", matrix) == (0, evaluated.stdout, "")
