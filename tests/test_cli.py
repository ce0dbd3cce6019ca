"""CLI surface: commands, exit codes, determinism, round trips."""

import json

import pytest

from abpc.build import build_gradient_abp
from abpc.cli import main
from abpc.graph import expand_symbolic, graph_from_json_dict, graph_to_json_dict
from abpc.oracle import cpc_minor_sum
from abpc.rings import RingDescriptor

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


def test_failing_identity_exits_one(capsys, monkeypatch):
    # force a failure by handing back mismatching sides
    import abpc.identities as ident

    original = ident._SIDES["bivariate_ch"]

    def broken(n, d, ring, combinatorial):
        lhs, _rhs = original(n, d, ring, combinatorial)
        _lhs2, rhs2 = original(n, d + 1, ring, combinatorial)
        return lhs, rhs2

    monkeypatch.setitem(ident._SIDES, "bivariate_ch", broken)
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


def _rat_zero_denominator(data):
    data["ring"] = "rat"
    data["edges"][0]["const"] = "1/0"


BAD_INPUTS = {
    # graph content that loads but is invalid: eval validates it
    "layer-minus-one": (_edit(lambda d: d["vertices"].append({"id": "x", "layer": -1})),
                        "eval", "invalid graph: vertex 'x' outside layers 0..3"),
    "edge-into-source": (_edit(lambda d: d["edges"].append(
        {"from": "r_2_1_1", "to": "s", "const": "1", "linear": []})),
        "eval", "invalid graph: source has incoming edges; edge r_2_1_1->s skips layers"),
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
    # a rational with a zero denominator, in the graph and in the matrix
    "const-zero-denominator": (_edit(_rat_zero_denominator), "stats", "cannot parse '1/0' as a rational"),
    "matrix-zero-denominator": (_edit(lambda d: d.update(ring="rat")), "eval",
                                "cannot parse '1/0' as a rational",
                                '[["1/0","2","3"],["4","5","6"],["7","8","9"]]'),
    # files that cannot be read as JSON
    "directory": (lambda path: path.mkdir(), "eval", "cannot read graph"),
    "not-utf8": (lambda path: path.write_bytes(b'{"n": "\xff"}'), "stats", "cannot read graph"),
    "not-json": (lambda path: path.write_text("{"), "export-dot", "cannot read graph"),
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
