"""Graph JSON: ``graph_to_json_text`` against ``json.dumps`` of the dict
reference, its round trip through ``graph_from_json_dict``, that reader
against the per-field reference reader on good and mutated files,
``validate`` against its reference on the mutated files that read, and the
id strings that edge keys share with their vertices."""

import copy
import io
import json
import random
import tempfile
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from abpc.build import build_bivariate_abp, build_charzero_abp, build_gradient_abp
from abpc.cli import main
from abpc.graph import (
    AbpGraph,
    GraphError,
    graph_from_json_dict,
    graph_to_dot,
    graph_to_json_dict,
    graph_to_json_text,
    validate,
)
from abpc.poly import Polynomial
from abpc.rings import AbpcError, descriptor_from_spec
from helpers import (
    FLAVORS,
    RING_FAMILIES,
    Q,
    Z,
    random_program,
    reference_dict,
    reference_graph_from_json_dict,
    reference_graph_to_dot,
    reference_validate,
    tuple_raw,
)


def reference_text(g: AbpGraph) -> str:
    return json.dumps(reference_dict(g), indent=2, sort_keys=True) + "\n"


def constructions(spec):
    """Every construction at n <= 6 over ``spec``; charzero over ``rat`` only."""
    ring = descriptor_from_spec(spec)
    for n in range(1, 7):
        for d in range(0, n + 1):
            if spec == "rat":
                yield build_charzero_abp(n, d, ring)
            if d >= 1:
                yield build_bivariate_abp(n, d, ring)
                yield build_gradient_abp(n, d, ring)[0]


def seeded_programs(flavor):
    for ring_name, ring in sorted(RING_FAMILIES.items()):
        for seed in range(30):
            rng = random.Random(f"json/{flavor}/{ring_name}/{seed}")
            yield random_program(flavor, ring, rng.randint(1, 3), rng.randint(1, 4), rng)


@pytest.mark.parametrize("spec", ("int", "mod:4", "mod:6", "rat"))
def test_writer_matches_reference_on_constructions(spec):
    for g in constructions(spec):
        assert graph_to_json_text(g) == reference_text(g), (spec, g)


@pytest.mark.parametrize("flavor", FLAVORS)
def test_writer_matches_reference_on_random_programs(flavor):
    for g in seeded_programs(flavor):
        assert graph_to_json_text(g) == reference_text(g), (flavor, g)


def assert_same_graph(got: AbpGraph, want: AbpGraph) -> None:
    assert (got.flavor, got.ring, got.ambient_n, got.num_layers) == \
        (want.flavor, want.ring, want.ambient_n, want.num_layers)
    assert (got.layer, got.source, got.outputs) == (want.layer, want.source, want.outputs)
    assert list(got.edges) == list(want.edges)
    assert [lab.raw for lab in got.edges.values()] == [lab.raw for lab in want.edges.values()]
    # labels are shared by identity, so both readers make as many label objects
    assert len({id(lab) for lab in got.edges.values()}) == \
        len({id(lab) for lab in want.edges.values()})
    assert graph_to_json_text(got) == graph_to_json_text(want)


def read_both(text: str):
    """The graph, or the error, that each reader makes of one file's text."""
    outcomes = []
    for read in (graph_from_json_dict, reference_graph_from_json_dict):
        try:
            outcomes.append(read(json.loads(text)))
        except AbpcError as exc:
            outcomes.append((type(exc), str(exc)))
    return outcomes


@pytest.mark.parametrize("spec", ("int", "mod:4", "mod:6", "rat"))
def test_reader_matches_reference_reader_on_constructions(spec):
    for g in constructions(spec):
        got, want = read_both(graph_to_json_text(g))
        assert_same_graph(got, want)
        assert got._plan is None


@pytest.mark.parametrize("spec", ("int", "mod:6", "rat"))
def test_reader_stores_a_construction_without_add_edges(spec, monkeypatch):
    # the parse already fixes each label's ring, ambient size and degree, and
    # a written file names every pair once, so no edge needs add_edges' checks
    texts = [graph_to_json_text(g) for g in constructions(spec)]
    calls = []
    add_edges = AbpGraph.add_edges
    monkeypatch.setattr(AbpGraph, "add_edges", lambda g, triples: calls.append(g) or add_edges(g, triples))
    for text in texts:
        assert graph_to_json_text(graph_from_json_dict(json.loads(text))) == text
    assert calls == []


@pytest.mark.parametrize("flavor", FLAVORS)
def test_reader_matches_reference_reader_on_random_programs(flavor):
    for g in seeded_programs(flavor):
        got, want = read_both(graph_to_json_text(g))
        assert_same_graph(got, want)


# a quote, a backslash, a newline, a tab, a non-ASCII and a non-BMP
# character, and the empty string
ODD_IDS = ['say "hi"', "back\\slash", "two\nlines", "tab\there", "café",
           "smile\U0001F600", ""]


def test_writer_escapes_strings_as_json_dumps_does():
    data = {
        "flavor": "abp", "ring": "rat", "n": 1, "d": 1, "source": "",
        "vertices": [{"id": vid, "layer": 0 if vid == "" else 1} for vid in ODD_IDS],
        "edges": [{"from": "", "to": vid, "const": "0",
                   "linear": [{"i": 1, "j": 1, "coeff": "-3/2"}]} for vid in ODD_IDS if vid],
        "outputs": {vid[::-1]: vid for vid in ODD_IDS},
    }
    g = graph_from_json_dict(data)
    text = graph_to_json_text(g)
    assert text == reference_text(g)
    assert text.isascii()
    assert '"smile\\ud83d\\ude00"' in text and '"caf\\u00e9"' in text
    assert json.loads(text) == graph_to_json_dict(g)


def test_writer_matches_reference_on_empty_containers():
    bare = AbpGraph("aabp", Q, 2, 0)  # no vertices, no source
    lone = AbpGraph("abp", Z, 1, 0)
    lone.add_vertex("s", 0)
    lone.set_source("s")  # no edges, no outputs
    unnamed = AbpGraph("abp", Z, 1, 1)
    for vid, layer in (("s", 0), ("t", 1)):
        unnamed.add_vertex(vid, layer)
    unnamed.set_source("s")
    unnamed.add_edge("s", "t", Polynomial.variable(Z, 1, 1, 1))  # edges, no outputs
    edgeless = AbpGraph("pabp", Z, 1, 0)
    edgeless.add_vertex("s", 0)
    edgeless.set_source("s")
    edgeless.add_output("one", "s")  # outputs, no edges
    for g in (bare, lone, unnamed, edgeless):
        assert graph_to_json_text(g) == reference_text(g), g
    assert '"edges": [],' in graph_to_json_text(lone)
    assert '"outputs": {},' in graph_to_json_text(lone)
    assert '"source": null,' in graph_to_json_text(bare)


@pytest.mark.parametrize("spec", ("int", "mod:6", "rat"))
def test_dot_matches_reference_on_constructions(spec):
    for g in constructions(spec):
        assert graph_to_dot(g) == reference_graph_to_dot(g), (spec, g)


@pytest.mark.parametrize("flavor", FLAVORS)
def test_dot_matches_reference_on_random_programs(flavor):
    for g in seeded_programs(flavor):
        assert graph_to_dot(g) == reference_graph_to_dot(g), (flavor, g)


def test_dot_matches_reference_on_ids_with_quotes_and_backslashes():
    source, *ids = ('a"b', "t\\", '\\"', 'end\\')
    g = AbpGraph("abp", Z, 1, 1)
    g.add_vertex(source, 0)
    g.set_source(source)
    for vid in ids:
        g.add_vertex(vid, 1)
        g.add_edge(source, vid, Polynomial.variable(Z, 1, 1, 1))
    g.add_edge(ids[0], ids[2], Polynomial.from_int(Z, 1, 2))  # a dashed constant edge
    assert graph_to_dot(g) == reference_graph_to_dot(g)
    assert '  "a\\"b" -> "\\\\\\"" [label="1*x[1,1]"];\n' in graph_to_dot(g)


@pytest.mark.parametrize("write, bound", [(graph_to_json_text, 2.0), (graph_to_dot, 3.0)])
def test_writers_peak_below_a_small_multiple_of_their_output(write, bound):
    # the writers join shared pieces once, with no string per edge, so the
    # peak is the output plus about a pointer per piece
    g = build_gradient_abp(12, 12, Z)[0]
    tracemalloc.start()
    try:
        text = write(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text.isascii()
    assert peak < bound * len(text), (peak, len(text))


def test_edge_keys_share_the_vertex_id_strings():
    gradient = build_gradient_abp(8, 8, Z)[0]
    for g in (build_bivariate_abp(6, 6, Z), build_charzero_abp(5, 5, Q), gradient,
              graph_from_json_dict(json.loads(graph_to_json_text(gradient)))):
        # every edge key holds its vertices' own id strings, not equal copies,
        # so the keys hold at most one string per vertex
        edge_ids = {id(vid) for key in g.edges for vid in key}
        assert edge_ids <= {id(vid) for vid in g.layer}, g


# Derandomized and without an example database, so every run checks the
# same examples.
PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)


@st.composite
def programs(draw):
    ring = RING_FAMILIES[draw(st.sampled_from(sorted(RING_FAMILIES)))]
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n, d = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    g = random_program(draw(st.sampled_from(FLAVORS)), ring, n, d, rng)
    g.add_output("src", g.source)
    return g


@PROPERTY
@given(programs())
def test_json_text_round_trips(g):
    text = graph_to_json_text(g)
    assert graph_to_json_text(graph_from_json_dict(json.loads(text))) == text
    assert graph_to_json_dict(g) == json.loads(text)


def two_vertex_file(*edges) -> dict:
    """Graph JSON data over Z with n=2, vertices s (layer 0) and t (layer 1),
    and one edge per (from, to, const, linear) tuple."""
    return {"flavor": "abp", "ring": "int", "n": 2, "d": 1, "source": "s",
            "vertices": [{"id": "s", "layer": 0}, {"id": "t", "layer": 1}],
            "edges": [dict(zip(("from", "to", "const", "linear"), e)) for e in edges],
            "outputs": {"out": "t"}}


def term(i, j, coeff):
    return {"i": i, "j": j, "coeff": coeff}


@pytest.mark.parametrize("edges, raw", [
    # two edges with the same ends merge into one label
    ([("s", "t", "0", [term(1, 1, "1")]), ("s", "t", "1", [term(1, 2, "2")])],
     {(): 1, (0,): 1, (1,): 2}),
    # the same label twice is doubled
    ([("s", "t", "0", [term(2, 1, "3")])] * 2, {(2,): 6}),
    # two labels that cancel leave no edge
    ([("s", "t", "0", [term(1, 1, "1")]), ("s", "t", "0", [term(1, 1, "-1")])], None),
    # a lone zero label is dropped
    ([("s", "t", "0", [])], None),
    # a cancelled edge that comes back is stored again
    ([("s", "t", "2", []), ("s", "t", "-2", []), ("s", "t", "0", [term(2, 2, "5")])],
     {(3,): 5}),
])
def test_reader_merges_repeated_ends_as_add_edge_does(edges, raw):
    data = two_vertex_file(*edges)
    g = graph_from_json_dict(copy.deepcopy(data))
    assert {key: tuple_raw(lab.raw) for key, lab in g.edges.items()} == ({} if raw is None else {("s", "t"): raw})
    assert_same_graph(g, reference_graph_from_json_dict(data))


@pytest.mark.parametrize("edge, message", [
    (("t", "t", "0", [term(1, 1, "1")]), "self-loops are not allowed"),
    (("s", "u", "0", [term(1, 1, "1")]), "edge endpoint is not a vertex"),
    (("u", "t", "1", []), "edge endpoint is not a vertex"),
    # a zero label on a self-loop still hits the endpoint checks first
    (("s", "s", "0", []), "self-loops are not allowed"),
])
def test_reader_rejects_self_loops_and_missing_endpoints(edge, message):
    data = two_vertex_file(("s", "t", "0", [term(1, 1, "1")]), edge)
    for read in (graph_from_json_dict, reference_graph_from_json_dict):
        with pytest.raises(GraphError) as exc:
            read(copy.deepcopy(data))
        assert str(exc.value) == message


def assert_stats_reads_as(text: str, want) -> None:
    """``abpc stats`` on a file with ``text`` succeeds if the reference
    reader's outcome ``want`` is a graph, else prints its message."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.json"
        path.write_text(text)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["stats", str(path)])
    if isinstance(want, AbpGraph):
        assert code == 0 and err.getvalue() == ""
    else:
        assert code == 1 and out.getvalue() == ""
        assert err.getvalue() == f"error: {want[1]}\n"


# -- the reader's cached-label path -------------------------------------------------

# valid edges whose label keys the reader caches, ("0", 1, 1, "3") and
# ("1", 2, 1, "-1"), and a zero label, which it never caches
CACHED = [("s", "a", "0", [term(1, 1, "3")]), ("a", "t", "1", [term(2, 1, "-1")]),
          ("s", "t", "0", [])]


@pytest.mark.parametrize("later", [
    # i or j equals a cached one and hashes alike, but is no integer
    ("s", "t", "0", [term(True, 1, "3")]),
    ("s", "t", "0", [term(1.0, 1, "3")]),
    ("s", "t", "0", [term(1, True, "3")]),
    ("s", "t", "0", [term(1, 1.0, "3")]),
    ("a", "t", "1", [term(2, True, "-1")]),
    # an end that is no string, or names no vertex
    (["s"], "t", "0", [term(1, 1, "3")]),
    (0, "t", "0", [term(1, 1, "3")]),
    ("s", 1.5, "0", [term(1, 1, "3")]),
    ("s", "nowhere", "0", [term(1, 1, "3")]),
    ("nowhere", "t", "1", [term(2, 1, "-1")]),
    # an end pair already there: merged, or cancelled
    ("s", "a", "0", [term(1, 1, "3")]),
    ("a", "t", "-1", [term(2, 1, "1")]),
    # a self-loop
    ("a", "a", "0", [term(1, 1, "3")]),
    # the zero label again, on a new pair and on a pair already there
    ("a", "s", "0", []),
    ("s", "a", "0", []),
], ids=["i-true", "i-float", "j-true", "j-float", "j-true-second", "from-list", "from-int",
        "to-float", "to-unknown", "from-unknown", "pair-merges", "pair-cancels", "self-loop",
        "zero-new-pair", "zero-on-edge"])
def test_reader_matches_reference_when_a_later_edge_repeats_a_cached_key(later):
    data = two_vertex_file(*CACHED, later)
    data["vertices"].append({"id": "a", "layer": 1})
    text = json.dumps(data)
    got, want = read_both(text)
    if isinstance(want, AbpGraph):
        assert_same_graph(got, want)
    else:
        assert got == want
    assert_stats_reads_as(text, want)


# -- the reader on mutated files -------------------------------------------------

GRADIENT_3 = graph_to_json_dict(build_gradient_abp(3, 3, Z)[0])

# one value of each JSON type, some of them valid in some fields
SWAPS = (0, 2, -1, True, False, 1.0, "", "x", "1", "s", "r_2_1_1", [], [1], None)


def positions(node):
    """Every (container, key) pair in a JSON tree, depth first."""
    for key, value in (node.items() if isinstance(node, dict) else enumerate(node)):
        yield node, key
        if isinstance(value, (dict, list)):
            yield from positions(value)


def edge_dicts(data):
    edges = data.get("edges")
    return [e for e in edges if isinstance(e, dict)] if isinstance(edges, list) else []


def term_dicts(data):
    return [t for e in edge_dicts(data) if isinstance(e.get("linear"), list)
            for t in e["linear"] if isinstance(t, dict)]


def drop_key(data, draw):
    node = draw(st.sampled_from([data] + [c[k] for c, k in positions(data) if isinstance(c[k], dict)]))
    if node:
        del node[draw(st.sampled_from(sorted(node)))]


def swap_type(data, draw):
    container, key = draw(st.sampled_from(list(positions(data))))
    container[key] = copy.deepcopy(draw(st.sampled_from(SWAPS)))


def index_out_of_range(data, draw):
    terms = term_dicts(data)
    if terms:
        draw(st.sampled_from(terms))[draw(st.sampled_from("ij"))] = draw(st.sampled_from((0, -1, 4, 10**6)))


def negated(coeff):
    if not isinstance(coeff, str):
        return coeff
    return coeff[1:] if coeff.startswith("-") else "-" + coeff


def duplicate_edge(data, draw):
    edges = edge_dicts(data)
    if edges:
        e = copy.deepcopy(draw(st.sampled_from(edges)))
        how = draw(st.sampled_from(("same", "cancel", "zero")))
        if how == "cancel" and isinstance(e.get("linear"), list):
            e["const"] = negated(e.get("const"))
            for t in e["linear"]:
                if isinstance(t, dict) and "coeff" in t:
                    t["coeff"] = negated(t["coeff"])
        elif how == "zero":
            e.update(const="0", linear=[])
        data["edges"].insert(draw(st.integers(0, len(data["edges"]))), e)


def repeat_term(data, draw):
    edges = [e for e in edge_dicts(data) if isinstance(e.get("linear"), list) and e["linear"]]
    if edges:
        terms = draw(st.sampled_from(edges))["linear"]
        t = copy.deepcopy(draw(st.sampled_from(terms)))
        if isinstance(t, dict) and draw(st.booleans()):
            t["coeff"] = "2"
        terms.append(t)


def self_loop(data, draw):
    edges = edge_dicts(data)
    if edges:
        e = draw(st.sampled_from(edges))
        e["to"] = e.get("from")


def unknown_vertex(data, draw):
    edges = edge_dicts(data)
    if edges:
        draw(st.sampled_from(edges))[draw(st.sampled_from(("from", "to")))] = "nowhere"


def move_vertex(data, draw):
    """A readable file that breaks a layer invariant: a vertex moved to
    another layer, in range or not."""
    verts = data.get("vertices")
    verts = [v for v in verts if isinstance(v, dict)] if isinstance(verts, list) else []
    if verts:
        draw(st.sampled_from(verts))["layer"] = draw(st.integers(-1, 4))


def redirect_edge(data, draw):
    """A readable file that breaks a layer invariant: an edge re-pointed at
    another vertex, the source among them."""
    edges = edge_dicts(data)
    if edges:
        draw(st.sampled_from(edges))[draw(st.sampled_from(("from", "to")))] = draw(
            st.sampled_from(("s", "r_2_1_1", "r_3_1_2", "r_3_2_1", "c_3_2", "c_3_3")))


MUTATIONS = (drop_key, swap_type, index_out_of_range, duplicate_edge, repeat_term,
             self_loop, unknown_vertex, move_vertex, redirect_edge)


@st.composite
def mutated_files(draw):
    """The gradient n=3 file's text after one to three mutations."""
    data = copy.deepcopy(GRADIENT_3)
    for _ in range(draw(st.integers(1, 3))):
        draw(st.sampled_from(MUTATIONS))(data, draw)
    return json.dumps(data)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(mutated_files())
# "outputs" as a list of integers, which each reader refuses as no object
@example(json.dumps(dict(GRADIENT_3, outputs=[5])))
@example(json.dumps(dict(GRADIENT_3, outputs=[True])))
def test_reader_matches_reference_reader_on_mutated_files(text):
    got, want = read_both(text)
    if isinstance(want, AbpGraph):
        assert_same_graph(got, want)
        assert validate(got) == reference_validate(want)
    else:
        assert got == want
    assert_stats_reads_as(text, want)
