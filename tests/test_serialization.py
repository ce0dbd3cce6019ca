"""Graph JSON: ``graph_to_json_text`` against ``json.dumps`` of the dict
reference, its round trip through ``graph_from_json_dict``, and the id
strings that edge keys share with their vertices."""

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from abpc.build import build_bivariate_abp, build_charzero_abp, build_gradient_abp
from abpc.graph import AbpGraph, graph_from_json_dict, graph_to_json_dict, graph_to_json_text
from abpc.poly import Polynomial
from abpc.rings import descriptor_from_spec
from helpers import FLAVORS, RING_FAMILIES, Q, Z, random_program, reference_dict


def reference_text(g: AbpGraph) -> str:
    return json.dumps(reference_dict(g), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("spec", ("int", "mod:4", "mod:6", "rat"))
def test_writer_matches_reference_on_constructions(spec):
    ring = descriptor_from_spec(spec)
    for n in range(1, 7):
        for d in range(0, n + 1):
            programs = [build_charzero_abp(n, d, ring)] if spec == "rat" else []
            if d >= 1:
                programs += [build_bivariate_abp(n, d, ring), build_gradient_abp(n, d, ring)[0]]
            for g in programs:
                assert graph_to_json_text(g) == reference_text(g), (spec, n, d, g)


@pytest.mark.parametrize("flavor", FLAVORS)
def test_writer_matches_reference_on_random_programs(flavor):
    for ring_name, ring in sorted(RING_FAMILIES.items()):
        for seed in range(30):
            rng = random.Random(f"json/{flavor}/{ring_name}/{seed}")
            g = random_program(flavor, ring, rng.randint(1, 3), rng.randint(1, 4), rng)
            assert graph_to_json_text(g) == reference_text(g), (flavor, ring_name, seed)


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
