"""Batched edge insertion and the one-pass ``validate`` against their
reference loops, and the builders' edge insertion order pinned by digest.

``AbpGraph.add_edges`` checks each label object once per call; applied to
any sequence of triples it must leave the graph, and raise the error, that
``reference_add_edge`` applied to each triple in turn leaves and raises.
``validate`` sorts only the problems it finds; it must return the list, in
order, that ``reference_validate`` returns after sorting every edge.
"""

import hashlib
import random
from fractions import Fraction
from typing import List, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from abpc.graph import AbpGraph, GraphError, _compile, validate
from abpc.poly import Polynomial
from abpc.rings import descriptor_from_spec, int_embed
from helpers import (
    BUILDERS,
    FLAVORS,
    RING_FAMILIES,
    Z,
    Z4,
    random_program,
    reference_add_edge,
    reference_validate,
    tuple_raw,
)

VERTICES = ("a", "b", "c", "d")


def label_pool(ring) -> Tuple[List[Polynomial], List[Polynomial]]:
    """Good labels over ``ring`` at n=2, among them pairs that cancel and a
    lone zero, and bad ones: another ring, another ambient size, degree 2."""
    x11, x12 = Polynomial.variable(ring, 2, 1, 1), Polynomial.variable(ring, 2, 1, 2)
    one = Polynomial.from_int(ring, 2, 1)
    twice = x12.scale(int_embed(ring, 2))  # sums to zero with itself over mod:4
    good = [x11, -x11, one, -one, x12 + one, Polynomial.zero(ring, 2), twice, -twice]
    other = Z4 if ring == Z else Z
    bad = [Polynomial.variable(other, 2, 1, 1), Polynomial.variable(ring, 3, 1, 1), x11 * x12]
    return good, bad


def fresh_graph(ring) -> AbpGraph:
    """Four vertices with the sweep plan built, so a dropped plan shows."""
    g = AbpGraph("abp", ring, 2, 3)
    for lay, vid in enumerate(VERTICES):
        g.add_vertex(vid, lay)
    g.set_source("a")
    _compile(g)
    return g


def outcome(insert, ring, triples):
    """The graph after ``insert(g, triples)`` and the error it raised, if any."""
    g = fresh_graph(ring)
    try:
        insert(g, triples)
    except GraphError as exc:
        return g, (type(exc), str(exc))
    return g, None


def oracle_loop(g, triples):
    for u, v, label in triples:
        reference_add_edge(g, u, v, label)


def assert_same_insertion(ring, triples):
    labels = {id(lab) for _u, _v, lab in triples}
    want, want_error = outcome(oracle_loop, ring, triples)
    for insert in (AbpGraph.add_edges, lambda g, ts: [g.add_edge(*t) for t in ts]):
        got, got_error = outcome(insert, ring, triples)
        assert got_error == want_error
        assert list(got.edges) == list(want.edges)
        for key, lab in want.edges.items():
            assert got.edges[key].raw == lab.raw
            # a label stored as is is the caller's object on both sides
            if id(lab) in labels:
                assert got.edges[key] is lab, key
            else:
                assert id(got.edges[key]) not in labels, key
        if want._plan is None:
            assert got._plan is None


def seeded_triples(rng: random.Random, good, bad):
    """Up to 120 triples over the good labels, often with one error injected."""
    triples = [(rng.choice(VERTICES), rng.choice(VERTICES), rng.choice(good))
               for _ in range(rng.randint(0, 120))]
    triples = [(u, v, lab) for u, v, lab in triples if u != v]
    if triples and rng.random() < 0.6:
        at = rng.randrange(len(triples) + 1)
        u, v = rng.sample(VERTICES, 2)
        triples.insert(at, rng.choice([("nowhere", v, good[0]), (u, "nowhere", good[1]),
                                       (u, u, good[2]), (u, v, rng.choice(bad)),
                                       ("nowhere", v, rng.choice(bad))]))
    return triples


@pytest.mark.parametrize("ring_name", sorted(RING_FAMILIES))
def test_add_edges_matches_reference_on_seeded_sequences(ring_name):
    ring = RING_FAMILIES[ring_name]
    good, bad = label_pool(ring)
    for seed in range(60):
        assert_same_insertion(ring, seeded_triples(random.Random(f"batch/{ring_name}/{seed}"), good, bad))


@pytest.mark.parametrize("kind, message", [
    ("endpoint", "edge endpoint is not a vertex"),
    ("loop", "self-loops are not allowed"),
    ("ring", "edge b->c has a label from another ring"),
    ("ambient", "edge b->c has a label of ambient size 3, not 2"),
    ("degree", "edge b->c has a label of degree above 1"),
])
def test_add_edges_raises_the_first_error_after_the_edges_before_it(kind, message):
    good, (other_ring, other_n, square) = label_pool(Z)
    bad = {"endpoint": ("b", "nowhere", good[0]), "loop": ("b", "b", good[0]),
           "ring": ("b", "c", other_ring), "ambient": ("b", "c", other_n), "degree": ("b", "c", square)}
    triples = [("a", "b", good[0]), ("a", "b", good[0]), bad[kind], ("c", "d", square)]
    g, error = outcome(AbpGraph.add_edges, Z, triples)
    assert error == (GraphError, message)
    assert {key: tuple_raw(lab.raw) for key, lab in g.edges.items()} == {("a", "b"): {(0,): 2}}
    assert g._plan is None
    assert_same_insertion(Z, triples)


def test_add_edges_merges_cancels_drops_and_re_adds():
    (x11, neg_x11, one, neg_one, _x12_one, zero, twice, _neg_twice), _bad = label_pool(Z4)
    g = fresh_graph(Z4)
    g.add_edges([("a", "b", x11), ("a", "b", neg_x11), ("b", "c", zero), ("c", "d", twice),
                 ("c", "d", twice), ("a", "b", one), ("a", "c", one), ("a", "c", neg_one)])
    assert list(g.edges) == [("a", "b")] and g.edges[("a", "b")] is one
    g.add_edges([])
    assert list(g.edges) == [("a", "b")]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_add_edges_matches_reference_on_drawn_sequences(data):
    ring = RING_FAMILIES[data.draw(st.sampled_from(sorted(RING_FAMILIES)))]
    good, bad = label_pool(ring)
    endpoints = st.sampled_from(VERTICES + ("nowhere",))
    triples = data.draw(st.lists(st.tuples(endpoints, endpoints, st.sampled_from(good)), max_size=40))
    if data.draw(st.booleans()):
        triples.insert(data.draw(st.integers(0, len(triples))),
                       (data.draw(endpoints), data.draw(endpoints), data.draw(st.sampled_from(bad))))
    assert_same_insertion(ring, triples)


# -- validate against its reference ------------------------------------------------

# new vertex ids: each a base or a taken id grown by one character, so that
# ids, sorted, come in another order than the messages that quote them
BASES = ("A", "a", "a'", 'a"', "a b", "a\nb", "é", "z")


def fresh_id(layer, rng: random.Random) -> str:
    vid = rng.choice(BASES)
    while vid in layer:
        vid += rng.choice(("'", " ", "b", "-"))
    return vid


def inject(g: AbpGraph, kind: str, rng: random.Random) -> None:
    """Break one invariant of ``g`` by direct writes, as a file may."""
    layer, d = g.layer, g.num_layers
    by_layer = {}
    for vid, lay in layer.items():
        by_layer.setdefault(lay, []).append(vid)
    new = fresh_id(layer, rng)
    lab = Polynomial.variable(g.ring, g.ambient_n, 1, 1)
    const = Polynomial.from_int(g.ring, g.ambient_n, 1)
    if kind == "skip":
        layer[new] = d
        g.edges[(g.source, new)] = lab
    elif kind == "cross_const":
        layer[new] = layer[g.source] + 1
        g.edges[(g.source, new)] = lab + const
    elif kind == "intra_linear":
        lay = rng.choice(sorted(by_layer))
        layer[new] = lay
        g.edges[(rng.choice(by_layer[lay]), new)] = lab
    elif kind == "outside":
        layer[new] = rng.choice((-1, d + 1, d + 5))
    elif kind == "source_in":
        u = rng.choice([vid for vid in layer if vid != g.source])
        g.edges[(u, g.source)] = const if layer[u] == layer[g.source] else lab
    elif kind == "cycle":
        layer[new] = rng.randint(0, d)
        other = fresh_id(layer, rng)
        layer[other] = layer[new]
        g.edges[(new, other)] = g.edges[(other, new)] = const
    elif kind == "back":
        layer[new] = max(layer.values())
        g.edges[(new, rng.choice([vid for vid in layer if vid != new]))] = lab
    elif kind == "output":
        g.outputs[new] = new
    elif kind == "source_layer":
        layer[g.source] = rng.randint(1, d)
    elif kind == "ends":
        layer[new] = rng.choice((0, d))
    g._plan = None


KINDS = ("skip", "cross_const", "intra_linear", "outside", "source_in", "cycle", "back",
         "output", "source_layer", "ends")

MESSAGES = ("skips layers", "must be homogeneous linear", "must be constant", "outside layers",
            "source has incoming edges", "constant-edge cycle", "pabp forbids constant edges",
            "must increase the topological index", "points at a missing vertex",
            "source must be in layer 0", "pabp requires exactly one vertex")


@pytest.mark.parametrize("flavor", FLAVORS)
def test_validate_matches_reference_on_injected_violations(flavor):
    seen = set()
    for ring_name, ring in sorted(RING_FAMILIES.items()):
        for seed in range(40):
            rng = random.Random(f"validate/{flavor}/{ring_name}/{seed}")
            g = random_program(flavor, ring, rng.randint(1, 3), rng.randint(1, 4), rng)
            assert validate(g) == reference_validate(g) == []
            for _ in range(rng.randint(1, 8)):
                inject(g, rng.choice(KINDS), rng)
            problems = validate(g)
            assert problems == reference_validate(g), (flavor, ring_name, seed)
            seen.update(m for m in MESSAGES for p in problems if m in p)
    expected = {"abp": set(MESSAGES) - {"pabp forbids constant edges", "pabp requires exactly one vertex",
                                        "must increase the topological index"},
                "pabp": set(MESSAGES) - {"must be constant", "constant-edge cycle",
                                         "must increase the topological index"},
                "aabp": {"must increase the topological index", "source has incoming edges",
                         "points at a missing vertex"}}[flavor]
    assert seen == expected


def test_validate_reports_a_missing_source_alone():
    g = random_program("abp", Z, 2, 2, random.Random(0))
    g.source = None
    g.outputs["ghost"] = "nowhere"
    assert validate(g) == reference_validate(g) == ["missing source vertex"]


# -- the builders' edge insertion order ----------------------------------------------

# sha256 over every edge, in insertion order, of repr((u, v, sorted label raw
# items)) at n = d = 1..6, and each program's count of distinct label objects.
# The order fixes the sweep plan's slot numbering and sweep order.
BUILDER_DIGESTS = {
    ("charzero", "rat"): ("1076496b6e998d1a262934894db58d19711db009c4ecb82e50950f24d98d3946",
                          [1, 10, 39, 100, 205, 366]),
    ("bivariate", "int"): ("831b38387f11d45700423b895212dcf88d244e78cc044c0af0929af7a6b90fab",
                           [2, 6, 15, 26, 40, 57]),
    ("bivariate", "mod:4"): ("9bde4b59cfeb255c704403e1dd55e2c4aead6cdb88727e619ebab42b174b48f2",
                             [2, 6, 15, 26, 40, 57]),
    ("bivariate", "rat"): ("ecd64d15c9547654f790a0f6e9b757f2cd2f95209a4ab47ccdfa7ca1784b79c7",
                           [2, 6, 15, 26, 40, 57]),
    ("gradient", "int"): ("4c54740ec7adf1f09fc693798eedf84a4956e3ab2c274817ca1b07b39f5146a1",
                          [1, 5, 13, 23, 36, 52]),
    ("gradient", "mod:4"): ("00d0fd88e4d7e3ffaa8aeba0106ba64abf27a79ebd834e79eefe72f19c774b93",
                            [1, 5, 13, 23, 36, 52]),
    ("gradient", "rat"): ("5c040a285eec8222dcebdae1f5f08da931b6a5540ee8e5589efadac011238ab6",
                          [1, 5, 13, 23, 36, 52]),
}

@pytest.mark.parametrize("construction, spec", sorted(BUILDER_DIGESTS))
def test_builders_insert_edges_in_the_pinned_order(construction, spec):
    h, counts = hashlib.sha256(), []
    for n in range(1, 7):
        g = BUILDERS[construction](n, n, descriptor_from_spec(spec))
        for (u, v), lab in g.edges.items():
            # each rat coefficient as the Fraction it was when the digests were recorded
            raw = sorted((m, Fraction(c) if spec == "rat" else c) for m, c in tuple_raw(lab.raw).items())
            h.update(repr((u, v, raw)).encode())
        counts.append(len({id(lab) for lab in g.edges.values()}))
    assert (h.hexdigest(), counts) == BUILDER_DIGESTS[construction, spec]
