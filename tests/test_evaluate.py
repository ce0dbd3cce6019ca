"""Numeric evaluation and symbolic expansion: the sweep plan's order and
its reuse until the graph changes, ``evaluate_all``'s integer sweep
against a boxed sweep and against symbolic expansion, ``expand_all``'s
raw-coefficient sweep against a sweep on polynomials, and their input
checks."""

import random
import weakref
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import given, settings, strategies as st

from abpc.build import build_bivariate_abp, build_charzero_abp, build_gradient_abp
from abpc.graph import (
    AbpGraph,
    GraphError,
    _compile,
    _release_schedule,
    eliminate_constant_edges,
    evaluate_all,
    expand_all,
    topological_order,
    validate,
)
from abpc.poly import Polynomial, flatten
from abpc.rings import RingDescriptor, RingElement, int_embed
from helpers import (
    FLAVORS,
    RING_FAMILIES,
    Q,
    Z,
    Z4,
    Z7,
    boxed_sweep,
    holds_rat_raw_form,
    is_canonical,
    path_depths,
    plant_copy_chain,
    poly_sweep,
    random_abp,
    random_linear_label,
    random_matrix,
    random_nonzero,
    random_program,
)

def canonical(values):
    """Values with their Python type, since equal values may differ in type."""
    return {name: (type(v.value), v) for name, v in values.items()}


@pytest.mark.parametrize("flavor", FLAVORS)
@pytest.mark.parametrize("ring_name", sorted(RING_FAMILIES))
def test_evaluate_all_equals_boxed_sweep(flavor, ring_name):
    ring = RING_FAMILIES[ring_name]
    for seed in range(40):
        rng = random.Random(f"{flavor}/{ring_name}/{seed}")
        n, d = rng.randint(1, 3), rng.randint(1, 4)
        g = random_program(flavor, ring, n, d, rng)
        g.add_output("src", g.source)
        a = random_matrix(ring, n, rng)
        assert canonical(evaluate_all(g, a)) == canonical(boxed_sweep(g, a)), (flavor, ring_name, seed)


# Derandomized and without an example database, so every run checks the
# same examples.
PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@st.composite
def programs(draw):
    ring = RING_FAMILIES[draw(st.sampled_from(sorted(RING_FAMILIES)))]
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n, d = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    return random_program(draw(st.sampled_from(FLAVORS)), ring, n, d, rng), rng


@PROPERTY
@given(programs())
def test_evaluate_all_equals_substituted_expansion(case):
    g, rng = case
    a = random_matrix(g.ring, g.ambient_n, rng)
    want = {name: f.substitute(a) for name, f in expand_all(g).items()}
    assert canonical(evaluate_all(g, a)) == canonical(want)


EXPAND_RINGS = {"int": Z, "mod4": Z4, "mod6": RingDescriptor.modular(6), "rat": Q}


@st.composite
def expansion_programs(draw):
    """A random program whose source is also an output, plus two side
    outputs: ``cancel`` sums x*x and x*(-x), and ``divisor`` multiplies
    2x by (m/2)x, which is zero over Z/4 and Z/6."""
    ring = EXPAND_RINGS[draw(st.sampled_from(sorted(EXPAND_RINGS)))]
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n, d = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    g = random_program(draw(st.sampled_from(FLAVORS)), ring, n, d, rng)
    g.add_output("src", g.source)
    x = flatten(rng.randint(1, n), rng.randint(1, n), n)

    def linear(c: int) -> Polynomial:
        return Polynomial(ring, n, {((x, 1),): int_embed(ring, c)})

    for vid, layer in (("h1", 1), ("h2", 1), ("cancel", 2), ("h3", 1), ("divisor", 2)):
        g.add_vertex(vid, layer)
    g.add_edge(g.source, "h1", linear(1))
    g.add_edge(g.source, "h2", linear(1))
    g.add_edge("h1", "cancel", linear(1))
    g.add_edge("h2", "cancel", linear(-1))
    g.add_edge(g.source, "h3", linear(2))
    g.add_edge("h3", "divisor", linear(ring.modulus // 2 if ring.modulus else 2))
    g.add_output("cancel", "cancel")
    g.add_output("divisor", "divisor")
    return g


@PROPERTY
@given(expansion_programs())
def test_expand_all_equals_polynomial_sweep(g):
    got = expand_all(g)
    assert got == poly_sweep(g)
    assert got["cancel"].is_zero()
    assert got["divisor"].is_zero() == (g.ring.modulus != 0)
    for f in got.values():
        assert f.ring == g.ring and f.ambient_n == g.ambient_n
        assert all(is_canonical(c, g.ring) for c in f.terms.values())


class _Raw(dict):
    """A raw dict that a weak reference can follow."""


def _release_cases():
    yield build_bivariate_abp(3, 3, Z)
    yield build_gradient_abp(4, 4, Z4)[0]
    yield build_charzero_abp(3, 3, Q)
    for flavor in FLAVORS:
        for seed in range(10):
            rng = random.Random(f"release/{flavor}/{seed}")
            ring = RING_FAMILIES[rng.choice(sorted(RING_FAMILIES))]
            g = random_program(flavor, ring, rng.randint(1, 3), rng.randint(1, 4), rng)
            g.add_vertex("dead_end", 1)  # read by nothing and not an output
            g.add_edge(g.source, "dead_end", random_linear_label(ring, g.ambient_n, rng))
            yield g


def test_expand_all_releases_each_value_after_its_last_reader(monkeypatch):
    import abpc.graph as graph

    kernel = graph._sum_products

    def check(g):
        want = poly_sweep(g)
        plan = _compile(g)
        kept = frozenset(plan.index[v] for v in g.outputs.values())
        heads = [k for k, c in enumerate(plan.counts) for _ in range(c)]
        step = {}
        for k, released in enumerate(_release_schedule(plan, kept)):
            for u in released:
                assert u not in step, (g, u)
                step[u] = k
        # every non-output position once: at its last reader, or at itself if unread
        assert set(step) == set(range(len(plan.counts))) - kept
        for u, k in step.items():
            assert k == max((h for t, h in zip(plan.tails, heads) if t == u), default=u)
        # expand_all lets go of each of those values once that step is done
        refs = []

        def tracked(ring, n, pairs):
            k = len(refs)
            assert [ref() is None for ref in refs] == [step.get(u, k) < k for u in range(k)]
            p = kernel(ring, n, pairs)
            raw = _Raw(p.raw)
            refs.append(weakref.ref(raw))
            return Polynomial._of(p.ring, p.ambient_n, raw)

        monkeypatch.setattr(graph, "_sum_products", tracked)
        assert expand_all(g) == want
        monkeypatch.undo()
        assert len(refs) == len(plan.counts)

    for g in _release_cases():
        check(g)
        # a new output keeps the plan, and the schedule follows the new outputs
        dropped = sorted(set(g.layer) - set(g.outputs.values()))
        plan = _compile(g)
        g.add_output("late", dropped[0])
        assert _compile(g) is plan
        check(g)


@PROPERTY
@given(programs())
def test_evaluate_all_rejects_bad_input(case):
    g, rng = case
    n, ring = g.ambient_n, g.ring
    a = random_matrix(ring, n, rng)
    evaluate_all(g, a)

    foreign = Z7 if ring != Z7 else Z
    wrong_ring = [row[:] for row in a]
    wrong_ring[rng.randrange(n)][rng.randrange(n)] = random_nonzero(foreign, rng)
    with pytest.raises(GraphError, match="different ring"):
        evaluate_all(g, wrong_ring)

    with pytest.raises(GraphError, match="dimension"):
        evaluate_all(g, random_matrix(ring, n + 1, rng))
    ragged = [row[:] for row in a]
    ragged[rng.randrange(n)].pop()
    with pytest.raises(GraphError, match="dimension"):
        evaluate_all(g, ragged)

    source, g.source = g.source, None
    for sweep in (lambda: evaluate_all(g, a), lambda: expand_all(g)):
        with pytest.raises(GraphError, match="missing source vertex"):
            sweep()
    g.source = source

    layer = rng.choice(sorted(set(g.layer.values())))
    g.add_vertex("cycle_a", layer)
    g.add_vertex("cycle_b", layer)
    c = Polynomial.constant(ring, n, random_nonzero(ring, rng))
    g.add_edge("cycle_a", "cycle_b", c)
    g.add_edge("cycle_b", "cycle_a", c)
    with pytest.raises(GraphError, match="constant-edge cycle"):
        evaluate_all(g, a)


# -- the sweep plan ------------------------------------------------------------------


def constructions(n, ring):
    """The three constructions of size n that ``ring`` admits."""
    out = [build_gradient_abp(n, n, ring)[0], build_bivariate_abp(n, n, ring)]
    if ring.contains_rationals:
        out.append(build_charzero_abp(n, n, ring))
    return out


def expanded_in_edges(g):
    """Each plan position's in-edges as (tail, slot) pairs, with a copy
    entry replaced by its owner's expanded in-edges.  A copy entry comes
    first, through the one slot after ``pairs``, from an earlier position
    that is not the source."""
    plan = _compile(g)
    offsets = list(accumulate(plan.counts, initial=0))
    assert len(offsets) == len(plan.counts) + 1 and list(offsets) == sorted(offsets)
    assert offsets[-1] == len(plan.tails) == len(plan.slots)
    copy, source = len(plan.pairs), plan.index[g.source]
    expanded = []
    for v in range(len(plan.counts)):
        ins = []
        for i in range(offsets[v], offsets[v + 1]):
            if plan.slots[i] == copy:
                assert i == offsets[v] and plan.tails[i] < v and plan.tails[i] != source, (g, v)
                ins += expanded[plan.tails[i]]
            else:
                ins.append((plan.tails[i], plan.slots[i]))
        expanded.append(ins)
    return expanded


def copies(g):
    """How many plan entries read an owner's value through the copy slot."""
    plan = _compile(g)
    return plan.slots.count(len(plan.pairs))


def assert_plan_is_the_full_sort(g):
    """The plan's order is the sort over every edge, and its flat tail and
    slot lists, grouped by head through the in-edge counts and with each
    copy entry expanded, hold exactly each head's in-edges in ``g.edges``
    order with their labels, each label read through ``raws``: its own raw
    dict, or over ``rat`` that dict times ``scale``.  Over ``rat`` each depth
    is one more than its tails' largest (0 without tails) and each slot is a
    distinct (label, shift) pair with the edge's shift; elsewhere depths and
    shifts are 0."""
    index, _counts, _tails, _slots, pairs, depths, raws, _linear, scale = _compile(g)
    order = sorted(index, key=index.__getitem__)
    assert order == topological_order(g.layer_order(), g.edges), g
    expanded = expanded_in_edges(g)
    heads = {v: [] for v in order}
    for u, v in g.edges:
        heads[v].append(u)
    assert [[order[t] for t, _s in ins] for ins in expanded] == list(heads.values()), g
    planned = {(order[t], order[v]): raws[pairs[s][0]] for v, ins in enumerate(expanded) for t, s in ins}
    assert len(depths) == len(order)
    if g.ring.kind != "rat":
        assert scale == 1 and all(g.edges[key].raw is raw for key, raw in planned.items())
        assert set(depths) <= {0} and pairs == [(s, 0) for s in range(len(raws))]
        return
    assert all(raw == {m: c * scale for m, c in g.edges[key].raw.items()}
               for key, raw in planned.items())
    assert len(set(pairs)) == len(pairs)
    for v, ins in enumerate(expanded):
        assert depths[v] == max((1 + depths[t] for t, _s in ins), default=0)
        for t, s in ins:
            assert pairs[s][1] == depths[v] - 1 - depths[t] >= 0


@pytest.mark.parametrize("ring_name", sorted(RING_FAMILIES))
def test_plan_order_on_constructions(ring_name):
    for n in range(1, 9):
        for g in constructions(n, RING_FAMILIES[ring_name]):
            assert_plan_is_the_full_sort(g)


@pytest.mark.parametrize("flavor", FLAVORS)
def test_plan_order_on_random_programs(flavor):
    for seed in range(200):
        rng = random.Random(f"plan/{flavor}/{seed}")
        ring = RING_FAMILIES[rng.choice(sorted(RING_FAMILIES))]
        assert_plan_is_the_full_sort(random_program(flavor, ring, rng.randint(1, 3), rng.randint(1, 4), rng))


@pytest.mark.parametrize("ring", [Z, Q], ids=["int", "rat"])
def test_plan_lists_share_their_ints(ring):
    """The plan's flat lists point at the int objects its vertex index and
    slot table hold, so they cost one pointer per entry and a sweep reads
    them without creating an int."""
    g = build_gradient_abp(12, 12, ring)[0]
    plan = _compile(g)
    assert all(type(xs) is list for xs in (plan.counts, plan.tails, plan.slots, plan.depths))
    assert len(plan.tails) > len(plan.index) > 256  # past the small-int cache
    assert len(plan.counts) == len(plan.index) and sum(plan.counts) == len(plan.tails)
    tail_ids = {id(t) for t in plan.tails}
    assert tail_ids <= {id(k) for k in plan.index.values()} and len(tail_ids) <= len(plan.index)
    # the label or (label, shift) slots and the one copy slot
    assert len({id(s) for s in plan.slots}) <= len(plan.pairs) + 1
    assert (copies(g) > 0) == (ring != Q)


# the plan entries of gradient n = 7, 12 and 24: the last entry of r_{i,j}
# (vertex r_i_j_i) reads that of r_{i-1,j} through the copy slot instead of
# repeating its in-edges, the running sum over r_{i',j-1} C_{i'}; over rat
# those vertices' depths differ, so nothing is copied
PLAN_SIZES = {7: 646, 12: 5_597, 24: 85_263}


@pytest.mark.parametrize("n", sorted(PLAN_SIZES))
def test_plan_sizes_on_gradient(n):
    for ring in (Z, Z4, Q):
        g = build_gradient_abp(n, n, ring)[0]
        want = len(g.edges) if ring == Q else PLAN_SIZES[n]
        assert len(_compile(g).tails) == want, (n, ring)


# -- heads that read an earlier head's value ---------------------------------------


def sweeps_agree(g, rng):
    """``evaluate_all`` and ``expand_all`` against the reference sweeps; over
    rat at a matrix with coprime denominators, so the label scale is not 1."""
    a = (rational_matrix(g.ambient_n, rng, DENOMINATORS["coprime"]) if g.ring == Q
         else random_matrix(g.ring, g.ambient_n, rng))
    return canonical(evaluate_all(g, a)) == canonical(boxed_sweep(g, a)) and expand_all(g) == poly_sweep(g)


@pytest.mark.parametrize("flavor", FLAVORS)
@pytest.mark.parametrize("ring_name", sorted(RING_FAMILIES))
def test_planted_heads_read_the_head_they_repeat(flavor, ring_name):
    # a planted head reads the one it repeats unless it is a decoy or, over
    # rat, deeper than that one, which gives its prefix edges other shifts
    ring = RING_FAMILIES[ring_name]
    fired = planted = 0
    for seed in range(30):
        rng = random.Random(f"copy/{flavor}/{ring_name}/{seed}")
        g = random_program(flavor, ring, rng.randint(1, 3), rng.randint(2, 4), rng)
        heads = plant_copy_chain(g, rng)
        assert validate(g) == [], seed
        depth = path_depths(g)
        want = sum(not decoy and (ring != Q or depth[head] == depth[prev]) for head, prev, decoy in heads)
        assert copies(g) == want, seed
        assert_plan_is_the_full_sort(g)
        assert sweeps_agree(g, rng), seed
        fired, planted = fired + want, planted + len(heads)
    assert 0 < fired < planted


def program_with_heads(ring, layers, edges, heads):
    """An abp with n = 2 and source s over the vertices and layers of
    ``layers``: an edge with its own label for each pair of ``edges``, a
    constant one inside a layer, then for each (head, tails) of ``heads``
    an edge from each tail with one label per tail, so heads share the
    labels of their common tails.  Each head is an output."""
    g = AbpGraph("abp", ring, 2, 2)
    for vid, layer in layers.items():
        g.add_vertex(vid, layer)
    g.set_source("s")
    rng = random.Random(f"heads/{ring}/{sorted(layers)}")
    for u, v in edges:
        g.add_edge(u, v, Polynomial.constant(ring, 2, random_nonzero(ring, rng)) if layers[u] == layers[v]
                   else random_linear_label(ring, 2, rng))
    label = {u: random_linear_label(ring, 2, rng) for u in layers}
    for head, tails in heads:
        g.add_edges((u, head, label[u]) for u in tails)
        g.add_output(head, head)
    return g, rng


@pytest.mark.parametrize("ring_name", sorted(RING_FAMILIES))
def test_a_deeper_head_does_not_read_the_head_it_repeats_over_rat(ring_name):
    # h1 repeats h0's in-edges and adds e; h2 repeats h1's and adds c.  Over
    # rat a, b and e have depth 1 and c, behind the constant edge a -> c,
    # depth 2, so h1 has h0's depth 2 but h2 has depth 3: its edges from a, b
    # and e have other shifts than h1's
    ring = RING_FAMILIES[ring_name]
    layers = {"s": 0, "a": 1, "b": 1, "c": 1, "e": 1, "h0": 2, "h1": 2, "h2": 2}
    g, rng = program_with_heads(ring, layers, (("s", "a"), ("s", "b"), ("s", "e"), ("a", "c")),
                                (("h0", "ab"), ("h1", "abe"), ("h2", "abec")))
    assert path_depths(g)["h2"] == 3
    assert copies(g) == (1 if ring == Q else 2)
    assert_plan_is_the_full_sort(g)
    assert sweeps_agree(g, rng)


@pytest.mark.parametrize("ring_name", sorted(RING_FAMILIES))
def test_the_source_is_no_owner(ring_name):
    # outside every flavor: the source s has in-edges from a and b and sweeps
    # after them, h begins with the same edges and labels, and h2 repeats h.
    # s's value also holds its start, so h may not read it, but h2 reads h
    ring = RING_FAMILIES[ring_name]
    layers = {"s": 0, "a": 1, "b": 1, "h": 2, "h2": 2}
    g, rng = program_with_heads(ring, layers, (), (("s", "ab"), ("h", "abs"), ("h2", "abs")))
    assert copies(g) == 1
    assert_plan_is_the_full_sort(g)
    assert sweeps_agree(g, rng)


def edge_down_a_layer(ring, rng):
    """An abp with edges from layer 2 to layer 1: sorting only the edges
    that do not go up a layer puts c before its tail z."""
    g = AbpGraph("abp", ring, 2, 2)
    for vid, layer in (("s", 0), ("a", 1), ("z", 1), ("c", 2), ("w", 2)):
        g.add_vertex(vid, layer)
    g.set_source("s")
    for u, v in (("s", "w"), ("w", "z"), ("z", "c"), ("c", "a")):
        g.add_edge(u, v, random_linear_label(ring, 2, rng))
    for vid in ("a", "c"):
        g.add_output(vid, vid)
    return g


def edge_into_source(ring, rng):
    """A random abp whose source has an in-edge from a vertex in layer 1
    that the source does not reach, so it sweeps after that vertex."""
    g = random_abp(ring, 2, 3, rng)
    g.add_vertex("pre", 1)
    g.add_vertex("pre_in", 1)
    g.add_edge("pre_in", "pre", Polynomial.constant(ring, 2, random_nonzero(ring, rng)))
    g.add_edge("pre", g.source, random_linear_label(ring, 2, rng))
    g.add_output("src", g.source)
    return g


@pytest.mark.parametrize("ring_name", sorted(RING_FAMILIES))
@pytest.mark.parametrize("make", [edge_down_a_layer, edge_into_source])
def test_graphs_outside_every_flavor_sweep_in_the_full_order(make, ring_name):
    ring = RING_FAMILIES[ring_name]
    for seed in range(20):
        rng = random.Random(f"outside/{make.__name__}/{ring_name}/{seed}")
        g = make(ring, rng)
        assert_plan_is_the_full_sort(g)
        a = random_matrix(ring, 2, rng)
        assert canonical(evaluate_all(g, a)) == canonical(boxed_sweep(g, a)), seed


@pytest.mark.parametrize("make", [edge_down_a_layer, edge_into_source])
def test_constant_edge_cycle_still_raises_outside_every_flavor(make):
    rng = random.Random(f"outside/cycle/{make.__name__}")
    g = make(Z, rng)
    for vid in ("x", "y"):
        g.add_vertex(vid, 1)
    c = Polynomial.constant(Z, 2, int_embed(Z, 2))
    g.add_edge("x", "y", c)
    g.add_edge("y", "x", c)
    with pytest.raises(GraphError, match="constant-edge cycle"):
        evaluate_all(g, random_matrix(Z, 2, rng))


def test_cycle_through_an_edge_down_a_layer_raises():
    # the edges that do not go up a layer sort, but the cycle a -> w -> z
    # -> c -> a closes through edges up a layer
    rng = random.Random("outside/cycle/down")
    g = edge_down_a_layer(Z, rng)
    g.add_edge("a", "w", random_linear_label(Z, 2, rng))
    with pytest.raises(GraphError, match="constant-edge cycle"):
        evaluate_all(g, random_matrix(Z, 2, rng))


# -- the plan kept on the graph -------------------------------------------------------


def open_a_path(g, rng):
    """New vertices in layers 1..d-1 on a new path from the source to the output."""
    tail = g.source
    for lay in range(1, g.num_layers):
        g.add_vertex(f"new{lay}", lay)
        g.add_edge(tail, f"new{lay}", random_linear_label(g.ring, g.ambient_n, rng))
        tail = f"new{lay}"
    g.add_edge(tail, g.outputs["out"], random_linear_label(g.ring, g.ambient_n, rng))


def add_a_lone_output(g, rng):
    g.add_vertex("lone", rng.randint(0, g.num_layers))
    g.add_output("lone", "lone")


def merge_into_an_edge(g, rng):
    key = rng.choice(sorted(g.edges))
    g.add_edge(*key, random_linear_label(g.ring, g.ambient_n, rng))


def cancel_an_edge(g, rng):
    key = rng.choice(sorted(g.edges))
    g.add_edge(*key, -g.edges[key])
    assert key not in g.edges


def move_the_source(g, rng):
    g.set_source(rng.choice(sorted(v for v, lay in g.layer.items() if lay == 1)))


@pytest.mark.parametrize("ring_name", sorted(RING_FAMILIES))
@pytest.mark.parametrize("write", [open_a_path, add_a_lone_output, merge_into_an_edge,
                                   cancel_an_edge, move_the_source])
def test_writes_after_an_evaluation_drop_the_plan(write, ring_name):
    ring = RING_FAMILIES[ring_name]
    for seed in range(20):
        rng = random.Random(f"cached/{write.__name__}/{ring_name}/{seed}")
        g = random_abp(ring, 2, rng.randint(2, 4), rng)
        for vid in g.layer:
            g.add_output(vid, vid)
        a = random_matrix(ring, 2, rng)
        evaluate_all(g, a)
        write(g, rng)
        assert canonical(evaluate_all(g, a)) == canonical(boxed_sweep(g, a)), seed
        assert_plan_is_the_full_sort(g)


def assert_eliminated_program_sweeps_its_own_edges(g, a):
    p = eliminate_constant_edges(g, "out")
    # every vertex as an output, since the elimination keeps only the output's value
    for vid in p.layer:
        p.add_output(vid, vid)
    assert canonical(evaluate_all(p, a)) == canonical(boxed_sweep(p, a))
    assert_plan_is_the_full_sort(p)
    return p


@pytest.mark.parametrize("ring_name", sorted(RING_FAMILIES))
def test_every_elimination_step_sweeps_its_own_edges(ring_name):
    # the elimination is one step, which builds a fresh program
    ring = RING_FAMILIES[ring_name]
    for seed in range(10):
        rng = random.Random(f"cached/elimination/{ring_name}/{seed}")
        g = random_abp(ring, 2, 3, rng)
        assert_eliminated_program_sweeps_its_own_edges(g, random_matrix(ring, 2, rng))


def test_elimination_step_that_only_removes_an_edge():
    # the paths s -> z ~> v cancel s -> v, and s -> z ~> w cancel s -> v ~> w,
    # so only s -> z and w -> t remain and no path reaches t
    g = AbpGraph("abp", Z, 1, 2)
    for vid, layer in (("s", 0), ("z", 1), ("v", 1), ("w", 1), ("t", 2)):
        g.add_vertex(vid, layer)
    g.set_source("s")
    x = Polynomial(Z, 1, {((0, 1),): int_embed(Z, 1)})
    for u, v, label in (("s", "z", x), ("s", "v", x), ("z", "v", Polynomial.from_int(Z, 1, -1)),
                        ("v", "w", Polynomial.from_int(Z, 1, 2)), ("w", "t", x)):
        g.add_edge(u, v, label)
    g.add_output("out", "t")
    p = assert_eliminated_program_sweeps_its_own_edges(g, [[int_embed(Z, 3)]])
    assert set(p.edges) == {("s", "z"), ("w", "t")}
    assert evaluate_all(p, [[int_embed(Z, 3)]])["out"] == int_embed(Z, 0)


def test_add_output_keeps_the_plan():
    rng = random.Random("cached/add_output")
    for ring in RING_FAMILIES.values():
        g = random_abp(ring, 2, 3, rng)
        a = random_matrix(ring, 2, rng)
        evaluate_all(g, a)
        plan = _compile(g)
        g.add_output("mid", rng.choice(sorted(v for v, lay in g.layer.items() if lay == 2)))
        assert canonical(evaluate_all(g, a)) == canonical(boxed_sweep(g, a))
        assert _compile(g) is plan


# -- rationals swept on integers --------------------------------------------------


def rational_matrix(n, rng, denominators):
    """Entries p/q with q drawn from ``denominators`` (possibly negative),
    a third of them zero."""
    def entry():
        numerator = rng.randint(-9, 9) if rng.random() > 1 / 3 else 0
        return RingElement(Q, Fraction(numerator, rng.choice(denominators)))

    return [[entry() for _ in range(n)] for _ in range(n)]


DENOMINATORS = {
    "small": (1, 2, 3, 4),
    "negative": (-1, -2, -3, 5, -7),
    "coprime": (7, 11, 13, 17, 19, 23),
    "large": (2**61 - 1, 10**12 + 39, -(3**40), 1),
    "integer": (1, -1),
}


@pytest.mark.parametrize("dens", sorted(DENOMINATORS))
def test_rational_sweep_on_constructions(dens):
    rng = random.Random(f"rational/{dens}")
    for n in range(1, 7):
        for g in constructions(n, Q):
            a = rational_matrix(n, rng, DENOMINATORS[dens])
            got = canonical(evaluate_all(g, a))
            assert got == canonical(boxed_sweep(g, a)), (dens, g)
            assert all(kind is Fraction for kind, _v in got.values())


@pytest.mark.parametrize("dens", sorted(DENOMINATORS))
def test_rational_sweep_on_random_programs(dens):
    for seed in range(60):
        rng = random.Random(f"rational/random/{dens}/{seed}")
        n, d = rng.randint(1, 3), rng.randint(1, 4)
        flavor = FLAVORS[seed % 3]
        g = random_program(flavor, Q, n, d, rng) if seed % 4 else edge_into_source(Q, rng)
        g.add_output("source", g.source)
        a = rational_matrix(g.ambient_n, rng, DENOMINATORS[dens])
        got = canonical(evaluate_all(g, a))
        assert got == canonical(boxed_sweep(g, a)), (dens, seed)
        assert all(kind is Fraction for kind, _v in got.values())


# -- rationals expanded on integers -------------------------------------------------


# (tail, head, constant, {(i, j): coefficient}) on a 2 x 2 matrix; output
# ``whole`` at u is x11*x22 from a, 42*x12*x22 - 5*x11*x22 from b and
# 6*x12*x21 from w, so its coefficients are integers
MIXED_EDGES = [
    ("s", "a", 0, {(1, 1): Fraction(1, 7)}),
    ("s", "b", 0, {(1, 2): 1}),
    ("s", "w", 0, {(2, 1): 2}),
    ("a", "b", Fraction(-5, 6), {}),
    ("b", "c", Fraction(1, 13), {}),
    ("a", "t", 0, {(2, 1): Fraction(1, 11)}),
    ("c", "t", 0, {(2, 2): 1}),
    ("a", "u", 0, {(2, 2): 7}),
    ("b", "u", 0, {(2, 2): 42}),
    ("w", "u", 0, {(1, 2): 3}),
]
# the aabp's edges that skip topological indices
SKIP_EDGES = [
    ("s", "t", Fraction(1, 13), {}),
    ("s", "u", 3, {(1, 1): -1}),
    ("a", "c", 0, {(1, 2): Fraction(1, 11)}),
]
MIXED_LAYERS = {
    "abp": {"s": 0, "a": 1, "b": 1, "c": 1, "w": 1, "t": 2, "u": 2},
    "aabp": {"s": 0, "a": 1, "w": 1, "b": 2, "c": 3, "t": 4, "u": 4},
}


def mixed_length_program(flavor, ring):
    """A program whose vertices are reached by paths of different lengths,
    through constant edges inside a layer (``abp``) or also through edges
    that skip indices (``aabp``).  Over ``rat`` the label denominators are
    7, 11, 13 and 6; over another ring each coefficient p/q becomes p*q."""
    def element(q):
        return RingElement(ring, q) if ring == Q else int_embed(ring, q.numerator * q.denominator)

    layers = MIXED_LAYERS[flavor]
    g = AbpGraph(flavor, ring, 2, max(layers.values()))
    for vid, layer in layers.items():
        g.add_vertex(vid, layer)
    g.set_source("s")
    for u, v, const, linear in MIXED_EDGES + (SKIP_EDGES if flavor == "aabp" else []):
        terms = {((flatten(i, j, 2), 1),): element(Fraction(c)) for (i, j), c in linear.items()}
        terms[()] = element(Fraction(const))
        g.add_edge(u, v, Polynomial(ring, 2, terms))
    for name, vid in (("src", "s"), ("a", "a"), ("t", "t"), ("whole", "u")):
        g.add_output(name, vid)
    assert validate(g) == []
    return g


@pytest.mark.parametrize("flavor", sorted(MIXED_LAYERS))
def test_rational_expansion_rescales_each_path_and_boxes_every_output(flavor):
    g = mixed_length_program(flavor, Q)
    got = expand_all(g)
    assert got == poly_sweep(g)
    assert all(holds_rat_raw_form(f) for f in got.values())
    assert got["whole"].raw and all(c.denominator == 1 for c in got["whole"].raw.values())
    for seed in range(5):
        a = rational_matrix(2, random.Random(f"mixed/{flavor}/{seed}"), DENOMINATORS["coprime"])
        assert canonical(evaluate_all(g, a)) == canonical(boxed_sweep(g, a)), seed
    for ring in (Z, Z4):
        g = mixed_length_program(flavor, ring)
        got = expand_all(g)
        assert got == poly_sweep(g)
        assert all(is_canonical(c, ring) for f in got.values() for c in f.terms.values())


def test_rational_expansion_into_the_source():
    # the source sweeps after its tails, so its 1 is scaled to their exponent
    for seed in range(20):
        g = edge_into_source(Q, random.Random(f"expand/source/{seed}"))
        got = expand_all(g)
        assert got == poly_sweep(g), seed
        assert all(holds_rat_raw_form(f) for f in got.values())
