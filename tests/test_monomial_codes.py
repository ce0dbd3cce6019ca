"""Monomial codes: ``Polynomial.raw`` keys are products of interned primes.

The kernel ``_sum_products`` multiplies codes; its results, decoded, must
equal ``reference_sum_products``, the kernel on sorted flat-index tuples,
over every ring family.  Flat indices sit above 10**6 and are interned
afresh for each drawn case, once in ascending and once in descending
first-use order: the primes they get differ, and the decoded results
must not.  The intern tables are shared by every thread, so a concurrent
first use must still give each flat index exactly one prime; they differ
between processes, so a pickle must carry no code.
"""

import itertools
import os
import pickle
import random
import subprocess
import sys
import threading
from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

import abpc
from abpc.build import build_gradient_abp
from abpc.graph import expand_all
from abpc.poly import Polynomial, _sum_products, monomial_code, monomial_indices, unflatten
from abpc.rings import descriptor_from_spec, int_embed
from helpers import holds_rat_raw_form, reference_sum_products, tuple_raw

Z = descriptor_from_spec("int")
SLOTS = 4
AMBIENT = 2000  # its flat indices reach 4 * 10**6
# a fresh run of SLOTS flat indices per use, none of them interned before
fresh_bases = itertools.count(10**6 + 1, SLOTS)


def coefficients(spec: str):
    if spec == "rat":
        fractions = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.sampled_from((1, 1, 2, 3)))
        return fractions.map(lambda c: c.numerator if c.denominator == 1 else c)
    if spec.startswith("mod:"):
        return st.integers(1, int(spec[4:]) - 1)
    return st.integers(-9, 9).filter(bool)


@st.composite
def cases(draw):
    """A ring spec and 1-3 (a, b) pairs of raw dicts in tuple form over the
    slots 0..SLOTS-1; a monomial may repeat a slot, so exponents reach 4."""
    spec = draw(st.sampled_from(("int", "mod:4", "mod:6", "rat")))
    monomials = st.lists(st.integers(0, SLOTS - 1), max_size=4).map(lambda m: tuple(sorted(m)))
    raws = st.dictionaries(monomials, coefficients(spec), max_size=4)
    return spec, draw(st.lists(st.tuples(raws, raws), min_size=1, max_size=3))


def kernel_in_slots(spec: str, pairs, descending: bool) -> dict:
    """``_sum_products`` over ``pairs`` with slot s at flat index base + s for
    a fresh base, interned in the given order, decoded back to slots."""
    ring = descriptor_from_spec(spec)
    base = next(fresh_bases)
    flats = [base + s for s in range(SLOTS)]
    for v in (reversed(flats) if descending else flats):
        monomial_code((v,))
    coded = [tuple({monomial_code(flats[s] for s in m): c for m, c in raw.items()} for raw in pair)
             for pair in pairs]
    got = _sum_products(ring, AMBIENT, coded)
    if spec == "rat":
        assert holds_rat_raw_form(got), got.raw
    return {tuple(v - base for v in m): c for m, c in tuple_raw(got.raw).items()}


@settings(max_examples=60, deadline=None)
@given(cases())
@example(("int", [({(0, 0, 0): 2, (1,): -1}, {(0, 3, 3): 3, (): 5})]))
@example(("mod:6", [({(2, 2): 3}, {(2, 2): 2}), ({(0,): 1}, {(0, 1): 5})]))
@example(("rat", [({(1, 1): Fraction(1, 2)}, {(1,): 2, (3,): Fraction(-2, 3)})]))
def test_kernel_on_codes_matches_the_tuple_kernel(case):
    spec, pairs = case
    want = reference_sum_products(descriptor_from_spec(spec), pairs)
    for descending in (False, True):
        assert kernel_in_slots(spec, pairs, descending) == want, (spec, descending)


def test_codes_round_trip_and_are_products_of_primes():
    base = next(fresh_bases)
    x, y = monomial_code((base,)), monomial_code((base + 1,))
    assert monomial_code(()) == 1 and monomial_indices(1) == ()
    assert monomial_code((base + 1, base, base)) == x * x * y
    assert monomial_indices(x * x * y) == (base, base, base + 1)
    # the constructor, the boxed view and the partial derivative read the same codes
    p = Polynomial(Z, AMBIENT, {((base, 2), (base + 1, 1)): int_embed(Z, 3)})
    assert p.raw == {x * x * y: 3} and p.degree == 3
    assert p.terms == {((base, 2), (base + 1, 1)): int_embed(Z, 3)}
    assert p.partial(*unflatten(base, AMBIENT)).raw == {x * y: 6}
    assert p.partial(*unflatten(base + 2, AMBIENT)).is_zero()


def test_concurrent_first_uses_give_each_index_one_prime():
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for start in range(10**12, 10**12 + 3000, 1000):  # far above every other test's
            indices = list(range(start, start + 1000))
            seen = []

            def intern(seed):
                order = indices[:]
                random.Random(seed).shuffle(order)
                seen.append({v: monomial_code((v,)) for v in order})

            workers = [threading.Thread(target=intern, args=(seed,)) for seed in range(8)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=30)
            assert not any(w.is_alive() for w in workers) and len(seen) == 8
            assert all(primes == seen[0] for primes in seen)
            assert len(set(seen[0].values())) == len(indices)
            assert all(monomial_indices(p) == (v,) for v, p in seen[0].items())
    finally:
        sys.setswitchinterval(interval)


def test_pickles_read_in_another_process_give_the_same_polynomials():
    g = build_gradient_abp(2, 2, Z)[0]
    outputs = expand_all(g)  # also keeps the graph's sweep plan, which holds codes
    blob = pickle.dumps((outputs, g)).hex()
    # the reading process interns x[2,2], x[2,1], x[1,2], x[1,1] first, so
    # each gets another prime than it has here
    script = (
        "import pickle\n"
        "from abpc.graph import expand_all\n"
        "from abpc.poly import monomial_code\n"
        "for v in (3, 2, 1, 0):\n"
        "    monomial_code((v,))\n"
        f"outputs, g = pickle.loads(bytes.fromhex({blob!r}))\n"
        "for name in sorted(outputs):\n"
        "    print(name, outputs[name].text(), expand_all(g)[name].text())\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(abpc.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [f"{name} {outputs[name].text()} {outputs[name].text()}"
                                        for name in sorted(outputs)]
