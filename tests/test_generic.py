"""The int kernel of the generic element (``braceflow.generic``): its
product against the pairwise product it replaced, its degree cut,
W(Omega(a)) = a, which ``GenericRing.omega`` does not check itself,
Omega at seeded points against the Vec fixed point ``flows.omega``, and
the one product per term of the Magnus recursion."""

import math
import random

import pytest

from hypothesis import given, settings, strategies as st

from bch_reference import at_point, next_prime_above, random_nilpotent
from braceflow import flows
from braceflow.generic import GenericRing, _by_coord
from braceflow.prelie import PreLieAlgebra, check_prelie_identity, int_rows
from braceflow.sampling import random_vec
from braceflow.scalars import GF, Q


def _pairwise_product(cols, p, cut, x, y):
    """The product as it was before the kernel: every pair of terms of x
    and y, with a probe of the table (``cols[j][i]`` is e_i.e_j) for each."""
    terms = {}
    for (mx, i), cx in x.items():
        for (my, j), cy in y.items():
            pairs = cols[j].get(i)
            if pairs and len(mx) + len(my) < cut:
                m = tuple(sorted(mx + my))
                c = cx * cy
                for out, v in pairs:
                    key = (m, out)
                    terms[key] = terms[key] + c * v if key in terms else c * v
    if p:
        terms = {key: c % p for key, c in terms.items()}
    return {key: c for key, c in terms.items() if c}


def _to_brace_ring(alg):
    """The generic kernel as ``to_brace`` builds it: table unit (s-2)!."""
    s = alg.nilpotency_class
    return GenericRing(*int_rows(alg), alg.field.characteristic, s,
                       math.factorial(max(s - 2, 0)))


def _generated(generators, s, p, seed):
    """The algebra of a bench/generators.py structure over Q (p = 0) or
    GF(p), relabelled by ``seed``."""
    sigma, scales = generators.relabelling(s.dim, seed)
    table = {}
    for (_, (i,), j, k), val in generators.relabel(s.entries, sigma, scales, p).items():
        table.setdefault((i, j), {})[k] = val
    return PreLieAlgebra(GF(p) if p else Q, s.dim, table)


@st.composite
def _ring_and_elements(draw, generators):
    """A seeded relabelling of v_n, T_n or upper(m) over Q or GF(p), its
    ring, and two elements whose terms have degrees up to the class."""
    g = generators
    s = draw(st.sampled_from([g.v(n) for n in (3, 4, 5)] + [g.trees(n) for n in (3, 4)]
                             + [g.upper(m) for m in (3, 4)]))
    p = draw(st.sampled_from((0, 7, 11)))  # every class drawn here is below 7
    ring = _to_brace_ring(_generated(g, s, p, draw(st.integers(0, 1000))))
    monomial = st.lists(st.integers(0, s.dim - 1), max_size=s.nil_class).map(
        lambda m: tuple(sorted(m)))
    coeff = st.integers(1, p - 1) if p else st.integers(-50, 50).filter(bool)
    element = st.dictionaries(st.tuples(monomial, st.integers(0, s.dim - 1)), coeff,
                              max_size=12)
    return ring, draw(element), draw(element)


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(data=st.data())
def test_indexed_product_equals_pairwise_product(data, bench_generators):
    ring, x, y = data.draw(_ring_and_elements(bench_generators))
    for cut in range(ring.s + 2):
        got = ring.product(_by_coord(x), y, cut)
        assert got == _pairwise_product(ring.cols, ring.p, cut, x, y)


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(data=st.data())
def test_product_emits_no_term_at_or_above_the_cut(data, bench_generators):
    ring, x, y = data.draw(_ring_and_elements(bench_generators))
    xs = _by_coord(x)
    full = ring.product(xs, y, 2 * ring.s + 1)
    for cut in range(ring.s + 1):
        got = ring.product(xs, y, cut)
        assert all(len(m) < cut for m, _ in got)
        # the cut only drops terms: below it, the full product is kept
        assert got == {key: c for key, c in full.items() if len(key[0]) < cut}


def _w_of_omega_is_generic(ring):
    """W(Omega(a)) = a at the generic element a, below the cut s - 1
    that ``omega`` computes to."""
    a = {((i,), i): 1 for i in range(len(ring.cols))}
    return ring.w_map(ring.omega(len(ring.cols)), ring.s - 1) == a


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(data=st.data())
def test_w_of_omega_is_the_generic_element(data, bench_generators):
    ring, _, _ = data.draw(_ring_and_elements(bench_generators))
    assert _w_of_omega_is_generic(ring)


@pytest.mark.parametrize("field", [Q, GF(11), GF(13)], ids=str)
def test_w_of_omega_off_the_prelie_identity(field):
    # the fixed point needs only nilpotency: W - id has no term below
    # degree 2, so it holds on tables that are not pre-Lie as well
    rng = random.Random(field.characteristic + 23)
    checked = 0
    for _ in range(30):
        alg = random_nilpotent(rng, field)
        if check_prelie_identity(alg) is None:
            continue
        assert _w_of_omega_is_generic(_to_brace_ring(alg)), alg.product.table
        checked += 1
    assert checked >= 10


def _omega_matches_fixed_point(alg, rng, points=3):
    """``GenericRing.omega`` at seeded points equals ``flows.omega``.  The
    ring is built for class s + 1, so that Omega reaches degree s - 1 and
    is whole (unit (s-1)! is the to_brace unit of that class); its terms
    below degree s - 1 are those of the ring ``to_brace`` builds, as
    values c / E^(k-1)."""
    s, p, d = alg.nilpotency_class, alg.field.characteristic, alg.dim
    whole = GenericRing(*int_rows(alg), p, s + 1, math.factorial(max(s - 1, 0)))
    om = whole.omega(d)
    for _ in range(points):
        x = random_vec(alg.field, d, rng)
        assert at_point(om, whole.degree_den, alg.field, d, x.entries) == flows.omega(alg, x)
    cut = _to_brace_ring(alg)

    def values(ring, terms):
        return {key: alg.field.from_ints([c], ring.degree_den ** (len(key[0]) - 1))[0]
                for key, c in terms.items() if len(key[0]) < s - 1}

    assert values(cut, cut.omega(d)) == values(whole, om)


@pytest.mark.parametrize("prime", [False, True], ids=["Q", "GF(p)"])
def test_omega_equals_the_fixed_point_on_the_bench_generators(prime, bench_generators):
    # over GF(p) with p the first prime above the class
    g, rng = bench_generators, random.Random(29)
    structures = ([g.h3(), g.f4()] + [g.v(n) for n in range(3, 8)]
                  + [g.trees(n) for n in (3, 4, 5)] + [g.upper(m) for m in (3, 4, 5)])
    for s in structures:
        p = next_prime_above(s.nil_class) if prime else 0
        _omega_matches_fixed_point(_generated(g, s, p, 5), rng)


@pytest.mark.parametrize("field", [Q, GF(5), GF(7)], ids=str)
def test_omega_equals_the_fixed_point_off_the_prelie_identity(field):
    # W∘Omega = id holds on every nilpotent table, so both Omegas agree
    # there too; over GF(p) the tables of class below p are kept
    rng = random.Random(field.characteristic + 31)
    checked = 0
    for _ in range(100):
        alg = random_nilpotent(rng, field)
        p = field.characteristic
        if check_prelie_identity(alg) is None or (p and alg.nilpotency_class >= p):
            continue
        _omega_matches_fixed_point(alg, rng)
        checked += 1
    assert checked >= 10


def test_omega_makes_each_product_of_the_recursion_once(bench_generators, monkeypatch):
    # Omega_{n+1} for n <= s - 3 reads T(j, n) = sum_k Omega_k . T(j-1, n-k),
    # with T(0, m) = 0 for m > 0: one product for j = 1, n - j + 1 for j >= 2
    calls = []
    real = GenericRing.product

    def counted(ring, xs, y, cut):
        calls.append(cut)
        return real(ring, xs, y, cut)

    monkeypatch.setattr(GenericRing, "product", counted)
    g = bench_generators
    for s in (g.v(4), g.v(6), g.v(9), g.trees(5), g.upper(5)):
        ring = _to_brace_ring(_generated(g, s, 0, 5))
        calls.clear()
        ring.omega(s.dim)
        top = ring.s - 3
        assert len(calls) == sum(1 + sum(n - j + 1 for j in range(2, n + 1))
                                 for n in range(1, top + 1)), s.name
