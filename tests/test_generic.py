"""The int kernel of the generic element (``braceflow.generic``): its
product against the pairwise product it replaced, its degree cut, and
W(Omega(a)) = a, which ``GenericRing.omega`` does not check itself."""

import math
import random

import pytest

from hypothesis import given, settings, strategies as st

from bch_reference import random_nilpotent
from braceflow.generic import GenericRing, _by_coord
from braceflow.prelie import PreLieAlgebra, check_prelie_identity, int_rows
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


@st.composite
def _ring_and_elements(draw, generators):
    """A seeded relabelling of v_n, T_n or upper(m) over Q or GF(p), its
    ring, and two elements whose terms have degrees up to the class."""
    g = generators
    s = draw(st.sampled_from([g.v(n) for n in (3, 4, 5)] + [g.trees(n) for n in (3, 4)]
                             + [g.upper(m) for m in (3, 4)]))
    p = draw(st.sampled_from((0, 7, 11)))  # every class drawn here is below 7
    sigma, scales = g.relabelling(s.dim, draw(st.integers(0, 1000)))
    table = {}
    for (_, (i,), j, k), val in g.relabel(s.entries, sigma, scales, p).items():
        table.setdefault((i, j), {})[k] = val
    alg = PreLieAlgebra(GF(p) if p else Q, s.dim, table)
    ring = _to_brace_ring(alg)
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
