"""The int kernel of the generic element (``braceflow.generic``): its
product against the pairwise product it replaced, and its degree cut."""

import math

from hypothesis import given, settings, strategies as st

from braceflow.generic import GenericRing
from braceflow.prelie import PreLieAlgebra, int_rows
from braceflow.scalars import GF, Q


def _pairwise_product(rows, p, cut, x, y):
    """The product as it was before the kernel: every pair of terms of x
    and y, with a probe of rows[i] for each."""
    terms = {}
    for (mx, i), cx in x.items():
        for (my, j), cy in y.items():
            pairs = rows[i].get(j)
            if pairs and len(mx) + len(my) < cut:
                m = tuple(sorted(mx + my))
                c = cx * cy
                for out, v in pairs:
                    key = (m, out)
                    terms[key] = terms[key] + c * v if key in terms else c * v
    if p:
        terms = {key: c % p for key, c in terms.items()}
    return {key: c for key, c in terms.items() if c}


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
    ring = GenericRing(*int_rows(alg), p, alg.nilpotency_class,
                       math.factorial(max(alg.nilpotency_class - 2, 0)))
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
        assert ring.product(x, y, cut) == _pairwise_product(ring.rows, ring.p, cut, x, y)


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(data=st.data())
def test_product_emits_no_term_at_or_above_the_cut(data, bench_generators):
    ring, x, y = data.draw(_ring_and_elements(bench_generators))
    full = ring.product(x, y, 2 * ring.s + 1)
    for cut in range(ring.s + 1):
        got = ring.product(x, y, cut)
        assert all(len(m) < cut for m, _ in got)
        # the cut only drops terms: below it, the full product is kept
        assert got == {key: c for key, c in full.items() if len(key[0]) < cut}
