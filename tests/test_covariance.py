"""The basis-covariance oracle: the flows brace is natural in the
algebra, so for every invertible g, to_brace(g·A) = g·to_brace(A), and
the chains and the validation verdict do not depend on the basis.  It
needs no reference implementation.  Dense extraction is slow (ROADMAP
item 7), so it runs on the algebras of dimension <= 4: h3, f4, v_3 and
v_4, over Q and over GF(p) for the first prime p above the class."""

import itertools
import random

import pytest

from braceflow import to_brace
from braceflow.brace import GradedBrace, SymmetricMap, validation_stages
from braceflow.corpus import f4, h3
from braceflow.errors import ValidationFailure
from braceflow.linalg import Vec
from braceflow.prelie import chain_report
from braceflow.scalars import GF, Q
from test_flows import _generated, _smallest_prime_above
from test_spans import _coordinates, _dense_matrix, _in_basis


def _brace_in_basis(B, m, inv):
    """B in the basis f_a = sum_i M[a][i] e_i, unvalidated: each graded
    map on f-basis vectors, evaluated by ``SymmetricMap.apply`` on their
    e coordinates and written in f coordinates."""
    field, d = B.field, B.dim
    f = [Vec(field, row) for row in m.rows]
    lambdas = {k: SymmetricMap(field, d, k, {
        (tup, b): _coordinates(lam.apply([f[a] for a in tup], f[b]), inv)
        for tup in itertools.combinations_with_replacement(range(d), k) for b in range(d)})
        for k, lam in B.lambdas.items()}
    return GradedBrace(field, d, lambdas, class_bound=B.class_bound, validate=False)


def _verdict(B):
    """The lines of validating an unvalidated copy of B, or "rejected"."""
    copy = GradedBrace(B.field, B.dim, B.lambdas, class_bound=B.class_bound, validate=False)
    try:
        return list(validation_stages(copy))
    except ValidationFailure:
        return "rejected"


def _algebras(g):
    """(name, algebra over Q, class) for h3, f4, v_3 and v_4."""
    yield "h3", h3, 3
    yield "f4", f4, 4
    for n in (3, 4):
        s = g.v(n)
        yield s.name, (lambda field, s=s: _generated(g, s, field)), s.nil_class


def _with_extra_degree(B):
    """B with one more graded map, of degree above every map of
    ``to_brace(L_1)``: rejected by validation."""
    k = max(B.lambdas, default=0) + 1
    extra = SymmetricMap(B.field, B.dim, k, {((0,) * k, 0): {B.dim - 1: 1}})
    return GradedBrace(B.field, B.dim, {**B.lambdas, k: extra}, class_bound=B.class_bound,
                       validate=False)


@pytest.mark.parametrize("field_of", ["Q", "first prime above the class"])
def test_flows_brace_is_basis_covariant(field_of, bench_generators):
    rng = random.Random(17)
    seen = set()
    for name, make, s in _algebras(bench_generators):
        field = Q if field_of == "Q" else GF(_smallest_prime_above(s))
        alg = make(field)
        assert alg.nilpotency_class == s, name
        B = to_brace(alg)
        for _ in range(2):
            m, inv = _dense_matrix(field, alg.dim, rng)
            moved = _in_basis(alg, m, inv)
            assert moved.nilpotency_class == s, name
            assert len(moved.product._ints) > len(alg.product._ints), name  # dense
            assert to_brace(moved) == _brace_in_basis(B, m, inv), name
            report, moved_report = chain_report(alg), chain_report(moved)
            assert list(moved_report.lines()) == list(report.lines()), name
            assert (moved_report.left_index, moved_report.right_index,
                    moved_report.strong_index) == (
                        report.left_index, report.right_index, report.strong_index), name
            for brace in (B, _with_extra_degree(B)):
                verdict = _verdict(brace)
                assert _verdict(_brace_in_basis(brace, m, inv)) == verdict, name
                seen.add(verdict == "rejected")
    assert seen == {True, False}


def test_brace_in_basis_is_an_action():
    # the test-side transform is a change of basis: the identity fixes a
    # brace, and M then M^-1 gives it back
    B = to_brace(f4(Q))
    m, inv = _dense_matrix(Q, 4, random.Random(3))
    one = type(m)(Q, [[int(i == j) for j in range(4)] for i in range(4)])
    assert _brace_in_basis(B, one, one) == B
    assert _brace_in_basis(_brace_in_basis(B, m, inv), inv, m) == B
