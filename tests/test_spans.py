"""Spans on sparse int echelons against the field-scalar reference, and
the chains whose terms stop at the previous term."""

import itertools
import random

from fractions import Fraction

import pytest

from braceflow.brace import (GradedBrace, SymmetricMap, map_products, map_span,
                             radical_chains)
from braceflow.linalg import Echelon, Subspace, Vec, span
from braceflow.prelie import PreLieAlgebra, nilpotency_index
from braceflow.scalars import GF, Fp, Q


def _reference_map_span(maps, left, right):
    """map_span on field scalars, as it was before the int echelon: the
    symmetric products of the left basis vectors, pruned by the table's
    support, contracted with the table in dense columns, then spanned by
    ``Subspace``."""
    field, d = left.field, left.ambient_dim
    lefts = [tuple((i, x) for i, x in enumerate(u.entries) if x) for u in left.basis]
    rights = [y.entries for y in right.basis]
    gens = []
    for lam in maps:
        k = lam.arity
        by_left = {}
        for (tup, j), pairs in lam.table.items():
            by_left.setdefault(tup, []).append((j, pairs))
        live = {sub for tup in by_left for m in range(k + 1)
                for sub in itertools.combinations(tup, m)}
        stack = [(0, 0, {(): field.one})]
        while stack:
            first, filled, poly = stack.pop()
            if filled == k:
                cols = {}
                for t, c in poly.items():
                    for j, out in by_left.get(t, ()):
                        col = cols.setdefault(j, [field.zero] * d)
                        for o, v in out:
                            col[o] = col[o] + c * v
                for y in rights:
                    g = [field.zero] * d
                    for j, col in cols.items():
                        if y[j]:
                            g = [a + y[j] * b for a, b in zip(g, col)]
                    if any(g):
                        gens.append(Vec._trusted(field, tuple(g)))
                continue
            for s in range(first, len(lefts)):
                nxt = {}
                for t, c in poly.items():
                    for i, x in lefts[s]:
                        u = tuple(sorted(t + (i,)))
                        if u in live:
                            nxt[u] = nxt[u] + c * x if u in nxt else c * x
                nxt = {u: c for u, c in nxt.items() if c}
                if nxt:
                    stack.append((s, filled + 1, nxt))
    return span(gens, field=field, dim=d)


def _raw_scalar(field, rng):
    """Q: negative numerators and non-unit denominators; GF(p): ints in
    [-2p, 2p], so multiples of p occur."""
    if field.characteristic == 0:
        return Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 6, 7)))
    p = field.characteristic
    return rng.randint(-2 * p, 2 * p)


def _random_map(field, d, k, rng):
    """A sparse table of arity k whose keys repeat indices often, so that
    multinomials divisible by a small p occur."""
    entries = {}
    for _ in range(rng.randint(1, 6)):
        tup = tuple(rng.choice(range(min(d, 2)) if rng.random() < 0.5 else range(d))
                    for _ in range(k))
        val = {rng.randrange(d): _raw_scalar(field, rng) for _ in range(rng.randint(1, 2))}
        entries[(tuple(sorted(tup)), rng.randrange(d))] = val
    return SymmetricMap(field, d, k, entries)


def _random_subspace(field, d, rng):
    """Empty, full, or the span of up to d sparse vectors."""
    n = rng.choice((0, d, rng.randint(1, d)))
    if n == d and rng.random() < 0.5:
        return Subspace.full(field, d)
    vecs = [Vec(field, [_raw_scalar(field, rng) if rng.random() < 0.5 else 0
                        for _ in range(d)]) for _ in range(n)]
    return span(vecs, field=field, dim=d)


def _canonical(sub):
    kind = Fraction if sub.field.characteristic == 0 else Fp
    return all(isinstance(e, kind) for v in sub.basis for e in v.entries)


@pytest.mark.parametrize("field", [Q, GF(2), GF(3), GF(5), GF(101)], ids=str)
def test_map_span_matches_field_scalar_reference(field):
    rng = random.Random(2024 + field.characteristic)
    seen = set()
    for _ in range(150):
        d = rng.randint(1, 5)
        maps = [_random_map(field, d, k, rng)
                for k in sorted(rng.sample((1, 2, 3), rng.randint(1, 3)))]
        products = map_products(field, maps)
        left, right = _random_subspace(field, d, rng), _random_subspace(field, d, rng)
        want = _reference_map_span(maps, left, right)
        got = map_span(products, left, right)
        assert got == want and _canonical(got)
        # the int rows a span keeps feed the next span unchanged
        assert map_span(products, got, got) == _reference_map_span(maps, want, want)
        # capped by a subspace that contains it: the span, or that subspace
        capped = map_span(products, left, right, within=want)
        assert capped is want
        assert map_span(products, left, right, within=Subspace.full(field, d)) == want
        seen.add((left.is_zero(), right.is_zero(), want.is_zero(), want.dim == d))
    assert {(True, False, True, False), (False, True, True, False)} <= seen
    assert any(not zero and not full for _, _, zero, full in seen)


def test_echelon_stops_reading_at_its_cap():
    read = []

    def rows():
        for row in ({0: 2, 2: 4}, {0: 1, 2: 2}, {1: -3}, {2: 5}):
            read.append(row)
            yield row

    ech = Echelon(0, 2)
    assert ech.extend(rows())
    assert len(read) == 3  # the dependent second row was read, the fourth never
    assert ech.rows == {0: {0: 1, 2: 2}, 1: {1: 1}}
    ech = Echelon(7, 3)
    assert not ech.extend([{0: 7, 1: 14}, {0: 3, 1: 1}, {0: 6, 1: 2}])
    assert ech.rows == {0: {0: 1, 1: 5}}


_IDEMPOTENT = ((1, {(0, 0): {0: 1}}), (2, {(0, 1): {1: 1}}),
               (3, {(0, 1): {2: 1}, (2, 0): {1: 1}}))


@pytest.mark.parametrize("field", [Q, GF(7)], ids=str)
def test_stalled_chains_keep_their_terms(field, braces_cache):
    # chains that stall at a nonzero term: the early stop must return
    # that term, and the strong chain must run to its 2*dim+3 cap; the
    # lines are those `validate` and `chains` print
    lines = {
        "e1e1=e1": ["left: 1 not nilpotent", "right: 1 not nilpotent",
                    "strong: 1,1,1,1,1 not strongly nilpotent"],
        "e1e2=e2": ["left: 2,1 not nilpotent", "right: 2,1,0 nilpotent index 3",
                    "strong: 2,1,1,1,1,1,1 not strongly nilpotent"],
        "e1e2=e3,e3e1=e2": ["left: 3,2,1,0 nilpotent index 4",
                            "right: 3,2,1,0 nilpotent index 4",
                            "strong: 3,2,2,2,2,2,2,2,2 not strongly nilpotent"],
        "f4 corrupt": ["left: 4,3,1 not nilpotent", "right: 4,3,1,0 nilpotent index 4",
                       "strong: 4,3,2,2,2,2,2,2,2,2,2 not strongly nilpotent"],
    }
    braces = {}
    for name, (dim, structure) in zip(lines, _IDEMPOTENT):
        alg = PreLieAlgebra(field, dim, structure, validate=False)
        assert nilpotency_index(alg) is None
        braces[name] = GradedBrace(field, dim, {1: alg.product}, validate=False)
    f4 = braces_cache("f4", field)
    lam = f4.lambda_map(1)
    table = {key: lam.value(*key) for key in lam.table}
    table[((0,), 1)] = table[((0,), 1)] + Vec.basis(field, 4, 1)
    braces["f4 corrupt"] = GradedBrace(field, 4, {**f4.lambdas, 1: table}, validate=False)
    for name, B in braces.items():
        report = radical_chains(B)
        assert list(report.lines()) == lines[name], name
        assert report.strong_index is None
        assert len(report.strong) == 2 * B.dim + 3
        # each term is the span it names, not a stale copy of the one before
        for chain in (report.left, report.right, report.strong):
            for term in chain:
                assert term == Subspace(field, B.dim, term.basis)

