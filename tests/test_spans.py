"""Spans, inverses and interpolation on sparse int echelons against a
field-scalar Gauss-Jordan reference, subspaces that compare and hash by
their echelon rows, and the chains whose terms stop at the previous
term."""

import random

from fractions import Fraction

import pytest

from braceflow.brace import GradedBrace, SymmetricMap
from braceflow.linalg import (Echelon, Mat, Subspace, Vec, polynomial_curve_coefficients,
                              span)
from braceflow.prelie import (PreLieAlgebra, _SpanKernel, chain_report, nilpotency_index,
                              strong_chain)
from braceflow.scalars import GF, Fp, Q
from test_brace import _assert_reference_chains, _reference_strong_chain


def _rref(field, rows):
    """Reduced row echelon form by Gauss-Jordan on field scalars, in
    place: (the nonzero rows, their pivot columns).  The reference that
    the library's int ``Echelon`` is compared against."""
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = field.one / rows[r][c]
        rows[r] = [e * inv for e in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows[:len(pivots)], pivots


def _reference_basis(field, vectors):
    """The canonical basis of the span of ``vectors``, by ``_rref``."""
    rows, _ = _rref(field, [list(v.entries) for v in vectors])
    return tuple(Vec(field, row) for row in rows)


def _reference_products_span(lam, field, left, right):
    """The canonical basis of the span of the products of an arity-1 map
    on field scalars: lam(u; y) for every ``left`` basis vector u and
    ``right`` basis vector y, by ``apply``, reduced by ``_rref``."""
    return _reference_basis(field, [lam.apply([u], y) for u in left for y in right])


def _products_span(kernel, field, d, left, right):
    """The span that a ``_SpanKernel`` reduces from the echelon rows of
    two subspaces."""
    ech = Echelon(field.characteristic, d)
    kernel.reduce(ech, left.rows, right.rows)
    return Subspace.of_echelon(field, d, ech.rows)


def _raw_scalar(field, rng):
    """Q: negative numerators and non-unit denominators; GF(p): ints in
    [-2p, 2p], so multiples of p occur."""
    if field.characteristic == 0:
        return Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 6, 7)))
    p = field.characteristic
    return rng.randint(-2 * p, 2 * p)


def _random_product(field, d, rng):
    """A sparse arity-1 table (a product e_i.e_j) whose left indices are
    often 0 or 1, so that many products share a left index."""
    entries = {}
    for _ in range(rng.randint(1, 6)):
        i = rng.choice(range(min(d, 2)) if rng.random() < 0.5 else range(d))
        val = {rng.randrange(d): _raw_scalar(field, rng) for _ in range(rng.randint(1, 2))}
        entries[((i,), rng.randrange(d))] = val
    return SymmetricMap(field, d, 1, entries)


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
        lam = _random_product(field, d, rng)
        products = _SpanKernel(PreLieAlgebra(field, d, lam, validate=False))
        left, right = _random_subspace(field, d, rng), _random_subspace(field, d, rng)
        want = _reference_products_span(lam, field, left.basis, right.basis)
        got = _products_span(products, field, d, left, right)
        assert got.basis == want and _canonical(got)
        # the echelon rows of a span feed the next span unchanged
        assert _products_span(products, field, d, got, got).basis == _reference_products_span(
            lam, field, want, want)
        seen.add((left.is_zero(), right.is_zero(), got.is_zero(), got.dim == d))
    assert {(True, False, True, False), (False, True, True, False)} <= seen
    assert any(not zero and not full for _, _, zero, full in seen)


def _random_vectors(field, d, rng):
    """Up to d + 2 vectors of dim d: sparse, repeated, rescaled, or sums
    of earlier ones, so that most sets are rank-deficient; sometimes
    none."""
    vecs = []
    for _ in range(rng.choice((0, rng.randint(1, d + 2)))):
        kind = rng.random() if vecs else 0
        if kind < 0.5:
            vecs.append(Vec(field, [_raw_scalar(field, rng) if rng.random() < 0.6 else 0
                                    for _ in range(d)]))
        elif kind < 0.75:
            vecs.append(rng.choice(vecs) * _raw_scalar(field, rng))
        else:
            vecs.append(rng.choice(vecs) - rng.choice(vecs) * _raw_scalar(field, rng))
    return vecs


@pytest.mark.parametrize("field", [Q, GF(11)], ids=str)
def test_span_matches_field_scalar_reference(field):
    rng = random.Random(31 + field.characteristic)
    ranks = set()
    for _ in range(200):
        d = rng.randint(1, 6)
        vecs = _random_vectors(field, d, rng)
        got = span(vecs, field=field, dim=d)
        want = _reference_basis(field, vecs)
        assert got.basis == want and got.dim == len(want) and _canonical(got)
        ranks.add((len(vecs), len(want) < len(vecs), len(want) == d))
    assert (0, False, False) in ranks  # the empty set
    assert any(deficient for _, deficient, _ in ranks)
    assert any(full for _, _, full in ranks)


def _reference_inverse(m):
    n, field = m.nrows, m.field
    rows, pivots = _rref(field, [list(row) + [field.one if i == j else field.zero
                                              for j in range(n)]
                                 for i, row in enumerate(m.rows)])
    if pivots != list(range(n)):
        return None
    return tuple(tuple(row[n:]) for row in rows)


@pytest.mark.parametrize("field", [Q, GF(11)], ids=str)
def test_inverse_matches_field_scalar_reference(field):
    rng = random.Random(47 + field.characteristic)
    singular = 0
    for _ in range(120):
        n = rng.randint(1, 5)
        rows = [[_raw_scalar(field, rng) if rng.random() < 0.7 else 0 for _ in range(n)]
                for _ in range(n)]
        if rng.random() < 0.3:  # a row that depends on the others
            i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
            rows[i] = [field.of(x) * 3 if i != j else 0 for x in rows[j]]
        m = Mat(field, rows)
        want = _reference_inverse(m)
        if want is None:
            singular += 1
            with pytest.raises(ZeroDivisionError):
                m.inverse()
        else:
            assert m.inverse().rows == want
    assert singular > 10
    assert Mat(field, []).inverse().rows == ()


@pytest.mark.parametrize("field", [Q, GF(11)], ids=str)
@pytest.mark.parametrize("degree", [0, 1, 3, 6])
def test_curve_coefficients_match_field_scalar_reference(field, degree):
    # a curve that is no polynomial: arbitrary values at the nodes, which
    # are 2^-k over Q and 1..degree+1 over GF(p)
    rng = random.Random(59 + degree + field.characteristic)
    n = degree + 1
    nodes = ([field.one / field.of(2 ** k) for k in range(n)] if field.characteristic == 0
             else [field.of(k) for k in range(1, n + 1)])
    for dim in (1, 3):
        values = {t: Vec(field, [_raw_scalar(field, rng) for _ in range(dim)])
                  for t in nodes}
        aug = []
        for t in nodes:
            powers = [field.one]
            for _ in range(degree):
                powers.append(powers[-1] * t)
            aug.append(powers + list(values[t].entries))
        rows, pivots = _rref(field, aug)
        assert pivots == list(range(n))
        want = [Vec(field, row[n:]) for row in rows]
        assert polynomial_curve_coefficients(values.__getitem__, field, degree) == want


def _rescaled(field, vecs, rng):
    """The same span from other generators: shuffled, each scaled by a
    nonzero scalar, with a sum of two of them added."""
    out = []
    for v in vecs:
        c = field.zero
        while not c:
            c = field.of(_raw_scalar(field, rng))
        out.append(v * c)
    if len(vecs) > 1:
        out.append(out[0] + out[1])
    rng.shuffle(out)
    return out


@pytest.mark.parametrize("field", [Q, GF(7)], ids=str)
def test_subspaces_compare_and_hash_by_their_rows(field):
    rng = random.Random(71 + field.characteristic)
    for _ in range(100):
        d = rng.randint(1, 5)
        vecs = _random_vectors(field, d, rng)
        sub = Subspace(field, d, vecs)
        other = Subspace(field, d, _rescaled(field, vecs, rng))
        ech = Echelon(field.characteristic, d)
        ech.extend({c: n for c, n in enumerate(field.to_ints(v.entries)[0]) if n}
                   for v in _rescaled(field, vecs, rng))
        assert ech.units == {c for c, row in ech.rows.items() if row == {c: 1}}
        for same in (other, Subspace.of_echelon(field, d, ech.rows),
                     Subspace(field, d, sub.basis)):
            assert same == sub and hash(same) == hash(sub)
            assert same.rows == sub.rows and same.basis == sub.basis
        if sub.dim == d:
            full = Subspace.full(field, d)
            assert full == sub and hash(full) == hash(sub)
        else:
            assert sub != Subspace.full(field, d)
        if not sub.is_zero():
            assert sub != Subspace(field, d)
        assert sub != Subspace(field, d + 1, [Vec(field, list(v) + [0]) for v in vecs])
    for d in (0, 1, 4):
        units = tuple(Vec.basis(field, d, i) for i in range(d))
        assert Subspace.full(field, d).basis == units
        assert Subspace.full(field, d) == Subspace(field, d, units)
    assert Subspace.full(Q, 3) != Subspace.full(GF(7), 3)


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
    # strong chains that stall at a nonzero term: the early stop must
    # return that term, and the chain must run to its 2*dim+3 cap
    dims = {"e1e1=e1": (1, 1, 1, 1, 1), "e1e2=e2": (2, 1, 1, 1, 1, 1, 1),
            "e1e2=e3,e3e1=e2": (3, 2, 2, 2, 2, 2, 2, 2, 2),
            "f4 corrupt": (4, 3, 2, 2, 2, 2, 2, 2, 2, 2, 2)}
    algs = {name: PreLieAlgebra(field, dim, structure, validate=False)
            for name, (dim, structure) in zip(dims, _IDEMPOTENT)}
    lam = braces_cache("f4", field).lambda_map(1)
    table = {key: lam.value(*key) for key in lam.table}
    table[((0,), 1)] = table[((0,), 1)] + Vec.basis(field, 4, 1)
    algs["f4 corrupt"] = PreLieAlgebra(field, 4, SymmetricMap(field, 4, 1, table),
                                       validate=False)
    for name, alg in algs.items():
        d = alg.dim
        terms, index = strong_chain(alg, 2 * d + 3)
        assert index is None and nilpotency_index(alg) is None, name
        chain = tuple(Subspace.of_echelon(field, d, t) for t in terms)
        assert tuple(t.dim for t in chain) == dims[name], name
        # each term is the span it names, not a stale copy of the one before
        for term in chain:
            assert term == Subspace(field, d, term.basis)


def _prelie(field, s):
    """The pre-Lie algebra of a bench Structure over field, unvalidated."""
    table = {}
    for (_, (i,), j, k), val in s.entries.items():
        table.setdefault((i, j), {})[k] = val
    return PreLieAlgebra(field, s.dim, table, validate=False)


def _algebras(g):
    """v_4..v_6, T_3..T_5 and upper(3..5), plain and relabelled, over Q
    and over GF(p) for the smallest prime p above the class."""
    for s in ([g.v(n) for n in (4, 5, 6)] + [g.trees(n) for n in (3, 4, 5)]
              + [g.upper(m) for m in (3, 4, 5)]):
        p = s.nil_class + 1
        while any(p % q == 0 for q in range(2, p)):
            p += 1
        for field in (Q, GF(p)):
            for seed in (None, 3):
                entries = s.entries if seed is None else g.relabel(
                    s.entries, *g.relabelling(s.dim, seed), field.characteristic)
                table = {}
                for (_, (i,), j, k), val in entries.items():
                    table.setdefault((i, j), {})[k] = val
                yield (s.name, field, seed), PreLieAlgebra(field, s.dim, table)


def _dense_matrix(field, d, rng):
    """(M, M^-1) for a random invertible d x d matrix M with few zero
    entries."""
    while True:
        m = Mat(field, [[rng.choice((-3, -2, -1, 1, 2, 3, 5)) for _ in range(d)]
                        for _ in range(d)])
        try:
            return m, m.inverse()
        except ZeroDivisionError:
            continue


def _coordinates(w, inv):
    """The coordinates x of w = x M in the basis of M's rows, as the
    sparse {c: x_c} of w M^-1."""
    field, d = w.field, w.dim
    return {c: v for c in range(d)
            if (v := sum((w[i] * inv.rows[i][c] for i in range(d)), field.zero))}


def _in_basis(alg, m, inv):
    """alg in the basis f_a = sum_i M[a][i] e_i, unvalidated."""
    f = [Vec(alg.field, row) for row in m.rows]
    table = {}
    for a in range(alg.dim):
        for b in range(alg.dim):
            if x := _coordinates(alg.multiply(f[a], f[b]), inv):
                table[(a, b)] = x
    return PreLieAlgebra(alg.field, alg.dim, table, validate=False)


def _dense_basis(alg, rng):
    """alg in the basis f_a = sum_i M[a][i] e_i of a random invertible
    matrix M with few zero entries (``_dense_matrix``): an isomorphic
    algebra whose chain terms are no coordinate subspaces, so that few
    products lie on unit rows."""
    return _in_basis(alg, *_dense_matrix(alg.field, alg.dim, rng))


# the dim-4 table whose chain stalls: D_3 = D_4, D_5 = .. = D_8, D_9 = 0
_STALLING = {(0, 0): {1: 1}, (0, 1): {2: 1}, (1, 1): {2: 1}, (1, 2): {3: 1}, (2, 2): {3: 1}}
_NOT_NILPOTENT = {(0, 1): {2: 1}, (2, 0): {1: 1}}  # e1e2 = e3, e3e1 = e2


def _degree_one_inputs(g):
    """The bench algebras of ``_algebras``; v_4, v_5, T_3, T_4, upper(3),
    upper(4), the stalling table (dim 4, index 9) and a table that is
    not nilpotent, each in a dense random basis over Q and GF(p); and
    the stalling and non-nilpotent tables as they are."""
    yield from _algebras(g)
    rng = random.Random(29)
    for s in (g.v(4), g.v(5), g.trees(3), g.trees(4), g.upper(3), g.upper(4)):
        for field in (Q, GF(11)):
            yield (s.name, field, "dense"), _dense_basis(_prelie(field, s), rng)
    for field in (Q, GF(11)):
        for name, dim, table in (("stalling", 4, _STALLING), ("not nilpotent", 3, _NOT_NILPOTENT)):
            alg = PreLieAlgebra(field, dim, table, validate=False)
            yield (name, field, None), alg
            yield (name, field, "dense"), _dense_basis(alg, rng)


def test_degree_one_kernel_matches_written_out_spans(bench_generators):
    # the fused arity-1 kernel spans what the products written out span:
    # the strong chain (every term, and its index), the left and right
    # chains read off a nilpotent table, and the span on every pair of
    # strong terms, also in a dense basis, where the unit-row skip rarely
    # fires, on a chain that stalls before it vanishes and on one that
    # never does
    cases = list(_degree_one_inputs(bench_generators))
    indices, dense, nilpotent = {}, [], 0
    for where, alg in cases:
        field, d = alg.field, alg.dim
        B = GradedBrace(field, d, {1: alg.product}, validate=False)
        products = _SpanKernel(alg)
        terms, index = strong_chain(alg, 2 * d + 3)
        strong = tuple(Subspace.of_echelon(field, d, t) for t in terms)
        assert strong == _reference_strong_chain(B), where
        assert index == (len(strong) if strong[-1].is_zero() else None), where
        indices[where[0]] = index
        if nilpotency_index(alg) is not None:  # the stalling table's 9 is above d + 2
            _assert_reference_chains(B, chain_report(alg), where)
            nilpotent += 1
        for left in strong:
            for right in strong:
                assert (_products_span(products, field, d, left, right).basis
                        == _reference_products_span(alg.product, field, left.basis,
                                                    right.basis)), where
        if where[2] == "dense":
            dense.append(strong)
    assert len(cases) == 36 + 12 + 8 and nilpotent == 36 + 12
    assert indices["stalling"] == 9 and indices["not nilpotent"] is None
    assert all(len(row) > 1 for strong in dense for term in strong[1:-1] for row in term.rows
               if term.dim < strong[0].dim), "a dense term is a coordinate subspace"


def test_each_left_row_gets_one_column_map(bench_generators, monkeypatch):
    # a unit left row {i: 1} reads e_i's column map off the compiled
    # table; each other distinct left row that the kernel reaches builds
    # its column map once per algebra, although the strong chain passes
    # each row of X_j again at every later level and the one-sided
    # chains share the kernel; the rows are kept on it, so no id is
    # reused
    built, passed = [], []
    column_map, reduce = _SpanKernel.column_map, _SpanKernel.reduce

    def counted_map(self, u, p):
        built.append(u)
        return column_map(self, u, p)

    def spy(self, ech, lefts, rights):
        passed.extend(lefts)
        return reduce(self, ech, lefts, rights)

    monkeypatch.setattr(_SpanKernel, "column_map", counted_map)
    monkeypatch.setattr(_SpanKernel, "reduce", spy)
    g, rng = bench_generators, random.Random(5)
    for s, p in ((g.v(10), 13), (g.trees(5), 7), (g.trees(4), 7), (g.upper(4), 5)):
        for field in (Q, GF(p)):
            plain = _prelie(field, s)
            algs = [plain] if s.dim > 8 else [plain, _dense_basis(plain, rng)]
            for alg in algs:
                mapped = set()
                for chain in (nilpotency_index, chain_report):
                    built.clear()
                    passed.clear()
                    chain(alg)
                    others = [u for u in passed if len(u) > 1]
                    assert all(len(u) > 1 for u in built)
                    assert mapped.isdisjoint(id(u) for u in built)
                    mapped.update(id(u) for u in built)
                    assert len({id(u) for u in built}) == len(built)
                    assert {id(u) for u in built} <= {id(u) for u in others}
                    if alg is plain:  # every term of these chains has unit rows
                        assert built == [] and others == []
                    elif chain is nilpotency_index:
                        assert built and len(others) > len(built)  # rows are passed again
