import itertools
import random

import pytest

from hypothesis import given, settings, strategies as st

from braceflow import radical_chains, to_brace, verify_flows_bch
from braceflow.corpus import corpus, f4, h3, n2, v5, zero_algebra
from braceflow.errors import CharacteristicTooSmall, ValidationFailure, Violation
from braceflow.linalg import Subspace, Vec, span
from braceflow.prelie import (PreLieAlgebra, _SpanKernel, _weights, check_prelie_identity,
                              nilpotency_index, strong_chain)
from braceflow.sampling import random_ints, random_vec
from braceflow.scalars import GF, Q, ScalarField
from test_spans import _dense_basis


def _random_scalar(field, rng):
    """One seeded scalar, drawn as ``random_vec`` draws each coordinate."""
    return field.from_ints(*random_ints(field, 1, rng))[0]


def test_multiply_zero_algebra():
    alg = zero_algebra(Q, 3)
    a = Vec(Q, (1, 2, 3))
    assert alg.multiply(a, a).is_zero()


def test_multiply_n2():
    # e1*e1 = e2, so (x,y)*(u,v) = (0, x u)
    alg = n2()
    for x, y, u, w in ((3, 5, 2, 7), (-1, 0, 4, 4)):
        got = alg.multiply(Vec(Q, (x, y)), Vec(Q, (u, w)))
        assert got == Vec(Q, (0, x * u))


def test_random_vec_coerces_each_draw_once(monkeypatch):
    # the draws are built as canonical scalars from ints (random_ints), so
    # random_vec coerces none of them: same draws, no coercion at all
    coerced = []
    of = ScalarField.of
    monkeypatch.setattr(ScalarField, "of", lambda self, v: coerced.append(v) or of(self, v))
    for field in (Q, GF(7)):
        rng = random.Random(5)
        draws = tuple(_random_scalar(field, rng) for _ in range(4))
        coerced.clear()
        v = random_vec(field, 4, random.Random(5))
        assert coerced == []
        assert v.entries == draws and v == Vec(field, draws)


def test_multiply_f4_reads_tensor():
    alg = f4()
    assert alg.multiply(alg.basis_vector(0), alg.basis_vector(1)) == alg.basis_vector(3)
    assert alg.multiply(alg.basis_vector(1), alg.basis_vector(0)) == alg.basis_vector(2)


def test_multiply_bilinear():
    alg = v5()
    rng = random.Random(11)
    for _ in range(20):
        a, b, c = _random_scalar(Q, rng), _random_scalar(Q, rng), _random_scalar(Q, rng)
        x, xp, y = (random_vec(Q, 4, rng) for _ in range(3))
        lhs = alg.multiply(x * a + xp * b, y * c)
        rhs = (alg.multiply(x, y) * (a * c)) + (alg.multiply(xp, y) * (b * c))
        assert lhs == rhs


@pytest.mark.parametrize("make", [n2, h3, f4, v5])
def test_identity_passes_on_corpus(make):
    assert check_prelie_identity(make()) is None


def test_identity_violation_site():
    # f4 plus the extra product e3*e1 = e2 breaks the identity: the
    # residual at (e1, e2, e1) is (e1e2)e1 - e1(e2e1) - (e2e1)e1 + e2(e1e1)
    # = 0 - 0 - e3*e1 + e2*e2 = -e2
    bad = PreLieAlgebra(Q, 4, {(0, 0): {1: 1}, (1, 0): {2: 1}, (0, 1): {3: 1},
                               (2, 0): {1: 1}}, validate=False)
    viol = check_prelie_identity(bad)
    assert viol is not None
    assert viol.site == (0, 1, 0)
    assert viol.residual == Vec(Q, (0, -1, 0, 0))


def _full_sweep_identity(alg):
    """check_prelie_identity as a sweep of all ordered (i, j, k), i != j."""
    basis = [alg.basis_vector(i) for i in range(alg.dim)]
    for i, j, k in itertools.product(range(alg.dim), repeat=3):
        if i != j:
            r = (alg.multiply(alg.product.value((i,), j), basis[k])
                 - alg.multiply(basis[i], alg.product.value((j,), k))
                 - alg.multiply(alg.product.value((j,), i), basis[k])
                 + alg.multiply(basis[j], alg.product.value((i,), k)))
            if not r.is_zero():
                return Violation("pre-Lie identity", (i, j, k), r)
    return None


@st.composite
def _drawn_table(draw, field):
    """A sparse table of dim 1-6 over ``field``: v_d (e_i * e_j =
    j e_{i+j}, zero past weight d, a pre-Lie algebra), scaled by a
    nonzero scalar and with its basis permuted, or empty; then up to 2d
    drawn products, set or added to.  Scalars are fractions over Q and
    ints in [-2p, 2p] over GF(p), so some reduce to zero."""
    d = draw(st.integers(1, 6))
    p = field.characteristic
    scalar = (st.fractions(min_value=-6, max_value=6, max_denominator=6) if not p
              else st.integers(-2 * p, 2 * p))
    table = {}
    if draw(st.booleans()):
        c = draw(scalar.filter(lambda x: x % p if p else x))
        at = draw(st.permutations(range(d)))
        table = {(at[i - 1], at[j - 1]): {at[i + j - 1]: c * j}
                 for i in range(1, d + 1) for j in range(1, d + 1) if i + j <= d}
    index = st.integers(0, d - 1)
    for (i, j), (k, c) in draw(st.lists(st.tuples(st.tuples(index, index),
                                                  st.tuples(index, scalar)), max_size=2 * d)):
        row = table.setdefault((i, j), {})
        row[k] = row.get(k, 0) + c
    return PreLieAlgebra(field, d, table, validate=False)


@pytest.mark.parametrize("field", [Q, GF(5), GF(7), GF(11)], ids=str)
def test_identity_matches_full_sweep(field):
    # v_n (e_i * e_j = j e_{i+j}), intact and with random extra products
    rng = random.Random(41)
    for n in range(3, 7):
        for corruptions in range(4):
            structure = {(i - 1, j - 1): {i + j - 1: j}
                         for i in range(1, n + 1) for j in range(1, n + 1) if i + j <= n}
            for _ in range(corruptions):
                i, j, k = (rng.randrange(n) for _ in range(3))
                structure.setdefault((i, j), {})[k] = _random_scalar(field, rng)
            alg = PreLieAlgebra(field, n, structure, validate=False)
            assert check_prelie_identity(alg) == _full_sweep_identity(alg)
    # v_n spread over a basis twice its size whose other vectors have no
    # row (e_u * x = 0), so that pairs of such vectors are skipped; the
    # extra products keep those rows empty but may reach their vectors
    sites = []
    for n in range(3, 6):
        d = 2 * n
        at = sorted(rng.sample(range(d), n))  # where e_1..e_n of v_n go
        for corruptions in range(4):
            structure = {(at[i - 1], at[j - 1]): {at[i + j - 1]: j}
                         for i in range(1, n + 1) for j in range(1, n + 1) if i + j <= n}
            for _ in range(corruptions):
                i, j, k = at[rng.randrange(n)], rng.randrange(d), rng.randrange(d)
                structure.setdefault((i, j), {})[k] = _random_scalar(field, rng)
            alg = PreLieAlgebra(field, d, structure, validate=False)
            assert len({i for (i,), _ in alg.product.table}) <= n
            want = _full_sweep_identity(alg)
            assert check_prelie_identity(alg) == want
            sites.append(want and want.site)
    assert sites.count(None) >= 3 and any(sites)
    # the first failure at a pair where only e_i, then only e_j, has a row
    for structure in ({(0, 1): {2: 1}, (2, 0): {0: 1}}, {(1, 0): {2: 1}, (2, 0): {0: 1}}):
        alg = PreLieAlgebra(field, 3, structure, validate=False)
        want = _full_sweep_identity(alg)
        assert check_prelie_identity(alg) == want and want.site == (0, 1, 0)
    # drawn sparse tables, valid and failing: the same Violation, and so
    # the same message
    verdicts = []

    @settings(derandomize=True, deadline=None, database=None, max_examples=150)
    @given(_drawn_table(field))
    def drawn(alg):
        want, got = _full_sweep_identity(alg), check_prelie_identity(alg)
        assert got == want and str(got) == str(want)
        verdicts.append(want is None)

    drawn()
    assert any(verdicts) and not all(verdicts)


def test_identity_makes_no_multiply_call(monkeypatch):
    # the identity reads the table; it multiplies no vectors
    calls = []
    real = PreLieAlgebra.multiply

    def counted(self, x, y):
        calls.append(None)
        return real(self, x, y)

    monkeypatch.setattr(PreLieAlgebra, "multiply", counted)
    assert check_prelie_identity(v5()) is None
    bad = PreLieAlgebra(Q, 4, {(0, 0): {1: 1}, (1, 0): {2: 1}, (0, 1): {3: 1},
                               (2, 0): {1: 1}}, validate=False)
    assert check_prelie_identity(bad).site == (0, 1, 0)
    assert calls == []


def test_constructor_rejects_invalid():
    with pytest.raises(ValidationFailure):
        PreLieAlgebra(Q, 4, {(0, 0): {1: 1}, (1, 0): {2: 1}, (0, 1): {3: 1},
                             (2, 0): {1: 1}})
    # idempotent e1*e1 = e1 is not nilpotent
    with pytest.raises(ValidationFailure):
        PreLieAlgebra(Q, 1, {(0, 0): {0: 1}})


def test_characteristic_must_exceed_class():
    with pytest.raises(CharacteristicTooSmall):
        f4(GF(3))
    assert f4(GF(5)).nilpotency_class == 4  # 5 > 4 is allowed


@pytest.mark.parametrize("make,expected", [
    (lambda: zero_algebra(Q, 3), 2),
    (n2, 3),
    (h3, 3),
    (f4, 4),
    (v5, 5),
])
def test_nilpotency_index(make, expected):
    assert nilpotency_index(make()) == expected


@pytest.mark.parametrize("field", [Q, GF(2)], ids=str)
def test_zero_dimensional_algebra_has_class_one(field):
    # D_1 = 0, so every product of one element is zero: the strong chain
    # stops at its first term, the one-sided chains with it, and class
    # 1 < 2 is allowed over GF(2)
    alg = PreLieAlgebra(field, 0, {})
    assert strong_chain(alg) == (({},), 1)
    assert alg.nilpotency_class == _dense_nilpotency_index(alg) == 1
    B = to_brace(alg)
    assert (B.class_bound, B.lambdas) == (1, {})
    assert list(radical_chains(B).lines()) == [
        "left: 0 nilpotent index 1", "right: 0 nilpotent index 1",
        "strong: 0 strongly nilpotent index 1"]
    assert verify_flows_bch(alg) is None


def test_nilpotency_index_not_nilpotent():
    bad = PreLieAlgebra(Q, 2, {(0, 0): {0: 1}}, validate=False)
    assert nilpotency_index(bad) is None


def _dense_chain(alg, cap):
    """The chain D_1..D_i of ``strong_chain`` as a dense sweep, up to its
    first zero term or D_cap: D_i is spanned by the products of all
    pairs of basis vectors of D_j and D_{i-j}, 0 < j < i."""
    chain = [Subspace.full(alg.field, alg.dim)]
    for i in range(2, cap + 1):
        if chain[-1].is_zero():
            break
        gens = [alg.multiply(u, v) for j in range(1, i)
                for u in chain[j - 1].basis for v in chain[i - j - 1].basis]
        chain.append(span(gens, field=alg.field, dim=alg.dim))
    return tuple(chain)


def _dense_nilpotency_index(alg):
    """nilpotency_index as a dense sweep (``_dense_chain``)."""
    chain = _dense_chain(alg, alg.dim + 2)
    return len(chain) if chain[-1].is_zero() else None


@pytest.mark.parametrize("field", [Q, GF(7), GF(11)], ids=str)
def test_nilpotency_index_matches_dense_sweep(field):
    # the corpus, v_3..v_7, v_n with random extra products, and algebras
    # with an idempotent or a non-nilpotent left multiplication
    algs = list(corpus(field).values())
    rng = random.Random(43)
    for n in range(3, 8):
        for corruptions in range(3):
            structure = {(i - 1, j - 1): {i + j - 1: j}
                         for i in range(1, n + 1) for j in range(1, n + 1) if i + j <= n}
            for _ in range(corruptions):
                i, j, k = (rng.randrange(n) for _ in range(3))
                structure.setdefault((i, j), {})[k] = _random_scalar(field, rng)
            algs.append(PreLieAlgebra(field, n, structure, validate=False))
    algs += [PreLieAlgebra(field, 1, {(0, 0): {0: 1}}, validate=False),
             PreLieAlgebra(field, 2, {(0, 1): {1: 1}}, validate=False),
             PreLieAlgebra(field, 3, {(0, 1): {2: 1}, (2, 0): {1: 1}}, validate=False)]
    indices = [nilpotency_index(alg) for alg in algs]
    assert indices == [_dense_nilpotency_index(alg) for alg in algs]
    assert None in indices and 8 in indices


def _stalling_table(field):
    """e1e1 = e2, e1e2 = e3, e2e2 = e3, e2e3 = e4, e3e3 = e4, not pre-Lie:
    its chain stalls at D_3 = D_4 = <e3, e4> and D_5 = .. = D_8 = <e4>,
    and falls to D_9 = 0."""
    return PreLieAlgebra(field, 4, {(0, 0): {1: 1}, (0, 1): {2: 1}, (1, 1): {2: 1},
                                    (1, 2): {3: 1}, (2, 2): {3: 1}}, validate=False)


@pytest.mark.parametrize("field", [Q, GF(13)], ids=str)
def test_strong_chain_terms_match_dense_sweep(field, bench_generators):
    # each pair of chain levels is counted once (only the lefts of D_j
    # that are not in D_{j+1}), and spans what the sum over all pairs
    # of basis vectors spans, term by term, on deep and stalling chains
    cases = []
    for s in (bench_generators.v(10), bench_generators.trees(5), bench_generators.upper(5)):
        structure = {}
        for (_, (i,), j, k), val in s.entries.items():
            structure.setdefault((i, j), {})[k] = val
        cases.append(PreLieAlgebra(field, s.dim, structure, validate=False))
    cases.append(_stalling_table(field))
    for alg in cases:
        terms, index = strong_chain(alg, 12)
        chain = tuple(Subspace.of_echelon(field, alg.dim, t) for t in terms)
        assert chain == _dense_chain(alg, 12)
        assert index == len(chain)
    assert [t.dim for t in chain] == [4, 3, 2, 2, 1, 1, 1, 1, 0]


def _relabelled(g, s, field, seed):
    """The bench Structure s over field, unvalidated, in the basis of
    ``generators.relabelling(s.dim, seed)`` or as it is for seed None."""
    entries = s.entries if seed is None else g.relabel(
        s.entries, *g.relabelling(s.dim, seed), field.characteristic)
    table = {}
    for (_, (i,), j, k), val in entries.items():
        table.setdefault((i, j), {})[k] = val
    return PreLieAlgebra(field, s.dim, table, validate=False)


def _chain_of(alg, cap=None):
    """strong_chain(alg, cap) with its terms as Subspaces."""
    terms, index = strong_chain(alg, cap)
    return tuple(Subspace.of_echelon(alg.field, alg.dim, t) for t in terms), index


@pytest.mark.parametrize("field", [Q, GF(101)], ids=str)
def test_graded_chain_spans_nothing_after_d2(field, bench_generators, monkeypatch):
    # every bench generator, relabelled, is graded by its support with
    # D_2 its part of degree >= 2: the chain spans D_2 and reads the rest
    # off the weights, so it makes as many reduce calls as D_2 alone
    g = bench_generators
    calls = []
    reduce = _SpanKernel.reduce
    monkeypatch.setattr(_SpanKernel, "reduce",
                        lambda self, *args: calls.append(None) or reduce(self, *args))
    structures = ([g.h3(), g.f4()] + [g.v(n) for n in range(2, 11)]
                  + [g.trees(n) for n in range(2, 6)] + [g.upper(m) for m in range(3, 6)])
    for s in structures:
        for seed in (1, 11):
            calls.clear()
            strong_chain(_relabelled(g, s, field, seed), 2)
            at_d2 = len(calls)
            calls.clear()
            terms, index = strong_chain(_relabelled(g, s, field, seed))
            assert (len(calls), index) == (at_d2, s.nil_class), (s.name, seed)
            assert at_d2 and len(terms) == index


def _fallback_inputs(g, field):
    """Tables whose chain is spanned past D_2: graded by their support
    but with constants that disagree (e1e1 = e2 + e3, e1e2 = e3, class
    4), the stalling table, and v_6 and T_4 in a dense basis, where D_2
    has rows of several entries."""
    rng = random.Random(7)
    yield PreLieAlgebra(field, 3, {(0, 0): {1: 1, 2: 1}, (0, 1): {2: 1}}, validate=False)
    yield _stalling_table(field)
    for s in (g.v(6), g.trees(4)):
        yield _dense_basis(_relabelled(g, s, field, None), rng)


@pytest.mark.parametrize("field", [Q, GF(11)], ids=str)
def test_fallback_chains_match_dense_sweep(field, bench_generators):
    # a table the weights reject spans every term, and one whose chain
    # ends by D_2 needs no weights: either way the terms and the index
    # are the dense sweep's
    rejected = list(_fallback_inputs(bench_generators, field))
    for alg in rejected:
        chain, index = _chain_of(alg, 12)
        assert _weights(alg._kernel.rows, strong_chain(alg)[0][1]) is None
        assert chain == _dense_chain(alg, 12)
        assert index == len(chain)
    assert [len(_chain_of(alg, 12)[0]) for alg in rejected] == [4, 9, 7, 5]
    assert all(any(len(row) > 1 for row in strong_chain(alg)[0][1].values())
               for alg in rejected[2:])
    # dim 0 (D_1 = 0), dim 1 and dim 3 with class 2 (D_2 = 0), and dim 1
    # with e1e1 = e1 (D_2 = D_1, no coordinate of weight 1)
    for alg in (PreLieAlgebra(field, 0, {}), PreLieAlgebra(field, 1, {}), zero_algebra(field, 3),
                PreLieAlgebra(field, 1, {(0, 0): {0: 1}}, validate=False)):
        chain, index = _chain_of(alg)
        assert chain == _dense_chain(alg, alg.dim + 2)
        assert index == nilpotency_index(alg) == _dense_nilpotency_index(alg)


@pytest.mark.parametrize("field", [Q, GF(13)], ids=str)
def test_graded_chain_respects_cap(field, bench_generators):
    # a graded chain read off its weights stops at D_cap, with no index
    # while D_cap is nonzero, as a spanned one does
    g = bench_generators
    for s in (g.v(10), g.trees(5)):
        alg = _relabelled(g, s, field, 11)
        for cap in range(2, 6):
            chain, index = _chain_of(alg, cap)
            assert chain == _dense_chain(alg, cap), (s.name, cap)
            assert len(chain) == cap and index is None
        assert _chain_of(alg)[1] == s.nil_class


def _products_of(alg, factors):
    """All fully bracketed products of the given leaf vectors."""
    if len(factors) == 1:
        yield factors[0]
        return
    for cut in range(1, len(factors)):
        for lv in _products_of(alg, factors[:cut]):
            for rv in _products_of(alg, factors[cut:]):
                yield alg.multiply(lv, rv)


@pytest.mark.parametrize("make", [n2, h3, f4, v5])
def test_every_product_of_class_many_elements_vanishes(make):
    alg = make()
    s = alg.nilpotency_class
    basis = [alg.basis_vector(i) for i in range(alg.dim)]
    for leaves in itertools.product(basis, repeat=s):
        for value in _products_of(alg, list(leaves)):
            assert value.is_zero()


def test_lie_bracket_antisymmetric_on_diagonal():
    alg = f4()
    a = Vec(Q, (1, 2, 3, 4))
    assert alg.lie_bracket(a, a).is_zero()


def test_lie_bracket_examples():
    alg = n2()
    assert alg.lie_bracket(alg.basis_vector(0), alg.basis_vector(1)).is_zero()
    heis = h3()
    assert heis.lie_bracket(heis.basis_vector(0), heis.basis_vector(1)) == \
        heis.basis_vector(2)


@pytest.mark.parametrize("name", ["n2", "h3", "f4", "v5"])
def test_jacobi_identity(name):
    alg = corpus(Q)[name]
    basis = [alg.basis_vector(i) for i in range(alg.dim)]
    for x, y, z in itertools.product(basis, repeat=3):
        total = (alg.lie_bracket(x, alg.lie_bracket(y, z))
                 + alg.lie_bracket(y, alg.lie_bracket(z, x))
                 + alg.lie_bracket(z, alg.lie_bracket(x, y)))
        assert total.is_zero()
