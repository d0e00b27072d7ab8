import itertools
import random

from fractions import Fraction

import pytest

from hypothesis import given, settings, strategies as st

from braceflow import brace, to_brace
from braceflow.brace import (GradedBrace, SymmetricMap, _checked_stages, check_fbrace,
                             check_group, check_left_brace, radical_chains,
                             star_subspaces, table_difference, validation_stages)
from braceflow.corpus import corpus
from braceflow.errors import (AlgebraError, CharacteristicTooSmall, ConvergenceFailure,
                              DimensionMismatch, FieldMismatch, ValidationFailure,
                              Violation)
from braceflow.flows import is_flows_brace
from braceflow.linalg import Subspace, Vec, span
from braceflow.prelie import PreLieAlgebra
from braceflow.sampling import random_vec, rng_from
from braceflow.scalars import GF, Fp, Q


def _circ(B, a, b):
    """a∘b = a + b + a*b."""
    return a + b + B.star(a, b)


def test_trivial_brace_star_and_circ():
    B = GradedBrace.trivial(Q, 2)
    a, b = Vec(Q, (1, 2)), Vec(Q, (3, 4))
    assert B.star(a, b).is_zero()
    assert _circ(B, a, b) == a + b
    assert B.circ_inverse(a) == -a


def test_n2_brace_values(braces_q):
    B = braces_q["n2"]
    a, b = Vec(Q, (3, 5)), Vec(Q, (2, 7))
    assert B.star(a, b) == Vec(Q, (0, 6))
    assert _circ(B, a, b) == Vec(Q, (5, 18))
    assert B.circ_inverse(a) == Vec(Q, (-3, -5 + 9))


def test_f4_brace_star_basis(braces_q):
    B = braces_q["f4"]
    e1 = B.basis_vector(0)
    assert B.star(e1, e1) == Vec(Q, (0, 1, -Fraction(1, 2), Fraction(1, 2)))


def test_circ_inverse_identity_and_random(braces_q):
    B = braces_q["v5"]
    zero = Vec.zero(Q, B.dim)
    assert B.circ_inverse(zero) == zero
    rng = random.Random(9)
    for _ in range(20):
        a = random_vec(Q, B.dim, rng)
        x = B.circ_inverse(a)
        assert _circ(B, a, x).is_zero()
        assert _circ(B, x, a).is_zero()


def test_symmetric_map_left_slot_symmetry(braces_q):
    lam2 = braces_q["v5"].lambda_map(2)
    rng = random.Random(31)
    u, v, b = (random_vec(Q, 4, rng) for _ in range(3))
    assert lam2.apply([u, v], b) == lam2.apply([v, u], b)


@pytest.mark.parametrize("name", ["zero3", "n2", "h3", "f4", "v5"])
def test_axiom_suites_pass(name, braces_q):
    B = braces_q[name]
    assert check_left_brace(B, trials=30) is None
    assert check_group(B) is None
    assert check_fbrace(B) is None


def _corrupt(B, degree, key, out_index, delta=1):
    lam = B.lambda_map(degree)
    table = {k: lam.value(*k) for k in lam.table}
    old = lam.value(*key)
    entries = list(old.entries)
    entries[out_index] = entries[out_index] + B.field.of(delta)
    table[key] = Vec(B.field, entries)
    lambdas = dict(B.lambdas)
    lambdas[degree] = SymmetricMap(B.field, B.dim, degree, table)
    return GradedBrace(B.field, B.dim, lambdas, class_bound=B.class_bound,
                       validate=False)


def test_corrupted_brace_fails_left_brace_law(braces_q):
    bad = _corrupt(braces_q["f4"], 2, ((0, 0), 0), 0)
    viol = check_left_brace(bad, trials=10)
    assert viol is not None
    # the reported site must actually violate the law it names
    if all(isinstance(i, int) for i in viol.site):
        i, j, k = viol.site
        a, b, c = (bad.basis_vector(n) for n in (i, j, k))
        if "a*(b+c)" in viol.check:
            residual = bad.star(a, b + c) - bad.star(a, b) - bad.star(a, c)
        else:
            residual = (bad.star(a + b + bad.star(a, b), c)
                        - bad.star(a, c) - bad.star(b, c)
                        - bad.star(a, bad.star(b, c)))
        assert residual == viol.residual
        assert not residual.is_zero()


def test_corrupted_brace_rejected_at_construction(braces_q):
    B = braces_q["f4"]
    bad = _corrupt(B, 2, ((0, 0), 0), 0)
    with pytest.raises(ValidationFailure):
        GradedBrace(Q, B.dim, bad.lambdas, class_bound=B.class_bound)


@pytest.mark.parametrize("value,error", [
    (Vec(GF(7), (1, 0)), FieldMismatch),
    (Vec(Q, (1, 0, 0)), DimensionMismatch),
    ((1, 0, 0), DimensionMismatch),
    ({2: 1}, DimensionMismatch),
    ({0: GF(7).of(1)}, FieldMismatch),
], ids=["GF(7) vector", "length-3 vector", "length-3 tuple", "output 2 of 2",
        "GF(7) scalar"])
def test_symmetric_map_rejects_foreign_values(value, error):
    # a value over another field or of another length never enters a table
    with pytest.raises(error):
        SymmetricMap(Q, 2, 1, {((0,), 0): value})


def test_symmetric_map_stores_sorted_nonzero_coordinates():
    # a mapping, a Vec and a dense sequence give the same map; the table
    # keeps the nonzero coordinates once, sorted by output index
    half = Fraction(1, 2)
    forms = [{2: 5, 0: half, 1: 0}, Vec(Q, (half, 0, 5)), (half, 0, 5)]
    maps = [SymmetricMap(Q, 3, 2, {((1, 0), 2): value}) for value in forms]
    assert maps[0] == maps[1] == maps[2]
    assert maps[0].table == {((0, 1), 2): ((0, half), (2, Q.of(5)))}
    assert maps[0].value((1, 0), 2) == Vec(Q, (half, 0, 5))
    # values given twice for one key are added; a zero sum is dropped
    twice = SymmetricMap(Q, 3, 1, [(((0,), 1), {2: 1}), (((0,), 1), Vec(Q, (0, 0, -1))),
                                   (((1,), 1), {0: 1}), (((1,), 1), {0: 2, 1: 3})])
    assert twice.table == {((1,), 1): ((0, Q.of(3)), (1, Q.of(3)))}


def test_basis_name_count_must_match_dim():
    with pytest.raises(DimensionMismatch):
        GradedBrace(Q, 2, {}, basis_names=["a"])


def test_fbrace_edge_cases(braces_q):
    B = braces_q["f4"]
    rng = random.Random(2)
    a, b = random_vec(Q, 4, rng), random_vec(Q, 4, rng)
    assert B.star(a, Vec.zero(Q, 4)).is_zero()
    assert B.star(a, -b) == -B.star(a, b)


def test_chains_trivial_brace():
    report = radical_chains(GradedBrace.trivial(Q, 2))
    assert report.dims(report.left) == (2, 0)
    assert report.dims(report.right) == (2, 0)
    assert report.dims(report.strong) == (2, 0)
    assert (report.left_index, report.right_index, report.strong_index) == (2, 2, 2)


def test_chains_n2(braces_q):
    report = radical_chains(braces_q["n2"])
    assert report.dims(report.left) == (2, 1, 0)
    assert report.dims(report.right) == (2, 1, 0)
    assert report.dims(report.strong) == (2, 1, 0)
    assert report.strong_index == 3
    assert report.left[1] == span([Vec(Q, (0, 1))])


def test_chains_f4(braces_q):
    report = radical_chains(braces_q["f4"])
    assert report.strong_index == 4
    assert report.strong[3].is_zero()


def _within(small, big):
    """Subspace containment: adding small's basis to big's spans big."""
    return span(small.basis + big.basis, field=big.field, dim=big.ambient_dim) == big


@pytest.mark.parametrize("name", ["zero1", "n2", "h3", "f4", "v5"])
def test_chain_containments_and_equivalence(name, braces_q):
    report = radical_chains(braces_q[name])
    # strong chain dominates both one-sided chains, term by term
    for i, strong in enumerate(report.strong):
        if i < len(report.left):
            assert _within(report.left[i], strong)
        if i < len(report.right):
            assert _within(report.right[i], strong)
    assert report.strongly_nilpotent == (
        report.left_nilpotent and report.right_nilpotent)


def _reference_star_span(B, left, right):
    """star_subspaces written out: every graded map on every multiset of
    left basis vectors and every right basis vector, by ``apply``."""
    gens = [lam.apply(list(tup), y) for k, lam in B.lambdas.items()
            for tup in itertools.combinations_with_replacement(left.basis, k)
            for y in right.basis]
    return span(gens, field=B.field, dim=B.dim)


def _reference_strong_chain(B, star_span=_reference_star_span):
    """The strong chain written out: each term spans the ``star_span``s
    of all its j-products, up to the first zero term or 2 * dim + 3."""
    chain = [Subspace.full(B.field, B.dim)]
    while len(chain) < 2 * B.dim + 3 and not chain[-1].is_zero():
        i = len(chain) + 1
        gens = [v for j in range(1, i)
                for v in star_span(B, chain[j - 1], chain[i - j - 1]).basis]
        chain.append(span(gens, field=B.field, dim=B.dim))
    return tuple(chain)


def _ring_brace():
    """The adjoint brace a*b = ab of x Q[x]/(x^8), basis x..x^7."""
    table = {((i,), j): Vec.basis(Q, 7, i + j + 1)
             for i in range(7) for j in range(7) if i + j + 1 < 7}
    return GradedBrace(Q, 7, {1: SymmetricMap(Q, 7, 1, table)}, validate=False)


def _chain_inputs(braces_cache):
    """Corpus braces over Q and GF(7), the ring brace, and one corrupted
    copy of v5 and f4 per degree over both fields."""
    out = []
    for field in (Q, GF(7)):
        for name in corpus(field):
            B = braces_cache(name, field)
            out.append((f"{name}/{field}", B))
            if name in ("f4", "v5"):
                for k, lam in B.lambdas.items():
                    key = next(iter(lam.table))
                    out.append((f"{name}/{field} corrupt L_{k} at {key}",
                                _corrupt(B, k, key, 0)))
    out.append(("x Q[x]/(x^8)", _ring_brace()))
    return out


def test_star_subspaces_matches_direct_span(braces_q, braces_cache, monkeypatch):
    # polarization turns the span of star(a, b) over subspaces into a
    # finite computation; cross-check against random sampling
    B = braces_q["v5"]
    full = Subspace.full(Q, B.dim)
    computed = star_subspaces(B, full, full)
    rng = random.Random(77)
    sampled = span([B.star(random_vec(Q, 4, rng), random_vec(Q, 4, rng))
                    for _ in range(60)], field=Q, dim=4)
    assert _within(sampled, computed)
    # the support-pruned expansion spans exactly what the full sweep of
    # the graded maps spans, on every pair of chain terms, and so gives
    # the same chain report
    # the strong chain is checked against its written-out form; the
    # one-sided chains span through ``map_span`` on the report's one
    # kernel, so they go through that patched name, and each of their
    # steps passes the term before as ``within``
    inputs = _chain_inputs(braces_cache)
    reports = {where: radical_chains(B) for where, B in inputs}
    for where, B in inputs:
        rep = reports[where]
        assert rep.strong == _reference_strong_chain(B), where
        terms = set(rep.left + rep.right + rep.strong)
        for left in terms:
            for right in terms:
                assert (star_subspaces(B, left, right)
                        == _reference_star_span(B, left, right)), where
    calls, spanned = [], []

    def reference(products, left, right, within=None):  # the span ignores its cap
        calls.append(within)
        return _reference_star_span(spanned[-1], left, right)

    monkeypatch.setattr(brace, "map_span", reference)
    for where, B in inputs:
        spanned.append(B)
        assert radical_chains(B) == reports[where], where
    assert any(not rep.strongly_nilpotent for rep in reports.values())
    assert calls and all(within is not None for within in calls)
    # one call per step: each term after the first, and the step that
    # found a stalled chain's fixed point
    assert len(calls) == sum(len(chain) - 1 + (index is None) for rep in reports.values()
                             for chain, index in ((rep.left, rep.left_index),
                                                  (rep.right, rep.right_index)))


@pytest.mark.parametrize("field", [Q, GF(13)], ids=str)
def test_strong_chain_counts_each_pair_of_levels_once(field, bench_generators):
    # the strong chain, built from the lefts of D_j outside D_{j+1}, is
    # the sum over every pair of levels of the star spans, on deep
    # chains, on one that stalls (D_3 = D_4, D_5 = .. = D_8, D_9 = 0) and
    # on one whose left multisets mix two levels
    g = bench_generators
    inputs = []
    for s in (g.v(10), g.trees(5), g.upper(5)):
        structure = {}
        for (_, (i,), j, k), val in s.entries.items():
            structure.setdefault((i, j), {})[k] = val
        inputs.append(to_brace(PreLieAlgebra(field, s.dim, structure)))
    stalling = {((0,), 0): {1: 1}, ((0,), 1): {2: 1}, ((1,), 1): {2: 1},
                ((1,), 2): {3: 1}, ((2,), 2): {3: 1}}
    inputs.append(GradedBrace(field, 4, {1: SymmetricMap(field, 4, 1, stalling)},
                              validate=False))
    # L(e1, e1; e1) = e2, L(e1, e2; e2) = e3: D_3 = <e3> comes only from
    # a left multiset with one slot outside D_2 and one in it
    mixed = {((0, 0), 0): {1: 1}, ((0, 1), 1): {2: 1}}
    inputs.append(GradedBrace(field, 4, {2: SymmetricMap(field, 4, 2, mixed)},
                              validate=False))
    for B in inputs:
        rep = radical_chains(B)
        assert rep.strong == _reference_strong_chain(B, star_subspaces)
    for B, dims in zip(inputs[-2:], [(4, 3, 2, 2, 1, 1, 1, 1, 0), (4, 2, 1, 0)]):
        rep = radical_chains(B)
        assert rep.dims(rep.strong) == dims
        assert rep.strong == _reference_strong_chain(B)


def _fresh_maps(B):
    """B's graded maps rebuilt from their tables: equal maps, none of
    them compiled for spans yet."""
    return {k: SymmetricMap(B.field, B.dim, k,
                            {key: dict(pairs) for key, pairs in lam.table.items()})
            for k, lam in B.lambdas.items()}


def test_validation_compiles_products_once(braces_q, monkeypatch):
    # every term of the three chains spans from one compile of each
    # table: an admitted brace spans only L_1's table, compiled once for
    # the strong chain of L_1's validation and the left and right chains;
    # the checked stages compile each of the brace's tables once
    real, compiled = brace._compiled, []

    def counted(lam):
        if lam._spans is None:
            compiled.append(lam)
        return real(lam)

    monkeypatch.setattr(brace, "_compiled", counted)
    for name in ("f4", "v5"):
        B = braces_q[name]
        want = radical_chains(B)
        maps = _fresh_maps(B)
        compiled.clear()
        built = GradedBrace(B.field, B.dim, maps, class_bound=B.class_bound)
        assert compiled == [maps[1]], name
        assert built.chains == want
        assert len(want.left) + len(want.right) > 4
        maps = _fresh_maps(B)
        compiled.clear()
        assert radical_chains(GradedBrace(B.field, B.dim, maps, validate=False)) == want
        assert sorted(map(id, compiled)) == sorted(map(id, maps.values())), name
        assert len(maps) > 1


def _odd_degree_three_brace():
    """Unvalidated GF(3) brace with degree-3 entries whose multinomial
    (3 or 3! = 6) is zero mod 3, next to one whose multinomial is 1."""
    F = GF(3)
    lambdas = {1: {((0,), 1): (0, 0, 1)},
               3: {((0, 1, 2), 0): (0, 1, 2), ((0, 0, 1), 2): (1, 0, 0),
                   ((2, 2, 2), 1): (2, 2, 0)}}
    return GradedBrace(F, 3, lambdas, validate=False)


def _assert_star_kernel(B, a, b):
    """The int star kernel equals the sum of the graded maps evaluated in
    full, each map's diagonal equals its full evaluation, the columns of
    ``_left_map`` at a are the stars a*e_j, and every result (and the
    inputs) hold canonical scalars."""
    field, d = B.field, B.dim
    kind = Fraction if field.characteristic == 0 else Fp
    got = B.star(a, b)
    want = Vec.zero(field, d)
    for k, lam in B.lambdas.items():
        full = lam.apply([a] * k, b)
        assert lam.apply_diagonal(a, b) == full, (B, k)
        want = want + full
    assert got == want, B
    ints, du = field.to_ints(a.entries)
    _, den, top = B._rows
    cols = brace._left_map(B, ints, du)
    for j, col in enumerate(cols):
        column = field.from_ints([col.get(o, 0) for o in range(d)], den * du ** top)
        assert Vec._trusted(field, column) == B.star(a, B.basis_vector(j)), (B, j)
    for r in (got, B.lambda_map(1).apply_diagonal(a, b), a, a + b, a - b, -a, a * 3):
        assert Vec(field, r.entries) == r
        assert all(type(e) is kind for e in r.entries)
        assert kind is Fraction or all(e.p == field.characteristic for e in r.entries)


def test_star_kernel_matches_apply(braces_cache):
    # the int star kernel equals the graded maps evaluated in full and
    # hands back canonical scalars: on corpus braces over Q, GF(7) and a
    # prime above 2^61, and on Q vectors whose denominators have an lcm
    # far above 2^64
    big_p = GF(2 ** 64 - 59)
    braces = [braces_cache(name, field) for field in (Q, GF(7), big_p)
              for name in ("n2", "h3", "f4", "v5")]
    braces.append(_odd_degree_three_brace())
    rng = random.Random(41)
    for B in braces:
        for _ in range(15):
            _assert_star_kernel(B, random_vec(B.field, B.dim, rng),
                                random_vec(B.field, B.dim, rng))
    assert max(e.r for B in braces if B.field == big_p
               for lam in B.lambdas.values() for pairs in lam.table.values()
               for _, e in pairs) > 2 ** 61
    dens = (2 ** 40, 3 ** 25, 5 ** 17, 7 ** 14)  # coprime, each below 2^64
    for B in braces[:4]:
        for _ in range(5):
            a, b = (Vec(Q, [Fraction(rng.choice((-1, 1)) * rng.randint(1, 9),
                                     dens[(i + s) % 4]) for i in range(B.dim)])
                    for s in (0, 1))
            assert Q.to_ints(a.entries)[1] > 2 ** 64
            _assert_star_kernel(B, a, b)
    # at a = e1 + e2 + e3 only the degree-3 entry with multinomial 1 survives
    B = braces[-1]
    a = Vec(B.field, (1, 1, 1))
    assert B.star(a, B.basis_vector(0)).is_zero()
    assert B.star(a, B.basis_vector(1)) == Vec(B.field, (2, 2, 1))
    assert B.star(a, B.basis_vector(2)).is_zero()


@st.composite
def _small_brace_and_triple(draw):
    """An unvalidated brace of dim 1-3 with random tables in degrees 1-3
    over Q, GF(7) or GF(3), and a triple of vectors.  Each drawn degree
    has one to four entries, each a nonzero vector over the field, so
    the table is empty only when two entries cancel."""
    field = draw(st.sampled_from((Q, GF(7), GF(3))))
    d = draw(st.integers(1, 3))
    scalars = (st.fractions(-3, 3, max_denominator=3) if field is Q
               else st.integers(-3, 3))
    vec = st.lists(scalars, min_size=d, max_size=d)
    value = vec.filter(lambda v: any(field.of(x) for x in v))
    index = st.integers(0, d - 1)
    lambdas = {}
    for k in draw(st.sets(st.integers(1, 3), min_size=1, max_size=3)):
        key = st.tuples(st.lists(index, min_size=k, max_size=k).map(tuple), index)
        lambdas[k] = draw(st.dictionaries(key, value, min_size=1, max_size=4))
    B = GradedBrace(field, d, lambdas, validate=False)
    return B, Vec(field, draw(vec)), Vec(field, draw(vec)), Vec(field, draw(vec))


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(_small_brace_and_triple())
def test_graded_form_decides_the_laws_left_unchecked(case):
    # what check_left_brace and check_group no longer sweep holds for
    # every graded star, corrupted or not: right distributivity, 0 as
    # identity, and associativity residual = left-brace residual
    B, a, b, c = case
    star = B.star

    def circ(x, y):
        return _circ(B, x, y)

    assoc = circ(circ(a, b), c) - circ(a, circ(b, c))
    left = star(a + b + star(a, b), c) - star(a, c) - star(b, c) - star(a, star(b, c))
    assert assoc == left
    assert star(a, b + c) == star(a, b) + star(a, c)
    zero = Vec.zero(B.field, B.dim)
    assert star(zero, a).is_zero() and star(a, zero).is_zero()


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(_small_brace_and_triple())
def test_star_kernel_matches_apply_on_drawn_braces(case):
    # mixed arities, entries that cancel to zero, and GF(3) rows whose
    # multinomial is zero in the field
    B, a, b, _ = case
    _assert_star_kernel(B, a, b)


def test_star_subspaces_counts_each_multiset_once():
    # L_2(a, a; e1) at a = e1 + e2 is L(e1,e1) + 2 L(e1,e2) + L(e2,e2) =
    # (0, 2, 2); contracting the multinomial-scaled compiled rows instead
    # of the table would give 2 * 2 e2 + 2 e3 = (0, 4, 2)
    B = GradedBrace(Q, 3, {2: {((0, 0), 0): (0, 0, 1), ((0, 1), 0): (0, 1, 0),
                               ((1, 1), 0): (0, 0, 1)}}, validate=False)
    a = Vec(Q, (1, 1, 0))
    assert B.star(a, B.basis_vector(0)) == Vec(Q, (0, 2, 2))
    assert (star_subspaces(B, span([a]), span([B.basis_vector(0)]))
            == span([Vec(Q, (0, 1, 1))]))


def _full_law_sweep(B, trials, seed):
    """Both left-brace laws, then associativity, identity and inverses,
    swept in full and in this order: the first Violation, or None."""
    d = B.dim
    basis = [B.basis_vector(i) for i in range(d)]
    rng = rng_from(seed)
    triples = [((i, j, k), basis[i], basis[j], basis[k])
               for i in range(d) for j in range(d) for k in range(d)]
    triples += [(("random", t), random_vec(B.field, d, rng),
                 random_vec(B.field, d, rng), random_vec(B.field, d, rng))
                for t in range(trials)]
    for site, a, b, c in triples:
        lhs = B.star(a + b + B.star(a, b), c)
        rhs = B.star(a, c) + B.star(b, c) + B.star(a, B.star(b, c))
        if lhs != rhs:
            return Violation("left-brace law (a+b+a*b)*c", site, lhs - rhs)
        lhs, rhs = B.star(a, b + c), B.star(a, b) + B.star(a, c)
        if lhs != rhs:
            return Violation("left-brace law a*(b+c)", site, lhs - rhs)
    for site, a, b, c in triples:
        lhs, rhs = _circ(B, _circ(B, a, b), c), _circ(B, a, _circ(B, b, c))
        if lhs != rhs:
            return Violation("circ associativity", site, lhs - rhs)
    zero = Vec.zero(B.field, d)
    for i, a in enumerate(basis):
        if _circ(B, zero, a) != a or _circ(B, a, zero) != a:
            return Violation("circ identity", (i,))
        try:
            B.circ_inverse(a)
        except ConvergenceFailure:
            return Violation("circ inverse", (i,))
    return None


def _law_outcome(B, trials, seed):
    """The Violation at which validation_stages rejects B's brace and
    group laws, or None once both law stages have passed."""
    try:
        for line in validation_stages(B, trials=trials, seed=seed):
            if line == "group laws: PASS":
                return None
    except ValidationFailure as exc:
        return exc.violation
    raise AssertionError("group laws stage never reported")


def _generated_braces(generators):
    """T_3 and T_4 (flows braces of the rooted-tree pre-Lie algebras) and
    upper(4) (the radical ring, degree 1 only) from the benchmark's
    generators, over Q and GF(5); their values have several nonzero
    coordinates.  T_4 has class 5, so its GF(5) brace is its Q brace
    reduced mod 5: the tables are 5-integral, so the law holds mod 5."""
    out = []
    for s in (generators.trees(3), generators.trees(4), generators.upper(4)):
        lambdas = {}
        for (k, tup, j, o), c in s.entries.items():
            lambdas.setdefault(k, {}).setdefault((tup, j), {})[o] = c
        for field in (Q, GF(5)):
            p = field.characteristic
            if s.name.startswith("U"):
                B = GradedBrace(field, s.dim, lambdas, validate=False)
            elif p and p <= s.nil_class:  # the Q brace just built, mod p
                B = GradedBrace(field, s.dim, {
                    k: {key: dict(pairs) for key, pairs in lam.table.items()}
                    for k, lam in out[-1][1].lambdas.items()}, validate=False)
            else:
                B = to_brace(PreLieAlgebra(field, s.dim, SymmetricMap(field, s.dim, 1,
                                                                      lambdas[1])))
            out.append((f"{s.name}/{field}", B))
    return out


def _law_mutants(braces_cache, generators):
    """Corpus braces over Q, GF(7) and GF(11) and the generated braces
    over Q and GF(5); copies of each with one entry bumped per degree and
    with entries added; the ring brace; braces whose circ has no
    inverse."""
    bases = [(f"{name}/{field}", braces_cache(name, field))
             for field in (Q, GF(7), GF(11)) for name in corpus(field)]
    out = []
    for where, B in bases + _generated_braces(generators):
        out.append((where, B))
        for k, lam in B.lambdas.items():
            for key in (next(iter(lam.table)), list(lam.table)[-1]):
                out.append((f"{where} bump L_{k} {key}",
                            _corrupt(B, k, key, B.dim - 1, delta=2)))
        for k in (1, 2, 3):
            key = ((B.dim - 1,) * k, 0)
            out.append((f"{where} add L_{k} {key}", _corrupt(B, k, key, B.dim - 1)))
    for field in (Q, GF(7), GF(11)):
        # a*b = a_0 b_0 e_0: associative and distributive, but 1∘x = 0
        # has no solution
        out.append((f"line/{field}", GradedBrace(
            field, 1, {1: {((0,), 0): (1,)}}, validate=False)))
        out.append((f"plane/{field}", GradedBrace(
            field, 2, {1: {((0,), 0): (1, 0), ((0,), 1): (0, 1)}}, validate=False)))
    out.append(("x Q[x]/(x^8)", _ring_brace()))
    return out


def test_law_stages_match_full_sweep(braces_cache, bench_generators):
    # dropping the sweeps the graded form decides leaves every verdict,
    # law, site and residual of the brace and group law stages as it was
    outcomes = []
    for where, B in _law_mutants(braces_cache, bench_generators):
        want = _full_law_sweep(B, 3, 5)
        got = _law_outcome(B, 3, 5)
        assert got == want, where
        outcomes.append(None if want is None else want.check)
    assert outcomes.count(None) >= 21
    assert outcomes.count("left-brace law (a+b+a*b)*c") >= 21
    assert outcomes.count("circ inverse") >= 6


def _stages_outcome(stages):
    """The lines a stage generator yields, and the (type, message,
    Violation) of the error it ends with, or None."""
    lines = []
    try:
        for line in stages:
            lines.append(line)
    except AlgebraError as exc:
        return lines, (type(exc), str(exc), getattr(exc, "violation", None))
    return lines, None


def _copy(B):
    return GradedBrace(B.field, B.dim, B.lambdas, class_bound=B.class_bound,
                       basis_names=B.basis_names, validate=False)


def _int_verdict_is_the_table_difference(B):
    """Assert that the int comparison of B with to_brace(L_1) decides as
    ``table_difference`` does, the reference; its verdict, or None when
    L_1 is no pre-Lie algebra of class below p."""
    try:
        alg = PreLieAlgebra(B.field, B.dim, B.lambda_map(1))
    except (ValidationFailure, CharacteristicTooSmall):
        return None
    same = is_flows_brace(B, alg)
    assert same == (table_difference(B, to_brace(alg)) is None)
    return same


def test_validation_outcome_is_the_checked_stages_outcome(braces_cache, bench_generators):
    # the reconstruction decides only PASS: on the law mutants and the
    # chain inputs, validation yields and raises exactly what the checked
    # stages do, and every brace it admits passes them; its int comparison
    # of the tables decides as table_difference does
    verdicts, compared = [], []
    for where, B in (_law_mutants(braces_cache, bench_generators)
                     + _chain_inputs(braces_cache)):
        admitted = _copy(B)
        got = _stages_outcome(validation_stages(admitted, 3, 5))
        assert got == _stages_outcome(_checked_stages(_copy(B), 3, 5)), where
        assert (admitted.prelie is None) == (got[1] is not None), where
        verdicts.append(got[1] is None)
        compared.append(_int_verdict_is_the_table_difference(B))
    assert verdicts.count(True) >= 60 and verdicts.count(False) >= 140
    assert compared.count(True) >= 60 and compared.count(False) >= 85


def test_int_comparison_sees_degrees_above_the_flows_brace(braces_q):
    # to_brace(L_1) has no degree above s - 2: a brace with a nonzero map
    # there differs from it, also when that map's compiled rows are empty
    # because every multinomial is 0 mod p; and one entry off at degree
    # s - 2 differs too
    v5 = braces_q["v5"]  # class 5, degrees 1..3
    F = GF(3)
    cases = [_corrupt(v5, 4, ((0, 0, 0, 0), 0), 3),
             _corrupt(v5, 3, ((0, 1, 2), 3), 3),
             # L_1 = 0 (class 2 < 3); L_3 at e1 e2 e3 and e1 e1 e2 has
             # multinomial 6 and 3, zero mod 3
             GradedBrace(F, 3, {3: {((0, 1, 2), 0): (0, 1, 2), ((0, 0, 1), 2): (1, 0, 0)}},
                         validate=False)]
    assert cases[-1]._rows[0] == ()
    for B in cases:
        assert _int_verdict_is_the_table_difference(B) is False
        got = _stages_outcome(validation_stages(_copy(B), 3, 5))
        assert got == _stages_outcome(_checked_stages(_copy(B), 3, 5))
        assert got[1] is not None
    assert _int_verdict_is_the_table_difference(_odd_degree_three_brace()) is None


def _top_entry_off_by_one():
    """v5's brace with its first top-degree structure constant plus one."""
    B = to_brace(corpus(Q)["v5"])
    top = max(B.lambdas)
    key = min(B.lambdas[top].table)
    return _corrupt(B, top, key, B.lambdas[top].table[key][0][0])


_RING_GF3 = {1: {((i,), j): {i + j + 1: 1} for i in range(7) for j in range(7) if i + j + 1 < 7}}


@pytest.mark.parametrize("trials", [0, 20])
@pytest.mark.parametrize("make, error, message", [
    (_top_entry_off_by_one, ValidationFailure,
     "left-brace law (a+b+a*b)*c violated at (0, 0, 0) residual (0, 0, 0, 6)"),
    (lambda: GradedBrace(GF(3), 7, _RING_GF3, validate=False), CharacteristicTooSmall,
     "characteristic 3 must exceed the nilpotency class 8"),
    (lambda: GradedBrace(Q, 4, to_brace(corpus(Q)["f4"]).lambdas, class_bound=2,
                         validate=False), ValidationFailure,
     "strong nilpotency index 4 exceeds declared class bound 2"),
    (lambda: GradedBrace(Q, 4, {1: {((0,), 1): {2: 1}, ((2,), 0): {3: 1}}}, validate=False),
     ValidationFailure,
     "left-brace law (a+b+a*b)*c violated at (0, 1, 0) residual (0, 0, 0, 1)")],
    ids=["top entry off by one", "p <= s", "class bound exceeded", "L_1 not pre-Lie"])
def test_rejected_braces_fail_as_the_checked_stages(make, error, message, trials):
    # each reconstruction failure falls back to the checked stages, which
    # fail as they did before the reconstruction: same lines, same error
    got = _stages_outcome(validation_stages(make(), trials))
    assert got == _stages_outcome(_checked_stages(make(), trials))
    assert got[1][:2] == (error, message)


def _missed_by_the_basis_sweep():
    """star(a, b) = 6 a_0 a_1 a_2 b_0 e_3, a single degree-3 entry.  The
    law fails off the basis, but a basis pair has at most two of the
    coordinates 0, 1, 2.  L_1 = 0, whose flows brace is the trivial one."""
    return GradedBrace(Q, 4, {3: {((0, 1, 2), 0): {3: 1}}}, validate=False)


def test_checks_that_miss_fail_at_the_table_key():
    # without random triples the checked stages pass this non-brace; the
    # reconstruction then fails it at the first key where it differs
    # from to_brace(L_1)
    lines = ["left-brace laws: PASS", "group laws: PASS", "F-linearity: PASS",
             "left: 4,1,0 nilpotent index 3", "right: 4,1,0 nilpotent index 3",
             "strong: 4,1,0 strongly nilpotent index 3"]
    assert _stages_outcome(_checked_stages(_missed_by_the_basis_sweep(), 0)) == (lines, None)
    viol = Violation("brace round trip", (3, (0, 1, 2), 0))
    B = _missed_by_the_basis_sweep()
    assert _stages_outcome(validation_stages(B, 0)) == (
        lines, (ValidationFailure, str(viol), viol))
    assert B.chains is None and B.prelie is None
    # a random triple finds the law's own violation, as before
    got = _stages_outcome(validation_stages(_missed_by_the_basis_sweep(), 20))
    assert got == _stages_outcome(_checked_stages(_missed_by_the_basis_sweep(), 20))
    assert got[1][2].site == ("random", 0)


def _per_triple_left_brace(B, trials, seed):
    """The left-brace law swept triple by triple, 5 stars each: the basis
    triples in (i, j, k) order, then the seeded random triples; the
    first Violation, or None."""
    d = B.dim
    basis = [B.basis_vector(i) for i in range(d)]
    rng = rng_from(seed)
    triples = [((i, j, k), basis[i], basis[j], basis[k])
               for i in range(d) for j in range(d) for k in range(d)]
    triples += [(("random", t), random_vec(B.field, d, rng),
                 random_vec(B.field, d, rng), random_vec(B.field, d, rng))
                for t in range(trials)]
    for site, a, b, c in triples:
        bc = B.star(b, c)
        lhs = B.star(a + b + B.star(a, b), c)
        rhs = B.star(a, c) + bc + B.star(a, bc)
        if lhs != rhs:
            return Violation("left-brace law (a+b+a*b)*c", site, lhs - rhs)
    return None


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(data=st.data())
def test_left_brace_maps_match_per_triple_sweep(braces_cache, data):
    # the matrix form of the basis sweep finds the same first violation,
    # site and residual as 5 stars per triple: on random tables, and on
    # small corpus braces with or without one coordinate bumped
    if data.draw(st.booleans()):
        B = data.draw(_small_brace_and_triple())[0]
    else:
        B = braces_cache(data.draw(st.sampled_from(("n2", "h3", "f4", "v5"))),
                         data.draw(st.sampled_from((Q, GF(7)))))
        if data.draw(st.booleans()):
            k = data.draw(st.sampled_from(sorted(B.lambdas)))
            key = data.draw(st.sampled_from(sorted(B.lambdas[k].table)))
            B = _corrupt(B, k, key, data.draw(st.integers(0, B.dim - 1)),
                         delta=data.draw(st.integers(1, 3)))
    trials, seed = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 9))
    assert check_left_brace(B, trials, seed) == _per_triple_left_brace(B, trials, seed)


def test_law_checks_star_count(braces_q, monkeypatch):
    # the basis sweep of the left-brace law runs on left-multiplication
    # maps and makes no pass of the star kernel; each random triple makes
    # 5 kernel passes and each basis inverse at most d + 3
    B = braces_q["f4"]
    real, calls = GradedBrace._star, []

    def counted(self, a, b):
        calls.append(None)
        return real(self, a, b)

    monkeypatch.setattr(GradedBrace, "_star", counted)
    assert check_left_brace(B, trials=0) is None
    assert calls == []
    assert check_left_brace(B, trials=4) is None
    assert len(calls) == 5 * 4
    calls.clear()
    assert check_group(B) is None
    d = B.dim
    assert 0 < len(calls) <= d * (d + 3)


def test_left_brace_sweep_builds_maps_only_where_the_table_acts(braces_q, monkeypatch):
    # an empty table builds no left-multiplication map whatever its dim;
    # otherwise one M_{e_i} per index i in a left tuple, and one M_u per
    # such i and each j in a left tuple or a right index of the table
    real, calls = brace._left_map, []

    def counted(B, u, du):
        calls.append(None)
        return real(B, u, du)

    monkeypatch.setattr(brace, "_left_map", counted)
    for d in (1, 40, 400):
        assert check_left_brace(GradedBrace.trivial(Q, d), trials=0) is None
    assert calls == []
    B = braces_q["h3"]  # only e_1 acts, only on e_2: 1 + 2 maps, not 3 + 9
    rows = B._rows[0]
    assert {idx for tup, _, _ in rows for idx in tup} == {0}
    assert {j for _, j, _ in rows} == {1}
    assert check_left_brace(B, trials=0) is None
    assert len(calls) == 3


def test_group_check_inverts_only_where_the_table_acts(monkeypatch):
    # e_i in no left tuple has star(±e_i, ·) = 0 and inverse -e_i, so
    # only the indices that occur in a left tuple are inverted
    real, calls = GradedBrace.circ_inverse, []

    def counted(self, a):
        calls.append(a)
        return real(self, a)

    monkeypatch.setattr(GradedBrace, "circ_inverse", counted)
    assert check_group(GradedBrace(Q, 400, {}, validate=False)) is None
    assert calls == []
    B = GradedBrace(Q, 30, {1: {((3,), 7): {8: 1}}, 2: {((3, 5), 8): {9: 1}}},
                    validate=False)
    assert check_group(B) is None
    assert calls == [B.basis_vector(3), B.basis_vector(5)]
