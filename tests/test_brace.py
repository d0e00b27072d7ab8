import itertools
import random

from fractions import Fraction

import pytest

from hypothesis import given, settings, strategies as st

from braceflow import brace, prelie, to_brace
from braceflow.brace import (GradedBrace, SymmetricMap, _checked_stages, _reconstruction,
                             check_fbrace, check_group, check_left_brace, class_bound_of,
                             radical_chains, table_difference, validation_stages)
from braceflow.corpus import corpus
from braceflow.errors import (AlgebraError, CharacteristicTooSmall, ConvergenceFailure,
                              DimensionMismatch, FieldMismatch, PreconditionViolated,
                              ValidationFailure, Violation)
from braceflow.flows import is_flows_brace
from braceflow.free_expansion import scaling_matrix_check
from braceflow.limits import check_associator_correction_identity
from braceflow.linalg import Subspace, Vec, span
from braceflow.prelie import PreLieAlgebra, chain_report, strong_chain
from braceflow.sampling import random_vec, rng_from
from braceflow.scalars import GF, Fp, Q
from test_flows import _called, _generated, _reference_structures, _smallest_prime_above


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
    assert check_left_brace(B) is None
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
    viol = check_left_brace(bad)
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
    report = radical_chains(_copy(braces_q["n2"]))
    assert report.dims(report.left) == (2, 1, 0)
    assert report.dims(report.right) == (2, 1, 0)
    assert report.dims(report.strong) == (2, 1, 0)
    assert report.strong_index == 3
    assert report.left[1] == span([Vec(Q, (0, 1))])


def test_chains_f4(braces_q):
    report = radical_chains(_copy(braces_q["f4"]))
    assert report.strong_index == 4
    assert report.strong[3].is_zero()


def test_radical_chains_admit_an_unvalidated_brace(braces_q):
    # the chains are a property of admission: an unvalidated brace is
    # validated, which sets its chains, class bound and pre-Lie algebra;
    # a rejected one raises as validation does, and nothing is set
    B = GradedBrace(Q, 4, braces_q["f4"].lambdas, validate=False)
    report = radical_chains(B)
    assert report is B.chains and B.class_bound == report.strong_index == 4
    assert B.prelie is not None
    low = GradedBrace(Q, 4, braces_q["f4"].lambdas, class_bound=2, validate=False)
    with pytest.raises(ValidationFailure,
                       match="nilpotency class 4 of L_1 exceeds declared class bound 2"):
        radical_chains(low)
    assert low.chains is None and low.prelie is None and low.class_bound == 2


def test_declared_class_bound_is_checked_before_it_is_used(braces_q):
    # a declared class bound is trusted only once the brace is admitted:
    # v5's flows brace (class 5) declared with bound 2 and left
    # unvalidated is rejected, so nothing that works up to the bound runs
    # on it, and nothing is set; a declared bound that holds is kept
    B = braces_q["v5"]
    rng = random.Random(1)
    a, b = random_vec(Q, B.dim, rng), random_vec(Q, B.dim, rng)
    for check in (class_bound_of, check_associator_correction_identity,
                  lambda low: scaling_matrix_check(low, a, b, 2)):
        low = GradedBrace(Q, B.dim, B.lambdas, class_bound=2, validate=False)
        with pytest.raises(PreconditionViolated,
                           match="nilpotency class 5 of L_1 exceeds declared class bound 2"):
            check(low)
        assert low.chains is None and low.prelie is None and low.class_bound == 2
    high = GradedBrace(Q, B.dim, B.lambdas, class_bound=7, validate=False)
    assert class_bound_of(high) == 7 and high.prelie is not None


def _within(small, big):
    """Subspace containment: adding small's basis to big's spans big."""
    return span(small.basis + big.basis, field=big.field, dim=big.ambient_dim) == big


@pytest.mark.parametrize("name", ["zero1", "n2", "h3", "f4", "v5"])
def test_chain_containments_and_equivalence(name, braces_q):
    report = radical_chains(_copy(braces_q[name]))
    # strong chain dominates both one-sided chains, term by term, so all
    # three vanish, the one-sided ones no later than the strong one
    for i, strong in enumerate(report.strong):
        if i < len(report.left):
            assert _within(report.left[i], strong)
        if i < len(report.right):
            assert _within(report.right[i], strong)
    assert max(report.left_index, report.right_index) <= report.strong_index


def _reference_star_span(B, left, right):
    """The star span of ``left`` and ``right`` written out: every graded
    map on every multiset of left basis vectors and every right basis
    vector, by ``apply``.  A map is multilinear, so a basis vector with
    no coordinate in any of its left tuples (or at any of its right
    indices) gives only zeros there, and is left out."""
    gens = []
    for k, lam in B.lambdas.items():
        live, targets = {i for tup, _ in lam.table for i in tup}, {j for _, j in lam.table}
        lefts = [u for u in left.basis if any(u[i] for i in live)]
        rights = [y for y in right.basis if any(y[j] for j in targets)]
        gens += [lam.apply(list(tup), y)
                 for tup in itertools.combinations_with_replacement(lefts, k) for y in rights]
    return span(gens, field=B.field, dim=B.dim)


def _reference_strong_chain(B):
    """The strong chain written out: each term spans the star spans of
    all its j-products, up to the first zero term or 2 * dim + 3."""
    chain = [Subspace.full(B.field, B.dim)]
    while len(chain) < 2 * B.dim + 3 and not chain[-1].is_zero():
        i = len(chain) + 1
        gens = [v for j in range(1, i)
                for v in _reference_star_span(B, chain[j - 1], chain[i - j - 1]).basis]
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


def _reference_one_sided(B, on_left):
    """The left (A * A^i) or right (A^(i) * A) chain written out, each
    term a ``_reference_star_span`` of the one before, up to the first
    zero term or the first repeat: (terms, index or None)."""
    full = Subspace.full(B.field, B.dim)
    chain = [full]
    while not chain[-1].is_zero():
        nxt = (_reference_star_span(B, full, chain[-1]) if on_left
               else _reference_star_span(B, chain[-1], full))
        if nxt == chain[-1]:
            return tuple(chain), None
        chain.append(nxt)
    return tuple(chain), len(chain)


def _assert_reference_chains(B, rep, where):
    """rep is B's chain report written out, term by term and index by
    index."""
    assert rep.strong == _reference_strong_chain(B), where
    assert (rep.left, rep.left_index) == _reference_one_sided(B, True), where
    assert (rep.right, rep.right_index) == _reference_one_sided(B, False), where


@pytest.mark.parametrize("field_of", ["Q", "smallest prime"])
def test_admitted_chains_are_the_written_out_chains(field_of, bench_generators):
    # an admitted brace's chains are read off its L_1's table; the star
    # spans of every graded map on every multiset are the reference, on
    # the flows braces of the corpus, v_3..v_6, T_3..T_5 and upper(3..5),
    # over Q and GF(p) with p the smallest prime above the class, plain
    # and under a seeded relabelling of the algebra
    g = bench_generators
    for s in _reference_structures(g):
        field = GF(_smallest_prime_above(s.nil_class)) if field_of != "Q" else Q
        for sigma, scales in ((None, None), g.relabelling(s.dim, 7)):
            B = _copy(to_brace(_generated(g, s, field, sigma, scales)))
            rep = radical_chains(B)
            assert B.prelie is not None and rep is B.chains
            _assert_reference_chains(B, rep, (s.name, field, sigma))


def _stops_at_strong_terms(rep):
    """Per one-sided chain, whether each term after the first is the
    strong term of its index as an object: the step reached that cap."""
    return [[i < len(rep.strong) and term is rep.strong[i] for i, term in enumerate(chain)][1:]
            for chain in (rep.left, rep.right)]


def test_one_sided_chains_are_capped_by_the_strong_chain(bench_generators, braces_cache):
    # A^{i+1} = A * A^i lies in D_1 * D_i and A^(i+1) = A^(i) * A in
    # D_i * D_1, both in D_{i+1}: each one-sided step spans within the
    # smaller of the term before and D_{i+1}, and returns D_{i+1} itself
    # once it reaches it.  On v_n and upper(m) the chains coincide and
    # every step stops at D_{i+1}; on T_4, T_5 and f4 they differ, and
    # only where a term equals D_{i+1} (A^2 = D_2, the zero term) is the
    # cap reached.  Each report is its written-out form.
    g = bench_generators
    coinciding, differing = [], []
    for field in (Q, GF(11)):
        for s in (g.v(5), g.v(6), g.upper(4), g.upper(5), g.trees(4), g.trees(5)):
            structure = {}
            for (_, (i,), j, k), val in s.entries.items():
                structure.setdefault((i, j), {})[k] = val
            alg = PreLieAlgebra(field, s.dim, structure)
            rep = chain_report(alg)
            brace_1 = GradedBrace(field, s.dim, {1: alg.product}, validate=False)
            (coinciding if s.name[0] in "vU" else differing).append((s.name, brace_1, rep))
        f4 = _copy(braces_cache("f4", field))
        differing.append(("f4", f4, radical_chains(f4)))
        # the flows brace of v_5 has maps of arity 2 and 3, which the
        # written-out reference spans
        v5 = _copy(braces_cache("v5", field))
        assert max(v5.lambdas) > 1
        coinciding.append(("v5 flows", v5, radical_chains(v5)))
    for name, B, rep in coinciding:
        assert rep.left == rep.right == rep.strong, name
        assert _stops_at_strong_terms(rep) == [[True] * (len(rep.strong) - 1)] * 2, name
    for name, B, rep in differing:
        assert rep.left != rep.strong or rep.right != rep.strong, name
        for chain, stops in zip((rep.left, rep.right), _stops_at_strong_terms(rep)):
            assert stops == [i < len(rep.strong) and term == rep.strong[i]
                             for i, term in enumerate(chain)][1:], name
            assert not all(stops), name
    t4 = [rep for name, _, rep in differing if name == "T4"]
    assert [(rep.dims(rep.left), rep.dims(rep.strong)) for rep in t4] == [
        ((8, 7, 4, 1, 0), (8, 7, 6, 4, 0))] * 2
    for name, B, rep in coinciding + differing:
        _assert_reference_chains(B, rep, name)


@pytest.mark.parametrize("field", [Q, GF(13)], ids=str)
def test_strong_chain_counts_each_pair_of_levels_once(field, bench_generators):
    # the strong chain, built from the lefts of D_j outside D_{j+1}, is
    # the sum over every pair of levels of the star spans written out:
    # on the deep chains of flows braces, read off L_1's table, and on a
    # table whose chain stalls (D_3 = D_4, D_5 = .. = D_8, D_9 = 0)
    g = bench_generators
    for s in (g.v(10), g.trees(5), g.upper(5)):
        B = _copy(to_brace(_generated(g, s, field)))
        assert radical_chains(B).strong == _reference_strong_chain(B), s.name
    stalling = {((0,), 0): {1: 1}, ((0,), 1): {2: 1}, ((1,), 1): {2: 1},
                ((1,), 2): {3: 1}, ((2,), 2): {3: 1}}
    lam = SymmetricMap(field, 4, 1, stalling)
    terms, index = strong_chain(PreLieAlgebra(field, 4, lam, validate=False), 2 * 4 + 3)
    strong = tuple(Subspace.of_echelon(field, 4, t) for t in terms)
    assert [t.dim for t in strong] == [4, 3, 2, 2, 1, 1, 1, 1, 0] and index == 9
    assert strong == _reference_strong_chain(GradedBrace(field, 4, {1: lam}, validate=False))


def test_validation_compiles_products_once(braces_q):
    # an admitted brace's chains come from one compile of L_1's table
    # (``prelie._SpanKernel``), kept on L_1's algebra: its strong chain,
    # spanned while L_1 is validated, and both one-sided chains share it;
    # reading them off the admitted brace compiles nothing
    for name in ("f4", "v5"):
        B = braces_q[name]
        built = []
        watched = {"kernel": prelie._SpanKernel.__init__}
        assert len(_called(watched, lambda: built.append(
            GradedBrace(B.field, B.dim, B.lambdas, class_bound=B.class_bound)))) == 1, name
        assert len(B.lambdas) > 1
        assert _called(watched, lambda: radical_chains(built[0])) == [], name
        assert built[0].chains == chain_report(PreLieAlgebra(Q, B.dim, B.lambda_map(1)))


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


def test_star_counts_each_multiset_once():
    # L_2(a, a; e1) at a = e1 + e2 is L(e1,e1) + 2 L(e1,e2) + L(e2,e2) =
    # (0, 2, 2); scaling the multinomial-scaled compiled rows once more
    # would give 2 * 2 e2 + 2 e3 = (0, 4, 2)
    B = GradedBrace(Q, 3, {2: {((0, 0), 0): (0, 0, 1), ((0, 1), 0): (0, 1, 0),
                               ((1, 1), 0): (0, 0, 1)}}, validate=False)
    a = Vec(Q, (1, 1, 0))
    assert B.star(a, B.basis_vector(0)) == Vec(Q, (0, 2, 2))


def _full_law_sweep(B):
    """Both left-brace laws, then associativity, identity and inverses,
    swept in full on the basis and in this order: the first Violation,
    or None."""
    d = B.dim
    basis = [B.basis_vector(i) for i in range(d)]
    triples = [((i, j, k), basis[i], basis[j], basis[k])
               for i in range(d) for j in range(d) for k in range(d)]
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


def _law_outcome(B):
    """The Violation at which validation_stages rejects B's brace and
    group laws, or None once both law stages have passed."""
    try:
        for line in validation_stages(B):
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
        want = _full_law_sweep(B)
        got = _law_outcome(B)
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


def _law_stages_then_reason(B):
    """The outcome validation must have on B, built from its parts: the
    law stages' lines and error; once they pass, the chain lines of an
    admitted brace, or the reconstruction's reason."""
    lines, error = _stages_outcome(_checked_stages(_copy(B)))
    if error is not None:
        return lines, error
    copy = _copy(B)
    reason = _reconstruction(copy)
    if reason is None:
        return lines + list(copy.chains.lines()), None
    exc = reason()
    return lines, (type(exc), str(exc), exc.violation)


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
    # on the law mutants and the chain inputs, validation yields and
    # raises what the law stages do, and once they pass, the chains of an
    # admitted brace or the reconstruction's reason; every brace it admits
    # passes the law stages; its int comparison of the tables decides as
    # table_difference does
    verdicts, compared = [], []
    for where, B in (_law_mutants(braces_cache, bench_generators)
                     + _chain_inputs(braces_cache)):
        admitted = _copy(B)
        got = _stages_outcome(validation_stages(admitted))
        assert got == _law_stages_then_reason(B), where
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
        got = _stages_outcome(validation_stages(_copy(B)))
        assert got == _law_stages_then_reason(B)
        assert got[1] is not None
    assert _int_verdict_is_the_table_difference(_odd_degree_three_brace()) is None


def _top_entry_off_by_one():
    """v5's brace with its first top-degree structure constant plus one."""
    B = to_brace(corpus(Q)["v5"])
    top = max(B.lambdas)
    key = min(B.lambdas[top].table)
    return _corrupt(B, top, key, B.lambdas[top].table[key][0][0])


_RING_GF3 = {1: {((i,), j): {i + j + 1: 1} for i in range(7) for j in range(7) if i + j + 1 < 7}}


def _random_triple_violation(B, trials, seed):
    """The first of ``trials`` seeded random triples at which B breaks the
    left-brace law (a+b+a*b)*c = a*c + b*c + a*(b*c), or None."""
    rng = rng_from(seed)
    for t in range(trials):
        a, b, c = (random_vec(B.field, B.dim, rng) for _ in range(3))
        if B.star(a + b + B.star(a, b), c) != B.star(a, c) + B.star(b, c) + B.star(a, B.star(b, c)):
            return t
    return None


@pytest.mark.parametrize("trials", [0, 20])
@pytest.mark.parametrize("make, error, message", [
    (_top_entry_off_by_one, ValidationFailure,
     "left-brace law (a+b+a*b)*c violated at (0, 0, 0) residual (0, 0, 0, 6)"),
    (lambda: GradedBrace(GF(3), 7, _RING_GF3, validate=False), ValidationFailure,
     "characteristic 3 must exceed the nilpotency class 8"),
    (lambda: GradedBrace(Q, 4, to_brace(corpus(Q)["f4"]).lambdas, class_bound=2,
                         validate=False), ValidationFailure,
     "nilpotency class 4 of L_1 exceeds declared class bound 2"),
    (lambda: GradedBrace(Q, 4, {1: {((0,), 1): {2: 1}, ((2,), 0): {3: 1}}}, validate=False),
     ValidationFailure,
     "left-brace law (a+b+a*b)*c violated at (0, 1, 0) residual (0, 0, 0, 1)")],
    ids=["top entry off by one", "p <= s", "class bound exceeded", "L_1 not pre-Lie"])
def test_rejected_braces_fail_as_the_checked_stages(make, error, message, trials):
    # each reconstruction failure falls back to the law stages, which
    # fail at the first law a basis triple breaks; once they pass, the
    # reconstruction's reason is raised, and no chain is printed.
    # A left-brace PASS line rests on the basis sweep alone; the law also
    # holds at `trials` seeded random triples, which no verdict draws
    got = _stages_outcome(validation_stages(make()))
    assert got == _law_stages_then_reason(make())
    assert got[1][:2] == (error, message)
    assert not any(line.startswith(("left:", "right:", "strong:")) for line in got[0])
    if "left-brace laws: PASS" in got[0]:
        assert _random_triple_violation(make(), trials, 5) is None


def _missed_by_the_basis_sweep():
    """star(a, b) = 6 a_0 a_1 a_2 b_0 e_3, a single degree-3 entry.  The
    law fails off the basis, but a basis pair has at most two of the
    coordinates 0, 1, 2.  L_1 = 0, whose flows brace is the trivial one."""
    return GradedBrace(Q, 4, {3: {((0, 1, 2), 0): {3: 1}}}, validate=False)


def test_checks_that_miss_fail_at_the_table_key():
    # the law stages pass this non-brace on the basis; the reconstruction
    # then fails it at the first key where it differs from to_brace(L_1),
    # with B's value there minus the flows value (0) as the residual
    lines = ["left-brace laws: PASS", "group laws: PASS", "F-linearity: PASS"]
    assert _stages_outcome(_checked_stages(_missed_by_the_basis_sweep())) == (lines, None)
    viol = Violation("brace round trip", (3, (0, 1, 2), 0), Vec(Q, (0, 0, 0, 1)))
    B = _missed_by_the_basis_sweep()
    assert _stages_outcome(validation_stages(B)) == (
        lines, (ValidationFailure, str(viol), viol))
    assert B.chains is None and B.prelie is None


def _per_triple_left_brace(B):
    """The left-brace law swept triple by triple, 5 stars each, on the
    basis triples in (i, j, k) order: the first Violation, or None."""
    d = B.dim
    basis = [B.basis_vector(i) for i in range(d)]
    triples = [((i, j, k), basis[i], basis[j], basis[k])
               for i in range(d) for j in range(d) for k in range(d)]
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
    assert check_left_brace(B) == _per_triple_left_brace(B)


def test_law_checks_star_count(braces_q, monkeypatch):
    # the basis sweep of the left-brace law runs on left-multiplication
    # maps and evaluates no star; each basis inverse evaluates at most d + 3
    B = braces_q["f4"]
    real, calls = GradedBrace.star, []

    def counted(self, a, b):
        calls.append(None)
        return real(self, a, b)

    monkeypatch.setattr(GradedBrace, "star", counted)
    assert check_left_brace(B) is None
    assert calls == []
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
        assert check_left_brace(GradedBrace.trivial(Q, d)) is None
    assert calls == []
    B = braces_q["h3"]  # only e_1 acts, only on e_2: 1 + 2 maps, not 3 + 9
    rows = B._rows[0]
    assert {idx for tup, _, _ in rows for idx in tup} == {0}
    assert {j for _, j, _ in rows} == {1}
    assert check_left_brace(B) is None
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
