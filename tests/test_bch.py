import functools
import math
import random
import sys

from fractions import Fraction

import pytest

from bch_reference import (NotLieElement, TruncatedSeries, at_point, bch_series,
                           bracket_sum, dsw_project, expand_bracket_word,
                           generic_dsw_c, next_prime_above, random_nilpotent,
                           sampled_violation, suffix_tree, ts_exp, ts_log, vec_c)
from braceflow import bch, flows, sampling
from braceflow.bch import _generic_c, _generic_difference, verify_flows_bch
from braceflow.corpus import corpus, h3, zero_algebra
from braceflow.errors import CharacteristicTooSmall, PreconditionViolated
from braceflow.linalg import Vec
from braceflow.generic import GenericRing
from braceflow.prelie import PreLieAlgebra, int_rows
from braceflow.sampling import random_vec
from braceflow.scalars import GF, Q


def gen(letter, bound=4):
    return TruncatedSeries.generator(Q, bound, letter)


def test_mul_examples():
    one = TruncatedSeries.one(Q, 4)
    x, y = gen("X"), gen("Y")
    assert one * x == x
    assert x * y == TruncatedSeries(Q, 4, {"XY": 1})
    sq = (x + y) * (x + y)
    assert sq == TruncatedSeries(Q, 4, {"XX": 1, "XY": 1, "YX": 1, "YY": 1})


def test_mul_truncates():
    x = gen("X", 2)
    assert (x * x) * x == TruncatedSeries.zero(Q, 2)


def test_exp_examples():
    assert ts_exp(TruncatedSeries.zero(Q, 3)) == TruncatedSeries.one(Q, 3)
    e = ts_exp(gen("X", 3))
    assert e == TruncatedSeries(Q, 3, {"": 1, "X": 1, "XX": Fraction(1, 2),
                                       "XXX": Fraction(1, 6)})


def test_exp_log_preconditions():
    with pytest.raises(PreconditionViolated):
        ts_exp(TruncatedSeries.one(Q, 3))
    with pytest.raises(PreconditionViolated):
        ts_log(gen("X", 3))


def test_log_exp_identity_examples():
    u = gen("X", 4) + gen("Y", 4)
    assert ts_log(ts_exp(u)) == u


@pytest.mark.parametrize("bound", [1, 2, 3, 4, 5])
def test_log_exp_identity_random(bound):
    rng = random.Random(bound)
    words = [w for w in _all_words(bound) if w]
    for _ in range(20):
        u = TruncatedSeries(Q, bound, {
            w: Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for w in words})
        assert ts_log(ts_exp(u)) == u
        v = TruncatedSeries.one(Q, bound) + u
        assert ts_exp(ts_log(v)) == v


def _all_words(bound):
    words = [""]
    for _ in range(bound):
        words = words + [w + letter for w in words for letter in "XY"
                         if len(w) < bound]
    return sorted(set(words))


def test_bch_degree_one():
    assert bch_series(1) == gen("X", 1) + gen("Y", 1)


def test_bch_low_degrees():
    c = bch_series(3)
    x, y = gen("X", 3), gen("Y", 3)
    bracket = lambda u, v: u * v - v * u
    expected = (x + y
                + bracket(x, y).scale(Fraction(1, 2))
                + (bracket(x, bracket(x, y))
                   + bracket(y, bracket(y, x))).scale(Fraction(1, 12)))
    assert c == expected


def test_bch_swap_antisymmetry():
    c = bch_series(2)
    swapped = TruncatedSeries(Q, 2, {
        w.replace("X", "t").replace("Y", "X").replace("t", "Y"): v
        for w, v in c.terms.items()})
    assert swapped.degree_part(1) == c.degree_part(1)
    assert swapped.degree_part(2) == {w: -v for w, v in c.degree_part(2).items()}


def test_dsw_single_generator():
    terms = dsw_project(gen("X", 2))
    assert len(terms) == 1
    assert terms[0].letters == "X" and terms[0].coefficient == 1


def test_dsw_commutator():
    u = TruncatedSeries(Q, 2, {"XY": Fraction(1, 2), "YX": Fraction(-1, 2)})
    terms = dsw_project(u)
    total = TruncatedSeries.zero(Q, 2)
    for t in terms:
        total = total + expand_bracket_word(Q, 2, t.letters).scale(t.coefficient)
    assert total == u


@pytest.mark.parametrize("bound", [2, 3, 4, 5])
def test_bch_is_lie_element(bound):
    # the re-expansion certificate passes at every degree
    dsw_project(bch_series(bound))


def test_dsw_rejects_non_lie():
    with pytest.raises(NotLieElement):
        dsw_project(TruncatedSeries(Q, 2, {"XY": 1}))


def test_dsw_over_prime_field_is_the_reduction_of_q():
    # the int certificate passes mod p, and the terms are Q's reduced
    field = GF(7)
    want = [(field.of(t.coefficient), t.letters) for t in dsw_project(bch_series(5))]
    assert [(t.coefficient, t.letters) for t in dsw_project(bch_series(5, field))] == want
    with pytest.raises(NotLieElement):
        dsw_project(TruncatedSeries(field, 3, {"XY": 1, "YX": 1, "XXY": 2}))


def test_flows_bch_zero_algebra():
    assert verify_flows_bch(zero_algebra(Q, 3)) is None


def test_flows_bch_h3():
    assert verify_flows_bch(h3()) is None


@pytest.mark.parametrize("name", ["n2", "f4", "v5"])
def test_flows_bch_corpus(name):
    assert verify_flows_bch(corpus(Q)[name]) is None


def test_flows_bch_prime_field():
    assert verify_flows_bch(corpus(GF(7))["v5"]) is None


def _not_prelie(field):
    """e1*e2 = e3, e3*e1 = e4: nilpotent of class 4, but the associator
    (e1 e2) e1 - e1 (e2 e1) = e4 is not symmetric in its first two slots."""
    return PreLieAlgebra(field, 4, {(0, 1): {2: 1}, (2, 0): {3: 1}}, validate=False)


def test_flows_bch_fails_off_the_prelie_identity():
    alg = _not_prelie(Q)
    assert alg.nilpotency_class == 4
    for field in (Q, GF(11)):
        assert verify_flows_bch(_not_prelie(field)).check == "flows-BCH identity"
    # the vector reference fails there too, at the first seeded pair
    viol = sampled_violation(alg, 20, None)
    assert (viol.check, viol.site) == ("flows-BCH identity", ("random", 0))
    assert viol.residual == Vec(Q, (0, 0, 0, Fraction(32, 9)))
    viol = sampled_violation(_not_prelie(GF(11)), 20, 0)
    assert (viol.check, viol.site) == ("flows-BCH identity", ("random", 1))
    assert viol.residual == Vec(GF(11), (0, 0, 0, 8))


def test_flows_bch_generic_site_without_trials():
    # verify_flows_bch draws no trial: the violation is reported at the
    # first monomial of the difference (variables 0..d-1 are a's, d..2d-1
    # b's): x_1^2 y_2.  The left side has no such term; on the right
    # (e1 e2) e1 = e4 is the one nonzero product of e1, e1, e2, reached by
    # [a,[a,b]]/12 in C (-1/12) and by the bracket in C.C/2 of W(C) (1/4)
    viol = verify_flows_bch(_not_prelie(Q))
    assert (viol.check, viol.site) == ("flows-BCH identity", ("generic", (0, 0, 5)))
    assert viol.residual == Vec(Q, (0, 0, 0, Fraction(-1, 6)))
    viol = verify_flows_bch(_not_prelie(GF(11)))
    assert viol.site == ("generic", (0, 0, 5))
    assert viol.residual == Vec(GF(11), (0, 0, 0, Fraction(-1, 6)))

def _per_term_bch(alg, terms, a, b):
    """C(a, b) with each BCH term bracketed on its own, left to right."""
    bound_vec = {"X": a, "Y": b}
    c = None
    for term in terms:
        val = bound_vec[term.letters[0]]
        for letter in term.letters[1:]:
            val = alg.lie_bracket(val, bound_vec[letter])
        val = val * term.coefficient
        c = val if c is None else c + val
    return c


def _reference_algebras(generators):
    for name, alg in corpus(Q).items():
        yield name, alg
    for s in [generators.v(n) for n in range(3, 7)] + [generators.trees(3),
                                                        generators.trees(4)]:
        structure = {}
        for (_, (i,), j, k), val in s.entries.items():
            structure.setdefault((i, j), {})[k] = val
        yield s.name, PreLieAlgebra(Q, s.dim, structure)


@pytest.mark.parametrize("field", [Q, GF(7), GF(11)], ids=str)
def test_grouped_bch_matches_per_term_brackets(field, bench_generators):
    rng = random.Random(61)
    checked = 0
    for name, alg in _reference_algebras(bench_generators):
        if field.characteristic:
            if field.characteristic <= alg.nilpotency_class:
                continue
            alg = PreLieAlgebra(field, alg.dim, {
                (i, j): dict(pairs) for ((i,), j), pairs in alg.product.table.items()})
        terms = dsw_project(bch_series(alg.nilpotency_class, field))
        tree = suffix_tree((t.coefficient, t.letters) for t in terms)
        for _ in range(3):
            a, b = random_vec(field, alg.dim, rng), random_vec(field, alg.dim, rng)
            assert bracket_sum(alg, tree, {"X": a, "Y": b}) == \
                _per_term_bch(alg, terms, a, b), name
        checked += 1
    assert checked >= 9


def test_flows_bch_multiply_count():
    # the proof runs on the generic kernel's ints, passing or failing: no
    # PreLieAlgebra.multiply, no flows series on vectors, and no draw,
    # under any name the functions are bound to
    codes = {f.__code__: f.__name__ for f in (PreLieAlgebra.multiply, flows.w_map,
                                              flows.exp_L, sampling.rng_from,
                                              sampling.random_ints)}
    calls = []

    def hook(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            calls.append(codes[frame.f_code])

    sys.setprofile(hook)
    try:
        assert verify_flows_bch(corpus(Q)["v5"]) is None
        assert verify_flows_bch(_not_prelie(Q)) is not None
    finally:
        sys.setprofile(None)
    assert calls == []


def _as_field(alg, field):
    return PreLieAlgebra(field, alg.dim, {
        (i, j): dict(pairs) for ((i,), j), pairs in alg.product.table.items()},
        validate=False)


@pytest.mark.parametrize("field", [Q, GF(7), GF(11)], ids=str)
def test_flows_bch_proof_passes_on_reference_algebras(field, bench_generators):
    checked = 0
    for name, alg in _reference_algebras(bench_generators):
        if field.characteristic:
            if field.characteristic <= alg.nilpotency_class:
                continue
            alg = _as_field(alg, field)
        assert _generic_difference(alg)[0] == {}, name
        assert verify_flows_bch(alg) is None, name
        checked += 1
    assert checked >= 12


@pytest.mark.parametrize("field", [Q, GF(11), GF(13)], ids=str)
def test_generic_verdict_equals_sampled_verdict(field):
    rng = random.Random(field.characteristic + 5)
    verdicts = set()
    for _ in range(40):
        alg = random_nilpotent(rng, field)
        proved = verify_flows_bch(alg) is None
        assert proved == (sampled_violation(alg, 20, None) is None)
        verdicts.add(proved)
    assert verdicts == {True, False}


@pytest.mark.parametrize("field", [Q, GF(11)], ids=str)
def test_generic_difference_evaluates_to_the_sampled_residual(field):
    # the ints over E^(k-1), at the point of a random pair, are the
    # vector lhs - rhs at that pair: the Q scaling divides exactly
    rng = random.Random(17)
    for alg in [_not_prelie(field)] + [random_nilpotent(rng, field) for _ in range(6)]:
        diff, degree_den = _generic_difference(alg)
        for _ in range(3):
            a, b = random_vec(field, alg.dim, rng), random_vec(field, alg.dim, rng)
            c = vec_c(alg, a, b)
            want = (flows.w_map(alg, a) + flows.exp_L(alg, a, flows.w_map(alg, b))
                    - flows.w_map(alg, c))
            point = a.entries + b.entries
            assert at_point(diff, degree_den, field, alg.dim, point) == want


def test_flows_bch_characteristic_at_most_the_class():
    # every denominator of the recursion has its primes below the class
    # s, and the Nullstellensatz needs degrees below p: p <= s is refused
    alg = _as_field(corpus(Q)["v5"], GF(5))
    with pytest.raises(CharacteristicTooSmall, match="must exceed the nilpotency class 5"):
        verify_flows_bch(alg)


def test_recursion_low_degrees():
    # Z_1 = a + b, Z_2 = [a, b]/2, Z_3 = ([a, [a, b]] + [b, [b, a]])/12,
    # read on the free words of the reference series' algebra
    x, y = TruncatedSeries.generator(Q, 3, "X"), TruncatedSeries.generator(Q, 3, "Y")
    parts = bch._bch_parts(4, x, y, lambda u, v: u * v - v * u,
                           lambda pairs, den=1: sum((u.scale(Fraction(q, den)) for u, q in pairs),
                                                    TruncatedSeries.zero(Q, 3)),
                           math.factorial(3))
    assert sum(parts, TruncatedSeries.zero(Q, 3)) == bch_series(3)


@functools.lru_cache(maxsize=None)
def _dsw_terms(s, field):
    return tuple(dsw_project(bch_series(s, field)))


def _algebra(field, dim, entries):
    """The algebra of generator entries {(1, (i,), j, k): value}, over
    ``field`` (the values read mod p there)."""
    structure = {}
    for (_, (i,), j, k), val in entries.items():
        structure.setdefault((i, j), {})[k] = val
    return PreLieAlgebra(field, dim, structure)


def _direct_sum(first, second):
    entries = dict(first.entries)
    for (deg, (i,), j, k), val in second.entries.items():
        entries[(deg, (i + first.dim,), j + first.dim, k + first.dim)] = val
    return f"{first.name}+{second.name}", first.dim + second.dim, entries


def _property_algebras(generators):
    """(name, dim, entries) of classes 2..10: v_n, T_n, upper(m), h3, f4,
    direct sums and seeded relabellings of them over Q."""
    g = generators
    plain = ([g.v(n) for n in range(1, 10)] + [g.trees(n) for n in range(1, 6)]
             + [g.upper(m) for m in range(2, 6)] + [g.h3(), g.f4()])
    out = [(s.name, s.dim, s.entries) for s in plain]
    out += [_direct_sum(g.v(3), g.trees(3)), _direct_sum(g.upper(4), g.v(5)),
            _direct_sum(g.h3(), g.f4())]
    for s in (g.v(6), g.trees(4), g.upper(5), g.v(9)):
        sigma, scales = g.relabelling(s.dim, 11)
        out.append((f"{s.name}~", s.dim, g.relabel(s.entries, sigma, scales, 0)))
    return out


@pytest.mark.parametrize("prime", [False, True], ids=["Q", "GF(p)"])
def test_recursion_equals_dsw_at_generic_pair(prime, bench_generators):
    # C from the recursion, in the kernel verify_flows_bch uses, equals
    # the DSW bracket sum.  Over Q that kernel's unit is u = 2(s-1)!, and
    # the DSW sum needs a unit U that its denominators divide too: a
    # degree-k term c / (den u)^(k-1) is c (U/u)^(k-1) / (den U)^(k-1)
    classes = set()
    for name, dim, entries in _property_algebras(bench_generators):
        s = _algebra(Q, dim, entries).nilpotency_class
        field = GF(next_prime_above(s)) if prime else Q
        alg = _algebra(field, dim, entries)
        terms = _dsw_terms(s, field)
        ring = bch._generic_ring(alg)
        if prime:  # residues: the table unit is unused
            ref_ring, scale = ring, 1
        else:
            unit = 2 * math.factorial(s - 1)
            big = math.lcm(unit, Q.to_ints([t.coefficient for t in terms])[1])
            ref_ring, scale = GenericRing(*int_rows(alg), 0, s, big), big // unit
        a = {((i,), i): 1 for i in range(dim)}
        b = {((dim + i,), i): 1 for i in range(dim)}
        got = {(m, o): c * scale ** (len(m) - 1) for (m, o), c in _generic_c(ring, a, b).items()}
        assert got == generic_dsw_c(ref_ring, terms, dim), (name, field)
        classes.add(s)
    assert classes == set(range(2, 11))


@pytest.mark.parametrize("field", [Q, GF(11), GF(13)], ids=str)
def test_vec_recursion_equals_dsw_on_random_pairs(field, bench_generators):
    # the reference's C on vectors is the DSW bracket sum, on
    # pre-Lie algebras, where the commutator satisfies Jacobi
    rng = random.Random(field.characteristic + 3)
    checked = 0
    for name, dim, entries in _property_algebras(bench_generators):
        alg = _algebra(Q, dim, entries)
        s = alg.nilpotency_class
        if field.characteristic:
            if field.characteristic <= s:
                continue
            alg = _algebra(field, dim, entries)
        tree = suffix_tree((t.coefficient, t.letters) for t in _dsw_terms(s, field))
        for _ in range(2):
            a, b = random_vec(field, dim, rng), random_vec(field, dim, rng)
            assert vec_c(alg, a, b) == bracket_sum(alg, tree, {"X": a, "Y": b}), name
        checked += 1
    assert checked >= 15
