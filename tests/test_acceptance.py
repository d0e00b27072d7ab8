"""Acceptance suite: one test per criterion, every comparison exact.

Run with  pytest tests/test_acceptance.py -v -s  to see one line per
criterion."""

import random

from fractions import Fraction

import pytest

from bch_reference import TruncatedSeries, bch_series
from braceflow.bch import verify_flows_bch
from braceflow.brace import (GradedBrace, SymmetricMap, check_fbrace,
                             check_group, check_left_brace)
from braceflow.corpus import corpus
from braceflow.errors import ValidationFailure
from braceflow.flows import circ, omega
from braceflow.free_expansion import (StarExpr, StarWord, X, Y, Z,
                                      doubling_matrix, evaluate,
                                      expand_sum_star, scaling_matrix_check)
from braceflow.limits import dot, limit_witness, roundtrip_brace, roundtrip_prelie
from braceflow.linalg import Vec
from braceflow.prelie import PreLieAlgebra, check_prelie_identity
from braceflow.sampling import random_vec
from braceflow.scalars import GF, Q

PRIME_FIELDS = (GF(7), GF(11))


def report(number, text):
    print(f"criterion {number:02d}: PASS  ({text})")


def _criterion_1_low_class_formula(field):
    half = field.inv_int(2)
    for name, alg in corpus(field).items():
        if alg.nilpotency_class > 4:
            continue
        rng = random.Random(101)
        pairs = [(alg.basis_vector(i), alg.basis_vector(j))
                 for i in range(alg.dim) for j in range(alg.dim)]
        pairs += [(random_vec(field, alg.dim, rng), random_vec(field, alg.dim, rng))
                  for _ in range(100)]
        for a, b in pairs:
            aa = alg.multiply(a, a)
            expected = (a + b + alg.multiply(a, b)
                        - alg.multiply(aa, b) * half
                        + alg.multiply(a, alg.multiply(a, b)) * half)
            assert circ(alg, a, b) == expected, (name, a, b)


def test_criterion_01_low_class_circ_formula():
    _criterion_1_low_class_formula(Q)
    report(1, "circ = a+b+a.b-(1/2)(a.a).b+(1/2)a.(a.b) for class <= 4")


def test_criterion_02_omega_coefficients():
    alg = corpus(Q)["f4"]
    e1 = alg.basis_vector(0)
    for x in (Fraction(1), Fraction(2), Fraction(-3), Fraction(5, 7)):
        expected = Vec(Q, (x, -x ** 2 / 2, x ** 3 / 4, x ** 3 / 12))
        assert omega(alg, e1 * x) == expected, x
    report(2, "Omega(x e1) = x e1 - x^2/2 e2 + x^3/4 e3 + x^3/12 e4 in f4")


def _criterion_3_associative_case(field, brace):
    alg = corpus(field)["n2"]
    # symbolic sweep: the graded star is exactly the bilinear product
    assert set(brace.lambdas) <= {1}
    for i in range(2):
        for j in range(2):
            ei, ej = alg.basis_vector(i), alg.basis_vector(j)
            assert brace.lambda_map(1).value((i,), j) == alg.multiply(ei, ej)
            assert circ(alg, ei, ej) == ei + ej + alg.multiply(ei, ej)


def test_criterion_03_associative_familiar_multiplication(braces_cache):
    _criterion_3_associative_case(Q, braces_cache("n2"))
    report(3, "n2 is the familiar multiplication a∘b = a+b+ab")


def _criterion_4_roundtrips(field, braces_cache):
    for name, alg in corpus(field).items():
        assert roundtrip_prelie(alg) is None, (field, name)
        assert roundtrip_brace(braces_cache(name, field)) is None, (field, name)


def test_criterion_04_roundtrips(braces_cache):
    _criterion_4_roundtrips(Q, braces_cache)
    report(4, "both round trips are the identity on the whole corpus")


def test_criterion_05_limit_certificate(braces_cache):
    for name in ("f4", "v5"):
        B = braces_cache(name)
        rng = random.Random(105)
        vecs = [(B.basis_vector(i), B.basis_vector(j))
                for i in range(B.dim) for j in range(B.dim)]
        vecs += [(random_vec(Q, B.dim, rng), random_vec(Q, B.dim, rng))
                 for _ in range(5)]
        for a, b in vecs:
            limit = dot(B, a, b)  # L_1(a; b); the sequence below certifies it
            seq = limit_witness(B, a, b, 6)
            pieces = {k: lam.apply_diagonal(a, b)
                      for k, lam in B.lambdas.items() if k >= 2}
            deviations = [term - limit for term in seq]
            for n, deviation in enumerate(deviations):
                expected = Vec.zero(Q, B.dim)
                for k, g in pieces.items():
                    expected = expected + g * Fraction(1, 2 ** (n * (k - 1)))
                assert deviation == expected, (name, n)
    report(5, "deviations scale by 2^(1-k) per step; dot = degree-1 map")


def _criterion_6_sum_expansion(field, braces_cache):
    for name in corpus(field):
        B = braces_cache(name, field)
        bound = max(B.class_bound, 3)
        expr = expand_sum_star(X, Y, Z, bound)
        rng = random.Random(106)
        for _ in range(50):
            a, b, c = (random_vec(field, B.dim, rng) for _ in range(3))
            got = evaluate(expr, {"x": a, "y": b, "z": c}, B)
            assert got == B.star(a + b, c), (field, name)


def test_criterion_06_sum_expansion_engine(braces_cache):
    _criterion_6_sum_expansion(Q, braces_cache)
    four_terms = StarExpr((
        (StarWord.product(X, Z), 1),
        (StarWord.product(Y, Z), 1),
        (StarWord.product(X, StarWord.product(Y, Z)), 1),
        (StarWord.product(StarWord.product(X, Y), Z), -1),
    ))
    assert expand_sum_star(X, Y, Z, 3) == four_terms
    report(6, "(a+b)*c expansion exact on corpus; degree-3 form is the 4-term display")


def test_criterion_07_doubling_matrix(braces_cache):
    for bound in (2, 3, 4, 5):
        m, words = doubling_matrix(bound)
        assert m.is_upper_triangular()
        diag = m.diagonal()
        assert sum(1 for e in diag if e == 2) == 1
        assert all(e == 2 ** w.count("x") for e, w in zip(diag, words))
    rng = random.Random(107)
    for name in corpus(Q):
        B = braces_cache(name)
        a, b = random_vec(Q, B.dim, rng), random_vec(Q, B.dim, rng)
        assert scaling_matrix_check(B, a, b, 4) is None, name
    report(7, "M upper triangular, diagonal 2^(x count), scaling identity exact")


def test_criterion_08_bch():
    c = bch_series(3)
    x = TruncatedSeries.generator(Q, 3, "X")
    y = TruncatedSeries.generator(Q, 3, "Y")
    br = lambda u, v: u * v - v * u
    expected = (x + y + br(x, y).scale(Fraction(1, 2))
                + (br(x, br(x, y)) + br(y, br(y, x))).scale(Fraction(1, 12)))
    assert c == expected
    for name, alg in corpus(Q).items():
        assert alg.nilpotency_class <= 5
        assert verify_flows_bch(alg) is None, name
    report(8, "BCH low degrees match; W(a)∘W(b) = W(C(a,b)) on the corpus")


def _criterion_9_axiom_suites(field, braces_cache):
    for name, alg in corpus(field).items():
        B = braces_cache(name, field)
        assert check_left_brace(B, trials=20) is None, name
        assert check_group(B) is None, name
        assert check_fbrace(B) is None, name
        from braceflow.limits import to_prelie
        assert check_prelie_identity(to_prelie(B)) is None, name

    # corrupted pre-Lie fixture fails at the derived site
    bad_alg = PreLieAlgebra(field, 4, {(0, 0): {1: 1}, (1, 0): {2: 1},
                                       (0, 1): {3: 1}, (2, 0): {1: 1}},
                            validate=False)
    viol = check_prelie_identity(bad_alg)
    assert viol is not None and viol.site == (0, 1, 0)
    assert viol.residual == Vec(field, (0, -1, 0, 0))

    # corrupted brace fixture fails the left-brace law at a real site
    B = braces_cache("f4", field)
    lam2 = B.lambda_map(2)
    table = {k: lam2.value(*k) for k in lam2.table}
    key = ((0, 0), 0)
    bumped = list(lam2.value(*key).entries)
    bumped[0] = bumped[0] + field.one
    table[key] = Vec(field, bumped)
    lambdas = dict(B.lambdas)
    lambdas[2] = SymmetricMap(field, 4, 2, table)
    bad_brace = GradedBrace(field, 4, lambdas, class_bound=B.class_bound,
                            validate=False)
    viol = check_left_brace(bad_brace, trials=10)
    assert viol is not None
    i, j, k = viol.site
    a, b, c = (bad_brace.basis_vector(n) for n in (i, j, k))
    residual = (bad_brace.star(a + b + bad_brace.star(a, b), c)
                - bad_brace.star(a, c) - bad_brace.star(b, c)
                - bad_brace.star(a, bad_brace.star(b, c)))
    assert residual == viol.residual and not residual.is_zero()
    with pytest.raises(ValidationFailure):
        GradedBrace(field, 4, lambdas, class_bound=B.class_bound)


def test_criterion_09_axiom_suites(braces_cache):
    _criterion_9_axiom_suites(Q, braces_cache)
    report(9, "axiom suites pass; corrupted fixtures fail at the right site")


@pytest.mark.parametrize("field", PRIME_FIELDS, ids=lambda f: f"p{f.characteristic}")
def test_criterion_10_prime_field_portability(field, braces_cache):
    assert all(alg.nilpotency_class < field.characteristic
               for alg in corpus(field).values())
    _criterion_1_low_class_formula(field)
    _criterion_3_associative_case(field, braces_cache("n2", field))
    _criterion_4_roundtrips(field, braces_cache)
    _criterion_6_sum_expansion(field, braces_cache)
    _criterion_9_axiom_suites(field, braces_cache)
    report(10, f"criteria 1, 3, 4, 6, 9 verbatim over GF({field.characteristic})")
