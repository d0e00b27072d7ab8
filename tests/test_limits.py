import random

from fractions import Fraction

import pytest

from braceflow.brace import GradedBrace, SymmetricMap, table_difference
from braceflow.corpus import corpus, f4, n2
from braceflow.errors import (DimensionMismatch, FieldMismatch, NotPreLie,
                              PreconditionViolated, Violation)
from braceflow.flows import to_brace
from braceflow.limits import (check_associator_correction_identity, dot,
                              limit_witness, roundtrip_brace, roundtrip_prelie,
                              to_prelie)
from braceflow.linalg import Vec, polynomial_curve_coefficients
from braceflow.sampling import random_ints, random_vec, rng_from
from braceflow.scalars import GF, Q


def _random_scalar(field, rng):
    """One seeded scalar, drawn as ``random_vec`` draws each coordinate."""
    return field.from_ints(*random_ints(field, 1, rng))[0]


def test_dot_trivial():
    B = GradedBrace.trivial(Q, 2)
    assert dot(B, Vec(Q, (1, 2)), Vec(Q, (3, 4))).is_zero()


def test_dot_n2(braces_q):
    B = braces_q["n2"]
    assert dot(B, Vec(Q, (3, 5)), Vec(Q, (2, 7))) == Vec(Q, (0, 6))


def test_dot_recovers_f4_structure(braces_q):
    B = braces_q["f4"]
    alg = f4()
    for i in range(4):
        for j in range(4):
            assert dot(B, B.basis_vector(i), B.basis_vector(j)) == \
                alg.product.value((i,), j)


@pytest.mark.parametrize("field", [Q, GF(7)], ids=str)
def test_dot_is_degree_one_coefficient_of_star_curve(field, braces_cache):
    # reference: interpolate t -> star(t*a, b) through its top degree
    rng = random.Random(23)
    for name in corpus(field):
        B = braces_cache(name, field)
        pairs = [(B.basis_vector(i), B.basis_vector(j))
                 for i in range(B.dim) for j in range(B.dim)]
        pairs += [(random_vec(field, B.dim, rng), random_vec(field, B.dim, rng))
                  for _ in range(5)]
        for a, b in pairs:
            coeffs = polynomial_curve_coefficients(
                lambda t: B.star(a * t, b), field, max(B.lambdas, default=1))
            assert coeffs[0].is_zero(), name
            assert dot(B, a, b) == coeffs[1], name


def test_dot_rejects_foreign_vectors(braces_q):
    B = braces_q["f4"]
    e1 = B.basis_vector(0)
    with pytest.raises(DimensionMismatch):
        dot(B, Vec(Q, (1, 0, 0, 0, 5)), e1)
    with pytest.raises(DimensionMismatch):
        dot(B, e1, Vec(Q, (1, 0, 0, 0, 5)))
    with pytest.raises(FieldMismatch):
        dot(B, e1, Vec(GF(7), (1, 0, 0, 0)))


def test_limit_witness_constant_cases(braces_q):
    B = GradedBrace.trivial(Q, 2)
    assert limit_witness(B, Vec(Q, (1, 2)), Vec(Q, (3, 4)), 4) == \
        [Vec.zero(Q, 2)] * 5
    Bn2 = braces_q["n2"]
    a, b = Vec(Q, (3, 5)), Vec(Q, (2, 7))
    assert limit_witness(Bn2, a, b, 4) == [Vec(Q, (0, 6))] * 5


def test_limit_witness_f4_halving(braces_q):
    # star(t e1, e1) = t e2 + t^2 ((1/2)e4 - (1/2)e3), so term n is
    # e2 + 2^-n ((1/2)e4 - (1/2)e3): the deviation halves exactly
    B = braces_q["f4"]
    e1 = B.basis_vector(0)
    seq = limit_witness(B, e1, e1, 6)
    for n, term in enumerate(seq):
        scale = Fraction(1, 2 ** n)
        assert term == Vec(Q, (0, 1, -scale / 2, scale / 2))


def test_limit_witness_componentwise_halving_law(braces_q):
    B = braces_q["v5"]
    rng = random.Random(19)
    a, b = random_vec(Q, 4, rng), random_vec(Q, 4, rng)
    seq = limit_witness(B, a, b, 6)
    limit = dot(B, a, b)
    pieces = {k: lam.apply_diagonal(a, b) for k, lam in B.lambdas.items() if k >= 2}
    for n, term in enumerate(seq):
        deviation = term - limit
        expected = Vec.zero(Q, 4)
        for k, g in pieces.items():
            expected = expected + g * Fraction(1, 2 ** (n * (k - 1)))
        assert deviation == expected


@pytest.mark.parametrize("name", ["zero2", "n2", "h3", "f4", "v5"])
def test_bilinearity(name, braces_q):
    # dot is L_1, linear in each slot by construction: exact two-sided
    # linearity on seeded random scalars and vectors
    B = braces_q[name]
    rng = rng_from(None)
    for _ in range(15):
        alpha, gamma = _random_scalar(Q, rng), _random_scalar(Q, rng)
        a, b, c = (random_vec(Q, B.dim, rng) for _ in range(3))
        assert dot(B, a * alpha + b * gamma, c) == dot(B, a, c) * alpha + dot(B, b, c) * gamma
        assert dot(B, a, b * alpha + c * gamma) == dot(B, a, b) * alpha + dot(B, a, c) * gamma


def test_bilinearity_edge_scalars(braces_q):
    B = braces_q["f4"]
    rng = random.Random(3)
    a, b, c = (random_vec(Q, 4, rng) for _ in range(3))
    zero = Q.zero
    assert dot(B, a * zero + b * zero, c).is_zero()
    assert dot(B, a * Q.one + b * zero, c) == dot(B, a, c)


def test_to_prelie_round_trips(braces_q):
    for name in ("zero1", "n2", "h3", "f4", "v5"):
        alg = corpus(Q)[name]
        back = to_prelie(braces_q[name])
        assert back.structure_equal(alg)


@pytest.mark.parametrize("field", [Q, GF(7), GF(11)], ids=str)
def test_product_is_the_degree_one_map(field, braces_cache):
    for name, alg in corpus(field).items():
        B = braces_cache(name, field)
        assert B.lambda_map(1) == alg.product, name
        assert to_prelie(B).product == B.lambda_map(1), name


def test_to_prelie_rejects_non_brace():
    # a degree-one map that is not a pre-Lie product: f4 plus e3*e1 = e2
    entries = {((0,), 0): {1: 1}, ((1,), 0): {2: 1}, ((0,), 1): {3: 1},
               ((2,), 0): {1: 1}}
    lam1 = SymmetricMap(Q, 4, 1, {k: Vec(Q, [v.get(i, 0) for i in range(4)])
                                  for k, v in entries.items()})
    fake = GradedBrace(Q, 4, {1: lam1}, validate=False)
    with pytest.raises(NotPreLie):
        to_prelie(fake)


@pytest.mark.parametrize("name", ["zero3", "n2", "h3", "f4", "v5"])
def test_roundtrip_prelie(name):
    assert roundtrip_prelie(corpus(Q)[name]) is None


@pytest.mark.parametrize("name", ["zero2", "h3", "f4"])
def test_roundtrip_brace(name, braces_q):
    assert roundtrip_brace(braces_q[name]) is None


def test_roundtrip_brace_names_the_first_differing_key(braces_q):
    # a brace that is not the flows brace of its L_1 fails at the first
    # key where the tables differ, as table_difference has it: an entry
    # off at the top degree, or a map of a degree to_brace never gives;
    # the residual is the brace's value there minus the flows value
    v5 = braces_q["v5"]  # class 5, degrees 1..3
    top = {key: dict(pairs) for key, pairs in v5.lambdas[3].table.items()}
    key = min(top)
    top[key][min(top[key])] += 1
    off = GradedBrace(Q, 4, {**v5.lambdas, 3: top}, validate=False)
    above = GradedBrace(Q, 4, {**v5.lambdas, 4: {((0, 0, 0, 1), 0): {3: 1}}}, validate=False)
    assert roundtrip_brace(off) == Violation("brace round trip", (3,) + key,
                                             Vec.basis(Q, 4, min(top[key])))
    assert roundtrip_brace(above) == Violation("brace round trip", (4, (0, 0, 0, 1), 0),
                                               Vec.basis(Q, 4, 3))
    for B in (off, above):
        assert roundtrip_brace(B) == table_difference(B, to_brace(to_prelie(B)))


def test_roundtrip_prime_field():
    assert roundtrip_prelie(n2(GF(7))) is None
    assert roundtrip_prelie(f4(GF(11))) is None
    assert roundtrip_prelie(f4(GF(13))) is None


@pytest.mark.parametrize("name", ["zero2", "n2", "f4", "v5"])
def test_associator_correction_identity(name, braces_q):
    assert check_associator_correction_identity(braces_q[name], trials=15) is None


def test_associator_correction_identity_proves_missing_class_bound(braces_q):
    for B in (GradedBrace(Q, 2, {}, validate=False),
              GradedBrace(Q, 4, braces_q["f4"].lambdas, validate=False)):
        assert B.class_bound is None
        assert check_associator_correction_identity(B, trials=5) is None
    # star(a, b) = a_0 b_0 e_0 never vanishes on A * A: not strongly nilpotent
    loop = GradedBrace(Q, 1, {1: {((0,), 0): (1,)}}, validate=False)
    with pytest.raises(PreconditionViolated):
        check_associator_correction_identity(loop)
