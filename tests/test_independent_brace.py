"""Checks against a brace that does not come out of to_brace: the
truncated polynomial algebra on t, t^2, t^3, t^4 is associative of
class 5, so its brace is the familiar a∘b = a + b + ab with a purely
bilinear star."""

import random

import pytest

from braceflow.brace import GradedBrace, SymmetricMap, radical_chains
from braceflow.errors import CharacteristicTooSmall
from braceflow.flows import exp_L, to_brace
from braceflow.free_expansion import X, Y, Z, evaluate, expand_sum_star, \
    scaling_matrix_check
from braceflow.limits import dot, roundtrip_brace, to_prelie
from braceflow.linalg import Vec
from braceflow.prelie import PreLieAlgebra
from braceflow.sampling import random_vec
from braceflow.scalars import GF, Q
from braceflow.corpus import f4


def truncated_polynomials(field=Q):
    # basis t, t^2, t^3, t^4 with t^i t^j = t^(i+j), zero past degree 4
    structure = {}
    for i in range(1, 5):
        for j in range(1, 5):
            if i + j <= 4:
                structure[(i - 1, j - 1)] = {i + j - 1: 1}
    return PreLieAlgebra(field, 4, structure)


def bilinear_brace(alg):
    entries = {}
    for i in range(alg.dim):
        for j in range(alg.dim):
            v = alg.product.value((i,), j)
            if not v.is_zero():
                entries[((i,), j)] = v
    lam1 = SymmetricMap(alg.field, alg.dim, 1, entries)
    return GradedBrace(alg.field, alg.dim, {1: lam1})


def test_class_five_associative_brace_is_bilinear():
    alg = truncated_polynomials()
    assert alg.nilpotency_class == 5
    B = bilinear_brace(alg)
    assert B.class_bound == 5  # strong index exceeds the top graded degree
    assert to_brace(alg) == B  # the flows construction lands on the same brace


def test_independent_brace_round_trip():
    alg = truncated_polynomials()
    B = bilinear_brace(alg)
    assert to_prelie(B).structure_equal(alg)
    assert roundtrip_brace(B) is None


def test_independent_brace_chains():
    report = radical_chains(bilinear_brace(truncated_polynomials()))
    assert report.dims(report.strong) == (4, 3, 2, 1, 0)
    assert report.strong_index == 5


def test_independent_brace_sum_expansion():
    B = bilinear_brace(truncated_polynomials())
    expr = expand_sum_star(X, Y, Z, B.class_bound)
    rng = random.Random(53)
    for _ in range(20):
        a, b, c = (random_vec(Q, 4, rng) for _ in range(3))
        assert evaluate(expr, {"x": a, "y": b, "z": c}, B) == B.star(a + b, c)


def test_independent_brace_scaling_and_dot():
    B = bilinear_brace(truncated_polynomials())
    rng = random.Random(59)
    a, b = random_vec(Q, 4, rng), random_vec(Q, 4, rng)
    assert scaling_matrix_check(B, a, b, 4) is None
    alg = truncated_polynomials()
    assert dot(B, a, b) == alg.multiply(a, b)


@pytest.mark.parametrize("p", [7, 11])
def test_independent_brace_prime_fields(p):
    field = GF(p)
    B = bilinear_brace(truncated_polynomials(field))
    rng = random.Random(61)
    a, b = random_vec(field, 4, rng), random_vec(field, 4, rng)
    assert scaling_matrix_check(B, a, b, 3) is None
    assert roundtrip_brace(B) is None


def test_minimal_characteristic_boundary():
    # class 4 over GF(5): p = s + 1 is the smallest admissible prime
    alg = f4(GF(5))
    B = to_brace(alg)
    assert to_prelie(B).structure_equal(alg)
    # class 5 over GF(5) is rejected
    with pytest.raises(CharacteristicTooSmall):
        truncated_polynomials(GF(5))


def test_exp_l_raises_when_factorial_not_invertible():
    # class 5 over GF(3): the k = 3 term needs 1/3!, and 3 divides 6
    field = GF(3)
    structure = {(i - 1, j - 1): {i + j - 1: 1}
                 for i in range(1, 5) for j in range(1, 5) if i + j <= 4}
    alg = PreLieAlgebra(field, 4, structure, validate=False)
    t = Vec.basis(field, 4, 0)
    with pytest.raises(CharacteristicTooSmall):
        exp_L(alg, t, t)
