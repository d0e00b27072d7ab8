import random

from fractions import Fraction

import pytest

from braceflow.errors import CharacteristicTooSmall, FieldMismatch
from braceflow.linalg import (Mat, Subspace, Vec, polynomial_curve_coefficients,
                              span)
from braceflow.sampling import random_vec
from braceflow.scalars import GF, Q


def v(*entries):
    return Vec(Q, entries)


def test_vec_arithmetic():
    a, b = v(1, 2), v(3, -1)
    assert a + b == v(4, 1)
    assert a - b == v(-2, 3)
    assert a * Fraction(1, 2) == v(Fraction(1, 2), 1)
    assert 2 * a == v(2, 4)
    assert (-a).entries == (-1, -2)
    assert Vec.zero(Q, 2).is_zero()
    with pytest.raises(FieldMismatch):
        a + Vec(GF(7), (1, 2))


def test_mat_inverse():
    m = Mat(Q, [[2, 1], [0, 4]])
    assert m.inverse().rows == ((Fraction(1, 2), Fraction(-1, 8)),
                                (0, Fraction(1, 4)))
    with pytest.raises(ZeroDivisionError):
        Mat(Q, [[1, 1], [1, 1]]).inverse()


def test_span_examples():
    full = span([v(1, 0), v(0, 1)])
    assert full == Subspace.full(Q, 2)
    line = span([v(1, 1), v(2, 2)])
    assert line.dim == 1
    assert line.basis == (v(1, 1),)
    empty = span([], field=Q, dim=3)
    assert empty.is_zero()


def test_span_order_independent():
    rng = random.Random(3)
    vecs = [random_vec(Q, 4, rng) for _ in range(6)]
    s1 = span(vecs)
    for _ in range(5):
        rng.shuffle(vecs)
        assert span(vecs) == s1
    assert span(list(s1.basis)) == s1  # idempotent


def test_interpolate_recovers_curve():
    # oracle: construct f(t) = t*u + t^2*w explicitly, sample, compare
    u, w = v(3, -1, Fraction(1, 2)), v(0, 2, 5)
    c = polynomial_curve_coefficients(lambda t: u * t + w * (t * t), Q, 2)
    assert c == [Vec.zero(Q, 3), u, w]


@pytest.mark.parametrize("field", [Q, GF(11)])
@pytest.mark.parametrize("degree", [0, 1, 3, 6])
def test_interpolate_evaluate_identity(field, degree):
    # interpolation after evaluation is the identity on coefficient lists
    rng = random.Random(100 + degree)
    coeffs = [random_vec(field, 2, rng) for _ in range(degree + 1)]

    def evaluate(t):
        out = Vec.zero(field, 2)
        power = field.one
        for c in coeffs:
            out = out + c * power
            power = power * t
        return out

    assert polynomial_curve_coefficients(evaluate, field, degree) == coeffs


def test_interpolate_needs_enough_nodes():
    # GF(7) has only 6 nonzero nodes, one short of a degree-6 curve
    with pytest.raises(CharacteristicTooSmall):
        polynomial_curve_coefficients(lambda t: Vec(GF(7), (t,)), GF(7), 6)
