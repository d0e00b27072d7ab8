import random
import time

from fractions import Fraction

import pytest

from braceflow.cli import main
from braceflow.corpus import corpus_path
from braceflow.errors import CharacteristicTooSmall, FieldMismatch
from braceflow.scalars import GF, PRIME_BOUND, Fp, Q, ScalarField, _is_prime


def test_field_construction():
    assert Q.characteristic == 0
    assert GF(7).characteristic == 7
    assert GF(7) == ScalarField(7)
    assert GF(7) != Q
    with pytest.raises(ValueError):
        ScalarField(6)
    with pytest.raises(ValueError):
        ScalarField(1)


def test_rational_canonical_form():
    x = Q.of("4/6")
    assert x == Fraction(2, 3)
    assert Q.to_str(x) == "2/3"
    assert Q.to_str(Q.of(-3)) == "-3"
    assert Q.of("-4/8") == Fraction(-1, 2)
    assert Q.of("7/3") == Fraction(7, 3)


def test_floats_rejected():
    with pytest.raises(TypeError):
        Q.of(0.5)
    with pytest.raises(TypeError):
        GF(7).of(0.5)


def test_prime_field_arithmetic():
    F = GF(7)
    a, b = F.of(3), F.of(5)
    assert a + b == F.of(1)
    assert a - b == F.of(-2) == F.of(5)
    assert a * b == F.of(1)
    assert a / b == a * F.of(3)  # 1/5 = 3 mod 7
    assert -a == F.of(4)
    assert F.of(Fraction(1, 2)) == F.of(4)
    assert bool(F.of(0)) is False
    with pytest.raises(ZeroDivisionError):
        a / F.of(0)


def test_prime_field_mismatch():
    with pytest.raises(FieldMismatch):
        GF(7).of(3) + GF(11).of(3)
    with pytest.raises(FieldMismatch):
        Q.of(Fp(7, 3))


def test_inverse_helpers():
    assert Q.inv_int(4) == Fraction(1, 4)
    assert Q.inv_factorial(4) == Fraction(1, 24)
    F = GF(7)
    assert F.inv_int(3) * F.of(3) == F.one
    assert F.inv_factorial(3) * F.of(6) == F.one
    with pytest.raises(CharacteristicTooSmall):
        F.inv_int(14)
    with pytest.raises(CharacteristicTooSmall):
        F.inv_factorial(7)
    with pytest.raises(CharacteristicTooSmall):
        F.of(Fraction(1, 7))


def test_int_bridge():
    # to_ints / from_ints: numerators over the least common denominator
    # over Q, residues over GF(p); from_ints hands back canonical scalars
    xs = (Fraction(3, 4), Fraction(-5, 6), Fraction(0), Fraction(7))
    assert Q.to_ints(xs) == ([9, -10, 0, 84], 12)
    assert Q.from_ints([9, -10, 0, 84], 12) == xs
    assert Q.to_ints((Fraction(2), Fraction(-1))) == ([2, -1], 1)
    assert Q.to_ints(()) == ([], 1)
    assert all(type(x) is Fraction for x in Q.from_ints([6, 0, -3], 9))
    F = GF(7)
    assert F.to_ints(tuple(F.of(v) for v in (3, 0, 6))) == ([3, 0, 6], 1)
    got = F.from_ints([10, 14, -1, 3], 2)
    assert got == (F.of(5), F.zero, F.of(3), F.of(5))
    assert all(type(x) is Fp and x.p == 7 for x in got)


def test_division_round_trip_exact():
    rng = random.Random(7)
    for _ in range(200):
        a = Fraction(rng.randint(-50, 50), rng.randint(1, 30))
        b = Fraction(rng.randint(1, 50), rng.randint(1, 30))
        assert (a / b) * b == a


def test_prime_field_string_round_trip():
    F = GF(11)
    for r in range(11):
        assert F.of(F.to_str(F.of(r))) == F.of(r)


def test_is_prime_matches_trial_division():
    def by_division(n):
        return n >= 2 and all(n % f for f in range(2, int(n ** 0.5) + 1))
    assert [n for n in range(3000) if _is_prime(n)] == \
        [n for n in range(3000) if by_division(n)]


@pytest.mark.parametrize("n", [561, 1105, 3215031751, 2 ** 61 + 1])
def test_composite_characteristics_rejected(n):
    # 561 and 1105 are Carmichael numbers; 3215031751 is a strong
    # pseudoprime to the bases 2, 3, 5 and 7
    with pytest.raises(ValueError):
        ScalarField(n)


@pytest.mark.parametrize("p", [2 ** 61 - 1, 1000000000000000003, 2 ** 79 - 67])
def test_large_prime_characteristics_accepted(p):
    assert ScalarField(p).characteristic == p


def test_characteristic_beyond_primality_bound_rejected(capsys):
    assert 2 ** 89 - 1 >= PRIME_BOUND  # a Mersenne prime
    with pytest.raises(ValueError):
        ScalarField(2 ** 89 - 1)
    assert main(["validate", str(corpus_path("n2")), "--field", str(2 ** 89 - 1)]) == 1
    assert "exceeds the supported bound" in capsys.readouterr().err


def test_cli_large_prime_field_is_fast(capsys):
    start = time.perf_counter()
    code = main(["validate", str(corpus_path("n2")), "--field", "1000000000000000003"])
    elapsed = time.perf_counter() - start
    assert code == 0
    assert "field: GF(1000000000000000003)" in capsys.readouterr().out
    assert elapsed < 1.0
