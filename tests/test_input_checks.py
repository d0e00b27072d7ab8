"""Every constructor and entry point refuses a malformed argument with
its own exception class and message."""

import re

from fractions import Fraction

import pytest

from braceflow import fileio
from braceflow.brace import GradedBrace, SymmetricMap
from braceflow.cli import main
from braceflow.errors import DimensionMismatch, FieldMismatch, PreconditionViolated
from braceflow.free_expansion import doubling_matrix, expand_sum_star
from braceflow.linalg import Mat, Subspace, Vec, span
from braceflow.prelie import PreLieAlgebra
from braceflow.scalars import GF, Fp, Q


def _vec(*entries, field=Q):
    return Vec(field, entries)


CASES = {
    "map arity": (lambda: SymmetricMap(Q, 2, 1, {((0, 1), 0): {0: 1}}),
                  DimensionMismatch, "left tuple (0, 1) has arity != 1"),
    "map index": (lambda: SymmetricMap(Q, 2, 1, {((2,), 0): {0: 1}}),
                  DimensionMismatch, "index out of range in ((2,), 0)"),
    "map apply": (lambda: SymmetricMap(Q, 2, 1).apply([_vec(1, 0)] * 2, _vec(0, 1)),
                  DimensionMismatch, "expected 1 left arguments"),
    "brace degree": (lambda: GradedBrace(Q, 2, {0: {}}),
                     DimensionMismatch, "lambda degree 0 < 1"),
    "brace map": (lambda: GradedBrace(Q, 2, {1: SymmetricMap(Q, 3, 1)}),
                  DimensionMismatch, "lambda 1 has mismatched shape"),
    "prelie map": (lambda: PreLieAlgebra(Q, 2, SymmetricMap(GF(7), 2, 1)),
                   DimensionMismatch, "product map has mismatched shape"),
    "prelie names": (lambda: PreLieAlgebra(Q, 2, {}, basis_names=("x",)),
                     DimensionMismatch, "basis name count != dim"),
    "vec plus non-vec": (lambda: _vec(1, 2) + (1, 2),
                         TypeError, "expected Vec, got tuple"),
    "vec plus length": (lambda: _vec(1, 2) + _vec(1, 2, 3),
                        DimensionMismatch, "2 vs 3"),
    "mat ragged": (lambda: Mat(Q, [[1, 2], [3]]), DimensionMismatch, "ragged rows"),
    "mat inverse": (lambda: Mat(Q, [[1, 2]]).inverse(),
                    DimensionMismatch, "inverse of non-square matrix"),
    "subspace field": (lambda: Subspace(Q, 2, [_vec(1, 2, field=GF(7))]),
                       FieldMismatch, "Q vs GF(7)"),
    "subspace dim": (lambda: Subspace(Q, 3, [_vec(1, 2)]), DimensionMismatch, "3 vs 2"),
    "empty span": (lambda: span([]), ValueError, "empty span needs explicit field and dim"),
    "dumps": (lambda: fileio.dumps(3), TypeError, "cannot serialize int"),
    "of type over Q": (lambda: Q.of([1]), TypeError, "cannot coerce [1] to a rational"),
    "of type over GF(p)": (lambda: GF(7).of(None), TypeError, "cannot coerce None to GF(7)"),
    "of foreign Fp over Q": (lambda: Q.of(Fp(5, 1)), FieldMismatch, "GF(5) scalar used over Q"),
    "of foreign Fp over GF(p)": (lambda: GF(7).of(Fp(5, 1)),
                                 FieldMismatch, "GF(5) scalar used over GF(7)"),
    "inv_int zero": (lambda: Q.inv_int(0), ZeroDivisionError, "1/0"),
    "rdiv by zero": (lambda: 3 / Fp(7, 0), ZeroDivisionError, "division by zero in GF(7)"),
    "sum star bound": (lambda: expand_sum_star("x", "y", "z", 1),
                       PreconditionViolated, "degree bound must be at least 2"),
    "doubling bound": (lambda: doubling_matrix(1),
                       PreconditionViolated, "degree bound must be at least 2"),
}


@pytest.mark.parametrize("name", CASES)
def test_malformed_input_raises(name):
    call, exc, message = CASES[name]
    with pytest.raises(exc, match=f"^{re.escape(message)}$"):
        call()


def test_reflected_fp_arithmetic():
    # an int on the left coerces into the Fp's field
    assert 3 - Fp(7, 5) == Fp(7, 5)
    assert 3 / Fp(7, 5) == Fp(7, 2)
    assert Fraction(1, 2) - Fp(7, 1) == Fp(7, 3)


@pytest.mark.parametrize("argv,message", [
    (["validate", "x.json", "--field", "x"],
     "argument --field: expected Q or a prime, got 'x'"),
    (["doubling-matrix", "--degree", "two"],
     "argument --degree: invalid int value: 'two'"),
], ids=["field", "degree"])
def test_cli_rejects_malformed_option(capsys, argv, message):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f"error: {message}\n")
