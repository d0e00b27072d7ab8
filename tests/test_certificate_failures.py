"""The certificates can fail: each one, given a single injected fault,
reports it at the site the fault makes, and the CLI exits 2."""

from fractions import Fraction

import pytest

from braceflow import bch, cli, free_expansion, limits
from braceflow.brace import GradedBrace
from braceflow.cli import main
from braceflow.corpus import corpus_path, h3
from braceflow.errors import InternalInconsistency, Violation
from braceflow.free_expansion import (StarExpr, StarWord, X, Z, doubling_matrix,
                                      scaling_matrix_check)
from braceflow.limits import (check_associator_correction_identity, limit_witness,
                              roundtrip_prelie)
from braceflow.linalg import Mat, Vec
from braceflow.prelie import PreLieAlgebra
from braceflow.sampling import random_vec, rng_from
from braceflow.scalars import Q


def _bumped_doubling_matrix(degree_bound):
    """``doubling_matrix`` with its first diagonal entry, that of the word
    (x*y), raised from 2 to 3."""
    m, basis = doubling_matrix(degree_bound)
    rows = [list(row) for row in m.rows]
    rows[0][0] += 1
    return Mat(Q, rows), basis


def _h3_with_e1e2_doubled(B):
    """h3's algebra with e1*e2 = 2 e3 in place of e3."""
    return PreLieAlgebra(B.field, B.dim, {(0, 1): {2: 2}}, validate=False)


def test_scaling_matrix_check_reports_a_wrong_doubling_matrix(braces_q, monkeypatch):
    # row (x*y) of 2 M^-1 is row 0 of 2 M^-1 scaled by 2/3, so at n = 1
    # the word (x*y) misses a third of 2 (a/2)*b
    monkeypatch.setattr(free_expansion, "doubling_matrix", _bumped_doubling_matrix)
    B = braces_q["v5"]
    a, b = Vec(Q, (1, 2, 0, 1)), Vec(Q, (3, 0, 1, 1))
    direct = B.star(a * Fraction(1, 2), b) * 2
    assert not direct.is_zero()
    assert scaling_matrix_check(B, a, b, 2) == Violation(
        "doubling-matrix scaling identity", (1, "(x*y)"), direct * Fraction(1, 3))


def test_associator_identity_reports_a_wrong_expansion(braces_q, monkeypatch):
    # an extra x*z in the expansion of (x+y)*z adds b*c - a*c to the
    # right side at every draw, so the first draw fails by a*c - b*c
    real = limits.expand_sum_star
    monkeypatch.setattr(limits, "expand_sum_star", lambda *args: real(*args) + StarExpr.word(
        StarWord.product(X, Z)))
    B = braces_q["v5"]
    rng = rng_from(4)
    a, b, c = (random_vec(B.field, B.dim, rng) for _ in range(3))
    assert check_associator_correction_identity(B, trials=3, seed=4) == Violation(
        "associator correction identity", ("random", 0), B.star(a, c) - B.star(b, c))


def test_roundtrip_prelie_reports_a_wrong_limit(monkeypatch):
    monkeypatch.setattr(limits, "to_prelie", _h3_with_e1e2_doubled)
    assert roundtrip_prelie(h3()) == Violation("pre-Lie round trip", (0, 1),
                                               Vec(Q, (0, 0, 1)))


def test_limit_witness_reports_a_star_off_its_closed_form(braces_q, monkeypatch):
    real = GradedBrace.star
    monkeypatch.setattr(GradedBrace, "star", lambda self, a, b: real(self, a, b) + a)
    B = braces_q["f4"]
    a, b = Vec(Q, (1, 0, 0, 0)), Vec(Q, (0, 1, 0, 0))
    with pytest.raises(InternalInconsistency,
                       match="^scaling sequence left its closed form$"):
        limit_witness(B, a, b, 2)


def _with_extra_term(real):
    """``_generic_difference`` with 1 added at x_1 y_1 in coordinate 3."""
    def generic_difference(alg):
        diff, den = real(alg)
        diff = dict(diff)
        key = ((0, alg.dim), 2)
        diff[key] = diff.get(key, 0) + 1
        return diff, den
    return generic_difference


@pytest.mark.parametrize("command,inject,line", [
    ("roundtrip", lambda mp: mp.setattr(limits, "to_prelie", _h3_with_e1e2_doubled),
     "FAIL: pre-Lie round trip violated at (0, 1) residual (0, 0, 1)\n"),
    ("bch", lambda mp: mp.setattr(bch, "_generic_difference",
                                  _with_extra_term(bch._generic_difference)),
     "FAIL: flows-BCH identity violated at ('generic', (0, 3)) residual (0, 0, 1/4)\n"),
], ids=["roundtrip", "bch"])
def test_cli_reports_a_failed_certificate(capsys, monkeypatch, command, inject, line):
    inject(monkeypatch)
    assert main([command, str(corpus_path("h3"))]) == 2
    assert capsys.readouterr().out == line


def test_doubling_matrix_command_exits_2_on_a_wrong_diagonal(capsys, monkeypatch):
    monkeypatch.setattr(cli, "doubling_matrix", _bumped_doubling_matrix)
    assert main(["doubling-matrix", "--degree", "3"]) == 2
    assert capsys.readouterr().out.endswith("upper triangular: yes\n"
                                            "diagonal: 3 4 4\n"
                                            "diagonal entries equal to 2: 0\n"
                                            "diagonal matches 2^(x count): NO\n")
