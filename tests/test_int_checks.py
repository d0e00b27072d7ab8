"""The sampled checks of brace validation on ints, against field scalars.

The random triples of ``check_left_brace`` and
``GradedBrace.circ_inverse`` run on Python ints (``GradedBrace._star``).
The references below are the same loops on ``Vec``s of canonical
scalars, one ``GradedBrace.star`` per star, with the draws written out
as ``Fraction``s and ``field.of`` residues.  ``check_fbrace`` is
structural and draws nothing; its reference still runs the F-linearity
trials on every brace here, mutants included, as evidence that the
structural claim holds.
"""

import math
import random

from fractions import Fraction

import pytest

from braceflow import to_brace
from braceflow.brace import (GradedBrace, SymmetricMap, check_fbrace, check_group,
                             check_left_brace)
from braceflow.corpus import corpus
from braceflow.errors import ConvergenceFailure, Violation
from braceflow.linalg import Vec
from braceflow.prelie import PreLieAlgebra
from braceflow.sampling import random_ints, random_vec, rng_from
from braceflow.scalars import GF, Q

FIELDS = (Q, GF(7), GF(11))
SEEDS = (None, 3, 11)


def _reference_scalar(field, rng):
    if field.characteristic == 0:
        return Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return field.of(rng.randrange(field.characteristic))


def _reference_vec(field, dim, rng):
    return Vec(field, [_reference_scalar(field, rng) for _ in range(dim)])


def _reference_left_brace(B, trials, seed):
    """check_left_brace with its random triples as 5 stars on Vecs each."""
    viol = check_left_brace(B, trials=0)  # the basis sweep draws nothing
    if viol is not None:
        return viol
    rng = rng_from(seed)
    for t in range(trials):
        a, b, c = (_reference_vec(B.field, B.dim, rng) for _ in range(3))
        bc = B.star(b, c)
        lhs = B.star(a + b + B.star(a, b), c)
        rhs = B.star(a, c) + bc + B.star(a, bc)
        if lhs != rhs:
            return Violation("left-brace law (a+b+a*b)*c", ("random", t), lhs - rhs)
    return None


def _reference_fbrace(B, trials, seed):
    rng = rng_from(seed)
    d = B.dim
    zero = Vec.zero(B.field, d)
    for t in range(trials):
        a = _reference_vec(B.field, d, rng)
        b = _reference_vec(B.field, d, rng)
        for e in (B.field.zero, B.field.of(-1),
                  B.field.of(rng.randrange(1, max(B.field.characteristic, 7)))):
            lhs = B.star(a, b * e)
            rhs = B.star(a, b) * e
            if lhs != rhs:
                return Violation("F-brace linearity", ("random", t), lhs - rhs)
        if not B.star(a, zero).is_zero():
            return Violation("F-brace linearity", ("random", t, "zero"))
    return None


def _reference_circ_inverse(B, a):
    x = -a
    for _ in range(B.dim + 1):
        nxt = -a - B.star(a, x)
        if nxt == x:
            break
        x = nxt
    if not ((a + x + B.star(a, x)).is_zero() and (x + a + B.star(x, a)).is_zero()):
        raise ConvergenceFailure("circ inverse iteration did not stabilize")
    return x


def _inverse_outcome(inverse, B, a):
    try:
        return inverse(B, a)
    except ConvergenceFailure:
        return "no inverse"


def _from_structure(field, s):
    lam = {}
    for (_, tup, j, o), c in s.entries.items():
        lam.setdefault((tup, j), {})[o] = c
    return PreLieAlgebra(field, s.dim, SymmetricMap(field, s.dim, 1, lam))


def _bump_mixed(B, k, key, out):
    """B with 1 added to coordinate ``out`` of L_k(key), a mixed entry:
    its left tuple has distinct indices, so the basis triple (i, j, c)
    reaches it only through the support of e_i∘e_j."""
    lambdas = {m: {kk: dict(pairs) for kk, pairs in lam.table.items()}
               for m, lam in B.lambdas.items()}
    row = lambdas.setdefault(k, {}).setdefault(key, {})
    row[out] = row.get(out, B.field.zero) + 1
    return GradedBrace(B.field, B.dim, lambdas, validate=False)


@pytest.fixture(scope="module")
def int_check_braces(braces_cache, bench_generators):
    """Corpus braces and the flows braces of v_3..v_6, T_3, T_4, upper(4)
    and upper(5), over Q, GF(7) and GF(11) where the class allows, and a
    line with no ∘-inverse; each with its mixed-entry mutants of L_2 and
    L_3.  Those of L_3 on T_4 and
    upper(m) escape the basis sweep and fail at random triples."""
    g = bench_generators
    structures = [g.v(n) for n in range(3, 7)] + [g.trees(3), g.trees(4),
                                                  g.upper(4), g.upper(5)]
    bases = []
    for field in FIELDS:
        p = field.characteristic
        bases += [(f"{name}/{field}", braces_cache(name, field)) for name in corpus(field)]
        bases += [(f"{s.name}/{field}", to_brace(_from_structure(field, s)))
                  for s in structures if not p or p > s.nil_class]
        # a*b = a_0 b_0 e_0: 1∘x = 0 has no solution
        bases.append((f"line/{field}", GradedBrace(field, 1, {1: {((0,), 0): (1,)}},
                                                   validate=False)))
    out = []
    for where, B in bases:
        out.append((where, B))
        d = B.dim
        if d < 2:
            continue
        for tup in ((0, 1), (0, 1, 2), (0, 1, d - 1), (1, 2, 3)):
            if len(set(tup)) == len(tup) and max(tup) < d:
                key = (tup, 0)
                out.append((f"{where} bump L_{len(tup)} {key}",
                            _bump_mixed(B, len(tup), key, d - 1)))
    return out


def test_left_brace_random_triples_match_field_scalars(int_check_braces):
    sites = []
    for where, B in int_check_braces:
        for seed in SEEDS:
            want = _reference_left_brace(B, 12, seed)
            assert check_left_brace(B, trials=12, seed=seed) == want, (where, seed)
            sites.append(None if want is None else want.site)
    random_sites = [s for s in sites if s and s[0] == "random"]
    assert sites.count(None) >= 120
    assert len(random_sites) >= 60
    assert any(s != ("random", 0) for s in random_sites)


def test_fbrace_trials_match_field_scalars(int_check_braces):
    for where, B in int_check_braces:
        for seed in SEEDS:
            assert check_fbrace(B) == _reference_fbrace(B, 8, seed), (where, seed)


def test_circ_inverse_matches_field_scalars(int_check_braces):
    outcomes = []
    for where, B in int_check_braces:
        rng = random.Random(7)
        vecs = [B.basis_vector(i) for i in range(B.dim)] + [
            Vec.zero(B.field, B.dim)] + [_reference_vec(B.field, B.dim, rng) for _ in range(3)]
        for a in vecs:
            want = _inverse_outcome(_reference_circ_inverse, B, a)
            got = _inverse_outcome(GradedBrace.circ_inverse, B, a)
            assert got == want, (where, a)
            outcomes.append(want == "no inverse")
        viol = next((Violation("circ inverse", (i,)) for i in range(B.dim)
                     if _inverse_outcome(_reference_circ_inverse, B, B.basis_vector(i))
                     == "no inverse"), None)
        assert check_group(B) == viol, where
    assert outcomes.count(False) >= 500
    assert outcomes.count(True) >= 50


def test_star_kernel_returns_one_form(int_check_braces):
    # over Q the kernel's (ints, den) is in lowest terms with den > 0,
    # over GF(p) it is residues over 1; either way it is B.star's value
    for where, B in int_check_braces[::5]:
        field, p = B.field, B.field.characteristic
        rng = random.Random(1)
        for _ in range(3):
            a, b = random_ints(field, B.dim, rng), random_ints(field, B.dim, rng)
            ints, den = B._star(a, b)
            if p:
                assert den == 1 and all(0 <= n < p for n in ints), where
            else:
                assert den > 0 and math.gcd(den, *ints) == 1, where
            want = B.star(Vec(field, field.from_ints(*a)), Vec(field, field.from_ints(*b)))
            assert field.from_ints(ints, den) == want.entries, where


@pytest.mark.parametrize("field", [Q, GF(2), GF(7), GF(101)], ids=str)
def test_int_draws_match_scalar_draws(field):
    # random_ints and random_vec draw the reference's
    # scalars and leave the rng where the reference leaves it
    for seed in range(12):
        for dim in (0, 1, 4, 9):
            ref = random.Random(seed)
            want = tuple(_reference_scalar(field, ref) for _ in range(dim))
            rng = random.Random(seed)
            ints, den = random_ints(field, dim, rng)
            assert field.from_ints(ints, den) == want
            assert rng.getstate() == ref.getstate()
            rng = random.Random(seed)
            assert random_vec(field, dim, rng) == Vec(field, want)
            assert rng.getstate() == ref.getstate()
