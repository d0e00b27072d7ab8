import gc
import random

from fractions import Fraction

import pytest

from braceflow import free_expansion
from braceflow.brace import GradedBrace
from braceflow.cli import main
from braceflow.corpus import corpus_path
from braceflow.errors import PreconditionViolated, UnboundSymbol
from braceflow.free_expansion import (StarExpr, StarWord, X, Y, Z,
                                      doubling_matrix, double_substitution,
                                      evaluate, expand_sum_star,
                                      scaling_matrix_check, star_expand,
                                      word_order, xy_words, xyz_words)
from braceflow.linalg import Vec
from braceflow.sampling import random_vec
from braceflow.scalars import Q

XY = StarWord.product(X, Y)
X_XY = StarWord.product(X, XY)
XX_Y = StarWord.product(StarWord.product(X, X), Y)


def test_word_basics():
    assert X.degree == 1 and XY.degree == 2 and X_XY.degree == 3
    assert str(X_XY) == "(x*(x*y))"
    assert XY.tail() == "y"
    assert X_XY.count("x") == 2
    assert StarWord.product(X, Y) == XY
    assert len({XY, StarWord.product(X, Y)}) == 1


def test_word_order():
    assert word_order(XY, X_XY) == -1  # shorter first
    assert word_order(X_XY, XY) == 1
    assert word_order(X_XY, X_XY) == 0
    # intra-degree tie-break is fixed and deterministic
    assert word_order(X_XY, XX_Y) == word_order(X_XY, XX_Y) == -1


def test_xy_words_counts_and_order():
    words = xy_words(5)
    assert [w.degree for w in words] == sorted(w.degree for w in words)
    by_degree = {d: sum(1 for w in words if w.degree == d) for d in (2, 3, 4, 5)}
    assert by_degree == {2: 1, 3: 2, 4: 5, 5: 14}  # Catalan counts
    assert words[0] == XY
    assert words[1] == X_XY and words[2] == XX_Y
    for w in words:
        assert w.tail() == "y"
        assert w.count("y") == 1
        assert w.count("x") == w.degree - 1


def test_xyz_words_invariants():
    # degree 3: 2 label sequences x 2 bracketings; degree 4: 6 x 5
    words = xyz_words(4)
    assert len(words) == 4 + 30
    for w in words:
        assert w.tail() == "z"
        assert w.count("z") == 1
        assert w.count("x") >= 1 and w.count("y") >= 1
        assert w.count("x") + w.count("y") >= 2


def test_star_expr_canonical():
    e = StarExpr(((XY, 1), (XY, -1), (X, 2)))
    assert e == StarExpr(((X, 2),))
    assert e.coefficient(XY) == 0
    assert (e - e).is_zero()
    assert e.min_degree() == 1
    assert StarExpr.zero().min_degree() is None


def test_star_expr_order_free_equality():
    # built in different orders, through the arithmetic or the coercing
    # constructor: equal, equal hashes, one canonical term order
    words = [XX_Y, X, X_XY, XY, Y]
    forward = StarExpr.zero()
    for k, w in enumerate(words):
        forward = forward + StarExpr.word(w, k + 1)
    backward = StarExpr(((w, Fraction(k + 1)) for k, w in reversed(list(enumerate(words)))))
    scaled = (StarExpr.word(XY, 8) - StarExpr.word(X_XY, -6) + StarExpr.word(XX_Y, 2)
              + StarExpr.word(X, 4) + StarExpr.word(Y, 10)).scale(Fraction(1, 2))
    for e in (backward, scaled):
        assert e == forward and hash(e) == hash(forward)
    assert len({forward, backward, scaled}) == 1
    assert forward.terms() == ((X, 2), (Y, 5), (XY, 4), (X_XY, 3), (XX_Y, 1))
    assert str(forward) == "2*x + 5*y + 4*(x*y) + 3*(x*(x*y)) + ((x*x)*y)"


def test_star_expr_cancelling_sum_is_zero():
    e = StarExpr.word(XY, 3) + StarExpr.word(X_XY, -1)
    total = e + StarExpr.word(X_XY) - StarExpr.word(XY, 3)
    assert total == StarExpr.zero() and hash(total) == hash(StarExpr.zero())
    assert total.is_zero() and total.terms() == ()
    assert (e + (-e)).is_zero() and e.scale(0).is_zero()
    assert str(total) == "0"


def test_expansion_degree_two():
    assert expand_sum_star(X, Y, Z, 2) == StarExpr((
        (StarWord.product(X, Z), 1), (StarWord.product(Y, Z), 1)))


def test_expansion_degree_three_four_terms():
    expected = StarExpr((
        (StarWord.product(X, Z), 1),
        (StarWord.product(Y, Z), 1),
        (StarWord.product(X, StarWord.product(Y, Z)), 1),
        (StarWord.product(StarWord.product(X, Y), Z), -1),
    ))
    assert expand_sum_star(X, Y, Z, 3) == expected


@pytest.mark.parametrize("bound", [4, 5])
def test_corrections_live_in_xyz_words(bound):
    # everything beyond the four-term display keeps x, y and the tail z
    full = expand_sum_star(X, Y, Z, bound)
    display = expand_sum_star(X, Y, Z, 3)
    d = full - display
    allowed = set(xyz_words(bound))
    for w, _ in d.terms():
        assert w.degree >= 4
        assert w in allowed


def test_left_slot_requires_integers():
    half_x = StarExpr(((X, Fraction(1, 2)),))
    with pytest.raises(PreconditionViolated):
        star_expand(half_x, Y, 3)


def test_evaluate_word_and_errors(braces_q):
    B = braces_q["f4"]
    rng = random.Random(1)
    a, b = random_vec(Q, 4, rng), random_vec(Q, 4, rng)
    assert evaluate(XY, {"x": a, "y": b}, B) == B.star(a, b)
    assert evaluate(StarExpr.zero(), {}, B).is_zero()
    with pytest.raises(UnboundSymbol):
        evaluate(XY, {"x": a}, B)


@pytest.mark.parametrize("name", ["n2", "f4", "v5"])
def test_expansion_matches_concrete_star(name, braces_q):
    B = braces_q[name]
    expr = expand_sum_star(X, Y, Z, max(B.class_bound, 2))
    rng = random.Random(13)
    for _ in range(15):
        a, b, c = (random_vec(Q, B.dim, rng) for _ in range(3))
        assert evaluate(expr, {"x": a, "y": b, "z": c}, B) == B.star(a + b, c)


@pytest.mark.parametrize("name", ["n2", "f4", "v5"])
def test_expansion_specialized_to_doubling(name, braces_q):
    # a = b = x collapses the sum expansion to the doubling of x
    B = braces_q[name]
    expr = expand_sum_star(X, X, Z, max(B.class_bound, 2))
    rng = random.Random(29)
    for _ in range(10):
        a, c = random_vec(Q, B.dim, rng), random_vec(Q, B.dim, rng)
        assert evaluate(expr, {"x": a, "z": c}, B) == B.star(a + a, c)


def test_doubling_matrix_degree_two():
    m, words = doubling_matrix(2)
    assert words == (XY,)
    assert m.rows == ((Fraction(2),),)


def test_doubling_matrix_degree_three_exact():
    # hand expansion: (2x)*y = 2(x*y) + x*(x*y) - (x*x)*y, and the two
    # degree-3 words each double to 4 times themselves
    m, words = doubling_matrix(3)
    assert words == (XY, X_XY, XX_Y)
    assert m.rows == ((Fraction(2), Fraction(1), Fraction(-1)),
                      (Fraction(0), Fraction(4), Fraction(0)),
                      (Fraction(0), Fraction(0), Fraction(4)))


@pytest.mark.parametrize("bound", [2, 3, 4, 5])
def test_doubling_matrix_invariants(bound):
    m, words = doubling_matrix(bound)
    assert m.is_upper_triangular()
    diag = m.diagonal()
    assert all(e == 2 ** w.count("x") for e, w in zip(diag, words))
    assert sum(1 for e in diag if e == 2) == 1
    assert all(e >= 4 for e in diag if e != 2)
    # the rescaled inverse has one eigenvalue 1, all others 2^(1-k)
    rescaled = m.inverse() * Fraction(2)
    rdiag = rescaled.diagonal()
    assert sum(1 for e in rdiag if e == 1) == 1
    assert all(e == Fraction(2, 2 ** w.count("x")) for e, w in zip(rdiag, words))


def test_double_substitution_consistency(braces_q):
    B = braces_q["v5"]
    rng = random.Random(37)
    a, b = random_vec(Q, 4, rng), random_vec(Q, 4, rng)
    for w in xy_words(B.class_bound):
        expr = double_substitution(w, B.class_bound)
        direct = evaluate(w, {"x": a + a, "y": b}, B)
        assert evaluate(expr, {"x": a, "y": b}, B) == direct


def test_doubling_matrix_leaves_no_reference_cycle():
    # with its caches cleared, the expander's memo is freed by reference
    # counting at once, not left for the cyclic collector
    gc.collect()
    gc.disable()
    try:
        for _ in range(2):
            doubling_matrix.cache_clear()
            free_expansion._expander.cache_clear()
            doubling_matrix(4)
        doubling_matrix.cache_clear()
        free_expansion._expander.cache_clear()
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_evaluate_leaves_no_reference_cycle(braces_q):
    # the cache of word values, the bindings and the brace are freed by
    # reference counting at once, not left for the cyclic collector
    B = braces_q["f4"]
    rng = random.Random(43)
    a, b = random_vec(Q, 4, rng), random_vec(Q, 4, rng)
    words = xy_words(4)
    gc.collect()
    gc.disable()
    try:
        for w in words:
            evaluate(w, {"x": a, "y": b}, B)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_cli_main_leaves_no_reference_cycle(capsys):
    # the argument parser is built once, not per call: a command leaves
    # no parser objects for the cyclic collector
    argv = ["validate", str(corpus_path("h3"))]
    assert main(argv) == 0
    gc.collect()
    gc.disable()
    try:
        assert main(argv) == 0
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("name", ["zero2", "n2", "f4", "v5"])
def test_scaling_matrix_check(name, braces_q):
    B = braces_q[name]
    rng = random.Random(41)
    a, b = random_vec(Q, B.dim, rng), random_vec(Q, B.dim, rng)
    assert scaling_matrix_check(B, a, b, 4) is None


def test_scaling_matrix_check_proves_missing_class_bound(braces_q):
    rng = random.Random(41)
    a, b = random_vec(Q, 4, rng), random_vec(Q, 4, rng)
    for B in (GradedBrace(Q, 4, {}, validate=False),
              GradedBrace(Q, 4, braces_q["f4"].lambdas, validate=False)):
        assert B.class_bound is None
        assert scaling_matrix_check(B, a, b, 3) is None
    # star(a, b) = a_0 b_0 e_0 never vanishes on A * A: not strongly nilpotent
    loop = GradedBrace(Q, 1, {1: {((0,), 0): (1,)}}, validate=False)
    with pytest.raises(PreconditionViolated):
        scaling_matrix_check(loop, Vec(Q, (1,)), Vec(Q, (1,)), 1)


@pytest.mark.parametrize("name", ["f4", "v5"])
def test_matrix_powers_reproduce_limit_sequence(name, braces_q):
    # the first coordinate of (2 M^-1)^n V_{a,b} is 2^n star(a/2^n, b),
    # i.e. the scaling-limit witness sequence
    from braceflow.limits import limit_witness
    B = braces_q[name]
    m, words = doubling_matrix(B.class_bound)
    rescaled = m.inverse() * Fraction(2)
    rng = random.Random(43)
    a, b = random_vec(Q, B.dim, rng), random_vec(Q, B.dim, rng)
    witness = limit_witness(B, a, b, 5)
    cur = [evaluate(w, {"x": a, "y": b}, B) for w in words]
    assert cur[0] == witness[0]
    for n in range(1, 6):
        cur = [sum((v * rescaled.entry(i, j) for j, v in enumerate(cur)),
                   Vec.zero(Q, B.dim)) for i in range(len(words))]
        assert cur[0] == witness[n]
