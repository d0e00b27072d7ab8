import gc
import itertools
import random

from fractions import Fraction

import pytest

from braceflow import free_expansion, to_brace
from braceflow.brace import GradedBrace
from braceflow.cli import main
from braceflow.corpus import corpus_path
from braceflow.errors import ConvergenceFailure, PreconditionViolated, UnboundSymbol
from braceflow.free_expansion import (StarExpr, StarWord, X, Y, Z,
                                      doubling_matrix, double_substitution,
                                      evaluate, expand_sum_star,
                                      scaling_matrix_check, star_expand,
                                      word_order, xy_words, xyz_words)
from braceflow.linalg import Vec
from braceflow.prelie import PreLieAlgebra
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


@pytest.mark.parametrize("bound", [2, 3, 4, 5, 6])
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


class _UnrolledExpander:
    """The expander as it was before the left slot was split by halving:
    a left coefficient c becomes |c| unit copies of its word, and the
    star peels one copy per recursion level.  Kept as the reference."""

    def __init__(self, bound):
        self.bound = bound
        self._left_memo = {}
        self._neg_memo = {}

    def star(self, e1, e2, budget=None):
        budget = self.bound if budget is None else budget
        units = self._units(e1)
        out = StarExpr.zero()
        for v, beta in e2.terms():
            piece = self._star_left(units, v, budget)
            if not piece.is_zero():
                out = out + piece.scale(beta)
        return out

    def _units(self, expr):
        units = []
        for w, c in expr.terms():
            assert c.denominator == 1
            sign = 1 if c > 0 else -1
            units.extend((sign, w) for _ in range(abs(c.numerator)))
        return tuple(units)

    def _star_left(self, units, v, budget):
        if not units:
            return StarExpr.zero()
        key = (units, v, budget)
        hit = self._left_memo.get(key)
        if hit is not None:
            return hit
        sign, w = units[0]
        if w.degree + v.degree > budget:
            head = StarExpr.zero()
        elif sign > 0:
            head = StarExpr.word(StarWord.product(w, v))
        else:
            head = self._neg_star(w, v, budget)
        if len(units) == 1:
            out = head
        else:
            rest = units[1:]
            counts = {}
            for s, u in rest:
                counts[u] = counts.get(u, 0) + s
            out = (head + self._star_left(rest, v, budget)
                   + self._corrections(StarExpr.word(w, sign), StarExpr(counts), v, budget))
        self._left_memo[key] = out
        return out

    def _corrections(self, d, dp, v, budget):
        out = StarExpr.zero()
        v_expr = StarExpr.word(v)
        for i in range(2 * self.bound + 1):
            if dp.is_zero() or 1 + dp.min_degree() + v.degree > budget:
                break
            inner = self.star(d, dp, budget - v.degree)
            term = (self.star(inner, v_expr, budget)
                    - self.star(d, self.star(dp, v_expr, budget - 1), budget))
            out = out + (term if (i + 1) % 2 == 0 else -term)
            d, dp = d + dp, inner
        return out

    def _neg_star(self, w, v, budget):
        key = (w, v, budget)
        hit = self._neg_memo.get(key)
        if hit is not None:
            return hit
        if w.degree + v.degree > budget:
            self._neg_memo[key] = StarExpr.zero()
            return StarExpr.zero()
        ww = StarWord.product(w, w)
        base = StarExpr.word(StarWord.product(w, v), -1)
        if ww.degree + v.degree <= budget:
            base = base + self._neg_star(ww, v, budget)
        w_expr = StarExpr.word(w)
        cur = StarExpr.zero()
        for _ in range(budget + 1):
            nxt = base - self.star(w_expr, cur, budget)
            if nxt == cur:
                break
            cur = nxt
        self._neg_memo[key] = cur
        return cur


def _unrolled_doubling(word, eng):
    if word.is_leaf:
        return StarExpr.word(word, 2 if word.symbol == "x" else 1)
    return eng.star(_unrolled_doubling(word.left, eng), _unrolled_doubling(word.right, eng))


@pytest.mark.parametrize("bound", [2, 3, 4, 5])
def test_doubling_matrix_matches_unrolled_reference(bound):
    eng = _UnrolledExpander(bound)
    m, words = doubling_matrix(bound)
    index = {w: i for i, w in enumerate(words)}
    for i, w in enumerate(words):
        row = [Fraction(0)] * len(words)
        for mono, coeff in _unrolled_doubling(w, eng).terms():
            row[index[mono]] = coeff
        assert m.rows[i] == tuple(row), w
        assert double_substitution(w, bound) == _unrolled_doubling(w, eng)


@pytest.mark.parametrize("bound", [3, 4, 5])
def test_expand_sum_star_matches_unrolled_reference(bound):
    eng = _UnrolledExpander(bound)
    z = StarExpr.word(Z)
    reference = (eng.star(StarExpr.word(X), z) + eng.star(StarExpr.word(Y), z)
                 + eng._corrections(StarExpr.word(X), StarExpr.word(Y), Z, bound))
    assert expand_sum_star(X, Y, Z, bound) == reference


LEFT_WORDS = (X, Y, XY, StarWord.product(Y, X), StarWord.product(X, X), X_XY)


@pytest.mark.parametrize("bound", [3, 4, 5])
def test_star_expand_matches_unrolled_reference(bound):
    # where every split takes one unit copy off the front, as the
    # reference does (one word of multiplicity up to 3 in size, or two
    # or three words of multiplicity +-1), the two are one word sum
    eng = _UnrolledExpander(bound)
    z = StarExpr.word(Z)
    rng = random.Random(bound)
    lefts = [StarExpr.word(w, n) for w in LEFT_WORDS for n in (-3, -2, -1, 1, 2, 3)]
    for k in (2, 3):
        for words in itertools.combinations(LEFT_WORDS, k):
            lefts.append(StarExpr((w, rng.choice((1, -1))) for w in words))
    for left in lefts:
        assert star_expand(left, Z, bound) == eng.star(left, z), left


@pytest.mark.parametrize("bound", [3, 4, 5])
def test_star_expand_agrees_with_unrolled_reference_on_braces(bound, braces_q):
    # seeded left sums of one to three words with multiplicities in
    # -8..8, negative ones included.  A left sum is not one formal word
    # sum: its expansion depends on how the sum is split, and from four
    # units on the halving split and the reference's unit-by-unit peel
    # can give different word sums.  Both are the star in every brace
    # of class at most the bound.
    eng = _UnrolledExpander(bound)
    z = StarExpr.word(Z)
    braces = [B for B in braces_q.values() if B.class_bound and B.class_bound <= bound]
    assert braces
    rng = random.Random(100 + bound)
    negatives = 0
    for _ in range(12):
        words = rng.sample(LEFT_WORDS, rng.randint(1, 3))
        left = StarExpr((w, rng.choice([n for n in range(-8, 9) if n])) for w in words)
        negatives += sum(1 for _, c in left.terms() if c < 0)
        new, reference = star_expand(left, Z, bound), eng.star(left, z)
        for B in braces:
            a, b, c = (random_vec(Q, B.dim, rng) for _ in range(3))
            bindings = {"x": a, "y": b, "z": c}
            value = B.star(evaluate(left, bindings, B), c)
            assert evaluate(new, bindings, B) == value == evaluate(reference, bindings, B)
    assert negatives


def test_star_expand_of_large_multiplicities_stays_shallow(braces_q):
    # peeling one unit copy per level nested deeper than the default
    # recursion limit on this left sum at bound 5; halving does not
    left = StarExpr(((X, 3), (Y, -8), (StarWord.product(Y, X), 7)))
    expr = star_expand(left, Z, 5)
    B = braces_q["v5"]
    rng = random.Random(47)
    for _ in range(5):
        a, b, c = (random_vec(Q, B.dim, rng) for _ in range(3))
        bindings = {"x": a, "y": b, "z": c}
        assert evaluate(expr, bindings, B) == B.star(evaluate(left, bindings, B), c)


@pytest.mark.parametrize("family", ["v6", "T6"])
def test_degree_seven_doubling_matrix_doubles_x_on_class_seven_braces(family,
                                                                     bench_generators):
    # at degree 7 the halving split gives another matrix than peeling
    # one unit copy at a time gave; both are V_{2x,y} = M V_{x,y} in
    # every brace of class 7, checked here on two of them
    s = bench_generators.v(6) if family == "v6" else bench_generators.trees(6)
    structure = {}
    for (_, (i,), j, k), val in s.entries.items():
        structure.setdefault((i, j), {})[k] = val
    B = to_brace(PreLieAlgebra(Q, s.dim, structure))
    assert B.class_bound == 7
    m, words = doubling_matrix(7)
    rng = random.Random(53)
    a, b = random_vec(Q, B.dim, rng), random_vec(Q, B.dim, rng)
    values = [evaluate(w, {"x": a, "y": b}, B) for w in words]
    for i, w in enumerate(words):
        doubled = sum((v * m.entry(i, j) for j, v in enumerate(values) if m.entry(i, j)),
                      Vec.zero(Q, B.dim))
        assert doubled == evaluate(w, {"x": a + a, "y": b}, B), w


def test_left_memo_names_each_word_once():
    # the left slot is a sum's own (word, multiplicity) pairs, not unit
    # copies of its words
    doubling_matrix.cache_clear()
    free_expansion._expander.cache_clear()
    doubling_matrix(5)
    keys = free_expansion._expander(5)._left_memo
    assert keys
    for left, _, _ in keys:
        words = [part for item in left for part in item if isinstance(part, StarWord)]
        assert len(words) == len(set(words)), left


def test_neg_star_that_never_settles_raises():
    eng = free_expansion._Expander(4)
    steps = iter(range(1, 1000))

    def drifting_star(left, right, budget):
        return {XY: next(steps)}  # a new value at every step

    eng.star = drifting_star
    with pytest.raises(ConvergenceFailure):
        eng._neg_star(X, Y, 4)


def test_correction_chain_that_never_ends_raises():
    eng = free_expansion._Expander(4)

    def stalled_star(left, right, budget):
        return {X: 1}  # d'_i keeps degree 1, so no term truncates

    eng.star = stalled_star
    with pytest.raises(ConvergenceFailure):
        eng._corrections({X: 1}, {Y: 1}, Z, 4)
