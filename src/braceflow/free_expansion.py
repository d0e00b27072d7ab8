"""Formal star-monomial calculus for strongly nilpotent braces.

Words are bracketed products of abstract generators under the brace
star; expressions are exact rational combinations of words.  The star
is linear in its right slot, but expanding a sum in the LEFT slot
introduces correction terms.  Writing d and d' for the pair chain

    d_0 = a,  d'_0 = b,  d_{i+1} = d_i + d'_i,  d'_{i+1} = d_i * d'_i,

the expansion valid in every brace of class at most the degree bound is

    (a+b)*c = a*c + b*c + sum_i (-1)^{i+1} ((d_i*d'_i)*c - d_i*(d'_i*c)).

The minimum degree of d'_i grows strictly with i, so the sum is finite
once terms above the degree bound are dropped (they vanish in any brace
of that class).  Everything here has exact integer left-slot
coefficients: an integer multiple in a left slot is the sum of two
halves, and a negated word in a left slot is resolved through the same
chain applied to the cancelling pair (w, -w).
"""

import functools
import itertools

from fractions import Fraction

from .brace import class_bound_of
from .errors import ConvergenceFailure, PreconditionViolated, UnboundSymbol, Violation
from .linalg import Mat, Vec
from .scalars import Q


class StarWord:
    """Immutable bracketing tree; leaves are generator symbols."""

    __slots__ = ("symbol", "left", "right", "degree", "_key", "_hash")

    def __init__(self, symbol=None, left=None, right=None):
        self.symbol = symbol
        self.left = left
        self.right = right
        if symbol is not None:
            self.degree = 1
            self._key = (symbol,)
        else:
            self.degree = left.degree + right.degree
            # "~" sorts after letters, so right-nested words come first
            self._key = ("~",) + left._key + right._key
        self._hash = hash(self._key)

    @classmethod
    def leaf(cls, symbol):
        return cls(symbol=symbol)

    @classmethod
    def product(cls, left, right):
        return cls(left=left, right=right)

    @property
    def is_leaf(self):
        return self.symbol is not None

    def tail(self):
        """Symbol of the rightmost leaf."""
        node = self
        while not node.is_leaf:
            node = node.right
        return node.symbol

    def leaves(self):
        if self.is_leaf:
            return (self.symbol,)
        return self.left.leaves() + self.right.leaves()

    def count(self, symbol):
        return self.leaves().count(symbol)

    def sort_key(self):
        return (self.degree, self._key)

    def __eq__(self, other):
        return isinstance(other, StarWord) and other._key == self._key

    def __hash__(self):
        return self._hash

    def __str__(self):
        if self.is_leaf:
            return self.symbol
        return f"({self.left}*{self.right})"

    __repr__ = __str__


X = StarWord.leaf("x")
Y = StarWord.leaf("y")
Z = StarWord.leaf("z")


def word_order(u, v):
    """Total order on words: by degree, then by the canonical
    serialization; returns -1, 0 or 1."""
    ku, kv = u.sort_key(), v.sort_key()
    return -1 if ku < kv else (0 if ku == kv else 1)


def _bracketings(labels):
    if len(labels) == 1:
        yield StarWord.leaf(labels[0])
        return
    for cut in range(1, len(labels)):
        for left in _bracketings(labels[:cut]):
            for right in _bracketings(labels[cut:]):
                yield StarWord.product(left, right)


def xy_words(degree_bound):
    """All words with every leaf x except a tail y, degree 2..bound,
    in canonical order (the scaling-word basis)."""
    words = []
    for deg in range(2, degree_bound + 1):
        words.extend(_bracketings(("x",) * (deg - 1) + ("y",)))
    return sorted(words, key=StarWord.sort_key)


def xyz_words(degree_bound):
    """All words over {x, y} with a tail z, at least one x and one y,
    degree 3..bound, in canonical order."""
    words = []
    for deg in range(3, degree_bound + 1):
        for heads in itertools.product("xy", repeat=deg - 1):
            if "x" in heads and "y" in heads:
                words.extend(_bracketings(heads + ("z",)))
    return sorted(words, key=StarWord.sort_key)


class StarExpr:
    """Immutable exact-coefficient formal sum of star words.

    ``StarExpr(terms)`` coerces every coefficient with ``Fraction`` and
    adds repeated words, so it accepts any input.  ``StarExpr._raw(d)``
    takes a dict that already maps each word to a nonzero ``Fraction``
    and keeps it as it is; the arithmetic here builds such dicts, so it
    never coerces or merges again.  The canonical word order is made
    only when ``terms()`` is first asked for, and then kept."""

    __slots__ = ("_terms", "_items", "_hash")

    def __init__(self, terms=()):
        clean = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for w, c in items:
            c = Fraction(c)
            if not c:
                continue
            c = clean.get(w, Fraction(0)) + c
            if c:
                clean[w] = c
            else:
                del clean[w]
        self._terms = clean
        self._items = self._hash = None

    @classmethod
    def _raw(cls, terms):
        e = object.__new__(cls)
        e._terms = terms
        e._items = e._hash = None
        return e

    @classmethod
    def zero(cls):
        return _ZERO

    @classmethod
    def word(cls, w, coeff=1):
        return cls(((w, coeff),))

    def terms(self):
        """The (word, coefficient) pairs in canonical word order."""
        if self._items is None:
            self._items = tuple(sorted(self._terms.items(),
                                       key=lambda kv: kv[0].sort_key()))
        return self._items

    def coefficient(self, w):
        return self._terms.get(w, Fraction(0))

    def is_zero(self):
        return not self._terms

    def min_degree(self):
        return min((w.degree for w in self._terms), default=None)

    def __add__(self, other):
        if not other._terms:
            return self
        terms = dict(self._terms)
        for w, c in other._terms.items():
            if w in terms:
                c += terms[w]
                if not c:
                    del terms[w]
                    continue
            terms[w] = c
        return StarExpr._raw(terms)

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return StarExpr._raw({w: -c for w, c in self._terms.items()})

    def scale(self, c):
        c = Fraction(c)
        if c == 1:
            return self
        if not c:
            return _ZERO
        return StarExpr._raw({w: cv * c for w, cv in self._terms.items()})

    def __eq__(self, other):
        return isinstance(other, StarExpr) and other._terms == self._terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self._terms.items()))
        return self._hash

    def __str__(self):
        if not self._terms:
            return "0"
        out = []
        for w, c in self.terms():
            sign = "-" if c < 0 else "+"
            mag = -c if c < 0 else c
            body = str(w) if mag == 1 else f"{mag}*{w}"
            out.append(f"{sign} {body}" if out else (f"-{body}" if c < 0 else body))
        return " ".join(out)

    __repr__ = __str__


_ZERO = StarExpr()


class _Expander:
    """Star-product expansion over pure words at a fixed degree bound.

    A sum is a dict {word: int} in here.  ``_star_left`` takes the left
    slot as its (word, multiplicity) pairs in word order and applies
    (A+B)*v = A*v + B*v + corrections(A, B, v): a sum splits at its
    middle, a multiplicity n into |n|//2 and |n| - |n|//2 of the sign
    of n, down to w*v and (-w)*v.  So n costs about log2|n| levels, the
    memo reuses each half, and no memo key names a word twice.  Word
    values are linearly dependent in braces of bounded class, so the
    split order picks one of several equal expansions.  The tests
    compare it with peeling one unit copy at a time: equal word sums on
    (x+y)*z and the doubling matrices up to degree 6; equal values in
    braces on seeded left sums and on the degree-7 doubling matrix,
    where the word sums can differ.

    Every internal call carries a ``budget``, the largest output degree
    it must get right.  Correction terms are themselves star products
    sitting in degree-raising positions, so their sub-expansions run at
    strictly smaller budgets; that is what makes the recursion
    well-founded (the chain re-assembles the original sum, so without
    the budget the expansion of (a+b)*v at degree 5 would ask for
    itself).  Dropping a left monomial above ``budget - deg(v)`` never
    changes output degrees within the budget, because every term it
    feeds gains at least deg(v) more.

    The memo tables only ever store finished results of a pure
    function, and no caller mutates a result, so sharing an expander
    across threads can at worst duplicate work, never change a value."""

    def __init__(self, bound):
        self.bound = bound
        self._left_memo = {}
        self._neg_memo = {}

    def star(self, left, right, budget):
        """Expansion of left * right for an int sum on the left; linear
        in the right slot, whose coefficients may be ``Fraction``s."""
        out = {}
        if left:
            pairs = tuple(sorted(left.items(), key=lambda kv: kv[0].sort_key()))
            for v, beta in right.items():
                _add(out, self._star_left(pairs, v, budget), beta)
        return out

    def _star_left(self, pairs, v, budget):
        w, n = pairs[0]
        if w.degree + v.degree > budget:
            return {}  # every word of the expansion holds v and a left word
        if len(pairs) == 1 and n in (1, -1):
            return {StarWord.product(w, v): 1} if n == 1 else self._neg_star(w, v, budget)
        key = (pairs, v, budget)
        hit = self._left_memo.get(key)
        if hit is not None:
            return hit
        if len(pairs) > 1:
            half = len(pairs) // 2
            a, b = pairs[:half], pairs[half:]
        else:
            half = n // 2 if n > 0 else -(-n // 2)
            a, b = ((w, half),), ((w, n - half),)
        out = dict(self._star_left(a, v, budget))
        _add(out, self._star_left(b, v, budget))
        _add(out, self._corrections(dict(a), dict(b), v, budget))
        self._left_memo[key] = out
        return out

    def _corrections(self, d, dp, v, budget):
        """sum_i (-1)^{i+1} ((d_i*d'_i)*v - d_i*(d'_i*v)) along the chain
        d_{i+1} = d_i + d'_i, d'_{i+1} = d_i * d'_i, for int sums."""
        out = {}
        v_sum = {v: 1}
        for i in range(2 * self.bound + 1):
            if not dp or 1 + min(u.degree for u in dp) + v.degree > budget:
                break  # this and all later terms truncate to zero
            inner = self.star(d, dp, budget - v.degree)  # d_i * d'_i
            sign = 1 if i % 2 else -1
            _add(out, self.star(inner, v_sum, budget), sign)
            _add(out, self.star(d, self.star(dp, v_sum, budget - 1), budget), -sign)
            d = dict(d)
            _add(d, dp)
            dp = inner
        else:
            raise ConvergenceFailure("correction chain did not reach the degree bound")
        return out

    def _neg_star(self, w, v, budget):
        """(-w) * v, for w*v within the budget, from the pair (w, -w):

            0 = (w + (-w))*v
              = w*v + (-w)*v - ((w*(-w))*v - w*((-w)*v))

        i.e.  N = -(w*v) + N(w*w, v) - w*N  where N = (-w)*v.  The last
        term raises degree, so iterating the right-hand side stabilizes
        within the degree bound."""
        key = (w, v, budget)
        hit = self._neg_memo.get(key)
        if hit is not None:
            return hit
        ww = StarWord.product(w, w)
        base = {StarWord.product(w, v): -1}
        if ww.degree + v.degree <= budget:
            _add(base, self._neg_star(ww, v, budget))
        w_sum = {w: 1}
        cur = {}
        for _ in range(budget + 1):
            nxt = dict(base)
            _add(nxt, self.star(w_sum, cur, budget), -1)
            if nxt == cur:
                break
            cur = nxt
        else:
            raise ConvergenceFailure("negated left slot did not stabilize")
        self._neg_memo[key] = cur
        return cur


def _add(acc, terms, k=1):
    """acc += k * terms in place, for a nonzero k."""
    for w, c in terms.items():
        c = acc.get(w, 0) + k * c
        if c:
            acc[w] = c
        else:
            del acc[w]


def _left_ints(expr):
    """The int sum of a left-slot expression."""
    for _, c in expr.terms():
        if c.denominator != 1:
            raise PreconditionViolated(
                f"left star slot needs integer coefficients, got {c}")
    return {w: c.numerator for w, c in expr._terms.items()}


def _expr(terms):
    return StarExpr._raw({w: Fraction(c) for w, c in terms.items()})


@functools.lru_cache(maxsize=None)
def _expander(bound):
    return _Expander(bound)


def as_expr(e):
    return StarExpr.word(e) if isinstance(e, StarWord) else e


def star_expand(e1, e2, degree_bound):
    """Fully expanded e1 * e2 over pure words, truncated past the bound.

    The left expression must have integer coefficients (a rational
    multiple in a left slot has no universal finite expansion)."""
    left = _left_ints(as_expr(e1))
    return _expr(_expander(degree_bound).star(left, as_expr(e2)._terms, degree_bound))


def expand_sum_star(a, b, c, degree_bound):
    """Fully expanded (a+b)*c.

    Follows the correction chain seeded with d_0 = a, d'_0 = b, so for
    single generators and bound 3 the result is the four-term form
    x*z + y*z + x*(y*z) - (x*y)*z."""
    if degree_bound < 2:
        raise PreconditionViolated("degree bound must be at least 2")
    a, b, right = _left_ints(as_expr(a)), _left_ints(as_expr(b)), as_expr(c)._terms
    eng = _expander(degree_bound)
    out = eng.star(a, right, degree_bound)
    _add(out, eng.star(b, right, degree_bound))
    for v, beta in right.items():
        _add(out, eng._corrections(a, b, v, degree_bound), beta)
    return _expr(out)


def double_substitution(word, degree_bound):
    """Expansion of the word with the generator x replaced by x + x."""
    return _expr(_doubled(word, _expander(degree_bound)))


def _doubled(word, eng):
    """``double_substitution`` as an int sum.  Recursive at module level:
    a nested recursive closure would form a reference cycle that keeps
    the expander's memo alive after its cache is cleared, until the
    cyclic collector runs."""
    if word.is_leaf:
        return {word: 2 if word.symbol == "x" else 1}
    return eng.star(_doubled(word.left, eng), _doubled(word.right, eng), eng.bound)


@functools.lru_cache(maxsize=None)
def doubling_matrix(degree_bound):
    """Matrix M over Q with M V_{x,y} = V_{2x,y} on the scaling-word
    basis of degree <= degree_bound, returned with that basis.

    M is upper triangular with diagonal entry 2^(number of x leaves)
    for each word: doubling x multiplies the word's own coefficient by
    2 per x leaf, and every correction strictly raises the degree."""
    if degree_bound < 2:
        raise PreconditionViolated("degree bound must be at least 2")
    basis = tuple(xy_words(degree_bound))
    index = {w: i for i, w in enumerate(basis)}
    rows = []
    for w in basis:
        expansion = double_substitution(w, degree_bound)
        row = [Fraction(0)] * len(basis)
        for mono, coeff in expansion.terms():
            assert mono in index, f"expansion left the scaling-word basis: {mono}"
            row[index[mono]] = coeff
        rows.append(row)
    return Mat(Q, rows), basis


def evaluate(expr, bindings, B):
    """Substitute vectors for generators and the brace star for the
    formal star; linear in the coefficients."""
    cache = {}
    out = Vec.zero(B.field, B.dim)
    for w, c in as_expr(expr).terms():
        out = out + _evaluate_word(w, bindings, B, cache) * B.field.of(c)
    return out


def _evaluate_word(word, bindings, B, cache):
    """The value of one word, cached.  Recursive at module level, as
    ``double_substitution`` is, so that no reference cycle forms."""
    if word.is_leaf:
        try:
            return bindings[word.symbol]
        except KeyError:
            raise UnboundSymbol(f"generator {word.symbol!r} is unbound") from None
    hit = cache.get(word)
    if hit is None:
        hit = B.star(_evaluate_word(word.left, bindings, B, cache),
                     _evaluate_word(word.right, bindings, B, cache))
        cache[word] = hit
    return hit


def scaling_matrix_check(B, a, b, n_max):
    """Verify 2^n V_{a/2^n, b} = (2 M^{-1})^n V_{a,b} exactly for
    n = 1..n_max in the concrete brace B.  An unvalidated B is
    validated first, which checks a declared class bound or proves one
    (``brace.class_bound_of``; PreconditionViolated if B is rejected)."""
    bound = max(class_bound_of(B), 2)
    m, basis = doubling_matrix(bound)
    field = B.field
    two_m_inv = m.inverse() * Fraction(2)
    # 2 M^-1 is upper triangular: only its nonzero entries are read
    rows = [[(j, field.of(c)) for j, c in enumerate(row) if c] for row in two_m_inv.rows]

    cur = [evaluate(StarExpr.word(w), {"x": a, "y": b}, B) for w in basis]
    for n in range(1, n_max + 1):
        cur = [sum((cur[j] * c for j, c in row), Vec.zero(field, B.dim)) for row in rows]
        scale_in = field.inv_int(2 ** n)
        scale_out = field.of(2 ** n)
        for i, w in enumerate(basis):
            direct = evaluate(StarExpr.word(w), {"x": a * scale_in, "y": b}, B) * scale_out
            if direct != cur[i]:
                return Violation("doubling-matrix scaling identity", (n, str(w)),
                                 direct - cur[i])
    return None
