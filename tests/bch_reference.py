"""The free-word Baker-Campbell-Hausdorff series and its
Dynkin-Specht-Wever bracket form: the reference that the recursion in
``braceflow.bch`` is tested against.

The BCH series C is computed as log(exp(X) exp(Y)) in the truncated
word algebra, on plain dicts of canonical scalars, and then lifted to
nested brackets with the Dynkin-Specht-Wever projection; re-expanding
the brackets must reproduce the series degree by degree, which
certifies that each homogeneous part is a Lie element.  That
certificate runs on ints, each bracket word expanded into signed words.
Every step grows like 2^s in the degree bound s.

``vec_c`` and ``sampled_violation`` are the flows-BCH check on vectors:
C by the library's recursion under ``alg.lie_bracket``, and the
identity W(a)∘W(b) = W(C(a, b)) at seeded random pairs through
``flows.w_map`` and ``flows.exp_L``.  ``bch.verify_flows_bch`` proves
the identity at the generic pair instead, and is tested against them,
also on the unvalidated tables of ``random_nilpotent``.
"""

import math

from dataclasses import dataclass
from fractions import Fraction

from braceflow import flows
from braceflow.bch import _bch_parts
from braceflow.errors import AlgebraError, FieldMismatch, PreconditionViolated, Violation
from braceflow.generic import _add, _by_coord
from braceflow.linalg import Vec
from braceflow.prelie import PreLieAlgebra
from braceflow.sampling import random_vec, rng_from
from braceflow.scalars import Q


class NotLieElement(AlgebraError):
    """A series failed the left-bracketing re-expansion certificate."""


class TruncatedSeries:
    """Element of the free associative algebra on named generators,
    truncated beyond ``bound``; words are strings of generator letters
    ("" is the unit) mapped to nonzero scalars.

    ``TruncatedSeries(field, bound, terms)`` coerces every coefficient
    through ``field.of``, drops long words and adds repeated ones, so it
    accepts any input.  ``TruncatedSeries._raw(field, bound, terms)``
    takes a dict that already maps words of length <= bound to nonzero
    canonical scalars of ``field`` and keeps it as it is; the arithmetic
    here builds such dicts, so it never coerces or merges again."""

    __slots__ = ("field", "bound", "terms")

    def __init__(self, field, bound, terms=()):
        self.field = field
        self.bound = bound
        clean = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for w, c in items:
            if len(w) > bound:
                continue
            c = field.of(c)
            if not c:
                continue
            c = clean.get(w, field.zero) + c
            if c:
                clean[w] = c
            else:
                clean.pop(w, None)
        self.terms = clean

    @classmethod
    def _raw(cls, field, bound, terms):
        u = object.__new__(cls)
        u.field, u.bound, u.terms = field, bound, terms
        return u

    @classmethod
    def zero(cls, field, bound):
        return cls._raw(field, bound, {})

    @classmethod
    def one(cls, field, bound):
        return cls._raw(field, bound, {"": field.one})

    @classmethod
    def generator(cls, field, bound, letter):
        return cls(field, bound, {letter: 1})

    def _check(self, other):
        if other.field != self.field or other.bound != self.bound:
            raise FieldMismatch("series over different fields or bounds")

    def _plus(self, items):
        terms = dict(self.terms)
        for w, c in items:
            if w in terms:
                c += terms[w]
                if not c:
                    del terms[w]
                    continue
            terms[w] = c
        return TruncatedSeries._raw(self.field, self.bound, terms)

    def __add__(self, other):
        self._check(other)
        return self._plus(other.terms.items())

    def __sub__(self, other):
        self._check(other)
        return self._plus((w, -c) for w, c in other.terms.items())

    def __neg__(self):
        return TruncatedSeries._raw(self.field, self.bound,
                                    {w: -c for w, c in self.terms.items()})

    def scale(self, c):
        c = self.field.of(c)
        if not c:
            return TruncatedSeries.zero(self.field, self.bound)
        return TruncatedSeries._raw(self.field, self.bound,
                                    {w: cv * c for w, cv in self.terms.items()})

    def __mul__(self, other):
        """Concatenation product, dropping words beyond the bound."""
        self._check(other)
        out = {}
        for w1, c1 in self.terms.items():
            room = self.bound - len(w1)
            for w2, c2 in other.terms.items():
                if len(w2) > room:
                    continue
                w, c = w1 + w2, c1 * c2
                out[w] = out[w] + c if w in out else c
        return TruncatedSeries._raw(self.field, self.bound,
                                    {w: c for w, c in out.items() if c})

    def constant_term(self):
        return self.terms.get("", self.field.zero)

    def degree_part(self, k):
        return {w: c for w, c in self.terms.items() if len(w) == k}

    def __eq__(self, other):
        return (isinstance(other, TruncatedSeries) and other.field == self.field
                and other.bound == self.bound and other.terms == self.terms)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for w in sorted(self.terms, key=lambda w: (len(w), w)):
            bits.append(f"{self.field.to_str(self.terms[w])}*{w or '1'}")
        return " + ".join(bits)


def ts_exp(u):
    """Truncated sum of u^k / k!; u must have zero constant term."""
    if u.constant_term():
        raise PreconditionViolated("exp needs a zero constant term")
    out = TruncatedSeries.one(u.field, u.bound)
    power = TruncatedSeries.one(u.field, u.bound)
    for k in range(1, u.bound + 1):
        power = power * u
        if not power.terms:
            break
        out = out + power.scale(u.field.inv_factorial(k))
    return out


def ts_log(v):
    """Truncated sum of (-1)^(k+1) (v-1)^k / k; v must have constant term 1."""
    if v.constant_term() != v.field.one:
        raise PreconditionViolated("log needs constant term 1")
    w = v - TruncatedSeries.one(v.field, v.bound)
    out = TruncatedSeries.zero(v.field, v.bound)
    power = TruncatedSeries.one(v.field, v.bound)
    for k in range(1, v.bound + 1):
        power = power * w
        if not power.terms:
            break
        term = power.scale(v.field.inv_int(k))
        out = out + term if k % 2 == 1 else out - term
    return out


def bch_series(degree_bound, field=Q):
    """C(X, Y) = log(exp(X) exp(Y)) truncated at the given degree."""
    if degree_bound < 1:
        raise PreconditionViolated("degree bound must be at least 1")
    ex = ts_exp(TruncatedSeries.generator(field, degree_bound, "X"))
    ey = ts_exp(TruncatedSeries.generator(field, degree_bound, "Y"))
    return ts_log(ex * ey)


@dataclass(frozen=True)
class BracketTerm:
    """coefficient * [[..[w_1, w_2], ..], w_k] (a bare letter for k = 1)."""

    coefficient: object
    letters: str

    def __str__(self):
        if len(self.letters) == 1:
            return f"{self.coefficient}*{self.letters}"
        expr = self.letters[0]
        for letter in self.letters[1:]:
            expr = f"[{expr},{letter}]"
        return f"{self.coefficient}*{expr}"


def bracket_word_ints(letters):
    """The left-nested bracket over the given letters as {word: int}:
    each bracket with a letter l takes w to w l - l w."""
    cur = {letters[0]: 1}
    for letter in letters[1:]:
        nxt = {}
        for w, c in cur.items():
            for v, sign in ((w + letter, c), (letter + w, -c)):
                nxt[v] = nxt.get(v, 0) + sign
        cur = {w: c for w, c in nxt.items() if c}
    return cur


def expand_bracket_word(field, bound, letters):
    """Word expansion of the left-nested bracket over the given letters."""
    return TruncatedSeries(field, bound, bracket_word_ints(letters))


def dsw_project(u):
    """Dynkin-Specht-Wever left-bracketing of a zero-constant-term series.

    For each homogeneous degree-k part the projection is
    (1/k) sum_w coeff(w) [[..[w_1,w_2],..],w_k].  Re-expanding the
    brackets must reproduce the series exactly in each degree; that is
    the primitive-element certificate, and failing it raises
    NotLieElement.  The certificate runs on ints: with the part's
    coefficients written as n_w / den (``ScalarField.to_ints``), it is
    sum_w n_w [[..[w_1,w_2],..],w_k] = k sum_w n_w w, each bracket word
    expanded into signed int words, compared mod p over GF(p)."""
    if u.constant_term():
        raise PreconditionViolated("projection needs a zero constant term")
    field, p = u.field, u.field.characteristic
    out = []
    for k in range(1, u.bound + 1):
        part = u.degree_part(k)
        if not part:
            continue
        inv_k = field.inv_int(k)
        words = sorted(part)
        ints, _ = field.to_ints([part[w] for w in words])
        check = {}
        for w, n in zip(words, ints):
            out.append(BracketTerm(part[w] * inv_k, w))
            for v, c in bracket_word_ints(w).items():
                check[v] = check.get(v, 0) + n * c
        if p:
            check = {v: c % p for v, c in check.items()}
        if {v: c for v, c in check.items() if c} != {
                w: k * n % p if p else k * n for w, n in zip(words, ints)}:
            raise NotLieElement(f"degree {k} part is not a Lie element")
    return out


def suffix_tree(terms):
    """The terms grouped on their last letter, recursively.

    A node is ``(leaves, children)``: ``leaves`` holds the (coefficient,
    letter) pairs of the one-letter words at that node, and
    ``children[l]`` is the node of the prefixes of the longer words that
    end in l.  Each node below the root stands for one distinct proper
    suffix of the words."""
    leaves, groups = [], {}
    for coefficient, letters in terms:
        if len(letters) == 1:
            leaves.append((coefficient, letters))
        else:
            groups.setdefault(letters[-1], []).append((coefficient, letters[:-1]))
    return leaves, {l: suffix_tree(g) for l, g in groups.items()}


def bracket_sum(alg, node, bound_vec):
    """The value of a ``suffix_tree`` node: bracketing the sum of the
    children's values with their letter equals the sum of the bracketed
    terms, since the bracket is bilinear."""
    leaves, children = node
    acc = None
    for coefficient, letter in leaves:
        val = bound_vec[letter] * coefficient
        acc = val if acc is None else acc + val
    for letter, child in children.items():
        val = alg.lie_bracket(bracket_sum(alg, child, bound_vec), bound_vec[letter])
        acc = val if acc is None else acc + val
    return acc


def generic_bracket_sum(ring, node, gens, cut):
    """``bracket_sum`` on the ints of ``generic.GenericRing``, cut at
    ``cut``: a child's value is bracketed with one more letter, so it is
    needed only below ``cut - 1``."""
    leaves, children = node
    acc = {}
    for coefficient, letter in leaves:
        _add(acc, {key: coefficient * c for key, c in gens[letter].items()}, ring.p)
    if cut > 2:
        for letter, child in children.items():
            u = generic_bracket_sum(ring, child, gens, cut - 1)
            _add(acc, ring.bracket(u, gens[letter], cut, _by_coord), ring.p)
    return acc


def generic_dsw_c(ring, terms, d):
    """C(a, b) = sum_w c_w [[w_1, w_2], .., w_k] at the generic pair
    a = sum_i x_i e_i, b = sum_i y_i e_i in ``ring``, from the ``terms``
    of ``dsw_project``.  Over Q, with M the lcm of the denominators of
    the c_w, the ints c_w * M are bracketed and the sum divided by M,
    which is exact when M divides the ring's table unit: a bracket of
    k >= 2 letters carries unit^(k-1)."""
    ints, big_m = (([t.coefficient.r for t in terms], 1) if ring.p
                   else Q.to_ints([t.coefficient for t in terms]))
    a = {((i,), i): 1 for i in range(d)}
    b = {((d + i,), i): 1 for i in range(d)}
    tree = suffix_tree(zip(ints, (t.letters for t in terms)))
    return {key: n // big_m for key, n in
            generic_bracket_sum(ring, tree, {"X": a, "Y": b}, ring.s).items()}


def vec_c(alg, a, b):
    """C(a, b) on vectors, with the algebra's commutator."""
    zero = Vec.zero(alg.field, alg.dim)
    s = alg.nilpotency_class
    parts = _bch_parts(s, a, b, alg.lie_bracket,
                       lambda pairs, den=1: sum((x * Fraction(q, den) for x, q in pairs), zero),
                       math.factorial(max(s - 1, 0)))
    return sum(parts, zero)


def sampled_violation(alg, trials, seed):
    """The first of ``trials`` seeded random pairs (a, b) at which
    W(a)∘W(b) = W(C(a, b)) fails on vectors, as a Violation at
    ``("random", t)`` with residual lhs - rhs, or None."""
    rng = rng_from(seed)
    for t in range(trials):
        a = random_vec(alg.field, alg.dim, rng)
        b = random_vec(alg.field, alg.dim, rng)
        lhs = flows.w_map(alg, a) + flows.exp_L(alg, a, flows.w_map(alg, b))
        rhs = flows.w_map(alg, vec_c(alg, a, b))
        if lhs != rhs:
            return Violation("flows-BCH identity", ("random", t), lhs - rhs)
    return None


def random_nilpotent(rng, field):
    """An unvalidated table with e_i e_j in the span of the e_k with
    k > i + j: weights add, so every product of d + 1 elements is 0."""
    d = rng.randint(3, 6)
    table = {}
    for i in range(d):
        for j in range(d - i - 1):
            for k in range(i + j + 1, d):
                if rng.random() < 0.6:
                    table.setdefault((i, j), {})[k] = (
                        rng.randrange(field.characteristic) if field.characteristic
                        else Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
    return PreLieAlgebra(field, d, table, validate=False)


def next_prime_above(s):
    return next(p for p in range(s + 1, 2 * s + 3) if all(p % q for q in range(2, p)))


def at_point(terms, degree_den, field, dim, point):
    """The int terms {(monomial, out): c} of a generic element, a term
    of degree k standing for c / degree_den^(k-1), as a Vec at the
    variables' values ``point``."""
    total = Vec.zero(field, dim)
    for (m, o), c in terms.items():
        value = field.from_ints([c], degree_den ** (len(m) - 1))[0]
        for var in m:
            value = value * point[var]
        total = total + Vec.basis(field, dim, o) * value
    return total
