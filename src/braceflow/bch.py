"""Truncated free associative algebra on two generators and the
Baker-Campbell-Hausdorff series.

The BCH series C is computed as log(exp(X) exp(Y)) in the truncated
word algebra, on plain dicts of canonical scalars, and then lifted to
nested brackets with the Dynkin-Specht-Wever projection; re-expanding
the brackets must reproduce the series degree by degree, which
certifies that each homogeneous part is a Lie element.  That
certificate runs on ints, each bracket word expanded into signed words.

Evaluating those brackets with the commutator of a nilpotent pre-Lie
algebra proves the flows identity W(a)∘W(b) = W(C(a,b)), a polynomial
identity in the coordinates of a and b, once at the generic pair on the
ints of ``generic.GenericRing``.  Over GF(p) every variable has degree
below the class s < p, so by Alon's Combinatorial Nullstellensatz a
nonzero formal difference is a real violation; over Q the table is
scaled so that every division is exact (``verify_flows_bch``).
"""

import math

from dataclasses import dataclass

from . import flows
from .errors import (FieldMismatch, NotLieElement, PreconditionViolated,
                     Violation)
from .generic import GenericRing, _add, _combine
from .linalg import Vec
from .prelie import int_rows
from .sampling import random_vec, rng_from
from .scalars import Q


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


def _bracket_word_ints(letters):
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
    return TruncatedSeries(field, bound, _bracket_word_ints(letters))


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
            for v, c in _bracket_word_ints(w).items():
                check[v] = check.get(v, 0) + n * c
        if p:
            check = {v: c % p for v, c in check.items()}
        if {v: c for v, c in check.items() if c} != {
                w: k * n % p if p else k * n for w, n in zip(words, ints)}:
            raise NotLieElement(f"degree {k} part is not a Lie element")
    return out


def _suffix_tree(terms):
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
    return leaves, {l: _suffix_tree(g) for l, g in groups.items()}


def _bracket_sum(alg, node, bound_vec):
    """The value of a ``_suffix_tree`` node: bracketing the sum of the
    children's values with their letter equals the sum of the bracketed
    terms, since the bracket is bilinear."""
    leaves, children = node
    acc = None
    for coefficient, letter in leaves:
        val = bound_vec[letter] * coefficient
        acc = val if acc is None else acc + val
    for letter, child in children.items():
        val = alg.lie_bracket(_bracket_sum(alg, child, bound_vec), bound_vec[letter])
        acc = val if acc is None else acc + val
    return acc


def _generic_bracket_sum(ring, node, gens, cut):
    """``_bracket_sum`` on the ints of ``generic.GenericRing``, cut at
    ``cut``: a child's value is bracketed with one more letter, so it is
    needed only below ``cut - 1``."""
    leaves, children = node
    acc = {}
    for coefficient, letter in leaves:
        _add(acc, {key: coefficient * c for key, c in gens[letter].items()}, ring.p)
    if cut > 2:
        for letter, child in children.items():
            u = _generic_bracket_sum(ring, child, gens, cut - 1)
            _add(acc, ring.bracket(u, gens[letter], cut), ring.p)
    return acc


def _generic_difference(alg, terms):
    """W(a)∘W(b) - W(C(a, b)) at the generic pair, on ints, and the
    ring's E: a term of degree k stands for c / E^(k-1) over Q (see
    ``verify_flows_bch``)."""
    s, d, p = alg.nilpotency_class, alg.dim, alg.field.characteristic
    ints, big_m = alg.field.to_ints([t.coefficient for t in terms])
    ring = GenericRing(*int_rows(alg), p, s, math.lcm(math.factorial(s - 1), big_m))
    a = {((i,), i): 1 for i in range(d)}
    b = {((d + i,), i): 1 for i in range(d)}
    tree = _suffix_tree(zip(ints, (t.letters for t in terms)))
    c = {key: n // big_m for key, n in
         _generic_bracket_sum(ring, tree, {"X": a, "Y": b}, s).items()}
    lhs = _combine(ring.w_map(a, s), ring.exp_l(a, ring.w_map(b, s), s), 1, p)
    return _combine(lhs, ring.w_map(c, s), -1, p), ring.degree_den


def _sampled_violation(alg, terms, trials, seed):
    """The first of ``trials`` seeded random pairs (a, b) at which
    W(a)∘W(b) = W(C(a, b)) fails on vectors, as a Violation, or None."""
    tree = _suffix_tree((t.coefficient, t.letters) for t in terms)
    rng = rng_from(seed)
    for t in range(trials):
        a = random_vec(alg.field, alg.dim, rng)
        b = random_vec(alg.field, alg.dim, rng)
        c = _bracket_sum(alg, tree, {"X": a, "Y": b})
        lhs = flows.w_map(alg, a) + flows.exp_L(alg, a, flows.w_map(alg, b))
        rhs = flows.w_map(alg, c)
        if lhs != rhs:
            return Violation("flows-BCH identity", ("random", t), lhs - rhs)
    return None


def verify_flows_bch(alg, trials=20, seed=None):
    """Exact proof of W(a)∘W(b) = W(C(a,b)) for all a, b: None when it
    holds, else a Violation.  C is the bracket form of the BCH series,
    bracketed with the algebra's commutator [u, v] = u.v - v.u.

    Both sides are evaluated once at the generic pair a = sum_i x_i e_i,
    b = sum_i y_i e_i (variables 0..d-1 and d..2d-1) on the ints of
    ``generic.GenericRing``.  A term of degree k there is a sum of
    products of k elements of A, so the cut at the class s loses
    nothing, and the sides are equal as polynomials exactly when the
    identity holds at every pair: over Q plainly, and over GF(p) by
    Alon's Combinatorial Nullstellensatz, as every variable has degree
    below s < p, so a nonzero difference is nonzero at some point.

    The left side is W(a) + exp_L(a, W(b)), which is W(a)∘W(b) because
    Omega(W(a)) = a on every nilpotent algebra: W(x) = x + (products of
    at least two factors), so W(x) = W(y) puts x - y in every power of
    the algebra, hence x = y.  C = sum_w c_w [[w_1, w_2], .., w_k] is
    summed with the terms grouped on their last letter, recursively
    (``_suffix_tree``), so each distinct proper suffix is bracketed once.

    Over Q, with M the lcm of the denominators of the c_w, the kernel
    sums M*C from the ints c_w*M and divides it by M, with its table
    scaled by lcm((s-1)!, M).  A bracket of k >= 2 letters is then a
    multiple of M, so the division is exact, and so is each division of
    L_x^k(x) by (k+1)! in W, cut at s, as k <= s-2.

    On failure the ``trials`` seeded random pairs are tried on vectors
    first, and the first failing pair t is reported at ``("random", t)``
    with residual lhs - rhs.  Only if none fails is the site
    ``("generic", monomial)``, the first monomial of the difference in
    (degree, variables) order, with its coefficient vector as residual.
    A passing input draws nothing."""
    terms = dsw_project(bch_series(alg.nilpotency_class, alg.field))
    diff, degree_den = _generic_difference(alg, terms)
    if not diff:
        return None
    viol = _sampled_violation(alg, terms, trials, seed)
    if viol is not None:
        return viol
    m = min((m for m, _ in diff), key=lambda m: (len(m), m))
    residual = alg.field.from_ints([diff.get((m, o), 0) for o in range(alg.dim)],
                                   degree_den ** (len(m) - 1))
    return Violation("flows-BCH identity", ("generic", m),
                     Vec._trusted(alg.field, residual))
