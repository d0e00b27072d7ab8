"""Truncated free associative algebra on two generators and the
Baker-Campbell-Hausdorff series.

The BCH series C is computed as log(exp(X) exp(Y)) in the truncated
word algebra and then lifted to nested brackets with the
Dynkin-Specht-Wever projection; re-expanding the brackets must
reproduce the series degree by degree, which certifies that each
homogeneous part is a Lie element.  Evaluating those brackets with the
commutator of a nilpotent pre-Lie algebra verifies the flows identity
W(a)∘W(b) = W(C(a,b)).
"""

from dataclasses import dataclass

from . import flows
from .errors import (FieldMismatch, NotLieElement, PreconditionViolated,
                     Violation)
from .sampling import random_vec, rng_from
from .scalars import Q


class TruncatedSeries:
    """Element of the free associative algebra on named generators,
    truncated beyond ``bound``; words are strings of generator letters
    ("" is the unit) mapped to nonzero scalars."""

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
    def zero(cls, field, bound):
        return cls(field, bound)

    @classmethod
    def one(cls, field, bound):
        return cls(field, bound, {"": 1})

    @classmethod
    def generator(cls, field, bound, letter):
        return cls(field, bound, {letter: 1})

    def _check(self, other):
        if other.field != self.field or other.bound != self.bound:
            raise FieldMismatch("series over different fields or bounds")

    def __add__(self, other):
        self._check(other)
        return TruncatedSeries(self.field, self.bound,
                               list(self.terms.items()) + list(other.terms.items()))

    def __sub__(self, other):
        self._check(other)
        return TruncatedSeries(
            self.field, self.bound,
            list(self.terms.items()) + [(w, -c) for w, c in other.terms.items()])

    def __neg__(self):
        return TruncatedSeries(self.field, self.bound,
                               [(w, -c) for w, c in self.terms.items()])

    def scale(self, c):
        c = self.field.of(c)
        return TruncatedSeries(self.field, self.bound,
                               [(w, cv * c) for w, cv in self.terms.items()])

    def __mul__(self, other):
        """Concatenation product, dropping words beyond the bound."""
        self._check(other)
        out = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                if len(w1) + len(w2) > self.bound:
                    continue
                w = w1 + w2
                c = out.get(w, self.field.zero) + c1 * c2
                if c:
                    out[w] = c
                else:
                    out.pop(w, None)
        return TruncatedSeries(self.field, self.bound, out)

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


def expand_bracket_word(field, bound, letters):
    """Word expansion of the left-nested bracket over the given letters."""
    cur = TruncatedSeries.generator(field, bound, letters[0])
    for letter in letters[1:]:
        gen = TruncatedSeries.generator(field, bound, letter)
        cur = cur * gen - gen * cur
    return cur


def dsw_project(u):
    """Dynkin-Specht-Wever left-bracketing of a zero-constant-term series.

    For each homogeneous degree-k part the projection is
    (1/k) sum_w coeff(w) [[..[w_1,w_2],..],w_k].  Re-expanding the
    brackets must reproduce the series exactly in each degree; that is
    the primitive-element certificate, and failing it raises
    NotLieElement."""
    if u.constant_term():
        raise PreconditionViolated("projection needs a zero constant term")
    out = []
    for k in range(1, u.bound + 1):
        part = u.degree_part(k)
        if not part:
            continue
        inv_k = u.field.inv_int(k)
        check = TruncatedSeries.zero(u.field, u.bound)
        for w in sorted(part):
            coeff = part[w] * inv_k
            out.append(BracketTerm(coeff, w))
            check = check + expand_bracket_word(u.field, u.bound, w).scale(coeff)
        if check.terms != part:
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


def verify_flows_bch(alg, trials=20, seed=None):
    """Exact check of W(a)∘W(b) = W(C(a,b)) on seeded random pairs,
    with C evaluated through the bracket form of the BCH series and
    the algebra's commutator.

    C = sum_w c_w [[w_1, w_2], .., w_k] is summed with the terms grouped
    on their last letter, recursively (``_suffix_tree``): bilinearity
    makes this exact, and each distinct proper suffix is bracketed once
    per trial: 30 brackets at class 5, where bracketing each term on
    its own takes 146.

    The left side is W(a) + exp_L(a, W(b)), which is W(a)∘W(b) because
    Omega(W(a)) = a on every nilpotent algebra: W(x) = x + (products of
    at least two factors), so W(x) = W(y) puts x - y in every power of
    the algebra, hence x = y, and ``omega`` would only recover a."""
    s = alg.nilpotency_class
    tree = _suffix_tree((t.coefficient, t.letters)
                        for t in dsw_project(bch_series(s, alg.field)))
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
