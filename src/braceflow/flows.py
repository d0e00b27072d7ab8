"""Group of flows of a nilpotent pre-Lie algebra.

With L_a the left multiplication by a, the construction goes

    exp_L(a, b) = b + a.b + (1/2!) a.(a.b) + ...        (finite: nilpotency)
    W(a)        = a + (1/2!) a.a + (1/3!) a.(a.a) + ...
    Omega       = the compositional inverse of W
    a ∘ b       = a + exp_L(Omega(a), b)

which makes (A, +, ∘) a left brace sharing the addition of A.  The
formal unit behind W is never materialized; W is summed directly.

The series are written once and run on two kinds of elements: vectors
of A, and elements of A ⊗ F[x_1..x_d]/(deg >= s), s the nilpotency
class.  ``to_brace`` evaluates the star once at the generic element
a = sum_i x_i e_i of the second kind; the coefficient of x^alpha in
a*e_j is multinomial(alpha) L_|alpha|(e^alpha; e_j), which is the graded
brace.  Cutting monomials of degree >= s loses nothing, because every
product of s elements of A is zero.
"""

import functools

from .brace import GradedBrace, SymmetricMap, _multinomial
from .errors import ConvergenceFailure, InternalInconsistency
from .prelie import product_rows


def _series(alg, mul, a, b, offset):
    """sum_{k>=0} L_a^k(b) / (k + offset)!, for offset 0 or 1."""
    acc = cur = b
    for k in range(1, alg.nilpotency_class):
        cur = mul(a, cur)
        if cur.is_zero():
            break
        acc = acc + cur * alg.field.inv_factorial(k + offset)
    return acc


def _omega_fixed_point(alg, w, a):
    x = a
    for _ in range(alg.nilpotency_class + 1):
        wx = w(x)
        nxt = a - (wx - x)
        if nxt == x:
            break
        x = nxt
    else:
        wx = w(x)  # the last W was taken at the previous x
    if wx != a:
        raise ConvergenceFailure("Omega iteration did not stabilize")
    return x


def exp_L(alg, a, b):
    """exp of left multiplication: sum_k (1/k!) L_a^k(b), exact."""
    return _series(alg, alg.multiply, a, b, 0)


def w_map(alg, a):
    """W(a) = sum_{k>=1} (1/k!) L_a^{k-1}(a); bijective on a nilpotent algebra."""
    return _series(alg, alg.multiply, a, a, 1)


def omega(alg, a):
    """The unique x with W(x) = a.

    Fixed-point iteration x <- a - (W(x) - x); every step corrects one
    more degree, so at most the nilpotency class many iterations are
    needed.  The result is verified against W before returning."""
    return _omega_fixed_point(alg, lambda x: w_map(alg, x), a)


def circ(alg, a, b):
    """Group-of-flows multiplication a∘b = a + exp_L(Omega(a), b)."""
    return a + exp_L(alg, omega(alg, a), b)


def star(alg, a, b):
    """a*b = a∘b - a - b."""
    return circ(alg, a, b) - a - b


class _Generic:
    """Element of A ⊗ F[x_1..x_d]/(deg >= s): nonzero scalars keyed by
    (monomial, coordinate), a monomial a sorted tuple of variables."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = {key: c for key, c in terms.items() if c}

    def __add__(self, other):
        terms = dict(self.terms)
        for key, c in other.terms.items():
            terms[key] = terms[key] + c if key in terms else c
        return _Generic(terms)

    def __sub__(self, other):
        return self + other * -1

    def __mul__(self, scalar):
        return _Generic({key: c * scalar for key, c in self.terms.items()})

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return self.terms == other.terms


def _generic_product(rows, s, x, y):
    """x.y in A ⊗ F[x]/(deg >= s), through the product's nonzero
    coordinates ``rows`` (``prelie.product_rows``)."""
    terms = {}
    for (mx, i), cx in x.terms.items():
        for (my, j), cy in y.terms.items():
            pairs = rows[i].get(j)
            if pairs and len(mx) + len(my) < s:
                m = tuple(sorted(mx + my))
                c = cx * cy
                for out, v in pairs:
                    key = (m, out)
                    terms[key] = terms[key] + c * v if key in terms else c * v
    return _Generic(terms)


def to_brace(alg, trials=20, seed=None):
    """Extract the graded brace of the group of flows.

    Omega is computed once at the generic element a = sum_i x_i e_i,
    then a*e_j = exp_L(Omega(a), e_j) - e_j for each j; dividing the
    coefficient of x^alpha by multinomial(alpha) gives the value of the
    symmetric multilinear map L_|alpha| on (e^alpha; e_j).  The result is
    admitted through ``GradedBrace`` validation, whose random checks take
    ``trials`` and ``seed``; the star is not evaluated a second time.
    """
    field, d = alg.field, alg.dim
    mul = functools.partial(_generic_product, product_rows(alg), alg.nilpotency_class)
    generic = _Generic({((i,), i): field.one for i in range(d)})
    om = _omega_fixed_point(alg, lambda x: _series(alg, mul, x, x, 1), generic)
    entries = {}
    for j in range(d):
        ej = _Generic({((), j): field.one})
        graded = _series(alg, mul, om, ej, 0) - ej
        for (m, out), c in graded.terms.items():
            if not m:
                raise InternalInconsistency("generic star has a nonzero constant term")
            inv = field.inv_int(_multinomial(len(m), [m.count(i) for i in set(m)]))
            entries.setdefault(len(m), {}).setdefault((m, j), {})[out] = c * inv
    lambdas = {k: SymmetricMap(field, d, k, e) for k, e in entries.items()}
    return GradedBrace(field, d, lambdas, class_bound=alg.nilpotency_class,
                       basis_names=alg.basis_names, trials=trials, seed=seed)
