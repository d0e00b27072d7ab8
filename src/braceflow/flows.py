"""Group of flows of a nilpotent pre-Lie algebra.

With L_a the left multiplication by a, the construction goes

    exp_L(a, b) = b + a.b + (1/2!) a.(a.b) + ...        (finite: nilpotency)
    W(a)        = a + (1/2!) a.a + (1/3!) a.(a.a) + ...
    Omega       = the compositional inverse of W
    a ∘ b       = a + exp_L(Omega(a), b)

which makes (A, +, ∘) a left brace sharing the addition of A.  The
formal unit behind W is never materialized; W is summed directly.

On vectors of A the series run through ``alg.multiply``.  ``to_brace``
evaluates them once at the generic element a = sum_i x_i e_i of
A ⊗ F[x_1..x_d]/(deg >= s), s the nilpotency class, through the int
kernel of ``generic``: the coefficient of x^alpha in a*e_j is
multinomial(alpha) L_|alpha|(e^alpha; e_j), which is the graded brace.
Cutting monomials of degree >= s loses nothing, because every product
of s elements of A is zero.  The kernel's product visits only the
coordinate pairs with a nonzero structure constant and skips the pairs
whose degree reaches the cut; Omega is the pre-Lie Magnus expansion,
each homogeneous product made once.  Its coefficients are ints:
residues over GF(p), and over Q numerators over one fixed denominator
per degree, so that 1/k! divides exactly and equality needs no gcd.

The radical chains of the flows brace are the chains of the table,
read off it with no brace built (``prelie.chain_report``).
"""

import math

from .brace import GradedBrace, SymmetricMap, _multinomial
from .errors import ConvergenceFailure
from .generic import GenericRing, _by_coord
from .prelie import int_rows


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


def _generic_stars(alg):
    """(E, stars): the generic kernel's ``degree_den`` E, and lazily for
    each j the int terms {(m, out): c} of star(a, e_j) at the generic
    element a = sum_i x_i e_i, where c / E^k is multinomial(m)
    L_k(e^m; e_j)_out, k = len(m) <= s - 2.  Omega is computed and
    grouped by coordinate once, on the table scaled by (s-2)!
    (``generic.GenericRing``)."""
    s = alg.nilpotency_class
    ring = GenericRing(*int_rows(alg), alg.field.characteristic, s,
                       math.factorial(max(s - 2, 0)))
    om = _by_coord(ring.omega(alg.dim))
    return ring.degree_den, (ring.series(om, {((), j): 1}, 0, s) for j in range(alg.dim))


def to_brace(alg):
    """Extract the graded brace of the group of flows.

    Omega is computed once at the generic element a = sum_i x_i e_i,
    then a*e_j = exp_L(Omega(a), e_j) - e_j for each j
    (``_generic_stars``); dividing the coefficient of x^alpha by
    multinomial(alpha) gives the value of the symmetric multilinear map
    L_|alpha| on (e^alpha; e_j).  The kernel's int c stands for
    c / (E^k multinomial(alpha)), so each L_k is built on ints
    (``SymmetricMap._of_ints``) over E^k times the lcm of its
    multinomials, and no scalar is built.  By the correspondence theorem
    the flows of a validated algebra of class s form a strongly nilpotent
    brace of class <= s, so it is returned unvalidated with
    ``class_bound=s``.
    """
    field, d = alg.field, alg.dim
    E, stars = _generic_stars(alg)
    tables = {}
    for j, terms in enumerate(stars):
        for (m, out), c in terms.items():
            tables.setdefault(len(m), {}).setdefault((m, j), []).append((out, c))
    lambdas = {}
    for k, table in tables.items():
        mult = {m: _multinomial(k, [m.count(i) for i in set(m)]) for m, _ in table}
        lcm = math.lcm(*mult.values())
        ints = {(m, j): tuple(sorted((out, c * (lcm // mult[m])) for out, c in pairs))
                for (m, j), pairs in table.items()}
        lambdas[k] = SymmetricMap._of_ints(field, d, k, ints, E ** k * lcm)
    return GradedBrace(field, d, lambdas, class_bound=alg.nilpotency_class,
                       basis_names=alg.basis_names, validate=False)


def is_flows_brace(B, alg):
    """Whether ``brace.table_difference(B, to_brace(alg))`` is None,
    decided on ints, with no scalar or brace built, and stopping at the
    first j whose terms differ.  B's compiled rows (``B._rows``) hold
    multinomial(m) L_k(e^m; e_j)_out as n / den and ``_generic_stars`` as
    c / E^k, so the maps agree iff c * den = n * E^k (over GF(p),
    den = E = 1 and these are residues).  to_brace(alg) has no degree
    above s - 2; that is checked on B's maps, since the rows drop an
    entry whose multinomial is 0 mod p (only at a degree k >= p > s)."""
    s = alg.nilpotency_class
    if any(k > s - 2 for k in B.lambdas):
        return False
    rows, den, _ = B._rows
    E, stars = _generic_stars(alg)
    want = [{} for _ in range(B.dim)]
    for tup, j, out in rows:
        scale = E ** len(tup)
        for o, n in out:
            want[j][(tup, o)] = n * scale
    for j, terms in enumerate(stars):
        wj = want[j]
        if len(terms) != len(wj) or any(wj.get(key) != c * den for key, c in terms.items()):
            return False
    return True
