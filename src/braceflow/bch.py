"""The Baker-Campbell-Hausdorff series C(a, b) under the commutator of a
nilpotent pre-Lie algebra, and the proof of the flows identity
W(a)∘W(b) = W(C(a, b)).

C = Z_1 + Z_2 + ..., with Z_n homogeneous of degree n in a and b, is
computed by Varadarajan's recursion (*Lie Groups, Lie Algebras, and
Their Representations*, §2.15) on the table T(j, m) of
``generic.graded_recursion`` with Z_1 = a + b and L_k = [Z_k, -]:

    (n+1) Z_{n+1} = 1/2 [a - b, Z_n] + sum_{p >= 1, 2p <= n} B_{2p}/(2p)! T(2p, n),

with B_{2p} the Bernoulli numbers, and T(j, m) the sum of the
[Z_{k_1}, [.., [Z_{k_j}, a + b]..]] with k_1 + .. + k_j = m.  A product
of s elements is zero in an algebra of class s, so the recursion stops
at Z_{s-1}, after O(s^3) brackets.  It holds in the free Lie algebra, so
it gives log(exp(a) exp(b)) under every bracket that is antisymmetric
and satisfies Jacobi, as the commutator of a pre-Lie algebra does; on a
table that is not pre-Lie, C is this recursion's value.

The identity, a polynomial identity in the coordinates of a and b, is
proved once at the generic pair on the ints of ``generic.GenericRing``
(``verify_flows_bch``), the whole verdict: no pair of vectors is drawn.
"""

import math

from .errors import CharacteristicTooSmall, Violation
from .generic import GenericRing, _bernoulli_over_factorial, _by_coord, graded_recursion
from .linalg import Vec
from .prelie import int_rows


def _bch_parts(s, a, b, bracket, combine, unit):
    """[Z_1, .., Z_{s-1}] under ``bracket``; ``combine(pairs, den=1)`` sums
    q x over (element, int q) pairs, over den.  With b_j u^j the ints of
    ``_bernoulli_over_factorial``, u = ``unit`` and (s-1)! | u, Z_{n+1}
    is -b_1 u^(n-1) [a - b, Z_n] + sum_{j even} b_j u^(n-j) T(j, n), over u^n (n+1)."""
    beta = _bernoulli_over_factorial(s - 2, unit)
    diff = combine([(a, 1), (b, -1)])

    def part(n, z, t):
        return combine([(bracket(diff, z[n]), -beta[1] * unit ** (n - 1))]
                       + [(t[j, n], beta[j] * unit ** (n - j)) for j in range(2, n + 1, 2)],
                       unit ** n * (n + 1))

    return graded_recursion(combine([(a, 1), (b, 1)]), s - 1,
                            lambda x: lambda y: bracket(x, y), combine, part)


def _generic_ring(alg):
    """The generic kernel of ``alg``, its unit 2 (s-1)!."""
    s = alg.nilpotency_class
    return GenericRing(*int_rows(alg), alg.field.characteristic, s, 2 * math.factorial(s - 1))


def _generic_c(ring, a, b):
    """C(a, b) for elements a, b of ``ring`` with w = 1, such as the
    generic pair.  Over Q each division of the recursion is exact when
    the ring's table unit is a multiple of 2 (s-1)! (``verify_flows_bch``)."""
    grouped = {}  # id -> (element, its _by_coord): each element is grouped once

    def group(x):
        if id(x) not in grouped:
            grouped[id(x)] = (x, _by_coord(x))
        return grouped[id(x)][1]

    parts = _bch_parts(ring.s, a, b, lambda x, y: ring.bracket(x, y, ring.s, group),
                       ring.combine, ring.unit)
    return {key: c for part in parts for key, c in part.items()}


def _generic_difference(alg):
    """W(a)∘W(b) - W(C(a, b)) at the generic pair, on ints, and the
    ring's E: a term of degree k stands for c / E^(k-1) over Q (see
    ``verify_flows_bch``)."""
    ring, d = _generic_ring(alg), alg.dim
    s = ring.s
    a = {((i,), i): 1 for i in range(d)}
    b = {((d + i,), i): 1 for i in range(d)}
    c, wb = _generic_c(ring, a, b), ring.w_map(b, s)
    return ring.combine([(ring.w_map(a, s), 1), (wb, 1), (ring.series(_by_coord(a), wb, 0, s), 1),
                         (ring.w_map(c, s), -1)]), ring.degree_den


def verify_flows_bch(alg):
    """Exact proof of W(a)∘W(b) = W(C(a,b)) for all a, b: None when it
    holds, else a Violation.  C is the BCH series under the algebra's
    commutator [u, v] = u.v - v.u, by Varadarajan's recursion.

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
    the algebra, hence x = y.

    The recursion divides by 2, by n + 1 <= s - 1 and by the
    denominators of B_{2p}/(2p)! with 2p <= s - 2.  By von Staudt-Clausen
    the denominator of B_{2p} is the product of the primes q with q - 1
    dividing 2p, so q <= 2p + 1 <= s - 1: every prime in play is below
    s, and over GF(p), p > s, each division is a modular inverse.  Over
    Q the ring's table is scaled by u = 2 (s-1)!, so a bracket of j + 1
    elements carries u^j.  The 1/2 term divides one bracket by
    2(n + 1), which divides u.  The B_{2p} term divides 2p nested
    brackets by a divisor of (n + 1) (2p)! den(B_{2p}), whose three
    factors each divide (s-1)!; that divides u^3, and for 2p = 2 it is
    12(n + 1), which divides u^2.  So every division is exact, as is
    each division of L_x^k(x) by (k+1)! in W, k <= s-2.

    A failure is reported at ``("generic", monomial)``, the first
    monomial of the difference in (degree, variables) order, with its
    coefficient vector as residual.  Nothing is drawn."""
    s, p = alg.nilpotency_class, alg.field.characteristic
    if p and p <= s:
        raise CharacteristicTooSmall(
            f"characteristic {p} must exceed the nilpotency class {s}")
    diff, degree_den = _generic_difference(alg)
    if not diff:
        return None
    m = min((m for m, _ in diff), key=lambda m: (len(m), m))
    residual = alg.field.from_ints([diff.get((m, o), 0) for o in range(alg.dim)],
                                   degree_den ** (len(m) - 1))
    return Violation("flows-BCH identity", ("generic", m),
                     Vec._trusted(alg.field, residual))
