"""Elements of A ⊗ F[x_1..x_d]/(deg >= cut), on plain ints.

A is a nilpotent pre-Lie algebra of class s, given by the int rows of
its product (``prelie.int_rows``).  An element is a dict
{(monomial, coord): c} of nonzero ints: a monomial is a sorted tuple of
variable indices, coord a basis index of A.  Products of degree >= s
are zero in A, so every cut here is at most s and loses nothing there.
A product x.y reads the table by right index and x grouped by
coordinate (``_by_coord``), so a caller groups a left factor it reuses
once: a series its fixed left factor, the extraction Omega for every
e_j, and the flows-BCH recursion each of its elements.

Coefficients are ints.  Over GF(p) they are residues.  Over Q, with den
the table's common denominator, ``unit`` the table factor the caller
chooses and E = den * unit, a term of degree k stands for c / E^(k - w):
w = 1 for the left factor of a product (the generic element
sum_i x_i e_i is then all ones), and w = 0 or 1 for the right factor,
which the product keeps.  The table is multiplied by ``unit`` once, so
that x.y is sum cx * cy * n with no division, and each term of L_x^k(y)
is a multiple of unit^k: a series that divides L_x^k(y) by j! divides
exactly when j! divides unit^k.  ``to_brace`` takes unit = (s-2)!:
exp_L stops at k = s-2, and ``omega``'s Magnus recursion divides exactly
too.  The flows-BCH proof takes 2 (s-1)!, which also makes every
division of Varadarajan's recursion exact (``bch.verify_flows_bch``).
Each value has one int, so equality of elements is equality of dicts.
"""

import functools
import math


class GenericRing:
    """The product of A on elements of A ⊗ F[x]/(deg >= cut), the
    nilpotency class s and the characteristic p of A's field.

    ``cols[j][i]`` holds e_i.e_j as (out, n) pairs with n / den its
    coordinates (times ``unit`` over Q; residues over GF(p)); ``degree_den``
    is E over Q and 1 over GF(p)."""

    __slots__ = ("cols", "p", "s", "unit", "degree_den")

    def __init__(self, rows, den, p, s, unit):
        scale = 1 if p else unit
        self.cols = [{} for _ in rows]
        for i, row in enumerate(rows):
            for j, pairs in row.items():
                self.cols[j][i] = tuple((o, n * scale) for o, n in pairs)
        self.p, self.s, self.unit = p, s, unit
        self.degree_den = 1 if p else den * unit

    def product(self, xs, y, cut):
        """x.y with every term of degree >= cut dropped, for x grouped by
        coordinate (``_by_coord``).

        For each term of y at coordinate j only the i with e_i.e_j nonzero
        and a term of x are visited (``cols``); x's terms at i come in
        degree order and stop at the cut."""
        cols, p = self.cols, self.p
        terms = {}
        for (my, j), cy in y.items():
            col = cols[j]
            room = cut - len(my)
            for i in (col if len(col) < len(xs) else xs):
                pairs = col.get(i)
                xi = xs.get(i)
                if pairs is None or xi is None:
                    continue
                for dx, mx, cx in xi:
                    if dx >= room:
                        break
                    m = tuple(sorted(mx + my))
                    c = cx * cy
                    for out, n in pairs:
                        key = (m, out)
                        terms[key] = terms.get(key, 0) + c * n
        if p:
            return {key: c % p for key, c in terms.items() if c % p}
        return {key: c for key, c in terms.items() if c}

    def combine(self, pairs, den=1):
        """sum q x / den over (element x, int q) pairs; exact over Q by the caller's proof."""
        p, acc = self.p, {}
        if p:
            inv = pow(den, -1, p)
            pairs, den = [(x, q * inv % p) for x, q in pairs], 1
        for x, q in pairs:
            if q == 1 and not acc:
                acc = dict(x)
            else:
                _add(acc, x if q == 1 else {key: c * q for key, c in x.items()}, p)
        return acc if den == 1 else {key: c // den for key, c in acc.items()}

    def bracket(self, x, y, cut, group):
        """[x, y] = x.y - y.x, cut at ``cut``, for x and y with w = 1 (both
        are left factors); ``group(v)`` is ``_by_coord(v)``, kept by a caller."""
        return self.combine([(self.product(group(x), y, cut), 1),
                             (self.product(group(y), x, cut), -1)])

    def w_map(self, x, cut):
        """W(x) = x + series(x, x, 1), cut at ``cut``."""
        return self.combine([(x, 1), (self.series(_by_coord(x), x, 1, cut), 1)])

    def series(self, xs, b, offset, cut):
        """sum_{k>=1} L_a^k(b) / (k + offset)!, cut at ``cut``, for the
        fixed left factor a grouped by coordinate (``_by_coord``) once."""
        p, acc, cur = self.p, {}, b
        f = math.factorial(offset)
        for k in range(1, self.s):
            cur = self.product(xs, cur, cut)
            if not cur:
                break
            f *= k + offset
            if p:
                inv = pow(f, -1, p)
                _add(acc, {key: c * inv for key, c in cur.items()}, p)
            else:
                _add(acc, {key: c // f for key, c in cur.items()}, 0)
        return acc

    def omega(self, d):
        """Omega at the generic element a = sum_i x_i e_i below degree s - 1,
        which the star never reads (times e_j, a product of s elements).
        As W(x) = ((e^{L_x} - 1) / L_x)(x), Omega = sum_n b_n L_Omega^n(a),
        b_n = B_n / n! (the pre-Lie Magnus expansion), on every nilpotent
        table: Omega_1 = a, Omega_{n+1} = sum_j b_j T(j, n) (``graded_recursion``).

        Exact over Q with the table unit u = (s-2)!: the j nested products
        of T(j, n) each carry u, so b_j T(j, n) divides exactly when
        den(b_j) | u^j.  b_1 = -1/2 enters only when s >= 4, where 2 | u;
        b_j = 0 for odd j >= 3; for even j, den(b_j) divides j! times the
        primes q with q - 1 | j (von Staudt-Clausen), all <= j + 1 <= s - 2,
        so it divides u^2.  Omega_{n+1} is sum_j b_j u^j u^(n-j) T(j, n) / u^n
        on ints (``_bernoulli_over_factorial``); u is a unit of GF(p), p > s."""
        s, u = self.s, self.unit
        beta = _bernoulli_over_factorial(s - 3, u)

        def part(n, z, t):
            return self.combine([(t[j, n], beta[j] * u ** (n - j))
                                 for j in range(1, n + 1) if beta[j]], u ** n)

        parts = graded_recursion({((i,), i): 1 for i in range(d)}, s - 2,
                                 lambda z: functools.partial(self.product, _by_coord(z), cut=s),
                                 self.combine, part)
        return {key: c for z in parts for key, c in z.items()}


def graded_recursion(first, top, left, combine, part):
    """[Z_1, .., Z_top], Z_n of degree n, solved through the table
    T(j, m) = sum_{k>=1} L_k(T(j-1, m-k)) of degree m + 1, L_k = left(Z_k),
    T(0, 0) = Z_1 = first and T(0, m) = 0 for m > 0; each L_k and each
    L_k(T) is made once.  Z_{n+1} is ``part(n, z, t)``, z[k] = Z_k and
    t[j, m] = T(j, m) for 1 <= j <= m <= n; ``combine`` sums (element, 1) pairs."""
    z, t, ops = [None, first], {}, [None]
    for n in range(1, top):
        ops.append(left(z[n]))
        t[1, n] = ops[n](first)
        for j in range(2, n + 1):
            t[j, n] = combine([(ops[k](t[j - 1, n - k]), 1) for k in range(1, n - j + 2)])
        z.append(part(n, z, t))
    return z[1:]


def _bernoulli_over_factorial(top, u):
    """[b_0, b_1 u, .., b_top u^top], b_n = B_n / n! the coefficients of
    x / (e^x - 1), as ints when (top + 1)! divides u:
    b_n u^n = -sum_{k<n} b_k u^k (u^(n-k) / (n+1-k)!)."""
    b = [1]
    for n in range(1, top + 1):
        b.append(-sum(b[k] * (u ** (n - k) // math.factorial(n + 1 - k)) for k in range(n)))
    return b


def _by_coord(x):
    """{coord: [(degree, monomial, c), ...]}, each list in degree order."""
    out = {}
    for (m, i), c in x.items():
        out.setdefault(i, []).append((len(m), m, c))
    for terms in out.values():
        terms.sort()
    return out


def _add(acc, x, p):
    """acc += x in place, dropping the terms that cancel."""
    for key, c in x.items():
        c += acc.get(key, 0)
        if p:
            c %= p
        if c:
            acc[key] = c
        else:
            acc.pop(key, None)
