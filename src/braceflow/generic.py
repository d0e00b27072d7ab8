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
exp_L stops at k = s-2 and the W series of ``omega``, cut at s-1, at
k = s-3.  The flows-BCH proof takes 2 (s-1)!, which also makes every
division of Varadarajan's recursion exact (``bch.verify_flows_bch``).
Each value has one int, so equality of elements is equality of dicts.
"""

import math


class GenericRing:
    """The product of A on elements of A ⊗ F[x]/(deg >= cut), the
    nilpotency class s and the characteristic p of A's field.

    ``cols[j][i]`` holds e_i.e_j as (out, n) pairs with n / den its
    coordinates (times ``unit`` over Q; ``unit`` is unused over GF(p));
    ``degree_den`` is E over Q and 1 over GF(p)."""

    __slots__ = ("cols", "p", "s", "degree_den")

    def __init__(self, rows, den, p, s, unit):
        unit = 1 if p else unit
        self.cols = [{} for _ in rows]
        for i, row in enumerate(rows):
            for j, pairs in row.items():
                self.cols[j][i] = tuple((o, n * unit) for o, n in pairs)
        self.p, self.s = p, s
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

    def bracket(self, x, y, cut, group):
        """[x, y] = x.y - y.x, cut at ``cut``; both factors are left
        factors, so both must have w = 1.  ``group(v)`` is ``_by_coord(v)``,
        which a caller that brackets one element many times can keep."""
        return _combine(self.product(group(x), y, cut), self.product(group(y), x, cut),
                        -1, self.p)

    def w_map(self, x, cut):
        """W(x) = x + series(x, x, 1), cut at ``cut``."""
        return _combine(x, self.series(_by_coord(x), x, 1, cut), 1, self.p)

    def exp_l(self, a, y, cut):
        """exp_L(a, y) = y + series(a, y, 0), cut at ``cut``."""
        return _combine(y, self.series(_by_coord(a), y, 0, cut), 1, self.p)

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
        """Omega at the generic element a = sum_i x_i e_i: the x with
        W(x) = x + series(x, x, 1) = a.

        Iteration t takes x <- a - series(x, x, 1) cut at degree t + 2:
        W - id has no term of degree < 2, so an error of degree > t in x
        moves W(x) - x only in degrees > t + 1, and x is exact below
        degree t + 2 after t steps.  It stops at the cut s - 1, as the
        star never reads Omega's degree s - 1 (times e_j, a product of s
        elements).  So W(x) = a below that cut on every nilpotent table,
        pre-Lie or not, and it is not checked again."""
        a = {((i,), i): 1 for i in range(d)}
        x = a
        for cut in range(3, self.s):
            x = _combine(a, self.series(_by_coord(x), x, 1, cut), -1, self.p)
        return x


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


def _combine(x, y, sign, p):
    """x + sign * y as a new element."""
    out = dict(x)
    _add(out, {key: sign * c for key, c in y.items()}, p)
    return out
