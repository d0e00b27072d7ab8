"""Exact linear algebra over a ScalarField: dense vectors and matrices,
and subspaces held as sparse int echelons.

Everything is immutable after construction and all operations are pure.

Every ``Vec`` holds canonical scalars of its field (``Fraction`` over Q,
``Fp`` residues of the field's prime over GF(p)).  The public
constructor ``Vec(field, entries)`` coerces each entry through
``ScalarField.of``, so it accepts ints, strings and foreign input.
Field arithmetic on canonical scalars yields canonical scalars, so the
results of vector arithmetic are wrapped by ``Vec._trusted`` without
coercing them again.  The structure-constant kernels (the brace star,
``PreLieAlgebra.multiply``, brace validation) run on Python ints
instead: ``ScalarField.to_ints`` turns a vector into residues, or into
numerators over one common denominator, and ``ScalarField.from_ints``
builds the canonical scalars of the result.

There is one row reduction, on ints: each row is scaled to ints on its
own, a scaling that leaves its span unchanged, and reduced as it arrives
into an ``Echelon`` of sparse int rows, fraction-free in the manner of
Bareiss.  A ``Subspace`` is its reduced echelon rows and nothing else;
the rows are canonical, so equal subspaces compare and hash equal, and
the basis of field vectors is derived from them when read.  Matrix
inversion and interpolation row-reduce their augmented matrix as a
``Subspace``.
"""

import math

from .errors import CharacteristicTooSmall, DimensionMismatch, FieldMismatch


class Vec:
    """Immutable coordinate vector over a ScalarField.

    ``Vec(field, entries)`` coerces every entry into a canonical scalar of
    ``field``; use it for anything that comes from outside the library.
    ``Vec._trusted(field, entries)`` takes a tuple whose entries already
    are canonical scalars of ``field`` (the result of field arithmetic on
    such scalars) as it is.
    """

    __slots__ = ("field", "entries")

    def __init__(self, field, entries):
        self.field = field
        self.entries = tuple(field.of(e) for e in entries)

    @classmethod
    def _trusted(cls, field, entries):
        v = object.__new__(cls)
        v.field = field
        v.entries = entries
        return v

    @classmethod
    def zero(cls, field, dim):
        return cls._trusted(field, (field.zero,) * dim)

    @classmethod
    def basis(cls, field, dim, i):
        z, o = field.zero, field.one
        return cls._trusted(field, tuple(o if k == i else z for k in range(dim)))

    @property
    def dim(self):
        return len(self.entries)

    def is_zero(self):
        return not any(self.entries)

    def _check(self, other):
        if not isinstance(other, Vec):
            raise TypeError(f"expected Vec, got {type(other).__name__}")
        if other.field != self.field:
            raise FieldMismatch(f"{self.field} vs {other.field}")
        if len(other.entries) != len(self.entries):
            raise DimensionMismatch(f"{len(self.entries)} vs {len(other.entries)}")

    def __add__(self, other):
        self._check(other)
        return Vec._trusted(self.field, tuple(  # no arithmetic with a zero side
            a + b if a and b else a or b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other):
        self._check(other)
        return Vec._trusted(self.field, tuple(
            a - b if b else a for a, b in zip(self.entries, other.entries)))

    def __neg__(self):
        return Vec._trusted(self.field, tuple(-a for a in self.entries))

    def __mul__(self, scalar):
        c = self.field.of(scalar)
        return Vec._trusted(self.field, tuple(a * c for a in self.entries))

    __rmul__ = __mul__

    def __getitem__(self, i):
        return self.entries[i]

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)

    def __eq__(self, other):
        return (isinstance(other, Vec) and other.field == self.field
                and other.entries == self.entries)

    def __hash__(self):
        return hash((self.field, self.entries))

    def __repr__(self):
        return "(" + ", ".join(self.field.to_str(e) for e in self.entries) + ")"


class Mat:
    """Immutable dense matrix over a ScalarField."""

    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field, rows):
        self.field = field
        self.rows = tuple(tuple(field.of(e) for e in row) for row in rows)
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        if any(len(r) != self.ncols for r in self.rows):
            raise DimensionMismatch("ragged rows")

    def entry(self, i, j):
        return self.rows[i][j]

    def __mul__(self, scalar):
        c = self.field.of(scalar)
        return Mat(self.field, tuple(tuple(a * c for a in row) for row in self.rows))

    def inverse(self):
        """Exact inverse: the row space of [self | I] has the reduced basis
        [I | self^-1]; raises unless its leads are the first n columns."""
        n, field = self.nrows, self.field
        if n != self.ncols:
            raise DimensionMismatch("inverse of non-square matrix")
        aug = Subspace(field, 2 * n, [Vec._trusted(field, row + Vec.basis(field, n, i).entries)
                                      for i, row in enumerate(self.rows)])
        if any(min(row) >= n for row in aug.rows):
            raise ZeroDivisionError("singular matrix")
        return Mat(field, tuple(v.entries[n:] for v in aug.basis))

    def is_upper_triangular(self):
        return all(not self.rows[i][j] for i in range(self.nrows) for j in range(min(i, self.ncols)))

    def diagonal(self):
        return tuple(self.rows[i][i] for i in range(min(self.nrows, self.ncols)))

    def __repr__(self):
        return "[" + "; ".join(
            " ".join(self.field.to_str(e) for e in row) for row in self.rows) + "]"


def nonzero(row, p):
    """The sparse int row {col: n} without its entries that are zero in
    the field of characteristic p (reduced mod p when p is a prime)."""
    if p:
        return {c: r for c, n in row.items() if (r := n % p)}
    return {c: n for c, n in row.items() if n}


def _eliminate(row, piv, c, p):
    """Clear column c of the int row ``row`` by ``piv``, in place: row
    becomes a * row - b * piv with b / a = row[c] / piv[c] in lowest
    terms, reduced mod p over GF(p), without its zero entries.  Over
    GF(p) a pivot's lead is 1, so a = 1."""
    g = math.gcd(piv[c], row[c])
    a, b = piv[c] // g, row[c] // g
    if a != 1:
        for o in row:
            row[o] *= a
    for o, n in piv.items():
        v = row.get(o, 0) - b * n
        if p:
            v %= p
        if v:
            row[o] = v
        else:
            del row[o]
    return row


def _normalized(row, p):
    """The nonzero int row ``row`` scaled to lead 1 over GF(p), and to
    primitive ints with a positive lead over Q."""
    lead = row[min(row)]
    if p:
        inv = pow(lead, -1, p)
        return {c: n * inv % p for c, n in row.items()}
    g = math.gcd(*row.values()) * (1 if lead > 0 else -1)
    return {c: n // g for c, n in row.items()}


class Echelon:
    """Reduced row echelon form of sparse int rows over GF(p) (p a prime)
    or Q (p = 0).

    ``rows`` maps each lead column to its ``_normalized`` row {col: n}:
    nonzero entries only, none left of the lead and none at another
    row's lead.  ``units`` is the set of leads whose row is the unit row
    {lead: 1}; a row whose every entry is at such a lead lies in the
    span.  A unit row stays one: a new row is reduced at its leads
    first.  ``cap`` is the dimension of a subspace known to contain the
    span; once the echelon reaches it the span is that subspace and
    ``extend`` stops reading.
    """

    __slots__ = ("p", "cap", "rows", "units")

    def __init__(self, p, cap):
        self.p, self.cap, self.rows, self.units = p, cap, {}, set()

    def at_cap(self):
        """Whether the echelon has reached its cap."""
        return len(self.rows) >= self.cap

    def add(self, row):
        """Reduce the int row {col: n}, at any nonzero scale, with its
        entries nonzero and reduced mod p, into the echelon, and keep it
        unless it reduces to zero.  The row is taken over and changed.
        Returns whether the echelon reached its cap."""
        p, ech = self.p, self.rows
        for c in [c for c in row if c in ech]:
            piv = ech[c]
            if len(piv) == 1:
                del row[c]
            else:
                _eliminate(row, piv, c, p)
        if not row:
            return False
        row = _normalized(row, p)
        lead = min(row)
        units = self.units
        for c, q in ech.items():
            if lead in q:
                q = _eliminate(dict(q), row, lead, p)
                if not p:  # over GF(p) q's lead, left of lead, stays 1
                    q = _normalized(q, p)
                ech[c] = q
                if len(q) == 1:
                    units.add(c)
        ech[lead] = row
        if len(row) == 1:
            units.add(lead)
        return len(ech) >= self.cap

    def extend(self, rows):
        """``add`` a copy of each int row {col: n}, not yet reduced mod p,
        as it arrives.  Returns whether the echelon reached its cap."""
        p = self.p
        return self.at_cap() or any(self.add(nonzero(row, p)) for row in rows)


class Subspace:
    """Linear subspace of F^ambient_dim, held in one canonical form.

    ``rows`` are the rows of its reduced ``Echelon``, sparse int rows
    {col: n} in order of their leads: lead 1 over GF(p), primitive ints
    with a positive lead over Q.  Equality and hashing read them.  The
    canonical basis of ``Vec``s (the reduced row-echelon basis, each lead
    1) is derived from them when read."""

    __slots__ = ("field", "ambient_dim", "rows")

    def __init__(self, field, ambient_dim, vectors=()):
        self.field = field
        self.ambient_dim = ambient_dim
        rows = []
        for v in vectors:
            if v.field != field:
                raise FieldMismatch(f"{field} vs {v.field}")
            if v.dim != ambient_dim:
                raise DimensionMismatch(f"{ambient_dim} vs {v.dim}")
            rows.append({c: n for c, n in enumerate(field.to_ints(v.entries)[0]) if n})
        ech = Echelon(field.characteristic, ambient_dim)
        ech.extend(rows)
        self.rows = tuple(ech.rows[lead] for lead in sorted(ech.rows))

    @classmethod
    def of_echelon(cls, field, ambient_dim, rows):
        """The span of an ``Echelon``'s rows {lead: row}, kept as they are."""
        sub = object.__new__(cls)
        sub.field, sub.ambient_dim = field, ambient_dim
        sub.rows = tuple(rows[lead] for lead in sorted(rows))
        return sub

    @classmethod
    def full(cls, field, dim):
        return cls.of_echelon(field, dim, {i: {i: 1} for i in range(dim)})

    @property
    def basis(self):
        """The reduced row-echelon basis: each row divided by its lead."""
        field, d = self.field, self.ambient_dim
        return tuple(Vec._trusted(field, field.from_ints(
            [row.get(c, 0) for c in range(d)], row[min(row)])) for row in self.rows)

    @property
    def dim(self):
        return len(self.rows)

    def is_zero(self):
        return not self.rows

    def __eq__(self, other):
        return (isinstance(other, Subspace) and other.field == self.field
                and other.ambient_dim == self.ambient_dim and other.rows == self.rows)

    def __hash__(self):
        return hash((self.field, self.ambient_dim,
                     tuple(tuple(sorted(row.items())) for row in self.rows)))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.ambient_dim})"


def span(vectors, field=None, dim=None):
    """Canonical echelon span of the given vectors.

    For an empty collection the field and ambient dimension must be
    passed explicitly.
    """
    vectors = list(vectors)
    if vectors:
        first = vectors[0]
        field = field or first.field
        dim = dim if dim is not None else first.dim
    elif field is None or dim is None:
        raise ValueError("empty span needs explicit field and dim")
    return Subspace(field, dim, vectors)


def strong_chain(field, dim, products, cap):
    """The chain D_1 = F^dim, D_i = sum over 0 < j < i of the spans of
    products(D_j, D_{i-j}), for i <= cap.  Terms are ``Echelon`` rows
    {lead: row}, and ``products(ech, lefts, rights, fresh)`` reduces into
    the ``Echelon`` ech int rows spanning the product of two terms' rows,
    only from the left multisets with a slot among the first ``fresh``
    lefts, and returns whether ech reached its cap.  Each term lies in
    the one before (D_2 is in D_1; by induction and monotonicity
    D_j*D_{i-j} lies in D_j*D_{i-1-j} for j < i-1, and D_{i-1}*D_1 in
    D_{i-2}*D_1), so all j reduce into one echelon capped at dim D_{i-1},
    and a term that reaches it is D_{i-1}.

    Each pair of levels is counted once.  For j < i-1 the rows X_j of
    D_j whose lead is no lead of D_{j+1} span a complement of D_{j+1}
    (the leads of a subspace are leads of every subspace containing it),
    and a multiset from D_{j+1} alone gives products in
    D_{j+1}*D_{i-j}, inside D_{j+1}*D_{i-j-1}: so the lefts are X_j then
    D_{j+1}, and only the multisets with a slot in X_j are taken.
    Returns (terms, 1-based index of the first zero term or None)."""
    chain = [{i: {i: 1} for i in range(dim)}]

    def level(ech, i, j):
        below = chain[j] if j < i - 1 else {}
        lefts = [row for lead, row in chain[j - 1].items() if lead not in below]
        fresh = len(lefts)
        lefts += below.values()
        return fresh and products(ech, lefts, chain[i - j - 1].values(), fresh)

    for i in range(2, cap + 1):
        ech = Echelon(field.characteristic, len(chain[-1]))
        if any(level(ech, i, j) for j in range(1, i)):
            chain.append(chain[-1])
        else:
            chain.append(ech.rows)
        if not chain[-1]:
            return tuple(chain), i
    return tuple(chain), None


def polynomial_curve_coefficients(curve, field, degree_bound):
    """Exact coefficient vectors c_0..c_degree_bound of the polynomial
    curve t -> sum_k c_k t^k, by one Vandermonde solve on its values at
    the nodes 2^-k over Q and 1..degree_bound+1 over GF(p), which raises
    CharacteristicTooSmall unless p is above them."""
    if field.characteristic == 0:
        nodes = [field.one / field.of(2 ** k) for k in range(degree_bound + 1)]
    elif degree_bound + 1 >= field.characteristic:
        raise CharacteristicTooSmall(
            f"need {degree_bound + 1} distinct nonzero nodes in {field}")
    else:
        nodes = [field.of(k) for k in range(1, degree_bound + 2)]
    n = degree_bound + 1
    aug = []
    for t in nodes:
        powers = [field.one]
        for _ in range(degree_bound):
            powers.append(powers[-1] * t)
        aug.append(Vec._trusted(field, tuple(powers) + curve(t).entries))
    solved = Subspace(field, len(aug[0]), aug)
    assert [min(row) for row in solved.rows] == list(range(n)), \
        "Vandermonde system must be nonsingular"
    return [Vec._trusted(field, v.entries[n:]) for v in solved.basis]
