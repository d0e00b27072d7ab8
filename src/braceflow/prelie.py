"""Finite-dimensional pre-Lie algebras given by structure constants.

A pre-Lie (left-symmetric) algebra has a bilinear product whose
associator (xy)z - x(yz) is symmetric in x and y.  Structures accepted
here are additionally nilpotent: some power s exists with every product
of s elements equal to zero.  Both properties are verified at
construction unless explicitly disabled (used only to build deliberately
broken fixtures in tests).
"""

from .brace import SymmetricMap, map_products
from .errors import (CharacteristicTooSmall, DimensionMismatch,
                     PreconditionViolated, ValidationFailure, Violation)
from .linalg import Vec, strong_chain


class PreLieAlgebra:
    """Algebra on basis e_0..e_{d-1} whose product is stored as L_1.

    ``product`` is the arity-1 SymmetricMap with value e_i*e_j on
    ((i,), j): the form a GradedBrace uses for its degree-one map L_1,
    which is the limit product.  ``structure`` is either such a map or a
    sparse mapping {(i, j): {k: value}} giving e_i*e_j, which the map
    takes as it is; omitted products are zero.
    """

    __slots__ = ("field", "dim", "product", "basis_names", "_chain")

    def __init__(self, field, dim, structure, basis_names=None, validate=True):
        self.field = field
        self.dim = dim
        if not isinstance(structure, SymmetricMap):
            structure = SymmetricMap(field, dim, 1, {
                ((i,), j): out for (i, j), out in structure.items()})
        elif structure.arity != 1 or structure.field != field or structure.dim != dim:
            raise DimensionMismatch("product map has mismatched shape")
        self.product = structure
        self.basis_names = tuple(basis_names) if basis_names else tuple(
            f"e{i + 1}" for i in range(dim))
        if len(self.basis_names) != dim:
            raise DimensionMismatch("basis name count != dim")
        self._chain = None
        if validate:
            for _ in validation_stages(self):
                pass

    @property
    def nilpotency_class(self):
        """The class s of a nilpotent algebra; PreconditionViolated on an
        unvalidated algebra that is not nilpotent."""
        return len(nilpotency_chain(self))

    def basis_vector(self, i):
        return Vec.basis(self.field, self.dim, i)

    def multiply(self, x, y):
        """Bilinear product x*y: L_1(x; y), by the brace's star kernel."""
        return self.product.apply_diagonal(x, y)

    def lie_bracket(self, x, y):
        """[x, y] = x*y - y*x, the associated Lie bracket."""
        return self.multiply(x, y) - self.multiply(y, x)

    def structure_equal(self, other):
        return (isinstance(other, PreLieAlgebra) and other.field == self.field
                and other.dim == self.dim and other.product == self.product)

    def __repr__(self):
        return f"PreLieAlgebra(dim {self.dim} over {self.field})"


def validation_stages(alg):
    """Run the checks that admit ``alg`` to the correspondence, in order:
    pre-Lie identity, nilpotency (sets the class), characteristic above
    the class.  Yields one line per passed stage; raises at the first
    failure."""
    viol = check_prelie_identity(alg)
    if viol is not None:
        raise ValidationFailure(str(viol), viol)
    yield "pre-Lie identity: PASS"
    s = nilpotency_index(alg)
    if s is None:
        raise ValidationFailure("algebra is not nilpotent")
    yield f"nilpotent: class {s}"
    p = alg.field.characteristic
    if p and p <= s:
        raise CharacteristicTooSmall(
            f"characteristic {p} must exceed the nilpotency class {s}")


def check_prelie_identity(alg):
    """Exact check of (xy)z - x(yz) = (yx)z - y(xz) on all basis triples.

    Bilinearity makes the basis sweep sufficient for all elements.  The
    residual is antisymmetric in (i, j), so only i < j is swept.  Returns
    None on success, else a Violation at the first failing triple with
    residual (e_i e_j - e_j e_i)e_k - e_i(e_j e_k) + e_j(e_i e_k).  Every
    product is read off the nonzero coordinates of the table, taken once
    as ints n / den (``int_rows``).  Each pair (i, j) sums the residuals
    of every k at once, in ints over den^2 keyed by k * d + out: the
    first term from ``rows[o]`` for each o in e_i e_j - e_j e_i, the
    second from ``rows[j]`` then ``rows[i]``, the third from ``rows[i]``
    then ``rows[j]``.  The sums are compared mod p over GF(p), and the
    least k with a nonzero residual is the failing triple, the one a
    sweep by k finds first; its residual is the only one turned into
    scalars.  Only the j with a row or with e_i e_j nonzero are swept:
    for any other j every term vanishes.
    """
    field, d = alg.field, alg.dim
    rows, den = int_rows(alg)
    p = field.characteristic
    live = {i for i in range(d) if rows[i]}
    for i in range(d):
        row_i = rows[i]
        for j in sorted(j for j in live.union(row_i) if j > i):
            row_j = rows[j]
            w = dict(row_i.get(j, ()))  # e_i e_j - e_j e_i
            for o, c in row_j.get(i, ()):
                w[o] = w.get(o, 0) - c
            r = {}
            for o, c in w.items():  # (e_i e_j - e_j e_i) e_k
                if c:
                    for k, out in rows[o].items():
                        base = k * d
                        for t, x in out:
                            r[base + t] = r.get(base + t, 0) + c * x
            for c, outer, inner in ((-1, row_i, row_j), (1, row_j, row_i)):
                for k, mid in inner.items():  # -e_i(e_j e_k), then +e_j(e_i e_k)
                    base = k * d
                    for o, m in mid:
                        for t, x in outer.get(o, ()):
                            r[base + t] = r.get(base + t, 0) + c * m * x
            bad = [key for key, n in r.items() if (n % p if p else n)]
            if bad:
                k = min(bad) // d
                residual = Vec._trusted(field, field.from_ints(
                    [r.get(k * d + o, 0) for o in range(d)], den * den))
                return Violation("pre-Lie identity", (i, j, k), residual)
    return None


def int_rows(alg):
    """(rows, den): rows[i][j] holds the (out, n) pairs of e_i*e_j, absent
    when it is zero, with n / den its coordinates.  These are the
    product's compiled rows (``SymmetricMap._rows``): at arity 1 every
    multinomial is 1."""
    compiled, den, _ = alg.product._rows
    rows = [{} for _ in range(alg.dim)]
    for (i,), j, out in compiled:
        rows[i][j] = out
    return rows, den


def nilpotency_index(alg):
    """Smallest s with every product of s elements zero, or None.

    Computes the descending chain D_1 = A, D_i = span of all products
    D_j * D_{i-j} (0 < j < i), i.e. the span of all products of exactly
    i elements with any bracketing.  Each D_i lies in D_{i-1}, but the
    chain can stall and fall later, so building it up to D_{d+2} is a
    budget, not a theorem: the unvalidated table e1e1 = e2, e1e2 = e2e2 =
    e3, e2e3 = e3e3 = e4 has D_9 = 0 (class 9) and gets None.  A sound
    stop is the stall rule of ROADMAP.md (radical chains).  D_j * D_{i-j}
    is spanned from the support of the product table on ints, as the
    brace's radical chains are (a span does not change when a generator
    is scaled), into one echelon per term that stops at the dimension of
    the term before (``strong_chain``).  One ``map_products`` kernel
    reduces each product into that echelon as it is made, skips a
    product that lies on the echelon's unit rows before making it, reads
    a unit row's column map off the table and builds any other left
    row's once for the chain.  No basis is built.  The terms of a chain
    that vanishes are kept on alg (``nilpotency_chain``).
    """
    terms, s = strong_chain(alg.field, alg.dim, map_products(alg.field, [alg.product]),
                            alg.dim + 2)
    if s is not None:
        alg._chain = terms
    return s


def nilpotency_chain(alg):
    """The terms D_1, ..., D_s = 0 of ``nilpotency_index``'s chain, as
    ``Echelon`` rows {lead: row}: spanned once and kept on alg.
    PreconditionViolated if alg is not nilpotent."""
    if alg._chain is None and nilpotency_index(alg) is None:
        raise PreconditionViolated("algebra is not nilpotent")
    return alg._chain
