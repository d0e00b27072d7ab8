"""Finite-dimensional pre-Lie algebras given by structure constants.

A pre-Lie (left-symmetric) algebra has a bilinear product whose
associator (xy)z - x(yz) is symmetric in x and y.  Structures accepted
here are additionally nilpotent: some power s exists with every product
of s elements equal to zero.  Both properties are verified at
construction unless explicitly disabled (used only to build deliberately
broken fixtures in tests).
"""

from .errors import (CharacteristicTooSmall, DimensionMismatch, FieldMismatch,
                     ValidationFailure, Violation)
from .linalg import Subspace, Vec, strong_chain


class PreLieAlgebra:
    """Algebra on basis e_0..e_{d-1} with products e_i*e_j stored as vectors.

    ``structure`` is a sparse mapping {(i, j): {k: value}} or
    {(i, j): Vec} giving e_i*e_j; omitted products are zero.
    """

    __slots__ = ("field", "dim", "products", "basis_names", "_pairs", "_class")

    def __init__(self, field, dim, structure, basis_names=None, validate=True):
        self.field = field
        self.dim = dim
        zero = Vec.zero(field, dim)
        table = [[zero] * dim for _ in range(dim)]
        for (i, j), out in structure.items():
            if not (0 <= i < dim and 0 <= j < dim):
                raise DimensionMismatch(f"product index ({i},{j}) out of range")
            if isinstance(out, Vec):
                v = out
            else:
                ent = [field.zero] * dim
                for k, val in out.items():
                    if not 0 <= k < dim:
                        raise DimensionMismatch(f"output index {k} out of range")
                    ent[k] = field.of(val)
                v = Vec(field, ent)
            if v.dim != dim:
                raise DimensionMismatch("product vector has wrong dimension")
            table[i][j] = v
        self.products = tuple(tuple(row) for row in table)
        self.basis_names = tuple(basis_names) if basis_names else tuple(
            f"e{i + 1}" for i in range(dim))
        if len(self.basis_names) != dim:
            raise DimensionMismatch("basis name count != dim")
        self._pairs = tuple(
            (i, j, tuple((k, c) for k, c in enumerate(self.products[i][j]) if c))
            for i in range(dim) for j in range(dim) if not self.products[i][j].is_zero())
        self._class = None
        if validate:
            for _ in validation_stages(self):
                pass

    @classmethod
    def zero(cls, field, dim, basis_names=None):
        return cls(field, dim, {}, basis_names)

    @property
    def nilpotency_class(self):
        if self._class is None:
            self._class = nilpotency_index(self)
        return self._class

    def basis_vector(self, i):
        return Vec.basis(self.field, self.dim, i)

    def _check_vec(self, v):
        if not isinstance(v, Vec) or v.field != self.field:
            raise FieldMismatch(f"expected Vec over {self.field}")
        if v.dim != self.dim:
            raise DimensionMismatch(f"dim {self.dim} vs {v.dim}")

    def multiply(self, x, y):
        """Bilinear product x*y from the structure constants."""
        self._check_vec(x)
        self._check_vec(y)
        acc = [self.field.zero] * self.dim
        xs, ys = x.entries, y.entries
        for i, j, out in self._pairs:
            if xs[i] and ys[j]:
                c = xs[i] * ys[j]
                for k, val in out:
                    acc[k] = acc[k] + c * val
        return Vec._trusted(self.field, tuple(acc))

    def lie_bracket(self, x, y):
        """[x, y] = x*y - y*x, the associated Lie bracket."""
        return self.multiply(x, y) - self.multiply(y, x)

    def structure_equal(self, other):
        return (isinstance(other, PreLieAlgebra) and other.field == self.field
                and other.dim == self.dim and other.products == self.products)

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
    alg._class = s
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
    residual (e_i e_j - e_j e_i)e_k - e_i(e_j e_k) + e_j(e_i e_k).
    """
    d = alg.dim
    basis = [alg.basis_vector(i) for i in range(d)]
    for i in range(d):
        for j in range(i + 1, d):
            commutator = alg.products[i][j] - alg.products[j][i]
            for k in range(d):
                r = (alg.multiply(commutator, basis[k])
                     - alg.multiply(basis[i], alg.products[j][k])
                     + alg.multiply(basis[j], alg.products[i][k]))
                if not r.is_zero():
                    return Violation("pre-Lie identity", (i, j, k), r)
    return None


def nilpotency_index(alg):
    """Smallest s with every product of s elements zero, or None.

    Computes the descending chain D_1 = A, D_i = span of all products
    D_j * D_{i-j} (0 < j < i), i.e. the span of all products of exactly
    i elements with any bracketing.  The chain is monotone, so for a
    nilpotent algebra it reaches zero within d+1 steps; it is built up
    to D_{d+2} before giving up.
    """
    def products(left, right):
        return (alg.multiply(u, v) for u in left.basis for v in right.basis)

    return strong_chain(Subspace.full(alg.field, alg.dim), products, alg.dim + 2)[1]
