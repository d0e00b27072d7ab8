"""Finite-dimensional pre-Lie algebras given by structure constants,
and the chains of their product.

A pre-Lie (left-symmetric) algebra has a bilinear product whose
associator (xy)z - x(yz) is symmetric in x and y.  Structures accepted
here are additionally nilpotent: some power s exists with every product
of s elements equal to zero.  Both properties are verified at
construction unless explicitly disabled (used only to build deliberately
broken fixtures in tests).

Every chain the package spans is a chain of one product table, spanned
here: the strong chain, whose index is the class, and the left and
right chains, which with it are the radical chains of the flows brace
(``chain_report``), each term by one descent loop on one span kernel.
"""

from dataclasses import dataclass

from .brace import SymmetricMap
from .errors import (CharacteristicTooSmall, DimensionMismatch,
                     PreconditionViolated, ValidationFailure, Violation)
from .linalg import Echelon, Subspace, Vec, nonzero


class PreLieAlgebra:
    """Algebra on basis e_0..e_{d-1} whose product is stored as L_1.

    ``product`` is the arity-1 SymmetricMap with value e_i*e_j on
    ((i,), j): the form a GradedBrace uses for its degree-one map L_1,
    which is the limit product.  ``structure`` is either such a map or a
    sparse mapping {(i, j): {k: value}} giving e_i*e_j, which the map
    takes as it is; omitted products are zero.
    """

    __slots__ = ("field", "dim", "product", "basis_names", "_chain", "_kernel")

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
        self._chain = self._kernel = None
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
    """Smallest s with every product of s elements zero, or None: the
    index of the strong chain D_1 = A, D_i = span of all products
    D_j.D_{i-j} (0 < j < i), i.e. the span of all products of exactly i
    elements with any bracketing (``strong_chain``).  Each D_i lies in
    D_{i-1}, but the chain can stall and fall later, so building it up
    to D_{d+2} is a budget, not a theorem: the unvalidated table e1e1 =
    e2, e1e2 = e2e2 = e3, e2e3 = e3e3 = e4 has D_9 = 0 (class 9) and gets
    None.  A sound stop is the stall rule of ROADMAP.md (item 4).  The
    terms of a chain that vanishes are kept on alg
    (``nilpotency_chain``); the brace's radical chains are read off them
    (``chain_report``).
    """
    terms, s = strong_chain(alg)
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


def strong_chain(alg, _cap=None):
    """The chain D_1 = A, D_i = sum over 0 < j < i of the spans of the
    products D_j.D_{i-j}, up to its first zero term or D_c, c = d + 2
    (tests pass ``_cap`` as c to look further).  Terms are ``Echelon`` rows
    {lead: row}.  Returns (terms, 1-based index of the first zero term
    or None).

    Each term lies in the one before (D_2 is in D_1; by induction and
    monotonicity D_j.D_{i-j} lies in D_j.D_{i-1-j} for j < i-1, and
    D_{i-1}.D_1 in D_{i-2}.D_1), so all j reduce into one echelon capped
    at dim D_{i-1}, and a term that reaches it is D_{i-1} (``_descend``).

    Each pair of levels is counted once.  For j < i-1 the rows X_j of
    D_j whose lead is no lead of D_{j+1} span a complement of D_{j+1}
    (the leads of a subspace are leads of every subspace containing it),
    and a left from D_{j+1} gives products in D_{j+1}.D_{i-j}, inside
    D_{j+1}.D_{i-j-1}: so the lefts are X_j alone."""
    def levels(chain):
        i = len(chain) + 1
        for j in range(1, i):
            below = chain[j] if j < i - 1 else {}
            yield ([row for lead, row in chain[j - 1].items() if lead not in below],
                   chain[i - j - 1].values())

    chain = _descend(alg, [{i: {i: 1} for i in range(alg.dim)}], levels, _cap or alg.dim + 2)
    return chain, (None if chain[-1] else len(chain))


def _descend(alg, chain, levels, stop, strong=None):
    """``chain``, a list of ``Echelon`` terms {lead: row}, extended term
    by term up to its first zero term or its term number ``stop``, as a
    tuple; a chain that already ends there gains no term.  A new term is
    the span of the products u.y, for the left rows u and right rows y of
    each pair (lefts, rights) in ``levels(chain)``, made by alg's
    ``_SpanKernel``.  It lies in the term before, and in the term of its
    index of ``strong`` when given, so it is reduced into one echelon
    capped at the dimension of the smaller, and a span that reaches it is
    that term, the same object."""
    if alg._kernel is None:
        alg._kernel = _SpanKernel(alg)
    reduce = alg._kernel.reduce
    while chain[-1] and len(chain) < stop:
        cap = chain[-1]
        if strong and len(strong[len(chain)]) < len(cap):
            cap = strong[len(chain)]
        ech = Echelon(alg.field.characteristic, len(cap))
        reached = ech.at_cap() or any(lefts and reduce(ech, lefts, rights)
                                      for lefts, rights in levels(chain))
        chain.append(cap if reached else ech.rows)
    return tuple(chain)


class _SpanKernel:
    """The span kernel of an algebra's product, kept on the algebra.
    ``reduce(ech, lefts, rights)`` reduces into the ``Echelon`` ech the
    products u.y for the int rows u = {i: n} in ``lefts`` and y in
    ``rights``, each where it is made, and returns True once ech reaches
    its cap.  A span is unchanged when a generator is scaled, so a
    product is y sent through u's column map j -> u.e_j by y's nonzero
    entries, and for y = {j: n} it is column j itself.  ``rows[i]`` is
    e_i's map, read off ``int_rows`` with each column a dict {out: n}, so
    that a product whose every coordinate is the lead of a unit row of
    ech, and so lies in its span, is skipped before it is built.  The
    map of any other left row is built by ``column_map`` and kept in
    ``row_maps`` {id(u): (u, map)} for as long as the algebra lives:
    keeping u keeps its id from being reused, and a row must not change
    once passed.  Echelon rows never do, and the chains pass the rows of
    their terms again at later levels, so each row's map is built once
    per algebra, for its strong and one-sided chains alike.
    """

    __slots__ = ("rows", "row_maps")

    def __init__(self, alg):
        self.rows = [{j: dict(out) for j, out in row.items()} for row in int_rows(alg)[0]]
        self.row_maps = {}

    def reduce(self, ech, lefts, rights):
        p, units, row_maps = ech.p, ech.units, self.row_maps
        singles = [j for y in rights if len(y) == 1 for j in y]
        others = [y for y in rights if len(y) > 1]
        for u in lefts:
            if len(u) == 1:
                (i,) = u
                cols = self.rows[i]
            else:
                hit = row_maps.get(id(u))
                if hit is None:
                    hit = row_maps[id(u)] = (u, self.column_map(u, p))
                cols = hit[1]
            if not cols:
                continue
            for j in singles:
                col = cols.get(j)
                if col is not None and not units.issuperset(col) and ech.add(dict(col)):
                    return True
            for y in others:
                parts = [(cols[j], w) for j, w in y.items() if j in cols]
                if all(units.issuperset(col) for col, _ in parts):
                    continue
                g = {}
                for col, w in parts:
                    for o, v in col.items():
                        g[o] = g.get(o, 0) + w * v
                if ech.add(nonzero(g, p)):
                    return True
        return False

    def column_map(self, u, p):
        """{j: u.e_j} for the int row u = {i: n}, each column a sparse
        int row {out: n} with its entries nonzero and reduced mod p, and
        no column empty."""
        cols = {}
        for i, x in u.items():
            for j, out in self.rows[i].items():
                col = cols.setdefault(j, {})
                for o, n in out.items():
                    col[o] = col.get(o, 0) + x * n
        return {j: col for j, c in cols.items() if (col := nonzero(c, p))}


@dataclass(frozen=True)
class ChainReport:
    """The three descending radical chains of a brace, each a tuple of
    ``Subspace``s from the full space down to zero.  A chain's
    nilpotency index, the position of its first zero term (1-based), is
    its length."""

    left: tuple
    right: tuple
    strong: tuple

    left_index = property(lambda self: len(self.left))
    right_index = property(lambda self: len(self.right))
    strong_index = property(lambda self: len(self.strong))

    def dims(self, chain):
        return tuple(s.dim for s in chain)

    def lines(self):
        """One line per chain: its dimensions and its nilpotency index."""
        for name, chain, label in (("left", self.left, "nilpotent"),
                                   ("right", self.right, "nilpotent"),
                                   ("strong", self.strong, "strongly nilpotent")):
            dims = ",".join(str(d) for d in self.dims(chain))
            yield f"{name}: {dims} {label} index {len(chain)}"


def chain_report(alg):
    """The radical chains of ``to_brace(alg)``, read off alg's table: the
    left chain A^{i+1} = A.A^i, the right chain A^(i+1) = A^(i).A and the
    strong chain D_1, ..., D_s = 0 of its products a.b, which are the
    chains of the stars star(a, b); the strong chain is the one validating
    alg kept (``nilpotency_chain``).  PreconditionViolated if alg is not
    nilpotent.

    Proof that the chains of the products and of the stars are equal,
    for alg nilpotent of class s over a field of characteristic p = 0 or
    p > s.  Write U.V for the span of the products u.v and U*V for the
    span of the stars star(u, v) of the flows brace, u in U and v in V.
    A product of k + 1 elements is zero for k >= s - 1, so star(x, y) =
    exp_L(Omega(x), y) - y = sum_{k=1}^{s-2} L_{Omega(x)}^k y / k!, and
    every k! here and in W is a unit, as k < p.

    Lemma.  If U, V are subspaces with U.U ⊆ U and U.V ⊆ V, then
    U*V = U.V.  Every product of copies of an x in U lies in U: one of
    m >= 2 factors is u.v, u and v products of fewer copies.  W(x) is x
    plus a combination of such products, and so is Omega(x), the fixed
    point of x' <- x - (W(x') - x') started at x; so both lie in U.
    (⊆) L_{Omega(x)}^{k-1} y lies in V by U.V ⊆ V, so each term of
    star(x, y) lies in Omega(x).V ⊆ U.V.  (⊇) For x in U, y in V and t in
    F, W(tx) lies in U and Omega(W(tx)) = tx, so U*V holds
    star(W(tx), y) = sum_{k=1}^{s-2} t^k c_k with c_k = L_x^k y / k!.
    The s - 2 nodes t = 1, ..., s - 2 are distinct and nonzero, as
    s - 2 < p, so the matrix (t^k) is t times a Vandermonde matrix,
    invertible, and c_1 = x.y is a combination of the values.  (For
    s <= 2 every product and every star is 0.)

    The chains, by induction on the term, the brace's and the table's
    terms being equal before it:
    - left, A^{i+1} = A * A^i: U = A, V = A^i.  A.A ⊆ A, and
      A.A^i = A^{i+1} ⊆ A^i, since A^2 ⊆ A^1 and A^{i+1} ⊆ A^i gives
      A.A^{i+1} ⊆ A.A^i.
    - right, A^(i+1) = A^(i) * A: U = A^(i), V = A.  U.V ⊆ A, and
      U.U ⊆ U.A = A^(i+1) ⊆ U, by the same descent.
    - strong, D_i = sum_{0<j<i} D_j * D_{i-j}: U = D_j, V = D_{i-j}.
      D_j.D_j ⊆ D_{2j} ⊆ D_j and D_j.D_{i-j} ⊆ D_i ⊆ D_{i-j}, by the
      definition and the descent of ``strong_chain``.
    Each term is the span of products of the terms before it, and a
    Subspace is its canonical echelon rows, so the two reports agree term
    by term, indices included.  The strong chain is the one
    ``nilpotency_index`` takes, so its index is s.

    Each one-sided step spans within the smaller of the term before and
    the strong term of its index, and a span that reaches the dimension
    of a subspace containing it is that subspace.  Proof that both
    contain it.  The product span U.V is monotone in U and in V, and
    D_{i+1} = sum_{0<j<i+1} D_j.D_{i+1-j} holds D_1.D_i (j = 1) and
    D_i.D_1 (j = i).  So by induction on i, from A^1 = A^(1) = A = D_1:
    A^{i+1} = A.A^i ⊆ D_1.D_i ⊆ D_{i+1}, and
    A^(i+1) = A^(i).A ⊆ D_i.D_1 ⊆ D_{i+1}.  Each chain descends:
    A^2 ⊆ A, and A^{i+1} ⊆ A^i gives A.A^{i+1} ⊆ A.A^i; likewise on
    the right.  Where a one-sided chain coincides with the strong chain
    its steps stop at D_{i+1}.  A chain is zero where the strong chain
    is, so each one reaches zero within s terms, and a nonzero term has
    a strong term after it.

    The slot that runs over all of A takes first the rows X_1 of D_1
    whose lead is no lead of D_2, then the rest, which span D_2.  The
    products with D_2 lie in D_2.A^i or A^(i).D_2, inside D_{i+2}
    (the j = 2 or j = i summand), which lies in D_{i+1}; so the products
    with X_1 are the ones that reach a cap D_{i+1} first.  Every product
    is still taken until a cap is reached.  All three chains span on
    alg's one span kernel, so a left row's column map is built once for
    the algebra.
    """
    field, d = alg.field, alg.dim
    terms = nilpotency_chain(alg)
    # the unit rows of D_1, X_1 first
    full = [row for _, row in sorted(terms[0].items(), key=lambda item: item[0] in terms[1])]

    left, right = (_descend(alg, [terms[0]], levels, len(terms), terms) for levels in (
        lambda chain: [(full, chain[-1].values())],
        lambda chain: [(chain[-1].values(), full)]))
    strong = {id(t): Subspace.of_echelon(field, d, t) for t in terms}  # a capped step's term
    return ChainReport(*(tuple(strong.get(id(t)) or Subspace.of_echelon(field, d, t)
                               for t in chain) for chain in (left, right, terms)))
