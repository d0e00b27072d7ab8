"""Strongly nilpotent braces on a coordinate space.

The star operation a*b = a∘b - a - b is stored as a graded family of
multilinear maps: for each k >= 1 a map with k symmetric "left" slots
and one "right" slot, so that star(a, b) = sum_k L_k(a, ..., a; b).
This form is closed under both directions of the correspondence with
pre-Lie algebras, and makes linearity of the star in its right argument
(the F-brace axiom) structural.  A brace is admitted as the flows
brace of its L_1 (``validation_stages``); its radical chains are then
the chains of L_1's product, spanned in ``prelie`` (``radical_chains``).
"""

import itertools
import math

from .errors import (CharacteristicTooSmall, ConvergenceFailure, DimensionMismatch,
                     FieldMismatch, PreconditionViolated, ValidationFailure,
                     Violation)
from .linalg import Vec, nonzero


def _multinomial(k, counts):
    out = 1
    for i in range(2, k + 1):
        out *= i
    for c in counts:
        for i in range(2, c + 1):
            out //= i
    return out


class SymmetricMap:
    """Multilinear map with ``arity`` symmetric left slots and one right slot.

    Stored as one int table: ``_ints[(i_1 <= ... <= i_k, j)]`` holds the
    value on (e_{i_1}, ..., e_{i_k}; e_j) as its nonzero (out, n) pairs,
    sorted by out, each coordinate n / ``_den``.  Sorted keys make
    left-slot symmetry structural.  The pair is canonical, so equal maps
    have equal tables: over GF(p) n is the residue and den is 1, over Q
    den is the lcm of the values' denominators in lowest terms.  A value
    is given as a Vec, a dense sequence or a mapping {out: c}, and values
    given twice for one key are added; ``_of_ints`` takes ints instead.

    The rest is read off the int table.  ``_rows`` = (rows, den, top)
    compiles it for diagonal evaluation: rows (tup, j, ((out, n * m), ...))
    in table order, m the multinomial counting the arrangements of tup,
    dropped where m is zero in the field; ``top`` is ``arity``.
    ``table``, the scalar (out, c) pairs of each key, is built from the
    ints when first read.
    """

    __slots__ = ("field", "dim", "arity", "_ints", "_den", "_rows", "_table")

    def __init__(self, field, dim, arity, entries=()):
        table = {}
        items = entries.items() if isinstance(entries, dict) else entries
        for (tup, j), val in items:
            tup = tuple(sorted(tup))
            if len(tup) != arity:
                raise DimensionMismatch(f"left tuple {tup} has arity != {arity}")
            if any(not 0 <= i < dim for i in tup) or not 0 <= j < dim:
                raise DimensionMismatch(f"index out of range in ({tup}, {j})")
            if isinstance(val, dict):
                if any(not 0 <= out < dim for out in val):
                    raise DimensionMismatch(f"output index out of range in {val}")
                coords = [(out, field.of(c)) for out, c in val.items()]
            else:
                v = val if isinstance(val, Vec) else Vec(field, val)
                if v.field != field:
                    raise FieldMismatch(f"value over {v.field} in a map over {field}")
                if v.dim != dim:
                    raise DimensionMismatch(f"value of dim {v.dim} in a map of dim {dim}")
                coords = enumerate(v.entries)
            row = table.setdefault((tup, j), {})
            for out, c in coords:
                row[out] = row[out] + c if out in row else c
        table = {key: pairs for key, row in table.items()
                 if (pairs := sorted((o, c) for o, c in row.items() if c))}
        ints, den = field.to_ints([c for pairs in table.values() for _, c in pairs])
        ints = iter(ints)
        self._set(field, dim, arity, {key: tuple((o, next(ints)) for o, _ in pairs)
                                      for key, pairs in table.items()}, den)

    @classmethod
    def _of_ints(cls, field, dim, arity, ints, den):
        """The map with coordinate n / den at each (out, n) of ints[key],
        built with no scalar: sorted left tuples in range, pairs sorted by
        out with n nonzero in the field, den > 0 and prime to p."""
        lam = object.__new__(cls)
        lam._set(field, dim, arity, ints, den)
        return lam

    def _set(self, field, dim, arity, ints, den):
        """Keep ints over den, made canonical (over GF(p) times 1/den mod p,
        over Q divided by the gcd of den and every n), and compile the rows."""
        p = field.characteristic
        if den != 1:
            if p:
                inv, den = pow(den, -1, p), 1
                ints = {key: tuple((o, n * inv % p) for o, n in pairs)
                        for key, pairs in ints.items()}
            elif (g := math.gcd(den, *(n for pairs in ints.values() for _, n in pairs))) > 1:
                den //= g
                ints = {key: tuple((o, n // g) for o, n in pairs) for key, pairs in ints.items()}
        self.field, self.dim, self.arity = field, dim, arity
        self._ints, self._den, rows = ints, den, []
        for (tup, j), pairs in ints.items():
            m = _multinomial(arity, [tup.count(i) for i in set(tup)])
            if p:
                m %= p
                if not m:  # p divides the multinomial
                    continue
            rows.append((tup, j, pairs if m == 1 else
                         tuple((o, n * m % p if p else n * m) for o, n in pairs)))
        self._rows = (tuple(rows), den, arity)
        self._table = None

    @property
    def table(self):
        """{(tup, j): ((out, c), ...)}: the table's scalars, built once."""
        if self._table is None:
            field, den = self.field, self._den
            self._table = {key: tuple(zip((o for o, _ in pairs),
                                          field.from_ints([n for _, n in pairs], den)))
                           for key, pairs in self._ints.items()}
        return self._table

    def is_zero(self):
        return not self._ints

    def value(self, tup, j):
        coords = dict(self.table.get((tuple(sorted(tup)), j), ()))
        return Vec._trusted(self.field, tuple(coords.get(o, self.field.zero)
                                              for o in range(self.dim)))

    def apply(self, lefts, right):
        """Full multilinear evaluation on arbitrary vectors."""
        if len(lefts) != self.arity:
            raise DimensionMismatch(f"expected {self.arity} left arguments")
        acc = [self.field.zero] * self.dim
        for (tup, j), pairs in self.table.items():
            w = right.entries[j]
            if not w:
                continue
            coeff = self.field.zero
            for arrangement in set(itertools.permutations(tup)):
                prod = w
                for v, idx in zip(lefts, arrangement):
                    prod = prod * v.entries[idx]
                    if not prod:
                        break
                else:
                    coeff = coeff + prod
            if coeff:
                for k, c in pairs:
                    acc[k] = acc[k] + coeff * c
        return Vec._trusted(self.field, tuple(acc))

    def apply_diagonal(self, a, b):
        """Evaluation with every left slot equal to a."""
        _check_vec(self, a)
        _check_vec(self, b)
        return _diagonal(self.field, self.dim, self._rows, a, b)

    def __eq__(self, other):
        return (isinstance(other, SymmetricMap) and other.field == self.field
                and other.dim == self.dim and other.arity == self.arity
                and other._den == self._den and other._ints == self._ints)

    def __hash__(self):
        return hash((self.field, self.dim, self.arity, self._den,
                     tuple(sorted(self._ints.items()))))

    def __repr__(self):
        return f"SymmetricMap(arity {self.arity}, {len(self._ints)} entries)"


def _check_vec(owner, v):
    """Raise unless v is a Vec over owner's field of owner's dim."""
    if not isinstance(v, Vec) or v.field != owner.field:
        raise FieldMismatch(f"expected Vec over {owner.field}")
    if v.dim != owner.dim:
        raise DimensionMismatch(f"dim {owner.dim} vs {v.dim}")


def _diagonal(field, dim, compiled, a, b):
    """sum over the compiled rows (tup, j, out) of b_j * prod_{i in tup} a_i
    * out for the Vecs a and b, as a Vec.  On a's and b's ints over da and
    db, a row of arity k is scaled by da^(top - k), so every row shares the
    denominator den * db * da^top."""
    rows, den, top = compiled
    a, da = field.to_ints(a.entries)
    b, db = field.to_ints(b.entries)
    lift = [da ** (top - k) for k in range(top + 1)] if da != 1 else None
    acc = [0] * dim
    for tup, j, out in rows:
        coeff = b[j]
        if not coeff:
            continue
        for idx in tup:
            x = a[idx]
            if not x:
                break
            coeff *= x
        else:
            if lift:
                coeff *= lift[len(tup)]
            for k, n in out:
                acc[k] += coeff * n
    return Vec._trusted(field, field.from_ints(acc, den * db * da ** top))


def _merge_rows(maps):
    """The compiled rows of ``maps``, in order, rescaled to one common
    denominator: the (rows, den, top) of their sum."""
    den = math.lcm(*(lam._rows[1] for lam in maps))
    rows = []
    for lam in maps:
        own, d, _ = lam._rows
        f = den // d
        rows.extend(own if f == 1 else
                    ((tup, j, tuple((k, n * f) for k, n in out)) for tup, j, out in own))
    return tuple(rows), den, max((lam.arity for lam in maps), default=0)


class GradedBrace:
    """Brace with star(a, b) = sum_k L_k(a, ..., a; b).

    ``lambdas`` maps each degree k >= 1 to the SymmetricMap L_k of arity
    k; identically zero maps are dropped.  Because every L_k has k >= 1
    and is linear in its right slot, right distributivity, F-linearity
    and the identity 0 hold by construction, and associativity of ∘ on a
    triple is the left-brace law on it.  Unless disabled, construction
    runs ``validation_stages``, which admits the brace as the flows brace
    of its L_1 or rejects it.  ``class_bound`` is either declared (and
    then checked against the nilpotency class of L_1, the strong
    nilpotency index of an admitted brace) or proven (set to that
    class); it is None on an unvalidated brace that declares none.
    ``chains`` is the ChainReport read off L_1's table and ``prelie`` the
    validated pre-Lie algebra of L_1, both set on admission and None on
    an unvalidated brace.
    """

    __slots__ = ("field", "dim", "lambdas", "class_bound", "basis_names", "chains",
                 "prelie", "_rows")

    def __init__(self, field, dim, lambdas, class_bound=None, basis_names=None,
                 validate=True):
        self.field = field
        self.dim = dim
        clean = {}
        for k, lam in sorted(lambdas.items()):
            if k < 1:
                raise DimensionMismatch(f"lambda degree {k} < 1")
            if not isinstance(lam, SymmetricMap):
                lam = SymmetricMap(field, dim, k, lam)
            if lam.arity != k or lam.field != field or lam.dim != dim:
                raise DimensionMismatch(f"lambda {k} has mismatched shape")
            if not lam.is_zero():
                clean[k] = lam
        self.lambdas = clean
        self._rows = _merge_rows(clean.values())
        self.basis_names = tuple(basis_names) if basis_names else tuple(
            f"e{i + 1}" for i in range(dim))
        if len(self.basis_names) != dim:
            raise DimensionMismatch("basis name count != dim")
        self.class_bound = class_bound
        self.chains = self.prelie = None
        if validate:
            for _ in validation_stages(self):
                pass

    @classmethod
    def trivial(cls, field, dim, basis_names=None):
        return cls(field, dim, {}, basis_names=basis_names)

    def basis_vector(self, i):
        return Vec.basis(self.field, self.dim, i)

    def lambda_map(self, k):
        return self.lambdas.get(k, SymmetricMap(self.field, self.dim, k))

    def star(self, a, b):
        _check_vec(self, a)
        _check_vec(self, b)
        return _diagonal(self.field, self.dim, self._rows, a, b)

    def circ_inverse(self, a):
        """The unique x with a∘x = 0, by the fixed-point iteration
        x <- -a - star(a, x).  Each step applies the nilpotent map
        b -> -star(a, b) to the error, so dim + 2 steps find the fixed
        point, a right inverse exactly (nxt == x is a + x + a*x = 0);
        x∘a = 0 is checked after."""
        _check_vec(self, a)
        x = -a
        for _ in range(self.dim + 2):
            nxt = -a - self.star(a, x)
            if nxt == x:
                break
            x = nxt
        else:
            raise ConvergenceFailure("circ inverse iteration did not stabilize")
        if not (x + a + self.star(x, a)).is_zero():
            raise ConvergenceFailure("circ inverse iteration did not stabilize")
        return x

    def __eq__(self, other):
        return (isinstance(other, GradedBrace) and other.field == self.field
                and other.dim == self.dim and other.lambdas == self.lambdas)

    def __hash__(self):
        return hash((self.field, self.dim, tuple(sorted(self.lambdas.items()))))

    def __repr__(self):
        ks = ",".join(str(k) for k in self.lambdas) or "-"
        return f"GradedBrace(dim {self.dim} over {self.field}, degrees {ks})"


def _left_map(B, u, du):
    """M_u = (b -> u*b) for u = ints / du, as d sparse int columns {out: n}
    over the common denominator den * du^top of ``B._rows``: column j is
    u*e_j, entries not yet reduced mod p and possibly zero.  One pass
    over the rows, the pass ``_diagonal`` makes for one star."""
    rows, _, top = B._rows
    lift = [du ** (top - k) for k in range(top + 1)]
    cols = [{} for _ in range(B.dim)]
    for tup, j, out in rows:
        coeff = lift[len(tup)]
        for idx in tup:
            x = u[idx]
            if not x:
                break
            coeff *= x
        else:
            col = cols[j]
            for o, n in out:
                col[o] = col.get(o, 0) + coeff * n
    return cols


def check_left_brace(B):
    """Exact check of the left-brace law on all basis triples:

        (a + b + a*b) * c = a*c + b*c + a*(b*c)

    Each L_k is linear in its right slot, so b -> a*b is a matrix M_a,
    and the law says M_{a∘b} = M_a + M_b + M_a M_b.  At a = e_i, b = e_j
    its column k is the law on the basis triple (i, j, k), since
    e_i*(e_j*e_k) = M_{e_i} M_{e_j} e_k.  So the d^3 basis equations are
    swept as d^2 matrix identities: one pass over the table
    (``_left_map``) builds each M_{e_i} and each M_u for u = e_i∘e_j,
    and no star is evaluated.  The maps are int columns over powers of the
    table's denominator den (``B._rows``): M_{e_i} over den, M_u over
    den^(top+1) and the right side over den^2, compared mod p over
    GF(p).  They are the same exact equations in the same (i, j, k)
    order, so the first violation and its residual lhs - rhs are the
    triple-by-triple sweep's.  Only the i that occur in some left tuple
    of the table, the j that do or that some row has as its right index,
    and the k that some row has as its right index are swept; every
    skipped equation holds.  If i occurs in no tuple, M_{e_i} = 0 and
    M_{e_i∘e_j} = M_{e_i+e_j} = M_{e_j}.  If j is neither, M_{e_j} = 0,
    e_i*e_j = 0 and M_{e_i∘e_j} = M_{e_i+e_j} = M_{e_i}.  If no row has
    right index k, column k of every map is 0.  So an empty table builds
    no map.  A defect that no basis triple shows is left to the
    reconstruction (``validation_stages``).

    The other star law, a*(b+c) = a*b + a*c, holds for every GradedBrace
    and is not checked: each L_k is linear in its right slot.  This law
    is where a corrupted star tensor shows up.
    """
    field, d = B.field, B.dim
    rows, den, top = B._rows
    p = field.characteristic
    live = {idx for tup, _, _ in rows for idx in tup}
    targets = {j for _, j, _ in rows}
    maps = {i: [nonzero(col, p) for col in _left_map(B, [int(o == i) for o in range(d)], 1)]
            for i in sorted(live)}  # maps[i][j] = den * e_i*e_j
    lift = den ** (top - 1) if top else 1  # from over den^2 to over den^(top+1)
    rights, columns, zero = sorted(live | targets), sorted(targets), [{}] * d
    for i, left in maps.items():
        for j in rights:
            right = maps.get(j, zero)
            u = [0] * d  # den * (e_i + e_j + e_i*e_j)
            u[i] = den
            u[j] += den
            for o, n in left[j].items():
                u[o] += n
            composite = _left_map(B, u, den)
            for k in columns:
                got, col = composite[k], right[k]
                if not (got or col or left[k]):
                    continue  # both sides are zero
                # den^2 times column k of M_{e_i} + (id + M_{e_i}) M_{e_j}
                want = {o: den * n for o, n in left[k].items()}
                for m, c in col.items():
                    want[m] = want.get(m, 0) + den * c
                    for o, x in left[m].items():
                        want[o] = want.get(o, 0) + c * x
                got = nonzero(got, p)
                want = nonzero({o: lift * n for o, n in want.items()} if lift != 1
                                else want, p)
                if got != want:
                    lhs, rhs = (Vec._trusted(field, field.from_ints(
                        [v.get(o, 0) for o in range(d)], den ** (top + 1))) for v in (got, want))
                    return Violation("left-brace law (a+b+a*b)*c", (i, j, k), lhs - rhs)
    return None


def check_group(B):
    """Group laws for ∘ that the graded form leaves open: a two-sided
    inverse of each basis vector.

    Associativity is not swept: by right linearity, (a∘b)∘c - a∘(b∘c)
    is the left-brace residual (a+b+a*b)*c - a*c - b*c - a*(b*c), so
    ``check_left_brace`` decides it, on every basis pair (a, b) and all
    c at once as M_{a∘b} = M_a + M_b + M_a M_b.  0 is a two-sided
    identity because every L_k has k >= 1 and is linear in its right
    slot.  An inverse (``circ_inverse``) takes at most dim + 3 stars
    (``GradedBrace.star``).  Only the i that occur in some left tuple of
    the table are visited: for any other i, star(±e_i, ·) = 0, so the
    inverse of e_i is -e_i.
    """
    for i in sorted({idx for tup, _, _ in B._rows[0] for idx in tup}):
        try:
            B.circ_inverse(B.basis_vector(i))
        except ConvergenceFailure:
            return Violation("circ inverse", (i,))
    return None


def check_fbrace(B):
    """Scalar linearity in the right slot, star(a, e*b) = e*star(a, b)
    and star(a, 0) = 0: structural, so nothing is evaluated.
    The star ``_diagonal`` adds up b_j * (row int) over the rows, over
    den * db * da^top, which does not depend on b's ints; so both hold
    exactly for every GradedBrace, whatever its table."""
    return None


def validation_stages(B):
    """Run the checks that admit ``B`` to the correspondence.  Yields one
    line per passed law and chain; raises at the first failure.  Once
    every stage has passed, ``B.chains`` holds the chain report and
    ``B.prelie`` the pre-Lie algebra of L_1.

    The verdict is the reconstruction's (``_reconstruction``), and
    nothing is drawn.  A strongly nilpotent F-brace of class s < p is
    ``to_brace`` of its L_1, and the flows brace of a nilpotent pre-Lie
    algebra of class s < p is such a brace, of strong index s.
    So B is admitted when L_1 is a pre-Lie algebra, nilpotent of class
    s < p (``prelie.validation_stages``, a basis sweep of a bilinear
    identity), s is at most any declared ``class_bound`` and
    ``to_brace(L_1)`` has B's tables exactly, compared on ints with no
    brace built (``flows.is_flows_brace``).  An admitted brace yields the
    three law lines, which every brace passes, then its chains, read off
    L_1's table (``prelie.chain_report``).

    A rejected brace runs the law stages (``_checked_stages``), to name
    a failing law.  Its law PASS lines then say only that no basis
    triple failed them.  If they pass, the reconstruction's reason is
    raised: L_1's own failure, a class of L_1 above the declared bound,
    or the first table key where B and ``to_brace(L_1)`` differ
    (``table_difference``; only then is ``to_brace(L_1)`` built).  No
    chain of a rejected brace is spanned.
    """
    reason = _reconstruction(B)
    if reason is None:
        yield from ("left-brace laws: PASS", "group laws: PASS", "F-linearity: PASS")
        yield from B.chains.lines()
        return
    yield from _checked_stages(B)
    raise reason()


def _checked_stages(B):
    """Check B law by law, in order: left-brace law (stage "left-brace
    laws"), inverses (stage "group laws"; the other brace and group laws
    hold by the graded form), F-linearity (structural, ``check_fbrace``).
    Yields one line per passed law; raises at the first failure.  Each
    law is swept on the basis."""
    for name, check in (("left-brace laws", check_left_brace),
                        ("group laws", check_group), ("F-linearity", check_fbrace)):
        viol = check(B)
        if viol is not None:
            raise ValidationFailure(str(viol), viol)
        yield f"{name}: PASS"


def _reconstruction(B):
    """None once B is admitted as the flows brace of its L_1, with
    ``B.prelie``, ``B.chains`` and (unless declared) ``B.class_bound``
    set; else a function that returns the ValidationFailure saying why
    not.  The tables are compared on ints (``flows.is_flows_brace``),
    stopping at the first coordinate where they differ; only that
    function builds ``to_brace(L_1)``, to name the first differing table
    key.  ``flows`` and ``prelie`` import this module, so they are
    imported here."""
    from . import flows, prelie
    try:
        alg = prelie.PreLieAlgebra(B.field, B.dim, B.lambda_map(1), basis_names=B.basis_names)
    except (ValidationFailure, CharacteristicTooSmall) as exc:
        failure = ValidationFailure(str(exc), getattr(exc, "violation", None))
        return lambda: failure
    s = alg.nilpotency_class
    if B.class_bound is not None and s > B.class_bound:
        failure = ValidationFailure(
            f"nilpotency class {s} of L_1 exceeds declared class bound {B.class_bound}")
        return lambda: failure
    if not flows.is_flows_brace(B, alg):
        def failure():
            viol = table_difference(B, flows.to_brace(alg))
            return ValidationFailure(str(viol), viol)
        return failure
    if B.class_bound is None:
        B.class_bound = s
    B.chains, B.prelie = prelie.chain_report(alg), alg
    return None


def first_difference(lam, lam2):
    """The first key, in sorted order, where two SymmetricMaps differ, or
    None.  Compared on their int tables: n / den equals n2 / den2 iff
    n * den2 = n2 * den."""
    a, b, da, db = lam._ints, lam2._ints, lam._den, lam2._den

    def differs(key):
        x, y = a.get(key, ()), b.get(key, ())
        return len(x) != len(y) or any(o != o2 or n * db != n2 * da
                                       for (o, n), (o2, n2) in zip(x, y))
    return next((key for key in sorted(a.keys() | b.keys()) if differs(key)), None)


def table_difference(B, other):
    """None iff the braces B and ``other`` have the same graded maps, else
    a "brace round trip" Violation at (k,) + the first key where their
    degree-k maps differ, for the least such k, with residual B's value
    there minus other's."""
    for k in sorted(set(B.lambdas) | set(other.lambdas)):
        lam, lam2 = B.lambda_map(k), other.lambda_map(k)
        key = first_difference(lam, lam2)
        if key is not None:
            return Violation("brace round trip", (k,) + key, lam.value(*key) - lam2.value(*key))
    return None


def class_bound_of(B):
    """B's class bound, declared or proven, once B is admitted: an
    unvalidated brace is validated first (``radical_chains``), which
    checks a declared bound against the class of L_1 and proves one
    where none is declared.  Raises PreconditionViolated if B is
    rejected."""
    if B.prelie is None:
        try:
            radical_chains(B)
        except ValidationFailure as exc:
            raise PreconditionViolated(str(exc)) from exc
    return B.class_bound


def radical_chains(B):
    """B's left chain A^{i+1} = A * A^i, right chain A^(i+1) = A^(i) * A
    and strong chain A^[i] = sum of A^[j] * A^[i-j], with their indices:
    ``B.chains``, the report read off the table of L_1 when B was
    admitted as its flows brace (``prelie.chain_report``).  An
    unvalidated B is validated first (``validation_stages``), which
    raises if B is rejected."""
    if B.chains is None:
        for _ in validation_stages(B):
            pass
    return B.chains
