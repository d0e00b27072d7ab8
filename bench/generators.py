"""Input generators for the braceflow benchmark.

Every generator returns a canonical ``Structure``: integer structure
constants in the canonical basis plus the invariants the benchmark
checks outputs against (dimension, nilpotency class, radical-chain
dims).  ``relabel`` applies the seeded change of basis
f_{sigma(i)} = c_i e_i with small nonzero integers c_i, which keeps the
structure and the work per job but changes every coordinate the program
sees.

Families:

* ``v(n)``: e_i * e_j = j e_{i+j} (zero past weight n); class n + 1.
* ``trees(n)``: the free pre-Lie algebra on one generator cut off at
  rooted trees of at most n vertices (Chapoton-Livernet 2001), with
  x * y = the sum of the graftings of x onto each vertex of y; dims 1, 2,
  4, 8, 17 for n = 1..5, class n + 1.
* ``upper(m)``: the radical ring of strictly upper-triangular m x m
  matrices as a brace with star(a, b) = ab (degree 1 only); dim
  m(m-1)/2, class m.

Run ``python3 bench/generators.py`` from the repository root for the
self-check: every generated algebra must pass the library's own
validation with the expected dim, class and chain dims.
"""

import random
import sys

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Structure:
    """Canonical integer structure constants and their invariants.

    ``entries`` maps (degree, left tuple, j, out) to a nonzero int: the
    pre-Lie product e_i * e_j has key (1, (i,), j, out).  For a pre-Lie
    algebra only degree 1 occurs; a brace may carry every degree.
    ``chains`` holds the (left, right, strong) radical-chain dims of the
    brace, each from dim down to 0.
    """

    name: str
    dim: int
    nil_class: int
    entries: dict
    chains: tuple = None


def _descending(dims):
    return (tuple(dims),) * 3


def h3():
    """Corpus h3: e1 * e2 = e3, class 3."""
    return Structure("h3", 3, 3, {(1, (0,), 1, 2): 1})


def f4():
    """Corpus f4: e1 e1 = e2, e2 e1 = e3, e1 e2 = e4, class 4."""
    return Structure("f4", 4, 4, {(1, (0,), 0, 1): 1, (1, (1,), 0, 2): 1,
                                  (1, (0,), 1, 3): 1})


def v(n):
    entries = {(1, (i - 1,), j - 1, i + j - 1): j
               for i in range(1, n + 1) for j in range(1, n + 1) if i + j <= n}
    return Structure(f"v{n}", n, n + 1, entries, _descending(range(n, -1, -1)))


def _rooted_trees(n):
    """Rooted trees with at most n vertices, as nested sorted tuples of
    children, ordered by vertex count and then by the tuple order."""
    by_size = {1: [()]}
    for size in range(2, n + 1):
        found = set()
        # a tree of this size is a root plus a multiset of subtrees whose
        # sizes sum to size - 1: add one subtree to a smaller tree's root
        for sub_size in range(1, size):
            for sub in by_size[sub_size]:
                for rest in by_size[size - sub_size]:
                    found.add(tuple(sorted(rest + (sub,))))
        by_size[size] = sorted(found)
    return [t for size in range(1, n + 1) for t in by_size[size]]


def _size(tree):
    return 1 + sum(_size(c) for c in tree)


def _graftings(x, y):
    """Every tree got by attaching x as a new child of one vertex of y."""
    out = [tuple(sorted(y + (x,)))]
    for pos, child in enumerate(y):
        for g in _graftings(x, child):
            out.append(tuple(sorted(y[:pos] + (g,) + y[pos + 1:])))
    return out


def trees(n):
    basis = _rooted_trees(n)
    index = {t: i for i, t in enumerate(basis)}
    entries = {}
    for i, x in enumerate(basis):
        for j, y in enumerate(basis):
            if _size(x) + _size(y) > n:
                continue
            for g in _graftings(x, y):
                key = (1, (i,), j, index[g])
                entries[key] = entries.get(key, 0) + 1
    return Structure(f"T{n}", len(basis), n + 1, entries)


def upper(m):
    """Strictly upper-triangular m x m matrices, basis E_{rc} (r < c) in
    row-major order; E_{rc} E_{cs} = E_{rs}."""
    cells = [(r, c) for r in range(m) for c in range(r + 1, m)]
    index = {cell: i for i, cell in enumerate(cells)}
    entries = {(1, (index[(r, c)],), index[(c, s)], index[(r, s)]): 1
               for (r, c) in cells for s in range(c + 1, m)}
    # A^k is spanned by the E_{rc} with c - r >= k
    dims = [sum(1 for r, c in cells if c - r >= k) for k in range(1, m + 1)]
    return Structure(f"U{m}", len(cells), m, entries, _descending(dims))


def relabelling(dim, seed):
    """The seeded change of basis: a permutation sigma and scale factors
    c_i drawn from {1, -1, 2, -2}."""
    rng = random.Random(seed * 1000003 + dim)
    sigma = list(range(dim))
    rng.shuffle(sigma)
    scales = [rng.choice((1, -1, 2, -2)) for _ in range(dim)]
    return sigma, scales


def field_ops(p):
    """(coerce, divide) for exact arithmetic over Q (p == 0) or GF(p)."""
    if p == 0:
        return Fraction, lambda a, b: Fraction(a) / b
    return (lambda a: a % p,
            lambda a, b: a * pow(b, -1, p) % p)


def relabel(entries, sigma, scales, p):
    """Structure constants in the basis f_{sigma(i)} = c_i e_i.

    Every slot is multilinear, so a value on (e_{i_1}..e_{i_k}; e_j)
    picks up c_{i_1}..c_{i_k} c_j and its e_out coordinate is divided by
    c_out."""
    coerce, divide = field_ops(p)
    out = {}
    for (k, tup, j, o), val in entries.items():
        factor = scales[j]
        for i in tup:
            factor *= scales[i]
        new = divide(coerce(val) * factor, scales[o])
        if new:
            key = (k, tuple(sorted(sigma[i] for i in tup)), sigma[j], sigma[o])
            out[key] = new
    return out


def unrelabel(entries, sigma, scales, p):
    """Inverse of ``relabel`` with the same sigma and scales."""
    coerce, divide = field_ops(p)
    inv = [0] * len(sigma)
    inv_scales = [None] * len(sigma)
    for i, s in enumerate(sigma):
        inv[s] = i
        inv_scales[s] = divide(1, coerce(scales[i]))
    return relabel(entries, inv, inv_scales, p)


def self_check():
    """Validate every generated structure, relabelled, with the library.

    Returns (number checked, list of problems); a problem is a structure
    whose dim, class or chain dims differ from the expected ones, or whose
    relabelling does not invert."""
    from braceflow import GF, Q, GradedBrace, PreLieAlgebra, SymmetricMap, Vec
    from braceflow import radical_chains

    tree_dims = {1: 1, 2: 2, 3: 4, 4: 8, 5: 17}
    cases = [h3(), f4()] + [v(n) for n in (3, 4, 8, 10)]
    cases += [trees(n) for n in tree_dims] + [upper(m) for m in (3, 4, 5)]
    checked, problems = 0, []
    for p in (0, 11, 13):
        field = Q if p == 0 else GF(p)
        for s in cases:
            if p and p <= s.nil_class:
                continue
            where = f"{s.name} over {field}"
            if s.name.startswith("T") and s.dim != tree_dims[int(s.name[1:])]:
                problems.append(f"{where}: dim {s.dim}")
            sigma, scales = relabelling(s.dim, 7)
            ent = relabel(s.entries, sigma, scales, p)
            identity = relabel(s.entries, list(range(s.dim)), [1] * s.dim, p)
            if unrelabel(ent, sigma, scales, p) != identity:
                problems.append(f"{where}: unrelabel does not invert relabel")
            structure = {}
            for (_, (i,), j, k), val in ent.items():
                structure.setdefault((i, j), {})[k] = val
            alg = PreLieAlgebra(field, s.dim, structure)
            if alg.nilpotency_class != s.nil_class:
                problems.append(f"{where}: class {alg.nilpotency_class}")
            if s.name.startswith("U"):
                table = {((i,), j): Vec(field, [out.get(o, 0) for o in range(s.dim)])
                         for (i, j), out in structure.items()}
                rep = radical_chains(
                    GradedBrace(field, s.dim, {1: SymmetricMap(field, s.dim, 1, table)}))
                got = tuple(rep.dims(c) for c in (rep.left, rep.right, rep.strong))
                if got != s.chains:
                    problems.append(f"{where}: chain dims {got}")
            checked += 1
    return checked, problems


if __name__ == "__main__":
    sys.path.insert(0, "src")
    n, problems = self_check()
    print("\n".join(problems) or f"generators: {n} structures validated")
    sys.exit(1 if problems else 0)
