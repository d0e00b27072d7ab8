"""From a strongly nilpotent brace back to its pre-Lie algebra.

The product is the limit of 2^n (a/2^n) * b.  Over an exact field that
limit is never reached at finite n, but t -> star(t*a, b) is the
polynomial sum_k t^k L_k(a, ..., a; b) with zero constant term, so the
limit is exactly its degree-one coefficient: ``dot`` is the degree-one
graded map L_1.  ``limit_witness`` keeps the sequence view as a
verifiable certificate: the deviation from the limit scales
componentwise by 2^(1-k) per halving step.
"""

from .brace import class_bound_of, first_difference, table_difference
from .errors import InternalInconsistency, NotPreLie, Violation, ValidationFailure
from .flows import is_flows_brace, to_brace
from .free_expansion import (StarExpr, StarWord, X, Y, Z, evaluate,
                             expand_sum_star)
from .linalg import Vec
from .prelie import PreLieAlgebra
from .sampling import random_vec, rng_from


def dot(B, a, b):
    """The limit product: the degree-one graded map L_1(a; b), which is
    the degree-one coefficient of t -> star(t*a, b)."""
    return B.lambda_map(1).apply_diagonal(a, b)


def limit_witness(B, a, b, n_max):
    """The finite sequence 2^n star(a/2^n, b) for n = 0..n_max.

    Verifies the exact closed form sum_k 2^(n(1-k)) L_k(a,..,a;b)
    against every term before returning, so each deviation from the
    limit halves per degree as the certificate demands."""
    field = B.field
    pieces = {k: lam.apply_diagonal(a, b) for k, lam in B.lambdas.items()}
    seq = []
    for n in range(n_max + 1):
        direct = B.star(a * field.inv_int(2 ** n), b) * field.of(2 ** n)
        closed = Vec.zero(field, B.dim)
        for k, g in pieces.items():
            closed = closed + g * field.inv_int(2 ** (n * (k - 1)))
        if direct != closed:
            raise InternalInconsistency("scaling sequence left its closed form")
        seq.append(direct)
    return seq


def to_prelie(B):
    """Pre-Lie algebra with product dot: its stored product is B's L_1,
    whose value on (e_i; e_j) is e_i * e_j.

    Validation of the result (identity plus nilpotency) is part of the
    contract: a failure means the input was not a genuine strongly
    nilpotent brace and surfaces as NotPreLie.  A validated brace holds
    that algebra, validated when the brace was (``B.prelie``)."""
    if B.prelie is not None:
        return B.prelie
    try:
        return PreLieAlgebra(B.field, B.dim, B.lambda_map(1), basis_names=B.basis_names)
    except ValidationFailure as exc:
        raise NotPreLie(str(exc)) from exc


def roundtrip_prelie(alg):
    """PASS (None) iff to_prelie(to_brace(alg)) reproduces the structure
    constants of alg exactly."""
    back = to_prelie(to_brace(alg))
    key = first_difference(back.product, alg.product)
    if key is None:
        return None
    return Violation("pre-Lie round trip", (key[0][0], key[1]),
                     back.product.value(*key) - alg.product.value(*key))


def roundtrip_brace(B):
    """PASS (None) iff to_brace(to_prelie(B)) reproduces every graded
    map of B exactly.  A brace admitted by reconstruction passes with no
    extraction: admission made exactly this comparison (``B.prelie``).
    Otherwise the tables are compared on ints (``is_flows_brace``), and
    ``to_brace`` is built only to name the first differing key."""
    if B.prelie is not None:
        return None
    alg = to_prelie(B)
    if is_flows_brace(B, alg):
        return None
    return table_difference(B, to_brace(alg))


def check_associator_correction_identity(B, trials=20, seed=None):
    """Exact check that the star associator asymmetry equals the swap
    difference of the degree >= 3 correction terms:

        x*(y*z) - (x*y)*z - y*(x*z) + (y*x)*z = d(y,x,z) - d(x,y,z)

    where d collects everything the expansion of (x+y)*z adds beyond
    x*z + y*z + x*(y*z) - (x*y)*z.  An unvalidated B is
    validated first, which checks a declared class bound or proves one
    (``brace.class_bound_of``; PreconditionViolated if B is rejected)."""
    bound = max(class_bound_of(B), 3)
    full = expand_sum_star(X, Y, Z, bound)
    display = (StarExpr.word(StarWord.product(X, Z))
               + StarExpr.word(StarWord.product(Y, Z))
               + StarExpr.word(StarWord.product(X, StarWord.product(Y, Z)))
               - StarExpr.word(StarWord.product(StarWord.product(X, Y), Z)))
    d_expr = full - display
    rng = rng_from(seed)
    for t in range(trials):
        a, b, c = (random_vec(B.field, B.dim, rng) for _ in range(3))
        lhs = (B.star(a, B.star(b, c)) - B.star(B.star(a, b), c)
               - B.star(b, B.star(a, c)) + B.star(B.star(b, a), c))
        rhs = (evaluate(d_expr, {"x": b, "y": a, "z": c}, B)
               - evaluate(d_expr, {"x": a, "y": b, "z": c}, B))
        if lhs != rhs:
            return Violation("associator correction identity", ("random", t), lhs - rhs)
    return None
