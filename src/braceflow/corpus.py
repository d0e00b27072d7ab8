"""Bundled example algebras used by the CLI docs and the test suites.

Every member is constructible over the rationals or over any prime
field whose characteristic exceeds its nilpotency class.  The same
structures ship as JSON files in the ``corpus`` resource directory.
"""

from importlib import resources

from .prelie import PreLieAlgebra
from .scalars import Q


def zero_algebra(field=Q, dim=1):
    """All products zero; nilpotency class 2 (1 at dim 0)."""
    return PreLieAlgebra(field, dim, {})


def n2(field=Q):
    """d = 2 with e1*e1 = e2: associative, class 3."""
    return PreLieAlgebra(field, 2, {(0, 0): {1: 1}})


def h3(field=Q):
    """Heisenberg-style d = 3 with e1*e2 = e3: associative, class 3."""
    return PreLieAlgebra(field, 3, {(0, 1): {2: 1}})


def f4(field=Q):
    """d = 4 with e1*e1 = e2, e2*e1 = e3, e1*e2 = e4: class 4,
    not associative (the only nonzero associator sits at (e1,e1,e1))."""
    return PreLieAlgebra(field, 4, {(0, 0): {1: 1}, (1, 0): {2: 1}, (0, 1): {3: 1}})


def v5(field=Q):
    """Vector-field style d = 4: with e_i of weight i, the product is
    e_i * e_j = j e_{i+j} (truncated past weight 4).  Class 5, not
    associative."""
    structure = {}
    for i in range(1, 5):
        for j in range(1, 5):
            if i + j <= 4:
                structure[(i - 1, j - 1)] = {i + j - 1: j}
    return PreLieAlgebra(field, 4, structure)


def corpus(field=Q):
    """All bundled algebras over the given field, keyed by name."""
    return {
        "zero1": zero_algebra(field, 1),
        "zero2": zero_algebra(field, 2),
        "zero3": zero_algebra(field, 3),
        "n2": n2(field),
        "h3": h3(field),
        "f4": f4(field),
        "v5": v5(field),
    }


def corpus_dir():
    """Path of the bundled corpus files."""
    return resources.files("braceflow") / "corpus"


def corpus_path(name):
    return corpus_dir() / f"{name}.json"
