"""Exact-arithmetic correspondence between finite-dimensional nilpotent
pre-Lie algebras and strongly nilpotent braces.

One direction builds the brace of the group of flows; the other
recovers the pre-Lie product as the exact scaling limit of the brace
star.  Everything is computed over the rationals or a sufficiently
large prime field, with no floating point anywhere.
"""

from .brace import (GradedBrace, SymmetricMap, check_fbrace, check_group,
                    check_left_brace, radical_chains)
from .bch import verify_flows_bch
from .errors import (AlgebraError, AlgebraFileError, CharacteristicTooSmall,
                     ConvergenceFailure, DimensionMismatch, FieldMismatch,
                     InternalInconsistency, NotPreLie,
                     PreconditionViolated, ValidationFailure, Violation)
from .flows import circ, exp_L, omega, star, to_brace, w_map
from .free_expansion import (StarExpr, StarWord, doubling_matrix, evaluate,
                             expand_sum_star, scaling_matrix_check,
                             star_expand, word_order, xy_words, xyz_words)
from .limits import (check_associator_correction_identity, dot, limit_witness,
                     roundtrip_brace, roundtrip_prelie, to_prelie)
from .linalg import Mat, Subspace, Vec, span
from .prelie import ChainReport, PreLieAlgebra, check_prelie_identity, nilpotency_index
from .scalars import GF, Fp, Q, ScalarField

__version__ = "0.1.0"
