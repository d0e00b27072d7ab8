"""Exception types and the Violation record shared across the package."""

from dataclasses import dataclass


class AlgebraError(Exception):
    """Base class for all errors raised by this package."""


class FieldMismatch(AlgebraError):
    """Operands live over different scalar fields."""


class DimensionMismatch(AlgebraError):
    """Operands have incompatible dimensions."""


class CharacteristicTooSmall(AlgebraError):
    """A required inverse (of k! or of an interpolation node) does not
    exist because the prime characteristic is too small."""


class ConvergenceFailure(AlgebraError):
    """A fixed-point iteration failed to stabilize within its degree bound.

    Unreachable for validated nilpotent inputs; reaching it means a
    non-nilpotent structure slipped past validation."""


class UnboundSymbol(AlgebraError):
    """A formal expression was evaluated with a generator left unbound."""


class NotPreLie(AlgebraError):
    """A product extracted from a brace failed the pre-Lie identity,
    signalling that the input was not a genuine strongly nilpotent brace."""


class PreconditionViolated(AlgebraError):
    """An operation was called outside its stated domain."""


class InternalInconsistency(AlgebraError):
    """Two independent computations of the same quantity disagree."""


class ValidationFailure(AlgebraError):
    """A structure was rejected at construction time.

    Carries the offending Violation when one is available."""

    def __init__(self, message, violation=None):
        super().__init__(message)
        self.violation = violation


class AlgebraFileError(AlgebraError):
    """An algebra/brace file failed structural parsing."""


@dataclass(frozen=True)
class Violation:
    """Outcome of a failed exact check: which law, where, and by how much.

    ``site`` is a tuple of 0-based basis indices (or other coordinates,
    documented per check); ``residual`` is the nonzero difference."""

    check: str
    site: tuple = ()
    residual: object = None

    def __str__(self):
        parts = [self.check, "violated"]
        if self.site:
            parts.append(f"at {self.site}")
        if self.residual is not None:
            parts.append(f"residual {self.residual}")
        return " ".join(parts)
