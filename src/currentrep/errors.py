"""Exception taxonomy shared across the package."""


class CurrentRepError(Exception):
    """Base class for all package-specific errors."""


class NoSolution(CurrentRepError):
    """Inconsistent linear system."""


class AlgebraMismatch(CurrentRepError):
    """Operands live over different algebra descriptors."""


class InvalidDescriptor(CurrentRepError):
    """Parameters violate the descriptor constraints (e.g. degenerate form)."""


class UnsupportedTruncation(CurrentRepError):
    """Character support exceeds the requested truncation degree."""


class NotNilpotent(CurrentRepError):
    """Operation requires a nilpotent input."""


class BadCharacter(CurrentRepError):
    """Character fails the precondition of an induction construction."""


class BadWeight(CurrentRepError):
    """Weight is not compatible with the character."""


class BadTwist(CurrentRepError):
    """Twisting functional does not vanish on the derived subalgebra."""


class BadIndex(CurrentRepError):
    """Invariant index out of range."""


class TooLarge(CurrentRepError):
    """Requested module exceeds the configured dimension limit."""


class InternalError(CurrentRepError):
    """Internal guard tripped; indicates a bug, not bad input."""


class NotWeightModule(CurrentRepError):
    """Toral actions are not simultaneously diagonalisable over the prime field."""


class NotGraded(CurrentRepError):
    """Module carries no lattice grading tags."""


class Inconclusive(CurrentRepError):
    """Randomised decomposition ran out of retries; rerun with another seed."""


class NeedsFieldExtension(CurrentRepError):
    """Weight equations have no solution over the prime field."""


class FormulaDomainError(CurrentRepError):
    """Closed formula evaluated outside its domain of validity."""


class OutOfScope(CurrentRepError):
    """Input is valid but outside the implemented scope."""
