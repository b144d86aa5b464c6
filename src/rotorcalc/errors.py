"""Exception hierarchy.

Everything raised on bad *values* (as opposed to programming mistakes)
derives from DomainError, so callers -- the CLI in particular -- can
catch one type and map it to a nonzero exit.
"""


class DomainError(Exception):
    """Base class for all value-level failures."""


class InvalidOrder(DomainError):
    """Root family order must be a positive integer."""


class DuplicateElements(DomainError):
    """Multiplication table input contains repeated rotors."""


class ZeroResultant(DomainError):
    """Vector sum has (numerically) zero length; its angle is undefined."""


class ParseError(DomainError):
    """Token stream does not match the grammar at a byte span of the source."""

    def __init__(self, message: str, span: tuple[int, int], expected: frozenset[str] = frozenset()):
        super().__init__(f"{message} at {span[0]}..{span[1]}")
        self.span = span
        self.expected = expected


class LexError(ParseError):
    """Unrecognized byte in the expression text (parse failure at the
    character level)."""


class EvaluationError(DomainError):
    """Expression has no finite value (zero base raised to a negative power,
    or a value beyond float range)."""


class ZeroLeadingCoefficient(DomainError):
    """General-form recurrence with a_n = 0 cannot be normalized."""


class ZeroDivisionInRatio(DomainError):
    """A zero term appeared where the ratio estimator needed to divide."""


class NonConvergent(DomainError):
    """Ratio estimates did not stabilize; no single limit to report."""


class UnsupportedDegree(DomainError):
    """Permutation tables exist for degrees 2, 3, 4 only."""


class ArityMismatch(DomainError):
    """Wrong number of roots/seeds/labels for the requested operation."""


class BranchSelectionFailed(DomainError):
    """No cube-root branch pair satisfies the resolvent constraint."""


class NoConvergence(DomainError):
    """Simultaneous root iteration exhausted its sweep budget."""


class InconsistentSigmas(DomainError):
    """Redundant sigma system has a residual too large to trust."""


class DegenerateRoots(DomainError):
    """Repeated characteristic roots; closed forms here require distinct roots."""


class SingularSystem(DomainError):
    """Weight system is singular (a characteristic root equals 1)."""


class TermOverflow(DomainError):
    """A value lies beyond the range it must fit: float range for a
    closed-form term or the exact term it is checked against, strict JSON
    for a number in a CLI payload."""
