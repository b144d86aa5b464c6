"""Exception hierarchy.

Everything raised on bad *values* (as opposed to programming mistakes)
derives from DomainError, so callers -- the CLI in particular -- can
catch one type and map it to a nonzero exit.
"""


class DomainError(Exception):
    """Base class for all value-level failures."""


class InvalidOrder(DomainError):
    """A root family's order is not a positive integer, a rotor's denominator
    is 0, or a family name is unknown."""


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
    """A degree or order outside what the method covers: permutation tables,
    chain rows, `m_form` and `roots_from_sigma` cover 2-4, `roots --method
    closed` covers 2-3, and `numeric_roots` needs at least 1."""


class ArityMismatch(DomainError):
    """Wrong number of roots/seeds/labels for the requested operation."""


class NoConvergence(DomainError):
    """Simultaneous root iteration exhausted its sweep budget."""


class InconsistentSigmas(DomainError):
    """Redundant sigma system has a residual too large to trust."""


class DegenerateRoots(DomainError):
    """Repeated characteristic roots; closed forms here require distinct roots."""


class SingularSystem(DomainError):
    """Weight system is singular: a characteristic root equals 1, or the
    elimination meets a zero pivot."""


class TermOverflow(DomainError):
    """A value lies beyond the range it must fit: float range for a
    closed-form term or the exact term it is checked against, strict JSON
    for a number in a CLI payload."""
