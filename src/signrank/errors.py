"""Exception hierarchy shared by all signrank modules."""


class SignRankError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(SignRankError, ValueError):
    """An argument violates a documented precondition (bad value, mixed
    field contexts, division by zero, non-square input, ...)."""


class ResourceExhausted(SignRankError):
    """A combinatorial search exceeded its configured size or node budget."""


class PatternFormatError(SignRankError, ValueError):
    """Malformed pattern or configuration file.  Carries 1-based line and
    column of the offending character when known."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            where = f"line {line}" + (f", column {column}" if column is not None else "")
            message = f"{message} ({where})"
        super().__init__(message)


class VerticalHyperplane(DomainError):
    """A hyperplane given to ``stack`` has zero last coefficient: stacking
    shifts one configuration along the last axis, so it needs every
    hyperplane rightward.  ``index`` is the 0-based hyperplane index in
    its configuration, which the message names ("first" or "second")."""

    def __init__(self, index, configuration):
        self.index = index
        super().__init__(
            f"hyperplane {index + 1} of the {configuration} configuration is vertical "
            "(last coefficient is zero); stacking needs every hyperplane rightward "
            "(last coefficient > 0)"
        )


class NumericalDegeneracy(SignRankError):
    """Randomized rotation retries failed to reach a non-degenerate state."""


class SingularSystem(SignRankError):
    """No column with v_rj = 1 passes through the zero rows of a zero-column
    solve: the rows' echelon form pivots on the last coordinate."""


class Overdetermined(SignRankError):
    """A column of the condensed pattern carries more zeros than the rank
    budget allows.  ``column`` is 0-based; messages print it 1-based."""

    def __init__(self, column, count, limit):
        self.column = column
        self.count = count
        self.limit = limit
        super().__init__(
            f"Overdetermined: column {column + 1} has {count} zeros > r-1 = {limit}"
        )


class PrecisionExhausted(SignRankError):
    """The denominator schedule ran out before an exact sign match was found.
    Inconclusive: says nothing about rational realizability."""


class FixtureCorrupt(SignRankError):
    """A stored fixture failed its exact re-verification."""
