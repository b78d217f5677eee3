"""Sign pattern minimum-rank toolkit.

Bounds with exact certificates for the minimum rank of sign patterns,
exact encodings between sign patterns and point-hyperplane configurations,
and rationalization of floating-point realizations into exact rational
witnesses.

The exact certificates (``exactnum``) need no numpy and load eagerly.  The
names of the numeric search are re-exported lazily: ``realize``, and numpy
with it, loads on the first access to one, so importing the package does not.
"""

import importlib

from .errors import (
    DomainError,
    FixtureCorrupt,
    NumericalDegeneracy,
    Overdetermined,
    PatternFormatError,
    PrecisionExhausted,
    ResourceExhausted,
    SignRankError,
    SingularSystem,
    VerticalHyperplane,
)
from .exactnum import (
    QuadElem,
    Rational,
    RationalCertificate,
    quad_sign,
    rational_rank,
    rational_round,
    rationalize,
    solve_zero_columns,
)
from .geometry import (
    Configuration,
    OrientedHyperplane,
    avoid_vertical,
    dualize,
    encode_configuration,
    from_factorization,
    incidence_structure,
    is_simple,
    side,
    stack,
    translate,
)
from .pattern import (
    CondensationReport,
    EquivalenceWitness,
    MrBounds,
    MrBoundsOptions,
    SignPattern,
    condense,
    is_equivalent,
    is_mr1,
    is_mr2,
    is_sns,
    max_sns_submatrix,
    mr_bounds,
    term_rank,
)

_REALIZE_NAMES = frozenset({
    "Realization",
    "SearchParams",
    "has_direct_representation",
    "search_realization",
})

__version__ = "0.1.0"

__all__ = [
    "DomainError",
    "FixtureCorrupt",
    "NumericalDegeneracy",
    "Overdetermined",
    "PatternFormatError",
    "PrecisionExhausted",
    "ResourceExhausted",
    "SignRankError",
    "SingularSystem",
    "VerticalHyperplane",
    "QuadElem",
    "Rational",
    "quad_sign",
    "rational_round",
    "RationalCertificate",
    "rational_rank",
    "rationalize",
    "solve_zero_columns",
    "Configuration",
    "OrientedHyperplane",
    "avoid_vertical",
    "dualize",
    "encode_configuration",
    "from_factorization",
    "incidence_structure",
    "is_simple",
    "side",
    "stack",
    "translate",
    "CondensationReport",
    "EquivalenceWitness",
    "MrBounds",
    "MrBoundsOptions",
    "SignPattern",
    "condense",
    "is_equivalent",
    "is_mr1",
    "is_mr2",
    "is_sns",
    "max_sns_submatrix",
    "mr_bounds",
    "term_rank",
    "Realization",
    "SearchParams",
    "has_direct_representation",
    "search_realization",
]


def __getattr__(name):
    # read from the module on each access (no caching here), so that a name
    # patched on ``realize`` is seen through the package too
    if name == "realize" or name in _REALIZE_NAMES:
        # not ``from . import realize``: its hasattr check on this package
        # would call back into this function before the import runs
        realize = importlib.import_module(".realize", __name__)
        return realize if name == "realize" else getattr(realize, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
