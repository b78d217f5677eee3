"""Sign pattern minimum-rank toolkit.

Bounds with exact certificates for the minimum rank of sign patterns,
exact encodings between sign patterns and point-hyperplane configurations,
and rationalization of floating-point realizations into exact rational
witnesses.

Importing the package loads only ``errors``.  Every other name is
re-exported lazily: its home module (``pattern``, ``exactnum``, ``geometry``
or ``realize``) loads on the first access to it, so ``SignPattern`` loads
``pattern`` alone, and only the names of the numeric search load numpy.
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

# every other re-exported name -> its home module, loaded on first access
_HOME = {
    "QuadElem": "exactnum",
    "Rational": "exactnum",
    "quad_sign": "exactnum",
    "rational_round": "exactnum",
    "RationalCertificate": "exactnum",
    "rational_rank": "exactnum",
    "rationalize": "exactnum",
    "solve_zero_columns": "exactnum",
    "Configuration": "geometry",
    "OrientedHyperplane": "geometry",
    "avoid_vertical": "geometry",
    "dualize": "geometry",
    "encode_configuration": "geometry",
    "from_factorization": "geometry",
    "incidence_structure": "geometry",
    "is_simple": "geometry",
    "side": "geometry",
    "stack": "geometry",
    "translate": "geometry",
    "CondensationReport": "pattern",
    "EquivalenceWitness": "pattern",
    "MrBounds": "pattern",
    "MrBoundsOptions": "pattern",
    "SignPattern": "pattern",
    "condense": "pattern",
    "is_equivalent": "pattern",
    "is_mr1": "pattern",
    "is_mr2": "pattern",
    "is_sns": "pattern",
    "max_sns_submatrix": "pattern",
    "mr_bounds": "pattern",
    "term_rank": "pattern",
    "Realization": "realize",
    "SearchParams": "realize",
    "has_direct_representation": "realize",
    "search_realization": "realize",
}
_MODULES = frozenset(_HOME.values())

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
    # patched on its home module is seen through the package too; not
    # ``from . import ...``: its hasattr check on this package would call
    # back into this function before the import runs
    if name in _MODULES:
        return importlib.import_module(f".{name}", __name__)
    if name in _HOME:
        return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
