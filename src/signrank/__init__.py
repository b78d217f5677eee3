"""Sign pattern minimum-rank toolkit.

Bounds with exact certificates for the minimum rank of sign patterns,
exact encodings between sign patterns and point-hyperplane configurations,
and rationalization of floating-point realizations into exact rational
witnesses.

Importing the package loads only ``errors``.  Every other name is
re-exported lazily: its home module (``core``, ``scalars``, ``pattern``,
``exactnum`` or ``geometry``) loads on the first access to it, so
``SignPattern`` loads ``core`` alone, ``QuadElem`` adds ``scalars``, and
``SearchParams`` and ``search_realization`` load ``pattern``.  No name
loads numpy: ``search_realization`` imports ``realize``, the float search,
only when it is called at rank 3 or more.
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
    "CondensationReport": "core",
    "SignPattern": "core",
    "condense": "core",
    "QuadElem": "scalars",
    "quad_sign": "scalars",
    "rational_round": "exactnum",
    "RationalCertificate": "exactnum",
    "rational_rank": "exactnum",
    "rationalize": "exactnum",
    "Realization": "exactnum",
    "solve_zero_columns": "exactnum",
    "Configuration": "geometry",
    "OrientedHyperplane": "geometry",
    "dualize": "geometry",
    "encode_configuration": "geometry",
    "from_factorization": "geometry",
    "side": "geometry",
    "stack": "geometry",
    "EquivalenceWitness": "pattern",
    "MrBounds": "pattern",
    "MrBoundsOptions": "pattern",
    "is_equivalent": "pattern",
    "is_mr2": "pattern",
    "is_sns": "pattern",
    "max_sns_submatrix": "pattern",
    "mr_bounds": "pattern",
    "term_rank": "pattern",
    "SearchParams": "pattern",
    "has_direct_representation": "pattern",
    "search_realization": "pattern",
}
# realize, the float search, is the home of no name but loads as a module
_MODULES = frozenset([*_HOME.values(), "realize"])

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
    *_HOME,
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
