"""Built-in reference objects: three small patterns with known minimum
ranks, a 3 point / 3 line configuration realizing one of them, and the
Perles configuration -- nine points and nine lines whose incidences force
coordinates in Q(sqrt 5).

The Perles coordinates stored here were produced offline by the symbolic
incidence solve in ``tools/derive_perles.py`` (fix a mirror-symmetric frame,
propagate the collinearity constraints, and solve the closure condition,
a quadratic with discriminant 5).  ``derive_perles_check`` re-verifies the
stored solution on every run by one exact comparison: the configuration's
encoding, computed in Q(sqrt5), must equal A0 entry for entry.  That
equality implies every incidence, every side and the condensation of the
encoding, so it is the only check; a drift raises FixtureCorrupt.
``selfcheck`` owns every exact fixture check that the CLI prints.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

from .core import SignPattern, save_pattern
from .errors import FixtureCorrupt, SignRankError
from .geometry import Configuration, encode_configuration, save_configuration
from .scalars import QuadElem


class Provenance(Enum):
    LITERATURE = "literature"  # transcribed verbatim from published sources
    DERIVED = "derived"  # computed here, re-verified by an exact oracle


class Fixture(NamedTuple):
    name: str
    payload: object
    provenance: Provenance
    note: str = ""


A0_PATTERN = SignPattern(
    [
        "000----++",
        "0--00++--",
        "++++000++",
        "++0++++00",
        "0----0-+0",
        "0----+00-",
        "++00-0-++",
        "+0-+0++0-",
        "+0-0-+0+0",
    ]
)

# Reported in the literature for this pattern; the rational value is NOT
# machine-verified here (that would need a non-existence proof over Q).
A0_KNOWN_MIN_RANK = 3
A0_KNOWN_RATIONAL_MIN_RANK = 4

A1_PATTERN = SignPattern(["+++", "-++", "-0+"])
A2_PATTERN = SignPattern(["+++", "-++", "+0-"])

FIG21_PATTERN = SignPattern(["+++", "+00", "-0-"])


def _fig21_config() -> Configuration:
    F = Fraction
    points = [(-5, 50), (10, 30), (-10, 10)]
    lines = [
        (-25, F(-2, 5), 1),  # y = (2/5) x + 25
        (-20, -1, 1),  # y = x + 20
        (-40, 1, 1),  # y = -x + 40
    ]
    return Configuration(2, points, lines)


def _q5(r, s=0) -> QuadElem:
    return QuadElem(Fraction(r), Fraction(s), 5)


def _perles_config() -> Configuration:
    """Mirror-symmetric solution with the four-point line on the x-axis.

    With the gauge b = k = 1, d = 2 the closure quadratic
    e^2 (d^2 + 4d - 1) - e (4d - 2) - 1 = 0 has discriminant (2d)^2 * 5,
    giving e = (3 + 2*sqrt5)/11 and the clean values a = h = 2 + sqrt5,
    c = 3 + sqrt5.  All nine lines are presented rightward (cd = 1).
    """
    F = Fraction
    a = _q5(2, 1)  # 2 + sqrt5
    c = _q5(3, 1)  # 3 + sqrt5
    h = _q5(2, 1)
    e = _q5(F(3, 11), F(2, 11))  # (3 + 2 sqrt5)/11
    zero, one = _q5(0), _q5(1)
    points = [
        (-a, zero),  # p1
        (a, zero),  # p2
        (-c, h),  # p3
        (c, h),  # p4
        (_q5(-1), zero),  # p5
        (one, zero),  # p6
        (_q5(-2), one),  # p7
        (_q5(2), one),  # p8
        (zero, e),  # p9
    ]
    lines = [
        (zero, zero, one),  # l1 through p1 p2 p5 p6
        (_q5(F(-3, 11), F(-2, 11)), _q5(F(-4, 11), F(1, 11)), one),  # l2: p1 p8 p9
        (_q5(-1, F(-2, 5)), _q5(0, F(-1, 5)), one),  # l3: p1 p4 p7
        (_q5(F(-3, 11), F(-2, 11)), _q5(F(4, 11), F(-1, 11)), one),  # l4: p2 p7 p9
        (_q5(-1, F(-2, 5)), _q5(0, F(1, 5)), one),  # l5: p2 p3 p8
        (one, one, one),  # l6: p3 p5 p7
        (_q5(F(-3, 11), F(-2, 11)), _q5(F(3, 11), F(2, 11)), one),  # l7: p3 p6 p9
        (one, _q5(-1), one),  # l8: p4 p6 p8
        (_q5(F(-3, 11), F(-2, 11)), _q5(F(-3, 11), F(-2, 11)), one),  # l9: p4 p5 p9
    ]
    return Configuration(2, points, lines)


_FIXTURES = {
    "A0": lambda: Fixture(
        "A0",
        A0_PATTERN,
        Provenance.LITERATURE,
        "9x9 pattern of the Perles configuration; minimum rank 3, reported "
        "rational minimum rank 4 (not machine-verified)",
    ),
    "A1": lambda: Fixture(
        "A1", A1_PATTERN, Provenance.LITERATURE, "minimum rank 2, direct representation"
    ),
    "A2": lambda: Fixture(
        "A2", A2_PATTERN, Provenance.LITERATURE, "minimum rank 2, no direct representation"
    ),
    "fig21_pattern": lambda: Fixture(
        "fig21_pattern", FIG21_PATTERN, Provenance.LITERATURE, "3 point / 3 line example pattern"
    ),
    "fig21_config": lambda: Fixture(
        "fig21_config",
        _fig21_config(),
        Provenance.DERIVED,
        "rational coordinates realizing fig21_pattern (checked exactly)",
    ),
    "perles_config": lambda: Fixture(
        "perles_config",
        _perles_config(),
        Provenance.DERIVED,
        "Q(sqrt5) coordinates whose encoding equals A0 (checked exactly)",
    ),
}


def fixture(name: str) -> Fixture:
    try:
        factory = _FIXTURES[name]
    except KeyError:
        raise SignRankError(
            f"unknown fixture {name!r}; available: {', '.join(sorted(_FIXTURES))}"
        ) from None
    return factory()


def fixture_names() -> tuple:
    return tuple(sorted(_FIXTURES))


def check_encoding(config_name: str, pattern_name: str) -> tuple:
    """Encode the stored configuration ``config_name`` in exact arithmetic
    and raise FixtureCorrupt, naming it, unless the result equals the stored
    pattern ``pattern_name`` entry for entry.  Returns the passed check as a
    (name, detail) pair."""
    if encode_configuration(fixture(config_name).payload) != fixture(pattern_name).payload:
        raise FixtureCorrupt(f"fixture {config_name!r} does not encode to {pattern_name!r}")
    return (config_name, f"encodes to {pattern_name} entry for entry")


def derive_perles_check() -> tuple:
    """Exact re-verification of the stored Perles coordinatization: its
    encoding, computed in Q(sqrt5), must equal A0 entry for entry, or
    FixtureCorrupt is raised.  Returns the passed check as a (name,
    detail) pair.

    That one equality is the whole proof.  Each stored line passes through
    exactly the points its column of A0 prescribes (zero set, incidence
    counts, the four-point line 1), every other point lies on the side A0
    gives it, and the encoding shares A0's condensation.
    """
    return check_encoding("perles_config", "A0")


def selfcheck() -> tuple:
    """Every exact fixture check, as (name, detail) pairs: the Perles check,
    A0 rows 4-6 x cols 7-9 is sign-nonsingular (so mr(A0) >= 3), and
    fig21_config's encoding.  A failure raises FixtureCorrupt naming it."""
    from .pattern import is_sns

    perles = derive_perles_check()
    if not is_sns(fixture("A0").payload.submatrix((3, 4, 5), (6, 7, 8))):
        raise FixtureCorrupt("A0 rows {4,5,6} x cols {7,8,9} is not sign-nonsingular")
    return (perles, ("sns", "A0 rows 4,5,6 / cols 7,8,9 is sign-nonsingular"),
            check_encoding("fig21_config", "fig21_pattern"))


def export_fixtures(directory) -> tuple:
    """Write every fixture into ``directory`` as .pat / .json files."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for name in fixture_names():
        payload = fixture(name).payload
        if isinstance(payload, SignPattern):
            path = directory / f"{name}.pat"
            save_pattern(payload, path)
        else:
            path = directory / f"{name}.json"
            save_configuration(payload, path)
        written.append(path)
    return tuple(written)
