import math
import operator
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from signrank.core import SignPattern, _check_integer
from signrank.errors import DomainError
from signrank.exactnum import (
    RationalCertificate,
    Realization,
    _round_matrix,
    rational_round,
    rational_rank,
    solve_zero_columns,
)
from signrank.scalars import (
    MAX_RADICAL,
    QuadElem,
    _as_fraction,
    _ratios,
    check_radical,
    format_rational,
    format_scalar,
    parse_integer,
    parse_rational,
    parse_scalar,
    quad_sign,
)

from conftest import decimal_value, solved_column


class TestQuadSign:
    def test_zero_element(self):
        assert quad_sign(QuadElem(0, 0, 5)) == 0

    def test_radical_dominates(self):
        # 1 - (1/2)sqrt5 < 0 because 1 < 5 * (1/2)^2
        q = QuadElem(1, Fraction(-1, 2), 5)
        assert quad_sign(q) == -1
        assert decimal_value(q, 50) < 0

    def test_rational_dominates(self):
        q = QuadElem(3, -1, 5)  # 9 > 5
        assert quad_sign(q) == 1
        assert decimal_value(q, 50) > 0

    def test_exact_cancellation(self):
        # (sqrt5)^2 - 5 built as (2+sqrt5)(-2+sqrt5) - 1
        q = QuadElem(2, 1, 5) * QuadElem(-2, 1, 5) - 1
        assert quad_sign(q) == 0

    def test_plain_rationals(self):
        assert quad_sign(Fraction(-3, 7)) == -1
        assert quad_sign(0) == 0
        assert quad_sign(2.5) == 1

    def test_agreement_with_decimal_evaluation(self):
        rng = np.random.default_rng(11)
        for _ in range(10_000):
            q = QuadElem(
                Fraction(int(rng.integers(-50, 51)), int(rng.integers(1, 20))),
                Fraction(int(rng.integers(-50, 51)), int(rng.integers(1, 20))),
                int(rng.choice([2, 3, 5, 7])),
            )
            got = quad_sign(q)
            approx = decimal_value(q, 60)
            if approx == 0:
                assert got == 0
            else:
                assert got == (1 if approx > 0 else -1)


class TestQuadArithmetic:
    def test_difference_of_squares(self):
        assert QuadElem(1, 1, 5) * QuadElem(1, -1, 5) == QuadElem(-4, 0, 5)

    def test_division_by_golden_ratio(self):
        phi = QuadElem(Fraction(1, 2), Fraction(1, 2), 5)
        inv = 1 / phi
        assert inv == QuadElem(Fraction(-1, 2), Fraction(1, 2), 5)
        assert phi * inv == QuadElem(1, 0, 5)

    def test_additive_identity(self):
        a = QuadElem(Fraction(3, 7), Fraction(-2, 9), 5)
        assert a + 0 == a
        assert a + QuadElem(0, 0, 5) == a

    def test_division_by_zero(self):
        with pytest.raises(DomainError):
            QuadElem(1, 0, 5) / QuadElem(0, 0, 5)

    def test_field_axioms_on_random_triples(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            a, b, c = (
                QuadElem(
                    Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 7))),
                    Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 7))),
                    5,
                )
                for _ in range(3)
            )
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + b == b + a
            if not b.is_zero():
                assert (a / b) * b == a

    def test_context_mixing(self):
        with pytest.raises(DomainError):
            QuadElem(1, 1, 5) + QuadElem(1, 1, 7)
        # rationals embed into any context
        assert QuadElem(2, 0, 1) + QuadElem(1, 1, 5) == QuadElem(3, 1, 5)

    def test_d_one_degenerates_to_rationals(self):
        q = QuadElem(2, 3, 1)
        assert q.s == 0 and q.r == 5

    def test_rational_element_has_d_one(self):
        q = QuadElem(3, 0, 5)
        assert q == QuadElem(3) and hash(q) == hash(QuadElem(3))
        assert q.d == 1
        # a radical part that cancels leaves a rational with d = 1 too
        assert (QuadElem(1, 1, 5) - QuadElem(0, 1, 5)).d == 1

    def test_results_are_canonical(self):
        # results skip the checking constructor: each must equal, field for
        # field, what the constructor makes of its parts, also where the
        # radical parts cancel (d falls back to 1)
        rng = np.random.default_rng(29)
        values = [QuadElem(1, 1, 5), QuadElem(1, -1, 5)] + [
            QuadElem(Fraction(int(rng.integers(-4, 5)), int(rng.integers(1, 4))),
                     Fraction(int(rng.integers(-2, 3)), int(rng.integers(1, 3))), 5)
            for _ in range(40)]
        ops = (operator.add, operator.sub, operator.mul, operator.truediv)
        cancelled = 0
        for a, b in zip(values, values[1:] + values[:1]):
            for op in ops:
                if op is operator.truediv and b.is_zero():
                    continue
                got = op(a, b)
                want = QuadElem(got.r, got.s, 5)
                assert (got.r, got.s, got.d) == (want.r, want.s, want.d)
                assert type(got.r) is Fraction and type(got.s) is Fraction
                cancelled += a.s != 0 and got.s == 0
            assert (-a).d == QuadElem(-a.r, -a.s, 5).d
        assert cancelled

    def test_lift_keeps_elements(self):
        phi = QuadElem(Fraction(1, 2), Fraction(1, 2), 5)
        assert QuadElem.lift(phi) is phi
        assert QuadElem.lift("2/3") == QuadElem(Fraction(2, 3))

    def test_d_must_be_square_free(self):
        with pytest.raises(DomainError):
            QuadElem(1, 1, 8)
        with pytest.raises(DomainError):
            QuadElem(1, 1, 0)

    def test_square_free_against_trial_division(self):
        for d in range(1, 3000):
            if all(d % (k * k) for k in range(2, math.isqrt(d) + 1)):
                assert check_radical(d) == d
            else:
                with pytest.raises(DomainError):
                    check_radical(d)
        # cofactors left past the cube-root division: a prime, two primes, a
        # prime's square
        assert QuadElem(0, 1, 10**12 + 39).d == 10**12 + 39
        assert check_radical(9973 * 9967) == 9973 * 9967
        for d in (999983**2, 3 * 999983**2):
            with pytest.raises(DomainError):
                check_radical(d)

    def test_radical_bounded(self):
        # 10^15 - 3 = 599 2131 3733 209861; 10^15 + 1 is square-free too
        assert check_radical(10**15 - 3) == 10**15 - 3
        with pytest.raises(DomainError, match="10\\^15"):
            QuadElem(1, 1, MAX_RADICAL + 1)

    def test_rational_ignores_radical(self):
        # only a radical part names a field, so a rational's d is not checked
        assert QuadElem(3, 0, 4) == QuadElem(3) and QuadElem(3, 0, 4).d == 1

    def test_comparisons_are_exact(self):
        phi = QuadElem(Fraction(1, 2), Fraction(1, 2), 5)
        assert QuadElem(Fraction(8, 5), 0, 5) < phi < QuadElem(Fraction(13, 8), 0, 5)

    def test_float_conversion(self):
        assert math.isclose(float(QuadElem(2, 1, 5)), 2 + math.sqrt(5))


class TestRationalRound:
    CAPS = (1, 2, 3, 10, 1000, 2**16, 2**32, 2**64)

    def test_half(self):
        assert rational_round(0.5, 10) == Fraction(1, 2)

    def test_pi_convergent(self):
        assert rational_round(3.14159265358979, 1000) == Fraction(355, 113)

    def test_third(self):
        assert rational_round(0.3333333, 10) == Fraction(1, 3)

    def test_non_finite(self):
        for x in (math.inf, -math.inf, math.nan):
            for cap in self.CAPS:
                with pytest.raises(DomainError):
                    rational_round(x, cap)

    def test_bad_cap(self):
        for x in (0.5, 3, Fraction(1, 3), "1/3"):
            for cap in (0, -1):
                with pytest.raises(DomainError):
                    rational_round(x, cap)

    def test_optimal_against_exhaustive_search(self):
        rng = np.random.default_rng(5)
        for _ in range(60):
            x = float(rng.uniform(-10, 10))
            cap = int(rng.integers(1, 1001))
            got = rational_round(x, cap)
            assert got.denominator <= cap
            err = abs(Fraction(x) - got)
            for q in range(1, cap + 1):
                p = round(x * q)
                assert err <= abs(Fraction(x) - Fraction(p, q))

    def test_ties_at_cap_one(self):
        # limit_denominator's tie rule: the smaller denominator, the floor
        for x, want in ((0.5, 0), (1.5, 1), (-2.5, -3)):
            assert rational_round(x, 1) == want

    def test_exact_inputs(self):
        for x in (7, -3, Fraction(355, 113), Fraction(-22, 7), "355/113", "-1/3"):
            for cap in self.CAPS:
                assert rational_round(x, cap) == Fraction(x).limit_denominator(cap), (x, cap)


class TestDyadicRounding:
    # rationalize rounds each factor entry to the nearest multiple of 2^-t,
    # ties to even, as its integer numerator over 2^t
    @staticmethod
    def reference(x, t):
        return round(Fraction(x) * 2**t)  # Fraction rounds half to even

    @pytest.mark.parametrize("t", [8, 16, 32, 64])
    def test_extremes_stay_exact_or_vanish(self, t):
        # integer floats near the top of the range are exact on the grid
        # (no float overflows), and the smallest subnormal rounds to 0
        for x in (1.7e308, -1.7e308, 1e300, 1.0, -1.0):
            (n,), = _round_matrix([[x]], t)
            assert n == int(x) << t
        assert _round_matrix([[5e-324, -5e-324, 0.0, -0.0]], t) == [[0, 0, 0, 0]]

    def test_ties_to_even(self):
        # k * 2^-33 lies halfway between multiples of 2^-32 for odd k
        row = [k * 2.0**-33 for k in (1, 3, 5, -1, -3, -5)] + [1 + 2.0**-33, 1 + 3 * 2.0**-33]
        assert _round_matrix([row], 32) == [[0, 2, 2, 0, -2, -2, 2**32, 2**32 + 2]]
        # a hair past the tie rounds away from it
        assert _round_matrix([[2.0**-33 + 2.0**-60, -(2.0**-33 + 2.0**-60)]], 32) == [[1, -1]]

    def test_ties_to_even_on_the_coarsest_grid(self):
        # k * 2^-9 lies halfway between multiples of 2^-8 for odd k
        row = [k * 2.0**-9 for k in (1, 3, 5, -1, -3, -5)] + [1 + 2.0**-9, 1 + 3 * 2.0**-9]
        assert _round_matrix([row], 8) == [[0, 2, 2, 0, -2, -2, 2**8, 2**8 + 2]]
        assert _round_matrix([[2.0**-9 + 2.0**-60, -(2.0**-9 + 2.0**-60)]], 8) == [[1, -1]]

    def test_normal_form_ones(self):
        U = [[1.0, 0.25, -3.5], [1.0, 1e-3, 7.0]]
        assert [row[0] for row in _round_matrix(U, 32)] == [2**32, 2**32]
        assert _round_matrix([[1.0, 1.0]], 64) == [[2**64, 2**64]]

    def test_non_finite(self):
        for x in (math.inf, -math.inf, math.nan):
            with pytest.raises(DomainError):
                _round_matrix([[1.0, x]], 32)

    @pytest.mark.parametrize("t", [8, 16, 32, 64])
    def test_matches_fraction_rounding(self, t):
        rng = np.random.default_rng(39)
        xs = 10.0 ** rng.uniform(-25, 25, size=5_000) * rng.choice([-1.0, 1.0], size=5_000)
        rows = xs.reshape(50, 100).tolist()
        assert _round_matrix(rows, t) == [[self.reference(x, t) for x in row] for row in rows]

    def test_exact_inputs(self):
        # ints and Fractions are read at their exact value too
        row = [7, -3, Fraction(1, 3), Fraction(-22, 7), Fraction(1, 2**33)]
        assert _round_matrix([row], 32) == [[self.reference(x, 32) for x in row]]


class TestScalarSyntax:
    def test_rational_text(self):
        assert parse_rational("3/4") == Fraction(3, 4)
        assert parse_rational("-7") == Fraction(-7)
        assert parse_rational(5) == Fraction(5)
        assert format_rational(*Fraction(3, 4).as_integer_ratio()) == "3/4"
        assert format_rational(*Fraction(8, 2).as_integer_ratio()) == 4

    def test_malformed(self):
        with pytest.raises(DomainError):
            parse_rational("3/0")
        with pytest.raises(DomainError):
            parse_rational("abc")

    def test_bool_rejected(self):
        # bool is an Integral, but a JSON true names no number
        with pytest.raises(DomainError):
            parse_rational(True)

    def test_integer_field(self):
        # JSON's 2.0 names the integer 2; the rest goes to core._check_integer
        for value in (2, 2.0, np.int64(2)):
            assert type(parse_integer(value, "'k'", 0)) is int and parse_integer(value, "'k'", 0) == 2
        with pytest.raises(DomainError, match="^'k' must be >= 1, got 0$"):
            parse_integer(0.0, "'k'", 1)

    @pytest.mark.parametrize("value", [Fraction(5, 2), np.float32(2.5), Decimal("2.5"), 2.5,
                                       float("inf"), float("nan"), "3", True, None],
                             ids=["Fraction", "float32", "Decimal", "float", "inf", "nan",
                                  "string", "bool", "null"])
    def test_integer_field_never_truncates(self, value):
        # int() reads the first three as 2
        with pytest.raises(DomainError, match="^'k' must be an integer, got "):
            parse_integer(value, "'k'", 0)

    def test_quad_object(self):
        q = parse_scalar({"r": "1/2", "s": "-3/4"}, 5)
        assert q == QuadElem(Fraction(1, 2), Fraction(-3, 4), 5)
        assert format_scalar(q) == {"r": "1/2", "s": "-3/4"}

    def test_integer_shorthand(self):
        assert parse_scalar(7, 5) == QuadElem(7, 0, 5)
        assert format_scalar(QuadElem(7, 0, 5)) == 7

    def test_roundtrip(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            q = QuadElem(
                Fraction(int(rng.integers(-20, 21)), int(rng.integers(1, 9))),
                Fraction(int(rng.integers(-20, 21)), int(rng.integers(1, 9))),
                5,
            )
            assert parse_scalar(format_scalar(q), 5) == q


# ---------------------------------------------------------------------------
# One reader per kind of number: integers (``_check_integer``, and
# ``parse_integer`` for JSON's 2.0), exact rationals (``_as_fraction``) and
# float realization entries.  A bool, Python or numpy, names no number.

_NUMBERS = {
    "bool": True, "numpy-bool": np.True_, "int": 2, "int64": np.int64(2), "float": 2.0,
    "float-half": 2.5, "float32": np.float32(2.5), "Fraction-int": Fraction(2),
    "Fraction": Fraction(5, 2), "Decimal": Decimal("2.5"), "text": "2", "ratio-text": "5/2", "None": None,
    "nan": math.nan, "inf": math.inf,
}

_READERS = {
    "_check_integer": lambda v: _check_integer(v, "'k'", 0),
    "parse_integer": lambda v: parse_integer(v, "'k'", 0),
    "_as_fraction": _as_fraction,
    "QuadElem": lambda v: QuadElem(v).r,
    "parse_rational": parse_rational,
    "check_radical": check_radical,
    "Realization-entry": lambda v: Realization(2, [[1.0, v]], [[0.0], [1.0]]).U[0][1],
    "certificate-rank": lambda v: RationalCertificate(((1,),), v, SignPattern(["+"])).rank,
    "rational_round-cap": lambda v: rational_round(Fraction(1, 2), v).denominator,
    "submatrix-index": lambda v: SignPattern(["+", "-", "0"]).submatrix([v], [0]).lines()[0],
    # the readers of exact entries (``_ratios``) refuse a bool; the rank is
    # 1 and the certificate verifies exactly where the entry reads 2
    "rational_rank-entry": lambda v: rational_rank([[v, 2], [1, 1]]),
    "solve_zero_columns-entry": lambda v: -solved_column([[1, v]], SignPattern(["0"]), 0, (0, 1))[0],
    "solve_zero_columns-index": lambda v: -solved_column([[1, 2]], SignPattern(["++0"]), v, (5, 1))[0],
    "certificate-entry": lambda v: RationalCertificate(((v,),), 1, SignPattern(["+"])).verify(),
    "certificate-factor": lambda v: RationalCertificate(((2,),), 1, SignPattern(["+"]),
                                                        (((v,),), ((1,),))).verify(),
}

E, Q2, Q = DomainError, Fraction(2), Fraction(5, 2)
# each reader's value for the numbers above, in order; E is DomainError
_RULES = {  # bool np.bool 2 int64 2.0 2.5 f32 2/1 5/2 Decimal "2" "5/2" None nan inf
    "_check_integer":    (E, E, 2, 2, E, E, E, E, E, E, E, E, E, E, E),
    "parse_integer":     (E, E, 2, 2, 2, E, E, E, E, E, E, E, E, E, E),
    "_as_fraction":      (E, E, Q2, Q2, Q2, Q, Q, Q2, Q, E, Q2, Q, E, E, E),
    "QuadElem":          (E, E, Q2, Q2, Q2, Q, Q, Q2, Q, E, Q2, Q, E, E, E),
    "parse_rational":    (E, E, Q2, Q2, E, E, E, E, E, E, Q2, Q, E, E, E),
    "check_radical":     (E, E, 2, 2, E, E, E, E, E, E, E, E, E, E, E),
    "Realization-entry": (E, E, 2.0, 2.0, 2.0, 2.5, 2.5, 2.0, 2.5, E, E, E, E, E, E),
    "certificate-rank":  (E, E, 2, 2, E, E, E, E, E, E, E, E, E, E, E),
    "rational_round-cap": (E, E, 2, 2, E, E, E, E, E, E, E, E, E, E, E),
    "submatrix-index":   (E, E, "0", "0", E, E, E, E, E, E, E, E, E, E, E),
    # ``_ratios`` reads a Decimal as ``_as_fraction`` does: a certificate
    # holding one is built, and fails verify()
    "rational_rank-entry": (E, E, 1, 1, 1, 2, 2, 1, 2, E, 1, 2, E, E, E),
    "solve_zero_columns-entry": (E, E, Q2, Q2, Q2, Q, Q, Q2, Q, E, Q2, Q, E, E, E),
    "solve_zero_columns-index": (E, E, Q2, Q2, E, E, E, E, E, E, E, E, E, E, E),
    "certificate-entry": (E, E, True, True, True, True, True, True, True, False, True, True,
                          False, False, False),
    "certificate-factor": (E, E, True, True, True, False, False, True, False, False, True, False,
                           False, False, False),
}

_CELLS = [(reader, name, want) for reader, row in _RULES.items()
          for name, want in zip(_NUMBERS, row, strict=True)]


@pytest.mark.parametrize("reader, name, want", _CELLS,
                         ids=[f"{reader}-{name}" for reader, name, _ in _CELLS])
def test_number_rules(reader, name, want):
    value = _NUMBERS[name]
    if want is E:
        with pytest.raises(DomainError):
            _READERS[reader](value)
    else:
        got = _READERS[reader](value)
        assert got == want and type(got) is type(want)


def test_numpy_lines_read_as_lists():
    # an exact reader takes a numpy line as its tolist(): int and float
    # arrays read as their rows of Python numbers do, and a bool array's
    # Python bools are refused like any bool
    rng = np.random.default_rng(4)
    low = rng.integers(-3, 4, size=(6, 3)) @ rng.integers(-3, 4, size=(3, 5))
    P = SignPattern(["0", "0", "+"])
    for M in (low, low / 8, rng.standard_normal((6, 5)), rng.integers(-9, 10, size=(5, 5))):
        assert [_ratios(row) for row in M] == [_ratios(row) for row in M.tolist()]
        assert all(type(x) is int for row in M for ratio in _ratios(row) for x in ratio)
        assert rational_rank(M) == rational_rank(M.tolist())
        assert solve_zero_columns(M[:3, :3], P, 0, M[3, :3]) == solve_zero_columns(
            M[:3, :3].tolist(), P, 0, M[3, :3].tolist())
    assert rational_rank(low) == rational_rank(low / 8) == 3
    with pytest.raises(DomainError):
        rational_rank(np.eye(2, dtype=bool))


def test_radical_rule_has_no_history():
    # an earlier call with an equal value of another type answers no later
    # one: the memo sits behind the integer rule, keyed by the int
    assert check_radical(np.int64(5)) == 5 and check_radical(1) == 1
    for d in (5.0, Fraction(5), np.float32(5), True):
        with pytest.raises(DomainError):
            check_radical(d)
        with pytest.raises(DomainError):
            QuadElem(0, 1, d)


def test_operands_read_as_exact_scalars():
    # arithmetic, comparison and sign read an operand through QuadElem.lift
    half = QuadElem(Fraction(1, 2))
    assert half == np.float32(0.5) and half + np.float32(0.5) == 1
    assert quad_sign(np.float32(-0.5)) == -1 and quad_sign("-1/3") == -1
    assert half != True and QuadElem(1) != True and QuadElem(1) != math.nan  # noqa: E712
    for bad in (True, np.True_, math.nan):
        with pytest.raises(DomainError):
            quad_sign(bad)
        with pytest.raises(DomainError):
            half + bad
        with pytest.raises(DomainError):
            half * bad
