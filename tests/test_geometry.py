import copy
import importlib
import itertools
import json
import pickle
import pkgutil
from fractions import Fraction

import numpy as np
import pytest

import signrank
from signrank.core import _Record
from signrank.errors import DomainError, VerticalHyperplane
from signrank.exactnum import QuadElem, RationalCertificate, Realization, quad_sign
from signrank.fixtures import A0_PATTERN, FIG21_PATTERN, fixture
from signrank.geometry import (
    Configuration,
    OrientedHyperplane,
    configuration_from_dict,
    configuration_to_dict,
    dualize,
    encode_configuration,
    from_factorization,
    incidence_structure,
    is_simple,
    side,
    stack,
    translate,
)
from signrank.pattern import SignPattern, condense, is_mr2

from conftest import random_origin_avoiding_config, random_planar_config


def _fig21():
    return fixture("fig21_config").payload


class TestSide:
    def test_above_axis(self):
        h = OrientedHyperplane([0, 0, 1])
        assert side((QuadElem(0), QuadElem(1)), h) == 1

    def test_on_hyperplane(self):
        h = OrientedHyperplane([-1, 1, 1])
        assert side((QuadElem(Fraction(1, 2)), QuadElem(Fraction(1, 2))), h) == 0

    def test_golden_ratio_point(self):
        # (phi, 2) against y = x: 2 - phi = (3 - sqrt5)/2 > 0 since 9 > 5
        phi = QuadElem(Fraction(1, 2), Fraction(1, 2), 5)
        h = OrientedHyperplane([0, -1, 1])
        assert side((phi, QuadElem.lift(2)), h) == 1

    def test_dimension_mismatch(self):
        h = OrientedHyperplane([0, 0, 1])
        with pytest.raises(DomainError):
            side((QuadElem(1),), h)

    @pytest.mark.parametrize("flag", [True, np.True_])
    def test_bool_coordinates_rejected(self, flag):
        # True == 1, but a bool names no coordinate or coefficient
        h = OrientedHyperplane((0, 1))
        with pytest.raises(DomainError):
            side((flag,), h)
        with pytest.raises(DomainError):
            OrientedHyperplane((0, flag))
        with pytest.raises(DomainError):
            Configuration(1, [(flag,)], [(0, 1)])


class TestHyperplane:
    def test_positive_scaling_canonical(self):
        a = OrientedHyperplane([2, 4, 2])
        b = OrientedHyperplane([1, 2, 1])
        assert a == b

    def test_negation_is_a_different_orientation(self):
        a = OrientedHyperplane([1, 2, 1])
        assert a != a.reversed_orientation()

    def test_degenerate(self):
        with pytest.raises(DomainError):
            OrientedHyperplane([3, 0, 0])

    def test_unit_scale_divides_nothing(self, monkeypatch):
        """A rightward hyperplane (cd = +1), and so every one ``translate``
        rebuilds, keeps its lifted coefficients without a division."""
        r5 = QuadElem(0, 1, 5)
        C = Configuration(2, [(1, r5)], [[r5, -2, 1], [3, 0, 1]])

        def no_division(self, other):
            raise AssertionError("divided by a unit scale")

        monkeypatch.setattr(QuadElem, "__truediv__", no_division)
        h = OrientedHyperplane([Fraction(1, 2), r5, 1])
        assert h.coeffs == (QuadElem(Fraction(1, 2)), r5, QuadElem(1))
        moved = translate(C, [1, -1])
        assert moved.hyperplanes == (OrientedHyperplane([r5 + 3, -2, 1]),
                                     OrientedHyperplane([4, 0, 1]))
        assert configuration_from_dict(configuration_to_dict(C)) == C


class TestEncode:
    def test_single_point_above_line(self):
        C = Configuration(2, [(0, 1)], [[0, 0, 1]])
        assert encode_configuration(C) == SignPattern(["+"])

    def test_fig21_matches_stored_pattern(self):
        assert encode_configuration(_fig21()) == FIG21_PATTERN

    def test_perles_zero_set(self):
        P = encode_configuration(fixture("perles_config").payload)
        assert P.zero_set() == A0_PATTERN.zero_set()

    def test_vertical_hyperplane_error(self):
        # 1 + x = 0 is vertical; (0, 1) is on its positive side
        C = Configuration(2, [(0, 1)], [[1, 1, 0]])
        assert encode_configuration(C) == SignPattern(["+"])

    def test_vertical_hyperplanes_match_side_and_rotation(self):
        # about a third of the lines are vertical, some through a point; a
        # rotation by an exact rational (cos, sin) turns each normal with the
        # points, so every evaluation and the encoding stay as they were
        rng = np.random.default_rng(41)
        vertical = vertical_zeros = 0
        for _ in range(120):
            C = _config_with_vertical_lines(rng, 6, 6)
            P = encode_configuration(C)
            assert P == SignPattern([[side(p, h) for h in C.hyperplanes] for p in C.points])
            assert P == SignPattern(_reference_signs(C))
            t = Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 6)))
            cos, sin = (1 - t * t) / (1 + t * t), 2 * t / (1 + t * t)
            assert encode_configuration(_rotated(C, cos, sin)) == P
            for j, h in enumerate(C.hyperplanes):
                if h.is_vertical():
                    vertical += 1
                    vertical_zeros += P.col(j).count(0)
        assert vertical >= 100 and vertical_zeros >= 50


def _config_with_vertical_lines(rng, n_points, n_lines):
    """Planar rational configuration whose lines are vertical with
    probability 1/3, and half of those through one of its points."""

    def q():
        return Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 4)))

    pts = [(q(), q()) for _ in range(n_points)]
    lines = []
    for _ in range(n_lines):
        if rng.random() < 1 / 3:
            x = pts[int(rng.integers(n_points))][0] if rng.random() < 0.5 else q()
            lines.append((-x, 1, 0) if rng.random() < 0.5 else (x, -1, 0))
        else:
            lines.append((q(), q(), q() or 1))
    return Configuration(2, pts, lines)


def _rotated(C, cos, sin):
    """C rotated about the origin by the exact pair (cos, sin), with
    cos^2 + sin^2 = 1: each hyperplane's normal turns with the points."""
    assert cos * cos + sin * sin == 1
    pts = [(cos * x - sin * y, sin * x + cos * y) for x, y in C.points]
    hyps = [(c0, cos * c1 - sin * c2, sin * c1 + cos * c2)
            for c0, c1, c2 in (h.coeffs for h in C.hyperplanes)]
    return Configuration(2, pts, hyps)


def _q5_config(rng, n_points, n_lines):
    """Planar Q(sqrt5) configuration, about half of its lines through two
    of its points."""

    def q5():
        return QuadElem(Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 4))),
                        Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 3))), 5)

    pts = [(q5(), q5()) for _ in range(n_points)]
    lines = []
    while len(lines) < n_lines:
        if rng.random() < 0.5:
            (x1, y1), (x2, y2) = (pts[i] for i in rng.choice(n_points, 2, replace=False))
            if x1 == x2:
                continue
            slope = (y2 - y1) / (x2 - x1)
            lines.append((slope * x1 - y1, -slope, 1))
        else:
            lines.append((q5(), q5(), 1))
    return Configuration(2, pts, lines)


def _seeded_configs():
    """The fixtures and seeded rational and Q(sqrt5) configurations with
    incidences, planar and (from normal-form factors) in dimension 3."""
    rng = np.random.default_rng(2941)
    configs = [fixture("perles_config").payload, _fig21()]
    configs += [random_planar_config(rng, 9, 11, max_incidence=3) for _ in range(6)]
    configs += [_q5_config(rng, 8, 9) for _ in range(6)]
    for _ in range(3):
        U = [[1, *(Fraction(int(x), 3) for x in rng.integers(-6, 7, size=3))] for _ in range(7)]
        V = [[Fraction(int(x), 2) for x in rng.integers(-6, 7, size=8)] for _ in range(3)]
        configs.append(from_factorization(U, V + [[1] * 8]))
    return configs


def _reference_signs(C):
    """The encoding by evaluating each hyperplane at each point in QuadElem
    arithmetic."""
    return [[quad_sign(h.evaluate(p)) for h in C.hyperplanes] for p in C.points]


class TestIntegerProduct:
    """encode_configuration, side and stack read each point and hyperplane
    once, scaled to integers; they agree with QuadElem evaluation."""

    def test_encode_matches_evaluation(self):
        zeros = 0
        for C in _seeded_configs():
            expected = _reference_signs(C)
            assert encode_configuration(C) == SignPattern(expected)
            zeros += sum(row.count(0) for row in expected)
        assert zeros  # incidences are covered

    def test_side_matches_evaluation(self):
        for C in _seeded_configs()[:8]:
            for p, row in zip(C.points, _reference_signs(C)):
                assert [side(p, h) for h in C.hyperplanes] == row

    def test_side_rejects_two_radicals(self):
        h = OrientedHyperplane([QuadElem(0, 1, 2), 0, 1])
        with pytest.raises(DomainError, match="sqrt"):
            side((QuadElem(0, 1, 5), 1), h)

    def test_stack_offset_matches_evaluation(self):
        # every pair of simple planar configurations, Q(sqrt5) ones included,
        # so the largest requirement is also picked by its radical part
        rng = np.random.default_rng(2942)
        q5 = (_q5_config(rng, 5, 5) for _ in itertools.count())
        simple = [C for C in _seeded_configs() if C.dim == 2 and is_simple(C)[0]]
        simple += list(itertools.islice((C for C in q5 if is_simple(C)[0]), 4))
        for C1, C2 in itertools.permutations(simple, 2):
            requirements = [-h.evaluate(p) for p in C1.points for h in C2.hyperplanes]
            requirements += [h.evaluate(p) for p in C2.points for h in C1.hyperplanes]
            delta = max([QuadElem(0), *requirements]) + 1
            lifted = translate(C1, (0, delta))
            expected = Configuration(2, lifted.points + C2.points,
                                     lifted.hyperplanes + C2.hyperplanes)
            S = stack(C1, C2)
            assert S == expected and S.field_d == expected.field_d
            assert configuration_to_dict(S) == configuration_to_dict(expected)


RECORDS = {
    "QuadElem": lambda: QuadElem(Fraction(1, 2), Fraction(1, 2), 5),
    "OrientedHyperplane": lambda: OrientedHyperplane([2, 4, 2]),
    "Configuration": lambda: fixture("perles_config").payload,
    "Realization": lambda: Realization(2, ((1.0, -0.5),), ((1.0,), (1.0,))),
    "RationalCertificate": lambda: RationalCertificate(
        ((Fraction(1, 2),),), 1, SignPattern(["+"]), (((Fraction(1, 2),),), ((Fraction(1),),))),
    "SignPattern": lambda: SignPattern.zeros(0, 3),
}


class TestPlainRecords:
    """The classes that check or canonicalize their values (the subclasses
    of ``core._Record``) stay immutable and round-trip through pickle and
    copy with an equal value, hash and repr."""

    @pytest.mark.parametrize("build", list(RECORDS.values()), ids=list(RECORDS))
    def test_immutable_and_copyable(self, build):
        x = build()
        name = next(iter(type(x).__slots__))
        with pytest.raises(AttributeError, match="immutable"):
            setattr(x, name, None)
        for y in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
            assert type(y) is type(x) and y == x and hash(y) == hash(x) and repr(y) == repr(x)

    def test_every_record_is_round_tripped(self):
        for module in pkgutil.iter_modules(signrank.__path__, "signrank."):
            importlib.import_module(module.name)
        assert sorted(cls.__name__ for cls in _Record.__subclasses__()) == sorted(RECORDS)


class TestFromFactorization:
    def test_two_by_two(self):
        C = from_factorization([[1, 0], [1, 1]], [[0, -1], [1, 1]])
        assert C.dim == 1
        assert encode_configuration(C) == SignPattern(["0-", "+0"])

    def test_single_pair(self):
        C = from_factorization([[1, 1]], [[-1], [1]])
        assert encode_configuration(C) == SignPattern(["0"])

    def test_normal_form_violations(self):
        with pytest.raises(DomainError):
            from_factorization([[2, 0]], [[0], [1]])
        with pytest.raises(DomainError):
            from_factorization([[1, 0]], [[0], [2]])

    def test_roundtrip_against_exact_product_signs(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            m, n, r = (int(rng.integers(1, 6)) for _ in range(2)), None, None
            m, n = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            r = int(rng.integers(2, 5))
            U = [[Fraction(1)] + [Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 4)))
                                  for _ in range(r - 1)] for _ in range(m)]
            V = [[Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 4)))
                  for _ in range(n)] for _ in range(r - 1)]
            V.append([Fraction(1)] * n)
            C = from_factorization(U, V)
            product_signs = SignPattern(
                [
                    [
                        (lambda v: (v > 0) - (v < 0))(
                            sum(U[i][k] * V[k][j] for k in range(r))
                        )
                        for j in range(n)
                    ]
                    for i in range(m)
                ]
            )
            assert encode_configuration(C) == product_signs


class TestSimple:
    def test_fig21_simple(self):
        simple, violations = is_simple(_fig21())
        assert simple and not violations

    def test_coincident_points(self):
        C = Configuration(2, [(0, 1), (0, 1)], [[0, 0, 1]])
        simple, violations = is_simple(C)
        assert not simple
        assert any(v.condition == 1 for v in violations)

    def test_point_on_single_line(self):
        C = Configuration(2, [(0, 0)], [[0, 0, 1]])
        simple, violations = is_simple(C)
        assert not simple
        assert {v.condition for v in violations} == {3, 4}

    def test_each_deleted_line_named_once(self):
        # three coincident points: the second and third each against the
        # first, never against each other
        C = Configuration(2, [(0, 1), (0, 1), (0, 1)], [[0, 1, 1]])
        simple, violations = is_simple(C)
        assert not simple
        assert [(v.condition, v.indices) for v in violations] == [(1, (0, 1)), (1, (0, 2))]

    def test_no_points(self):
        # the encoded pattern of a configuration without points is 0 x n:
        # each hyperplane passes through every point (there is none), so
        # each is a zero column that condense deletes, condition 4
        for hyperplanes in ([], [[0, 0, 1]], [[0, 1, 1], [0, -1, 2]]):
            C = configuration_from_dict({"dim": 2, "points": [], "hyperplanes": hyperplanes})
            P = encode_configuration(C)
            assert (P.m, P.n) == (0, len(hyperplanes))
            assert (P.transpose().m, P.transpose().n) == (len(hyperplanes), 0)
            violations = tuple((4, (j,)) for j in range(len(hyperplanes)))
            assert is_simple(C) == (not hyperplanes, violations)

    def test_matches_condensation(self):
        rng = np.random.default_rng(19)
        for _ in range(40):
            C = random_planar_config(rng, 4, 4)
            P = encode_configuration(C)
            assert is_simple(C)[0] == (condense(P).condensed == P)


class TestRigidMotions:
    def test_translate_identity(self):
        C = _fig21()
        assert translate(C, (0, 0)) == C

    def test_translate_preserves_pattern(self):
        C = translate(_fig21(), (100, -7))
        assert encode_configuration(C) == FIG21_PATTERN

    def test_translate_preserves_evaluation_values(self):
        C = _fig21()
        C2 = translate(C, (Fraction(5, 3), Fraction(-7, 2)))
        for p, p2 in zip(C.points, C2.points):
            for h, h2 in zip(C.hyperplanes, C2.hyperplanes):
                assert h.evaluate(p) == h2.evaluate(p2)


class TestDualize:
    def test_empty(self):
        C = Configuration(2, [], [])
        D = dualize(C).configuration
        assert D.num_points == 0 and D.num_hyperplanes == 0

    def test_point_to_line(self):
        C = Configuration(2, [(0, 2)], [])
        D = dualize(C).configuration
        h = D.hyperplanes[0]
        # <(0,2), x> = 1, i.e. 2y - 1 = 0, oriented with the origin negative
        assert h.evaluate((QuadElem(0), QuadElem(0))).sign() == -1
        assert h.evaluate((QuadElem(5), QuadElem(Fraction(1, 2)))).sign() == 0

    def test_origin_point_rejected(self):
        with pytest.raises(DomainError):
            dualize(Configuration(2, [(0, 0)], []))

    def test_origin_line_rejected(self):
        with pytest.raises(DomainError):
            dualize(Configuration(2, [(1, 1)], [[0, 1, 1]]))

    def test_transpose_law(self):
        rng = np.random.default_rng(37)
        for _ in range(30):
            _assert_transpose_law(random_origin_avoiding_config(rng))

    def test_transpose_law_sqrt5(self):
        # the flipped hyperplane sqrt5 + x + y keeps its Q(sqrt5) context
        root5 = QuadElem(0, 1, 5)
        C = Configuration(
            2,
            [(1, 1), (0, root5), (-2, 1)],
            [[root5, 1, 1], [-1, root5, 1], [-root5, 0, 1]],
        )
        assert dualize(C).hyperplane_flips == (0,)
        _assert_transpose_law(C)

    def test_points_on_the_x_axis_encode_after_dualizing(self):
        # a point (a, 0) becomes the vertical line a x = 1, which encodes
        C = Configuration(2, [(2, 0), (-1, 0), (1, 3)], [[1, 1, 0], [-4, 1, 1]])
        result = dualize(C)
        assert [h.is_vertical() for h in result.configuration.hyperplanes] == [True, True, False]
        flips = [-1 if j in result.hyperplane_flips else 1 for j in range(C.num_hyperplanes)]
        P = encode_configuration(C)
        adjusted = SignPattern([[f * v for f, v in zip(flips, row)] for row in P.entries])
        assert encode_configuration(result.configuration) == adjusted.transpose()


def _assert_transpose_law(C):
    """The dual encodes to the transposed pattern with flipped columns negated."""
    result = dualize(C)
    original = SignPattern([[side(p, h) for h in C.hyperplanes] for p in C.points])
    dual_pattern = SignPattern(
        [
            [side(p, h) for h in result.configuration.hyperplanes]
            for p in result.configuration.points
        ]
    )
    flips = [-1 if j in result.hyperplane_flips else 1 for j in range(original.n)]
    adjusted = SignPattern(
        [
            [flips[j] * original.entries[i][j] for j in range(original.n)]
            for i in range(original.m)
        ]
    )
    assert dual_pattern == adjusted.transpose()


def _parallel_mr2_config():
    # two points between/around two horizontal lines: a simple pattern of
    # minimum rank 2 with a direct presentation (all lines rightward)
    return Configuration(2, [(0, 1), (0, 3)], [[-2, 0, 1], [0, 0, 1]])


class TestStack:
    def test_block_pattern(self):
        C = _parallel_mr2_config()
        S = stack(C, C)
        P = encode_configuration(S)
        A = encode_configuration(C)
        assert P.m == 4 and P.n == 4
        assert P.submatrix((0, 1), (0, 1)) == A
        assert P.submatrix((2, 3), (2, 3)) == A
        assert all(P.entries[i][j] == 1 for i in (0, 1) for j in (2, 3))
        assert all(P.entries[i][j] == -1 for i in (2, 3) for j in (0, 1))
        assert is_mr2(P).value

    def test_counts_add(self):
        C = _parallel_mr2_config()
        S = stack(C, C)
        assert S.num_points == 4 and S.num_hyperplanes == 4

    def test_triple_stack_block_structure(self):
        C = _parallel_mr2_config()
        S = stack(stack(C, C), C)
        P = encode_configuration(S)
        A = encode_configuration(C)
        assert P.m == 6 and P.n == 6
        for b in range(3):
            assert P.submatrix((2 * b, 2 * b + 1), (2 * b, 2 * b + 1)) == A
        for bi in range(3):
            for bj in range(3):
                if bi == bj:
                    continue
                expected = 1 if bi < bj else -1
                for i in (2 * bi, 2 * bi + 1):
                    for j in (2 * bj, 2 * bj + 1):
                        assert P.entries[i][j] == expected
        assert is_mr2(P).value

    def test_dimension_padding(self):
        line_config = from_factorization([[1, 0], [1, 1]], [[0, -1], [1, 1]])
        planar = _parallel_mr2_config()
        S = stack(line_config, planar)
        assert S.dim == 2
        P = encode_configuration(S)
        assert P.submatrix((0, 1), (0, 1)) == SignPattern(["0-", "+0"])

    def test_rejects_non_condensed(self):
        C = Configuration(2, [(0, 1), (0, 1)], [[-2, 0, 1], [0, 0, 1]])
        with pytest.raises(DomainError):
            stack(C, _parallel_mr2_config())

    def test_rejects_leftward(self):
        C = Configuration(2, [(0, 1), (0, 3)], [[2, 0, -1], [0, 0, 1]])
        with pytest.raises(DomainError):
            stack(C, _parallel_mr2_config())

    def test_rejects_vertical(self):
        # a vertical line encodes, but stacking shifts along the last axis
        C = Configuration(2, [(0, 1), (0, 3)], [[-2, 0, 1], [1, 1, 0]])
        with pytest.raises(VerticalHyperplane, match="2 of the second .* rightward") as exc:
            stack(_parallel_mr2_config(), C)
        assert exc.value.index == 1


class TestIncidence:
    def test_a0_first_column(self):
        inc = incidence_structure(A0_PATTERN)
        assert inc.hyperplane_members[0] == frozenset({0, 1, 4, 5})

    def test_all_plus_empty(self):
        inc = incidence_structure(SignPattern(["++", "++"]))
        assert all(not s for s in inc.hyperplane_members)
        assert all(not s for s in inc.point_members)

    def test_fig21_line2(self):
        inc = incidence_structure(FIG21_PATTERN)
        assert inc.hyperplane_members[1] == frozenset({1, 2})


class TestConfigurationIO:
    def test_roundtrip(self):
        C = fixture("perles_config").payload
        doc = json.loads(json.dumps(configuration_to_dict(C)))
        assert configuration_from_dict(doc) == C

    def test_sqrt_omitted_means_rational(self):
        doc = {"dim": 2, "points": [[1, "1/2"]], "hyperplanes": [[0, 0, 1]]}
        C = configuration_from_dict(doc)
        assert C.field_d == 1
        assert C.points[0][1] == QuadElem(Fraction(1, 2))

    def test_missing_keys(self):
        with pytest.raises(DomainError):
            configuration_from_dict({"dim": 2})

    @pytest.mark.parametrize("dim", [True, 2.0, 2.5, "2", None, 0])
    def test_dim_must_be_a_positive_integer(self, dim):
        with pytest.raises(DomainError, match="configuration dimension must be"):
            Configuration(dim, [], [[0, 0, 1]])

    def test_dim_stored_as_int(self):
        C = Configuration(np.int64(2), [(1, 2)], [[0, 0, 1]])
        assert type(C.dim) is int and C == Configuration(2, [(1, 2)], [[0, 0, 1]])
        # documents keep their leniency: 2.0 names the integer 2
        doc = {"dim": 2.0, "points": [[1, 2]], "hyperplanes": [[0, 0, 1]]}
        assert configuration_from_dict(doc) == C

    @pytest.mark.parametrize("field, value, error", [
        ("dim", "2", "'dim' must be an integer"), ("dim", 0, "'dim' must be >= 1"),
        ("sqrt", "5", "'sqrt' must be an integer"), ("sqrt", 0.0, "'sqrt' must be >= 1"),
    ])
    def test_document_integer_fields(self, field, value, error):
        doc = {"dim": 2, "points": [[1, 2]], "hyperplanes": [[0, 0, 1]], field: value}
        with pytest.raises(DomainError, match=f"^configuration {error}, got "):
            configuration_from_dict(doc)

    def test_sqrt_written_only_for_radical_scalars(self):
        # "sqrt" names the radical of {"r", "s"} scalars; with none it goes
        doc = {"dim": 2, "sqrt": 5, "points": [[1, 2]], "hyperplanes": [[0, 0, 1]]}
        C = configuration_from_dict(doc)
        assert C.field_d == 1
        assert "sqrt" not in configuration_to_dict(C)
        assert encode_configuration(C) == SignPattern(["+"])


_ROOT2 = QuadElem(0, 1, 2)
_ROOT5 = QuadElem(0, 1, 5)


class TestDerivedField:
    """The field of a configuration is read off its scalars."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: Configuration(2, [(_ROOT5, 1)], [[0, 0, 1]]),
            lambda: Configuration(2, [], [OrientedHyperplane([_ROOT5, 0, 1])]),
        ],
        ids=["point", "hyperplane"],
    )
    def test_radical_scalar_sets_field(self, build):
        assert build().field_d == 5

    @pytest.mark.parametrize(
        "build",
        [
            lambda: Configuration(2, [(_ROOT2, 1)], [[_ROOT5, 0, 1]]),
            lambda: stack(
                Configuration(2, [(_ROOT2, 1), (0, 3)], [[-2, 0, 1], [0, 0, 1]]),
                Configuration(2, [(_ROOT5, 1), (0, 3)], [[-2, 0, 1], [0, 0, 1]]),
            ),
        ],
        ids=["construct", "stack"],
    )
    def test_two_radicals_rejected(self, build):
        with pytest.raises(DomainError, match="sqrt"):
            build()

    @pytest.mark.parametrize(
        "transform",
        [
            lambda C: translate(C, (Fraction(1, 3), Fraction(1, 7))),
            lambda C: dualize(translate(C, (Fraction(1, 3), Fraction(1, 7)))).configuration,
            lambda C: stack(C, _parallel_mr2_config()),
            lambda C: stack(_parallel_mr2_config(), C),
        ],
        ids=["translate", "dualize", "stack", "stack_under"],
    )
    def test_perles_transforms_keep_field(self, transform):
        C = transform(fixture("perles_config").payload)
        assert C.field_d == 5
        doc = json.loads(json.dumps(configuration_to_dict(C)))
        assert doc["sqrt"] == 5
        assert configuration_from_dict(doc) == C
