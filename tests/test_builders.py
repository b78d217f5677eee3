"""Every internal builder of a SignPattern against the checking constructor.

``SignPattern.__init__`` checks each entry of outside input; the package's
own builders (the .pat parser, transpose, submatrix, negate, zeros,
condense, EquivalenceWitness.apply, Realization.signed_pattern, the
rank-2 arrangement in pattern and encode_configuration) wrap rows they built from
checked entries with ``SignPattern._trusted``, unchecked.  Each test here
runs one builder with every ``_trusted`` call validated, and compares its
result with ``SignPattern`` of the same rows given as lists.
"""

import numpy as np
import pytest

from signrank import exactnum, pattern
from signrank.errors import DomainError
from signrank.geometry import Configuration, encode_configuration
from signrank.pattern import EquivalenceWitness, SignPattern, condense, is_mr2

from conftest import random_pattern, random_planar_config, random_witness

EMPTY_SHAPES = ((0, 0), (2, 0), (0, 2))
CHARS = {1: "+", -1: "-", 0: "0"}


@pytest.fixture
def trusted_calls(monkeypatch):
    """Validate the rows of every ``SignPattern._trusted`` call: a tuple of
    m tuples of n entries, each a plain int (not a bool, not a numpy
    scalar) in {-1, 0, 1}.  Returns the list of (m, n) of the calls."""
    original = SignPattern.__dict__["_trusted"].__func__
    calls = []

    def checked(cls, entries, m, n):
        assert type(entries) is tuple and len(entries) == m
        for row in entries:
            assert type(row) is tuple and len(row) == n
            for v in row:
                assert type(v) is int and v in (-1, 0, 1), repr(v)
        calls.append((m, n))
        return original(cls, entries, m, n)

    monkeypatch.setattr(SignPattern, "_trusted", classmethod(checked))
    return calls


def assert_as_checked(P: SignPattern, rows, shape=None):
    """P equals SignPattern(rows) and hashes alike, with plain-int entries.
    A pattern without rows cannot tell SignPattern its width, so there the
    expected shape is given instead."""
    assert all(type(v) is int for row in P.entries for v in row)
    if rows:
        Q = SignPattern([list(row) for row in rows])
        assert P == Q and hash(P) == hash(Q)
        assert (P.m, P.n) == (Q.m, Q.n)
    else:
        assert P.entries == () and (P.m, P.n) == shape


def _patterns(seed, count=12):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        m, n = (int(x) for x in rng.integers(1, 9, size=2))
        yield rng, random_pattern(rng, m, n, zero_prob=float(rng.uniform(0, 0.6)))


def _empty(m, n):
    return SignPattern.zeros(m, n) if m == 0 else SignPattern([[]] * m)


class TestPatternBuilders:
    def test_from_text(self, trusted_calls):
        for _, A in _patterns(1):
            rows = [list(row) for row in A.entries]
            text = "# random\n" + "\n".join(" ".join(CHARS[v] for v in row) for row in rows)
            assert_as_checked(SignPattern.from_text(text), rows)
        assert_as_checked(SignPattern.from_text(""), [], (0, 0))
        assert_as_checked(SignPattern.from_text("# only a comment\n\n"), [], (0, 0))
        assert trusted_calls

    def test_transpose(self, trusted_calls):
        for _, A in _patterns(2):
            E = A.entries
            assert_as_checked(A.transpose(), [[E[i][j] for i in range(A.m)] for j in range(A.n)])
        assert trusted_calls

    def test_submatrix(self, trusted_calls):
        for rng, A in _patterns(3):
            rows = sorted(rng.choice(A.m, size=int(rng.integers(1, A.m + 1)), replace=False))
            cols = sorted(rng.choice(A.n, size=int(rng.integers(1, A.n + 1)), replace=False))
            assert_as_checked(A.submatrix(rows, cols),
                              [[A.entries[i][j] for j in cols] for i in rows])
            assert_as_checked(A.submatrix([], cols), [], (0, len(cols)))
        assert trusted_calls

    def test_negate(self, trusted_calls):
        for _, A in _patterns(4):
            assert_as_checked(A.negate(), [[-v for v in row] for row in A.entries])
        assert trusted_calls

    def test_zeros(self, trusted_calls):
        assert_as_checked(SignPattern.zeros(3, 4), [[0] * 4] * 3)
        assert_as_checked(SignPattern.zeros(2, 0), [[]] * 2)
        assert_as_checked(SignPattern.zeros(0, 2), [], (0, 2))
        assert_as_checked(SignPattern.zeros(np.int64(2), np.int64(1)), [[0]] * 2)
        assert trusted_calls

    def test_zeros_rejects_bad_shapes(self):
        for m, n in ((-1, 3), (3, -1), (-2, 0)):
            with pytest.raises(DomainError):
                SignPattern.zeros(m, n)
        for m, n in ((2.0, 2), (2.5, 1), (2, "2"), (None, 1), (2, True)):
            with pytest.raises(DomainError, match="must be an integer"):
                SignPattern.zeros(m, n)

    def test_condense(self, trusted_calls):
        for _, A in _patterns(5):
            report = condense(A)
            assert_as_checked(report.condensed, [[A.entries[i][j] for j in report.kept_cols]
                                                 for i in report.kept_rows])
        assert_as_checked(condense(SignPattern.zeros(3, 2)).condensed, [], (0, 0))
        assert trusted_calls

    def test_witness_apply(self, trusted_calls):
        for rng, A in _patterns(6):
            w = random_witness(rng, A.m, A.n)
            expected = [[w.row_signs[i] * w.col_signs[j] * A.entries[w.row_perm[i]][w.col_perm[j]]
                         for j in range(A.n)] for i in range(A.m)]
            assert_as_checked(w.apply(A), expected)
            # signs given as numpy integers or bools come out as plain ints
            numpy_signs = EquivalenceWitness(w.row_perm, w.col_perm,
                                             tuple(np.int64(s) for s in w.row_signs),
                                             tuple(s > 0 or -1 for s in w.col_signs))
            assert_as_checked(numpy_signs.apply(A), expected)
        assert trusted_calls

    def test_witness_apply_rejects_bad_signs(self):
        A = SignPattern(["+-", "0+"])
        for signs in ((1, 2), (1, 0), (1, "+"), (1, 0.5)):
            with pytest.raises(DomainError):
                EquivalenceWitness((0, 1), (0, 1), (1, 1), signs).apply(A)

    @pytest.mark.parametrize("row_perm", [(0, 0), (-1, 0), (0,), (0, 1, 2), (1.0, 0.0),
                                          (True, False), (0, "a")],
                             ids=["repeated", "negative", "short", "long", "floats",
                                  "bools", "text"])
    def test_witness_apply_rejects_bad_permutations(self, row_perm):
        # each line of A is taken once, by an integer index: a repeated row,
        # a negative index (which Python would wrap to the last row), a
        # permutation of the wrong length, or an index that names no integer
        # (1.0 and True sort like 1) names no equivalence
        A = SignPattern(["+-", "0+"])
        with pytest.raises(DomainError, match="witness"):
            EquivalenceWitness(row_perm, (0, 1), (1,) * len(row_perm), (1, 1)).apply(A)
        with pytest.raises(DomainError, match="witness"):
            EquivalenceWitness((0, 1), row_perm, (1, 1), (1,) * len(row_perm)).apply(A)

    def test_witness_apply_rejects_wrong_sign_counts(self):
        A = SignPattern(["+-", "0+"])
        for signs in ((1,), (1, 1, 1)):
            with pytest.raises(DomainError, match="permute"):
                EquivalenceWitness((0, 1), (0, 1), signs, (1, 1)).apply(A)

    @pytest.mark.parametrize("m,n", EMPTY_SHAPES)
    def test_empty_shapes(self, trusted_calls, m, n):
        P = _empty(m, n)
        assert (P.m, P.n) == (m, n)
        rows = [[]] * m
        assert_as_checked(P.negate(), rows, (m, n))
        assert_as_checked(P.submatrix(range(m), range(n)), rows, (m, n))
        assert_as_checked(EquivalenceWitness.identity(m, n).apply(P), rows, (m, n))
        assert_as_checked(P.transpose(), [[]] * n, (n, m))
        assert_as_checked(condense(P).condensed, [], (0, 0))

    @pytest.mark.parametrize("m,n", EMPTY_SHAPES)
    def test_transpose_is_an_involution_on_empty_shapes(self, m, n):
        P = _empty(m, n)
        T = P.transpose()
        assert (T.m, T.n) == (n, m)
        assert T.transpose() == P


class TestRealizeBuilders:
    def test_signed_pattern(self, trusted_calls):
        rng = np.random.default_rng(7)
        for m, n, r in ((5, 7, 3), (1, 4, 2), (6, 1, 1), (2, 0, 2), (0, 3, 2)):
            U = np.hstack([np.ones((m, 1)), rng.normal(size=(m, r - 1))])
            V = np.vstack([rng.normal(size=(r - 1, n)), np.ones((1, n))])
            if m and n and r > 1:
                U[0, 1:] = V[0, 0] = 0.0  # an exact zero at (0, 0)
            real = exactnum.Realization(r, U, V)
            B = U @ V
            expected = [[0 if abs(b) <= exactnum.DEFAULT_ZERO_TOL else (1 if b > 0 else -1)
                         for b in row] for row in B]
            assert_as_checked(real.signed_pattern(), expected, (m, n))
        assert trusted_calls

    def test_rank2_arrangement(self, trusted_calls):
        rng = np.random.default_rng(8)
        seen = 0
        for _ in range(40):
            m, n = (int(x) for x in rng.integers(2, 8, size=2))
            x, y = rng.normal(size=m), rng.normal(size=n)
            A = SignPattern(np.sign(np.subtract.outer(x, y)).astype(int).tolist())
            result = is_mr2(A)
            if not result:
                continue
            C, w = result.condensation.condensed, result.witness
            d = dict(zip(w.row_perm, w.row_signs))
            c = dict(zip(w.col_perm, w.col_signs))
            real = pattern._realization_from_arrangement(C, w)
            assert_as_checked(real.signed_pattern(), [[d[i] * C.entries[i][j] * c[j]
                                                       for j in range(C.n)] for i in range(C.m)])
            seen += 1
        assert seen and trusted_calls


class TestGeometryBuilders:
    def test_encode_configuration(self, trusted_calls):
        rng = np.random.default_rng(9)
        for _ in range(6):
            C = random_planar_config(rng, int(rng.integers(2, 8)), int(rng.integers(1, 8)))
            rows = [[exactnum.quad_sign(h.evaluate(p)) for h in C.hyperplanes] for p in C.points]
            assert_as_checked(encode_configuration(C), rows)
        assert_as_checked(encode_configuration(Configuration(2, [], [[0, 0, 1]])), [], (0, 1))
        assert trusted_calls
