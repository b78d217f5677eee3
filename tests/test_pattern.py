import functools
import itertools
import tracemalloc
from graphlib import CycleError, TopologicalSorter

import numpy as np
import pytest

from signrank import pattern, realize
from signrank.core import load_pattern, save_pattern
from signrank.errors import DomainError, PatternFormatError, ResourceExhausted
from signrank.fixtures import A0_PATTERN, A1_PATTERN, A2_PATTERN
from signrank.pattern import (
    CondensationReport,
    DeletionEvent,
    EquivalenceWitness,
    MrBounds,
    MrBoundsOptions,
    SearchParams,
    SignPattern,
    condense,
    has_direct_representation,
    is_equivalent,
    is_mr2,
    is_sns,
    max_sns_submatrix,
    mr_bounds,
    term_rank,
)

from conftest import (
    equivalence_orbit,
    factor_arrays,
    factorial_term_rank,
    permutation_sns,
    random_pattern,
    random_witness,
)


class TestTextFormat:
    def test_roundtrip(self):
        text = "+-0\n0+-"
        P = SignPattern.from_text(text)
        assert P.to_text() == text

    def test_save_rows_without_columns_refused(self, tmp_path):
        # m blank lines would load back as 0 x 0; the file is not touched
        path = tmp_path / "x.pat"
        with pytest.raises(DomainError, match="3 x 0"):
            save_pattern(SignPattern([[], [], []]), path)
        assert not path.exists()

    def test_save_columns_without_rows_refused(self, tmp_path):
        # a file without rows loads back as 0 x 0
        path = tmp_path / "x.pat"
        with pytest.raises(DomainError, match="0 x 2"):
            save_pattern(SignPattern.zeros(0, 2), path)
        assert not path.exists()

    def test_save_empty_pattern_roundtrip(self, tmp_path):
        path = tmp_path / "empty.pat"
        save_pattern(SignPattern([]), path)
        P = load_pattern(path)
        assert (P.m, P.n) == (0, 0)

    def test_comments_and_whitespace(self):
        P = SignPattern.from_text("# header\n+ - 0\n0 + -\n")
        assert P == SignPattern(["+-0", "0+-"])

    def test_bad_character_position(self):
        with pytest.raises(PatternFormatError) as exc:
            SignPattern.from_text("+-0\n0x-")
        assert exc.value.line == 2
        assert exc.value.column == 2

    def test_bad_character_after_spaces_and_tabs(self):
        with pytest.raises(PatternFormatError) as exc:
            SignPattern.from_text("+ -\t0\n0 x -")
        assert (exc.value.line, exc.value.column) == (2, 3)
        assert str(exc.value) == "invalid character 'x' in pattern (line 2, column 3)"

    def test_crlf_line_endings(self):
        assert SignPattern.from_text("+-0\r\n0+-\r\n") == SignPattern(["+-0", "0+-"])
        with pytest.raises(PatternFormatError) as exc:
            SignPattern.from_text("+-0\r\n0?-\r\n")
        assert (exc.value.line, exc.value.column) == (2, 2)

    def test_blank_and_comment_lines_between_rows(self):
        text = "# header\n+-0\n\n   \n# between\n\t# indented\n0+-\n"
        assert SignPattern.from_text(text) == SignPattern(["+-0", "0+-"])
        with pytest.raises(PatternFormatError) as exc:
            SignPattern.from_text("+-\n\n# note\n  + #")
        assert str(exc.value) == "invalid character '#' in pattern (line 4, column 5)"

    def test_ragged_rows(self):
        with pytest.raises(PatternFormatError):
            SignPattern.from_text("+-\n+")
        with pytest.raises(PatternFormatError) as exc:
            SignPattern.from_text("+ - 0\n\n# c\n+-")
        assert exc.value.line == 4 and exc.value.column is None
        assert str(exc.value) == "row has 2 entries, expected 3 (line 4)"

    def test_invalid_values(self):
        with pytest.raises(DomainError):
            SignPattern([[2]])

    def test_bool_values_rejected(self):
        # True == 1 and False == 0, but a bool names no sign
        for row in ([True, False], [1, False]):
            with pytest.raises(DomainError):
                SignPattern([row])

    def test_numpy_bool_values_rejected(self):
        # numpy's bools are not Python bools, but name no sign either
        for rows in (np.array([[True, False]]), [[np.True_, 1]], [[1, np.bool_(False)]]):
            with pytest.raises(DomainError):
                SignPattern(rows)
        assert SignPattern(np.array([[-1, 0, 1]], dtype=np.int8)) == SignPattern(["-0+"])

    def test_fractional_values_rejected(self):
        for value in (0.5, -1.7, 1.25, float("nan"), float("inf"), None):
            with pytest.raises(DomainError):
                SignPattern([[value, 1]])
        assert SignPattern(np.sign([[-2.5, 0.0, 3.0]])) == SignPattern(["-0+"])


def _replay_log(P: SignPattern, report):
    rows = list(range(P.m))
    cols = list(range(P.n))
    for event in report.log:
        if event.axis == "row":
            rows.remove(event.index)
        else:
            cols.remove(event.index)
    return P.submatrix(rows, cols)


def _reference_condense(A: SignPattern) -> CondensationReport:
    """The former condense: each line compared with every kept line of its
    axis, O(m^2 n) per sweep, rows then columns until a pass deletes
    nothing."""
    rows = list(range(A.m))
    cols = list(range(A.n))
    log = []

    def row_vec(i):
        return tuple(A.entries[i][j] for j in cols)

    def col_vec(j):
        return tuple(A.entries[i][j] for i in rows)

    changed = True
    while changed:
        changed = False
        kept = []
        for i in rows:
            v = row_vec(i)
            if all(x == 0 for x in v):
                log.append(DeletionEvent("row", "zero", i))
                changed = True
                continue
            dup = None
            for k in kept:
                w = row_vec(k)
                if w == v:
                    dup = DeletionEvent("row", "duplicate", i, k)
                    break
                if tuple(-x for x in w) == v:
                    dup = DeletionEvent("row", "opposite", i, k)
                    break
            if dup is not None:
                log.append(dup)
                changed = True
            else:
                kept.append(i)
        rows = kept

        kept = []
        for j in cols:
            v = col_vec(j)
            if all(x == 0 for x in v):
                log.append(DeletionEvent("col", "zero", j))
                changed = True
                continue
            dup = None
            for k in kept:
                w = col_vec(k)
                if w == v:
                    dup = DeletionEvent("col", "duplicate", j, k)
                    break
                if tuple(-x for x in w) == v:
                    dup = DeletionEvent("col", "opposite", j, k)
                    break
            if dup is not None:
                log.append(dup)
                changed = True
            else:
                kept.append(j)
        cols = kept

    if not rows or not cols:
        rows, cols = [], []
    condensed = SignPattern([[A.entries[i][j] for j in cols] for i in rows])
    return CondensationReport(condensed, tuple(rows), tuple(cols), tuple(log))


def _redundant_patterns(count: int, seed: int):
    """Seeded patterns of 0-9 rows and 0-9 columns: a random core of up to
    6 x 6 with zero, duplicate and opposite rows and columns inserted at
    random positions (0 to 3 per axis)."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        m, n = int(rng.integers(0, 7)), int(rng.integers(0, 7))
        P = random_pattern(rng, m, n, float(rng.uniform(0.0, 0.6)))
        E = np.array(P.entries, dtype=np.int8).reshape(m, n)
        for axis in (0, 1):
            for _ in range(int(rng.integers(0, 4))):
                size = E.shape[axis]
                kind = int(rng.integers(3)) if size else 0
                if kind == 0:
                    line = np.zeros(E.shape[1 - axis], dtype=E.dtype)
                else:
                    line = np.take(E, int(rng.integers(size)), axis=axis) * (1 if kind == 1 else -1)
                E = np.insert(E, int(rng.integers(size + 1)), line, axis=axis)
        yield SignPattern(E.tolist())


def _reference_is_sns(A: SignPattern) -> bool:
    """The former is_sns: the determinant's term-sign code, bit 1 set when
    some term is positive and bit 2 when some term is negative, must be 1
    or 2.  The code comes from expansion along the first row, memoized on
    the columns left to the rows below; a cofactor of negative sign swaps
    its two bits."""
    n, E = A.n, A.entries
    assert A.m == n

    @functools.cache
    def code(i: int, cols: int) -> int:
        # rows i.. on the columns whose bits are set in cols (n - i of them)
        if i == n:
            return 1  # the empty product: one positive term
        out = 0
        sign = 1  # (-1)^p for the p-th kept column
        for j in range(n):
            if cols >> j & 1:
                if E[i][j]:
                    c = code(i + 1, cols & ~(1 << j))
                    out |= c if E[i][j] == sign else (c & 1) << 1 | c >> 1
                sign = -sign
        return out

    return code(0, (1 << n) - 1) in (1, 2)


def _brute_l_matrix_rows(A: SignPattern, k: int):
    """The k-subsets R of A's rows, in lexicographic order, where every
    nonzero d in {-1, 0, 1}^k leaves a unisigned column (nonzero, with no
    two entries of opposite sign) in diag(d) A[R, :]."""
    def unisigned(column) -> bool:
        return any(column) and not (1 in column and -1 in column)

    return [R for R in itertools.combinations(range(A.m), k)
            if all(any(unisigned([d_i * A.entries[i][j] for d_i, i in zip(d, R)])
                       for j in range(A.n))
                   for d in itertools.product((-1, 0, 1), repeat=k) if any(d))]


def _per_candidate_max_sns(A: SignPattern, cap: int):
    """The former max_sns_submatrix: every k x k candidate in lexicographic
    (rows, cols) order, skipped on deficient term rank, else tested with
    _reference_is_sns."""
    upper = min(cap, A.m, A.n, term_rank(A))
    for k in range(upper, 0, -1):
        for rows in itertools.combinations(range(A.m), k):
            for cols in itertools.combinations(range(A.n), k):
                sub = A.submatrix(rows, cols)
                if term_rank(sub) < k:
                    continue
                if _reference_is_sns(sub):
                    return (k, rows, cols)
    return (0, (), ())


def _orderable(lines) -> bool:
    """Is there one order of the positions making every line nondecreasing?
    True iff the precedence digraph of all lines is acyclic."""
    graph = {p: set() for p in range(len(lines[0]))}
    for line in lines:
        for a, b in itertools.permutations(range(len(line)), 2):
            if line[a] < line[b]:
                graph[b].add(a)
    try:
        tuple(TopologicalSorter(graph).static_order())
    except CycleError:
        return False
    return True


def _exhaustive_mr2(P: SignPattern) -> bool:
    """The former mr2 decision: every column signature with c[0] = + (the
    global flip is invisible), then row signs by backtracking, pruned when
    the signed rows admit no common column order."""
    C = condense(P).condensed
    m, n, E = C.m, C.n, C.entries
    if m < 2 or n < 2:
        return False
    if any(row.count(0) > 1 for row in E) or any(col.count(0) > 1 for col in zip(*E)):
        return False

    def extend(c, rows):
        if len(rows) == m:
            return _orderable(list(zip(*rows)))
        i = len(rows)
        for d in (1, -1):
            signed = rows + [tuple(d * c[j] * E[i][j] for j in range(n))]
            if _orderable(signed) and extend(c, signed):
                return True
        return False

    return any(
        extend((1,) + tail, []) for tail in itertools.product((1, -1), repeat=n - 1)
    )


def _mr2_trials():
    """Seeded (family, pattern) inputs for the mr2 oracles, up to 8 x 8:
    sparse random patterns, planted staircases sign(u_i + v_j) (mr <= 2),
    and planted staircases with one entry changed (near rank 2)."""
    rng = np.random.default_rng(41)
    for trial in range(600):
        m, n = int(rng.integers(2, 9)), int(rng.integers(2, 9))
        family = ("random", "staircase", "changed")[trial % 3]
        if family == "random":
            P = random_pattern(rng, m, n, float(rng.uniform(0.0, 0.25)))
        else:
            # sign(u_i + v_j) with small integers: zeros where u_i = -v_j
            u, v = rng.integers(-4, 5, size=m), rng.integers(-4, 5, size=n)
            stair = np.sign(np.add.outer(u, v))
            if family == "changed":
                i, j = int(rng.integers(m)), int(rng.integers(n))
                stair[i, j] = rng.choice([s for s in (-1, 0, 1) if s != stair[i, j]])
            P = random_witness(rng, m, n).apply(SignPattern(stair.tolist()))
        yield family, P


def _mr2_pin_patterns():
    """360 seeded patterns of 2..30 rows and columns, in turn: a staircase
    sign(i - j - 1/2), sign(u_i + v_j) with small integers (zeros where
    u_i = -v_j), both signed and permuted, and a random pattern."""
    rng = np.random.default_rng(2027)
    for k in range(360):
        m, n = int(rng.integers(2, 31)), int(rng.integers(2, 31))
        if k % 3 == 0:
            stair = np.sign(np.subtract.outer(np.arange(m), np.arange(n) + 0.5)).astype(int)
        elif k % 3 == 1:
            u, v = rng.integers(-6, 7, size=m), rng.integers(-6, 7, size=n)
            stair = np.sign(np.add.outer(u, v))
        else:
            yield random_pattern(rng, m, n, float(rng.uniform(0.0, 0.3)))
            continue
        yield random_witness(rng, m, n).apply(SignPattern(stair.tolist()))


def _assert_nondecreasing(arranged: SignPattern):
    for row in arranged.entries:
        assert list(row) == sorted(row)
    for col in zip(*arranged.entries):
        assert list(col) == sorted(col)


class TestCondense:
    def test_all_plus_square(self):
        report = condense(SignPattern(["++", "++"]))
        assert report.condensed == SignPattern(["+"])
        assert report.kept_rows == (0,) and report.kept_cols == (0,)

    def test_opposite_rows_then_columns(self):
        # hand application: row 2 is opposite of row 1, row 3 is zero,
        # then the second column is opposite of the first
        report = condense(SignPattern(["+-", "-+", "00"]))
        assert report.condensed == SignPattern(["+"])
        kinds = [(e.axis, e.kind) for e in report.log]
        assert ("row", "opposite") in kinds
        assert ("row", "zero") in kinds
        assert ("col", "opposite") in kinds

    def test_a0_already_condensed(self):
        report = condense(A0_PATTERN)
        assert report.condensed == A0_PATTERN
        assert report.log == ()

    def test_zero_pattern_gives_empty(self):
        report = condense(SignPattern.zeros(3, 2))
        assert report.condensed.m == 0 and report.condensed.n == 0

    def test_log_replay(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            P = random_pattern(rng, int(rng.integers(1, 7)), int(rng.integers(1, 7)), 0.4)
            report = condense(P)
            assert _replay_log(P, report) == report.condensed
            assert P.submatrix(report.kept_rows, report.kept_cols) == report.condensed

    def test_idempotent(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            P = random_pattern(rng, int(rng.integers(1, 7)), int(rng.integers(1, 7)), 0.35)
            once = condense(P).condensed
            assert condense(once).condensed == once

    def test_matches_reference_condense(self):
        kinds = set()
        for P in _redundant_patterns(2500, seed=71):
            report = condense(P)
            assert report == _reference_condense(P)
            kinds.update((e.axis, e.kind) for e in report.log)
        assert kinds == {(a, k) for a in ("row", "col") for k in ("zero", "duplicate", "opposite")}


@pytest.fixture
def condense_calls(monkeypatch):
    """Patterns passed to condense, counted in pattern, the one module of
    the deciders and of the realization entry point that calls it."""
    calls = []
    original = pattern.condense

    def counted(A):
        calls.append(A)
        return original(A)

    monkeypatch.setattr(pattern, "condense", counted)
    return calls


class TestCondenseOnce:
    def test_mr_bounds(self, condense_calls):
        mr_bounds(A0_PATTERN)
        assert len(condense_calls) == 1

    def test_direct_representation_rank2(self, condense_calls):
        assert has_direct_representation(SignPattern(["--+", "-0+", "-++"]), 2).status == "yes"
        assert len(condense_calls) == 1

    def test_search_realization_rank2(self, condense_calls):
        # decided from is_mr2's condensation: one condense, no search budget
        params = realize.SearchParams(restarts=0)
        assert realize.search_realization(A1_PATTERN, 2, params) is not None
        assert len(condense_calls) == 1
        assert realize.search_realization(A0_PATTERN, 2, params) is None
        assert len(condense_calls) == 2

    def test_search_realization_rank3(self, condense_calls):
        # the float search runs on the condensation the entry point made
        realize.search_realization(A0_PATTERN, 3, realize.SearchParams(restarts=1, iters=20))
        assert len(condense_calls) == 1


@pytest.fixture
def term_rank_calls(monkeypatch):
    """Patterns passed to term_rank, counted as condense_calls counts condense."""
    calls = []
    original = pattern.term_rank

    def counted(A):
        calls.append(A)
        return original(A)

    monkeypatch.setattr(pattern, "term_rank", counted)
    return calls


class TestTermRankOnce:
    @pytest.mark.parametrize("A", [A0_PATTERN, A1_PATTERN], ids=["A0", "A1"])
    def test_mr_bounds(self, term_rank_calls, A):
        # the SNS scan reads the bound mr_bounds already has
        mr_bounds(A)
        assert len(term_rank_calls) == 1

    def test_max_sns_submatrix(self, term_rank_calls):
        assert max_sns_submatrix(A0_PATTERN, cap=4)[0] == 3
        assert len(term_rank_calls) == 1


class TestEquivalence:
    def test_identity(self):
        w = is_equivalent(A1_PATTERN, A1_PATTERN)
        assert w is not None and w.apply(A1_PATTERN) == A1_PATTERN

    def test_negation(self):
        w = is_equivalent(A1_PATTERN, A1_PATTERN.negate())
        assert w is not None
        assert w.apply(A1_PATTERN) == A1_PATTERN.negate()

    def test_recovers_constructed_transform(self):
        # swap rows 1 and 2, negate column 2
        swapped = EquivalenceWitness(
            row_perm=(1, 0, 2),
            col_perm=(0, 1, 2),
            row_signs=(1, 1, 1),
            col_signs=(1, -1, 1),
        )
        B = swapped.apply(A1_PATTERN)
        w = is_equivalent(A1_PATTERN, B)
        assert w is not None and w.apply(A1_PATTERN) == B

    def test_recovers_random_transforms(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            m, n = int(rng.integers(2, 7)), int(rng.integers(2, 7))
            A = random_pattern(rng, m, n, 0.25)
            B = random_witness(rng, m, n).apply(A)
            w = is_equivalent(A, B)
            assert w is not None
            assert w.apply(A) == B

    def test_detects_inequivalence(self):
        A = SignPattern(["+0", "0+"])
        B = SignPattern(["++", "++"])
        assert is_equivalent(A, B) is None

    def test_size_mismatch_is_absent_not_error(self):
        assert is_equivalent(SignPattern(["+"]), SignPattern(["++"])) is None

    # sha256 over repr(is_equivalent(A, B)) for 300 seeded pairs: A random
    # (1..7 rows and columns, zeros 0.25), B a random permutation and
    # signature of A, and at odd k one entry of B then moved to the next
    # sign; 170 of the 300 are equivalent
    PINNED_SHA256 = "3ee4bd5874bc9d4920faab4e0084c07bafccdf8f7ba9963da3dab58cd9213896"

    def test_witnesses_pinned(self):
        import hashlib

        h = hashlib.sha256()
        rng = np.random.default_rng(404)
        for k in range(300):
            m, n = int(rng.integers(1, 8)), int(rng.integers(1, 8))
            A = random_pattern(rng, m, n, 0.25)
            B = random_witness(rng, m, n).apply(A)
            if k % 2:
                E = [list(row) for row in B.entries]
                i, j = int(rng.integers(0, m)), int(rng.integers(0, n))
                E[i][j] = (E[i][j] + 2) % 3 - 1
                B = SignPattern(E)
            h.update(repr(is_equivalent(A, B)).encode())
        assert h.hexdigest() == self.PINNED_SHA256

    def test_against_brute_force(self):
        # A up to 3 x 4 and 4 x 3, with zeros and, for most, a duplicated or
        # opposite column and a zero row or column.  B is a scrambled copy
        # of A, that copy with one nonzero entry negated, or the copy with
        # fresh random signs: the last two keep the zero set, so they pass
        # the row-profile filter and the search itself must answer.  The
        # oracle applies every transform to A.
        rng = np.random.default_rng(2601)
        seen = {True: 0, False: 0}
        for k in range(48):
            m, n = [(3, 4), (4, 3), (3, 3), (2, 4), (4, 2), (2, 3)][k % 6]
            E = [list(row) for row in random_pattern(rng, m, n, (0.0, 0.25, 0.5)[k % 3]).entries]
            if k % 4:
                a, b = rng.choice(n, 2, replace=False)
                sign = int(rng.choice([-1, 1]))
                for row in E:
                    row[b] = sign * row[a]
            if k % 4 == 2:
                E[int(rng.integers(m))] = [0] * n
            if k % 4 == 3:
                zero_col = int(rng.integers(n))
                for row in E:
                    row[zero_col] = 0
            A = SignPattern(E)
            orbit = equivalence_orbit(A)
            scrambled = random_witness(rng, m, n).apply(A)
            cells = [(i, j) for i in range(m) for j in range(n) if scrambled.entries[i][j]]
            negated = [list(row) for row in scrambled.entries]
            resigned = [[v * int(rng.choice([-1, 1])) for v in row] for row in scrambled.entries]
            if cells:
                i, j = cells[int(rng.integers(len(cells)))]
                negated[i][j] *= -1
            for B in (scrambled, SignPattern(negated), SignPattern(resigned)):
                w = is_equivalent(A, B)
                assert (w is not None) == (B.entries in orbit)
                assert w is None or w.apply(A) == B
                seen[w is not None] += 1
        assert min(seen.values()) >= 40

    @pytest.mark.parametrize("m, n", [(0, 3), (3, 0), (0, 0)])
    def test_empty_shapes(self, m, n):
        A = SignPattern.zeros(m, n)
        assert equivalence_orbit(A) == {A.entries}
        assert is_equivalent(A, A) == EquivalenceWitness.identity(m, n)
        assert is_equivalent(A, SignPattern.zeros(m + 1, n)) is None
        assert is_equivalent(A, SignPattern.zeros(m, n + 1)) is None

    def test_node_budget(self, monkeypatch):
        monkeypatch.setattr(pattern, "_NODE_BUDGET", 2)
        rng = np.random.default_rng(1)
        A = random_pattern(rng, 7, 7, 0.0)
        B = random_witness(rng, 7, 7).apply(A)
        with pytest.raises(ResourceExhausted):
            is_equivalent(A, B)


class TestTermRank:
    def test_zero(self):
        assert term_rank(SignPattern.zeros(2, 3)) == 0

    def test_single(self):
        assert term_rank(SignPattern(["+0", "00"])) == 1

    def test_a0_against_factorial_enumeration(self):
        assert term_rank(A0_PATTERN) == factorial_term_rank(A0_PATTERN)

    def test_random_against_factorial_enumeration(self):
        rng = np.random.default_rng(12)
        for _ in range(150):
            P = random_pattern(rng, int(rng.integers(1, 7)), int(rng.integers(1, 7)), 0.45)
            assert term_rank(P) == factorial_term_rank(P)


class TestSns:
    def test_a0_witness_block(self):
        sub = A0_PATTERN.submatrix((3, 4, 5), (6, 7, 8))
        assert is_sns(sub)
        assert permutation_sns(sub)

    def test_diagonal(self):
        assert is_sns(SignPattern(["+0", "0+"]))

    def test_all_plus_two(self):
        assert not is_sns(SignPattern(["++", "++"]))

    def test_non_square(self):
        with pytest.raises(DomainError):
            is_sns(SignPattern(["++"]))

    def test_cap(self):
        big = SignPattern([["+"] * 11 for _ in range(11)])
        with pytest.raises(ResourceExhausted):
            is_sns(big)

    def test_random_against_permutation_expansion(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            n = int(rng.integers(1, 6))
            P = random_pattern(rng, n, n, 0.4)
            assert is_sns(P) == permutation_sns(P)

    def test_random_6x6_7x7_against_permutation_expansion(self):
        rng = np.random.default_rng(22)
        hits = 0
        for trial in range(60):
            n = 6 + trial % 2
            P = random_pattern(rng, n, n, float(rng.uniform(0.5, 0.8)))
            expected = permutation_sns(P)
            assert is_sns(P) == expected
            hits += expected
        assert 0 < hits < 60

    def test_random_8x8_to_10x10_against_reference(self):
        # a nonzero diagonal keeps a nonzero term, so that sparse patterns
        # give both verdicts at every size
        rng = np.random.default_rng(23)
        hits = [0, 0, 0]
        for trial in range(60):
            n = 8 + trial % 3
            zero_prob = float(rng.uniform(0.75, 0.9))
            E = [list(row) for row in random_pattern(rng, n, n, zero_prob).entries]
            for i in range(n):
                E[i][i] = E[i][i] or 1
            P = SignPattern(E)
            expected = _reference_is_sns(P)
            assert is_sns(P) == expected
            hits[n - 8] += expected
        assert all(0 < h < 20 for h in hits)

    def test_hessenberg_10x10(self):
        # + on and below the diagonal, - just above it: all 2^9 nonzero
        # terms of the determinant are positive; flipping one entry below
        # the diagonal breaks that
        n = 10
        H = [[1 if j <= i else (-1 if j == i + 1 else 0) for j in range(n)] for i in range(n)]
        assert is_sns(SignPattern(H)) and permutation_sns(SignPattern(H))
        H[5][2] = -1
        assert not is_sns(SignPattern(H))


class TestMaxSns:
    def test_all_plus(self):
        size, rows, cols = max_sns_submatrix(SignPattern(["++", "++"]))
        assert size == 1

    def test_diag3(self):
        size, rows, cols = max_sns_submatrix(SignPattern(["+00", "0+0", "00+"]))
        assert size == 3 and rows == (0, 1, 2)

    def test_zero_pattern(self):
        # an empty row's bitmasks are 0, not a ValueError from int("", 2)
        for m, n in ((2, 2), (2, 0), (0, 2), (0, 0)):
            assert max_sns_submatrix(SignPattern.zeros(m, n)) == (0, (), ())

    def test_negative_cap(self):
        with pytest.raises(DomainError, match="sns_cap"):
            max_sns_submatrix(SignPattern(["+0", "0+"]), -1)

    @pytest.mark.parametrize("cap", [2.5, 2.0, True, None])
    def test_non_integer_cap(self, cap):
        with pytest.raises(DomainError, match="^sns_cap must be an integer, got "):
            max_sns_submatrix(SignPattern(["+0", "0+"]), cap)

    def test_walk_matches_brute_force(self):
        # the walk yields exactly the k-row L-matrix sets, in order, for
        # every k (k past m yields none)
        rng = np.random.default_rng(43)
        for _ in range(200):
            m, n = int(rng.integers(1, 7)), int(rng.integers(1, 7))
            P = random_pattern(rng, m, n, 0.3)
            rows = [(pattern._mask(row, pattern._PLUS_BIT), pattern._mask(row, pattern._MINUS_BIT))
                    for row in P.entries]
            for k in range(1, m + 2):
                walked = [R for R, _, _ in pattern._l_matrix_rows(rows, n, k)]
                assert walked == _brute_l_matrix_rows(P, k)

    def test_witness_is_sns(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            P = random_pattern(rng, 5, 5, 0.4)
            size, rows, cols = max_sns_submatrix(P, cap=4)
            if size:
                assert is_sns(P.submatrix(rows, cols))

    def test_matches_per_candidate_loop(self):
        rng = np.random.default_rng(33)
        for _ in range(300):
            m, n = int(rng.integers(1, 8)), int(rng.integers(1, 8))
            density = float(rng.uniform(0.2, 1.0))
            P = random_pattern(rng, m, n, 1.0 - density)
            cap = int(rng.integers(0, 7))
            found = max_sns_submatrix(P, cap)
            assert found == _per_candidate_max_sns(P, cap)
            size, rows, cols = found
            if size:
                assert permutation_sns(P.submatrix(rows, cols))

    def test_high_caps_match_per_candidate_loop(self):
        # caps 7-10 on 8-10 lines: every top-level size 7..10 is scanned in
        # full (every row set of that size, odd sizes included) before a hit
        rng = np.random.default_rng(60)
        scanned = set()
        for _ in range(12):
            m, n = int(rng.integers(8, 11)), int(rng.integers(8, 11))
            P = random_pattern(rng, m, n, float(rng.uniform(0.4, 0.6)))
            cap = int(rng.integers(7, 11))
            found = max_sns_submatrix(P, cap)
            assert found == _per_candidate_max_sns(P, cap)
            scanned.update(range(found[0] + 1, min(cap, m, n, term_rank(P)) + 1))
        assert {7, 8, 9, 10} <= scanned

    def test_caps_3_to_5_match_per_candidate_loop(self):
        # 3-7 lines with 20-70% zeros: sizes 3 and up are scanned, and most
        # patterns have enough zeros that no size is skipped
        rng = np.random.default_rng(45)
        for _ in range(60):
            m, n = int(rng.integers(3, 8)), int(rng.integers(3, 8))
            P = random_pattern(rng, m, n, float(rng.uniform(0.2, 0.7)))
            cap = int(rng.integers(3, 6))
            assert max_sns_submatrix(P, cap) == _per_candidate_max_sns(P, cap)

    def test_more_than_63_lines(self):
        # the only SNS 2 x 2 sits on lines 64 and 65
        tall = SignPattern(["00"] * 64 + ["+0", "0+"])
        assert max_sns_submatrix(tall, 2) == (2, (64, 65), (0, 1))
        assert max_sns_submatrix(tall.transpose(), 2) == (2, (0, 1), (64, 65))
        rng = np.random.default_rng(35)
        for shape in ((66, 2), (2, 66)):
            P = random_pattern(rng, *shape, 0.9)
            assert max_sns_submatrix(P, 2) == _per_candidate_max_sns(P, 2)

    def test_zero_free_10x10_at_cap_10(self):
        # a zero-free SNS block is at most 2 x 2, so sizes 10..3 are ruled
        # out by their zero count; the 16 x 16 identity is scanned from
        # size 10, whose first row set already holds a witness.  The
        # working set stays small on both.
        P = random_pattern(np.random.default_rng(37), 10, 10, 0.0)
        identity = SignPattern([["+" if i == j else "0" for j in range(16)] for i in range(16)])
        for A, expected in ((P, _per_candidate_max_sns(P, 2)),
                            (identity, (10, tuple(range(10)), tuple(range(10))))):
            tracemalloc.start()
            try:
                found = max_sns_submatrix(A, 10)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert found == expected
            assert peak < 8 * 2**20

    def test_zero_free_40x40_first_2x2(self):
        # sizes 4 and 3 need 3 and 1 zeros, so only 2 x 2 blocks are scanned:
        # a zero-free one is SNS when the product of its entries is negative
        P = random_pattern(np.random.default_rng(41), 40, 40, 0.0)
        E = P.entries
        pairs = list(itertools.combinations(range(40), 2))
        expected = next((rows, cols) for rows in pairs for cols in pairs
                        if E[rows[0]][cols[0]] * E[rows[0]][cols[1]]
                        * E[rows[1]][cols[0]] * E[rows[1]][cols[1]] < 0)
        assert max_sns_submatrix(P, 4) == (2, *expected)

    def test_no_4x4_sns_with_two_zeros(self):
        # the scan skips size 4 below (4 - 1)(4 - 2) / 2 = 3 zeros (Gibson's
        # bound).  Up to permutations these are the 4 x 4 zero sets with at
        # most 2 zeros, and up to signatures the cells of a spanning tree of
        # the nonzero cells (rows 0-3, columns 4-7) can be signed +
        count = 0
        for zeros in ((), ((0, 0),), ((0, 0), (0, 1)), ((0, 0), (1, 0)), ((0, 0), (1, 1))):
            cells = [(i, j) for i in range(4) for j in range(4) if (i, j) not in zeros]
            parent = list(range(8))

            def root(v):
                while parent[v] != v:
                    v = parent[v]
                return v

            tree = []
            for i, j in cells:
                a, b = root(i), root(4 + j)
                if a != b:
                    parent[a] = b
                    tree.append((i, j))
            free = [cell for cell in cells if cell not in tree]
            for signs in itertools.product((1, -1), repeat=len(free)):
                E = [[0] * 4 for _ in range(4)]
                for (i, j), sign in zip(tree + free, (1,) * len(tree) + signs):
                    E[i][j] = sign
                assert not permutation_sns(SignPattern(E))
                count += 1
        assert count == 2**9 + 2**8 + 3 * 2**7

    def test_every_3x3_against_permutation_expansion(self):
        # negating a pattern keeps SNS, so a + first nonzero covers them all
        count = 0
        for entries in itertools.product((-1, 0, 1), repeat=9):
            if next((v for v in entries if v), 1) < 0:
                continue
            P = SignPattern([entries[0:3], entries[3:6], entries[6:9]])
            expected = permutation_sns(P)
            assert (max_sns_submatrix(P, 3)[0] == 3) == expected
            assert is_sns(P) == expected
            count += 1
        assert count == 9842

    def test_random_4x4_5x5_against_permutation_expansion(self):
        rng = np.random.default_rng(39)
        for trial in range(2000):
            n = 4 + trial % 2
            P = random_pattern(rng, n, n, float(rng.uniform(0.2, 0.8)))
            assert (max_sns_submatrix(P, n)[0] == n) == permutation_sns(P)

    def test_scan_cap(self):
        big = SignPattern([["+" if i == j else "0" for j in range(11)] for i in range(11)])
        with pytest.raises(ResourceExhausted):
            max_sns_submatrix(big, cap=11)


class TestMr1Mr2:
    # mr = 1 exactly when the condensed pattern is 1 x 1, which mr_bounds
    # reports as exact
    def test_single_plus(self):
        assert mr_bounds(SignPattern(["+"]))[:2] == (1, 1)
        assert not is_mr2(SignPattern(["+"])).value

    def test_all_ones_block(self):
        assert mr_bounds(SignPattern(["++", "++"]))[:2] == (1, 1)

    def test_a1_not_mr1(self):
        assert mr_bounds(A1_PATTERN).lower == 2

    def test_a1_a2_are_mr2(self):
        assert is_mr2(A1_PATTERN).value
        assert is_mr2(A2_PATTERN).value

    def test_a0_not_mr2(self):
        assert not is_mr2(A0_PATTERN).value

    def test_witness_is_nondecreasing_arrangement(self):
        result = is_mr2(A1_PATTERN)
        _assert_nondecreasing(result.witness.apply(result.condensation.condensed))

    def test_mr1_mr2_mutually_exclusive(self):
        rng = np.random.default_rng(8)
        for _ in range(150):
            P = random_pattern(rng, int(rng.integers(1, 6)), int(rng.integers(1, 6)), 0.3)
            C = condense(P).condensed
            assert not ((C.m, C.n) == (1, 1) and is_mr2(P).value)

    def test_decides_past_former_column_limit(self):
        # a 30 x 30 staircase sign(i - j - 1/2), signed and permuted: mr 2
        rng = np.random.default_rng(5)
        stair = np.sign(np.subtract.outer(np.arange(30), np.arange(30) + 0.5)).astype(int)
        planted = random_witness(rng, 30, 30).apply(SignPattern(stair.tolist()))
        assert condense(planted).condensed.n == 30
        result = is_mr2(planted)
        assert result.value
        _assert_nondecreasing(result.witness.apply(result.condensation.condensed))
        # an SNS 3 x 3 block (so mr >= 3) beside 27 distinct zero-free columns
        block = [[1, 1, 0], [-1, 1, 1], [0, -1, 1]]
        rows = [
            [block[i][j] if i < 3 else 1 for j in range(3)]
            + [1 if (j >> i) & 1 else -1 for j in range(32, 59)]
            for i in range(6)
        ]
        wide = SignPattern(rows)
        assert condense(wide).condensed.n == 30
        assert permutation_sns(wide.submatrix((0, 1, 2), (0, 1, 2)))
        assert not is_mr2(wide).value

    def test_matches_exhaustive_signature_search(self):
        for family, P in _mr2_trials():
            result = is_mr2(P)
            C = result.condensation.condensed
            assert result.value == _exhaustive_mr2(P)
            if family == "staircase" and min(C.m, C.n) >= 2:
                assert result.value
            if result.value:
                _assert_nondecreasing(result.witness.apply(C))

    def test_direct_arrangement_matches_unsigned_orders(self):
        # has_direct_representation(., 2) arranges with identity signatures:
        # yes iff mr = 2 and the condensed rows and columns, unsigned, can
        # each be ordered
        for _, P in _mr2_trials():
            C = condense(P).condensed
            expected = (
                _exhaustive_mr2(P)
                and _orderable(C.entries)
                and _orderable(list(zip(*C.entries)))
            )
            assert (has_direct_representation(P, 2).status == "yes") == expected

    # sha256 over repr(is_mr2(P).witness) and has_direct_representation(P,
    # 2) (its status, then the shapes and bytes of its U and V) on
    # _mr2_pin_patterns (x86-64, numpy 2.4.6): 251 of the 360 have mr 2, 26
    # of them a direct representation
    WITNESS_SHA256 = "fd4de5aa5e00323b353b3ab5e03b96e686cd405eaca7dd5920c94088213e5e0a"

    def test_witnesses_and_direct_representations_pinned(self):
        import hashlib

        h = hashlib.sha256()
        for P in _mr2_pin_patterns():
            witness = is_mr2(P).witness
            h.update(repr(witness).encode())
            rep = has_direct_representation(P, 2)
            h.update(rep.status.encode())
            if rep.witness is not None:
                U, V = factor_arrays(rep.witness)
                h.update(repr((U.shape, V.shape)).encode() + U.tobytes() + V.tobytes())
        assert h.hexdigest() == self.WITNESS_SHA256

    def test_tiny_instance_trichotomy(self):
        # with at most 3 rows, exactly one of mr=0 / mr=1 / mr=2 / mr=3 holds
        rng = np.random.default_rng(14)
        for _ in range(200):
            P = random_pattern(rng, 3, int(rng.integers(1, 7)), 0.3)
            condensed = condense(P).condensed
            states = [P.is_zero(), (condensed.m, condensed.n) == (1, 1), is_mr2(P).value]
            assert sum(states) <= 1
            if not any(states):
                assert min(condensed.m, condensed.n) == 3


class TestMrBounds:
    def test_zero(self):
        b = mr_bounds(SignPattern.zeros(2, 3))
        assert (b.lower, b.upper) == (0, 0)

    def test_diag2(self):
        b = mr_bounds(SignPattern(["+0", "0+"]))
        assert (b.lower, b.upper) == (2, 2)

    def test_lower_never_exceeds_upper(self):
        rng = np.random.default_rng(17)
        for _ in range(80):
            P = random_pattern(rng, int(rng.integers(1, 6)), int(rng.integers(1, 6)), 0.3)
            b = mr_bounds(P, MrBoundsOptions(sns_cap=3))
            assert b.lower <= b.upper

    def test_sns_pattern_bound(self):
        b = mr_bounds(SignPattern(["+00", "0+0", "00+"]))
        assert b.lower >= 3

    @pytest.mark.parametrize("P, options, lower, upper", [
        (A0_PATTERN, None, "SNS 3x3 at rows 1,2,3 / cols 1,2,4", "term rank 9"),
        (A1_PATTERN, None, "nondecreasing arrangement exists", "nondecreasing arrangement exists"),
        (A2_PATTERN, None, "nondecreasing arrangement exists", "nondecreasing arrangement exists"),
        (SignPattern.zeros(2, 2), None, "zero pattern", "zero pattern"),
        # a skipped search adds only a note, which justifies no bound
        (A0_PATTERN, MrBoundsOptions(try_rank=2), "SNS 3x3 at rows 1,2,3 / cols 1,2,4",
         "term rank 9"),
    ], ids=["A0", "A1", "A2", "zero", "try-rank-note"])
    def test_reason(self, P, options, lower, upper):
        b = mr_bounds(P, options)
        assert (b.reason("lower"), b.reason("upper")) == (lower, upper)

    def test_reason_without_a_record(self):
        b = MrBounds(1, 2, (("lower", 1, "nonzero pattern"), ("note", None, "n")))
        assert (b.reason("lower"), b.reason("upper")) == ("nonzero pattern", "none")
        with pytest.raises(DomainError, match="side"):
            b.reason("note")

    @pytest.mark.parametrize("field, value", [
        ("sns_cap", 2.5), ("sns_cap", True), ("try_rank", 3.0), ("try_rank", False),
        ("seed", 1.5), ("restarts", 1.0), ("iters", None),
    ])
    def test_non_integer_option_rejected(self, field, value):
        # these once ended in a TypeError; try_rank 3.0 ran the search first
        if field in SearchParams._fields:
            options = MrBoundsOptions(search=SearchParams(**{field: value}))
        else:
            options = MrBoundsOptions(**{field: value})
        with pytest.raises(DomainError, match=f"^{field} must be an integer, got "):
            mr_bounds(A0_PATTERN, options)

    def test_numpy_integer_options_accepted(self):
        search = SearchParams(seed=np.int64(0), restarts=np.int64(2), iters=np.int64(200))
        options = MrBoundsOptions(sns_cap=np.int64(3), try_rank=np.int64(3), search=search)
        plain = MrBoundsOptions(sns_cap=3, try_rank=3,
                                search=SearchParams(seed=0, restarts=2, iters=200))
        assert mr_bounds(A0_PATTERN, options) == mr_bounds(A0_PATTERN, plain)


class TestEquivalenceInvariance:
    def test_rank_statistics_invariant(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            m, n = int(rng.integers(2, 6)), int(rng.integers(2, 6))
            A = random_pattern(rng, m, n, 0.25)
            B = random_witness(rng, m, n).apply(A)
            CA, CB = condense(A).condensed, condense(B).condensed
            assert ((CA.m, CA.n) == (1, 1)) == ((CB.m, CB.n) == (1, 1))
            assert is_mr2(A).value == is_mr2(B).value
            assert term_rank(A) == term_rank(B)
            assert max_sns_submatrix(A, 3)[0] == max_sns_submatrix(B, 3)[0]
            ba, bb = mr_bounds(A, MrBoundsOptions(sns_cap=3)), mr_bounds(B, MrBoundsOptions(sns_cap=3))
            assert (ba.lower, ba.upper) == (bb.lower, bb.upper)
