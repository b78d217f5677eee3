import itertools
import tracemalloc
from graphlib import CycleError, TopologicalSorter

import numpy as np
import pytest

from signrank import pattern, realize
from signrank.errors import DomainError, PatternFormatError, ResourceExhausted
from signrank.fixtures import A0_PATTERN, A1_PATTERN, A2_PATTERN
from signrank.pattern import (
    CondensationReport,
    DeletionEvent,
    EquivalenceWitness,
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
from signrank.realize import has_direct_representation

from conftest import (
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
        E = random_pattern(rng, m, n, float(rng.uniform(0.0, 0.6))).to_array().reshape(m, n)
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


def _per_candidate_max_sns(A: SignPattern, cap: int):
    """The former max_sns_submatrix: every k x k candidate in lexicographic
    (rows, cols) order, skipped on deficient term rank, else tested with
    is_sns."""
    upper = min(cap, A.m, A.n, term_rank(A))
    for k in range(upper, 0, -1):
        for rows in itertools.combinations(range(A.m), k):
            for cols in itertools.combinations(range(A.n), k):
                sub = A.submatrix(rows, cols)
                if term_rank(sub) < k:
                    continue
                if is_sns(sub):
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
    """Patterns passed to condense, counted wherever a module holds it."""
    calls = []
    original = pattern.condense

    def counted(A):
        calls.append(A)
        return original(A)

    for module in (pattern, realize):
        monkeypatch.setattr(module, "condense", counted)
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
        assert max_sns_submatrix(SignPattern.zeros(2, 2)) == (0, (), ())

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
        # full (its own Laplace split, odd sizes included) before a hit
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

    def test_small_chunks_match_per_candidate_loop(self, monkeypatch):
        # budgets below one row of candidates split the columns into blocks;
        # sizes 3 and up are scanned chunk by chunk, not read from a table
        rng = np.random.default_rng(45)
        for budget in (1, 7, 50):
            monkeypatch.setattr(pattern, "_SCAN_BUDGET", budget)
            for _ in range(20):
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
        # a zero-free SNS block is at most 2 x 2, so every size 10..3 is
        # scanned in full; the half-size tables keep the working set small
        P = random_pattern(np.random.default_rng(37), 10, 10, 0.0)
        tracemalloc.start()
        try:
            found = max_sns_submatrix(P, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert found == _per_candidate_max_sns(P, 2)
        assert peak < 8 * 2**20

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
    def test_single_plus(self):
        assert is_mr1(SignPattern(["+"]))
        assert not is_mr2(SignPattern(["+"])).value

    def test_all_ones_block(self):
        assert is_mr1(SignPattern(["++", "++"]))

    def test_a1_not_mr1(self):
        assert not is_mr1(A1_PATTERN)

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
            assert not (is_mr1(P) and is_mr2(P).value)

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

    def test_tiny_instance_trichotomy(self):
        # with at most 3 rows, exactly one of mr=0 / mr=1 / mr=2 / mr=3 holds
        rng = np.random.default_rng(14)
        for _ in range(200):
            P = random_pattern(rng, 3, int(rng.integers(1, 7)), 0.3)
            states = [P.is_zero(), is_mr1(P), is_mr2(P).value]
            assert sum(states) <= 1
            condensed = condense(P).condensed
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


class TestEquivalenceInvariance:
    def test_rank_statistics_invariant(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            m, n = int(rng.integers(2, 6)), int(rng.integers(2, 6))
            A = random_pattern(rng, m, n, 0.25)
            B = random_witness(rng, m, n).apply(A)
            assert is_mr1(A) == is_mr1(B)
            assert is_mr2(A).value == is_mr2(B).value
            assert term_rank(A) == term_rank(B)
            assert max_sns_submatrix(A, 3)[0] == max_sns_submatrix(B, 3)[0]
            ba, bb = mr_bounds(A, MrBoundsOptions(sns_cap=3)), mr_bounds(B, MrBoundsOptions(sns_cap=3))
            assert (ba.lower, ba.upper) == (bb.lower, bb.upper)
