"""The four workloads: what each instance is, how it runs, how it is checked.

A workload yields rounds of instances; a round is one pass over its fixed
slot schedule (family and size), with content drawn from the seed, so every
run sees the same mix of families in the same proportions.  ``run`` is the
timed part: it reads the generated input files the way the CLI does and
returns the program's answer.  ``check`` runs afterwards, untimed, against
answers the benchmark works out itself (see oracle.py).
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import gen
import oracle

# search_realization budget of the search workload (library default threads=1)
SEARCH_RESTARTS = 4
SEARCH_ITERS = 1500


@dataclass
class Instance:
    key: str
    family: str
    data: dict = field(default_factory=dict)


@dataclass
class Outcome:
    verdict: str  # compared across runs of one seed
    decided: bool
    failed: bool = False
    wrong: bool = False  # a returned answer contradicts the benchmark's own
    known: bool = False  # the failure is a documented defect of the program
    note: str = ""


class CheckFailed(Exception):
    pass


def _rng(seed, *path):
    return np.random.default_rng([seed, *path])


def _write(path: Path, text: str):
    path.write_text(text, encoding="utf-8")
    return str(path)


def _digest(data: bytes) -> str:
    return hashlib.sha1(data).hexdigest()[:12]


def error_outcome(raw) -> Outcome:
    return Outcome(verdict="error:" + raw.splitlines()[-1][:80], decided=False, failed=True,
                   note=raw.splitlines()[-1])


# ---------------------------------------------------------------------------
# bounds: mr_bounds with default options


class Bounds:
    name = "bounds"
    # one round on the reference machine (2 cores, numpy kernels)
    round_s = 3.5
    passes = 1
    speed_mix = {"py": 8, "np": 2, "big": 2}  # time shares 55/24/21 (speed.py)
    trace_rounds = 3
    # (family, size).  Per round: five cheap instances (rank-2 and sparse
    # patterns, found fast), four grid incidence patterns whose full 4x4 SNS
    # scan sets the median, and in the tail two zero-free planted patterns
    # (the 6 x 12 one spends half its time in the 2^(n-1) is_mr2 signature
    # enumeration) and A0 three times, so that the tail rank falls inside
    # the A0 group rather than on the edge between two families
    SLOTS = (
        ("rank2", (6, 6)), ("sparse", (8, 8, 0.3)), ("grid", (7, 8)), ("zero_free", (7, 8, 3)),
        ("A0", None), ("rank2", (24, 20)), ("grid", (8, 7)), ("sparse", (10, 9, 0.5)),
        ("zero_free", (6, 12, 4)), ("A0", None), ("rank2", (14, 16)), ("grid", (7, 8)),
        ("A0", None), ("grid", (8, 7)),
    )

    def __init__(self, signrank, workdir: Path, seed: int):
        self.sr = signrank
        self.dir = workdir
        self.seed = seed

    def rounds(self):
        k = 0
        while True:
            batch = []
            for slot, (family, size) in enumerate(self.SLOTS):
                rng = _rng(self.seed, k, slot)
                planted = None
                if family == "rank2":
                    A, planted = gen.rank2_planted(rng, *size), 2
                elif family == "zero_free":
                    A, planted = gen.zero_free_planted(rng, *size), size[2]
                elif family == "grid":
                    A, planted = gen.grid_incidence(rng, *size), 3
                elif family == "sparse":
                    A = gen.sparse_random(rng, *size)
                else:  # a fresh equivalent copy, so that no two inputs are equal
                    A, planted = gen.permuted_signed(rng, gen.A0), gen.A0_MIN_RANK
                key = f"r{k}s{slot}"
                path = _write(self.dir / f"{key}.pat", oracle.pat_text(A))
                batch.append(Instance(key, family, {"A": A, "path": path, "planted": planted}))
            yield batch
            k += 1

    def run(self, inst):
        A = self.sr.pattern.load_pattern(inst.data["path"])
        return self.sr.pattern.mr_bounds(A)

    def check(self, inst, res) -> Outcome:
        A, planted = inst.data["A"], inst.data["planted"]
        verdict = f"{res.lower},{res.upper}"
        C = oracle.condensed(A)
        upper_bound = min(len(C), len(C[0]), oracle.term_rank(C))
        exact = [v for kind, v, _ in res.evidence if kind == "exact"]
        if res.lower > res.upper:
            raise CheckFailed(f"lower {res.lower} > upper {res.upper}")
        for kind, value, text in res.evidence:
            if kind == "lower" and text.startswith("SNS"):
                if oracle.check_sns_evidence(A, text) != value:
                    raise CheckFailed(f"SNS evidence size differs from bound {value}")
        if planted is not None and res.lower > planted:
            raise CheckFailed(f"lower bound {res.lower} exceeds planted rank {planted}")
        if inst.family == "rank2" and (res.lower, res.upper) != (2, 2):
            raise CheckFailed(f"planted rank 2 reported as [{res.lower}, {res.upper}]")
        if 2 in exact:
            result = self.sr.pattern.is_mr2(self.sr.pattern.SignPattern(A))
            w = result.witness
            witness = {"row_perm": w.row_perm, "col_perm": w.col_perm,
                       "row_signs": w.row_signs, "col_signs": w.col_signs}
            if not oracle.is_monotone_arrangement(C, witness):
                raise CheckFailed("mr2 arrangement is not monotone")
        elif not exact and res.upper != upper_bound:
            raise CheckFailed(f"upper {res.upper}, expected min(size, term rank) = {upper_bound}")
        return Outcome(verdict, decided=res.lower == res.upper)


# ---------------------------------------------------------------------------
# search: search_realization at a planted rank, or below a proven bound


class Search:
    name = "search"
    round_s = 1.1
    passes = 1  # instances differ far more than passes do: more instances instead
    speed_mix = {"py": 5, "np": 4, "big": 1}  # 37/51/12
    trace_rounds = 8
    # (m, n, r, max planted zeros per column).  Planted ranks, sizes 9-25.
    # Thirty small zero-free ones (9-12 lines) succeed at the first restart
    # at nearly the same cost, so the median falls inside a dense block
    # rather than in the gap between two sizes; nine larger zero-free ones
    # and one with planted zeros (up to 50x dearer when it needs several
    # restarts, so more of them would make the run's total a lottery) sit
    # above it.  Each round adds one rank below a proven bound, where every
    # restart runs: these make the tail
    SMALL = ((9, 9, 3, 0), (10, 12, 3, 0), (12, 10, 4, 0), (11, 11, 3, 0), (12, 12, 4, 0),
             (10, 10, 4, 0))
    PLANTED = SMALL * 5 + (
        (16, 16, 3, 0), (18, 20, 4, 0), (20, 20, 4, 0), (21, 19, 4, 0), (18, 18, 3, 0),
        (20, 18, 3, 0), (22, 20, 3, 0), (25, 25, 4, 0), (24, 22, 3, 0), (9, 9, 3, 1),
    )
    # sparse patterns are left out here: their rank-2 searches cost 0.1-0.6 s
    BELOW = (("A0", None), ("grid", 6), ("grid", 7))

    def __init__(self, signrank, workdir: Path, seed: int):
        self.sr = signrank
        self.dir = workdir
        self.seed = seed

    def rounds(self):
        k = 0
        while True:
            batch = []
            below = self.BELOW[k % len(self.BELOW)]
            for slot, spec in enumerate(self.PLANTED + (below,)):
                rng = _rng(self.seed, k, slot)
                if len(spec) == 4:
                    A, r, proof = gen.planted_factors(rng, *spec)[0], spec[2], None
                else:
                    A, proof = self._below(rng, *spec)
                    r = 2
                key = f"r{k}s{slot}"
                path = _write(self.dir / f"{key}.pat", oracle.pat_text(A))
                batch.append(Instance(key, "below" if proof else "planted", {
                    "A": A, "path": path, "r": r, "proof": proof,
                    "search_seed": int(rng.integers(0, 2**31)),
                }))
            yield batch
            k += 1

    @staticmethod
    def _below(rng, family, size):
        """A pattern with an SNS 3x3 submatrix found by brute force, so its
        minimum rank is at least 3 and a rank-2 search must fail."""
        while True:
            if family == "A0":
                A = gen.permuted_signed(rng, gen.A0)
            elif family == "grid":
                A = gen.grid_incidence(rng, size, size)
            else:
                A = gen.sparse_random(rng, size, size, 0.4)
            proof = oracle.find_sns(A, 3)
            if proof is not None:
                return A, proof

    def run(self, inst):
        A = self.sr.pattern.load_pattern(inst.data["path"])
        params = self.sr.realize.SearchParams(
            restarts=SEARCH_RESTARTS, iters=SEARCH_ITERS, seed=inst.data["search_seed"], threads=1)
        return self.sr.realize.search_realization(A, inst.data["r"], params)

    def check(self, inst, real) -> Outcome:
        if real is None:
            return Outcome("none", decided=False)
        if inst.data["proof"] is not None:
            raise CheckFailed("found a rank-2 realization of a pattern with an SNS 3x3")
        C = oracle.condensed(inst.data["A"])
        U, V = np.asarray(real.U), np.asarray(real.V)
        if real.r != inst.data["r"] or U.shape != (len(C), real.r) or V.shape != (real.r, len(C[0])):
            raise CheckFailed("realization has the wrong shape")
        if not (np.all(U[:, 0] == 1.0) and np.all(V[-1, :] == 1.0)):
            raise CheckFailed("realization is not in normal form")
        if not oracle.signs_up_to_signature(U @ V, C):
            raise CheckFailed("realization signs differ from the pattern up to signature")
        return Outcome("found:" + _digest(U.tobytes() + V.tobytes()), decided=True)


# ---------------------------------------------------------------------------
# certify: rationalize, verify, save_certificate


class Certify:
    name = "certify"
    round_s = 2.3
    passes = 1
    speed_mix = {"py": 4, "np": 1, "big": 5}  # 29/13/58
    trace_rounds = 4
    # (m, n, r, max planted zeros per column).  Per round four small ones and
    # seven 16 x 16 / 12 x 14 ones with zeros around the median (the cost of
    # rational_round and the exact solves), then two large zero-free ones where
    # the two rational_rank calls dominate: 32 x 32, and another 32 x 32 or,
    # every fourth round, a 40 x 40, so that the tail falls in the middle of
    # the 32 x 32 ones
    SMALL = (
        (12, 12, 3, 2), (16, 16, 4, 3), (20, 20, 3, 0), (12, 14, 5, 4), (16, 16, 4, 3),
        (14, 12, 4, 0), (16, 16, 4, 3), (16, 16, 3, 0), (12, 14, 5, 4), (16, 16, 4, 3),
        (16, 16, 4, 3), (32, 32, 5, 0),
    )
    LARGE = ((32, 32, 5, 0), (32, 32, 5, 0), (32, 32, 5, 0), (40, 40, 5, 0))

    def __init__(self, signrank, workdir: Path, seed: int):
        self.sr = signrank
        self.dir = workdir
        self.seed = seed
        self.checked = set()

    def rounds(self):
        k = 0
        while True:
            batch = []
            large = self.LARGE[k % len(self.LARGE)]
            for slot, (m, n, r, zeros) in enumerate(self.SMALL + (large,)):
                A, U, V = gen.planted_factors(_rng(self.seed, k, slot), m, n, r, zeros)
                key = f"r{k}s{slot}"
                doc = json.dumps({"r": r, "U": U.tolist(), "V": V.tolist()})
                batch.append(Instance(key, "zeros" if zeros else "zero_free", {
                    "A": A, "r": r,
                    "path": _write(self.dir / f"{key}.pat", oracle.pat_text(A)),
                    "real": _write(self.dir / f"{key}.real.json", doc),
                    "cert": str(self.dir / f"{key}.cert.json"),
                }))
            yield batch
            k += 1

    def run(self, inst):
        realize = self.sr.realize
        A = self.sr.pattern.load_pattern(inst.data["path"])
        cert = realize.rationalize(A, realize.load_realization(inst.data["real"]))
        verified = cert.verify()
        realize.save_certificate(cert, inst.data["cert"])
        return cert.rank, verified

    def check(self, inst, res) -> Outcome:
        rank, verified = res
        if not verified:
            return Outcome(f"unverified:{rank}", decided=False, failed=True,
                           note="certificate failed verify()")
        digest = _digest(Path(inst.data["cert"]).read_bytes())
        if (inst.key, digest) not in self.checked:  # sympy once per certificate
            exact = oracle.exact_certificate_rank(inst.data["cert"], inst.data["A"])
            if exact != rank or rank > inst.data["r"]:
                raise CheckFailed(f"certificate rank {rank}, sympy {exact}, "
                                  f"planted {inst.data['r']}")
            self.checked.add((inst.key, digest))
        return Outcome(f"rank{rank}:{digest}", decided=True)


# ---------------------------------------------------------------------------
# cli: the README session as fresh processes


@dataclass
class Command:
    sub: str
    argv: list
    expect: int
    check: object = None  # callable(doc) raising CheckFailed on a wrong answer
    inconclusive: tuple = ()  # exit codes that are a legitimate "not found"
    needs: object = None  # label of an earlier command whose output this one reads
    label: str = ""
    known_defect: str = ""  # the stderr of a documented failure: counted, but not wrong


class Cli:
    name = "cli"
    round_s = 13.0
    passes = 2
    speed_mix = {"spawn": 1}
    trace_rounds = 1

    def __init__(self, signrank, workdir: Path, seed: int):
        self.dir = workdir
        self.seed = seed
        src = Path(__file__).resolve().parent.parent / "src"
        self.env = dict(os.environ, PYTHONPATH=str(src))
        self.env.pop("SIGNRANK_THREADS", None)
        self.child = str(Path(__file__).with_name("cli_child.py"))
        self.traced = False
        self.span_dir = None
        self.last_code = {}

    def rounds(self):
        k = 0
        while True:
            sdir = self.dir / f"s{k}"
            sdir.mkdir(parents=True, exist_ok=True)
            commands = session(_rng(self.seed, k), sdir)
            yield [Instance(f"s{k}:{c.label}", c.sub, {"cmd": c, "dir": sdir}) for c in commands]
            k += 1

    def run(self, inst):
        cmd = inst.data["cmd"]
        if self.traced:
            spans = self.span_dir / f"{inst.key.replace(':', '-')}.npz"
            argv = [sys.executable, self.child, str(spans), *cmd.argv]
        else:
            argv = [sys.executable, "-m", "signrank.cli", *cmd.argv]
        proc = subprocess.run(argv, cwd=inst.data["dir"], env=self.env, capture_output=True,
                              text=True, timeout=170)
        self.last_code[inst.key] = proc.returncode
        return proc.returncode, proc.stdout, proc.stderr

    def check(self, inst, res) -> Outcome:
        cmd = inst.data["cmd"]
        code, out, err = res
        verdict = f"{code}:{_digest(out.replace(str(inst.data['dir']), '<dir>').encode())}"
        known = bool(cmd.known_defect) and cmd.known_defect in err
        if "Traceback" in err:
            return Outcome(verdict, decided=False, failed=True, known=known,
                           note=err.strip().splitlines()[-1])
        if cmd.needs is not None:
            needed = self.last_code.get(inst.key.split(":")[0] + ":" + cmd.needs)
            if needed != 0:  # its input was never written
                return Outcome(verdict, decided=False, note=f"skipped: needs {cmd.needs}")
        if code == cmd.expect:
            if cmd.check is not None:
                cmd.check(json.loads(out) if out.strip() else None)
            return Outcome(verdict, decided=True)
        if code in cmd.inconclusive:
            return Outcome(verdict, decided=False)
        note = f"exit {code}, expected {cmd.expect}: {err.strip()[-160:]}"
        wrong = code in (0, 1) and cmd.expect in (0, 1)
        return Outcome(verdict, decided=False, failed=True, wrong=wrong, known=known, note=note)


def _require(condition, message):
    if not condition:
        raise CheckFailed(message)


def _check_mr(A, lower_max=None, exact=None, upper=None):
    def check(doc):
        lo, up = doc["lower"], doc["upper"]
        _require(lo <= up, f"lower {lo} > upper {up}")
        for kind, value, text in doc["evidence"]:
            if kind == "lower" and text.startswith("SNS"):
                _require(oracle.check_sns_evidence(A, text) == value, "SNS evidence size")
        if lower_max is not None:
            _require(lo <= lower_max, f"lower {lo} exceeds known rank {lower_max}")
        if exact is not None:
            _require((lo, up) == (exact, exact), f"expected mr = {exact}, got [{lo}, {up}]")
        if upper is not None:
            _require(up == upper, f"expected upper {upper}, got {up}")
    return check


def _check_mr2_yes(A):
    C = oracle.condensed(A)
    return lambda doc: _require(doc["mr2"] and oracle.is_monotone_arrangement(C, doc["witness"]),
                                "mr2 arrangement is not monotone")


def _check_realization(A, path):
    C = oracle.condensed(A)

    def check(doc):
        with open(path, encoding="utf-8") as fh:
            real = json.load(fh)
        U, V = np.array(real["U"]), np.array(real["V"])
        _require(np.all(U[:, 0] == 1.0) and np.all(V[-1, :] == 1.0), "not in normal form")
        _require(oracle.signs_up_to_signature(U @ V, C), "realization signs differ")
    return check


def _check_certificate(A, path, max_rank):
    def check(doc):
        rank = oracle.exact_certificate_rank(path, A)
        _require(rank == doc["rank"] and rank <= max_rank, f"certificate rank {rank}")
    return check


def _check_pattern_file(path, expected):
    return lambda doc: _require(oracle.parse_pat(Path(path).read_text()) == expected,
                                f"{Path(path).name} differs from the benchmark's encoding")


def _check_equiv(A, B):
    return lambda doc: _require(doc["equivalent"] and oracle.witness_maps(A, B, doc["witness"]),
                                "equivalence witness does not map A onto B")


def _check_dual(P, path):
    def check(doc):
        flips = {j - 1 for j in doc["flipped_hyperplanes"]}
        adjusted = tuple(tuple(-v if j in flips else v for j, v in enumerate(row)) for row in P)
        _require(oracle.encode_file(path) == oracle.transpose(adjusted),
                 "dual does not encode to the transposed pattern")
    return check


def _check_stack(P1, P2, path):
    n1, n2 = len(P1[0]), len(P2[0])
    block = tuple(row + (1,) * n2 for row in P1) + tuple((-1,) * n1 + row for row in P2)
    return lambda doc: _require(oracle.encode_file(path) == block,
                                "stacked configuration is not the block pattern")


def _check_svg(path, points):
    def check(doc):
        tree = ET.parse(path)
        circles = tree.getroot().findall("{http://www.w3.org/2000/svg}circle")
        _require(len(circles) == points, f"{len(circles)} points drawn, expected {points}")
    return check


A1 = oracle.parse_pat("+++\n-++\n-0+\n")
A2 = oracle.parse_pat("+++\n-++\n+0-\n")


def session(rng, sdir: Path):
    """One README session with inputs drawn from ``rng``; files go to sdir."""
    def put(name, text):
        return _write(sdir / name, text)

    size = int(rng.integers(10, 41))
    r2 = gen.rank2_planted(rng, int(rng.integers(8, 17)), int(rng.integers(8, 17)))
    # zero-free, so realize and mr --try-rank succeed at the first restart
    # (planted zeros make their cost swing with the restarts they need)
    p3 = gen.planted_factors(rng, 10, 10, 3, 0)[0]
    sns3 = Search._below(rng, "grid", 7)[0]
    dup = gen.with_redundant_lines(rng, gen.sparse_random(rng, 8, 8, 0.3), 3)
    e12 = gen.sparse_random(rng, 12, 12, 0.3)
    e12_perm = gen.permuted_signed(rng, e12)
    e12_signed = gen.permuted_signed(rng, e12, permute=False)
    flip = 1 if e12_perm[0][0] == 0 else 0  # change the zero count: not equivalent
    e12_other = ((flip,) + e12_perm[0][1:],) + e12_perm[1:]
    q = gen.configuration(rng, size, size, with_sqrt=False)
    q_b = gen.configuration(rng, 6, 7, with_sqrt=False)
    q5 = gen.configuration(rng, max(10, size // 2), max(10, size // 2), with_sqrt=True)

    for name, A in (("r2.pat", r2), ("p3.pat", p3), ("sns3.pat", sns3), ("dup.pat", dup),
                    ("e12.pat", e12), ("e12_perm.pat", e12_perm),
                    ("e12_signed.pat", e12_signed), ("e12_other.pat", e12_other)):
        put(name, oracle.pat_text(A))
    put("q.json", gen.configuration_json(*q, False))
    put("q_b.json", gen.configuration_json(*q_b, False))
    put("q5.json", gen.configuration_json(*q5, True))
    put("bad_char.pat", "+-0\n+x-\n")
    put("ragged.pat", "+-0+\n+-\n")
    put("truncated.json", '{"dim": 2, "points": [[1, 2], [3')
    put("missing_key.json", '{"dim": 2, "points": [[1, 2]]}')
    put("bad_type.json", '{"dim": "two", "points": [[1, 2]], "hyperplanes": [[1, 1, 1]]}')
    put("bad_shape.real.json", json.dumps({"r": 2, "U": [[1.0, 0.5]], "V": [[1.0], [1.0]]}))

    fx = "fx/"
    perles_points = 9
    a0_cols = oracle.transpose(oracle.condensed(gen.A0))
    a0_overfull = any(col.count(0) > 2 for col in a0_cols)
    a0_upper = min(len(a0_cols), len(a0_cols[0]), oracle.term_rank(a0_cols))
    seed = str(int(rng.integers(0, 1000)))
    P_q, P_qb, P_q5 = oracle.encode(*q), oracle.encode(*q_b), oracle.encode(*q5)
    fig21 = oracle.parse_pat("+++\n+00\n-0-\n")
    commands = [
        Command("fixtures", ["fixtures", "--export", "fx"], 0,
                _check_pattern_file(sdir / "fx/A0.pat", gen.A0)),
        Command("selfcheck", ["selfcheck"], 0, lambda doc: _require(doc["ok"], "selfcheck")),
        Command("condense", ["condense", fx + "A0.pat"], 0,
                lambda doc: _require(oracle.parse_pat("\n".join(doc["condensed"]))
                                     == oracle.condensed(gen.A0), "condensed A0")),
        Command("condense", ["condense", "dup.pat"], 0,
                lambda doc: _require(oracle.parse_pat("\n".join(doc["condensed"]))
                                     == oracle.condensed(dup), "condensed pattern")),
        Command("mr", ["mr", fx + "A0.pat"], 1, _check_mr(gen.A0, lower_max=3, upper=a0_upper)),
        Command("mr", ["mr", "r2.pat"], 0, _check_mr(r2, exact=2)),
        Command("mr", ["mr", fx + "A0.pat", "--try-rank", "3"], 0, _check_mr(gen.A0, exact=3),
                inconclusive=(1,)),
        Command("mr", ["mr", "p3.pat", "--try-rank", "3"], 0, _check_mr(p3, lower_max=3),
                inconclusive=(1,)),
        Command("mr2", ["mr2", fx + "A1.pat"], 0, _check_mr2_yes(A1)),
        Command("mr2", ["mr2", "r2.pat"], 0, _check_mr2_yes(r2)),
        Command("mr2", ["mr2", "sns3.pat"], 1),  # an SNS 3x3 proves mr >= 3
        Command("realize", ["realize", fx + "A1.pat", "--rank", "2", "--seed", "7",
                            "-o", "a1.real.json"], 0,
                _check_realization(A1, sdir / "a1.real.json"), inconclusive=(1,),
                label="realize_a1"),
        Command("realize", ["realize", fx + "A0.pat", "--rank", "3", "--seed", "0",
                            "-o", "a0.real.json"], 0,
                _check_realization(gen.A0, sdir / "a0.real.json"), inconclusive=(1,),
                label="realize_a0"),
        Command("realize", ["realize", "p3.pat", "--rank", "3", "--seed", seed,
                            "-o", "p3.real.json"], 0,
                _check_realization(p3, sdir / "p3.real.json"), inconclusive=(1,),
                label="realize_p3"),
        Command("rationalize", ["rationalize", fx + "A1.pat", "--from", "a1.real.json",
                                "-o", "a1.cert.json"], 0,
                _check_certificate(A1, sdir / "a1.cert.json", 2), needs="realize_a1"),
        # A0 has a column with more than r-1 = 2 zeros: Overdetermined, exit 1
        Command("rationalize", ["rationalize", fx + "A0.pat", "--from", "a0.real.json",
                                "-o", "a0.cert.json"], 1 if a0_overfull else 0,
                needs="realize_a0"),
        Command("rationalize", ["rationalize", "p3.pat", "--from", "p3.real.json",
                                "-o", "p3.cert.json"], 0,
                _check_certificate(p3, sdir / "p3.cert.json", 3), needs="realize_p3"),
        Command("encode", ["encode", fx + "fig21_config.json", "-o", "fig.pat"], 0,
                _check_pattern_file(sdir / "fig.pat", fig21)),
        Command("encode", ["encode", "q.json", "-o", "q.pat"], 0,
                _check_pattern_file(sdir / "q.pat", P_q)),
        Command("encode", ["encode", "q5.json", "-o", "q5.pat"], 0,
                _check_pattern_file(sdir / "q5.pat", P_q5)),
        Command("equiv", ["equiv", fx + "A1.pat", fx + "A2.pat"], 0, _check_equiv(A1, A2)),
        Command("equiv", ["equiv", "e12.pat", "e12_perm.pat"], 0, _check_equiv(e12, e12_perm)),
        Command("equiv", ["equiv", "e12.pat", "e12_signed.pat"], 0,
                _check_equiv(e12, e12_signed)),
        # different zero counts: not equivalent
        Command("equiv", ["equiv", "e12.pat", "e12_other.pat"], 1),
        Command("dual", ["dual", fx + "fig21_config.json", "-o", "fig.dual.json"], 0,
                _check_dual(fig21, sdir / "fig.dual.json")),
        Command("dual", ["dual", "q.json", "-o", "q.dual.json"], 0,
                _check_dual(P_q, sdir / "q.dual.json")),
        # OrientedHyperplane.reversed_orientation drops field_d
        Command("dual", ["dual", "q5.json", "-o", "q5.dual.json"], 0,
                _check_dual(P_q5, sdir / "q5.dual.json"),
                known_defect="cannot mix sqrt(5) element into sqrt(1) context"),
        Command("compose", ["compose", "q.json", "q_b.json", "-o", "stacked.json"], 0,
                _check_stack(P_q, P_qb, sdir / "stacked.json")),
        Command("render", ["render", fx + "perles_config.json", "-o", "perles.svg"], 0,
                _check_svg(sdir / "perles.svg", perles_points)),
        Command("render", ["render", "q.json", "-o", "q.svg"], 0, _check_svg(sdir / "q.svg", size)),
        Command("mr", ["mr", "bad_char.pat"], 2),
        Command("condense", ["condense", "ragged.pat"], 2),
        Command("encode", ["encode", "truncated.json"], 2),
        Command("encode", ["encode", "missing_key.json"], 2),
        Command("dual", ["dual", "bad_type.json", "-o", "bad.dual.json"], 2,
                known_defect="ValueError: invalid literal for int()"),
        Command("rationalize", ["rationalize", fx + "A1.pat", "--from", "bad_shape.real.json"], 2),
    ]
    for idx, c in enumerate(commands):
        c.argv = [*c.argv, "--json"]
        c.label = c.label or f"{idx:02d}_{c.sub}"
    return commands


WORKLOADS = {w.name: w for w in (Bounds, Search, Certify, Cli)}
