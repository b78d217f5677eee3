import hashlib
import json
import math
import time

import numpy as np
import pytest

from signrank.cli import main
from signrank.core import SignPattern, load_pattern
from signrank.errors import DomainError
from signrank.exactnum import load_certificate, load_realization
from signrank.fixtures import export_fixtures, fixture
from signrank.geometry import load_configuration
from signrank.pattern import MrBoundsOptions, SearchParams
from signrank.svg import render_svg

from conftest import corrupt_perles, factor_arrays, lift_p5


@pytest.fixture(scope="module")
def fxdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fixtures")
    export_fixtures(path)
    return path


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def run(capsys, *argv):
    """Exit code, stdout and stderr of one CLI call; a ``--json`` stdout
    must be valid JSON (NaN and Infinity are not)."""
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    if "--json" in argv and out.out:
        json.loads(out.out, parse_constant=_reject_constant)
    return code, out.out, out.err


class TestCondense:
    def test_all_plus(self, capsys, tmp_path):
        src = tmp_path / "p.pat"
        src.write_text("++\n++\n")
        out_file = tmp_path / "c.pat"
        code, out, _ = run(capsys, "condense", src, "-o", out_file)
        assert code == 0
        assert load_pattern(out_file) == SignPattern(["+"])

    def test_json(self, capsys, tmp_path):
        src = tmp_path / "p.pat"
        src.write_text("+-\n-+\n00\n")
        code, out, _ = run(capsys, "condense", src, "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["condensed"] == ["+"]
        assert {e["kind"] for e in doc["log"]} >= {"opposite", "zero"}


class TestMr:
    def test_a0_full(self, capsys, fxdir):
        code, out, _ = run(capsys, "mr", fxdir / "A0.pat", "--try-rank", 3)
        assert code == 0
        assert out.startswith("mr = 3")
        assert "SNS" in out and "realization" in out

    def test_a0_rank4_realized(self, capsys, fxdir):
        code, out, _ = run(capsys, "mr", fxdir / "A0.pat", "--try-rank", 4, "--json")
        assert code == 1  # lower is 3, so the bounds are not tight
        doc = json.loads(out)
        assert doc["lower"] == 3 and doc["upper"] == 4
        assert ["upper", 4, "numerical realization at rank 4"] in doc["evidence"]

    def test_json_bounds(self, capsys, fxdir):
        code, out, _ = run(capsys, "mr", fxdir / "A1.pat", "--json")
        doc = json.loads(out)
        assert doc["lower"] == 2 and doc["upper"] == 2
        assert code == 0

    def test_iters_reaches_search(self, capsys, fxdir, monkeypatch):
        import signrank.pattern

        seen = []
        monkeypatch.setattr(
            signrank.pattern, "search_realization", lambda C, r, params: seen.append(params)
        )
        # rank 3 is A0's proven lower bound and below its upper bound, so it is searched
        code, out, _ = run(capsys, "mr", fxdir / "A0.pat", "--try-rank", 3, "--iters", 7)
        assert code == 1
        assert [p.iters for p in seen] == [7]

    def test_unset_options_are_the_library_defaults(self, capsys, fxdir, monkeypatch):
        import signrank.pattern

        seen = []
        original = signrank.pattern.mr_bounds
        monkeypatch.setattr(signrank.pattern, "mr_bounds",
                            lambda A, opts: seen.append(opts) or original(A, opts))
        run(capsys, "mr", fxdir / "A0.pat")
        run(capsys, "mr", fxdir / "A0.pat", "--seed", 3, "--sns-cap", 2)
        assert seen == [MrBoundsOptions(), MrBoundsOptions(sns_cap=2, search=SearchParams(seed=3))]

    def test_try_rank_below_lower_bound_skips_search(self, capsys, fxdir, monkeypatch):
        import signrank.pattern

        def fail(*args):
            raise AssertionError("searched below the proven lower bound")

        monkeypatch.setattr(signrank.pattern, "search_realization", fail)
        code, out, _ = run(capsys, "mr", fxdir / "A0.pat", "--try-rank", 2, "--json")
        assert code == 1
        doc = json.loads(out)
        assert doc["lower"] == 3
        assert ["note", None, "rank 2 is below the proven lower bound 3; no search run"] in doc["evidence"]

    def test_try_rank_not_below_upper_bound_skips_search(self, capsys, fxdir, monkeypatch):
        import signrank.pattern

        def fail(*args):
            raise AssertionError("searched at or above the upper bound")

        monkeypatch.setattr(signrank.pattern, "search_realization", fail)
        code, out, _ = run(capsys, "mr", fxdir / "A0.pat", "--try-rank", 100, "--json")
        assert code == 1
        doc = json.loads(out)
        assert [doc["lower"], doc["upper"]] == [3, 9]
        assert ["note", None, "rank 100 is not below the upper bound 9; no search run"] in doc["evidence"]

    def test_inconclusive_exit(self, capsys, fxdir):
        code, out, _ = run(capsys, "mr", fxdir / "A0.pat")
        assert code == 1  # bounds not tight without a realization search
        assert "mr in [3," in out

    def test_sns_cap_past_scan_limit_exits_3(self, capsys, tmp_path):
        # a zero-free 12x12 pattern that stays 12x12 after condensing and is
        # not mr 2, so the SNS scan runs and refuses k = 11
        rows = [
            "--+------++-", "++-+-++--+--", "-+---+++-+--", "+-+++++-++--",
            "+--+-+--+--+", "-++++--+++++", "+--++-----+-", "+--+++-++-+-",
            "-++++++++++-", "+-++++++-+++", "-+-+++---++-", "++-+---+++++",
        ]
        pat = tmp_path / "p.pat"
        pat.write_text("\n".join(rows) + "\n")
        code, out, err = run(capsys, "mr", pat, "--sns-cap", 11)
        assert code == 3
        assert err.startswith("error:") and "capped" in err and "Traceback" not in err

    def test_negative_sns_cap(self, capsys, fxdir):
        code, out, err = run(capsys, "mr", fxdir / "A0.pat", "--sns-cap", -1)
        assert code == 2 and "sns_cap" in err

    @pytest.mark.parametrize(
        "option, value, name",
        [("--restarts", -1, "restarts"), ("--iters", -5, "iters"), ("--try-rank", 0, "try_rank")],
    )
    def test_bad_search_option_without_search(self, capsys, tmp_path, option, value, name):
        # ++/+- has mr 2, so no search runs: the options are checked up front
        pat = tmp_path / "p.pat"
        pat.write_text("++\n+-\n")
        code, out, err = run(capsys, "mr", pat, option, value)
        assert code == 2 and name in err


class TestMr2:
    def test_yes(self, capsys, fxdir):
        code, out, _ = run(capsys, "mr2", fxdir / "A1.pat")
        assert code == 0 and "yes" in out

    def test_no(self, capsys, fxdir):
        code, out, _ = run(capsys, "mr2", fxdir / "A0.pat")
        assert code == 1 and "no" in out


class TestRealizeRationalize:
    def test_pipeline(self, capsys, fxdir, tmp_path):
        real_file = tmp_path / "a1.real.json"
        code, out, _ = run(
            capsys, "realize", fxdir / "A1.pat", "--rank", 2, "--seed", 3, "-o", real_file
        )
        assert code == 0
        real = load_realization(real_file)
        assert real.r == 2

        cert_file = tmp_path / "a1.cert.json"
        code, out, _ = run(
            capsys, "rationalize", fxdir / "A1.pat", "--from", real_file, "-o", cert_file
        )
        assert code == 0
        cert = load_certificate(cert_file)
        assert cert.verify()
        assert cert.target == load_pattern(fxdir / "A1.pat")

    def test_seed_reproducible(self, capsys, fxdir, tmp_path):
        f1, f2 = tmp_path / "r1.json", tmp_path / "r2.json"
        run(capsys, "realize", fxdir / "A0.pat", "--rank", 3, "--seed", 5, "-o", f1)
        run(capsys, "realize", fxdir / "A0.pat", "--rank", 3, "--seed", 5, "-o", f2)
        assert f1.read_bytes() == f2.read_bytes()

    def test_a0_overdetermined(self, capsys, fxdir, tmp_path):
        real_file = tmp_path / "a0.real.json"
        run(capsys, "realize", fxdir / "A0.pat", "--rank", 3, "-o", real_file)
        code, out, err = run(
            capsys, "rationalize", fxdir / "A0.pat", "--from", real_file,
            "-o", tmp_path / "a0.cert.json",
        )
        assert code == 1
        assert "Overdetermined: column 1 has 4 zeros > r-1 = 2" in err
        assert not (tmp_path / "a0.cert.json").exists()

    def test_by_rows(self, capsys, tmp_path):
        pat = tmp_path / "p.pat"
        pat.write_text("0+++\n0-++\n0+-+\n++++\n")
        real_file = tmp_path / "p.real.json"
        code, *_ = run(capsys, "realize", pat, "--rank", 3, "-o", real_file)
        assert code == 0
        cert_file = tmp_path / "p.cert.json"
        code, *_ = run(
            capsys, "rationalize", pat, "--from", real_file, "-o", cert_file
        )
        assert code == 0
        cert = load_certificate(cert_file)
        assert cert.factors is not None
        U, V = cert.factors
        assert len(U) == 4 and len(V) == 3 and len(V[0]) == 4
        assert cert.verify()

    def test_empty_condensation_round_trip(self, capsys, tmp_path):
        pat = tmp_path / "z.pat"
        pat.write_text("00\n00\n")
        real_file = tmp_path / "z.real.json"
        code, out, _ = run(capsys, "realize", pat, "--rank", 3, "-o", real_file, "--json")
        assert code == 0
        assert json.loads(out)["margin"] is None  # no nonzero product
        cert_file = tmp_path / "z.cert.json"
        code, out, err = run(capsys, "rationalize", pat, "--from", real_file, "-o", cert_file)
        assert code == 0, err
        cert = load_certificate(cert_file)
        assert cert.verify() and cert.rank == 0

    # an integer rank-4 realization whose two zero rows in column 1 share
    # their second coordinate: the leading 2 x 2 block of column 1 is
    # singular, and the exact solve pivots past it
    SINGULAR_BLOCK = {
        "U": [[1, 1, 1, 2], [1, -1, -3, -2], [1, -3, 3, -2], [1, 2, 3, -2], [1, 1, -3, -3],
              [1, -3, -1, 1], [1, -3, -2, -3], [1, 1, -2, 3]],
        "V": [[1, 1, 0, 3, -2, 3, -1, -2], [2, -1, 0, 3, -2, 0, 0, 3],
              [-4, 2, 0, -3, -2, 1, 3, 0], [1, 1, 1, 1, 1, 1, 1, 1]],
    }

    def test_singular_leading_block(self, capsys, tmp_path):
        U, V = self.SINGULAR_BLOCK["U"], self.SINGULAR_BLOCK["V"]
        product = [[sum(u[k] * V[k][j] for k in range(4)) for j in range(8)] for u in U]
        pat = tmp_path / "p.pat"
        pat.write_text(SignPattern(
            [[(x > 0) - (x < 0) for x in row] for row in product]).to_text() + "\n")
        real_file = tmp_path / "p.real.json"
        real_file.write_text(json.dumps({"r": 4, **self.SINGULAR_BLOCK}))
        cert_file = tmp_path / "p.cert.json"
        code, out, err = run(capsys, "rationalize", pat, "--from", real_file, "-o", cert_file)
        assert code == 0 and "Traceback" not in err
        cert = load_certificate(cert_file)
        assert cert.verify()
        for row, kept in zip(cert.factors[0], U):
            assert list(row) in (kept, [-x for x in kept])

    # sha256 of the realization files that the search writes (x86-64, numpy
    # 2.4.6) since its descent stops on cleared signs or a stalled penalty.
    # A key (rank, seed) realizes A0; (rank, seed, "direct") realizes A0 with
    # --direct and (rank, seed, "planted") realizes PLANTED_ZEROS
    PINNED_SHA256 = {
        (3, 0): "f5b5daf42d3849151906f1f241a5a7f17c819e6c7bfe99ba88f8d05f4bdead56",
        (3, 1): "73d8df01d7f34ab2bba2fa0cd53c754250a239871c5c4dbb20f4794965f60b8c",
        (3, 2): "7ab921a43b221646a75d184e882208cc60b369929588bedc098ef4c46c32e1f8",
        (3, 3): "5efe78b72a494aaf37f360ca73d5b32b8870ec81025f5a4cbb40d3072ab19179",
        (4, 0): "e51c523f824f00ba4a5ef9cbb96542a5c87fb9d3cc66c547c79aa8d23c09747e",
        (4, 1): "c8beb3775b38947fed4d8a3fbde76823d3b9343bcd3c1b13864b3c60d36762f5",
        (4, 2): "ea5897255aa1d67b41fb33a1272861d0111c915e88735852c5df2e07b19f0e94",
        (4, 3): "c16005f86d9fc1f7160266738e295499522f91d686b5391ec941194d2f2d302e",
        (3, 0, "direct"): "6fef078d672675b15b719350d82f2d30e68aefc463c4ecf521c3dfac6116ea43",
        (4, 0, "planted"): "7cf5ddc62b72b7908eba06946976e12b4a44f90959e077a8da6c587c0a76d1c6",
    }

    # 18 zeros planted at rank 4 (normal-form Gaussian factors, up to three
    # zeros per column), already condensed
    PLANTED_ZEROS = ["-+-----+0", "0+-+--0++", "-+0+--++0", "++++-0++-",
                     "-+0--0--0", "0++0+++0-", "0++--++--", "-00-00+0-"]

    @pytest.mark.parametrize("key", sorted(PINNED_SHA256), ids=lambda k: "-".join(map(str, k)))
    def test_realization_bytes_unchanged(self, capsys, fxdir, tmp_path, key):
        rank, seed, *variant = key
        pat, extra = fxdir / "A0.pat", []
        if variant == ["direct"]:
            extra = ["--direct"]
        elif variant == ["planted"]:
            pat = tmp_path / "planted.pat"
            pat.write_text("\n".join(self.PLANTED_ZEROS) + "\n")
        out = tmp_path / "a0.real.json"
        code, *_ = run(capsys, "realize", pat, "--rank", rank, "--seed", seed, *extra,
                       "-o", out)
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.PINNED_SHA256[key]

    def test_non_integer_r_exits_2(self, capsys, fxdir, tmp_path):
        bad = tmp_path / "bad.real.json"
        bad.write_text(json.dumps({"r": 2.5, "U": [[1.0, 2.0]], "V": [[1.0], [1.0]]}))
        code, out, err = run(capsys, "rationalize", fxdir / "A1.pat", "--from", bad)
        assert code == 2
        assert "'r' must be an integer, got 2.5" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"r": 2, "U": [[True, 0.5]], "V": [[1.0], [True]]},
             "realization entries must be numbers, got True"),
            ({"r": 2, "U": [["1", "0.5"]], "V": [[1.0], [1.0]]},
             "realization entries must be numbers, got '1'"),
            ([{"r": 2}], "a realization document must be a JSON object, got list"),
            ({"r": -1, "U": [], "V": []}, "realization rank 'r' must be >= 1, got -1"),
        ],
        ids=["bool", "string", "list", "negative-r"],
    )
    def test_malformed_realization_exits_2(self, capsys, fxdir, tmp_path, doc, message):
        bad = tmp_path / "bad.real.json"
        bad.write_text(json.dumps(doc))
        code, out, err = run(capsys, "rationalize", fxdir / "A1.pat", "--from", bad)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_not_found_exit(self, capsys, tmp_path):
        pat = tmp_path / "diag.pat"
        pat.write_text("+0\n0+\n")
        code, out, _ = run(capsys, "realize", pat, "--rank", 1, "-o", tmp_path / "x.json")
        assert code == 1 and "no rank-1 realization exists (mr > 1, decided exactly)" in out
        assert not (tmp_path / "x.json").exists()

    def test_exact_and_inconclusive_answers(self, capsys, fxdir):
        code, out, _ = run(capsys, "realize", fxdir / "A0.pat", "--rank", 2, "--json")
        assert code == 1 and json.loads(out) == {"found": False, "exact": True}
        code, out, _ = run(capsys, "realize", fxdir / "A0.pat", "--rank", 2)
        assert "no rank-2 realization exists (mr > 2, decided exactly)" in out
        code, out, _ = run(capsys, "realize", fxdir / "A0.pat", "--rank", 3,
                           "--restarts", 0, "--json")
        assert code == 1 and json.loads(out) == {"found": False, "exact": False}
        code, out, _ = run(capsys, "realize", fxdir / "A0.pat", "--rank", 3, "--restarts", 0)
        assert code == 1 and "within 0 restarts (inconclusive)" in out

    @pytest.mark.parametrize("rank", [0, -2])
    def test_nonpositive_rank_exits_2(self, capsys, fxdir, rank):
        code, _, err = run(capsys, "realize", fxdir / "A0.pat", "--rank", rank)
        assert code == 2 and err == f"error: rank must be >= 1, got {rank}\n"

    def test_out_of_memory_exits_3(self, capsys, fxdir, monkeypatch):
        # at --rank 10**12 numpy cannot allocate the factors and raises
        # MemoryError (once a traceback and exit 1); the stub raises the
        # same without allocating
        import signrank.realize

        def exhausted(C, r, params):
            raise MemoryError(f"Unable to allocate 21.8 TiB for an array with shape ({r}, 3)")

        monkeypatch.setattr(signrank.realize, "_search", exhausted)
        code, out, err = run(capsys, "realize", fxdir / "A1.pat", "--rank", 10**12)
        assert code == 3 and out == ""
        assert err.startswith("error: out of memory: Unable to allocate") and err.count("\n") == 1

    def test_unset_budget_is_the_library_default(self, capsys, fxdir, monkeypatch):
        import signrank.realize

        seen = []
        monkeypatch.setattr(signrank.realize, "_search", lambda C, r, params: seen.append(params))
        code, out, _ = run(capsys, "realize", fxdir / "A0.pat", "--rank", 3)
        assert code == 1 and seen == [SearchParams()]
        assert f"within {SearchParams().restarts} restarts (inconclusive)" in out

    def test_precision_exhausted_exits_1(self, capsys, tmp_path):
        # 2^-70 rounds to 0 at every denominator cap, flipping entry (1, 1)
        (tmp_path / "p.pat").write_text("+-\n++\n")
        doc = {"r": 3, "U": [[1.0, 2.0**-70, 0.0], [1.0, 0.0, 2.0]],
               "V": [[-1.0, -1.0], [2.0**71, 0.0], [1.0, 1.0]]}
        (tmp_path / "p.real.json").write_text(json.dumps(doc))
        code, out, err = run(capsys, "rationalize", tmp_path / "p.pat", "--from",
                             tmp_path / "p.real.json", "-o", tmp_path / "p.cert.json")
        assert code == 1 and out == ""
        assert err == "error: denominator schedule exhausted at 2^64 without exact zeros and signs\n"
        assert not (tmp_path / "p.cert.json").exists()

    def test_direct_rank1_negative(self, capsys, tmp_path):
        pat = tmp_path / "neg.pat"
        pat.write_text("--\n--\n")
        out_file = tmp_path / "neg.real.json"
        code, out, _ = run(capsys, "realize", pat, "--rank", 1, "--direct", "-o", out_file)
        assert code == 1 and "no direct rank-1 realization exists" in out
        assert not out_file.exists()
        code, _, _ = run(capsys, "realize", pat, "--rank", 1, "-o", out_file)
        U, V = factor_arrays(load_realization(out_file))
        assert code == 0 and (U @ V).tolist() == [[1.0]]


class TestGeometryCommands:
    def test_encode(self, capsys, fxdir, tmp_path):
        out_file = tmp_path / "enc.pat"
        code, out, _ = run(capsys, "encode", fxdir / "fig21_config.json", "-o", out_file)
        assert code == 0
        assert load_pattern(out_file) == load_pattern(fxdir / "fig21_pattern.pat")

    def test_encode_json_rows_without_columns(self, capsys, tmp_path):
        # three points and no hyperplane: a 3 x 0 pattern, one empty row each
        cfg = tmp_path / "pts.json"
        cfg.write_text(json.dumps({"dim": 2, "points": [[0, 1], [0, 3], [2, 2]], "hyperplanes": []}))
        code, out, _ = run(capsys, "encode", cfg, "--json")
        assert code == 0 and json.loads(out) == {"pattern": ["", "", ""]}
        # a .pat file cannot give the width of a 3 x 0 pattern: -o refuses
        # it and leaves the file as it was
        out_file = tmp_path / "x.pat"
        out_file.write_text("+-\n")
        code, out, err = run(capsys, "encode", cfg, "-o", out_file)
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1 and "3 x 0" in err
        assert out_file.read_text() == "+-\n"

    def test_encode_vertical_and_pointless(self, capsys, tmp_path):
        # a vertical line encodes like any other; without points the pattern
        # is 0 x 2: --json prints its (no) rows, and -o refuses it, since a
        # .pat file without rows reads as 0 x 0
        cfg = tmp_path / "v.json"
        cfg.write_text(json.dumps({"dim": 2, "points": [[0, 1], [-1, 5]], "hyperplanes": [[1, 1, 0]]}))
        code, out, _ = run(capsys, "encode", cfg, "--json")
        assert code == 0 and json.loads(out) == {"pattern": ["+", "0"]}
        cfg.write_text(json.dumps({"dim": 2, "points": [], "hyperplanes": [[0, 0, 1], [1, 1, 1]]}))
        code, out, _ = run(capsys, "encode", cfg, "--json")
        assert code == 0 and json.loads(out) == {"pattern": []}
        code, out, err = run(capsys, "encode", cfg, "-o", tmp_path / "x.pat")
        assert code == 2 and out == "" and err.startswith("error:") and "0 x 2" in err

    def test_compose_vertical_error(self, capsys, tmp_path):
        cfg = tmp_path / "pp.json"
        cfg.write_text(json.dumps({"dim": 2, "points": [[0, 1], [0, 3]], "hyperplanes": [[-2, 0, 1], [0, 0, 1]]}))
        vertical = tmp_path / "v.json"
        vertical.write_text(json.dumps({"dim": 2, "points": [[0, 1], [2, 3]], "hyperplanes": [[-2, 0, 1], [-1, 1, 0]]}))
        out_file = tmp_path / "stacked.json"
        code, out, err = run(capsys, "compose", cfg, vertical, "-o", out_file)
        assert code == 2 and out == "" and not out_file.exists()
        assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err
        assert "hyperplane 2 of the second configuration is vertical" in err and "rightward" in err

    def test_compose(self, capsys, tmp_path):
        cfg = tmp_path / "pp.json"
        cfg.write_text(
            json.dumps(
                {
                    "dim": 2,
                    "points": [[0, 1], [0, 3]],
                    "hyperplanes": [[-2, 0, 1], [0, 0, 1]],
                }
            )
        )
        out_file = tmp_path / "stacked.json"
        code, out, _ = run(capsys, "compose", cfg, cfg, "-o", out_file)
        assert code == 0
        stacked = load_configuration(out_file)
        assert stacked.num_points == 4 and stacked.num_hyperplanes == 4

    def test_dual(self, capsys, fxdir, tmp_path):
        out_file = tmp_path / "dual.json"
        code, out, _ = run(capsys, "dual", fxdir / "fig21_config.json", "-o", out_file)
        assert code == 0
        dual = load_configuration(out_file)
        assert dual.num_points == 3 and dual.num_hyperplanes == 3

    def test_dual_origin_error(self, capsys, tmp_path):
        cfg = tmp_path / "origin.json"
        cfg.write_text(
            json.dumps({"dim": 2, "points": [[0, 0]], "hyperplanes": [[-1, 0, 1]]})
        )
        code, out, err = run(capsys, "dual", cfg, "-o", tmp_path / "d.json")
        assert code == 2 and "point 1 is the origin; move the point off the origin" in err

    def test_dual_sqrt5(self, capsys, tmp_path):
        cfg = tmp_path / "q5.json"
        cfg.write_text(
            json.dumps(
                {
                    "dim": 2,
                    "sqrt": 5,
                    "points": [[1, 1]],
                    "hyperplanes": [[{"r": 0, "s": 1}, 1, 1]],
                }
            )
        )
        out_file = tmp_path / "dual.json"
        code, out, _ = run(capsys, "dual", cfg, "-o", out_file)
        assert code == 0
        dual = load_configuration(out_file)
        assert dual.field_d == 5 and dual.num_points == 1

    def test_render(self, capsys, fxdir, tmp_path):
        out_file = tmp_path / "a.svg"
        code, out, _ = run(capsys, "render", fxdir / "perles_config.json", "-o", out_file)
        assert code == 0
        body = out_file.read_text()
        assert body.startswith("<svg") and "</svg>" in body
        assert body.count("<circle") == 9
        import xml.etree.ElementTree as ET

        ET.fromstring(body)  # well-formed

    def test_render_bbox(self, capsys, fxdir, tmp_path):
        out_file = tmp_path / "b.svg"
        code, *_ = run(
            capsys, "render", fxdir / "fig21_config.json", "-o", out_file,
            "--bbox=-50,-10,50,60",
        )
        assert code == 0

    @pytest.mark.parametrize(
        "point, line, name",
        [
            (["1" + "0" * 400, 0], [0, 0, 1], "point 1 coordinate 1"),
            ([0, 1], ["1" + "0" * 400, 0, 1], "hyperplane 1 coefficient 1"),
        ],
        ids=["point", "hyperplane"],
    )
    def test_render_beyond_float_range(self, capsys, tmp_path, point, line, name):
        cfg = tmp_path / "huge.json"
        cfg.write_text(json.dumps({"dim": 2, "points": [point], "hyperplanes": [line]}))
        out_file = tmp_path / "huge.svg"
        code, _, err = run(capsys, "render", cfg, "-o", out_file)
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1
        assert name in err and "Traceback" not in err
        assert not out_file.exists()

    def test_render_bad_bbox(self, capsys, fxdir, tmp_path):
        code, out, err = run(
            capsys, "render", fxdir / "fig21_config.json", "-o", tmp_path / "c.svg",
            "--bbox", "1,2,3",
        )
        assert code == 2

    # True == 1, but a bool names no coordinate
    @pytest.mark.parametrize("bbox", [(1, 2, 3), (1, "a", 3, 4), (math.nan, 0, 1, 1),
                                      (True, False, 2, 2), (0, 0, np.True_, 1)])
    def test_render_svg_checks_bbox(self, capsys, fxdir, tmp_path, bbox):
        # render_svg reads the bbox, for library callers and the CLI alike
        with pytest.raises(DomainError, match="bbox|bounding box"):
            render_svg(fixture("fig21_config").payload, bbox)
        out_file = tmp_path / "e.svg"
        code, out, err = run(capsys, "render", fxdir / "fig21_config.json", "-o", out_file,
                             "--bbox", ",".join(map(str, bbox)))
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err
        assert not out_file.exists()

    @pytest.mark.parametrize("bbox", ["nan,0,1,1", "0,0,inf,1"])
    def test_render_non_finite_bbox(self, capsys, fxdir, tmp_path, bbox):
        out_file = tmp_path / "d.svg"
        code, _, err = run(
            capsys, "render", fxdir / "fig21_config.json", "-o", out_file, "--bbox", bbox,
        )
        assert code == 2
        assert "finite" in err
        assert not out_file.exists()


class TestEquiv:
    def test_equivalent(self, capsys, fxdir):
        code, out, _ = run(capsys, "equiv", fxdir / "A1.pat", fxdir / "A1.pat")
        assert code == 0 and "equivalent" in out

    def test_not_equivalent(self, capsys, fxdir, tmp_path):
        other = tmp_path / "other.pat"
        other.write_text("+0+\n0+0\n+0+\n")
        code, out, _ = run(capsys, "equiv", fxdir / "A1.pat", other)
        assert code == 1


class TestErrorsAndSelfcheck:
    def test_malformed_pattern_diagnostics(self, capsys, tmp_path):
        bad = tmp_path / "bad.pat"
        bad.write_text("++\n+x\n")
        code, out, err = run(capsys, "mr2", bad)
        assert code == 2
        assert "line 2" in err and "column 2" in err

    def test_missing_file(self, capsys, tmp_path):
        code, out, err = run(capsys, "condense", tmp_path / "absent.pat")
        assert code == 2

    def test_malformed_json(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, out, err = run(capsys, "encode", bad)
        assert code == 2

    def test_non_integer_dim(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"dim": "two", "points": [], "hyperplanes": []}))
        code, out, err = run(capsys, "encode", bad)
        assert code == 2
        assert "dim" in err and "Traceback" not in err

    def test_bool_coordinate(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"dim": 2, "points": [[True, 0]], "hyperplanes": [[1, 1, 1]]}))
        code, out, err = run(capsys, "encode", bad)
        assert code == 2
        assert err.startswith("error:") and "True" in err and "Traceback" not in err

    def test_non_list_points(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"dim": 2, "points": 3, "hyperplanes": []}))
        code, out, err = run(capsys, "encode", bad)
        assert code == 2
        assert "points" in err and "Traceback" not in err

    def test_fractional_dim(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"dim": 2.5, "points": [], "hyperplanes": []}))
        code, out, err = run(capsys, "encode", bad)
        assert code == 2
        assert "dim" in err and "2.5" in err

    def test_large_prime_radical_encodes_fast(self, capsys, tmp_path):
        # 10^12 + 39 is prime; its square-free test once ran on every scalar
        cfg = tmp_path / "big.json"
        cfg.write_text(json.dumps({
            "dim": 2, "sqrt": 10**12 + 39, "points": [[1, 2], [3, -1], [-2, 5], [0, 7]],
            "hyperplanes": [[1, 2, 1], [-3, 1, 1], [5, -1, 1]],
        }))
        start = time.perf_counter()
        code, out, _ = run(capsys, "encode", cfg)
        assert time.perf_counter() - start < 1.0
        assert code == 0 and out == "+0+\n+-+\n+0+\n+++\n"

    def test_square_radical_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "four.json"
        cfg.write_text(json.dumps({"dim": 2, "sqrt": 4, "points": [[1, 2]],
                                   "hyperplanes": [[1, 2, 1]]}))
        code, _, err = run(capsys, "encode", cfg)
        assert code == 2 and "square-free" in err

    def test_radical_beyond_bound_rejected_fast(self, capsys, tmp_path):
        cfg = tmp_path / "huge.json"
        cfg.write_text(json.dumps({"dim": 2, "sqrt": 10**18 + 9,
                                   "points": [[{"r": 1, "s": 1}, 2]], "hyperplanes": [[1, 2, 1]]}))
        start = time.perf_counter()
        code, _, err = run(capsys, "encode", cfg)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err

    def test_negative_restarts(self, capsys, tmp_path):
        pat = tmp_path / "p.pat"
        pat.write_text("++\n")
        code, out, err = run(capsys, "realize", pat, "--rank", 2, "--restarts", -1)
        assert code == 2
        assert "restarts" in err

    @pytest.mark.parametrize("command", [["realize", "--rank", 3], ["mr", "--try-rank", 3]],
                             ids=["realize", "mr"])
    def test_negative_seed(self, capsys, fxdir, command):
        code, out, err = run(capsys, command[0], fxdir / "A0.pat", *command[1:], "--seed", -1)
        assert code == 2
        assert "seed must be >= 0, got -1" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["mr", "{bad}.pat"],
            ["condense", "{bad}.pat"],
            ["equiv", "{bad}.pat", "{bad}.pat"],
            ["encode", "{bad}.json"],
            ["render", "{bad}.json", "-o", "{tmp}/out.svg"],
            ["rationalize", "{fx}/A1.pat", "--from", "{bad}.json"],
        ],
        ids=["mr-pat", "condense-pat", "equiv-pat", "encode-json", "render-json", "from-json"],
    )
    def test_non_utf8_input(self, capsys, fxdir, tmp_path, argv):
        for suffix in (".pat", ".json"):
            (tmp_path / f"bad{suffix}").write_bytes(b"\xff\xfe+\n")
        argv = [a.format(bad=tmp_path / "bad", tmp=tmp_path, fx=fxdir) for a in argv]
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith("error:") and "UTF-8" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["condense", "{fx}"],
            ["dual", "{fx}", "-o", "{tmp}/y.json"],
            ["rationalize", "{fx}/A1.pat", "--from", "{fx}"],
        ],
        ids=["pattern", "config", "from"],
    )
    def test_directory_as_input(self, capsys, fxdir, tmp_path, argv):
        argv = [a.format(tmp=tmp_path, fx=fxdir) for a in argv]
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith("error:") and "directory" in err and "Traceback" not in err
        assert not (tmp_path / "y.json").exists()

    def test_selfcheck(self, capsys):
        code, out, _ = run(capsys, "selfcheck")
        assert code == 0
        assert "sign-nonsingular" in out

    def test_selfcheck_corrupt_fixture(self, capsys, monkeypatch):
        corrupt_perles(monkeypatch, lift_p5)
        code, out, err = run(capsys, "selfcheck")
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "perles_config" in err and "Traceback" not in err

    def test_selfcheck_not_sns(self, capsys, monkeypatch):
        monkeypatch.setattr("signrank.pattern.is_sns", lambda S: False)
        code, out, err = run(capsys, "selfcheck")
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "A0" in err and "Traceback" not in err

    def test_fixture_export(self, capsys, tmp_path):
        code, out, _ = run(capsys, "fixtures", "--export", tmp_path / "fx")
        assert code == 0
        assert (tmp_path / "fx" / "A0.pat").exists()
