import json

import pytest

from signrank.cli import main
from signrank.fixtures import export_fixtures
from signrank.geometry import load_configuration
from signrank.pattern import SignPattern, load_pattern
from signrank.realize import load_certificate, load_realization


@pytest.fixture(scope="module")
def fxdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fixtures")
    export_fixtures(path)
    return path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
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
        import signrank.realize

        seen = []
        monkeypatch.setattr(
            signrank.realize, "search_realization", lambda C, r, params: seen.append(params)
        )
        # rank 3 is A0's proven lower bound and below its upper bound, so it is searched
        code, out, _ = run(capsys, "mr", fxdir / "A0.pat", "--try-rank", 3, "--iters", 7)
        assert code == 1
        assert [p.iters for p in seen] == [7]

    def test_try_rank_below_lower_bound_skips_search(self, capsys, fxdir, monkeypatch):
        import signrank.realize

        def fail(*args):
            raise AssertionError("searched below the proven lower bound")

        monkeypatch.setattr(signrank.realize, "search_realization", fail)
        code, out, _ = run(capsys, "mr", fxdir / "A0.pat", "--try-rank", 2, "--json")
        assert code == 1
        doc = json.loads(out)
        assert doc["lower"] == 3
        assert ["note", None, "rank 2 is below the proven lower bound 3; no search run"] in doc["evidence"]

    def test_inconclusive_exit(self, capsys, fxdir):
        code, out, _ = run(capsys, "mr", fxdir / "A0.pat")
        assert code == 1  # bounds not tight without a realization search
        assert "mr in [3," in out

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
            capsys, "rationalize", pat, "--from", real_file, "--by-rows", "-o", cert_file
        )
        assert code == 0
        cert = load_certificate(cert_file)
        assert cert.factors is not None
        U, V = cert.factors
        assert len(U) == 4 and len(V) == 3 and len(V[0]) == 4
        assert cert.verify()

    def test_not_found_exit(self, capsys, tmp_path):
        pat = tmp_path / "diag.pat"
        pat.write_text("+0\n0+\n")
        code, out, _ = run(capsys, "realize", pat, "--rank", 1, "-o", tmp_path / "x.json")
        assert code == 1 and "inconclusive" in out


class TestGeometryCommands:
    def test_encode(self, capsys, fxdir, tmp_path):
        out_file = tmp_path / "enc.pat"
        code, out, _ = run(capsys, "encode", fxdir / "fig21_config.json", "-o", out_file)
        assert code == 0
        assert load_pattern(out_file) == load_pattern(fxdir / "fig21_pattern.pat")

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
        assert code == 2 and "translate" in err

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

    def test_render_bad_bbox(self, capsys, fxdir, tmp_path):
        code, out, err = run(
            capsys, "render", fxdir / "fig21_config.json", "-o", tmp_path / "c.svg",
            "--bbox", "1,2,3",
        )
        assert code == 2

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

    def test_negative_restarts(self, capsys, tmp_path):
        pat = tmp_path / "p.pat"
        pat.write_text("++\n")
        code, out, err = run(capsys, "realize", pat, "--rank", 2, "--restarts", -1)
        assert code == 2
        assert "restarts" in err

    def test_selfcheck(self, capsys):
        code, out, _ = run(capsys, "selfcheck")
        assert code == 0
        assert "sign-nonsingular" in out

    def test_fixture_export(self, capsys, tmp_path):
        code, out, _ = run(capsys, "fixtures", "--export", tmp_path / "fx")
        assert code == 0
        assert (tmp_path / "fx" / "A0.pat").exists()
