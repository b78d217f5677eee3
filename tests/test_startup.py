"""Start-up cost: numpy and ``signrank.realize`` load only for the work that
needs them (the numeric search and reading a realization, not loading or
verifying a certificate), and nothing loads ``concurrent.futures``.

pytest itself has already imported numpy, so every check runs in a fresh
interpreter and reports what that interpreter loaded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from signrank.fixtures import export_fixtures
from signrank.exactnum import load_certificate

SRC = Path(__file__).resolve().parent.parent / "src"
ENV = dict(os.environ, PYTHONPATH=str(SRC))
HEAVY = ("numpy", "signrank.realize", "concurrent.futures")


def fresh(code: str, cwd) -> dict:
    """Run ``code`` in a new interpreter; it must print one JSON document."""
    proc = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=ENV,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def loaded_after(statement: str, cwd) -> list:
    return fresh(
        "import json, sys\n"
        f"{statement}\n"
        f"print(json.dumps([m for m in {HEAVY!r} if m in sys.modules]))\n",
        cwd,
    )


@pytest.fixture(scope="module")
def fxdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fixtures")
    export_fixtures(path)
    return path


@pytest.mark.parametrize("statement", ["import signrank", "import signrank.cli"])
def test_import_loads_nothing_heavy(statement, tmp_path):
    assert loaded_after(statement, tmp_path) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["condense", "{fx}/A0.pat", "-o", "c.pat"],
        ["encode", "{fx}/perles_config.json", "-o", "e.pat"],
        ["equiv", "{fx}/A0.pat", "{fx}/A0.pat"],
        ["dual", "{fx}/fig21_config.json", "-o", "d.json"],
        ["compose", "{fx}/fig21_config.json", "{fx}/fig21_config.json", "-o", "s.json"],
        ["render", "{fx}/perles_config.json", "-o", "p.svg"],
        ["fixtures", "--export", "out"],
        ["selfcheck"],
    ],
    ids=lambda argv: argv[0],
)
def test_pure_subcommands_run_without_numpy(argv, fxdir, tmp_path):
    argv = [a.format(fx=fxdir) for a in argv]
    statement = (
        "import contextlib, io\n"
        "from signrank.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({argv!r}) == 0"
    )
    assert loaded_after(statement, tmp_path) == []


@pytest.mark.parametrize(
    "argv",
    [["realize", "bad.pat", "--rank", "2"], ["rationalize", "bad.pat", "--from", "x.real.json"]],
    ids=lambda argv: argv[0],
)
def test_malformed_pattern_exits_without_numpy(argv, tmp_path):
    # the pattern is read before the search or the realization loads numpy
    (tmp_path / "bad.pat").write_text("+x\n")
    statement = (
        "import contextlib, io\n"
        "from signrank.cli import main\n"
        "with contextlib.redirect_stderr(io.StringIO()):\n"
        f"    assert main({argv!r}) == 2"
    )
    assert loaded_after(statement, tmp_path) == []


@pytest.mark.parametrize("flag", ["--restarts", "--iters", "--seed"])
def test_negative_search_option_exits_without_numpy(flag, fxdir, tmp_path):
    # realize checks its search budget before it loads the search, as mr does
    argv = ["realize", str(fxdir / "A0.pat"), "--rank", "3", flag, "-1"]
    statement = (
        "import contextlib, io\n"
        "from signrank.cli import main\n"
        "with contextlib.redirect_stderr(io.StringIO()):\n"
        f"    assert main({argv!r}) == 2"
    )
    assert loaded_after(statement, tmp_path) == []


def cli(cwd, *argv) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "signrank.cli", *map(str, argv)], cwd=cwd,
                          env=ENV, capture_output=True, text=True, timeout=120)


def test_numeric_subcommands_still_work(fxdir, tmp_path):
    mr = cli(tmp_path, "mr", fxdir / "A0.pat", "--json")
    assert mr.returncode == 1 and json.loads(mr.stdout)["lower"] == 3, mr.stderr
    mr2 = cli(tmp_path, "mr2", fxdir / "A1.pat", "--json")
    assert mr2.returncode == 0 and json.loads(mr2.stdout)["mr2"] is True, mr2.stderr
    # rank 3 runs the randomized search; the columns do not fit, the rows do
    pat = tmp_path / "p.pat"
    pat.write_text("0+++\n0-++\n0+-+\n++++\n")
    real = cli(tmp_path, "realize", pat, "--rank", 3, "-o", "p.real.json")
    assert real.returncode == 0, real.stderr
    cert = cli(tmp_path, "rationalize", pat, "--from", "p.real.json", "-o", "p.cert.json")
    assert cert.returncode == 0, cert.stderr
    assert load_certificate(tmp_path / "p.cert.json").verify()


def test_certificate_verifies_without_numpy(fxdir, tmp_path):
    real = cli(tmp_path, "realize", fxdir / "A1.pat", "--rank", 2, "-o", "a1.real.json")
    assert real.returncode == 0, real.stderr
    cert = cli(tmp_path, "rationalize", fxdir / "A1.pat", "--from", "a1.real.json",
               "-o", "a1.cert.json")
    assert cert.returncode == 0, cert.stderr
    statement = (
        "from signrank import RationalCertificate\n"
        "from signrank.exactnum import load_certificate\n"
        "cert = load_certificate('a1.cert.json')\n"
        "assert isinstance(cert, RationalCertificate) and cert.verify()"
    )
    assert loaded_after(statement, tmp_path) == []


def test_star_import_resolves_all(tmp_path):
    doc = fresh(
        "import json, signrank, signrank.realize as realize\n"
        "ns = {}\n"
        "exec('from signrank import *', ns)\n"
        "print(json.dumps({\n"
        "    'missing': [n for n in signrank.__all__ if n not in ns],\n"
        "    'not_in_dir': sorted(set(signrank.__all__) - set(dir(signrank))),\n"
        "    'realize': [n for n in signrank.__all__ if hasattr(realize, n)\n"
        "                and ns[n] is not getattr(realize, n)],\n"
        "}))\n",
        tmp_path,
    )
    assert doc == {"missing": [], "not_in_dir": [], "realize": []}


def test_lazy_names_follow_the_module(tmp_path):
    # nothing is cached on the package: a name replaced on realize (as a
    # tracer or a test patch does) is what the package hands out
    doc = fresh(
        "import json, signrank\n"
        "first = signrank.search_realization\n"
        "signrank.realize.search_realization = marker = object()\n"
        "print(json.dumps([first is not marker, signrank.search_realization is marker,\n"
        "                  'search_realization' in vars(signrank)]))\n",
        tmp_path,
    )
    assert doc == [True, True, False]


def test_unknown_attribute():
    import signrank

    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        signrank.nope
