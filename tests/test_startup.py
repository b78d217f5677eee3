"""Start-up cost: numpy and ``signrank.realize`` load only for the work that
needs them (the numeric search and reading a realization, not loading or
verifying a certificate), and nothing loads ``concurrent.futures``.
Importing the package or the CLI loads no signrank module but ``errors``,
and each subcommand loads only the modules it calls.

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


def modules_after(statement: str, cwd) -> set:
    return set(fresh(f"import json, sys\n{statement}\nprint(json.dumps(list(sys.modules)))\n", cwd))


def loaded_after(statement: str, cwd, watched=HEAVY) -> list:
    loaded = modules_after(statement, cwd)
    return [m for m in watched if m in loaded]


def run_main(argv, code: int, stream: str = "stdout") -> str:
    """A statement running the CLI on ``argv`` and asserting its exit code."""
    return (
        "import contextlib, io\n"
        "from signrank.cli import main\n"
        f"with contextlib.redirect_{stream}(io.StringIO()):\n"
        f"    assert main({argv!r}) == {code}"
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
    "statement, expected",
    [("import signrank", ["signrank", "signrank.errors"]),
     ("import signrank.cli", ["signrank", "signrank.cli", "signrank.errors"])],
    ids=["signrank", "signrank.cli"],
)
def test_import_loads_only_errors(statement, expected, tmp_path):
    # every other module loads with the first name or subcommand that needs it
    loaded = sorted(m for m in modules_after(statement, tmp_path) if m.startswith("signrank"))
    assert loaded == expected


# what a subcommand must not load besides HEAVY: condense and equiv read
# patterns alone, and the configuration commands neither render nor read
# the fixtures
NOT_LOADED = {
    "condense": ("signrank.exactnum", "signrank.geometry", "fractions"),
    "equiv": ("signrank.exactnum", "signrank.geometry", "fractions"),
    "encode": ("signrank.fixtures", "signrank.svg"),
    "dual": ("signrank.fixtures", "signrank.svg"),
    "compose": ("signrank.fixtures", "signrank.svg"),
}


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
    watched = HEAVY + NOT_LOADED.get(argv[0], ())
    argv = [a.format(fx=fxdir) for a in argv]
    assert loaded_after(run_main(argv, 0), tmp_path, watched) == []


@pytest.mark.parametrize(
    "argv",
    [["realize", "bad.pat", "--rank", "2"], ["rationalize", "bad.pat", "--from", "x.real.json"]],
    ids=lambda argv: argv[0],
)
def test_malformed_pattern_exits_without_numpy(argv, tmp_path):
    # the pattern is read before the search or the realization loads numpy
    (tmp_path / "bad.pat").write_text("+x\n")
    assert loaded_after(run_main(argv, 2, "stderr"), tmp_path) == []


@pytest.mark.parametrize("flag", ["--restarts", "--iters", "--seed"])
def test_negative_search_option_exits_without_numpy(flag, fxdir, tmp_path):
    # realize checks its search budget before it loads the search, as mr does
    argv = ["realize", str(fxdir / "A0.pat"), "--rank", "3", flag, "-1"]
    assert loaded_after(run_main(argv, 2, "stderr"), tmp_path) == []


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
    # nothing is cached on the package: a name replaced on its home module
    # (as a tracer or a test patch does) is what the package hands out
    homes = {"condense": "pattern", "rational_rank": "exactnum", "dualize": "geometry",
             "search_realization": "realize"}
    doc = fresh(
        "import json, signrank\n"
        "seen = {}\n"
        f"for name, module in {homes!r}.items():\n"
        "    first = getattr(signrank, name)\n"
        "    setattr(getattr(signrank, module), name, marker := object())\n"
        "    seen[name] = [first is not marker, getattr(signrank, name) is marker,\n"
        "                  name in vars(signrank)]\n"
        "print(json.dumps(seen))\n",
        tmp_path,
    )
    assert doc == {name: [True, True, False] for name in homes}


def test_unknown_attribute():
    import signrank

    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        signrank.nope
