"""Start-up cost: numpy and ``signrank.realize`` load only for the float
work that needs them (the numeric search of ``realize --rank 3`` and up and
``mr --try-rank``), and nothing loads ``concurrent.futures``, or
``dataclasses`` and the ``inspect`` it brings.  The exact subcommands run
without them: ``mr2``, ``mr`` without ``--try-rank`` (also the SNS scan on
a pattern of minimum rank >= 3), ``realize --rank 1|2`` and the library's
``search_realization`` at ranks 1 and 2, and ``rationalize``, which reads
a realization file and writes and verifies its certificate, also when
that file is malformed.  Importing the package or
the CLI loads no signrank module but ``errors``, and each subcommand loads
only the modules it calls.

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
# dataclasses imports inspect, ast, dis and tokenize, ~7-11 ms of start-up
HEAVY = ("numpy", "signrank.realize", "concurrent.futures", "dataclasses", "inspect")


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
    """The fixtures, and realization files that ``realize`` writes: A1 at
    rank 2, and a rank-3 pattern whose columns do not fit but whose rows do
    (``rationalize`` takes the transposed route)."""
    path = tmp_path_factory.mktemp("fixtures")
    export_fixtures(path)
    (path / "p3.pat").write_text("0+++\n0-++\n0+-+\n++++\n")
    for argv in (["realize", path / "A1.pat", "--rank", 2, "-o", path / "a1.real.json"],
                 ["realize", path / "p3.pat", "--rank", 3, "-o", path / "p3.real.json"]):
        proc = cli(path, *argv)
        assert proc.returncode == 0, proc.stderr
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


# what a subcommand must not load besides HEAVY: condense, equiv, mr and mr2
# read patterns alone, and condense reads them through core without the
# deciders; rationalize reads no configuration and decides nothing; the
# configuration commands and the fixture export read patterns and scalars
# through core and scalars, without the deciders or the certificates, and
# neither render nor read the fixtures unless that is their job
PATTERN_ONLY = ("signrank.exactnum", "signrank.scalars", "signrank.geometry", "fractions")
CONFIGURATION = ("signrank.pattern", "signrank.exactnum", "signrank.fixtures")
NOT_LOADED = {
    "condense": PATTERN_ONLY + ("signrank.pattern",),
    "equiv": PATTERN_ONLY,
    "mr": PATTERN_ONLY,
    "mr2": PATTERN_ONLY,
    "rationalize": ("signrank.pattern", "signrank.geometry", "signrank.fixtures"),
    "realize": ("signrank.geometry", "signrank.fixtures"),
    "encode": CONFIGURATION + ("signrank.svg",),
    "dual": CONFIGURATION + ("signrank.svg",),
    "compose": CONFIGURATION + ("signrank.svg",),
    "render": CONFIGURATION,
    "fixtures": ("signrank.pattern", "signrank.exactnum", "signrank.svg"),
}


@pytest.mark.parametrize(
    "argv",
    [
        ["condense", "{fx}/A0.pat", "-o", "c.pat"],
        ["mr2", "{fx}/A1.pat"],
        ["mr", "{fx}/A1.pat"],
        pytest.param(["mr", "{fx}/A0.pat"], id="mr-A0"),
        pytest.param(["realize", "{fx}/A1.pat", "--rank", "2", "-o", "a1.real.json"],
                     id="realize-rank2"),
        pytest.param(["realize", "{fx}/A1.pat", "--rank", "2", "--direct"],
                     id="realize-rank2-direct"),
        ["rationalize", "{fx}/A1.pat", "--from", "{fx}/a1.real.json", "-o", "a1.cert.json"],
        pytest.param(["rationalize", "{fx}/p3.pat", "--from", "{fx}/p3.real.json",
                      "-o", "p3.cert.json"], id="rationalize-transposed"),
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
    # mr leaves A0's bracket [3, 9] open, which exits 1
    code = 1 if argv == ["mr", "{fx}/A0.pat"] else 0
    argv = [a.format(fx=fxdir) for a in argv]
    assert loaded_after(run_main(argv, code), tmp_path, watched) == []


@pytest.mark.parametrize(
    "argv",
    [["realize", "bad.pat", "--rank", "2"], ["rationalize", "bad.pat", "--from", "x.real.json"]],
    ids=lambda argv: argv[0],
)
def test_malformed_pattern_exits_without_numpy(argv, tmp_path):
    # the pattern is read before the search loads numpy
    (tmp_path / "bad.pat").write_text("+x\n")
    assert loaded_after(run_main(argv, 2, "stderr"), tmp_path) == []


@pytest.mark.parametrize(
    "doc",
    [{"r": 2, "U": [[1.0, 0.5]], "V": [[1.0], [1.0]]}, {"r": 2, "U": [1.0, 2.0], "V": [[1.0]]},
     [1, 2], {"r": 2, "U": [[True, 0.5]], "V": [[1.0], [1.0]]}],
    ids=["bad_shape", "ragged", "list", "bool"],
)
def test_malformed_realization_exits_without_numpy(doc, fxdir, tmp_path):
    # rationalize reads the realization file in exactnum, without numpy
    (tmp_path / "bad.real.json").write_text(json.dumps(doc))
    argv = ["rationalize", str(fxdir / "A1.pat"), "--from", "bad.real.json"]
    assert loaded_after(run_main(argv, 2, "stderr"), tmp_path) == []


@pytest.mark.parametrize(
    "flag, value",
    [("--restarts", "-1"), ("--iters", "-1"), ("--seed", "-1"), ("--rank", "0")],
    ids=["--restarts", "--iters", "--seed", "--rank"],
)
def test_negative_search_option_exits_without_numpy(flag, value, fxdir, tmp_path):
    # realize checks its search budget and its rank before it loads the
    # search, as mr does; a repeated --rank takes the last value
    argv = ["realize", str(fxdir / "A0.pat"), "--rank", "3", flag, value]
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


def test_realization_reads_without_numpy(tmp_path):
    # the one realization class lives in exactnum: reading, checking and
    # multiplying out a document loads neither numpy nor realize
    statement = (
        "from signrank.exactnum import read_realization\n"
        "real = read_realization({'r': 2, 'U': [[1.0, -0.5]], 'V': [[1.0], [1.0]]})\n"
        "assert real.signed_pattern().entries == ((1,),) and real.margin() == 0.5"
    )
    assert loaded_after(statement, tmp_path) == []


def test_exact_ranks_search_without_numpy(tmp_path):
    # the one entry point decides ranks 1 and 2 in pattern: the budget's
    # class and the exact answers load neither numpy nor the float search
    statement = (
        "from signrank import SearchParams, has_direct_representation, search_realization\n"
        "from signrank.fixtures import A1_PATTERN, A2_PATTERN\n"
        "assert search_realization(A1_PATTERN, 2).signed_pattern() is not None\n"
        "assert has_direct_representation(A2_PATTERN, 2).status == 'no'\n"
        "assert SearchParams().restarts == 64"
    )
    assert loaded_after(statement, tmp_path) == []


def test_non_integer_search_input_rejected_without_numpy(tmp_path):
    # the library refuses a non-integer rank or budget before it loads the
    # search; mr_bounds with try_rank 3.0 once ran it on A0
    statement = (
        "from signrank import MrBoundsOptions, SearchParams, mr_bounds, search_realization\n"
        "from signrank.errors import DomainError\n"
        "from signrank.fixtures import A0_PATTERN\n"
        "calls = [lambda: search_realization(A0_PATTERN, 3.0),\n"
        "         lambda: search_realization(A0_PATTERN, 3, SearchParams(restarts=1.0)),\n"
        "         lambda: search_realization(A0_PATTERN, 3, SearchParams(seed=1.5)),\n"
        "         lambda: mr_bounds(A0_PATTERN, MrBoundsOptions(try_rank=3.0)),\n"
        "         lambda: mr_bounds(A0_PATTERN, MrBoundsOptions(sns_cap=2.5, try_rank=3))]\n"
        "for call in calls:\n"
        "    try:\n"
        "        call()\n"
        "    except DomainError as exc:\n"
        "        assert 'must be an integer' in str(exc), exc\n"
        "    else:\n"
        "        raise AssertionError('accepted')"
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
    homes = {"condense": "core", "quad_sign": "scalars", "term_rank": "pattern",
             "rational_rank": "exactnum", "dualize": "geometry", "search_realization": "pattern"}
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
