"""Command-line front end.

Exit codes: 0 success, 1 negative or inconclusive result, 2 input error,
3 resource exhausted.  ``--json`` switches stdout to a stable
machine-readable document.

Each subcommand imports the modules it calls when it runs, so importing
this module loads only ``errors`` and a command loads (and, without cached
bytecode, compiles) what it needs alone:
``condense`` loads ``core`` (the pattern and its condensation), and
``equiv``, ``mr`` and ``mr2`` add the deciders of ``pattern``;
``rationalize`` loads ``core``, ``scalars`` and ``exactnum`` (the
certificates); ``encode``, ``dual`` and ``compose`` load ``geometry`` (with
``core`` and ``scalars``), and ``render`` adds ``svg``; ``fixtures``
loads ``fixtures`` (with ``geometry``), and ``selfcheck`` adds ``pattern``.
``realize`` loads ``pattern`` and ``exactnum`` and makes one call,
``pattern.search_realization``, for every rank.  Only the float search
loads numpy: ``realize --rank 3`` and up and ``mr --try-rank`` import
``realize`` through that call, after it has checked the pattern, the
search options and the rank.  ``mr2``, ``mr`` without ``--try-rank`` (its
SNS scan runs on bitmasks), ``realize --rank 1|2`` (decided exactly in
``pattern``) and ``rationalize`` (which reads the realization file without
numpy) never load it.  No signrank module
imports ``dataclasses``, whose import (``inspect``, ``ast``, ``dis``,
``tokenize``) and per-class ``exec`` cost each process about 20 ms:
records are NamedTuples, and the classes that check their values on
construction share one immutable base, ``core._Record``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .errors import (
    DomainError,
    FixtureCorrupt,
    Overdetermined,
    PrecisionExhausted,
    ResourceExhausted,
    SignRankError,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_RESOURCES = 3


def _emit(args, document: dict, text: str) -> None:
    if args.json:
        json.dump(document, sys.stdout, indent=1, default=str)
        sys.stdout.write("\n")
    else:
        print(text)


def _witness_doc(w) -> dict:
    return {
        "row_perm": list(w.row_perm),
        "col_perm": list(w.col_perm),
        "row_signs": list(w.row_signs),
        "col_signs": list(w.col_signs),
    }


def _cmd_condense(args) -> int:
    from .core import condense, load_pattern, save_pattern

    A = load_pattern(args.pattern)
    report = condense(A)
    if args.output:
        save_pattern(report.condensed, args.output)
    doc = {
        "condensed": report.condensed.lines(),
        "kept_rows": list(report.kept_rows),
        "kept_cols": list(report.kept_cols),
        "log": [
            {"axis": e.axis, "kind": e.kind, "index": e.index, "survivor": e.survivor}
            for e in report.log
        ],
    }
    shape = f"{report.condensed.m}x{report.condensed.n}"
    text = f"condensed to {shape}:\n{report.condensed.to_text()}" if report.condensed.m else "condensed to the empty pattern"
    _emit(args, doc, text)
    return EXIT_OK


def _cmd_mr(args) -> int:
    from .pattern import MrBoundsOptions, load_pattern, mr_bounds

    A = load_pattern(args.pattern)
    opts = MrBoundsOptions(
        sns_cap=args.sns_cap,
        try_rank=args.try_rank,
        seed=args.seed,
        restarts=args.restarts,
        iters=args.iters,
    )
    bounds = mr_bounds(A, opts)
    # the most specific evidence for each bound is recorded last
    lower_ev = next(
        (e for e in reversed(bounds.evidence) if e[0] in ("lower", "exact") and e[1] == bounds.lower),
        None,
    )
    upper_ev = next(
        (e for e in reversed(bounds.evidence) if e[0] in ("upper", "exact") and e[1] == bounds.upper),
        None,
    )
    lo_text = lower_ev[2] if lower_ev else "none"
    up_text = upper_ev[2] if upper_ev else "none"
    if bounds.lower == bounds.upper:
        text = f"mr = {bounds.lower} (lower: {lo_text}; upper: {up_text})"
    else:
        text = f"mr in [{bounds.lower}, {bounds.upper}] (lower: {lo_text}; upper: {up_text})"
    doc = {
        "lower": bounds.lower,
        "upper": bounds.upper,
        "evidence": [list(e) for e in bounds.evidence],
    }
    _emit(args, doc, text)
    return EXIT_OK if bounds.lower == bounds.upper else EXIT_NEGATIVE


def _cmd_mr2(args) -> int:
    from .pattern import is_mr2, load_pattern

    A = load_pattern(args.pattern)
    result = is_mr2(A)
    doc = {"mr2": result.value}
    if result.witness is not None:
        doc["witness"] = _witness_doc(result.witness)
        arranged = result.witness.apply(result.condensation.condensed)
        text = "minimum rank 2: yes\nnondecreasing arrangement:\n" + arranged.to_text()
    else:
        text = "minimum rank 2: no"
    _emit(args, doc, text)
    return EXIT_OK if result.value else EXIT_NEGATIVE


def _cmd_encode(args) -> int:
    from .core import save_pattern
    from .geometry import encode_configuration, load_configuration

    C = load_configuration(args.config)
    P = encode_configuration(C)
    if args.output:
        save_pattern(P, args.output)
    _emit(args, {"pattern": P.lines()}, P.to_text())
    return EXIT_OK


def _cmd_realize(args) -> int:
    from .exactnum import save_realization
    from .pattern import SearchParams, load_pattern, search_realization

    A = load_pattern(args.pattern)
    params = SearchParams(restarts=args.restarts, iters=args.iters, seed=args.seed,
                          direct=args.direct)
    real = search_realization(A, args.rank, params)
    if real is None:
        # ranks 1 and 2 are decided exactly; the search above that is not
        exact = args.rank <= 2
        if not exact:
            text = (f"no rank-{args.rank} realization found within "
                    f"{args.restarts} restarts (inconclusive)")
        elif args.direct:
            text = f"no direct rank-{args.rank} realization exists (decided exactly)"
        else:
            text = (f"no rank-{args.rank} realization exists "
                    f"(mr > {args.rank}, decided exactly)")
        _emit(args, {"found": False, "exact": exact}, text)
        return EXIT_NEGATIVE
    if args.output:
        save_realization(real, args.output)
    # a realization with no nonzero product has an infinite margin, which
    # JSON cannot carry
    margin = real.margin()
    doc = {"found": True, "r": real.r, "margin": margin if math.isfinite(margin) else None,
           "output": args.output}
    _emit(args, doc, f"rank-{real.r} realization found (margin {margin:.3g})")
    return EXIT_OK


def _cmd_rationalize(args) -> int:
    from .core import load_pattern
    from .exactnum import load_realization, rationalize, save_certificate

    A = load_pattern(args.pattern)
    real = load_realization(getattr(args, "from"))
    cert = rationalize(A, real)
    if not cert.verify():
        raise SignRankError("internal error: certificate failed re-verification")
    if args.output:
        save_certificate(cert, args.output)
    doc = {"rank": cert.rank, "verified": True, "output": args.output}
    _emit(
        args,
        doc,
        f"exact rational certificate written: rank {cert.rank}, signs verified",
    )
    return EXIT_OK


def _cmd_compose(args) -> int:
    from .geometry import load_configuration, save_configuration, stack

    C1 = load_configuration(args.config1)
    C2 = load_configuration(args.config2)
    C = stack(C1, C2)
    save_configuration(C, args.output)
    doc = {
        "points": C.num_points,
        "hyperplanes": C.num_hyperplanes,
        "dim": C.dim,
        "output": args.output,
    }
    _emit(
        args,
        doc,
        f"stacked configuration: {C.num_points} points, "
        f"{C.num_hyperplanes} hyperplanes in dimension {C.dim}",
    )
    return EXIT_OK


def _cmd_dual(args) -> int:
    from .geometry import dualize, load_configuration, save_configuration

    C = load_configuration(args.config)
    result = dualize(C)
    save_configuration(result.configuration, args.output)
    doc = {
        "flipped_hyperplanes": [j + 1 for j in result.hyperplane_flips],
        "output": args.output,
    }
    flips = ", ".join(str(j + 1) for j in result.hyperplane_flips) or "none"
    _emit(args, doc, f"dual configuration written (re-oriented hyperplanes: {flips})")
    return EXIT_OK


def _cmd_equiv(args) -> int:
    from .pattern import is_equivalent, load_pattern

    A = load_pattern(args.pattern_a)
    B = load_pattern(args.pattern_b)
    witness = is_equivalent(A, B)
    if witness is None:
        _emit(args, {"equivalent": False}, "not equivalent")
        return EXIT_NEGATIVE
    _emit(
        args,
        {"equivalent": True, "witness": _witness_doc(witness)},
        "equivalent\nrow perm: "
        + " ".join(str(i + 1) for i in witness.row_perm)
        + "\ncol perm: "
        + " ".join(str(j + 1) for j in witness.col_perm)
        + "\nrow signs: "
        + " ".join("+" if s > 0 else "-" for s in witness.row_signs)
        + "\ncol signs: "
        + " ".join("+" if s > 0 else "-" for s in witness.col_signs),
    )
    return EXIT_OK


def _cmd_render(args) -> int:
    from .geometry import load_configuration
    from .svg import render_svg

    C = load_configuration(args.config)
    bbox = None
    if args.bbox:
        try:
            bbox = tuple(float(v) for v in args.bbox.split(","))
        except ValueError:
            raise DomainError(f"malformed bbox {args.bbox!r}; expected x0,y0,x1,y1")
        if len(bbox) != 4:
            raise DomainError(f"bbox needs 4 numbers, got {len(bbox)}")
    doc_text = render_svg(C, bbox)
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(doc_text + "\n")
    _emit(args, {"output": args.output}, f"wrote {args.output}")
    return EXIT_OK


def _cmd_fixtures(args) -> int:
    from .fixtures import export_fixtures

    written = export_fixtures(args.export)
    _emit(
        args,
        {"written": [str(p) for p in written]},
        "\n".join(f"wrote {p}" for p in written),
    )
    return EXIT_OK


def _cmd_selfcheck(args) -> int:
    from .fixtures import check_encoding, derive_perles_check, fixture
    from .pattern import is_sns

    checks = list(derive_perles_check().checks)
    sub = fixture("A0").payload.submatrix((3, 4, 5), (6, 7, 8))
    if not is_sns(sub):
        raise FixtureCorrupt("A0 rows {4,5,6} x cols {7,8,9} is not sign-nonsingular")
    checks.append(("sns", "A0 rows 4,5,6 / cols 7,8,9 is sign-nonsingular"))
    checks.append(check_encoding("fig21_config", "fig21_pattern"))
    doc = {"ok": True, "checks": [list(c) for c in checks]}
    _emit(args, doc, "\n".join(f"ok  {name}: {detail}" for name, detail in checks))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="signrank",
        description="Minimum-rank bounds, exact certificates, and "
        "point-hyperplane encodings for sign patterns.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine-readable output")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("condense", parents=[common], help="condense a pattern")
    p.add_argument("pattern")
    p.add_argument("-o", "--output", help="write the condensed pattern here")
    p.set_defaults(func=_cmd_condense)

    p = sub.add_parser("mr", parents=[common], help="minimum-rank bounds with evidence")
    p.add_argument("pattern")
    p.add_argument("--sns-cap", type=int, default=4, help="largest SNS submatrix size tried")
    p.add_argument("--try-rank", type=int, default=None, help="also search a realization at this rank")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--restarts", type=int, default=64)
    p.add_argument("--iters", type=int, default=5000)
    p.set_defaults(func=_cmd_mr)

    p = sub.add_parser("mr2", parents=[common], help="exact minimum-rank-2 decision")
    p.add_argument("pattern")
    p.set_defaults(func=_cmd_mr2)

    p = sub.add_parser("encode", parents=[common], help="encode a configuration into a pattern")
    p.add_argument("config")
    p.add_argument("-o", "--output", help="write the pattern here")
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("realize", parents=[common], help="search a rank-r sign realization")
    p.add_argument("pattern")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--restarts", type=int, default=64)
    p.add_argument("--iters", type=int, default=5000)
    p.add_argument("--direct", action="store_true", help="pin identity signatures")
    p.add_argument("-o", "--output", help="write the realization here")
    p.set_defaults(func=_cmd_realize)

    p = sub.add_parser("rationalize", parents=[common], help="exact rational certificate from a realization")
    p.add_argument("pattern")
    p.add_argument("--from", required=True, help="realization file")
    p.add_argument("-o", "--output", help="write the certificate here")
    p.set_defaults(func=_cmd_rationalize)

    p = sub.add_parser("compose", parents=[common], help="stack two configurations")
    p.add_argument("config1")
    p.add_argument("config2")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_compose)

    p = sub.add_parser("dual", parents=[common], help="orientation-preserving dual transform")
    p.add_argument("config")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_dual)

    p = sub.add_parser("equiv", parents=[common], help="permutation/signature equivalence")
    p.add_argument("pattern_a")
    p.add_argument("pattern_b")
    p.set_defaults(func=_cmd_equiv)

    p = sub.add_parser("render", parents=[common], help="render a planar configuration to SVG")
    p.add_argument("config")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--bbox", help="x0,y0,x1,y1")
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("fixtures", parents=[common], help="export the built-in fixtures")
    p.add_argument("--export", required=True, metavar="DIR")
    p.set_defaults(func=_cmd_fixtures)

    p = sub.add_parser("selfcheck", parents=[common], help="run the exact fixture verifications")
    p.set_defaults(func=_cmd_selfcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (Overdetermined, PrecisionExhausted, FixtureCorrupt) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NEGATIVE
    except ResourceExhausted as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCES
    except UnicodeDecodeError as exc:
        print(f"error: input is not UTF-8 text: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except json.JSONDecodeError as exc:
        print(f"error: malformed JSON input: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (OSError, SignRankError) as exc:
        # every other input error, and a missing file, a directory or an
        # unreadable file given as a path
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
