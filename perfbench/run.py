#!/usr/bin/env python3
"""signrank benchmark: end-to-end metrics, or per-layer metrics when traced.

    python3 perfbench/run.py --workload bounds --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selfcheck

Run from the root of a checkout; the package is imported from ./src.  One
client runs instances closed-loop, one after another, in rounds of a fixed
family/size schedule (see workloads.py).  ``--seconds`` sets the number of
rounds from each workload's round length on the reference machine, so every
run of a seed measures the same instances however fast the program is, and
the tail percentile always has the same rank.  Each pass over the instances
is a fresh process (this script with the hidden ``--pass-out``), so nothing
the program keeps in memory carries over from one pass to the next; it
writes its input files before an instance starts and checks the results
after its loop, both outside the timed region.  ``setup_s`` is the median
over fresh interpreters importing ``signrank.cli``, spawned between the
instances of the passes so that they sample the same stretch of time.
Every instance and import time is scaled to a reference machine speed read
from a fixed computation run before each of them (speed.py), because the
shared machine this was built on changes speed by up to 1.8x from one
second to the next; the measured figures are printed on a '#' line.  A run
fails (``correct`` false) on a wrong answer or on any failure that is not a
documented defect of the program.  The last line of stdout is the JSON
result; the lines before it (prefixed with '#') are the environment
fingerprint, tail percentile and sample count, the measured figures,
failures and a digest of the verdicts.

With ``--trace 1`` a fixed number of rounds runs twice, untraced then with
every traced function wrapped in a span (tracing.py); the difference of
the two walls is the tracing overhead.  Calls counts repeat exactly for a
seed.  ``--selfcheck`` checks that, plus a smoke run on a held-out seed.

Every process the benchmark starts runs with one OpenBLAS thread: numpy's
start-up of a second one waits on the other core, and on a shared machine
that wait swung the import time of ``signrank.cli`` by 40%; the search is
single-threaded and its matrices too small for OpenBLAS to split anyway.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_SPAWNS = 12  # per run, shared out over its passes
HELD_OUT_SEED = 990001

# name and unit; the bounds are in BENCHMARK.json
END_TO_END = (
    ("verdict_p50_s", "s"), ("verdict_tail_s", "s"), ("throughput_per_s", "1/s"),
    ("decided_frac", "ratio"), ("ok_frac", "ratio"), ("peak_rss_mb", "MB"), ("setup_s", "s"),
)

SUBCOMMANDS = ("condense", "mr", "mr2", "encode", "realize", "rationalize", "compose", "dual",
               "equiv", "render", "fixtures", "selfcheck")
# ratio metric -> (numerator, denominator); "<name>.yes" counts true outcomes
RATIOS = {
    "pattern.is_mr2.yes_frac": ("pattern.is_mr2.yes", "pattern.is_mr2.calls", "higher"),
    "pattern.is_sns.true_frac": ("pattern.is_sns.yes", "pattern.is_sns.calls", "higher"),
    "realize.search_realization.found_frac": (
        "realize.search_realization.yes", "realize.search_realization.calls", "higher"),
    "realize.rational_rank.calls_per_certificate": (
        "realize.rational_rank.calls", "realize.rationalize.calls", "lower"),
    "kernels.descent.calls_per_search": (
        "kernels.descent.calls", "realize.search_realization.calls", "lower"),
}
TRACE_TOTALS = (
    ("trace.wall_s", "s", "lower"), ("trace.untraced_wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"), ("trace.self_total_s", "s", "lower"),
    ("trace.accounted_frac", "ratio", "higher"),
)


def per_layer_spec():
    """(name, unit, better) for every metric a traced run reports."""
    import tracing

    spec = []
    for layer in (tracing.REPORT_AS.get(name, name) for name in tracing.TRACED):
        spec += [(f"{layer}.calls", "count", "lower"), (f"{layer}.self_s", "s", "lower")]
    spec += [(name, "ratio", better) for name, (_, _, better) in RATIOS.items()]
    spec += [("cli.import.self_s", "s", "lower"), ("cli.main.self_s", "s", "lower"),
             ("cli.startup.self_s", "s", "lower")]
    spec += [(f"cli.{sub}.total_s", "s", "lower") for sub in SUBCOMMANDS]
    return spec + list(TRACE_TOTALS)


# ---------------------------------------------------------------------------
# One pass: a fresh process that runs the instances, then checks them


def load_signrank():
    sys.path.insert(0, str(SRC))
    return SimpleNamespace(**{
        name: importlib.import_module(f"signrank.{name}")
        for name in ("pattern", "realize", "kernels", "geometry", "fixtures", "svg", "cli")
    })


def fingerprint(sr) -> dict:
    return {
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": importlib.import_module("numpy").__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "kernels_backend": sr.kernels.BACKEND,
        "openblas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def run_instances(wl, batches, gauge=None, setup_spans=None, spawns=0):
    """Run the instances in order, with ``spawns`` set-up measurements spread
    evenly between them and, given a gauge, a speed reading before each;
    returns (instance, result, error, start, end) for each."""
    instances = [inst for batch in batches for inst in batch]
    n = len(instances)
    results = []
    for i, inst in enumerate(instances):
        measure_setup(setup_spans, (i + 1) * spawns // n - i * spawns // n, gauge)
        if gauge is not None:
            gauge.read()
        error = None
        t0 = time.perf_counter()
        try:
            res = wl.run(inst)
        except Exception:  # the program raised: a failed instance
            res, error = None, traceback.format_exc()
        results.append((inst, res, error, t0, time.perf_counter()))
    if gauge is not None:
        gauge.read()
    return results


def check(wl, inst, res, error):
    import workloads

    if error is not None:
        return workloads.error_outcome(error)
    try:
        return wl.check(inst, res)
    except Exception as exc:  # any disagreement with the benchmark's answer
        return workloads.Outcome(f"wrong:{type(exc).__name__}", decided=False, failed=True,
                                 wrong=True, note=f"{inst.key}: {exc}")


def run_pass(args) -> None:
    """The body of a pass process: ``--rounds`` rounds of the workload, run
    once (traced with ``--trace 1``), then checked; writes the per-instance
    times and outcomes to ``--pass-out`` as JSON."""
    import speed
    import tracing
    import workloads

    sr = load_signrank()
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload](sr, workdir, args.seed)
        rounds = wl.rounds()
        batches = [next(rounds) for _ in range(args.rounds)]
        stats, setup_spans, gauge = None, [], None
        if not args.trace:
            gauge = speed.Gauge(wl.speed_mix)
            results = run_instances(wl, batches, gauge, setup_spans, args.setup_spawns)
        elif args.workload == "cli":
            trace_dir = WORK / "traces" / f"cli-seed{args.seed}"
            shutil.rmtree(trace_dir, ignore_errors=True)
            trace_dir.mkdir(parents=True)
            wl.traced, wl.span_dir = True, trace_dir
            results = run_instances(wl, batches)
            stats = tracing.summarize([tracing.load(p) for p in sorted(trace_dir.glob("*.npz"))])
        else:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                results = run_instances(wl, batches)
            finally:
                tracer.uninstall()
            trace_dir = WORK / "traces"
            trace_dir.mkdir(parents=True, exist_ok=True)
            tracer.save(trace_dir / f"{args.workload}-seed{args.seed}.npz")
            stats = tracing.summarize([tracer.arrays()])
        who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
        peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
        instances = []
        for inst, res, error, t0, t1 in results:
            outcome = check(wl, inst, res, error)
            instances.append({"key": inst.key, "family": inst.family, "raw_dt": t1 - t0,
                              "dt": (t1 - t0) * (gauge.factor(t0, t1) if gauge else 1.0),
                              **dataclasses.asdict(outcome)})
        setup_times = [(t1 - t0) * gauge.factor(t0, t1) for t0, t1 in setup_spans]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    Path(args.pass_out).write_text(json.dumps({
        "instances": instances, "peak_rss_mb": peak_rss_mb, "stats": stats,
        "setup_times": setup_times, "raw_setup_times": [t1 - t0 for t0, t1 in setup_spans],
        "env": fingerprint(sr),
    }))


def spawn_pass(args, rounds, trace, tag, setup_spawns=0) -> dict:
    out = WORK / f"pass-{args.workload}-{args.seed}-{os.getpid()}-{tag}.json"
    argv = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--trace", str(trace), "--rounds", str(rounds),
            "--setup-spawns", str(setup_spawns), "--pass-out", str(out)]
    try:
        subprocess.run(argv, cwd=ROOT, check=True, timeout=170)
        return json.loads(out.read_text())
    finally:
        out.unlink(missing_ok=True)


def measure_setup(spans, spawns, gauge=None) -> None:
    """Append the (start, end) of fresh interpreters importing signrank.cli,
    each after a speed reading."""
    argv = [sys.executable, "-c", "import signrank.cli"]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for _ in range(spawns):
        if gauge is not None:
            gauge.read()
        t0 = time.perf_counter()
        # captured output returns on the pipes' EOF at exit; without it,
        # run() polls for the exit in steps of up to 50 ms
        subprocess.run(argv, cwd=ROOT, env=env, check=True, timeout=60, capture_output=True)
        spans.append((t0, time.perf_counter()))


# ---------------------------------------------------------------------------
# Combining passes


def outcome_of(record):
    import workloads

    return workloads.Outcome(**{f.name: record[f.name]
                                for f in dataclasses.fields(workloads.Outcome)})


def combine(per_pass):
    """One outcome for an instance run in several passes: failed or wrong
    if any pass was, and wrong if the passes disagree."""
    first = per_pass[0]
    if any(o.verdict != first.verdict for o in per_pass):
        return type(first)("differs between passes: " + " / ".join(o.verdict for o in per_pass),
                           decided=False, failed=True, wrong=True)
    return type(first)(first.verdict, decided=all(o.decided for o in per_pass),
                       failed=any(o.failed for o in per_pass),
                       wrong=any(o.wrong for o in per_pass),
                       known=all(o.known or not o.failed for o in per_pass),
                       note="; ".join(sorted({o.note for o in per_pass if o.note})))


def combine_passes(passes):
    """Per instance: the records of every pass and their combined outcome."""
    keys = [[r["key"] for r in p["instances"]] for p in passes]
    if any(k != keys[0] for k in keys):
        raise RuntimeError("passes ran different instances")
    records = list(zip(*(p["instances"] for p in passes)))
    return records, [combine([outcome_of(r) for r in rs]) for rs in records]


def is_correct(outcomes) -> bool:
    """No wrong answer, and no failure other than a documented defect."""
    return not any(o.wrong or (o.failed and not o.known) for o in outcomes)


def verdict_digest(records, outcomes) -> str:
    text = "\n".join(f"{rs[0]['key']} {o.verdict}" for rs, o in zip(records, outcomes))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def tail(times):
    """Highest percentile with at least ten samples above it (nearest rank)."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def report(records, outcomes):
    failed = sum(o.failed for o in outcomes)
    n = len(outcomes)
    print(f"# failed_frac {failed / n:.4f} ({failed} of {n}, "
          f"{sum(o.failed and o.known for o in outcomes)} of them documented defects); "
          f"verdicts {verdict_digest(records, outcomes)}")
    shown = [o for o in outcomes if o.failed or o.verdict.startswith("differs")][:12]
    for o in shown:
        print(f"# failed{' (documented defect)' if o.known else ''}: {o.note or o.verdict}")
    return failed


# ---------------------------------------------------------------------------


def timed_run(args):
    """The instances of ``--seconds`` worth of rounds, run ``passes`` times
    in the same order, each pass in a fresh process; an instance's time is
    its fastest pass (cli runs two, the others one)."""
    import workloads

    measure_setup([], 1)  # byte-code caches
    cls = workloads.WORKLOADS[args.workload]
    count = max(1, round(args.seconds / (cls.passes * cls.round_s)))
    passes = [spawn_pass(args, count, 0, k, SETUP_SPAWNS // cls.passes)
              for k in range(cls.passes)]
    setup_times = [t for p in passes for t in p["setup_times"]]
    records, outcomes = combine_passes(passes)

    times = [min(r["dt"] for r in rs) for rs in records]
    raw = [min(r["raw_dt"] for r in rs) for rs in records]
    n = len(times)
    busy = sum(times)
    tail_value, tail_pct = tail(times)
    print(f"# verdict_tail_s is p{tail_pct:.1f} of {n} samples; {count} rounds, "
          f"{cls.passes} passes, {busy:.2f} s of instance time in the fastest passes")
    raw_setup = [t for p in passes for t in p["raw_setup_times"]]
    print(f"# times are scaled to the reference speed (speed.py); measured: p50 "
          f"{statistics.median(raw):.6f} s, tail {tail(raw)[0]:.6f} s, throughput "
          f"{n / sum(raw):.4f} 1/s, setup {statistics.median(raw_setup):.6f} s; "
          f"scaled/measured {busy / sum(raw):.4f}")
    failed = report(records, outcomes)
    metrics = {
        "verdict_p50_s": statistics.median(times),
        "verdict_tail_s": tail_value,
        "throughput_per_s": n / busy,
        "decided_frac": sum(o.decided for o in outcomes) / n,
        "ok_frac": 1.0 - failed / n,
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
        "setup_s": statistics.median(setup_times),
    }
    units = dict(END_TO_END)
    return passes[0]["env"], {
        "correct": is_correct(outcomes),
        "attempted": n,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def traced_run(args):
    """A fixed number of rounds, untraced and then traced, each in a fresh
    process; the difference of the two walls is the tracing overhead."""
    import workloads

    rounds = workloads.WORKLOADS[args.workload].trace_rounds
    plain = spawn_pass(args, rounds, 0, "plain")
    traced = spawn_pass(args, rounds, 1, "traced")
    records, outcomes = combine_passes([plain, traced])
    plain_wall = sum(r["dt"] for r in plain["instances"])
    traced_wall = sum(r["dt"] for r in traced["instances"])
    print(f"# traced {len(records)} instances, untraced then traced; spans in "
          f"{(WORK / 'traces').relative_to(ROOT)}")
    failed = report(records, outcomes)

    stats = traced["stats"]
    child = stats.pop("cli.child", None)
    flat = {}
    for name, entry in stats.items():
        flat[f"{name}.calls"] = entry["calls"]
        flat[f"{name}.self_s"] = entry["self_s"]
        flat[f"{name}.yes"] = entry["yes"]
    if child is not None:
        flat["cli.startup.self_s"] = traced_wall - child["total_s"]
    if args.workload == "cli":
        for r in plain["instances"]:
            key = f"cli.{r['family']}.total_s"
            flat[key] = flat.get(key, 0.0) + r["dt"]
    for name, (num, den, _) in RATIOS.items():
        flat[name] = flat.get(num, 0) / flat[den] if flat.get(den) else 0.0
    self_total = sum(v for k, v in flat.items() if k.endswith(".self_s"))
    flat.update({
        "trace.wall_s": traced_wall, "trace.untraced_wall_s": plain_wall,
        "trace.overhead_s": traced_wall - plain_wall, "trace.self_total_s": self_total,
        "trace.accounted_frac": self_total / traced_wall,
    })
    metrics = {name: {"value": flat.get(name, 0), "unit": unit}
               for name, unit, _ in per_layer_spec()}
    return traced["env"], {
        "correct": is_correct(outcomes),
        "attempted": len(records),
        "failed": failed,
        "metrics": metrics,
    }


# ---------------------------------------------------------------------------


def selfcheck(seconds) -> int:
    """Same seed twice under tracing: identical verdicts and calls counts.
    Then an untraced smoke run of every workload on a held-out seed."""
    import workloads

    def run(workload, seed, trace, secs):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
             "--seconds", str(secs), "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return None, proc.stdout + proc.stderr
        digest = next((ln.split("verdicts ")[1].split(";")[0] for ln in lines
                       if "verdicts " in ln), "")
        return json.loads(lines[-1]), digest

    ok = True
    for name in workloads.WORKLOADS:
        first, d1 = run(name, 7, 1, seconds)
        second, d2 = run(name, 7, 1, seconds)
        if first is None or second is None:
            print(f"{name}: traced run failed\n{d1 if first is None else d2}")
            ok = False
            continue
        calls = {k: v["value"] for k, v in first["metrics"].items() if k.endswith(".calls")}
        calls2 = {k: v["value"] for k, v in second["metrics"].items() if k.endswith(".calls")}
        same = d1 == d2 and calls == calls2
        print(f"{name}: traced twice with seed 7: verdicts {d1} / {d2}, "
              f"{sum(1 for v in calls.values() if v)} nonzero calls counts, "
              f"{'identical' if same else 'DIFFERENT'}; correct {first['correct']}")
        smoke, _ = run(name, HELD_OUT_SEED, 0, seconds)
        smoke_ok = smoke is not None and smoke["correct"]
        print(f"{name}: held-out seed {HELD_OUT_SEED}: "
              + (f"correct {smoke['correct']}, {smoke['failed']} of {smoke['attempted']} failed"
                 if smoke else "run failed"))
        ok = ok and same and first["correct"] and smoke_ok
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("bounds", "search", "certify", "cli"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true",
                        help="determinism and held-out-seed checks over every workload")
    parser.add_argument("--rounds", type=int, help=argparse.SUPPRESS)  # of a pass process
    parser.add_argument("--setup-spawns", type=int, default=0, help=argparse.SUPPRESS)
    parser.add_argument("--pass-out", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    os.environ["OPENBLAS_NUM_THREADS"] = "1"  # inherited by every process started below
    if not (SRC / "signrank" / "__init__.py").is_file():
        print(f"error: no signrank package under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    if args.selfcheck:
        return selfcheck(args.seconds)
    if args.workload is None:
        parser.error("--workload is required")
    if args.pass_out:
        run_pass(args)
        return 0
    WORK.mkdir(exist_ok=True)
    env, result = (traced_run if args.trace else timed_run)(args)
    env.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace)
    print("# env " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
