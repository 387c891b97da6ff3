"""Closed-loop runner, reference checks and metrics of the simplexvol
benchmark; perfbench/run.py is the entry point."""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from simplexvol import cli
from simplexvol.pointfile import write_point_file

from refclock import REFERENCE_S, ReferenceClock
from tracing import Tracer, reporter_peak_alloc
from workloads import WORKLOADS, check

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
OUT = HERE / "out"

DEFAULT_SEED = 1
# Never used while a change is written; a claimed gain is re-checked on it.
HELD_OUT_SEED = 7103810
SETUP_REPEATS = 9  # set-ups timed per run, each in a fresh interpreter
TAIL_BEYOND = 10  # the tail percentile keeps at least this many solves above it
# Counters come from the first traced solves, one per pool input, so they
# repeat exactly for a seed however many solves fit in the time.
COUNTED_SOLVES = 8
WARMUP_N = {"prism": 8, "random": 12}

# Metric names, units and bounds are declared once, in the manifest.
MANIFEST = json.loads((REPO / "BENCHMARK.json").read_text())


def units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in MANIFEST[section]}


def parse_args(argv):
    parser = argparse.ArgumentParser(description="Benchmark of the simplexvol command line.")
    parser.add_argument("--workload", required=True,
                        help="prism3d, random3d, random2d, verify3d, or all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed (default {DEFAULT_SEED}; "
                             f"held out for claim re-checks: {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Set up the workload's inputs in DIR and exit; used to time set-up.
    parser.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# one solve


def solve(argv, root=None) -> dict:
    """cli.main on one point file, timed from argv to the JSON document on
    captured stdout.  root, when given, calls cli.main as a traced span."""
    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = root(cli.main, argv) if root else cli.main(argv)
    except SystemExit as exc:  # argparse rejects bad argv this way
        code = exc.code
    except Exception as exc:  # a raising solve is a failed solve; the loop goes on
        return {"seconds": time.perf_counter() - start,
                "error": f"{type(exc).__name__}: {exc}"}
    seconds = time.perf_counter() - start
    outcome = {"seconds": seconds, "exit_code": code}
    if code not in (0, 4):
        return outcome
    try:
        results = json.loads(out.getvalue())["results"]
    except (ValueError, KeyError) as exc:
        outcome["error"] = f"unreadable report: {exc}"
        return outcome
    outcome.update(
        sq=results.get("min_volume_sq", results.get("min_area_sq")),
        count=results.get("count"),
        bases=results.get("n_planes", results.get("n_lines", 0)),
        witnesses=len(results.get("witnesses", ())),
        contributing=len(results.get("contributing", ())),
        oracle_match=results.get("oracle", {}).get("match"),
    )
    if "charging" in results:
        outcome["charging"] = (results["charging"]["max_per_face"],
                               results["charging"]["max_per_face_side"])
    return outcome


def argv_for(workload, path) -> list[str]:
    return [workload.argv[0], str(path), *workload.argv[1:]]


def solve_input(workload, files, i, root=None) -> dict:
    outcome = solve(argv_for(workload, files[i]), root)
    outcome["input"] = i
    return outcome


def run_phase(workload, files, seconds, min_solves=1, root=None, clock=None):
    """Closed loop over the pool for at least `seconds` and `min_solves`.
    With a clock, each outcome also gets its time in reference seconds."""
    outcomes = []
    start = time.perf_counter()
    while len(outcomes) < min_solves or time.perf_counter() - start < seconds:
        outcome = solve_input(workload, files, len(outcomes) % len(files), root)
        if clock:
            outcome["ref_seconds"] = clock.scale(outcome["seconds"])
        outcomes.append(outcome)
    return outcomes


# ---------------------------------------------------------------------------
# set-up and checking


def write_pool(workload, seed, workdir, prefix=""):
    pool = workload.make_pool(seed)
    files = []
    for i, ps in enumerate(pool):
        path = workdir / f"{prefix}{i}.txt"
        write_point_file(path, ps)
        files.append(path)
    return pool, files


def setup(workload, seed, workdir):
    """Seeded pool, point files and a warm-up solve on a tiny input."""
    pool, files = write_pool(workload, seed, workdir)
    tiny = workload.with_size(WARMUP_N[workload.family], pool=1)
    _, warm = write_pool(tiny, seed, workdir, prefix="warmup-")
    solve(argv_for(tiny, warm[0]))
    return pool, files


def timed_setup(workload, seed, workdir) -> float:
    """Seconds from the start of a fresh interpreter to the end of its
    set-up: interpreter start, import of the package from source, seeded
    pool, point files and warm-up."""
    workdir.mkdir(exist_ok=True)
    start = time.perf_counter()
    subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload.name,
                    "--seed", str(seed), "--setup-only", str(workdir)],
                   check=True, stdout=subprocess.DEVNULL)  # no timeout: it would poll
    return time.perf_counter() - start


def verify(workload, pool, outcomes) -> list[str]:
    """Check every outcome against its input's reference; return the
    failures.  References are computed once per distinct input."""
    refs = {}
    failures = []
    for outcome in outcomes:
        i = outcome["input"]
        if i not in refs:
            refs[i] = workload.reference(pool[i])
        why = check(outcome, refs[i])
        if why:
            failures.append(f"{workload.name} n={workload.n} input {i}: {why}")
    return failures


# ---------------------------------------------------------------------------
# metrics


def tail(times) -> tuple[float, float]:
    """Seconds at the highest percentile with TAIL_BEYOND solves above it,
    and that percentile."""
    ordered = sorted(times)
    i = len(ordered) - TAIL_BEYOND - 1
    if i < 0:  # too few solves for any such percentile: report the slowest
        i = len(ordered) - 1
    return ordered[i], 100.0 * (i + 1) / len(ordered)


def timings(solve_times, setup_times, good) -> dict:
    return {
        "solves_per_s": good / sum(solve_times),
        "solve_s.p50": statistics.median(solve_times),
        "solve_s.tail": tail(solve_times)[0],
        "setup_s": statistics.median(setup_times),
    }


def end_to_end(outcomes, setups, failed, clock) -> tuple[dict, dict]:
    """Timings in reference seconds; the notes keep the wall-clock ones."""
    good = len(outcomes) - failed
    metrics = timings([o["ref_seconds"] for o in outcomes], [ref for ref, _ in setups], good)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    tail_pct = tail([o["seconds"] for o in outcomes])[1]
    notes = {
        "solve_s.tail": f"p{tail_pct:.1f} of {len(outcomes)} solves",
        "failed_ratio": failed / len(outcomes),
        "wall": timings([o["seconds"] for o in outcomes], [wall for _, wall in setups], good),
        "calibration_s.p50": statistics.median(clock.calibrations),
    }
    return metrics, notes


def per_layer(workload, counted, tracer, traced, untraced, peak_bytes, half, half_tracer):
    """Per-layer metrics of a traced run; counts are means over the first
    `counted` traced solves."""
    per_solve = tracer.per_solve()
    first, first_spans = traced[:counted], per_solve[:counted]

    def med(name, field=0, spans=per_solve):
        return statistics.median(s.get(name, (0.0, 0.0, 0))[field] for s in spans)

    def calls(name):
        return sum(s.get(name, (0, 0, 0))[2] for s in first_spans) / len(first_spans)

    def mean(key):
        return sum(o.get(key, 0) for o in first) / len(first)

    reporter_s = med("reporter.call")
    half_s = med("reporter.call", spans=half_tracer.per_solve())
    exponent = (math.log(reporter_s / half_s) / math.log(workload.n / half.n)
                if half.n < workload.n and half_s > 0 else 0.0)
    traced_p50 = statistics.median(o["seconds"] for o in traced)
    untraced_p50 = statistics.median(o["seconds"] for o in untraced)
    bases = mean("bases")
    return {
        "cli.self_s": med("cli.main", 1),
        "pointfile.load_point_file_s": med("pointfile.load_point_file"),
        "pointfile.content_digest_s": med("pointfile.content_digest"),
        "exact.integer_coordinates_s": med("exact.integer_coordinates"),
        "exact.primitive_vector.calls": calls("exact.primitive_vector"),
        "exact.primitive_vector_s": med("exact.primitive_vector"),
        "exact.plane_key.calls": calls("exact.plane_key"),
        "exact.plane_key_s": med("exact.plane_key"),
        "exact.line_key.calls": calls("exact.line_key"),
        "reporter.call_s": reporter_s,
        "reporter.self_s": med("reporter.call", 1),
        "reporter.bases": bases,
        "reporter.bases_per_subset": bases / math.comb(workload.n, workload.dim),
        "reporter.witnesses": mean("witnesses"),
        "reporter.contributing_pairs": mean("contributing"),
        "reporter.peak_alloc_mb": max(peak_bytes, default=0) / 2 ** 20,
        "reporter.scaling_exponent": exponent,
        "bruteforce.min_volume_simplices_s": med("bruteforce.min_volume_simplices"),
        "bruteforce.subsets": calls("bruteforce.min_volume_simplices")
                              * math.comb(workload.n, workload.dim + 1),
        "charging.verify_charging_s": med("charging.verify_charging"),
        "charging.charge_tetrahedron.calls": calls("charging.charge_tetrahedron"),
        "untraced.solve_s.p50": untraced_p50,
        "traced.solve_s.p50": traced_p50,
        "trace_overhead_ratio": traced_p50 / untraced_p50,
    }


# ---------------------------------------------------------------------------
# runs


def run_untraced(workload, seed, seconds, workdir):
    pool, files = setup(workload, seed, workdir)
    clock = ReferenceClock()
    setups = []
    for _ in range(SETUP_REPEATS):
        wall = timed_setup(workload, seed, workdir / "setup")
        setups.append((clock.scale(wall), wall))
    outcomes = run_phase(workload, files, seconds, clock=clock)
    failures = verify(workload, pool, outcomes)
    metrics, notes = end_to_end(outcomes, setups, len(failures), clock)
    return metrics, notes, len(outcomes), failures, None


def run_traced(workload, seed, seconds, workdir):
    """Untraced and traced solves in turn, then one tracemalloc solve and
    one traced pass at about n/2 for the scaling exponent."""
    pool, files = setup(workload, seed, workdir)
    counted = min(workload.pool, COUNTED_SOLVES)
    tracer = Tracer()
    untraced, traced = [], []
    start = time.perf_counter()
    # Each input is solved untraced, then traced, so a drift in the machine's
    # speed falls on both sides of trace_overhead_ratio.
    while len(traced) < counted or time.perf_counter() - start < seconds:
        i = len(traced) % len(files)
        untraced.append(solve_input(workload, files, i))
        with tracer.installed():
            traced.append(solve_input(workload, files, i, tracer.root))
    peaks: list[int] = []
    with reporter_peak_alloc(peaks):
        alloc = [solve_input(workload, files, 0)]
    half = workload.half()
    half_pool, half_files = write_pool(half, seed, workdir, prefix="half-")
    half_tracer = Tracer()
    with half_tracer.installed():
        halved = run_phase(half, half_files[:counted], 0, counted, half_tracer.root)
    outcomes = untraced + traced + alloc
    failures = verify(workload, pool, outcomes) + verify(half, half_pool, halved)
    metrics = per_layer(workload, counted, tracer, traced, untraced, peaks, half, half_tracer)
    notes = {"traced_solves": len(traced), "untraced_solves": len(untraced)}
    return metrics, notes, len(outcomes) + len(halved), failures, tracer


def git_head() -> str | None:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO, capture_output=True, text=True,
            timeout=30, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(REPO.parent)})
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is its own."""
    worst = 0
    for name in WORKLOADS:
        done = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)])
        worst = max(worst, done.returncode)
    return worst


def main(argv) -> int:
    args = parse_args(argv)
    os.environ.pop(cli.THREADS_ENV, None)  # one worker: the reporter's default
    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    if args.setup_only:
        setup(workload, args.seed, Path(args.setup_only))
        return 0
    load_before = os.getloadavg()
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        if args.trace:
            result = run_traced(workload, args.seed, args.seconds, Path(tmp))
        else:
            result = run_untraced(workload, args.seed, args.seconds, Path(tmp))
    metrics, notes, attempted, failures, tracer = result
    unit = units("per_layer" if args.trace else "end_to_end")

    stem = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    environment = {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
        "git_head": git_head(),
        "seed": args.seed,
        "workload": workload.name,
        "n": workload.n,
        "pool": workload.pool,
        "seconds": args.seconds,
        "samples": attempted,
    }
    if tracer is not None:
        tracer.write(stem.with_name(stem.name + "-spans.jsonl"))
    stem.with_suffix(".json").write_text(json.dumps({
        "environment": environment, "metrics": metrics, "notes": notes,
        "failures": failures}, indent=2) + "\n")

    print(f"{workload.name}: seed {args.seed}, n={workload.n}, pool {workload.pool}, "
          f"{attempted} solves, {len(failures)} failed")
    wall = notes.get("wall", {})
    for name, value in metrics.items():
        extra = [f"wall {wall[name]:.6f}"] if name in wall else []
        extra += [notes[name]] if name in notes else []
        print(f"  {name:36s} {value:14.6f} {unit[name]}"
              + (f"  ({'; '.join(extra)})" if extra else ""))
    if not args.trace:
        print(f"  {'failed_ratio':36s} {notes['failed_ratio']:14.6f} ratio "
              f" ({len(failures)} of {attempted})")
        print(f"  {'calibration_s.p50':36s} {notes['calibration_s.p50']:14.6f} s "
              f" (reference {REFERENCE_S} s)")
    for why in failures[:10]:
        print(f"  FAILED {why}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if not failures else 1

