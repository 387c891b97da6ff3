"""Command-line surface: generators, reporters, oracle diffing and the
scaling benchmark.

Reports are JSON documents on stdout with every numeric result serialized as
an exact rational string; wall-clock timings are the only floating-point
fields.  Exit codes: 0 success, 2 usage or constraint error, 3 degenerate
input, 4 verification failed (oracle mismatch or charging bound exceeded).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import inspect
import json
import math
import os
import statistics
import sys
import time

from . import bruteforce
from .charging import ChargingBoundExceeded, verify_charging
from .constructions import FAMILIES, gen_lattice_slab3d, gen_min_tetra_prism, gen_random_rational
from .distinct import best_common_face
from .exact import AllDegenerate, DegenerateInput, PointSet, _scalar
from .pointfile import content_digest, load_point_file, write_point_file
from .reporter import _gc_paused, _minimal, _rows, min_area_triangles, min_volume_tetrahedra

SCHEMA_VERSION = 3
ORACLE_SIZE_LIMIT = 30  # points; the brute force is ~n^4 (n^3 in 2D) and is refused above
SUBSET_LIMIT = 10 ** 6  # subsets; count and distinct refuse a brute force that visits more
# The package reads no environment variable; perfbench/bench.py still clears
# this former thread-count setting before it runs, so the name stays.
THREADS_ENV = "SIMPLEXVOL_THREADS"


def _emit(report: dict, contributing: str | None = None) -> None:
    """Print report as one compact line of JSON with sorted keys (without
    indent, json runs its C encoder).  contributing, when given, is the JSON
    text of the records under report["results"]["contributing"]; the line
    is written in pieces around it, so no string holds the whole document."""
    if contributing is None:
        print(json.dumps(report, sort_keys=True))
        return
    # a lone NUL encodes as "\u0000", which no other value of a report holds
    report["results"]["contributing"] = "\0"
    head, tail = json.dumps(report, sort_keys=True).split('"\\u0000"')
    print(head, contributing, tail, sep="")


def _document(command: str, ps: PointSet | None, parameters: dict,
              results: dict, elapsed: float) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "input_digest": content_digest(ps) if ps is not None else None,
        "parameters": parameters,
        "results": results,
        "timing_seconds": elapsed,
    }


def _contributing_json(pts, idx, tied, scale) -> str:
    """The contributing records of min_volume_tetrahedra as JSON text, the
    array that json.dumps(records, sort_keys=True) writes, formatted from
    the reporter's per-plane rows with no record objects: pts are the solved
    sites, idx[s] the input indices at site s and tied the tied site
    simplices.  In key order a record's side fields (dist_sq,
    nearest_count, side) fall among its plane's, so each row formats its
    plane's fields once, as the two pieces of text between the side fields,
    and each side is one f-string of its fields and those pieces."""

    def exact(num, den):
        g = math.gcd(num, den)  # den > 0: the string of Fraction(num, den)
        return str(num // g) if g == den else f"{num // g}/{den // g}"

    records = []
    for (_, ((n0, n1, n2), offset), _, _, n_points, n_facets, n_lines, measure, dist_den,
         sides) in _rows(pts, idx, tied, scale):
        counts = (f'", "min_area_count": {n_facets}, "min_area_sq": "{exact(*measure)}", '
                  f'"n_lines": {n_lines}, "n_points": {n_points}, "nearest_count": ')
        plane = f', "plane": {{"normal": [{n0}, {n1}, {n2}], "offset": {offset}}}, "side": "'
        for above, _, nearest, dt_sq in sides:
            records.append(f'{{"dist_sq": "{exact(dt_sq, dist_den)}{counts}{nearest}{plane}'
                           f'{"above" if above else "below"}"}}')
    return f"[{', '.join(records)}]"


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen(args) -> int:
    family = args.family
    builder = FAMILIES[family]
    takes = inspect.signature(builder).parameters  # n and the family's own flags
    kwargs = {"n": args.n}
    for name in ("k", "d", "epsilon", "seed", "bound"):
        value = getattr(args, name)
        if name in takes and value is not None:
            kwargs[name] = _scalar(value) if name == "epsilon" else value
        elif name in takes and takes[name].default is inspect.Parameter.empty:
            raise ValueError(f"{family} needs --{name}")
        elif value is not None:
            raise ValueError(f"{family} takes no --{name}")
    out = builder(**kwargs)
    if isinstance(out, PointSet):
        points, expected = out, {}
    else:
        points, expected = out.points, out.expected
    call = inspect.signature(builder).bind(**kwargs)
    call.apply_defaults()  # the header records the builder's defaults too
    comments = [f"family {family}"] + [f"{name} {value}" for name, value
                                       in call.arguments.items() if value is not None]
    for name, value in expected.items():
        comments.append(f"expected_{name} {value}")
    write_point_file(args.out, points, comments)
    return 0


def _oracle_budget(ps: PointSet) -> None:
    """Refuse the brute-force oracle, which visits all C(n, d + 1) subsets,
    above ORACLE_SIZE_LIMIT points."""
    if len(ps) > ORACLE_SIZE_LIMIT:
        raise ValueError(f"refusing brute-force oracle on {len(ps)} points "
                         f"(limit {ORACLE_SIZE_LIMIT})")


def _subset_budget(ps: PointSet, size: int) -> None:
    """Refuse a brute force over all C(n, size) subsets of ps above
    SUBSET_LIMIT subsets."""
    subsets = math.comb(len(ps), size)
    if subsets > SUBSET_LIMIT:
        raise ValueError(f"refusing brute force over C({len(ps)}, {size}) = {subsets} "
                         f"subsets (limit {SUBSET_LIMIT})")


# dimension -> the result keys of the minimum, of the sum of the facet
# products and of the number of hyperplanes; the first and last are also
# the names of the library report's fields
_KEYS = {3: ("min_volume", "sum_face_products", "n_planes"),
         2: ("min_area", "sum_side_products", "n_lines")}


def cmd_minvol(args) -> int:
    return _minimal_command(args, 3)


def cmd_minarea(args) -> int:
    return _minimal_command(args, 2)


def _minimal_command(args, dim: int) -> int:
    ps = load_point_file(args.input)
    if ps.dim != dim:
        raise ValueError(f"{args.command} needs a {dim}D point file, got dim {ps.dim}")
    if args.oracle:
        _oracle_budget(ps)
    witness_run = args.report_witnesses or args.oracle or args.check_charging
    # A witness run keeps the cyclic garbage collector paused, as the
    # library's witness build does, over the solve, the oracle, the charging
    # check and the JSON encoding, which all run while the witness list is
    # alive.  They run in _solve, whose objects are freed when it returns,
    # so no deferred collection walks them once the collector resumes.
    with _gc_paused() if witness_run else contextlib.nullcontext():
        return _solve(ps, args, dim, witness_run)


def _solve(ps, args, dim: int, witness_run) -> int:
    minimum, products, flats = _KEYS[dim]
    start = time.perf_counter()
    # Runs without witnesses call the public reporter, the name through which
    # perfbench traces the reporter; witness runs build the contributing
    # records only when minvol prints them, and then straight as JSON.
    contributing = None
    if witness_run:
        value, count, n_flats, wit, solved = _minimal(ps, dim, True)
        if args.report_witnesses and dim == 3:
            contributing = _contributing_json(*solved)
    else:
        report = (min_volume_tetrahedra if dim == 3 else min_area_triangles)(ps, witnesses=False)
        value, count, n_flats = getattr(report, minimum), report.count, getattr(report, flats)
    elapsed = time.perf_counter() - start
    results = {
        minimum: str(value),
        f"{minimum}_sq": str(value * value),
        "count": count,
        products: (dim + 1) * count,
        flats: n_flats,
    }
    if args.report_witnesses:
        results["witnesses"] = wit  # tuples encode as JSON arrays
    if args.oracle:  # compare the minimum, count and witnesses with the brute force
        oracle = bruteforce.min_volume_simplices(ps, dim)
        results["oracle"] = {
            "match": (value * value == oracle.min_squared_volume and count == oracle.count
                      and tuple(wit) == tuple(oracle.witnesses)),
            "min_squared_volume": str(oracle.min_squared_volume),
            "count": oracle.count,
        }
    parameters = {"oracle": args.oracle, "report_witnesses": args.report_witnesses}
    if dim == 3:
        parameters["check_charging"] = args.check_charging
        if args.check_charging:
            check = verify_charging(ps, witnesses=wit)
            results["charging"] = {
                "max_per_face": check.max_per_face,
                "max_per_face_side": check.max_per_face_side,
                "n_witnesses": check.n_witnesses,
            }
    _emit(_document(args.command, ps, parameters, results, elapsed), contributing)
    return 4 if args.oracle and not results["oracle"]["match"] else 0


def cmd_distinct(args) -> int:
    ps = load_point_file(args.input)
    _subset_budget(ps, ps.dim + 1)
    start = time.perf_counter()
    report = bruteforce.distinct_volumes(ps)
    results = {
        "distinct_count": report.count,
        "distinct_volumes": [str(v) for v in report.distinct_values],
    }
    if args.common_face:
        face = best_common_face(ps, mode=args.common_face)
        results["common_face"] = {
            "face": list(face.face),
            "distinct_count": face.distinct_count,
            "volumes": [str(v) for v in face.volumes],
            "mode": face.mode,
        }
    elapsed = time.perf_counter() - start
    _emit(_document("distinct", ps, {"common_face": args.common_face},
                    results, elapsed))
    return 0


def cmd_count(args) -> int:
    ps = load_point_file(args.input)
    k = args.k if args.k is not None else ps.dim
    target = _scalar(args.volume)
    if 1 <= k <= ps.dim:  # bruteforce refuses any other k
        _subset_budget(ps, k + 1)
    start = time.perf_counter()
    report = bruteforce.count_simplices_with_volume(ps, target, k)
    elapsed = time.perf_counter() - start
    _emit(_document("count", ps, {
        "volume": str(target),
        "k": k,
        "comparison": "volume" if k == ps.dim else "squared volume",
    }, {"count": report.count}, elapsed))
    return 0


# family -> (points of size n, fast reporter, dimension); --witnesses times
# the witness path on any of them
BENCH_FAMILIES = {
    "prism3d": (lambda n: gen_min_tetra_prism(n).points, min_volume_tetrahedra, 3),
    "random3d": (lambda n: gen_random_rational(n, 3, seed=0, bound=1000),
                 min_volume_tetrahedra, 3),
    "random2d": (lambda n: gen_random_rational(n, 2, seed=0, bound=10 ** 4),
                 min_area_triangles, 2),
    "lattice_slab3d": (gen_lattice_slab3d, min_volume_tetrahedra, 3),
}


def cmd_bench(args) -> int:
    sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    if not sizes:
        raise ValueError("empty size list")
    if args.family not in BENCH_FAMILIES:
        raise ValueError(f"unsupported benchmark family {args.family!r}")
    build, reporter, dim = BENCH_FAMILIES[args.family]
    if min(sizes) <= dim:
        raise ValueError(f"size {min(sizes)} cannot span a {dim}-simplex, "
                         f"which needs {dim + 1} points")
    if args.repeat < 1:
        raise ValueError(f"--repeat must be at least 1, got {args.repeat}")
    seconds = []
    oracle_seconds = []
    counts = []
    for n in sizes:
        ps = build(n)
        runs = []
        for _ in range(args.repeat):
            start = time.perf_counter()
            report = reporter(ps, witnesses=args.witnesses)
            runs.append(time.perf_counter() - start)
        seconds.append(min(runs))
        counts.append(report.count)
        if args.with_oracle:
            if n > ORACLE_SIZE_LIMIT:
                print(f"warning: refusing brute-force oracle at n={n} "
                      f"(limit {ORACLE_SIZE_LIMIT})", file=sys.stderr)
                oracle_seconds.append(None)
            else:
                start = time.perf_counter()
                bruteforce.min_volume_simplices(ps, dim)
                oracle_seconds.append(time.perf_counter() - start)
        else:
            oracle_seconds.append(None)
    slope = _loglog_slope(sizes, seconds) if len(set(sizes)) >= 2 else None
    results = {
        "sizes": sizes,
        "seconds": seconds,
        "oracle_seconds": oracle_seconds,
        "counts": counts,
        "loglog_slope": slope,
    }
    doc = _document("bench", None, {
        "family": args.family,
        "repeat": args.repeat,
        "witnesses": args.witnesses,
    }, results, sum(seconds))
    doc["environment"] = {
        "python": "{}.{}.{}".format(*sys.version_info),
        "cpu_count": os.cpu_count(),
        "git_revision": _git_revision(),
    }
    _emit(doc)
    return 0


def _git_revision(where: str = os.path.dirname(__file__)) -> str | None:
    """The full hash of the commit checked out at where (by default, where
    this package lives), suffixed -dirty when the tree has uncommitted edits
    or untracked files that .gitignore does not cover, or None outside a git
    checkout, before its first commit or without git."""
    import subprocess  # here, as only bench starts a process: saves start-up time

    try:
        done = subprocess.run(
            ["git", "--no-optional-locks", "status", "--porcelain=v2", "--branch",
             "--untracked-files=normal"],
            cwd=where, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = done.stdout.splitlines()
    head = next((line.split()[2] for line in lines if line.startswith("# branch.oid ")), None)
    if done.returncode != 0 or head in (None, "(initial)"):
        return None
    # header lines start with "#"; every other line is a changed or untracked path
    return head + "-dirty" if any(not line.startswith("#") for line in lines) else head


def _loglog_slope(sizes, seconds) -> float:
    xs = [math.log(n) for n in sizes]
    ys = [math.log(max(t, 1e-9)) for t in seconds]
    return statistics.linear_regression(xs, ys).slope


# ---------------------------------------------------------------------------
# argument parsing


@functools.cache  # built on the first main call, then shared by later calls
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simplexvol",
        description="Exact enumeration of extremal simplices in point sets.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate an extremal construction")
    gen.add_argument("--family", required=True, choices=sorted(FAMILIES))
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--k", type=int)
    gen.add_argument("--d", type=int)
    gen.add_argument("--epsilon", help="exact rational, e.g. 1/64")
    gen.add_argument("--seed", type=int, help="random_rational only (default 0)")
    gen.add_argument("--bound", type=int, help="random_rational only (default 10)")
    gen.add_argument("--out", required=True)
    gen.set_defaults(handler=cmd_gen)

    minvol = sub.add_parser("minvol", help="report all minimum-volume tetrahedra")
    minvol.add_argument("input")
    minvol.add_argument("--oracle", action="store_true",
                        help="cross-check against the brute-force scan")
    minvol.add_argument("--report-witnesses", action="store_true")
    minvol.add_argument("--check-charging", action="store_true")
    minvol.set_defaults(handler=cmd_minvol)

    minarea = sub.add_parser("minarea", help="report all minimum-area triangles")
    minarea.add_argument("input")
    minarea.add_argument("--oracle", action="store_true")
    minarea.add_argument("--report-witnesses", action="store_true")
    minarea.set_defaults(handler=cmd_minarea, check_charging=False)

    distinct = sub.add_parser("distinct", help="count distinct simplex volumes")
    distinct.add_argument("input")
    distinct.add_argument("--common-face", choices=["exhaustive", "heuristic"])
    distinct.set_defaults(handler=cmd_distinct)

    count = sub.add_parser("count", help="count simplices of a target volume")
    count.add_argument("input")
    count.add_argument("--volume", required=True,
                       help="exact rational target; squared volume when k < d")
    count.add_argument("--k", type=int)
    count.set_defaults(handler=cmd_count)

    bench = sub.add_parser("bench", help="scaling benchmark of the fast path")
    bench.add_argument("--family", default="prism3d")
    bench.add_argument("--sizes", required=True, help="comma-separated, e.g. 64,128,256")
    bench.add_argument("--repeat", type=int, default=1)
    bench.add_argument("--with-oracle", action="store_true")
    bench.add_argument("--witnesses", action="store_true",
                       help="time the witness path: witness list and contributing records")
    bench.set_defaults(handler=cmd_bench)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ChargingBoundExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (AllDegenerate, DegenerateInput) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError, TypeError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
