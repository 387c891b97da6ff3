"""Command-line surface: generators, reporters, oracle diffing and the
scaling benchmark.

Reports are JSON documents on stdout with every numeric result serialized as
an exact rational string; wall-clock timings are the only floating-point
fields.  Exit codes: 0 success, 2 usage or constraint error, 3 degenerate
input, 4 verification failed (oracle mismatch or charging bound exceeded).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
from fractions import Fraction

from . import bruteforce
from .charging import ChargingBoundExceeded, verify_charging
from .constructions import FAMILIES, gen_lattice_slab3d, gen_min_tetra_prism, gen_random_rational
from .distinct import best_common_face
from .exact import AllDegenerate, DegenerateInput, PointSet
from .pointfile import content_digest, load_point_file, write_point_file
from .reporter import _minimal, _n_lines, _rows, min_area_triangles, min_volume_tetrahedra

SCHEMA_VERSION = 3
ORACLE_SIZE_LIMIT = 30  # brute force above this is ~n^4 and is refused
# The package reads no environment variable; perfbench/bench.py still clears
# this former thread-count setting before it runs, so the name stays.
THREADS_ENV = "SIMPLEXVOL_THREADS"


def _rat(x) -> str:
    """An int or Fraction as its exact string, "p/q" or "p"."""
    return str(x)


def _emit(report: dict) -> None:
    # one compact line: without indent, json runs its C encoder
    print(json.dumps(report, sort_keys=True))


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


def _contributing_json(pts, idx, tied, scale) -> list[dict]:
    """The contributing records of min_volume_tetrahedra as JSON objects,
    built from the reporter's rows with no record objects: pts are the
    solved sites, idx[s] the input indices at site s and tied the tied site
    simplices.  Each count sums the products of the site weights, which is
    the length of a site list when every site holds one input point, and
    each exact string is made once per distinct value."""
    weight = [len(i) for i in idx]
    single = len(weight) == sum(weight)
    area_den, dist_den = 4 * scale ** 4, scale * scale
    strings: dict[tuple[int, int], str] = {}

    def exact(num, den):
        text = strings.get((num, den))
        if text is None:
            text = strings[num, den] = _rat(Fraction(num, den))
        return text

    out = []
    hyperplane = None
    for g, t, above, on, facets, apexes, nn, dt_sq in _rows(pts, tied):
        g0, g1, g2 = g
        if hyperplane != (g, t):
            hyperplane = g, t
            # g is primitive, so (scale g, t) reduces by gcd(scale, t)
            h = math.gcd(scale, t)
            plane = {"normal": (scale * g0 // h, scale * g1 // h, scale * g2 // h),
                     "offset": t // h}
            n_points = len(on) if single else sum(map(weight.__getitem__, on))
            n_lines, area = _n_lines(pts, on), exact(nn, area_den)
            count = len(facets) if single else sum(
                [math.prod(map(weight.__getitem__, facet)) for facet in facets])
        out.append({
            "plane": plane,
            "n_points": n_points,
            "n_lines": n_lines,
            "min_area_sq": area,
            "min_area_count": count,
            "side": "above" if above else "below",
            "dist_sq": exact(dt_sq, (g0 * g0 + g1 * g1 + g2 * g2) * dist_den),
            "nearest_count": len(apexes) if single else sum(map(weight.__getitem__, apexes)),
        })
    return out


def _oracle_check(ps: PointSet, k: int, min_sq, count, witnesses) -> dict:
    """Compare a reporter's minimum, count and witnesses with the brute force."""
    oracle = bruteforce.min_volume_simplices(ps, k)
    return {
        "match": (min_sq == oracle.min_squared_volume and count == oracle.count
                  and tuple(witnesses) == tuple(oracle.witnesses)),
        "min_squared_volume": _rat(oracle.min_squared_volume),
        "count": oracle.count,
    }


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen(args) -> int:
    family = args.family
    builder = FAMILIES[family]
    kwargs = {"n": args.n}
    if family == "prism3d":
        if args.epsilon is not None:
            kwargs["epsilon"] = Fraction(args.epsilon)
    elif family == "klines":
        if args.k is None or args.d is None:
            raise ValueError("klines needs --k and --d")
        kwargs.update(k=args.k, d=args.d)
        if args.epsilon is not None:
            kwargs["epsilon"] = Fraction(args.epsilon)
    elif family == "dlines_distinct":
        if args.d is None:
            raise ValueError("dlines_distinct needs --d")
        kwargs["d"] = args.d
    elif family == "random_rational":
        if args.d is None:
            raise ValueError("random_rational needs --d")
        kwargs.update(d=args.d, seed=args.seed, bound=args.bound)
    out = builder(**kwargs)
    if isinstance(out, PointSet):
        points, expected = out, {}
    else:
        points, expected = out.points, out.expected
    comments = [f"family {family}", f"n {args.n}"]
    for name in ("k", "d", "epsilon", "seed", "bound"):
        value = kwargs.get(name)
        if value is not None:
            comments.append(f"{name} {value}")
    for name, value in expected.items():
        comments.append(f"expected_{name} {value}")
    write_point_file(args.out, points, comments)
    return 0


def cmd_minvol(args) -> int:
    ps = load_point_file(args.input)
    if ps.dim != 3:
        raise ValueError(f"minvol needs a 3D point file, got dim {ps.dim}")
    start = time.perf_counter()
    # Runs without witnesses call the public reporter, the name through which
    # perfbench traces the reporter; witness runs build the contributing
    # records only when they print them, and then straight as JSON.
    if args.report_witnesses or args.oracle or args.check_charging:
        vol, count, n_planes, wit, solved = _minimal(ps, 3, True)
        if args.report_witnesses:
            contributing = _contributing_json(*solved)
    else:
        report = min_volume_tetrahedra(ps, witnesses=False)
        vol, count, n_planes = report.min_volume, report.count, report.n_planes
    elapsed = time.perf_counter() - start
    results = {
        "min_volume": _rat(vol),
        "min_volume_sq": _rat(vol * vol),
        "count": count,
        "sum_face_products": 4 * count,
        "n_planes": n_planes,
    }
    if args.report_witnesses:
        results["witnesses"] = wit  # tuples encode as JSON arrays
        results["contributing"] = contributing
    if args.oracle:
        results["oracle"] = _oracle_check(ps, 3, vol * vol, count, wit)
    if args.check_charging:
        check = verify_charging(ps, witnesses=wit)
        results["charging"] = {
            "max_per_face": check.max_per_face,
            "max_per_face_side": check.max_per_face_side,
            "n_witnesses": check.n_witnesses,
        }
    _emit(_document("minvol", ps, {
        "oracle": args.oracle,
        "report_witnesses": args.report_witnesses,
        "check_charging": args.check_charging,
    }, results, elapsed))
    return 4 if args.oracle and not results["oracle"]["match"] else 0


def cmd_minarea(args) -> int:
    ps = load_point_file(args.input)
    if ps.dim != 2:
        raise ValueError(f"minarea needs a 2D point file, got dim {ps.dim}")
    start = time.perf_counter()
    if args.report_witnesses or args.oracle:  # as in minvol; minarea prints no records
        area, count, n_lines, wit, _ = _minimal(ps, 2, True)
    else:
        report = min_area_triangles(ps, witnesses=False)
        area, count, n_lines = report.min_area, report.count, report.n_lines
    elapsed = time.perf_counter() - start
    results = {
        "min_area": _rat(area),
        "min_area_sq": _rat(area * area),
        "count": count,
        "sum_side_products": 3 * count,
        "n_lines": n_lines,
    }
    if args.report_witnesses:
        results["witnesses"] = wit  # tuples encode as JSON arrays
    if args.oracle:
        results["oracle"] = _oracle_check(ps, 2, area * area, count, wit)
    _emit(_document("minarea", ps, {
        "oracle": args.oracle,
        "report_witnesses": args.report_witnesses,
    }, results, elapsed))
    return 4 if args.oracle and not results["oracle"]["match"] else 0


def cmd_distinct(args) -> int:
    ps = load_point_file(args.input)
    start = time.perf_counter()
    report = bruteforce.distinct_volumes(ps)
    results = {
        "distinct_count": report.count,
        "distinct_volumes": [_rat(v) for v in report.distinct_values],
    }
    if args.common_face:
        face = best_common_face(ps, mode=args.common_face)
        results["common_face"] = {
            "face": list(face.face),
            "distinct_count": face.distinct_count,
            "volumes": [_rat(v) for v in face.volumes],
            "mode": face.mode,
        }
    elapsed = time.perf_counter() - start
    _emit(_document("distinct", ps, {"common_face": args.common_face},
                    results, elapsed))
    return 0


def cmd_count(args) -> int:
    ps = load_point_file(args.input)
    k = args.k if args.k is not None else ps.dim
    target = Fraction(args.volume)
    start = time.perf_counter()
    report = bruteforce.count_simplices_with_volume(ps, target, k)
    elapsed = time.perf_counter() - start
    _emit(_document("count", ps, {
        "volume": _rat(target),
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
    seconds = []
    oracle_seconds = []
    counts = []
    for n in sizes:
        ps = build(n)
        best = None
        for _ in range(max(1, args.repeat)):
            start = time.perf_counter()
            report = reporter(ps, witnesses=args.witnesses)
            elapsed = time.perf_counter() - start
            best = elapsed if best is None else min(best, elapsed)
        seconds.append(best)
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
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    num = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    den = sum((x - mx) ** 2 for x in xs)
    return num / den


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
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--bound", type=int, default=10)
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
    minarea.set_defaults(handler=cmd_minarea)

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
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
