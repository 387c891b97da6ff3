"""Command-line surface: generators, reporters, oracle diffing and the
scaling benchmark.

Reports are JSON documents on stdout with every numeric result serialized as
an exact rational string; wall-clock timings are the only floating-point
fields.  Exit codes: 0 success, 2 usage or constraint error, 3 degenerate
input, 4 oracle mismatch.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from fractions import Fraction

from . import bruteforce
from .charging import verify_charging
from .constructions import FAMILIES, gen_min_tetra_prism, gen_random_rational
from .distinct import best_common_face
from .exact import AllDegenerate, DegenerateInput, PointSet
from .pointfile import content_digest, load_point_file, write_point_file
from .reporter import min_area_triangles, min_volume_tetrahedra

SCHEMA_VERSION = 2
ORACLE_SIZE_LIMIT = 30  # brute force above this is ~n^4 and is refused
# The package reads no environment variable; perfbench/bench.py still clears
# this former thread-count setting before it runs, so the name stays.
THREADS_ENV = "SIMPLEXVOL_THREADS"


def _rat(x) -> str:
    return str(Fraction(x))


def _emit(report: dict) -> None:
    print(json.dumps(report, indent=2, sort_keys=True))


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


def _plane_json(key) -> dict:
    return {"normal": list(key.normal), "offset": key.offset}


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
    collect = args.report_witnesses or args.oracle or args.check_charging
    start = time.perf_counter()
    report = min_volume_tetrahedra(ps, witnesses=collect)
    elapsed = time.perf_counter() - start
    results = {
        "min_volume": _rat(report.min_volume),
        "min_volume_sq": _rat(report.min_volume_sq),
        "count": report.count,
        "sum_face_products": report.sum_face_products,
        "n_planes": report.n_planes,
    }
    if args.report_witnesses:
        results["witnesses"] = [list(w) for w in report.witnesses]
        results["contributing"] = [
            {
                "plane": _plane_json(summary.key),
                "n_points": summary.n_points,
                "n_lines": summary.n_lines,
                "min_area_sq": _rat(summary.min_area_sq),
                "min_area_count": summary.count,
                "side": slab.side,
                "dist_sq": _rat(slab.dist_sq),
                "nearest_count": slab.count,
            }
            for summary, slab in report.contributing
        ]
    exit_code = 0
    if args.oracle:
        oracle = bruteforce.min_volume_simplices(ps, 3)
        match = (report.min_volume_sq == oracle.min_squared_volume
                 and report.count == oracle.count
                 and tuple(report.witnesses) == tuple(oracle.witnesses))
        results["oracle"] = {
            "match": match,
            "min_squared_volume": _rat(oracle.min_squared_volume),
            "count": oracle.count,
        }
        if not match:
            exit_code = 4
    if args.check_charging:
        check = verify_charging(ps, witnesses=report.witnesses)
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
    return exit_code


def cmd_minarea(args) -> int:
    ps = load_point_file(args.input)
    if ps.dim != 2:
        raise ValueError(f"minarea needs a 2D point file, got dim {ps.dim}")
    collect = args.report_witnesses or args.oracle
    start = time.perf_counter()
    report = min_area_triangles(ps, witnesses=collect)
    elapsed = time.perf_counter() - start
    results = {
        "min_area": _rat(report.min_area),
        "min_area_sq": _rat(report.min_area_sq),
        "count": report.count,
        "sum_side_products": report.sum_side_products,
        "n_lines": report.n_lines,
    }
    if args.report_witnesses:
        results["witnesses"] = [list(w) for w in report.witnesses]
    exit_code = 0
    if args.oracle:
        oracle = bruteforce.min_volume_simplices(ps, 2)
        match = (report.min_area_sq == oracle.min_squared_volume
                 and report.count == oracle.count
                 and tuple(report.witnesses) == tuple(oracle.witnesses))
        results["oracle"] = {
            "match": match,
            "min_squared_volume": _rat(oracle.min_squared_volume),
            "count": oracle.count,
        }
        if not match:
            exit_code = 4
    _emit(_document("minarea", ps, {
        "oracle": args.oracle,
        "report_witnesses": args.report_witnesses,
    }, results, elapsed))
    return exit_code


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


# family -> (points of size n, fast reporter, dimension)
BENCH_FAMILIES = {
    "prism3d": (lambda n: gen_min_tetra_prism(n).points, min_volume_tetrahedra, 3),
    "random2d": (lambda n: gen_random_rational(n, 2, seed=0, bound=10 ** 4),
                 min_area_triangles, 2),
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
            report = reporter(ps, witnesses=False)
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
    slope = _loglog_slope(sizes, seconds) if len(sizes) >= 2 else None
    results = {
        "sizes": sizes,
        "seconds": seconds,
        "oracle_seconds": oracle_seconds,
        "counts": counts,
        "loglog_slope": slope,
    }
    _emit(_document("bench", None, {
        "family": args.family,
        "repeat": args.repeat,
    }, results, sum(seconds)))
    return 0


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
    bench.set_defaults(handler=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (AllDegenerate, DegenerateInput) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
