"""Acceptance suite.

One test per criterion, in order; every check is exact unless the criterion
itself is about wall-clock scaling.  Each test prints a single PASS/FAIL line
(visible with pytest -s or on failure).
"""

import math
import random
import time
from fractions import Fraction as F

from simplexvol import (
    PointSet,
    check_projection_volume_identity,
    distinct_volumes,
    gen_distinct_volume_lines,
    gen_min_ksimplex_lines,
    gen_min_tetra_prism,
    gen_random_rational,
    min_area_triangles,
    min_volume_simplices,
    min_volume_tetrahedra,
    plane_key,
    squared_distance_point_plane,
    verify_charging,
)
from simplexvol.cli import _loglog_slope
from simplexvol.duality import point_to_plane, plane_to_point
from helpers import random_spanning


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num:2d}] {status} {name}{suffix}")
    assert ok, f"criterion {num} failed: {name}{suffix}"


def _assert_four_fold_and_empty_slabs(ps, report):
    assert report.sum_face_products == 4 * report.count
    assert len(report.witnesses) == report.count
    for tet in report.witnesses:
        for skip in tet:
            face = tuple(x for x in tet if x != skip)
            key = plane_key(ps, face)
            gap = squared_distance_point_plane(ps.points[skip], key)
            side = key.side_of(ps.points[skip])
            for p in ps.points:
                if key.side_of(p) == side:
                    d = squared_distance_point_plane(p, key)
                    assert not (0 < d < gap), (tet, face)


def test_criterion_1_oracle_equivalence_min_volume_3d():
    checked = 0
    for seed in range(100):
        n = 5 + (seed * 7) % 21
        ps = random_spanning(n, 3, seed=seed, bound=8)
        report = min_volume_tetrahedra(ps)
        oracle = min_volume_simplices(ps, 3)
        assert report.min_volume_sq == oracle.min_squared_volume
        assert report.count == oracle.count
        assert report.witnesses == oracle.witnesses
        if seed % 10 == 0:
            _assert_four_fold_and_empty_slabs(ps, report)
        checked += 1
    _report(1, "3D oracle equivalence", checked == 100, f"{checked} seeded sets")


def test_criterion_2_oracle_equivalence_min_area_2d():
    checked = 0
    for seed in range(200):
        n = 5 + (seed * 11) % 36
        ps = random_spanning(n, 2, seed=10_000 + seed, bound=9)
        report = min_area_triangles(ps)
        oracle = min_volume_simplices(ps, 2)
        assert report.min_area_sq == oracle.min_squared_volume
        assert report.count == oracle.count
        assert report.witnesses == oracle.witnesses
        assert report.sum_side_products == 3 * report.count
        checked += 1
    _report(2, "2D oracle equivalence", checked == 200, f"{checked} seeded sets")


def test_criterion_3_prism_counts():
    for n in (8, 12, 16):
        eps = F(1, n * n)
        out = gen_min_tetra_prism(n, eps)
        expected_count = 12 * (n // 4 - 1) * (n // 4) ** 2
        report = min_volume_tetrahedra(out.points)
        assert report.min_volume == eps / 3, n
        assert report.count == expected_count, n
        _assert_four_fold_and_empty_slabs(out.points, report)
        if n in (8, 12):
            oracle = min_volume_simplices(out.points, 3)
            assert oracle.min_squared_volume == (eps / 3) ** 2
            assert oracle.count == expected_count
            assert report.witnesses == oracle.witnesses
    _report(3, "prism construction counts", True, "n=8,12,16 -> 48,216,576")


def test_criterion_4_klines_counts():
    cases = [(6, 2, 2), (6, 2, 3), (9, 3, 3), (8, 2, 4), (8, 4, 4)]
    for n, k, d in cases:
        out = gen_min_ksimplex_lines(n, k, d, F(1, 8))
        formula = k * (n // k - 1) * (n // k) ** (k - 1)
        result = min_volume_simplices(out.points, k)
        assert result.count == formula, (n, k, d)
        assert result.min_squared_volume == out.expected["min_squared_volume"]
    _report(4, "k-lines construction counts", True, f"{len(cases)} configurations")


def test_criterion_5_distinct_volume_construction():
    for d in (2, 3):
        for n in range(max(4, d + 1), 22):
            out = gen_distinct_volume_lines(n, d)
            got = distinct_volumes(out.points).count
            assert got == (n - 1) // d, (n, d, got)
    _report(5, "distinct-volume construction", True, "d in {2,3}, 4 <= n <= 21")


def test_criterion_6_charging_bounds():
    worst_face = worst_side = 0
    for seed in range(100):
        n = 6 + (seed * 5) % 15
        ps = random_spanning(n, 3, seed=20_000 + seed, bound=8)
        oracle = min_volume_simplices(ps, 3)
        assert oracle.count <= 4 * math.comb(n, 3)
        check = verify_charging(ps, witnesses=oracle.witnesses)
        assert check.max_per_face <= 4
        assert check.max_per_face_side <= 2
        worst_face = max(worst_face, check.max_per_face)
        worst_side = max(worst_side, check.max_per_face_side)
    _report(6, "charging bounds", True,
            f"observed maxima: {worst_face}/face, {worst_side}/side")


def test_criterion_7_duality_properties():
    rng = random.Random(424242)

    def pt():
        return tuple(F(rng.randint(-90, 90), rng.randint(1, 12)) for _ in range(3))

    for _ in range(1000):
        p, q = pt(), pt()
        assert plane_to_point(point_to_plane(p)) == p                    # involution
        hp, hq = point_to_plane(p), point_to_plane(q)
        assert hq.contains(p) == hp.contains(q)                          # incidence
        assert hq.vertical_offset(p) == hp.vertical_offset(q)            # side + gap
    _report(7, "duality properties", True, "1000 instances each")


def test_criterion_8_four_fold_and_slab_emptiness():
    # every reporter input of criteria 1 and 3, re-run and fully checked
    for seed in range(100):
        n = 5 + (seed * 7) % 21
        ps = random_spanning(n, 3, seed=seed, bound=8)
        _assert_four_fold_and_empty_slabs(ps, min_volume_tetrahedra(ps))
    for n in (8, 12, 16):
        out = gen_min_tetra_prism(n)
        _assert_four_fold_and_empty_slabs(out.points, min_volume_tetrahedra(out.points))
    _report(8, "four-fold accounting and slab emptiness", True,
            "100 random sets + prisms 8,12,16")


def test_criterion_9_projection_identity():
    rng = random.Random(31337)
    checked = 0
    for _ in range(1000):
        rows = set()
        while len(rows) < 4:
            rows.add(tuple(F(rng.randint(-60, 60), rng.randint(1, 8))
                           for _ in range(3)))
        ps = PointSet(sorted(rows))
        assert check_projection_volume_identity(ps, 0, 1, 2, 3)
        checked += 1
    _report(9, "projection volume identity", checked == 1000, "1000 quadruples")


def test_criterion_10_scaling_benchmark():
    sizes = [64, 128, 256]
    seconds = []
    for n in sizes:
        ps = gen_min_tetra_prism(n).points
        start = time.perf_counter()
        report = min_volume_tetrahedra(ps, witnesses=False)
        seconds.append(time.perf_counter() - start)
        assert report.count == 12 * (n // 4 - 1) * (n // 4) ** 2
    slope = _loglog_slope(sizes, seconds)
    times = ", ".join(f"n={n}: {t:.2f}s" for n, t in zip(sizes, seconds))
    _report(10, "scaling benchmark", slope <= 3.6,
            f"log-log slope {slope:.2f} ({times})")


def test_criterion_11_distinct_volume_diagnostic():
    # Non-failing diagnostic: fewer distinct volumes than floor((n-1)/3) on a
    # spanning set would be a conjecture-relevant finding; log it loudly.
    findings = []
    for seed in range(25):
        n = 5 + seed % 11
        ps = random_spanning(n, 3, seed=30_000 + seed, bound=7)
        got = distinct_volumes(ps).count
        if got < (n - 1) // 3:
            findings.append((seed, n, got))
    if findings:
        print("[criterion 11] NOTE conjecture-relevant findings "
              f"(distinct volumes below floor((n-1)/3)): {findings}")
    _report(11, "distinct-volume diagnostic", True,
            f"{len(findings)} findings in 25 sets (informational)")


def test_criterion_12_general_position_scaling():
    # random3d of `simplexvol bench`: every direction spans one plane, best of 2
    sizes = [40, 80, 160]
    seconds = []
    for n in sizes:
        ps = gen_random_rational(n, 3, seed=0, bound=1000)
        best = math.inf
        for _ in range(2):
            start = time.perf_counter()
            report = min_volume_tetrahedra(ps, witnesses=False)
            best = min(best, time.perf_counter() - start)
        seconds.append(best)
        assert report.count >= 1
    slope = _loglog_slope(sizes, seconds)
    times = ", ".join(f"n={n}: {t:.2f}s" for n, t in zip(sizes, seconds))
    _report(12, "general-position scaling", slope <= 3.4,
            f"log-log slope {slope:.2f} ({times})")
