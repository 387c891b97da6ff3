"""Distinct-volume analysis: projection, distinct-area search, common-face
search and the projection volume identity."""

import random
from fractions import Fraction as F
from itertools import combinations

import pytest

import simplexvol.distinct as distinct_mod
from simplexvol import (
    AllDegenerate,
    DegenerateInput,
    DimensionMismatch,
    PointSet,
    best_common_face,
    check_projection_volume_identity,
    distinct_areas_from_point,
    distinct_volumes,
    gen_distinct_volume_lines,
    hyperplane_key,
    project_orthogonal,
    signed_volume,
    squared_volume,
)
from helpers import random_spanning


class TestProjection:
    def test_axis_projection(self):
        ps = PointSet([(1, 2, 7), (0, 0, 0), (5, -3, 11)])
        proj = project_orthogonal(ps, [(0, 0, 1)])
        assert proj.points.points[0] == (1, 2)
        assert proj.points.points[2] == (5, -3)
        assert proj.area_sq_scale == 1

    def test_points_along_flat_collapse(self):
        ps = PointSet([(1, 2, 0), (1, 2, 5), (1, 2, -3)])
        proj = project_orthogonal(ps, [(0, 0, 1)])
        assert len(set(proj.points.points)) == 1

    def test_skew_direction_preserves_true_areas(self):
        ps = PointSet([(0, 0, 0), (1, 0, 1), (0, 1, 1), (2, 5, -1)])
        axis = (1, 1, 1)
        proj = project_orthogonal(ps, [axis])
        # true squared area of a projected triangle, via the scale factor
        t1, t2, t3 = proj.points.points[0], proj.points.points[1], proj.points.points[2]
        cross = (t2[0] - t1[0]) * (t3[1] - t1[1]) - (t2[1] - t1[1]) * (t3[0] - t1[0])
        area_sq = F(cross * cross, 4) * proj.area_sq_scale
        # independent computation: project exactly and use the 3D Gram form
        dd = 3
        rows = []
        for p in ps.points[:3]:
            t = sum(p) / dd
            rows.append(tuple(c - t for c in p))
        flat = PointSet(rows, dim=3, allow_duplicates=True)
        assert squared_volume(flat, (0, 1, 2)) == area_sq

    def test_dependent_directions_rejected(self):
        ps = PointSet([(0, 0, 0, 0), (1, 1, 1, 1)])
        with pytest.raises(DegenerateInput):
            project_orthogonal(ps, [(1, 0, 0, 0), (2, 0, 0, 0)])

    def test_wrong_codimension_rejected(self):
        ps = PointSet([(0, 0, 0), (1, 1, 1)])
        with pytest.raises(DimensionMismatch):
            project_orthogonal(ps, [(1, 0, 0), (0, 1, 0)])

    def test_inexact_directions_rejected(self):
        ps = PointSet([(0, 0, 0), (1, 1, 1)])
        with pytest.raises(TypeError):
            project_orthogonal(ps, [(0.5, 0, 1)])
        with pytest.raises(DimensionMismatch, match=r"direction \(1, 0\) does not have 3"):
            project_orthogonal(ps, [(1, 0)])
        # the same scalars as a point set's: 'p/q' strings are exact
        assert project_orthogonal(ps, [("1/2", 0, 0)]).directions == ((F(1, 2), 0, 0),)


class TestDistinctAreas:
    def test_unit_square(self):
        ps = PointSet([(0, 0), (1, 0), (0, 1), (1, 1)])
        result = distinct_areas_from_point(ps, 0)
        assert result.distinct_count == 1
        assert result.hypothesis_holds

    def test_exhaustive_example(self):
        # partners 2, 3, 4 all reach three distinct areas; smallest index wins
        ps = PointSet([(0, 0), (1, 0), (0, 1), (2, 3), (3, 1)])
        result = distinct_areas_from_point(ps, 0)
        assert result.distinct_count == 3
        assert result.best_partner == 2

    def test_triangle(self):
        ps = PointSet([(0, 0), (1, 0), (0, 1)])
        result = distinct_areas_from_point(ps, 0)
        assert result.distinct_count == 1

    def test_hypothesis_violation_reported_but_computed(self):
        ps = PointSet([(0, 0), (1, 0), (2, 0), (0, 1)])
        result = distinct_areas_from_point(ps, 0)
        assert not result.hypothesis_holds
        assert result.distinct_count >= 1

    def test_violation_across_base_point(self):
        # collinear through p1 with points on both sides
        ps = PointSet([(0, 0), (1, 0), (-1, 0), (0, 1)])
        result = distinct_areas_from_point(ps, 0)
        assert not result.hypothesis_holds

    def test_area_preserving_map_keeps_count(self):
        ps = random_spanning(9, 2, seed=31)
        base = distinct_areas_from_point(ps, 0)
        # unimodular shear, det = 1
        mapped = PointSet([(p[0] + 3 * p[1], p[1]) for p in ps.points])
        other = distinct_areas_from_point(mapped, 0)
        assert other.distinct_count == base.distinct_count
        assert other.best_partner == base.best_partner


def planar_common_face(ps):
    """The constructive common-face search spelled out on the public API:
    rank the (d-1)-tuples by the hyperplanes they span, project along the
    best tuple's flat and run the planar distinct-area search at its image.
    Returns (face, volumes), or None when no tuple spans two hyperplanes."""
    d, n = ps.dim, len(ps)
    best_tuple, best_planes = None, {}
    for tup in combinations(range(n), d - 1):
        planes = {}
        for q in range(n):
            if q not in tup and squared_volume(ps, tup + (q,)) != 0:
                planes.setdefault(hyperplane_key(ps, tup + (q,)), q)
        if len(planes) > len(best_planes):
            best_tuple, best_planes = tup, planes
    if len(best_planes) < 2:
        return None
    reps = sorted(best_planes.values())
    base = ps.points[best_tuple[0]]
    proj = project_orthogonal(
        ps, [[c - b for c, b in zip(ps.points[i], base)] for i in best_tuple[1:]])
    image = PointSet([proj.points.points[i] for i in reps + [best_tuple[0]]],
                     dim=2, allow_duplicates=True)
    partner = reps[distinct_areas_from_point(image, len(reps)).best_partner]
    face = tuple(sorted(best_tuple + (partner,)))
    volumes = {abs(signed_volume(ps, face + (q,))) for q in range(n) if q not in face}
    return face, sorted(volumes - {0})


def common_face_sets():
    """Seeded d = 2, 3, 4 sets: small lattice subsets (many ties), mixed
    denominators with duplicates, parallel lines and sets on a hyperplane."""
    rng = random.Random(2024)
    for i in range(60):
        d = 2 + i % 3
        n = rng.randint(d + 2, 7 if d == 4 else 10)
        kind = "lattice mixed lattice lines flat".split()[i // 3 % 5]
        if kind == "lattice":
            rows = [[rng.randint(0, 2) for _ in range(d)] for _ in range(n)]
        elif kind == "mixed":
            rows = [[F(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(d)]
                    for _ in range(n)]
            rows += rng.sample(rows, 2)
        elif kind == "lines":
            rows = gen_distinct_volume_lines(n, d).points.points
        else:
            rows = [[rng.randint(-5, 5) for _ in range(d - 1)] for _ in range(n)]
            rows = [r + [sum(r) - 3] for r in rows]
        yield PointSet(rows, dim=d, allow_duplicates=True)


class TestCommonFace:
    def test_dlines_73(self):
        out = gen_distinct_volume_lines(7, 3)
        for mode in ("exhaustive", "heuristic"):
            result = best_common_face(out.points, mode=mode)
            assert result.distinct_count >= 2
            assert len(result.face) == 3

    def test_dlines_exhaustive_reaches_global_count(self):
        # on the parallel-lines construction a single face already realizes
        # every volume, so the exhaustive search hits the global distinct count
        for n, d in [(7, 3), (10, 3), (9, 2), (13, 2)]:
            out = gen_distinct_volume_lines(n, d)
            global_count = distinct_volumes(out.points).count
            result = best_common_face(out.points, mode="exhaustive")
            assert result.distinct_count == global_count

    def test_exhaustive_at_least_heuristic(self):
        for seed in range(8):
            ps = random_spanning(8, 3, seed=800 + seed)
            ex = best_common_face(ps, mode="exhaustive")
            he = best_common_face(ps, mode="heuristic")
            assert ex.distinct_count >= he.distinct_count

    def test_heuristic_matches_planar_search(self):
        # the integer search picks the face the projection and the planar
        # distinct-area search pick, with the same count and volumes
        differs_from_exhaustive = 0
        for ps in common_face_sets():
            expected = planar_common_face(ps)
            if expected is None:
                with pytest.raises(AllDegenerate):
                    best_common_face(ps, mode="heuristic")
                continue
            result = best_common_face(ps, mode="heuristic")
            assert (result.face, list(result.volumes)) == expected
            assert result.distinct_count == len(expected[1])
            differs_from_exhaustive += result.face != best_common_face(ps).face
        assert differs_from_exhaustive >= 5

    def test_single_simplex(self):
        ps = PointSet([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
        result = best_common_face(ps, mode="exhaustive")
        assert result.distinct_count == 1

    def test_volumes_are_realized(self):
        ps = random_spanning(7, 3, seed=12)
        result = best_common_face(ps, mode="exhaustive")
        realized = set()
        for q in range(len(ps)):
            if q in result.face:
                continue
            vol = abs(signed_volume(ps, tuple(sorted(result.face + (q,)))))
            if vol:
                realized.add(vol)
        assert set(result.volumes) == realized
        assert result.distinct_count == len(result.volumes)

    def test_planar_mode(self):
        ps = random_spanning(8, 2, seed=3)
        ex = best_common_face(ps, mode="exhaustive")
        he = best_common_face(ps, mode="heuristic")
        assert ex.distinct_count >= he.distinct_count >= 1

    def test_hyperplanar_rejected(self):
        ps = PointSet([(0, 0, 0), (1, 0, 0), (0, 1, 0), (3, 3, 0), (1, 5, 0)])
        for mode in ("exhaustive", "heuristic"):
            with pytest.raises(AllDegenerate):
                best_common_face(ps, mode=mode)

    def test_exhaustive_budget_guard(self, monkeypatch):
        monkeypatch.setattr(distinct_mod, "EXHAUSTIVE_FACE_LIMIT", 5)
        ps = random_spanning(9, 3, seed=2)
        with pytest.raises(ValueError):
            best_common_face(ps, mode="exhaustive")

    def test_unknown_mode(self):
        ps = random_spanning(5, 3, seed=1)
        with pytest.raises(ValueError):
            best_common_face(ps, mode="fancy")


class TestProjectionIdentity:
    def test_forced_instance(self):
        ps = PointSet([(0, 0, 0), (0, 0, 2), (1, 0, 0), (0, 1, 1)])
        assert check_projection_volume_identity(ps, 0, 1, 2, 3)

    def test_degenerate_instance_both_sides_zero(self):
        ps = PointSet([(0, 0, 0), (0, 0, 1), (1, 0, 0), (2, 0, 5)])
        assert signed_volume(ps, (0, 1, 2, 3)) == 0
        assert check_projection_volume_identity(ps, 0, 1, 2, 3)

    def test_random_quadruples(self):
        rng = random.Random(99)
        for _ in range(250):
            rows = set()
            while len(rows) < 4:
                rows.add(tuple(F(rng.randint(-40, 40), rng.randint(1, 6))
                               for _ in range(3)))
            ps = PointSet(sorted(rows))
            assert check_projection_volume_identity(ps, 0, 1, 2, 3)

    def test_vertical_axis_quadruples(self):
        rng = random.Random(100)
        for _ in range(100):
            x, y = rng.randint(-9, 9), rng.randint(-9, 9)
            rows = [(x, y, rng.randint(-9, 9))]
            rows.append((x, y, rows[0][2] + rng.randint(1, 9)))
            while len(rows) < 4:
                cand = (rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(-9, 9))
                if cand not in rows:
                    rows.append(cand)
            ps = PointSet(rows, allow_duplicates=True)
            assert check_projection_volume_identity(ps, 0, 1, 2, 3)

    def test_coincident_axis_rejected(self):
        ps = PointSet([(0, 0, 0), (0, 0, 0), (1, 0, 0), (0, 1, 0)],
                      allow_duplicates=True)
        with pytest.raises(DegenerateInput):
            check_projection_volume_identity(ps, 0, 1, 2, 3)

    def test_distinct_indices_required(self):
        ps = PointSet([(0, 0, 0), (0, 0, 2), (1, 0, 0), (0, 1, 1)])
        with pytest.raises(ValueError):
            check_projection_volume_identity(ps, 0, 1, 2, 2)
