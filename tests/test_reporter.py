"""Fast-path reporter tests: per-line and per-plane machinery, the 3D and 2D
reporters against the brute-force oracle, and the counting identities."""

import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simplexvol import (
    AllDegenerate,
    DegenerateInput,
    PointSet,
    empty_slabs,
    gen_min_ksimplex_lines,
    gen_min_tetra_prism,
    gen_random_rational,
    min_area_triangles,
    min_area_triangles_in_plane,
    min_volume_simplices,
    min_volume_tetrahedra,
    plane_key,
    shortest_segments_on_line,
    squared_distance_point_plane,
)
from simplexvol.reporter import _angle_records, _sweep_2d
from helpers import random_spanning

LINE_DIRECTIONS = [(1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, -2)]


@st.composite
def tie_heavy_2d(draw):
    """Small 2D sets full of ties: lattice subsets, or points at equal gaps on
    two or three lines (horizontal, vertical, slanted, often parallel, some
    at equal distance on both sides of a middle line), with duplicates.  An
    axis scaling by primes then mixes the denominators and keeps every tie,
    since an affine map keeps ratios of areas."""
    kind = draw(st.sampled_from(["lattice", "lines", "parallel"]))
    if kind == "lattice":
        side = draw(st.integers(2, 5))
        pts = draw(st.lists(st.tuples(st.integers(0, side - 1), st.integers(0, side - 1)),
                            min_size=3, max_size=12, unique=True))
    else:
        base = draw(st.sampled_from(LINE_DIRECTIONS))
        anchors = [(-base[1] * j, base[0] * j) for j in (-2, 0, 2)]
        pts = []
        for line in range(draw(st.integers(2, 3))):
            if kind == "parallel":
                (ax, ay), (dx, dy) = anchors[line], base
            else:
                ax, ay = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
                dx, dy = draw(st.sampled_from([base] + LINE_DIRECTIONS))
            ts = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=5, unique=True))
            pts += [(ax + t * dx, ay + t * dy) for t in ts]
        pts = list(dict.fromkeys(pts))
    pts += draw(st.lists(st.sampled_from(pts), max_size=3))
    px = draw(st.sampled_from([1, 2, 3, 5, 7]))
    py = draw(st.sampled_from([1, 3, 11, 13]))
    rows = [(F(x, px) + F(1, 7), F(y, py)) for x, y in draw(st.permutations(pts))]
    return PointSet(rows, allow_duplicates=True)


class TestShortestSegments:
    def test_gaps(self):
        ps = PointSet([(0, 0), (1, 0), (2, 0), (4, 0)])
        run = shortest_segments_on_line(ps, range(4))
        assert run.min_length_sq == 1
        assert run.count == 2
        assert run.pairs == ((0, 1), (1, 2))

    def test_equally_spaced(self):
        ps = PointSet([(i, 2 * i, -i) for i in range(7)])
        run = shortest_segments_on_line(ps, range(7))
        assert run.count == 6

    def test_fractional(self):
        ps = PointSet([(0, 0), (F(1, 3), 0), (1, 0)])
        run = shortest_segments_on_line(ps, range(3))
        assert run.min_length_sq == F(1, 9)
        assert run.count == 1

    def test_not_collinear(self):
        ps = PointSet([(0, 0), (1, 0), (1, 1)])
        with pytest.raises(DegenerateInput):
            shortest_segments_on_line(ps, range(3))

    def test_too_few(self):
        ps = PointSet([(0, 0)])
        with pytest.raises(ValueError):
            shortest_segments_on_line(ps, [0])


class TestMinAreaInPlane:
    def test_three_collinear_plus_one(self):
        ps = PointSet([(0, 0), (1, 0), (2, 0), (0, 1)])
        summary = min_area_triangles_in_plane(ps)
        assert summary.min_area_sq == F(1, 4)
        assert summary.count == 2
        assert summary.witnesses == ((0, 1, 3), (1, 2, 3))
        assert summary.n_lines == 4

    def test_unit_square(self):
        ps = PointSet([(0, 0), (1, 0), (0, 1), (1, 1)])
        summary = min_area_triangles_in_plane(ps)
        assert summary.min_area_sq == F(1, 4)
        assert summary.count == 4
        assert summary.n_lines == 6

    def test_matches_oracle_on_random_planar_sets(self):
        checked = 0
        for seed in range(60):
            n = 4 + seed % 16
            ps = gen_random_rational(n, 2, seed=900 + seed, bound=9)
            try:
                summary = min_area_triangles_in_plane(ps)
                oracle = min_volume_simplices(ps, 2)
            except AllDegenerate:
                continue
            assert summary.min_area_sq == oracle.min_squared_volume
            assert summary.count == oracle.count
            assert summary.witnesses == oracle.witnesses
            checked += 1
        assert checked >= 50

    def test_3d_subset_with_plane_key(self):
        ps = PointSet([(0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 1, 0), (0, 0, 7)])
        summary = min_area_triangles_in_plane(ps, [0, 1, 2, 3])
        assert summary.key is not None
        assert summary.key.normal == (0, 0, 1)
        assert summary.min_area_sq == F(1, 4)
        assert summary.count == 2

    def test_non_coplanar_subset_rejected(self):
        ps = PointSet([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 7)])
        with pytest.raises(DegenerateInput):
            min_area_triangles_in_plane(ps, range(4))

    def test_all_collinear(self):
        ps = PointSet([(i, 0) for i in range(4)])
        with pytest.raises(AllDegenerate):
            min_area_triangles_in_plane(ps)


class TestEmptySlabs:
    def test_one_sided(self):
        ps = PointSet([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 5)])
        above, below = empty_slabs(ps, plane_key(ps, (0, 1, 2)))
        assert above.dist_sq == 25 and above.count == 1 and above.nearest == (4,)
        assert below is None

    def test_tied_distances(self):
        ps = PointSet([(0, 0, 0), (1, 0, 0), (0, 1, 0),
                       (5, 7, 1), (9, 2, 1), (3, 3, 2)])
        above, below = empty_slabs(ps, plane_key(ps, (0, 1, 2)))
        assert above.dist_sq == 1 and above.count == 2
        assert above.nearest == (3, 4)
        assert below is None

    def test_all_on_plane(self):
        ps = PointSet([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)])
        above, below = empty_slabs(ps, plane_key(ps, (0, 1, 2)))
        assert above is None and below is None


class TestMinVolumeTetrahedra:
    def test_four_points(self):
        ps = PointSet([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 3)])
        report = min_volume_tetrahedra(ps)
        assert report.count == 1
        assert report.sum_face_products == 4
        assert report.witnesses == ((0, 1, 2, 3),)

    def test_prism_counts(self):
        out = gen_min_tetra_prism(8, F(1, 64))
        report = min_volume_tetrahedra(out.points)
        assert report.min_volume == F(1, 192)
        assert report.count == 48
        assert report.sum_face_products == 192
        assert len(report.witnesses) == 48

    def test_matches_oracle_on_random_sets(self):
        from simplexvol import signed_volume

        for seed in range(25):
            n = 5 + seed % 12
            ps = random_spanning(n, 3, seed=3000 + seed)
            report = min_volume_tetrahedra(ps)
            oracle = min_volume_simplices(ps, 3)
            assert report.min_volume_sq == oracle.min_squared_volume
            assert report.count == oracle.count
            assert report.witnesses == oracle.witnesses
            assert report.sum_face_products == 4 * report.count
            for wit in report.witnesses[:5]:
                assert abs(signed_volume(ps, wit)) == report.min_volume

    def test_slab_emptiness_of_witnesses(self):
        ps = random_spanning(12, 3, seed=77)
        report = min_volume_tetrahedra(ps)
        for tet in report.witnesses:
            for face in [tuple(x for x in tet if x != skip) for skip in tet]:
                apex = next(x for x in tet if x not in face)
                key = plane_key(ps, face)
                gap = squared_distance_point_plane(ps.points[apex], key)
                for i, p in enumerate(ps.points):
                    d = squared_distance_point_plane(p, key)
                    side_match = key.side_of(p) == key.side_of(ps.points[apex])
                    assert not (side_match and 0 < d < gap), (tet, face, i)

    def test_permutation_invariance(self):
        ps = random_spanning(10, 3, seed=51)
        base = min_volume_tetrahedra(ps)
        perm = list(range(10))
        random.Random(8).shuffle(perm)
        shuffled = PointSet([ps.points[i] for i in perm])
        other = min_volume_tetrahedra(shuffled)
        assert other.min_volume == base.min_volume
        assert other.count == base.count
        mapped = sorted(tuple(sorted(perm.index(i) for i in w)) for w in base.witnesses)
        assert list(other.witnesses) == mapped

    def test_witnessless_mode(self):
        out = gen_min_tetra_prism(12)
        lean = min_volume_tetrahedra(out.points, witnesses=False)
        full = min_volume_tetrahedra(out.points, witnesses=True)
        assert lean.witnesses is None and lean.contributing is None
        assert lean.min_volume == full.min_volume
        assert lean.count == full.count == 216

    def test_witness_cap(self):
        out = gen_min_tetra_prism(8)
        report = min_volume_tetrahedra(out.points, max_witnesses=7)
        assert len(report.witnesses) == 7
        assert report.count == 48

    def test_contributing_records_consistent(self):
        ps = random_spanning(9, 3, seed=4)
        report = min_volume_tetrahedra(ps)
        total = 0
        for summary, slab in report.contributing:
            assert summary.count == len(summary.witnesses)
            assert slab.count == len(slab.nearest)
            # v^2 = area_sq * dist_sq / 9 must equal the reported minimum
            assert summary.min_area_sq * slab.dist_sq / 9 == report.min_volume_sq
            total += summary.count * slab.count
        assert total == report.sum_face_products

    def test_tie_heavy_grid(self):
        # 3x3x3 integer grid: massive symmetry, many collinear triples and
        # coplanar quadruples
        import itertools
        grid = PointSet(list(itertools.product((0, 1, 2), repeat=3)))
        report = min_volume_tetrahedra(grid)
        oracle = min_volume_simplices(grid, 3)
        assert report.min_volume == F(1, 6)
        assert report.count == oracle.count == 3688
        assert report.witnesses == oracle.witnesses

    def test_duplicates_allowed(self):
        rows = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 1), (2, 3, 4)]
        ps = PointSet(rows, allow_duplicates=True)
        report = min_volume_tetrahedra(ps)
        oracle = min_volume_simplices(ps, 3)
        assert report.min_volume_sq == oracle.min_squared_volume
        assert report.count == oracle.count
        assert report.witnesses == oracle.witnesses

    def test_coplanar_error(self):
        ps = PointSet([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (2, 5, 0)])
        with pytest.raises(AllDegenerate):
            min_volume_tetrahedra(ps)

    def test_too_few_points(self):
        ps = PointSet([(0, 0, 0), (1, 0, 0), (0, 1, 0)])
        with pytest.raises(AllDegenerate):
            min_volume_tetrahedra(ps)


class TestMinAreaTriangles:
    def test_unit_square(self):
        ps = PointSet([(0, 0), (1, 0), (0, 1), (1, 1)])
        report = min_area_triangles(ps)
        assert report.min_area == F(1, 2)
        assert report.count == 4
        assert report.sum_side_products == 12

    def test_klines_construction(self):
        out = gen_min_ksimplex_lines(6, 2, 2, F(1, 16))
        report = min_area_triangles(out.points)
        assert report.count == out.expected["count"] == 12
        assert report.min_area ** 2 == out.expected["min_squared_volume"]

    def test_matches_oracle_on_random_sets(self):
        checked = 0
        for seed in range(60):
            n = 4 + seed % 24
            ps = gen_random_rational(n, 2, seed=6000 + seed, bound=9)
            try:
                report = min_area_triangles(ps)
                oracle = min_volume_simplices(ps, 2)
            except AllDegenerate:
                continue
            assert report.min_area_sq == oracle.min_squared_volume
            assert report.count == oracle.count
            assert report.witnesses == oracle.witnesses
            assert report.sum_side_products == 3 * report.count
            checked += 1
        assert checked >= 50

    def test_tie_heavy_grid(self):
        import itertools
        grid = PointSet(list(itertools.product(range(4), repeat=2)))
        report = min_area_triangles(grid)
        oracle = min_volume_simplices(grid, 2)
        assert report.min_area == F(1, 2)
        assert report.count == oracle.count == 124
        assert report.witnesses == oracle.witnesses

    def test_collinear_error(self):
        ps = PointSet([(i, 3 * i) for i in range(5)])
        with pytest.raises(AllDegenerate):
            min_area_triangles(ps)

    def test_coincident_and_vertical_collinear_errors(self):
        with pytest.raises(AllDegenerate, match="coincide"):
            min_area_triangles(PointSet([(1, 2)] * 4, allow_duplicates=True))
        with pytest.raises(AllDegenerate, match="collinear"):
            min_area_triangles(PointSet([(3, 1), (3, 1), (3, 2), (3, F(5, 2))],
                                        allow_duplicates=True))

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(tie_heavy_2d())
    def test_matches_oracle_on_tie_heavy_sets(self, ps):
        try:
            oracle = min_volume_simplices(ps, 2)
        except AllDegenerate:
            with pytest.raises(AllDegenerate):
                min_area_triangles(ps)
            return
        report = min_area_triangles(ps)
        assert report.min_area_sq == oracle.min_squared_volume
        assert report.count == oracle.count
        assert report.witnesses == tuple(sorted(oracle.witnesses))
        assert report.sum_side_products == 3 * report.count

    def test_sweep_raises_when_directions_are_out_of_order(self):
        xy = list(itertools.product(range(3), repeat=2))
        idx = [[i] for i in range(len(xy))]
        records = _angle_records(xy)
        assert _sweep_2d(xy, idx, records, False).n_bases == 20
        with pytest.raises(RuntimeError, match="rotating sweep"):
            _sweep_2d(xy, idx, records[::-1], False)
