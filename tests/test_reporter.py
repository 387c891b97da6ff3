"""Fast-path reporter tests: the 3D and 2D reporters and their contributing
records against the brute-force oracle, and the counting identities."""

import itertools
import math
import random
import tracemalloc
from fractions import Fraction as F
from operator import mul, sub
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simplexvol import (
    AllDegenerate,
    PlaneSummary,
    PointSet,
    SlabRecord,
    gen_lattice2d,
    gen_lattice_slab3d,
    gen_min_ksimplex_lines,
    gen_min_tetra_prism,
    gen_random_rational,
    hyperplane_key,
    line_key,
    min_area_triangles,
    min_volume_simplices,
    min_volume_tetrahedra,
    plane_key,
    rich_lines,
    spanned_planes,
    squared_distance_point_plane,
)
from simplexvol.exact import integer_coordinates, primitive_vector
from simplexvol.pointfile import load_point_file
import simplexvol.reporter as reporter
from simplexvol.reporter import LineSideRecord, LineSummary, _collinear, _scan
from helpers import PRIME_DENOMINATORS_3D, nearest_on_side, random_spanning

LINE_DIRECTIONS = [(1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, -2)]
# most in the plane z == 0, so that a star often has three lines in one plane
STAR_DIRECTIONS = [(1, 0, 0), (0, 1, 0), (1, 1, 0), (1, -1, 0), (2, 1, 0), (0, 0, 1), (1, 0, 1)]


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


@st.composite
def tie_heavy_3d(draw):
    """Small 3D sets full of ties: lattice subsets, up to six points at equal
    gaps on each of two to four parallel lines (vertical like the prism, or
    slanted), points on two or three parallel planes, or a star of two to
    four lines through one shared point with up to four points each and one
    point off them, with duplicates.  A star has rays from its shared point
    with points behind the first, often several in one plane through an
    earlier point, and points behind a pair on its line.  A shear and an
    axis scaling by primes then mix the denominators and keep every tie."""
    kind = draw(st.sampled_from(["lattice", "lines", "planes", "star"]))
    if kind == "star":
        centre = draw(st.tuples(*[st.integers(-2, 2)] * 3))
        # first, as only the first ten points are kept
        pts = [centre, draw(st.tuples(*[st.integers(-3, 3)] * 3))]
        for _ in range(draw(st.integers(2, 4))):
            d = draw(st.sampled_from(STAR_DIRECTIONS))
            ts = draw(st.lists(st.sampled_from([-1, 1, 2]), min_size=2, max_size=3, unique=True))
            pts += [tuple(a + t * c for a, c in zip(centre, d)) for t in ts]
    elif kind == "lattice":
        coord = st.integers(0, draw(st.integers(1, 2)))
        pts = draw(st.lists(st.tuples(coord, coord, coord), min_size=4, max_size=12, unique=True))
    elif kind == "lines":
        d = draw(st.sampled_from([(0, 0, 1), (1, 1, 0), (1, 0, 2), (1, -1, 1)]))
        pts = []
        for _ in range(draw(st.integers(2, 4))):
            anchor = draw(st.tuples(*[st.integers(-2, 2)] * 3))
            ts = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=6, unique=True))
            pts += [tuple(a + t * c for a, c in zip(anchor, d)) for t in ts]
    else:
        xy = st.tuples(st.integers(-2, 2), st.integers(-2, 2))
        pts = [(x, y, z) for z in draw(st.lists(st.integers(-2, 2), min_size=2, max_size=3,
                                                unique=True))
               for x, y in draw(st.lists(xy, min_size=1, max_size=5))]
    pts = list(dict.fromkeys(pts))[:10]
    extra = max(0, 4 - len(pts))
    pts += draw(st.lists(st.sampled_from(pts), min_size=extra, max_size=extra + 2))
    shear = draw(st.sampled_from([0, 1, -2]))
    primes = draw(st.sampled_from([(1, 1, 1), (2, 3, 5), (7, 1, 11), (1, 13, 3)]))
    rows = [(F(x, primes[0]) + F(1, 7), F(y + shear * x, primes[1]), F(z + shear * y, primes[2]))
            for x, y, z in draw(st.permutations(pts))]
    return PointSet(rows, allow_duplicates=True)


def spanned_line_count(ps):
    """Number of distinct lines through two distinct points, by line_key."""
    return len({line_key(ps, i, j) for i, j in itertools.combinations(range(len(ps)), 2)
                if ps.points[i] != ps.points[j]})


# runs of five or more collinear sites, where a face (a, z) with a site on
# the open segment az and two later sites on its line is skipped: six per
# line in the prism and in the three parallel lines, and three skew lines of
# six or seven unequally spaced points with denominators 2, 3 and 5 and one
# duplicate
COLLINEAR_RUNS_3D = [
    gen_min_tetra_prism(24).points,
    gen_min_ksimplex_lines(18, 3, 3).points,
    PointSet([(F(t, 2), 0, 0) for t in (0, 1, 3, 4, 7, 9)]
             + [(0, F(t, 3), 1) for t in (-2, 0, 1, 4, 5, 8, 9)]
             + [(1, 2, F(t, 5)) for t in (0, 2, 3, 7, 8, 12)]
             + [(F(3, 2), 0, 0)], allow_duplicates=True),
]
COLLINEAR_RUN_IDS = ["prism24", "klines18", "skew-lines"]

DUPLICATES_3D = PointSet([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 1), (2, 3, 4)],
                         allow_duplicates=True)


def check_contributing_3d(ps):
    """Each contributing (plane, slab) pair matches the brute force, which
    shares no code with the scan: the incident points are those the key
    contains, the oracle's minimum-area triangles of that subset give the
    squared area, the count and the witnesses, rich_lines gives its lines,
    and the slab holds the nearest points on its side (nearest_on_side).
    The pairs are the (plane, side) of the faces of the oracle's witnesses,
    and they come in the order the CLI prints them: by the primitive normal
    g = N / gcd(N) of the key (N, o), then by o / gcd(N), "below" first.  On
    integer sets that is the order of (N, o)."""
    report = min_volume_tetrahedra(ps)
    order = [(primitive_vector(s.key.normal), F(s.key.offset, math.gcd(*s.key.normal)),
              slab.side == "above") for s, slab in report.contributing]
    assert order == sorted(set(order))
    for summary, slab in report.contributing:
        incident = summary.incident
        assert incident == tuple(i for i, p in enumerate(ps.points) if summary.key.contains(p))
        sub = PointSet([ps.points[i] for i in incident], allow_duplicates=True)
        oracle = min_volume_simplices(sub, 2)
        witnesses = tuple(tuple(incident[i] for i in tri) for tri in oracle.witnesses)
        assert summary == PlaneSummary(
            plane_key(ps, witnesses[0]), incident, len(incident), len(rich_lines(sub, 2).lines),
            oracle.min_squared_volume, oracle.count, witnesses)
        dist_sq, nearest = nearest_on_side(ps, summary.key, {"above": 1, "below": -1}[slab.side])
        assert slab == SlabRecord(summary.key, slab.side, dist_sq, len(nearest), nearest)
    expected = set()
    for tet in min_volume_simplices(ps, 3).witnesses:
        for apex in tet:
            key = plane_key(ps, [i for i in tet if i != apex])
            expected.add((key, "above" if key.side_of(ps.points[apex]) > 0 else "below"))
    assert {(summary.key, slab.side) for summary, slab in report.contributing} == expected


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

    @pytest.mark.parametrize("ps", [
        random_spanning(9, 3, seed=4),
        PRIME_DENOMINATORS_3D,
        # a small lattice: many tied planes, both sides of most of them
        PointSet(list(itertools.product((0, 1, 2), (0, 1), (0, 1)))),
    ], ids=["random", "prime-denominators", "lattice"])
    def test_contributing_plane_keys_and_sides(self, ps):
        report = min_volume_tetrahedra(ps)
        sides = set()
        for summary, slab in report.contributing:
            assert summary.key == slab.plane == plane_key(ps, summary.witnesses[0])
            sign = slab.plane.side_of(ps.points[slab.nearest[0]])
            assert slab.side == {1: "above", -1: "below"}[sign]
            sides.add(slab.side)
        assert sides == {"above", "below"}

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
        ps = DUPLICATES_3D
        report = min_volume_tetrahedra(ps)
        oracle = min_volume_simplices(ps, 3)
        assert report.min_volume_sq == oracle.min_squared_volume
        assert report.count == oracle.count
        assert report.witnesses == oracle.witnesses

    @pytest.mark.parametrize("ps", [DUPLICATES_3D, PRIME_DENOMINATORS_3D,
                                    gen_lattice_slab3d(18), gen_min_tetra_prism(16).points],
                             ids=["duplicates", "prime-denominators", "lattice-slab18", "prism16"])
    def test_contributing_matches_per_plane_scans(self, ps):
        check_contributing_3d(ps)

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(tie_heavy_3d())
    def test_contributing_matches_per_plane_scans_on_tie_heavy_sets(self, ps):
        try:
            min_volume_simplices(ps, 3)
        except AllDegenerate:
            return
        check_contributing_3d(ps)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(tie_heavy_3d())
    def test_matches_oracle_on_tie_heavy_sets(self, ps):
        n_planes = len(spanned_planes(ps))
        try:
            oracle = min_volume_simplices(ps, 3)
        except AllDegenerate:
            message = ("coplanar" if n_planes else "collinear" if len(set(ps.points)) > 1
                       else "coincide")
            with pytest.raises(AllDegenerate, match=message):
                min_volume_tetrahedra(ps)
            return
        report = min_volume_tetrahedra(ps)
        assert report.min_volume_sq == oracle.min_squared_volume
        assert report.count == oracle.count
        assert report.witnesses == tuple(sorted(oracle.witnesses))
        assert report.n_planes == n_planes

    def test_coplanar_set_spans_one_plane(self):
        ps = PointSet([(x, y, x + 2 * y) for x in range(3) for y in range(3)])
        with pytest.raises(AllDegenerate, match="coplanar"):
            min_volume_tetrahedra(ps)
        # the report is refused, so the scan's own count is read
        coords, _ = integer_coordinates(ps)
        pts = sorted(set(coords))
        assert _scan(pts, [1] * len(pts), 3, False)[2] == 1 == len(spanned_planes(ps))

    @pytest.mark.parametrize("ps", [
        # four sites on the x axis: at a, b = (0, 0, 0), (2, 0, 0) the site
        # (1, 0, 0) is on ab below b, and at a, b = (0, 0, 0), (1, 0, 0) two
        # later sites are on ab
        PointSet([(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1),
                  (3, 2, 5)]),
        # lines through the first site: at b = (0, 0, 1) each plane holds
        # two later sites on one line with a
        PointSet([(0, 0, 0), (0, 0, 1), (1, 0, 0), (2, 0, 0), (1, 1, 0), (2, 2, 0),
                  (1, 2, 0), (2, 4, 0), (3, 1, 5)]),
        # as above, but at b = (1, 0, 0) a later site, (2, 0, 0), is on ab
        PointSet([(0, 0, 0), (1, 0, 0), (1, 1, 0), (2, 0, 0), (2, 2, 0), (3, 1, 2)]),
        # at a, b = (0, 0, 0), (0, 1, 0) the later sites of z == 0 lie on
        # x == 1, which misses b
        PointSet([(0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 0), (1, 2, 0), (3, 1, 2)]),
        # at a, b = (0, 0, 0), (1, 0, 0) the one later site on ab, (2, 0, 0),
        # and the later sites of z == 0 lie on x == 2
        PointSet([(0, 0, 0), (1, 0, 0), (2, 0, 0), (2, 1, 0), (2, 2, 0), (3, 1, 2)]),
        gen_min_tetra_prism(16).points,
        *COLLINEAR_RUNS_3D,
        # general position: every class has one member
        *(gen_random_rational(20, 3, seed, bound=1000) for seed in range(3)),
    ], ids=["sites-on-ab", "lines-through-a", "lines-through-a-and-axis", "line-misses-b",
            "line-through-axis-site", "prism16", *COLLINEAR_RUN_IDS,
            "random0", "random1", "random2"])
    def test_n_planes_counts_spanned_planes(self, ps):
        report = min_volume_tetrahedra(ps, witnesses=False)
        assert report.n_planes == len(spanned_planes(ps))

    @pytest.mark.parametrize("ps", COLLINEAR_RUNS_3D, ids=COLLINEAR_RUN_IDS)
    def test_matches_oracle_on_collinear_runs(self, ps):
        report = min_volume_tetrahedra(ps)
        oracle = min_volume_simplices(ps, 3)
        assert report.min_volume_sq == oracle.min_squared_volume
        assert report.count == oracle.count
        assert report.witnesses == tuple(sorted(oracle.witnesses))

    def test_working_memory_grows_linearly(self):
        # On points in general position the scan keeps O(n), plus O(n) per
        # pair of points; a set of all plane normals of random points would
        # grow about 8x when n doubles.
        peaks = []
        for n in (15, 30):
            ps = gen_random_rational(n, 3, seed=0, bound=1000)
            tracemalloc.start()
            try:
                min_volume_tetrahedra(ps, witnesses=False)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 4 * peaks[0], peaks

    def test_working_memory_on_collinear_sites(self):
        # Each site keeps its later sites that come first on their ray from
        # it, and the sites behind them: O(n) per site on the prism's four
        # lines, so O(n^2) in all, at most 4x when n doubles, where a table
        # of O(n^3) would grow 8x.
        peaks = []
        for n in (32, 64):
            ps = gen_min_tetra_prism(n).points
            tracemalloc.start()
            try:
                min_volume_tetrahedra(ps, witnesses=False)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 5 * peaks[0], peaks

    def test_scan_visits_no_site_behind_another(self, monkeypatch):
        # Each face (a, b) builds its classes from the later sites that come
        # first on their ray from b; the sites behind them are only joined to
        # a class or the axis.  On the prism's four lines the later sites of
        # the face's own line after the first are behind it.
        prism = gen_min_tetra_prism(16)
        pts = sorted(set(integer_coordinates(prism.points)[0]))
        window_pairs = reporter._window_pairs
        seen = {"faces": 0, "behind": 0}

        def between(b, h, c):
            """Whether site h lies inside the segment from site b to site c."""
            hb, ch = map(sub, pts[h], pts[b]), map(sub, pts[c], pts[h])
            return _collinear(pts, [b, h, c]) and sum(map(mul, hb, ch)) > 0

        def checked(view, a, u, heads, tails, *rest):
            b = view.index(tuple(map(sum, zip(view[a], u))))
            later = range(b + 1, len(pts))
            behind = {c for c in later for h in later if h != c and between(b, h, c)}
            assert not behind & set(heads)
            assert {s for _, ray in tails for s in ray} == behind
            assert sorted([*heads, *behind]) == list(later)
            seen["faces"] += 1
            seen["behind"] += len(behind)
            return window_pairs(view, a, u, heads, tails, *rest)

        monkeypatch.setattr(reporter, "_window_pairs", checked)
        report = min_volume_tetrahedra(prism.points, witnesses=False)
        assert report.count == prism.expected["count"]
        assert report.n_planes == len(spanned_planes(prism.points))
        assert seen["faces"] > 0 and seen["behind"] > 0, seen

    def test_coincident_points_error(self):
        ps = PointSet([(1, 2, 3)] * 5, allow_duplicates=True)
        with pytest.raises(AllDegenerate, match="all points coincide"):
            min_volume_tetrahedra(ps)

    def test_coplanar_error(self):
        ps = PointSet([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (2, 5, 0)])
        with pytest.raises(AllDegenerate):
            min_volume_tetrahedra(ps)

    def test_too_few_points(self):
        ps = PointSet([(0, 0, 0), (1, 0, 0), (0, 1, 0)])
        with pytest.raises(AllDegenerate):
            min_volume_tetrahedra(ps)


CONTRIBUTING_2D = pytest.mark.parametrize("ps", [
    random_spanning(12, 2, seed=4),
    # mixed prime denominators: the scale is 2*3*5*7*11, and the line
    # anchors on the scaled points share factors with it
    PointSet([(F(1, 2), 0), (0, F(1, 3)), (F(1, 5), F(1, 7)), (1, F(2, 11)),
              (F(3, 7), F(4, 5)), (F(5, 3), F(1, 2)), (F(2, 11), F(7, 5)),
              (F(6, 5), F(8, 7))]),
    # a small lattice: many tied lines, both sides of most of them
    PointSet(list(itertools.product(range(3), range(4)))),
], ids=["random", "prime-denominators", "lattice"])


def check_contributing_2d(ps):
    """Each contributing (line, side) pair matches the brute force: the
    incident points are those the key contains, the oracle's shortest
    segments of that subset give the squared length, the count and the
    witnesses, and the record holds the nearest points on the side of the
    line, found on either side of its hyperplane key and picked by the line
    key's side_of.  The pairs are the (line, side) of the edges of the
    oracle's witnesses, and they come by direction, then moment, below
    first."""
    report = min_area_triangles(ps)
    for summary, record in report.contributing:
        incident = summary.incident
        assert incident == tuple(i for i, p in enumerate(ps.points) if summary.key.contains(p))
        sub = PointSet([ps.points[i] for i in incident], allow_duplicates=True)
        oracle = min_volume_simplices(sub, 1)
        witnesses = tuple(tuple(incident[i] for i in seg) for seg in oracle.witnesses)
        assert summary == LineSummary(line_key(ps, *witnesses[0]), incident, len(incident),
                                      oracle.min_squared_volume, oracle.count, witnesses)
        sign = {"above": 1, "below": -1}[record.side]
        line = hyperplane_key(ps, witnesses[0])
        (dist_sq, nearest), = [found for found in (nearest_on_side(ps, line, s) for s in (1, -1))
                               if found[1] and summary.key.side_of(ps.points[found[1][0]]) == sign]
        assert record == LineSideRecord(summary.key, record.side, dist_sq, len(nearest), nearest)
    expected = set()
    for tri in min_volume_simplices(ps, 2).witnesses:
        for apex in tri:
            key = line_key(ps, *[i for i in tri if i != apex])
            expected.add((key, "above" if key.side_of(ps.points[apex]) > 0 else "below"))
    assert {(summary.key, record.side) for summary, record in report.contributing} == expected
    # the moment of a line with direction d through anchor a is d x a
    order = [(s.key.direction, s.key.direction[0] * s.key.anchor[1]
              - s.key.direction[1] * s.key.anchor[0], r.side == "above")
             for s, r in report.contributing]
    assert order == sorted(set(order))


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

    @CONTRIBUTING_2D
    def test_contributing_records_consistent(self, ps):
        report = min_area_triangles(ps)
        total = 0
        for summary, record in report.contributing:
            assert summary.count == len(summary.witnesses)
            assert record.count == len(record.nearest)
            # area^2 = length_sq * dist_sq / 4 must equal the reported minimum
            assert summary.min_length_sq * record.dist_sq / 4 == report.min_area_sq
            assert summary.incident == tuple(
                i for i, p in enumerate(ps.points) if summary.key.contains(p))
            total += summary.count * record.count
        assert total == report.sum_side_products

    @CONTRIBUTING_2D
    def test_contributing_matches_per_line_scans(self, ps):
        check_contributing_2d(ps)

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(tie_heavy_2d())
    def test_contributing_matches_per_line_scans_on_tie_heavy_sets(self, ps):
        try:
            min_volume_simplices(ps, 2)
        except AllDegenerate:
            return
        check_contributing_2d(ps)

    @CONTRIBUTING_2D
    def test_contributing_line_keys_and_sides(self, ps):
        report = min_area_triangles(ps)
        sides = set()
        for summary, record in report.contributing:
            assert summary.key == record.line == line_key(ps, *summary.witnesses[0])
            sign = record.line.side_of(ps.points[record.nearest[0]])
            assert record.side == {1: "above", -1: "below"}[sign]
            sides.add(record.side)
        assert sides == {"above", "below"}

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

    def test_collinear_set_spans_one_line(self):
        ps = PointSet([(x, 2 * x - 1) for x in range(-2, 4)])
        with pytest.raises(AllDegenerate, match="collinear"):
            min_area_triangles(ps)
        # the report is refused, so the scan's own count is read
        coords, _ = integer_coordinates(ps)
        pts = sorted(set((x, y, 0) for x, y in coords))
        assert _scan(pts, [1] * len(pts), 2, False)[2] == 1 == len(rich_lines(ps, 2).lines)

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

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(tie_heavy_2d())
    def test_n_lines_counts_spanned_lines(self, ps):
        try:
            report = min_area_triangles(ps, witnesses=False)
        except AllDegenerate:
            return
        assert report.n_lines == spanned_line_count(ps)


def test_apex_over_a_planar_set_lifts_the_2d_report():
    """A 2D set P lifted to z == 0, with an apex at height h placed last: its
    minimum tetrahedra are the minimum triangles of P with the apex, so the
    3D scan over the faces a < b and the 2D scan over the faces a agree."""
    rng = random.Random(11)
    spanning = 0
    for _ in range(150):
        pts = [(F(rng.randint(-4, 4), rng.choice((1, 2, 3))),
                F(rng.randint(-4, 4), rng.choice((1, 2)))) for _ in range(rng.randint(3, 9))]
        pts += rng.sample(pts, rng.randint(0, 2))  # duplicates
        n, h = len(pts), F(rng.randint(1, 9), rng.randint(1, 4))
        apex = (F(rng.randint(-4, 4), 5), F(1, 3), h)
        plane = PointSet(pts, allow_duplicates=True)
        lifted = PointSet([(x, y, 0) for x, y in pts] + [apex], allow_duplicates=True)
        try:
            report_2d = min_area_triangles(plane)
        except AllDegenerate:
            with pytest.raises(AllDegenerate):
                min_volume_tetrahedra(lifted)
            continue
        report_3d = min_volume_tetrahedra(lifted)
        assert report_3d.min_volume == report_2d.min_area * h / 3
        assert report_3d.count == report_2d.count
        assert report_3d.witnesses == tuple(t + (n,) for t in report_2d.witnesses)
        assert report_3d.n_planes == report_2d.n_lines + 1
        spanning += 1
    assert spanning > 100


@pytest.mark.parametrize("ps", [
    gen_min_tetra_prism(32).points,
    gen_lattice_slab3d(18),
    gen_lattice2d(36),
], ids=["prism32", "lattice-slab18", "lattice2d-36"])
def test_scan_ties_list_their_face_first_and_ascending(ps):
    """_rows sorts a tie by ordering its last two sites only: every tie of
    _scan is its face's sites, ascending, then the two apexes after them."""
    dim = ps.dim
    pts, weight = _scan_sites(ps)
    ties = _scan(pts, weight, dim, True)[3]
    assert ties
    for tie in ties:
        face, (c, d) = tie[:-2], tie[-2:]
        assert len(face) == dim - 1
        assert list(face) == sorted(face) and face[-1] < min(c, d) and c != d, tie


# Sets whose directions the float slopes cannot order.  From (0, 0) the
# slopes of (2^60, 2^60 + 1) and (3 * 2^60, 3 * 2^60 + 1) both round to 1.0,
# and (1, 2^1100) has a slope beyond the floats; the 3D twins put the same
# sites at z == 0 behind the edge from (0, 0, 0) to (0, 0, 1), whose W are the
# sites' (x, y).
SHARED_FLOAT_2D = [(0, 0), (1, 1), (2, 1), (2 ** 60, 2 ** 60 + 1), (3 * 2 ** 60, 3 * 2 ** 60 + 1)]
BEYOND_FLOATS_2D = [(0, 0), (1, 0), (0, 1), (2, 3), (1, 2 ** 1100)]


def _scan_sites(ps):
    """The sorted sites of ps as _minimal scans them, and their weights."""
    coords, _ = integer_coordinates(ps)
    pts, idx = reporter._sites([p + (0,) * (3 - ps.dim) for p in coords], range(len(ps)))
    return pts, [len(i) for i in idx]


@pytest.mark.parametrize("rows", [SHARED_FLOAT_2D, BEYOND_FLOATS_2D],
                         ids=["shared-float", "beyond-floats"])
@pytest.mark.parametrize("dim", [2, 3])
def test_slopes_past_the_floats_are_ordered_exactly(rows, dim, monkeypatch):
    if dim == 2:
        ps = PointSet(rows)
        report = min_area_triangles(ps)
        measure_sq, n_flats = report.min_area_sq, spanned_line_count(ps)
    else:
        ps = PointSet([(0, 0, 1)] + [(x, y, 0) for x, y in rows])
        report = min_volume_tetrahedra(ps)
        measure_sq, n_flats = report.min_volume_sq, len(spanned_planes(ps))
    # every axis starts at 0 with offset gcd 1, so the scan sees these sites
    # unreduced and keys some face by exact Fractions
    pts, weight = _scan_sites(ps)
    assert reporter._reduced(pts) == (pts, 1)
    exact_keys = []

    def counted(*args):
        exact_keys.append(args)
        return F(*args)

    monkeypatch.setattr(reporter, "Fraction", counted)
    _scan(pts, weight, dim, False)
    assert exact_keys
    oracle = min_volume_simplices(ps, dim)
    assert (measure_sq, report.count, report.witnesses) == (
        oracle.min_squared_volume, oracle.count, oracle.witnesses)
    assert (report.n_lines if dim == 2 else report.n_planes) == n_flats


def _scan_on_both_number_types(ps, collect):
    """_scan on the sites of ps at the default float limit, then with the
    limit at 0, which keeps the reduced sites ints, as pairs (result, the
    number types of the sites it handed _window_pairs)."""
    pts, weight = _scan_sites(ps)
    window_pairs, types, runs = reporter._window_pairs, set(), []

    def typed(view, *rest):
        types.add(type(view[0][0]))
        return window_pairs(view, *rest)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(reporter, "_window_pairs", typed)
        for limit in (reporter._EXACT_FLOAT, 0):
            patch.setattr(reporter, "_EXACT_FLOAT", limit)
            types.clear()
            runs.append((_scan(pts, weight, ps.dim, collect), types.copy()))
    return runs


def assert_same_scan_on_floats_and_ints(ps, collect):
    (on_floats, float_types), (on_ints, int_types) = _scan_on_both_number_types(ps, collect)
    assert (float_types, int_types) == ({float}, {int})
    assert type(on_floats[0]) is int
    assert on_floats == on_ints  # (det, count, n_flats, ties)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.one_of(tie_heavy_3d(), tie_heavy_2d()), st.booleans())
def test_scan_is_the_same_on_floats_and_ints_on_tie_heavy_sets(ps, collect):
    """The reduced sites of these sets are small, so the scan runs on floats;
    with the limit at 0 it runs the same code on ints."""
    if len(_scan_sites(ps)[0]) > ps.dim:
        assert_same_scan_on_floats_and_ints(ps, collect)


@pytest.mark.parametrize("collect", [False, True])
@pytest.mark.parametrize("ps", [
    gen_min_tetra_prism(32).points,
    gen_lattice_slab3d(18),
    gen_lattice2d(36),
    gen_random_rational(40, 3, seed=11, bound=1000),
], ids=["prism32", "lattice-slab18", "lattice2d-36", "random40"])
def test_scan_is_the_same_on_floats_and_ints(ps, collect):
    assert_same_scan_on_floats_and_ints(ps, collect)


# The largest reduced span whose scan takes floats, 8 span^(2 dim - 2) < 2^53.
FLOAT_SPAN = {3: 5792, 2: 2 ** 25 - 1}


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("past", [0, 1], ids=["floats", "ints"])
@pytest.mark.parametrize("dim", [2, 3])
def test_scan_at_the_float_limit_matches_the_oracle(dim, past, seed):
    """Sets of reduced span FLOAT_SPAN[dim] and one more, with the corners of
    the box, so that their W, cross products and squared tests reach the
    largest values of their side of the limit."""
    span = FLOAT_SPAN[dim] + past
    assert (8 * span ** (2 * dim - 2) < reporter._EXACT_FLOAT) == (not past)
    rng = random.Random(seed)
    corners = list(itertools.product((0, span), repeat=dim))
    rows = corners + [tuple(rng.randint(0, span) for _ in range(dim)) for _ in range(16 - 2 * dim)]
    ps = PointSet(rows)
    pts, _ = _scan_sites(ps)
    assert reporter._reduced(pts) == (pts, 1)
    (_, types), _ = _scan_on_both_number_types(ps, False)
    assert types == ({int} if past else {float})
    report = (min_volume_tetrahedra if dim == 3 else min_area_triangles)(ps)
    oracle = min_volume_simplices(ps, dim)
    measure_sq = report.min_volume_sq if dim == 3 else report.min_area_sq
    assert (measure_sq, report.count, report.witnesses) == (
        oracle.min_squared_volume, oracle.count, oracle.witnesses)


@pytest.mark.parametrize("span", [FLOAT_SPAN[3], FLOAT_SPAN[3] + 1])
def test_limit_point_files_have_their_reduced_span(span):
    """The verification run solves tests/data/span<span>.txt, 20 points on
    each side of the float limit, with the oracle and the charging check."""
    ps = load_point_file(str(Path(__file__).parent / "data" / f"span{span}.txt"))
    reduced, factor = reporter._reduced(_scan_sites(ps)[0])
    assert (len(ps), max(map(max, reduced)), factor) == (20, span, 1)


# A 2D face at the rounding edge of the squared tests.  From a, the classes
# P, Q and X have r_P < r_X < r_Q, P x Q > EDGE_BEST and X x P == EDGE_BEST,
# so the walk from P ties with X behind it and meets Q ahead.  Exactly,
# cr^2 r_P <= EDGE_BEST^2 r_Q for P and Q: their certificate test does not
# settle the face and the break test goes on past Q.  The two sides differ by
# less than their rounding, so on floats without slack both tests decide the
# other way.
EDGE_FACE = [(0, 4671229), (6686401, 16988331), (11632845, 0), (11723297, 8852984)]  # a, Q, X, P
EDGE_BEST = 103407912664988


def test_window_pairs_on_floats_at_the_rounding_edge():
    view = [(x, y, 0) for x, y in EDGE_FACE]
    assert 8 * max(map(max, view)) ** 2 < reporter._EXACT_FLOAT  # a face the scan runs on floats
    a, q, _, p = EDGE_FACE
    px, py, qx, qy = p[0] - a[0], p[1] - a[1], q[0] - a[0], q[1] - a[1]
    rp, rq, cr, bound = px * px + py * py, qx * qx + qy * qy, px * qy - py * qx, EDGE_BEST
    assert rp < rq and cr > bound and rp * cr * cr <= bound * bound * rq
    f = float
    for slack, decides_exactly in ((1, False), (reporter._FLOAT_SLACK, True)):
        bound_sq = f(bound) * f(bound) * slack
        assert (f(cr) * f(cr) * f(rp) <= bound_sq * f(rq)) == decides_exactly  # certificate
        assert (f(rp) * f(cr) * f(cr) > bound_sq * f(rq)) != decides_exactly  # break test
    floats = [tuple(map(f, s)) for s in view]
    got = [reporter._window_pairs(sites, 0, (0, 0, 1), range(1, 4), (), [1] * 4, bound, True,
                                  slack)[:3]
           for sites, slack in ((view, 1), (floats, reporter._FLOAT_SLACK))]
    assert got[0] == got[1] == (bound, 1, [([3], [2])])  # (least, count, ties): P with X


def _mapped(ps, seed):
    """ps under x -> M x + t with M a random integer matrix of det +-1 and t
    a small rational translation, its points permuted; returns the mapped
    set and, per mapped index, the index of its point in ps."""
    rng = random.Random(seed)
    dim = ps.dim
    m = [[int(i == j) for j in range(dim)] for i in range(dim)]
    for _ in range(2 * dim):  # shears keep det == 1
        i, j = rng.sample(range(dim), 2)
        f = rng.choice((-2, -1, 1, 2))
        m[i] = [a + f * b for a, b in zip(m[i], m[j])]
    m = [[-a for a in row] if rng.random() < 0.5 else row for row in rng.sample(m, dim)]
    t = [F(rng.randint(-3, 3), rng.choice((1, 2, 3))) for _ in range(dim)]
    back = rng.sample(range(len(ps)), len(ps))
    rows = [[sum(map(mul, row, ps.points[i])) + c for row, c in zip(m, t)] for i in back]
    return PointSet(rows, dim=dim, allow_duplicates=True), back


def _shapes(report):
    """The multiset of record shapes: witnesses, points (and lines) of each
    flat, and nearest points of each side; sides and keys depend on the map."""
    if isinstance(report, reporter.MinVolumeReport):
        return sorted((s.count, s.n_points, s.n_lines, r.count) for s, r in report.contributing)
    return sorted((s.count, s.n_points, r.count) for s, r in report.contributing)


@pytest.mark.parametrize("ps, witnesses", [
    (gen_min_tetra_prism(64).points, True),
    (gen_min_tetra_prism(128).points, False),
    (gen_lattice_slab3d(32), True),
    (gen_lattice2d(100), True),
], ids=["prism64", "prism128", "lattice-slab32", "lattice2d-100"])
def test_reports_survive_unimodular_maps(ps, witnesses):
    """A map x -> M x + t with det M == +-1 keeps every volume, and a
    permutation of the points renames them.  Both change the sort order of
    the sites, and with it every face, ray table and view of the scan, at
    sizes beyond the oracle's reach."""
    reporter_of = min_volume_tetrahedra if ps.dim == 3 else min_area_triangles
    report = reporter_of(ps, witnesses=witnesses)
    mapped, back = _mapped(ps, seed=len(ps))
    other = reporter_of(mapped, witnesses=witnesses)
    fields = ("min_volume", "count", "n_planes") if ps.dim == 3 else ("min_area", "count", "n_lines")
    assert [getattr(other, f) for f in fields] == [getattr(report, f) for f in fields]
    if witnesses:
        assert sorted(tuple(sorted(back[j] for j in w)) for w in other.witnesses) == list(
            report.witnesses)
        assert _shapes(other) == _shapes(report)


FAR = 10 ** 20


@pytest.mark.parametrize("ps, diagonal, shift", [
    (gen_min_tetra_prism(64).points, (6, 10, 15), (F(1, 2), F(-2, 3), 1)),
    (gen_lattice_slab3d(32), (6, 10, 15), (F(-1, 3), 2, F(1, 2))),
    (gen_lattice2d(100), (4, 9), (F(2, 3), F(-1, 2))),
    (gen_random_rational(60, 3, seed=3, bound=6), (6, 10, 15), (3, F(1, 3), F(-3, 2))),
    # far from the origin: every coordinate is a 21-digit integer
    (gen_random_rational(25, 3, seed=5, bound=40), (1, 1, 1), (FAR, FAR, FAR)),
    (gen_random_rational(25, 2, seed=5, bound=40), (1, 1), (FAR, FAR)),
], ids=["prism64", "lattice-slab32", "lattice2d-100", "random60", "far3", "far2"])
def test_reports_survive_per_axis_maps(ps, diagonal, shift):
    """A map x -> D x + t with D a positive diagonal scales every volume by
    det D and keeps the order of the points on each axis, but not in-plane
    areas or slab distances by one factor: the scan runs on per-axis
    reduced coordinates, whose gcds and offsets the map changes, and the
    records on the uniformly scaled ones."""
    mapped = PointSet([[d * x + t for d, x, t in zip(diagonal, p, shift)] for p in ps.points],
                      dim=ps.dim)
    reporter_of = min_volume_tetrahedra if ps.dim == 3 else min_area_triangles
    measure, flats = ("min_volume", "n_planes") if ps.dim == 3 else ("min_area", "n_lines")
    report, other = reporter_of(ps), reporter_of(mapped)
    assert getattr(other, measure) == math.prod(diagonal) * getattr(report, measure)
    assert (other.count, getattr(other, flats)) == (report.count, getattr(report, flats))
    assert other.witnesses == report.witnesses
    assert _shapes(other) == _shapes(report)


def test_constant_axis_still_reports_coplanar():
    """An axis of one value has offset gcd 0, which the reduction takes as 1:
    at scale 3 the x and z axes have gcd 3 and y adds no factor."""
    ps = PointSet([(x, F(7, 3), z) for x in range(3) for z in range(-2, 2)])
    pts, _ = _scan_sites(ps)
    reduced, factor = reporter._reduced(pts)
    assert {p[1] for p in reduced} == {0} and factor == 3 * 3
    with pytest.raises(AllDegenerate, match="all points are coplanar"):
        min_volume_tetrahedra(ps)
