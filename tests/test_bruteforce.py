"""Brute-force oracle tests: frozen example values and structural invariants."""

import math
import random
from fractions import Fraction as F
from itertools import combinations, product

import pytest

from simplexvol import (
    AllDegenerate,
    DegenerateInput,
    PointSet,
    best_common_face,
    count_simplices_with_volume,
    distinct_areas_from_point,
    distinct_volumes,
    gen_distinct_volume_lines,
    gen_lattice2d,
    gen_min_tetra_prism,
    min_volume_simplices,
    plane_key,
    rich_lines,
    spanned_planes,
)
from simplexvol.exact import _det
from helpers import random_spanning, scale_points


def test_min_simplices_square():
    ps = PointSet([(0, 0), (1, 0), (0, 1), (1, 1)])
    result = min_volume_simplices(ps, 2)
    assert result.min_squared_volume == F(1, 4)
    assert result.count == 4
    assert result.witnesses == tuple(combinations(range(4), 3))


def test_min_simplices_generic_four_points():
    ps = PointSet([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 3)])
    result = min_volume_simplices(ps, 3)
    assert result.count == 1
    assert result.witnesses == ((0, 1, 2, 3),)


def test_min_simplices_prism8():
    out = gen_min_tetra_prism(8, F(1, 64))
    result = min_volume_simplices(out.points, 3)
    assert result.min_squared_volume == F(1, 192) ** 2
    assert result.count == 48


def test_min_simplices_all_degenerate():
    ps = PointSet([(0, 0), (1, 0), (2, 0), (5, 0)])
    with pytest.raises(AllDegenerate):
        min_volume_simplices(ps, 2)


def test_min_simplices_permutation_invariant():
    ps = random_spanning(10, 3, seed=42)
    base = min_volume_simplices(ps, 3)
    perm = list(range(10))
    random.Random(1).shuffle(perm)
    shuffled = PointSet([ps.points[i] for i in perm])
    other = min_volume_simplices(shuffled, 3)
    assert other.min_squared_volume == base.min_squared_volume
    assert other.count == base.count
    mapped = sorted(tuple(sorted(perm.index(i) for i in w)) for w in base.witnesses)
    assert list(other.witnesses) == mapped


def test_count_volume_examples():
    ps = PointSet([(0, 0, 0), (1, 0, 0), (0, 2, 0), (0, 0, 3)])
    assert count_simplices_with_volume(ps, F(1), 3).count == 1
    assert count_simplices_with_volume(ps, F(2), 3).count == 0
    with pytest.raises(ValueError):
        count_simplices_with_volume(ps, F(0), 3)
    with pytest.raises(ValueError):
        count_simplices_with_volume(ps, F(1), 5)


def test_count_refuses_a_float_target():
    # a float holds a binary approximation, not the exact target
    ps = PointSet([(0, 0, 0), (1, 0, 0), (0, 2, 0), (0, 0, 3)])
    with pytest.raises(TypeError):
        count_simplices_with_volume(ps, 1.0, 3)


def test_count_volume_shuffle_consistent():
    grid = gen_lattice2d(9)
    base = count_simplices_with_volume(grid, F(1, 2), 2)
    perm = list(range(9))
    random.Random(3).shuffle(perm)
    shuffled = PointSet([grid.points[i] for i in perm])
    assert count_simplices_with_volume(shuffled, F(1, 2), 2).count == base.count


def test_count_volume_squared_comparison_below_full_dim():
    # k < d compares squared volume: the unit triangle in 3-space has area
    # 1/2, squared 1/4
    ps = PointSet([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 9)])
    assert count_simplices_with_volume(ps, F(1, 4), 2).count == 1


def test_distinct_volumes_simplex_plus_centroid():
    ps = PointSet([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1),
                   (F(1, 4), F(1, 4), F(1, 4))])
    report = distinct_volumes(ps)
    assert report.count == 2
    assert report.distinct_values == (F(1, 24), F(1, 6))


def test_distinct_volumes_dlines():
    out = gen_distinct_volume_lines(7, 3)
    assert distinct_volumes(out.points).count == 2


def test_distinct_volumes_single_simplex():
    ps = PointSet([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert distinct_volumes(ps).count == 1


def test_distinct_volumes_hyperplanar_error():
    ps = PointSet([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)])
    with pytest.raises(AllDegenerate):
        distinct_volumes(ps)


def test_distinct_volumes_scaling_maps_elementwise():
    ps = random_spanning(8, 3, seed=5)
    base = distinct_volumes(ps)
    lam = F(3, 2)
    scaled = distinct_volumes(scale_points(ps, lam))
    assert scaled.distinct_values == tuple(v * lam ** 3 for v in base.distinct_values)


def test_rich_lines_grid():
    grid = gen_lattice2d(9)
    report = rich_lines(grid, 3)
    assert len(report.lines) == 8  # 3 rows, 3 columns, 2 diagonals
    for _, members in report.lines:
        assert len(members) >= 3


def test_rich_lines_general_position_empty():
    ps = PointSet([(0, 0), (1, 0), (0, 1), (2, 3), (5, 1)])
    assert rich_lines(ps, 3).lines == ()


def test_rich_lines_collinear():
    ps = PointSet([(i, 2 * i) for i in range(6)])
    report = rich_lines(ps, 2)
    assert len(report.lines) == 1
    assert report.lines[0][1] == tuple(range(6))


def test_rich_lines_pair_covering():
    ps = random_spanning(12, 2, seed=9)
    report = rich_lines(ps, 2)
    total = sum(math.comb(len(members), 2) for _, members in report.lines)
    assert total == math.comb(len(ps), 2)


def test_rich_lines_threshold_validation():
    ps = PointSet([(0, 0), (1, 1)])
    with pytest.raises(ValueError):
        rich_lines(ps, 1)


def test_spanned_planes_generic_four():
    ps = PointSet([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 3)])
    planes = spanned_planes(ps)
    assert len(planes) == 4
    assert all(len(members) == 3 for _, members in planes)


def test_spanned_planes_with_coplanar_quadruple():
    ps = PointSet([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 2)])
    planes = spanned_planes(ps)
    sizes = sorted(len(members) for _, members in planes)
    assert sizes == [3, 3, 3, 3, 3, 3, 4]


def test_spanned_planes_collinear_empty():
    ps = PointSet([(i, i, i) for i in range(5)])
    assert spanned_planes(ps) == []


def test_spanned_planes_sorted_and_complete():
    ps = random_spanning(9, 3, seed=17)
    planes = spanned_planes(ps)
    keys = [(key.normal, key.offset) for key, _ in planes]
    assert keys == sorted(keys)
    # every incident list is the full intersection with the plane
    for key, members in planes:
        on_plane = tuple(i for i, p in enumerate(ps.points) if key.contains(p))
        assert members == on_plane


def test_spanned_planes_keys_match_plane_key():
    # Mixed prime denominators (the integer keys are reduced by gcds shared
    # with the common denominator), a collinear triple and a duplicate.
    ps = PointSet([(F(1, 2), 0, 0), (0, F(1, 3), 0), (0, 0, F(1, 5)), (F(1, 7), F(1, 7), 1),
                   (1, F(2, 3), F(2, 5)), (2, F(4, 3), F(4, 5)), (0, 0, F(1, 5)),
                   (3, 2, F(6, 5)), (F(3, 2), F(1, 5), F(4, 7))], allow_duplicates=True)
    expected: dict = {}
    for triple in combinations(range(len(ps)), 3):
        try:
            expected.setdefault(plane_key(ps, triple), set()).update(triple)
        except DegenerateInput:
            continue
    assert {key: set(members) for key, members in spanned_planes(ps)} == expected


def test_min_simplices_zero_volume_skipped_with_duplicates():
    ps = PointSet([(0, 0), (0, 0), (1, 0), (0, 1)], allow_duplicates=True)
    result = min_volume_simplices(ps, 2)
    assert result.min_squared_volume == F(1, 4)
    assert result.count == 2  # both labels of the duplicated point participate


def _kernel_sets(d):
    """Small d-dimensional sets for the face-normal scans: lattice subsets,
    lattice subsets with duplicates, and both with coordinates divided by
    distinct primes (mixed denominators), then one hyperplanar set.  In 3D
    three tie-heavy sets follow: 12 points of the box {-2..2}^3 that the
    verification run samples from, the same with two repeated points, and
    the same shifted by a prime-denominator vector."""
    rng = random.Random(d)
    lattice = list(product(range(3 if d > 1 else 9), repeat=d))
    sets = []
    for n in (d + 2, d + 4, d + 5):
        rows = rng.sample(lattice, n)
        sets.append(rows)
        sets.append(rows + rng.sample(rows, 2))
    primes = (2, 3, 5, 7)[:d]
    sets += [[tuple(F(c, p) + F(1, 11) for c, p in zip(r, primes)) for r in rows]
             for rows in sets[-4:]]
    sets.append([r[:-1] + (F(1, 3),) for r in rng.sample(lattice, d + 3)])
    if d == 3:
        rows = rng.sample(list(product(range(-2, 3), repeat=3)), 12)
        shift = (F(1, 7), F(2, 11), F(-3, 13))
        sets += [rows, rows + rng.sample(rows, 2),
                 [tuple(c + t for c, t in zip(r, shift)) for r in rows]]
    return [PointSet(rows, allow_duplicates=True) for rows in sets]


def _reference_volumes(ps):
    """d! * volume of every (d+1)-subset in combinations order, one full
    exact._det of its edge vectors each."""
    out = []
    for idx in combinations(range(len(ps)), ps.dim + 1):
        base = ps.points[idx[0]]
        out.append((idx, abs(_det([[c - b for c, b in zip(ps.points[i], base)]
                                   for i in idx[1:]]))))
    return out


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_full_dimensional_scans_match_per_subset_determinants(d):
    scale = math.factorial(d)
    for ps in _kernel_sets(d):
        vols = _reference_volumes(ps)
        if d == 2:
            # the first partner with the most distinct positive areas over
            # the triangles (p1, p2, q)
            for p1 in range(len(ps)):
                counts = {p2: len({v for idx, v in vols if v and {p1, p2} <= set(idx)})
                          for p2 in range(len(ps)) if p2 != p1}
                best = max(counts, key=counts.get)
                areas = distinct_areas_from_point(ps, p1)
                assert (areas.best_partner, areas.distinct_count) == (best, counts[best])
        positive = sorted({v for _, v in vols if v})
        if not positive:
            with pytest.raises(AllDegenerate):
                min_volume_simplices(ps, d)
            with pytest.raises(AllDegenerate):
                distinct_volumes(ps)
            with pytest.raises(AllDegenerate):
                best_common_face(ps, mode="exhaustive")
            assert count_simplices_with_volume(ps, F(1), d).count == 0
            continue
        least = [idx for idx, v in vols if v == positive[0]]
        result = min_volume_simplices(ps, d)
        assert result.min_squared_volume == (positive[0] / scale) ** 2
        assert result.witnesses == tuple(least)
        assert result.count == len(least)
        assert distinct_volumes(ps).distinct_values == tuple(v / scale for v in positive)
        for v in positive[:: max(1, len(positive) // 3)]:
            report = count_simplices_with_volume(ps, v / scale, d, keep_witnesses=True)
            assert report.witnesses == tuple(idx for idx, w in vols if w == v)
            assert report.count == len(report.witnesses)
        # the exhaustive common face: the first face with the most distinct
        # positive volumes over its apexes
        best = None
        for face in combinations(range(len(ps)), d):
            seen = {v for idx, v in vols if v and set(face) <= set(idx)}
            if seen and (best is None or len(seen) > len(best[1])):
                best = (face, seen)
        common = best_common_face(ps, mode="exhaustive")
        assert common.face == best[0]
        assert common.volumes == tuple(v / scale for v in sorted(best[1]))


def _reference_squared_volumes(ps, k):
    """(k!)^2 times the squared k-volume of every (k+1)-subset in
    combinations order, by Cauchy-Binet: the sum of the squared k x k minors
    of its edge vectors, one exact._det each."""
    out = []
    for idx in combinations(range(len(ps)), k + 1):
        base = ps.points[idx[0]]
        edges = [[c - b for c, b in zip(ps.points[i], base)] for i in idx[1:]]
        out.append((idx, sum(_det([[row[c] for c in cols] for row in edges]) ** 2
                             for cols in combinations(range(ps.dim), k))))
    return out


@pytest.mark.parametrize("d", [2, 3, 4])
def test_lower_dimensional_scans_match_cauchy_binet(d):
    for ps in _kernel_sets(d):
        for k in range(1, d):
            scale = math.factorial(k) ** 2
            vols = _reference_squared_volumes(ps, k)
            positive = sorted({v for _, v in vols if v})
            least = [idx for idx, v in vols if v == positive[0]]
            result = min_volume_simplices(ps, k)
            assert result.min_squared_volume == positive[0] / scale
            assert result.witnesses == tuple(least)
            assert result.count == len(least)
            # a seventh of the least is below every measure: no simplex has it
            for v in positive[:: max(1, len(positive) // 3)] + [positive[0] / 7]:
                report = count_simplices_with_volume(ps, v / scale, k, keep_witnesses=True)
                assert report.witnesses == tuple(idx for idx, w in vols if w == v)
                assert report.count == len(report.witnesses)
