"""Kernel tests: exact measures, predicates and canonical keys."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simplexvol import (
    DegenerateInput,
    DimensionMismatch,
    HyperplaneKey,
    PointSet,
    hyperplane_key,
    line_key,
    plane_key,
    signed_volume,
    squared_distance_point_plane,
    squared_volume,
)
from simplexvol.exact import _det, face_normal, integer_coordinates, primitive_vector

rational = st.fractions(min_value=-12, max_value=12, max_denominator=6)
point3 = st.tuples(rational, rational, rational)


def test_signed_volume_examples():
    ps = PointSet([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert signed_volume(ps, (0, 1, 2, 3)) == F(1, 6)
    ps = PointSet([(0, 0, 0), (2, 0, 0), (0, 3, 0), (0, 0, 1)])
    assert signed_volume(ps, (0, 1, 2, 3)) == 1
    ps = PointSet([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)])
    assert signed_volume(ps, (0, 1, 2, 3)) == 0


def test_signed_volume_needs_full_simplex():
    ps = PointSet([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    with pytest.raises(DimensionMismatch):
        signed_volume(ps, (0, 1, 2))


def test_squared_volume_examples():
    seg = PointSet([(0, 0, 0), (3, 4, 0)])
    assert squared_volume(seg, (0, 1)) == 25
    tri = PointSet([(0, 0, 0), (1, 0, 0), (0, 1, 0)])
    assert squared_volume(tri, (0, 1, 2)) == F(1, 4)
    collinear = PointSet([(0, 0), (1, 0), (2, 0)])
    assert squared_volume(collinear, (0, 1, 2)) == 0


def test_plane_key_examples():
    ps = PointSet([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert plane_key(ps, (0, 1, 2)) == HyperplaneKey(normal=(0, 0, 1), offset=0)
    assert plane_key(ps, (1, 2, 3)) == HyperplaneKey(normal=(1, 1, 1), offset=1)
    collinear = PointSet([(0, 0, 0), (1, 0, 0), (2, 0, 0)])
    with pytest.raises(DegenerateInput):
        plane_key(collinear, (0, 1, 2))


def test_plane_key_joint_gcd():
    # plane 2x = 1: normal entries are only coprime jointly with the offset
    ps = PointSet([(F(1, 2), 0, 0), (F(1, 2), 1, 0), (F(1, 2), 0, 1)])
    key = plane_key(ps, (0, 1, 2))
    assert key == HyperplaneKey(normal=(2, 0, 0), offset=1)


def test_line_key_examples():
    ps = PointSet([(0, 0, 0), (2, 0, 0)])
    key = line_key(ps, 0, 1)
    assert key.direction == (1, 0, 0)
    assert key.anchor == (0, 0, 0)
    ps = PointSet([(0, 1), (2, 1)])
    key = line_key(ps, 0, 1)
    assert key.direction == (1, 0)
    assert key.anchor == (0, 1)
    dup = PointSet([(1, 1), (1, 1)], allow_duplicates=True)
    with pytest.raises(DegenerateInput):
        line_key(dup, 0, 1)


def test_squared_distance_examples():
    z0 = HyperplaneKey(normal=(0, 0, 1), offset=0)
    assert squared_distance_point_plane((0, 0, 5), z0) == 25
    assert squared_distance_point_plane((7, -3, 0), z0) == 0
    sum1 = HyperplaneKey(normal=(1, 1, 1), offset=1)
    assert squared_distance_point_plane((1, 1, 1), sum1) == F(4, 3)


def test_pointset_duplicate_rejection():
    with pytest.raises(ValueError):
        PointSet([(0, 0), (0, 0)])
    ps = PointSet([(0, 0), (0, 0)], allow_duplicates=True)
    assert len(ps) == 2


def test_pointset_rejects_floats():
    with pytest.raises(TypeError):
        PointSet([(0.5, 1)])


def test_pointset_dimension_checks():
    with pytest.raises(DimensionMismatch):
        PointSet([(0, 0), (1, 2, 3)])
    with pytest.raises(ValueError):
        PointSet([], dim=None)


def test_integer_coordinates_roundtrip():
    ps = PointSet([(F(1, 2), F(2, 3)), (F(-5, 6), 1)])
    coords, scale = integer_coordinates(ps)
    assert scale == 6
    for pt, row in zip(ps.points, coords):
        assert all(F(c, scale) == orig for c, orig in zip(row, pt))


@pytest.mark.parametrize("rows, expected_scale", [
    ([(F(-7, 4), F(5, 6), -3), (F(-1, 9), 0, F(11, 4)), (2, F(-13, 6), F(1, 9))], 36),
    ([(-5, 0, 7), (3, -2, 0)], 1),
    ([(F(-3, 10), F(4, 15)), (F(-1, 6), -1)], 30),
], ids=["negative-mixed-denominators", "integers", "2d"])
def test_integer_coordinates_scales_by_the_denominator_lcm(rows, expected_scale):
    ps = PointSet(rows)
    coords, scale = integer_coordinates(ps)
    assert scale == expected_scale
    assert coords == [tuple(c * scale for c in pt) for pt in ps.points]
    assert all(type(c) is int for row in coords for c in row)


def test_primitive_vector():
    assert primitive_vector((4, -6, 2)) == (2, -3, 1)
    assert primitive_vector((-4, 6, -2)) == (2, -3, 1)
    assert primitive_vector((0, -5, 0)) == (0, 1, 0)
    with pytest.raises(DegenerateInput):
        primitive_vector((0, 0, 0))


@settings(max_examples=60, deadline=None)
@given(st.lists(point3, min_size=4, max_size=4, unique=True))
def test_signed_volume_alternating(rows):
    ps = PointSet(rows, allow_duplicates=True)
    swapped = PointSet([rows[1], rows[0], rows[2], rows[3]], allow_duplicates=True)
    assert signed_volume(swapped, (0, 1, 2, 3)) == -signed_volume(ps, (0, 1, 2, 3))


@settings(max_examples=60, deadline=None)
@given(st.lists(point3, min_size=4, max_size=4, unique=True))
def test_squared_volume_matches_signed(rows):
    ps = PointSet(rows, allow_duplicates=True)
    assert squared_volume(ps, (0, 1, 2, 3)) == signed_volume(ps, (0, 1, 2, 3)) ** 2


@settings(max_examples=40, deadline=None)
@given(st.lists(point3, min_size=2, max_size=4, unique=True),
       st.fractions(min_value=F(1, 4), max_value=6, max_denominator=4))
def test_squared_volume_scaling(rows, lam):
    ps = PointSet(rows, allow_duplicates=True)
    scaled = PointSet([[c * lam for c in p] for p in rows], allow_duplicates=True)
    k = len(rows) - 1
    idx = tuple(range(len(rows)))
    assert squared_volume(scaled, idx) == squared_volume(ps, idx) * lam ** (2 * k)


@settings(max_examples=40, deadline=None)
@given(st.lists(point3, min_size=3, max_size=3, unique=True), rational, rational)
def test_degeneracy_affine_invariant(rows, s, t):
    # fourth point affinely dependent on the first three stays dependent
    # under any invertible rational affine map
    a, b, c = rows
    dep = tuple(ai + s * (bi - ai) + t * (ci - ai) for ai, bi, ci in zip(a, b, c))
    ps = PointSet([a, b, c, dep], allow_duplicates=True)
    assert squared_volume(ps, (0, 1, 2, 3)) == 0
    mat = ((2, 1, 0), (0, 1, 0), (1, 3, F(1, 2)))  # det = 1
    shift = (F(5, 3), -2, 7)

    def apply(p):
        return tuple(sum(m * c for m, c in zip(row, p)) + o
                     for row, o in zip(mat, shift))

    mapped = PointSet([apply(p) for p in ps.points], allow_duplicates=True)
    assert squared_volume(mapped, (0, 1, 2, 3)) == 0


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5).flatmap(
    lambda d: st.lists(st.tuples(*[rational] * d), min_size=d + 1, max_size=d + 1)))
def test_face_normal_gives_signed_determinant(rows):
    # normal . q - offset is det(p1 - p0, ..., q - p0) with its sign, for
    # Fraction points and for their cleared integer images
    for pts in (rows, integer_coordinates(PointSet(rows, allow_duplicates=True))[0]):
        normal, offset = face_normal(pts[:-1])
        det = _det([[c - b for c, b in zip(p, pts[0])] for p in pts[1:]])
        assert sum(n * c for n, c in zip(normal, pts[-1])) - offset == det


def test_plane_key_canonical_across_representations():
    # x + 2y - z = 3 sampled at three different triples
    def on_plane(x, y):
        return (x, y, x + 2 * y - 3)

    pts = [on_plane(F(a, b), F(c, 2)) for a, b, c in
           [(0, 1, 0), (1, 1, 0), (0, 1, 1), (7, 3, 5), (-2, 5, 9), (1, 4, -3)]]
    ps = PointSet(pts)
    keys = {plane_key(ps, t) for t in [(0, 1, 2), (3, 4, 5), (0, 2, 4)]}
    assert len(keys) == 1
    assert keys.pop() == HyperplaneKey(normal=(1, 2, -1), offset=3)


def test_line_key_canonical_across_representations():
    pts = [(F(i, 2), F(3 * i, 2) + 1) for i in (-2, 0, 1, 5)]
    ps = PointSet(pts)
    keys = {line_key(ps, i, j) for i in range(4) for j in range(4) if i != j}
    assert len(keys) == 1


def test_hyperplane_key_general_dimension():
    ps = PointSet([(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)])
    key = hyperplane_key(ps, (0, 1, 2, 3))
    assert key == HyperplaneKey(normal=(0, 0, 0, 1), offset=0)
