"""Duality transform: involution, incidence preservation, above/below
reversal and vertical-distance preservation, all exact."""

import random
from decimal import Decimal
from fractions import Fraction as F

import pytest

from simplexvol import DegenerateInput, HyperplaneKey, PointSet, plane_key
from simplexvol.duality import DualPlane, plane_to_point, point_to_plane


def _random_point(rng):
    return tuple(F(rng.randint(-60, 60), rng.randint(1, 9)) for _ in range(3))


def test_example_mapping():
    plane = point_to_plane((1, 2, 3))
    assert (plane.a, plane.b, plane.c) == (1, 2, 3)
    assert plane.z_at(0, 0) == -3  # z = x + 2y - 3
    assert plane_to_point(plane) == (1, 2, 3)


def test_involution_random():
    rng = random.Random(2024)
    for _ in range(400):
        p = _random_point(rng)
        assert plane_to_point(point_to_plane(p)) == p


def test_incidence_preserved():
    rng = random.Random(7)
    for _ in range(400):
        p, q = _random_point(rng), _random_point(rng)
        assert point_to_plane(q).contains(p) == point_to_plane(p).contains(q)


def test_above_below_reversal_and_vertical_distance():
    rng = random.Random(51)
    for _ in range(400):
        p, q = _random_point(rng), _random_point(rng)
        # signed vertical gap of p over q* equals the gap of q over p*
        gap_pq = point_to_plane(q).vertical_offset(p)
        gap_qp = point_to_plane(p).vertical_offset(q)
        assert gap_pq == gap_qp


def test_from_hyperplane_round_trip():
    ps = PointSet([(0, 0, 1), (1, 0, 2), (0, 1, 5), (3, 3, 3)])
    key = plane_key(ps, (0, 1, 2))
    dual = DualPlane.from_hyperplane(key)
    for i in range(3):
        assert dual.contains(ps.points[i])
    assert not dual.contains(ps.points[3])


def test_vertical_plane_rejected():
    vertical = HyperplaneKey(normal=(1, 0, 0), offset=2)
    with pytest.raises(DegenerateInput):
        DualPlane.from_hyperplane(vertical)


def test_point_dimension_checked():
    with pytest.raises(Exception):
        point_to_plane((1, 2))


def test_inexact_coordinates_rejected():
    plane = point_to_plane((1, F(1, 2), "3/4"))
    assert plane.c == F(3, 4)
    # the scalars a point set takes, so no float and no Decimal
    for call in (lambda: point_to_plane((1, 0.5, 0)), lambda: plane.z_at(0.5, 0),
                 lambda: plane.contains((0, 0, 0.5)), lambda: plane.vertical_offset((0.5, 0, 0)),
                 lambda: point_to_plane((Decimal(1), 0, 0))):
        with pytest.raises(TypeError):
            call()
