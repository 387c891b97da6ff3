"""Charging scheme: diameter-adjacent max-area face selection and the
per-face / per-side bounds over minimum-volume witnesses."""

import itertools
import math
import random
from collections import Counter
from fractions import Fraction as F

import pytest

from simplexvol import (
    DegenerateInput,
    PointSet,
    charge_tetrahedron,
    gen_min_tetra_prism,
    min_volume_simplices,
    plane_key,
    squared_distance_point_plane,
    squared_volume,
    verify_charging,
)
from helpers import random_spanning


def test_charged_face_contains_unique_long_edge():
    # one clearly longest edge 0-1: the charged face must contain it
    ps = PointSet([(0, 0, 0), (10, 0, 0), (5, 1, 0), (5, 0, 1)])
    record = charge_tetrahedron(ps, (0, 1, 2, 3))
    assert record.diameter == (0, 1)
    assert set(record.diameter) <= set(record.face)
    assert record.x0_sq == 100


def test_charge_record_frame_values():
    ps = PointSet([(0, 0, 0), (4, 0, 0), (2, 3, 0), (2, 0, 2)])
    record = charge_tetrahedron(ps, (0, 1, 2, 3))
    assert record.diameter == (0, 1)
    assert record.face == (0, 1, 2)  # height 3 beats height 2
    assert record.y0_sq == 9
    assert record.z0_sq == 4
    assert record.side == "above" or record.side == "below"


def test_degenerate_tetra_rejected():
    ps = PointSet([(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0)])
    with pytest.raises(DegenerateInput):
        charge_tetrahedron(ps, (0, 1, 2, 3))


def test_empty_witness_list_gives_zero_maxima():
    ps = PointSet([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    check = verify_charging(ps, witnesses=[])
    assert check.max_per_face == 0
    assert check.max_per_face_side == 0


def test_bounds_on_prism_witnesses():
    for n in (8, 12):
        out = gen_min_tetra_prism(n)
        check = verify_charging(out.points)
        assert check.n_witnesses == out.expected["count"]
        assert check.max_per_face <= 4
        assert check.max_per_face_side <= 2


def test_bounds_on_random_sets():
    for seed in range(30):
        n = 6 + seed % 15
        ps = random_spanning(n, 3, seed=7000 + seed)
        oracle = min_volume_simplices(ps, 3)
        check = verify_charging(ps, witnesses=oracle.witnesses)
        assert check.max_per_face <= 4
        assert check.max_per_face_side <= 2
        assert oracle.count <= 4 * math.comb(n, 3)


def _reference_record(ps, tet):
    """The charge of a tetrahedron recomputed on the Fraction kernel."""
    length = {e: squared_volume(ps, e) for e in itertools.combinations(tet, 2)}
    x0_sq = max(length.values())
    diameters = [e for e in length if length[e] == x0_sq]
    faces = [f for f in itertools.combinations(tet, 3)
             if any(set(e) <= set(f) for e in diameters)]
    face = max(faces, key=lambda f: squared_volume(ps, f))  # first of the largest
    diameter = min(e for e in diameters if set(e) <= set(face))
    third = next(i for i in face if i not in diameter)
    apex = next(i for i in tet if i not in face)
    key = plane_key(ps, face)
    return {
        "face": face,
        "diameter": diameter,
        "x0_sq": x0_sq,
        "y0_sq": 4 * squared_volume(ps, (third,) + diameter) / x0_sq,
        "z0_sq": squared_distance_point_plane(ps.points[apex], key),
        "side": "above" if key.side_of(ps.points[apex]) > 0 else "below",
    }


def _charging_inputs():
    rng = random.Random(20071022)
    box = list(itertools.product(range(3), range(3), range(2)))
    primes = (2, 3, 5, 7, 11)
    sets = [PointSet(box), PointSet(list(itertools.product(range(4), range(2), range(2))))]
    for _ in range(6):
        # lattice subsets: equal diameters and equal face areas
        sets.append(PointSet(rng.sample(box, rng.randint(7, 12))))
    for _ in range(6):
        # coordinates with mixed prime denominators
        pts = {tuple(F(rng.randint(-9, 9), rng.choice(primes)) for _ in range(3))
               for _ in range(rng.randint(6, 10))}
        sets.append(PointSet(sorted(pts)))
    for _ in range(4):
        # translated lattice subsets: the ties stay, the scale grows
        shift = [F(rng.randint(-99, 99), rng.choice(primes)) for _ in range(3)]
        sets.append(PointSet([tuple(c + t for c, t in zip(p, shift))
                              for p in rng.sample(box, rng.randint(7, 12))]))
    # the regular lattice tetrahedron, six equal diameters and four faces of
    # equal area, and copies of it shifted inside the box {0..3}^3; every
    # point has an even coordinate sum, so no tetrahedron is smaller
    regular = [(0, 0, 0), (1, 1, 0), (1, 0, 1), (0, 1, 1)]
    sets.append(PointSet(regular))
    for shifts in ([(0, 0, 0), (2, 2, 2)], [(0, 0, 0), (1, 1, 0), (2, 0, 2), (0, 2, 2)]):
        sets.append(PointSet(sorted({tuple(c + t for c, t in zip(p, shift))
                                     for shift in shifts for p in regular})))
    # the cube's corners: its corner tetrahedra have three equal diameters,
    # and its path tetrahedra two diameter faces of equal area
    sets.append(PointSet(list(itertools.product(range(2), repeat=3))))
    return sets


def test_integer_charging_matches_fraction_kernel():
    checked = 0
    for ps in _charging_inputs():
        for tet in min_volume_simplices(ps, 3).witnesses:
            record = charge_tetrahedron(ps, tet)
            assert record.tetra == tet
            assert {name: getattr(record, name) for name in (
                "face", "diameter", "x0_sq", "y0_sq", "z0_sq", "side")} == _reference_record(ps, tet)
            checked += 1
    assert checked > 1000


def test_verify_charging_tallies_the_charged_faces_and_sides():
    for ps in _charging_inputs():
        witnesses = min_volume_simplices(ps, 3).witnesses
        per_face, per_side = Counter(), Counter()
        for tet in witnesses:
            record = charge_tetrahedron(ps, tet)
            per_face[record.face] += 1
            per_side[record.face, record.side] += 1
        check = verify_charging(ps, witnesses)
        assert check.max_per_face == max(per_face.values())
        assert check.max_per_face_side == max(per_side.values())
        assert check.n_witnesses == len(witnesses)


def test_verify_charging_validates_every_witness():
    ps = PointSet([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 0, 0)])
    good = (0, 1, 2, 3)
    with pytest.raises(DegenerateInput, match="degenerate"):
        verify_charging(ps, [good, (0, 1, 2, 4)])  # 0, 1, 4 on one line
    with pytest.raises(ValueError, match="out of range"):
        verify_charging(ps, [good, (0, 1, 2, 5)])
    with pytest.raises(ValueError, match="distinct"):
        verify_charging(ps, [good, (0, 1, 2, 2)])
    with pytest.raises(DegenerateInput, match="tetrahedron"):
        verify_charging(ps, [good, (0, 1, 2)])


def test_verify_charging_charges_each_tetrahedron_of_coincident_points_once():
    # the prism with copies of its first three points: the oracle lists one
    # witness per choice among coincident points, and the bounds hold for
    # the distinct tetrahedra, which are the prism's own
    prism = gen_min_tetra_prism(16).points
    ps = PointSet(list(prism.points) + list(prism.points[:3]), allow_duplicates=True)
    witnesses = min_volume_simplices(ps, 3).witnesses
    assert len(witnesses) == 1128
    check = verify_charging(ps, witnesses)
    assert check == verify_charging(ps)
    distinct = verify_charging(prism)
    assert (check.max_per_face, check.max_per_face_side) == (
        distinct.max_per_face, distinct.max_per_face_side) == (3, 2)
    assert check.n_witnesses == 1128
    # a witness of a copy is validated like any other
    with pytest.raises(ValueError, match="out of range"):
        verify_charging(ps, [witnesses[0], (0, 1, 2, len(ps))])
    with pytest.raises(DegenerateInput, match="degenerate"):
        verify_charging(ps, [witnesses[0], (0, 1, 2, len(prism))])  # the copy of point 0
