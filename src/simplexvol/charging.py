"""Charging of tetrahedra to faces.

Each nondegenerate tetrahedron is assigned to a maximum-area face among the
faces adjacent to a diameter (a longest edge), with deterministic lexicographic
tie-breaking.  Over the minimum-volume witnesses of any point set, no triangle
can absorb more than four charges, and no (triangle, side) pair more than two;
verify_charging measures the observed maxima.

Charging runs on the denominator-cleared integer coordinates of the set
(exact.integer_coordinates): edge lengths, face areas and sides are integer
dot and cross products, and only the three measures of a ChargeRecord are
divided back into Fractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence

from .bruteforce import min_volume_simplices
from .exact import (
    DegenerateInput,
    GeometryError,
    IndexSimplex,
    PointSet,
    as_simplex,
    integer_coordinates,
    leading_sign,
)

__all__ = ["ChargeRecord", "ChargingCheck", "ChargingBoundExceeded",
           "charge_tetrahedron", "verify_charging"]


@dataclass(frozen=True)
class ChargeRecord:
    tetra: IndexSimplex
    face: tuple[int, int, int]
    side: str  # side of the charged face's plane holding the fourth vertex
    diameter: tuple[int, int]
    x0_sq: Fraction  # squared diameter length
    y0_sq: Fraction  # squared height of the face over the diameter
    z0_sq: Fraction  # squared distance from the fourth vertex to the face plane


@dataclass(frozen=True)
class ChargingCheck:
    max_per_face: int
    max_per_face_side: int
    n_witnesses: int


class ChargingBoundExceeded(GeometryError):
    """Over four charges fell on one face, or over two on one (face, side)."""


def _sq(v) -> int:
    return v[0] * v[0] + v[1] * v[1] + v[2] * v[2]


def _normal(p, q, r):
    """(q - p) x (r - p) for integer points."""
    (u0, u1, u2), (v0, v1, v2) = ([b - a for a, b in zip(p, x)] for x in (q, r))
    return (u1 * v2 - u2 * v1, u2 * v0 - u0 * v2, u0 * v1 - u1 * v0)


def _charge(ps: PointSet, coords, scale: int, tetra: Iterable[int]) -> ChargeRecord:
    """charge_tetrahedron on the cleared coordinates coords = scale * points.

    Lengths and areas are compared as integer squared lengths and |cross|^2;
    the side is the sign of normal . (apex - face[0]) with the normal turned
    to its canonical key orientation (exact.leading_sign).  Only the three
    measures of the record are divided back into Fractions.
    """
    tet = as_simplex(tetra, len(ps))
    if len(tet) != 4 or ps.dim != 3:
        raise DegenerateInput("charging needs a tetrahedron in a 3D point set")
    sq_len = {(a, b): _sq([y - x for x, y in zip(coords[a], coords[b])])
              for a, b in combinations(tet, 2)}
    max_len = max(sq_len.values())
    diameters = [e for e, length in sq_len.items() if length == max_len]
    best = None
    for f in combinations(tet, 3):
        if any(set(e) <= set(f) for e in diameters):
            normal = _normal(*(coords[i] for i in f))
            area = _sq(normal)
            if best is None or area > best[1]:
                best = (f, area, normal)
    face, area, normal = best
    apex = next(i for i in tet if i not in face)
    det = sum(c * (x - y) for c, x, y in zip(normal, coords[apex], coords[face[0]]))
    if det == 0:
        raise DegenerateInput(f"tetrahedron {tet} is degenerate")
    diameter = min(e for e in diameters if set(e) <= set(face))
    third = next(i for i in face if i not in diameter)
    s2 = scale * scale
    return ChargeRecord(
        tetra=tet,
        face=face,
        side="above" if det * leading_sign(normal) > 0 else "below",
        diameter=diameter,
        x0_sq=Fraction(max_len, s2),
        y0_sq=Fraction(_sq(_normal(*(coords[i] for i in diameter + (third,)))), max_len * s2),
        z0_sq=Fraction(det * det, area * s2),
    )


def charge_tetrahedron(ps: PointSet, tetra: Iterable[int]) -> ChargeRecord:
    """Assign a tetrahedron to the maximum-area face adjacent to a diameter.

    Ties (equal longest edges, equal face areas) are broken toward the
    lexicographically smallest index tuple, so the assignment is
    deterministic.
    """
    return _charge(ps, *integer_coordinates(ps), tetra)


def verify_charging(ps: PointSet,
                    witnesses: Sequence[IndexSimplex] | None = None) -> ChargingCheck:
    """Charge every minimum-volume tetrahedron and report the maximum number
    of charges per face and per (face, side).

    When witnesses is None the minimum-volume set is computed by the
    brute-force oracle.  Raises ChargingBoundExceeded if the four-per-face /
    two-per-side bounds are exceeded.
    """
    if witnesses is None:
        witnesses = min_volume_simplices(ps, 3).witnesses
    coords, scale = integer_coordinates(ps)
    per_face: dict[tuple[int, int, int], int] = {}
    per_side: dict[tuple[tuple[int, int, int], str], int] = {}
    for tet in witnesses:
        record = _charge(ps, coords, scale, tet)
        per_face[record.face] = per_face.get(record.face, 0) + 1
        key = (record.face, record.side)
        per_side[key] = per_side.get(key, 0) + 1
    check = ChargingCheck(
        max_per_face=max(per_face.values(), default=0),
        max_per_face_side=max(per_side.values(), default=0),
        n_witnesses=len(witnesses),
    )
    if check.max_per_face > 4 or check.max_per_face_side > 2:
        raise ChargingBoundExceeded(
            f"charging bound exceeded: {check.max_per_face} per face, "
            f"{check.max_per_face_side} per side")
    return check
