"""Charging of tetrahedra to faces.

Each nondegenerate tetrahedron is assigned to a maximum-area face among the
faces adjacent to a diameter (a longest edge), with deterministic lexicographic
tie-breaking.  Over the minimum-volume witnesses of any point set, no triangle
can absorb more than four charges, and no (triangle, side) pair more than two;
verify_charging measures the observed maxima.

Charging runs on the denominator-cleared integer coordinates of the set
(exact.integer_coordinates): edge lengths, face areas and sides are integer
dot and cross products, and only the three measures of a ChargeRecord are
divided back into Fractions.  verify_charging tallies the faces and sides
straight from the integer kernel and builds no record.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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


def _charge(ps: PointSet, coords, tetra: Iterable[int]) -> tuple:
    """The charge of a tetrahedron of ps in the cleared coordinates coords,
    as (tet, face, side, diameter, x0, area, det): the sorted indices, the
    charged face and the side of its plane holding the fourth vertex, the
    diameter, and the integers x0 = |diameter|^2, area = |cross|^2 of the
    face's two edges and det = normal . (apex - face[0]) in those
    coordinates.

    A tuple of four increasing indices in range, as the reporters' witnesses
    come, is taken as it is; any other tetra goes through as_simplex, which
    sorts and validates it.  The six edge vectors and squared lengths are
    taken once, as locals.  The four faces follow in combinations order,
    written out: each face that holds a diameter gets |cross|^2 of its
    first two edges, and the first strictly largest wins.  The winner's det
    and diameter come from the same locals.  The side is the sign of det
    with the normal in its canonical key orientation (exact.leading_sign).
    """
    n = len(ps)
    if type(tetra) is tuple and len(tetra) == 4 and 0 <= tetra[0] < tetra[1] < tetra[2] < tetra[3] < n:
        tet = tetra
    else:
        tet = as_simplex(tetra, n)
    if len(tet) != 4 or ps.dim != 3:
        raise DegenerateInput("charging needs a tetrahedron in a 3D point set")
    i0, i1, i2, i3 = tet
    (a0, a1, a2), (b0, b1, b2) = coords[i0], coords[i1]
    (c0, c1, c2), (d0, d1, d2) = coords[i2], coords[i3]
    ab0, ab1, ab2 = b0 - a0, b1 - a1, b2 - a2
    ac0, ac1, ac2 = c0 - a0, c1 - a1, c2 - a2
    ad0, ad1, ad2 = d0 - a0, d1 - a1, d2 - a2
    bc0, bc1, bc2 = c0 - b0, c1 - b1, c2 - b2
    bd0, bd1, bd2 = d0 - b0, d1 - b1, d2 - b2
    cd0, cd1, cd2 = d0 - c0, d1 - c1, d2 - c2
    lab = ab0 * ab0 + ab1 * ab1 + ab2 * ab2
    lac = ac0 * ac0 + ac1 * ac1 + ac2 * ac2
    lad = ad0 * ad0 + ad1 * ad1 + ad2 * ad2
    lbc = bc0 * bc0 + bc1 * bc1 + bc2 * bc2
    lbd = bd0 * bd0 + bd1 * bd1 + bd2 * bd2
    lcd = cd0 * cd0 + cd1 * cd1 + cd2 * cd2
    max_len = max(lab, lac, lad, lbc, lbd, lcd)
    # the faces 012, 013, 023 and 123 in turn
    area = -1
    if lab == max_len or lac == max_len or lbc == max_len:
        m0, m1, m2 = ab1 * ac2 - ab2 * ac1, ab2 * ac0 - ab0 * ac2, ab0 * ac1 - ab1 * ac0
        area, f = m0 * m0 + m1 * m1 + m2 * m2, 0
    if lab == max_len or lad == max_len or lbd == max_len:
        n0, n1, n2 = ab1 * ad2 - ab2 * ad1, ab2 * ad0 - ab0 * ad2, ab0 * ad1 - ab1 * ad0
        a = n0 * n0 + n1 * n1 + n2 * n2
        if a > area:
            area, f, m0, m1, m2 = a, 1, n0, n1, n2
    if lac == max_len or lad == max_len or lcd == max_len:
        n0, n1, n2 = ac1 * ad2 - ac2 * ad1, ac2 * ad0 - ac0 * ad2, ac0 * ad1 - ac1 * ad0
        a = n0 * n0 + n1 * n1 + n2 * n2
        if a > area:
            area, f, m0, m1, m2 = a, 2, n0, n1, n2
    if lbc == max_len or lbd == max_len or lcd == max_len:
        n0, n1, n2 = bc1 * bd2 - bc2 * bd1, bc2 * bd0 - bc0 * bd2, bc0 * bd1 - bc1 * bd0
        a = n0 * n0 + n1 * n1 + n2 * n2
        if a > area:
            area, f, m0, m1, m2 = a, 3, n0, n1, n2
    # det = normal . (apex - face[0]); the diameter is the face's first
    # longest edge in the order f0f1, f0f2, f1f2
    if f == 0:
        face, det = (i0, i1, i2), m0 * ad0 + m1 * ad1 + m2 * ad2
        diameter = (i0, i1) if lab == max_len else (i0, i2) if lac == max_len else (i1, i2)
    elif f == 1:
        face, det = (i0, i1, i3), m0 * ac0 + m1 * ac1 + m2 * ac2
        diameter = (i0, i1) if lab == max_len else (i0, i3) if lad == max_len else (i1, i3)
    elif f == 2:
        face, det = (i0, i2, i3), m0 * ab0 + m1 * ab1 + m2 * ab2
        diameter = (i0, i2) if lac == max_len else (i0, i3) if lad == max_len else (i2, i3)
    else:
        face, det = (i1, i2, i3), -(m0 * ab0 + m1 * ab1 + m2 * ab2)
        diameter = (i1, i2) if lbc == max_len else (i1, i3) if lbd == max_len else (i2, i3)
    if det == 0:
        raise DegenerateInput(f"tetrahedron {tet} is degenerate")
    return (tet, face, "above" if det * leading_sign((m0, m1, m2)) > 0 else "below",
            diameter, max_len, area, det)


def charge_tetrahedron(ps: PointSet, tetra: Iterable[int]) -> ChargeRecord:
    """Assign a tetrahedron to the maximum-area face adjacent to a diameter.

    Ties (equal longest edges, equal face areas) are broken toward the
    lexicographically smallest index tuple, so the assignment is
    deterministic.
    """
    coords, scale = integer_coordinates(ps)
    tet, face, side, diameter, x0, area, det = _charge(ps, coords, tetra)
    s2 = scale * scale
    return ChargeRecord(
        tetra=tet,
        face=face,
        side=side,
        diameter=diameter,
        x0_sq=Fraction(x0, s2),
        y0_sq=Fraction(area, x0 * s2),
        z0_sq=Fraction(det * det, area * s2),
    )


def verify_charging(ps: PointSet,
                    witnesses: Sequence[IndexSimplex] | None = None) -> ChargingCheck:
    """Charge every minimum-volume tetrahedron and report the maximum number
    of charges per face and per (face, side).

    When witnesses is None the minimum-volume set is computed by the
    brute-force oracle.  The bounds are about tetrahedra of distinct points,
    so on a set with coincident points each witness is taken at the first
    index of each of its points, and each distinct tetrahedron is charged
    once; n_witnesses stays the number of witnesses given.  Raises
    ChargingBoundExceeded if the four-per-face / two-per-side bounds are
    exceeded.
    """
    if witnesses is None:
        witnesses = min_volume_simplices(ps, 3).witnesses
    n_witnesses = len(witnesses)
    coords, _ = integer_coordinates(ps)
    if len(set(coords)) < len(coords):
        first: dict[tuple[int, ...], int] = {}
        at = [first.setdefault(p, i) for i, p in enumerate(coords)]
        distinct = set()
        for tet in witnesses:
            tet = as_simplex(tet, len(ps))
            points = tuple(sorted({at[i] for i in tet}))
            if len(points) < len(tet):
                raise DegenerateInput(f"tetrahedron {tet} is degenerate")
            distinct.add(points)
        witnesses = distinct
    per_face: dict[tuple[int, int, int], int] = {}
    per_side: dict[tuple[tuple[int, int, int], str], int] = {}
    for tet in witnesses:
        charge = _charge(ps, coords, tet)
        face, key = charge[1], charge[1:3]  # the face, and (face, side)
        per_face[face] = per_face.get(face, 0) + 1
        per_side[key] = per_side.get(key, 0) + 1
    check = ChargingCheck(
        max_per_face=max(per_face.values(), default=0),
        max_per_face_side=max(per_side.values(), default=0),
        n_witnesses=n_witnesses,
    )
    if check.max_per_face > 4 or check.max_per_face_side > 2:
        raise ChargingBoundExceeded(
            f"charging bound exceeded: {check.max_per_face} per face, "
            f"{check.max_per_face_side} per side")
    return check
