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


# Edges and faces of a tetrahedron 0123 in combinations order; each face
# carries the positions in _EDGES of its edges f0f1, f0f2 and f1f2.
_EDGES = tuple(combinations(range(4), 2))
_FACES = tuple((f, tuple(_EDGES.index(e) for e in combinations(f, 2)))
               for f in combinations(range(4), 3))


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
    taken once; each face that holds a diameter gets |cross|^2 of two of its
    edges, and the first strictly largest wins.  The side is the sign of det
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
    pts = coords[i0], coords[i1], coords[i2], coords[i3]
    (a0, a1, a2), (b0, b1, b2), (c0, c1, c2), (d0, d1, d2) = pts
    # the edge vectors in _EDGES order
    vecs = ((b0 - a0, b1 - a1, b2 - a2), (c0 - a0, c1 - a1, c2 - a2), (d0 - a0, d1 - a1, d2 - a2),
            (c0 - b0, c1 - b1, c2 - b2), (d0 - b0, d1 - b1, d2 - b2), (d0 - c0, d1 - c1, d2 - c2))
    lengths = [x * x + y * y + z * z for x, y, z in vecs]
    max_len = max(lengths)
    area = -1
    for f, edges in _FACES:
        e0, e1, e2 = edges
        if lengths[e0] != max_len and lengths[e1] != max_len and lengths[e2] != max_len:
            continue
        (u0, u1, u2), (v0, v1, v2) = vecs[e0], vecs[e1]
        n0, n1, n2 = u1 * v2 - u2 * v1, u2 * v0 - u0 * v2, u0 * v1 - u1 * v0
        a = n0 * n0 + n1 * n1 + n2 * n2
        if a > area:
            area, face, face_edges, m0, m1, m2 = a, f, edges, n0, n1, n2
    f0, f1, f2 = face
    (p0, p1, p2), (q0, q1, q2) = pts[f0], pts[6 - f0 - f1 - f2]  # the apex: 0 + 1 + 2 + 3 == 6
    det = m0 * (q0 - p0) + m1 * (q1 - p1) + m2 * (q2 - p2)
    if det == 0:
        raise DegenerateInput(f"tetrahedron {tet} is degenerate")
    for e in face_edges:
        if lengths[e] == max_len:
            break
    i, j = _EDGES[e]
    return (tet, (tet[f0], tet[f1], tet[f2]),
            "above" if det * leading_sign((m0, m1, m2)) > 0 else "below",
            (tet[i], tet[j]), max_len, area, det)


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
