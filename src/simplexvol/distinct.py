"""Distinct-volume machinery: exact orthogonal projection along a spanned
flat, the distinct-area search from a fixed point, and the common-face
distinct-volume search, together with the projection volume identity that
ties the planar picture back to full-dimensional simplices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence

from .exact import (
    AllDegenerate,
    DegenerateInput,
    DimensionMismatch,
    PointSet,
    _det,
    hyperplane_key,
    integer_coordinates,
    primitive_vector,
    squared_volume,
)

__all__ = [
    "ProjectedSet",
    "DistinctAreaResult",
    "CommonFaceResult",
    "project_orthogonal",
    "distinct_areas_from_point",
    "best_common_face",
    "check_projection_volume_identity",
]

EXHAUSTIVE_FACE_LIMIT = 10 ** 6


@dataclass(frozen=True)
class ProjectedSet:
    """Image of a point set under exact orthogonal projection onto the plane
    orthogonal to the given flat directions.

    Coordinates are expressed in a rational basis of the orthogonal
    complement, which need not be orthonormal: true squared areas equal
    coordinate squared areas times area_sq_scale (the Gram determinant of
    the basis).  Index i of the image corresponds to index i of the source;
    points differing only along the flat collapse onto one image point.
    """
    points: PointSet  # 2D, same length and order as the source set
    directions: tuple[tuple[Fraction, ...], ...]
    basis: tuple[tuple[Fraction, ...], tuple[Fraction, ...]]
    area_sq_scale: Fraction


@dataclass(frozen=True)
class DistinctAreaResult:
    base_point: int
    best_partner: int
    distinct_count: int
    hypothesis_holds: bool  # every line through the base point avoids third points


@dataclass(frozen=True)
class CommonFaceResult:
    face: tuple[int, ...]
    distinct_count: int
    volumes: tuple[Fraction, ...]
    mode: str


def _frac_vector(vec: Sequence, dim: int) -> tuple[Fraction, ...]:
    if len(vec) != dim:
        raise DimensionMismatch(f"direction {vec} does not have {dim} coordinates")
    out = []
    for c in vec:
        if isinstance(c, float):
            raise TypeError("directions must be exact rationals")
        out.append(Fraction(c))
    return tuple(out)


def _integer_direction(vec: Sequence[Fraction]) -> tuple[int, ...]:
    scale = math.lcm(*(c.denominator for c in vec))
    return primitive_vector(tuple(int(c * scale) for c in vec))


def _complement_basis(directions, dim):
    """Rational basis of the orthogonal complement of the span of the given
    row vectors, via Gaussian elimination (nullspace of the row matrix)."""
    rows = [list(d) for d in directions]
    pivots: list[int] = []
    r = 0
    for col in range(dim):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][col]
        rows[r] = [v / inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                factor = rows[i][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
    if r != len(rows):
        raise DegenerateInput("flat directions are linearly dependent")
    basis = []
    for col in (c for c in range(dim) if c not in pivots):
        vec = [Fraction(0)] * dim
        vec[col] = Fraction(1)
        for row_idx, pcol in enumerate(pivots):
            vec[pcol] = -rows[row_idx][col]
        basis.append(tuple(vec))
    return basis


def project_orthogonal(ps: PointSet, directions: Iterable[Sequence]) -> ProjectedSet:
    """Exact orthogonal projection of the whole set onto the plane orthogonal
    to the given (independent, rational) directions.

    The ambient dimension minus the number of directions must be 2; with no
    directions the projection is the identity on a 2D set.
    """
    dim = ps.dim
    dirs = tuple(_frac_vector(d, dim) for d in directions)
    if dim - len(dirs) != 2:
        raise DimensionMismatch(
            f"projecting out {len(dirs)} directions from R^{dim} does not leave a plane")
    b1, b2 = _complement_basis(dirs, dim)
    g11 = sum(a * a for a in b1)
    g12 = sum(a * b for a, b in zip(b1, b2))
    g22 = sum(a * a for a in b2)
    det_g = g11 * g22 - g12 * g12
    rows = []
    for p in ps.points:
        # coords = G^-1 B^T p: the orthogonal projection expressed in the basis
        t1 = sum(a * c for a, c in zip(b1, p))
        t2 = sum(a * c for a, c in zip(b2, p))
        rows.append(((g22 * t1 - g12 * t2) / det_g, (g11 * t2 - g12 * t1) / det_g))
    return ProjectedSet(
        points=PointSet(rows, dim=2, allow_duplicates=True),
        directions=dirs,
        basis=(tuple(b1), tuple(b2)),
        area_sq_scale=det_g,
    )


def distinct_areas_from_point(ps: PointSet, p1: int) -> DistinctAreaResult:
    """Find a partner p2 maximizing the number of distinct positive areas of
    the triangles (p1, p2, q) over the remaining points q.

    The search is meaningful when no line through p1 contains two further
    points of the set; that hypothesis is checked and reported, but the scan
    runs either way.  Ties on the count go to the smallest partner index.
    """
    if ps.dim != 2:
        raise DimensionMismatch("distinct-area search runs in the plane")
    n = len(ps)
    if not 0 <= p1 < n:
        raise ValueError(f"index {p1} out of range")
    if n < 3:
        raise ValueError("need at least three points")
    base = ps.points[p1]

    hypothesis = True
    seen_dirs: set[tuple[int, ...]] = set()
    for i in range(n):
        if i == p1:
            continue
        diff = tuple(c - b for c, b in zip(ps.points[i], base))
        if not any(diff):
            hypothesis = False  # a duplicate of p1 lies on every line through it
            continue
        d = _integer_direction(diff)
        if d in seen_dirs:
            hypothesis = False
        seen_dirs.add(d)

    best_partner = -1
    best_count = -1
    for p2 in range(n):
        if p2 == p1:
            continue
        u = tuple(c - b for c, b in zip(ps.points[p2], base))
        areas = set()
        for q in range(n):
            if q == p1 or q == p2:
                continue
            v = tuple(c - b for c, b in zip(ps.points[q], base))
            cross = u[0] * v[1] - u[1] * v[0]
            if cross:
                areas.add(abs(cross))  # 2x area; distinct counts agree
        if len(areas) > best_count:
            best_partner, best_count = p2, len(areas)
    return DistinctAreaResult(
        base_point=p1,
        best_partner=best_partner,
        distinct_count=best_count,
        hypothesis_holds=hypothesis,
    )


def _face_nondegenerate(coords, face) -> bool:
    if len(face) == 1:
        return True
    base = coords[face[0]]
    edges = [tuple(c - b for c, b in zip(coords[i], base)) for i in face[1:]]
    gram = [[sum(a * b for a, b in zip(u, v)) for v in edges] for u in edges]
    return _det(gram) != 0


def _distinct_apex_volumes(coords, face, n) -> set[int]:
    """Distinct positive |det| over simplices face + {q}, scaled integers."""
    base = coords[face[0]]
    edges = [tuple(c - b for c, b in zip(coords[i], base)) for i in face[1:]]
    seen: set[int] = set()
    for q in range(n):
        if q in face:
            continue
        det = _det(edges + [tuple(c - b for c, b in zip(coords[q], base))])
        if det:
            seen.add(abs(det))
    return seen


def best_common_face(ps: PointSet, mode: str = "exhaustive") -> CommonFaceResult:
    """Find a (d-1)-dimensional face spanning many full-dimensional simplices
    of distinct volumes.

    mode="exhaustive" scans every nondegenerate (d-1)-simplex and maximizes
    the distinct-volume count (guarded to 10^6 face candidates).
    mode="heuristic" is the constructive search: take a (d-1)-tuple spanning
    the most distinct hyperplanes, keep the smallest-index representative per
    hyperplane, project along the tuple's flat, and extend the tuple by the
    partner maximizing distinct areas in the projection.
    """
    d = ps.dim
    n = len(ps)
    if n < d + 1:
        raise AllDegenerate(f"need at least {d + 1} points in R^{d}")
    coords, scale = integer_coordinates(ps)
    denom = math.factorial(d) * scale ** d

    if mode == "exhaustive":
        if math.comb(n, d) > EXHAUSTIVE_FACE_LIMIT:
            raise ValueError(
                f"C({n},{d}) face candidates exceed the exhaustive budget; "
                "use mode='heuristic'")
        best = None
        for face in combinations(range(n), d):
            if not _face_nondegenerate(coords, face):
                continue
            vols = _distinct_apex_volumes(coords, face, n)
            if vols and (best is None or len(vols) > len(best[1])):
                best = (face, vols)
        if best is None:
            raise AllDegenerate("the point set lies in a hyperplane")
        face, vols = best
        return CommonFaceResult(
            face=face,
            distinct_count=len(vols),
            volumes=tuple(Fraction(v, denom) for v in sorted(vols)),
            mode=mode,
        )

    if mode != "heuristic":
        raise ValueError(f"unknown mode {mode!r}")
    if d < 2:
        raise DimensionMismatch("the heuristic search needs ambient dimension >= 2")

    # 1. the (d-1)-tuple participating in the most distinct spanned hyperplanes
    best_tuple = None
    best_planes: dict | None = None
    for tup in combinations(range(n), d - 1):
        if len(tup) >= 2 and squared_volume(ps, tup) == 0:
            continue
        planes: dict = {}
        for q in range(n):
            if q in tup:
                continue
            try:
                key = hyperplane_key(ps, tup + (q,))
            except DegenerateInput:
                continue
            planes.setdefault(key, q)  # q ascending: first seen is smallest
        if best_planes is None or len(planes) > len(best_planes):
            best_tuple, best_planes = tup, planes
    if best_planes is None or len(best_planes) < 2:
        raise AllDegenerate("the point set lies in a hyperplane")

    # 2. one representative point per hyperplane
    reps = sorted(best_planes.values())

    # 3. project along the tuple's flat; the tuple collapses to one image point
    base_pt = ps.points[best_tuple[0]]
    dirs = [tuple(c - b for c, b in zip(ps.points[i], base_pt))
            for i in best_tuple[1:]]
    proj = project_orthogonal(ps, dirs)
    image_rows = [proj.points.points[i] for i in reps] + [proj.points.points[best_tuple[0]]]
    sub = PointSet(image_rows, dim=2, allow_duplicates=True)

    # 4. the distinct-area search at the flat's image point
    result = distinct_areas_from_point(sub, len(reps))
    partner = reps[result.best_partner]
    face = tuple(sorted(best_tuple + (partner,)))

    vols = _distinct_apex_volumes(coords, face, n)
    return CommonFaceResult(
        face=face,
        distinct_count=len(vols),
        volumes=tuple(Fraction(v, denom) for v in sorted(vols)),
        mode=mode,
    )


def check_projection_volume_identity(ps: PointSet, p0: int, p1: int,
                                     p2: int, q: int) -> bool:
    """Verify, exactly and in squared form, that the tetrahedron volume
    factors through the projection orthogonal to the segment p0-p1:
    vol^2 == area^2(projected triangle p0~, p2~, q~) * |p0 p1|^2 / 9."""
    if ps.dim != 3:
        raise DimensionMismatch("the projection identity is about tetrahedra in 3-space")
    if len({p0, p1, p2, q}) != 4:
        raise ValueError("the four vertex indices must be distinct")
    a, b = ps.points[p0], ps.points[p1]
    axis = tuple(y - x for x, y in zip(a, b))
    if not any(axis):
        raise DegenerateInput("p0 and p1 coincide; the projection axis is undefined")
    vol_sq = squared_volume(ps, (p0, p1, p2, q))
    proj = project_orthogonal(ps, [axis])
    t1 = proj.points.points[p0]
    t2 = proj.points.points[p2]
    t3 = proj.points.points[q]
    cross = (t2[0] - t1[0]) * (t3[1] - t1[1]) - (t2[1] - t1[1]) * (t3[0] - t1[0])
    area_sq = Fraction(cross * cross, 4) * proj.area_sq_scale
    seg_sq = sum(c * c for c in axis)
    return vol_sq == area_sq * seg_sq / 9
