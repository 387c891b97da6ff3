"""Distinct-volume machinery: exact orthogonal projection along a spanned
flat, the distinct-area search from a fixed point, and the common-face
distinct-volume search, together with the projection volume identity that
ties the planar picture back to full-dimensional simplices.  Every search
counts the distinct positive |det| over one face with exact.apex_determinants,
the same kernel as the brute-force oracles: one normal per face, one dot
product per apex.
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
    _scalar,
    apex_determinants,
    face_normal,
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
    dirs = []
    for d in directions:
        if len(d) != dim:
            raise DimensionMismatch(f"direction {d} does not have {dim} coordinates")
        dirs.append(tuple(map(_scalar, d)))
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
        directions=tuple(dirs),
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
    coords, _ = integer_coordinates(ps)
    x0, y0 = coords[p1]
    diffs = [(x - x0, y - y0) for i, (x, y) in enumerate(coords) if i != p1]
    # a duplicate of p1 (a zero difference) lies on every line through it
    dirs = [primitive_vector(d) for d in diffs if any(d)]
    # 2x the scaled areas of the triangles (p1, p2, q); distinct counts agree
    counts = {p2: len({*apex_determinants((coords[p1], coords[p2]), coords)} - {0})
              for p2 in range(n) if p2 != p1}
    best = max(counts, key=counts.get)  # the first of the largest counts
    return DistinctAreaResult(base_point=p1, best_partner=best, distinct_count=counts[best],
                              hypothesis_holds=len(dirs) == len(diffs) == len(set(dirs)))


def best_common_face(ps: PointSet, mode: str = "exhaustive") -> CommonFaceResult:
    """Find a (d-1)-dimensional face spanning many full-dimensional simplices
    of distinct volumes.

    mode="exhaustive" scans every nondegenerate (d-1)-simplex and maximizes
    the distinct-volume count: C(n, d) faces times n apexes (a face's own
    points give 0), guarded to 10^6 face candidates.
    mode="heuristic" is the constructive search: take a (d-1)-tuple spanning
    the most distinct hyperplanes (C(n, d-1) * (n - d + 1) face normals),
    keep the smallest-index representative per hyperplane, and extend the
    tuple by the representative whose simplices over the representatives
    have the most distinct volumes.  These volumes are the areas of the
    triangles in the projection along the tuple's flat times one constant
    (see check_projection_volume_identity), so the partner is the one the
    planar distinct-area search picks there.
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
        faces = combinations(range(n), d)
    elif mode == "heuristic":
        if d < 2:
            raise DimensionMismatch("the heuristic search needs ambient dimension >= 2")
        # the (d-1)-tuple spanning the most distinct hyperplanes, each kept
        # with its smallest point q
        best_tuple, best_planes = None, {}
        for tup in combinations(range(n), d - 1):
            planes: dict = {}
            for q in range(n):
                if q in tup:
                    continue
                normal, offset = face_normal([coords[i] for i in tup + (q,)])
                if any(normal):
                    # (normal, offset) reduced by its gcd and leading sign
                    # names the hyperplane
                    planes.setdefault(primitive_vector(normal + (offset,)), q)
            if len(planes) > len(best_planes):
                best_tuple, best_planes = tup, planes
        if len(best_planes) < 2:
            raise AllDegenerate("the point set lies in a hyperplane")
        reps = sorted(best_planes.values())
        apexes = [coords[q] for q in reps]
        partner = max(reps, key=lambda r: len({*apex_determinants(
            [coords[i] for i in best_tuple + (r,)], apexes)} - {0}))
        faces = [tuple(sorted(best_tuple + (partner,)))]
    else:
        raise ValueError(f"unknown mode {mode!r}")

    best = None
    for face in faces:
        vols = {*apex_determinants([coords[i] for i in face], coords)} - {0}
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
