"""Brute-force reference implementations for every extremal quantity.

These oracles scan all C(n, k+1) vertex subsets with no pruning whatsoever, so
they are independent of the fast reporting paths they validate.  A
(k+1)-subset is a face of its first k points plus an apex, and one kernel of
exact.py measures it: for k = d, apex_determinants takes the face's normal
once and each apex's determinant as one dot product with it; for k < d,
gram_determinant gives each simplex's squared k-volume.  The minimum-volume
tetrahedra (k = d = 3, the verification run's case) keep their own loops
written out on integers: on the verification run's 20-point inputs a face
has a few apexes, the per-face call costs more than they do, and the
written-out loops take a quarter to a third of the time.  Zero-volume
simplices are silently skipped everywhere (the "minimum nonzero" convention).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .exact import (
    AllDegenerate,
    HyperplaneKey,
    IndexSimplex,
    LineKey,
    PointSet,
    _scalar,
    apex_determinants,
    face_normal,
    gram_determinant,
    integer_coordinates,
    integer_hyperplane_key,
    line_key,
)

__all__ = [
    "MinSimplexResult",
    "CountReport",
    "DistinctVolumeReport",
    "RichLineReport",
    "min_volume_simplices",
    "count_simplices_with_volume",
    "distinct_volumes",
    "rich_lines",
    "spanned_planes",
]


@dataclass(frozen=True)
class MinSimplexResult:
    min_squared_volume: Fraction
    witnesses: tuple[IndexSimplex, ...]
    count: int


@dataclass(frozen=True)
class CountReport:
    target: Fraction
    k: int
    count: int
    witnesses: tuple[IndexSimplex, ...] | None


@dataclass(frozen=True)
class DistinctVolumeReport:
    distinct_values: tuple[Fraction, ...]
    count: int


@dataclass(frozen=True)
class RichLineReport:
    threshold: int
    lines: tuple[tuple[LineKey, tuple[int, ...]], ...]


def _measures(coords, k, d):
    """For each k-point face of the scaled integer points of R^d, in
    combinations order, the face and the measures of face + (l,) over every
    later point l, which order the simplices by volume: for k = d the
    apex_determinants, k! scale^k times the volume; for k < d the
    gram_determinant, (k! scale^k)^2 times the squared volume."""
    for face, points in zip(combinations(range(len(coords)), k), combinations(coords, k)):
        apexes = coords[face[-1] + 1:]
        if k == d:
            yield face, apex_determinants(points, apexes)
        else:
            yield face, [gram_determinant(points + (q,)) for q in apexes]


def min_volume_simplices(ps: PointSet, k: int) -> MinSimplexResult:
    """Exhaustively find the minimum positive squared k-volume and all
    simplices attaining it.  Raises AllDegenerate when no (k+1)-subset has
    positive volume.

    The cost is one apex_determinants dot product (k = d) or one
    gram_determinant (k < d) per (k + 1)-subset, C(n, k + 1) in all, on any
    input.  k = d = 3, the verification run's case, has its own nested loops
    over i < j < m < l, written out on integers: the edge vectors from p_i
    are taken once per i, the normal of face ijm once per face as the cross
    product of its edges from p_i, and each apex l is one three-term dot
    product with the edge p_l - p_i, so the witnesses come in combinations
    order as on the other paths.
    """
    d = ps.dim
    if not 1 <= k <= d:
        raise ValueError(f"k must be in 1..{d}, got {k}")
    n = len(ps)
    if n < k + 1:
        raise AllDegenerate(f"need at least {k + 1} points for a {k}-simplex")
    coords, scale = integer_coordinates(ps)
    best = None
    witnesses: list[IndexSimplex] = []  # the subsets attaining best
    if k == d == 3:
        for i in range(n - 3):
            x0, y0, z0 = coords[i]
            edges = [(x - x0, y - y0, z - z0) for x, y, z in coords]
            for j in range(i + 1, n - 2):
                u0, u1, u2 = edges[j]
                for m in range(j + 1, n - 1):
                    v0, v1, v2 = edges[m]
                    n0, n1, n2 = u1 * v2 - u2 * v1, u2 * v0 - u0 * v2, u0 * v1 - u1 * v0
                    for l in range(m + 1, n):
                        x, y, z = edges[l]
                        num = n0 * x + n1 * y + n2 * z
                        num *= num
                        if num and (best is None or num <= best):
                            if num != best:
                                best, witnesses = num, []
                            witnesses.append((i, j, m, l))
    else:
        for face, nums in _measures(coords, k, d):
            least = min(filter(None, nums), default=0)
            num = least * least if k == d else least
            if num and (best is None or num <= best):
                if num != best:
                    best, witnesses = num, []
                witnesses.extend(face + (l,) for l, v in enumerate(nums, face[-1] + 1)
                                 if v == least)
    if best is None:
        raise AllDegenerate(f"every {k + 1}-subset of the input is degenerate")
    denom = (math.factorial(k) * scale ** k) ** 2
    return MinSimplexResult(
        min_squared_volume=Fraction(best, denom),
        witnesses=tuple(witnesses),
        count=len(witnesses),
    )


def count_simplices_with_volume(ps: PointSet, target: Fraction, k: int,
                                keep_witnesses: bool = False) -> CountReport:
    """Count k-simplices attaining a target measure exactly.

    For k = d the target is the exact (unsigned) volume; for k < d it is the
    squared volume, which is the rational-valued comparable quantity.
    """
    d = ps.dim
    if not 1 <= k <= d:
        raise ValueError(f"k must be in 1..{d}, got {k}")
    target = _scalar(target)
    if target <= 0:
        raise ValueError(f"target must be positive, got {target}")
    coords, scale = integer_coordinates(ps)
    # the measure of the scaled set that the target asks for, or -1 (no
    # measure) when it is not an integer
    unit = math.factorial(k) * scale ** k
    want = target * unit if k == d else target * unit ** 2
    want = want.numerator if want.denominator == 1 else -1
    count = 0
    witnesses: list[IndexSimplex] = []
    for face, nums in _measures(coords, k, d):
        hits = nums.count(want)
        if hits:
            count += hits
            if keep_witnesses:
                witnesses.extend(face + (l,) for l, v in enumerate(nums, face[-1] + 1)
                                 if v == want)
    return CountReport(target=target, k=k, count=count,
                       witnesses=tuple(witnesses) if keep_witnesses else None)


def distinct_volumes(ps: PointSet) -> DistinctVolumeReport:
    """Exact set of distinct positive volumes of full-dimensional simplices."""
    d = ps.dim
    coords, scale = integer_coordinates(ps)
    seen: set[int] = set()
    for _, nums in _measures(coords, d, d):
        seen.update(nums)
    seen.discard(0)
    if not seen:
        raise AllDegenerate("the point set lies in a hyperplane")
    denom = math.factorial(d) * scale ** d
    values = tuple(Fraction(v, denom) for v in sorted(seen))
    return DistinctVolumeReport(distinct_values=values, count=len(values))


def rich_lines(ps: PointSet, k: int) -> RichLineReport:
    """All lines incident to at least k points, complete and deduplicated."""
    if k < 2:
        raise ValueError(f"richness threshold must be >= 2, got {k}")
    n = len(ps)
    if n < 2:
        raise ValueError("need at least two points to span a line")
    groups: dict[LineKey, set[int]] = {}
    for i, j in combinations(range(n), 2):
        if ps.points[i] == ps.points[j]:
            continue
        key = line_key(ps, i, j)
        groups.setdefault(key, set()).update((i, j))
    lines = [(key, tuple(sorted(members)))
             for key, members in groups.items() if len(members) >= k]
    lines.sort(key=lambda item: (item[0].direction, item[0].anchor))
    return RichLineReport(threshold=k, lines=tuple(lines))


def spanned_planes(ps: PointSet) -> list[tuple[HyperplaneKey, tuple[int, ...]]]:
    """Every plane spanned by a 3D point set with its full incident subset,
    deduplicated by canonical key and sorted by key."""
    if ps.dim != 3:
        raise ValueError(f"spanned_planes needs a 3D point set, got dim {ps.dim}")
    coords, scale = integer_coordinates(ps)
    groups: dict[HyperplaneKey, set[int]] = {}
    for triple in combinations(range(len(ps)), 3):
        normal, offset = face_normal([coords[i] for i in triple])
        if any(normal):
            groups.setdefault(integer_hyperplane_key(normal, offset, scale), set()).update(triple)
    planes = [(key, tuple(sorted(members))) for key, members in groups.items()]
    planes.sort(key=lambda item: (item[0].normal, item[0].offset))
    return planes
