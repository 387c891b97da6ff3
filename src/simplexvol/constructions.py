"""Exact-coordinate generators for extremal point configurations.

Each family comes with the closed-form statistic it is built to achieve
(minimum volume and witness count, or number of distinct volumes), returned
alongside the points so oracles can confirm the construction exactly.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .exact import PointSet, _scalar

__all__ = [
    "ConstructionOutput",
    "gen_min_tetra_prism",
    "gen_min_ksimplex_lines",
    "gen_distinct_volume_lines",
    "gen_lattice2d",
    "gen_lattice_slab3d",
    "gen_random_rational",
    "FAMILIES",
]


@dataclass(frozen=True)
class ConstructionOutput:
    points: PointSet
    expected: dict = field(default_factory=dict)


def _eps(value, default: Fraction) -> Fraction:
    if value is None:
        return default
    eps = _scalar(value)
    if eps <= 0:
        raise ValueError(f"epsilon must be positive, got {eps}")
    return eps


def gen_min_tetra_prism(n: int, epsilon=None) -> ConstructionOutput:
    """Prism of four vertical lines through a rational rhombus, carrying the
    maximal family of minimum-volume tetrahedra.

    The rhombus (-1,0), (1,0), (0,1), (0,-1) has all four vertex triples of
    equal area 1; raising the fourth line by 3 makes the base tetrahedron have
    volume 1.  With n/4 points per line at vertical spacing epsilon <= 1/n^2,
    the minimum nonzero volume is epsilon/3, attained exactly by the
    12*(n/4-1)*(n/4)^2 tetrahedra that take two consecutive points on one
    line and one point on each of two other lines.
    """
    if n % 4 != 0 or n < 8:
        raise ValueError(f"prism size must be a multiple of 4 and at least 8, got {n}")
    cap = Fraction(1, n * n)
    eps = _eps(epsilon, cap)
    if eps > cap:
        raise ValueError(f"epsilon {eps} too large; spacing must be at most 1/n^2 = {cap}")
    m = n // 4
    bases = [(-1, 0, 0), (1, 0, 0), (0, 1, 0), (0, -1, 3)]
    rows = []
    for bx, by, bz in bases:
        for j in range(m):
            rows.append((Fraction(bx), Fraction(by), bz + j * eps))
    expected = {
        "min_volume": eps / 3,
        "min_squared_volume": (eps / 3) ** 2,
        "count": 12 * (m - 1) * m * m,
    }
    return ConstructionOutput(points=PointSet(rows, dim=3), expected=expected)


def gen_min_ksimplex_lines(n: int, k: int, d: int, epsilon=None) -> ConstructionOutput:
    """k parallel lines in R^d with n/k equally spaced points each.

    The base points are the origin and the first k-1 unit vectors; the lines
    run along coordinate axis k.  Every positive-volume k-simplex takes two
    points on one line and one on each other line; volume is proportional to
    the gap between the doubled points, so the minima are the simplices with
    a consecutive pair, of which there are k*(n/k-1)*(n/k)^(k-1).
    """
    if not 1 <= k <= d:
        raise ValueError(f"need 1 <= k <= d, got k={k}, d={d}")
    if n % k != 0 or n < 2 * k:  # every minimum takes two points on one line
        raise ValueError(f"number of points {n} must be a multiple of k={k}, at least 2k")
    eps = _eps(epsilon, Fraction(1))
    m = n // k
    rows = []
    for line in range(k):
        base = [Fraction(0)] * d
        if line > 0:
            base[line - 1] = Fraction(1)
        for j in range(m):
            pt = list(base)
            pt[k - 1] = base[k - 1] + j * eps
            rows.append(tuple(pt))
    expected = {
        "count": k * (m - 1) * m ** (k - 1),
        "min_squared_volume": (eps / math.factorial(k)) ** 2,
    }
    return ConstructionOutput(points=PointSet(rows, dim=d), expected=expected)


def gen_distinct_volume_lines(n: int, d: int) -> ConstructionOutput:
    """d parallel lines filled round-robin with n points at unit spacing.

    Full-dimensional simplices must double up on exactly one line, and their
    volume depends only on the gap between the doubled points, so the number
    of distinct volumes is the largest per-line count minus one, i.e.
    floor((n-1)/d).
    """
    if d < 1:
        raise ValueError(f"dimension must be positive, got {d}")
    if n < d + 1:
        raise ValueError(f"need at least d+1 = {d + 1} points, got {n}")
    rows = []
    for t in range(n):
        line, level = t % d, t // d
        pt = [Fraction(0)] * d
        if line > 0:
            pt[line - 1] = Fraction(1)
        pt[d - 1] += level
        rows.append(tuple(pt))
    expected = {"distinct": (n - 1) // d}
    return ConstructionOutput(points=PointSet(rows, dim=d), expected=expected)


def gen_lattice2d(n: int) -> PointSet:
    """The sqrt(n) x sqrt(n) section of the integer lattice."""
    side = math.isqrt(max(n, 0))
    if side * side != n:
        raise ValueError(f"lattice size must be a perfect square, got {n}")
    rows = [(x, y) for y in range(side) for x in range(side)]
    return PointSet(rows, dim=2)


def gen_lattice_slab3d(n: int) -> PointSet:
    """Two parallel copies of the integer-lattice section, n/2 points each,
    at heights 0 and 3: every unit-area triangle in one copy makes a
    unit-volume tetrahedron with every point of the other."""
    if n % 2 != 0 or n < 0:
        raise ValueError(f"slab size must be even and nonnegative, got {n}")
    half = n // 2
    side = math.isqrt(half)
    if side * side != half:
        raise ValueError(f"half size {half} must be a perfect square")
    rows = [(x, y, z) for z in (0, 3) for y in range(side) for x in range(side)]
    return PointSet(rows, dim=3)


def gen_random_rational(n: int, d: int, seed: int = 0, bound: int = 10) -> PointSet:
    """n distinct points with integer coordinates drawn uniformly from
    [-bound, bound]^d by a seeded deterministic generator."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if bound < 1:
        raise ValueError(f"bound must be at least 1, got {bound}")
    if n > (2 * bound + 1) ** d:
        raise ValueError(
            f"cannot place {n} distinct points in a ({2 * bound + 1})^{d} box")
    rng = random.Random(seed)
    seen = set()
    rows = []
    while len(rows) < n:
        pt = tuple(rng.randint(-bound, bound) for _ in range(d))
        if pt in seen:
            continue
        seen.add(pt)
        rows.append(pt)
    return PointSet(rows, dim=d)


# family name -> generator, for the CLI surface
FAMILIES = {
    "prism3d": gen_min_tetra_prism,
    "klines": gen_min_ksimplex_lines,
    "dlines_distinct": gen_distinct_volume_lines,
    "lattice2d": gen_lattice2d,
    "lattice_slab3d": gen_lattice_slab3d,
    "random_rational": gen_random_rational,
}
