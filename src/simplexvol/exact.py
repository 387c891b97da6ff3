"""Exact rational geometry kernel.

Every predicate and measure in this package is exact.  Inputs and reported
values are arbitrary-precision rationals (`fractions.Fraction`), while the hot
loops run on the denominator-cleared integers of integer_coordinates.  The fast
reporter keys its angle order of directions by float slopes, checked with exact
cross products, with exact Fractions where that check fails, and holds its
integers as floats when a bound from its reduced spans keeps all it forms below
2^53 (reporter._scan), with a relative slack of 2^-48 on the squared tests that
round (reporter._window_pairs); no rounded value reaches a result.  Quantities
that would be irrational (lengths, areas, k-volumes for k below the ambient
dimension) are handled in squared form, which keeps them rational and preserves
order on nonnegative values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from operator import mul
from typing import Iterable, Sequence

__all__ = [
    "ExactScalar",
    "Point",
    "IndexSimplex",
    "GeometryError",
    "DimensionMismatch",
    "DegenerateInput",
    "AllDegenerate",
    "PointSet",
    "HyperplaneKey",
    "LineKey",
    "as_simplex",
    "signed_volume",
    "squared_volume",
    "face_normal",
    "apex_determinants",
    "gram_determinant",
    "hyperplane_key",
    "plane_key",
    "line_key",
    "squared_distance_point_plane",
    "integer_coordinates",
    "primitive_vector",
    "leading_sign",
    "integer_hyperplane_key",
]

# Arbitrary-precision rational scalar.  Fraction is always reduced to lowest
# terms with a positive denominator, so the representation invariants hold by
# construction.
ExactScalar = Fraction

Point = tuple[Fraction, ...]
IndexSimplex = tuple[int, ...]


class GeometryError(ValueError):
    """Base class for geometric failures."""


class DimensionMismatch(GeometryError):
    """Simplex/point dimensions are inconsistent with the point set."""


class DegenerateInput(GeometryError):
    """An operation received affinely dependent (collinear, coplanar...) input."""


class AllDegenerate(GeometryError):
    """No nonzero-volume object exists in the input at all."""


def _scalar(x) -> Fraction:
    """x as a Fraction.  A string is read as an ASCII ``-?[0-9]+`` by int,
    an ASCII ``-?[0-9]+/[0-9]+`` by a Fraction of two ints, and any other
    string by Fraction(x), so every string keeps the value or the error that
    Fraction(x) gives it, except that one with a decimal exponent (``e`` or
    ``E``) is refused: Fraction would compute 10**exponent, and the 12 bytes
    ``1e999999999`` would never finish.  Floats are rejected: Fraction(0.1)
    would silently encode the binary approximation."""
    if isinstance(x, str):  # first: isinstance(x, Fraction) is an ABC check for a str
        if x.isascii():
            num, slash, den = x.partition("/")
            if (num[1:] if num[:1] == "-" else num).isdigit():
                if not slash:
                    return Fraction(int(num))
                if den.isdigit():
                    return Fraction(int(num), int(den))
        if "e" in x or "E" in x:
            raise ValueError(f"decimal exponent refused in {x!r}")
        return Fraction(x)
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(
        f"exact coordinate expected (int, Fraction or 'p/q' string), got {type(x).__name__}"
    )


class PointSet:
    """Immutable ordered list of d-dimensional rational points.

    Duplicate points are rejected unless ``allow_duplicates=True``, in which
    case duplicated labels are kept and every enumeration treats them as
    distinct indices (with zero-volume consequences).
    """

    __slots__ = ("dim", "points", "allow_duplicates")

    def __init__(self, rows: Iterable[Sequence], dim: int | None = None,
                 allow_duplicates: bool = False):
        pts = []
        for row in rows:
            pt = tuple(_scalar(c) for c in row)
            pts.append(pt)
        if dim is None:
            if not pts:
                raise ValueError("cannot infer dimension of an empty point set")
            dim = len(pts[0])
        if dim < 1:
            raise ValueError(f"dimension must be positive, got {dim}")
        for pt in pts:
            if len(pt) != dim:
                raise DimensionMismatch(
                    f"point {pt} has {len(pt)} coordinates, expected {dim}")
        if not allow_duplicates and len(set(pts)) != len(pts):
            seen = set()
            for i, pt in enumerate(pts):
                if pt in seen:
                    raise ValueError(f"duplicate point at index {i}: {pt}")
                seen.add(pt)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "points", tuple(pts))
        object.__setattr__(self, "allow_duplicates", allow_duplicates)

    def __setattr__(self, name, value):
        raise AttributeError("PointSet is immutable")

    def __len__(self) -> int:
        return len(self.points)

    def __getitem__(self, i: int) -> Point:
        return self.points[i]

    def __iter__(self):
        return iter(self.points)

    def __eq__(self, other) -> bool:
        return (isinstance(other, PointSet) and self.dim == other.dim
                and self.points == other.points)

    def __hash__(self):
        return hash((self.dim, self.points))

    def __repr__(self) -> str:
        return f"PointSet(dim={self.dim}, n={len(self.points)})"


@dataclass(frozen=True)
class HyperplaneKey:
    """Canonical identity of a hyperplane spanned by rational points.

    The entries of (normal, offset) are integers, coprime as a set, and the
    first nonzero entry of the normal is positive.  A point p lies on the plane
    iff normal . p == offset, exactly.
    """

    normal: tuple[int, ...]
    offset: int

    def side_of(self, point: Sequence) -> int:
        """Sign of the point against the plane: +1 above, -1 below, 0 on it."""
        s = sum(n * _scalar(c) for n, c in zip(self.normal, point)) - self.offset
        return (s > 0) - (s < 0)

    def contains(self, point: Sequence) -> bool:
        return self.side_of(point) == 0

    @property
    def norm_sq(self) -> int:
        return sum(n * n for n in self.normal)


@dataclass(frozen=True)
class LineKey:
    """Canonical identity of a line: primitive integer direction plus the
    (rational) point of the line closest to the origin.  Two keys are equal
    iff the underlying lines coincide as point sets."""

    direction: tuple[int, ...]
    anchor: tuple[Fraction, ...]

    def side_of(self, point: Sequence) -> int:
        """For 2D lines only: sign of the point relative to the line."""
        if len(self.direction) != 2:
            raise DimensionMismatch("side_of is defined for lines in the plane")
        px, py = (_scalar(c) for c in point)
        s = self.direction[0] * (py - self.anchor[1]) - self.direction[1] * (px - self.anchor[0])
        return (s > 0) - (s < 0)

    def contains(self, point: Sequence) -> bool:
        p = tuple(_scalar(c) for c in point)
        diff = tuple(c - a for c, a in zip(p, self.anchor))
        # diff must be parallel to direction: all 2x2 minors vanish
        d = self.direction
        for i, j in combinations(range(len(d)), 2):
            if diff[i] * d[j] != diff[j] * d[i]:
                return False
        return True


def as_simplex(indices: Iterable[int], n_points: int) -> IndexSimplex:
    """Normalize indices to a strictly increasing tuple, validating bounds."""
    idx = tuple(sorted(indices))
    if len(set(idx)) != len(idx):
        raise ValueError(f"simplex indices must be distinct, got {idx}")
    if idx and (idx[0] < 0 or idx[-1] >= n_points):
        raise ValueError(f"simplex indices {idx} out of range for {n_points} points")
    return idx


def _det(rows) -> Fraction | int:
    """Determinant by fraction-free Bareiss elimination (exact for int and
    Fraction entries alike).  Sizes up to 3 are expanded directly."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    if n == 3:
        (a, b, c), (d, e, f), (g, h, i) = rows
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0 * prev
        for r in range(k + 1, n):
            for c in range(k + 1, n):
                num = m[r][c] * m[k][k] - m[r][k] * m[k][c]
                m[r][c] = num // prev if isinstance(num, int) else num / prev
            m[r][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def signed_volume(ps: PointSet, simplex: Iterable[int]) -> Fraction:
    """Signed volume of a full-dimensional simplex (k = d).

    Returns det(edge-vector matrix) / d!; the sign encodes orientation and the
    value is zero iff the d+1 points are affinely dependent.
    """
    idx = as_simplex(simplex, len(ps))
    d = ps.dim
    if len(idx) != d + 1:
        raise DimensionMismatch(
            f"full-dimensional simplex in R^{d} needs {d + 1} vertices, got {len(idx)}")
    base = ps.points[idx[0]]
    rows = [tuple(c - b for c, b in zip(ps.points[i], base)) for i in idx[1:]]
    return Fraction(_det(rows), math.factorial(d))


def squared_volume(ps: PointSet, simplex: Iterable[int]) -> Fraction:
    """Squared k-volume of a k-simplex, k <= d, via the Gram determinant.

    Squaring keeps the value rational even when the volume itself is
    irrational; it is zero iff the vertices are affinely dependent, and for
    k = d it equals signed_volume ** 2.
    """
    idx = as_simplex(simplex, len(ps))
    d = ps.dim
    k = len(idx) - 1
    if k < 1 or k > d:
        raise DimensionMismatch(f"k-simplex needs 2..{d + 1} vertices, got {len(idx)}")
    return Fraction(gram_determinant([ps.points[i] for i in idx]), math.factorial(k) ** 2)


def primitive_vector(vec: Sequence[int]) -> tuple[int, ...]:
    """Reduce an integer vector by its gcd and make the first nonzero entry
    positive.  Raises on the zero vector."""
    g = math.gcd(*vec)
    for lead in vec:
        if lead:
            if g == 1:  # already primitive, as most normals are
                return tuple(vec) if lead > 0 else tuple([-c for c in vec])
            g = g if lead > 0 else -g
            return tuple([c // g for c in vec])
    raise DegenerateInput("zero vector has no direction")


def leading_sign(vec: Sequence[int]) -> int:
    """Sign of the first nonzero entry (0 for the zero vector): the
    orientation that primitive vectors and hyperplane keys make positive."""
    for c in vec:
        if c:
            return 1 if c > 0 else -1
    return 0


def integer_hyperplane_key(normal: Sequence[int], offset: int,
                           scale: int = 1) -> HyperplaneKey:
    """Canonical key of the hyperplane normal . (scale * x) == offset, for an
    integer normal and offset: (scale * normal, offset) reduced by its gcd and
    by the leading sign of the normal."""
    g = math.gcd(scale * math.gcd(*normal), offset) * leading_sign(normal)
    if g == 0:
        raise DegenerateInput("zero normal spans no hyperplane")
    return HyperplaneKey(normal=tuple([scale * c // g for c in normal]), offset=offset // g)


def _integerize(values: Sequence[Fraction]) -> tuple[int, ...]:
    scale = math.lcm(*(v.denominator for v in values))
    return tuple(int(v * scale) for v in values)


def face_normal(points: Sequence[Sequence]) -> tuple[tuple, Fraction | int]:
    """Normal and offset of the face spanned by d points p0..p_{d-1} of R^d:
    det(p1 - p0, ..., p_{d-1} - p0, q - p0) == normal . q - offset for every
    q, so one dot product per apex q gives d! times the signed volume of the
    simplex face + q.  Integers for integer points, Fractions otherwise; the
    normal is zero iff the points are affinely dependent."""
    p0 = points[0]
    d = len(p0)
    if d == 1:
        return (1,), p0[0]
    if d == 2:
        (x0, y0), (x1, y1) = points
        normal = (y0 - y1, x1 - x0)
    elif d == 3:
        (x0, y0, z0), (x1, y1, z1), (x2, y2, z2) = points
        u0, u1, u2 = x1 - x0, y1 - y0, z1 - z0
        v0, v1, v2 = x2 - x0, y2 - y0, z2 - z0
        n0, n1, n2 = u1 * v2 - u2 * v1, u2 * v0 - u0 * v2, u0 * v1 - u1 * v0
        return (n0, n1, n2), n0 * x0 + n1 * y0 + n2 * z0
    else:
        rows = [[c - b for c, b in zip(p, p0)] for p in points[1:]]
        normal = tuple(_det([row[:j] + row[j + 1:] for row in rows]) * (-1) ** (d - 1 + j)
                       for j in range(d))
    return normal, sum(map(mul, normal, p0))


def apex_determinants(face: Sequence[Sequence], apexes: Iterable[Sequence]) -> list:
    """|det(p1 - p0, ..., p_{d-1} - p0, q - p0)|, d! times the volume of the
    simplex face + q, for each apex q in order: one face_normal for the face
    p0..p_{d-1} and one dot product per apex.  An apex in the face's
    hyperplane, a face point among them, gives 0."""
    normal, offset = face_normal(face)
    return [abs(sum(map(mul, normal, q)) - offset) for q in apexes]


def gram_determinant(points: Sequence[Sequence]):
    """det of the Gram matrix of the edges p_i - p_0 of points p0..p_k:
    (k!)^2 times the squared k-volume of their simplex, for any k up to the
    dimension, and 0 iff the points are affinely dependent.  An int for
    integer points, a Fraction otherwise."""
    base = points[0]
    edges = [tuple([c - b for c, b in zip(p, base)]) for p in points[1:]]
    return _det([[sum(map(mul, u, v)) for v in edges] for u in edges])


def hyperplane_key(ps: PointSet, indices: Iterable[int]) -> HyperplaneKey:
    """Canonical key of the hyperplane spanned by d affinely independent points.

    The normal comes from face_normal and the pair (normal, offset) is
    cleared to integers, reduced by their common gcd, and sign-normalized, so
    equal keys correspond exactly to equal hyperplanes.
    """
    idx = as_simplex(indices, len(ps))
    d = ps.dim
    if len(idx) != d:
        raise DimensionMismatch(f"a hyperplane in R^{d} is spanned by {d} points, got {len(idx)}")
    normal, offset = face_normal([ps.points[i] for i in idx])
    if not any(normal):
        raise DegenerateInput(f"points {idx} are affinely dependent")
    ints = _integerize([Fraction(c) for c in normal] + [Fraction(offset)])
    return integer_hyperplane_key(ints[:-1], ints[-1])


def plane_key(ps: PointSet, indices: Iterable[int]) -> HyperplaneKey:
    """3D specialization of hyperplane_key: the plane through three
    noncollinear points."""
    if ps.dim != 3:
        raise DimensionMismatch(f"plane_key needs a 3D point set, got dim {ps.dim}")
    return hyperplane_key(ps, indices)


def line_key(ps: PointSet, i: int, j: int) -> LineKey:
    """Canonical key of the line through two distinct points."""
    pi, pj = ps.points[i], ps.points[j]
    if pi == pj:
        raise DegenerateInput(f"points {i} and {j} coincide; no line is spanned")
    direction = primitive_vector(_integerize([b - a for a, b in zip(pi, pj)]))
    dd = sum(c * c for c in direction)
    t = Fraction(sum(p * c for p, c in zip(pi, direction)), dd)
    anchor = tuple(p - t * c for p, c in zip(pi, direction))
    return LineKey(direction=direction, anchor=anchor)


def squared_distance_point_plane(point: Sequence, key: HyperplaneKey) -> Fraction:
    """Exact squared Euclidean distance from a point to a hyperplane:
    (normal . p - offset)^2 / |normal|^2; zero iff incident."""
    s = sum(n * _scalar(c) for n, c in zip(key.normal, point)) - key.offset
    return Fraction(s * s, key.norm_sq)


def integer_coordinates(ps: PointSet) -> tuple[list[tuple[int, ...]], int]:
    """Clear denominators of the whole set at once.

    Returns (scaled integer points, scale) where scaled = scale * original.
    Volumes of k-simplices of the scaled set are scale**k times the original
    ones, so argmins, counts and witness sets are unchanged; callers divide
    measures back out.  All hot enumeration loops run on these plain ints.
    """
    scale = math.lcm(*[c.denominator for pt in ps.points for c in pt])
    coords = [tuple([c.numerator * (scale // c.denominator) for c in pt]) for pt in ps.points]
    return coords, scale
