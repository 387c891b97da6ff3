"""Shared helpers for the test suite."""

from fractions import Fraction

from simplexvol import PointSet, gen_random_rational, squared_distance_point_plane


def rank(ps: PointSet) -> int:
    """Affine rank of the set (dimension of the spanned flat), exact."""
    if len(ps) < 2:
        return 0
    base = ps.points[0]
    rows = [[c - b for c, b in zip(p, base)] for p in ps.points[1:]]
    r = 0
    for col in range(ps.dim):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][col]
        rows[r] = [v / inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
        if r == len(rows):
            break
    return r


def random_spanning(n: int, d: int, seed: int, bound: int = 8) -> PointSet:
    """Seeded random integer point set guaranteed to span R^d (deterministic
    redraws on degenerate draws)."""
    for attempt in range(100):
        ps = gen_random_rational(n, d, seed=seed * 1000003 + attempt, bound=bound)
        if rank(ps) == d:
            return ps
    raise RuntimeError(f"could not draw a spanning set (n={n}, d={d}, seed={seed})")


def nearest_on_side(ps: PointSet, key, side: int) -> tuple[Fraction | None, tuple[int, ...]]:
    """(squared distance, indices) of the points of ps nearest to the
    hyperplane key among those with key.side_of(p) == side, exhaustively;
    (None, ()) when no point lies on that side."""
    least, nearest = None, []
    for i, p in enumerate(ps.points):
        if key.side_of(p) == side:
            dist_sq = squared_distance_point_plane(p, key)
            if least is None or dist_sq < least:
                least, nearest = dist_sq, [i]
            elif dist_sq == least:
                nearest.append(i)
    return least, tuple(nearest)


def scale_points(ps: PointSet, factor: Fraction) -> PointSet:
    return PointSet([[c * factor for c in p] for p in ps.points], dim=ps.dim,
                    allow_duplicates=True)


# mixed prime denominators: the scale is 2*3*5*7, and the plane offsets on
# the scaled points share factors with it
PRIME_DENOMINATORS_3D = PointSet([
    ("1/2", 0, 0), (0, "1/3", 0), (0, 0, "1/5"), ("1/7", "1/7", 1),
    (1, "2/3", "2/5"), ("3/2", "1/5", "4/7"), (2, 1, "1/3"), ("5/7", "3/2", "3/5")])
