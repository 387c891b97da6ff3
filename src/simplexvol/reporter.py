"""Reporting of all minimum-nonzero-volume tetrahedra (3D) and all
minimum-nonzero-area triangles (2D), faster than the brute-force scan.

The computation stays in the primal and runs on denominator-cleared integer
coordinates, with coincident points merged into weighted sites; a 2D set is
taken as its sites in the plane z == 0.  Both dimensions come down to one 2D
problem, solved by _window_pairs: the least positive |W_x x W_z| over integer
vectors W drawn from a base flat.  Only the shortest W of each direction can
be in a minimal pair, and the directions are paired shortest first in angular
windows that the running minimum narrows.

One routine, _scan, finds every simplex once, at its face of dim - 1 smallest
sites, and draws W from the later sites c.  In 2D the face is a site a and
W = c - a.  In 3D it is an edge a < b: projected along b - a, the volume is
|b - a| times the area of the projected triangle over three, so W is the
projection of c - a.  The spanned lines or planes are counted from the same
pass.

The faces are taken with their first site descending, so a site's own faces
are done before it ends a face.  Each face then builds its classes only from
the later sites that come first on their ray from its last site: a site
behind another on such a ray is never in a minimal pair (_window_pairs).

The scan runs on per-axis reduced coordinates: each axis translated to
start at 0 and divided by the gcd of its offsets, which divides every
full-dimensional det by one factor and keeps the site order, the ties and
the spanned flats.  So the scan's integers are as small as the grid and
the spread of each axis allow, whatever the common lcm scale and the origin.
In-plane areas and slab distances do not scale by one factor under a
per-axis map, so the records below use the uniformly scaled coordinates.

The faces and apexes of the tied simplices then give each contributing line
or plane and its nearest points on one side (its empty slab).  A
minimum-volume tetrahedron is a minimum-area triangle of a plane with a
nearest point on one side, once for each of its four faces, so the face
products sum to four times the count.  The 2D analogue counts every
minimum-area triangle once per side and divides by three.

Every result is exact.  Candidate measures are compared as integer cross
products, and reported values are exact rationals.  When the reduced span
keeps every integer the scan forms below 2^53, the scan holds them as
floats, which store them exactly (_scan); only the squared tests of
_window_pairs pass 2^53 and round, and a relative slack of 2^-48 on them
lets a rounding delay a decision but never change one.  The angle order of
a face's directions is keyed by floats: each direction by its slope
wy / wx, a quotient of two exact integers that Python rounds correctly.
Rounding is monotone, so directions with different floats are in their
exact order, and two directions share a float only when an entry of W
exceeds about 2^26.  A run of equal floats is checked with exact cross
products, and a face where that check fails, or where a slope is beyond the
floats, is keyed again by exact Fractions (_window_pairs).

On random points most faces are settled without pairing, by the
neighbour-gap certificate of _window_pairs, so a scan costs about the
class building of its faces, O(n) for each of the n faces in 2D and the
O(n^2) faces in 3D; when the running minimum does not narrow the windows
the scans take O(n^3) and O(n^4).  The README gives measured times.  The
guaranteed O(n^2) minimum-area triangle through the dual line arrangement
(Edelsbrunner, O'Rourke and Seidel, SIAM J. Comput. 1986) is not
implemented.
"""

from __future__ import annotations

import contextlib
import gc
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from operator import mul

from .exact import (
    AllDegenerate,
    DimensionMismatch,
    HyperplaneKey,
    LineKey,
    PointSet,
    face_normal,
    integer_coordinates,
    line_key,  # unused here: perfbench/tracing.py patches it and plane_key on this module
    plane_key,
    primitive_vector,
)

__all__ = [
    "PlaneSummary",
    "SlabRecord",
    "MinVolumeReport",
    "LineSummary",
    "LineSideRecord",
    "MinAreaReport",
    "min_volume_tetrahedra",
    "min_area_triangles",
]


@dataclass(frozen=True)
class PlaneSummary:
    """Per-plane extremal statistics: incident points, number of spanned
    lines, and the minimum-nonzero-area triangles within the plane."""
    key: HyperplaneKey
    incident: tuple[int, ...]
    n_points: int
    n_lines: int
    min_area_sq: Fraction
    count: int
    witnesses: tuple[tuple[int, int, int], ...]


@dataclass(frozen=True)
class SlabRecord:
    """Nearest off-plane points on one side of a plane.  The open slab
    between the plane and the parallel plane through the nearest points
    contains no point of the set."""
    plane: HyperplaneKey
    side: str  # "above" | "below"
    dist_sq: Fraction
    count: int
    nearest: tuple[int, ...]


@dataclass(frozen=True)
class MinVolumeReport:
    min_volume: Fraction
    min_volume_sq: Fraction
    count: int
    sum_face_products: int  # sum of (min-area count x nearest count) = 4 * count
    n_planes: int
    witnesses: tuple[tuple[int, int, int, int], ...] | None
    contributing: tuple[tuple[PlaneSummary, SlabRecord], ...] | None


@dataclass(frozen=True)
class LineSummary:
    """2D analogue of PlaneSummary: shortest segments along one line."""
    key: LineKey
    incident: tuple[int, ...]
    n_points: int
    min_length_sq: Fraction
    count: int
    witnesses: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class LineSideRecord:
    line: LineKey
    side: str
    dist_sq: Fraction
    count: int
    nearest: tuple[int, ...]


@dataclass(frozen=True)
class MinAreaReport:
    min_area: Fraction
    min_area_sq: Fraction
    count: int
    sum_side_products: int  # = 3 * count
    n_lines: int
    witnesses: tuple[tuple[int, int, int], ...] | None
    contributing: tuple[tuple[LineSummary, LineSideRecord], ...] | None


# ---------------------------------------------------------------------------
# scaled-integer internals

_VERTICAL = -math.inf  # the key of the directions with wx == 0, below every slope
_EXACT_FLOAT = 2 ** 53  # floats hold every integer below it
_FLOAT_SLACK = 1 + 2 ** -48  # on the squared tests of _window_pairs over floats


def _window_pairs(view, a, u, heads, tails, weight, best, collect, slack):
    """Least positive |det(u, c - a, d - a)|, at most best, over the later
    sites c, d of view, returned as (least, count, ties, n_lone, multi,
    axis).  view holds the sites as integer (i, j, k) triples and u is an
    integer (i, j, k) vector with u_k != 0; b = a + u.  The later sites are
    the heads, each first on its ray from b, and for each (h, behind) of
    tails the sites behind h on its ray.  count sums the products of the
    site weights over the pairs attaining least, and ties, with collect,
    lists their (sites c, sites d); both are empty when no pair reaches best.

    Along u every site c projects to the integer vector
    W = u_k (c - a) - (c - a)_k u with coordinate k dropped, and
    |det(u, c - a, d - a)| = |W_c x W_d| / |u_k|.  Sites with parallel W lie
    on one plane through the line of u at a, and are the members of one
    angle class.  n_lone counts the classes of one member, multi maps the
    key of each class with two or more members to its member sites, and
    axis lists the sites with W == 0 in order, which are in no class.  A
    class that is one ray, a head and the sites behind it, is in neither.

    The key of a direction is its slope wy / wx as a float, or -inf for
    wx == 0: in the half-plane wx > 0 or wx == 0 > wy, slope order is angle
    order.  Python divides two ints with correct rounding, which is
    monotone, so directions whose keys differ are in the order of their
    keys, and parallel W, of equal slopes, share a key.  Only a run of equal
    keys needs an exact look: it is one class when every W in it has
    W x W_p == 0 with the run's first W_p.  Two different slopes of W
    entries below 2^26 in size differ by more than the spacing of their
    floats, so the check can fail only on larger entries; then, or when a
    quotient is too large for a float, the face is keyed again by the exact
    Fraction(wy, wx).  One sort of the (key, |W|^2, site, W) of the heads
    brings each class together, shortest first, and one pass over it forms
    the classes and multi and runs the certificate below; a tail finds its
    head's class by the same key.

    W is linear and W_b = 0, so W_c is the W of c - b, and a site c behind h
    on a ray from b, c = b + t (h - b) with t > 1, has W_c = t W_h.  It is in
    the class of h and strictly longer, or on the axis with h, and never in
    a minimal pair.  So the classes are built from the heads alone, and each
    tail only joins its head's members or the axis.

    Only the shortest W of a class can be in a minimal pair.  The classes are
    put in angle order, with r = |W|^2 and bound = best |u_k|.  First a
    neighbour-gap certificate: if every two classes p, q adjacent in the
    cyclic angle order have, with cr = W_p x W_q,

        cr^2 min(r_p, r_q) > bound^2 max(r_p, r_q),

    no pair reaches bound and none is walked.  A pair x, z with r_x <= r_z
    spans at least the angle theta from x to its neighbour y on the side
    where the pair's angle is at most a right angle, so
    |W_x x W_z| >= r_x sin theta >= min(r_x, r_y) sin theta; as
    cr^2 = r_x r_y sin^2 theta for p, q = x, y, the inequality says that
    the last term exceeds bound.  Otherwise a second pass writes flat lists
    indexed by class in key order: r, the shortest W turned into the
    half-plane wx > 0 or wx == 0 > wy, where angle order is key order, and
    the summed weight and the sites at that r.  The classes are paired
    shortest first with their neighbours up to a right angle on each side,
    and each is deleted once paired.  Past a neighbour z at angle theta,
    |W_x x W_z|^2 = r_x r_z sin^2 theta >= r_x^2 sin^2 theta (r_z >= r_x)
    only grows, so a side stops once that bound exceeds the running
    minimum.  In the half-plane W_x x W_z > 0 iff z > x, so each side is
    two runs split at the wrap of the cycle: ahead the classes z > x, and
    then z < x, which it meets as -W_z; behind z < x, and then z > x as
    -W_z.  Each run has one fixed sign of the cross product and one fixed
    break test past the right angle: W_x . W_z < 0 and then > 0 ahead,
    <= 0 and then >= 0 behind, so the right angle itself is taken ahead
    only.  W_x x W_z, like bound, is a multiple of |u_k|.  Memory is
    O(len(view)) plus the ties.

    The sites and u are ints, with slack 1, or floats that hold integers
    exactly, with slack 1 + 2^-48 (_scan).  On floats only the squared
    tests, cr^2 r against bound^2 slack r, round: each side by two or three
    roundings, about 5 ulps together, well inside the slack.  So a float
    test can only keep a face unsettled or a walk going where the exact
    test stops, and the exact cr <= bound finds the same pairs.
    """
    ui, uj, uk = u
    ai, aj, ak = view[a]
    e0, e1 = ui * ak - uk * ai, uj * ak - uk * aj
    size = abs(uk)
    bound = best * size  # |W_x x W_z| <= bound iff |det| <= best
    bound_sq = bound * bound * slack
    exact = False  # float keys until they fail
    while True:
        items, axis = [], []
        try:
            for c in heads:
                ci, cj, ck = view[c]
                wx, wy = uk * ci - ui * ck + e0, uk * cj - uj * ck + e1
                if wx:
                    items.append((Fraction(int(wy), int(wx)) if exact else wy / wx,
                                  wx * wx + wy * wy, c, wx, wy))
                elif wy:
                    items.append((_VERTICAL, wy * wy, c, 0, wy))
                else:
                    axis.append(c)
        except OverflowError:  # a slope beyond the floats
            exact = True
            continue
        items.sort()
        # one pass in key order: each class's first item is its shortest, W_p;
        # the certificate compares it with the previous class's W_p
        multi = {}
        key = None
        n_cls = n_lone = 0
        settled = True
        for s, r, c, wx, wy in items:
            if s == key:
                if wx * py != wy * px:
                    break  # two directions share a float
                if members is None:
                    members = multi[s] = [c0, c]
                    n_lone -= 1
                else:
                    members.append(c)
                continue
            if not n_cls:
                fx, fy, fr = wx, wy, r
            elif settled:
                cr = px * wy - py * wx
                if cr * cr * (rp if rp < r else r) <= bound_sq * (r if rp < r else rp):
                    settled = False
            key, px, py, rp, c0, members = s, wx, wy, r, c, None
            n_cls += 1
            n_lone += 1
        else:
            break
        exact = True
    for h, behind in tails:
        hi, hj, hk = view[h]
        wx, wy = uk * hi - ui * hk + e0, uk * hj - uj * hk + e1
        if wx:
            key = Fraction(int(wy), int(wx)) if exact else wy / wx
        elif wy:
            key = _VERTICAL
        else:
            axis += behind  # the one ray of the axis: h, then the sites behind it
            continue
        members = multi.get(key)
        if members is None:
            n_lone -= 1  # the class is the ray of h
        else:
            members += behind
    count = 0
    ties = []
    if n_cls < 2:
        return best, count, ties, n_lone, multi, axis
    if settled:  # the wrap: the last class and the first
        cr = px * fy - py * fx
        if cr * cr * (rp if rp < fr else fr) > bound_sq * (fr if rp < fr else rp):
            return best, count, ties, n_lone, multi, axis
    # per class, in key order: r = |W|^2 of its shortest vectors, the one of
    # them (wx, wy) in the half-plane wx > 0 or wx == 0 > wy, whose angle
    # order is the key order, and the summed weight and the sites at that r
    rs, xs, ys, ns, ss = [], [], [], [], []
    key = None
    for s, r, c, wx, wy in items:
        if s == key:
            if r == rs[-1]:
                ns[-1] += weight[c]
                ss[-1].append(c)
            continue
        if wx < 0 or (wx == 0 and wy > 0):
            wx, wy = -wx, -wy
        key = s
        rs.append(r)
        xs.append(wx)
        ys.append(wy)
        ns.append(weight[c])
        ss.append([c])
    # the classes linked in a cycle
    nxt = list(range(1, n_cls)) + [0]
    prv = [n_cls - 1] + list(range(n_cls - 1))
    for x in sorted(range(n_cls), key=rs.__getitem__):
        rx, x0, x1, nx, sx = rs[x], xs[x], ys[x], ns[x], ss[x]
        # Each side walks until the vector it meets, W_z, or -W_z past the
        # wrap, is past a right angle, which it takes ahead only.  Ahead the
        # classes z > x come first and then, past the wrap, z < x; behind,
        # z < x and then z > x; the second run follows only a first run that
        # reached the wrap without a break (while-else).  Each run has its
        # own break test and cross product, so each is its own copy of the
        # step: a side takes only a few steps per class, and one loop with
        # the tests as data pays more to set up each run than the copies
        # cost.
        z = nxt[x]
        while z > x:  # ahead, W_x x W_z > 0
            z0 = xs[z]
            z1 = ys[z]
            if x0 * z0 + x1 * z1 < 0:
                break
            cr = x0 * z1 - x1 * z0
            if cr <= bound:
                if cr < bound:  # both are multiples of size
                    best, bound, count, ties = cr // size, cr, 0, []
                    bound_sq = cr * cr * slack
                count += nx * ns[z]
                if collect:
                    ties.append((sx, ss[z]))
            elif rx * cr * cr > bound_sq * rs[z]:
                break
            z = nxt[z]
        else:
            while z != x:  # ahead past the wrap, W_x x -W_z > 0
                z0 = xs[z]
                z1 = ys[z]
                if x0 * z0 + x1 * z1 > 0:
                    break
                cr = x1 * z0 - x0 * z1
                if cr <= bound:
                    if cr < bound:
                        best, bound, count, ties = cr // size, cr, 0, []
                        bound_sq = cr * cr * slack
                    count += nx * ns[z]
                    if collect:
                        ties.append((sx, ss[z]))
                elif rx * cr * cr > bound_sq * rs[z]:
                    break
                z = nxt[z]
        z = prv[x]
        while z < x:  # behind, W_z x W_x > 0
            z0 = xs[z]
            z1 = ys[z]
            if x0 * z0 + x1 * z1 <= 0:
                break
            cr = x1 * z0 - x0 * z1
            if cr <= bound:
                if cr < bound:
                    best, bound, count, ties = cr // size, cr, 0, []
                    bound_sq = cr * cr * slack
                count += nx * ns[z]
                if collect:
                    ties.append((sx, ss[z]))
            elif rx * cr * cr > bound_sq * rs[z]:
                break
            z = prv[z]
        else:
            while z != x:  # behind past the wrap, -W_z x W_x > 0
                z0 = xs[z]
                z1 = ys[z]
                if x0 * z0 + x1 * z1 >= 0:
                    break
                cr = x0 * z1 - x1 * z0
                if cr <= bound:
                    if cr < bound:
                        best, bound, count, ties = cr // size, cr, 0, []
                        bound_sq = cr * cr * slack
                    count += nx * ns[z]
                    if collect:
                        ties.append((sx, ss[z]))
                elif rx * cr * cr > bound_sq * rs[z]:
                    break
                z = prv[z]
        nxt[prv[x]] = nxt[x]
        prv[nxt[x]] = prv[x]
    return best, count, ties, n_lone, multi, axis


def _collinear(pts, sites):
    """Whether the points pts[s] over sites, at least two and distinct, lie on
    one line."""
    (x0, y0, z0), (x1, y1, z1) = pts[sites[0]], pts[sites[1]]
    dx, dy, dz = x1 - x0, y1 - y0, z1 - z0
    for s in sites[2:]:
        x, y, z = pts[s]
        x, y, z = x - x0, y - y0, z - z0
        if dy * z != dz * y or dz * x != dx * z or dx * y != dy * x:
            return False
    return True


def _reduced(pts):
    """The integer sites pts with each axis translated so that its least
    value is 0 and divided by the gcd of its offsets (1 for a constant
    axis), and the product of those gcds.  The map is strictly increasing
    on each axis, so it keeps the sort order of the sites and which of them
    are collinear or coplanar, and it divides every full-dimensional det by
    the product."""
    axes, factor = [], 1
    for axis in zip(*pts):
        lo = min(axis)
        offsets = [c - lo for c in axis]
        g = math.gcd(*offsets)
        if g > 1:
            offsets = [c // g for c in offsets]
        axes.append(offsets)
        factor *= g or 1
    return list(zip(*axes)), factor


def _scan(pts, weight, dim, collect):
    """Least positive |det| over the simplices of the (x, y, z)-sorted
    distinct sites pts, returned as (det, count, n_flats, ties): det is twice
    a triangle's area for dim == 2, whose sites lie in the plane z == 0, and
    six times a tetrahedron's volume for dim == 3.  count is the number of
    index (dim + 1)-subsets attaining det, with weight the input points per
    site (0 when none spans), n_flats the number of spanned lines (2D) or
    planes (3D), and ties, with collect, lists the tied site simplices.

    It runs on the per-axis reduced sites of _reduced, with smaller
    integers, and multiplies the least det back by their factor; the site
    indices stay, so the ties are those of pts, on which the records are
    built.  With span the largest reduced coordinate, every integer the
    scan forms is at most 8 span^(2 dim - 2): |W|^2 and the cross and dot
    products of W at most 8 span^4, bound at most 6 span^4 + span, and in
    2D span^2 in place of span^4.  Below _EXACT_FLOAT, 2^53, the sites go
    to _window_pairs as floats, which hold each of them exactly.

    Each simplex is found once, at its face of dim - 1 smallest sites, by
    _window_pairs along u over the later sites, whose classes are the flats
    through the face.  In 2D the face is a and u = (0, 0, 1), so W = c - a.
    In 3D the face is a < b and u = b - a, and the shortest W of a class are
    the sites of its plane nearest to line ab.

    The first sites a are taken in descending order, the b of each a
    ascending, so every face (b, c) comes before any face (a, b), and the
    axis of (a, b), its later sites on line ab, is the run of sites behind b
    on the ray from a.  Once the faces of a are done, heads[a] holds the
    later sites first on their ray from a, and tails[a] pairs each of them
    with sites behind it with the axis of its face; a face (a, b) scans
    heads[b] and tails[b].  2D faces have no axis, so their heads stay
    ranges.  The tables take O(n) on sites in general position, where the
    heads stay ranges, and O(n) per site with collinear later sites: O(n^2)
    at worst, for points on a few lines.  Each face takes O(n) more, plus
    the ties.

    In 3D a face (a, z) is skipped when a site b lies on the open segment az
    and two or more later sites lie on line az: these z are all but the last
    two of the later sites on line ab at the face (a, b).  No minimal pair is
    lost, as the face (b, z) scales every det of (a, z) by
    |z - b| / |z - a| < 1, and no flat is lost, as a face with two or more
    later sites on its line adds none to n_flats (below).

    In 3D, with Z the later sites on line ab and M_P the members of class P,

        n_planes = sum over a < b and P of [Z empty and a, M_P collinear]
                   - [|M_P + Z| >= 2 and M_P + Z on one line that misses b].

    Take a plane with sites s_0 < ... < s_(k-1) and let t be the largest
    index with s_t ... s_(k-1) not collinear.  At a = s_i the first term
    fires at the b = s_j with s_i, s_(j+1) ... s_(k-1) on one line that
    misses s_j: at exactly one j if s_i ... s_(k-1) are not collinear
    (i <= t), else at none.  The second term fires at b = s_t alone, so for
    each i < t.  The plane adds (t + 1) - t = 1.  A one-member class adds
    [|Z| = 0] - [|Z| = 1], and with |Z| >= 2 no term fires, so only classes
    with two or more members need their sites.  A class that is one ray from
    b adds nothing: its line passes through b and misses a, and the one site
    that Z may hold, on line ab past b, is not on it.

    In 2D, Z, the later sites at a, is empty, and a line with sites
    s_0 < ... < s_(k-1) is a class at each s_i, i < k - 1, with the k - 1 - i
    sites after s_i as members.  Only at s_(k-2) has it one member, so n_lines
    is the one-member term alone.  Larger classes add nothing in 2D, and the
    3D terms, which would count them as a, M_P lie on their line, are skipped.
    """
    pts, factor = _reduced(pts)
    m = len(pts)
    span = max(map(max, pts))  # every reduced axis starts at 0
    # above every |det|: 2 span^2 in 2D, (3 span^2)^(3/2) in 3D
    best = math.factorial(dim) * span ** dim + 1
    slack = 1
    if 8 * span ** (2 * dim - 2) < _EXACT_FLOAT:  # it bounds every integer the scan forms
        pts, slack = [tuple(map(float, p)) for p in pts], _FLOAT_SLACK
    count = n_flats = 0
    ties = []
    if dim == 2:
        view, u = pts, (0, 0, 1)
    else:
        # the coordinates as (i, j, k) with k the dropped one
        views = [[(p[1], p[2], p[0]) for p in pts], [(p[0], p[2], p[1]) for p in pts], pts]
    # per site s, once its faces are done: the later sites first on their ray
    # from s, and per ray with more, (that first site, the sites behind it)
    heads = [range(s + 1, m) for s in range(m)]
    tails = [()] * m
    for a in range(m - dim, -1, -1):
        shadowed, pruned, rays = set(), set(), []
        for b in range(a + 1, m - 1) if dim == 3 else (a,):
            if b in pruned:
                continue  # the face (a, b) is skipped
            if dim == 3:
                x, y, z = pts[a]
                dx, dy, dz = pts[b]
                dx, dy, dz = abs(dx - x), abs(dy - y), abs(dz - z)
                # k is the first coordinate with the largest |u_k|
                view = views[0 if dx >= dy and dx >= dz else 1 if dy >= dz else 2]
                (ai, aj, ak), (bi, bj, bk) = view[a], view[b]
                u = bi - ai, bj - aj, bk - ak
            least, pairs, tied, n_lone, multi, axis = _window_pairs(
                view, a, u, heads[b], tails[b], weight, best, collect, slack)
            if len(axis) < 2:
                n_flats += n_lone * (-1 if axis else 1)
                if dim == 3:
                    for members in multi.values():
                        line = axis + members
                        n_flats += ((not axis and _collinear(pts, [a] + members))
                                    - (_collinear(pts, line)
                                       and not _collinear(pts, line[:2] + [b])))
            if axis and b not in shadowed:  # b is first on its ray from a
                rays.append((b, axis))
                shadowed.update(axis)
                pruned.update(axis[:-2])
            if pairs:
                if least < best:
                    best, count, ties = least, 0, []
                face = (a, b) if dim == 3 else (a,)
                count += math.prod(map(weight.__getitem__, face)) * pairs
                ties += [face + (c, d) for cs, ds in tied for c in cs for d in ds]
        if rays:
            heads[a] = [c for c in heads[a] if c not in shadowed]
            tails[a] = rays
    return int(best) * factor, count, n_flats, ties


def _sites(coords, indices):
    """The distinct points coords[i] over indices, sorted, and the indices at
    each: coincident points merge into one weighted site."""
    sites: dict[tuple[int, ...], list[int]] = {}
    for i in indices:
        sites.setdefault(coords[i], []).append(i)
    pts = sorted(sites)
    return pts, [sites[p] for p in pts]


def _expand(simplices, idx, single):
    """The sorted index tuples of the site simplices, idx[s] the input
    indices at site s.  single says that every site holds one input point,
    as in a set without duplicates: each simplex is then one tuple, with no
    product of the sites' indices to take."""
    if single:
        return sorted([tuple(sorted([idx[s][0] for s in simplex])) for simplex in simplices])
    return sorted([tuple(sorted(w)) for simplex in simplices
                   for w in product(*map(idx.__getitem__, simplex))])


def _n_lines(pts, on):
    """Number of lines spanned by the sorted distinct sites pts[s], s in on,
    which span a plane.  A line through k sites has one site with exactly one
    later site on it, so this counts the directions that exactly one later
    site takes from each site; they lead positive as the sites are sorted."""
    if len(on) == 3:
        return 3
    xyz = [pts[s] for s in on]
    n_lines = 1  # from the second-to-last site; the last adds none
    for i in range(len(xyz) - 2):
        x, y, z = xyz[i]
        once, more = set(), set()
        for x2, y2, z2 in xyz[i + 1:]:
            dx, dy, dz = x2 - x, y2 - y, z2 - z
            c = math.gcd(dx, dy, dz)
            d = dx // c, dy // c, dz // c
            (more if d in once else once).add(d)
        n_lines += len(once) - len(more)
    return n_lines


def _rows(pts, idx, tied, scale):
    """One row per hyperplane through a facet of the tied site simplices, in
    the order of the reports: (g, (normal, offset), on, facets, n_points,
    n_facets, n_lines, (nn, measure_den), dist_den, sides).  The hyperplane
    is g . P == t of the sorted (x, y, z) sites pts, g a primitive normal
    (g2 == 0 for triangles of the sites (x, y, 0)), and (normal, offset) is
    its key, (scale g, t) reduced.  on and facets are its sites and minimal
    facets, n_points and n_facets their input points, idx[s] being those at
    site s, and n_lines its spanned lines (None in 2D).  The facets' squared
    measure is nn / measure_den, |N|^2 of their normal N over
    (d - 1)!^2 scale^(2d - 2).  sides has an entry per side with a tie,
    below first: (above, the nearest sites, their input points, dt^2), at a
    squared distance of dt^2 / dist_den, with dist_den = |g|^2 scale^2.  3D
    rows come by (g, t), 2D rows by the line's direction (g1, -g0), then t.

    Every facet of a minimal simplex is a minimal facet of its hyperplane
    and its apex a nearest point on that side, and every minimal facet with
    a nearest point on a side that has a tie is a tie, so the facets of a
    hyperplane are all of its minimal facets, on either side, and the apexes
    on a side all of that side's nearest points.

    The rows come in one pass: ties, then facets, then hyperplanes.  A tie
    of _scan is its face's sites, ascending, then two later sites, so it is
    sorted once those two are in order; it is unpacked as its sites, and
    its d + 1 (facet, apex) pairs are grouped by facet.  Each distinct
    facet then takes its primitive normal g, and goes under the key
    (g0, g1, g2, t) with its apexes split by side: the apex is above iff
    dt = t - g . apex < 0.  A hyperplane works out |N|^2 once, from the
    facet that first reaches it.  A triangle face has N = face_normal and
    g = primitive_vector(N), leading positive as in HyperplaneKey.  An edge
    e, leading positive as the sites are sorted, has |N| = |e| and g the
    quarter turn of primitive_vector(e), which is the LineKey direction, so
    LineKey.side_of agrees with above.

    Each tie costs d + 1 facet lookups, each distinct facet one normal and
    one hyperplane lookup, and each (facet, apex) pair a dot product.  Each
    hyperplane costs one pass over the n sites (a normal's later
    hyperplanes share one bucketing by g . p) and, in a plane with k > 3
    sites, O(k^2) for its lines.  The rows hold only integers and site
    lists: _contributing wraps them in record objects, and the command line
    formats them straight into JSON text.
    """
    dim = len(tied[0]) - 1
    weight = [len(i) for i in idx]
    single = len(weight) == sum(weight)  # then input points are counted by length
    weigh = len if single else lambda sites: sum(map(weight.__getitem__, sites))
    measure_den = math.factorial(dim - 1) ** 2 * scale ** (2 * dim - 2)
    apexes_of: dict[tuple, list[int]] = {}
    for tie in tied:
        if dim == 3:
            a, b, c, d = tie
            if c > d:
                c, d = d, c
            pairs = ((b, c, d), a), ((a, c, d), b), ((a, b, d), c), ((a, b, c), d)
        else:
            a, b, c = tie
            if b > c:
                b, c = c, b
            pairs = ((b, c), a), ((a, c), b), ((a, b), c)
        for facet, apex in pairs:
            apexes = apexes_of.get(facet)
            if apexes is None:
                apexes_of[facet] = [apex]
            else:
                apexes.append(apex)
    planes: dict[tuple, list] = {}
    for facet, apexes in apexes_of.items():
        x, y, z = pts[facet[0]]
        if dim == 3:
            s0, s1, s2 = facet
            normal = face_normal((pts[s0], pts[s1], pts[s2]))[0]
            g0, g1, g2 = primitive_vector(normal)
        else:  # the edge e stands in for N, which is e turned a quarter
            normal = pts[facet[1]][0] - x, pts[facet[1]][1] - y
            e0, e1 = primitive_vector(normal)
            g0, g1, g2 = -e1, e0, 0
        t = g0 * x + g1 * y + g2 * z
        plane = planes.get((g0, g1, g2, t))
        if plane is None:
            # its facets, |N|^2, and per side (below, above) the dt and the
            # nearest sites, which all share it
            plane = planes[g0, g1, g2, t] = [[facet], sum(map(mul, normal, normal)),
                                             0, 0, set(), set()]
        else:
            plane[0].append(facet)
        for apex in apexes:
            x, y, z = pts[apex]
            dt = t - g0 * x - g1 * y - g2 * z
            plane[2 + (dt < 0)] = dt
            plane[4 + (dt < 0)].add(apex)
    del apexes_of  # not held while the rows are consumed
    dots_of = None
    # a 2D key sorts by the direction (g1, -g0) of its line
    for key in sorted(planes, key=None if dim == 3 else lambda key: (key[1], -key[0], key[3])):
        g0, g1, g2, t = key
        # the sorted keys bring each normal's hyperplanes together
        if dots_of != key[:3]:
            dots_of, on_plane = key[:3], {}
            on = [s for s, (x, y, z) in enumerate(pts) if g0 * x + g1 * y + g2 * z == t]
        else:
            if not on_plane:
                for s, (x, y, z) in enumerate(pts):
                    on_plane.setdefault(g0 * x + g1 * y + g2 * z, []).append(s)
            on = on_plane[t]
        facets, nn, dt_below, dt_above, below, above = planes[key]
        n_facets = len(facets) if single else sum(
            [math.prod(map(weight.__getitem__, facet)) for facet in facets])
        sides = []
        if below:
            sides.append((False, below, weigh(below), dt_below * dt_below))
        if above:
            sides.append((True, above, weigh(above), dt_above * dt_above))
        h = math.gcd(scale, t)  # g is primitive, so (scale g, t) reduces by gcd(scale, t)
        yield (dots_of, ((scale * g0 // h, scale * g1 // h, scale * g2 // h), t // h), on,
               facets, weigh(on), n_facets, _n_lines(pts, on) if dim == 3 else None,
               (nn, measure_den), (g0 * g0 + g1 * g1 + g2 * g2) * scale * scale, sides)


def _contributing(pts, idx, tied, scale):
    """(summary, side record) pairs of the tied site simplices, one per side
    of each row of _rows: (PlaneSummary, SlabRecord) for tetrahedra and
    (LineSummary, LineSideRecord) for triangles, idx[s] the input indices at
    site s.  The rows hold every count and exact value; this adds each
    hyperplane's incident and witness lists and each side's nearest list.
    """
    dim = len(tied[0]) - 1
    record = SlabRecord if dim == 3 else LineSideRecord
    single = len(pts) == sum(map(len, idx))
    fractions: dict[tuple[int, int], Fraction] = {}

    def exact(num, den):  # each exact value is made once per distinct value
        value = fractions.get((num, den))
        if value is None:
            value = fractions[num, den] = Fraction(num, den)
        return value

    contrib = []
    for (g, (normal, offset), on, facets, n_points, n_facets, n_lines, measure, dist_den,
         sides) in _rows(pts, idx, tied, scale):
        incident = tuple(sorted([i for s in on for i in idx[s]]))
        wit = tuple(_expand(facets, idx, single))
        if dim == 3:
            summary = PlaneSummary(HyperplaneKey(normal, offset), incident, n_points, n_lines,
                                   exact(*measure), n_facets, wit)
        else:  # the line normal . P == offset is nearest the origin at offset normal / |normal|^2
            n0, n1, _ = normal
            nn = n0 * n0 + n1 * n1
            summary = LineSummary(
                LineKey((g[1], -g[0]), (Fraction(offset * n0, nn), Fraction(offset * n1, nn))),
                incident, n_points, exact(*measure), n_facets, wit)
        for above, apexes, count, dt_sq in sides:
            nearest = tuple(sorted([i for s in apexes for i in idx[s]]))
            contrib.append((summary, record(summary.key, "above" if above else "below",
                                            exact(dt_sq, dist_den), count, nearest)))
    return tuple(contrib)


@contextlib.contextmanager
def _gc_paused():
    """Pause the cyclic garbage collector over the block, when it is enabled,
    and enable it again however the block exits; a disabled collector is left
    as it is.  A witness build makes many tuples, lists and records that form
    no cycles, and each collection pass during the build would walk them
    again; reference counting still frees them, and what outlives the block
    is walked once, by the first collection after it."""
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _minimal(ps, dim, witnesses):
    """(measure, count, n_flats, witnesses, solved) of the minimum-area
    triangles (dim 2) or minimum-volume tetrahedra (dim 3) of ps, the last
    two None without witnesses.  solved is (sites, input indices per site,
    tied site simplices, scale), from which _contributing builds the
    records.  A 2D set is scanned as its sites at z == 0.
    """
    if ps.dim != dim:
        raise DimensionMismatch(f"need a {dim}D point set, got dim {ps.dim}")
    if len(ps) <= dim:
        raise AllDegenerate("fewer than three points cannot span a triangle" if dim == 2
                            else "fewer than four points cannot span a tetrahedron")
    coords, scale = integer_coordinates(ps)
    pts, idx = _sites([p + (0,) * (3 - dim) for p in coords], range(len(ps)))
    if len(pts) < 2:
        raise AllDegenerate("all points coincide")
    det, count, n_flats, ties = _scan(pts, [len(i) for i in idx], dim, witnesses)
    if not count:
        raise AllDegenerate("all points are coplanar" if dim == 3 and n_flats
                            else "all points are collinear")
    measure = Fraction(det, math.factorial(dim) * scale ** dim)
    if not witnesses:
        return measure, count, n_flats, None, None
    wit = tuple(_expand(ties, idx, len(pts) == len(ps)))
    return measure, count, n_flats, wit, (pts, idx, ties, scale)


# ---------------------------------------------------------------------------
# public operations


def min_volume_tetrahedra(ps: PointSet, witnesses: bool = True) -> MinVolumeReport:
    """Report all tetrahedra of minimum nonzero volume of a 3D point set.

    Coincident points are merged, and each pair of points a < b scans the
    later points projected along b - a, where a tetrahedron's volume is
    |b - a| times a projected triangle's area over 3: nearest-to-the-edge
    points of each plane through ab are paired in angular windows that the
    running minimum bounds.  Every tetrahedron is found once, at its two
    smallest points.  On random points most pairs are settled before any
    pairing, so the time is about that of building the classes, O(n) for
    each of the O(n^2) pairs (the README gives measured times); the worst
    case, windows that the minimum does not narrow, is O(n^4).  With
    witnesses=False only the exact minimum, the exact count and the number
    of spanned planes are computed, in O(n) memory on points in general
    position and O(n^2) at worst, on points along a few lines; otherwise the
    witness tetrahedra and the contributing (plane, slab) pairs are
    materialized from the tied points as well, with the cyclic garbage
    collector paused (_gc_paused).
    """
    with _gc_paused() if witnesses else contextlib.nullcontext():
        vol, count, n_planes, wit, solved = _minimal(ps, 3, witnesses)
        contributing = solved and _contributing(*solved)
    return MinVolumeReport(vol, vol * vol, count, 4 * count, n_planes, wit, contributing)


def min_area_triangles(ps: PointSet, witnesses: bool = True) -> MinAreaReport:
    """Report all triangles of minimum nonzero area of a 2D point set.

    Coincident points are merged, and each point a scans the vectors to the
    later points c: the points of each line through a nearest to a are
    paired in angular windows that the running minimum bounds, and every
    triangle is found once, at its smallest point.  On random points most
    points are settled before any pairing, so the time is about that of
    building the classes, O(n) for each of the n points (the README gives
    measured times); the worst case, windows that the minimum does not
    narrow, is O(n^3).  Working memory is O(n); with witnesses the tied
    triangles are kept too, and the witness triangles and the contributing
    (line, side) pairs are materialized from them, with the cyclic garbage
    collector paused (_gc_paused).
    """
    with _gc_paused() if witnesses else contextlib.nullcontext():
        area, count, n_lines, wit, solved = _minimal(ps, 2, witnesses)
        contributing = solved and _contributing(*solved)
    return MinAreaReport(area, area * area, count, 3 * count, n_lines, wit, contributing)
