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
pass.  A plane of a 3D set is scanned as a 2D set after its points are
projected onto a coordinate plane.

The faces and apexes of the tied simplices then give each contributing line
or plane and its nearest points on one side (its empty slab).  A
minimum-volume tetrahedron is a minimum-area triangle of a plane with a
nearest point on one side, once for each of its four faces, so the face
products sum to four times the count.  The 2D analogue counts every
minimum-area triangle once per side and divides by three.  Candidate measures
are compared exactly as integer cross-products; reported values are exact
rationals.

On random points most faces are settled without pairing, by the
neighbour-gap certificate of _window_pairs, and the scans grew as about
n^2.0 (2D, n = 200..800) and n^2.9 (3D, n = 40..160: 0.023 to 1.3 s on a
shared 2-vCPU host, Python 3.11); when the running minimum does not narrow
the windows they take O(n^3) and O(n^4).  The guaranteed O(n^2)
minimum-area triangle through the dual line arrangement (Edelsbrunner,
O'Rourke and Seidel, SIAM J. Comput. 1986) is not implemented.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from operator import itemgetter, mul
from typing import Iterable

from .exact import (
    AllDegenerate,
    DegenerateInput,
    DimensionMismatch,
    HyperplaneKey,
    LineKey,
    PointSet,
    face_normal,
    integer_coordinates,
    line_key,
    plane_key,
    primitive_vector,
)

__all__ = [
    "SegmentRun",
    "PlaneSummary",
    "SlabRecord",
    "MinVolumeReport",
    "LineSummary",
    "LineSideRecord",
    "MinAreaReport",
    "shortest_segments_on_line",
    "min_area_triangles_in_plane",
    "empty_slabs",
    "min_volume_tetrahedra",
    "min_area_triangles",
]


@dataclass(frozen=True)
class SegmentRun:
    """Shortest-segment statistics of collinear points."""
    min_length_sq: Fraction
    count: int
    pairs: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class PlaneSummary:
    """Per-plane extremal statistics: incident points, number of spanned
    lines, and the minimum-nonzero-area triangles within the plane.
    key is None when the ambient dimension is 2 (the whole plane)."""
    key: HyperplaneKey | None
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


def _window_pairs(view, a, u, start, weight, scale_k, vertical, best, collect):
    """Least positive |det(u, c - a, d - a)|, at most best, over the sites
    c, d of view from start on, returned as
    (least, count, ties, n_classes, multi, axis).  view holds the sites as
    integer (i, j, k) triples and u is an integer (i, j, k) vector with
    u_k != 0.  count sums the products of the site weights over the pairs
    attaining least, and ties, with collect, lists their (sites c, sites d);
    both are empty when no pair reaches best.

    Along u every site c projects to the integer vector
    W = u_k (c - a) - (c - a)_k u with coordinate k dropped, and
    |det(u, c - a, d - a)| = |W_c x W_d| / |u_k|.  Sites with parallel W lie
    on one plane through the line of u at a, and are the members of one of
    n_classes angle classes; multi maps the key of each class with two or
    more members to its member sites, and axis lists the sites with W == 0,
    which are in no class.  The key of a direction is
    floor(wy * scale_k / wx), or vertical for wx == 0.  The keys are exact
    when scale_k exceeds the square of every entry of W, as distinct slopes
    then differ by more than 1 / scale_k, and vertical must be below every
    other key.

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
    the last term exceeds bound.  Otherwise the classes are paired shortest
    first with their neighbours up to a right angle on each side, and each
    is deleted once paired.  Past a neighbour z at angle theta,
    |W_x x W_z|^2 = r_x r_z sin^2 theta >= r_x^2 sin^2 theta (r_z >= r_x)
    only grows, so a side stops once that bound exceeds the running
    minimum.  Memory is O(len(view)) plus the ties.
    """
    ui, uj, uk = u
    ai, aj, ak = view[a]
    e0, e1 = ui * ak - uk * ai, uj * ak - uk * aj
    size = abs(uk)
    # each class is [r, wx, wy, weight, sites]: r = |W|^2 of its shortest
    # vectors, one of them, and the summed weight and the sites at that length
    classes: dict[int, list] = {}
    multi: dict[int, list[int]] = {}
    axis = []
    for c in range(start, len(view)):
        ci, cj, ck = view[c]
        wx, wy = uk * ci - ui * ck + e0, uk * cj - uj * ck + e1
        if wx:
            key = wy * scale_k // wx
        elif wy:
            key = vertical
        else:
            axis.append(c)
            continue
        r = wx * wx + wy * wy
        cls = classes.get(key)
        if cls is not None:
            members = multi.get(key)
            if members is None:
                multi[key] = [cls[4][0], c]  # a lone member is its own shortest
            else:
                members.append(c)
            if r >= cls[0]:
                if r == cls[0]:
                    cls[3] += weight[c]
                    cls[4].append(c)
                continue
        # stored in the half-plane wx > 0 or wx == 0 > wy, whose angle order
        # is the key order
        if wx < 0 or (wx == 0 and wy > 0):
            wx, wy = -wx, -wy
        classes[key] = [r, wx, wy, weight[c], [c]]
    count = 0
    ties = []
    n_cls = len(classes)
    if n_cls < 2:
        return best, count, ties, n_cls, multi, axis
    recs = [classes[key] for key in sorted(classes)]  # in angle order
    bound = best * size  # |W_x x W_z| <= bound iff |det| <= best
    bound_sq = bound * bound
    # the neighbour-gap certificate: no pair reaches bound
    rp, px, py, _, _ = recs[-1]
    for rq, qx, qy, _, _ in recs:
        cr = px * qy - py * qx
        if cr * cr * (rp if rp < rq else rq) <= bound_sq * (rq if rp < rq else rp):
            break
        rp, px, py = rq, qx, qy
    else:
        return best, count, ties, n_cls, multi, axis
    # the classes linked in a cycle
    nxt = list(range(1, n_cls)) + [0]
    prv = [n_cls - 1] + list(range(n_cls - 1))
    for x in sorted(range(n_cls), key=[rec[0] for rec in recs].__getitem__):
        rx, x0, x1, nx, sx = recs[x]
        for link, ahead in ((nxt, True), (prv, False)):
            z = link[x]
            while z != x:
                rz, z0, z1, nz, sz = recs[z]
                dot = x0 * z0 + x1 * z1
                if (z > x) != ahead:
                    dot = -dot  # z wrapped past the end of the angle order
                # beyond a right angle; the right angle itself is scanned ahead only
                if dot < 0 or (dot == 0 and not ahead):
                    break
                cr = abs(x0 * z1 - x1 * z0)
                if cr <= bound:
                    least = cr // size
                    if least < best:
                        best, bound, count, ties = least, least * size, 0, []
                        bound_sq = bound * bound
                    count += nx * nz
                    if collect:
                        ties.append((sx, sz))
                elif rx * cr * cr > bound_sq * rz:
                    break
                z = link[z]
        nxt[prv[x]] = nxt[x]
        prv[nxt[x]] = prv[x]
    return best, count, ties, n_cls, multi, axis


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


def _scan(pts, weight, dim, collect):
    """Least positive |det| over the simplices of the (x, y, z)-sorted
    distinct sites pts, returned as (det, count, n_flats, ties): det is twice
    a triangle's area for dim == 2, whose sites lie in the plane z == 0, and
    six times a tetrahedron's volume for dim == 3.  count is the number of
    index (dim + 1)-subsets attaining det, with weight the input points per
    site (0 when none spans), n_flats the number of spanned lines (2D) or
    planes (3D), and ties, with collect, lists the tied site simplices.

    Each simplex is found once, at its face of dim - 1 smallest sites, by
    _window_pairs along u over the later sites, whose classes are the flats
    through the face.  In 2D the face is a and u = (0, 0, 1), so W = c - a.
    In 3D the face is a < b and u = b - a, and the shortest W of a class are
    the sites of its plane nearest to line ab.  Memory is O(n) per face,
    plus the ties.

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
    with two or more members need their sites.

    In 2D, Z, the later sites at a, is empty, and a line with sites
    s_0 < ... < s_(k-1) is a class at each s_i, i < k - 1, with the k - 1 - i
    sites after s_i as members.  Only at s_(k-2) has it one member, so n_lines
    is the one-member term alone.  Larger classes add nothing in 2D, and the
    3D terms, which would count them as a, M_P lie on their line, are skipped.
    """
    m = len(pts)
    span = max(max(p[c] for p in pts) - min(p[c] for p in pts) for c in range(3))
    # above every |det|: 2 span^2 in 2D, (3 span^2)^(3/2) in 3D
    best = math.factorial(dim) * span ** dim + 1
    count = n_flats = 0
    ties = []
    if dim == 2:
        view, u = pts, (0, 0, 1)
        scale_k = span * span + 1  # W = c - a has entries at most span
        vertical = -span * scale_k - 1
    else:
        # the coordinates as (i, j, k) with k the dropped one
        views = [[(p[1], p[2], p[0]) for p in pts], [(p[0], p[2], p[1]) for p in pts], pts]
    for face in combinations(range(m - 1), dim - 1):
        a, b = face[0], face[-1]
        if dim == 3:
            if b == a + 1:
                pruned = set()  # the sites z > b whose face (a, z) is skipped
            elif b in pruned:
                continue
            x, y, z = pts[a]
            dx, dy, dz = pts[b]
            dx, dy, dz = abs(dx - x), abs(dy - y), abs(dz - z)
            # k is the first coordinate with the largest |u_k|
            view = views[0 if dx >= dy and dx >= dz else 1 if dy >= dz else 2]
            (ai, aj, ak), (bi, bj, bk) = view[a], view[b]
            u = bi - ai, bj - aj, bk - ak
            # W's entries are at most mag in size, as |u_k| is u's largest
            # and no coordinate spans more than span
            mag = 2 * abs(u[2]) * span
            scale_k = mag * mag + 1
            vertical = -mag * scale_k - 1
        least, pairs, tied, n_cls, multi, axis = _window_pairs(
            view, a, u, b + 1, weight, scale_k, vertical, best, collect)
        if len(axis) > 2:
            pruned.update(axis[:-2])
        elif len(axis) < 2:
            n_flats += (n_cls - len(multi)) * (-1 if axis else 1)
            if dim == 3:
                for members in multi.values():
                    line = axis + members
                    n_flats += ((not axis and _collinear(pts, [a] + members))
                                - (_collinear(pts, line)
                                   and not _collinear(pts, line[:2] + [b])))
        if pairs:
            if least < best:
                best, count, ties = least, 0, []
            count += math.prod(map(weight.__getitem__, face)) * pairs
            ties += [face + (c, d) for cs, ds in tied for c in cs for d in ds]
    return best, count, n_flats, ties


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


def _rows(pts, tied):
    """The (hyperplane, side) pairs of the facets of the tied site
    simplices, in the order of the reports, as rows
    (g, t, above, on, facets, apexes, nn, dt_sq) of integers and site lists:
    the hyperplane g . P == t of the sorted (x, y, z) sites pts, with g a
    primitive normal (g2 == 0 for triangles of the sites (x, y, 0)), the
    sites on it, its minimal facets, that side's nearest sites, |N|^2 of the
    facets' normal N and the squared offset dt^2 of the nearest sites.  The
    two rows of one hyperplane share on and facets.  3D rows come by (g, t),
    2D rows by the line's direction (g1, -g0), then t; "below" first.

    Every facet of a minimal simplex is a minimal facet of its hyperplane
    and its apex a nearest point on that side, and every minimal facet with
    a nearest point on a side that has a tie is a tie, so the facets of a
    hyperplane are all of its minimal facets, on either side, and the apexes
    on a side all of that side's nearest points.  Each sorted tie gives its
    (facet, apex) pairs from one position table, grouped by facet first.
    Each distinct facet then takes its normal N once and its primitive
    normal g, and goes under the key (g0, g1, g2, t) with its apexes split
    by side: the apex is above iff dt = t - g . apex < 0.  A triangle face
    has N = face_normal and g = primitive_vector(N), leading positive as in
    HyperplaneKey.  An edge with direction e, leading positive as the sites
    are sorted, has N = face_normal = (-e1, e0) and g the quarter turn of
    primitive_vector(e), which is the LineKey direction, so LineKey.side_of
    agrees with above.

    Each tie costs d + 1 facet lookups, each distinct facet one normal and
    one hyperplane lookup, and each (facet, apex) pair a dot product.  Each
    hyperplane costs one pass over the n sites (a normal's later
    hyperplanes share one bucketing by g . p).
    """
    dim = len(tied[0]) - 1
    positions = [(itemgetter(*(j for j in range(dim + 1) if j != k)), k)
                 for k in range(dim + 1)]
    apexes_of: dict[tuple, list[int]] = {}
    for tie in tied:
        tie = sorted(tie)
        for facet_of, k in positions:
            facet = facet_of(tie)
            apexes = apexes_of.get(facet)
            if apexes is None:
                apexes_of[facet] = [tie[k]]
            else:
                apexes.append(tie[k])
    sites = pts if dim == 3 else [p[:2] for p in pts]  # in face_normal's dimension
    planes: dict[tuple, list] = {}
    for facet, apexes in apexes_of.items():
        normal = face_normal(list(map(sites.__getitem__, facet)))[0]
        if dim == 3:
            g0, g1, g2 = primitive_vector(normal)
        else:
            e0, e1 = primitive_vector((normal[1], -normal[0]))
            g0, g1, g2 = -e1, e0, 0
        x, y, z = pts[facet[0]]
        t = g0 * x + g1 * y + g2 * z
        plane = planes.get((g0, g1, g2, t))
        if plane is None:
            # its facets, a normal N, and per side (below, above) the dt and
            # the nearest sites, which all share it
            plane = planes[g0, g1, g2, t] = [[facet], normal, 0, 0, set(), set()]
        else:
            plane[0].append(facet)
        for apex in apexes:
            x, y, z = pts[apex]
            dt = t - g0 * x - g1 * y - g2 * z
            plane[2 + (dt < 0)] = dt
            plane[4 + (dt < 0)].add(apex)
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
        facets, normal, dt_below, dt_above, below, above = planes[key]
        nn = sum(map(mul, normal, normal))
        if below:
            yield dots_of, t, False, on, facets, below, nn, dt_below * dt_below
        if above:
            yield dots_of, t, True, on, facets, above, nn, dt_above * dt_above


def _contributing(pts, idx, tied, scale):
    """(summary, side record) pairs of the tied site simplices, one per row
    of _rows: (PlaneSummary, SlabRecord) for tetrahedra and
    (LineSummary, LineSideRecord) for triangles, idx[s] the input indices at
    site s.  The facet's squared measure is
    |N|^2 / ((d - 1)!^2 scale^(2d - 2)), the apex's squared distance
    dt^2 / (|g|^2 scale^2).

    Besides the rows, each hyperplane costs its incident and witness lists
    and, in a plane with k > 3 sites, O(k^2) for its lines, and each record
    its nearest list.  On a shared 2-vCPU host (Python 3.11), best of 7:
    about 6.0 ms per input of 20 lattice points with 244 ties, 422 distinct
    facets, 314 planes and 430 records (the seed-1 verify3d pool of
    perfbench), of which the rows take 2.7 ms; the CLI prints the same
    records from the same rows in 3.7 ms.  0.14 s on gen_lattice_slab3d(50)
    (27 456 ties, 3 378 planes) and 0.25 s on gen_lattice2d(196) (22 916
    ties, 8 830 lines).
    """
    dim = len(tied[0]) - 1
    measure_den = math.factorial(dim - 1) ** 2 * scale ** (2 * dim - 2)
    record = SlabRecord if dim == 3 else LineSideRecord
    single = len(pts) == sum(map(len, idx))
    hyperplane = None
    contrib = []
    for g, t, above, on, facets, apexes, nn, dt_sq in _rows(pts, tied):
        g0, g1, g2 = g
        gg = g0 * g0 + g1 * g1 + g2 * g2
        if hyperplane != (g, t):
            hyperplane = g, t
            incident = tuple(sorted([i for s in on for i in idx[s]]))
            wit = tuple(_expand(facets, idx, single))
            if dim == 3:
                # g is primitive, so (scale g, t) reduces by gcd(scale, t)
                h = math.gcd(scale, t)
                summary = PlaneSummary(
                    key=HyperplaneKey((scale * g0 // h, scale * g1 // h, scale * g2 // h), t // h),
                    incident=incident, n_points=len(incident), n_lines=_n_lines(pts, on),
                    min_area_sq=Fraction(nn, measure_den), count=len(wit), witnesses=wit)
            else:  # the scaled line passes nearest the origin at t * g / |g|^2
                summary = LineSummary(
                    key=LineKey(direction=(g1, -g0), anchor=(Fraction(t * g0, gg * scale),
                                                             Fraction(t * g1, gg * scale))),
                    incident=incident, n_points=len(incident),
                    min_length_sq=Fraction(nn, measure_den), count=len(wit), witnesses=wit)
        nearest = tuple(sorted([i for s in apexes for i in idx[s]]))
        contrib.append((summary, record(summary.key, "above" if above else "below",
                                        Fraction(dt_sq, gg * scale ** 2), len(nearest),
                                        nearest)))
    return tuple(contrib)


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
    if dim == 2 and len(pts) < 2:
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


def shortest_segments_on_line(ps: PointSet, indices: Iterable[int]) -> SegmentRun:
    """Number and (squared) length of the shortest segments between
    consecutive collinear points."""
    idx = sorted(set(indices))
    if len(idx) < 2:
        raise ValueError("need at least two collinear points")
    distinct = [i for i in idx if ps.points[i] != ps.points[idx[0]]]
    if not distinct:
        raise AllDegenerate("all points coincide; no segment has positive length")
    key = line_key(ps, idx[0], distinct[0])
    for i in idx:
        if not key.contains(ps.points[i]):
            raise DegenerateInput(f"point {i} is not on the common line")
    d = key.direction
    # the points by position d . p along the line, coincident ones together
    groups: dict[Fraction, list[int]] = {}
    for i in idx:
        groups.setdefault(sum(c * x for c, x in zip(d, ps.points[i])), []).append(i)
    order = sorted(groups)
    min_gap = min(t2 - t1 for t1, t2 in zip(order, order[1:]))
    pairs = sorted(tuple(sorted((i, j))) for t1, t2 in zip(order, order[1:])
                   if t2 - t1 == min_gap for i in groups[t1] for j in groups[t2])
    return SegmentRun(min_length_sq=min_gap * min_gap / sum(c * c for c in d),
                      count=len(pairs), pairs=tuple(pairs))


def _noncollinear_triple(ps: PointSet, indices):
    first = indices[0]
    second = next((i for i in indices if ps.points[i] != ps.points[first]), None)
    if second is None:
        return None
    key = line_key(ps, first, second)
    return next(((first, second, i) for i in indices if not key.contains(ps.points[i])), None)


def min_area_triangles_in_plane(ps: PointSet,
                                indices: Iterable[int] | None = None) -> PlaneSummary:
    """Minimum-nonzero-area triangles among a coplanar subset.

    The subset must lie in a common plane (trivially true for 2D input).  Its
    points are projected onto the coordinate plane that drops the largest
    entry N_k of the plane's normal N, which scales every area by |N_k| / |N|
    and keeps everything else, and then scanned as in min_area_triangles.
    """
    if ps.dim not in (2, 3):
        raise DimensionMismatch("min-area scan supports 2D and 3D point sets")
    idx = sorted(set(indices)) if indices is not None else list(range(len(ps)))
    if len(idx) < 3:
        raise ValueError("need at least three points")
    key = None
    if ps.dim == 3:
        triple = _noncollinear_triple(ps, idx)
        if triple is None:
            raise AllDegenerate("all incident points are collinear")
        key = plane_key(ps, triple)
        for i in idx:
            if not key.contains(ps.points[i]):
                raise DegenerateInput(f"point {i} is not on the plane of the others")
    coords, scale = integer_coordinates(ps)
    # a 2D set is the plane z == 0, whose dropped coordinate is absent
    normal = key.normal if key else (0, 0, 1)
    k = max(range(3), key=lambda c: abs(normal[c]))
    view, sites = _sites({i: coords[i][:k] + coords[i][k + 1:] + (0,) for i in idx}, idx)
    cross, count, n_lines, tris = _scan(view, [len(s) for s in sites], 2, True)
    if not count:
        raise AllDegenerate("all incident points are collinear")
    return PlaneSummary(
        key=key,
        incident=tuple(idx),
        n_points=len(idx),
        n_lines=n_lines,
        min_area_sq=Fraction(cross * cross * sum(c * c for c in normal),
                             4 * normal[k] ** 2 * scale ** 4),
        count=count,
        witnesses=tuple(_expand(tris, sites, len(view) == len(idx))),
    )


def empty_slabs(ps: PointSet, plane: HyperplaneKey) -> tuple[SlabRecord | None, SlabRecord | None]:
    """Nearest off-plane points on each side of the plane, i.e. the empty
    slabs it bounds.  Returns (above, below); a side is None when no point of
    the set lies there."""
    if ps.dim != len(plane.normal):
        raise DimensionMismatch("plane dimension does not match the point set")
    sides: dict[int, tuple[Fraction, list[int]]] = {}
    for i, p in enumerate(ps.points):
        s = sum(n * c for n, c in zip(plane.normal, p)) - plane.offset
        if s == 0:
            continue
        sign = 1 if s > 0 else -1
        sq = Fraction(s * s, plane.norm_sq)
        cur = sides.get(sign)
        if cur is None or sq < cur[0]:
            sides[sign] = (sq, [i])
        elif sq == cur[0]:
            cur[1].append(i)
    out = []
    for sign, name in ((1, "above"), (-1, "below")):
        if sign in sides:
            sq, nearest = sides[sign]
            out.append(SlabRecord(plane=plane, side=name, dist_sq=sq,
                                  count=len(nearest), nearest=tuple(sorted(nearest))))
        else:
            out.append(None)
    return out[0], out[1]


def min_volume_tetrahedra(ps: PointSet, witnesses: bool = True) -> MinVolumeReport:
    """Report all tetrahedra of minimum nonzero volume of a 3D point set.

    Coincident points are merged, and each pair of points a < b scans the
    later points projected along b - a, where a tetrahedron's volume is
    |b - a| times a projected triangle's area over 3: nearest-to-the-edge
    points of each plane through ab are paired in angular windows that the
    running minimum bounds.  Every tetrahedron is found once, at its two
    smallest points.  On random points the time grew as about n^2.9
    (n = 40..160, 0.023 to 1.3 s); the worst case, windows that the minimum
    does not narrow, is O(n^4).  With witnesses=False only the exact
    minimum, the exact count and the number of spanned planes are computed,
    in O(n) memory per pair; otherwise the witness tetrahedra and the
    contributing (plane, slab) pairs are materialized from the tied points
    as well.
    """
    vol, count, n_planes, wit, solved = _minimal(ps, 3, witnesses)
    return MinVolumeReport(vol, vol * vol, count, 4 * count, n_planes, wit,
                           solved and _contributing(*solved))


def min_area_triangles(ps: PointSet, witnesses: bool = True) -> MinAreaReport:
    """Report all triangles of minimum nonzero area of a 2D point set.

    Coincident points are merged, and each point a scans the vectors to the
    later points c: the points of each line through a nearest to a are
    paired in angular windows that the running minimum bounds, and every
    triangle is found once, at its smallest point.  On random points the
    time grew as about n^2.0 (n = 200..800); the worst case, windows that
    the minimum does not narrow, is O(n^3).  Working memory is O(n); with
    witnesses the tied triangles are kept too, and the witness triangles and
    the contributing (line, side) pairs are materialized from them.
    """
    area, count, n_lines, wit, solved = _minimal(ps, 2, witnesses)
    return MinAreaReport(area, area * area, count, 3 * count, n_lines, wit,
                         solved and _contributing(*solved))
