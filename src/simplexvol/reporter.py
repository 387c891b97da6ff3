"""Reporting of all minimum-nonzero-volume tetrahedra (3D) and all
minimum-nonzero-area triangles (2D), faster than the brute-force scan.

The computation stays in the primal and runs on denominator-cleared integer
coordinates, with coincident points merged into weighted sites:

* In 3D every tetrahedron is found once, at its two smallest sites a < b.
  Projected along b - a, the volume is |b - a| times the area of the
  projected triangle over three, so the pair needs the later sites nearest
  to line ab in each plane through it, paired across planes by angle.  The
  pairing runs in angular windows that the running minimum narrows; the
  faces and apexes of the tied tetrahedra then give each contributing plane
  and its empty slab, i.e. the nearest points on one side.
* Inside a single plane, bucketing its points by the wedge moment relative
  to a segment direction gives, per spanned line, the shortest segments
  along it and the nearest off-line points (adjacent moment levels).
* For a whole 2D point set a rotating sweep replaces the bucketing: the
  points are kept in order of their moment about a direction that turns
  through the directions of all point pairs by angle (the allowable sequence
  of the set, the primal form of the walk through the dual line
  arrangement).  At each direction every spanned line of it is a contiguous
  block of the order, and the neighbouring runs of equal moment are its
  nearest off-line points, so all lines are visited in O(n^2 log n) time,
  with one record per pair of points.

A minimum-volume tetrahedron is a minimum-area triangle of a plane with a
nearest point on one side, once for each of its four faces, so the face
products sum to four times the count.  The 2D analogue counts every
minimum-area triangle once per side and divides by three.  Candidate measures
are compared exactly as integer cross-products; reported values are exact
rationals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, groupby, product
from operator import itemgetter
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
    integer_hyperplane_key,
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


def _shortest_runs(coords, pts, d):
    """Minimum positive gap along a line of direction d, as the raw projection
    difference, with every index pair between adjacent distinct positions.
    Returns None when all points coincide."""
    groups: dict[int, list[int]] = {}
    for i in pts:
        t = sum(dc * pc for dc, pc in zip(d, coords[i]))
        groups.setdefault(t, []).append(i)
    order = sorted(groups)
    if len(order) < 2:
        return None
    min_gap = None
    pairs: list[tuple[int, int]] = []
    for t1, t2 in zip(order, order[1:]):
        gap = t2 - t1
        if min_gap is None or gap < min_gap:
            min_gap = gap
            pairs = [(i, j) for i in groups[t1] for j in groups[t2]]
        elif gap == min_gap:
            pairs.extend((i, j) for i in groups[t1] for j in groups[t2])
    return min_gap, pairs


def _plane_scan(coords, members):
    """Minimum-area triangles among coplanar points, in scaled integer space.

    Returns (area_num, area_den, count, n_lines, witnesses) with the squared
    minimum area equal to area_num / area_den, or None when no positive-area
    triangle exists.  Every line spanned by the members is combined with its
    shortest segments and nearest off-line points; each minimal triangle is
    found exactly three times, once per side.
    """
    if len(members) == 3:
        a, b, c = members
        pa, pb, pc = coords[a], coords[b], coords[c]
        if len(pa) == 3:
            cs = sum(c * c for c in face_normal((pa, pb, pc))[0])
        else:
            cs = ((pb[0] - pa[0]) * (pc[1] - pa[1])
                  - (pb[1] - pa[1]) * (pc[0] - pa[0])) ** 2
        if cs == 0:
            return None
        return cs, 4, 1, 3, [(a, b, c)]

    dim = len(coords[members[0]])
    dirs = set()
    for x, y in combinations(members, 2):
        px, py = coords[x], coords[y]
        diff = tuple(b - a for a, b in zip(px, py))
        if any(diff):
            dirs.add(primitive_vector(diff))
    if not dirs:
        return None

    best_num = best_den = None
    total_pairs = 0
    n_lines = 0
    wits: set[tuple[int, int, int]] = set()
    for d in sorted(dirs):
        dd = sum(c * c for c in d)
        levels: dict[tuple[int, ...], list[int]] = {}
        if dim == 3:
            d0, d1, d2 = d
            for i in members:
                p0, p1, p2 = coords[i]
                m = (d1 * p2 - d2 * p1, d2 * p0 - d0 * p2, d0 * p1 - d1 * p0)
                levels.setdefault(m, []).append(i)
        else:
            d0, d1 = d
            for i in members:
                p0, p1 = coords[i]
                levels.setdefault((d0 * p1 - d1 * p0,), []).append(i)
        keys = sorted(levels)
        for pos, m in enumerate(keys):
            pts = levels[m]
            if len(pts) < 2:
                continue
            run = _shortest_runs(coords, pts, d)
            if run is None:
                continue
            min_gap, seg_pairs = run
            n_lines += 1
            # nearest parallel levels; moments of coplanar points are
            # collinear in moment space, so adjacent sorted keys are the
            # geometric neighbors
            dmin = None
            near: list[int] = []
            for m2 in (keys[pos - 1] if pos > 0 else None,
                       keys[pos + 1] if pos + 1 < len(keys) else None):
                if m2 is None:
                    continue
                dsq = sum((u - v) ** 2 for u, v in zip(m, m2))
                if dmin is None or dsq < dmin:
                    dmin = dsq
                    near = list(levels[m2])
                elif dsq == dmin:
                    near.extend(levels[m2])
            if dmin is None:
                continue
            a_num = min_gap * min_gap * dmin
            a_den = 4 * dd * dd
            if best_num is None or a_num * best_den < best_num * a_den:
                best_num, best_den = a_num, a_den
                total_pairs = len(seg_pairs) * len(near)
                wits = {tuple(sorted((i, j, q))) for i, j in seg_pairs for q in near}
            elif a_num * best_den == best_num * a_den:
                total_pairs += len(seg_pairs) * len(near)
                wits.update(tuple(sorted((i, j, q))) for i, j in seg_pairs for q in near)
    if best_num is None:
        return None
    return best_num, best_den, total_pairs // 3, n_lines, sorted(wits)


@dataclass
class _Scan:
    best_num: int | None = None
    best_den: int | None = None
    sum_products: int = 0
    n_bases: int = 0          # spanned lines scanned
    realized: tuple | None = None
    payloads: list = field(default_factory=list)

    def offer(self, num, den, products, realized, payload):
        if self.best_num is None or num * self.best_den < self.best_num * den:
            self.best_num, self.best_den = num, den
            self.sum_products = products
            self.realized = realized
            self.payloads = [payload] if payload is not None else []
        elif num * self.best_den == self.best_num * den:
            self.sum_products += products
            if payload is not None:
                self.payloads.append(payload)


def _edge_scan_3d(pts, weight, collect):
    """Least positive |det(b - a, c - a, d - a)| over the (x, y, z)-sorted
    distinct points pts with weights (input points per site), returned as
    (det, count, n_planes, ties).  count is the number of index 4-subsets
    attaining det (0 when none spans), n_planes the number of spanned planes,
    and ties, with collect, lists (a, b, sites c, sites d) of the tied sites.

    Each 4-subset of sites is found once, at its two smallest sites a < b.
    Along u = b - a every later site c projects to the integer vector
    W = u_k (c - a) - (c - a)_k u with coordinate k dropped, k the largest
    |u_k|, and |det| = |W_c x W_d| / |u_k|.  Sites with parallel W lie on one
    plane through ab, and only the shortest W of such a class, the sites
    nearest to line ab, can be in a minimal tetrahedron.  The classes, in
    angle order, are paired shortest first with their neighbours up to a
    right angle on each side, and each is deleted once paired.  Past a
    neighbour z at angle theta, |W_x x W_z|^2 = r_x r_z sin^2 theta
    >= r_x^2 sin^2 theta (r = |W|^2, r_z >= r_x) only grows, so a side stops
    once that bound exceeds the running minimum.  Memory is O(n) per pair,
    plus the ties.
    """
    m = len(pts)
    span = max(max(p[c] for p in pts) - min(p[c] for p in pts) for c in range(3))
    best = 6 * span ** 3 + 1  # above every |det|, which is at most (3 span^2)^(3/2)
    count = n_planes = 0
    ties = []
    # the coordinates as (i, j, k) with k the dropped one
    views = [[(p[1], p[2], p[0]) for p in pts], [(p[0], p[2], p[1]) for p in pts], pts]
    for a in range(m - 2):
        for b in range(a + 1, m - 1):
            u = [q - p for p, q in zip(pts[a], pts[b])]
            view = views[max(range(3), key=lambda c: abs(u[c]))]
            ai, aj, ak = view[a]
            bi, bj, bk = view[b]
            ui, uj, uk = bi - ai, bj - aj, bk - ak
            e0, e1 = ui * ak - uk * ai, uj * ak - uk * aj
            size = abs(uk)
            # W's entries are at most mag in size (|u_k| is u's largest and
            # no coordinate spans more than span), so distinct slopes differ
            # by at least 1/mag^2 and floor(slope * scale_k) orders them exactly
            mag = 2 * size * span
            scale_k = mag * mag + 1
            vertical = -mag * scale_k - 1
            # a plane through ab holding a site below b is counted at a
            # smaller pair; every plane is, when a site below b is on ab
            below = set()
            for c in range(b):
                if c == a:
                    continue
                ci, cj, ck = view[c]
                wx, wy = uk * ci - ui * ck + e0, uk * cj - uj * ck + e1
                if wx:
                    below.add(wy * scale_k // wx)
                elif wy:
                    below.add(vertical)
                else:
                    below = None
                    break
            classes: dict[int, list] = {}
            for c in range(b + 1, m):
                ci, cj, ck = view[c]
                wx, wy = uk * ci - ui * ck + e0, uk * cj - uj * ck + e1
                if wx:
                    key = wy * scale_k // wx
                elif wy:
                    key = vertical
                else:
                    continue  # c is on line ab
                r = wx * wx + wy * wy
                cls = classes.get(key)
                if cls is None or r < cls[0]:
                    # stored in the half-plane wx > 0 or wx == 0 > wy, whose
                    # angle order is the key order
                    if wx < 0 or (wx == 0 and wy > 0):
                        wx, wy = -wx, -wy
                    classes[key] = [r, wx, wy, weight[c], [c]]
                elif r == cls[0]:
                    cls[3] += weight[c]
                    cls[4].append(c)
            if below is not None:
                n_planes += len(classes.keys() - below)
            n_cls = len(classes)
            if n_cls < 2:
                continue
            # the classes in angle order, linked in a cycle
            recs = [classes[key] for key in sorted(classes)]
            nxt = list(range(1, n_cls)) + [0]
            prv = [n_cls - 1] + list(range(n_cls - 1))
            wab = weight[a] * weight[b]
            bound = best * size  # |W_x x W_z| <= bound iff |det| <= best
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
                            det = cr // size
                            if det < best:
                                best, bound, count, ties = det, det * size, 0, []
                            count += wab * nx * nz
                            if collect:
                                ties.append((a, b, sx, sz))
                        elif rx * cr * cr > bound * bound * rz:
                            break
                        z = link[z]
                nxt[prv[x]] = nxt[x]
                prv[nxt[x]] = prv[x]
    return best, count, n_planes, ties


def _contributing_3d(pts, idx, tets, scale):
    """(PlaneSummary, SlabRecord) pairs of the site tetrahedra tets, one per
    (plane, side) of their faces, ordered by normal, offset, below first.

    Every face of a minimal tetrahedron is a minimum-area triangle of its
    plane and its apex a nearest point on that side, so the faces and apexes
    that share a (plane, side) are all of that plane's minimal triangles and
    all of that side's nearest points.
    """
    planes: dict[tuple[int, int, int], tuple] = {}
    groups: dict[tuple, tuple[set, set, int]] = {}
    for tet in tets:
        tet = sorted(tet)
        for k, apex in enumerate(tet):
            face = tuple(tet[:k] + tet[k + 1:])
            plane = planes.get(face)
            if plane is None:
                g = primitive_vector(face_normal([pts[s] for s in face])[0])
                plane = planes[face] = (g, sum(x * y for x, y in zip(g, pts[face[0]])))
            # the plane is g . P == t with g's leading entry positive, as in
            # its key, so the apex is above iff dt < 0
            g, t = plane
            x, y, z = pts[apex]
            dt = t - g[0] * x - g[1] * y - g[2] * z
            faces, apexes, _ = groups.setdefault((g, t, dt < 0), (set(), set(), dt))
            faces.add(face)
            apexes.add(apex)
    summaries: dict[tuple, PlaneSummary] = {}
    contrib = []
    for (g, t, above), (faces, apexes, dt) in sorted(groups.items(), key=itemgetter(0)):
        summary = summaries.get((g, t))
        if summary is None:
            g0, g1, g2 = g
            on = [s for s, (x, y, z) in enumerate(pts) if g0 * x + g1 * y + g2 * z == t]
            # a line is its primitive direction, which leads positive as the
            # sites are sorted, and the moment d x p of its points
            lines = set()
            for s1, s2 in combinations(on, 2):
                x, y, z = pts[s1]
                dx, dy, dz = pts[s2][0] - x, pts[s2][1] - y, pts[s2][2] - z
                c = math.gcd(dx, dy, dz)
                dx, dy, dz = dx // c, dy // c, dz // c
                lines.add((dx, dy, dz, dy * z - dz * y, dz * x - dx * z, dx * y - dy * x))
            incident = tuple(sorted(i for s in on for i in idx[s]))
            tri = sorted(tuple(sorted(w)) for f in faces for w in product(*(idx[s] for s in f)))
            normal = face_normal([pts[s] for s in next(iter(faces))])[0]
            summary = summaries[g, t] = PlaneSummary(
                key=integer_hyperplane_key(g, t, scale),
                incident=incident,
                n_points=len(incident),
                n_lines=len(lines),
                min_area_sq=Fraction(sum(c * c for c in normal), 4 * scale ** 4),
                count=len(tri),
                witnesses=tuple(tri),
            )
        nearest = tuple(sorted(i for s in apexes for i in idx[s]))
        slab = SlabRecord(
            plane=summary.key,
            side="above" if above else "below",
            dist_sq=Fraction(dt * dt, sum(x * x for x in g) * scale ** 2),
            count=len(nearest),
            nearest=nearest,
        )
        contrib.append((summary, slab))
    return tuple(contrib)


def _angle_records(xy):
    """Records (key, d0, d1, a, b), one per pair a < b of the (x, y)-sorted
    distinct points xy, sorted by the angle of the primitive direction d of
    b - a, which has d0 > 0 or is (0, 1).  The key floor(d1 * span^2 / d0) is
    exact: slopes with denominators at most span differ by at least
    1 / span^2.  The vertical gets span^3 + 1, above every other key."""
    span = max(xy[-1][0] - xy[0][0], max(y for _, y in xy) - min(y for _, y in xy))
    k = span * span
    vertical = span * k + 1
    gcd = math.gcd
    records = []
    append = records.append
    for a in range(len(xy) - 1):
        ax, ay = xy[a]
        for b in range(a + 1, len(xy)):
            bx, by = xy[b]
            d0, d1 = bx - ax, by - ay
            g = gcd(d0, d1)
            d0 //= g
            d1 //= g
            append((d1 * k // d0 if d0 else vertical, d0, d1, a, b))
    records.sort()
    return records


def _sweep_2d(xy, idx, records, collect) -> _Scan:
    """Rotating sweep over the (x, y)-sorted distinct points xy, with idx[s]
    the input indices at point s, through the directions of `records`.

    The order holds the points by moment m = d0*y - d1*x about a direction
    just past the last one passed; (x, y) is that order just past the
    vertical.  Just before d, each line of direction d is a contiguous block
    of the order sorted by t = d . p, and the runs of equal moment beside it
    are its nearest off-line points.  Passing d reverses every block, so the
    order must end reversed.  A broken invariant raises RuntimeError.
    """
    scan = _Scan()
    n = len(xy)
    weight = [len(i) for i in idx]
    order = list(range(n))
    pos = list(range(n))
    for _, group in groupby(records, key=itemgetter(0)):
        lines: dict[int, set[int]] = {}
        for _, d0, d1, a, b in group:
            x, y = xy[a]
            members = lines.setdefault(d0 * y - d1 * x, set())
            members.add(a)
            members.add(b)
        dd = d0 * d0 + d1 * d1
        blocks = []
        for m, members in lines.items():
            block = sorted(members, key=pos.__getitem__)
            lo, hi = pos[block[0]], pos[block[-1]]
            if hi - lo + 1 != len(block):
                raise RuntimeError("rotating sweep: a line's points are not contiguous")
            blocks.append((lo, hi))
            scan.n_bases += 1
            ts = [d0 * xy[c][0] + d1 * xy[c][1] for c in block]
            min_gap = None
            segs: list[int] = []
            for u in range(len(block) - 1):
                gap = ts[u + 1] - ts[u]
                if gap <= 0:
                    raise RuntimeError("rotating sweep: a line's points are out of order")
                if min_gap is None or gap < min_gap:
                    min_gap, segs = gap, [u]
                elif gap == min_gap:
                    segs.append(u)
            seg_count = 0
            for u in segs:
                seg_count += weight[block[u]] * weight[block[u + 1]]
            seg_i, seg_j = idx[block[segs[0]]][0], idx[block[segs[0] + 1]][0]
            for side, step, q in ((0, -1, lo - 1), (1, 1, hi + 1)):
                if not 0 <= q < n:
                    continue
                x, y = xy[order[q]]
                m2 = d0 * y - d1 * x
                if (m2 - m) * step <= 0:
                    raise RuntimeError("rotating sweep: the order is not sorted by moment")
                run = [order[q]]
                near_count = weight[order[q]]
                q += step
                while 0 <= q < n:
                    x, y = xy[order[q]]
                    if d0 * y - d1 * x != m2:
                        break
                    run.append(order[q])
                    near_count += weight[order[q]]
                    q += step
                dm = m - m2
                payload = None
                if collect:
                    pairs = [(i, j) for u in segs
                             for i in idx[block[u]] for j in idx[block[u + 1]]]
                    payload = ((d0, d1), m, side, dd, [i for c in block for i in idx[c]],
                               min_gap, pairs, dm, [i for c in run for i in idx[c]])
                # area^2 = seg_sq * dist_sq / 4 = gap^2 dm^2 / (4 dd^2)
                scan.offer(min_gap * min_gap * dm * dm, 4 * dd * dd, seg_count * near_count,
                           (seg_i, seg_j, idx[run[0]][0]), payload)
        for lo, hi in blocks:
            order[lo:hi + 1] = reversed(order[lo:hi + 1])
            for q in range(lo, hi + 1):
                pos[order[q]] = q
    if order != list(range(n - 1, -1, -1)):
        raise RuntimeError("rotating sweep: the order did not end reversed")
    return scan


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
    min_gap, pairs = _shortest_runs(ps.points, idx, d)
    dd = sum(c * c for c in d)
    pairs = sorted(tuple(sorted(p)) for p in pairs)
    return SegmentRun(min_length_sq=min_gap * min_gap / dd, count=len(pairs),
                      pairs=tuple(pairs))


def _noncollinear_triple(ps: PointSet, indices):
    first = indices[0]
    second = None
    for i in indices[1:]:
        if ps.points[i] != ps.points[first]:
            second = i
            break
    if second is None:
        return None
    key = line_key(ps, first, second)
    for i in indices:
        if not key.contains(ps.points[i]):
            return (first, second, i)
    return None


def min_area_triangles_in_plane(ps: PointSet,
                                indices: Iterable[int] | None = None) -> PlaneSummary:
    """Minimum-nonzero-area triangles among a coplanar subset.

    The subset must lie in a common plane (trivially true for 2D input); the
    scan combines, for every line spanned inside the plane, the shortest
    segments along it with the off-line points nearest to it, which takes
    O(n_h * l_h) line visits.
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
    scanned = _plane_scan(coords, idx)
    if scanned is None:
        raise AllDegenerate("all incident points are collinear")
    a_num, a_den, m_count, n_lines, wits = scanned
    return PlaneSummary(
        key=key,
        incident=tuple(idx),
        n_points=len(idx),
        n_lines=n_lines,
        min_area_sq=Fraction(a_num, a_den * scale ** 4),
        count=m_count,
        witnesses=tuple(wits),
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


def min_volume_tetrahedra(ps: PointSet, witnesses: bool = True,
                          max_witnesses: int | None = None) -> MinVolumeReport:
    """Report all tetrahedra of minimum nonzero volume of a 3D point set.

    Coincident points are merged, and each pair of points a < b scans the
    later points projected along b - a, where a tetrahedron's volume is
    |b - a| times a projected triangle's area over 3: nearest-to-the-edge
    points of each plane through ab are paired in angular windows that the
    running minimum bounds.  Every tetrahedron is found once, at its two
    smallest points.  On random points the time grew as about n^3.0
    (n = 40..160, 0.04 to 2.4 s); the worst case, windows that the minimum
    does not narrow, is O(n^4).  With witnesses=False only the exact
    minimum, the exact count and the number of spanned planes are computed,
    in O(n) memory per pair; otherwise the witness tetrahedra and the
    contributing (plane, slab) pairs are materialized from the tied points
    as well.
    """
    if ps.dim != 3:
        raise DimensionMismatch(f"need a 3D point set, got dim {ps.dim}")
    if len(ps) < 4:
        raise AllDegenerate("fewer than four points cannot span a tetrahedron")
    coords, scale = integer_coordinates(ps)
    sites: dict[tuple[int, ...], list[int]] = {}
    for i, p in enumerate(coords):
        sites.setdefault(p, []).append(i)
    pts = sorted(sites)
    idx = [sites[p] for p in pts]
    det, count, n_planes, ties = _edge_scan_3d(pts, [len(i) for i in idx], witnesses)
    if not count:
        raise AllDegenerate("all points are coplanar" if n_planes else "all points are collinear")
    min_volume = Fraction(det, 6 * scale ** 3)

    wit_list = None
    contributing = None
    if witnesses:
        tets = [(a, b, c, d) for a, b, cs, ds in ties for c in cs for d in ds]
        full = sorted(tuple(sorted(w)) for tet in tets for w in product(*(idx[s] for s in tet)))
        if max_witnesses is not None:
            full = full[:max_witnesses]
        wit_list = tuple(full)
        contributing = _contributing_3d(pts, idx, tets, scale)
    return MinVolumeReport(
        min_volume=min_volume,
        min_volume_sq=min_volume * min_volume,
        count=count,
        sum_face_products=4 * count,
        n_planes=n_planes,
        witnesses=wit_list,
        contributing=contributing,
    )


def min_area_triangles(ps: PointSet, witnesses: bool = True,
                       max_witnesses: int | None = None) -> MinAreaReport:
    """Report all triangles of minimum nonzero area of a 2D point set.

    Primal analogue of the 3D reporter: for every spanned line, shortest
    segments are paired with the nearest off-line points per side; every
    minimal triangle arises exactly three times.  The lines are visited by a
    rotating sweep over the order of the points, the allowable-sequence form
    of the walk through the dual line arrangement (Edelsbrunner, O'Rourke
    and Seidel), after coincident points are merged.
    Time is O(n^2 log n), for sorting the pair directions by angle; memory is
    O(n^2) for one record per pair of distinct points, plus the witnesses
    when they are requested.
    """
    if ps.dim != 2:
        raise DimensionMismatch(f"need a 2D point set, got dim {ps.dim}")
    if len(ps) < 3:
        raise AllDegenerate("fewer than three points cannot span a triangle")
    coords, scale = integer_coordinates(ps)
    sites: dict[tuple[int, ...], list[int]] = {}
    for i, p in enumerate(coords):
        sites.setdefault(p, []).append(i)
    if len(sites) < 2:
        raise AllDegenerate("all points coincide")
    xy = sorted(sites)
    merged = _sweep_2d(xy, [sites[p] for p in xy], _angle_records(xy), witnesses)
    if merged.best_num is None:
        raise AllDegenerate("all points are collinear")

    pa, pb, pc = (coords[i] for i in merged.realized)
    cross = (pb[0] - pa[0]) * (pc[1] - pa[1]) - (pb[1] - pa[1]) * (pc[0] - pa[0])
    min_area = Fraction(abs(cross), 2 * scale ** 2)

    count = merged.sum_products // 3
    wit_list = None
    contributing = None
    if witnesses:
        wit_set: set[tuple[int, int, int]] = set()
        contrib = []
        # contributing pairs are listed by (direction, moment, side)
        for ((d0, d1), m, _, dd, pts, min_gap, seg_pairs, dm, near) in sorted(
                merged.payloads, key=itemgetter(0, 1, 2)):
            for (a, b) in seg_pairs:
                for q in near:
                    wit_set.add(tuple(sorted((a, b, q))))
            # the line d0*y - d1*x == m (scaled) passes nearest the origin at
            # m*(-d1, d0)/dd; its nearest points (moment m - dm) are above iff dm < 0
            key = LineKey(direction=(d0, d1), anchor=(Fraction(-m * d1, dd * scale),
                                                      Fraction(m * d0, dd * scale)))
            side = "above" if dm < 0 else "below"
            summary = LineSummary(
                key=key,
                incident=tuple(sorted(pts)),
                n_points=len(pts),
                min_length_sq=Fraction(min_gap * min_gap, dd * scale ** 2),
                count=len(seg_pairs),
                witnesses=tuple(sorted(tuple(sorted(p)) for p in seg_pairs)),
            )
            record = LineSideRecord(
                line=key,
                side=side,
                dist_sq=Fraction(dm * dm, dd * scale ** 2),
                count=len(near),
                nearest=tuple(sorted(near)),
            )
            contrib.append((summary, record))
        full = sorted(wit_set)
        if max_witnesses is not None:
            full = full[:max_witnesses]
        wit_list = tuple(full)
        contributing = tuple(contrib)
    return MinAreaReport(
        min_area=min_area,
        min_area_sq=min_area * min_area,
        count=count,
        sum_side_products=merged.sum_products,
        n_lines=merged.n_bases,
        witnesses=wit_list,
        contributing=contributing,
    )
