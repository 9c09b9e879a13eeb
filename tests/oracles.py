"""Independent brute-force oracles used to derive and verify expected
values.  These deliberately avoid the library's own algorithms: half-plane
intersections are built from pairwise line crossings, continuants from 2x2
matrix products, Farey sequences from sorting, and first-return tuples from
raw next-term chains.  Superseded implementations kept as references for
differential tests live here too."""

import hashlib
import json
import math
from fractions import Fraction

from fareymosaics import _intgeom
from fareymosaics.density import (CompareReport, DensityLayerWeight,
                                  EmpiricalHistogram, PointClass,
                                  _vertex_angle_fraction, layer_prefactor)
from fareymosaics.errors import DomainError, GeometryError, OverlapError
from fareymosaics.farey import ProgressionClass, farey_filtered, farey_stream
from fareymosaics.geometry import (ConvexPolygon, HalfPlane, Incidence,
                                   Location, Outline, RatPoint, _stitch, area,
                                   clip, edge_forms, point_h,
                                   rational_str)
from fareymosaics.mosaics import assemble_with_orphans


class FractionPolygon:
    """geometry.ConvexPolygon as first written: vertices stored as RatPoints
    of Fractions, canonical rotation by tuple comparison, shoelace area in
    Fractions.  Its operations are methods here."""

    def __init__(self, vertices=()):
        pts = [RatPoint(Fraction(x), Fraction(y)) for (x, y) in vertices]
        if not pts:
            self.vertices = ()
            return
        if len(pts) < 3:
            raise GeometryError("a nonempty convex polygon needs >= 3 vertices")
        if len(set(pts)) != len(pts):
            raise GeometryError("repeated vertex")
        n = len(pts)
        for i in range(n):
            a, b, c = pts[i - 1], pts[i], pts[(i + 1) % n]
            turn = (b.x - a.x) * (c.y - b.y) - (b.y - a.y) * (c.x - b.x)
            if turn < 0:
                raise GeometryError("vertices must be counter-clockwise")
            if turn == 0:
                raise GeometryError("three consecutive collinear vertices")
        self.vertices = _rotated_points(pts)

    @classmethod
    def _from_ccw(cls, pts):
        poly = cls.__new__(cls)
        poly.vertices = _rotated_points(pts)
        return poly

    def __eq__(self, other):
        return self.vertices == other.vertices

    def __hash__(self):
        return hash(self.vertices)

    def __repr__(self):
        if not self.vertices:
            return "ConvexPolygon(empty)"
        inner = ", ".join(f"({rational_str(p.x)},{rational_str(p.y)})"
                          for p in self.vertices)
        return f"ConvexPolygon[{inner}]"

    def to_json(self):
        return [p.to_json() for p in self.vertices]

    def bbox(self):
        xs = [p.x for p in self.vertices]
        ys = [p.y for p in self.vertices]
        return min(xs), min(ys), max(xs), max(ys)

    def area(self):
        total = Fraction(0)
        n = len(self.vertices)
        for i in range(n):
            p, q = self.vertices[i], self.vertices[(i + 1) % n]
            total += p.x * q.y - q.x * p.y
        return total / 2

    def reflected(self):
        return FractionPolygon._from_ccw(
            [RatPoint(p.y, p.x) for p in reversed(self.vertices)])

    def affine_image(self, P, Pp):
        return FractionPolygon._from_ccw(
            [RatPoint(p.x, P * p.y - Pp * p.x) for p in self.vertices])

    def edge_forms(self):
        """Integer (a, b, c) per edge, from the Fraction vertices."""
        hs = []
        for p in self.vertices:
            w = math.lcm(p.x.denominator, p.y.denominator)
            hs.append((p.x.numerator * (w // p.x.denominator),
                       p.y.numerator * (w // p.y.denominator), w))
        n = len(hs)
        out = []
        for i in range(n):
            x1, y1, w1 = hs[i]
            x2, y2, w2 = hs[(i + 1) % n]
            a = y2 * w1 - y1 * w2
            b = x1 * w2 - x2 * w1
            c = x1 * y2 - x2 * y1
            g = math.gcd(a, b, c)
            out.append((a // g, b // g, c // g))
        return out

    def clip(self, a, b, c):
        """The part where a*x + b*y <= c, by brute-force half-plane
        intersection; empty when it has no area."""
        pts = halfplane_intersection(self.edge_forms() + [(a, b, c)])
        return FractionPolygon(pts if len(pts) >= 3 else ())


def _rotated_points(pts):
    """pts as a tuple starting at its lexicographically smallest point."""
    pts = tuple(pts)
    if not pts:
        return pts
    k = min(range(len(pts)), key=pts.__getitem__)
    return pts[k:] + pts[:k]


def lattice_count_sections(poly, scale, a, b, d, open_edges=()):
    """progression.lattice_count_exact as first written, without its size
    check: each column's section of scale*poly is found by intersecting
    the Fraction vertex edges with the line x = m."""
    if poly.is_empty:
        return 0
    strict = []
    for hp in open_edges:
        ca, cb, cc = hp.int_coeffs()
        strict.append((ca, cb, cc * scale))
    a %= d
    b %= d
    verts = [(scale * p.x, scale * p.y) for p in poly.vertices]
    xs = [x for x, _ in verts]
    m_lo = max(1, math.ceil(min(xs)))
    m_hi = math.floor(max(xs))
    count = 0
    nv = len(verts)
    for m in range(m_lo, m_hi + 1):
        if m % d != a:
            continue
        # y-range of the vertical section x = m, exact
        ylo = None
        yhi = None
        xm = Fraction(m)
        for i in range(nv):
            (x1, y1), (x2, y2) = verts[i], verts[(i + 1) % nv]
            if x1 == x2:
                if x1 == xm:
                    lo, hi = min(y1, y2), max(y1, y2)
                    ylo = lo if ylo is None else min(ylo, lo)
                    yhi = hi if yhi is None else max(yhi, hi)
                continue
            if min(x1, x2) <= xm <= max(x1, x2):
                t = (xm - x1) / (x2 - x1)
                y = y1 + t * (y2 - y1)
                ylo = y if ylo is None else min(ylo, y)
                yhi = y if yhi is None else max(yhi, y)
        if ylo is None:
            continue
        n_lo = max(1, math.ceil(ylo))
        n_hi = math.floor(yhi)
        n = n_lo + ((b - n_lo) % d)
        while n <= n_hi:
            if math.gcd(m, n) == 1 and \
                    all(ca * m + cb * n < cc for (ca, cb, cc) in strict):
                count += 1
            n += d
    return count


def halfplane_intersection(constraints):
    """Vertices of {a*x + b*y <= c for all (a, b, c)} by brute force:
    intersect every line pair, keep feasible points, hull them."""
    pts = set()
    n = len(constraints)
    for i in range(n):
        a1, b1, c1 = (Fraction(v) for v in constraints[i])
        for j in range(i + 1, n):
            a2, b2, c2 = (Fraction(v) for v in constraints[j])
            det = a1 * b2 - a2 * b1
            if det == 0:
                continue
            x = (c1 * b2 - c2 * b1) / det
            y = (a1 * c2 - a2 * c1) / det
            if all(Fraction(a) * x + Fraction(b) * y <= Fraction(c)
                   for (a, b, c) in constraints):
                pts.add((x, y))
    return convex_hull(pts)


def heq(u, v):
    """Exact equality of two homogeneous points."""
    return u[0] * v[2] == v[0] * u[2] and u[1] * v[2] == v[1] * u[2]


def hturn(a, b, c):
    """Sign of the cross product (b-a) x (c-b); > 0 for a left turn."""
    # (b-a) and (c-b) in homogeneous form, scaled by positive factors only.
    ux = b[0] * a[2] - a[0] * b[2]
    uy = b[1] * a[2] - a[1] * b[2]
    vx = c[0] * b[2] - b[0] * c[2]
    vy = c[1] * b[2] - b[1] * c[2]
    t = ux * vy - uy * vx
    return (t > 0) - (t < 0)


def hcanon(verts):
    """_intgeom.hclip's clean-up step as first written: drop duplicate and
    collinear vertices; [] when degenerate.

    Input must be convex and counter-clockwise up to those degeneracies.
    """
    n = len(verts)
    if n == 0:
        return []
    out = [verts[0]]
    for v in verts[1:]:
        if not heq(out[-1], v):
            out.append(v)
    if len(out) > 1 and heq(out[0], out[-1]):
        out.pop()
    # Repeatedly remove middles of collinear (or reflex, impossible for
    # convex input) triples until every remaining corner is a strict turn.
    changed = True
    while changed and len(out) >= 3:
        changed = False
        i = 0
        while i < len(out) and len(out) >= 3:
            a = out[i - 1]
            b = out[i]
            c = out[(i + 1) % len(out)]
            if hturn(a, b, c) <= 0:
                out.pop(i)
                changed = True
            else:
                i += 1
    if len(out) < 3:
        return []
    return out


def convex_hull(points):
    pts = sorted(set(points))
    if len(pts) < 3:
        return list(pts)

    def half(seq):
        hull = []
        for p in seq:
            while len(hull) >= 2:
                (x1, y1), (x2, y2) = hull[-2], hull[-1]
                if (x2 - x1) * (p[1] - y2) - (y2 - y1) * (p[0] - x2) <= 0:
                    hull.pop()
                else:
                    break
            hull.append(p)
        return hull

    lower = half(pts)
    upper = half(list(reversed(pts)))
    return lower[:-1] + upper[:-1]


def continuant_matrix(k, j):
    """p_j via the product of the matrices [[k_i, -1], [1, 0]]."""
    a, b, c, d = 1, 0, 0, 1
    for i in range(j):
        ki = k[i]
        a, b, c, d = a * ki + b, -a, c * ki + d, -c
    return a if j >= 0 else 0


def farey_bruteforce(Q):
    """F^Q by sorting all reduced fractions, endpoints included.

    The sort key a*Q*Q // q is exact: distinct members of F^Q differ by at
    least 1/Q^2, so their keys are strictly increasing in a/q."""
    fr = {(0, 1), (1, 1)}
    for q in range(1, Q + 1):
        for a in range(1, q):
            if math.gcd(a, q) == 1:
                fr.add((a, q))
    QQ = Q * Q
    return sorted(fr, key=lambda t: t[0] * QQ // t[1])


def tile_list_digest(tiles):
    """SHA-256 over every tile's k, pattern, vertices, kernel and residues
    (with the residues' own k, pattern and class), in list order."""
    h = hashlib.sha256()
    for t in tiles:
        r = t.residues
        h.update(json.dumps([t.to_json(), list(r.k), list(r.pattern),
                             [r.cls.c, r.cls.d]]).encode())
    return h.hexdigest()


def first_return_tuples(Q, c, d, max_n=40):
    """Realized first-return index tuples from raw Farey chains: for each
    consecutive F^Q pair (q', q'') with q' = c (mod d), walk successors to
    the first value = c (mod d); record (k-tuple -> set of q'' mod d).
    A q'' already in class c realizes the empty tuple."""
    seen = {}
    prev = None
    for a, q in farey_bruteforce(Q):
        if prev is not None and prev % d == c:
            qp, qpp = prev, q
            if qpp % d == c:
                seen.setdefault((), set()).add(qpp % d)
            else:
                u, v = qp, qpp
                ks = []
                for _ in range(max_n):
                    k = (Q + u) // v
                    u, v = v, k * v - u
                    ks.append(k)
                    if v % d == c:
                        seen.setdefault(tuple(ks), set()).add(qpp % d)
                        break
        prev = q
    return seen


def point_in_polygon_float(poly, x, y):
    """Crossing-number test in floating point (points off the boundary)."""
    verts = [(float(p.x), float(p.y)) for p in poly.vertices]
    inside = False
    n = len(verts)
    for i in range(n):
        x1, y1 = verts[i]
        x2, y2 = verts[(i + 1) % n]
        if (y1 > y) != (y2 > y):
            xc = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
            if xc > x:
                inside = not inside
    return inside


def random_convex_polygon(rng, denom=40, span=4, min_verts=3, nonneg=False):
    """Random strictly convex polygon with small rational coordinates."""
    lo = 0 if nonneg else -span * denom
    while True:
        pts = {(Fraction(rng.randint(lo, span * denom), denom),
                Fraction(rng.randint(lo, span * denom), denom))
               for _ in range(rng.randint(3, 9))}
        hull = convex_hull(pts)
        if len(hull) >= min_verts:
            return ConvexPolygon(hull)


def polygon_diameter_float(poly):
    verts = poly.vertices
    best = 0.0
    for i in range(len(verts)):
        for j in range(i + 1, len(verts)):
            best = max(best, math.hypot(float(verts[i].x - verts[j].x),
                                        float(verts[i].y - verts[j].y)))
    return best


def dist_to_convex(poly, p) -> float:
    """Euclidean distance from a point to a closed convex polygon (0 inside)."""
    from fareymosaics.geometry import Incidence, locate

    if locate(poly, p).kind != Incidence.OUTSIDE:
        return 0.0
    px, py = float(p.x), float(p.y)
    best = float("inf")
    verts = poly.vertices
    n = len(verts)
    for i in range(n):
        ax, ay = float(verts[i].x), float(verts[i].y)
        bx, by = float(verts[(i + 1) % n].x), float(verts[(i + 1) % n].y)
        dx, dy = bx - ax, by - ay
        t = ((px - ax) * dx + (py - ay) * dy) / (dx * dx + dy * dy)
        t = max(0.0, min(1.0, t))
        best = min(best, math.hypot(px - ax - t * dx, py - ay - t * dy))
    return best


def component_groups(n, adjacency, seed_idx):
    """Edge-adjacency components (union-find over index pairs) that contain
    a seed index; no disjointness constraint."""
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in adjacency:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return [g for g in groups.values() if any(i in seed_idx for i in g)]


def _bin_rect(i, j, B):
    return (Fraction(i, B), Fraction(j, B), Fraction(i + 1, B),
            Fraction(j + 1, B))


def _clip_to_rect(poly, x0, y0, x1, y1):
    """poly clipped to [x0, x1] x [y0, y1] by four Fraction half-plane clips."""
    out = clip(poly, HalfPlane(1, 0, x1))
    if out.is_empty:
        return out
    out = clip(out, HalfPlane(-1, 0, -x0))
    if out.is_empty:
        return out
    out = clip(out, HalfPlane(0, 1, y1))
    if out.is_empty:
        return out
    return clip(out, HalfPlane(0, -1, -y0))


def _bins_overlapping(poly, B):
    x0, y0, x1, y1 = poly.bbox()
    i0 = max(0, int(x0 * B))
    i1 = min(B - 1, int(x1 * B) if x1 * B != int(x1 * B)
             else int(x1 * B) - 1)
    j0 = max(0, int(y0 * B))
    j1 = min(B - 1, int(y1 * B) if y1 * B != int(y1 * B)
             else int(y1 * B) - 1)
    return i0, i1, j0, j1


def bin_pieces_clip(poly, B):
    """(i, j, piece) for every nonempty piece of poly in a B x B grid of
    bins over [0, 1]^2: each bin of the Fraction bounding box clipped on
    its own by _clip_to_rect."""
    i0, i1, j0, j1 = _bins_overlapping(poly, B)
    for i in range(i0, i1 + 1):
        for j in range(j0, j1 + 1):
            piece = _clip_to_rect(poly, *_bin_rect(i, j, B))
            if not piece.is_empty:
                yield i, j, piece


def _report(hist, theo, full):
    B = hist.B
    mass = sum(sum(row) for row in theo)
    l1 = 0.0
    max_dev = 0.0
    nfull = 0
    for i in range(B):
        for j in range(B):
            if not full[i][j]:
                continue
            nfull += 1
            emp = hist.bins[i][j] / hist.total
            th = float(theo[i][j] / mass) if mass else 0.0
            l1 += abs(emp - th)
            if th > 0:
                max_dev = max(max_dev, abs(emp / th - 1.0))
    return CompareReport(l1, max_dev, float(mass), nfull, B * B)


def compare_clip(hist, cls, tiles, paper_constant=False):
    """density.compare before its integer sweep: every (tile, bin) piece is
    cut by four Fraction clips (bin_pieces_clip), once, adding to the bin
    mass and to its mosaic's coverage."""
    B = hist.B
    pref = layer_prefactor(cls, paper_constant)
    theo = [[Fraction(0)] * B for _ in range(B)]
    full = [[False] * B for _ in range(B)]
    bin_area = Fraction(1, B * B)

    def integrate(group):
        cov = {}
        for t in group:
            w = pref * t.multiplicity / t.kernel
            for i, j, piece in bin_pieces_clip(t.poly, B):
                a = area(piece)
                theo[i][j] += w * a
                cov[(i, j)] = cov.get((i, j), Fraction(0)) + a
        return cov

    by_kernel = {}
    for t in tiles:
        by_kernel.setdefault(t.kernel, []).append(t)
    for kern in sorted(by_kernel):
        mosaics, orphans = assemble_with_orphans(by_kernel[kern], kern)
        for m in mosaics:
            for (i, j), a in integrate(m.tiles).items():
                if a == bin_area:
                    full[i][j] = True
        integrate(orphans)
    return _report(hist, theo, full)


def compare_two_pass(hist, cls, tiles, paper_constant=False):
    """density.compare as first written: every (tile, bin) piece is clipped
    once for the bin masses and again, mosaic by mosaic, for coverage."""
    B = hist.B
    pref = layer_prefactor(cls, paper_constant)
    theo = [[Fraction(0)] * B for _ in range(B)]
    bin_area = Fraction(1, B * B)

    mosaic_groups = []
    for kern in sorted(set(t.kernel for t in tiles)):
        group = [t for t in tiles if t.kernel == kern]
        ms, _orphans = assemble_with_orphans(group, kern)
        mosaic_groups.extend(ms)

    for t in tiles:
        w = pref * t.multiplicity / t.kernel
        for i, j, piece in bin_pieces_clip(t.poly, B):
            theo[i][j] += w * area(piece)

    full = [[False] * B for _ in range(B)]
    for m in mosaic_groups:
        cov = {}
        for t in m.tiles:
            for i, j, piece in bin_pieces_clip(t.poly, B):
                cov[(i, j)] = cov.get((i, j), Fraction(0)) + area(piece)
        for (i, j), a in cov.items():
            if a == bin_area:
                full[i][j] = True
    return _report(hist, theo, full)


def locate_convex_fraction(poly, p):
    """geometry.locate on a convex polygon as first written: Fraction cross
    products edge by edge, vertices found by point equality."""
    verts = poly.vertices
    if not verts:
        return Location(Incidence.OUTSIDE)
    n = len(verts)

    def vertex(i):
        q, nxt, prv = verts[i], verts[(i + 1) % n], verts[i - 1]
        return Location(Incidence.VERTEX, ((nxt.x - q.x, nxt.y - q.y),
                                           (prv.x - q.x, prv.y - q.y)))

    on_edges = []
    for i in range(n):
        a, b = verts[i], verts[(i + 1) % n]
        s = (b.x - a.x) * (p.y - a.y) - (b.y - a.y) * (p.x - a.x)
        if s < 0:
            return Location(Incidence.OUTSIDE)
        if s == 0:
            if p == a:
                return vertex(i)
            if p == b:
                return vertex((i + 1) % n)
            if min(a.x, b.x) <= p.x <= max(a.x, b.x) and \
               min(a.y, b.y) <= p.y <= max(a.y, b.y):
                on_edges.append(i)
    if on_edges:
        return Location(Incidence.EDGE)
    return Location(Incidence.INTERIOR)


def g1_eval_scan(query, tiles, boxes, paper_constant=False):
    """density.g1_eval as first written: every tile's Fraction bbox()
    screens the point, and hits are classified by locate_convex_fraction.
    boxes holds those bboxes in tile order, built once per tile list."""
    pref = layer_prefactor(query.cls, paper_constant)
    p = RatPoint(query.point[0], query.point[1])
    total = Fraction(0)
    angle_part = 0.0
    seen = set()
    for t, (x0, y0, x1, y1) in zip(tiles, boxes):
        if t.order > query.max_order:
            continue
        if not (x0 <= p.x <= x1 and y0 <= p.y <= y1):
            continue
        loc = locate_convex_fraction(t.poly, p)
        w = DensityLayerWeight(t.kernel, t.multiplicity, pref).contribution
        if loc.kind == Incidence.INTERIOR:
            total += w
        elif loc.kind == Incidence.EDGE:
            total += w / 2
        elif loc.kind == Incidence.VERTEX:
            angle_part += float(w) * _vertex_angle_fraction(loc.directions)
        seen.add(loc.kind)
    value = float(total) + angle_part
    if Incidence.VERTEX in seen:
        return value, PointClass.ON_VERTEX
    if Incidence.EDGE in seen:
        return value, PointClass.ON_EDGE
    if Incidence.INTERIOR in seen:
        return value, PointClass.GENERIC
    return 0.0, PointClass.OUTSIDE


def empirical_histograms_stream(Q, d, Bs):
    """density.empirical_histogram as first written, for every class of
    modulus d and every grid size B in Bs at once: one fold over
    farey_stream to 1/1 that sends each fraction to its class by q mod d
    and bins each class's pairs as they come.  Returns {(c, B): histogram}.
    """
    Bs = sorted(set(Bs))
    if Q < d:
        raise DomainError("Q must be >= d")
    if Bs[0] < 1:
        raise DomainError("B must be >= 1")
    bins = {(c, B): [[0] * B for _ in range(B)] for c in range(d) for B in Bs}
    total = [0] * d
    prev = [None] * d
    for f in farey_stream(Q):
        c = f.q % d
        if prev[c] is not None:
            for B in Bs:
                i = min(prev[c] * B // Q, B - 1)
                j = min(f.q * B // Q, B - 1)
                bins[(c, B)][i][j] += 1
            total[c] += 1
        prev[c] = f.q
    return {(c, B): EmpiricalHistogram(Q, ProgressionClass(c, d), g, total[c])
            for (c, B), g in bins.items()}


def support_membership_stream(Q, cls, tiles=None, support_polygons=None,
                              grid=64):
    """density.support_membership as first written, with its distance
    helper inlined: one fold over farey_filtered, polygons in decreasing
    Fraction area(), each cell probed with all() over its polygons' edge
    forms, and violations with the float distance to the nearest polygon
    vertex."""
    if support_polygons is None:
        support_polygons = [t.poly for t in
                            sorted(tiles, key=lambda t: -area(t.poly))]
    forms = [(edge_forms(p), p) for p in support_polygons]

    def cell(num, den):
        return max(0, min(grid - 1, num * grid // den))

    cells = [[[] for _ in range(grid)] for _ in range(grid)]
    for rec, (_hps, poly) in enumerate(forms):
        x0, dx0, y0, dy0, x1, dx1, y1, dy1 = poly.int_box()
        i0, i1 = cell(x0, dx0), cell(x1, dx1)
        j0, j1 = cell(y0, dy0), cell(y1, dy1)
        for i in range(i0, i1 + 1):
            for j in range(j0, j1 + 1):
                cells[i][j].append(rec)
    violations = []
    prev = None
    for f in farey_filtered(Q, cls):
        if prev is not None:
            q0, q1 = prev, f.q
            ci = min(q0 * grid // Q, grid - 1)
            cj = min(q1 * grid // Q, grid - 1)
            inside = False
            for rec in cells[ci][cj]:
                hps = forms[rec][0]
                if all(a * q0 + b * q1 <= c * Q for (a, b, c) in hps):
                    inside = True
                    break
            if not inside:
                px, py = q0 / Q, q1 / Q
                best = float("inf")
                for _hps, poly in forms:
                    for v in poly.vertices:
                        dd = math.hypot(px - float(v.x), py - float(v.y))
                        if dd < best:
                            best = dd
                violations.append((q0, q1, best))
        prev = f.q
    return violations


def union_outline_pairwise(tiles):
    """geometry.union_outline as first written: Fraction bbox() corners
    screen the disjointness check, every edge is split at every pool vertex
    lying on it, and fragments cancel one toggle at a time.  O(E * V)."""
    tiles = [t for t in tiles if not t.is_empty]
    if not tiles:
        return Outline(())
    hs = [t.to_h() for t in tiles]
    boxes = [t.bbox() for t in tiles]
    for i in range(len(tiles)):
        x0, y0, x1, y1 = boxes[i]
        for j in range(i + 1, len(tiles)):
            a0, b0, a1, b1 = boxes[j]
            if a0 >= x1 or x0 >= a1 or b0 >= y1 or y0 >= b1:
                continue
            if _intgeom.interiors_intersect(hs[i], hs[j]):
                raise OverlapError(
                    f"tiles {i} and {j} have intersecting interiors")
    return _stitch(boundary_fragments_pairwise(tiles))


def boundary_fragments_pairwise(tiles):
    """The boundary fragments of union_outline_pairwise, as a list of pairs
    of homogeneous triples (the form geometry._stitch takes)."""
    pool = set()
    for t in tiles:
        pool.update(t.vertices)

    fragments = {}

    def toggle(u, v):
        if fragments.get((v, u), 0) > 0:
            fragments[(v, u)] -= 1
            if fragments[(v, u)] == 0:
                del fragments[(v, u)]
        else:
            fragments[(u, v)] = fragments.get((u, v), 0) + 1

    for t in tiles:
        verts = t.vertices
        n = len(verts)
        for i in range(n):
            u, v = verts[i], verts[(i + 1) % n]
            dx, dy = v.x - u.x, v.y - u.y
            mids = []
            for w in pool:
                if w == u or w == v:
                    continue
                if (w.x - u.x) * dy - (w.y - u.y) * dx != 0:
                    continue
                t_param = ((w.x - u.x) * dx + (w.y - u.y) * dy) / \
                    (dx * dx + dy * dy)
                if 0 < t_param < 1:
                    mids.append((t_param, w))
            mids.sort()
            chain = [u] + [w for _, w in mids] + [v]
            for a, b in zip(chain, chain[1:]):
                toggle(a, b)

    if any(cnt > 1 for cnt in fragments.values()):
        raise OverlapError("duplicate boundary fragment; tiles overlap")
    return [(point_h(u), point_h(v)) for u, v in fragments]
