"""Exact rational 2-D geometry: points, half-planes, convex polygons, outlines.

All coordinates are arbitrary-precision rationals (fractions.Fraction) and
every predicate is exact; no floating point enters any geometric decision.
Rationals serialize as "p/q" ("p" when q = 1), points as ["p/q", "r/s"].

All types are immutable values; every operation is pure and safe to call
concurrently.  Each polygon lazily memoizes its integer bounding box on
first use, and its integer edge forms on the first point location inside
that box; those write-once caches only ever store the same value, so they
are benign under concurrency.
"""

from __future__ import annotations

import enum
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, NamedTuple, Sequence, Union

from . import _intgeom
from .errors import GeometryError, OverlapError

# Exact rational scalar used everywhere; stored reduced with denominator >= 1.
Rational = Fraction


def rational_str(x) -> str:
    """Serialize a rational as "p/q", or "p" when the denominator is 1."""
    return str(Fraction(x))


def parse_rational(s: str) -> Fraction:
    """Parse "p/q" or "p" (also accepts decimal strings like "0.25")."""
    return Fraction(s.strip())


class RatPoint(NamedTuple):
    """Exact 2-D point; tuple order gives exact lexicographic comparison."""

    x: Fraction
    y: Fraction

    def to_json(self):
        return [rational_str(self.x), rational_str(self.y)]

    @staticmethod
    def of(x, y) -> "RatPoint":
        return RatPoint(Fraction(x), Fraction(y))


def point_from_json(obj) -> RatPoint:
    return RatPoint(parse_rational(obj[0]), parse_rational(obj[1]))


def int_form(a, b, c):
    """Rationals a, b, c scaled by one positive factor to coprime integers."""
    m = lcm(a.denominator, b.denominator, c.denominator)
    ai = a.numerator * (m // a.denominator)
    bi = b.numerator * (m // b.denominator)
    ci = c.numerator * (m // c.denominator)
    g = gcd(gcd(abs(ai), abs(bi)), abs(ci))
    if g > 1:
        return ai // g, bi // g, ci // g
    return ai, bi, ci


@dataclass(frozen=True)
class HalfPlane:
    """The set {(x, y) : a*x + b*y <= c}; open (< c) when closed is False.

    Openness is metadata used only by point classification; clipping always
    uses the closure (boundaries have measure zero).
    """

    a: Fraction
    b: Fraction
    c: Fraction
    closed: bool = True

    def __post_init__(self):
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))
        object.__setattr__(self, "c", Fraction(self.c))
        if self.a == 0 and self.b == 0:
            raise GeometryError("half-plane normal must be nonzero")

    def complement(self) -> "HalfPlane":
        return HalfPlane(-self.a, -self.b, -self.c, not self.closed)

    def int_coeffs(self):
        """(a, b, c) scaled to integers."""
        return int_form(self.a, self.b, self.c)

    def contains(self, p: RatPoint) -> bool:
        v = self.a * p.x + self.b * p.y
        return v <= self.c if self.closed else v < self.c


def _to_h(p: RatPoint):
    w = lcm(p.x.denominator, p.y.denominator)
    return (p.x.numerator * (w // p.x.denominator),
            p.y.numerator * (w // p.y.denominator), w)


def _from_h(v) -> RatPoint:
    x, y, w = v
    return RatPoint(Fraction(x, w), Fraction(y, w))


class ConvexPolygon:
    """Immutable strictly convex polygon with CCW rational vertices.

    The empty polygon (no vertices) is allowed and has area 0.  Vertices are
    stored in a canonical rotation (lexicographically smallest first) so that
    equality and hashing are independent of the rotation handed in.
    """

    __slots__ = ("_verts", "_box", "_forms")

    def __init__(self, vertices: Iterable = ()):
        self._box = self._forms = None
        pts = [RatPoint(Fraction(x), Fraction(y)) for (x, y) in vertices]
        if not pts:
            self._verts = ()
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
        self._verts = _rotated(pts)

    @classmethod
    def _from_ccw(cls, pts) -> "ConvexPolygon":
        """Polygon from points already known to be strictly convex CCW."""
        poly = cls.__new__(cls)
        poly._verts = _rotated(pts)
        poly._box = poly._forms = None
        return poly

    @classmethod
    def from_h(cls, hverts) -> "ConvexPolygon":
        return cls._from_ccw([_from_h(v) for v in hverts])

    def to_h(self):
        return [_to_h(p) for p in self._verts]

    @property
    def vertices(self) -> tuple:
        return self._verts

    @property
    def is_empty(self) -> bool:
        return not self._verts

    def __len__(self):
        return len(self._verts)

    def __eq__(self, other):
        return isinstance(other, ConvexPolygon) and self._verts == other._verts

    def __hash__(self):
        return hash(self._verts)

    def __repr__(self):
        if self.is_empty:
            return "ConvexPolygon(empty)"
        inner = ", ".join(f"({rational_str(p.x)},{rational_str(p.y)})"
                          for p in self._verts)
        return f"ConvexPolygon[{inner}]"

    def int_box(self) -> tuple:
        """The bounding box in integers, computed on first use and kept.

        x0, dx0, y0, dy0, x1, dx1, y1, dy1: each bound a numerator over a
        positive denominator, x0/dx0 <= x <= x1/dx1 and likewise for y.
        The integers are those of the vertex coordinates themselves.  The
        empty polygon gives ().
        """
        box = self._box
        if box is None:
            box = ()
            if self._verts:
                box = tuple(n for v in self.bbox()
                            for n in (v.numerator, v.denominator))
            self._box = box
        return box

    def int_forms(self) -> tuple:
        """a, b, c of each edge form of edge_forms, in order and flat;
        computed on first use and kept.

        Point location reads them, query after query.  Callers that visit
        each polygon once call edge_forms, which keeps nothing, so polygons
        that no query lands in carry no forms.
        """
        forms = self._forms
        if forms is None:
            forms = self._forms = tuple(
                n for form in _edge_forms(self._verts) for n in form)
        return forms

    def bbox(self):
        xs = [p.x for p in self._verts]
        ys = [p.y for p in self._verts]
        return min(xs), min(ys), max(xs), max(ys)

    def to_json(self):
        return [p.to_json() for p in self._verts]

    def reflected(self) -> "ConvexPolygon":
        """Image under the diagonal reflection (x, y) -> (y, x)."""
        return ConvexPolygon._from_ccw(
            [RatPoint(p.y, p.x) for p in reversed(self._verts)])


def _rotated(pts) -> tuple:
    """pts as a tuple starting at its lexicographically smallest point."""
    pts = tuple(pts)
    if not pts:
        return pts
    k = min(range(len(pts)), key=pts.__getitem__)
    return pts[k:] + pts[:k]


EMPTY_POLYGON = ConvexPolygon(())


def edge_forms(poly: ConvexPolygon) -> list:
    """Integer (a, b, c) per edge, counter-clockwise from the first vertex:
    the polygon is the set where a*x + b*y <= c holds for every edge.

    Computed afresh from the vertices; nothing is kept (int_forms is the
    memo of the same coefficients).
    """
    return _edge_forms(poly.vertices)


def _edge_forms(verts) -> list:
    """The edge forms of a CCW vertex cycle, in integers.  With vertices
    (X1/W1, Y1/W1) and (X2/W2, Y2/W2), W1*W2 times the edge's form is
    (Y2*W1 - Y1*W2, X1*W2 - X2*W1, X1*Y2 - X2*Y1); dividing by the gcd
    makes it coprime."""
    hs = [_to_h(p) for p in verts]
    n = len(hs)
    out = []
    for i in range(n):
        x1, y1, w1 = hs[i]
        x2, y2, w2 = hs[(i + 1) % n]
        a = y2 * w1 - y1 * w2
        b = x1 * w2 - x2 * w1
        c = x1 * y2 - x2 * y1
        g = gcd(a, b, c)
        out.append((a // g, b // g, c // g))
    return out


def line_key(form) -> tuple:
    """Canonical key of the line of an edge form: the sign of the coprime
    (a, b, c) fixed so that the first nonzero normal entry is positive."""
    a, b, c = form
    if a < 0 or (a == 0 and b < 0):
        return -a, -b, -c
    return a, b, c


def area(poly: ConvexPolygon) -> Fraction:
    """Exact shoelace area; the empty polygon has area 0."""
    total = _loop_area2(poly.vertices)
    if total < 0:
        raise GeometryError("negative area on a CCW polygon")
    return total / 2


def clip(poly: ConvexPolygon, hp: HalfPlane) -> ConvexPolygon:
    """poly intersected with the closure of hp.

    Degenerate results (segments, points) collapse to the empty polygon.
    """
    if poly.is_empty:
        return poly
    a, b, c = hp.int_coeffs()
    return ConvexPolygon.from_h(_intgeom.hclip(poly.to_h(), a, b, c))


def affine_image(poly: ConvexPolygon, P: int, Pp: int) -> ConvexPolygon:
    """Image of poly under (x, y) -> (x, P*y - Pp*x); exact determinant P.

    Requires P >= 1, so orientation is preserved and
    area(image) = P * area(poly) exactly.
    """
    if P < 1:
        raise GeometryError(f"affine_image requires P >= 1, got {P}")
    return ConvexPolygon._from_ccw(
        [RatPoint(p.x, P * p.y - Pp * p.x) for p in poly.vertices])


class Incidence(enum.Enum):
    INTERIOR = "interior"
    EDGE = "edge"
    VERTEX = "vertex"
    OUTSIDE = "outside"


@dataclass(frozen=True)
class Location:
    """Exact point classification; directions only for VERTEX incidences.

    directions holds the two boundary direction vectors leaving the vertex,
    so callers can compute the interior-angle fraction.
    """

    kind: Incidence
    directions: tuple = None


def _vertex_location(verts, i) -> Location:
    n = len(verts)
    p = verts[i]
    nxt = verts[(i + 1) % n]
    prv = verts[i - 1]
    d1 = (nxt.x - p.x, nxt.y - p.y)
    d2 = (prv.x - p.x, prv.y - p.y)
    return Location(Incidence.VERTEX, (d1, d2))


def _locate_convex(poly: ConvexPolygon, p: RatPoint) -> Location:
    verts = poly.vertices
    if not verts:
        return Location(Incidence.OUTSIDE)
    x, y, w = _to_h(p)
    forms = poly.int_forms()
    on_edges = []
    for i in range(len(verts)):
        a, b, c = forms[3 * i:3 * i + 3]
        s = a * x + b * y - c * w
        if s > 0:
            return Location(Incidence.OUTSIDE)
        if s == 0:
            on_edges.append(i)
    if not on_edges:
        return Location(Incidence.INTERIOR)
    if len(on_edges) == 1:
        return Location(Incidence.EDGE)
    # Inside a strictly convex polygon, two edge lines meet only at the
    # vertex their edges share: i + 1, or 0 for the edges 0 and n - 1.
    i, j = on_edges
    return _vertex_location(verts, 0 if i == 0 and j == len(verts) - 1 else j)


def _on_segment(a: RatPoint, b: RatPoint, p: RatPoint) -> bool:
    s = (b.x - a.x) * (p.y - a.y) - (b.y - a.y) * (p.x - a.x)
    if s != 0:
        return False
    return min(a.x, b.x) <= p.x <= max(a.x, b.x) and \
        min(a.y, b.y) <= p.y <= max(a.y, b.y)


@dataclass(frozen=True)
class Outline:
    """Union boundary: outer loops counter-clockwise, holes clockwise."""

    loops: tuple

    def __post_init__(self):
        object.__setattr__(self, "loops",
                           tuple(tuple(RatPoint(Fraction(x), Fraction(y))
                                       for (x, y) in loop)
                                 for loop in self.loops))

    def outer_loops(self):
        return [lp for lp in self.loops if _loop_area2(lp) > 0]

    def holes(self):
        return [lp for lp in self.loops if _loop_area2(lp) < 0]

    def area(self) -> Fraction:
        return sum((_loop_area2(lp) for lp in self.loops), Fraction(0)) / 2

    def to_json(self):
        return [[p.to_json() for p in loop] for loop in self.loops]


def _loop_area2(loop) -> Fraction:
    """Twice the signed shoelace area of a closed loop of points."""
    total = Fraction(0)
    n = len(loop)
    for i in range(n):
        p, q = loop[i], loop[(i + 1) % n]
        total += p.x * q.y - q.x * p.y
    return total


def _locate_outline(outline: Outline, p: RatPoint) -> Location:
    # Boundary first: vertex beats edge.
    for loop in outline.loops:
        n = len(loop)
        for i in range(n):
            if loop[i] == p:
                nxt = loop[(i + 1) % n]
                prv = loop[i - 1]
                return Location(Incidence.VERTEX,
                    ((nxt.x - p.x, nxt.y - p.y), (prv.x - p.x, prv.y - p.y)))
    for loop in outline.loops:
        n = len(loop)
        for i in range(n):
            if _on_segment(loop[i], loop[(i + 1) % n], p):
                return Location(Incidence.EDGE)
    # Even-odd ray casting (+x direction); exact because p is off-boundary.
    crossings = 0
    for loop in outline.loops:
        n = len(loop)
        for i in range(n):
            a, b = loop[i], loop[(i + 1) % n]
            if (a.y > p.y) == (b.y > p.y):
                continue
            # x coordinate where the edge crosses the horizontal through p
            t = (p.y - a.y) / (b.y - a.y)
            x_cross = a.x + t * (b.x - a.x)
            if x_cross > p.x:
                crossings += 1
    if crossings % 2 == 1:
        return Location(Incidence.INTERIOR)
    return Location(Incidence.OUTSIDE)


def locate(region: Union[ConvexPolygon, Outline], p: RatPoint) -> Location:
    """Exact classification of p against a convex polygon or an outline."""
    p = RatPoint(Fraction(p[0]), Fraction(p[1]))
    if isinstance(region, ConvexPolygon):
        return _locate_convex(region, p)
    return _locate_outline(region, p)


# ---------------------------------------------------------------------------
# Union outlines by exact edge cancellation
# ---------------------------------------------------------------------------


def boxes_overlap(d, e) -> bool:
    """Whether the open bounding boxes of two nonempty polygons meet, read
    from their int_box() tuples d and e by cross-multiplying the bounds."""
    return (e[0] * d[5] < d[4] * e[1] and d[0] * e[5] < e[4] * d[1] and
            e[2] * d[7] < d[6] * e[3] and d[2] * e[7] < e[6] * d[3])


def _check_interior_disjoint(tiles: Sequence[ConvexPolygon]):
    hs = [t.to_h() for t in tiles]
    data = [t.int_box() for t in tiles]
    for i in range(len(tiles)):
        d = data[i]
        for j in range(i + 1, len(tiles)):
            if boxes_overlap(d, data[j]) and \
                    _intgeom.interiors_intersect(hs[i], hs[j]):
                raise OverlapError(
                    f"tiles {i} and {j} have intersecting interiors")


def _more_ccw(din, u, v) -> bool:
    """True when direction u is a sharper left turn than v, relative to din.

    Turn angles live in (-pi, pi]: straight back beats left turns beats
    straight ahead beats right turns; within one half-plane the direction
    that is counter-clockwise of the other wins.
    """
    def key_class(w):
        cross = din[0] * w[1] - din[1] * w[0]
        dot = din[0] * w[0] + din[1] * w[1]
        if cross == 0:
            return 3 if dot < 0 else 1
        return 2 if cross > 0 else 0

    cu, cv = key_class(u), key_class(v)
    if cu != cv:
        return cu > cv
    return u[0] * v[1] - u[1] * v[0] < 0


def union_outline(tiles: Sequence[ConvexPolygon]) -> Outline:
    """Outline of a union of interior-disjoint convex tiles.

    Tile edges are grouped by the line they lie on.  On each line the
    distinct edge endpoints are sorted once and every edge adds +1 over its
    span when it runs in increasing lexicographic order, -1 otherwise; the
    net count of each interval between neighbouring endpoints is 0 inside
    the union and +-1 on its boundary, in that direction.  The surviving
    intervals are split at every tile vertex strictly inside them (where a
    tile touches the line without an edge on it), stitched into loops, and
    collinear runs are merged.  Raises OverlapError when two tiles share
    interior area or a net count exceeds 1.
    """
    tiles = [t for t in tiles if not t.is_empty]
    if not tiles:
        return Outline(())
    _check_interior_disjoint(tiles)
    return _stitch(_boundary_fragments(tiles))


def _boundary_fragments(tiles) -> list:
    """The directed boundary fragments of union_outline, one line at a time:
    each fragment runs between neighbouring tile vertices on its line."""
    by_line = {}
    for t in tiles:
        verts = t.vertices
        n = len(verts)
        for i, form in enumerate(edge_forms(t)):
            by_line.setdefault(line_key(form), []).append(
                (verts[i], verts[(i + 1) % n]))

    pool = {p: h for t in tiles for p, h in zip(t.vertices, t.to_h())}
    fragments = []
    for (a, b, c), edges in by_line.items():
        pts = sorted({p for edge in edges for p in edge})
        at = {p: k for k, p in enumerate(pts)}
        # +1 at each edge's start, -1 at its end: the prefix sums count the
        # edges over each interval, those running backwards as -1
        diff = [0] * len(pts)
        for u, v in edges:
            diff[at[u]] += 1
            diff[at[v]] -= 1
        on_line = None
        net = 0
        for k in range(len(pts) - 1):
            net += diff[k]
            if net == 0:
                continue
            if net > 1 or net < -1:
                raise OverlapError("duplicate boundary fragment; tiles overlap")
            if on_line is None:
                on_line = sorted(p for p, (x, y, w) in pool.items()
                                 if a * x + b * y == c * w)
            chain = on_line[bisect_left(on_line, pts[k]):
                            bisect_right(on_line, pts[k + 1])]
            if net < 0:
                chain.reverse()
            fragments += zip(chain, chain[1:])
    return fragments


def _stitch(fragments) -> Outline:
    """Loops from directed boundary fragments: at each vertex the sharpest
    left turn is followed; collinear runs are merged; loops are sorted by
    decreasing signed area."""
    out_map = {}
    for (u, v) in fragments:
        out_map.setdefault(u, []).append(v)
    for u in out_map:
        out_map[u].sort()

    loops = []
    unused = set(fragments)
    while unused:
        start = min(unused)
        origin = start[0]
        loop_pts = []
        cur = start
        while True:
            unused.discard(cur)
            u, v = cur
            loop_pts.append(u)
            if v == origin:
                break
            din = (v.x - u.x, v.y - u.y)
            candidates = [w for w in out_map.get(v, ()) if (v, w) in unused]
            if not candidates:
                raise GeometryError("open boundary chain in union outline")
            best = candidates[0]
            for w in candidates[1:]:
                if _more_ccw(din, (w.x - v.x, w.y - v.y),
                             (best.x - v.x, best.y - v.y)):
                    best = w
            cur = (v, best)
        # merge collinear runs
        merged = []
        m = len(loop_pts)
        for i in range(m):
            a = loop_pts[i - 1]
            b = loop_pts[i]
            c = loop_pts[(i + 1) % m]
            if (b.x - a.x) * (c.y - b.y) - (b.y - a.y) * (c.x - b.x) != 0:
                merged.append(b)
        if len(merged) >= 3:
            loops.append(_rotated(merged))

    loops.sort(key=lambda lp: (-_loop_area2(lp), lp))
    return Outline(tuple(loops))
