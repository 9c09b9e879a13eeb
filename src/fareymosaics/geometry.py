"""Exact rational 2-D geometry: points, half-planes, convex polygons, outlines.

Every coordinate is an exact rational and every predicate is exact; no
floating point enters any geometric decision.  A convex polygon stores its
vertices once, as reduced homogeneous integer triples (X, Y, W) for the
points (X/W, Y/W) (the _intgeom format), so equality, hashing, clipping,
areas, boxes, edge forms, point location and union outlines run on
integers.  An outline stores its loops the same way, so its areas, loop
signs and point location run on integers too.  Fractions appear only at
the API edge: RatPoints of Fraction coordinates for .vertices, bbox(),
JSON, repr and outline loops are built when asked for and are not kept.
Rationals serialize as "p/q" ("p" when q = 1), points as ["p/q", "r/s"].

All types are immutable values; every operation is pure and safe to call
concurrently.  Each convex polygon lazily memoizes its integer bounding
box on first use, and its integer edge forms on the first point location
inside that box; those write-once caches only ever store the same value,
so they are benign under concurrency.  An outline keeps no memo: its point
loops and loop areas are computed on each call.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cmp_to_key
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
    ai, bi, ci = (v.numerator * (m // v.denominator) for v in (a, b, c))
    g = gcd(ai, bi, ci) or 1
    return ai // g, bi // g, ci // g


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
        for name in "abc":
            object.__setattr__(self, name, Fraction(getattr(self, name)))
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


def point_h(p) -> tuple:
    """The reduced homogeneous triple (X, Y, W) of a point (x, y) given as
    two rationals (or anything Fraction accepts)."""
    x, y = Fraction(p[0]), Fraction(p[1])
    dx, dy = x.denominator, y.denominator
    w = lcm(dx, dy)
    return x.numerator * (w // dx), y.numerator * (w // dy), w


def _lex_cmp(p, q) -> int:
    """Negative, zero or positive as the rational point of triple p comes
    before, at or after that of q in lexicographic (x, y) order."""
    (px, py, pw), (qx, qy, qw) = p, q
    return (px * qw - qx * pw) or (py * qw - qy * pw)


def _rotated(hs) -> tuple:
    """The triples hs as a tuple starting at the lexicographically smallest
    point."""
    hs = tuple(hs)
    k = 0
    for i in range(1, len(hs)):
        if _lex_cmp(hs[i], hs[k]) < 0:
            k = i
    return hs[k:] + hs[:k]


class ConvexPolygon:
    """Immutable strictly convex polygon with CCW rational vertices.

    The vertices are stored once, as a tuple of reduced homogeneous integer
    triples (the _intgeom format) in a canonical rotation, lexicographically
    smallest point first, so that equality and hashing are integer tuple
    operations independent of the rotation handed in.  The empty polygon
    (no vertices) is allowed and has area 0.
    """

    __slots__ = ("_h", "_box", "_forms")

    def __init__(self, vertices: Iterable = ()):
        self._box = self._forms = None
        hs = [point_h(p) for p in vertices]
        if not hs:
            self._h = ()
            return
        if len(hs) < 3:
            raise GeometryError("a nonempty convex polygon needs >= 3 vertices")
        if len(set(hs)) != len(hs):
            raise GeometryError("repeated vertex")
        n = len(hs)
        for i in range(n):
            turn = _intgeom.hcross(hs[i - 1], hs[i], hs[(i + 1) % n])
            if turn < 0:
                raise GeometryError("vertices must be counter-clockwise")
            if turn == 0:
                raise GeometryError("three consecutive collinear vertices")
        self._h = _rotated(hs)

    @classmethod
    def from_h(cls, hverts) -> "ConvexPolygon":
        """Polygon from a canonical CCW polygon of reduced triples, such as
        _intgeom.hclip returns; the triples are stored as they are."""
        poly = cls.__new__(cls)
        poly._h = _rotated(hverts)
        poly._box = poly._forms = None
        return poly

    def to_h(self) -> tuple:
        """The stored vertex triples, lexicographically smallest first."""
        return self._h

    @property
    def vertices(self) -> tuple:
        """The vertices as RatPoints, built afresh on each call."""
        return tuple(RatPoint(Fraction(x, w), Fraction(y, w))
                     for x, y, w in self._h)

    @property
    def is_empty(self) -> bool:
        return not self._h

    def __len__(self):
        return len(self._h)

    def __eq__(self, other):
        return isinstance(other, ConvexPolygon) and self._h == other._h

    def __hash__(self):
        return hash(self._h)

    def __repr__(self):
        if self.is_empty:
            return "ConvexPolygon(empty)"
        inner = ", ".join(f"({rational_str(p.x)},{rational_str(p.y)})"
                          for p in self.vertices)
        return f"ConvexPolygon[{inner}]"

    def int_box(self) -> tuple:
        """The bounding box in integers, computed on first use and kept.

        x0, dx0, y0, dy0, x1, dx1, y1, dy1: each bound a numerator over a
        positive denominator, x0/dx0 <= x <= x1/dx1 and likewise for y.
        The integers are those of the extreme vertices' triples themselves.
        The empty polygon gives ().
        """
        box = self._box
        if box is None:
            box = ()
            if self._h:
                x0 = y0 = x1 = y1 = self._h[0]
                for v in self._h[1:]:
                    x, y, w = v
                    if x * x0[2] < x0[0] * w:
                        x0 = v
                    if x * x1[2] > x1[0] * w:
                        x1 = v
                    if y * y0[2] < y0[1] * w:
                        y0 = v
                    if y * y1[2] > y1[1] * w:
                        y1 = v
                box = (x0[0], x0[2], y0[1], y0[2], x1[0], x1[2], y1[1], y1[2])
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
                n for form in edge_forms(self) for n in form)
        return forms

    def bbox(self):
        """min x, min y, max x, max y as Fractions, read from int_box()."""
        box = self.int_box()
        return tuple(map(Fraction, box[::2], box[1::2]))

    def to_json(self):
        return [p.to_json() for p in self.vertices]

    def reflected(self) -> "ConvexPolygon":
        """Image under the diagonal reflection (x, y) -> (y, x)."""
        return ConvexPolygon.from_h(
            [(y, x, w) for (x, y, w) in reversed(self._h)])


EMPTY_POLYGON = ConvexPolygon(())


def edge_forms(poly: ConvexPolygon) -> list:
    """Integer (a, b, c) per edge, counter-clockwise from the first vertex:
    the polygon is the set where a*x + b*y <= c holds for every edge.

    Computed afresh from the vertices; nothing is kept (int_forms is the
    memo of the same coefficients).
    """
    hs = poly.to_h()
    n = len(hs)
    return [_intgeom.hedge_form(hs[i], hs[(i + 1) % n]) for i in range(n)]


def line_key(form) -> tuple:
    """Canonical key of the line of an edge form: the sign of the coprime
    (a, b, c) fixed so that the first nonzero normal entry is positive."""
    a, b, c = form
    if a < 0 or (a == 0 and b < 0):
        return -a, -b, -c
    return a, b, c


def area(poly: ConvexPolygon) -> Fraction:
    """Exact area (integer shoelace, _intgeom.harea); 0 for the empty
    polygon."""
    return _intgeom.harea(poly.to_h())


def clip(poly: ConvexPolygon, hp: HalfPlane) -> ConvexPolygon:
    """poly intersected with the closure of hp.

    Degenerate results (segments, points) collapse to the empty polygon.
    """
    return ConvexPolygon.from_h(
        _intgeom.hclip(poly.to_h(), *hp.int_coeffs()))


def affine_image(poly: ConvexPolygon, P: int, Pp: int) -> ConvexPolygon:
    """Image of poly under (x, y) -> (x, P*y - Pp*x); exact determinant P.

    Requires P >= 1, so orientation is preserved and
    area(image) = P * area(poly) exactly.
    """
    if P < 1:
        raise GeometryError(f"affine_image requires P >= 1, got {P}")
    return ConvexPolygon.from_h([_intgeom.hreduce((x, P * y - Pp * x, w))
                                 for (x, y, w) in poly.to_h()])


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


def _towards(h, v) -> tuple:
    """The vector from the point of triple h to that of triple v, as two
    Fractions: the direction of a VERTEX location."""
    (x, y, w), (vx, vy, vw) = h, v
    return (Fraction(vx * w - x * vw, vw * w),
            Fraction(vy * w - y * vw, vw * w))


def _locate_convex(poly: ConvexPolygon, h) -> Location:
    """Class of the point with triple h: the signs of a*X + b*Y - c*W over
    the polygon's memoized edge forms."""
    n = len(poly)
    if not n:
        return Location(Incidence.OUTSIDE)
    x, y, w = h
    forms = poly.int_forms()
    on_edges = []
    for i in range(n):
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
    # vertex their edges share: i + 1, or 0 for the edges 0 and n - 1.  The
    # point is that vertex; its directions run to the next and the
    # previous vertex.
    i, j = on_edges
    k = 0 if i == 0 and j == n - 1 else j
    hs = poly.to_h()
    return Location(Incidence.VERTEX,
                    (_towards(h, hs[(k + 1) % n]), _towards(h, hs[k - 1])))


def _points(loop) -> tuple:
    """The RatPoints of a loop of triples."""
    return tuple(RatPoint(Fraction(x, w), Fraction(y, w)) for x, y, w in loop)


class Outline:
    """Union boundary: outer loops counter-clockwise, holes clockwise.

    The loops are stored once, as tuples of reduced homogeneous integer
    triples (as in ConvexPolygon), so equality, hashing, areas, loop signs
    and point location run on integers.  Outline takes loops of points;
    .loops, outer_loops() and holes() build RatPoints afresh on each call.
    """

    __slots__ = ("_h",)

    def __init__(self, loops):
        self._h = tuple(tuple(map(point_h, loop)) for loop in loops)

    @classmethod
    def from_h(cls, hloops) -> "Outline":
        """Outline from loops of reduced triples, stored as they are."""
        outline = cls.__new__(cls)
        outline._h = tuple(map(tuple, hloops))
        return outline

    def to_h(self) -> tuple:
        return self._h

    @property
    def loops(self) -> tuple:
        return tuple(map(_points, self._h))

    def outer_loops(self):
        return [_points(lp) for lp in self._h if _intgeom.harea(lp) > 0]

    def holes(self):
        return [_points(lp) for lp in self._h if _intgeom.harea(lp) < 0]

    def area(self) -> Fraction:
        return sum(map(_intgeom.harea, self._h), Fraction(0))

    def __eq__(self, other):
        return isinstance(other, Outline) and self._h == other._h

    def __hash__(self):
        return hash(self._h)

    def __repr__(self):
        return f"Outline(loops={self.loops!r})"

    def to_json(self):
        return [[p.to_json() for p in loop] for loop in self.loops]


def _locate_outline(outline: Outline, h) -> Location:
    """Class of the point with triple h against an outline, by integer
    signs: a vertex is an equal triple, an edge point is on the edge's line
    and inside its span, and otherwise the +x ray from the point crosses
    the boundary an odd number of times exactly when the point is inside."""
    loops = outline.to_h()
    # Boundary first: vertex beats edge.
    for loop in loops:
        if h in loop:
            i = loop.index(h)
            return Location(Incidence.VERTEX, (
                _towards(h, loop[(i + 1) % len(loop)]),
                _towards(h, loop[i - 1])))
    x, y, w = h
    crossings = 0
    for loop in loops:
        for u, v in zip(loop, loop[1:] + loop[:1]):
            (ux, uy, uw), (vx, vy, vw) = u, v
            a, b, c = _intgeom.hedge_form(u, v)
            s = a * x + b * y - c * w        # < 0 left of u -> v
            dyu, dyv = uy * w - y * uw, vy * w - y * vw
            if s == 0 and dyu * dyv <= 0 and \
                    (ux * w - x * uw) * (vx * w - x * vw) <= 0:
                return Location(Incidence.EDGE)
            # the edge meets the ray's line in the half-open rule; off the
            # boundary, its crossing lies right of the point exactly when
            # the point is left of an upward edge or right of a downward one
            crossings += (dyu > 0) != (dyv > 0) and (s < 0) == (dyv > 0)
    return Location(Incidence.INTERIOR if crossings % 2 else
                    Incidence.OUTSIDE)


def locate(region: Union[ConvexPolygon, Outline], p: RatPoint) -> Location:
    """Exact classification of the point p = (x, y) against a convex
    polygon or an outline."""
    if isinstance(region, ConvexPolygon):
        return _locate_convex(region, point_h(p))
    return _locate_outline(region, point_h(p))


# ---------------------------------------------------------------------------
# Union outlines by exact edge cancellation
# ---------------------------------------------------------------------------


def boxes_overlap(d, e) -> bool:
    """Whether the open bounding boxes of two nonempty polygons meet, read
    from their int_box() tuples d and e by cross-multiplying the bounds."""
    return (e[0] * d[5] < d[4] * e[1] and d[0] * e[5] < e[4] * d[1] and
            e[2] * d[7] < d[6] * e[3] and d[2] * e[7] < e[6] * d[3])


def _check_interior_disjoint(tiles: Sequence[ConvexPolygon]):
    data = [t.int_box() for t in tiles]
    for i in range(len(tiles)):
        d = data[i]
        for j in range(i + 1, len(tiles)):
            if boxes_overlap(d, data[j]) and _intgeom.interiors_intersect(
                    tiles[i].to_h(), tiles[j].to_h()):
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
    each fragment is a pair of triples, neighbouring tile vertices on its
    line."""
    by_line = {}
    for t in tiles:
        hs = t.to_h()
        n = len(hs)
        for i, form in enumerate(edge_forms(t)):
            by_line.setdefault(line_key(form), []).append(
                (hs[i], hs[(i + 1) % n]))

    pool = {v for t in tiles for v in t.to_h()}
    fragments = []
    for (a, b, c), edges in by_line.items():
        pos = line_positions(b, {p for edge in edges for p in edge})
        pts = sorted(pos, key=pos.get)
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
                pool_pos = line_positions(
                    b, [v for v in pool if a * v[0] + b * v[1] == c * v[2]])
                on_line = sorted(pool_pos, key=pool_pos.get)
                at_pool = {p: i for i, p in enumerate(on_line)}
            chain = on_line[at_pool[pts[k]]:at_pool[pts[k + 1]] + 1]
            if net < 0:
                chain.reverse()
            fragments += zip(chain, chain[1:])
    return fragments


def line_positions(b, points) -> dict:
    """Exact integer position of each triple on one line a*x + b*y = c, in
    the lexicographic order of the points: x, or y on a vertical line
    (b = 0), brought to the common denominator of the points' W."""
    i = 0 if b else 1
    den = lcm(*(p[2] for p in points))
    return {p: p[i] * (den // p[2]) for p in points}


def _direction(u, v) -> tuple:
    """W_u*W_v times the vector from the point of triple u to that of v."""
    return v[0] * u[2] - u[0] * v[2], v[1] * u[2] - u[1] * v[2]


def _seq_cmp(f, g) -> int:
    """Lexicographic order of sequences of triples, such as fragments and
    loops, as of their points."""
    for p, q in zip(f, g):
        c = _lex_cmp(p, q)
        if c:
            return c
    return len(f) - len(g)


def _stitch(fragments) -> Outline:
    """Loops from directed boundary fragments of triples: at each vertex the
    sharpest left turn is followed; collinear runs are merged; loops are
    sorted by decreasing signed area, then in point order."""
    out_map = {}
    for (u, v) in fragments:
        out_map.setdefault(u, []).append(v)

    loops = []
    unused = set(fragments)
    while unused:
        start = min(unused, key=cmp_to_key(_seq_cmp))
        origin = start[0]
        loop_pts = []
        cur = start
        while True:
            unused.discard(cur)
            u, v = cur
            loop_pts.append(u)
            if v == origin:
                break
            din = _direction(u, v)
            candidates = [w for w in out_map.get(v, ()) if (v, w) in unused]
            if not candidates:
                raise GeometryError("open boundary chain in union outline")
            best = candidates[0]
            for w in candidates[1:]:
                if _more_ccw(din, _direction(v, w), _direction(v, best)):
                    best = w
            cur = (v, best)
        # merge collinear runs
        m = len(loop_pts)
        merged = [loop_pts[i] for i in range(m)
                  if _intgeom.hcross(loop_pts[i - 1], loop_pts[i],
                                     loop_pts[(i + 1) % m]) != 0]
        if len(merged) >= 3:
            loops.append(_rotated(merged))
    loops.sort(key=cmp_to_key(_seq_cmp))
    loops.sort(key=lambda loop: -_intgeom.harea(loop))     # stable
    return Outline.from_h(loops)
