"""Homogeneous-integer convex polygon kernel: the one storage format of
every polygon in the package.

A point is an integer triple (X, Y, W) with W > 0 standing for the exact
rational point (X/W, Y/W); it is reduced when gcd(X, Y, W) = 1, and reduced
triples are canonical, so equal points are equal tuples.  A polygon is a
sequence of reduced triples in counter-clockwise order with no repeated and
no three consecutive collinear vertices (canonical); the empty sequence is
the empty polygon.  geometry.ConvexPolygon stores exactly such a tuple.
Everything here is pure integer arithmetic; only harea, the exact area,
hands back one Fraction per polygon.
"""

from fractions import Fraction
from math import gcd, lcm


def hreduce(v):
    """Reduce a homogeneous triple by the gcd of its entries, W kept > 0."""
    x, y, w = v
    g = gcd(gcd(abs(x), abs(y)), w)
    if g > 1:
        return (x // g, y // g, w // g)
    return v


def hcross(a, b, c):
    """W_a*W_b*W_c times the cross product (b - a) x (c - a), the
    determinant of the three triples: > 0 when a, b, c turn left, 0 when
    they are collinear."""
    (xa, ya, wa), (xb, yb, wb), (xc, yc, wc) = a, b, c
    return (xa * (yb * wc - yc * wb) - ya * (xb * wc - xc * wb)
            + wa * (xb * yc - xc * yb))


def hedge_form(u, v):
    """Coprime integer (a, b, c) of the edge from vertex u to vertex v of a
    CCW polygon: the polygon lies in a*x + b*y <= c.  W_u*W_v times that
    edge's form is
    (Y_v*W_u - Y_u*W_v, X_u*W_v - X_v*W_u, X_u*Y_v - X_v*Y_u)."""
    x1, y1, w1 = u
    x2, y2, w2 = v
    a = y2 * w1 - y1 * w2
    b = x1 * w2 - x2 * w1
    c = x1 * y2 - x2 * y1
    g = gcd(a, b, c)
    return a // g, b // g, c // g


def hclip(verts, a, b, c):
    """Clip a canonical convex CCW polygon against the half-plane
    a*x + b*y <= c (integer coefficients).

    Returns a canonical convex CCW polygon as a list ([] when the
    intersection has zero area).  A line meets the boundary of a strictly
    convex polygon in at most two points, and a crossing lies strictly
    inside its edge, so the kept vertices and crossings repeat no point and
    put no three in a row; three or more of them always enclose area.
    """
    n = len(verts)
    if n == 0:
        return []
    sides = [a * x + b * y - c * w for (x, y, w) in verts]
    if all(s <= 0 for s in sides):
        return list(verts)
    out = []
    for i in range(n):
        s1 = sides[i]
        s2 = sides[(i + 1) % n]
        v1 = verts[i]
        v2 = verts[(i + 1) % n]
        if s1 <= 0:
            out.append(v1)
        if (s1 < 0 < s2) or (s2 < 0 < s1):
            # Intersection of segment v1-v2 with the line a*x + b*y = c.
            ix = s1 * v2[0] - s2 * v1[0]
            iy = s1 * v2[1] - s2 * v1[1]
            iw = s1 * v2[2] - s2 * v1[2]
            if iw < 0:
                ix, iy, iw = -ix, -iy, -iw
            out.append(hreduce((ix, iy, iw)))
    return out if len(out) >= 3 else []


def harea(verts):
    """Exact signed area of a closed loop of triples as one Fraction:
    positive when counter-clockwise, 0 for the empty loop.

    Every vertex is brought to the common denominator L = lcm of the W
    values, so the shoelace sum runs over integers and is divided once, by
    2 * L * L.
    """
    den = lcm(*(w for (_, _, w) in verts))
    pts = [(x * (den // w), y * (den // w)) for (x, y, w) in verts]
    s = sum(x1 * y2 - x2 * y1
            for (x1, y1), (x2, y2) in zip(pts, pts[1:] + pts[:1]))
    return Fraction(s, 2 * den * den)


def hintersect(pa, pb):
    """Intersection polygon of two convex CCW polygons (possibly [])."""
    cur = pa
    n = len(pb)
    for i in range(n):
        if not cur:
            return []
        cur = hclip(cur, *hedge_form(pb[i], pb[(i + 1) % n]))
    return cur


def interiors_intersect(pa, pb):
    """Exact test whether two convex polygons share interior area."""
    if not pa or not pb:
        return False
    return len(hintersect(pa, pb)) >= 3
