"""Homogeneous-integer convex polygon kernel.

Vertices are integer triples (X, Y, W) with W > 0 representing the exact
rational point (X/W, Y/W).  Everything here is pure integer arithmetic, so
the hot enumeration loops never touch Fraction objects.  A polygon is a list
of triples in counter-clockwise order with no repeated and no three
consecutive collinear vertices; the empty list is the empty polygon.
"""

from math import gcd


def hreduce(v):
    """Reduce a homogeneous triple by the gcd of its entries, W kept > 0."""
    x, y, w = v
    g = gcd(gcd(abs(x), abs(y)), w)
    if g > 1:
        return (x // g, y // g, w // g)
    return v


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
    """Drop duplicate and collinear vertices; [] when degenerate.

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


def hclip(verts, a, b, c):
    """Clip a convex CCW polygon against the half-plane a*x + b*y <= c.

    Returns a canonical convex CCW polygon ([] when the intersection has
    zero area).  Coefficients are integers.
    """
    n = len(verts)
    if n == 0:
        return []
    sides = [a * x + b * y - c * w for (x, y, w) in verts]
    if all(s <= 0 for s in sides):
        return verts
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
    return hcanon(out)


def hintersect(pa, pb):
    """Intersection polygon of two convex CCW polygons (possibly [])."""
    cur = pa
    n = len(pb)
    for i in range(n):
        if not cur:
            return []
        x1, y1, w1 = pb[i]
        x2, y2, w2 = pb[(i + 1) % n]
        dx = x2 * w1 - x1 * w2
        dy = y2 * w1 - y1 * w2
        # inside of edge: dy*x - dx*y <= dy*(x1/w1) - dx*(y1/w1), scaled by w1
        cur = hclip(cur, dy * w1, -dx * w1, dy * x1 - dx * y1)
    return cur


def interiors_intersect(pa, pb):
    """Exact test whether two convex polygons share interior area."""
    if not pa or not pb:
        return False
    return len(hintersect(pa, pb)) >= 3
