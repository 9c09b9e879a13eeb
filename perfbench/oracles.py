"""Reference computations made apart from the program, for output checks.

None of these call into ``fareymosaics``: the class size comes from a
totient sieve, areas from the shoelace formula on the vertices the program
returns, and published vertex strings are parsed here.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd


@lru_cache(maxsize=8)
def totients(n: int) -> tuple:
    phi = list(range(n + 1))
    for p in range(2, n + 1):
        if phi[p] == p:
            for m in range(p, n + 1, p):
                phi[m] -= phi[m] // p
    return tuple(phi)


def farey_class_size(Q: int, c: int, d: int) -> int:
    """#F^Q(c,d): members a/q of F^Q with q = c (mod d).  Denominator 1
    carries both endpoints 0/1 and 1/1, every q >= 2 carries phi(q)."""
    phi = totients(Q)
    n = sum(phi[q] for q in range(2, Q + 1) if q % d == c % d)
    if 1 % d == c % d:
        n += 2
    return n


def layer_prefactor(c: int, d: int) -> Fraction:
    """2*g / (d*phi(g)) with g = gcd(c, d)."""
    g = gcd(c, d)
    return Fraction(2 * g, d * totients(g)[g])


def loop_area(points) -> Fraction:
    """Signed shoelace area of a closed vertex loop (CCW positive)."""
    n = len(points)
    twice = sum(points[i][0] * points[(i + 1) % n][1]
                - points[(i + 1) % n][0] * points[i][1] for i in range(n))
    return Fraction(twice) / 2


def parse_vertices(s: str) -> list:
    """'(1,1); (2/7,1); ...' -> [(Fraction, Fraction), ...]."""
    out = []
    for part in s.split(";"):
        x, y = part.strip().strip("()").split(",")
        out.append((Fraction(x), Fraction(y)))
    return out


def in_closed_convex(loop, p) -> bool:
    """p inside or on the CCW convex loop."""
    n = len(loop)
    for i in range(n):
        (ax, ay), (bx, by) = loop[i], loop[(i + 1) % n]
        if (bx - ax) * (p[1] - ay) - (by - ay) * (p[0] - ax) < 0:
            return False
    return True
