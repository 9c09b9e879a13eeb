"""Modular admissibility, totient arithmetic, and lattice-count oracles.

Admissible starting residues are defined operationally through residue
traces: the chain of denominators mod d generated by (c, e) must land in
class c exactly at the pattern's selected positions and nowhere in between,
and gcd(c, e, d) = 1 so the class contains coprime generator pairs.  The
coprimality hypothesis of the lattice main-term count is implemented as
gcd(a, b, d) = 1; the brute-force counter adjudicates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .continuants import IndexTuple
from .errors import DomainError, SizeError
from .farey import ProgressionClass, TupleType
from .geometry import ConvexPolygon


def euler_phi(n: int) -> int:
    if n < 1:
        raise DomainError(f"phi needs n >= 1, got {n}")
    result = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            result -= result // p
            while m % p == 0:
                m //= p
        p += 1 if p == 2 else 2
    if m > 1:
        result -= result // m
    return result


def _prime_factors(d: int):
    ps = []
    m = d
    p = 2
    while p * p <= m:
        if m % p == 0:
            ps.append(p)
            while m % p == 0:
                m //= p
        p += 1 if p == 2 else 2
    if m > 1:
        ps.append(m)
    return ps


def squarefree_factor(d: int) -> Fraction:
    """The exact rational  prod_{p | d} (1 - p^-2)^-1."""
    if d < 1:
        raise DomainError(f"need d >= 1, got {d}")
    out = Fraction(1)
    for p in _prime_factors(d):
        out *= Fraction(p * p, p * p - 1)
    return out


def residue_trace(k: IndexTuple, c: int, e: int, d: int) -> list:
    """Residues mod d of q_{-1}, q_0, ..., q_n for the chain seeded (c, e)."""
    if d < 2:
        raise DomainError(f"modulus must be >= 2, got {d}")
    prev, cur = c % d, e % d
    out = [prev, cur]
    for kj in k:
        prev, cur = cur, (kj * cur - prev) % d
        out.append(cur)
    return out


@dataclass(frozen=True, slots=True)
class AdmissibleResidues:
    """Starting residues e whose chains realize pattern r for tuple k."""

    k: IndexTuple
    pattern: TupleType
    cls: ProgressionClass
    residues: frozenset

    @property
    def multiplicity(self) -> int:
        return len(self.residues)

    def sorted(self) -> list:
        return sorted(self.residues)


def admissible_residues(k: IndexTuple, pattern: TupleType,
                        cls: ProgressionClass) -> AdmissibleResidues:
    """All e in [0, d-1] with gcd(c, e, d) = 1 whose residue trace hits
    class c exactly at positions -1+r_1, ..., -1+|r| and nowhere else in
    [0, |r|-1].  An empty set means k contributes nothing."""
    pattern = tuple(int(v) for v in pattern)
    if not pattern or any(v < 1 for v in pattern):
        raise DomainError(f"pattern entries must be >= 1, got {pattern}")
    total = sum(pattern)
    if len(k) != total - 1:
        raise DomainError(
            f"order {len(k)} does not match pattern {pattern} (|r|-1={total - 1})")
    c, d = cls.c % cls.d, cls.d
    selected = set()
    pos = -1
    for ri in pattern:
        pos += ri
        selected.add(pos)
    good = []
    for e in range(d):
        if math.gcd(c, e, d) != 1:
            continue
        trace = residue_trace(k, c, e, d)
        ok = True
        for j in range(total):           # chain positions 0 .. |r|-1
            hit = trace[j + 1] == c
            if hit != (j in selected):
                ok = False
                break
        if ok:
            good.append(e)
    return AdmissibleResidues(tuple(k), pattern, cls, frozenset(good))


@dataclass(frozen=True)
class CardinalityPrediction:
    """Main term of #F^Q(c,d): coefficient * Q^2 / pi^2, coefficient exact."""

    Q: int
    cls: ProgressionClass
    coefficient: Fraction    # 3 * phi(g) / (d*g) * prod (1 - p^-2)^-1

    @property
    def main_term(self) -> float:
        return float(self.coefficient) * self.Q * self.Q / (math.pi ** 2)


def cardinality_prediction(Q: int, cls: ProgressionClass) -> CardinalityPrediction:
    g = math.gcd(cls.c, cls.d)   # gcd(0, d) = d so c = 0 works uniformly
    coeff = Fraction(3 * euler_phi(g), cls.d * g) * squarefree_factor(cls.d)
    return CardinalityPrediction(Q, cls, coeff)


def predicted_cardinality(Q: int, cls: ProgressionClass) -> float:
    """(3Q^2/pi^2) * phi(g)/(d*g) * prod_{p|d}(1-p^-2)^-1, g = gcd(c, d)."""
    if Q < 0:
        raise DomainError("Q must be >= 0")
    if Q == 0:
        return 0.0
    return cardinality_prediction(Q, cls).main_term


def exact_cardinality(Q: int, cls: ProgressionClass) -> int:
    """#F^Q(c,d) by totient sieve (0/1 and 1/1 both count when 1 = c)."""
    if Q < 1:
        return 0
    phi = list(range(Q + 1))
    for p in range(2, Q + 1):
        if phi[p] == p:                      # p prime
            for m in range(p, Q + 1, p):
                phi[m] -= phi[m] // p
    c, d = cls.c % cls.d, cls.d
    total = sum(phi[q] for q in range(1, Q + 1) if q % d == c)
    if 1 % d == c:
        total += 1                           # the fraction 0/1
    return total


def _diameter_sq(poly: ConvexPolygon) -> Fraction:
    verts = poly.vertices
    best = Fraction(0)
    for i in range(len(verts)):
        for j in range(i + 1, len(verts)):
            dx = verts[i].x - verts[j].x
            dy = verts[i].y - verts[j].y
            best = max(best, dx * dx + dy * dy)
    return best


def lattice_count_exact(poly: ConvexPolygon, scale: int, a: int, b: int,
                        d: int, max_extent: int = 4000,
                        open_edges=()) -> int:
    """Exact count of points (m, n) in scale*poly with m = a, n = b (mod d)
    and gcd(m, n) = 1, by direct enumeration over rows.

    Counts positive coordinates only (m, n >= 1), matching the Farey use
    where both entries are denominators.  open_edges is a sequence of
    HalfPlane constraints (in unit coordinates) whose boundary lines are
    excluded, for counting over half-open regions such as the Farey
    triangle's x + y > 1 side.  Raises SizeError when scale * diameter
    exceeds max_extent.
    """
    if scale < 1 or d < 1:
        raise DomainError("scale and d must be >= 1")
    if poly.is_empty:
        return 0
    if scale * scale * _diameter_sq(poly) > Fraction(max_extent) ** 2:
        raise SizeError(
            f"scale*diameter exceeds enumeration budget {max_extent}")
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


def lattice_main_term(area_unit, scale: int, d: int) -> float:
    """(6 / (pi^2 d^2)) * prod_{p|d}(1-p^-2)^-1 * area_unit * scale^2."""
    if d < 1:
        raise DomainError("d must be >= 1")
    coeff = Fraction(6, d * d) * squarefree_factor(d) * Fraction(area_unit)
    return float(coeff) * scale * scale / (math.pi ** 2)
