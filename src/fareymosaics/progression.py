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
from .geometry import ConvexPolygon, edge_forms


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


def euler_phi(n: int) -> int:
    if n < 1:
        raise DomainError(f"phi needs n >= 1, got {n}")
    result = n
    for p in _prime_factors(n):
        result -= result // p
    return result


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
        # chain positions 0 .. |r|-1 are at trace[1:]
        if all((trace[j + 1] == c) == (j in selected) for j in range(total)):
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


def _diameter(poly: ConvexPolygon) -> tuple:
    """(dx, dy), exact, between the two vertices farthest apart (the first
    such pair in vertex order); (0, 0) for the empty polygon."""
    hs = poly.to_h()
    best, out = -1, (Fraction(0), Fraction(0))
    for i, (x1, y1, w1) in enumerate(hs):
        for x2, y2, w2 in hs[i + 1:]:
            w = w1 * w2
            dx, dy = x1 * w2 - x2 * w1, y1 * w2 - y2 * w1
            d2 = Fraction(dx * dx + dy * dy, w * w)
            if d2 > best:
                best, out = d2, (Fraction(dx, w), Fraction(dy, w))
    return out


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
    dx, dy = _diameter(poly)
    if scale * scale * (dx * dx + dy * dy) > Fraction(max_extent) ** 2:
        raise SizeError(
            f"scale*diameter exceeds enumeration budget {max_extent}")
    # (m, n) lies in scale*poly iff fa*m + fb*n <= fc*scale for every edge
    # form (fa, fb, fc); an open edge's form (ca, cb, cc) asks for
    # ca*m + cb*n < cc*scale
    forms = [(fa, fb, fc * scale) for fa, fb, fc in edge_forms(poly)]
    strict = [(ca, cb, cc * scale)
              for ca, cb, cc in (hp.int_coeffs() for hp in open_edges)]
    a %= d
    b %= d
    x0, dx0, _, _, x1, dx1, _, _ = poly.int_box()
    m_lo = max(1, -(-x0 * scale // dx0))
    count = 0
    for m in range(m_lo + (a - m_lo) % d, x1 * scale // dx1 + 1, d):
        # the section x = m, exact: fb*n <= fc - fa*m for every form
        n_lo, n_hi = 1, math.inf
        for fa, fb, fc in forms:
            r = fc - fa * m
            if fb > 0:
                n_hi = min(n_hi, r // fb)
            elif fb < 0:
                n_lo = max(n_lo, -(r // -fb))
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
