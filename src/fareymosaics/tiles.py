"""Regions T_k, their tile images, strip polygons, and tile enumeration.

A region is the closure of the set of generator points whose index sequence
starts with k; it is cut from the Farey triangle by two half-planes per
index, the value constraint x_j <= 1 and the pair-sum constraint
x_{j-1} + x_j >= 1 (both closed: boundaries carry no area).  One integer
cut step (_cut) carves a child region from its parent; region() and the
enumeration share it.  A tile is the image of a region under the choice
map (x, y) -> (x, x_n), whose determinant is the kernel p_n(k), so
area(tile) = kernel * area(region) exactly.

Enumeration walks the refinement tree of regions depth-first with three
prunes: subtrees with no live starting residue, zero-area regions, and
branches whose minimal reachable kernel within the remaining depth exceeds
the requested kernel bound (successive kernels satisfy
p_{j+1} >= p_j - p_{j-1} ... with maximal descent rate p_j per step, the
all-(1,2,2,...) corridor).  Enumeration is always bounded by an explicit
max_order and a node budget; there is no implicit infinite iteration.
The walk is in pre-order with children in increasing next index, so tiles
come out sorted by k as they are built.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from ._intgeom import hclip, hreduce
from .continuants import (IndexTuple, continuant, continuant_shifted,
                          validate_index_tuple)
from .errors import BudgetError, DomainError
from .farey import ProgressionClass, TupleType
from .geometry import ConvexPolygon, HalfPlane, RatPoint, affine_image, clip
from .progression import AdmissibleResidues, admissible_residues

# Closure of the Farey triangle {(x, y) in (0,1]^2 : x + y > 1}.
FAREY_TRIANGLE = ConvexPolygon([(0, 1), (1, 0), (1, 1)])

DEFAULT_BUDGET = 10 ** 6
DEFAULT_KERNEL_CAP = 64


@dataclass(frozen=True)
class Region:
    """Closure of T_k."""

    k: IndexTuple
    poly: ConvexPolygon

    @property
    def order(self) -> int:
        return len(self.k)


@dataclass(frozen=True, slots=True)
class Tile:
    """Image of a region under the choice map, with its modular data."""

    k: IndexTuple
    pattern: TupleType
    poly: ConvexPolygon
    kernel: int
    residues: AdmissibleResidues

    @property
    def order(self) -> int:
        return len(self.k)

    @property
    def multiplicity(self) -> int:
        return self.residues.multiplicity

    def to_json(self):
        return {
            "k": list(self.k),
            "pattern": list(self.pattern),
            "kernel": self.kernel,
            "residues": self.residues.sorted(),
            "vertices": self.poly.to_json(),
        }


@dataclass(frozen=True)
class StripPolygon:
    """Intersection of the s+1 unit strips anchored at a point."""

    k: IndexTuple
    pattern: TupleType
    anchor: tuple
    poly: ConvexPolygon


def _cut(hpoly, lp, lc, kj):
    """One refinement step: the part of region hpoly whose next index is kj.

    lp and lc are the integer forms (a, b), meaning a*x + b*y, of the last
    two chain values x_{n-1}, x_n; the recurrence x_{n+1} = kj*x_n - x_{n-1}
    gives the new form ln.  Returns (child, ln); child is [] when the cut
    x_{n+1} <= 1, x_n + x_{n+1} >= 1 leaves no area.
    """
    ln = (kj * lc[0] - lp[0], kj * lc[1] - lp[1])
    child = hclip(hpoly, ln[0], ln[1], 1)
    if child:
        child = hclip(child, -(ln[0] + lc[0]), -(ln[1] + lc[1]), -1)
    return child, ln


def region(k: IndexTuple) -> Region:
    """Closure of {(x, y) in T : index sequence = k}; empty if infeasible."""
    k = validate_index_tuple(k)
    poly, lp, lc = FAREY_TRIANGLE.to_h(), (1, 0), (0, 1)  # x_{-1}=x, x_0=y
    for kj in k:
        poly, ln = _cut(poly, lp, lc, kj)
        if not poly:
            break
        lp, lc = lc, ln
    return Region(k, ConvexPolygon.from_h(poly))


def tile(k: IndexTuple, pattern: TupleType, cls: ProgressionClass) -> Optional[Tile]:
    """Tile for (k, pattern, class); None when the region has zero area or
    no starting residue is admissible.  Materialized for s = 1 only."""
    k = validate_index_tuple(k)
    pattern = tuple(int(v) for v in pattern)
    if len(pattern) != 1:
        raise DomainError("tiles are materialized as polygons for s=1 only")
    if len(k) != sum(pattern) - 1:
        raise DomainError(f"order {len(k)} does not fit pattern {pattern}")
    reg = region(k)
    if reg.poly.is_empty:
        return None
    res = admissible_residues(k, pattern, cls)
    if not res.residues:
        return None
    n = len(k)
    P = continuant(k, n)
    Pp = continuant_shifted(k, 2, n - 1)
    return Tile(k, pattern, affine_image(reg.poly, P, Pp), P, res)


def strip_polygon(k: IndexTuple, pattern: TupleType, anchor) -> StripPolygon:
    """Polygon cut by the s+1 strips |form_i - anchor_i| < 1 (eta = 1),
    unclipped by the triangle; form_0 = x and form_i is the linear form of
    the chain value at position -1 + r_1 + ... + r_i."""
    k = validate_index_tuple(k)
    pattern = tuple(int(v) for v in pattern)
    if not pattern or any(v < 1 for v in pattern):
        raise DomainError(f"pattern entries must be >= 1, got {pattern}")
    if len(k) != sum(pattern) - 1:
        raise DomainError(f"order {len(k)} does not fit pattern {pattern}")
    anchor = tuple(Fraction(v) for v in anchor)
    if len(anchor) != len(pattern) + 1:
        raise DomainError("anchor must have s+1 coordinates")
    forms = [(1, 0)]
    pos = -1
    for ri in pattern:
        pos += ri
        a = -continuant_shifted(k, 2, pos - 1)
        b = continuant(k, pos)
        forms.append((a, b))
    # The first two strips bound a parallelogram; start from it and clip
    # with the remaining strips.  Its corners, taken counter-clockwise in
    # (s0, s1), keep that orientation when the map's determinant
    # p_{r_1 - 1} is positive, and reverse it when it is negative.
    (a0, b0), (a1, b1) = forms[0], forms[1]
    det = Fraction(a0 * b1 - a1 * b0)
    corners = []
    for s0, s1 in ((-1, -1), (1, -1), (1, 1), (-1, 1)):
        # solve a0 x + b0 y = anchor0 + s0, a1 x + b1 y = anchor1 + s1
        c0, c1 = anchor[0] + s0, anchor[1] + s1
        corners.append(((c0 * b1 - c1 * b0) / det, (a0 * c1 - a1 * c0) / det))
    if det < 0:
        corners.reverse()
    poly = ConvexPolygon(corners)
    for (a, b), ci in zip(forms[2:], anchor[2:]):
        poly = clip(poly, HalfPlane(a, b, ci + 1))
        poly = clip(poly, HalfPlane(-a, -b, -(ci - 1)))
        if poly.is_empty:
            break
    return StripPolygon(k, pattern, anchor, poly)


def core_point(k: IndexTuple, pattern: TupleType, target) -> RatPoint:
    """Preimage of the target under the choice map (s = 1): the point
    (t_0, (p_{n-1}(k_2..k_n)*t_0 + t_1) / p_n(k))."""
    k = validate_index_tuple(k)
    pattern = tuple(int(v) for v in pattern)
    if len(pattern) != 1:
        raise DomainError("core points are defined for s=1")
    if len(k) != pattern[0] - 1:
        raise DomainError(f"order {len(k)} does not fit pattern {pattern}")
    t0, t1 = Fraction(target[0]), Fraction(target[1])
    n = len(k)
    p = continuant(k, n)
    pp = continuant_shifted(k, 2, n - 1)
    return RatPoint(t0, (pp * t0 + t1) / p)


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

def enumerate_tiles(cls: ProgressionClass, max_order: int,
                    kernel_filter: Optional[int] = None, *,
                    kernel_cap: Optional[int] = None,
                    budget: int = DEFAULT_BUDGET,
                    prune_slack: int = 3) -> list:
    """All admissible tiles of order <= max_order, sorted by k.

    With kernel_filter, only tiles of that kernel are returned; otherwise
    every kernel up to kernel_cap (default 64) is returned.  Either bound
    also drives the branch prune: per order, index entries are unbounded
    near the triangle's cusp corners, so a kernel bound is what makes the
    walk finite.  Raises BudgetError past the node budget.
    """
    if max_order < 0:
        raise DomainError("max_order must be >= 0")
    if kernel_filter is not None and kernel_filter < 1:
        raise DomainError("kernel_filter must be >= 1")
    if kernel_filter is not None:
        k_bound = kernel_filter
    else:
        k_bound = kernel_cap if kernel_cap is not None else DEFAULT_KERNEL_CAP
    c, d = cls.c % cls.d, cls.d
    from math import gcd

    live0 = []
    root_m = []
    for e in range(d):
        if gcd(gcd(c, e), d) != 1:
            continue
        if e == c:
            root_m.append(e)
        else:
            live0.append((e, c, e))

    # Neighbouring tiles meet at vertices, residue sets repeat, and all
    # tiles of one order have one pattern; equal ones are built once and
    # shared, which keeps a large enumeration far smaller in memory.
    out = []
    points = {}
    residue_sets = {}
    patterns = {}

    def emit(k, m, hpoly, ln):
        kern, shift = ln[1], ln[0]
        verts = []
        # the image under (x, y) -> (x, kern*y + shift*x), as affine_image
        for (x, y, w) in hpoly:
            h = hreduce((x, kern * y + shift * x, w))
            verts.append(points.setdefault(h, h))
        n = len(k)
        pattern = patterns.get(n)
        if pattern is None:
            pattern = patterns[n] = (n + 1,)
        res = AdmissibleResidues(k, pattern, cls,
                                 residue_sets.setdefault(m, frozenset(m)))
        out.append(Tile(k, pattern, ConvexPolygon.from_h(verts), kern, res))

    triangle = FAREY_TRIANGLE.to_h()
    if root_m and (kernel_filter is None or kernel_filter == 1):
        emit((), tuple(root_m), triangle, (0, 1))

    # Depth-first in pre-order, children in increasing next index, so tiles
    # come out sorted by k and each is built when its node is popped.  A
    # node is (k, region, L_{n-1}, L_n, live residues or None when it is
    # not descended into, admissible residues or None when it emits no
    # tile).
    nodes = 1
    stack = []
    if live0 and max_order >= 1:
        stack.append(((), triangle, (1, 0), (0, 1), tuple(live0), None))

    while stack:
        k, poly, lp, lc, live, m = stack.pop()
        if m is not None:
            emit(k, m, poly, lc)
        if live is None:
            continue
        n = len(k)
        # feasible next-index range over the region closure: the ratio
        # (1 + x_{n-1}) / x_n is extremal at vertices
        lo = None
        hi = None
        unbounded = False
        for (x, y, w) in poly:
            num = w + lp[0] * x + lp[1] * y
            den = lc[0] * x + lc[1] * y
            if den == 0:
                unbounded = True
                continue
            t = num // den
            lo = t if lo is None else min(lo, t)
            hi = t if hi is None else max(hi, t)
        if lo is None:
            continue
        pn = lc[1]
        pn_1 = lp[1]
        remaining = max_order - n - 1
        cap = (k_bound + pn_1) // pn + remaining + prune_slack
        hi = cap if unbounded else min(hi, cap)
        lo = max(lo, 1)
        children = []
        for kj in range(lo, hi + 1):
            m_here = []
            live2 = []
            for (e, tp, tc) in live:
                tn = (kj * tc - tp) % d
                if tn == c:
                    m_here.append(e)
                else:
                    live2.append((e, tc, tn))
            descend = bool(live2) and n + 1 < max_order
            if not m_here and not descend:
                continue
            child, ln = _cut(poly, lp, lc, kj)
            if not child:
                continue
            nodes += 1
            if nodes > budget:
                raise BudgetError(
                    f"enumeration exceeded {budget} nodes", nodes=nodes)
            kk = k + (kj,)
            emitted = None
            if m_here:
                kern = ln[1]
                if kern < 1:
                    raise DomainError(
                        f"nonpositive kernel {kern} on realizable tuple {kk}")
                if (kernel_filter == kern) or \
                        (kernel_filter is None and kern <= k_bound):
                    emitted = tuple(m_here)
            if emitted is not None or descend:
                children.append((kk, child, lc, ln,
                                 tuple(live2) if descend else None, emitted))
        stack.extend(reversed(children))
    return out
