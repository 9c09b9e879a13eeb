"""Limit density of consecutive-denominator pairs: theory and experiment.

The density layer carried by a tile is prefactor * multiplicity / kernel,
where the prefactor is 2*g / (d*phi(g)) with g = gcd(c, d).  Dividing the
lattice-count main term for one starting residue by the main term of
#F^Q(c,d) forces this constant, and it makes the total theoretical mass
converge to 1; the classical constant 2/phi(d) (which agrees exactly when
d divides c) stays available behind paper_constant=True for comparison.

Theoretical bin masses are integrated exactly, never by sampling, so
comparisons carry no Monte-Carlo noise: each tile is swept through the bin
columns and then each column through its rows by integer half-plane clips
on homogeneous vertices, and each piece's area is one exact Fraction.
Empirical histograms and support checks read the consecutive class-member
pairs from one denominator-only integer walk (farey.member_pairs) with O(1)
state beyond the grid; histograms walk only to 1/2 and add each pair's
mirror, since F^Q is symmetric about 1/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .continuants import (continuant, continuant_shifted, eval_linear,
                          index_sequence_real)
from .errors import DomainError
from .farey import ProgressionClass, TupleType, member_pairs
from ._intgeom import harea, hclip
# clip stays importable here: the benchmark's traced run rebinds density.clip
from .geometry import (Incidence, area, clip, edge_forms,  # noqa: F401
                       locate, point_h)
from .mosaics import assemble_with_orphans
from .progression import admissible_residues, euler_phi
from .tiles import Tile, enumerate_tiles, strip_polygon

DENSITY_KERNEL_CAP = 250


def layer_prefactor(cls: ProgressionClass, paper_constant: bool = False) -> Fraction:
    """2*g/(d*phi(g)) with g = gcd(c, d); or the classical 2/phi(d)."""
    if paper_constant:
        return Fraction(2, euler_phi(cls.d))
    g = math.gcd(cls.c, cls.d)
    return Fraction(2 * g, cls.d * euler_phi(g))


@dataclass(frozen=True)
class DensityQuery:
    point: tuple
    cls: ProgressionClass
    max_order: int

    def __post_init__(self):
        object.__setattr__(self, "point",
                           tuple(Fraction(v) for v in self.point))
        if any(not 0 <= v <= 1 for v in self.point):
            raise DomainError("query point must lie in the unit cube")
        if self.max_order < 0:
            raise DomainError("max_order must be >= 0")


@dataclass(frozen=True)
class DensityLayerWeight:
    """One tile's contribution descriptor: prefactor * multiplicity / kernel."""

    kernel: int
    multiplicity: int
    prefactor: Fraction

    @property
    def contribution(self) -> Fraction:
        return self.prefactor * self.multiplicity / self.kernel


def layer_weight(t: Tile, cls: ProgressionClass,
                 paper_constant: bool = False) -> DensityLayerWeight:
    """The constant density layer a tile lays over its polygon."""
    return DensityLayerWeight(t.kernel, t.multiplicity,
                              layer_prefactor(cls, paper_constant))


class PointClass:
    GENERIC = "generic"
    ON_EDGE = "edge"
    ON_VERTEX = "vertex"
    OUTSIDE = "outside"


def _tiles_for(cls: ProgressionClass, max_order: int, kernel_cap: int):
    """The tiles a call without tiles= works on, enumerated afresh; a caller
    that repeats calls on one enumeration passes it as tiles=."""
    return enumerate_tiles(cls, max_order, kernel_cap=kernel_cap,
                           budget=10 ** 7)


def _vertex_angle_fraction(directions) -> float:
    (ax, ay), (bx, by) = directions
    ang = math.atan2(float(by), float(bx)) - math.atan2(float(ay), float(ax))
    ang %= 2.0 * math.pi
    return ang / (2.0 * math.pi)


def g1_eval(query: DensityQuery, *, kernel_cap: int = DENSITY_KERNEL_CAP,
            paper_constant: bool = False, tiles=None):
    """Pair density at a point: sum of prefactor * |M_k| / kernel over the
    enumerated tiles covering it.

    A point on a tile edge takes half that tile's layer; on a tile vertex it
    takes the interior-angle fraction angle/(2*pi).  Returns (value,
    classification); the classification reports the most degenerate
    incidence met (vertex > edge > interior).  Points outside every tile
    give (0.0, outside).  At (1, 1) the partial sums grow without bound in
    max_order.

    The point is written once as an integer triple (X, Y, W); each tile's
    memoized integer bounding box rejects most tiles by integer
    cross-multiplication, and the rest are classified exactly by locate,
    whose sign tests run on the tile's memoized integer edge forms.
    """
    if len(query.point) != 2:
        raise DomainError("g1_eval evaluates pair densities (s = 1)")
    if tiles is None:
        tiles = _tiles_for(query.cls, query.max_order, kernel_cap)
    pref = layer_prefactor(query.cls, paper_constant)
    p = query.point
    X, Y, W = point_h(p)
    total = Fraction(0)
    angle_part = 0.0
    seen_vertex = False
    seen_edge = False
    seen_interior = False
    for t in tiles:
        if t.order > query.max_order:
            continue
        x0, dx0, y0, dy0, x1, dx1, y1, dy1 = t.poly.int_box()
        if not (x0 * W <= X * dx0 and X * dx1 <= x1 * W and
                y0 * W <= Y * dy0 and Y * dy1 <= y1 * W):
            continue
        loc = locate(t.poly, p)
        w = DensityLayerWeight(t.kernel, t.multiplicity, pref).contribution
        if loc.kind == Incidence.INTERIOR:
            total += w
            seen_interior = True
        elif loc.kind == Incidence.EDGE:
            total += w / 2
            seen_edge = True
        elif loc.kind == Incidence.VERTEX:
            angle_part += float(w) * _vertex_angle_fraction(loc.directions)
            seen_vertex = True
    value = float(total) + angle_part
    if seen_vertex:
        return value, PointClass.ON_VERTEX
    if seen_edge:
        return value, PointClass.ON_EDGE
    if seen_interior:
        return value, PointClass.GENERIC
    return 0.0, PointClass.OUTSIDE


def gs_first_term(query: DensityQuery, r: TupleType, k, *,
                  paper_constant: bool = False) -> float:
    """Leading density term of one (k, r) configuration at the query point:
    prefactor * |M_{k,r}| * area(strip_polygon(k, r, point)) / 4 when the
    core generator lies strictly inside T_k (in the half-open floor sense),
    0 otherwise.  Boundary and vertex corrections are out of scope for
    s >= 2."""
    r = tuple(int(v) for v in r)
    k = tuple(int(v) for v in k)
    if len(k) != sum(r) - 1:
        raise DomainError(f"order {len(k)} does not fit pattern {r}")
    if len(query.point) != len(r) + 1:
        raise DomainError("query point dimension must be s+1")
    res = admissible_residues(k, r, query.cls)
    if not res.residues:
        return 0.0
    x0 = query.point
    # core: the unique point with x = x0[0] on the first selected strip's
    # center line (chain position r_1 - 1)
    j = r[0] - 1
    pj = continuant(k, j)
    ppj = continuant_shifted(k, 2, j - 1)
    core_x = x0[0]
    core_y = (x0[1] + ppj * core_x) / pj
    # every later strip's center line must pass through the same core,
    # else the query point is off the configuration's surface
    acc = r[0]
    for i in range(1, len(r)):
        acc += r[i]
        if eval_linear(k, acc - 1, core_x, core_y) != x0[i + 1]:
            return 0.0
    # strict membership in the half-open region: the floor recurrence of
    # the core must reproduce k itself
    try:
        kk, _ = index_sequence_real(core_x, core_y, len(k))
    except DomainError:
        return 0.0
    if kk != tuple(k):
        return 0.0
    sp = strip_polygon(k, r, x0)
    pref = layer_prefactor(query.cls, paper_constant)
    return float(pref * res.multiplicity * area(sp.poly) / 4)


@dataclass
class EmpiricalHistogram:
    """B x B grid of scaled consecutive-pair counts over [0, 1]^2."""

    Q: int
    cls: ProgressionClass
    bins: list
    total: int

    @property
    def B(self) -> int:
        return len(self.bins)

    def to_json(self):
        return {"q": self.Q, "c": self.cls.c, "d": self.cls.d,
                "bins": self.bins, "total": self.total}

    @staticmethod
    def from_json(obj) -> "EmpiricalHistogram":
        return EmpiricalHistogram(obj["q"], ProgressionClass(obj["c"], obj["d"]),
                                  obj["bins"], obj["total"])


def empirical_histogram(Q: int, cls: ProgressionClass, B: int) -> EmpiricalHistogram:
    """Bin (q0/Q, q1/Q) for all consecutive pairs of F^Q(c,d).

    Only the pairs up to 1/2 are walked (member_pairs with to_half): each
    stands for itself in bins[i][j] and for its mirror pair (q1, q0) right
    of 1/2 in bins[j][i].  When 1/2 is not a member, the last pair walked,
    (q, q), straddles 1/2 and is its own mirror, so it counts once.
    """
    if Q < cls.d:
        raise DomainError("Q must be >= d")
    if B < 1:
        raise DomainError("B must be >= 1")
    col = [min(q * B // Q, B - 1) for q in range(Q + 1)]
    left = [[0] * B for _ in range(B)]      # counts of the pairs walked
    row = [left[i] for i in col]
    for q0, q1 in member_pairs(Q, cls, to_half=True):
        row[q0][col[q1]] += 1
    bins = [[a + b for a, b in zip(r, c)] for r, c in zip(left, zip(*left))]
    total = 2 * sum(map(sum, left))
    if 2 % cls.d != cls.c % cls.d:
        # Q >= d puts a member before 1/2, so the straddling pair exists
        i = col[q0]
        bins[i][i] -= 1
        total -= 1
    return EmpiricalHistogram(Q, cls, bins, total)


@dataclass(frozen=True)
class CompareReport:
    l1_interior: float
    max_ratio_deviation: float
    theoretical_mass: float
    full_bins: int
    bins: int

    def to_json(self):
        return {"l1_interior": self.l1_interior,
                "max_ratio_deviation": self.max_ratio_deviation,
                "theoretical_mass": self.theoretical_mass,
                "full_bins": self.full_bins, "bins": self.bins}


def _bin_pieces(poly, B):
    """(i, j, piece) for every piece of positive area that a B x B grid of
    bins over [0, 1]^2 cuts from a convex polygon; each piece is a list of
    homogeneous integer vertices.

    The bin columns come from the polygon's integer box by floor division.
    The polygon's homogeneous vertices are swept through the columns, each
    clip splitting off one column strip and keeping the rest for the next;
    each column is swept through its rows likewise.  Every clip is an
    integer hclip.
    """
    x0, dx0, _, _, x1, dx1, _, _ = poly.int_box()
    i0 = max(0, x0 * B // dx0)
    i1 = min(B - 1, (x1 * B - 1) // dx1)
    rest = hclip(poly.to_h(), -B, 0, -i0)           # x >= i0/B
    for i in range(i0, i1 + 1):
        col = hclip(rest, B, 0, i + 1)              # x <= (i+1)/B
        if i < i1:
            rest = hclip(rest, -B, 0, -(i + 1))     # x >= (i+1)/B
        if not col:
            continue
        j0 = max(0, min(y * B // w for (_, y, w) in col))
        j1 = min(B - 1, max((y * B - 1) // w for (_, y, w) in col))
        cell = hclip(col, 0, -B, -j0)               # y >= j0/B
        for j in range(j0, j1 + 1):
            piece = hclip(cell, 0, B, j + 1)        # y <= (j+1)/B
            if j < j1:
                cell = hclip(cell, 0, -B, -(j + 1))  # y >= (j+1)/B
            if piece:
                yield i, j, piece


def compare(hist: EmpiricalHistogram, cls: ProgressionClass, max_order: int,
            *, kernel_cap: int = DENSITY_KERNEL_CAP,
            paper_constant: bool = False, tiles=None) -> CompareReport:
    """Empirical histogram against exactly integrated theoretical masses.

    Each kernel's tiles are assembled into mosaics once; then every tile is
    cut into its pieces in the bins it overlaps by one integer sweep
    through the bin columns and, within each column, through its rows
    (_bin_pieces).  A piece's exact area (one harea Fraction), weighted by
    the tile's layer, adds to the bin's theoretical mass, and unweighted it
    adds to its mosaic's coverage of the bin.  Masses are normalized by the
    captured mass.  The L1 distance runs over bins fully inside the support
    (covered completely by at least one mosaic layer), so the reported gap
    reflects truncation and finite-Q effects only.
    """
    if tiles is None:
        tiles = _tiles_for(cls, max_order, kernel_cap)
    B = hist.B
    pref = layer_prefactor(cls, paper_constant)
    theo = [[Fraction(0)] * B for _ in range(B)]
    full = [[False] * B for _ in range(B)]
    bin_area = Fraction(1, B * B)

    def integrate(group):
        """Add the group's pieces to theo; return its coverage per bin."""
        cov = {}
        for t in group:
            w = pref * t.multiplicity / t.kernel
            for i, j, piece in _bin_pieces(t.poly, B):
                a = harea(piece)
                theo[i][j] += w * a
                cov[(i, j)] = cov.get((i, j), 0) + a
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
        integrate(orphans)      # mass only: an orphan is in no mosaic

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


def support_membership(Q: int, cls: ProgressionClass, max_order: int, *,
                       kernel_cap: int = DENSITY_KERNEL_CAP,
                       tiles=None, support_polygons=None,
                       grid: int = 64) -> list:
    """Scaled consecutive pairs (q0, q1) outside the closed support, each
    as (q0, q1, distance): the float distance from (q0/Q, q1/Q) to the
    nearest vertex of a support polygon.

    The default support is the closed union of all enumerated tiles, which
    is exact for classes whose mosaics are finite within max_order.  When a
    mosaic is infinite (so any truncation leaves notches at its accumulation
    corners), pass support_polygons: the known limit outlines (convex
    polygons) to test against instead.

    The pairs come from member_pairs walked to 1/1.  Each is tested, by
    integer signs, against the polygons whose boxes meet its grid cell,
    largest polygon first.
    """
    if support_polygons is None:
        if tiles is None:
            tiles = _tiles_for(cls, max_order, kernel_cap)
        support_polygons = [t.poly for t in
                            sorted(tiles, key=lambda t: -harea(t.poly.to_h()))]

    def cell(num, den):
        return max(0, min(grid - 1, num * grid // den))

    # grid index over [0,1]^2 so each point probes few polygons; (q0, q1)
    # is in a polygon at scale Q iff a*q0 + b*q1 <= c*Q for every edge form
    # (a, b, c), and each cell lists those forms with c*Q precomputed
    cells = [[[] for _ in range(grid)] for _ in range(grid)]
    for poly in support_polygons:
        hps = [(a, b, c * Q) for (a, b, c) in edge_forms(poly)]
        x0, dx0, y0, dy0, x1, dx1, y1, dy1 = poly.int_box()
        i0, i1 = cell(x0, dx0), cell(x1, dx1)
        j0, j1 = cell(y0, dy0), cell(y1, dy1)
        for i in range(i0, i1 + 1):
            for j in range(j0, j1 + 1):
                cells[i][j].append(hps)
    col = [cell(q, Q) for q in range(Q + 1)]
    row = [cells[i] for i in col]
    violations = []
    for q0, q1 in member_pairs(Q, cls):
        for hps in row[q0][col[q1]]:
            for a, b, cQ in hps:
                if a * q0 + b * q1 > cQ:
                    break           # outside this polygon
            else:
                break               # inside this polygon
        else:                       # inside none
            violations.append(
                (q0, q1, _distance_to_vertices(q0, q1, Q, support_polygons)))
    return violations


def _distance_to_vertices(q0, q1, Q, polygons) -> float:
    px, py = q0 / Q, q1 / Q
    best = float("inf")
    for poly in polygons:
        for x, y, w in poly.to_h():
            dx = px - x / w
            dy = py - y / w
            dd = math.hypot(dx, dy)
            if dd < best:
                best = dd
    return best
