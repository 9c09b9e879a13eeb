"""Grouping same-kernel tiles into mosaics; names, trees, symmetry, tables.

Tiles of one kernel are grouped by seeded growth: every tile with a vertex
at (1, 1) seeds a mosaic, and remaining tiles attach through shared boundary
edges to a member of neighboring order (a mosaic's chains carry consecutive
orders; distinct mosaics of one kernel meet only across larger order jumps),
subject to exact interior-disjointness with everything already attached.
A tile attachable to more than one mosaic raises AmbiguityError (never
silently assigned); tiles attachable to none are reported as orphans
(usually a sign the enumeration bound was too small).  Growth order is
deterministic: lexicographic in k.  Distinct kernels are independent and
may be assembled in parallel.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

from ._intgeom import harea, hcross, interiors_intersect
from .errors import (AmbiguityError, DomainError, OrphanWarning,
                     PartnerMissing, ShapeError)
from .farey import ProgressionClass
from .geometry import (Outline, RatPoint, boxes_overlap, edge_forms,
                       line_key, line_positions, rational_str, union_outline)
from .tiles import Tile, enumerate_tiles

_NE_CORNER = (1, 1, 1)          # the point (1, 1) as a reduced triple


@dataclass(frozen=True)
class Mosaic:
    """A maximal union of interior-disjoint same-kernel tiles."""

    kernel: int
    tiles: tuple
    outline: Outline
    root: Tile
    name: str
    order_min: int
    order_max: int
    symmetric: bool

    @property
    def tile_count(self) -> int:
        return len(self.tiles)


@dataclass(frozen=True)
class AdjacencyTree:
    """Tile adjacency graph of a mosaic, rooted at the NE-corner tile."""

    nodes: tuple
    edges: tuple
    root: tuple

    @property
    def is_tree(self) -> bool:
        return len(self.edges) == len(self.nodes) - 1 and self.is_connected

    @property
    def is_connected(self) -> bool:
        if not self.nodes:
            return True
        adj = {k: set() for k in self.nodes}
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        seen = {self.nodes[0]}
        frontier = [self.nodes[0]]
        while frontier:
            cur = frontier.pop()
            for nxt in adj[cur]:
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return len(seen) == len(self.nodes)


def shared_edge_pairs(polys) -> set:
    """Indices (i, j) of polygons sharing a boundary segment of positive
    length, found by grouping edges on common lines."""
    by_line = {}
    for idx, poly in enumerate(polys):
        hs = poly.to_h()
        n = len(hs)
        for t, form in enumerate(edge_forms(poly)):
            by_line.setdefault(line_key(form), []).append(
                (hs[t], hs[(t + 1) % n], idx))
    out = set()
    for (_, b, _), edges in by_line.items():
        pos = line_positions(b, {p for u, v, _ in edges for p in (u, v)})
        entries = sorted((min(pos[u], pos[v]), max(pos[u], pos[v]), idx)
                         for u, v, idx in edges)
        for i in range(len(entries)):
            lo1, hi1, idx1 = entries[i]
            for j in range(i + 1, len(entries)):
                lo2, hi2, idx2 = entries[j]
                if lo2 >= hi1:
                    break
                if idx1 != idx2:
                    out.add((min(idx1, idx2), max(idx1, idx2)))
    return out


def _attach_candidates(idx, neighbours, tile_hs, boxes, mosaics_members,
                       member_sets):
    """Mosaic indices tile idx can join: edge-adjacent to a member of
    neighboring order (mosaic chains of consecutive orders abut; distinct
    mosaics meet across larger order jumps) and interior-disjoint from the
    whole mosaic."""
    cands = []
    near = neighbours[idx]
    box = boxes[idx]
    for mi, members in enumerate(mosaics_members):
        if near.isdisjoint(member_sets[mi]):
            continue
        ok = True
        for m in members:
            if boxes_overlap(box, boxes[m]) and \
                    interiors_intersect(tile_hs[idx], tile_hs[m]):
                ok = False
                break
        if ok:
            cands.append(mi)
    return cands


def assemble(tiles, kernel: int) -> list:
    """Group same-kernel tiles into mosaics by the seeded growth described
    above.  Orphans trigger an OrphanWarning."""
    mosaics, orphans = assemble_with_orphans(tiles, kernel)
    if orphans:
        warnings.warn(
            f"{len(orphans)} kernel-{kernel} tiles attach to no mosaic "
            f"(max_order too small?)", OrphanWarning, stacklevel=2)
    return mosaics


def assemble_with_orphans(tiles, kernel: int):
    tiles = sorted((t for t in tiles), key=lambda t: t.k)
    for t in tiles:
        if t.kernel != kernel:
            raise DomainError(f"tile {t.k} has kernel {t.kernel}, not {kernel}")
    if not tiles:
        return [], []
    polys = [t.poly for t in tiles]
    tile_hs = [p.to_h() for p in polys]
    boxes = [p.int_box() for p in polys]
    # each tile's edge-adjacent tiles of neighbouring order
    neighbours = [set() for _ in tiles]
    for i, j in shared_edge_pairs(polys):
        if abs(tiles[i].order - tiles[j].order) == 1:
            neighbours[i].add(j)
            neighbours[j].add(i)

    seed_idx = [i for i, hs in enumerate(tile_hs) if _NE_CORNER in hs]
    members = [[i] for i in seed_idx]
    member_sets = [{i} for i in seed_idx]

    unattached = [i for i in range(len(tiles)) if i not in set(seed_idx)]
    progress = True
    while progress and unattached:
        progress = False
        # evaluate candidates against the current state first, so a tile
        # reachable from two mosaics in the same round is visible as such
        cands = {i: _attach_candidates(i, neighbours, tile_hs, boxes,
                                       members, member_sets)
                 for i in unattached}
        ambiguous = [i for i, cs in cands.items() if len(cs) > 1]
        if ambiguous:
            i = ambiguous[0]
            raise AmbiguityError(
                f"tile {tiles[i].k} attachable to mosaics rooted at "
                f"{[tiles[members[m][0]].k for m in cands[i]]}",
                tile_k=tiles[i].k,
                candidates=[tiles[members[m][0]].k for m in cands[i]])
        for i in list(unattached):
            cs = _attach_candidates(i, neighbours, tile_hs, boxes, members,
                                    member_sets)
            if len(cs) == 1:
                members[cs[0]].append(i)
                member_sets[cs[0]].add(i)
                unattached.remove(i)
                progress = True

    out = []
    for group in members:
        group_tiles = tuple(sorted((tiles[i] for i in group),
                                   key=lambda t: t.k))
        root = next(t for t in group_tiles if _NE_CORNER in t.poly.to_h())
        outline = union_outline([t.poly for t in group_tiles])
        grp_orders = [t.order for t in group_tiles]
        poly_set = {t.poly for t in group_tiles}
        reflected = {t.poly.reflected() for t in group_tiles}
        symmetric = poly_set == reflected
        m = Mosaic(kernel, group_tiles, outline, root, "", min(grp_orders),
                   max(grp_orders), symmetric)
        try:
            name = mosaic_name(m)
        except ShapeError as exc:
            # truncated mosaics can show outlines outside the repertoire;
            # keep the raw vertex count visible instead of failing assembly
            arg = ",".join(str(v) for v in root.k) if root.k else "·"
            nv = exc.vertex_count if exc.vertex_count is not None else "?"
            prefix = "S" if symmetric else "N"
            name = f"{prefix}?{nv}_{root.order}[{arg}]"
        out.append(replace(m, name=name))
    out.sort(key=lambda m: (m.root.order, m.tile_count, m.root.k))
    return out, [tiles[i] for i in unattached]


_SHAPE_BY_COUNT = {3: "T", 4: "Q", 5: "P", 8: "O"}


def mosaic_name(m: Mosaic) -> str:
    """Name per the catalog convention: {S|N}{shape}_{order}[root k].

    S/N marks diagonal symmetry; shape letters are T/Q/P/H/O by outline
    vertex count.  Only hexagons are split by convexity: H when convex,
    HV for the concave V-shape.  (Octagons in the catalogs are concave.)
    """
    loops = m.outline.to_h()
    outers = _outer_loops(m.outline)
    if len(outers) != 1 or any(harea(lp) < 0 for lp in loops):
        raise ShapeError(
            f"mosaic outline is not a single simple polygon "
            f"({len(loops)} loops)")
    loop = outers[0]
    nv = len(loop)
    if nv == 6:
        shape = "H" if _loop_convex(loop) else "HV"
    elif nv in _SHAPE_BY_COUNT:
        shape = _SHAPE_BY_COUNT[nv]
    else:
        raise ShapeError(
            f"outline with {nv} vertices outside the naming repertoire",
            vertex_count=nv)
    prefix = "S" if m.symmetric else "N"
    arg = ",".join(str(v) for v in m.root.k) if m.root.k else "·"
    return f"{prefix}{shape}_{m.root.order}[{arg}]"


def _outer_loops(outline: Outline) -> list:
    """The counter-clockwise loops of an outline, as loops of triples."""
    return [lp for lp in outline.to_h() if harea(lp) > 0]


def _loop_convex(loop) -> bool:
    """Whether a loop of triples makes no right turn."""
    n = len(loop)
    return all(hcross(loop[i - 1], loop[i], loop[(i + 1) % n]) >= 0
               for i in range(n))


def vertices(m: Mosaic) -> list:
    """Outline vertices starting from (1, 1), counter-clockwise."""
    outers = _outer_loops(m.outline)
    if len(outers) != 1:
        raise ShapeError("mosaic outline is not a single loop")
    loop = outers[0]
    if _NE_CORNER not in loop:
        raise ShapeError("mosaic outline does not pass through (1,1)")
    i = loop.index(_NE_CORNER)
    return [RatPoint(Fraction(x, w), Fraction(y, w))
            for x, y, w in loop[i:] + loop[:i]]


def adjacency_tree(m: Mosaic) -> AdjacencyTree:
    """Adjacency graph on the mosaic's tiles (edges share a positive-length
    boundary segment), rooted at the NE-corner tile."""
    polys = [t.poly for t in m.tiles]
    pairs = shared_edge_pairs(polys)
    ks = [t.k for t in m.tiles]
    edges = tuple(sorted((min(ks[i], ks[j]), max(ks[i], ks[j]))
                         for (i, j) in pairs))
    return AdjacencyTree(tuple(ks), edges, m.root.k)


def symmetry_partner(m: Mosaic, universe) -> Mosaic:
    """m itself when symmetric, else the mosaic whose tile set is the
    diagonal reflection of m's (its root k is the reversal of m's)."""
    if m.symmetric:
        return m
    target = {t.poly.reflected() for t in m.tiles}
    for other in universe:
        if other.kernel != m.kernel:
            continue
        if {t.poly for t in other.tiles} == target:
            if other.root.k != tuple(reversed(m.root.k)):
                raise PartnerMissing(
                    f"reflection of {m.name} found but its root "
                    f"{other.root.k} is not the reversed tuple")
            return other
    raise PartnerMissing(f"no reflection partner for {m.name} "
                         f"within the enumeration bound")


@dataclass(frozen=True)
class TableRow:
    kernel: int
    name: Optional[str]
    count: int
    order_min: Optional[int]
    order_max: Optional[int]
    vertices: tuple
    truncated: bool = False
    root_k: tuple = ()

    def vertices_str(self) -> str:
        return "; ".join(f"({rational_str(p.x)},{rational_str(p.y)})"
                         for p in self.vertices)


def table(cls: ProgressionClass, kernels, max_order: int, *,
          budget: int = 10 ** 6, tiles=None) -> list:
    """Catalog rows (kernel, name, tile count, order range, vertices) for
    the requested kernels; placeholder rows mark kernels with no tiles.
    A mosaic still growing at max_order is flagged truncated."""
    kernels = sorted(set(int(k) for k in kernels))
    if not kernels:
        return []
    if tiles is None:
        tiles = enumerate_tiles(cls, max_order, kernel_cap=max(kernels),
                                budget=budget)
    rows = []
    for kern in kernels:
        group = [t for t in tiles if t.kernel == kern]
        if not group:
            rows.append(TableRow(kern, None, 0, None, None, ()))
            continue
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", OrphanWarning)
            mosaics, orphans = assemble_with_orphans(group, kern)
        for m in mosaics:
            rows.append(TableRow(
                kern, m.name, m.tile_count, m.order_min, m.order_max,
                tuple(vertices(m)),
                truncated=(m.order_max >= max_order or bool(orphans)),
                root_k=m.root.k))
    return rows
