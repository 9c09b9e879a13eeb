"""SVG, DOT, JSON and Markdown emitters for mosaics, trees, and tables.

All geometry upstream is exact; conversion to decimal happens only here, at
a fixed precision of 10 digits, so identical inputs always produce identical
output bytes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .mosaics import AdjacencyTree, Mosaic, TableRow

DEFAULT_PALETTE = (
    "#4e79a7", "#f28e2b", "#e15759", "#76b7b2", "#59a14f",
    "#edc948", "#b07aa1", "#ff9da7", "#9c755f", "#bab0ac",
)


@dataclass(frozen=True)
class RenderSpec:
    width: int = 720
    height: int = 720
    palette: tuple = DEFAULT_PALETTE
    labels: bool = False
    background: str = "white"
    color_key: str = "by-order"

    def __post_init__(self):
        if not self.palette:
            raise ValueError("palette must be non-empty")


def _fmt(x) -> str:
    return f"{float(x):.10f}"


def _path(hs, sx, sy) -> str:
    """SVG path data of a closed loop of vertex triples (X, Y, W).  X / W is
    the correctly rounded float of X/W, as float(Fraction(X, W)) is."""
    return " ".join(("M" if i == 0 else "L") + f"{sx(x / w)},{sy(y / w)}"
                    for i, (x, y, w) in enumerate(hs)) + " Z"


def render_mosaic(mosaics, spec: RenderSpec = RenderSpec()) -> str:
    """SVG for one mosaic or a list of them: the unit square fills the
    viewport with y pointing up, one path per tile colored by order, the
    union outline stroked on top.  Output bytes are deterministic."""
    if isinstance(mosaics, Mosaic):
        mosaics = [mosaics]
    w, h = spec.width, spec.height
    margin = 8

    def sx(x):
        return _fmt(margin + float(x) * (w - 2 * margin))

    def sy(y):
        return _fmt(margin + (1.0 - float(y)) * (h - 2 * margin))

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">',
        f'  <rect width="{w}" height="{h}" fill="{spec.background}"/>',
    ]
    # frame of the unit square
    lines.append(
        f'  <rect x="{_fmt(margin)}" y="{_fmt(margin)}" '
        f'width="{_fmt(w - 2 * margin)}" height="{_fmt(h - 2 * margin)}" '
        f'fill="none" stroke="#888" stroke-width="0.5"/>')
    for m in mosaics:
        base = m.order_min
        for t in m.tiles:
            color = spec.palette[(t.order - base) % len(spec.palette)]
            lines.append(f'  <path d="{_path(t.poly.to_h(), sx, sy)}" '
                         f'fill="{color}" stroke="#333" stroke-width="0.4"/>')
        for loop in m.outline.to_h():
            lines.append(f'  <path d="{_path(loop, sx, sy)}" fill="none" '
                         f'stroke="#000" stroke-width="1.2"/>')
        if spec.labels:
            for t in m.tiles:
                verts = t.poly.vertices
                cx = sum(p.x for p in verts) / len(verts)
                cy = sum(p.y for p in verts) / len(verts)
                label = " ".join(str(v) for v in t.k) if t.k else "·"
                lines.append(
                    f'  <text x="{sx(cx)}" y="{sy(cy)}" font-size="8" '
                    f'text-anchor="middle">{label}</text>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def render_tree(tree: AdjacencyTree, name: str = "mosaic") -> str:
    """DOT document for a mosaic's adjacency tree; nodes are labeled by the
    space-joined entries of k, the root appears first, ordering is
    deterministic (breadth-first, children sorted)."""
    def label(k):
        return " ".join(str(v) for v in k) if k else "·"

    adj = {k: [] for k in tree.nodes}
    for u, v in tree.edges:
        adj[u].append(v)
        adj[v].append(u)
    for k in adj:
        adj[k].sort(key=lambda t: (len(t), t))
    order = [tree.root]
    seen = {tree.root}
    for cur in order:             # breadth-first: order grows as it is read
        for nxt in adj[cur]:
            if nxt not in seen:
                seen.add(nxt)
                order.append(nxt)
    # disconnected safety: emit everything
    order += [k for k in tree.nodes if k not in seen]
    lines = [f'graph "{name}" {{', '  node [shape=box];']
    for k in order:
        lines.append(f'  "{label(k)}";')
    emitted = set()
    for k in order:
        for nxt in adj[k]:
            key = (min(k, nxt), max(k, nxt))
            if key not in emitted:
                emitted.add(key)
                lines.append(f'  "{label(k)}" -- "{label(nxt)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _row_count_str(row: TableRow, max_order=None) -> str:
    if row.name is None:
        return "-"
    if row.truncated:
        suffix = f"(truncated at {max_order})" if max_order is not None else \
            "(truncated)"
        return f"∞{suffix}"
    return str(row.count)


def emit_table(rows, format: str = "md", max_order=None) -> str:
    """Markdown or JSON rendering of catalog rows: Kernel | Name | tiles |
    orders | vertices, with exact p/q vertex coordinates."""
    if format == "json":
        out = []
        for r in rows:
            out.append({
                "kernel": r.kernel,
                "name": r.name,
                "tiles": None if r.name is None else r.count,
                "truncated": r.truncated,
                "order_min": r.order_min,
                "order_max": r.order_max,
                "vertices": [p.to_json() for p in r.vertices],
            })
        return json.dumps(out, indent=2) + "\n"
    if format != "md":
        raise ValueError(f"unknown table format {format!r}")
    lines = ["| Kernel | Name | Tiles | Orders | Vertices |",
             "|---|---|---|---|---|"]
    for r in rows:
        if r.name is None:
            lines.append(f"| {r.kernel} | - | - | - | - |")
            continue
        orders = f"{r.order_min}-{r.order_max}"
        if r.truncated:
            orders = f"{r.order_min}-∞"
        lines.append(f"| {r.kernel} | {r.name} | "
                     f"{_row_count_str(r, max_order)} | {orders} | "
                     f"{r.vertices_str()} |")
    return "\n".join(lines) + "\n"
