"""Command-line front end.

Commands: farey list|tuples, kseq, mosaic enumerate|table|render|tree,
density eval|empirical|compare, verify cardinality|lattice|tables.
Structured output is UTF-8 JSON/Markdown/SVG/DOT written to --out or stdout.
Exit codes: 0 success, 2 validation failure, 3 budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
import warnings
from fractions import Fraction

from . import catalog
from .continuants import index_sequence_int
from .density import (DENSITY_KERNEL_CAP, DensityQuery, EmpiricalHistogram,
                      compare, empirical_histogram, g1_eval,
                      support_membership)
from .errors import BudgetError, FareyMosaicsError, OrphanWarning
from .farey import (ProgressionClass, consecutive_tuples, farey_filtered,
                    farey_stream)
from .geometry import ConvexPolygon, area, parse_rational, point_from_json
from .mosaics import adjacency_tree, assemble_with_orphans, table
from .progression import (_diameter, exact_cardinality,
                          lattice_count_exact, lattice_main_term,
                          predicted_cardinality)
from .render import RenderSpec, emit_table, render_mosaic, render_tree
from .tiles import DEFAULT_BUDGET, enumerate_tiles

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_BUDGET = 3


def _write(args, text: str):
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cls(args) -> ProgressionClass:
    return ProgressionClass(args.c, args.d)


def _parse_kernels(spec: str):
    out = []
    for part in spec.split(","):
        part = part.strip()
        if ".." in part:
            lo, hi = part.split("..")
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(part))
    return sorted(set(out))


def cmd_farey_list(args) -> int:
    if args.c is not None:
        stream = farey_filtered(args.q, _cls(args))
    else:
        stream = farey_stream(args.q)
    if args.format == "json":
        _write(args, json.dumps([str(f) for f in stream]) + "\n")
    else:
        _write(args, "".join(f"{f}\n" for f in stream))
    return EXIT_OK


def cmd_farey_tuples(args) -> int:
    rows = [{"q": list(qs), "r": list(r)}
            for qs, r in consecutive_tuples(args.q, _cls(args), args.s)]
    if args.format == "json":
        _write(args, json.dumps(rows) + "\n")
    else:
        _write(args, "".join(
            f"{','.join(map(str, row['q']))};{','.join(map(str, row['r']))}\n"
            for row in rows))
    return EXIT_OK


def cmd_kseq(args) -> int:
    qp, qpp = (int(v) for v in args.pair.split(","))
    k, chain = index_sequence_int(qp, qpp, args.q, args.n)
    _write(args, json.dumps({
        "q": args.q, "pair": [qp, qpp], "k": list(k),
        "successors": list(chain.successors),
    }) + "\n")
    return EXIT_OK


def cmd_mosaic_enumerate(args) -> int:
    tiles = enumerate_tiles(_cls(args), args.max_order, args.kernel,
                            kernel_cap=args.kernel_cap, budget=args.budget)
    _write(args, json.dumps([t.to_json() for t in tiles], indent=1) + "\n")
    return EXIT_OK


def cmd_mosaic_table(args) -> int:
    kernels = _parse_kernels(args.kernels)
    rows = table(_cls(args), kernels, args.max_order, budget=args.budget)
    _write(args, emit_table(rows, args.format, max_order=args.max_order))
    return EXIT_OK


def _assembled(args, kernel):
    tiles = enumerate_tiles(_cls(args), args.max_order, kernel,
                            budget=args.budget)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", OrphanWarning)
        mosaics, _ = assemble_with_orphans(tiles, kernel)
    return mosaics


def cmd_mosaic_render(args) -> int:
    mosaics = _assembled(args, args.kernel)
    if args.root:
        root = tuple(int(v) for v in args.root.split(","))
        mosaics = [m for m in mosaics if m.root.k == root]
    spec = RenderSpec(width=args.width, height=args.height, labels=args.labels)
    _write(args, render_mosaic(mosaics, spec))
    return EXIT_OK


def cmd_mosaic_tree(args) -> int:
    mosaics = _assembled(args, args.kernel)
    root = tuple(int(v) for v in args.root.split(",")) if args.root else None
    for m in mosaics:
        if root is None or m.root.k == root:
            _write(args, render_tree(adjacency_tree(m), name=m.name))
            return EXIT_OK
    print(f"no mosaic with root {root}", file=sys.stderr)
    return EXIT_VALIDATION


def cmd_density_eval(args) -> int:
    q = DensityQuery((parse_rational(args.x), parse_rational(args.y)),
                     _cls(args), args.max_order)
    value, kind = g1_eval(q, kernel_cap=args.kernel_cap,
                          paper_constant=args.classical_prefactor)
    _write(args, json.dumps({"value": value, "classification": kind}) + "\n")
    return EXIT_OK


def cmd_density_empirical(args) -> int:
    hist = empirical_histogram(args.q, _cls(args), args.bins)
    _write(args, json.dumps(hist.to_json()) + "\n")
    return EXIT_OK


def cmd_density_compare(args) -> int:
    with open(args.hist, encoding="utf-8") as fh:
        hist = EmpiricalHistogram.from_json(json.load(fh))
    rep = compare(hist, hist.cls, args.max_order, kernel_cap=args.kernel_cap,
                  paper_constant=args.classical_prefactor)
    _write(args, json.dumps(rep.to_json(), indent=1) + "\n")
    return EXIT_OK


def cmd_verify_cardinality(args) -> int:
    cls = _cls(args)
    exact = exact_cardinality(args.q, cls)
    main = predicted_cardinality(args.q, cls)
    rel = abs(exact - main) / main if main else float("inf")
    _write(args, json.dumps({"exact": exact, "main_term": main,
                             "relative_error": rel}) + "\n")
    if args.tolerance is not None and rel > args.tolerance:
        return EXIT_VALIDATION
    return EXIT_OK


def _random_convex_polygon(rng, nmax=8):
    # convex hull of a few random rational points in the unit square
    pts = {(Fraction(rng.randint(0, 1000), 1000),
            Fraction(rng.randint(0, 1000), 1000))
           for _ in range(rng.randint(3, nmax))}
    pts = sorted(pts)
    if len(pts) < 3:
        return None

    def half_hull(points):
        hull = []
        for p in points:
            while len(hull) >= 2:
                (x1, y1), (x2, y2) = hull[-2], hull[-1]
                if (x2 - x1) * (p[1] - y2) - (y2 - y1) * (p[0] - x2) <= 0:
                    hull.pop()
                else:
                    break
            hull.append(p)
        return hull

    lower = half_hull(pts)
    upper = half_hull(list(reversed(pts)))
    verts = lower[:-1] + upper[:-1]
    if len(verts) < 3:
        return None
    return ConvexPolygon(verts)


def cmd_verify_lattice(args) -> int:
    if args.poly:
        with open(args.poly, encoding="utf-8") as fh:
            poly = ConvexPolygon([point_from_json(p) for p in json.load(fh)])
        cases = [(poly, args.scale, args.a, args.b, args.d)]
    else:
        rng = random.Random(args.seed)
        cases = []
        while len(cases) < args.random:
            poly = _random_convex_polygon(rng)
            if poly is None:
                continue
            d = rng.randint(1, 6)
            a = rng.randint(0, d - 1)
            b = rng.randint(0, d - 1)
            if math.gcd(a, b, d) != 1:
                continue
            diam = math.hypot(*map(float, _diameter(poly)))
            hi = max(31, int(args.r_max / max(diam, 1e-9)))
            scale = rng.randint(30, hi)
            cases.append((poly, scale, a, b, d))
    worst = 0.0
    results = []
    ok = True
    for poly, scale, a, b, d in cases:
        exact = lattice_count_exact(poly, scale, a, b, d,
                                    max_extent=args.r_max + 1)
        main = lattice_main_term(area(poly), scale, d)
        r = max(scale * math.hypot(*map(float, _diameter(poly))), 2.0)
        bound = 3.0 * r * math.log(r)
        err = abs(exact - main)
        results.append({"scale": scale, "a": a, "b": b, "d": d,
                        "exact": exact, "main_term": main, "error": err,
                        "bound": bound})
        worst = max(worst, err / bound)
        if err > bound:
            ok = False
    _write(args, json.dumps({"cases": results, "worst_ratio": worst,
                             "all_within_bound": ok}, indent=1) + "\n")
    return EXIT_OK if ok else EXIT_VALIDATION


def cmd_verify_tables(args) -> int:
    cls = _cls(args)
    requested = _parse_kernels(args.kernels)
    expected = catalog.rows_for(args.d, requested)
    kernels = sorted(set(r[0] for r in expected))
    stacked = {k: v for k, v in getattr(
        catalog, "D12_STACKED_KERNELS", {}).items()
        if args.d == 12 and k in requested}
    rows = table(cls, kernels, args.max_order,
                 budget=args.budget) if kernels else []
    produced = {r.name: r for r in rows if r.name is not None}
    by_root = {r.root_k: r for r in rows if r.name is not None}
    failures = []
    for kern, name, count, omin, omax, verts in expected:
        if count is None:
            # unbounded mosaic: its truncation carries a fallback name, so
            # match by root tuple and require growth up to the bound
            arg = name[name.index("[") + 1:-1]
            root = tuple(int(v) for v in arg.split(",")) if arg != "·" \
                else ()
            got = by_root.get(root)
            if got is None:
                failures.append(f"missing mosaic rooted at {root}")
            elif not got.truncated:
                failures.append(f"{name}: expected unbounded growth")
            else:
                produced.pop(got.name, None)
            continue
        got = produced.pop(name, None)
        if got is None:
            failures.append(f"missing mosaic {name}")
            continue
        want_verts = catalog.parse_vertices(verts)
        if got.count != count or got.order_min != omin or got.order_max != omax:
            failures.append(
                f"{name}: got {got.count} tiles orders "
                f"{got.order_min}-{got.order_max}, want {count} {omin}-{omax}")
        if list(got.vertices) != want_verts:
            failures.append(f"{name}: vertex mismatch: {got.vertices_str()}")
    if args.d == 5:
        for kern in catalog.D5_ABSENT_KERNELS:
            if any(r.kernel == kern and r.name for r in rows):
                failures.append(f"kernel {kern} should carry no mosaic")
    extras = [n for n in produced]
    if extras:
        failures.append(f"unexpected mosaics: {extras}")
    # stacked kernels: the per-mosaic split is ambiguous, so the check is
    # the kernel-level aggregate (total tile count and order range)
    for kern, (total, omin, omax, need, _rows) in sorted(stacked.items()):
        if args.max_order < need:
            failures.append(
                f"kernel {kern} needs max_order >= {need}, got "
                f"{args.max_order}")
            continue
        tiles = enumerate_tiles(cls, args.max_order, kern,
                                budget=args.budget)
        got = (len(tiles), min(t.order for t in tiles),
               max(t.order for t in tiles))
        if got != (total, omin, omax):
            failures.append(
                f"kernel {kern} aggregate: got {got}, want "
                f"{(total, omin, omax)}")
    report = {"checked": len(expected) + len(stacked),
              "failures": failures}
    _write(args, json.dumps(report, indent=1) + "\n")
    return EXIT_OK if not failures else EXIT_VALIDATION


def cmd_support(args) -> int:
    polys = None
    if args.support == "hexagon-d12":
        polys = [ConvexPolygon(catalog.parse_vertices(catalog.D12_ROWS[0][5]))]
    violations = support_membership(args.q, _cls(args), args.max_order,
                                    kernel_cap=args.kernel_cap,
                                    support_polygons=polys)
    _write(args, json.dumps({"violations":
                             [[q0, q1, dist] for q0, q1, dist in violations]})
           + "\n")
    return EXIT_OK if not violations else EXIT_VALIDATION


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="fareymos",
        description="Exact mosaics and limit densities of Farey fractions "
                    "with denominators in arithmetic progression.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, c_required=True):
        sp.add_argument("--c", type=int, required=c_required)
        sp.add_argument("--d", type=int, required=c_required)
        sp.add_argument("--out", default=None)

    farey = sub.add_parser("farey").add_subparsers(dest="sub", required=True)
    fl = farey.add_parser("list")
    fl.add_argument("--q", type=int, required=True)
    fl.add_argument("--c", type=int, default=None)
    fl.add_argument("--d", type=int, default=None)
    fl.add_argument("--format", choices=("json", "csv"), default="csv")
    fl.add_argument("--out", default=None)
    fl.set_defaults(func=cmd_farey_list)
    ft = farey.add_parser("tuples")
    ft.add_argument("--q", type=int, required=True)
    common(ft)
    ft.add_argument("--s", type=int, default=1)
    ft.add_argument("--format", choices=("json", "csv"), default="json")
    ft.set_defaults(func=cmd_farey_tuples)

    kq = sub.add_parser("kseq")
    kq.add_argument("--q", type=int, required=True)
    kq.add_argument("--pair", required=True, help="q',q''")
    kq.add_argument("--n", type=int, required=True)
    kq.add_argument("--out", default=None)
    kq.set_defaults(func=cmd_kseq)

    mosaic = sub.add_parser("mosaic").add_subparsers(dest="sub", required=True)
    me = mosaic.add_parser("enumerate")
    common(me)
    me.add_argument("--kernel", type=int, default=None)
    me.add_argument("--kernel-cap", type=int, default=None)
    me.add_argument("--max-order", type=int, required=True)
    me.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    me.set_defaults(func=cmd_mosaic_enumerate)
    mt = mosaic.add_parser("table")
    common(mt)
    mt.add_argument("--kernels", required=True, help="e.g. 1..9 or 3,9,15")
    mt.add_argument("--max-order", type=int, required=True)
    mt.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    mt.add_argument("--format", choices=("json", "md"), default="md")
    mt.set_defaults(func=cmd_mosaic_table)
    mr = mosaic.add_parser("render")
    common(mr)
    mr.add_argument("--kernel", type=int, required=True)
    mr.add_argument("--root", default=None, help="root tuple, e.g. 2,2,3")
    mr.add_argument("--max-order", type=int, required=True)
    mr.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    mr.add_argument("--width", type=int, default=720)
    mr.add_argument("--height", type=int, default=720)
    mr.add_argument("--labels", action="store_true")
    mr.set_defaults(func=cmd_mosaic_render)
    mtr = mosaic.add_parser("tree")
    common(mtr)
    mtr.add_argument("--kernel", type=int, required=True)
    mtr.add_argument("--root", default=None)
    mtr.add_argument("--max-order", type=int, required=True)
    mtr.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    mtr.add_argument("--format", choices=("dot",), default="dot")
    mtr.set_defaults(func=cmd_mosaic_tree)

    density = sub.add_parser("density").add_subparsers(dest="sub",
                                                       required=True)
    de = density.add_parser("eval")
    common(de)
    de.add_argument("--x", required=True)
    de.add_argument("--y", required=True)
    de.add_argument("--max-order", type=int, required=True)
    de.add_argument("--kernel-cap", type=int, default=DENSITY_KERNEL_CAP)
    de.add_argument("--classical-prefactor", action="store_true")
    de.set_defaults(func=cmd_density_eval)
    dm = density.add_parser("empirical")
    dm.add_argument("--q", type=int, required=True)
    common(dm)
    dm.add_argument("--bins", type=int, required=True)
    dm.set_defaults(func=cmd_density_empirical)
    dc = density.add_parser("compare")
    dc.add_argument("--hist", required=True)
    dc.add_argument("--max-order", type=int, required=True)
    dc.add_argument("--kernel-cap", type=int, default=DENSITY_KERNEL_CAP)
    dc.add_argument("--classical-prefactor", action="store_true")
    dc.add_argument("--out", default=None)
    dc.set_defaults(func=cmd_density_compare)
    ds = density.add_parser("support")
    ds.add_argument("--q", type=int, required=True)
    common(ds)
    ds.add_argument("--max-order", type=int, required=True)
    ds.add_argument("--kernel-cap", type=int, default=DENSITY_KERNEL_CAP)
    ds.add_argument("--support", choices=("tiles", "hexagon-d12"),
                    default="tiles")
    ds.set_defaults(func=cmd_support)

    verify = sub.add_parser("verify").add_subparsers(dest="sub",
                                                     required=True)
    vc = verify.add_parser("cardinality")
    vc.add_argument("--q", type=int, required=True)
    common(vc)
    vc.add_argument("--tolerance", type=float, default=None)
    vc.set_defaults(func=cmd_verify_cardinality)
    vl = verify.add_parser("lattice")
    vl.add_argument("--poly", default=None, help="JSON vertex array file")
    vl.add_argument("--scale", type=int, default=100)
    vl.add_argument("--a", type=int, default=0)
    vl.add_argument("--b", type=int, default=0)
    vl.add_argument("--d", type=int, default=1)
    vl.add_argument("--random", type=int, default=0,
                    help="number of random polygons instead of --poly")
    vl.add_argument("--r-max", type=int, default=2000)
    vl.add_argument("--seed", type=int, default=0)
    vl.add_argument("--out", default=None)
    vl.set_defaults(func=cmd_verify_lattice)
    vt = verify.add_parser("tables")
    common(vt)
    vt.add_argument("--kernels", required=True)
    vt.add_argument("--max-order", type=int, required=True)
    vt.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    vt.set_defaults(func=cmd_verify_tables)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except FareyMosaicsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
