"""The three workloads: inputs, one timed round, and output checks.

A round is a fixed list of operations, each one call into a public
function of ``fareymosaics``.  Functions are looked up on their module at
call time (``fm.density.compare``), so the traced run sees the rebound
names.  Every workload bins Farey pairs into a histogram and answers
``g1_eval`` point queries, which give the throughput and latency metrics;
the operations around them are what tell the workloads apart.
"""

from __future__ import annotations

import math
import random
import sys
from fractions import Fraction
from time import perf_counter

import oracles

FAILED = object()   # result of an operation that raised or could not run


class Ops:
    """Runs the operations of one round: times each, counts failures.

    An operation whose input came from a failed operation is not called
    and counts as failed too, so every round attempts the same number.
    """

    def __init__(self, error_type):
        self.error_type = error_type
        self.attempted = 0
        self.failed = 0
        self.times = {}

    def __call__(self, name, fn, *args, **kwargs):
        self.attempted += 1
        if any(a is FAILED for a in (*args, *kwargs.values())):
            self.failed += 1
            return FAILED
        t0 = perf_counter()
        try:
            out = fn(*args, **kwargs)
        except self.error_type as exc:
            self.failed += 1
            print(f"{name} failed: {exc!r}", file=sys.stderr)
            return FAILED
        self.times.setdefault(name, []).append(perf_counter() - t0)
        return out


def query_points(fm, seed, cls, max_order, grid):
    """Seeded rational points of the Farey triangle x + y > 1, one in each
    cell of a grid x grid partition of the unit square that lies on or
    above the diagonal and reaches above x + y = 1.  Each point is followed
    by its mirror image, so the queries cover the triangle evenly and
    their mix of easy and hard points does not depend on the seed."""
    rng = random.Random(seed)
    out = []
    for i in range(grid):
        for j in range(max(i, grid - 1 - i), grid):
            while True:
                q = rng.randint(100, 1000)
                x = Fraction(i * q + rng.randint(1, q - 1), grid * q)
                y = Fraction(j * q + rng.randint(1, q - 1), grid * q)
                if x + y > 1:
                    break
            out += [fm.DensityQuery((x, y), cls, max_order),
                    fm.DensityQuery((y, x), cls, max_order)]
    return out


# --- checks shared by the workloads ---------------------------------------

def check_histogram(hist, Q, c, d, B):
    bins = hist.bins
    if (hist.Q, len(bins)) != (Q, B):
        return [f"histogram ({c},{d}) Q={Q}: wrong shape"]
    problems = []
    want = oracles.farey_class_size(Q, c, d) - 1
    if hist.total != want or sum(map(sum, bins)) != want:
        problems.append(f"histogram ({c},{d}) Q={Q}: total {hist.total}, "
                        f"totient sieve gives {want}")
    if any(bins[i][j] != bins[j][i] for i in range(B) for j in range(i)):
        problems.append(f"histogram ({c},{d}) Q={Q}: bins not symmetric")
    return problems


def check_queries(queries, results):
    """g1 is symmetric under (x, y) -> (y, x); queries come in mirror pairs."""
    problems = []
    for i in range(0, len(queries), 2):
        a, b = results[i], results[i + 1]
        if a is FAILED or b is FAILED:
            continue
        (va, ka), (vb, kb) = a, b
        # vertex incidences add float angle terms in tile order
        same = va == vb if ka != "vertex" else \
            math.isclose(va, vb, rel_tol=1e-12)
        if ka != kb or not same or va < 0:
            problems.append(f"g1_eval at {queries[i].point}: {a} but {b} "
                            f"at the mirror point")
    return problems


def query_batches(queries, n):
    """n consecutive batches of whole mirror pairs.  Workloads run them
    between their other operations, so the latency samples are spread
    over the whole round rather than taken in one short window."""
    pairs = len(queries) // 2
    cuts = [2 * (pairs * i // n) for i in range(n + 1)]
    return [queries[a:b] for a, b in zip(cuts, cuts[1:])]


def run_queries(fm, op, queries, tiles):
    return [op("g1_eval", fm.density.g1_eval, q, tiles=tiles)
            for q in queries]


# --- catalog-d12 -----------------------------------------------------------

class CatalogD12:
    """Criterion 3 of the paper's catalog, d = 12, c = 3."""

    HIST_Q, BINS = 1500, 40
    QUERY_GRID = 8      # 20 points, 40 queries

    def __init__(self):
        self.region_area = {}   # k -> area of region(k); pure in k

    def setup(self, fm, seed):
        cls = fm.ProgressionClass(3, 12)
        return {"cls": cls,
                "queries": query_points(fm, seed, cls, 30, self.QUERY_GRID)}

    def run(self, fm, inp, op):
        cls, queries = inp["cls"], inp["queries"]

        def assemble(tiles, kern):
            group = tiles if tiles is FAILED else \
                [t for t in tiles if t.kernel == kern]
            return op("assemble_with_orphans",
                      fm.mosaics.assemble_with_orphans, group, kern)

        t30 = op("enumerate_tiles", fm.tiles.enumerate_tiles, cls, 30,
                 kernel_cap=27, budget=10 ** 7)
        batches = iter(query_batches(queries, 7))
        g1 = run_queries(fm, op, next(batches), t30)
        mosaics = {}
        for kern in (3, 9, 15, 21, 27):
            mosaics[kern] = assemble(t30, kern)
            g1 += run_queries(fm, op, next(batches), t30)
        t38 = op("enumerate_tiles", fm.tiles.enumerate_tiles, cls, 38, 27,
                 budget=2 * 10 ** 7)
        deep27 = assemble(t38, 27)
        g1 += run_queries(fm, op, next(batches), t30)
        hists = [op("empirical_histogram", fm.density.empirical_histogram,
                    self.HIST_Q, cls, self.BINS)]
        return {"mosaics": mosaics, "deep27": deep27, "hists": hists,
                "g1": g1}

    def check(self, fm, inp, out):
        problems = []
        published = {}
        for kern, name, count, omin, omax, verts in fm.catalog.D12_ROWS:
            published.setdefault(kern, {})[name] = \
                (count, omin, omax, oracles.parse_vertices(verts))
        assemblies = [*out["mosaics"].values(), out["deep27"]]
        got = {kern: {m.name: m for m in res[0]}
               for kern, res in out["mosaics"].items() if res is not FAILED}

        def compare_rows(kern, names, mosaics):
            for name in names:
                m = mosaics.get(name)
                if m is None:
                    problems.append(f"kernel {kern}: no mosaic {name}")
                    continue
                count, omin, omax, verts = published[kern][name]
                vs = [(p.x, p.y) for p in fm.mosaics.vertices(m)]
                if (m.tile_count, m.order_min, m.order_max, vs) != \
                        (count, omin, omax, verts):
                    problems.append(f"kernel {kern} {name}: "
                                    f"{m.tile_count} tiles, orders "
                                    f"{m.order_min}-{m.order_max}, {vs}")

        for kern in (9, 15, 21):
            if kern in got:
                if set(got[kern]) != set(published[kern]):
                    problems.append(f"kernel {kern}: mosaics "
                                    f"{sorted(got[kern])}")
                compare_rows(kern, published[kern], got[kern])
        if 27 in got:
            compare_rows(27, ["SQ_1[27]", "NQ_8[2,3,2,1,8,1,2,4]",
                              "NQ_8[4,2,1,8,1,2,3,2]"], got[27])
        if out["deep27"] is not FAILED:
            # the NQ_6 pair spans orders 6-37 and needs the max-order-38 run
            compare_rows(27, ["NQ_6[10,1,2,3,1,6]", "NQ_6[6,1,3,2,1,10]"],
                         {m.name: m for m in out["deep27"][0]})
        if 3 in got:
            # kernel 3 is infinite: each truncated mosaic lies in the
            # published limit outline of the mosaic with its root
            limits = {name: verts
                      for name, (_, _, _, verts) in published[3].items()}
            for m in got[3].values():
                root = ",".join(map(str, m.root.k))
                limit = next((v for name, v in limits.items()
                              if name.endswith(f"_{m.root.order}[{root}]")),
                             None)
                if limit is None or not all(
                        oracles.in_closed_convex(limit, (p.x, p.y))
                        for loop in m.outline.loops for p in loop):
                    problems.append(f"kernel 3 mosaic {m.name} leaves its "
                                    f"limit outline")
        for res in assemblies:
            if res is FAILED:
                continue
            for m in res[0]:
                tile_sum = sum(oracles.loop_area(t.poly.vertices)
                               for t in m.tiles)
                if sum(map(oracles.loop_area, m.outline.loops)) != tile_sum:
                    problems.append(f"{m.name}: outline area differs from "
                                    f"the sum of its tile areas")
                for t in m.tiles:
                    if t.k not in self.region_area:
                        self.region_area[t.k] = oracles.loop_area(
                            fm.tiles.region(t.k).poly.vertices)
                    if oracles.loop_area(t.poly.vertices) != \
                            t.kernel * self.region_area[t.k]:
                        problems.append(f"tile {t.k}: area is not kernel "
                                        f"times region area")
        for hist in out["hists"]:
            if hist is not FAILED:
                problems += check_histogram(hist, self.HIST_Q, 3, 12,
                                            self.BINS)
        problems += check_queries(inp["queries"], out["g1"])
        return problems


# --- compare-d5 ------------------------------------------------------------

class CompareD5:
    """Criterion 6: Q = 1500 histogram against the exact limit density."""

    Q, BINS, MAX_ORDER, CAP = 1500, 40, 14, 250
    QUERY_GRID = 8      # 20 points, 40 queries

    def setup(self, fm, seed):
        cls = fm.ProgressionClass(1, 5)
        return {"cls": cls, "queries": query_points(
            fm, seed, cls, self.MAX_ORDER, self.QUERY_GRID)}

    def run(self, fm, inp, op):
        cls, queries = inp["cls"], inp["queries"]
        hist = op("empirical_histogram", fm.density.empirical_histogram,
                  self.Q, cls, self.BINS)
        tiles = op("enumerate_tiles", fm.tiles.enumerate_tiles, cls,
                   self.MAX_ORDER, kernel_cap=self.CAP, budget=10 ** 7)
        before, after = query_batches(queries, 2)
        g1 = run_queries(fm, op, before, tiles)
        rep = op("compare", fm.density.compare, hist, cls, self.MAX_ORDER,
                 kernel_cap=self.CAP, tiles=tiles)
        g1 += run_queries(fm, op, after, tiles)
        return {"hists": [hist], "tiles": tiles, "report": rep, "g1": g1}

    def check(self, fm, inp, out):
        problems = []
        for hist in out["hists"]:
            if hist is not FAILED:
                problems += check_histogram(hist, self.Q, 1, 5, self.BINS)
        rep, tiles = out["report"], out["tiles"]
        if rep is not FAILED:
            pref = oracles.layer_prefactor(1, 5)
            mass = sum(pref * t.multiplicity / t.kernel
                       * oracles.loop_area(t.poly.vertices) for t in tiles)
            if rep.theoretical_mass != float(mass):
                problems.append(f"theoretical_mass {rep.theoretical_mass}, "
                                f"unclipped tile sum {float(mass)}")
            if not rep.l1_interior <= 0.08:
                problems.append(f"l1_interior {rep.l1_interior} > 0.08")
            if not rep.theoretical_mass >= 0.97:
                problems.append(f"theoretical_mass {rep.theoretical_mass} "
                                f"< 0.97")
            if rep.bins != self.BINS ** 2 or rep.full_bins < 1:
                problems.append(f"bin counts {rep.full_bins}/{rep.bins}")
        problems += check_queries(inp["queries"], out["g1"])
        return problems


# --- pairs-queries ---------------------------------------------------------

class PairsQueries:
    """Farey streaming, the integer support test and point queries; no
    mosaic assembly and no clipping."""

    Q, BINS = 3000, 40
    SUPPORT_Q = 2000
    QUERY_GRID = 19     # 100 points, 200 queries

    def setup(self, fm, seed):
        cls5, cls12 = fm.ProgressionClass(1, 5), fm.ProgressionClass(3, 12)
        tiles = fm.tiles.enumerate_tiles(cls5, 14, kernel_cap=250,
                                         budget=10 ** 7)
        hexagon = fm.ConvexPolygon(oracles.parse_vertices(
            next(v for (k, name, *_, v) in fm.catalog.D12_ROWS
                 if name == "SH_1[3]")))
        return {"cls5": cls5, "cls12": cls12, "tiles": tiles,
                "hexagon": hexagon,
                "queries": query_points(fm, seed, cls5, 14, self.QUERY_GRID)}

    def run(self, fm, inp, op):
        cls5, cls12, tiles = inp["cls5"], inp["cls12"], inp["tiles"]
        batches = iter(query_batches(inp["queries"], 5))
        g1 = run_queries(fm, op, next(batches), tiles)
        h5 = op("empirical_histogram", fm.density.empirical_histogram,
                self.Q, cls5, self.BINS)
        g1 += run_queries(fm, op, next(batches), tiles)
        s5 = op("support_membership", fm.density.support_membership,
                self.SUPPORT_Q, cls5, 14, tiles=tiles)
        g1 += run_queries(fm, op, next(batches), tiles)
        h12 = op("empirical_histogram", fm.density.empirical_histogram,
                 self.Q, cls12, self.BINS)
        g1 += run_queries(fm, op, next(batches), tiles)
        s12 = op("support_membership", fm.density.support_membership,
                 self.SUPPORT_Q, cls12, 20,
                 support_polygons=[inp["hexagon"]])
        g1 += run_queries(fm, op, next(batches), tiles)
        return {"hists": [h5, h12], "s5": s5, "s12": s12, "g1": g1}

    def check(self, fm, inp, out):
        problems = []
        for hist, (c, d) in zip(out["hists"], ((1, 5), (3, 12))):
            if hist is not FAILED:
                problems += check_histogram(hist, self.Q, c, d, self.BINS)
        for key in ("s5", "s12"):
            if out[key] is not FAILED and out[key] != []:
                problems.append(f"support_membership {key}: "
                                f"{len(out[key])} pairs outside the support")
        problems += check_queries(inp["queries"], out["g1"])
        return problems


WORKLOADS = {
    "catalog-d12": CatalogD12,
    "compare-d5": CompareD5,
    "pairs-queries": PairsQueries,
}
