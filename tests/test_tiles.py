import random
from fractions import Fraction as F

import pytest
from oracles import (first_return_tuples, halfplane_intersection,
                     strip_polygon_clip, tile_list_digest)

from fareymosaics._intgeom import interiors_intersect
from fareymosaics.continuants import continuant, index_sequence_real
from fareymosaics.errors import BudgetError
from fareymosaics.farey import ProgressionClass
from fareymosaics.geometry import ConvexPolygon, RatPoint, area
from fareymosaics.tiles import (FAREY_TRIANGLE, core_point, enumerate_tiles,
                                region, strip_polygon, tile)

CLS15 = ProgressionClass(1, 5)


class TestRegion:
    def test_empty_tuple_is_farey_triangle(self):
        assert region(()).poly == ConvexPolygon([(0, 1), (1, 0), (1, 1)])

    def test_k1(self):
        assert region((1,)).poly == \
            ConvexPolygon([(0, 1), (F(1, 3), F(2, 3)), (1, 1)])

    def test_k3_against_halfplane_oracle(self):
        got = region((3,)).poly
        oracle = halfplane_intersection([
            (0, 1, 1), (1, 0, 1), (-1, -1, -1),     # closure of T
            (-1, 3, 1),                             # 3y - x <= 1
            (1, -4, -1),                            # 4y - x >= 1
        ])
        assert got == ConvexPolygon(oracle)
        assert got == ConvexPolygon([(F(1, 2), F(1, 2)), (F(3, 5), F(2, 5)),
                                     (1, F(1, 2)), (1, F(2, 3))])

    def test_infeasible_is_empty(self):
        assert region((1, 1)).poly.is_empty

    def test_enumerated_regions_against_halfplane_oracle(self):
        # closure of T, then per index x_j <= 1 and x_{j-1} + x_j >= 1 with
        # forms from x_j = k_j x_{j-1} - x_{j-2}, x_{-1} = x, x_0 = y
        for t in enumerate_tiles(CLS15, 6, kernel_cap=12):
            cons = [(0, 1, 1), (1, 0, 1), (-1, -1, -1)]
            lp, lc = (1, 0), (0, 1)
            for kj in t.k:
                ln = (kj * lc[0] - lp[0], kj * lc[1] - lp[1])
                cons += [(ln[0], ln[1], 1),
                         (-ln[0] - lc[0], -ln[1] - lc[1], -1)]
                lp, lc = lc, ln
            assert region(t.k).poly == \
                ConvexPolygon(halfplane_intersection(cons)), t.k

    def test_refinement(self):
        rng = random.Random(3)
        tiles = enumerate_tiles(CLS15, 8, kernel_cap=12)
        some = [t for t in tiles if t.order >= 1]
        rng.shuffle(some)
        for t in some[:40]:
            parent = region(t.k[:-1]).poly
            child = region(t.k).poly
            # containment: every child vertex inside the closed parent
            from fareymosaics.geometry import Incidence, locate
            for v in child.vertices:
                assert locate(parent, v).kind != Incidence.OUTSIDE

    def test_interior_soundness(self):
        rng = random.Random(5)
        tiles = enumerate_tiles(CLS15, 10, kernel_cap=15)
        rng.shuffle(tiles)
        for t in tiles[:50]:
            verts = region(t.k).poly.vertices
            for _ in range(6):
                # random interior convex combination with positive weights
                ws = [rng.randint(1, 9) for _ in verts]
                tot = sum(ws)
                x = sum(w * v.x for w, v in zip(ws, verts)) / tot
                y = sum(w * v.y for w, v in zip(ws, verts)) / tot
                k, _ = index_sequence_real(x, y, t.order)
                assert k == t.k


class TestTile:
    def test_k3_tile(self):
        t = tile((3,), (2,), CLS15)
        assert t.kernel == 3
        assert t.poly == ConvexPolygon([(F(1, 2), 1), (F(3, 5), F(3, 5)),
                                        (1, F(1, 2)), (1, 1)])
        assert t.residues.sorted() == [4]

    def test_identity_tile(self):
        t = tile((), (1,), CLS15)
        assert t.poly == FAREY_TRIANGLE
        assert t.kernel == 1

    def test_inadmissible_is_none(self):
        assert tile((), (1,), ProgressionClass(0, 2)) is None

    def test_empty_region_is_none(self):
        assert tile((1, 1), (3,), CLS15) is None

    def test_area_law(self):
        tiles = enumerate_tiles(CLS15, 9, kernel_cap=12)
        for t in tiles:
            assert area(t.poly) == t.kernel * area(region(t.k).poly)


class TestStripPolygon:
    def test_s1_area_law_example(self):
        sp = strip_polygon((3,), (2,), (F(1, 2), F(1, 2)))
        assert area(sp.poly) == F(4, 3)

    def test_unit_coefficient_strips(self):
        sp = strip_polygon((), (1,), (F(1, 2), F(1, 2)))
        assert area(sp.poly) == 4

    def test_s1_area_law_family(self):
        # area = 4 / p_{r_1 - 1}(k) exactly, independent of the anchor
        rng = random.Random(7)
        for order in range(0, 7):
            for _ in range(6):
                k = tuple(rng.randint(1, 5) for _ in range(order))
                p = continuant(k, order)
                if p <= 0:
                    continue
                anchor = (F(rng.randint(0, 8), 8), F(rng.randint(0, 8), 8))
                sp = strip_polygon(k, (order + 1,), anchor)
                assert area(sp.poly) == F(4, p)

    def test_s2_against_halfplane_oracle(self):
        k, pattern = (1, 5, 1), (2, 2)
        anchor = (F(1, 2), F(1, 2), F(1, 2))
        sp = strip_polygon(k, pattern, anchor)
        # forms: x, x_1 = y - x, x_3 = 3y - 4x; strips of half-width 1
        constraints = [
            (1, 0, anchor[0] + 1), (-1, 0, -(anchor[0] - 1)),
            (-1, 1, anchor[1] + 1), (1, -1, -(anchor[1] - 1)),
            (-4, 3, anchor[2] + 1), (4, -3, -(anchor[2] - 1)),
        ]
        oracle = ConvexPolygon(halfplane_intersection(constraints))
        assert sp.poly == oracle
        assert area(sp.poly) == area(oracle)

    def test_worked_example_strips(self):
        k = (1, 5, 1, 4, 1, 3, 2, 2, 2)
        sp = strip_polygon(k, (4, 6), (F(16, 25), F(11, 25), F(21, 25)))
        assert not sp.poly.is_empty
        assert area(sp.poly) > 0


    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_matches_halfplane_clip_oracle(self, s):
        rng = random.Random(40 + s)
        nonempty = 0
        for _ in range(150):
            pattern = tuple(rng.randint(1, 3) for _ in range(s))
            k = tuple(rng.randint(1, 5) for _ in range(sum(pattern) - 1))
            anchor = [F(rng.randint(0, 12), rng.choice((1, 3, 4, 12)))
                      for _ in range(s + 1)]
            if rng.random() < 0.5:
                # near the chain values of one point, so that every strip
                # meets the others: x, then x_j at j = r_1 - 1, ...
                x, y = F(rng.randint(1, 12), 12), F(rng.randint(1, 12), 12)
                js = [sum(pattern[:i + 1]) - 1 for i in range(s)]
                anchor = [x] + [continuant(k, j) * y -
                                continuant(k[1:], j - 1) * x for j in js]
                anchor = [v + F(rng.randint(-5, 5), 12) for v in anchor]
            if continuant(k, pattern[0] - 1) == 0:
                # a degenerate parallelogram fails alike in both
                for build in (strip_polygon, strip_polygon_clip):
                    with pytest.raises(ZeroDivisionError):
                        build(k, pattern, anchor)
                continue
            sp = strip_polygon(k, pattern, anchor)
            assert sp == strip_polygon_clip(k, pattern, anchor)
            nonempty += not sp.poly.is_empty
        assert nonempty >= 50


class TestCorePoint:
    def test_identity_map(self):
        assert core_point((), (1,), (F(1, 3), F(2, 3))) == \
            RatPoint.of(F(1, 3), F(2, 3))

    def test_k3_formula(self):
        assert core_point((3,), (2,), (1, 1)) == RatPoint.of(1, F(2, 3))

    def test_roundtrip_through_choice_map(self):
        from fareymosaics.continuants import eval_linear
        rng = random.Random(11)
        done = 0
        while done < 100:
            order = rng.randint(0, 6)
            k = tuple(rng.randint(1, 5) for _ in range(order))
            if continuant(k, order) < 1:
                continue
            target = (F(rng.randint(1, 16), 16), F(rng.randint(1, 16), 16))
            core = core_point(k, (order + 1,), target)
            assert core.x == target[0]
            assert eval_linear(k, order, core.x, core.y) == target[1]
            done += 1


class TestEnumerate:
    def test_kernel3_seven_tiles(self):
        tiles = enumerate_tiles(CLS15, 5, 3)
        assert len(tiles) == 7
        assert sorted(set(t.order for t in tiles)) == [1, 2, 3, 4, 5]

    def test_kernel1_catalog(self):
        tiles = enumerate_tiles(CLS15, 9, 1)
        assert len(tiles) == 21
        assert min(t.order for t in tiles) == 0
        assert max(t.order for t in tiles) == 9

    def test_kernel2_absent(self):
        assert enumerate_tiles(CLS15, 12, 2) == []

    def test_sorted_by_k(self):
        tiles = enumerate_tiles(CLS15, 7, kernel_cap=9)
        ks = [t.k for t in tiles]
        assert ks == sorted(ks)

    def test_budget_error(self):
        with pytest.raises(BudgetError):
            enumerate_tiles(CLS15, 12, kernel_cap=9, budget=20)

    def test_prune_slack_insensitive(self):
        for (c, d, N, cap) in [(1, 5, 8, 6), (0, 2, 8, 5), (3, 12, 9, 9),
                               (1, 3, 9, 7)]:
            cls = ProgressionClass(c, d)
            a = enumerate_tiles(cls, N, kernel_cap=cap, prune_slack=3)
            b = enumerate_tiles(cls, N, kernel_cap=cap, prune_slack=40,
                                budget=10 ** 7)
            assert [t.k for t in a] == [t.k for t in b]

    def test_matches_single_tile_builder(self):
        # each enumerated tile equals the one tile() builds on its own from
        # region(k), affine_image and admissible_residues; equal vertices
        # and residue sets are shared as one object
        for (c, d, N, cap) in [(1, 5, 10, 30), (3, 12, 12, 15),
                               (2, 7, 9, 20)]:
            cls = ProgressionClass(c, d)
            tiles = enumerate_tiles(cls, N, kernel_cap=cap)
            assert tiles
            for t in tiles:
                assert tile(t.k, t.pattern, cls) == t
            verts = [v for t in tiles for v in t.poly.to_h()]
            assert len({id(v) for v in verts}) == len(set(verts))
            sets = [t.residues.residues for t in tiles]
            assert len({id(r) for r in sets}) == len(set(sets))

    def test_multiplicity_carried(self):
        tiles = enumerate_tiles(CLS15, 5, 5)
        root = next(t for t in tiles if t.k == (2, 2, 2, 2))
        assert root.multiplicity == 4

    def test_against_bruteforce_first_returns(self):
        # ground truth from raw chains at Q=900: every realized tuple with a
        # positive-area region is enumerated with the same residues, and
        # every enumerated tile is realized
        cls = ProgressionClass(1, 5)
        tiles = enumerate_tiles(cls, 12, kernel_cap=9)
        enum = {t.k: set(t.residues.residues) for t in tiles}
        realized = {k: es for k, es in first_return_tuples(900, 1, 5).items()
                    if len(k) <= 12 and continuant(k, len(k)) <= 9}
        for k, es in realized.items():
            reg = region(k)
            if reg.poly.is_empty or area(reg.poly) == 0:
                continue            # boundary-only tuples carry no area
            assert k in enum, f"missing realized tile {k}"
            assert es <= enum[k]
        for k in enum:
            assert k in realized, f"unrealized enumerated tile {k}"

    def test_partition_per_residue(self):
        # for a fixed starting residue e, regions of tiles admissible for e
        # are pairwise interior-disjoint and their areas sum below 1/2,
        # approaching it as the order bound grows
        tiles14 = enumerate_tiles(CLS15, 14, kernel_cap=120)
        for e in (0, 2, 3):
            mine = [t for t in tiles14 if e in t.residues.residues]
            regs = [region(t.k).poly for t in mine]
            hs = [r.to_h() for r in regs]
            boxes = [r.bbox() for r in regs]
            for i in range(len(mine)):
                x0, y0, x1, y1 = boxes[i]
                for j in range(i + 1, len(mine)):
                    a0, b0, a1, b1 = boxes[j]
                    if a0 >= x1 or x0 >= a1 or b0 >= y1 or y0 >= b1:
                        continue
                    assert not interiors_intersect(hs[i], hs[j]), \
                        (mine[i].k, mine[j].k)
            total = sum(area(r) for r in regs)
            assert total <= F(1, 2)
            assert total > F(9, 20)
            shallow = sum(area(r) for t, r in zip(mine, regs) if t.order <= 8)
            assert shallow <= total


class TestLeanTileList:
    """enumerate_tiles output is built from slotted records and shares
    every repeated value, and it is the same list as before it was."""

    def test_records_have_no_instance_dict(self):
        tiles = enumerate_tiles(CLS15, 8, kernel_cap=20)
        assert tiles
        for t in tiles + [tile((3,), (2,), CLS15)]:
            assert not hasattr(t, "__dict__")
            assert not hasattr(t.residues, "__dict__")

    def test_one_pattern_per_order(self):
        tiles = enumerate_tiles(CLS15, 12, kernel_cap=60)
        pattern = {}
        for t in tiles:
            assert pattern.setdefault(t.order, t.pattern) is t.pattern
            assert t.residues.pattern is t.pattern
        assert len(pattern) >= 10

    def test_equal_vertices_are_one_triple(self):
        # polygons store reduced integer triples; equal vertices of
        # neighbouring tiles are one tuple object
        for cls in (CLS15, ProgressionClass(3, 12)):
            tiles = enumerate_tiles(cls, 12, kernel_cap=30)
            verts = [v for t in tiles for v in t.poly.to_h()]
            assert len({id(v) for v in verts}) == len(set(verts))
            assert all(isinstance(n, int) for v in verts for n in v)

    # digests of the enumerations as they were before the tile list was
    # slimmed, over (k, pattern, vertices, kernel, residues) of every tile
    @pytest.mark.parametrize("c, d, max_order, kernel_filter, cap, n, digest", [
        (1, 5, 14, None, 250, 4418, "232ee0836bc75aa4763a10d97041c271"
                                    "38c858c30fa3b4c8ca1977e66543e782"),
        (3, 12, 30, None, 27, 3643, "ae4040709a3e10edac8661cc1de2db33"
                                    "174696f33c5fdaca59c6b47eacc5b07d"),
        (3, 12, 38, 27, None, 348, "429e29e1763dc898256863a203cd6cc3"
                                   "95444d579f87d3b16a9d65bf65ba5ac9"),
        (2, 7, 14, None, 60, 3787, "1777cb57b662dce87f4b3e6c170b305e"
                                   "e1a45f8a637c824806380611065b87f4"),
        (1, 2, 16, None, 120, 121, "156672703bea49da0f17af1a5d52d730"
                                   "1c82a49f487586e99ffc51806162c7a0"),
        (5, 6, 14, None, 60, 1274, "557af50201f644f27d118dafce135676"
                                   "3fe110d3e12db382999f69bea074e6e5"),
    ])
    def test_same_tiles_as_before(self, c, d, max_order, kernel_filter, cap,
                                  n, digest):
        tiles = enumerate_tiles(ProgressionClass(c, d), max_order,
                                kernel_filter, kernel_cap=cap,
                                budget=10 ** 7)
        assert len(tiles) == n
        assert tile_list_digest(tiles) == digest


def assert_reversal_closed(tiles):
    """Each tile's reversal of k is enumerated, as the diagonal reflection
    of its polygon with the same kernel and multiplicity (mirror pairs of
    F^Q have reversed types)."""
    by_k = {t.k: t for t in tiles}
    for t in tiles:
        r = by_k.get(t.k[::-1])
        assert r is not None, t.k
        assert r.poly == t.poly.reflected(), t.k
        assert (r.kernel, r.multiplicity) == (t.kernel, t.multiplicity), t.k


class TestReversalClosure:
    @pytest.mark.parametrize("c, d, max_order, cap", [
        (1, 5, 14, 250), (3, 6, 12, 12), (0, 12, 12, 12), (2, 7, 12, 40)])
    def test_enumeration_closed_under_reversal(self, c, d, max_order, cap):
        assert_reversal_closed(enumerate_tiles(
            ProgressionClass(c, d), max_order, kernel_cap=cap,
            budget=10 ** 7))

    def test_d12_enumeration_closed_under_reversal(self, d12_tiles_30):
        assert_reversal_closed(d12_tiles_30)
