import warnings
from fractions import Fraction as F

import pytest
from oracles import (component_groups, first_return_tuples,
                     union_outline_pairwise)

from fareymosaics import catalog
from fareymosaics.errors import DomainError, OrphanWarning, PartnerMissing
from fareymosaics.farey import ProgressionClass
from fareymosaics.geometry import ConvexPolygon, RatPoint, area, rational_str
from fareymosaics.mosaics import (adjacency_tree, assemble,
                                  assemble_with_orphans, shared_edge_pairs,
                                  symmetry_partner, table, vertices)
from fareymosaics.tiles import Tile, enumerate_tiles, tile

CLS15 = ProgressionClass(1, 5)

D5_EXPECT = {
    1: [("SQ_0[·]", 21, 0, 9)],
    3: [("SQ_1[3]", 7, 1, 5)],
    4: [("SQ_1[4]", 27, 1, 11)],
    5: [("SHV_4[2,2,2,2]", 35, 4, 14)],
    6: [("SH_1[6]", 51, 1, 11)],
    7: [("NQ_2[2,4]", 6, 2, 6), ("NQ_2[4,2]", 6, 2, 6),
        ("NP_3[2,2,3]", 30, 3, 12), ("NP_3[3,2,2]", 30, 3, 12)],
    8: [("SQ_1[8]", 21, 1, 9), ("SH_3[2,3,2]", 36, 3, 13)],
    9: [("SQ_1[9]", 33, 1, 9), ("NP_4[2,2,2,3]", 14, 4, 15),
        ("NP_4[3,2,2,2]", 14, 4, 15)],
}


class TestAssembleD5:
    def test_catalog_rows(self, d5_mosaics):
        for kern, rows in D5_EXPECT.items():
            got = sorted((m.name, m.tile_count, m.order_min, m.order_max)
                         for m in d5_mosaics[kern])
            assert got == sorted(rows), f"kernel {kern}"

    def test_kernel7_counts(self, d5_mosaics):
        assert sorted(m.tile_count for m in d5_mosaics[7]) == [6, 6, 30, 30]

    def test_single_tile_mosaic(self):
        t = tile((3,), (2,), CLS15)
        ms = assemble([t], 3)
        assert len(ms) == 1 and ms[0].tiles == (t,)
        assert ms[0].root is t

    def test_roots_touch_ne_corner(self, d5_mosaics):
        for ms in d5_mosaics.values():
            for m in ms:
                assert RatPoint.of(1, 1) in m.root.poly.vertices

    def test_outline_area_is_tile_sum(self, d5_mosaics):
        for ms in d5_mosaics.values():
            for m in ms:
                assert m.outline.area() == sum(area(t.poly) for t in m.tiles)

    def test_wrong_kernel_rejected(self):
        t = tile((3,), (2,), CLS15)
        with pytest.raises(DomainError):
            assemble([t], 4)

    def test_component_strategy_cross_validation(self, d5_tiles):
        # for kernels whose mosaics do not abut (no order-jump seams),
        # pure connectivity components give the same tile sets
        for kern in (1, 3, 4, 5, 6):
            group = sorted((t for t in d5_tiles if t.kernel == kern),
                           key=lambda t: t.k)
            seeded, _ = assemble_with_orphans(group, kern)
            seeds = [i for i, t in enumerate(group)
                     if RatPoint.of(1, 1) in t.poly.vertices]
            comps = component_groups(
                len(group), shared_edge_pairs([t.poly for t in group]), seeds)
            assert sorted(sorted(t.k for t in m.tiles) for m in seeded) == \
                sorted(sorted(group[i].k for i in c) for c in comps)


class TestAttachRule:
    def test_only_neighbouring_orders_attach(self):
        # B shares an edge with the seed A but has A's order, so it stays
        # an orphan; C, one order deeper, attaches below A
        def box(x0, y0, x1, y1):
            return ConvexPolygon([(x0, y0), (x1, y0), (x1, y1), (x0, y1)])

        h = F(1, 2)
        a = Tile((5,), (2,), box(h, h, 1, 1), 5, None)
        b = Tile((6,), (2,), box(0, h, h, 1), 5, None)
        c = Tile((2, 3), (3,), box(h, 0, 1, h), 5, None)
        mosaics, orphans = assemble_with_orphans([b, c, a], 5)
        assert [m.tiles for m in mosaics] == [(c, a)]
        assert orphans == [b]


class TestOutlineMatchesPairwiseOracle:
    """Every assembled mosaic's outline equals the one the pairwise
    O(E * V) oracle builds from the same tiles.  Kernel 3 of d=12 at
    max_order 30 is left out: its two mosaics (517 and 244 tiles) take
    the oracle about 24 s."""

    @staticmethod
    def _check(tiles, kernels):
        count = 0
        for kern in kernels:
            group = [t for t in tiles if t.kernel == kern]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", OrphanWarning)
                mosaics, _ = assemble_with_orphans(group, kern)
            for m in mosaics:
                polys = [t.poly for t in m.tiles]
                assert m.outline == union_outline_pairwise(polys), m.name
                count += 1
        return count

    def test_d5_kernels_to_60(self):
        tiles = enumerate_tiles(CLS15, 14, kernel_cap=60)
        assert self._check(tiles, range(1, 61)) == 133

    def test_d12_max_order_30(self, d12_tiles_30):
        assert self._check(d12_tiles_30, (9, 15, 21, 27)) == 22

    def test_d12_kernel3_max_order_20(self, d12_cls):
        tiles = enumerate_tiles(d12_cls, 20, kernel_cap=3, budget=10 ** 7)
        assert self._check(tiles, (3,)) == 2


class TestVertices:
    def test_sq13(self, d5_mosaics):
        m = d5_mosaics[3][0]
        assert vertices(m) == [
            RatPoint.of(1, 1), RatPoint.of(F(2, 7), 1),
            RatPoint.of(F(3, 8), F(3, 8)), RatPoint.of(1, F(2, 7))]

    def test_shv_concave_hexagon(self, d5_mosaics):
        m = d5_mosaics[5][0]
        assert [(rational_str(p.x), rational_str(p.y)) for p in vertices(m)] \
            == [("1", "1"), ("1/6", "1"), ("8/43", "23/43"), ("1/2", "1/2"),
                ("23/43", "8/43"), ("1", "1/6")]

    def test_all_d5_catalog_vertices(self, d5_mosaics):
        expected = {name: verts for (_k, name, _c, _o1, _o2, verts)
                    in catalog.D5_ROWS}
        for ms in d5_mosaics.values():
            for m in ms:
                want = catalog.parse_vertices(expected[m.name])
                assert list(vertices(m)) == want, m.name


class TestAdjacencyTree:
    # The published adjacency figure for NP_3[2,2,3], transcribed: a leveled
    # graph on 30 tuples whose arcs all join consecutive orders.  (Despite
    # being described as a tree it contains four-cycles; 43 arcs.)
    FIG_NODES = {
        "3A": (2, 2, 3), "4A": (2, 3, 1, 4),
        "5A": (3, 1, 4, 1, 4), "5B": (2, 3, 1, 5, 1),
        "6A": (1, 4, 1, 4, 1, 4), "6B": (3, 1, 4, 1, 5, 1),
        "6C": (2, 3, 1, 6, 1, 2),
        "7A": (1, 2, 4, 1, 4, 1, 4), "7B": (1, 4, 1, 4, 1, 5, 1),
        "7C": (3, 1, 4, 2, 1, 6, 1), "7D": (2, 3, 2, 1, 7, 1, 2),
        "7E": (2, 3, 1, 6, 1, 3, 1),
        "8A": (1, 3, 1, 5, 1, 4, 1, 4), "8B": (1, 4, 1, 4, 2, 1, 6, 1),
        "8C": (3, 1, 4, 2, 1, 7, 1, 2), "8D": (2, 3, 2, 1, 7, 1, 3, 1),
        "9A": (1, 4, 1, 5, 1, 3, 1, 6, 1), "9B": (3, 1, 5, 1, 3, 1, 7, 1, 2),
        "9C": (3, 1, 4, 2, 1, 7, 1, 3, 1), "9D": (2, 3, 2, 1, 8, 1, 2, 3, 1),
        "10A": (1, 4, 2, 1, 6, 1, 3, 1, 6, 1),
        "10B": (1, 4, 1, 5, 1, 3, 1, 7, 1, 2),
        "10C": (3, 1, 5, 1, 3, 1, 7, 1, 3, 1),
        "10D": (3, 1, 4, 2, 1, 8, 1, 2, 3, 1),
        "10E": (2, 3, 2, 1, 8, 1, 2, 3, 2, 1),
        "11A": (1, 4, 2, 1, 6, 1, 3, 1, 7, 1, 2),
        "11B": (1, 4, 1, 5, 1, 3, 1, 7, 1, 3, 1),
        "11C": (3, 1, 5, 1, 3, 1, 8, 1, 2, 3, 1),
        "11D": (3, 1, 4, 2, 1, 8, 1, 2, 3, 2, 1),
        "12A": (3, 1, 5, 1, 3, 1, 8, 1, 2, 3, 2, 1),
    }
    FIG_ARCS = [
        ("3A", "4A"), ("4A", "5A"), ("4A", "5B"), ("5A", "6A"), ("5A", "6B"),
        ("5B", "6B"), ("5B", "6C"), ("6A", "7A"), ("6A", "7B"), ("6B", "7B"),
        ("6B", "7C"), ("6C", "7D"), ("6C", "7E"), ("7A", "8A"), ("7B", "8B"),
        ("7C", "8B"), ("7C", "8C"), ("7D", "8C"), ("7D", "8D"), ("7E", "8D"),
        ("8B", "9A"), ("8C", "9B"), ("8C", "9C"), ("8D", "9C"), ("8D", "9D"),
        ("9A", "10A"), ("9A", "10B"), ("9B", "10B"), ("9B", "10C"),
        ("9C", "10C"), ("9C", "10D"), ("9D", "10D"), ("9D", "10E"),
        ("10A", "11A"), ("10B", "11A"), ("10B", "11B"), ("10C", "11B"),
        ("10C", "11C"), ("10D", "11C"), ("10D", "11D"), ("10E", "11D"),
        ("11C", "12A"), ("11D", "12A"),
    ]

    def test_np3_matches_published_figure(self, d5_mosaics):
        m = next(m for m in d5_mosaics[7] if m.name == "NP_3[2,2,3]")
        tree = adjacency_tree(m)
        assert set(tree.nodes) == set(self.FIG_NODES.values())
        want = {(min(self.FIG_NODES[a], self.FIG_NODES[b]),
                 max(self.FIG_NODES[a], self.FIG_NODES[b]))
                for a, b in self.FIG_ARCS}
        assert set(tree.edges) == want
        assert tree.root == (2, 2, 3)
        assert tree.is_connected
        # arcs only ever join consecutive orders (the leveled structure)
        for u, v in tree.edges:
            assert abs(len(u) - len(v)) == 1

    def test_np3_named_edges(self, d5_mosaics):
        m = next(m for m in d5_mosaics[7] if m.name == "NP_3[2,2,3]")
        edges = set(adjacency_tree(m).edges)

        def has(u, v):
            return (min(u, v), max(u, v)) in edges

        assert has((2, 2, 3), (2, 3, 1, 4))
        assert has((2, 3, 1, 4), (3, 1, 4, 1, 4))
        assert has((2, 3, 1, 4), (2, 3, 1, 5, 1))

    def test_np3_deep_leaf_present(self, d5_mosaics):
        m = next(m for m in d5_mosaics[7] if m.name == "NP_3[2,2,3]")
        assert (3, 1, 5, 1, 3, 1, 8, 1, 2, 3, 2, 1) in \
            {t.k for t in m.tiles}

    def test_single_node(self):
        t = tile((3,), (2,), CLS15)
        tree = adjacency_tree(assemble([t], 3)[0])
        assert tree.nodes == ((3,),) and tree.edges == ()

    def test_all_d5_trees_connected(self, d5_mosaics):
        for ms in d5_mosaics.values():
            for m in ms:
                assert adjacency_tree(m).is_connected, m.name


class TestSymmetry:
    def test_self_symmetric(self, d5_mosaics):
        m = d5_mosaics[3][0]
        assert m.symmetric
        assert symmetry_partner(m, d5_mosaics[3]) is m

    def test_nq2_pair(self, d5_mosaics):
        ms = d5_mosaics[7]
        m24 = next(m for m in ms if m.name == "NQ_2[2,4]")
        partner = symmetry_partner(m24, ms)
        assert partner.name == "NQ_2[4,2]"
        assert partner.root.k == (4, 2)

    def test_np4_pair(self, d5_mosaics):
        ms = d5_mosaics[9]
        m = next(m for m in ms if m.name == "NP_4[2,2,2,3]")
        assert symmetry_partner(m, ms).root.k == (3, 2, 2, 2)

    def test_partner_missing(self, d5_mosaics):
        m = next(m for m in d5_mosaics[7] if m.name == "NQ_2[2,4]")
        with pytest.raises(PartnerMissing):
            symmetry_partner(m, d5_mosaics[3])

    def test_s_names_match_symmetry_flag(self, d5_mosaics):
        for ms in d5_mosaics.values():
            for m in ms:
                assert m.name.startswith("S") == m.symmetric

    def test_octagon_name(self):
        # the published d=12 kernel-12 octagon (nonconvex at two vertices);
        # shape letters other than H/HV go by vertex count alone
        from fareymosaics.geometry import Outline
        from fareymosaics.mosaics import Mosaic, mosaic_name
        loop = catalog.parse_vertices(
            "(1,1); (1/5,1); (3/11,7/11); (4/13,8/13); (1/3,1/3); "
            "(8/13,4/13); (7/11,3/11); (1,1/5)")
        t = tile((3, 1, 6, 1, 3), (6,), ProgressionClass(3, 12))
        m = Mosaic(12, (t,), Outline((tuple(loop),)), t, "", 5, 29, True)
        assert mosaic_name(m) == "SO_5[3,1,6,1,3]"


class TestTableOp:
    def test_d5_rows(self, d5_cls, d5_tiles):
        rows = table(d5_cls, range(1, 10), 16, tiles=d5_tiles)
        by_name = {r.name: r for r in rows if r.name}
        for kern, entries in D5_EXPECT.items():
            for (name, count, omin, omax) in entries:
                r = by_name[name]
                assert (r.count, r.order_min, r.order_max) == \
                    (count, omin, omax)
                assert not r.truncated
        kernel2 = [r for r in rows if r.kernel == 2]
        assert len(kernel2) == 1 and kernel2[0].name is None

    def test_empty_kernel_list(self, d5_cls):
        assert table(d5_cls, [], 5) == []

    def test_orphan_warning_without_seed(self):
        # removing the seed tile leaves the rest unattachable
        tiles = [t for t in enumerate_tiles(CLS15, 6, 5)
                 if t.k != (2, 2, 2, 2)]
        assert tiles
        with pytest.warns(OrphanWarning):
            ms = assemble(tiles, 5)
        assert ms == []


class TestStackedKernels:
    """Kernels of d=12 whose mosaics stack with varying multiplicities.
    Seeded growth cannot split them (it raises AmbiguityError, by design),
    but the kernel-level aggregates match the published per-mosaic sums
    exactly."""

    def test_kernel12_ambiguity_is_reported(self):
        from fareymosaics.errors import AmbiguityError
        cls = ProgressionClass(3, 12)
        tiles = enumerate_tiles(cls, 30, 12, budget=10 ** 7)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", OrphanWarning)
            with pytest.raises(AmbiguityError) as info:
                assemble(tiles, 12)
        assert info.value.tile_k == (1, 5, 1, 3, 2, 1, 11, 1, 2, 2, 3, 1, 5, 1)
        assert info.value.candidates == ((2,) * 11, (3, 1, 6, 1, 3))

    @pytest.mark.parametrize("kern", sorted(catalog.D12_STACKED_KERNELS))
    def test_aggregates(self, kern):
        total, omin, omax, need, rows = catalog.D12_STACKED_KERNELS[kern]
        assert total == sum(c for (_n, c, _a, _b) in rows)
        assert omin == min(a for (_n, _c, a, _b) in rows)
        assert omax == max(b for (_n, _c, _a, b) in rows)
        cls = ProgressionClass(3, 12)
        tiles = enumerate_tiles(cls, need, kern, budget=10 ** 8)
        assert len(tiles) == total
        assert min(t.order for t in tiles) == omin
        assert max(t.order for t in tiles) == omax



class TestPublishedDiscrepancy:
    """The circulated d=5 kernel-9 NP_4 rows (7 tiles, corner (1,5/7)) fail
    brute-force verification; the catalog carries the corrected rows.  See
    catalog module docstring."""

    def test_realized_np4_membership_is_fourteen(self, d5_mosaics):
        realized = first_return_tuples(2500, 1, 5, max_n=16)
        m = next(m for m in d5_mosaics[9] if m.name == "NP_4[2,2,2,3]")
        member_ks = {t.k for t in m.tiles}
        assert len(member_ks) == 14
        hits = {k for k in member_ks if k in realized}
        # every member with a moderately sized region is realized by Q=2500;
        # the published count of 7 cannot hold all realized members
        assert len(hits) > 7

    def test_published_vertex_excluded_area_is_covered(self, d5_mosaics):
        # the published pentagon ends at (1,5/7); the verified mosaic
        # continues along x=1 down to (1,8/13) through tile (2,2,3,1,4)
        m = next(m for m in d5_mosaics[9] if m.name == "NP_4[2,2,2,3]")
        t = next(t for t in m.tiles if t.k == (2, 2, 3, 1, 4))
        ys = [p.y for p in t.poly.vertices if p.x == 1]
        assert sorted(ys) == [F(8, 13), F(5, 7)]
