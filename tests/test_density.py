import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (bin_pieces_clip, compare_clip, compare_two_pass,
                     empirical_histograms_stream, g1_eval_scan,
                     random_convex_polygon, support_membership_stream)

from fareymosaics._intgeom import harea
from fareymosaics.density import (DensityQuery, EmpiricalHistogram,
                                  PointClass, _bin_pieces, compare,
                                  empirical_histogram, g1_eval, gs_first_term,
                                  layer_prefactor, support_membership)
from fareymosaics.errors import DomainError
from fareymosaics.farey import ProgressionClass, farey_filtered
from fareymosaics.geometry import ConvexPolygon, area
from fareymosaics.tiles import enumerate_tiles, strip_polygon

CLS15 = ProgressionClass(1, 5)
CLS02 = ProgressionClass(0, 2)


class TestPrefactor:
    def test_derived_form(self):
        assert layer_prefactor(CLS15) == F(2, 5)
        assert layer_prefactor(ProgressionClass(3, 12)) == \
            F(2 * 3, 12 * 2)                     # g = 3, phi(3) = 2

    def test_classical_agrees_when_d_divides_c(self):
        assert layer_prefactor(CLS02) == layer_prefactor(CLS02, True) == 2
        c05 = ProgressionClass(0, 5)
        assert layer_prefactor(c05) == layer_prefactor(c05, True)

    def test_classical_differs_otherwise(self):
        assert layer_prefactor(CLS15, True) == F(1, 2) != F(2, 5)

    def test_normalization_forces_derived_form(self):
        # sum over admissible starting residues of 1/2, times the prefactor,
        # must tend to 1; only the derived constant achieves that
        n_adm = sum(1 for e in range(5) if math.gcd(1, e, 5) == 1)
        assert layer_prefactor(CLS15) * n_adm * F(1, 2) == 1
        n_adm12 = sum(1 for e in range(12) if math.gcd(3, e, 12) == 1)
        assert layer_prefactor(ProgressionClass(3, 12)) * n_adm12 * F(1, 2) == 1


class TestG1Eval:
    def test_outside_support(self):
        q = DensityQuery((F(1, 20), F(1, 20)), CLS15, 10)
        assert g1_eval(q, kernel_cap=30) == (0.0, PointClass.OUTSIDE)

    def test_kernel_one_only_point(self):
        # (0.03, 0.93) sits inside the kernel-1 mosaic and outside every
        # other mosaic: the value is exactly the prefactor
        q = DensityQuery((F(3, 100), F(93, 100)), CLS15, 14)
        value, kind = g1_eval(q, kernel_cap=250)
        assert kind == PointClass.GENERIC
        assert value == pytest.approx(0.4, abs=1e-12)

    def test_divergence_at_corner(self):
        vals = []
        for n in (4, 9, 14):
            q = DensityQuery((1, 1), CLS15, n)
            v, kind = g1_eval(q, kernel_cap=40)
            assert kind == PointClass.ON_VERTEX
            vals.append(v)
        assert vals[0] < vals[1] < vals[2]

    def test_monotone_in_max_order(self):
        pts = [(F(1, 2), F(3, 4)), (F(7, 10), F(7, 10)), (F(9, 10), F(2, 5))]
        for pt in pts:
            prev = -1.0
            for n in (2, 5, 8, 11):
                v, _ = g1_eval(DensityQuery(pt, CLS15, n), kernel_cap=60)
                assert v >= prev - 1e-12
                prev = v

    def test_reflection_symmetry(self):
        for (x, y) in [(F(1, 3), F(9, 10)), (F(22, 25), F(17, 20)),
                       (F(3, 5), F(4, 5))]:
            a, _ = g1_eval(DensityQuery((x, y), CLS15, 10), kernel_cap=60)
            b, _ = g1_eval(DensityQuery((y, x), CLS15, 10), kernel_cap=60)
            assert a == pytest.approx(b, rel=1e-12)

    def test_edge_point_halves(self):
        # a point interior to the kernel-1 mosaic on a shared tile edge
        # still accumulates the full layer (two halves)
        v, kind = g1_eval(DensityQuery((F(1, 50), F(49, 50)), CLS15, 14),
                          kernel_cap=250)
        assert kind == PointClass.ON_EDGE
        assert v == pytest.approx(0.4, abs=1e-12)

    def test_dimension_check(self):
        with pytest.raises(DomainError):
            g1_eval(DensityQuery((F(1, 2), F(1, 2), F(1, 2)), CLS15, 5))

    def test_layer_consistency_against_mosaics(self):
        # at a generic interior point the value is the sum over covering
        # mosaics of prefactor * multiplicity / kernel
        import warnings

        from fareymosaics.density import layer_weight
        from fareymosaics.errors import OrphanWarning
        from fareymosaics.geometry import Incidence, locate
        from fareymosaics.mosaics import assemble_with_orphans

        tiles = enumerate_tiles(CLS15, 12, kernel_cap=40)
        mosaics = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", OrphanWarning)
            for kern in sorted(set(t.kernel for t in tiles)):
                ms, _ = assemble_with_orphans(
                    [t for t in tiles if t.kernel == kern], kern)
                mosaics.extend(ms)
        for pt in [(F(7, 10), F(7, 10)), (F(22, 25), F(9, 10)),
                   (F(39, 40), F(39, 40))]:
            v, kind = g1_eval(DensityQuery(pt, CLS15, 12), kernel_cap=40,
                              tiles=tiles)
            if kind != PointClass.GENERIC:
                continue
            total = 0.0
            for m in mosaics:
                for t in m.tiles:
                    if locate(t.poly, pt).kind == Incidence.INTERIOR:
                        total += float(layer_weight(t, CLS15).contribution)
                        break
            assert v == pytest.approx(total, rel=1e-12)

    def test_matches_fraction_scan_oracle(self):
        tiles = enumerate_tiles(CLS15, 10, kernel_cap=60)
        rng = random.Random(43)
        pts = [(F(1), F(1)), (F(1, 10), F(1, 10))]
        for t in rng.sample(tiles, 50):
            verts = t.poly.vertices
            for u, v in zip(verts, verts[1:] + verts[:1]):
                pts += [(u.x, u.y), ((u.x + v.x) / 2, (u.y + v.y) / 2)]
        pts += [(F(rng.randint(0, 1009), 1009), F(rng.randint(0, 1013), 1013))
                for _ in range(200)]
        kinds = set()
        boxes = [t.poly.bbox() for t in tiles]
        for pt in pts:
            q = DensityQuery(pt, CLS15, 10)
            got = g1_eval(q, tiles=tiles)
            assert got == g1_eval_scan(q, tiles, boxes), pt
            kinds.add(got[1])
        assert kinds == {PointClass.GENERIC, PointClass.ON_EDGE,
                         PointClass.ON_VERTEX, PointClass.OUTSIDE}

    def test_forms_kept_only_where_a_query_lands(self):
        # every scanned tile keeps its integer box; only the tiles whose box
        # holds the point keep edge forms, and compare keeps none
        tiles = enumerate_tiles(CLS15, 10, kernel_cap=60)
        compare(empirical_histogram(200, CLS15, 8), CLS15, 10, tiles=tiles)
        assert not any(t.poly._forms for t in tiles)
        px, py = F(3, 5), F(7, 10)
        g1_eval(DensityQuery((px, py), CLS15, 10), tiles=tiles)

        def in_box(t):
            x0, y0, x1, y1 = t.poly.bbox()
            return x0 <= px <= x1 and y0 <= py <= y1

        kept = [t for t in tiles if t.poly._forms is not None]
        assert all(t.poly._box for t in tiles)
        assert kept == [t for t in tiles if in_box(t)]
        assert 0 < len(kept) < len(tiles) // 4


class TestGsFirstTerm:
    def test_s1_reduction_matches_layer_weight(self):
        # at an interior core the first term equals prefactor * |M| / kernel
        from fareymosaics.continuants import eval_linear
        from fareymosaics.tiles import region

        k = (3,)
        reg = region(k).poly
        verts = reg.vertices
        cx = sum(p.x for p in verts) / len(verts)
        cy = sum(p.y for p in verts) / len(verts)
        target = (cx, eval_linear(k, 1, cx, cy))
        got = gs_first_term(DensityQuery(target, CLS15, 5), (2,), k)
        assert got == pytest.approx(float(F(2, 5)) / 3, abs=1e-15)

    def test_core_outside_region_gives_zero(self):
        assert gs_first_term(DensityQuery((F(1, 20), F(1, 20)), CLS15, 5),
                             (2,), (3,)) == 0.0

    def test_worked_example_s2_positive(self):
        k = (1, 5, 1, 4, 1, 3, 2, 2, 2)
        q = DensityQuery((F(16, 25), F(11, 25), F(21, 25)), CLS15, 10)
        got = gs_first_term(q, (4, 6), k)
        sp = strip_polygon(k, (4, 6), (F(16, 25), F(11, 25), F(21, 25)))
        want = float(F(2, 5) * 1 * area(sp.poly) / 4)
        assert got == pytest.approx(want, rel=1e-12)
        assert got > 0

    def test_off_surface_point_gives_zero(self):
        k = (1, 5, 1, 4, 1, 3, 2, 2, 2)
        q = DensityQuery((F(16, 25), F(11, 25), F(1, 2)), CLS15, 10)
        assert gs_first_term(q, (4, 6), k) == 0.0


class TestEmpiricalHistogram:
    def test_total_counts_pairs(self):
        hist = empirical_histogram(25, CLS15, 10)
        n = sum(1 for _ in farey_filtered(25, CLS15))
        assert hist.total == n - 1
        assert sum(map(sum, hist.bins)) == hist.total

    def test_worked_pair_lands_in_bin(self):
        hist = empirical_histogram(25, CLS15, 25)
        assert hist.bins[16][11] >= 1          # the (16, 11) pair

    def test_round_trip_json(self):
        hist = empirical_histogram(30, CLS02, 6)
        again = EmpiricalHistogram.from_json(hist.to_json())
        assert again == hist

    def test_requires_q_at_least_d(self):
        for Q, cls in ((3, CLS15), (20, ProgressionClass(1, 50))):
            with pytest.raises(DomainError):
                empirical_histogram(Q, cls, 4)

    @pytest.mark.parametrize("d", range(2, 13))
    def test_mirror_half_matches_stream_fold(self, d):
        # both branches run: 1/2 is a member when 2 = c (mod d); otherwise
        # one pair straddles 1/2
        for Q in [*range(d, 81), 97, 200, 601]:
            Bs = (1, 3, 7, 40, Q + 5)
            want = empirical_histograms_stream(Q, d, Bs)
            for c in range(d):
                cls = ProgressionClass(c, d)
                for B in Bs:
                    got = empirical_histogram(Q, cls, B)
                    w = want[(c, B)]
                    assert (got.bins, got.total) == (w.bins, w.total), \
                        (c, d, Q, B)


class TestCompare:
    def test_small_q_smoke(self):
        hist = empirical_histogram(400, CLS15, 16)
        rep = compare(hist, CLS15, 10, kernel_cap=60)
        assert rep.theoretical_mass > 0.94
        assert rep.full_bins > 100
        assert rep.l1_interior < 0.5

    def test_mass_monotone_in_truncation(self):
        hist = empirical_histogram(200, CLS15, 8)
        m1 = compare(hist, CLS15, 6, kernel_cap=40).theoretical_mass
        m2 = compare(hist, CLS15, 10, kernel_cap=40).theoretical_mass
        assert m1 <= m2 + 1e-12

    def test_l1_shrinks_with_q(self):
        # doubling Q reduces the finite-Q noise; allow slack for the noise
        # floor itself
        l1 = {}
        for q in (300, 1200):
            hist = empirical_histogram(q, CLS15, 16)
            l1[q] = compare(hist, CLS15, 10, kernel_cap=60).l1_interior
        assert l1[1200] < l1[300] + 0.02

    def test_one_pass_matches_two_pass_oracle(self):
        hist = empirical_histogram(300, CLS15, 10)
        tiles = enumerate_tiles(CLS15, 8, kernel_cap=40)
        rep = compare(hist, CLS15, 8, kernel_cap=40)
        assert rep == compare_two_pass(hist, CLS15, tiles)
        # without this kernel-6 tile one later tile of its mosaic is an
        # orphan, whose mass counts but whose coverage does not
        holed = [t for t in tiles if t.k != (1, 2, 3, 2, 2, 1, 10)]
        assert compare(hist, CLS15, 8, tiles=holed) == \
            compare_two_pass(hist, CLS15, holed)


class TestCompareSweep:
    """compare's integer column/row sweep against the clip-based bodies it
    replaced: four Fraction clips per (tile, bin) piece, in one pass
    (compare_clip) and in two (compare_two_pass)."""

    @staticmethod
    def assert_matches_oracles(hist, cls, tiles):
        rep = compare(hist, cls, 0, tiles=tiles)
        assert rep == compare_clip(hist, cls, tiles)
        assert rep == compare_two_pass(hist, cls, tiles)
        return rep

    def test_d5_with_and_without_orphan(self):
        hist = empirical_histogram(300, CLS15, 10)
        tiles = enumerate_tiles(CLS15, 8, kernel_cap=40)
        full = self.assert_matches_oracles(hist, CLS15, tiles)
        # without this kernel-6 tile one later tile of its mosaic is an
        # orphan: its mass counts, its coverage does not
        holed = [t for t in tiles if t.k != (1, 2, 3, 2, 2, 1, 10)]
        assert len(holed) == len(tiles) - 1
        assert self.assert_matches_oracles(hist, CLS15, holed) != full

    def test_d12(self):
        cls = ProgressionClass(3, 12)
        hist = empirical_histogram(400, cls, 12)
        tiles = enumerate_tiles(cls, 12, kernel_cap=27)
        rep = self.assert_matches_oracles(hist, cls, tiles)
        assert rep.full_bins > 0

    @pytest.mark.parametrize("B", [2, 4, 5])
    def test_tile_vertices_on_bin_lines(self, B):
        hist = empirical_histogram(200, CLS15, B)
        tiles = enumerate_tiles(CLS15, 8, kernel_cap=40)
        on_line = [p for t in tiles for p in t.poly.vertices
                   if any(0 < v * B < B and (v * B).denominator == 1
                          for v in p)]
        assert on_line
        self.assert_matches_oracles(hist, CLS15, tiles)

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 10 ** 6), B=st.integers(1, 12),
           inside=st.booleans())
    def test_pieces_match_four_clip_oracle(self, seed, B, inside):
        # denominators that are multiples of B put vertices and edges on
        # bin lines; polygons reaching out of the unit square keep only
        # their pieces inside it
        rng = random.Random(seed)
        denom = rng.choice((B, 2 * B, 3 * B, 7, 12, 40))
        poly = random_convex_polygon(rng, denom=denom, span=1,
                                     nonneg=inside)
        got = {(i, j): ConvexPolygon.from_h(piece)
               for i, j, piece in _bin_pieces(poly, B)}
        want = {(i, j): piece for i, j, piece in bin_pieces_clip(poly, B)}
        assert got == want
        areas = [harea(piece) for _, _, piece in _bin_pieces(poly, B)]
        assert areas == [area(p) for p in got.values()]
        if inside:
            assert sum(areas) == area(poly)


class TestSupportMembership:
    def test_d5_zero_violations(self):
        assert support_membership(300, CLS15, 12, kernel_cap=120) == []

    def test_d12_hexagon(self):
        hexagon = ConvexPolygon([(1, 1), (0, 1), (F(1, 13), F(5, 13)),
                                 (F(1, 5), F(1, 5)), (F(5, 13), F(1, 13)),
                                 (1, 0)])
        got = support_membership(300, ProgressionClass(3, 12), 10,
                                 support_polygons=[hexagon])
        assert got == []

    def test_q_below_d_empty(self):
        # Q < d does not raise: with no members, or one, there is no pair
        for c in (2, 4):
            assert support_membership(3, ProgressionClass(c, 5), 12,
                                      kernel_cap=120) == []

    def test_q_below_d_pins_violation(self):
        # F^3(1,5) = 0/1, 1/1: the one pair (1, 1) sits at (1/3, 1/3),
        # outside the triangle x + y >= 1, nearest to its vertex (0, 1)
        tri = ConvexPolygon([(1, 0), (1, 1), (0, 1)])
        got = support_membership(3, CLS15, 12, support_polygons=[tri])
        assert got == [(1, 1, math.hypot(1 / 3, 1 / 3 - 1))]

    def test_d2_classes(self):
        # the odd class has a finite two-tile base mosaic, so the tile
        # union itself is the exact support; the even class's base mosaic
        # is infinite and is tested against its limit frame, the common
        # d=2 quadrilateral
        assert support_membership(1000, ProgressionClass(1, 2), 14,
                                  kernel_cap=120) == []
        frame = ConvexPolygon([(1, 1), (0, 1), (F(1, 3), F(1, 3)), (1, 0)])
        assert support_membership(1000, ProgressionClass(0, 2), 14,
                                  support_polygons=[frame]) == []

    def test_matches_stream_fold(self):
        hexagon = ConvexPolygon([(1, 1), (0, 1), (F(1, 13), F(5, 13)),
                                 (F(1, 5), F(1, 5)), (F(5, 13), F(1, 13)),
                                 (1, 0)])
        frame = ConvexPolygon([(1, 1), (0, 1), (F(1, 3), F(1, 3)), (1, 0)])
        tiles15 = enumerate_tiles(CLS15, 12, kernel_cap=120)
        tiles12 = enumerate_tiles(ProgressionClass(1, 2), 14, kernel_cap=120)
        cases = [(300, CLS15, {"tiles": tiles15}),
                 (300, ProgressionClass(3, 12),
                  {"support_polygons": [hexagon]}),
                 (1000, ProgressionClass(1, 2), {"tiles": tiles12}),
                 (1000, CLS02, {"support_polygons": [frame]})]
        for Q, cls, kw in cases:
            assert support_membership(Q, cls, 12, **kw) == \
                support_membership_stream(Q, cls, **kw) == []

    def test_violations_match_stream_fold(self):
        # supports too small to hold every point: the violation lists are
        # compared exactly, order and float distances included
        square = ConvexPolygon([(F(1, 2), F(1, 2)), (1, F(1, 2)), (1, 1),
                                (F(1, 2), 1)])
        strip = ConvexPolygon([(F(1, 3), F(2, 3)), (F(2, 3), F(1, 3)),
                               (1, F(1, 3)), (1, 1), (F(1, 3), 1)])
        tiles = enumerate_tiles(CLS15, 4, kernel_cap=20)
        cases = [(200, CLS15, {"tiles": tiles}),
                 (150, ProgressionClass(3, 12),
                  {"support_polygons": [square, strip]}),
                 (120, CLS02, {"support_polygons": [square]})]
        for Q, cls, kw in cases:
            got = support_membership(Q, cls, 4, **kw)
            assert got, (Q, cls)
            assert got == support_membership_stream(Q, cls, **kw)
