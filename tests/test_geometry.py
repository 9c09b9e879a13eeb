import json
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (FractionPolygon, boundary_fragments_pairwise,
                     halfplane_intersection,
                     hcanon, locate_convex_fraction, locate_outline_fraction,
                     point_in_polygon_float, random_convex_polygon,
                     union_outline_pairwise)

from fareymosaics import _intgeom
from fareymosaics.errors import GeometryError, OverlapError
from fareymosaics.geometry import (EMPTY_POLYGON, ConvexPolygon, HalfPlane,
                                   Incidence, RatPoint, affine_image, area,
                                   boxes_overlap, clip, edge_forms, int_form,
                                   locate, parse_rational, rational_str,
                                   union_outline)
from fareymosaics.geometry import _boundary_fragments

T = ConvexPolygon([(0, 1), (1, 0), (1, 1)])
UNIT_SQUARE = ConvexPolygon([(0, 0), (1, 0), (1, 1), (0, 1)])


class TestClip:
    def test_half_square(self):
        got = clip(UNIT_SQUARE, HalfPlane(1, 1, 1))
        assert got == ConvexPolygon([(0, 0), (1, 0), (0, 1)])

    def test_identity_case(self):
        assert clip(T, HalfPlane(1, 0, 1)) == T

    def test_farey_triangle_strip(self):
        # T with 2y - x >= 1; oracle: brute-force intersection of the
        # constraint lines, which gives (0,1),(1,1),(1/3,2/3)
        got = clip(T, HalfPlane(1, -2, -1))
        oracle = halfplane_intersection(
            [(0, 1, 1), (1, 0, 1), (-1, -1, -1), (1, -2, -1)])
        assert got == ConvexPolygon(oracle)
        assert got == ConvexPolygon([(0, 1), (F(1, 3), F(2, 3)), (1, 1)])

    def test_empty_result(self):
        assert clip(T, HalfPlane(0, 1, -1)).is_empty

    def test_degenerate_is_empty(self):
        # touching along the corner only: zero area collapses to empty
        got = clip(UNIT_SQUARE, HalfPlane(1, 1, 0))
        assert got.is_empty

    def test_idempotent(self):
        rng = random.Random(7)
        for _ in range(60):
            poly = random_convex_polygon(rng)
            hp = HalfPlane(F(rng.randint(-5, 5)), F(rng.randint(-5, 5)),
                           F(rng.randint(-8, 8))) if rng.random() < 0.9 else \
                HalfPlane(1, 0, 0)
            if hp.a == 0 and hp.b == 0:
                continue
            once = clip(poly, hp)
            assert clip(once, hp) == once

    def test_area_additive_under_complement(self):
        rng = random.Random(11)
        for _ in range(60):
            poly = random_convex_polygon(rng)
            a, b = rng.randint(-4, 4), rng.randint(-4, 4)
            if (a, b) == (0, 0):
                a = 1
            hp = HalfPlane(a, b, rng.randint(-6, 6))
            assert area(clip(poly, hp)) + area(clip(poly, hp.complement())) \
                == area(poly)


class TestArea:
    def test_farey_triangle(self):
        assert area(T) == F(1, 2)

    def test_unit_square(self):
        assert area(UNIT_SQUARE) == 1

    def test_clipped_triangle(self):
        # shoelace by hand: (0,1),(1/3,2/3),(1,1) -> 1/6
        assert area(ConvexPolygon([(0, 1), (F(1, 3), F(2, 3)), (1, 1)])) \
            == F(1, 6)

    def test_empty(self):
        assert area(ConvexPolygon(())) == 0


class TestAffineImage:
    def test_identity(self):
        assert affine_image(T, 1, 0) == T

    def test_choice_map_example(self):
        quad = ConvexPolygon([(F(1, 2), F(1, 2)), (F(3, 5), F(2, 5)),
                              (1, F(1, 2)), (1, F(2, 3))])
        img = affine_image(quad, 3, 1)
        assert img == ConvexPolygon(
            [(F(1, 2), 1), (F(3, 5), F(3, 5)), (1, F(1, 2)), (1, 1)])

    def test_area_scaling_random(self):
        rng = random.Random(3)
        for _ in range(1000):
            poly = random_convex_polygon(rng)
            P = rng.randint(1, 50)
            Pp = rng.randint(-10, 10)
            assert area(affine_image(poly, P, Pp)) == P * area(poly)

    def test_requires_positive_determinant(self):
        with pytest.raises(GeometryError):
            affine_image(T, 0, 1)


class TestPolygonValidation:
    def test_rejects_clockwise(self):
        with pytest.raises(GeometryError):
            ConvexPolygon([(0, 0), (0, 1), (1, 1), (1, 0)])

    def test_rejects_collinear(self):
        with pytest.raises(GeometryError):
            ConvexPolygon([(0, 0), (F(1, 2), 0), (1, 0), (1, 1)])

    def test_rejects_repeats(self):
        with pytest.raises(GeometryError):
            ConvexPolygon([(0, 0), (1, 0), (1, 0), (0, 1)])

    def test_equality_rotation_invariant(self):
        assert ConvexPolygon([(0, 1), (1, 0), (1, 1)]) == \
            ConvexPolygon([(1, 1), (0, 1), (1, 0)])


def _outline_as_oracle(tiles):
    """union_outline(tiles), checked against the pairwise oracle: the same
    Outline from the same multiset of boundary fragments."""
    out = union_outline(tiles)
    assert out == union_outline_pairwise(tiles)
    assert sorted(_boundary_fragments(tiles)) == \
        sorted(boundary_fragments_pairwise(tiles))
    return out


class TestUnionOutline:
    def test_single_tile(self):
        out = union_outline([T])
        assert len(out.loops) == 1
        assert set(out.loops[0]) == set(T.vertices)

    def test_two_squares_shared_edge(self):
        s2 = ConvexPolygon([(1, 0), (2, 0), (2, 1), (1, 1)])
        out = union_outline([UNIT_SQUARE, s2])
        assert len(out.loops) == 1
        assert set(out.loops[0]) == {RatPoint.of(0, 0), RatPoint.of(2, 0),
                                     RatPoint.of(2, 1), RatPoint.of(0, 1)}
        assert out.area() == 2

    def test_corner_touch_gives_two_loops(self):
        s2 = ConvexPolygon([(1, 1), (2, 1), (2, 2), (1, 2)])
        out = union_outline([UNIT_SQUARE, s2])
        assert len(out.loops) == 2
        assert out.area() == 2

    def test_partition_reproduces_boundary(self):
        # split the unit square into a 3x3 grid of cells
        cells = []
        for i in range(3):
            for j in range(3):
                cells.append(ConvexPolygon([
                    (F(i, 3), F(j, 3)), (F(i + 1, 3), F(j, 3)),
                    (F(i + 1, 3), F(j + 1, 3)), (F(i, 3), F(j + 1, 3))]))
        out = union_outline(cells)
        assert len(out.loops) == 1
        assert set(out.loops[0]) == set(UNIT_SQUARE.vertices)
        assert out.area() == 1

    def test_partition_of_triangle_by_chord(self):
        left = clip(T, HalfPlane(1, 0, F(3, 4)))
        right = clip(T, HalfPlane(-1, 0, -F(3, 4)))
        out = union_outline([left, right])
        assert len(out.loops) == 1
        assert set(out.loops[0]) == set(T.vertices)

    def test_overlap_detected(self):
        shifted = ConvexPolygon([(F(1, 2), 0), (F(3, 2), 0),
                                 (F(3, 2), 1), (F(1, 2), 1)])
        with pytest.raises(OverlapError):
            union_outline([UNIT_SQUARE, shifted])

    def test_duplicate_fragment(self):
        # reached only past the disjointness check, so call the fragment
        # step on its own: two copies of one tile double every fragment
        for fragments in (_boundary_fragments, boundary_fragments_pairwise):
            with pytest.raises(OverlapError, match="duplicate boundary"):
                fragments([UNIT_SQUARE, UNIT_SQUARE])

    def test_hole(self):
        # ring of 8 cells around a missing center -> outer loop plus hole
        cells = []
        for i in range(3):
            for j in range(3):
                if (i, j) == (1, 1):
                    continue
                cells.append(ConvexPolygon([
                    (F(i, 3), F(j, 3)), (F(i + 1, 3), F(j, 3)),
                    (F(i + 1, 3), F(j + 1, 3)), (F(i, 3), F(j + 1, 3))]))
        out = union_outline(cells)
        assert len(out.outer_loops()) == 1
        assert len(out.holes()) == 1
        assert out.area() == F(8, 9)

    def test_vertex_touching_edge_interior(self):
        # the lower triangle's apex (1,0) lies inside the upper one's base,
        # which must be split there for the two loops to close
        upper = ConvexPolygon([(0, 0), (2, 0), (1, 2)])
        lower = ConvexPolygon([(0, -1), (2, -1), (1, 0)])
        out = _outline_as_oracle([upper, lower])
        assert out.loops == (upper.vertices, lower.vertices)
        assert out.area() == 3

    def test_hole_with_t_junction_on_rim(self):
        # 3x3 grid without its center; the cell above the hole is cut in
        # two, so the hole's upper rim has the T-junction (3/2, 2)
        def box(x0, y0, x1, y1):
            return ConvexPolygon([(x0, y0), (x1, y0), (x1, y1), (x0, y1)])

        cells = [box(i, j, i + 1, j + 1) for i in range(3) for j in range(3)
                 if (i, j) not in ((1, 1), (1, 2))]
        cells += [box(1, 2, F(3, 2), 3), box(F(3, 2), 2, 2, 3)]
        out = _outline_as_oracle(cells)
        assert out.outer_loops() == [box(0, 0, 3, 3).vertices]
        assert out.holes() == [tuple(RatPoint.of(x, y) for x, y in
                                     ((1, 1), (1, 2), (2, 2), (2, 1)))]
        assert out.area() == 8

    def test_boxes_overlap_matches_fraction_bbox(self):
        rng = random.Random(43)
        polys = [random_convex_polygon(rng, denom=rng.choice((1, 3, 40)),
                                       span=2) for _ in range(40)]
        polys.append(UNIT_SQUARE)
        polys.append(ConvexPolygon([(1, 0), (2, 0), (2, 1), (1, 1)]))
        for p in polys:
            for q in polys:
                x0, y0, x1, y1 = p.bbox()
                a0, b0, a1, b1 = q.bbox()
                expected = not (a0 >= x1 or x0 >= a1 or b0 >= y1 or y0 >= b1)
                assert boxes_overlap(p.int_box(), q.int_box()) == expected

    def test_overlap_names_the_oracles_pair(self):
        rng = random.Random(47)
        raised = 0
        for _ in range(40):
            polys = [random_convex_polygon(rng, span=3) for _ in range(4)]
            try:
                union_outline_pairwise(polys)
            except OverlapError as exc:
                raised += 1
                with pytest.raises(OverlapError) as info:
                    union_outline(polys)
                assert str(info.value) == str(exc)
            else:
                _outline_as_oracle(polys)
        assert raised


def _cut(rng, poly, keep):
    """poly cut into convex pieces by chords through random pieces' vertex
    centroids, each piece cut on its own so T-junctions arise; a random
    subset is kept.  Half of the chords also pass through a vertex of the
    piece, so that pieces can touch a line at a vertex alone.  Checks hclip
    on every cut: idempotent, and the two halves' areas add up to the
    piece's."""
    pieces = [poly]
    for _ in range(rng.randint(1, 8)):
        k = rng.randrange(len(pieces))
        piece = pieces[k]
        verts = piece.vertices
        cx = sum(p.x for p in verts) / len(verts)
        cy = sum(p.y for p in verts) / len(verts)
        if rng.random() < 0.5:
            v = rng.choice(verts)
            dx, dy = v.x - cx, v.y - cy
        else:
            dx, dy = F(rng.randint(-4, 4)), F(rng.randint(-4, 4))
            if dx == dy == 0:
                continue
        a, b, c = int_form(dy, -dx, dy * cx - dx * cy)
        h = piece.to_h()
        left = _intgeom.hclip(h, a, b, c)
        right = _intgeom.hclip(h, -a, -b, -c)
        assert _intgeom.hclip(left, a, b, c) == left
        assert _intgeom.hclip(right, -a, -b, -c) == right
        left = ConvexPolygon.from_h(left)
        right = ConvexPolygon.from_h(right)
        assert area(left) + area(right) == area(piece)
        pieces[k:k + 1] = [left, right]
    return [p for p in pieces if rng.random() < keep]


class TestHclipProperties:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 10 ** 6),
           line=st.sampled_from(("vertex", "edge", "any")))
    def test_result_is_canonical_intersection(self, seed, line):
        # hclip keeps no clean-up pass: its result must already be what
        # hcanon leaves, and must be the exact half-plane intersection,
        # also for lines through a vertex or along an edge
        rng = random.Random(seed)
        poly = random_convex_polygon(rng, denom=rng.choice((1, 2, 3, 12)),
                                     span=2)
        h = poly.to_h()
        if line == "vertex":
            x, y, w = rng.choice(h)
            a, b = rng.choice([(1, 0), (0, 1), (1, 1), (2, -3), (-1, 4)])
            a, b, c = a * w, b * w, a * x + b * y
        elif line == "edge":
            a, b, c = rng.choice(edge_forms(poly))
        else:
            a, b = rng.choice([(1, 0), (0, -1), (3, 2), (-2, 5)])
            c = rng.randint(-12, 12)
        if rng.random() < 0.5:
            a, b, c = -a, -b, -c
        out = _intgeom.hclip(h, a, b, c)
        assert out == hcanon(out)
        want = halfplane_intersection(edge_forms(poly) + [(a, b, c)])
        want = ConvexPolygon(want) if len(want) >= 3 else EMPTY_POLYGON
        assert ConvexPolygon([(F(x, w), F(y, w)) for x, y, w in out]) == want


class TestUnionOutlineProperties:
    @settings(max_examples=120, deadline=None)
    @given(seed=st.integers(0, 10 ** 6), keep=st.sampled_from((0.5, 0.8, 1)))
    def test_cut_pieces_match_oracle(self, seed, keep):
        rng = random.Random(seed)
        poly = random_convex_polygon(rng, denom=rng.choice((1, 2, 12)))
        kept = _cut(rng, poly, keep)
        out = _outline_as_oracle(kept)
        assert out.area() == sum((area(p) for p in kept), F(0))
        if keep == 1:
            assert out.loops == (poly.vertices,)


class TestLocate:
    def test_interior(self):
        assert locate(T, RatPoint.of(F(1, 2), F(3, 4))).kind == \
            Incidence.INTERIOR

    def test_edge(self):
        assert locate(T, RatPoint.of(F(1, 2), F(1, 2))).kind == Incidence.EDGE

    def test_vertex_directions(self):
        loc = locate(T, RatPoint.of(1, 1))
        assert loc.kind == Incidence.VERTEX
        assert set(loc.directions) == {(F(-1), F(0)), (F(0), F(-1))}

    def test_outside(self):
        assert locate(T, RatPoint.of(F(1, 10), F(1, 10))).kind == \
            Incidence.OUTSIDE

    def test_matches_float_raycasting(self):
        rng = random.Random(23)
        polys = [random_convex_polygon(rng) for _ in range(20)]
        checked = 0
        while checked < 10 ** 4:
            poly = polys[checked % len(polys)]
            p = RatPoint(F(rng.randint(-170, 170), 41),
                         F(rng.randint(-170, 170), 41))
            loc = locate(poly, p)
            if loc.kind in (Incidence.EDGE, Incidence.VERTEX):
                continue      # oracle is only reliable away from boundaries
            assert (loc.kind == Incidence.INTERIOR) == \
                point_in_polygon_float(poly, float(p.x), float(p.y))
            checked += 1

    def test_integer_locate_matches_fraction_oracle(self):
        rng = random.Random(29)
        kinds = set()
        for _ in range(200):
            poly = random_convex_polygon(rng)
            for p in probe_points(poly):
                got = locate(poly, p)
                assert got == locate_convex_fraction(poly, p), (poly, p)
                kinds.add(got.kind)
        assert kinds == set(Incidence)

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 10 ** 6),
           scale=st.fractions(-5, 5, max_denominator=13).filter(bool))
    def test_class_unchanged_under_common_scaling(self, seed, scale):
        rng = random.Random(seed)
        poly = random_convex_polygon(rng)
        # a negative scale is a half turn, which keeps the orientation
        big = ConvexPolygon((scale * v.x, scale * v.y) for v in poly.vertices)
        for p in probe_points(poly):
            loc = locate(poly, p)
            scaled = locate(big, RatPoint(scale * p.x, scale * p.y))
            assert scaled.kind == loc.kind
            if loc.directions is not None:
                assert scaled.directions == tuple(
                    (scale * dx, scale * dy) for dx, dy in loc.directions)

    def test_outline_locate(self):
        s2 = ConvexPolygon([(1, 0), (2, 0), (2, 1), (1, 1)])
        out = union_outline([UNIT_SQUARE, s2])
        assert locate(out, RatPoint.of(F(1, 2), F(1, 2))).kind == \
            Incidence.INTERIOR
        assert locate(out, RatPoint.of(1, F(1, 2))).kind == Incidence.INTERIOR
        assert locate(out, RatPoint.of(F(5, 2), F(1, 2))).kind == \
            Incidence.OUTSIDE
        assert locate(out, RatPoint.of(2, F(1, 2))).kind == Incidence.EDGE
        assert locate(out, RatPoint.of(0, 0)).kind == Incidence.VERTEX

    def test_outline_locate_matches_fraction_oracle(self):
        # outlines of chord-cut pieces of grid cells, some cells left out:
        # several loops, holes, T-junctions and vertex touches
        rng = random.Random(31)
        kinds = set()
        loops = holes = 0
        for _ in range(40):
            n = rng.randint(2, 4)
            cells = []
            for i in range(n):
                for j in range(n):
                    if rng.random() < 0.25:
                        continue
                    cell = ConvexPolygon([(i, j), (i + 1, j), (i + 1, j + 1),
                                          (i, j + 1)])
                    cells += _cut(rng, cell, 1) if rng.random() < 0.5 \
                        else [cell]
            out = union_outline(cells)
            loops = max(loops, len(out.loops))
            holes += len(out.holes())
            for p in outline_probe_points(rng, out):
                got = locate(out, p)
                assert got == locate_outline_fraction(out, p), (out, p)
                kinds.add(got.kind)
        assert kinds == set(Incidence)
        assert loops >= 3 and holes >= 3


def probe_points(poly):
    """Every vertex, every edge midpoint, the vertex centroid, and a point
    just outside each edge's midpoint."""
    verts = poly.vertices
    n = len(verts)
    pts = list(verts)
    for i in range(n):
        u, v = verts[i], verts[(i + 1) % n]
        mx, my = (u.x + v.x) / 2, (u.y + v.y) / 2
        pts.append(RatPoint(mx, my))
        eps = F(1, 10 ** 6)
        pts.append(RatPoint(mx + eps * (v.y - u.y), my - eps * (v.x - u.x)))
    pts.append(RatPoint(sum(v.x for v in verts) / n,
                        sum(v.y for v in verts) / n))
    return pts


def outline_probe_points(rng, outline):
    """Every vertex, every edge midpoint, points just off each edge on both
    sides, points beside each vertex on the horizontal through it (where
    the ray's half-open rule decides), and random points near the
    outline."""
    eps = F(1, 10 ** 6)
    pts = []
    for loop in outline.loops:
        for u, v in zip(loop, loop[1:] + loop[:1]):
            mx, my = (u.x + v.x) / 2, (u.y + v.y) / 2
            nx, ny = eps * (v.y - u.y), -eps * (v.x - u.x)
            pts += [u, RatPoint(mx, my), RatPoint(mx + nx, my + ny),
                    RatPoint(mx - nx, my - ny),
                    RatPoint(u.x - F(1, 7), u.y), RatPoint(u.x + F(1, 7), u.y)]
    for _ in range(40):
        pts.append(RatPoint(F(rng.randint(-12, 60), 12),
                            F(rng.randint(-12, 60), 12)))
    return pts


class TestIntegerMemo:
    def test_equal_and_hash_after_fill(self):
        rng = random.Random(31)
        for _ in range(20):
            poly = random_convex_polygon(rng)
            locate(poly, poly.vertices[0])
            poly.int_box()
            fresh = ConvexPolygon(poly.vertices)
            assert poly == fresh and hash(poly) == hash(fresh)
            assert poly.vertices == fresh.vertices

    def test_edge_forms_stable_and_copied(self):
        rng = random.Random(37)
        for _ in range(20):
            poly = random_convex_polygon(rng)
            verts = poly.vertices
            n = len(verts)
            expected = []
            for i in range(n):
                u, v = verts[i], verts[(i + 1) % n]
                a, b = v.y - u.y, u.x - v.x
                expected.append(int_form(a, b, a * u.x + b * u.y))
            first = edge_forms(poly)
            assert first == expected
            first.clear()
            first.append((0, 0, 0))
            assert edge_forms(poly) == expected
            assert poly.int_forms() == tuple(n for f in expected for n in f)
            assert poly.int_forms() is poly.int_forms()      # kept

    def test_memo_box_is_bbox(self):
        rng = random.Random(41)
        for _ in range(20):
            poly = random_convex_polygon(rng)
            box = poly.int_box()
            assert tuple(F(n, d) for n, d in zip(box[::2], box[1::2])) == \
                poly.bbox()
            assert box is poly.int_box()                    # kept
        assert EMPTY_POLYGON.int_box() == ()
        assert EMPTY_POLYGON.int_forms() == ()
        assert edge_forms(EMPTY_POLYGON) == []


class TestSerialization:
    def test_rational_strings(self):
        assert rational_str(F(2, 7)) == "2/7"
        assert rational_str(F(3, 1)) == "3"
        assert parse_rational("2/7") == F(2, 7)
        assert parse_rational("5") == F(5)

    def test_point_and_polygon_json(self):
        p = RatPoint.of(F(1, 3), 1)
        assert p.to_json() == ["1/3", "1"]
        js = json.dumps(T.to_json())
        assert json.loads(js) == [["0", "1"], ["1", "0"], ["1", "1"]]


def _given_as(rng, f):
    """The rational f as one of the forms a caller may pass: a Fraction,
    one built from an unreduced pair such as Fraction(2, 4), a "p/q"
    string, or a plain int when integral."""
    forms = [f, F(2 * f.numerator, 2 * f.denominator), str(f)]
    if f.denominator == 1:
        forms.append(int(f))
    return rng.choice(forms)


class TestAgainstFractionPolygon:
    """Every public ConvexPolygon operation on the integer triples against
    FractionPolygon, the polygon on Fraction vertices it replaced."""

    def test_every_operation_matches(self):
        rng = random.Random(59)
        pairs = [(EMPTY_POLYGON, FractionPolygon(()))]
        for _ in range(150):
            src = random_convex_polygon(
                rng, denom=rng.choice((1, 2, 3, 12, 40)),
                span=rng.choice((1, 4)), nonneg=rng.random() < 0.2)
            pts = [(_given_as(rng, p.x), _given_as(rng, p.y))
                   for p in src.vertices]
            r = rng.randrange(len(pts))
            pts = pts[r:] + pts[:r]
            poly, orc = ConvexPolygon(pts), FractionPolygon(pts)
            pairs.append((poly, orc))
            assert poly == ConvexPolygon(pts[1:] + pts[:1])
            assert hash(poly) == hash(ConvexPolygon(pts[1:] + pts[:1]))
            mid = tuple((F(u) + F(v)) / 2 for u, v in zip(pts[0], pts[1]))
            for bad in (pts[::-1], pts[:2], pts + pts[:1],
                        pts[:1] + [mid] + pts[1:]):
                with pytest.raises(GeometryError) as got:
                    ConvexPolygon(bad)
                with pytest.raises(GeometryError) as want:
                    FractionPolygon(bad)
                assert str(got.value) == str(want.value)
        for poly, orc in pairs:
            assert poly.vertices == orc.vertices
            assert all(type(v) is F for p in poly.vertices for v in p)
            assert all(w > 0 and math.gcd(x, y, w) == 1
                       for x, y, w in poly.to_h())
            assert repr(poly) == repr(orc)
            assert poly.to_json() == orc.to_json()
            assert area(poly) == orc.area()
            assert edge_forms(poly) == orc.edge_forms()
            # images equal the polygons built from the oracle's vertices,
            # so their triples are stored reduced too
            assert poly.reflected() == ConvexPolygon(orc.reflected().vertices)
            P, Pp = rng.randint(1, 20), rng.randint(-10, 10)
            assert affine_image(poly, P, Pp) == \
                ConvexPolygon(orc.affine_image(P, Pp).vertices)
            if poly.is_empty:
                assert poly.int_box() == ()
                continue
            assert poly.bbox() == orc.bbox()
            box = poly.int_box()
            assert tuple(F(n, d) for n, d in zip(box[::2], box[1::2])) == \
                orc.bbox()
            forms = edge_forms(poly)
            x, y, w = rng.choice(poly.to_h())
            lines = [rng.choice(forms),
                     (w, -2 * w, x - 2 * y),           # through a vertex
                     (rng.randint(-5, 5) or 1, rng.randint(-5, 5),
                      rng.randint(-9, 9))]
            for a, b, c in lines + [(-a, -b, -c) for a, b, c in lines]:
                assert clip(poly, HalfPlane(a, b, c)) == \
                    ConvexPolygon(orc.clip(a, b, c).vertices)
            for p in probe_points(poly):
                want = locate_convex_fraction(orc, p)
                assert locate(poly, p) == want
                assert locate(poly, (_given_as(rng, p.x),
                                     _given_as(rng, p.y))) == want
        for (p1, o1), (p2, o2) in zip(pairs, pairs[1:] + pairs[:1]):
            assert (p1 == p2) == (o1 == o2)
            assert p1 == p1.reflected().reflected()
            assert (p1 == p1.reflected()) == (o1 == o1.reflected())


@pytest.fixture
def constructions(monkeypatch):
    """Counts of RatPoint and Fraction objects built, by class name."""
    counts = {"RatPoint": 0, "Fraction": 0}
    for cls in (RatPoint, F):
        new = cls.__new__

        def counting(c, *args, _new=new, _name=cls.__name__, **kwargs):
            counts[_name] += 1
            return _new(c, *args, **kwargs)

        monkeypatch.setattr(cls, "__new__", staticmethod(counting))
    return counts


class TestOneRepresentation:
    """Polygons and outlines keep integer triples only: the hot paths build
    no RatPoint, and the integer operations build no Fraction for
    vertices."""

    def test_hot_paths_build_no_ratpoint(self, constructions):
        from fareymosaics.density import DensityQuery, g1_eval
        from fareymosaics.density import support_membership
        from fareymosaics.farey import ProgressionClass
        from fareymosaics.tiles import enumerate_tiles

        cls = ProgressionClass(1, 5)
        tiles = enumerate_tiles(cls, 10, kernel_cap=60)
        assert constructions["RatPoint"] == 0
        assert support_membership(400, cls, 10, tiles=tiles) == []
        assert constructions["RatPoint"] == 0
        query = DensityQuery((F(61, 97), F(83, 89)), cls, 10)
        assert g1_eval(query, tiles=tiles)[1] == "generic"
        assert constructions["RatPoint"] == 0

    def test_outline_builds_one_ratpoint_per_vertex(self, constructions):
        from fareymosaics.farey import ProgressionClass
        from fareymosaics.mosaics import assemble_with_orphans
        from fareymosaics.tiles import enumerate_tiles

        tiles = enumerate_tiles(ProgressionClass(1, 5), 16, 6)
        (mosaic,), _ = assemble_with_orphans(tiles, 6)
        polys = [t.poly for t in mosaic.tiles]
        assert len(polys) == 51
        before = constructions["RatPoint"]
        out = union_outline(polys)
        assert constructions["RatPoint"] - before <= \
            sum(len(loop) for loop in out.loops)

    def test_outline_paths_build_no_ratpoint(self, constructions):
        from fareymosaics.farey import ProgressionClass
        from fareymosaics.mosaics import assemble_with_orphans, mosaic_name
        from fareymosaics.tiles import enumerate_tiles

        tiles = enumerate_tiles(ProgressionClass(1, 5), 16, 6)
        probes = [RatPoint(F(3, 4), F(3, 4)), RatPoint(F(3, 5), F(1)),
                  RatPoint(F(1, 10), F(1, 10)), RatPoint(F(1), F(1))]
        start = constructions["RatPoint"]
        (mosaic,), orphans = assemble_with_orphans(tiles, 6)
        assert constructions["RatPoint"] == start
        out = union_outline([t.poly for t in mosaic.tiles])
        assert constructions["RatPoint"] == start
        name = mosaic_name(mosaic)
        assert constructions["RatPoint"] == start
        kinds = [locate(out, p).kind for p in probes]
        assert constructions["RatPoint"] == start
        assert not orphans and name == "SH_1[6]"
        assert kinds == [Incidence.INTERIOR, Incidence.EDGE,
                         Incidence.OUTSIDE, Incidence.VERTEX]

    def test_integer_operations_build_no_vertex_fraction(self, constructions):
        rng = random.Random(61)
        polys = [random_convex_polygon(rng) for _ in range(30)]
        hp = HalfPlane(1, 2, 1)
        start = constructions["Fraction"]
        for poly in polys:
            ConvexPolygon.from_h(poly.to_h())
            poly.int_box()
            edge_forms(poly)
            poly.int_forms()
            clip(poly, hp)
            poly.reflected()
            affine_image(poly, 3, 2)
        assert constructions["Fraction"] == start
        for poly in polys:
            area(poly)
        # one Fraction per area: the value returned
        assert constructions["Fraction"] == start + len(polys)
