import math
import random
from fractions import Fraction as F

import pytest
from oracles import (lattice_count_sections, polygon_diameter_float,
                     random_convex_polygon)

from fareymosaics.errors import DomainError, SizeError
from fareymosaics.farey import ProgressionClass, farey_filtered, farey_stream
from fareymosaics.geometry import ConvexPolygon, HalfPlane, area
from fareymosaics.progression import (admissible_residues,
                                      cardinality_prediction, euler_phi,
                                      exact_cardinality, lattice_count_exact,
                                      lattice_main_term,
                                      predicted_cardinality, residue_trace,
                                      squarefree_factor)

T = ConvexPolygon([(0, 1), (1, 0), (1, 1)])
OPEN_DIAGONAL = [HalfPlane(-1, -1, -1, closed=False)]


class TestResidueTrace:
    def test_worked_example_mod5(self):
        assert residue_trace((1, 5, 1, 4, 1, 3, 2, 2, 2), 1, 0, 5) == \
            [1, 0, 4, 0, 1, 4, 3, 0, 2, 4, 1]

    def test_empty_tuple(self):
        assert residue_trace((), 1, 1, 5) == [1, 1]

    def test_single_step_mod2(self):
        assert residue_trace((2,), 0, 1, 2) == [0, 1, 0]

    def test_linearity_in_seed(self):
        # trace is p_j(k_1..k_j)*e - p_{j-1}(k_2..k_j)*c mod d
        from fareymosaics.continuants import continuant, continuant_shifted
        k = (2, 1, 4, 3)
        c, e, d = 2, 5, 7
        tr = residue_trace(k, c, e, d)
        for j in range(1, len(k) + 1):
            want = (continuant(k, j) * e
                    - continuant_shifted(k, 2, j - 1) * c) % d
            assert tr[j + 1] == want


class TestAdmissibleResidues:
    def test_worked_example(self):
        res = admissible_residues((1, 5, 1, 4, 1, 3, 2, 2, 2), (4, 6),
                                  ProgressionClass(1, 5))
        assert 0 in res.residues

    def test_empty_tuple_even_class(self):
        res = admissible_residues((), (1,), ProgressionClass(0, 2))
        assert res.residues == frozenset()

    def test_empty_tuple_unit_class(self):
        res = admissible_residues((), (1,), ProgressionClass(1, 5))
        assert res.sorted() == [1]

    def test_kernel_five_full_multiplicity(self):
        res = admissible_residues((2, 2, 2, 2), (5,), ProgressionClass(1, 5))
        assert res.sorted() == [0, 2, 3, 4]
        assert res.multiplicity == 4

    def test_selected_positions_hit_and_others_miss(self):
        cls = ProgressionClass(1, 5)
        k, pattern = (1, 5, 1, 4, 1, 3, 2, 2, 2), (4, 6)
        res = admissible_residues(k, pattern, cls)
        for e in res.residues:
            assert math.gcd(1, e, 5) == 1
            tr = residue_trace(k, 1, e, 5)
            selected = {pattern[0] - 1, sum(pattern) - 1}
            for pos in range(sum(pattern)):
                assert (tr[pos + 1] == 1) == (pos in selected)

    def test_order_mismatch_raises(self):
        with pytest.raises(DomainError):
            admissible_residues((2, 2), (2,), ProgressionClass(1, 5))


class TestTotients:
    def test_phi(self):
        assert euler_phi(12) == 4
        assert euler_phi(1) == 1
        assert [euler_phi(n) for n in range(1, 11)] == \
            [1, 1, 2, 2, 4, 2, 6, 4, 6, 4]

    def test_squarefree_factor(self):
        assert squarefree_factor(12) == F(3, 2)      # (4/3) * (9/8)
        assert squarefree_factor(1) == 1
        assert squarefree_factor(5) == F(25, 24)


class TestPredictedCardinality:
    def test_unit_class_value(self):
        got = predicted_cardinality(1000, ProgressionClass(1, 5))
        assert abs(got - 63325.7) < 0.2

    def test_q_zero(self):
        assert predicted_cardinality(0, ProgressionClass(1, 5)) == 0.0

    def test_exact_coefficient(self):
        pred = cardinality_prediction(1000, ProgressionClass(1, 5))
        assert pred.coefficient == F(3, 5) * F(25, 24)

    def test_even_class_specialization(self):
        # c = 0: the prefactor reduces with g = d
        pred = cardinality_prediction(100, ProgressionClass(0, 2))
        assert pred.coefficient == F(3 * 1, 2 * 2) * F(4, 3)

    def test_against_exact_counts(self):
        for (c, d) in [(1, 5), (0, 5), (3, 12), (1, 2), (0, 2)]:
            cls = ProgressionClass(c, d)
            exact = exact_cardinality(300, cls)
            stream = sum(1 for _ in farey_filtered(300, cls))
            assert exact == stream
            pred = predicted_cardinality(300, cls)
            assert abs(exact - pred) / pred < 0.05


class TestLatticeCount:
    def test_unit_square_coprime_pairs(self):
        sq = ConvexPolygon([(0, 0), (1, 0), (1, 1), (0, 1)])
        assert lattice_count_exact(sq, 10, 0, 0, 1) == 63

    def test_farey_triangle_cross_module(self):
        for Q in (10, 60, 120):
            got = lattice_count_exact(T, Q, 0, 0, 1,
                                      open_edges=OPEN_DIAGONAL)
            pairs = sum(1 for _ in farey_stream(Q)) - 1
            assert got == pairs

    def test_empty_polygon(self):
        assert lattice_count_exact(ConvexPolygon(()), 10, 0, 0, 1) == 0

    def test_size_error(self):
        sq = ConvexPolygon([(0, 0), (1, 0), (1, 1), (0, 1)])
        with pytest.raises(SizeError):
            lattice_count_exact(sq, 10 ** 5, 0, 0, 1)

    def test_residue_classes_bruteforce(self):
        rng = random.Random(41)
        sq = ConvexPolygon([(0, 0), (1, 0), (1, 1), (0, 1)])
        for _ in range(10):
            d = rng.randint(1, 5)
            a, b = rng.randint(0, d - 1), rng.randint(0, d - 1)
            got = lattice_count_exact(sq, 30, a, b, d)
            want = sum(1 for m in range(1, 31) for n in range(1, 31)
                       if m % d == a and n % d == b and math.gcd(m, n) == 1)
            assert got == want

    def test_integer_sections_match_fraction_sections(self):
        # the column sections from integer edge forms against the Fraction
        # edge crossings they replaced, on polygons with vertices and
        # vertical edges at fractional, integral and negative coordinates
        rng = random.Random(43)
        polys = [random_convex_polygon(rng, denom=rng.choice((1, 2, 3, 7)),
                                       span=3) for _ in range(60)]
        polys += [ConvexPolygon([(F(3, 2), F(1, 2)), (F(7, 2), F(1, 2)),
                                 (F(7, 2), F(5, 2)), (F(3, 2), F(5, 2))]),
                  ConvexPolygon([(1, 0), (2, 0), (2, 3), (1, 3)]), T]
        for poly in polys:
            for _ in range(4):
                scale, d = rng.randint(1, 40), rng.randint(1, 5)
                a, b = rng.randint(0, d - 1), rng.randint(0, d - 1)
                opens = rng.choice(([], OPEN_DIAGONAL,
                                    [HalfPlane(1, -2, F(1, 3), closed=False)]))
                assert lattice_count_exact(poly, scale, a, b, d,
                                           open_edges=opens) == \
                    lattice_count_sections(poly, scale, a, b, d, opens)
        assert lattice_count_exact(polys[-3], 1, 0, 0, 1) == 3


class TestLatticeMainTerm:
    def test_classical_density(self):
        got = lattice_main_term(1, 100, 1)
        assert abs(got - 6.0e4 / math.pi ** 2) < 1e-9

    def test_formula_arithmetic(self):
        got = lattice_main_term(F(1, 2), 100, 2)
        assert abs(got - 1013.2118364) < 1e-6

    def test_zero_area(self):
        assert lattice_main_term(0, 100, 3) == 0.0

    def test_error_bound_sample(self):
        rng = random.Random(43)
        for _ in range(12):
            poly = random_convex_polygon(rng, denom=20, span=2, nonneg=True)
            d = rng.randint(1, 4)
            a, b = rng.randint(0, d - 1), rng.randint(0, d - 1)
            if math.gcd(a, b, d) != 1:
                continue
            diam = polygon_diameter_float(poly)
            scale = rng.randint(20, max(21, int(500 / diam)))
            exact = lattice_count_exact(poly, scale, a, b, d, max_extent=2500)
            main = lattice_main_term(area(poly), scale, d)
            r = max(scale * diam, 2.0)
            assert abs(exact - main) <= 3.0 * r * math.log(r)
