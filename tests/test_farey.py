import math

import pytest
from oracles import farey_bruteforce

from fareymosaics.errors import DomainError
from fareymosaics.farey import (ProgressionClass, choice_map,
                                consecutive_tuples, farey_filtered,
                                farey_stream, member_pairs)
from fareymosaics.progression import exact_cardinality

ALL_CLASSES_D12 = [ProgressionClass(c, d) for d in range(2, 13)
                   for c in range(d)]


class TestFareyStream:
    def test_q3_against_bruteforce(self):
        got = [(f.a, f.q) for f in farey_stream(3)]
        assert got == farey_bruteforce(3)
        assert got == [(0, 1), (1, 3), (1, 2), (2, 3), (1, 1)]

    def test_q1(self):
        assert [(f.a, f.q) for f in farey_stream(1)] == [(0, 1), (1, 1)]

    def test_bruteforce_up_to_30(self):
        for Q in range(1, 31):
            assert [(f.a, f.q) for f in farey_stream(Q)] == farey_bruteforce(Q)

    def test_q25_consecutive_run(self):
        run = ["7/16", "11/25", "4/9", "9/20", "5/11", "11/24", "6/13",
               "7/15", "8/17", "9/19", "10/21"]
        all_f = [str(f) for f in farey_stream(25)]
        i = all_f.index("7/16")
        assert all_f[i:i + len(run)] == run

    def test_counts_match_totients(self):
        phi = list(range(201))
        for p in range(2, 201):
            if phi[p] == p:
                for m in range(p, 201, p):
                    phi[m] -= phi[m] // p
        for Q in (1, 2, 10, 60, 137, 200):
            assert sum(1 for _ in farey_stream(Q)) == \
                1 + sum(phi[q] for q in range(1, Q + 1))

    def test_neighbor_identities_exhaustive(self):
        for Q in range(1, 61):
            prev = None
            pairs = set()
            for f in farey_stream(Q):
                if prev is not None:
                    ap, qp = prev
                    assert f.a * qp - ap * f.q == 1
                    assert qp + f.q > Q
                    pairs.add((qp, f.q))
                prev = (f.a, f.q)
            expected = {(u, v) for u in range(1, Q + 1)
                        for v in range(Q - u + 1, Q + 1)
                        if math.gcd(u, v) == 1}
            assert pairs == expected        # every coprime pair exactly once

    def test_q_must_be_positive(self):
        with pytest.raises(DomainError):
            list(farey_stream(0))


class TestFiltered:
    def test_q25_survivors(self):
        fr = [str(f) for f in farey_filtered(25, ProgressionClass(1, 5))]
        i = fr.index("7/16")
        assert fr[i:i + 3] == ["7/16", "5/11", "10/21"]

    def test_even_denominators_q4(self):
        assert [str(f) for f in farey_filtered(4, ProgressionClass(0, 2))] \
            == ["1/4", "1/2", "3/4"]

    def test_small_class_q2(self):
        assert [str(f) for f in farey_filtered(2, ProgressionClass(1, 3))] \
            == ["0/1", "1/1"]

    def test_matches_stream_filter(self):
        cls = ProgressionClass(2, 7)
        got = [f for f in farey_filtered(40, cls)]
        want = [f for f in farey_stream(40) if f.q % 7 == 2]
        assert got == want


class TestMemberPairs:
    def test_matches_filtered_stream(self):
        # to 1/1: every consecutive pair of class members; to 1/2: those
        # whose first member lies before 1/2
        for cls in ALL_CLASSES_D12:
            for Q in range(1, 61):
                fs = list(farey_filtered(Q, cls))
                qs = [f.q for f in fs]
                assert list(member_pairs(Q, cls)) == list(zip(qs, qs[1:])), \
                    (cls, Q)
                if Q >= 2:
                    left = [(f.q, g.q) for f, g in zip(fs, fs[1:])
                            if 2 * f.a < f.q]
                    assert list(member_pairs(Q, cls, to_half=True)) == left, \
                        (cls, Q)

    def test_mirror_half_rebuilds_whole_walk(self):
        # the pairs right of 1/2 are the left pairs reversed and mirrored;
        # when 1/2 is no member, the last left pair (q, q) straddles it
        for cls in ALL_CLASSES_D12:
            for Q in range(2, 61):
                half = list(member_pairs(Q, cls, to_half=True))
                mid = []
                if 2 % cls.d != cls.c and half:
                    half, mid = half[:-1], half[-1:]
                    assert mid[0][0] == mid[0][1]
                mirror = [(b, a) for a, b in reversed(half)]
                assert list(member_pairs(Q, cls)) == half + mid + mirror, \
                    (cls, Q)

    def test_count_matches_totient_sieve(self):
        for cls in ALL_CLASSES_D12:
            for Q in (1, cls.d - 1, cls.d, 37, 60, 251):
                if Q < 1:
                    continue
                n = sum(1 for _ in member_pairs(Q, cls))
                assert n == max(exact_cardinality(Q, cls) - 1, 0), (cls, Q)

    def test_q_must_be_positive(self):
        for Q in (0, -3):
            with pytest.raises(DomainError):
                list(member_pairs(Q, ProgressionClass(1, 5)))
        with pytest.raises(DomainError):        # F^1 has no 1/2
            list(member_pairs(1, ProgressionClass(1, 5), to_half=True))

    def test_q1(self):
        # F^1 = 0/1, 1/1: one pair (1, 1) for the classes holding 1
        for cls in ALL_CLASSES_D12:
            want = [(1, 1)] if cls.c == 1 else []
            assert list(member_pairs(1, cls)) == want


class TestConsecutiveTuples:
    def test_worked_example(self):
        tups = list(consecutive_tuples(25, ProgressionClass(1, 5), 2))
        assert ((16, 11, 21), (4, 6)) in tups

    def test_pairs_against_filtered_stream(self):
        cls = ProgressionClass(1, 2)
        qs = [f.q for f in farey_filtered(5, cls)]
        got = [t for t, _ in consecutive_tuples(5, cls, 1)]
        assert got == list(zip(qs, qs[1:]))

    def test_even_class_pairs_are_even(self):
        for (q0, q1), _ in consecutive_tuples(30, ProgressionClass(0, 2), 1):
            assert q0 % 2 == 0 and q1 % 2 == 0

    def test_rejoining_reproduces_filtered_stream(self):
        cls = ProgressionClass(3, 7)
        qs = [f.q for f in farey_filtered(35, cls)]
        tuples = list(consecutive_tuples(35, cls, 2))
        assert len(tuples) == max(0, len(qs) - 2)
        for i, (t, _r) in enumerate(tuples):
            assert list(t) == qs[i:i + 3]

    def test_type_counts_intercalated(self):
        # r_i - 1 counts in-between F^Q fractions outside the class
        cls = ProgressionClass(1, 5)
        all_q = [f.q for f in farey_stream(25)]
        positions = [i for i, q in enumerate(all_q) if q % 5 == 1]
        tuples = list(consecutive_tuples(25, cls, 1))
        assert len(tuples) == len(positions) - 1
        for (t, r), i, j in zip(tuples, positions, positions[1:]):
            assert (all_q[i], all_q[j]) == t
            assert j - i == r[0]
            between = all_q[i + 1:j]
            assert all(q % 5 != 1 for q in between)
            assert len(between) == r[0] - 1


class TestChoiceMap:
    def test_worked_example(self):
        assert choice_map(16, 25, 25, (4, 6)) == (16, 11, 21)

    def test_r1_is_identity_pair(self):
        assert choice_map(7, 9, 10, (1,)) == (7, 9)

    def test_chain_oracle(self):
        assert choice_map(2, 3, 3, (1, 1)) == (2, 3, 1)

    def test_agrees_with_tuple_extraction(self):
        # anchor each extracted tuple at its own occurrence: the generator
        # pair is (q_i, q_{i+1}) at the anchor position i
        cls = ProgressionClass(1, 5)
        all_q = [f.q for f in farey_stream(25)]
        positions = [i for i, q in enumerate(all_q) if q % 5 == 1]
        for (t, r), i in zip(consecutive_tuples(25, cls, 2), positions):
            qp, qpp = all_q[i], all_q[i + 1]
            assert choice_map(qp, qpp, 25, r) == t
