"""Continuant polynomials and the index-sequence recurrences.

The polynomial sequence is p_{-1} = 0, p_0 = 1 and
p_j(k_1..k_j) = k_j * p_{j-1}(k_1..k_{j-1}) - p_{j-2}(k_1..k_{j-2}),
so every chain value is the linear combination
x_j = p_j(k_1..k_j)*y - p_{j-1}(k_2..k_j)*x of its two generators.

Index tuples are plain tuples of positive integers; the empty tuple is a
first-class value of order zero.  n is always caller-bounded; nothing here
iterates implicitly to infinity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import floor, gcd

from .errors import DomainError, RangeError

IndexTuple = tuple  # tuple[int, ...]; every entry >= 1


def validate_index_tuple(k) -> tuple:
    k = tuple(int(v) for v in k)
    if any(v < 1 for v in k):
        raise DomainError(f"index entries must be >= 1, got {k}")
    return k


def continuant(k: IndexTuple, j: int) -> int:
    """p_j(k_1..k_j); p_{-1} = 0 and p_0 = 1 for any k."""
    if j < -1 or j > len(k):
        raise RangeError(f"j={j} outside [-1, {len(k)}]")
    p_prev, p_cur = 0, 1          # p_{-1}, p_0
    for i in range(j):
        p_prev, p_cur = p_cur, k[i] * p_cur - p_prev
    return p_prev if j == -1 else p_cur


def continuant_shifted(k: IndexTuple, frm: int, j: int) -> int:
    """Continuant of the sub-tuple (k_frm, ..., k_{frm+j-1}), 1-indexed."""
    if frm < 1 or j < -1:
        raise RangeError(f"bad sub-range frm={frm}, j={j}")
    if j >= 1 and frm - 1 + j > len(k):
        raise RangeError(f"sub-range ({frm}, {j}) exceeds order {len(k)}")
    return continuant(tuple(k[frm - 1:frm - 1 + j]), j)


def eval_linear(k: IndexTuple, j: int, x, y):
    """x_j as the linear combination p_j(k_1..k_j)*y - p_{j-1}(k_2..k_j)*x.

    Equals the recurrence-computed chain value whenever k is the index tuple
    generated by (x, y).  By convention j = -1 gives x, and j = 0 gives y
    (p_0 = 1, p_{-1} = 0).
    """
    if j < -1 or j > len(k):
        raise RangeError(f"j={j} outside [-1, {len(k)}]")
    if j == -1:
        return Fraction(x)
    return continuant(k, j) * Fraction(y) - \
        continuant_shifted(k, 2, j - 1) * Fraction(x)


@dataclass(frozen=True)
class ValueChain:
    """Chain x_{-1} = x, x_0 = y, x_j = k_j*x_{j-1} - x_{j-2} of rationals."""

    x_minus1: Fraction
    x_0: Fraction
    successors: tuple
    indices: IndexTuple

    def value(self, j: int) -> Fraction:
        if not -1 <= j <= len(self.successors):
            raise RangeError(f"chain position {j} not generated")
        return (self.x_minus1, self.x_0, *self.successors)[j + 1]


@dataclass(frozen=True)
class DenominatorChain:
    """Integer chain of successive Farey denominators after (q', q'')."""

    Q: int
    q_minus1: int
    q_0: int
    successors: tuple
    indices: IndexTuple

    def value(self, j: int) -> int:
        if not -1 <= j <= len(self.successors):
            raise RangeError(f"chain position {j} not generated")
        return (self.q_minus1, self.q_0, *self.successors)[j + 1]


def index_sequence_real(x, y, n: int):
    """First n indices k_j = floor((1 + x_{j-2}) / x_{j-1}) and the chain.

    Requires (x, y) in the half-open Farey triangle: 0 < x, y <= 1 and
    x + y > 1.  The floor is computed exactly on rationals.
    """
    x = Fraction(x)
    y = Fraction(y)
    if not (0 < x <= 1 and 0 < y <= 1 and x + y > 1):
        raise DomainError(f"({x}, {y}) outside the Farey triangle")
    if n < 0:
        raise DomainError("n must be >= 0")
    ks = []
    vals = []
    prev, cur = x, y
    for _ in range(n):
        kj = floor((1 + prev) / cur)
        nxt = kj * cur - prev
        ks.append(kj)
        vals.append(nxt)
        prev, cur = cur, nxt
    return tuple(ks), ValueChain(x, y, tuple(vals), tuple(ks))


def index_sequence_int(qp: int, qpp: int, Q: int, n: int):
    """Integer form: k_j = floor((Q + q_{j-2}) / q_{j-1}); same indices as
    index_sequence_real(qp/Q, qpp/Q, n), position for position."""
    if not (1 <= qp <= Q and 1 <= qpp <= Q):
        raise DomainError(f"generators ({qp}, {qpp}) outside [1, {Q}]")
    if gcd(qp, qpp) != 1:
        raise DomainError(f"generators ({qp}, {qpp}) not coprime")
    if qp + qpp <= Q:
        raise DomainError(f"generator sum {qp + qpp} not above Q={Q}")
    if n < 0:
        raise DomainError("n must be >= 0")
    ks = []
    vals = []
    prev, cur = qp, qpp
    for _ in range(n):
        kj = (Q + prev) // cur
        nxt = kj * cur - prev
        ks.append(kj)
        vals.append(nxt)
        prev, cur = cur, nxt
    return tuple(ks), DenominatorChain(Q, qp, qpp, tuple(vals), tuple(ks))
