"""Streaming Farey sequences, progression filtering, and tuple extraction.

Streams are pull-based generators with O(1) state, so large-Q empirical runs
never hold a sequence in memory.  F^Q includes both endpoints 0/1 and 1/1.
Streams are single-consumer iterators; independent streams are safe on
different threads.

F^Q is invariant under x -> 1 - x, which keeps denominators, so its
denominator sequence is a palindrome centred at 1/2 (a member of F^Q once
Q >= 2).  The consecutive class-member pairs (q, q') right of 1/2 are
therefore the reversed pairs (q', q) left of it; when 1/2 is not a member,
the one pair that straddles it is (q, q) for the last member q before it.
member_pairs(..., to_half=True) walks only the left half on that account.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple

from .continuants import index_sequence_int
from .errors import DomainError

TupleType = tuple  # gap pattern r = (r_1, ..., r_s), every entry >= 1


class FareyFraction(NamedTuple):
    a: int
    q: int

    def __str__(self):
        return f"{self.a}/{self.q}"


@dataclass(frozen=True)
class ProgressionClass:
    """Residue class of denominators: q = c (mod d) with d >= 2."""

    c: int
    d: int

    def __post_init__(self):
        if self.d < 2:
            raise DomainError(f"modulus must be >= 2, got {self.d}")
        if not 0 <= self.c <= self.d - 1:
            raise DomainError(f"residue {self.c} outside [0, {self.d - 1}]")


def farey_stream(Q: int) -> Iterator[FareyFraction]:
    """All fractions of F^Q from 0/1 to 1/1 via the next-term recurrence."""
    if Q < 1:
        raise DomainError(f"Q must be >= 1, got {Q}")
    a0, q0 = 0, 1
    a1, q1 = 1, Q
    yield FareyFraction(a0, q0)
    while True:
        yield FareyFraction(a1, q1)
        if a1 == 1 and q1 == 1:
            return
        k = (Q + q0) // q1
        a0, q0, a1, q1 = a1, q1, k * a1 - a0, k * q1 - q0


def farey_filtered(Q: int, cls: ProgressionClass) -> Iterator[FareyFraction]:
    """The subsequence of F^Q whose denominators are = c (mod d)."""
    c = cls.c % cls.d
    for f in farey_stream(Q):
        if f.q % cls.d == c:
            yield f


def member_pairs(Q: int, cls: ProgressionClass,
                 to_half: bool = False) -> Iterator[tuple]:
    """Denominator pairs (q, q') of consecutive F^Q(c,d) members, from 0/1.

    One integer walk (q0, q1) -> (q1, floor((Q + q0)/q1)*q1 - q0) over the
    denominators of F^Q: no fractions, no numerators.  It stops at 1/1, or
    with to_half (Q >= 2) at 1/2, the only fraction of denominator 2: the
    pairs yielded are then those whose first member lies before 1/2, the
    last of them being the pair that ends at 1/2, or, when 1/2 is not a
    member, the pair (q, q) that straddles it (see the module docstring).
    """
    if Q < 1:
        raise DomainError(f"Q must be >= 1, got {Q}")
    if to_half and Q < 2:
        raise DomainError(f"F^{Q} has no 1/2")
    d = cls.d
    c = cls.c % d
    stop = 2 if to_half else 1
    prev = 1 if 1 % d == c else None        # 0/1
    q0, q1 = 1, Q
    while q1 != stop:
        if q1 % d == c:
            if prev is not None:
                yield prev, q1
            prev = q1
        k = (Q + q0) // q1
        q0, q1 = q1, k * q1 - q0
    if prev is not None:
        if stop % d == c:
            yield prev, stop
        elif to_half:
            yield prev, prev


def consecutive_tuples(Q: int, cls: ProgressionClass, s: int):
    """(s+1)-tuples of consecutive F^Q(c,d) denominators with their type.

    The type r records positional gaps in F^Q: r_i - 1 intercalated
    fractions of F^Q sit between the i-1st and i-th class members.  The
    final incomplete window is discarded rather than wrapped.
    """
    if s < 1:
        raise DomainError(f"s must be >= 1, got {s}")
    c = cls.c % cls.d
    window = []       # (denominator, position in F^Q) of recent class members
    for pos, f in enumerate(farey_stream(Q)):
        if f.q % cls.d != c:
            continue
        window.append((f.q, pos))
        if len(window) == s + 1:
            qs = tuple(q for q, _ in window)
            r = tuple(window[i + 1][1] - window[i][1] for i in range(s))
            yield qs, r
            window.pop(0)


def choice_map(qp: int, qpp: int, Q: int, r: TupleType) -> tuple:
    """Select chain positions -1, -1+r_1, ..., -1+|r| from the denominator
    chain generated by (q', q'')."""
    r = tuple(int(v) for v in r)
    if not r or any(v < 1 for v in r):
        raise DomainError(f"pattern entries must be >= 1, got {r}")
    total = sum(r)
    _, chain = index_sequence_int(qp, qpp, Q, total)
    out = [chain.value(-1)]
    pos = -1
    for ri in r:
        pos += ri
        out.append(chain.value(pos))
    return tuple(out)
