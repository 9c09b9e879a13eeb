"""Reference mosaic catalogs for small moduli, used as regression goldens.

Each entry is (kernel, name, tile count, order_min, order_max, vertices).
A count of None marks a mosaic with infinitely many tiles (its vertices are
the limit outline).  ABSENT_KERNELS lists kernels that carry no mosaic at
all for the class.

Two data points in the circulated d=5 / d=12 catalogs fail independent
verification and are stored here in their corrected form (the published
originals are kept alongside for reference and regression-tested as known
discrepancies):

* d=5, kernel 9, the NP_4 pair: published as 7 tiles each, but exhaustive
  enumeration cross-checked against brute-force Farey chains at Q = 4000
  realizes 14 tiles each (orders 4-15, matching the published order range),
  and the type-density of kernel-9 pairs measured at Q = 12000 matches the
  14-tile outline (corner at (1,8/13)), not the 7-tile pentagon corner at
  (1,5/7): equal-area strips on both sides of (1,8/13) carry equal density
  (ratio 1.004), where the published shape would halve it.

* d=12, kernel 27, the NQ_6 pair: the published diagonal corner
  (11/19,10/19) is the outline corner of a lower-order truncation; the
  complete 124-tile mosaic (orders 6-37, count and orders as published)
  reaches the diagonal at (9/17,9/17), and kernel-27-type pairs are
  realized inside the disputed sliver at rates growing like Q^2.
"""

from fractions import Fraction

from .geometry import RatPoint

# d = 5, classes c = 1, 2, 3, 4 (identical mosaics for all four).
D5_ROWS = [
    (1, "SQ_0[·]", 21, 0, 9, "(1,1); (0,1); (1/6,1/6); (1,0)"),
    (3, "SQ_1[3]", 7, 1, 5, "(1,1); (2/7,1); (3/8,3/8); (1,2/7)"),
    (4, "SQ_1[4]", 27, 1, 11, "(1,1); (3/13,1); (2/7,2/7); (1,3/13)"),
    (5, "SHV_4[2,2,2,2]", 35, 4, 14,
     "(1,1); (1/6,1); (8/43,23/43); (1/2,1/2); (23/43,8/43); (1,1/6)"),
    (6, "SH_1[6]", 51, 1, 11,
     "(1,1); (1/5,1); (4/19,14/19); (3/8,3/8); (14/19,4/19); (1,1/5)"),
    (7, "NQ_2[2,4]", 6, 2, 6, "(1,1); (6/11,1); (3/5,2/5); (1,3/8)"),
    (7, "NQ_2[4,2]", 6, 2, 6, "(1,1); (3/8,1); (2/5,3/5); (1,6/11)"),
    (7, "NP_3[2,2,3]", 30, 3, 12,
     "(1,1); (3/13,1); (7/17,7/17); (4/5,1/5); (1,6/31)"),
    (7, "NP_3[3,2,2]", 30, 3, 12,
     "(1,1); (6/31,1); (1/5,4/5); (7/17,7/17); (1,3/13)"),
    (8, "SQ_1[8]", 21, 1, 9, "(1,1); (7/17,1); (4/9,4/9); (1,7/17)"),
    (8, "SH_3[2,3,2]", 36, 3, 13,
     "(1,1); (7/37,1); (6/31,26/31); (4/9,4/9); (26/31,6/31); (1,7/37)"),
    (9, "SQ_1[9]", 33, 1, 9, "(1,1); (2/7,1); (9/19,9/19); (1,2/7)"),
    # amended pair, see module docstring: published as 7 tiles with corner
    # vertex (1,5/7) resp. (5/7,1)
    (9, "NP_4[2,2,2,3]", 14, 4, 15,
     "(1,1); (8/43,1); (7/37,32/37); (1/3,2/3); (1,8/13)"),
    (9, "NP_4[3,2,2,2]", 14, 4, 15,
     "(1,1); (8/13,1); (2/3,1/3); (32/37,7/37); (1,8/43)"),
]

D5_ABSENT_KERNELS = [2]

# Published values that fail verification, kept for the discrepancy tests.
D5_PUBLISHED_NP4 = [
    (9, "NP_4[2,2,2,3]", 7, 4, 15,
     "(1,1); (8/43,1); (7/37,32/37); (1/3,2/3); (1,5/7)"),
    (9, "NP_4[3,2,2,2]", 7, 4, 15,
     "(1,1); (5/7,1); (2/3,1/3); (32/37,7/37); (1,8/43)"),
]

# d = 12, c = 3.  Counts of None mean infinitely many tiles.  Kernels 6,
# 12, 18 and 24 are listed separately below: their mosaics stack (the
# constant-density reading fails, multiplicities vary inside one mosaic)
# and the published per-mosaic split is not reproduced by seeded growth,
# which reports the ambiguity instead; their kernel-level totals are
# verified and recorded in D12_STACKED_KERNELS.
D12_ROWS = [
    (3, "SH_1[3]", None, 1, None,
     "(1,1); (0,1); (1/13,5/13); (1/5,1/5); (5/13,1/13); (1,0)"),
    (3, "SQ_2[2,2]", None, 2, None, "(1,1); (0,1); (1/5,1/5); (1,0)"),
    (9, "SQ_1[9]", 63, 1, 13, "(1,1); (1/5,1); (3/7,3/7); (1,1/5)"),
    (9, "NQ_4[2,2,2,3]", 56, 4, 18, "(1,1); (1/5,1); (1/4,1/2); (1,1/5)"),
    (9, "NQ_4[3,2,2,2]", 56, 4, 18, "(1,1); (1/5,1); (1/2,1/4); (1,1/5)"),
    (15, "SQ_1[15]", 38, 1, 11, "(1,1); (3/7,1); (5/9,5/9); (1,3/7)"),
    (15, "SH_7[2,3,1,5,1,3,2]", 173, 7, 29,
     "(1,1); (1/4,1); (3/11,7/11); (5/13,5/13); (7/11,3/11); (1,1/4)"),
    (15, "NQ_4[3,2,1,10]", 117, 4, 27,
     "(1,1); (3/11,1); (5/13,5/13); (1,1/3)"),
    (15, "NQ_4[10,1,2,3]", 117, 4, 27,
     "(1,1); (1/3,1); (5/13,5/13); (1,3/11)"),
    (15, "NQ_7[3,2,2,2,2,2,2]", 35, 7, 20,
     "(1,1); (1/3,1); (7/19,11/19); (1,1/2)"),
    (15, "NQ_7[2,2,2,2,2,2,3]", 35, 7, 20,
     "(1,1); (1/2,1); (11/19,7/19); (1,1/3)"),
    (21, "SQ_1[21]", 36, 1, 11, "(1,1); (5/9,1); (7/11,7/11); (1,5/9)"),
    (21, "NT_5[3,2,2,1,14]", 64, 5, 28, "(1,1); (1/3,1); (1,1/5)"),
    (21, "NT_5[14,1,2,2,3]", 64, 5, 28, "(1,1); (1/5,1); (1,1/3)"),
    (21, "SQ_7[4,2,1,7,1,2,4]", 16, 7, 13,
     "(1,1); (5/9,1); (7/11,7/11); (1,5/9)"),
    (21, "NQ_8[2,2,3,1,4,2,1,7]", 12, 8, 14,
     "(1,1); (3/5,1); (7/11,7/11); (1,1/2)"),
    (21, "NQ_8[7,1,2,4,1,3,2,2]", 12, 8, 14,
     "(1,1); (1/2,1); (7/11,7/11); (1,3/5)"),
    (21, "NQ_10[2,2,2,2,2,2,2,2,2,3]", 22, 10, 21,
     "(1,1); (1/2,1); (5/7,3/7); (1,5/13)"),
    (21, "NQ_10[3,2,2,2,2,2,2,2,2,2]", 22, 10, 21,
     "(1,1); (5/13,1); (3/7,5/7); (1,1/2)"),
    (27, "SQ_1[27]", 36, 1, 11, "(1,1); (7/11,1); (9/13,9/13); (1,7/11)"),
    # amended pair, see module docstring: published diagonal corner was
    # (11/19,10/19) resp. (10/19,11/19)
    (27, "NQ_6[10,1,2,3,1,6]", 124, 6, 37,
     "(1,1); (1/5,1); (9/17,9/17); (1,1/2)"),
    (27, "NQ_6[6,1,3,2,1,10]", 124, 6, 37,
     "(1,1); (1/2,1); (9/17,9/17); (1,1/5)"),
    (27, "NQ_8[2,3,2,1,8,1,2,4]", 32, 8, 23,
     "(1,1); (5/13,1); (7/15,11/15); (1,7/11)"),
    (27, "NQ_8[4,2,1,8,1,2,3,2]", 32, 8, 23,
     "(1,1); (7/11,1); (11/15,7/15); (1,5/13)"),
]

D12_PUBLISHED_NQ6 = [
    (27, "NQ_6[10,1,2,3,1,6]", 124, 6, 37,
     "(1,1); (1/5,1); (11/19,10/19); (1,1/2)"),
    (27, "NQ_6[6,1,3,2,1,10]", 124, 6, 37,
     "(1,1); (1/2,1); (10/19,11/19); (1,1/5)"),
]

# d = 12 kernels whose mosaics stack with varying multiplicities.  The
# published per-mosaic split is not determined by seeded edge growth (the
# assembler raises AmbiguityError there, as designed), but the kernel-level
# aggregates are verified exactly: the published per-mosaic tile counts sum
# to the enumerated total, and the published order ranges union to the
# enumerated range.  Entries: kernel -> (total tiles, order_min, order_max,
# max_order needed, published per-mosaic rows).
D12_STACKED_KERNELS = {
    6: (738, 1, 41, 41, [("SQ_1[6]", 314, 1, 41),
                         ("SH_5[2,2,2,2,2]", 424, 5, 39)]),
    12: (163, 5, 29, 30, [("SO_5[3,1,6,1,3]", 142, 5, 29),
                          ("SQ_11[2,2,2,2,2,2,2,2,2,2,2]", 21, 11, 20)]),
    18: (502, 1, 28, 29, [("SQ_1[18]", 246, 1, 26),
                          ("NQ_6[2,3,1,5,1,4]", 128, 6, 28),
                          ("NQ_6[4,1,5,1,3,2]", 128, 6, 28)]),
    24: (334, 9, 33, 34, [("SQ_9[6,1,3,1,6,1,3,1,6]", 79, 9, 26),
                          ("SHV_9[2,2,3,1,5,1,3,2,2]", 161, 9, 33),
                          ("SH_11[4,1,4,1,4,1,4,1,4,1,4]", 94, 11, 27)]),
}


def rows_for(d: int, kernels=None):
    """Catalog rows for modulus d, optionally restricted to some kernels."""
    rows = D5_ROWS if d == 5 else D12_ROWS if d == 12 else None
    if rows is None:
        raise KeyError(f"no reference catalog for d={d}")
    if kernels is not None:
        kernels = set(kernels)
        rows = [r for r in rows if r[0] in kernels]
    return list(rows)


def parse_vertices(s: str):
    """Parse a '(1,1); (2/7,1); ...' vertex string into RatPoints."""
    out = []
    for part in s.split(";"):
        part = part.strip().strip("()")
        xs, ys = part.split(",")
        out.append(RatPoint(Fraction(xs), Fraction(ys)))
    return out
