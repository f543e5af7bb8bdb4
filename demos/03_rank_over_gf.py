"""Exact dense rank over a small prime field.

The engine consumes columns in blocks, keeps an accumulating basis in
Jordan-normalized generations, and does the bulk arithmetic in float64
matrix products that are exact because every intermediate stays below
2^52.  Ranks over Z_P lower-bound ranks in characteristic zero, which is
the one-sided guarantee the whole verification rests on.
"""

import numpy as np

from chowdefect import rank_from_column_blocks

P = 8191
rng = np.random.default_rng(7)


def rank(matrix):
    """The rank of matrix, its columns streamed in blocks of 64."""
    blocks = (matrix[:, a : a + 64] for a in range(0, matrix.shape[1], 64))
    return rank_from_column_blocks(blocks, matrix.shape[0], P, total_cols=matrix.shape[1])


print("identity_5 rank:", rank(np.eye(5)))
print("proportional columns rank:", rank(np.array([[1, 2], [2, 4], [3, 6]])))

low = (rng.integers(0, P, (300, 12)) @ rng.integers(0, P, (12, 450))) % P
print("300 x 450 product of rank-12 factors:", rank(low))

perm = low[rng.permutation(300)][:, rng.permutation(450)]
print("after row/column shuffles:", rank(perm))
