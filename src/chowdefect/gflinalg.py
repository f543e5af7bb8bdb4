"""Exact rank over Z_P of a matrix streamed in column blocks.

Rank is computed by a blocked elimination that accumulates a column
basis in generations: each incoming block of columns is cleared against
every earlier generation with one matrix product per generation, and the
genuinely new pivots are Jordan-normalized among themselves and frozen as
the next generation.

The basis keeps a row permutation, as a PLUQ factorization does (Dumas,
Giorgi & Pernet, ACM TOMS 2008), so that the rows without a pivot form a
contiguous suffix.  A generation is exactly zero on every earlier pivot
row and the identity on its own, so it is stored only on the rows below
its pivot block, and both clearing and pivot extraction touch only the
rows still free.  Its entries are residues below P < 2^15, so each
generation is stored as int16 (gfpoly.RESIDUE_DTYPE), and the stored
basis never exceeds 2 * (n*r - r^2/2) bytes for n rows and rank r.

Pivots of a tall block are sought on a sample of its rows.  When the
cleared block F has m free rows and b < m/3 columns, s = b + 32 rows
at evenly spaced positions are stacked over the b x b identity and
Jordan-normalized, with pivots allowed only in the s sample rows (the
leaf's pivot search reads only a row prefix, whose length is passed
to each leaf).  The identity rows then hold W, the combination
of F's columns whose Jordan form they are, and the new generation is
F @ W on all free rows: one product in place of a full-height
elimination.  The rank stays exact:

- columns independent on the sample rows are independent on all rows,
  so the g pivots found are pivots of the block;
- if g = b the block has full column rank and F @ W spans it;
- if g < b, the residual F - (F @ W) F[pivot rows] is F cleared against
  the new generation.  If it is zero, F lies in the span; if not, the
  sample missed directions, and the residual is eliminated at full
  height as one more generation.

The sample decides only how fast the rank is found, never its value.

Incoming blocks are cleared and absorbed in panels whose width depends
on the row count alone (_panel_width).  Finding a b-wide panel's pivots
and Jordan-normalizing them costs about 2*m*b^2 flops on m free rows,
which over a rank of n rows is about 1.5*b/n of the clearing work: 40%
at n = 969 for b = 256, 8% at 4495 and 0.4% at 98,770.  So below 2048
rows panels are _LEAF_WIDTH = 64 wide and their pivots come straight
from the leaf, at full height or on the sampled stack.  From 2048 rows
on they are DEFAULT_BLOCK = 256 wide, as narrow panels then cost more
in clearing (one product of inner dimension 64 per generation for every
later panel) than they save.  Best-of-5 rank times of quaternary
statements (2-core x86-64, OpenBLAS on one thread), 64- vs 256-wide
panels: 51 vs 76 ms at 969 rows, 187 vs 227 ms at 1771, 525 vs 519 ms
at 2600, 2.54 vs 2.25 s at 4495; the crossover lies near 2600 rows.

All bulk arithmetic runs in float64 BLAS calls on integers.  Column
blocks arrive as int16, and permuting one into basis order is both its
only copy and the one place it is widened to float64; a stored
generation is widened one row chunk at a time, into one scratch buffer,
just before its product.  Entries are kept in 0..P-1 with P < 2^15 and
reduction is delayed: a cleared block accumulates at most rank products
of two reduced values, and the sampled products have inner dimension
b < m, so every partial result stays below 2^53 where float64 is exact.
The computed rank is therefore the exact rank over Z_P, independent of
BLAS threading or scheduling.
"""

from __future__ import annotations

from typing import Callable, Iterator

import numpy as np

from .gfpoly import RESIDUE_DTYPE, DimensionMismatch, PrimeField

DEFAULT_BLOCK = 256

ProgressHook = Callable[[int, int, int], None]  # (cols_done, cols_total, rank_so_far)


_LEAF_WIDTH = 64  # up to this width, column-at-a-time elimination beats matmuls
_PANEL_ROWS = 2048  # from this many rows on, blocks are absorbed in DEFAULT_BLOCK-wide panels
_SAMPLE_EXTRA = 32  # a tall block of width b seeks its pivots on b + 32 of its rows
_CLEAR_ROWS = 1024  # clearing products and reductions run over this many rows at a time


def _reduce_mod(arr: np.ndarray, p: int) -> np.ndarray:
    """In-place exact mod p for integral float64 values below 2^52.

    Below about 600 entries one `%` is fastest (4x at 64, a leaf's width).
    From there on reduce via floor(x/p), as np.mod costs more than the
    products it follows: the quotient may be off by one from rounding,
    leaving a residue in (-p, 2p) that two conditional fixups repair.
    Every intermediate stays below 2^52, so all is exact.  The six calls
    take about 10 us at any size, 3x less than `%` at 4495 entries.  A
    matrix taller than _CLEAR_ROWS is reduced in row chunks, so that its
    quotient temporary is a chunk, not a copy of the whole matrix.
    """
    if arr.size < 600:
        arr %= p
        return arr
    if arr.ndim == 2 and len(arr) > _CLEAR_ROWS:
        for a in range(0, len(arr), _CLEAR_ROWS):
            _reduce_mod(arr[a : a + _CLEAR_ROWS], p)
        return arr
    q = np.multiply(arr, 1.0 / p)
    np.floor(q, out=q)
    q *= p
    arr -= q
    np.add(arr, p, out=arr, where=arr < 0)
    np.subtract(arr, p, out=arr, where=arr >= p)
    return arr


def _extract_leaf(B: np.ndarray, p: int, head: int | None = None) -> tuple[np.ndarray | None, list[int]]:
    """Unblocked left-looking elimination on a narrow cleared, reduced block.

    Each column is cleared against the pivot columns so far, the rows of
    C, through X, their inverse on the pivot rows (lower triangular), and
    reduced once; C.T @ X is their Jordan form.  X's new row is one product
    times p - inv, exact as k*p^3 < 2^51 for k < 64 and p < 2^15.  Pivots
    are taken only in the first `head` rows, if given: a column that is
    zero there once cleared counts as dependent.  Each pivot takes a new
    allowed row, so the search stops once they are all taken.
    """
    cap = B.shape[0] if head is None else head
    cols = np.array(B.T)  # one contiguous row per column of B
    C = np.empty((min(len(cols), cap), B.shape[0]), dtype=np.float64)
    X = np.zeros((len(C), len(C)), dtype=np.float64)
    rows = np.empty(len(C), dtype=np.intp)
    k = 0
    for col in cols:
        if k:  # before the first pivot a column is B's own, already reduced
            col -= (X[:k, :k] @ col[rows[:k]] % p) @ C[:k]
            _reduce_mod(col, p)
        nz = col[:head].nonzero()[0]
        if not nz.size:
            continue
        row = nz[0]
        inv = pow(int(col[row]), p - 2, p)
        C[k] = col
        X[k, :k] = C[:k, row] @ X[:k, :k] * (p - inv) % p
        X[k, k] = inv
        rows[k] = row
        k += 1
        if k == cap:
            break
    if not k:
        return None, []
    return _reduce_mod(C[:k].T @ X[:k, :k], p), rows[:k].tolist()


def _extract_jordan(B: np.ndarray, p: int, head: int | None = None) -> tuple[np.ndarray | None, list[int]]:
    """Jordan-normalized independent columns of a cleared, reduced block.

    A block wider than _LEAF_WIDTH is cleared through a temporary
    generation basis in _LEAF_WIDTH-wide pieces, each piece's pivots
    taken by _extract_leaf, so the work between pieces lands in matrix
    products; the returned columns are an exact identity on their own
    pivot rows.  `head` restricts the pivot rows as in _extract_leaf.
    Pivot moves only touch rows up to the last pivot row, so the rows
    past `head` keep their places, and in the temporary basis the allowed
    rows are the first head - rank free ones.
    """
    cap = B.shape[0] if head is None else head
    if B.shape[1] == 0 or cap <= 0:
        return None, []
    if B.shape[1] <= _LEAF_WIDTH:
        return _extract_leaf(B, p, head)
    temp = _GenerationBasis(B.shape[0], p)
    for a in range(0, B.shape[1], _LEAF_WIDTH):
        F = temp.clear_block(B[:, a : a + _LEAF_WIDTH])
        temp.store(*_extract_leaf(F, p, None if head is None else head - temp.rank))
        if temp.rank == cap:
            break
    g = temp.rank
    if g == 0:
        return None, []
    # In basis order the generations stack into an m x g matrix C whose
    # top g x g block L is block unit lower triangular.  Its inverse X
    # follows by block forward substitution, X[i, :i] = -L[i, :i] @ X[:i, :i],
    # one product per generation, which reads C only below the diagonal
    # blocks; C @ X is the identity on top, and its rows are scattered
    # back to the block's own row order.
    C = np.empty((B.shape[0], g), dtype=np.float64)
    X = np.eye(g)
    for start, end, T in temp.generations:
        C[end:, start:end] = T
        X[start:end, :start] = _reduce_mod(-(C[start:end, :start] @ X[:start, :start]), p)
    Cn = np.empty_like(C)
    Cn[temp.perm[:g]] = np.eye(g)
    Cn[temp.perm[g:]] = _reduce_mod(C[g:] @ X, p)
    return Cn, temp.perm[:g].tolist()


def _pivot_moves(rows: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Row moves (dest, src) that bring row rows[i] to position i.

    Only the g = len(rows) leading positions and the pivot rows beyond
    them change: each non-pivot row displaced from the front takes the
    place of a pivot row.  So X[dest] = X[src] touches at most 2g rows,
    the same rows a sequence of LAPACK laswp swaps would.
    """
    g = len(rows)
    piv = np.asarray(rows, dtype=np.intp)
    displaced = np.ones(g, dtype=bool)
    displaced[piv[piv < g]] = False
    dest = np.concatenate([np.arange(g), piv[piv >= g]])
    src = np.concatenate([piv, np.nonzero(displaced)[0]])
    return dest, src


class _GenerationBasis:
    """Column basis accumulated in Jordan-normalized generations, stored on
    free rows only, as int16.

    `perm` maps basis positions to input rows and `inv` is its inverse.
    Positions 0..rank-1 hold the pivot rows in the order they were found
    and the rest are free.  A generation with pivot positions start..end-1
    has columns that are zero above start and the identity on its own
    block, so only its (length - end) x g part below the block is stored.
    Incoming blocks are permuted once and cleared generation by generation
    in order, each product touching only the rows below that generation.
    New pivot rows are moved to the front of the free suffix by row swaps
    that are applied to every stored generation, so no generation is
    ever recomputed or gathered in full.
    """

    def __init__(self, length: int, p: int):
        if length * (p - 1) ** 2 >= 2**52:
            raise OverflowError("matrix too large for exact float64 accumulation")
        self.p = p
        self.perm = np.arange(length)
        self.inv = np.arange(length)
        self.generations: list[tuple[int, int, np.ndarray]] = []  # (start, end, int16 rows below end)
        self.rank = 0
        self._wide = np.empty(0)  # float64 scratch that one int16 row chunk is widened into

    def clear_block(self, B: np.ndarray) -> np.ndarray:
        """The free rows of block B, cleared against all generations and reduced.

        B is (length x b) in input row order, int16 from the builders, and
        is left untouched; the result is a new (length - rank) x b float64
        array in basis order.  Permuting B into basis order is its one copy
        and the one place it is widened to float64: a scatter through the
        inverse permutation, which casts on the way and, from an F-order
        block, runs 3x faster than a row gather.  Each generation's product
        runs in row chunks, each widened to float64 in one reused buffer,
        and so does the final reduction: every temporary is a chunk, not a
        block.
        """
        p = self.p
        Bp = np.empty(B.shape, dtype=np.float64)
        Bp[self.inv] = B
        for start, end, T in self.generations:
            # rows start..end-1 are read only here, so they are reduced in place
            U = _reduce_mod(Bp[start:end], p)
            for a in range(0, T.shape[0], _CLEAR_ROWS):
                chunk = T[a : a + _CLEAR_ROWS]
                Bp[end + a : end + a + len(chunk)] -= self._widen(chunk) @ U
        return _reduce_mod(Bp[self.rank :], p)

    def _widen(self, chunk: np.ndarray) -> np.ndarray:
        """An int16 chunk copied into the float64 scratch buffer, grown on demand."""
        if self._wide.size < chunk.size:
            self._wide = np.empty(chunk.size)
        wide = self._wide[: chunk.size].reshape(chunk.shape)
        np.copyto(wide, chunk)
        return wide

    def store(self, Cj: np.ndarray | None, rows: list[int]) -> int:
        """Freeze Jordan columns on the free rows as the next generation.

        Cj is (length - rank) x g in basis order, reduced, and the identity
        on its pivot rows `rows`; those rows move to the front of the free
        suffix.  Cj is consumed.  Returns g.
        """
        if not rows:
            return 0
        g = len(rows)
        self._move_to_front(rows, Cj)
        self.generations.append((self.rank, self.rank + g, Cj[g:].astype(RESIDUE_DTYPE)))
        self.rank += g
        return g

    def absorb(self, F: np.ndarray) -> int:
        """Extract new pivots from the output of clear_block; returns how many.

        A block with more than three free rows per column seeks its
        pivots on b + 32 evenly spaced rows of the m free rows: W, the
        combination of F's columns that is Jordan on the sample, comes
        from the sample stacked over the identity, and F @ W is the new
        generation at full height, computed and reduced in row chunks.
        When fewer than b pivots turn up, each chunk is also cleared
        against its part of that generation, and what is left of F is
        absorbed at full height (see the module docstring).  F is consumed.
        """
        m, b = F.shape
        if m <= 3 * b:
            return self.store(*_extract_jordan(F, self.p))
        p = self.p
        s = b + _SAMPLE_EXTRA
        sample = np.arange(s) * m // s
        stack = np.empty((s + b, b), dtype=np.float64)
        stack[:s] = F[sample]
        stack[s:] = np.eye(b)
        Cs, rows = _extract_jordan(stack, p, s)
        g = len(rows)
        if g:
            self._move_to_front(sample[rows].tolist(), F)
            W, top = Cs[s:], F[:g]
            T = np.empty((m - g, g), dtype=RESIDUE_DTYPE)
            for a in range(g, m, _CLEAR_ROWS):
                rest = F[a : a + _CLEAR_ROWS]
                chunk = _reduce_mod(rest @ W, p)
                T[a - g : a - g + len(rest)] = chunk
                if g < b:  # what the sample missed: F cleared against the new generation
                    rest -= chunk @ top
            self.generations.append((self.rank, self.rank + g, T))
            self.rank += g
            if g == b:
                return g
            F = _reduce_mod(F[g:], p)
        if not F.any():
            return g
        return g + self.store(*_extract_jordan(F, p))

    def _move_to_front(self, rows: list[int], F: np.ndarray) -> None:
        """Bring free rows `rows` (offsets into the free suffix) to its front:
        in perm and inv, in every stored generation and in F, an array on
        the free rows."""
        r = self.rank
        dest, src = _pivot_moves(rows)
        moved = self.perm[r + src]
        self.perm[r + dest] = moved
        self.inv[moved] = r + dest
        for _, end, T in self.generations:
            T[r - end + dest] = T[r - end + src]
        F[dest] = F[src]


def _panel_width(rows: int) -> int:
    """Columns cleared and absorbed at a time in a matrix of `rows` rows:
    _LEAF_WIDTH below _PANEL_ROWS rows, DEFAULT_BLOCK from there on (see
    the module docstring)."""
    return _LEAF_WIDTH if rows < _PANEL_ROWS else DEFAULT_BLOCK


def basis_bytes(rows: int, cols: int, block: int = DEFAULT_BLOCK) -> int:
    """Bytes that the rank of a rows x cols matrix, streamed in blocks of
    `block` columns, holds at its peak.

    The int16 basis on the free rows, rows*r - r^2/2 entries at rank
    r <= min(rows, cols), plus the working set beside it: the int16 block
    in hand and, for the panel being absorbed (_panel_width(rows) columns,
    64 below 2048 rows and 256 from there on, at most the block), its
    float64 permuted copy and the float64 clearing scratch, three row
    chunks of up to _CLEAR_ROWS rows (a widened generation chunk, its
    product and the reduction's quotient).
    """
    r = min(rows, cols)
    w = min(block, cols)
    panel = min(_panel_width(rows), w)
    return 2 * (rows * r - r * r // 2) + 2 * rows * w + panel * (8 * rows + 8 * 3 * min(rows, _CLEAR_ROWS))


def rank_from_column_blocks(
    blocks: Iterator[np.ndarray],
    n_rows: int,
    modulus: int,
    total_cols: int | None = None,
    progress: ProgressHook | None = None,
) -> int:
    """Rank over Z_P of the matrix whose columns arrive in blocks.

    Blocks are (n_rows x b) arrays of entries already in 0..P-1, of any
    layout.  The builders hand int16 (RESIDUE_DTYPE), which holds every
    residue exactly; any numeric dtype that does is accepted, as
    clear_block casts each panel to float64 as it permutes it.  Each
    block is cleared and absorbed in panels of _panel_width(n_rows)
    columns.  Only the block in hand is held, never the whole matrix, so
    peak memory is the int16 basis on its free rows plus the working set,
    at most basis_bytes(n_rows, cols, b) for cols columns in all.  Stops
    consuming blocks once the rank hits n_rows.  A modulus that is not a
    prime up to gfpoly.MAX_PRIME raises ValueError, before any block.
    """
    PrimeField(modulus)
    if n_rows == 0:
        return 0
    basis = _GenerationBasis(n_rows, modulus)
    width = _panel_width(n_rows)
    done = 0
    for raw in blocks:
        B = np.asarray(raw)
        if B.ndim != 2 or B.shape[0] != n_rows:
            raise DimensionMismatch(f"block shape {B.shape} incompatible with {n_rows} rows")
        done += B.shape[1]
        for a in range(0, B.shape[1], width):
            if basis.rank == n_rows:
                break
            basis.absorb(basis.clear_block(B[:, a : a + width]))
        if progress is not None:
            progress(done, total_cols if total_cols is not None else -1, basis.rank)
        if basis.rank == n_rows:
            break
    return basis.rank
