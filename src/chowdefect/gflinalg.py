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

All bulk arithmetic runs in float64 BLAS calls on integers, and only
the products need float64: a panel is held as int16 between them.
Column blocks arrive as int16 and are scattered into basis order as
int16; clearing then walks the panel top-down in chunks of _CLEAR_ROWS
rows, each widened into one float64 accumulator, cleared, reduced and
narrowed back, and pivot extraction widens only what it multiplies: the
sampled stack, one row chunk at a time of the products, and a panel at
full height only when it has at most three rows per column.  A stored
generation is widened one row chunk at a time too, into one reused
scratch buffer, just before its product.  So beside its int16 basis a
rank holds the int16 block and panel and a few float64 row chunks,
never a float64 copy of a panel's full height (basis_bytes).  Entries
are kept in 0..P-1 with P < 2^15 and reduction is delayed: a cleared
row accumulates at most rank products of two reduced values, and the
sampled products have inner dimension b < m, so every partial result
stays below 2^53 where float64 is exact.  The computed rank is
therefore the exact rank over Z_P, independent of BLAS threading or
scheduling.
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


def _reduce_mod(arr: np.ndarray, p: int, scratch: np.ndarray | None = None) -> np.ndarray:
    """In-place exact mod p for integral float64 values below 2^52.

    Below about 600 entries one `%` is fastest (4x at 64, a leaf's width).
    From there on reduce via floor(x/p), as np.mod costs more than the
    products it follows: the quotient may be off by one from rounding,
    leaving a residue in (-p, 2p) that two conditional fixups repair.
    Every intermediate stays below 2^52, so all is exact.  The six calls
    take about 10 us at any size, 3x less than `%` at 4495 entries.  A
    matrix taller than _CLEAR_ROWS is reduced in row chunks, so that its
    quotient temporary is a chunk, not a copy of the whole matrix; a
    chunk-sized caller passes a float64 `scratch` of arr's shape to hold it.
    """
    if arr.size < 600:
        arr %= p
        return arr
    if arr.ndim == 2 and len(arr) > _CLEAR_ROWS:
        for a in range(0, len(arr), _CLEAR_ROWS):
            _reduce_mod(arr[a : a + _CLEAR_ROWS], p)
        return arr
    q = np.multiply(arr, 1.0 / p, out=scratch)
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
    allowed row, so the search stops once they are all taken.  B, int16
    or float64, is widened into one contiguous row per column, at most
    _LEAF_WIDTH of them, and the Jordan columns are returned as int16.
    """
    cap = B.shape[0] if head is None else head
    cols = np.ascontiguousarray(B.T, dtype=np.float64)  # one contiguous row per column of B
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
    return _reduce_mod(C[:k].T @ X[:k, :k], p).astype(RESIDUE_DTYPE), rows[:k].tolist()


def _extract_jordan(B: np.ndarray, p: int, head: int | None = None) -> tuple[np.ndarray | None, list[int]]:
    """Jordan-normalized independent columns of a cleared, reduced block.

    A block wider than _LEAF_WIDTH is cleared through a temporary
    generation basis in _LEAF_WIDTH-wide pieces, each piece's pivots
    taken by _extract_leaf, so the work between pieces lands in matrix
    products; the returned columns, int16 as B's entries may be, are an
    exact identity on their own pivot rows.  `head` restricts the pivot
    rows as in _extract_leaf.  Pivot moves only touch rows up to the last
    pivot row, so the rows past `head` keep their places, and in the
    temporary basis the allowed rows are the first head - rank free ones.
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
    g, gens, perm = temp.rank, temp.generations, temp.perm
    del temp  # and with it the float64 scratch of its clearing
    if g == 0:
        return None, []
    # In basis order the generations stack into an m x g matrix C whose
    # top g x g block L is block unit lower triangular.  Its inverse X
    # follows by block forward substitution, X[i, :i] = -L[i, :i] @ X[:i, :i],
    # one product per generation, which reads L only below its diagonal
    # blocks.  C @ X is the identity on top; below, it is computed one row
    # chunk of the int16 generations at a time and narrowed as its rows
    # are scattered back to the block's own row order.
    m = B.shape[0]
    L, X = np.zeros((g, g)), np.eye(g)
    for start, end, T in gens:
        L[end:, start:end] = T[: g - end]
        X[start:end, :start] = _reduce_mod(-(L[start:end, :start] @ X[:start, :start]), p)
    Cn = np.empty((m, g), dtype=RESIDUE_DTYPE)
    Cn[perm[:g]] = np.eye(g)
    for a in range(g, m, _CLEAR_ROWS):
        z = min(a + _CLEAR_ROWS, m)
        C = np.empty((z - a, g))
        for start, end, T in gens:
            C[:, start:end] = T[a - end : z - end]
        Cn[perm[a:z]] = _reduce_mod(C @ X, p, C)
    return Cn, perm[:g].tolist()


def _take(buf: np.ndarray, shape: tuple[int, int], src: np.ndarray | None = None) -> np.ndarray:
    """A C-order array of `shape` on the front of the flat buffer `buf`,
    filled from `src` (widening an int16 source) when it is given."""
    view = buf[: shape[0] * shape[1]].reshape(shape)
    if src is not None:
        np.copyto(view, src)
    return view


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
    Incoming blocks are permuted once, as int16, and cleared a row chunk
    at a time, generation by generation in order, each product touching
    only the rows below that generation.
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
        self._width = 0  # the widest panel so far, which sizes the float64 scratch of _scratch
        self._work = np.empty(0)

    def _scratch(self, b: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Flat float64 buffers for panels of up to w columns, w the widest
        panel so far: the accumulator, the widened chunk and the product,
        of c*w entries each for c = min(length, _CLEAR_ROWS) rows, and w*w
        for pivot rows.  Allocated once, and again only for a wider panel."""
        c = min(len(self.perm), _CLEAR_ROWS)
        if b > self._width:
            self._width = b
            self._work = np.empty((3 * c + b) * b)
        c *= self._width
        w = self._work
        return w[:c], w[c : 2 * c], w[2 * c : 3 * c], w[3 * c :]

    def clear_block(self, B: np.ndarray) -> np.ndarray:
        """The free rows of block B, cleared against all generations and reduced.

        B is (length x b) in input row order, int16 from the builders, and
        is left untouched; the result is a new (length - rank) x b int16
        array in basis order, a view of the cleared panel.  B is scattered
        into basis order through the inverse permutation, as int16, then
        cleared one chunk of _CLEAR_ROWS rows at a time, top-down: the
        chunk is widened into the float64 accumulator, and every generation
        whose pivot block ends above the chunk's last row is subtracted, one
        product each.  Its pivot rows are final by then: those above the
        chunk sit in the int16 panel, and those in the chunk have been
        cleared by every earlier generation and are reduced in place first.
        The chunk is then reduced and narrowed back into the panel.  The
        float64 working set is the three chunk buffers and the pivot rows
        of _scratch, reused for every panel.
        """
        p = self.p
        n, b = B.shape
        panel = np.empty((n, b), dtype=RESIDUE_DTYPE)
        panel[self.inv] = B
        acc_buf, wide_buf, prod_buf, u_buf = self._scratch(b)
        for a in range(0, n, _CLEAR_ROWS):
            z = min(a + _CLEAR_ROWS, n)
            acc = _take(acc_buf, (z - a, b), panel[a:z])
            done = a  # rows a..done-1 of the chunk are reduced
            for start, end, T in self.generations:
                if end >= z:
                    break  # this generation and the later ones clear only rows past the chunk
                if start >= a:  # the pivot block lies in the chunk
                    U = _reduce_mod(acc[start - a : end - a], p, _take(prod_buf, (end - start, b)))
                else:  # its rows above the chunk are final in the panel
                    U = _take(u_buf, (end - start, b), panel[start:end])
                    if end > a:  # it straddles the chunk's top edge
                        U[a - start :] = _reduce_mod(acc[: end - a], p, _take(prod_buf, (end - a, b)))
                done = max(done, end)
                lo = max(end, a)
                wide = _take(wide_buf, (z - lo, end - start), T[lo - end : z - end])
                acc[lo - a :] -= np.matmul(wide, U, out=_take(prod_buf, (z - lo, b)))
            rest = acc[done - a :]
            _reduce_mod(rest, p, _take(prod_buf, rest.shape))
            panel[a:z] = acc
        return panel[self.rank :]

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

        F is the int16 panel on the m free rows.  With at most three free
        rows per column its pivots are extracted at full height
        (_extract_jordan).  Otherwise they are sought on b + 32 evenly
        spaced rows: W, the combination of F's columns that is Jordan on
        the sample, comes from the widened sample stacked over the
        identity, and F @ W is the new generation at full height, each row
        chunk of F widened into the scratch buffers, multiplied and
        reduced.  When fewer than b pivots turn up, each chunk is also
        cleared against its part of that generation and narrowed back into
        F, and what is left of F is absorbed at full height (see the module
        docstring).  F is consumed.
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
            rest_buf, wide_buf, prod_buf, u_buf = self._scratch(b)
            W, top = Cs[s:].astype(np.float64), _take(u_buf, (g, b), F[:g])
            T = np.empty((m - g, g), dtype=RESIDUE_DTYPE)
            for a in range(g, m, _CLEAR_ROWS):
                z = min(a + _CLEAR_ROWS, m)
                rest = _take(rest_buf, (z - a, b), F[a:z])
                chunk = np.matmul(rest, W, out=_take(prod_buf, (z - a, g)))
                T[a - g : z - g] = _reduce_mod(chunk, p, _take(wide_buf, chunk.shape))
                if g < b:  # what the sample missed: F cleared against the new generation
                    rest -= np.matmul(chunk, top, out=_take(wide_buf, rest.shape))
                    F[a:z] = _reduce_mod(rest, p, _take(wide_buf, rest.shape))
            self.generations.append((self.rank, self.rank + g, T))
            self.rank += g
            if g == b:
                return g
            F = F[g:]
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
    r <= min(rows, cols), plus the working set beside it.  That is the
    int16 block in hand and, for the panel being cleared (w =
    _panel_width(rows) columns, 64 below 2048 rows and 256 from there on,
    at most the block), its int16 copy in basis order and the float64
    scratch: three row chunks of min(rows, _CLEAR_ROWS) x w (the
    accumulator, a widened chunk and the product) and w x w pivot rows,
    plus the pivot search's float64 temporaries, three arrays of at most
    3w x w, as it works on at most 3w rows at full height or on the
    sampled stack.  No float64 array of the panel's full height is held.
    """
    r = min(rows, cols)
    w = min(block, cols)
    panel = min(_panel_width(rows), w)
    chunk = min(rows, _CLEAR_ROWS)
    return (2 * (rows * r - r * r // 2) + 2 * rows * (w + panel)
            + 8 * panel * (3 * chunk + panel) + 24 * panel * min(rows, 3 * panel))


def rank_from_column_blocks(
    blocks: Iterator[np.ndarray],
    n_rows: int,
    modulus: int,
    total_cols: int | None = None,
    progress: ProgressHook | None = None,
) -> int:
    """Rank over Z_P of the matrix whose columns arrive in blocks.

    Blocks are (n_rows x b) arrays of entries already in 0..P-1, of any
    layout and any numeric dtype.  The builders hand int16
    (RESIDUE_DTYPE), which holds every residue exactly; clear_block
    scatters each panel into int16, so a block with an entry that int16
    would not hold as the residue it is, a non-integral one or one
    outside 0..P-1, raises DimensionMismatch naming the block (one min
    and max per block).  Each block is cleared and absorbed in panels of
    _panel_width(n_rows) columns.  Only the block in hand is held, never
    the whole matrix, so peak memory is the int16 basis on its free rows
    plus the working set, at most basis_bytes(n_rows, cols, b) for cols
    columns in all.  Stops consuming blocks once the rank hits n_rows.  A
    modulus that is not a prime up to gfpoly.MAX_PRIME raises ValueError,
    before any block.
    """
    PrimeField(modulus)
    if n_rows == 0:
        return 0
    basis = _GenerationBasis(n_rows, modulus)
    width = _panel_width(n_rows)
    done = 0
    for index, raw in enumerate(blocks):
        B = np.asarray(raw)
        if B.ndim != 2 or B.shape[0] != n_rows:
            raise DimensionMismatch(f"block shape {B.shape} incompatible with {n_rows} rows")
        if B.size and not (0 <= B.min() and B.max() < modulus
                           and (B.dtype.kind in "biu" or np.array_equal(B, np.floor(B)))):
            raise DimensionMismatch(
                f"block {index} (columns {done}..{done + B.shape[1] - 1}) holds an entry that is not"
                f" a residue in 0..{modulus - 1}: min {B.min()}, max {B.max()}"
            )
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
