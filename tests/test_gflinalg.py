from unittest import mock

import numpy as np
import pytest

from chowdefect import bolattice as bo, gflinalg
from chowdefect.gfpoly import RESIDUE_DTYPE, DimensionMismatch, PrimeField
from chowdefect.gflinalg import _CLEAR_ROWS, DEFAULT_BLOCK, _LEAF_WIDTH, rank_from_column_blocks

P = 8191


def reference_rank(M, p=P):
    """Plain row-reduction over Z_p in exact Python integers."""
    M = [[int(v) % p for v in row] for row in M]
    rows = len(M)
    cols = len(M[0]) if rows else 0
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if M[i][c]), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        inv = pow(M[r][c], p - 2, p)
        for i in range(r + 1, rows):  # rows above r take no further pivots
            if M[i][c]:
                f = M[i][c] * inv % p
                M[i] = [(a - f * b) % p for a, b in zip(M[i], M[r])]
        r += 1
    return r


def stream_rank(A, p=P, widths=(DEFAULT_BLOCK,), dtype=np.float64):
    """rank_from_column_blocks over A cut into blocks of the given widths,
    cycled, each a copy of the given dtype."""
    A = np.asarray(A)
    blocks, at, i = [], 0, 0
    while at < A.shape[1]:
        w = widths[i % len(widths)]
        blocks.append(A[:, at : at + w].astype(dtype))
        at, i = at + w, i + 1
    return rank_from_column_blocks(iter(blocks), A.shape[0], p, total_cols=A.shape[1])


def on_both_paths(rank):
    """[rank() with DEFAULT_BLOCK-wide panels, rank() with _LEAF_WIDTH-wide
    panels], whatever the row count: the panel width's row threshold is
    moved to 0, then past any matrix."""
    ranks = []
    for threshold in (0, 2**62):
        with mock.patch.object(gflinalg, "_PANEL_ROWS", threshold):
            ranks.append(rank())
    return ranks


def test_panel_width_follows_the_row_count():
    assert gflinalg._panel_width(2047) == _LEAF_WIDTH == 64
    assert gflinalg._panel_width(2048) == DEFAULT_BLOCK == 256


@pytest.mark.parametrize("family", [bo.QUATERNARY, bo.CUBICS])
@pytest.mark.parametrize("t", [8, 16])
def test_statement_rank_equal_on_both_paths(family, t):
    """A statement's rank at one seed is the same through either panel width."""
    config = bo.config_for(family)
    field = PrimeField(8191)
    found = on_both_paths(lambda: bo.verify_statement(config, t, "s2", seed=20260809, field=field, retries=0).found)
    assert found[0] == found[1] == bo.plan_statement(config, t, "s2")["expected"]


def test_identity_and_proportional_rows():
    assert stream_rank(np.eye(5, dtype=np.int64)) == 5
    assert stream_rank([[1, 2], [2, 4]]) == 1


def test_empty_matrices():
    assert rank_from_column_blocks(iter([]), 56, P) == 0
    assert rank_from_column_blocks(iter([np.zeros((0, 3))]), 0, P) == 0
    assert stream_rank(np.zeros((7, 9))) == 0


def test_from_columns_validation():
    with pytest.raises(DimensionMismatch):
        rank_from_column_blocks(iter([np.zeros((3, 2)), np.zeros((4, 2))]), 3, P)
    with pytest.raises(DimensionMismatch):
        rank_from_column_blocks(iter([np.zeros(3)]), 3, P)
    assert stream_rank(np.array([[1, 2, 3]] * 3).T) == 1


def test_blocks_int16_would_not_hold_are_refused():
    """Every panel is scattered into int16, so an entry that is no residue,
    non-integral or outside 0..P-1, is refused with the block's name rather
    than wrapped; float64 and int64 blocks of residues give the reference rank."""
    rng = np.random.default_rng(14)
    A = rng.integers(0, P, (40, 30))
    want = reference_rank(A)
    for dtype in (np.float64, np.int64):
        assert stream_rank(A, P, [7], dtype) == want
    for bad, dtype in ((8191.5, np.float64), (0.5, np.float64), (np.nan, np.float64),
                       (40000, np.int64), (P, np.int64), (-1, np.int64)):
        B = A.astype(dtype)
        B[3, 9] = bad
        with pytest.raises(DimensionMismatch, match=r"block 1 \(columns 7\.\.13\)"):
            stream_rank(B, P, [7], dtype)


@pytest.mark.parametrize("modulus", [0, 1, 4, 6, 32771])
def test_modulus_must_be_a_storable_prime(modulus):
    # over Z_4 or Z_6 elimination returns a number that is no rank; refused before any block,
    # and before the empty-matrix shortcut
    for rows in (2, 0):
        with pytest.raises(ValueError, match=str(modulus)):
            rank_from_column_blocks(iter([np.eye(2)[:rows]]), rows, modulus)


def test_rank_invariances():
    rng = np.random.default_rng(3)
    A = (rng.integers(0, P, (15, 4)) @ rng.integers(0, P, (4, 18))) % P
    base = stream_rank(A)
    assert base == 4
    for _ in range(5):
        rp = rng.permutation(15)
        cp = rng.permutation(18)
        scaled = A[rp][:, cp].copy()
        row = rng.integers(0, 15)
        scaled[row] = scaled[row] * int(rng.integers(1, P)) % P
        assert stream_rank(scaled) == base


def test_rank_matches_reference_on_random():
    rng = np.random.default_rng(4)
    for trial in range(60):
        r = int(rng.integers(1, 70))
        c = int(rng.integers(1, 70))
        kind = trial % 3
        if kind == 0:
            A = rng.integers(0, P, (r, c))
        elif kind == 1:
            k = int(rng.integers(0, min(r, c) + 1))
            A = np.zeros((r, c), dtype=np.int64) if k == 0 else (
                rng.integers(0, P, (r, k)) @ rng.integers(0, P, (k, c))
            ) % P
        else:
            A = rng.integers(0, 2, (r, c))  # lots of zeros, stresses pivoting
        assert stream_rank(A) == reference_rank(A)


def test_rank_block_size_independent():
    rng = np.random.default_rng(6)
    A = (rng.integers(0, P, (90, 33)) @ rng.integers(0, P, (33, 120))) % P
    want = reference_rank(A)
    for block in (7, 16, 64, 256):
        assert stream_rank(A, widths=[block]) == want


def test_rank_deterministic():
    rng = np.random.default_rng(7)
    A = rng.integers(0, P, (120, 150))
    assert stream_rank(A) == stream_rank(A)


def test_streaming_equals_materialized():
    rng = np.random.default_rng(8)
    A = (rng.integers(0, P, (80, 20)) @ rng.integers(0, P, (20, 95))) % P
    whole = rank_from_column_blocks(iter([A]), 80, P)
    assert stream_rank(A, widths=[13]) == whole == 20


def test_small_prime_field():
    rng = np.random.default_rng(9)
    A = rng.integers(0, 2, (40, 40))
    assert stream_rank(A, p=2) == reference_rank(A, p=2)


LARGEST_PRIME = 32749  # the largest prime below MAX_PRIME = 2^15


def top_heavy_matrices(p):
    """(A, width): a tall matrix over _CLEAR_ROWS rows, streamed in leaf-wide
    blocks, and a wide one in default blocks.  About 80% of the entries,
    a whole column and a whole row are p - 1; repeated columns make both
    rank-deficient."""
    rng = np.random.default_rng(12)
    for rows, k, cols, width in ((_CLEAR_ROWS + 76, 60, 110, _LEAF_WIDTH), (120, 110, 300, DEFAULT_BLOCK)):
        X = np.where(rng.random((rows, k)) < 0.8, p - 1, rng.integers(0, p, (rows, k)))
        X[:, 0] = p - 1
        X[-1] = p - 1
        yield np.hstack([X, X[:, rng.integers(0, k, cols - k)]])[:, rng.permutation(cols)], width


def test_int16_basis_at_the_largest_prime():
    """At the largest admissible prime the stored int16 generations hold
    residues at the top of their range.  In the tall case each clearing
    product and the sampled generation run over several widened chunks;
    the wide one takes the full-height path."""
    for A, width in top_heavy_matrices(LARGEST_PRIME):
        want = reference_rank(A, LARGEST_PRIME)
        assert on_both_paths(lambda: stream_rank(A, LARGEST_PRIME, [width])) == [want] * 2


def test_int16_blocks_at_the_largest_prime():
    """The same matrices handed as int16 blocks, the dtype the builders
    hand: p - 1 = 32748 sits just below the int16 maximum of 32767, and
    the rank is the reference rank."""
    for A, width in top_heavy_matrices(LARGEST_PRIME):
        assert A.max() == LARGEST_PRIME - 1 <= np.iinfo(RESIDUE_DTYPE).max
        want = reference_rank(A, LARGEST_PRIME)
        assert on_both_paths(lambda: stream_rank(A, LARGEST_PRIME, [width], RESIDUE_DTYPE)) == [want] * 2


# ---------------------------------------------------------------------------
# adversarial equality against reference_rank (Hypothesis)

from hypothesis import given, settings, strategies as st

# p = 2 has the most accidental dependencies; 32749 is the largest prime
# below 2^15, where the float64 accumulation bound is tightest.
PRIMES = (2, 3, P, 32749)
EDGE_WIDTHS = (1, _LEAF_WIDTH - 1, _LEAF_WIDTH, _LEAF_WIDTH + 1, 2 * _LEAF_WIDTH,
               DEFAULT_BLOCK - 1, DEFAULT_BLOCK, DEFAULT_BLOCK + 1)
PROPERTY = settings(max_examples=30, deadline=None, derandomize=True, database=None)


@st.composite
def adversarial_matrices(draw, rows=st.integers(1, 64), cols=None):
    """(p, A): a low-rank matrix over Z_p with zero columns, repeated
    columns and scrambled pivot rows mixed in."""
    p = draw(st.sampled_from(PRIMES))
    r = draw(rows)
    c = draw(cols if cols is not None else st.sampled_from(EDGE_WIDTHS) | st.integers(1, 300))
    k = draw(st.integers(0, min(r, c)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        # staircase: column j's first nonzero sits at row j (mod k), so
        # the leaf finds pivots in row order -- until the rows are scrambled
        A = np.zeros((r, c), dtype=np.int64)
        for j in range(c):
            top = j % max(k, 1)
            if k:
                A[top, j] = rng.integers(1, p)
                A[top + 1 : k, j] = rng.integers(0, p, k - top - 1)
    else:
        A = (rng.integers(0, p, (r, k)) @ rng.integers(0, p, (k, c))) % p
    zeros = draw(st.integers(0, c // 3))
    A[:, rng.choice(c, zeros, replace=False)] = 0
    repeats = draw(st.integers(0, c // 3))
    A[:, rng.choice(c, repeats)] = A[:, rng.choice(c, repeats)]
    if draw(st.booleans()):
        A = A[rng.permutation(r)]
    return p, A


@PROPERTY
@given(adversarial_matrices(), st.sampled_from((7, _LEAF_WIDTH, _LEAF_WIDTH + 1, DEFAULT_BLOCK)))
def test_property_rank_matches_reference(case, block):
    p, A = case
    assert stream_rank(A, p, [block]) == reference_rank(A, p)


@PROPERTY
@given(adversarial_matrices(), st.lists(st.sampled_from(EDGE_WIDTHS), min_size=1, max_size=6))
def test_property_streaming_matches_reference(case, widths):
    """Uneven block widths, cycled, as a streaming builder may deliver them."""
    p, A = case
    assert stream_rank(A, p, widths) == reference_rank(A, p)


@PROPERTY
@given(adversarial_matrices(rows=st.integers(2, 200), cols=st.integers(1, 60)))
def test_property_tall_matrices_stream_at_full_height(case):
    """Tall matrices, streamed as they are: the sampled pivot search runs
    on every block with more than three free rows per column."""
    p, A = case
    if A.shape[0] <= A.shape[1]:
        A = np.vstack([A] * (A.shape[1] // A.shape[0] + 1))  # repeated rows make it tall
    assert stream_rank(A, p) == reference_rank(A, p)


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(adversarial_matrices(rows=st.integers(_LEAF_WIDTH + 1, 130),
                            cols=st.integers(DEFAULT_BLOCK - 8, DEFAULT_BLOCK + 60)))
def test_property_many_pivots_in_one_block(case):
    """Enough rows that one 256-wide block holds several leaf chunks of pivots."""
    p, A = case
    assert stream_rank(A, p) == reference_rank(A, p)


@PROPERTY
@given(st.sampled_from(PRIMES), st.integers(2, 90), st.integers(1, 40), st.integers(0, 2**32 - 1))
def test_property_deficiency_inside_one_block(p, rows, new, seed):
    """A second block mixing combinations of the first block's columns with
    a few new directions: its rank deficiency is internal to the block."""
    rng = np.random.default_rng(seed)
    k = min(rows // 2, 60)
    base = rng.integers(0, p, (rows, k))
    mix = (base @ rng.integers(0, p, (k, DEFAULT_BLOCK - new))) % p
    fresh = (rng.integers(0, p, (rows, 3)) @ rng.integers(0, p, (3, new))) % p
    second = np.hstack([mix, fresh])[:, rng.permutation(DEFAULT_BLOCK)]
    A = np.hstack([base, second])
    want = reference_rank(A, p)
    assert on_both_paths(lambda: stream_rank(A, p)) == [want] * 2
    blocks = [base.astype(np.float64), second.astype(np.float64)]
    assert on_both_paths(lambda: rank_from_column_blocks(iter(blocks), rows, p)) == [want] * 2


# ---------------------------------------------------------------------------
# tall blocks: many more free rows than columns, with the independent
# directions kept in a few rows that a sparse sample of the rows would miss

TALL = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def hidden_rows(rng, p, rows, c, h):
    """A rows x c matrix that is zero except on h random rows: rank min(h, c),
    carried by rows at no particular spacing."""
    A = np.zeros((rows, c), dtype=np.int64)
    A[rng.choice(rows, h, replace=False)] = rng.integers(0, p, (h, c))
    return A


@st.composite
def tall_matrices(draw):
    """(p, A): rows 100..1200 and at most 130 columns, of one of four kinds."""
    p = draw(st.sampled_from(PRIMES))
    rows = draw(st.integers(100, 1200))
    c = draw(st.integers(1, 130))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(("hidden", "sparse", "low_over_full", "hidden_plus_dense")))
    if kind == "hidden":
        A = hidden_rows(rng, p, rows, c, draw(st.integers(1, 12)))
    elif kind == "sparse":
        density = draw(st.sampled_from((0.001, 0.003, 0.01)))
        A = np.where(rng.random((rows, c)) < density, rng.integers(1, p, (rows, c)), 0)
    elif kind == "low_over_full":
        # a dense low-rank block over a few full-rank rows
        f, k = draw(st.integers(1, 8)), draw(st.integers(0, 6))
        low = (rng.integers(0, p, (rows - f, k)) @ rng.integers(0, p, (k, c))) % p
        A = np.vstack([low, rng.integers(0, p, (f, c))])
    else:
        k = draw(st.integers(1, 6))
        dense = (rng.integers(0, p, (rows, k)) @ rng.integers(0, p, (k, c))) % p
        A = (dense + hidden_rows(rng, p, rows, c, draw(st.integers(1, 8)))) % p
    return p, A


@TALL
@given(tall_matrices(), st.lists(st.integers(1, 130), min_size=1, max_size=4))
def test_property_tall_blocks_match_reference(case, widths):
    """Blocks up to the leaf's width take the same path at either panel
    width; wider ones take the sampled Jordan extraction at 256-wide panels
    and are cut into 64-wide panels otherwise."""
    p, A = case
    assert on_both_paths(lambda: stream_rank(A, p, widths)) == [reference_rank(A.T, p)] * 2


def off_sample_matrix(p):
    """Three 16-wide blocks of 1000 rows: a dense one; one whose columns are
    combinations of the first plus one entry on their own random row, most
    of them away from any fixed sample of 48 rows; and five hidden rows.
    Rank 37, found only through the g < b residual."""
    rows = 1000
    rng = np.random.default_rng(11)
    first = rng.integers(0, p, (rows, 16))
    second = (first @ rng.integers(0, p, (16, 16))) % p
    second[rng.choice(rows, 16, replace=False), np.arange(16)] += rng.integers(1, p, 16)
    second %= p
    return np.hstack([first, second, hidden_rows(rng, p, rows, 16, 5)])


def test_tall_block_with_directions_off_a_row_sample():
    p = 32749
    A = off_sample_matrix(p)
    assert stream_rank(A, p, [16]) == reference_rank(A.T, p) == 37


def test_wide_tall_blocks_with_directions_off_a_row_sample():
    """Blocks wider than the leaf, so the sampled pivot search recurses with
    its row restriction: a dense rank-6 block, then one whose 9 directions sit on
    random rows, then a mix of both with one more dense direction."""
    p, rows = 8191, 900
    rng = np.random.default_rng(12)
    dense = (rng.integers(0, p, (rows, 6)) @ rng.integers(0, p, (6, 100))) % p
    hidden = hidden_rows(rng, p, rows, 100, 9)
    mix = (dense[:, :50] + hidden[:, 50:] + np.outer(rng.integers(0, p, rows), rng.integers(0, p, 50))) % p
    A = np.hstack([dense, hidden, mix])
    assert reference_rank(A.T, p) == 16
    assert on_both_paths(lambda: stream_rank(A, p, [100])) == [16, 16]


# ---------------------------------------------------------------------------
# the pivot leaf and the Jordan extraction, called directly: heights on both
# sides of _reduce_mod's switch from `%` at 600 entries, widths around the leaf's

from chowdefect.gflinalg import _extract_jordan, _extract_leaf

CONTRACT_KINDS = ("staircase", "zero", "repeated", "scrambled")


def contract_block(rng, p, m, w, kind):
    """A reduced m x w float64 block of low rank with the given adversarial feature."""
    k = int(rng.integers(0, min(m, w) + 1))
    if kind in ("staircase", "scrambled"):
        # column j's first nonzero sits at row j (mod k); scrambling the rows
        # takes the pivots out of row order
        A = np.zeros((m, w), dtype=np.int64)
        for j in range(w if k else 0):
            top = j % k
            A[top, j] = rng.integers(1, p)
            A[top + 1 : k, j] = rng.integers(0, p, k - top - 1)
        if kind == "scrambled":
            A = A[rng.permutation(m)]
    else:
        A = (rng.integers(0, p, (m, k)) @ rng.integers(0, p, (k, w))) % p
        picked = rng.choice(w, max(w // 3, 1))
        if kind == "zero":
            A[:, picked] = 0
        else:
            A[:, picked] = A[:, rng.choice(w, picked.size)]
    return A.astype(np.float64)


@pytest.mark.parametrize("m", [40, 599, 600, 601, 1500])
@pytest.mark.parametrize("w", [1, 63, 64, 65])
def test_leaf_and_jordan_contract(m, w):
    """Jordan columns that are the identity on their pivot rows, pivots only in
    the allowed head, as many as the reference rank of that head, and, with
    no head, a span holding every column of the block."""
    rng = np.random.default_rng(m * 100 + w)
    for i, (p, kind) in enumerate((p, kind) for p in (2, 32749) for kind in CONTRACT_KINDS):
        B = contract_block(rng, p, m, w, kind)
        head = None if i % 2 else int(rng.integers(1, m + 1))
        top = B if head is None else B[:head]
        rank = reference_rank(top.T.astype(np.int64), p)
        for extract in (_extract_leaf, _extract_jordan):
            J, rows = extract(B.copy(), p, head)
            assert len(rows) == rank, (extract.__name__, p, kind, head)
            if not rows:
                assert J is None
                continue
            assert len(set(rows)) == rank and max(rows) < (m if head is None else head)
            assert J.shape == (m, rank) and J.min() >= 0 and J.max() < p
            assert np.array_equal(J[rows], np.eye(rank))
            if head is None:
                residue = B.astype(np.int64) - J.astype(np.int64) @ B[rows].astype(np.int64)
                assert not (residue % p).any()


# ---------------------------------------------------------------------------
# clearing in row chunks: with _CLEAR_ROWS cut to a few rows, generation
# blocks straddle chunk edges, and narrow panels put several whole blocks
# in one chunk

CHUNK_ROWS = (7, 64, 100)


def in_row_chunks(rank):
    """on_both_paths(rank) under each of CHUNK_ROWS as _CLEAR_ROWS, flattened."""
    ranks = []
    for rows in CHUNK_ROWS:
        with mock.patch.object(gflinalg, "_CLEAR_ROWS", rows):
            ranks += on_both_paths(rank)
    return ranks


def chunk_edge_matrices(p):
    """(A, widths): low-rank matrices with repeated columns, cut into panels
    narrower than a chunk (7 and 30 columns), as wide as the leaf, and in
    default blocks; the tall one takes the sampled pivot search."""
    rng = np.random.default_rng(13)
    for rows, k, cols, widths in ((130, 100, 200, [7, 30]), (260, 100, 120, [_LEAF_WIDTH]),
                                  (120, 110, 300, [DEFAULT_BLOCK])):
        X = (rng.integers(0, p, (rows, k)) @ rng.integers(0, p, (k, cols - 20))) % p
        yield np.hstack([X, X[:, rng.integers(0, cols - 20, 20)]])[:, rng.permutation(cols)], widths


@pytest.mark.parametrize("p", [P, LARGEST_PRIME])
def test_chunked_clearing_matches_reference(p):
    for A, widths in chunk_edge_matrices(p):
        want = reference_rank(A, p)
        assert in_row_chunks(lambda: stream_rank(A, p, widths, RESIDUE_DTYPE)) == [want] * 6, widths


def test_chunked_clearing_of_top_heavy_matrices():
    """Residues near p - 1 at the largest prime, where an entry left
    unreduced before a product breaks float64's exact range."""
    for A, width in top_heavy_matrices(LARGEST_PRIME):
        want = reference_rank(A, LARGEST_PRIME)
        assert in_row_chunks(lambda: stream_rank(A, LARGEST_PRIME, [width], RESIDUE_DTYPE)) == [want] * 6


def test_chunked_clearing_of_directions_off_a_row_sample():
    """The g < b residual, cleared and absorbed in chunks of a few rows."""
    p = 32749
    A = off_sample_matrix(p)
    want = reference_rank(A.T, p)
    for widths in ([16], [48]):
        assert in_row_chunks(lambda: stream_rank(A, p, widths, RESIDUE_DTYPE)) == [want] * 6
