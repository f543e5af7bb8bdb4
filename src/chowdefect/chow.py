"""Chow variety geometry and a desk-scale Terracini oracle.

The variety of completely decomposable degree-d forms in n+1 variables
has dimension dn, so the s-th secant variety is expected to have
(projective) dimension min{s(dn+1), C(n+d,d)} - 1.  The tangent space of
the affine cone at p = l_1 ... l_d is, by the product rule, the sum of
the spaces (l_1 .. skip l_b .. l_d) * V over b, which gives an explicit
generator set of size d(n+1).  Since sum_v c_{b,v} x_v (p / l_b) = p for
every b, one generator per factor after the first is a combination of
the rest, and the columns kept are exactly dn+1, the dimension of the
tangent space at a generic point.

The oracle samples s independent generic points over Z_P and takes the
rank of all their tangent columns, streamed into
gflinalg.rank_from_column_blocks one point's block at a time, so that
only the block in hand and the rank's basis are held; each block is
gathered by gfpoly.gather_blocks, as the statement builders' are.  A
tall case, with more rows than the s(dn+1) columns, is the exception:
its blocks are stacked, one point at a time, into one int16 matrix and
the transpose is ranked, whose basis vectors are s(dn+1) entries long
instead of C(n+d,d).  By semicontinuity a rank equal to the expected affine
dimension certifies nondefectivity, while a smaller rank proves nothing
(small field or unlucky points), so it is only ever reported as
inconclusive evidence unless the case is one of the known defective
quadric cases, whose true dimension has a closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .finite_calculus import binomial
from .gfpoly import (  # noqa: F401 -- mul_linear stays patchable by name for perfbench
    RESIDUE_DTYPE,
    BudgetExceeded,
    LinearForm,
    PrimeField,
    division_map,
    gather_blocks,
    monomial_count,
    mul_linear,
    tangent_groups,
)
from . import gflinalg  # called through the module, where perfbench patches it
from .sampling import FormSampler

_ORACLE_BYTES_CAP = 2**30  # keeps the oracle at desk scale


class DomainError(ValueError):
    pass


@dataclass(frozen=True)
class SecantProblem:
    """s points on the Chow variety of degree-d forms in n+1 variables."""

    d: int
    n: int
    s: int

    def __post_init__(self):
        if self.d < 1 or self.n < 1 or self.s < 1:
            raise DomainError(f"need d, n, s >= 1, got {self}")


@dataclass(frozen=True)
class ChowPoint:
    """A product of d linear forms, kept as its factor list."""

    factors: tuple[LinearForm, ...]

    def __post_init__(self):
        if not self.factors:
            raise ValueError("a point needs at least one factor")
        n = self.factors[0].n
        if any(f.n != n for f in self.factors):
            raise ValueError("factors live in different variable counts")

    @property
    def n(self) -> int:
        return self.factors[0].n

    @property
    def d(self) -> int:
        return len(self.factors)


def expdim_secant(p: SecantProblem) -> int:
    """Expected projective dimension of the s-th secant variety."""
    return min(p.s * (p.d * p.n + 1), binomial(p.n + p.d, p.d)) - 1


def tangent_columns(point: ChowPoint) -> np.ndarray:
    """Generators of the tangent space at the cone point, as the columns of
    one F-order RESIDUE_DTYPE (int16) block.

    For each factor position b and each variable x_v, the coefficient
    vector of x_v * prod_{g != b} l_g, without the d - 1 that
    gfpoly.tangent_groups drops as combinations of the others: dn+1
    columns, which span the whole tangent space, of dimension dn+1 at a
    generic point.  gfpoly.gather_blocks writes them straight into the
    block, as it writes the statement builders' columns; a block of any
    other width raises AssertionError.
    """
    width = point.d * point.n + 1
    groups = tangent_groups(list(point.factors), division_map(point.n, point.d - 1))
    block, *more = gather_blocks(groups, monomial_count(point.n, point.d), width)
    if more or block.shape[1] != width:
        raise AssertionError(f"the tangent columns are not one block of {width}")
    return block


def sample_point(sampler: FormSampler, d: int, n: int, index: int) -> ChowPoint:
    """Generic point number `index`, one keyed substream per factor."""
    forms = tuple(
        LinearForm(n, sampler.linear_form("o", n, i=index, gamma=g), sampler.field)
        for g in range(d)
    )
    return ChowPoint(forms)


def oracle_bytes(problem: SecantProblem) -> int:
    """What terracini_rank holds at its peak: the rank's own price,
    gflinalg.basis_bytes (its basis and block working set), plus the next
    point's block, gathered straight into place (int16, 2 bytes an entry),
    with the division map, of n+1 <= dn+1 intp entries per row.  A tall
    case also holds its int16 stack of all the columns."""
    rows = monomial_count(problem.n, problem.d)
    width = problem.d * problem.n + 1
    cols = problem.s * width
    point = (2 + 8) * rows * width
    if rows > cols:  # the transpose is ranked, in blocks of the default width
        return gflinalg.basis_bytes(cols, rows) + 2 * rows * cols + point
    return gflinalg.basis_bytes(rows, cols, width) + point


def terracini_rank(problem: SecantProblem, seed: int, field: PrimeField) -> int:
    """Rank of the stacked tangent columns at s seeded generic points.

    Raises BudgetExceeded, before allocating anything, when what the
    oracle holds at its peak, oracle_bytes(problem), passes
    _ORACLE_BYTES_CAP.
    """
    rows = monomial_count(problem.n, problem.d)
    width = problem.d * problem.n + 1
    cols = problem.s * width
    tall = rows > cols
    ranked = (cols, rows) if tall else (rows, cols)
    held = oracle_bytes(problem)
    if held > _ORACLE_BYTES_CAP:
        raise BudgetExceeded(
            f"oracle for {rows} x {cols} would hold {held} bytes, over the cap of {_ORACLE_BYTES_CAP}"
        )
    sampler = FormSampler(seed, field)
    blocks = (tangent_columns(sample_point(sampler, problem.d, problem.n, i)) for i in range(problem.s))
    if tall:
        stacked = np.empty((cols, rows), dtype=RESIDUE_DTYPE)
        for i, block in enumerate(blocks):
            stacked[i * width : (i + 1) * width] = block.T
        blocks = (stacked[:, a : a + gflinalg.DEFAULT_BLOCK] for a in range(0, rows, gflinalg.DEFAULT_BLOCK))
    return gflinalg.rank_from_column_blocks(blocks, ranked[0], field.modulus, total_cols=ranked[1])


def chow_quadric_dim(n: int, s: int) -> int:
    """True projective dimension of the defective quadric cases.

    Valid for n >= 4 and 2 <= s <= floor(n/2), where the secant variety
    of the variety of products of two linear forms is known defective
    with dimension C(n+2,2) - C(n-2s+2,2) - 1.
    """
    if n < 4 or s < 2 or s > n // 2:
        raise DomainError(f"known-defective range is n >= 4, 2 <= s <= n//2; got n={n}, s={s}")
    return binomial(n + 2, 2) - binomial(n - 2 * s + 2, 2) - 1
