"""Chow variety geometry and a desk-scale Terracini oracle.

The variety of completely decomposable degree-d forms in n+1 variables
has dimension dn, so the s-th secant variety is expected to have
(projective) dimension min{s(dn+1), C(n+d,d)} - 1.  The tangent space of
the affine cone at p = l_1 ... l_d is, by the product rule, the sum of
the spaces (l_1 .. skip l_b .. l_d) * V over b, which gives an explicit
column generator set of size d(n+1).

The oracle samples s independent generic points over Z_P, stacks all
their tangent columns and takes the rank.  By semicontinuity a rank
equal to the expected affine dimension certifies nondefectivity, while a
smaller rank proves nothing (small field or unlucky points), so it is
only ever reported as inconclusive evidence unless the case is one of
the known defective quadric cases, whose true dimension has a closed
form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .finite_calculus import binomial
from .gfpoly import (  # noqa: F401 -- mul_linear stays patchable by name for perfbench
    BudgetExceeded,
    LinearForm,
    PrimeField,
    division_map,
    monomial_count,
    mul_linear,
    padded,
    products_omitting_each,
)
from .gflinalg import from_columns, rank_mod_p
from .sampling import FormSampler

_ORACLE_AMBIENT_CAP = 10**5  # keeps oracle matrices around desk scale


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


def tangent_columns(point: ChowPoint, field: PrimeField) -> list[np.ndarray]:
    """Generators of the tangent space at the cone point, as coefficient vectors.

    For each factor position b and each variable x_v, the vector of
    x_v * prod_{g != b} l_g; there are d(n+1) of them and their span has
    dimension dn+1 at a generic point.
    """
    G = division_map(point.n, point.d - 1)
    cols = []
    for partial in products_omitting_each(list(point.factors)):
        cols.extend(np.take(padded(partial.coeffs), G))
    return cols


def sample_point(sampler: FormSampler, d: int, n: int, index: int) -> ChowPoint:
    """Generic point number `index`, one keyed substream per factor."""
    forms = tuple(
        LinearForm(n, sampler.linear_form("o", n, i=index, gamma=g), sampler.field)
        for g in range(d)
    )
    return ChowPoint(forms)


def terracini_rank(problem: SecantProblem, seed: int, field: PrimeField) -> int:
    """Rank of the stacked tangent columns at s seeded generic points."""
    ambient = monomial_count(problem.n, problem.d)
    if ambient > _ORACLE_AMBIENT_CAP:
        raise BudgetExceeded(f"ambient dimension {ambient} exceeds oracle cap {_ORACLE_AMBIENT_CAP}")
    sampler = FormSampler(seed, field)
    cols: list[np.ndarray] = []
    for i in range(problem.s):
        # entries are below P < 2^15: hold them at the int16 width of the matrix
        point_cols = tangent_columns(sample_point(sampler, problem.d, problem.n, i), field)
        cols.extend(np.asarray(point_cols, dtype=np.int16))
    return rank_mod_p(from_columns(cols, field.modulus, rows=ambient))


def chow_quadric_dim(n: int, s: int) -> int:
    """True projective dimension of the defective quadric cases.

    Valid for n >= 4 and 2 <= s <= floor(n/2), where the secant variety
    of the variety of products of two linear forms is known defective
    with dimension C(n+2,2) - C(n-2s+2,2) - 1.
    """
    if n < 4 or s < 2 or s > n // 2:
        raise DomainError(f"known-defective range is n >= 4, 2 <= s <= n//2; got n={n}, s={s}")
    return binomial(n + 2, 2) - binomial(n - 2 * s + 2, 2) - 1
