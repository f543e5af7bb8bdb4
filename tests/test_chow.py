import tracemalloc

import numpy as np
import pytest

import chowdefect.chow as chow
from chowdefect.chow import (
    ChowPoint,
    DomainError,
    SecantProblem,
    chow_quadric_dim,
    expdim_secant,
    sample_point,
    tangent_columns,
    terracini_rank,
)
from chowdefect.finite_calculus import binomial
from chowdefect.gfpoly import (
    RESIDUE_DTYPE,
    BudgetExceeded,
    LinearForm,
    PrimeField,
    division_map,
    monomial_count,
    tangent_groups,
)
from chowdefect.gflinalg import rank_from_column_blocks
from chowdefect.sampling import FormSampler
from test_bolattice import HIGH_WATER, run_fresh
from test_gflinalg import reference_rank

F = PrimeField(8191)


def test_expdim_examples():
    assert expdim_secant(SecantProblem(d=2, n=4, s=2)) == 14
    assert expdim_secant(SecantProblem(d=3, n=3, s=1)) == 9
    assert expdim_secant(SecantProblem(d=3, n=4, s=13)) == 34


def test_secant_problem_validation():
    with pytest.raises(DomainError):
        SecantProblem(d=0, n=1, s=1)


def tangent_rank(point):
    block = tangent_columns(point)
    return rank_from_column_blocks(iter([block]), block.shape[0], F.modulus)


@pytest.mark.parametrize("d, n", [(3, 12), (4, 8), (3, 20), (4, 10), (2, 4), (3, 3), (3, 5), (3, 2), (1, 4), (1, 7)])
def test_tangent_columns_equal_the_stacked_takes(d, n):
    """Every (d, n) of the benchmark's oracle cases and the small oracle
    cases: the block gathered by gfpoly.gather_blocks is the stack of the
    tangent groups' takes, int16 and F-contiguous."""
    point = sample_point(FormSampler(41, F), d, n, 0)
    groups = tangent_groups(list(point.factors), division_map(n, d - 1))
    want = np.vstack([np.take(src, index) for src, index in groups]).T
    got = tangent_columns(point)
    assert got.dtype == RESIDUE_DTYPE and got.flags.f_contiguous
    assert got.shape == (monomial_count(n, d), d * n + 1)
    assert np.array_equal(got, want)


def test_tangent_rank_product_of_two_lines():
    p = ChowPoint((LinearForm.variable(0, 1, F), LinearForm.variable(1, 1, F)))
    assert tangent_rank(p) == 3  # dn + 1 = 2*1 + 1


def test_tangent_rank_generic_points():
    sampler = FormSampler(99, F)
    for d, n in ((3, 3), (2, 4), (4, 2), (5, 3), (5, 4)):
        point = sample_point(sampler, d, n, index=d * 10 + n)
        want = min(d * n + 1, binomial(n + d, d))
        assert tangent_rank(point) == want


def test_tangent_rank_degenerate_power():
    # all factors equal: every summand of the product rule collapses
    for d, n in ((3, 3), (4, 2)):
        p = ChowPoint((LinearForm.variable(0, n, F),) * d)
        assert tangent_rank(p) == n + 1


def test_terracini_examples():
    assert terracini_rank(SecantProblem(d=2, n=4, s=2), seed=17, field=F) == 14
    assert terracini_rank(SecantProblem(d=3, n=2, s=2), seed=17, field=F) == 10
    for n in (2, 5):
        assert terracini_rank(SecantProblem(d=1, n=n, s=1), seed=17, field=F) == n + 1


def test_terracini_upper_bound_and_monotonicity():
    prev = 0
    for s in range(1, 5):
        r = terracini_rank(SecantProblem(d=3, n=2, s=s), seed=23, field=F)
        assert r <= min(s * 7, 10)
        assert r >= prev  # seeded per point, so growing s only adds columns
        prev = r


def test_terracini_nondefective_plane_cubics():
    # products of three ternary linear forms: never defective
    for s in range(1, 5):
        want = min(s * 7, 10)
        assert terracini_rank(SecantProblem(d=3, n=2, s=s), seed=5, field=F) == want


def test_terracini_budget_guard(monkeypatch):
    def unreachable(*args):
        raise AssertionError("the guard must refuse before any column is built")

    monkeypatch.setattr(chow, "tangent_columns", unreachable)
    with pytest.raises(BudgetExceeded):
        terracini_rank(SecantProblem(d=40, n=10, s=1), seed=1, field=F)
    # 45451 rows, within the old 10^5-row cap, but its basis alone is 8.1 GiB
    with pytest.raises(BudgetExceeded):
        terracini_rank(SecantProblem(d=2, n=300, s=200), seed=1, field=F)


def test_budget_guard_charges_the_cold_peak(monkeypatch):
    """A d=2 call that builds its exponent matrices and division maps
    peaks, in traced allocations, within the guard's charge: a cap one
    byte below that peak refuses it."""
    division_map.cache_clear()
    problem = SecantProblem(d=2, n=60, s=1)
    tracemalloc.start()
    try:
        terracini_rank(problem, seed=1, field=F)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    monkeypatch.setattr(chow, "_ORACLE_BYTES_CAP", peak - 1)
    with pytest.raises(BudgetExceeded):
        terracini_rank(problem, seed=1, field=F)


ORACLE_RSS_SCRIPT = HIGH_WATER + """
import json
import numpy as np
from chowdefect import chow
from chowdefect.gfpoly import PrimeField
a = np.ones((512, 512))
(a @ a).sum()  # BLAS allocates its buffers at the first product
problem = chow.SecantProblem(*PROBLEM)
before = high_water()
chow.terracini_rank(problem, seed=1, field=PrimeField(8191))
grown = high_water() - before
print(json.dumps({"grown": grown, "charge": chow.oracle_bytes(problem)}))
"""


def test_wide_oracle_peak_rss_within_its_charge():
    """The wide case (2,60,200), 1891 x 24200, run in a fresh process with
    BLAS warmed up, grows the process's peak RSS by no more than
    oracle_bytes charges for it."""
    result = run_fresh("PROBLEM = (2, 60, 200)" + ORACLE_RSS_SCRIPT)
    assert 0 < result["grown"] <= result["charge"], result


def test_tall_oracle_peak_rss_within_its_charge():
    """The tall case (3,40,10), 12341 x 1210, whose transpose is ranked from
    one int16 stack, grows a fresh process's peak RSS by no more than
    oracle_bytes charges for it."""
    result = run_fresh("PROBLEM = (3, 40, 10)" + ORACLE_RSS_SCRIPT)
    assert 0 < result["grown"] <= result["charge"], result


@pytest.mark.parametrize("d, n, s", [(2, 4, 1), (3, 3, 1), (3, 5, 2), (2, 4, 2), (3, 2, 3), (1, 4, 1), (1, 7, 1)])
def test_terracini_rank_on_both_sides_of_the_transpose(monkeypatch, d, n, s):
    """Tall (15 x 9, 20 x 10, and 56 x 32 stacked from two points), wide
    (15 x 18, 10 x 21) and square ((n+1) x (n+1)) cases: the oracle's rank
    equals the reference rank of the stacked tangent blocks, and a tall
    case ranks the transpose, one with s(dn+1) rows."""
    seed = 41
    sampler = FormSampler(seed, F)
    blocks = [tangent_columns(sample_point(sampler, d, n, i)) for i in range(s)]
    rows, width = monomial_count(n, d), d * n + 1
    for block in blocks:
        assert block.dtype == RESIDUE_DTYPE and block.flags.f_contiguous
        assert block.shape == (rows, width)
    seen = []

    def recording(blocks, n_rows, *args, **kwargs):
        seen.append(n_rows)
        return rank_from_column_blocks(blocks, n_rows, *args, **kwargs)

    monkeypatch.setattr(chow.gflinalg, "rank_from_column_blocks", recording)
    rank = terracini_rank(SecantProblem(d=d, n=n, s=s), seed=seed, field=F)
    assert rank == reference_rank(np.hstack(blocks), F.modulus)
    assert seen == [min(rows, s * width)]


def test_chow_quadric_dim_formula():
    assert chow_quadric_dim(4, 2) == 13
    assert chow_quadric_dim(6, 2) == 21
    assert chow_quadric_dim(6, 3) == 26
    with pytest.raises(DomainError):
        chow_quadric_dim(3, 2)
    with pytest.raises(DomainError):
        chow_quadric_dim(6, 4)
    with pytest.raises(DomainError):
        chow_quadric_dim(8, 1)


def test_quadric_oracle_agreement():
    # the defective quadric cases: oracle rank equals the known affine dimension
    for n in range(4, 9):
        for s in range(2, n // 2 + 1):
            rank = terracini_rank(SecantProblem(d=2, n=n, s=s), seed=31, field=F)
            assert rank == chow_quadric_dim(n, s) + 1, (n, s)


def test_chow_point_validation():
    with pytest.raises(ValueError):
        ChowPoint(())
    with pytest.raises(ValueError):
        ChowPoint((LinearForm.variable(0, 1, F), LinearForm.variable(0, 2, F)))
