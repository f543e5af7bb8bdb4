import time
from fractions import Fraction

import numpy as np
import pytest

import chowdefect.bolattice as bo
from chowdefect.finite_calculus import Quasipolynomial, binomial
from chowdefect.gfpoly import PrimeField
from chowdefect.gflinalg import from_columns, rank_mod_p
from chowdefect.sampling import FormSampler
from chowdefect.chow import SecantProblem, terracini_rank

F = PrimeField(8191)
QUAT = bo.quaternary_config()
CUB = bo.cubics_config()


def build(cfg, t, branch, seed):
    """A statement's spec and its column blocks stacked into one matrix."""
    plan = bo.point_plan(cfg, t, branch)
    spec = bo.prepare_build(cfg, t, plan.order, plan.eta, plan.mu, FormSampler(seed, F))
    data = np.hstack([np.zeros((spec.rows, 0), dtype=np.int64), *bo.column_blocks(spec, F)])
    return spec, from_columns(list(data.T), F.modulus, rows=spec.rows)


def test_config_invariants():
    for cfg in (QUAT, CUB):
        assert cfg.t0 == cfg.ell * cfg.k0 + 1 == 82
        assert cfg.s1.leading_coefficient == Fraction(1, 18)
    with pytest.raises(ValueError):
        bo.LatticeConfig("quaternary", 27, 3, 81, QUAT.s1, QUAT.s2)


def test_k_of_t():
    assert QUAT.K(1) == 0
    assert QUAT.K(27) == 0
    assert QUAT.K(28) == 1
    assert QUAT.K(54) == 1
    assert QUAT.K(55) == 2
    assert QUAT.K(81) == 2
    assert QUAT.K(82) == 3
    assert QUAT.K(200) == 3
    with pytest.raises(ValueError):
        QUAT.K(0)


def test_a_i_values():
    # i = 0 collapses to m(t) * s(t)
    for t in (2, 5, 17, 40):
        assert bo.a_i(QUAT, 0, t, "s1") == (3 * t + 1) * QUAT.s1(t)
    assert bo.a_i(QUAT, 1, 32, "s1") == 6507
    # the top order is exactly the ambient dimension from t0 on
    for t in (82, 100, 155):
        for branch in ("s1", "s2"):
            assert bo.a_i(QUAT, 3, t, branch) == binomial(t + 3, 3)
    with pytest.raises(ValueError):
        bo.a_i(QUAT, 2, 30, "s1")  # i > K(30)


def test_abundance_examples():
    assert bo.abundance(QUAT, 0, 5, "s1") == bo.SUB
    assert bo.abundance(QUAT, 0, 5, "s2") == bo.SUPER
    assert bo.abundance(QUAT, 3, 82, "s1") == bo.EQUI
    assert bo.abundance(QUAT, 3, 82, "s2") == bo.EQUI


def test_point_plan_examples():
    p5 = bo.point_plan(QUAT, 5, "s1")
    assert (p5.eta, p5.mu, p5.order) == (3, 0, 0)
    p32 = bo.point_plan(QUAT, 32, "s1")
    assert (p32.eta, p32.mu) == (64, 3)
    p82 = bo.point_plan(QUAT, 82, "s1")
    assert (p82.eta, p82.mu) == (0, 81)


def test_point_partition_identity_wide():
    for cfg in (QUAT, CUB):
        for t in range(1, 201):
            for branch in ("s1", "s2"):
                bo.point_plan(cfg, t, branch)  # raises NegativeCount on violation


def test_negative_count_detected():
    shifted = Quasipolynomial(
        27, [[c0 - 20, c1, c2] for c0, c1, c2 in QUAT.s1.coeffs]
    )
    cfg = bo.LatticeConfig("quaternary", 27, 3, 82, shifted, QUAT.s2)
    with pytest.raises(bo.NegativeCount):
        bo.point_plan(cfg, 2, "s1")


def test_schedule_counts():
    assert len(bo.base_case_schedule(QUAT, cap=10)) == 18
    assert len(bo.base_case_schedule(QUAT)) == 162
    assert len(bo.base_case_schedule(CUB)) == 164
    last = bo.base_case_schedule(QUAT)[-1]
    assert (last.t, last.i, last.branch) == (82, 3, "s2")
    assert all(s.i == 0 for s in bo.base_case_schedule(CUB, cap=27))


def test_schedule_headline_numbers():
    plan = bo.plan_statement(QUAT, 82, "s2")
    assert plan["rows"] == 98770
    assert plan["points"] == 400
    assert plan["abundance"] == bo.EQUI
    assert plan["cols"] == 3 * binomial(58, 3) + 3 * 81 * 27 * 4


def test_degree_build_shapes():
    _, m = build(QUAT, 5, "s1", 1452337571)
    assert m.shape == (56, 60) and bo.plan_statement(QUAT, 5, "s1")["expected"] == 48
    assert rank_mod_p(m) == 48
    _, m2 = build(QUAT, 2, "s1", 7)  # tall: rank_mod_p eliminates the transpose
    assert m2.shape == (10, 8) and bo.plan_statement(QUAT, 2, "s1")["expected"] == 7
    assert rank_mod_p(m2) == 7


def test_degree_plan_t32():
    plan = bo.plan_statement(QUAT, 32, "s1")
    assert plan["rows"] == 6545
    assert plan["cols"] == 56 + 64 * 32 * 4 + 1 * 3 * 27 * 4 == 8572
    assert plan["expected"] == 6507


def test_dimension_build_shapes():
    spec, m = build(CUB, 5, "s1", 3)
    assert m.shape == (56, 54) and bo.plan_statement(CUB, 5, "s1")["expected"] == 48
    assert spec.row_keep is None and spec.rows == spec.rows_full == 56
    assert rank_mod_p(m) == 48


def test_dimension_plan_t28():
    plan = bo.plan_statement(CUB, 28, "s1")
    assert plan["rows"] == binomial(31, 3) - 4 == 4491
    assert plan["expected"] == 4420
    assert plan["cols"] == 52 * 3 * 29


def test_column_count_formulas():
    for t in (3, 9, 20):
        for branch in ("s1", "s2"):
            for cfg in (QUAT, CUB):
                plan = bo.plan_statement(cfg, t, branch)
                spec, m = build(cfg, t, branch, 2)
                assert m.cols == spec.cols == plan["cols"]
                assert m.rows == plan["rows"]


def test_lower_order_build():
    # prepare_build accepts orders below K(t); i=0 at t=28 needs no subspaces
    plan = bo.point_plan(CUB, 28, "s1", i=0)
    assert plan.order == 0 and plan.eta == CUB.s1(28)
    spec = bo.prepare_build(CUB, 28, 0, plan.eta, plan.mu, FormSampler(4, F))
    assert spec.rows == binomial(31, 3) and spec.row_keep is None
    assert sum(b.shape[1] for b in bo.column_blocks(spec, F)) == spec.cols
    expected = bo.expected_dim(CUB, 0, 28, "s1") - bo.eliminated_row_count(CUB, 28, 0)
    assert expected == min(85 * 52, binomial(31, 3))


def test_verify_statement_true_cases():
    for t in (2, 5, 7):
        for branch in ("s1", "s2"):
            out = bo.verify_statement(QUAT, t, branch, seed=100 + t, field=F)
            assert out.verdict == "TRUE"
            assert out.found == out.expected
    for t in (1, 4, 6):
        for branch in ("s1", "s2"):
            out = bo.verify_statement(CUB, t, branch, seed=200 + t, field=F)
            assert out.verdict == "TRUE"


def test_verify_zero_points():
    out = bo.verify_statement(CUB, 1, "s1", seed=9, field=F)
    assert (out.rows, out.cols, out.found, out.expected) == (4, 0, 0, 0)
    assert out.verdict == "TRUE"


def test_verify_retry_policy(monkeypatch):
    calls = []

    def fake_rank(blocks, n_rows, modulus, total_cols=None, progress=None):
        calls.append(1)
        return 0  # never the expected value

    monkeypatch.setattr(bo, "rank_from_column_blocks", fake_rank)
    out = bo.verify_statement(QUAT, 5, "s1", seed=1, field=F, retries=2)
    assert out.verdict == "UNVERIFIED"
    assert out.retries == 2
    assert len(out.attempts) == 3
    assert len({s for s, _ in out.attempts}) == 3  # derived seeds differ
    assert len(calls) == 3


def test_verdict_tracks_found_vs_expected():
    out = bo.verify_statement(QUAT, 6, "s2", seed=3, field=F)
    assert (out.verdict == "TRUE") == (out.found == out.expected)


def test_streaming_matches_materialized():
    # the streamed rank of verify_statement against rank_mod_p of the stacked blocks
    for cfg, t, branch in ((QUAT, 9, "s1"), (CUB, 8, "s2")):
        out = bo.verify_statement(cfg, t, branch, seed=77, field=F)
        spec, m = build(cfg, t, branch, out.seed)
        assert out.found == rank_mod_p(m)
        assert (out.expected, out.verdict) == (bo.plan_statement(cfg, t, branch)["expected"], "TRUE")
        assert out.forms == tuple((label, tuple(int(v) for v in c)) for label, c in spec.forms)


def test_build_deterministic():
    _, a = build(QUAT, 8, "s2", 42)
    _, b = build(QUAT, 8, "s2", 42)
    assert np.array_equal(a.data, b.data)


def test_induction_arithmetic_check_clean():
    for cfg in (QUAT, CUB):
        assert bo.induction_arithmetic_check(cfg, range(28, 201)) == []


def test_induction_arithmetic_check_catches_mutation():
    mutated = [list(c) for c in QUAT.s1.coeffs]
    mutated[13][0] += Fraction(1, 27)  # a(13): -13 -> -12
    try:
        bad_s1 = Quasipolynomial(27, mutated)
        cfg = bo.LatticeConfig("quaternary", 27, 3, 82, bad_s1, QUAT.s2)
        violations = bo.induction_arithmetic_check(cfg, range(28, 120))
        violations += bo.proof_function_checks(cfg, t_max=120)
    except Exception:
        violations = ["construction or evaluation rejected the mutated table"]
    assert violations


def test_proof_function_checks_clean():
    for cfg in (QUAT, CUB):
        assert bo.proof_function_checks(cfg, t_max=200) == []


def test_oracle_agreement_small_t():
    # the base-case verdicts match the independent Terracini oracle
    for t in range(2, 9):
        for branch in ("s1", "s2"):
            s = QUAT.s(branch)(t)
            if s == 0:
                continue
            out = bo.verify_statement(QUAT, t, branch, seed=400 + t, field=F)
            oracle = terracini_rank(SecantProblem(d=t, n=3, s=s), seed=400 + t, field=F)
            assert out.verdict == "TRUE"
            assert oracle == min(s * (3 * t + 1), binomial(t + 3, 3)) == out.found


def test_dimension_vs_degree_same_expected_at_t5():
    e_deg = bo.plan_statement(QUAT, 5, "s1")["expected"]
    e_dim = bo.plan_statement(CUB, 5, "s1")["expected"]
    assert e_deg == e_dim == 48


def test_generated_subspace_lattice_dimension():
    # products of two generic forms times S^3 V inside S^5 V: the spans of
    # several such subspaces intersect like C(t - j*step + 3, 3), so their
    # sum has dimension given by the backward-difference formula
    from chowdefect.gfpoly import (HomPoly, lex_positions, monomial_count,
                                   monomial_exponents, mul_linear)

    sampler = FormSampler(314, F)

    def subspace_cols(j):
        g = [bo.LinearForm(3, sampler.linear_form("g", 3, j=j, gamma=k), F) for k in range(2)]
        prod = mul_linear(HomPoly.from_linear(g[0]), g[1])
        gexp = monomial_exponents(3, 2).astype(np.int64)
        cols = []
        for row in monomial_exponents(3, 3):
            col = np.zeros(monomial_count(3, 5), dtype=np.int64)
            col[lex_positions(gexp + row, 3, 5) - 1] = prod.coeffs
            cols.append(col)
        return cols

    two = subspace_cols(0) + subspace_cols(1)
    assert rank_mod_p(from_columns(two, 8191)) == 2 * 20 - 4
    three = two + subspace_cols(2)
    assert rank_mod_p(from_columns(three, 8191)) == 3 * 20 - 3 * 4


def test_quaternary_order2_columns_match_kernel():
    # two subspace blocks (t = 55): every section of the matrix agrees with
    # an independently computed product of linear forms
    from chowdefect.gfpoly import LinearForm, product_of_linear_forms

    spec = bo.prepare_build(QUAT, 55, 2, 1, 1, FormSampler(99, F))
    assert spec.cols == 2 * 4495 + 55 * 4 + 2 * 27 * 4
    wanted = {0: None, 4495: None, 2 * 4495: None, 2 * 4495 + 220: None}
    at = 0
    for b in bo.column_blocks(spec, F):
        for idx in wanted:
            if at <= idx < at + b.shape[1]:
                wanted[idx] = b[:, idx - at].copy()
        at += b.shape[1]
    assert at == spec.cols
    keyed = spec.keyed
    g0 = [LinearForm(3, keyed[("g", 0, 0, k)], F) for k in range(27)]
    g1 = [LinearForm(3, keyed[("g", 0, 1, k)], F) for k in range(27)]
    ls = [LinearForm(3, keyed[("l", 0, 0, k)], F) for k in range(55)]
    fs = [LinearForm(3, keyed[("f", 0, 0, k)], F) for k in range(28)]
    x0 = LinearForm.variable(0, 3, F)
    assert np.array_equal(wanted[0], product_of_linear_forms(g0 + [x0] * 28).coeffs)
    assert np.array_equal(wanted[4495], product_of_linear_forms(g1 + [x0] * 28).coeffs)
    assert np.array_equal(wanted[2 * 4495], product_of_linear_forms(ls[1:] + [x0]).coeffs)
    assert np.array_equal(wanted[2 * 4495 + 220], product_of_linear_forms(fs + g0[1:] + [x0]).coeffs)


def test_cubics_top_order_structure():
    # full-depth row elimination (three coordinate blocks at t = 82): the
    # kept rows count 19683 by inclusion-exclusion, and one point per block
    # contributes exactly m(82) - m(55) = 81 independent restricted columns
    from chowdefect.gflinalg import rank_from_column_blocks

    spec = bo.prepare_build(CUB, 82, 3, 0, 1, FormSampler(2024, F))
    assert spec.rows_full == 98770
    assert spec.rows == 19683
    assert spec.cols == 3 * 3 * 27
    rank = rank_from_column_blocks(bo.column_blocks(spec, F), spec.rows, 8191, total_cols=spec.cols)
    assert rank == 3 * 81


def test_rank_above_expected_is_a_contradiction(monkeypatch):
    """An expected dimension below the true rank must raise, not retry into UNVERIFIED."""
    plan = bo.plan_statement

    def too_small(config, t, branch):
        info = plan(config, t, branch)
        return {**info, "expected": info["expected"] - 1}

    monkeypatch.setattr(bo, "plan_statement", too_small)
    with pytest.raises(bo.RankContradiction, match="quaternary t=6 s2"):
        bo.verify_statement(QUAT, 6, "s2", seed=3, field=F)


def test_basis_storage_within_plan(monkeypatch):
    """The stored generations of a desk-scale rank fit the planner's basis_bytes."""
    from chowdefect import gflinalg

    bases = []

    class Recording(gflinalg._GenerationBasis):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            bases.append(self)

    monkeypatch.setattr(gflinalg, "_GenerationBasis", Recording)
    # wide and full rank, then tall (more rows than columns)
    for cfg, t, branch in ((QUAT, 16, "s2"), (CUB, 8, "s1")):
        bound = bo.plan_statement(cfg, t, branch)["basis_bytes"]
        bases.clear()
        out = bo.verify_statement(cfg, t, branch, seed=5, field=F)
        assert out.verdict == "TRUE"
        outer = bases[0]  # inner recursion bases come later and are transient
        assert outer.rank == out.found
        stored = sum(T.nbytes for _, _, T in outer.generations)
        assert 0 < stored <= bound


def test_streaming_charges_column_pulls_to_construction(monkeypatch):
    blocks = bo.column_blocks

    def slow_blocks(*args, **kwargs):
        for b in blocks(*args, **kwargs):
            time.sleep(0.2)
            yield b

    monkeypatch.setattr(bo, "column_blocks", slow_blocks)
    out = bo.verify_statement(QUAT, 6, "s2", seed=3, field=F)
    assert out.verdict == "TRUE"
    assert out.construct_seconds >= 0.2
    assert out.rank_seconds < 0.2


def small_specs():
    """Full statements of both families, plus orders that exercise the subspace
    columns (quaternary) and row elimination (cubics) at a few hundred columns."""
    specs = []
    for cfg, t, branch in ((QUAT, 6, "s2"), (CUB, 7, "s1")):
        plan = bo.point_plan(cfg, t, branch)
        specs.append(bo.prepare_build(cfg, t, plan.order, plan.eta, plan.mu, FormSampler(5, F)))
    specs.append(bo.prepare_build(QUAT, 28, 1, 1, 1, FormSampler(6, F)))
    specs.append(bo.prepare_build(CUB, 28, 1, 1, 1, FormSampler(7, F)))
    return specs


def test_column_blocks_any_width_stack_to_one_matrix():
    # odd widths put one group of n+1 tangent columns across a block boundary
    for spec in small_specs():
        want = None
        for width in (1, 3, 4, 7, 256):
            held = []
            for b in bo.column_blocks(spec, F, width):
                assert b.shape[0] == spec.rows and 1 <= b.shape[1] <= width
                held.append((b, b.copy()))
            # the stream has finished: no block handed out earlier was overwritten
            for b, copy in held:
                assert np.array_equal(b, copy)
            stacked = np.hstack([b for b, _ in held])
            assert stacked.shape == (spec.rows, spec.cols)
            if want is None:
                want = stacked
            assert np.array_equal(stacked, want)


def test_column_count_mismatch_is_loud():
    import dataclasses

    spec = small_specs()[0]
    for wrong in (spec.cols - 1, spec.cols + 1):
        bad = dataclasses.replace(spec, cols=wrong)
        with pytest.raises(AssertionError, match="columns"):
            for _ in bo.column_blocks(bad, F):
                pass
