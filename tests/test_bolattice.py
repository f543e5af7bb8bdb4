import json
import os
import subprocess
import sys
import time
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import chowdefect.bolattice as bo
import chowdefect.certificate as cert
from chowdefect.finite_calculus import Quasipolynomial, backward_diff, binomial
from chowdefect.gfpoly import RESIDUE_DTYPE, PrimeField
from chowdefect.gflinalg import rank_from_column_blocks
from chowdefect.sampling import FormSampler
from chowdefect.chow import SecantProblem, terracini_rank

F = PrimeField(8191)
QUAT = bo.config_for(bo.QUATERNARY)
CUB = bo.config_for(bo.CUBICS)


def build(cfg, t, branch, seed):
    """A statement's spec and its column blocks stacked into one matrix."""
    plan = bo.plan_statement(cfg, t, branch)
    spec = bo.prepare_build(cfg, t, plan["i"], plan["eta"], plan["mu"], FormSampler(seed, F))
    return spec, np.hstack([np.zeros((spec.rows, 0)), *bo.column_blocks(spec, F)])


def rank_of(matrix):
    """The rank of a whole matrix, passed to the engine as one block."""
    return rank_from_column_blocks(iter([matrix]), matrix.shape[0], F.modulus)


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
    assert bo.plan_statement(QUAT, 5, "s1")["abundance"] == bo.SUB
    assert bo.plan_statement(QUAT, 5, "s2")["abundance"] == bo.SUPER
    assert bo.plan_statement(QUAT, 82, "s1")["abundance"] == bo.EQUI
    assert bo.plan_statement(QUAT, 82, "s2")["abundance"] == bo.EQUI


def test_plan_statement_point_counts():
    p5 = bo.plan_statement(QUAT, 5, "s1")
    assert (p5["eta"], p5["mu"], p5["i"]) == (3, 0, 0)
    p32 = bo.plan_statement(QUAT, 32, "s1")
    assert (p32["eta"], p32["mu"]) == (64, 3)
    p82 = bo.plan_statement(QUAT, 82, "s1")
    assert (p82["eta"], p82["mu"]) == (0, 81)


def test_point_partition_identity_wide():
    for cfg in (QUAT, CUB):
        for t in range(cfg.t_first, 201):
            for branch in ("s1", "s2"):
                i = bo.point_split(cfg, t, branch)[0]  # raises NegativeCount on a negative count
                s = cfg.s(branch)
                assert sum(
                    binomial(i, j) * backward_diff(s, i - j, t - j * cfg.ell, cfg.ell) for j in range(i + 1)
                ) == s(t), (cfg.family, t, branch)


def test_negative_count_detected():
    shifted = Quasipolynomial(
        27, [[c0 - 20, c1, c2] for c0, c1, c2 in QUAT.s1.coeffs]
    )
    cfg = bo.LatticeConfig("quaternary", 27, 3, 82, shifted, QUAT.s2)
    with pytest.raises(bo.NegativeCount):
        bo.plan_statement(cfg, 2, "s1")


def test_schedule_counts():
    assert len(bo.base_case_schedule(QUAT, cap=10)) == 18
    assert len(bo.base_case_schedule(QUAT)) == 162
    assert len(bo.base_case_schedule(CUB)) == 164
    last = bo.base_case_schedule(QUAT)[-1]
    assert (last["t"], last["i"], last["branch"]) == (82, 3, "s2")
    assert all(p["i"] == 0 for p in bo.base_case_schedule(CUB, cap=27))
    assert bo.base_case_schedule(CUB, cap=1) == [bo.plan_statement(CUB, 1, b) for b in ("s1", "s2")]


def test_schedule_headline_numbers():
    plan = bo.plan_statement(QUAT, 82, "s2")
    assert plan["rows"] == 98770
    assert plan["points"] == 400
    assert plan["abundance"] == bo.EQUI
    assert plan["cols"] == 3 * binomial(58, 3) + 3 * 81 * 27 * 4


def test_degree_build_shapes():
    # the stream keeps 3t+1 of the 4t generators per point
    _, m = build(QUAT, 5, "s1", 1452337571)
    assert m.shape == (56, 48) and bo.plan_statement(QUAT, 5, "s1")["expected"] == 48
    assert rank_of(m) == 48
    _, m2 = build(QUAT, 2, "s1", 7)  # tall: the rank runs at full height
    assert m2.shape == (10, 7) and bo.plan_statement(QUAT, 2, "s1")["expected"] == 7
    assert rank_of(m2) == 7


def test_degree_plan_t32():
    plan = bo.plan_statement(QUAT, 32, "s1")
    assert plan["rows"] == 6545
    assert plan["cols"] == 56 + 64 * 32 * 4 + 1 * 3 * 27 * 4 == 8572
    assert plan["expected"] == 6507


def test_dimension_build_shapes():
    # the stream keeps 3t+1 of the 3t+3 generators per point
    spec, m = build(CUB, 5, "s1", 3)
    assert m.shape == (56, 48) and bo.plan_statement(CUB, 5, "s1")["expected"] == 48
    assert spec.row_keep is None and spec.rows == spec.rows_full == 56
    assert rank_of(m) == 48


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
                assert len(full_generator_columns(spec)) == plan["cols"]
                assert m.shape == (plan["rows"], bo.kept_column_count(spec))


def test_lower_order_build():
    # prepare_build accepts orders below K(t); i=0 at t=28 needs no subspaces,
    # and every point is generic
    spec = bo.prepare_build(CUB, 28, 0, CUB.s1(28), 0, FormSampler(4, F))
    assert spec.rows == binomial(31, 3) and spec.row_keep is None
    assert sum(b.shape[1] for b in bo.column_blocks(spec, F)) == bo.kept_column_count(spec)
    expected = min(bo.a_i(CUB, 0, 28, "s1"), CUB.N(28)) - bo.eliminated_row_count(CUB, 28, 0)
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


def test_no_statement_below_t_first():
    """Quaternary statements start at t=2: t=1 (a 4 x 0 and a 4 x 4 matrix)
    is refused by the plan and so by verification; cubics start at t=1."""
    assert (QUAT.t_first, CUB.t_first) == (2, 1)
    for branch in ("s1", "s2"):
        with pytest.raises(ValueError, match="start at t=2"):
            bo.plan_statement(QUAT, 1, branch)
        with pytest.raises(ValueError, match="start at t=2"):
            bo.verify_statement(QUAT, 1, branch, seed=9, field=F)
        assert bo.verify_statement(CUB, 1, branch, seed=9, field=F).verdict == "TRUE"
    with pytest.raises(ValueError, match="start at t=1"):
        bo.plan_statement(CUB, 0, "s1")


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
    # the streamed rank of verify_statement against the rank of the stacked
    # blocks' transpose: a different elimination of the same matrix
    for cfg, t, branch in ((QUAT, 9, "s1"), (CUB, 8, "s2")):
        out = bo.verify_statement(cfg, t, branch, seed=77, field=F)
        spec, m = build(cfg, t, branch, out.seed)
        assert out.found == rank_of(m.T)
        assert (out.expected, out.verdict) == (bo.plan_statement(cfg, t, branch)["expected"], "TRUE")
        assert out.forms == tuple((label, tuple(int(v) for v in c)) for label, c in spec.forms)


def test_build_deterministic():
    _, a = build(QUAT, 8, "s2", 42)
    _, b = build(QUAT, 8, "s2", 42)
    assert np.array_equal(a, b)


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
    assert rank_of(np.column_stack(two)) == 2 * 20 - 4
    three = two + subspace_cols(2)
    assert rank_of(np.column_stack(three)) == 3 * 20 - 3 * 4


def test_quaternary_order2_columns_match_kernel():
    # two subspace blocks (t = 55): every section of the matrix agrees with
    # an independently computed product of linear forms; the R1 columns of
    # the two blocks alternate, and R3 starts after the 3t+1 kept R2 columns
    from chowdefect.gfpoly import LinearForm, product_of_linear_forms

    spec = bo.prepare_build(QUAT, 55, 2, 1, 1, FormSampler(99, F))
    assert bo.column_count(QUAT, 55, 2, 1, 1) == 2 * 4495 + 55 * 4 + 2 * 27 * 4
    assert bo.kept_column_count(spec) == 2 * 4495 + 166 + 2 * 81
    wanted = {0: None, 1: None, 2 * 4495: None, 2 * 4495 + 166: None}
    at = 0
    for b in bo.column_blocks(spec, F):
        for idx in wanted:
            if at <= idx < at + b.shape[1]:
                wanted[idx] = b[:, idx - at].copy()
        at += b.shape[1]
    assert at == bo.kept_column_count(spec)
    keyed = spec.keyed
    g0 = [LinearForm(3, keyed[("g", 0, 0, k)], F) for k in range(27)]
    g1 = [LinearForm(3, keyed[("g", 0, 1, k)], F) for k in range(27)]
    ls = [LinearForm(3, keyed[("l", 0, 0, k)], F) for k in range(55)]
    fs = [LinearForm(3, keyed[("f", 0, 0, k)], F) for k in range(28)]
    x0 = LinearForm.variable(0, 3, F)
    # a subspace point drops the column of g_{0,0}'s first variable
    first = 1 if g0[0].coeffs[0] else 0
    x_first = LinearForm.variable(first, 3, F)
    assert np.array_equal(wanted[0], product_of_linear_forms(g0 + [x0] * 28).coeffs)
    assert np.array_equal(wanted[1], product_of_linear_forms(g1 + [x0] * 28).coeffs)
    assert np.array_equal(wanted[2 * 4495], product_of_linear_forms(ls[1:] + [x0]).coeffs)
    assert np.array_equal(wanted[2 * 4495 + 166], product_of_linear_forms(fs + g0[1:] + [x_first]).coeffs)


def test_cubics_top_order_structure():
    # full-depth row elimination (three coordinate blocks at t = 82): the
    # kept rows count 19683 by inclusion-exclusion, and one point per block
    # contributes exactly m(82) - m(55) = 81 independent restricted columns
    spec = bo.prepare_build(CUB, 82, 3, 0, 1, FormSampler(2024, F))
    assert spec.rows_full == 98770
    assert spec.rows == 19683
    assert bo.column_count(CUB, 82, 3, 0, 1) == bo.kept_column_count(spec) == 3 * 3 * 27
    rank = rank_from_column_blocks(bo.column_blocks(spec, F), spec.rows, 8191)
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
    """The stored generations of a desk-scale rank are int16 and fit both
    2 * (n*r - r^2/2) bytes and the planner's basis_bytes."""
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
        # an s1 call ranks the s2 stream and hands its s2 outcome to the next call
        ranked = bo.verify_statement(cfg, t, "s2", seed=5, field=F)
        outer = bases[0]  # the temporary bases of pivot extraction come later and are transient
        assert outer.rank == ranked.found
        assert all(T.dtype == np.int16 for _, _, T in outer.generations)
        n, r = out.rows, outer.rank
        stored = sum(T.nbytes for _, _, T in outer.generations)
        assert 0 < stored <= 2 * (n * r - r * r // 2) <= bound


@pytest.mark.parametrize("t", [20, 28])
def test_rank_working_set_within_its_price(monkeypatch, t):
    """Quaternary t s2 (1771 rows in 64-wide panels at t=20, 4495 rows in
    256-wide ones at t=28), its int16 blocks built first and then ranked
    under tracemalloc: the traced peak is at most the final stored
    generations plus the working-set part of basis_bytes, what it prices
    beside the 2 * (n*r - r^2/2) bytes of basis.  Unlike peak RSS, which
    moves with allocator layout, traced allocations repeat exactly, so a
    float64 copy of a whole panel (8.8 MiB at t=28) would show."""
    from chowdefect import gflinalg

    bases = []

    class Recording(gflinalg._GenerationBasis):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            if not bases:  # the statement's basis; those of pivot extraction come later
                bases.append(self)

    monkeypatch.setattr(gflinalg, "_GenerationBasis", Recording)
    plan = bo.plan_statement(QUAT, t, "s2")
    spec = bo.prepare_build(QUAT, t, plan["i"], plan["eta"], plan["mu"], FormSampler(20260809, F))
    blocks = list(bo.column_blocks(spec, F))
    tracemalloc.start()
    try:
        found = rank_from_column_blocks(iter(blocks), spec.rows, F.modulus)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert found == plan["expected"]
    n, r = plan["rows"], min(plan["rows"], plan["cols"])
    working_set = plan["basis_bytes"] - 2 * (n * r - r * r // 2)
    stored = sum(T.nbytes for _, _, T in bases[0].generations)
    assert peak <= stored + working_set, {"peak": peak, "stored": stored, "working_set": working_set}


# VmHWM, KiB: this address space's peak RSS.  ru_maxrss would start at
# the parent's peak, which a child keeps across the exec.
HIGH_WATER = """
def high_water():
    with open("/proc/self/status") as f:
        return next(int(line.split()[1]) for line in f if line.startswith("VmHWM:")) * 1024
"""


def run_fresh(script: str) -> dict:
    """Run script in a fresh interpreter on this checkout's src; its last
    stdout line, parsed as JSON."""
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run([sys.executable, "-c", script], cwd=root, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


PEAK_RSS_SCRIPT = HIGH_WATER + """
import json
from chowdefect import bolattice as bo
from chowdefect.gfpoly import PrimeField
cfg = bo.config_for(bo.QUATERNARY)
bound = bo.plan_statement(cfg, 28, "s2")["basis_bytes"]
before = high_water()
out = bo.verify_statement(cfg, 28, "s2", seed=20260809, field=PrimeField(8191), retries=0)
grown = high_water() - before
print(json.dumps({"verdict": out.verdict, "ratio": grown / bound}))
"""


def test_peak_rss_within_twice_the_plan():
    """Quaternary t=28 s2, verified in a fresh process so that earlier tests
    do not set the high-water mark, grows the process's peak RSS by at
    most 1.5 times the planned basis_bytes: the basis and the block working
    set it prices, plus the column caches."""
    result = run_fresh(PEAK_RSS_SCRIPT)
    assert result["verdict"] == "TRUE"
    assert result["ratio"] <= 1.5, result


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
        plan = bo.plan_statement(cfg, t, branch)
        specs.append(bo.prepare_build(cfg, t, plan["i"], plan["eta"], plan["mu"], FormSampler(5, F)))
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
            assert stacked.shape == (spec.rows, bo.kept_column_count(spec))
            if want is None:
                want = stacked
            assert np.array_equal(stacked, want)


def test_column_count_mismatch_is_loud(monkeypatch):
    spec = small_specs()[0]
    kept = bo.kept_column_count(spec)
    for wrong in (kept - 1, kept + 1):
        monkeypatch.setattr(bo, "kept_column_count", lambda spec: wrong)
        with pytest.raises(AssertionError, match="columns"):
            for _ in bo.column_blocks(spec, F):
                pass


# ---------------------------------------------------------------------------
# column pruning: the generators a statement can drop and the ranks that stay


def full_generator_columns(spec):
    """Every generator column of a statement, with its provenance, built
    from products_omitting_each times every x_v (no division-map gather).

    Entries are (kind, key, column) on the spec's rows: ("R1", (j, a), G_j x^a)
    with the shift monomials a in lex order, subspace blocks j inside, and
    ("T", (point, h, v), x_v * F / l_h) with point = ("generic", pt) or
    ("sub", j, pt).  Cubic subspace points carry only their block's variables.
    """
    from chowdefect.gfpoly import (LinearForm, monomial_exponents, mul_linear,
                                   product_of_linear_forms, products_omitting_each)

    n, t, ell, keyed = spec.n, spec.t, spec.ell, spec.keyed
    rows = slice(None) if spec.row_keep is None else spec.row_keep

    def form(key):
        return LinearForm(n, keyed[key], F)

    def times_monomial(poly, exps):
        for v, e in enumerate(exps):
            for _ in range(e):
                poly = mul_linear(poly, LinearForm.variable(v, n, F))
        return poly

    out = []

    def tangent(point, forms, base=None, variables=range(n + 1)):
        for h, partial in enumerate(products_omitting_each(forms, base)):
            for v in variables:
                col = mul_linear(partial, LinearForm.variable(v, n, F)).coeffs
                out.append(("T", (point, h, v), col[rows]))

    if spec.family == bo.QUATERNARY:
        g = [[form(("g", 0, j, k)) for k in range(ell)] for j in range(spec.i)]
        gj = [product_of_linear_forms(forms) for forms in g]
        if spec.i:
            for a in monomial_exponents(n, t - ell):
                for j in range(spec.i):
                    out.append(("R1", (j, tuple(a)), times_monomial(gj[j], a).coeffs))
        for pt in range(spec.eta):
            tangent(("generic", pt), [form(("l", pt, 0, k)) for k in range(t)])
        for j in range(spec.i):
            for pt in range(spec.mu):
                base = product_of_linear_forms([form(("f", pt, j, k)) for k in range(t - ell)])
                tangent(("sub", j, pt), g[j], base)
    else:
        for pt in range(spec.eta):
            tangent(("generic", pt), [form((r, pt, 0, 0)) for r in "klm"])
        for j in range(spec.i):
            for pt in range(spec.mu):
                tangent(("sub", j, pt), [form((r + "j", pt, j, 0)) for r in "klm"],
                        variables=range(ell * j, ell * (j + 1)))
    return out


def point_factor(spec, point, h):
    """Coefficients of factor h at a point, as the full generator set orders them."""
    if spec.family == bo.QUATERNARY:
        return spec.keyed[("l", point[1], 0, h) if point[0] == "generic" else ("g", 0, point[1], h)]
    role = "klm"[h]
    return spec.keyed[(role, point[1], 0, 0) if point[0] == "generic" else (role + "j", point[2], point[1], 0)]


def dropped(spec, kind, key):
    """The pruning rule: generic points keep factor 0 whole, every other
    factor loses x_v for v its first variable with a nonzero coefficient;
    quaternary subspace points lose that column for every factor, and
    cubic subspace points lose nothing."""
    if kind == "R1":
        return False
    point, h, v = key
    if point[0] == "generic" and h == 0:
        return False
    if point[0] == "sub" and spec.family == bo.CUBICS:
        return False
    return v == int(np.flatnonzero(point_factor(spec, point, h))[0])


def pruning_specs():
    """Both families at order 0 (whole statements) and order 1 (R1 and R3
    columns; cubic row elimination with points inside the subspace)."""
    specs = []
    for cfg, t, branch in ((QUAT, 6, "s2"), (QUAT, 9, "s1"), (CUB, 7, "s1"), (CUB, 9, "s2")):
        plan = bo.plan_statement(cfg, t, branch)
        specs.append(bo.prepare_build(cfg, t, plan["i"], plan["eta"], plan["mu"], FormSampler(11, F)))
    specs.append(bo.prepare_build(QUAT, 28, 1, 2, 2, FormSampler(12, F)))
    specs.append(bo.prepare_build(CUB, 28, 1, 2, 2, FormSampler(13, F)))
    return specs


def test_dropped_columns_are_exact_combinations_of_kept_ones():
    # x_v F/l_h = c_{h,v}^{-1} (F - sum_{u != v} c_{h,u} x_u F/l_h), with F
    # from the kept factor-0 columns of a generic point, or from the R1
    # columns G_j x^a of a subspace point (F = base * G_j); checked mod P
    from chowdefect.gfpoly import LinearForm, monomial_exponents, product_of_linear_forms

    p = F.modulus
    for spec in pruning_specs():
        cols = {(kind, key): col for kind, key, col in full_generator_columns(spec)}
        n_dropped = 0
        for (kind, key), col in cols.items():
            if not dropped(spec, kind, key):
                continue
            n_dropped += 1
            point, h, v = key
            if point[0] == "generic":
                c0 = point_factor(spec, point, 0)
                F_col = sum(int(c0[u]) * cols[("T", (point, 0, u))] for u in range(spec.n + 1))
            else:
                j, pt = point[1], point[2]
                base = product_of_linear_forms([
                    LinearForm(spec.n, spec.keyed[("f", pt, j, k)], F) for k in range(spec.t - spec.ell)
                ])
                shifts = monomial_exponents(spec.n, spec.t - spec.ell)
                F_col = sum(int(b) * cols[("R1", (j, tuple(a)))] for b, a in zip(base.coeffs, shifts))
            c = point_factor(spec, point, h)
            rest = sum(int(c[u]) * cols[("T", (point, h, u))] for u in range(spec.n + 1) if u != v)
            want = (F_col - rest) % p * pow(int(c[v]), p - 2, p) % p
            assert np.array_equal(col % p, want), (spec.family, spec.t, key)
        kept = len(cols) - n_dropped
        # 3t+1 per generic point, 3*ell per subspace point, plus the R1 generators
        r1 = spec.i * binomial(spec.t - spec.ell + 3, 3) if spec.family == bo.QUATERNARY else 0
        assert kept == r1 + spec.eta * (3 * spec.t + 1) + spec.i * spec.mu * 3 * spec.ell


def test_pruned_and_full_generators_have_equal_rank():
    for spec in pruning_specs():
        full = full_generator_columns(spec)
        pruned = [col for kind, key, col in full if not dropped(spec, kind, key)]
        assert len(pruned) < len(full)
        whole = rank_of(np.column_stack([col for _, _, col in full]))
        assert rank_of(np.column_stack(pruned)) == whole


def test_column_blocks_stream_is_the_kept_generators():
    # the stream is the full generator set minus the dropped columns, in order
    for spec in pruning_specs():
        kept = [col for kind, key, col in full_generator_columns(spec) if not dropped(spec, kind, key)]
        stream = np.hstack(list(bo.column_blocks(spec, F, 7)))
        assert stream.dtype == RESIDUE_DTYPE
        assert np.array_equal(stream, np.column_stack(kept))


@pytest.mark.parametrize("family", (bo.QUATERNARY, bo.CUBICS))
@pytest.mark.parametrize("t", (2, 16, 28))
def test_int16_stream_equals_a_float64_build(monkeypatch, family, t):
    """The int16 stream equals, value for value, the stream built with
    float64 sources and buffers from the same forms, at the largest prime,
    whose residues come closest to the int16 maximum.  Cubics t=28 s2
    gathers only the rows in Y."""
    from chowdefect import gfpoly

    field = PrimeField(32749)
    cfg = bo.config_for(family)
    plan = bo.plan_statement(cfg, t, "s2")
    spec = bo.prepare_build(cfg, t, plan["i"], plan["eta"], plan["mu"], FormSampler(20260809, field))
    assert (spec.row_keep is not None) == (family == bo.CUBICS and t == 28)
    narrow = list(bo.column_blocks(spec, field))
    monkeypatch.setattr(bo, "RESIDUE_DTYPE", np.float64)
    monkeypatch.setattr(gfpoly, "RESIDUE_DTYPE", np.float64)
    wide = list(bo.column_blocks(spec, field))
    assert len(narrow) == len(wide)
    for a, b in zip(narrow, wide):
        assert a.dtype == RESIDUE_DTYPE and b.dtype == np.float64
        assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# one rank pass per t: an s1 call ranks the s2 stream and hands s2 its outcome


def lone_outcome(cfg, t, branch, seed):
    """A statement's outcome with its own stream ranked on its own, built
    without verify_statement; timings are 0."""
    plan = bo.plan_statement(cfg, t, branch)
    sampler = FormSampler(seed, F)
    spec = bo.prepare_build(cfg, t, plan["i"], plan["eta"], plan["mu"], sampler)
    found = rank_from_column_blocks(bo.column_blocks(spec, F), spec.rows, F.modulus)
    return bo.VerificationOutcome(
        family=cfg.family, t=t, i=plan["i"], branch=branch, abundance=plan["abundance"],
        rows=plan["rows"], cols=plan["cols"], expected=plan["expected"], found=found,
        verdict="TRUE" if found == plan["expected"] else "UNVERIFIED", seed=seed, prime=F.modulus,
        resamples=sampler.resamples, retries=0, construct_seconds=0.0, rank_seconds=0.0,
        attempts=((seed, found),),
        forms=tuple((label, tuple(int(v) for v in c)) for label, c in spec.forms),
    )


def untimed(out):
    return replace(out, construct_seconds=0.0, rank_seconds=0.0)


def counting_rank(monkeypatch, calls, report=None, end=None):
    """Wrap the rank that verify_statement calls, recording each call's
    total_cols.  On the first call only, `report(done, total,
    rank)` is the rank its progress reports and `end(rank)` the rank it
    returns, if given."""
    real = bo.rank_from_column_blocks

    def rank(blocks, n_rows, modulus, total_cols=None, progress=None):
        calls.append(total_cols)
        first = len(calls) == 1
        hook = progress
        if report is not None and first:
            def hook(done, total, rank):
                progress(done, total, report(done, total, rank))
        found = real(blocks, n_rows, modulus, total_cols=total_cols, progress=hook)
        return end(found) if end is not None and first else found

    monkeypatch.setattr(bo, "rank_from_column_blocks", rank)


@pytest.mark.parametrize("cfg", (QUAT, CUB), ids=lambda c: c.family)
@pytest.mark.parametrize("t", (2, 16, 28, 30))
def test_shared_pass_outcomes_equal_lone_ones(monkeypatch, cfg, t):
    """Orders 0 and 1: the s1 outcome read at the mark and the s2 outcome
    handed on equal those of each stream ranked on its own, field for
    field, and so do their certificates, byte for byte; the pair took
    one rank call."""
    calls = []
    counting_rank(monkeypatch, calls)
    seed = 20260809
    s1 = bo.verify_statement(cfg, t, "s1", seed=seed, field=F)
    s2 = bo.verify_statement(cfg, t, "s2", seed=seed, field=F)
    assert len(calls) == 1
    for out in (s1, s2):
        lone = lone_outcome(cfg, t, out.branch, seed)
        assert untimed(out) == lone
        assert cert.emit_text(untimed(out)) == cert.emit_text(lone)
        assert out.verdict == "TRUE"


def test_rank_step_reads_each_leading_stream_at_its_mark():
    """rank_and_bound ranks the last stream once and reads each leading
    stream's rank at its mark: one of 0 columns, one that ends inside a
    256-column block (192 columns) and one that ends on a block boundary
    (256).  Each read equals the rank of that stream ranked alone, and
    the caller's hook sees every block, split at the marks."""
    t = 21  # order 0, 3t+1 = 64 columns a point: 3 points end inside a block, 4 on its edge
    plan = bo.plan_statement(QUAT, t, "s2")
    specs = [bo.prepare_build(QUAT, t, 0, eta, 0, FormSampler(5, F)) for eta in (0, 3, 4, 6)]
    assert [bo.kept_column_count(spec) for spec in specs] == [0, 192, 256, 384]
    seen = []
    read = bo.rank_and_bound([(plan, spec) for spec in specs], F, 5, lambda *report: seen.append(report))
    assert [found for found, _, _ in read] == [
        rank_from_column_blocks(bo.column_blocks(spec, F), spec.rows, F.modulus) for spec in specs
    ] == [0, 192, 256, 384]
    assert [(done, total) for done, total, _ in seen] == [(192, 384), (256, 384), (384, 384)]
    assert read[0][1] == 0.0 and all(pulled >= 0 and ranked >= 0 for _, pulled, ranked in read)


@pytest.mark.parametrize("cfg", (QUAT, CUB), ids=lambda c: c.family)
def test_order_two_pair_is_ranked_once(monkeypatch, cfg):
    """From order 2 on the two branches are one statement: a rank that
    returns the expected value is called once for the pair."""
    calls = []
    expected = bo.plan_statement(cfg, 55, "s2")["expected"]

    def fake_rank(blocks, n_rows, modulus, total_cols=None, progress=None):
        calls.append(total_cols)
        return expected

    monkeypatch.setattr(bo, "rank_from_column_blocks", fake_rank)
    s1 = bo.verify_statement(cfg, 55, "s1", seed=3, field=F)
    s2 = bo.verify_statement(cfg, 55, "s2", seed=3, field=F)
    assert len(calls) == 1
    assert s1.verdict == s2.verdict == "TRUE"
    assert s1.forms == s2.forms and s1.found == s2.found == expected


def test_shortfall_at_the_mark_retries_s1_alone(monkeypatch):
    calls = []
    # one short at every report before the end, so at the s1 mark
    counting_rank(monkeypatch, calls, lambda done, total, rank: rank - (done < total))
    p1, p2 = (bo.plan_statement(QUAT, 16, b) for b in bo.BRANCHES)
    s1 = bo.verify_statement(QUAT, 16, "s1", seed=3, field=F)
    assert s1.verdict == "TRUE" and s1.retries == 1
    assert s1.attempts[0] == (3, p1["expected"] - 1) and s1.seed != 3
    assert calls[1] < calls[0]  # the retry ranks the s1 stream alone
    s2 = bo.verify_statement(QUAT, 16, "s2", seed=3, field=F)
    assert (s2.verdict, s2.retries, s2.seed, s2.found) == ("TRUE", 0, 3, p2["expected"])
    assert len(calls) == 2


def test_shortfall_at_the_end_leaves_s2_to_itself(monkeypatch):
    calls = []
    counting_rank(monkeypatch, calls, end=lambda rank: rank - 1)
    s1 = bo.verify_statement(QUAT, 16, "s1", seed=3, field=F)
    assert (s1.verdict, s1.retries) == ("TRUE", 0)
    s2 = bo.verify_statement(QUAT, 16, "s2", seed=3, field=F)
    assert (s2.verdict, s2.retries) == ("TRUE", 0)
    assert len(calls) == 2  # nothing was handed on


@pytest.mark.parametrize("where, report, end", (
    ("s1", lambda done, total, rank: rank + (done < total), None),
    ("s2", None, lambda rank: rank + 1),
), ids=("at the mark", "at the end"))
def test_rank_above_expected_in_the_shared_pass_is_a_contradiction(monkeypatch, where, report, end):
    calls = []
    counting_rank(monkeypatch, calls, report, end)
    with pytest.raises(bo.RankContradiction, match=f"quaternary t=16 {where}"):
        bo.verify_statement(QUAT, 16, "s1", seed=3, field=F)
    assert bo.verify_statement(QUAT, 16, "s2", seed=3, field=F).verdict == "TRUE"
    assert len(calls) == 2  # nothing was handed on


def test_handoff_goes_only_to_the_next_matching_s2_call(monkeypatch):
    calls = []
    counting_rank(monkeypatch, calls)

    def ranks(cfg, t, branch, seed=3, field=F):
        before = len(calls)
        bo.verify_statement(cfg, t, branch, seed=seed, field=field)
        return len(calls) - before

    assert ranks(QUAT, 5, "s1") == 1
    assert ranks(QUAT, 5, "s2") == 0
    assert ranks(QUAT, 5, "s2") == 1  # a second s2 call ranks again
    for other in ((QUAT, 5, "s2", 4), (QUAT, 5, "s2", 3, PrimeField(8179)), (QUAT, 6, "s2"), (CUB, 5, "s2")):
        ranks(QUAT, 5, "s1")
        assert ranks(*other) == 1, other
    ranks(QUAT, 5, "s1")
    ranks(CUB, 4, "s2")
    assert ranks(QUAT, 5, "s2") == 1  # a call in between empties the hand-off
    ranks(QUAT, 5, "s1")
    with pytest.raises(ValueError, match="start at t=2"):
        ranks(QUAT, 1, "s1")  # even one that is refused
    assert ranks(QUAT, 5, "s2") == 1
    # what is handed on is the s2 rank read of one exact stream, keyed by the kind of call
    ranks(QUAT, 5, "s1")
    key, read = bo.take_handoff()
    plan = bo.plan_statement(QUAT, 5, "s2")
    spec = bo.prepare_build(QUAT, 5, plan["i"], plan["eta"], plan["mu"], FormSampler(3, F))
    assert key == bo.stream_key("verify", spec, F)
    assert len(read) == 3 and read[0] == plan["expected"]
    assert bo.take_handoff() is None
    assert ranks(QUAT, 5, "s2") == 1  # taken once, so gone


@pytest.mark.parametrize("cfg", (QUAT, CUB), ids=lambda c: c.family)
def test_s1_plan_leads_the_s2_plan(cfg):
    """What the hand-off rests on, for every base case: the s1 forms are
    the leading part of the s2 forms in emission order, with the same
    labels and keys, so the s1 stream is the leading part of the s2
    stream; and from order 2 on the two plans differ only in branch and
    points.  On both branches the kept columns lie between the expected
    rank and the full generator count, and at orders 0 and 1 the s1
    stream keeps exactly as many columns as its expected rank."""
    for t in range(cfg.t_first, cfg.t0 + 1):
        plans = [bo.plan_statement(cfg, t, b) for b in bo.BRANCHES]
        forms = [list(bo.form_plan(cfg.family, t, p["i"], cfg.ell, p["eta"], p["mu"])) for p in plans]
        assert forms[1][: len(forms[0])] == forms[0], t
        kept = [bo.kept_column_count(SimpleNamespace(family=cfg.family, t=t, ell=cfg.ell, **{
            k: p[k] for k in ("i", "eta", "mu")})) for p in plans]
        assert kept[0] <= kept[1], t
        for p, k in zip(plans, kept):
            assert p["expected"] <= k <= p["cols"], (t, p["branch"])
        if plans[0]["i"] <= 1:
            assert kept[0] == plans[0]["expected"], t
        assert plans[0]["basis_bytes"] == plans[1]["basis_bytes"], t
        if plans[0]["i"] >= 2:
            same = [{k: v for k, v in p.items() if k not in ("branch", "points")} for p in plans]
            assert same[0] == same[1], t


def test_s1_resamples_count_its_own_forms(monkeypatch):
    class EveryFormResampled(FormSampler):
        def draw(self, *args, **kwargs):
            self.resamples += 1
            return super().draw(*args, **kwargs)

    monkeypatch.setattr(bo, "FormSampler", EveryFormResampled)
    s1 = bo.verify_statement(QUAT, 5, "s1", seed=3, field=F)
    s2 = bo.verify_statement(QUAT, 5, "s2", seed=3, field=F)
    assert s2.attempts == ((3, s2.found),)  # handed on
    assert (s1.resamples, s2.resamples) == (len(s1.forms), len(s2.forms))
