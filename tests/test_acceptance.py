"""Acceptance suite: one test and one printed PASS line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria complete.  Criterion 2 is the heavy one (a full desk-scale
sweep of every base case through t = 33 for both families and both
point-count branches); everything else finishes in seconds.
"""

import time

import numpy as np

import chowdefect.bolattice as bo
import chowdefect.certificate as cert
from chowdefect.chow import SecantProblem, terracini_rank
from chowdefect.cli import main
from chowdefect.finite_calculus import binomial, newton_reconstruct
from chowdefect.gfpoly import (
    LinearForm,
    PrimeField,
    division_map,
    naive_product_oracle,
    product_of_linear_forms,
)
from chowdefect.sampling import FormSampler

F = PrimeField(8191)
QUAT = bo.config_for(bo.QUATERNARY)
CUB = bo.config_for(bo.CUBICS)

SWEEP_SEED = 20260809


def ok(n, detail):
    print(f"\nACCEPTANCE {n}: PASS  ({detail})")


def test_criterion_1_paper_certificate_reproduction(tmp_path, capsys, monkeypatch):
    """verify --family quaternary --t 5 --branch s1 --prime 8191 reproduces
    the published 56 x 60 / rank 48 / TRUE (SUBABUNDANT) certificate."""
    start = time.perf_counter()
    out = bo.verify_statement(QUAT, 5, "s1", seed=1452337571, field=F)
    elapsed = time.perf_counter() - start
    assert (out.rows, out.cols) == (56, 60)
    assert out.found == out.expected == 48
    assert out.verdict == "TRUE" and out.abundance == "SUB"
    assert elapsed < 1.0, f"took {elapsed:.3f}s"

    monkeypatch.chdir(tmp_path)
    code = main(["verify", "--family", "quaternary", "--t", "5", "--branch", "s1",
                 "--prime", "8191", "--seed", "1452337571"])
    captured = capsys.readouterr().out
    assert code == 0
    assert "Need a 56 x 60 matrix." in captured
    assert "Found 48 vs. 48 expected." in captured
    assert "is TRUE (SUBABUNDANT)" in captured
    ok(1, f"56 x 60, rank 48, TRUE (SUBABUNDANT), {elapsed:.3f}s")


def test_criterion_2_desk_scale_sweep():
    """Every base case for quaternary t=2..33 and cubics t=1..33, both
    branches, verifies TRUE within the 15 minute budget; the full-depth
    t=82 statements plan without overflow."""
    start = time.perf_counter()
    failures = []
    count = 0
    for config in (QUAT, CUB):
        for plan in bo.base_case_schedule(config, cap=33):
            out = bo.verify_statement(config, plan["t"], plan["branch"], seed=SWEEP_SEED, field=F)
            count += 1
            if out.verdict != "TRUE":
                failures.append((config.family, plan["t"], plan["branch"], out.found, out.expected))
    elapsed = time.perf_counter() - start
    assert not failures, f"unverified statements: {failures}"
    assert count == 64 + 66
    assert elapsed < 900, f"sweep took {elapsed:.0f}s"

    for branch in ("s1", "s2"):
        plan = bo.plan_statement(QUAT, 82, branch)
        assert plan["rows"] == 98770 and plan["cols"] > 0 and plan["expected"] == 98770
        plan = bo.plan_statement(CUB, 82, branch)
        assert plan["rows"] == 98770 - 79087 and plan["expected"] >= 0
    ok(2, f"{count} statements TRUE in {elapsed:.0f}s; t=82 plans consistent")


def test_criterion_3_schedule_arithmetic(capsys):
    """The quaternary schedule tops out at t=82 with 98770 ambient rows
    and a 400-point superabundant branch."""
    code = main(["schedule", "--family", "quaternary"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 1 + 162
    top = [ln.split("\t") for ln in lines if ln.startswith("quaternary\t82")]
    assert len(top) == 2
    for fields in top:
        assert fields[7] == "98770"
    assert top[1][3] == "s2" and top[1][4] == "400"
    ok(3, "162 statements; t=82 rows carry N=98770 and s2(82)=400")


def test_criterion_4_defective_quadric_oracle():
    """terracini_rank(d=2, n, s) equals the known affine dimension
    C(n+2,2) - C(n-2s+2,2) across the whole defective range."""
    start = time.perf_counter()
    checked = 0
    for n in range(4, 9):
        for s in range(2, n // 2 + 1):
            want = binomial(n + 2, 2) - binomial(n - 2 * s + 2, 2)
            got = terracini_rank(SecantProblem(d=2, n=n, s=s), seed=97, field=F)
            assert got == want, (n, s, got, want)
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10
    ok(4, f"{checked} (n, s) pairs exact in {elapsed:.2f}s")


def test_criterion_5_arithmetic_identity_suite():
    """Newton formula, power rule, point partition, ceiling identity,
    top-order equiabundance and the Grassmann recursion, all exact."""
    start = time.perf_counter()
    violations = []
    for config in (QUAT, CUB):
        violations += bo.proof_function_checks(config, t_max=200)
        violations += bo.induction_arithmetic_check(config, range(28, 201))
    for q in (QUAT.s1, QUAT.s2):
        for order in range(5):
            for t in range(95, 103):
                if newton_reconstruct(q, order, t, 27) != q(t):
                    violations.append(f"newton {order} at {t}")
    for t in range(82, 201):
        if bo.a_i(QUAT, 3, t, "s1") != binomial(t + 3, 3):
            violations.append(f"top order at {t}")
    elapsed = time.perf_counter() - start
    assert violations == []
    assert elapsed < 5
    ok(5, f"all identities hold through t=200 in {elapsed:.2f}s")


def test_criterion_6_kernel_oracle_equivalence():
    """The sequential product kernel agrees with the tensor-expansion
    oracle on 100 random instances."""
    start = time.perf_counter()
    rng = np.random.default_rng(606)
    sampler = FormSampler(606, F)
    for trial in range(100):
        n = int(rng.integers(1, 4))
        d = int(rng.integers(1, 7))
        forms = [LinearForm(n, sampler.linear_form("o", n, i=trial, gamma=g), F) for g in range(d)]
        fast = product_of_linear_forms(forms)
        slow = naive_product_oracle(forms)
        assert np.array_equal(fast.coeffs, slow.coeffs), (trial, n, d)
    elapsed = time.perf_counter() - start
    assert elapsed < 5
    ok(6, f"100 random products match the oracle in {elapsed:.2f}s")


def test_criterion_7_determinism_and_tamper_rejection():
    """Same seed gives byte-identical certificates (timing lines aside);
    every emitted TRUE certificate reverifies; single-coefficient
    tampering is rejected in at least 95 of 100 trials."""

    def body(text):
        return [ln for ln in text.splitlines()
                if not (ln.startswith("Constructed T in") or ln.startswith("Computed the rank"))]

    texts = []
    for config, t, branch in ((QUAT, 9, "s1"), (CUB, 9, "s2")):
        a = cert.emit_text(bo.verify_statement(config, t, branch, seed=1213, field=F))
        b = cert.emit_text(bo.verify_statement(config, t, branch, seed=1213, field=F))
        assert body(a) == body(b)
        texts.append(a)
    for text in texts:
        report = cert.reverify(cert.parse(text))
        assert report.ok and report.provenance == "confirmed"

    rng = np.random.default_rng(7777)
    base = texts[0]
    lines = base.splitlines()
    form_lines = [i for i, ln in enumerate(lines) if ln.startswith("l_{")]
    rejected = 0
    for _ in range(100):
        i = int(rng.choice(form_lines))
        label, _, vec = lines[i].partition(" = ")
        values = [int(v) for v in vec.strip("[]").split()]
        pos = int(rng.integers(0, len(values)))
        values[pos] = (values[pos] + int(rng.integers(1, 8191))) % 8191
        mutated = lines.copy()
        mutated[i] = f"{label} = [{' '.join(str(v).rjust(4) for v in values)}]"
        try:
            report = cert.reverify(cert.parse("\n".join(mutated) + "\n"))
            if not report.ok:
                rejected += 1
        except Exception:
            rejected += 1
    assert rejected >= 95, f"only {rejected}/100 tampers rejected"
    ok(7, f"byte-deterministic; reverified; {rejected}/100 tampers rejected")


def test_criterion_8_kernel_performance_floor():
    """82 random quaternary linear forms multiply out in under 1.5 s
    single-threaded, including cold index-map construction."""
    division_map.cache_clear()
    sampler = FormSampler(88, F)
    forms = [LinearForm(3, sampler.linear_form("o", 3, i=0, gamma=g), F) for g in range(82)]
    start = time.perf_counter()
    prod = product_of_linear_forms(forms)
    elapsed = time.perf_counter() - start
    assert len(prod.coeffs) == 98770
    assert elapsed < 1.5, f"took {elapsed:.2f}s"
    ok(8, f"82-form product in {elapsed:.2f}s (budget 1.5s)")
