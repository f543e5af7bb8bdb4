"""Statement arithmetic and base-case matrix builders.

Both verification families share the counting data N(t) = C(t+3, 3) and
m(t) = 3t+1 (ambient and tangent dimensions), the step ell = 27, the
top order K0 = 3 and so t0 = 82, together with the quasiquadratic point
counts s1, s2.  A statement at order i asserts that the span of i
chosen subspaces plus the tangent spaces at a structured configuration
of s_b(t) points reaches its expected dimension

    expdim = min{ a_i(t), N(t) },
    a_i(t) = N(t) - diff^i N(t) + i * diff m(t) * diff^{i-1} s(t-ell)
             + m(t) * diff^i s(t),

and it is verified by building an explicit matrix over Z_P whose column
span is that space and comparing its rank with expdim.  The two builders
differ in how the subspaces are realized:

* degree induction (quaternary forms, 4 variables, degree t): the j-th
  subspace is G_j * S^{t-ell}V for a product G_j of ell sampled linear
  forms, and contributes explicit columns;
* dimension induction (cubics, t+1 variables): the j-th subspace is the
  cubics avoiding a coordinate block of ell variables, so instead of
  columns it is eliminated exactly by deleting the monomial rows it
  spans and adjusting the expected rank.

A rank below expdim proves nothing (bad luck or a too-small field), so
failed comparisons retry with derived seeds and finally report
UNVERIFIED, never FALSE.  A rank above expdim contradicts the upper
bound a_i(t) and raises RankContradiction: the arithmetic or the
builder is wrong, and no retry can fix that.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import numpy as np

from .finite_calculus import (
    Quasipolynomial,
    backward_diff,
    binomial,
    make_proof_functions,
)
from .gfpoly import (  # noqa: F401 -- mul_linear stays patchable by name for perfbench
    LinearForm,
    PrimeField,
    division_map,
    lex_positions,
    monomial_count,
    monomial_exponents,
    mul_linear,
    padded,
    product_of_linear_forms,
    products_omitting_each,
)
from .gflinalg import DEFAULT_BLOCK, ProgressHook, rank_from_column_blocks
from .sampling import FormSampler, derive_retry_seed

QUATERNARY = "quaternary"
CUBICS = "cubics"
BRANCHES = ("s1", "s2")

SUB, SUPER, EQUI = "SUB", "SUPER", "EQUI"


class NegativeCount(ArithmeticError):
    """A point count came out negative: the s function is inconsistent."""


class RankContradiction(ArithmeticError):
    """A rank above the expected dimension, which is an upper bound."""


@dataclass(frozen=True)
class LatticeConfig:
    """Family parameters shared by all statements of one induction."""

    family: str
    ell: int
    k0: int
    t0: int
    s1: Quasipolynomial
    s2: Quasipolynomial

    def __post_init__(self):
        if self.family not in (QUATERNARY, CUBICS):
            raise ValueError(f"unknown family {self.family!r}")
        if self.t0 != self.ell * self.k0 + 1:
            raise ValueError(f"t0 must be ell*K0+1 = {self.ell * self.k0 + 1}, got {self.t0}")
        # the induction arithmetic needs LC(s) = LC(N)/LC(m) and deg s = K0-1
        want_lc = Fraction(1, 6) / 3
        for s in (self.s1, self.s2):
            if s.degree != self.k0 - 1:
                raise ValueError(f"s must have degree {self.k0 - 1}, got {s.degree}")
            if s.leading_coefficient != want_lc:
                raise ValueError(f"LC(s) must be {want_lc}, got {s.leading_coefficient}")

    def N(self, t: int) -> int:
        return binomial(t + 3, 3)

    def m(self, t: int) -> int:
        return 3 * t + 1

    def s(self, branch: str) -> Quasipolynomial:
        if branch not in BRANCHES:
            raise ValueError(f"branch must be one of {BRANCHES}, got {branch!r}")
        return self.s1 if branch == "s1" else self.s2

    def K(self, t: int) -> int:
        if t < 1:
            raise ValueError(f"t must be >= 1, got {t}")
        return min(-(-t // self.ell) - 1, self.k0)


def quaternary_config() -> LatticeConfig:
    """Degree induction for quaternary forms: X(t) is the degree-t Chow
    variety in 4 variables."""
    s1, s2 = make_proof_functions()
    return LatticeConfig(QUATERNARY, ell=27, k0=3, t0=82, s1=s1, s2=s2)


def cubics_config() -> LatticeConfig:
    """Dimension induction for cubics: X(t) is the cubic Chow variety in
    t+1 variables."""
    s1, s2 = make_proof_functions()
    return LatticeConfig(CUBICS, ell=27, k0=3, t0=82, s1=s1, s2=s2)


def config_for(family: str) -> LatticeConfig:
    return quaternary_config() if family == QUATERNARY else cubics_config()


@dataclass(frozen=True)
class Statement:
    t: int
    i: int
    branch: str


@dataclass(frozen=True)
class PointPlan:
    """Counts of generic points (eta) and per-subspace points (mu)."""

    eta: int
    mu: int
    order: int


def a_i(config: LatticeConfig, i: int, t: int, branch: str) -> int:
    """Upper bound on the dimension of the order-i span at parameter t."""
    if not 0 <= i <= config.K(t):
        raise ValueError(f"order {i} outside 0..K({t})={config.K(t)}")
    s = config.s(branch)
    ell = config.ell
    val = config.N(t) - backward_diff(config.N, i, t, ell) + config.m(t) * backward_diff(s, i, t, ell)
    if i >= 1:
        grad_m = config.m(t) - config.m(t - ell)
        val += i * grad_m * backward_diff(s, i - 1, t - ell, ell)
    return val


def abundance(config: LatticeConfig, i: int, t: int, branch: str) -> str:
    a = a_i(config, i, t, branch)
    n = config.N(t)
    return SUB if a < n else SUPER if a > n else EQUI


def expected_dim(config: LatticeConfig, i: int, t: int, branch: str) -> int:
    return min(a_i(config, i, t, branch), config.N(t))


def point_plan(config: LatticeConfig, t: int, branch: str, i: int | None = None) -> PointPlan:
    """Point counts for the order-i statement (default i = K(t)).

    Validates the partition identity
    sum_j C(i,j) diff^{i-j} s(t - j*ell) = s(t) before returning.
    """
    if i is None:
        i = config.K(t)
    if not 0 <= i <= config.K(t):
        raise ValueError(f"order {i} outside 0..K({t})={config.K(t)}")
    s = config.s(branch)
    ell = config.ell
    eta = backward_diff(s, i, t, ell)
    mu = backward_diff(s, i - 1, t - ell, ell) if i >= 1 else 0
    if eta < 0 or mu < 0:
        raise NegativeCount(f"negative point count at t={t}, i={i}, {branch}: eta={eta}, mu={mu}")
    total = sum(
        binomial(i, j) * backward_diff(s, i - j, t - j * ell, ell) for j in range(i + 1)
    )
    if total != s(t):
        raise NegativeCount(f"point partition at t={t} sums to {total}, expected {s(t)}")
    return PointPlan(eta=eta, mu=mu, order=i)


# ---------------------------------------------------------------------------
# column generation


# Column generators yield (src, index) groups: the group's columns are
# take(src, index[c]) for each row c of index, so column_blocks gathers
# them straight into the block buffer.  For tangent columns src is a
# padded partial product and index holds division-map rows, one per x_v.


@dataclass
class BuildSpec:
    """Everything needed to generate one statement's matrix columns."""

    family: str
    t: int
    i: int
    ell: int
    eta: int
    mu: int
    n: int           # variables minus one (3 or t)
    rows_full: int   # N(t)
    rows: int        # rows fed to rank (|Y| for dimension induction)
    cols: int
    row_keep: np.ndarray | None  # Y as 0-based indices, or None
    forms: list[tuple[str, np.ndarray]]        # (label, coeffs) in emission order
    keyed: dict[tuple, np.ndarray]             # (role, i, j, gamma) -> coeffs


def column_count(config: LatticeConfig, t: int, i: int, eta: int, mu: int) -> int:
    """Columns of the order-i matrix with eta generic and mu per-subspace points."""
    ell = config.ell
    if config.family == QUATERNARY:
        # R1 subspace generators, then tangent spaces: 4 columns per factor
        return i * binomial(t - ell + 3, 3) + eta * t * 4 + i * mu * ell * 4
    # 3 factor pairs per point, times the variables each pair is scattered to
    return eta * 3 * (t + 1) + mu * i * 3 * ell


def eliminated_row_count(config: LatticeConfig, t: int, i: int) -> int:
    """|union of Z_j| by inclusion-exclusion over subspace subsets."""
    return sum(
        (-1) ** (q + 1) * binomial(i, q) * binomial(t - q * config.ell + 3, 3)
        for q in range(1, i + 1)
    )


def _prepare_degree(config, t: int, i: int, eta: int, mu: int, source) -> BuildSpec:
    n = 3
    ell = config.ell
    forms: list[tuple[str, np.ndarray]] = []
    keyed: dict[tuple, np.ndarray] = {}

    def draw(role, label, *, pi=0, pj=0, gamma=0, support=None):
        coeffs = source.linear_form(role, n, i=pi, j=pj, gamma=gamma, support=support)
        forms.append((label, coeffs))
        keyed[(role, pi, pj, gamma)] = coeffs
        return coeffs

    for j in range(i):
        for g in range(ell):
            draw("g", f"g_{{{j},{g}}}", pj=j, gamma=g)
    for pt in range(eta):
        for g in range(t):
            draw("l", f"l_{{{pt},{g}}}", pi=pt, gamma=g)
    for j in range(i):
        for pt in range(mu):
            for g in range(t - ell):
                draw("f", f"f_{{{pt},{j},{g}}}", pi=pt, pj=j, gamma=g)

    rows = monomial_count(n, t)
    cols = column_count(config, t, i, eta, mu)
    return BuildSpec(QUATERNARY, t, i, ell, eta, mu, n, rows, rows, cols, None, forms, keyed)


def _degree_columns(spec: BuildSpec, field: PrimeField):
    n, t, ell = spec.n, spec.t, spec.ell
    keyed = spec.keyed

    def lf(role, pi=0, pj=0, gamma=0):
        return LinearForm(n, keyed[(role, pi, pj, gamma)], field)

    g_forms = [[lf("g", pj=j, gamma=g) for g in range(ell)] for j in range(spec.i)]

    # R1: the subspace generator blocks, one column per degree t-ell monomial
    if spec.i > 0:
        shift_exps = monomial_exponents(n, t - ell)
        gj_exps = monomial_exponents(n, ell).astype(np.int64)
        for forms in g_forms:
            gj = product_of_linear_forms(forms).coeffs
            src = padded(gj)
            for row in shift_exps:
                index = np.full((1, spec.rows_full), gj.size, dtype=np.intp)
                index[0, lex_positions(gj_exps + row, n, t) - 1] = np.arange(gj.size)
                yield src, index

    # R2: tangent blocks at fully generic points
    G = division_map(n, t - 1)
    for pt in range(spec.eta):
        pt_forms = [lf("l", pi=pt, gamma=g) for g in range(t)]
        for partial in products_omitting_each(pt_forms):
            yield padded(partial.coeffs), G

    # R3: tangent blocks (mod the subspace) at points inside each subspace
    for j in range(spec.i):
        for pt in range(spec.mu):
            base = product_of_linear_forms([lf("f", pi=pt, pj=j, gamma=g) for g in range(t - ell)])
            for partial in products_omitting_each(g_forms[j], base=base):
                yield padded(partial.coeffs), G


def _prepare_dimension(config, t: int, i: int, eta: int, mu: int, source) -> BuildSpec:
    n = t
    ell = config.ell
    forms: list[tuple[str, np.ndarray]] = []
    keyed: dict[tuple, np.ndarray] = {}

    def draw(role, label, *, pi=0, pj=0, support=None):
        coeffs = source.linear_form(role, n, i=pi, j=pj, support=support)
        forms.append((label, coeffs))
        keyed[(role, pi, pj, 0)] = coeffs
        return coeffs

    for pt in range(eta):
        draw("k", f"k_{{{pt}}}", pi=pt)
        draw("l", f"l_{{{pt}}}", pi=pt)
        draw("m", f"m_{{{pt}}}", pi=pt)
    for j in range(i):
        block = range(ell * j, ell * (j + 1))
        support = [v for v in range(n + 1) if v not in block]
        for pt in range(mu):
            draw("kj", f"k_{{{pt},{j}}}", pi=pt, pj=j, support=support)
            draw("lj", f"l_{{{pt},{j}}}", pi=pt, pj=j, support=support)
            draw("mj", f"m_{{{pt},{j}}}", pi=pt, pj=j, support=support)

    rows_full = monomial_count(n, 3)
    if i > 0:
        exps = monomial_exponents(n, 3)
        eliminated = np.zeros(rows_full, dtype=bool)
        for j in range(i):
            block = slice(ell * j, ell * (j + 1))
            eliminated |= exps[:, block].sum(axis=1) == 0
        keep = np.flatnonzero(~eliminated)
        expect_gone = eliminated_row_count(config, t, i)
        if rows_full - keep.size != expect_gone:
            raise AssertionError(
                f"row elimination count {rows_full - keep.size} != inclusion-exclusion {expect_gone}"
            )
    else:
        keep = None
    rows = rows_full if keep is None else int(keep.size)
    cols = column_count(config, t, i, eta, mu)
    return BuildSpec(CUBICS, t, i, ell, eta, mu, n, rows_full, rows, cols, keep, forms, keyed)


def _dimension_columns(spec: BuildSpec, field: PrimeField):
    n, ell = spec.n, spec.ell
    keyed = spec.keyed
    # gather only the rows in Y, so eliminated rows are never written
    G = division_map(n, 2)
    if spec.row_keep is not None:
        G = G[:, spec.row_keep]

    def point_groups(role_suffix, pt, pj, index):
        forms = [LinearForm(n, keyed[(role + role_suffix, pt, pj, 0)], field) for role in "klm"]
        for partial in products_omitting_each(forms):
            yield padded(partial.coeffs), index

    for pt in range(spec.eta):
        yield from point_groups("", pt, 0, G)

    for j in range(spec.i):
        block_rows = G[ell * j : ell * (j + 1)]
        for pt in range(spec.mu):
            yield from point_groups("j", pt, j, block_rows)


def prepare_build(config: LatticeConfig, t: int, i: int, eta: int, mu: int, source) -> BuildSpec:
    """Draw a statement's forms and fix its shape; `source` is a FormSampler
    (normal runs) or RecordedForms (reverify)."""
    if config.family == QUATERNARY:
        return _prepare_degree(config, t, i, eta, mu, source)
    return _prepare_dimension(config, t, i, eta, mu, source)


def column_blocks(spec: BuildSpec, field: PrimeField, block: int = DEFAULT_BLOCK) -> Iterator[np.ndarray]:
    """The statement matrix as a stream of (spec.rows x <= block) column blocks.

    Columns are generated as the blocks are pulled and written straight
    into an F-order block buffer; for dimension induction only the rows
    in Y are written.  Every block gets a fresh buffer, so blocks already
    handed out never change.  A drained stream whose column count is not
    spec.cols raises AssertionError.
    """
    groups = _degree_columns(spec, field) if spec.family == QUATERNARY else _dimension_columns(spec, field)
    buf = np.empty((spec.rows, block), dtype=np.int64, order="F")
    k = emitted = 0
    for src, index in groups:
        at = 0
        while at < len(index):
            w = min(len(index) - at, block - k)
            # the transpose of an F-order column slice is C-contiguous, so take
            # writes it in place; every index is in range, so clip never clips
            np.take(src, index[at : at + w], out=buf[:, k : k + w].T, mode="clip")
            at += w
            k += w
            if k == block:
                yield buf
                emitted += k
                buf = np.empty((spec.rows, block), dtype=np.int64, order="F")
                k = 0
    if k:
        yield buf[:, :k]
        emitted += k
    if emitted != spec.cols:
        raise AssertionError(f"generated {emitted} columns, the plan has {spec.cols}")


# ---------------------------------------------------------------------------
# verification


@dataclass(frozen=True)
class VerificationOutcome:
    family: str
    t: int
    i: int
    branch: str
    abundance: str              # SUB / SUPER / EQUI
    rows: int
    cols: int
    expected: int
    found: int
    verdict: str                # TRUE / UNVERIFIED
    seed: int
    prime: int
    resamples: int
    retries: int                # retries actually performed
    construct_seconds: float
    rank_seconds: float
    attempts: tuple             # ((seed, found), ...) for every attempt
    forms: tuple                # ((label, coeffs tuple), ...) of the final attempt


class _PullTimer:
    """Iterator over column blocks that times only the pulls."""

    def __init__(self, blocks: Iterator[np.ndarray]):
        self.blocks = iter(blocks)
        self.seconds = 0.0

    def __iter__(self):
        return self

    def __next__(self) -> np.ndarray:
        tic = time.perf_counter()
        try:
            return next(self.blocks)
        finally:
            self.seconds += time.perf_counter() - tic


def plan_statement(config: LatticeConfig, t: int, branch: str):
    """Shape, expectation and basis memory of the order-K(t) statement,
    without building anything."""
    i = config.K(t)
    plan = point_plan(config, t, branch, i)
    eliminated = eliminated_row_count(config, t, i) if config.family == CUBICS else 0
    rows = config.N(t) - eliminated
    cols = column_count(config, t, i, plan.eta, plan.mu)
    # the free-row basis stores at most rows*r - r^2/2 float64 entries at rank r
    r = min(rows, cols)
    return {
        "family": config.family,
        "t": t,
        "i": i,
        "branch": branch,
        "points": config.s(branch)(t),
        "eta": plan.eta,
        "mu": plan.mu,
        "rows": rows,
        "cols": cols,
        "expected": expected_dim(config, i, t, branch) - eliminated,
        "abundance": abundance(config, i, t, branch),
        "basis_bytes": 8 * (rows * r - r * r // 2),
    }


def verify_statement(
    config: LatticeConfig,
    t: int,
    branch: str,
    seed: int,
    field: PrimeField = PrimeField(8191),
    retries: int = 2,
    block: int = DEFAULT_BLOCK,
    progress: ProgressHook | None = None,
) -> VerificationOutcome:
    """Build, rank, compare; retry with derived seeds on a rank shortfall.

    Columns are generated block by block as the rank consumes them, so
    the matrix is never held whole; memory is the rank's basis, priced
    by plan_statement's basis_bytes.  The verdict is TRUE when the rank
    equals the expected dimension and UNVERIFIED otherwise -- a shortfall
    can always be bad luck over a small field, so it is never reported as
    a refutation.  A rank above the expected dimension raises
    RankContradiction.
    """
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    info = plan_statement(config, t, branch)
    i, expected = info["i"], info["expected"]
    attempts = []
    attempt_seed = seed
    for attempt in range(retries + 1):
        if attempt > 0:
            attempt_seed = derive_retry_seed(seed, attempt)
        sampler = FormSampler(attempt_seed, field)
        tic = time.perf_counter()
        spec = prepare_build(config, t, i, info["eta"], info["mu"], sampler)
        # columns are generated while the rank pulls them: charge the pulls to construction
        pulls = _PullTimer(column_blocks(spec, field, block))
        construct_seconds = time.perf_counter() - tic
        tic = time.perf_counter()
        found = rank_from_column_blocks(
            pulls, spec.rows, field.modulus, total_cols=spec.cols, progress=progress,
        )
        rank_seconds = time.perf_counter() - tic - pulls.seconds
        construct_seconds += pulls.seconds
        attempts.append((attempt_seed, found))
        if found > expected:
            raise RankContradiction(
                f"{config.family} t={t} {branch}: rank {found} exceeds the expected "
                f"dimension {expected}, an upper bound (seed {attempt_seed})"
            )
        if found == expected:
            break
    verdict = "TRUE" if found == expected else "UNVERIFIED"
    return VerificationOutcome(
        family=config.family,
        t=t,
        i=i,
        branch=branch,
        abundance=abundance(config, i, t, branch),
        rows=spec.rows,
        cols=spec.cols,
        expected=expected,
        found=found,
        verdict=verdict,
        seed=attempt_seed,
        prime=field.modulus,
        resamples=sampler.resamples,
        retries=len(attempts) - 1,
        construct_seconds=construct_seconds,
        rank_seconds=rank_seconds,
        attempts=tuple(attempts),
        forms=tuple((label, tuple(int(v) for v in coeffs)) for label, coeffs in spec.forms),
    )


def base_case_schedule(config: LatticeConfig, cap: int | None = None) -> list[Statement]:
    """Every base case the induction needs, in increasing t, s1 before s2."""
    t_start = 2 if config.family == QUATERNARY else 1
    t_end = config.t0 if cap is None else min(cap, config.t0)
    return [
        Statement(t, config.K(t), branch)
        for t in range(t_start, t_end + 1)
        for branch in BRANCHES
    ]


# ---------------------------------------------------------------------------
# arithmetic self-checks


def induction_arithmetic_check(config: LatticeConfig, t_range) -> list[str]:
    """Arithmetic skeletons of the induction lemmas; returns violations.

    (1) a_i(t) = a_i(t-ell) + a_{i+1}(t) - N(t-ell) for 0 <= i < K(t);
    (2) a_{K0}(t) = N(t) for t >= t0;
    (3) diff^{K0} N(t) = diff^{K0} N(t0) for t >= t0.
    """
    bad = []
    ell, k0, t0 = config.ell, config.k0, config.t0
    top_diff_at_t0 = backward_diff(config.N, k0, t0, ell)
    for t in t_range:
        k = config.K(t)
        for branch in BRANCHES:
            for i in range(k):
                lhs = a_i(config, i, t, branch)
                rhs = a_i(config, i, t - ell, branch) + a_i(config, i + 1, t, branch) - config.N(t - ell)
                if lhs != rhs:
                    bad.append(f"grassmann recursion fails at t={t}, i={i}, {branch}: {lhs} != {rhs}")
        if t >= t0:
            for branch in BRANCHES:
                top = a_i(config, k0, t, branch)
                if top != config.N(t):
                    bad.append(f"top order not equiabundant at t={t}, {branch}: {top} != {config.N(t)}")
            if backward_diff(config.N, k0, t, ell) != top_diff_at_t0:
                bad.append(f"diff^K0 N not constant at t={t}")
    return bad


def proof_function_checks(config: LatticeConfig, t_max: int = 200) -> list[str]:
    """Identities pinning down s1/s2 against N and m; returns violations."""
    bad = []
    ell = config.ell
    s1, s2 = config.s1, config.s2
    lc_step = 2 * ell * ell  # degree-2 power rule: diff^2 s = LC * ell^2 * 2!
    expected_dd = int(Fraction(lc_step) * s1.leading_coefficient)
    for t in range(1, t_max + 1):
        n, m = config.N(t), config.m(t)
        if s2(t) != -(-n // m):
            bad.append(f"s2({t}) = {s2(t)} != ceil(N/m) = {-(-n // m)}")
        if s2(t) - s1(t) != 1:
            bad.append(f"s2 - s1 != 1 at t={t}")
        for s, name in ((s1, "s1"), (s2, "s2")):
            if backward_diff(s, 3, t, ell) != 0:
                bad.append(f"diff^3 {name}({t}) != 0")
            if backward_diff(s, 2, t, ell) != expected_dd:
                bad.append(f"diff^2 {name}({t}) != {expected_dd}")
        for branch in BRANCHES:
            try:
                point_plan(config, t, branch)
            except NegativeCount as exc:
                bad.append(str(exc))
    start = 2 if config.family == QUATERNARY else 1
    for t in range(start, min(t_max, config.t0) + 1):
        k = config.K(t)
        if abundance(config, k, t, "s1") == SUPER:
            bad.append(f"s1 base case superabundant at t={t}")
        if abundance(config, k, t, "s2") == SUB:
            bad.append(f"s2 base case subabundant at t={t}")
    return bad
