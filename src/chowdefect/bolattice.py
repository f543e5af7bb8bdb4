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

import functools
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import numpy as np

from .finite_calculus import (
    PROOF_STEP,
    Quasipolynomial,
    backward_diff,
    binomial,
    make_proof_functions,
)
from .gfpoly import (  # noqa: F401 -- mul_linear stays patchable by name for perfbench
    RESIDUE_DTYPE,
    LinearForm,
    PrimeField,
    division_map,
    lex_positions,
    monomial_exponents,
    mul_linear,
    padded,
    product_of_linear_forms,
    products_omitting_each,
    tangent_groups,
)
from .gflinalg import DEFAULT_BLOCK, ProgressHook, basis_bytes, rank_from_column_blocks
from .sampling import FormSampler, derive_retry_seed

QUATERNARY = "quaternary"
CUBICS = "cubics"
BRANCHES = ("s1", "s2")

SUB, SUPER, EQUI = "SUB", "SUPER", "EQUI"

# The fixed argument of every statement T_i(nd, t, ell): the quaternary
# forms live in n+1 = 4 variables, and cubics have degree 3.
STATEMENT_ND = 3


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

    @property
    def t_first(self) -> int:
        """The first base case: quaternary forms start at degree 2 (degree 1
        is the ambient space itself), cubics at t = 1."""
        return 2 if self.family == QUATERNARY else 1

    def K(self, t: int) -> int:
        if t < 1:
            raise ValueError(f"t must be >= 1, got {t}")
        return min(-(-t // self.ell) - 1, self.k0)


@functools.cache
def config_for(family: str) -> LatticeConfig:
    """Family parameters of the degree induction (quaternary: X(t) is the
    degree-t Chow variety in 4 variables) or of the dimension induction
    (cubics: X(t) is the cubic Chow variety in t+1 variables).  An
    unknown family raises ValueError.  One frozen config per family is
    built, on first use: the proof functions are exact rationals."""
    s1, s2 = make_proof_functions()
    return LatticeConfig(family, ell=PROOF_STEP, k0=3, t0=3 * PROOF_STEP + 1, s1=s1, s2=s2)


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


def plan_statement(config: LatticeConfig, t: int, branch: str) -> dict:
    """Every figure of the order-K(t) statement on one branch, without
    building anything: the one place they are computed.

    The point split (point_split) fixes the shape, the expected rank (for
    cubics, with the rows the subspaces span eliminated) and the rank's
    memory price.  Both branches are priced at the s2 shape, as an s1
    verification ranks the s2 stream (see verify_statement).  Only a t
    from config.t_first to t0 has a statement, by this rule alone; any
    other t raises ValueError, and a bad point count NegativeCount.
    """
    if not config.t_first <= t <= config.t0:
        raise ValueError(
            f"{config.family} statements start at t={config.t_first} and end at t={config.t0}; none at t={t}"
        )
    i, eta, mu = point_split(config, t, branch)
    eliminated = eliminated_row_count(config, t, i) if config.family == CUBICS else 0
    rows = config.N(t) - eliminated
    cols = column_count(config, t, i, eta, mu)
    ranked = cols if branch == "s2" else column_count(config, t, *point_split(config, t, "s2"))
    return {
        "family": config.family,
        "t": t,
        "i": i,
        "branch": branch,
        "points": config.s(branch)(t),
        "eta": eta,
        "mu": mu,
        "rows": rows,
        "cols": cols,
        "expected": expected_dim(config, i, t, branch) - eliminated,
        "abundance": abundance(config, i, t, branch),
        "basis_bytes": basis_bytes(rows, ranked),
    }


def point_split(config: LatticeConfig, t: int, branch: str) -> tuple[int, int, int]:
    """(i, eta, mu) at any t >= 1: the i = K(t) subspaces and the s(t)
    points of a branch split by Newton's backward differences into
    eta = diff^i s(t) generic points and mu = diff^{i-1} s(t-ell) points
    inside each subspace.  A negative count raises NegativeCount."""
    i = config.K(t)
    s = config.s(branch)
    ell = config.ell
    eta = backward_diff(s, i, t, ell)
    mu = backward_diff(s, i - 1, t - ell, ell) if i >= 1 else 0
    if eta < 0 or mu < 0:
        raise NegativeCount(f"negative point count at t={t}, i={i}, {branch}: eta={eta}, mu={mu}")
    return i, eta, mu


# ---------------------------------------------------------------------------
# column generation


# Column generators yield (src, index) groups: the group's columns are
# take(src, index[c]) for each row c of index, so column_blocks gathers
# them straight into the block buffer.  For tangent columns src is a
# padded partial product and index holds division-map rows, one per x_v.
# Sources and blocks are RESIDUE_DTYPE (int16), which holds every entry
# below P < 2^15 exactly; the rank engine widens a block to float64 only
# as it permutes it into basis order.  The groups hold only the
# generators that can add to the span (gfpoly.tangent_groups): the dropped
# ones are exact combinations of kept ones, so the stream has the rank of
# the full generator set, whose shape (column_count) the certificate
# records.


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
    row_keep: np.ndarray | None  # Y as 0-based indices, or None
    forms: list[tuple[str, np.ndarray]]        # (label, coeffs) in emission order
    keyed: dict[tuple, np.ndarray]             # (role, i, j, gamma) -> coeffs


def column_count(config: LatticeConfig, t: int, i: int, eta: int, mu: int) -> int:
    """Columns of the order-i matrix with eta generic and mu per-subspace
    points: the full generator set, whose shape the certificate records."""
    ell = config.ell
    if config.family == QUATERNARY:
        # R1 subspace generators, then tangent spaces: 4 columns per factor
        return i * binomial(t - ell + 3, 3) + eta * t * 4 + i * mu * ell * 4
    # 3 factor pairs per point, times the variables each pair is scattered to
    return eta * 3 * (t + 1) + mu * i * 3 * ell


def kept_column_count(spec: BuildSpec) -> int:
    """Columns column_blocks yields: the R1 generators, m(t) = 3t+1 per
    generic point and m(t) - m(t - ell) = 3*ell per point inside a subspace."""
    r1 = spec.i * binomial(spec.t - spec.ell + 3, 3) if spec.family == QUATERNARY else 0
    return r1 + spec.eta * (3 * spec.t + 1) + spec.i * spec.mu * 3 * spec.ell


def eliminated_row_count(config: LatticeConfig, t: int, i: int) -> int:
    """|union of Z_j| by inclusion-exclusion over subspace subsets."""
    return sum(
        (-1) ** (q + 1) * binomial(i, q) * binomial(t - q * config.ell + 3, 3)
        for q in range(1, i + 1)
    )


def form_plan(
    family: str, t: int, i: int, ell: int, eta: int, mu: int
) -> Iterator[tuple[str, tuple, list[int] | None]]:
    """Every linear form of a statement as (label, (role, i, j, gamma), support),
    in emission order.

    This is the one definition of the certificate labels, the substream
    keys they stand for, and the coordinates each form may use (None for
    all).  Degree induction draws ell factors g for each subspace, t
    factors l for each generic point and t - ell factors f for each point
    inside a subspace; dimension induction draws the three factors k, l, m
    of each generic point and kj, lj, mj of each point inside subspace j,
    which avoid that subspace's block of ell variables.
    """
    if family == QUATERNARY:
        for j in range(i):
            for g in range(ell):
                yield f"g_{{{j},{g}}}", ("g", 0, j, g), None
        for pt in range(eta):
            for g in range(t):
                yield f"l_{{{pt},{g}}}", ("l", pt, 0, g), None
        for j in range(i):
            for pt in range(mu):
                for g in range(t - ell):
                    yield f"f_{{{pt},{j},{g}}}", ("f", pt, j, g), None
        return
    for pt in range(eta):
        for role in "klm":
            yield f"{role}_{{{pt}}}", (role, pt, 0, 0), None
    for j in range(i):
        block = range(ell * j, ell * (j + 1))
        support = [v for v in range(t + 1) if v not in block]
        for pt in range(mu):
            for role in "klm":
                yield f"{role}_{{{pt},{j}}}", (role + "j", pt, j, 0), support


def prepare_build(config: LatticeConfig, t: int, i: int, eta: int, mu: int, source) -> BuildSpec:
    """Draw a statement's forms and fix its shape; `source` is a FormSampler
    (normal runs) or RecordedForms (reverify)."""
    n = 3 if config.family == QUATERNARY else t
    ell = config.ell
    forms: list[tuple[str, np.ndarray]] = []
    keyed: dict[tuple, np.ndarray] = {}
    for label, key, support in form_plan(config.family, t, i, ell, eta, mu):
        role, pi, pj, gamma = key
        coeffs = source.linear_form(role, n, i=pi, j=pj, gamma=gamma, support=support)
        forms.append((label, coeffs))
        keyed[key] = coeffs

    rows_full = config.N(t)
    keep = None
    if config.family == CUBICS and i > 0:
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
    rows = rows_full if keep is None else int(keep.size)
    return BuildSpec(config.family, t, i, ell, eta, mu, n, rows_full, rows, keep, forms, keyed)


def _degree_columns(spec: BuildSpec, field: PrimeField):
    n, t, ell = spec.n, spec.t, spec.ell
    keyed = spec.keyed

    def lf(role, pi=0, pj=0, gamma=0):
        return LinearForm(n, keyed[(role, pi, pj, gamma)], field)

    g_forms = [[lf("g", pj=j, gamma=g) for g in range(ell)] for j in range(spec.i)]

    # R1: the subspace generators G_j * x^a, one column per degree t-ell
    # monomial a and subspace j; every G_j has degree ell, so the gather
    # index depends on a alone and is built once for all j
    if spec.i > 0:
        srcs = [padded(product_of_linear_forms(forms).coeffs, RESIDUE_DTYPE) for forms in g_forms]
        gj_exps = monomial_exponents(n, ell).astype(np.int64)
        quotients = np.arange(gj_exps.shape[0])
        for row in monomial_exponents(n, t - ell):
            index = np.full((1, spec.rows_full), quotients.size, dtype=np.intp)
            index[0, lex_positions(gj_exps + row, n, t) - 1] = quotients
            for src in srcs:
                yield src, index

    # R2: tangent blocks at fully generic points
    G = division_map(n, t - 1)
    for pt in range(spec.eta):
        yield from tangent_groups([lf("l", pi=pt, gamma=g) for g in range(t)], G)

    # R3: tangent blocks (mod the subspace) at points inside each subspace
    for j in range(spec.i):
        for pt in range(spec.mu):
            base = product_of_linear_forms([lf("f", pi=pt, pj=j, gamma=g) for g in range(t - ell)])
            yield from tangent_groups(g_forms[j], G, base=base, product_in_span=True)


def _dimension_columns(spec: BuildSpec, field: PrimeField):
    n, ell = spec.n, spec.ell
    keyed = spec.keyed
    # gather only the rows in Y, so eliminated rows are never written
    G = division_map(n, 2)
    if spec.row_keep is not None:
        G = G[:, spec.row_keep]

    def point_forms(role_suffix, pt, pj):
        return [LinearForm(n, keyed[(role + role_suffix, pt, pj, 0)], field) for role in "klm"]

    for pt in range(spec.eta):
        yield from tangent_groups(point_forms("", pt, 0), G)

    # points inside subspace j avoid its block, so they are scattered only to
    # the block's variables, and none of those columns is redundant
    for j in range(spec.i):
        block_rows = G[ell * j : ell * (j + 1)]
        for pt in range(spec.mu):
            for partial in products_omitting_each(point_forms("j", pt, j)):
                yield padded(partial.coeffs, RESIDUE_DTYPE), block_rows


def column_blocks(spec: BuildSpec, field: PrimeField, block: int = DEFAULT_BLOCK) -> Iterator[np.ndarray]:
    """The statement's kept generators as a stream of (spec.rows x <= block)
    RESIDUE_DTYPE column blocks; their rank is the rank of the full matrix.

    Columns are generated as the blocks are pulled and written straight
    into an F-order int16 block buffer, 2 bytes an entry, which the rank
    widens to float64 only as it permutes the block; for dimension
    induction only the rows in Y are written.  Every block gets a fresh
    buffer, so blocks already handed out never change.  A drained stream
    whose column count is not kept_column_count(spec) raises
    AssertionError.
    """
    groups = _degree_columns(spec, field) if spec.family == QUATERNARY else _dimension_columns(spec, field)
    buf = np.empty((spec.rows, block), dtype=RESIDUE_DTYPE, order="F")
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
                buf = np.empty((spec.rows, block), dtype=RESIDUE_DTYPE, order="F")
                k = 0
    if k:
        yield buf[:, :k]
        emitted += k
    kept = kept_column_count(spec)
    if emitted != kept:
        raise AssertionError(f"generated {emitted} columns, the plan keeps {kept}")


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


class _DrawnFirst:
    """A form source that replays forms already drawn and samples the rest."""

    def __init__(self, drawn: dict[tuple, np.ndarray], sampler: FormSampler):
        self.drawn = drawn
        self.sampler = sampler

    def linear_form(self, role, n, i=0, j=0, gamma=0, support=None) -> np.ndarray:
        coeffs = self.drawn.get((role, i, j, gamma))
        if coeffs is None:
            coeffs = self.sampler.linear_form(role, n, i=i, j=j, gamma=gamma, support=support)
        return coeffs


def _split_at(blocks: Iterator[np.ndarray], mark: int) -> Iterator[np.ndarray]:
    """The blocks, with the one that straddles column `mark` split there."""
    done = 0
    for B in blocks:
        cut = mark - done
        done += B.shape[1]
        if 0 < cut < B.shape[1]:
            yield B[:, :cut]
            B = B[:, cut:]
        yield B


def _rank_pass(spec: BuildSpec, field: PrimeField, mark: int, progress: ProgressHook | None, prepared: float):
    """Rank the spec's column stream and read the rank at column `mark` on
    the way: (found, construct_seconds, rank_seconds) at the mark and at
    the end.

    Columns are generated while the rank pulls them, so the pulls are
    charged to construction, on top of the `prepared` seconds the forms
    took.  The block that straddles the mark is split there, so that the
    rank's per-block progress report falls on it.  With no report at the
    mark (the stream reached full row rank before it) the mark takes the
    end's figures; the rank of no columns is 0.
    """
    pulls = _PullTimer(column_blocks(spec, field))
    tic = time.perf_counter()

    def figures(found):
        return found, prepared + pulls.seconds, time.perf_counter() - tic - pulls.seconds

    at_mark = figures(0) if mark == 0 else None

    def hook(done, total, rank):
        nonlocal at_mark
        if done == mark:
            at_mark = figures(rank)
        if progress is not None:
            progress(done, total, rank)

    end = figures(rank_from_column_blocks(
        _split_at(pulls, mark), spec.rows, field.modulus, total_cols=kept_column_count(spec), progress=hook,
    ))
    return at_mark or end, end


def rank_and_bound(plan: dict, spec: BuildSpec, field: PrimeField, seed: int) -> int:
    """The rank of spec's whole column stream, checked against the plan's
    expected dimension by verify_statement's bound check: a rank above it
    raises RankContradiction.  certificate.reverify ranks through it."""
    found = rank_from_column_blocks(
        column_blocks(spec, field), spec.rows, field.modulus, total_cols=kept_column_count(spec)
    )
    _check_bound(plan, found, seed)
    return found


def _check_bound(plan: dict, found: int, seed: int) -> None:
    if found > plan["expected"]:
        raise RankContradiction(
            f"{plan['family']} t={plan['t']} {plan['branch']}: rank {found} exceeds the expected "
            f"dimension {plan['expected']}, an upper bound (seed {seed})"
        )


def _outcome(
    plan: dict, spec: BuildSpec, field: PrimeField, attempts: list, resamples: int, seconds
) -> VerificationOutcome:
    """The outcome of the plan's statement, whose last attempt drew spec's forms."""
    seed, found = attempts[-1]
    return VerificationOutcome(
        family=plan["family"],
        t=plan["t"],
        i=plan["i"],
        branch=plan["branch"],
        abundance=plan["abundance"],
        rows=plan["rows"],
        cols=plan["cols"],
        expected=plan["expected"],
        found=found,
        verdict="TRUE" if found == plan["expected"] else "UNVERIFIED",
        seed=seed,
        prime=field.modulus,
        resamples=resamples,
        retries=len(attempts) - 1,
        construct_seconds=seconds[0],
        rank_seconds=seconds[1],
        attempts=tuple(attempts),
        forms=tuple((label, tuple(int(v) for v in coeffs)) for label, coeffs in spec.forms),
    )


# The s2 outcome of the last s1 call's pass, if TRUE, as ((config, t, seed,
# prime), outcome); only the next verify_statement call may take it.
_handoff: tuple | None = None


def verify_statement(
    config: LatticeConfig,
    t: int,
    branch: str,
    seed: int,
    field: PrimeField = PrimeField(8191),
    retries: int = 2,
    progress: ProgressHook | None = None,
) -> VerificationOutcome:
    """Build, rank, compare; retry with derived seeds on a rank shortfall.

    Columns are generated block by block as the rank consumes them, so
    the matrix is never held whole; memory is the rank's basis, priced
    by plan_statement's basis_bytes.  The verdict is TRUE when the rank
    equals the expected dimension and UNVERIFIED otherwise -- a shortfall
    can always be bad luck over a small field, so it is never reported as
    a refutation.  A rank above the expected dimension raises
    RankContradiction.  The shape, order and expectation are the plan's
    (plan_statement), so a t with no statement raises ValueError.

    One rank pass serves both branches of a t.  The s2 forms are the s1
    forms followed by those of one more point (form_plan), so the s2
    column stream begins with the s1 stream, and from order 2 on it is
    the s1 stream.  An s1 call ranks the s2 stream of its seed and reads
    its own rank at the s1 mark, kept_column_count of its spec; its
    timings run up to the mark.  A rank above the expected dimension at
    the mark or, for s2, at the end raises RankContradiction, and a
    shortfall at the mark retries s1 alone.  When the s2 rank is the
    expected one, the s2 outcome, timed over the whole pass, is handed
    to the next call alone: an s2 call for the same config, t, seed and
    prime returns it instead of ranking again.  Every call empties the
    hand-off first; it holds an outcome, never a basis.
    """
    global _handoff
    handed, _handoff = _handoff, None
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")
    plan = plan_statement(config, t, branch)
    if branch == "s2" and handed is not None and handed[0] == (config, t, seed, field.modulus):
        return handed[1]
    handoff = None
    attempts = []
    attempt_seed = seed
    for attempt in range(retries + 1):
        if attempt > 0:
            attempt_seed = derive_retry_seed(seed, attempt)
        sampler = FormSampler(attempt_seed, field)
        tic = time.perf_counter()
        spec = prepare_build(config, t, plan["i"], plan["eta"], plan["mu"], sampler)
        resamples = sampler.resamples
        ranked = spec
        if branch == "s1" and attempt == 0:
            s2 = plan_statement(config, t, "s2")
            ranked = prepare_build(config, t, s2["i"], s2["eta"], s2["mu"], _DrawnFirst(spec.keyed, sampler))
        (found, *seconds), whole = _rank_pass(
            ranked, field, kept_column_count(spec), progress, time.perf_counter() - tic
        )
        attempts.append((attempt_seed, found))
        _check_bound(plan, found, attempt_seed)
        if ranked is not spec:
            _check_bound(s2, whole[0], seed)
            if whole[0] == s2["expected"]:
                s2_outcome = _outcome(s2, ranked, field, [(seed, whole[0])], sampler.resamples, whole[1:])
                handoff = ((config, t, seed, field.modulus), s2_outcome)
        if found == plan["expected"]:
            break
    outcome = _outcome(plan, spec, field, attempts, resamples, seconds)
    _handoff = handoff
    return outcome


def base_case_schedule(config: LatticeConfig, cap: int | None = None) -> list[dict]:
    """The plan (plan_statement) of every base case the induction needs,
    from config.t_first to t0 or `cap`, in increasing t, s1 before s2."""
    t_end = config.t0 if cap is None else min(cap, config.t0)
    return [plan_statement(config, t, branch) for t in range(config.t_first, t_end + 1) for branch in BRANCHES]


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
    """Identities pinning down s1/s2 against N and m, the point counts
    (point_split) of every order-K(t) split from config.t_first through
    t_max with their partition identity
    sum_j C(i,j) diff^{i-j} s(t - j*ell) = s(t), and the abundance of each
    base case up to t0; returns violations."""
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
    for t in range(config.t_first, t_max + 1):
        for branch in BRANCHES:
            try:
                i = point_split(config, t, branch)[0]
            except NegativeCount as exc:
                bad.append(str(exc))
                continue
            s = config.s(branch)
            total = sum(binomial(i, j) * backward_diff(s, i - j, t - j * ell, ell) for j in range(i + 1))
            if total != s(t):
                bad.append(f"point partition at t={t}, {branch} sums to {total}, expected {s(t)}")
            if t <= config.t0 and (kind := abundance(config, i, t, branch)) == (SUPER if branch == "s1" else SUB):
                bad.append(f"{branch} base case {kind.lower()}abundant at t={t}")
    return bad
