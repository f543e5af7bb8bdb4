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
builder is wrong, and no retry can fix that.  Every statement rank,
verification's and certificate.reverify's, is taken and bounded by one
step, rank_and_bound.
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
    newton_reconstruct,
)
from .gfpoly import (  # noqa: F401 -- mul_linear stays patchable by name for perfbench
    RESIDUE_DTYPE,
    LinearForm,
    PrimeField,
    division_map,
    gather_blocks,
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


def plan_statement(config: LatticeConfig, t: int, branch: str) -> dict:
    """Every figure of the order-K(t) statement on one branch, without
    building anything: the one place they are computed.

    The point split (point_split) fixes the shape, the expected rank
    min(a_i, N) (for cubics, with the rows the subspaces span eliminated),
    the abundance (SUB, SUPER or EQUI as a_i is below, above or at N) and
    the rank's memory price.  Both branches are priced at the s2 shape:
    an s1 verification ranks the s2 stream (see verify_statement), and so
    does the reverification of an s1 certificate whose provenance is
    confirmed (certificate.reverify).
    Only a t from config.t_first to t0 has a statement, by this rule
    alone; any other t raises ValueError, and a bad point count
    NegativeCount.
    """
    if not config.t_first <= t <= config.t0:
        raise ValueError(
            f"{config.family} statements start at t={config.t_first} and end at t={config.t0}; none at t={t}"
        )
    i, eta, mu = point_split(config, t, branch)
    a, n = a_i(config, i, t, branch), config.N(t)
    eliminated = eliminated_row_count(config, t, i) if config.family == CUBICS else 0
    rows = n - eliminated
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
        "expected": min(a, n) - eliminated,
        "abundance": SUB if a < n else SUPER if a > n else EQUI,
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
# take(src, index[c]) for each row c of index, so gfpoly.gather_blocks
# writes them straight into the blocks.  For tangent columns src is a
# padded partial product and index holds division-map rows, one per x_v.
# Sources and blocks are RESIDUE_DTYPE (int16), which holds every entry
# below P < 2^15 exactly; the rank engine keeps each panel int16 and
# widens only a row chunk at a time for its products.  The groups hold only the
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


@functools.lru_cache(maxsize=1)
def row_keep(t: int, i: int, ell: int) -> np.ndarray:
    """Y of the cubic order-i statement at t, the rows no subspace spans:
    the 0-based indices of the degree-3 monomials in t+1 variables that
    use a variable of each of the first i blocks of ell variables, as a
    read-only array.

    Only the last (t, i) is kept.  A paired reverification asks for the
    same mask three times (recorded forms, provenance re-draw, s2 spec),
    and its exponent matrix takes about 0.2 s at t = 82."""
    exps = monomial_exponents(t, 3)
    eliminated = np.zeros(exps.shape[0], dtype=bool)
    for j in range(i):
        eliminated |= exps[:, ell * j : ell * (j + 1)].sum(axis=1) == 0
    keep = np.flatnonzero(~eliminated)
    keep.flags.writeable = False
    return keep


def prepare_build(config: LatticeConfig, t: int, i: int, eta: int, mu: int, source) -> BuildSpec:
    """Draw a statement's forms and fix its shape: the one walk of form_plan
    that draws forms.  `source` is a FormSampler (verification, and the
    provenance check's re-draw from the seed) or RecordedForms (reverify).
    A sampler draws each key once, so the s2 spec prepared with the s1
    spec's sampler holds the s1 forms themselves."""
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
        keep = row_keep(t, i, ell)
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

    Columns are generated as the blocks are pulled and gathered by
    gfpoly.gather_blocks, as the oracle's are, straight into fresh F-order
    int16 blocks, which the rank keeps int16 and widens a row chunk at a
    time for its products; for dimension induction only the rows in Y are
    written.  A drained stream whose column count is not
    kept_column_count(spec) raises AssertionError.
    """
    groups = _degree_columns(spec, field) if spec.family == QUATERNARY else _dimension_columns(spec, field)
    emitted = 0
    for B in gather_blocks(groups, spec.rows, block):
        yield B
        emitted += B.shape[1]
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


def rank_and_bound(
    passes: list[tuple[dict, BuildSpec]], field: PrimeField, seed: int, progress: ProgressHook | None = None
) -> list[tuple[int, float, float]]:
    """Rank the last spec's column stream once, and for each (plan, spec)
    pair read (found, pull_seconds, rank_seconds) at kept_column_count(spec)
    and check found against the plan's expected dimension, an upper bound:
    a rank above it raises RankContradiction.  Each earlier spec's stream
    must lead the last one's, as an s1 spec's leads its s2 spec's.

    Columns are generated as the rank pulls them; the pulls are timed
    apart.  A block that straddles an earlier mark is split there, so
    that the rank's per-block report, which `progress` also receives,
    falls on it.  A mark with no report (full row rank came first) takes
    the end's figures, as the last pair does; at mark 0 the rank is 0.
    """
    *leading, (_, spec) = passes
    at = {kept_column_count(lead): None for _, lead in leading}
    pulled = 0.0
    tic = time.perf_counter()

    def figures(found):
        return found, pulled, time.perf_counter() - tic - pulled

    def pulls(blocks):
        nonlocal pulled
        done, clock = 0, time.perf_counter()
        for B in blocks:
            pulled += time.perf_counter() - clock
            cuts = [mark - done for mark in at if 0 < mark - done < B.shape[1]]
            done += B.shape[1]
            for a, b in zip([0, *cuts], [*cuts, B.shape[1]]):
                yield B[:, a:b]
            clock = time.perf_counter()
        pulled += time.perf_counter() - clock

    def hook(done, total, rank):
        if done in at:
            at[done] = figures(rank)
        if progress is not None:
            progress(done, total, rank)

    if 0 in at:
        at[0] = figures(0)
    end = figures(rank_from_column_blocks(
        pulls(column_blocks(spec, field)), spec.rows, field.modulus, total_cols=kept_column_count(spec), progress=hook,
    ))
    read = [at[kept_column_count(lead)] or end for _, lead in leading] + [end]
    for (plan, _), (found, _, _) in zip(passes, read):
        if found > plan["expected"]:
            raise RankContradiction(
                f"{plan['family']} t={plan['t']} {plan['branch']}: rank {found} exceeds the expected "
                f"dimension {plan['expected']}, an upper bound (seed {seed})"
            )
    return read


def _outcome(
    plan: dict, spec: BuildSpec, field: PrimeField, attempts: list, resamples: int, prepared: float, seconds
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
        construct_seconds=prepared + seconds[0],
        rank_seconds=seconds[1],
        attempts=tuple(attempts),
        forms=tuple((label, tuple(int(v) for v in coeffs)) for label, coeffs in spec.forms),
    )


# The one hand-off between calls: (key, read) for the s2 stream of the last
# shared pass, where key is stream_key's and read rank_and_bound's (found,
# pull_seconds, rank_seconds).  It holds a read, never a basis.
_handoff: tuple | None = None


def stream_key(kind: str, spec: BuildSpec, field: PrimeField) -> tuple:
    """What a handed-on read stands for: the kind of call that made it
    ("verify" or "reverify") and the exact column stream, that is family,
    t, i, eta, mu, prime and the coefficient bytes of every form."""
    forms = tuple(coeffs.tobytes() for _, coeffs in spec.forms)
    return (kind, spec.family, spec.t, spec.i, spec.eta, spec.mu, field.modulus, forms)


def take_handoff() -> tuple | None:
    """Empty the hand-off and return what it held, (key, read) or None.
    verify_statement and certificate.reverify call it first, so a read is
    only ever taken by the call right after the one that made it."""
    global _handoff
    held, _handoff = _handoff, None
    return held


def rank_and_hand_off(
    kind: str, passes: list[tuple[dict, BuildSpec]], field: PrimeField, seed: int, handed: tuple | None,
    progress: ProgressHook | None = None,
) -> list[tuple[int, float, float]]:
    """rank_and_bound(passes, field, seed, progress), with the hand-off
    between two calls of one kind.  A lone pass whose stream_key(kind, ...)
    is the key of `handed` (what take_handoff returned on entry) takes the
    handed read instead of ranking: the same stream has the same rank and
    the same bound, which the pass that made the read checked.  A pass of
    several specs hands its last read on when it is the last plan's
    expected rank; a short one is left to its own call."""
    global _handoff
    if len(passes) == 1 and handed is not None and handed[0] == stream_key(kind, passes[0][1], field):
        return [handed[1]]
    read = rank_and_bound(passes, field, seed, progress)
    (plan, spec), found = passes[-1], read[-1][0]
    if len(passes) > 1 and found == plan["expected"]:
        _handoff = (stream_key(kind, spec, field), read[-1])
    return read


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
    the s1 stream.  An s1 call prepares the s2 spec with its own sampler,
    which returns the s1 forms it drew and draws only the extra point's,
    ranks the s2 stream and reads its own rank at the s1 mark,
    kept_column_count of its spec; its timings run up to the mark.  A
    rank above the expected dimension at the mark or at the end raises
    RankContradiction, and a shortfall at the mark retries s1 alone.
    When the s2 rank is the expected one, that read is handed on
    (rank_and_hand_off) to the next call alone: an s2 call draws its own
    forms and, if they make the same stream at the same prime, takes the
    read as its attempt 0 instead of ranking; its timings are then its
    own preparation plus the whole pass.  Every call empties the hand-off
    first, and a read made by certificate.reverify is never taken here.
    """
    handed = take_handoff()
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")
    plan = plan_statement(config, t, branch)
    attempts = []
    attempt_seed = seed
    for attempt in range(retries + 1):
        if attempt > 0:
            attempt_seed = derive_retry_seed(seed, attempt)
        sampler = FormSampler(attempt_seed, field)
        tic = time.perf_counter()
        spec = prepare_build(config, t, plan["i"], plan["eta"], plan["mu"], sampler)
        resamples = sampler.resamples
        passes = [(plan, spec)]
        if branch == "s1" and attempt == 0:
            s2 = plan_statement(config, t, "s2")
            passes.append((s2, prepare_build(config, t, s2["i"], s2["eta"], s2["mu"], sampler)))
        prepared = time.perf_counter() - tic
        (found, *seconds), *_ = rank_and_hand_off("verify", passes, field, attempt_seed, handed, progress)
        attempts.append((attempt_seed, found))
        if found == plan["expected"]:
            break
    return _outcome(plan, spec, field, attempts, resamples, prepared, seconds)


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
    t_max with their partition identity, Newton's backward reconstruction
    newton_reconstruct(s, i, t, ell) = sum_j C(i,j) diff^{i-j} s(t - j*ell)
    = s(t), and the abundance of each base case up to t0; returns
    violations."""
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
            if (total := newton_reconstruct(s, i, t, ell)) != s(t):
                bad.append(f"point partition at t={t}, {branch} sums to {total}, expected {s(t)}")
            kind = plan_statement(config, t, branch)["abundance"] if t <= config.t0 else None
            if kind == (SUPER if branch == "s1" else SUB):
                bad.append(f"{branch} base case {kind.lower()}abundant at t={t}")
    return bad
