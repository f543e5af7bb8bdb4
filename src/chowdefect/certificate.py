"""Human-readable proof certificates: emission, parsing, reverification.

A certificate is the complete witness of one verified statement: the
master seed, the prime, every sampled linear form with its role label,
the matrix shape, and the found-vs-expected rank comparison.  The text
layout is line oriented:

    Using random seed: <seed>
    Need a <rows> x <cols> matrix.
    <role>_{<indices>} = [<c0> <c1> ... <cn>]     (one line per form)
    Constructed T in <x>s.
    Computed the rank of the <rows> x <cols> matrix T over F_<P> in <y>s.
    Found <found> vs. <expected> expected.
    T_<i>(<n-or-d>, <t>, <ell>) is <TRUE|UNVERIFIED> (<...>ABUNDANT)

followed by a blank line and a key=value trailer (family, branch,
substream algorithm, retry and resample counts).  Coefficients are
right-aligned to the width of P-1 and space separated.  Timing lines are
preserved verbatim through parse/emit round-trips and excluded from the
determinism guarantee; everything else is byte-reproducible from the
seed.

Reverification rebuilds the matrix from the recorded forms alone — not
from the seed — and recomputes the rank, so a certificate stands on its
own even for a consumer with a different random number generator.  When
the trailer names our substream algorithm, the forms are additionally
re-derived from the seed and compared byte for byte, which catches any
tampering with recorded coefficients (a single flipped coefficient still
yields a generic configuration of the same rank, so the rank check alone
cannot see it).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from . import bolattice
from .gfpoly import DimensionMismatch, PrimeField
from .gflinalg import rank_from_column_blocks
from .sampling import SUBSTREAM_ALGORITHM, FormSampler, RecordedForms


class ParseError(ValueError):
    def __init__(self, line_no: int, reason: str):
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no
        self.reason = reason


class InvariantViolation(ParseError):
    pass


@dataclass
class Certificate:
    seed: int
    prime: int
    rows: int
    cols: int
    found: int
    expected: int
    verdict: str
    abundance: str          # SUB / SUPER / EQUI
    i: int
    nd: int                 # the fixed dimension-or-degree printed in the statement
    t: int
    ell: int
    forms: list             # [(label, (c0, c1, ...)), ...] in emission order
    construct_line: str
    rank_line: str
    family: str | None = None
    branch: str | None = None
    substream: str | None = None
    retries: int | None = None
    resamples: int | None = None


def _format_form(label: str, coeffs, width: int) -> str:
    body = " ".join(str(int(c)).rjust(width) for c in coeffs)
    return f"{label} = [{body}]"


def render(cert: Certificate) -> str:
    width = len(str(cert.prime - 1))
    lines = [
        f"Using random seed: {cert.seed}",
        f"Need a {cert.rows} x {cert.cols} matrix.",
    ]
    lines.extend(_format_form(label, coeffs, width) for label, coeffs in cert.forms)
    lines.append(cert.construct_line)
    lines.append(cert.rank_line)
    lines.append(f"Found {cert.found} vs. {cert.expected} expected.")
    lines.append(
        f"T_{cert.i}({cert.nd}, {cert.t}, {cert.ell}) is {cert.verdict} ({cert.abundance}ABUNDANT)"
    )
    if cert.family is not None:
        lines.append("")
        lines.append(f"family={cert.family}")
        lines.append(f"branch={cert.branch}")
        lines.append(f"substream={cert.substream}")
        lines.append(f"retries={cert.retries}")
        lines.append(f"resamples={cert.resamples}")
    return "\n".join(lines) + "\n"


def from_outcome(outcome: bolattice.VerificationOutcome, forms=None) -> Certificate:
    forms = outcome.forms if forms is None else forms
    return Certificate(
        seed=outcome.seed,
        prime=outcome.prime,
        rows=outcome.rows,
        cols=outcome.cols,
        found=outcome.found,
        expected=outcome.expected,
        verdict=outcome.verdict,
        abundance=outcome.abundance,
        i=outcome.i,
        nd=3,
        t=outcome.t,
        ell=27,
        forms=list(forms),
        construct_line=f"Constructed T in {outcome.construct_seconds:.3f}s.",
        rank_line=(
            f"Computed the rank of the {outcome.rows} x {outcome.cols} matrix T "
            f"over F_{outcome.prime} in {outcome.rank_seconds:.3f}s."
        ),
        family=outcome.family,
        branch=outcome.branch,
        substream=SUBSTREAM_ALGORITHM,
        retries=outcome.retries,
        resamples=outcome.resamples,
    )


def emit_text(outcome: bolattice.VerificationOutcome, forms=None) -> str:
    """Certificate text for a completed verification outcome."""
    return render(from_outcome(outcome, forms))


_RE_SEED = re.compile(r"^Using random seed: (\d+)$")
_RE_SHAPE = re.compile(r"^Need a (\d+) x (\d+) matrix\.$")
_RE_FORM = re.compile(r"^([a-z]+)_\{(\d+(?:,\d+)*)\} = \[(.*)\]$")
_RE_CONSTRUCT = re.compile(r"^Constructed T in .+s\.$")
_RE_RANK = re.compile(r"^Computed the rank of the (\d+) x (\d+) matrix T over F_(\d+) in .+s\.$")
_RE_FOUND = re.compile(r"^Found (\d+) vs\. (\d+) expected\.$")
_RE_STATEMENT = re.compile(
    r"^T_(\d+)\((\d+), (\d+), (\d+)\) is (TRUE|UNVERIFIED) \((SUB|SUPER|EQUI)ABUNDANT\)$"
)


def parse(text: str) -> Certificate:
    """Strict parse of certificate text; raises ParseError with the line."""
    lines = text.splitlines()
    pos = 0

    def need(regex, what):
        nonlocal pos
        if pos >= len(lines):
            raise ParseError(pos + 1, f"unexpected end of certificate, expected {what}")
        match = regex.match(lines[pos])
        if not match:
            raise ParseError(pos + 1, f"expected {what}, got {lines[pos]!r}")
        pos += 1
        return match

    m = need(_RE_SEED, "the seed line")
    seed = int(m.group(1))
    m = need(_RE_SHAPE, "the matrix shape line")
    rows, cols = int(m.group(1)), int(m.group(2))

    forms = []
    while pos < len(lines) and (m := _RE_FORM.match(lines[pos])):
        base, idx, body = m.group(1), m.group(2), m.group(3)
        try:
            coeffs = tuple(int(v) for v in body.split())
        except ValueError:
            raise ParseError(pos + 1, f"bad coefficient list {body!r}")
        forms.append((f"{base}_{{{idx}}}", coeffs))
        pos += 1

    construct_match = need(_RE_CONSTRUCT, "the construction timing line")
    construct_line = construct_match.group(0)
    m = need(_RE_RANK, "the rank timing line")
    rank_line = m.group(0)
    if (int(m.group(1)), int(m.group(2))) != (rows, cols):
        raise InvariantViolation(pos, "rank line shape disagrees with the header")
    prime = int(m.group(3))
    m = need(_RE_FOUND, "the found/expected line")
    found, expected = int(m.group(1)), int(m.group(2))
    m = need(_RE_STATEMENT, "the statement line")
    i, nd, t, ell = (int(m.group(k)) for k in range(1, 5))
    verdict, abundance = m.group(5), m.group(6)

    family = branch = substream = None
    retries = resamples = None
    while pos < len(lines) and not lines[pos].strip():
        pos += 1
    while pos < len(lines) and lines[pos].strip():
        if "=" not in lines[pos]:
            raise ParseError(pos + 1, f"bad trailer line {lines[pos]!r}")
        key, _, value = lines[pos].partition("=")
        if key == "family":
            family = value
        elif key == "branch":
            branch = value
        elif key == "substream":
            substream = value
        elif key == "retries":
            retries = int(value)
        elif key == "resamples":
            resamples = int(value)
        pos += 1

    for line_no, (label, coeffs) in enumerate(forms, start=3):
        for c in coeffs:
            if not 0 <= c < prime:
                raise InvariantViolation(line_no, f"coefficient {c} of {label} outside 0..{prime - 1}")
    if (verdict == "TRUE") != (found == expected):
        raise InvariantViolation(len(lines), "verdict disagrees with found/expected")

    return Certificate(
        seed=seed, prime=prime, rows=rows, cols=cols, found=found, expected=expected,
        verdict=verdict, abundance=abundance, i=i, nd=nd, t=t, ell=ell, forms=forms,
        construct_line=construct_line, rank_line=rank_line, family=family, branch=branch,
        substream=substream, retries=retries, resamples=resamples,
    )


def _infer_family(cert: Certificate) -> str:
    for label, _ in cert.forms:
        if label.startswith(("k_", "m_")):
            return bolattice.CUBICS
    return bolattice.QUATERNARY


def _keyed_forms(cert: Certificate, family: str) -> dict[tuple, tuple]:
    """Map certificate labels back to substream keys; validates uniqueness."""
    keyed: dict[tuple, tuple] = {}
    for label, coeffs in cert.forms:
        m = re.match(r"^([a-z]+)_\{(\d+(?:,\d+)*)\}$", label)
        base, idx = m.group(1), [int(v) for v in m.group(2).split(",")]
        if family == bolattice.QUATERNARY:
            if base == "g" and len(idx) == 2:
                key = ("g", 0, idx[0], idx[1])
            elif base == "l" and len(idx) == 2:
                key = ("l", idx[0], 0, idx[1])
            elif base == "f" and len(idx) == 3:
                key = ("f", idx[0], idx[1], idx[2])
            else:
                raise DimensionMismatch(f"unexpected form label {label} for {family}")
        else:
            if base in ("k", "l", "m") and len(idx) == 1:
                key = (base, idx[0], 0, 0)
            elif base in ("k", "l", "m") and len(idx) == 2:
                key = (base + "j", idx[0], idx[1], 0)
            else:
                raise DimensionMismatch(f"unexpected form label {label} for {family}")
        if key in keyed:
            raise DimensionMismatch(f"duplicate form {label}")
        keyed[key] = coeffs
    return keyed


def _counts_from_keys(cert: Certificate, family: str, keyed: dict) -> tuple[int, int]:
    """Recover (eta, mu) from the recorded forms and check completeness."""
    t, i, ell = cert.t, cert.i, cert.ell
    roles = {}
    for key in keyed:
        roles.setdefault(key[0], set()).add(key[1:])
    if family == bolattice.QUATERNARY:
        want_g = {(0, j, g) for j in range(i) for g in range(ell)}
        if roles.get("g", set()) != want_g:
            raise DimensionMismatch(f"subspace forms do not cover {i} subspaces of {ell} factors")
        eta = len({k[0] for k in roles.get("l", set())})
        if roles.get("l", set()) != {(pt, 0, g) for pt in range(eta) for g in range(t)}:
            raise DimensionMismatch(f"generic point forms do not cover {eta} points of {t} factors")
        mus = {k[0] for k in roles.get("f", set())}
        mu = len(mus)
        want_f = {(pt, j, g) for pt in range(mu) for j in range(i) for g in range(t - ell)}
        if roles.get("f", set()) != want_f:
            raise DimensionMismatch("restricted point forms are incomplete")
    else:
        eta = len({k[0] for k in roles.get("k", set())})
        for base in ("k", "l", "m"):
            if roles.get(base, set()) != {(pt, 0, 0) for pt in range(eta)}:
                raise DimensionMismatch(f"generic factor set {base} does not cover {eta} points")
        mu = len({k[0] for k in roles.get("kj", set())})
        for base in ("kj", "lj", "mj"):
            if roles.get(base, set()) != {(pt, j, 0) for pt in range(mu) for j in range(i)}:
                raise DimensionMismatch(f"restricted factor set {base} is incomplete")
    return eta, mu


@dataclass
class ReverifyReport:
    recomputed_rank: int
    recorded_found: int
    recorded_expected: int
    rank_matches: bool
    plan_consistent: bool | None
    expected_matches: bool | None
    provenance: str          # confirmed / mismatch / unknown
    verdict_confirmed: bool
    ok: bool


def check_provenance(cert: Certificate, family: str, keyed: dict) -> str:
    """Re-derive every form from the recorded seed and compare.

    Only possible when the certificate names our substream algorithm;
    foreign certificates return "unknown".
    """
    if cert.substream != SUBSTREAM_ALGORITHM:
        return "unknown"
    field = PrimeField(cert.prime)
    sampler = FormSampler(cert.seed, field)
    n = 3 if family == bolattice.QUATERNARY else cert.t
    ell = cert.ell
    for (role, pi, pj, gamma), coeffs in keyed.items():
        support = None
        if role in ("kj", "lj", "mj"):
            block = range(ell * pj, ell * (pj + 1))
            support = [v for v in range(n + 1) if v not in block]
        regenerated = sampler.linear_form(role, n, i=pi, j=pj, gamma=gamma, support=support)
        if not np.array_equal(regenerated, np.asarray(coeffs, dtype=np.int64)):
            return "mismatch"
    return "confirmed"


def reverify(cert: Certificate, family: str | None = None, branch: str | None = None) -> ReverifyReport:
    """Rebuild the matrix from the recorded forms and recompute its rank.

    The rank check is independent of the original RNG.  The plan and
    expected-dimension checks run when the branch is known (recorded or
    passed in); the provenance check runs when the substream algorithm
    matches ours.
    """
    family = family or cert.family or _infer_family(cert)
    branch = branch or cert.branch
    config = bolattice.config_for(family)
    field = PrimeField(cert.prime)
    keyed = _keyed_forms(cert, family)
    eta, mu = _counts_from_keys(cert, family, keyed)

    n = 3 if family == bolattice.QUATERNARY else cert.t
    source = RecordedForms({k: np.asarray(v, dtype=np.int64) for k, v in keyed.items()},
                           n, cert.prime)
    spec = bolattice.prepare_build(config, cert.t, cert.i, eta, mu, source)
    if (spec.rows, spec.cols) != (cert.rows, cert.cols):
        raise DimensionMismatch(
            f"recorded shape {cert.rows} x {cert.cols} but forms rebuild {spec.rows} x {spec.cols}"
        )
    rank = rank_from_column_blocks(
        bolattice.column_blocks(spec, field), spec.rows, cert.prime, total_cols=spec.cols
    )

    plan_consistent = expected_matches = None
    if branch in bolattice.BRANCHES:
        plan = bolattice.plan_statement(config, cert.t, branch)
        plan_consistent = (plan["i"], plan["eta"], plan["mu"]) == (cert.i, eta, mu)
        expected_matches = plan["expected"] == cert.expected

    provenance = check_provenance(cert, family, keyed)
    rank_matches = rank == cert.found
    verdict_confirmed = rank_matches and cert.verdict == "TRUE"
    ok = (
        verdict_confirmed
        and provenance != "mismatch"
        and plan_consistent in (None, True)
        and expected_matches in (None, True)
    )
    return ReverifyReport(
        recomputed_rank=rank,
        recorded_found=cert.found,
        recorded_expected=cert.expected,
        rank_matches=rank_matches,
        plan_consistent=plan_consistent,
        expected_matches=expected_matches,
        provenance=provenance,
        verdict_confirmed=verdict_confirmed,
        ok=ok,
    )
