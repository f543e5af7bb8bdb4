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
substream algorithm, retry and resample counts; each key at most once,
and nothing after the trailer).  Coefficients are right-aligned to the
width of P-1 and space separated.  Timing lines are preserved verbatim
through parse/emit round-trips and excluded from the
determinism guarantee; everything else is byte-reproducible from the
seed.  An s1 call ranks the s2 stream, which begins with the s1 columns,
and hands the s2 rank on (bolattice.verify_statement): the s1 timing
lines then run up to the end of the s1 columns, and the s2 lines cover
the s2 call's own preparation and the whole pass, the s1 part included.

The shape line counts the full generator set of the statement
(bolattice.column_count).  Verification and reverification rank the
pruned stream of bolattice.column_blocks instead, which drops the
generators that are exact combinations of kept ones, so its rank is the
rank of that full matrix.

Reverification rebuilds the matrix from the recorded forms alone — not
from the seed — and recomputes the rank, so a certificate stands on its
own even for a consumer with a different random number generator.
First it checks the certificate against the plan of its statement
(bolattice.plan_statement for the recorded branch, or, without a
trailer, for the branch whose form labels are the recorded ones) and
refuses any step, fixed argument, label, order, abundance, shape or
expected dimension that is not the plan's; a t outside the base cases
has no plan and is refused there.  The rank is taken and checked by
bolattice.rank_and_bound, verification's own rank step.  Reverification
follows bolattice.form_plan, which gives each label its substream key and
support.  When the trailer names our substream algorithm, the provenance
check re-draws the forms from the seed through bolattice.prepare_build,
the one walk of the form plan that draws forms, and compares them with
the recorded ones byte for byte, which catches any tampering with
recorded coefficients (a single flipped coefficient still yields a
generic configuration of the same rank, so the rank check alone cannot
see it).

A pair is reverified in one rank pass, as it was verified.  When an s1
certificate's provenance is confirmed, its s2 spec is prepared with the
provenance check's sampler: the recorded s1 forms, which that sampler
has just re-drawn byte for byte, followed by the extra s2 point's forms,
drawn from the seed then.  Both specs are ranked in one rank_and_bound
pass; the s1 rank is read at the end of its columns and the s2 rank is
handed on (bolattice.rank_and_hand_off).  The next reverification takes
it only if its own spec, rebuilt from its recorded forms, is that exact
stream at that prime, so an s2 certificate with any edited form is
ranked alone.  An s1 certificate whose provenance is a mismatch or
unknown is ranked alone and hands nothing on.  Either way, the rank
reported for a certificate is that of the stream its own recorded forms
build.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import bolattice
from .finite_calculus import PROOF_STEP
from .gfpoly import DimensionMismatch, PrimeField
from .gflinalg import rank_from_column_blocks  # noqa: F401 -- stays patchable by name for perfbench
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


# The trailer's keys, in the order render writes them: Certificate fields.
_TRAILER_KEYS = ("family", "branch", "substream", "retries", "resamples")


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
        lines.extend(f"{key}={getattr(cert, key)}" for key in _TRAILER_KEYS)
    return "\n".join(lines) + "\n"


def from_outcome(outcome: bolattice.VerificationOutcome) -> Certificate:
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
        nd=bolattice.STATEMENT_ND,
        t=outcome.t,
        ell=PROOF_STEP,
        forms=list(outcome.forms),
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


def emit_text(outcome: bolattice.VerificationOutcome) -> str:
    """Certificate text for a completed verification outcome."""
    return render(from_outcome(outcome))


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
    """Strict parse of certificate text; raises ParseError with the line.
    Each trailer key may appear at most once; an unknown key, or any line
    after the trailer, is an error."""
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

    trailer = {}
    while pos < len(lines) and not lines[pos].strip():
        pos += 1
    while pos < len(lines) and lines[pos].strip():
        if "=" not in lines[pos]:
            raise ParseError(pos + 1, f"bad trailer line {lines[pos]!r}")
        key, _, value = lines[pos].partition("=")
        if key not in _TRAILER_KEYS:
            raise ParseError(pos + 1, f"unknown trailer key {key!r}")
        if key in trailer:
            raise ParseError(pos + 1, f"repeated trailer key {key!r}")
        if key in ("retries", "resamples"):
            try:
                value = int(value)
            except ValueError:
                raise ParseError(pos + 1, f"{key} must be an integer, got {value!r}")
        trailer[key] = value
        pos += 1
    while pos < len(lines) and not lines[pos].strip():
        pos += 1
    if pos < len(lines):
        raise ParseError(pos + 1, f"unexpected line after the trailer: {lines[pos]!r}")

    for line_no, (label, coeffs) in enumerate(forms, start=3):
        for c in coeffs:
            if not 0 <= c < prime:
                raise InvariantViolation(line_no, f"coefficient {c} of {label} outside 0..{prime - 1}")
    if (verdict == "TRUE") != (found == expected):
        raise InvariantViolation(len(lines), "verdict disagrees with found/expected")

    return Certificate(
        seed=seed, prime=prime, rows=rows, cols=cols, found=found, expected=expected,
        verdict=verdict, abundance=abundance, i=i, nd=nd, t=t, ell=ell, forms=forms,
        construct_line=construct_line, rank_line=rank_line, **{key: trailer.get(key) for key in _TRAILER_KEYS},
    )


def _infer_family(cert: Certificate) -> str:
    """Cubics when a form label is cubic or quaternary forms have no
    statement at the recorded t (a formless certificate at t=1)."""
    cubic = any(label.startswith(("k_", "m_")) for label, _ in cert.forms)
    if cubic or cert.t < bolattice.config_for(bolattice.QUATERNARY).t_first:
        return bolattice.CUBICS
    return bolattice.QUATERNARY


@dataclass
class ReverifyReport:
    recomputed_rank: int
    recorded_found: int
    rank_matches: bool
    provenance: str          # confirmed / mismatch / unknown
    verdict_confirmed: bool
    ok: bool


def check_provenance(cert: Certificate, spec: bolattice.BuildSpec, sampler: FormSampler) -> str:
    """Re-draw every form of the spec's statement through `sampler`, a
    FormSampler of the recorded seed and prime, by bolattice.prepare_build,
    and compare with the forms the spec was built from.

    Only possible when the certificate names our substream algorithm;
    foreign certificates return "unknown" and draw nothing.  The sampler
    keeps what it drew, so a spec that extends the statement (the s2 spec
    of an s1 certificate) prepared with it afterwards holds these forms
    and draws only its own.
    """
    if cert.substream != SUBSTREAM_ALGORITHM:
        return "unknown"
    config = bolattice.config_for(spec.family)
    drawn = bolattice.prepare_build(config, spec.t, spec.i, spec.eta, spec.mu, sampler).keyed
    same = all(np.array_equal(coeffs, spec.keyed[key]) for key, coeffs in drawn.items())
    return "confirmed" if same else "mismatch"


def _statement_plan(cert: Certificate, config: bolattice.LatticeConfig):
    """The plan of the certificate's statement and its form plan: those of
    the recorded branch, or, with none recorded, of the first branch whose
    form labels are the recorded ones.  Any other labels raise
    DimensionMismatch, an unknown branch ValueError."""
    recorded = Counter(label for label, _ in cert.forms)
    branches = bolattice.BRANCHES if cert.branch is None else (cert.branch,)
    for branch in branches:
        plan = bolattice.plan_statement(config, cert.t, branch)
        planned = list(bolattice.form_plan(config.family, cert.t, plan["i"], config.ell, plan["eta"], plan["mu"]))
        wanted = Counter(label for label, _, _ in planned)
        if recorded == wanted:
            return plan, planned
    raise DimensionMismatch(
        f"recorded forms are not the {config.family} t={cert.t} {' or '.join(branches)} plan "
        f"({branch}: extra or repeated {sorted(recorded - wanted)[:3]}, missing {sorted(wanted - recorded)[:3]})"
    )


def reverify(cert: Certificate) -> ReverifyReport:
    """Check a certificate against its plan, rebuild the matrix from the
    recorded forms and recompute its rank.

    The family is the recorded one, or else the one its labels and t imply;
    the branch is the recorded one, or else the one whose plan has the
    recorded labels.  A t with no statement (outside t_first..t0) raises
    ValueError from the plan, and everything the plan fixes -- step, fixed
    argument, labels, order, abundance, shape and expected dimension --
    must agree with it, or DimensionMismatch is raised; both come before
    any build.  The rank is taken and bounded by bolattice.rank_and_bound,
    the rank step of verify_statement, so a recomputed rank above the
    plan's expected dimension raises bolattice.RankContradiction.  The rank
    check is independent of the original RNG; the provenance check runs
    when the substream algorithm matches ours.

    An s1 certificate with confirmed provenance is ranked together with
    its s2 stream, whose rank is handed on to the next call (see the
    module docstring); a rank above the s2 bound there raises
    RankContradiction naming s2.
    """
    handed = bolattice.take_handoff()
    family = cert.family or _infer_family(cert)
    config = bolattice.config_for(family)
    if cert.ell != config.ell:
        raise DimensionMismatch(f"statement step {cert.ell} but the {family} lattice steps by {config.ell}")
    if cert.nd != bolattice.STATEMENT_ND:
        raise DimensionMismatch(f"statement argument {cert.nd} but every statement fixes {bolattice.STATEMENT_ND}")
    plan, planned = _statement_plan(cert, config)
    mismatches = [
        f"{what} {got} but the plan's is {want}"
        for what, got, want in (
            ("statement order", cert.i, plan["i"]),
            ("statement abundance", f"{cert.abundance}ABUNDANT", f"{plan['abundance']}ABUNDANT"),
            ("shape", f"{cert.rows} x {cert.cols}", f"{plan['rows']} x {plan['cols']}"),
            ("expected dimension", cert.expected, plan["expected"]),
        )
        if got != want
    ]
    if mismatches:
        raise DimensionMismatch(f"{family} t={cert.t} {plan['branch']}: " + "; ".join(mismatches))

    coeffs = dict(cert.forms)
    source = RecordedForms({key: np.asarray(coeffs[label], dtype=np.int64) for label, key, _ in planned})
    spec = bolattice.prepare_build(config, cert.t, plan["i"], plan["eta"], plan["mu"], source)
    field = PrimeField(cert.prime)
    sampler = FormSampler(cert.seed, field)
    provenance = check_provenance(cert, spec, sampler)
    passes = [(plan, spec)]
    if plan["branch"] == "s1" and provenance == "confirmed":
        s2 = bolattice.plan_statement(config, cert.t, "s2")
        passes.append((s2, bolattice.prepare_build(config, cert.t, s2["i"], s2["eta"], s2["mu"], sampler)))
    del sampler  # its re-drawn forms are not held through the rank
    (rank, _, _), *_ = bolattice.rank_and_hand_off("reverify", passes, field, cert.seed, handed)

    rank_matches = rank == cert.found
    verdict_confirmed = rank_matches and cert.verdict == "TRUE"
    return ReverifyReport(
        recomputed_rank=rank,
        recorded_found=cert.found,
        rank_matches=rank_matches,
        provenance=provenance,
        verdict_confirmed=verdict_confirmed,
        ok=verdict_confirmed and provenance != "mismatch",
    )
