import hashlib
import importlib.util
import json
import re
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import chowdefect.bolattice as bo
import chowdefect.certificate as cert
from chowdefect.gfpoly import DimensionMismatch, PrimeField
from chowdefect.gflinalg import rank_from_column_blocks
from chowdefect.sampling import SUBSTREAM_ALGORITHM, FormSampler, RecordedForms

F = PrimeField(8191)
QUAT = bo.config_for(bo.QUATERNARY)
CUB = bo.config_for(bo.CUBICS)

# A published certificate for the degree-5 subabundant case, kept verbatim
# as an external fixture: its recorded forms must rebuild to rank 48.
EXTERNAL_CERT = """Using random seed: 1452337571
Need a 56 x 60 matrix.
l_{0,0} = [7354 6394  862 7318]
l_{0,1} = [6008 7131 6458 3996]
l_{0,2} = [ 956 1407 7361  119]
l_{0,3} = [1659 1730 3153 6358]
l_{0,4} = [1861 3230 4474 6784]
l_{1,0} = [2581 5927 3361 5265]
l_{1,1} = [6076 3508  373 2488]
l_{1,2} = [4744 1652 3436  940]
l_{1,3} = [  65 1209 4285 6640]
l_{1,4} = [7483 5618 2000 4187]
l_{2,0} = [4138 6897 4991 5908]
l_{2,1} = [7470 2404 1374 7439]
l_{2,2} = [2454 6397 6616 4915]
l_{2,3} = [3309 7016 1544 7528]
l_{2,4} = [2433  571 1439  458]
Constructed T in 0.001s.
Computed the rank of the 56 x 60 matrix T over F_8191 in 0.001s.
Found 48 vs. 48 expected.
T_0(3, 5, 27) is TRUE (SUBABUNDANT)
"""


def strip_timing(text):
    return [
        ln
        for ln in text.splitlines()
        if not (ln.startswith("Constructed T in") or ln.startswith("Computed the rank"))
    ]


def test_external_certificate_parses():
    c = cert.parse(EXTERNAL_CERT)
    assert len(c.forms) == 15
    assert c.forms[0] == ("l_{0,0}", (7354, 6394, 862, 7318))
    assert c.forms[-1] == ("l_{2,4}", (2433, 571, 1439, 458))
    assert (c.rows, c.cols, c.found, c.expected) == (56, 60, 48, 48)
    assert (c.t, c.i, c.ell, c.prime) == (5, 0, 27, 8191)
    assert c.verdict == "TRUE" and c.abundance == "SUB"
    assert c.family is None  # no trailer on the external fixture


def test_external_certificate_roundtrips_exactly():
    assert cert.render(cert.parse(EXTERNAL_CERT)) == EXTERNAL_CERT


def test_external_certificate_reverifies():
    report = cert.reverify(cert.parse(EXTERNAL_CERT))
    assert report.recomputed_rank == 48
    assert report.rank_matches and report.verdict_confirmed
    assert report.provenance == "unknown"
    assert report.ok


def two_point_certificate():
    """EXTERNAL_CERT without its third point, edited to the shape and rank
    two points give: a consistent certificate, but not of the plan's
    statement, which has three."""
    lines = [ln for ln in EXTERNAL_CERT.splitlines() if not ln.startswith("l_{2,")]
    text = "\n".join(lines) + "\n"
    return text.replace("56 x 60", "56 x 40").replace("Found 48 vs. 48", "Found 32 vs. 32")


def test_trailerless_certificate_missing_a_point_refused(tmp_path, capsys):
    from chowdefect.cli import main

    text = two_point_certificate()
    assert "T_0(3, 5, 27) is TRUE" in text and text.count("56 x 40") == 2
    with pytest.raises(DimensionMismatch, match="not the quaternary t=5 s1 or s2 plan"):
        cert.reverify(cert.parse(text))
    path = tmp_path / "two_points.cert"
    path.write_text(text)
    assert main(["reverify", str(path)]) == 2
    assert capsys.readouterr().err.startswith("rebuild mismatch: ")


def test_trailerless_expected_off_the_plan_refused():
    # the plan of quaternary t=5 s1 expects 48; a certificate that claims 47 is not its statement
    text = EXTERNAL_CERT.replace("Found 48 vs. 48", "Found 47 vs. 47")
    with pytest.raises(DimensionMismatch, match="expected dimension 47 but the plan's is 48"):
        cert.reverify(cert.parse(text))


def emit(config, t, branch, seed):
    out = bo.verify_statement(config, t, branch, seed=seed, field=F)
    return out, cert.emit_text(out)


def test_roundtrip_on_own_certificates(monkeypatch):
    calls = []
    real = bo.rank_from_column_blocks
    monkeypatch.setattr(bo, "rank_from_column_blocks", lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs))
    for config, t, branch in ((QUAT, 5, "s1"), (QUAT, 7, "s2"), (CUB, 6, "s1"), (CUB, 1, "s2")):
        out, text = emit(config, t, branch, seed=31415)
        c = cert.parse(text)
        assert cert.render(c) == text
        assert (c.rows, c.cols) == (out.rows, out.cols)
        assert c.family == config.family and c.branch == branch
        before = len(calls)
        report = cert.reverify(c)
        assert len(calls) == before + 1  # one rank call, through bolattice.rank_and_bound
        assert report.ok and report.provenance == "confirmed"


def test_zero_point_certificate():
    out, text = emit(CUB, 1, "s1", seed=1)
    assert "Need a 4 x 0 matrix." in text
    assert "Found 0 vs. 0 expected." in text
    c = cert.parse(text)
    assert cert.reverify(c).ok


def test_desk_certificates_match_the_reference_digests():
    """The 62 desk statements (t <= 16, both families and branches) at the
    benchmark's seed emit certificates whose SHA-256, timing lines dropped,
    is the one recorded in perfbench/reference_digests.json."""
    reference = Path(__file__).resolve().parent.parent / "perfbench" / "reference_digests.json"
    data = json.loads(reference.read_text(encoding="utf-8"))
    seed = data["seed"]
    assert seed == 20260809
    differ = []
    count = 0
    for config in (QUAT, CUB):
        for t in range(config.t_first, 17):
            for branch in ("s1", "s2"):
                _, text = emit(config, t, branch, seed=seed)
                digest = hashlib.sha256("\n".join(strip_timing(text)).encode("utf-8")).hexdigest()
                count += 1
                if digest != data["digests"][f"{config.family}:{t}:{branch}"]:
                    differ.append((config.family, t, branch))
    assert count == 62 and not differ


def test_certificate_determinism():
    _, a = emit(QUAT, 6, "s2", seed=777)
    _, b = emit(QUAT, 6, "s2", seed=777)
    assert strip_timing(a) == strip_timing(b)
    _, c = emit(QUAT, 6, "s2", seed=778)
    assert strip_timing(a) != strip_timing(c)


def test_subspace_roles_roundtrip():
    # an order-1 statement carries g and f forms alongside the l forms
    out = bo.verify_statement(CUB, 28, "s2", seed=91, field=F)
    text = cert.emit_text(out)
    assert re.search(r"^k_\{0,0\} = ", text, re.M), "restricted-point factor labels missing"
    c = cert.parse(text)
    report = cert.reverify(c)
    assert report.ok and report.provenance == "confirmed"


def test_tamper_detection():
    _, text = emit(QUAT, 7, "s1", seed=2718)
    lines = text.splitlines()
    idx = next(i for i, ln in enumerate(lines) if ln.startswith("l_{1,2}"))
    m = re.match(r"(l_\{1,2\} = \[\s*)(\d+)(.*)", lines[idx])
    original = int(m.group(2))
    tampered_value = (original + 1234) % 8191
    lines[idx] = f"{m.group(1)}{tampered_value}{m.group(3)}"
    report = cert.reverify(cert.parse("\n".join(lines) + "\n"))
    assert report.provenance == "mismatch"
    assert not report.ok


def test_recomputed_rank_above_expected_is_a_contradiction(monkeypatch):
    """A recomputed rank above the plan's expected dimension, an upper
    bound, raises as in verify_statement instead of reporting a mismatch."""
    out, text = emit(QUAT, 6, "s2", seed=3)
    monkeypatch.setattr(bo, "rank_from_column_blocks", lambda *args, **kwargs: out.expected + 1)
    with pytest.raises(bo.RankContradiction, match="quaternary t=6 s2"):
        cert.reverify(cert.parse(text))


def test_parse_errors():
    with pytest.raises(cert.ParseError) as err:
        cert.parse("Using random seed: 5\nNeed a 3 x 4 matrix.\n")
    assert err.value.line_no == 3
    truncated = "\n".join(EXTERNAL_CERT.splitlines()[:10]) + "\n"
    with pytest.raises(cert.ParseError):
        cert.parse(truncated)
    with pytest.raises(cert.ParseError):
        cert.parse("garbage\n")


REAL_TRAILER = f"\nfamily=quaternary\nbranch=s1\nsubstream={SUBSTREAM_ALGORITHM}\nretries=0\nresamples=0\n"


@pytest.mark.parametrize("bad, trailer", [
    ("retries=x", "\nfamily=quaternary\nretries=x\n"),
    ("resamples=x", "\nfamily=quaternary\nresamples=x\n"),
    ("branch=s2", REAL_TRAILER + "branch=s2\nfamly=cubics\n"),
    ("famly=cubics", REAL_TRAILER + "famly=cubics\n"),
    ("famly=cubics", REAL_TRAILER + "\nfamly=cubics\n"),
], ids=["retries", "resamples", "repeated", "unknown", "after"])
def test_non_integer_trailer_count_is_a_parse_error(tmp_path, capsys, bad, trailer):
    """A non-integer count, a repeated or unknown key in the trailer, or a
    line after it, is a parse error at its line, and the CLI exits 1 on it."""
    from chowdefect.cli import main

    assert cert.parse(EXTERNAL_CERT + REAL_TRAILER).branch == "s1"
    text = EXTERNAL_CERT + trailer
    key = bad.partition("=")[0]
    line_no = text.splitlines().index(bad) + 1
    with pytest.raises(cert.ParseError) as err:
        cert.parse(text)
    assert err.value.line_no == line_no and key in err.value.reason
    path = tmp_path / "bad.cert"
    path.write_text(text)
    assert main(["reverify", str(path)]) == 1
    assert capsys.readouterr().err.startswith(f"parse failure: line {line_no}: ")


def test_oversized_coefficient_rejected():
    bad = EXTERNAL_CERT.replace("[7354", "[8191")
    with pytest.raises(cert.InvariantViolation):
        cert.parse(bad)


def test_inconsistent_verdict_rejected():
    bad = EXTERNAL_CERT.replace("Found 48 vs. 48", "Found 47 vs. 48")
    with pytest.raises(cert.InvariantViolation):
        cert.parse(bad)


def test_missing_form_detected():
    lines = [ln for ln in EXTERNAL_CERT.splitlines() if not ln.startswith("l_{2,4}")]
    text = "\n".join(lines) + "\n"
    with pytest.raises((DimensionMismatch, cert.ParseError)):
        cert.reverify(cert.parse(text))


def test_shape_mismatch_detected():
    text = EXTERNAL_CERT.replace("56 x 60", "56 x 64")
    with pytest.raises(DimensionMismatch, match="shape 56 x 64"):
        cert.reverify(cert.parse(text))


def plan_certificate(config, t, branch, seed, points=None):
    """Certificate text for the statement (t, branch) with forms drawn from
    the seed and no rank computed: it claims the plan's expected rank as
    found, which reverify then checks.  `points` = (i, eta, mu) replaces
    the plan's order and point counts."""
    plan = bo.plan_statement(config, t, branch)
    i, eta, mu = points or (plan["i"], plan["eta"], plan["mu"])
    spec = bo.prepare_build(config, t, i, eta, mu, FormSampler(seed, F))
    outcome = bo.VerificationOutcome(
        family=config.family, t=t, i=i, branch=branch, abundance=plan["abundance"],
        rows=spec.rows, cols=bo.column_count(config, t, i, eta, mu), expected=plan["expected"], found=plan["expected"], verdict="TRUE",
        seed=seed, prime=8191, resamples=0, retries=0,
        construct_seconds=0.0, rank_seconds=0.0, attempts=((seed, plan["expected"]),),
        forms=tuple((label, tuple(int(v) for v in c)) for label, c in spec.forms),
    )
    return cert.emit_text(outcome)


def test_low_order_quaternary_certificate_reverifies():
    # the degree-28 s2 plan has one subspace block and one restricted point,
    # so it exercises the g/l/f role vocabulary end to end
    text = plan_certificate(QUAT, 28, "s2", seed=555)
    assert re.search(r"^g_\{0,26\} = ", text, re.M)
    assert re.search(r"^f_\{0,0,0\} = ", text, re.M)
    c = cert.parse(text)
    assert c.substream == SUBSTREAM_ALGORITHM
    report = cert.reverify(c)
    assert report.recomputed_rank == 4495
    assert report.provenance == "confirmed"
    assert report.ok


@pytest.mark.parametrize("config", [QUAT, CUB], ids=["quaternary", "cubics"])
def test_point_counts_off_the_plan_refused(config):
    # one generic and one restricted point is a real order-1 matrix, but
    # not the s1 statement at t=28, which plans 52 generic points and none restricted
    text = plan_certificate(config, 28, "s1", seed=555, points=(1, 1, 1))
    with pytest.raises(DimensionMismatch, match=f"not the {config.family} t=28 s1 plan"):
        cert.reverify(cert.parse(text))


@pytest.mark.parametrize("extra", [
    "g_{0,0} = [   1    2    3    4]",   # a subspace form in an order-0 certificate
    "k_{0} = [   1    2    3    4]",     # a cubic label
    "l_{0,0} = [   1    2    3    4]",   # a duplicated label
], ids=["subspace-form-at-order-0", "cubic-label", "duplicate"])
def test_labels_outside_the_plan_rejected(extra):
    lines = EXTERNAL_CERT.splitlines()
    lines.insert(2, extra)
    with pytest.raises(DimensionMismatch):
        cert.reverify(cert.parse("\n".join(lines) + "\n"))


@pytest.mark.parametrize("config, t", [(QUAT, 56), (CUB, 60)], ids=["quaternary", "cubics"])
def test_recorded_forms_rebuild_the_sampled_spec_at_order_2(config, t):
    # order 2 puts subspaces j=0 and j=1 in the plan; for cubics the forms of
    # subspace j=1 are supported off variables 27..53
    sampled = bo.prepare_build(config, t, 2, 1, 1, FormSampler(60, F))
    replayed = bo.prepare_build(config, t, 2, 1, 1, RecordedForms(sampled.keyed))
    assert [label for label, _ in replayed.forms] == [label for label, _ in sampled.forms]
    for (_, a), (_, b) in zip(replayed.forms, sampled.forms):
        assert np.array_equal(a, b)
    assert replayed.keyed.keys() == sampled.keyed.keys()
    assert all(np.array_equal(replayed.keyed[k], v) for k, v in sampled.keyed.items())
    if config is CUB:
        assert not sampled.keyed[("kj", 0, 1, 0)][27:54].any()
        assert np.array_equal(replayed.row_keep, sampled.row_keep)
    else:
        assert replayed.row_keep is None and sampled.row_keep is None
    assert (replayed.rows_full, replayed.rows) == (sampled.rows_full, sampled.rows)


def edit_form(text, label):
    """The certificate with one coefficient of `label` changed: the first
    nonzero one, which lies inside the form's support, so the form still
    fits its subspace."""
    target = next(ln for ln in text.splitlines() if ln.startswith(label + " = "))
    body = target.split("[")[1].rstrip("]").split()
    k = next(k for k, v in enumerate(body) if int(v))
    body[k] = str((int(body[k]) + 1) % 8191)
    return text.replace(target, f"{label} = [{' '.join(body)}]")


@pytest.mark.parametrize("config, label", [(QUAT, "f_{0,0,0}"), (CUB, "k_{0,0}")], ids=["quaternary", "cubics"])
def test_tampered_restricted_point_form_is_a_provenance_mismatch(config, label):
    text = plan_certificate(config, 28, "s2", seed=808)
    report = cert.reverify(cert.parse(edit_form(text, label)))
    assert report.provenance == "mismatch"
    assert not report.ok


@pytest.mark.parametrize("config", [QUAT, CUB], ids=["quaternary", "cubics"])
def test_edited_statement_step_rejected(config):
    # the step fixes which factors each subspace and restricted point has, so
    # a statement line with any other step is not the certificate's statement
    text = plan_certificate(config, 28, "s2", seed=909)
    assert "T_1(" in text and ", 28, 27) is TRUE" in text
    with pytest.raises(DimensionMismatch, match="step 26"):
        cert.reverify(cert.parse(text.replace(", 28, 27) is TRUE", ", 28, 26) is TRUE")))


@pytest.mark.parametrize("line, bad", [("family=cubics", "family=bogus"), ("branch=s1", "branch=s9")],
                         ids=["family", "branch"])
def test_unknown_family_or_branch_refused(line, bad):
    # an unknown name must neither fall back to cubics nor skip the plan checks
    _, text = emit(CUB, 6, "s1", seed=4)
    assert line in text
    with pytest.raises(ValueError, match=bad.partition("=")[2]):
        cert.reverify(cert.parse(text.replace(line, bad)))


def test_certificate_without_forms_reverifies():
    # cubics t=1 s1 is 4 x 0: no labels to infer the family or branch from, and
    # quaternary forms have no statement at t=1, so it is checked as cubics
    _, text = emit(CUB, 1, "s1", seed=4)
    body, _, trailer = text.partition("\n\n")
    assert "family=cubics" in trailer and "Need a 4 x 0 matrix." in body
    c = cert.parse(body + "\n")
    assert c.family is None and c.branch is None and c.forms == []
    report = cert.reverify(c)
    assert report.recomputed_rank == 0
    assert report.ok


def test_quaternary_t1_certificate_refused(tmp_path, capsys):
    """Quaternary statements start at t=2.  The 4 x 4 matrix of one point
    at t=1 is refused with its trailer, as no statement, and without it,
    when the family is taken to be cubics, whose t=1 forms are k, l, m."""
    from chowdefect.cli import main

    spec = bo.prepare_build(QUAT, 1, 0, 1, 0, FormSampler(4, F))
    outcome = bo.VerificationOutcome(
        family="quaternary", t=1, i=0, branch="s2", abundance="EQUI", rows=4, cols=4, expected=4,
        found=4, verdict="TRUE", seed=4, prime=8191, resamples=0, retries=0,
        construct_seconds=0.0, rank_seconds=0.0, attempts=((4, 4),),
        forms=tuple((label, tuple(int(v) for v in c)) for label, c in spec.forms),
    )
    text = cert.emit_text(outcome)
    with pytest.raises(ValueError, match="start at t=2"):
        cert.reverify(cert.parse(text))
    with pytest.raises(DimensionMismatch, match="not the cubics t=1 s1 or s2 plan"):
        cert.reverify(cert.parse(text.partition("\n\n")[0] + "\n"))
    path = tmp_path / "quaternary_t001_s2.cert"
    path.write_text(text)
    assert main(["reverify", str(path)]) == 2
    assert capsys.readouterr().err.startswith("rebuild mismatch: ")


@pytest.mark.parametrize("config", (QUAT, CUB), ids=lambda c: c.family)
def test_certificate_beyond_t0_refused_before_any_build(config, tmp_path, capsys, monkeypatch):
    """t0 + 1 is no base case.  A certificate there with every figure the
    plan would check -- labels, shape, expected rank and abundance, taken
    from the point split the plan would use -- is refused before anything
    is built, by reverify and by the CLI; verification refuses the t too."""
    from chowdefect.cli import main

    t = config.t0 + 1

    def no_build(*args, **kwargs):
        pytest.fail(f"{config.family} t={t} reached prepare_build")

    for branch in bo.BRANCHES:
        i, eta, mu = bo.point_split(config, t, branch)
        eliminated = bo.eliminated_row_count(config, t, i) if config.family == bo.CUBICS else 0
        assert bo.a_i(config, i, t, branch) == config.N(t)  # the top order is equiabundant from t0 on
        expected = config.N(t) - eliminated
        n = 3 if config.family == bo.QUATERNARY else t
        sampler = FormSampler(5, F)
        forms = tuple(
            (label, tuple(int(v) for v in sampler.linear_form(role, n, i=pi, j=pj, gamma=gamma, support=support)))
            for label, (role, pi, pj, gamma), support in bo.form_plan(config.family, t, i, config.ell, eta, mu)
        )
        outcome = bo.VerificationOutcome(
            family=config.family, t=t, i=i, branch=branch, abundance=bo.EQUI,
            rows=config.N(t) - eliminated, cols=bo.column_count(config, t, i, eta, mu), expected=expected,
            found=expected, verdict="TRUE", seed=5, prime=8191, resamples=0, retries=0,
            construct_seconds=0.0, rank_seconds=0.0, attempts=((5, expected),), forms=forms,
        )
        text = cert.emit_text(outcome)
        path = tmp_path / f"{config.family}_t{t:03d}_{branch}.cert"
        path.write_text(text)

        with monkeypatch.context() as m:
            m.setattr(bo, "prepare_build", no_build)
            with pytest.raises(ValueError, match=f"start at t={config.t_first}"):
                bo.plan_statement(config, t, branch)
            with pytest.raises(ValueError, match=f"start at t={config.t_first}"):
                bo.verify_statement(config, t, branch, seed=5, field=F)
            with pytest.raises(ValueError, match=f"start at t={config.t_first}"):
                cert.reverify(cert.parse(text))
            assert main(["reverify", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("rebuild mismatch: ") and f"t={t}" in err


@pytest.mark.parametrize("statement", [
    "T_0(7, 5, 27) is TRUE (SUPERABUNDANT)",
    "T_0(7, 5, 27) is TRUE (SUBABUNDANT)",
    "T_0(3, 5, 27) is TRUE (SUPERABUNDANT)",
], ids=["both", "argument", "abundance"])
def test_edited_statement_line_rejected(statement):
    text = EXTERNAL_CERT.replace("T_0(3, 5, 27) is TRUE (SUBABUNDANT)", statement)
    assert statement in text
    with pytest.raises(DimensionMismatch, match="statement"):
        cert.reverify(cert.parse(text))


def test_zero_recorded_form_rejected():
    # a tampered zero factor must be refused, not pruned or crash the build
    text = EXTERNAL_CERT.replace("l_{1,2} = [4744 1652 3436  940]", "l_{1,2} = [   0    0    0    0]")
    assert "[   0    0    0    0]" in text
    with pytest.raises(DimensionMismatch, match="zero"):
        cert.reverify(cert.parse(text))


# ---------------------------------------------------------------------------
# certificate pairs: an s1 certificate and the s2 certificate of its t and seed


def counting_ranks(monkeypatch, calls, end=None):
    """Wrap the rank that rank_and_bound calls, recording each call's
    total_cols; `end(rank)`, if given, is the rank the first call returns."""
    real = bo.rank_from_column_blocks

    def rank(blocks, n_rows, modulus, total_cols=None, progress=None):
        calls.append(total_cols)
        found = real(blocks, n_rows, modulus, total_cols=total_cols, progress=progress)
        return end(found) if end is not None and len(calls) == 1 else found

    monkeypatch.setattr(bo, "rank_from_column_blocks", rank)


def pair_texts(config, t, seed=20260809):
    """The s1 and s2 certificate texts of one t, verified as a pair."""
    return [emit(config, t, branch, seed)[1] for branch in bo.BRANCHES]


def extra_point_labels(config, t):
    """The labels of the s2 forms that the s1 plan does not have."""
    labels = [
        {label for label, _, _ in bo.form_plan(config.family, t, p["i"], config.ell, p["eta"], p["mu"])}
        for p in (bo.plan_statement(config, t, b) for b in bo.BRANCHES)
    ]
    return sorted(labels[1] - labels[0])


def lone_s1_report(text):
    """The report of an s1 certificate whose own stream, rebuilt from its
    recorded forms, is ranked on its own."""
    c = cert.parse(text)
    config = bo.config_for(c.family)
    plan = bo.plan_statement(config, c.t, "s1")
    coeffs = dict(c.forms)
    planned = bo.form_plan(c.family, c.t, plan["i"], config.ell, plan["eta"], plan["mu"])
    source = RecordedForms({key: np.asarray(coeffs[label]) for label, key, _ in planned})
    spec = bo.prepare_build(config, c.t, plan["i"], plan["eta"], plan["mu"], source)
    rank = rank_from_column_blocks(bo.column_blocks(spec, F), spec.rows, F.modulus)
    provenance = cert.check_provenance(c, spec, FormSampler(c.seed, F))
    confirmed = rank == c.found and c.verdict == "TRUE"
    return cert.ReverifyReport(rank, c.found, rank == c.found, provenance, confirmed, confirmed and provenance != "mismatch")


@pytest.mark.parametrize("config", [QUAT, CUB], ids=["quaternary", "cubics"])
@pytest.mark.parametrize("t", [2, 16, 28, 30])
def test_paired_reports_equal_lone_ones(monkeypatch, config, t):
    """An s1 certificate followed by its s2 certificate is reverified in one
    rank call, and both reports equal those of each stream ranked on its
    own, field for field."""
    s1, s2 = pair_texts(config, t)
    calls = []
    counting_ranks(monkeypatch, calls)
    paired = [cert.reverify(cert.parse(text)) for text in (s1, s2)]
    assert len(calls) == 1
    bo.take_handoff()
    assert paired == [lone_s1_report(s1), cert.reverify(cert.parse(s2))]
    assert len(calls) == 2  # the lone s2 reverify ranked its own stream
    assert all(r.ok and r.provenance == "confirmed" for r in paired)


@pytest.mark.parametrize("config, t", [(QUAT, 5), (CUB, 28)], ids=["quaternary", "cubics"])
def test_s2_with_an_edited_extra_point_form_is_ranked_alone(monkeypatch, config, t):
    s1, s2 = pair_texts(config, t)
    [label, *_] = extra_point_labels(config, t)
    calls = []
    counting_ranks(monkeypatch, calls)
    first = cert.reverify(cert.parse(s1))
    second = cert.reverify(cert.parse(edit_form(s2, label)))
    assert len(calls) == 2
    assert first.ok and first.provenance == "confirmed"
    assert second.provenance == "mismatch" and not second.ok


@pytest.mark.parametrize("edit", ["tampered", "no trailer", "foreign"])
def test_an_unconfirmed_s1_certificate_hands_nothing_on(monkeypatch, edit):
    s1, s2 = pair_texts(QUAT, 16)
    if edit == "tampered":
        s1 = edit_form(s1, "l_{0,0}")
    elif edit == "no trailer":
        s1 = s1[: s1.index("\n\n") + 1]
    else:
        s1 = s1.replace(f"substream={SUBSTREAM_ALGORITHM}", "substream=foreign-v0")
    calls = []
    counting_ranks(monkeypatch, calls)
    report = cert.reverify(cert.parse(s1))
    assert report.provenance == ("mismatch" if edit == "tampered" else "unknown")
    assert calls == [bo.plan_statement(QUAT, 16, "s1")["expected"]]  # the s1 stream alone
    assert bo.take_handoff() is None
    assert cert.reverify(cert.parse(s2)).ok and len(calls) == 2


def test_a_read_goes_only_to_a_call_of_the_kind_that_made_it(monkeypatch):
    """A rank read handed on by verify_statement is never taken by reverify,
    and one handed on by reverify never by verify_statement, even when the
    stream is the same and nothing empties the hand-off in between."""
    calls = []
    counting_ranks(monkeypatch, calls)
    s1 = cert.emit_text(bo.verify_statement(QUAT, 5, "s1", seed=3, field=F))
    s2 = cert.emit_text(bo.verify_statement(QUAT, 5, "s2", seed=3, field=F))
    assert len(calls) == 1
    bo.verify_statement(QUAT, 5, "s1", seed=3, field=F)
    held = bo.take_handoff()
    assert held[0][0] == "verify"
    with monkeypatch.context() as m:
        m.setattr(bo, "take_handoff", lambda: held)
        assert cert.reverify(cert.parse(s2)).ok
    assert len(calls) == 3
    cert.reverify(cert.parse(s1))
    held = bo.take_handoff()
    assert held[0][0] == "reverify" and len(calls) == 4
    with monkeypatch.context() as m:
        m.setattr(bo, "take_handoff", lambda: held)
        assert bo.verify_statement(QUAT, 5, "s2", seed=3, field=F).verdict == "TRUE"
    assert len(calls) == 5
    # in a plain sequence, each call empties what the other kind handed on
    bo.verify_statement(QUAT, 5, "s1", seed=3, field=F)
    cert.reverify(cert.parse(s2))
    cert.reverify(cert.parse(s1))
    bo.verify_statement(QUAT, 5, "s2", seed=3, field=F)
    assert len(calls) == 9


def test_rank_above_the_s2_bound_in_an_s1_reverify_pass_is_a_contradiction(monkeypatch):
    s1, s2 = pair_texts(QUAT, 16)
    calls = []
    counting_ranks(monkeypatch, calls, end=lambda rank: rank + 1)
    with pytest.raises(bo.RankContradiction, match="quaternary t=16 s2"):
        cert.reverify(cert.parse(s1))
    assert bo.take_handoff() is None
    assert cert.reverify(cert.parse(s2)).ok and len(calls) == 2


def test_paired_cubic_reverify_builds_the_row_mask_once(monkeypatch):
    """Five prepare_build calls of a cubic t=28 pair (recorded forms and
    provenance re-draw of each, and the s2 spec of the s1 pass) build its
    row mask once; masks of two t are not shared."""
    s1, s2 = pair_texts(CUB, 28)
    built = []
    real = bo.monomial_exponents
    monkeypatch.setattr(bo, "monomial_exponents", lambda *args: built.append(args) or real(*args))
    bo.row_keep.cache_clear()
    assert all(cert.reverify(cert.parse(text)).ok for text in (s1, s2))
    assert built == [(28, 3)]
    at_28 = bo.row_keep(28, 1, CUB.ell)
    at_29 = bo.row_keep(29, 1, CUB.ell)
    assert at_28.size == CUB.N(28) - bo.eliminated_row_count(CUB, 28, 1)
    assert at_29.size == CUB.N(29) - bo.eliminated_row_count(CUB, 29, 1)
    assert not at_28.flags.writeable and not at_29.flags.writeable
    again = bo.row_keep(28, 1, CUB.ell)
    assert again is not at_28 and np.array_equal(again, at_28)  # only the last (t, i) is kept
    assert built == [(28, 3), (29, 3), (28, 3)]


def test_benchmark_call_pattern_ranks_each_t_once_per_phase(monkeypatch):
    """The smoke workload of perfbench/run.py, called as it calls it: verify
    and emit every statement (s1 before s2 of each t), then parse and
    reverify the certificates in the same order.  Each (family, t) takes
    exactly one rank call in each phase, and every report is ok and
    confirmed."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclass looks itself up there
    spec.loader.exec_module(workloads)
    statements = workloads.WORKLOADS["smoke"].statements
    at = []
    calls = Counter()
    real = bo.rank_from_column_blocks
    monkeypatch.setattr(bo, "rank_from_column_blocks", lambda *a, **k: calls.update([at[-1]]) or real(*a, **k))
    texts = []
    for family, t, branch in statements:
        at.append(("verify", family, t))
        outcome = bo.verify_statement(bo.config_for(family), t, branch, workloads.DEFAULT_SEED)
        texts.append(cert.emit_text(outcome))
    reports = []
    for (family, t, _), text in zip(statements, texts):
        at.append(("reverify", family, t))
        reports.append(cert.reverify(cert.parse(text)))
    pairs = {(family, t) for family, t, _ in statements}
    assert len(statements) == 2 * len(pairs) == 22
    assert calls == Counter({(phase, family, t): 1 for phase in ("verify", "reverify") for family, t in pairs})
    assert all(r.ok and r.provenance == "confirmed" for r in reports)
