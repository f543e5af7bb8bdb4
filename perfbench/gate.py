"""Correctness gate: what every statement and oracle case must satisfy.

A statement passes when its verdict is TRUE, found equals expected, its
shape and expected rank equal `plan_statement`'s, its certificate
reverifies (`ok`, provenance `confirmed`, same rank) and, at the default
seed only, the SHA-256 of its certificate text minus the two timing
lines equals the reference digest.  An oracle case passes when its rank
equals expdim_secant + 1.

Regenerate the reference digests (only when certificate bytes change on
purpose) from the repository root with

    python3 perfbench/gate.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS, statement_key

REFERENCE = Path(__file__).resolve().parent / "reference_digests.json"
_TIMING_PREFIXES = ("Constructed T in", "Computed the rank")
NOT_RUN = "not run"  # the report of a statement whose pass skipped reverification


def body_digest(text: str) -> str:
    """SHA-256 of the certificate with its timing lines dropped."""
    body = "\n".join(ln for ln in text.splitlines() if not ln.startswith(_TIMING_PREFIXES))
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


def load_reference(path: Path) -> dict[str, str]:
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if data["seed"] != DEFAULT_SEED:
        raise ValueError(f"reference digests are for seed {data['seed']}, not {DEFAULT_SEED}")
    return data["digests"]


def statement_problems(key, plan, outcome, text, report, reference) -> list[str]:
    """Every check a verified, emitted and reverified statement fails."""
    problems = []
    if outcome.verdict != "TRUE" or outcome.found != outcome.expected:
        problems.append(f"verdict {outcome.verdict}, found {outcome.found} vs {outcome.expected}")
    if (outcome.rows, outcome.cols, outcome.expected) != (plan["rows"], plan["cols"], plan["expected"]):
        problems.append("shape or expected rank differs from plan_statement")
    if reference is not None and reference.get(key) != body_digest(text):
        problems.append("certificate digest differs from the reference")
    if report is None:
        problems.append("reverify raised")
    elif report is NOT_RUN:
        pass
    elif not (report.ok and report.provenance == "confirmed" and report.recomputed_rank == outcome.found):
        problems.append(f"reverify ok={report.ok} provenance={report.provenance} "
                        f"rank={report.recomputed_rank}")
    return problems


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    from chowdefect import bolattice, certificate

    digests = {}
    for workload in WORKLOADS.values():
        for family, t, branch in workload.statements:
            key = statement_key(family, t, branch)
            if key not in digests:
                outcome = bolattice.verify_statement(bolattice.config_for(family), t, branch, DEFAULT_SEED)
                digests[key] = body_digest(certificate.emit_text(outcome))
                print(key, outcome.verdict, digests[key], flush=True)
    REFERENCE.write_text(json.dumps({"seed": DEFAULT_SEED, "digests": digests}, indent=1) + "\n",
                         encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
