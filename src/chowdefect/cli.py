"""Command-line surface: verify, schedule, oracle, reverify, selfcheck.

Exit codes are stable across subcommands: 0 all verified / confirmed,
2 at least one unverified statement or certificate mismatch, 1 usage or
resource errors.  Summaries go to stdout as tab-separated lines with a
fixed header; progress and diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
import time
from pathlib import Path

from . import bolattice, certificate
from .chow import DomainError, SecantProblem, chow_quadric_dim, expdim_secant, terracini_rank
from .finite_calculus import NonIntegralValue, newton_reconstruct
from .gfpoly import BudgetExceeded, PrimeField

SUMMARY_HEADER = "family\tt\ti\tbranch\trows\tcols\trank\texpected\tabundance\tverdict\tconstruct_s\trank_s\tseed"
SCHEDULE_HEADER = "family\tt\ti\tbranch\tpoints\teta\tmu\trows\tcols\texpected\tabundance\tbasis_mb"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _parse_t_range(text: str) -> tuple[int, int]:
    m = re.fullmatch(r"(\d+)(?:\.\.(\d+))?", text)
    if not m:
        raise UsageError(f"bad --t value {text!r}, want A or A..B")
    a = int(m.group(1))
    b = int(m.group(2)) if m.group(2) else a
    if b < a:
        raise UsageError(f"bad --t range {text!r}: need A <= B")
    return a, b


def _field(prime: int) -> PrimeField:
    try:
        return PrimeField(prime)
    except ValueError as exc:
        raise UsageError(str(exc))


def _master_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    seed = time.time_ns() & ((1 << 64) - 1)
    print(f"using time-derived master seed {seed}", file=sys.stderr)
    return seed


def _mem_cap_bytes(args) -> int:
    try:
        gb = float(args.mem_cap_gb)
    except ValueError:
        gb = math.nan
    if not (math.isfinite(gb) and gb > 0):
        raise UsageError(f"bad --mem-cap-gb value {args.mem_cap_gb!r}: want a finite number of GiB above 0")
    return int(gb * 2**30)


def _progress_printer(tag: str):
    def hook(done, total, rank):
        if done % (bolattice.DEFAULT_BLOCK * 32) < bolattice.DEFAULT_BLOCK:
            print(f"  [{tag}] {done}/{total} columns, rank {rank}", file=sys.stderr)

    return hook


def cmd_verify(args) -> int:
    config = bolattice.config_for(args.family)
    t_lo, t_hi = _parse_t_range(args.t)
    if args.retries < 0:
        raise UsageError(f"--retries must be >= 0, got {args.retries}")
    field = _field(args.prime)
    branches = ("s1", "s2") if args.branch == "both" else (args.branch,)
    cap = _mem_cap_bytes(args)
    try:
        plans = [bolattice.plan_statement(config, t, b) for t in range(t_lo, t_hi + 1) for b in branches]
    except ValueError as exc:
        raise UsageError(str(exc))
    seed = _master_seed(args)

    # the rank's price (basis and block working set) dominates memory; one statement runs at a time
    largest = max(plans, key=lambda p: p["basis_bytes"])
    if largest["basis_bytes"] > cap:
        print(
            f"t={largest['t']} {largest['branch']} needs ~{largest['basis_bytes'] / 2**30:.3g} GiB "
            f"for the rank against a {cap / 2**30:.3g} GiB cap; raise --mem-cap-gb",
            file=sys.stderr,
        )
        return 1

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    outcomes = []
    for p in plans:
        t, b = p["t"], p["branch"]
        outcome = bolattice.verify_statement(
            config, t, b, seed, field=field, retries=args.retries,
            progress=_progress_printer(f"t={t} {b}") if p["cols"] > 20000 else None,
        )
        # on disk as soon as the statement completes, so a crash later in the sweep keeps it
        text = certificate.emit_text(outcome)
        _write_atomically(outdir / f"{outcome.family}_t{outcome.t:03d}_{outcome.branch}.cert", text)
        outcomes.append(outcome)
    if len(outcomes) == 1:
        sys.stdout.write(text)

    all_true = True
    print(SUMMARY_HEADER)
    for outcome in outcomes:
        print(
            f"{outcome.family}\t{outcome.t}\t{outcome.i}\t{outcome.branch}\t{outcome.rows}\t"
            f"{outcome.cols}\t{outcome.found}\t{outcome.expected}\t{outcome.abundance}\t"
            f"{outcome.verdict}\t{outcome.construct_seconds:.3f}\t{outcome.rank_seconds:.3f}\t"
            f"{outcome.seed}"
        )
        all_true &= outcome.verdict == "TRUE"
    return 0 if all_true else 2


def _write_atomically(path: Path, text: str) -> None:
    """Write through a temp file renamed into place: the file is either whole or absent."""
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8", newline="\n")
    os.replace(tmp, path)


def cmd_schedule(args) -> int:
    config = bolattice.config_for(args.family)
    print(SCHEDULE_HEADER)
    for p in bolattice.base_case_schedule(config, cap=args.cap):
        print(
            f"{p['family']}\t{p['t']}\t{p['i']}\t{p['branch']}\t{p['points']}\t{p['eta']}\t{p['mu']}\t"
            f"{p['rows']}\t{p['cols']}\t{p['expected']}\t{p['abundance']}\t"
            f"{p['basis_bytes'] / 2**20:.1f}"
        )
    return 0


def cmd_oracle(args) -> int:
    field = _field(args.prime)
    problem = SecantProblem(d=args.d, n=args.n, s=args.s)
    seed = _master_seed(args)
    try:
        rank = terracini_rank(problem, seed, field)
    except BudgetExceeded as exc:
        print(str(exc), file=sys.stderr)
        return 1
    affine_expected = expdim_secant(problem) + 1
    print(f"terracini rank: {rank}")
    print(f"expected (expdim + 1): {affine_expected}")
    if rank == affine_expected:
        print("classification: NONDEFECTIVE-EVIDENCE")
    else:
        known = None
        if args.d == 2 and args.n >= 4 and 2 <= args.s <= args.n // 2:
            known = chow_quadric_dim(args.n, args.s)
        if known is not None and rank == known + 1:
            print(f"classification: MATCHES-KNOWN-DEFECTIVE (known dimension {known})")
        else:
            print("classification: INCONCLUSIVE")
    return 0


def cmd_reverify(args) -> int:
    """Reverify each path in the order given, one report block headed by its
    path each; an s1 certificate followed by its s2 certificate is ranked
    in one pass (certificate.reverify).  The exit code is the first failing
    path's, or 0 when every path passes."""
    status = 0
    for path in args.paths:
        print(f"== {path}", flush=True)
        code = _reverify_path(Path(path))
        status = status or code
    return status


def _reverify_path(path: Path) -> int:
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        print(f"cannot read certificate: {exc}", file=sys.stderr)
        return 1
    try:
        cert = certificate.parse(text)
    except certificate.ParseError as exc:
        print(f"parse failure: {exc}", file=sys.stderr)
        return 1
    try:
        report = certificate.reverify(cert)
    except ValueError as exc:
        # DimensionMismatch and the refusals of reverify: the certificate breaks
        # its contract.  Any other exception is an error of this program.
        print(f"rebuild mismatch: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"reverify failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    print(f"recomputed rank: {report.recomputed_rank} (recorded {report.recorded_found})")
    print(f"provenance: {report.provenance}")
    print(f"verdict confirmed: {report.verdict_confirmed}")
    return 0 if report.ok else 2


def _newton_power_violations(config, t_samples) -> list[str]:
    bad = []
    ell = config.ell
    for name, q in (("s1", config.s1), ("s2", config.s2), ("N", config.N)):
        for order in range(5):
            for t in t_samples:
                try:
                    want = q(t)
                    got = newton_reconstruct(q, order, t, ell)
                except NonIntegralValue as exc:
                    bad.append(f"{name} not integral: {exc}")
                    continue
                if got != want:
                    bad.append(f"newton identity fails for {name} at order {order}, t={t}")
    return bad


def cmd_selfcheck(args) -> int:
    t_max = 200
    violations: list[str] = []
    for family in (bolattice.QUATERNARY, bolattice.CUBICS):
        config = bolattice.config_for(family)
        violations += _newton_power_violations(config, range(90, 90 + 8))
        violations += bolattice.proof_function_checks(config, t_max=t_max)
        violations += bolattice.induction_arithmetic_check(config, range(28, t_max + 1))
        violations += bolattice.every_t_checks(config, t_max=t_max)
    if violations:
        for v in violations[:10]:
            print(f"VIOLATION: {v}")
        print(f"selfcheck: FAILED ({len(violations)} violations)")
        return 2
    print(f"selfcheck: OK: arithmetic identities hold for every t (checked through t={t_max})")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="chowdefect", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="verify base-case statements and emit certificates")
    p.add_argument("--family", required=True, choices=(bolattice.QUATERNARY, bolattice.CUBICS))
    p.add_argument("--t", required=True, help="parameter value A or range A..B")
    p.add_argument("--branch", default="both", choices=("s1", "s2", "both"))
    p.add_argument("--prime", type=int, default=8191)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--retries", type=int, default=2)
    p.add_argument("--mem-cap-gb", default="8", help="GiB the rank of the largest statement may take")
    p.add_argument("--out", default="certificates", help="certificate output directory")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("schedule", help="print every base case the induction needs")
    p.add_argument("--family", required=True, choices=(bolattice.QUATERNARY, bolattice.CUBICS))
    p.add_argument("--cap", type=int, default=None, help="truncate the schedule at this t")
    p.set_defaults(func=cmd_schedule)

    p = sub.add_parser("oracle", help="independent Terracini rank for small (d, n, s)")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--prime", type=int, default=8191)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("reverify", help="recheck certificates from their recorded forms")
    p.add_argument("paths", nargs="+", metavar="PATH", help="certificates, reverified in this order")
    p.set_defaults(func=cmd_reverify)

    p = sub.add_parser("selfcheck", help="run the arithmetic identity suite")
    p.set_defaults(func=cmd_selfcheck)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # stdout went away (e.g. piped into head); not our error.  Before OSError, its base class.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (DomainError, NonIntegralValue, BudgetExceeded, bolattice.RankContradiction, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
