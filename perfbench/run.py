"""chowdefect benchmark: fixed-seed verification workloads, timed end to end
and, in a separate traced run, split by module.

Run from the repository root (the package is imported from ./src):

    python3 perfbench/run.py --workload desk-roundtrip --seed 20260809 --seconds 10 --trace 0

The load is a closed loop in one process: statements run one after
another.  A pass verifies every statement of the workload and emits its
certificate (`verify_s`), parses and reverifies those certificates
(`reverify_s`), then runs the Terracini oracle cases (`oracle_s`).  With
`--trace 0` passes repeat until `--seconds` have gone by (at least one)
and each time is the median over passes.  With `--trace 1` the run makes
one traced pass, then one untraced verify section for the tracing
overhead, and reports the per-layer metrics
(see tracer.py; the mapping from spans to metrics is `SELF_TIME` below).

Every pass goes through the gate in gate.py.  Any miss counts into
`failed` (printed as fail_frac) and makes the command exit 1.  The last
line of stdout is one JSON object with keys correct, attempted, failed
and metrics; the line before it records the environment.
"""

from __future__ import annotations

import time

SCRIPT_START = time.perf_counter()

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from types import SimpleNamespace

import gate
from tracer import END, INFO, NAME, PARENT, PHASE, START, Tracer
from workloads import DEFAULT_SEED, WORKLOADS, oracle_seed, statement_key

ROOT = Path(__file__).resolve().parent.parent

# One BLAS thread: on a 2-core machine two threads were only ~15% faster on
# the deep workloads, and their times spread more from run to run.
BLAS_THREADS = 1
SETUP_PROBES = 8  # fresh processes timed for setup_s, besides this one
ORACLE_REPEATS = 3  # the oracle section is short (~1.5 s): its median over repeats is steadier
CLEAR_WIDTH = 256  # the rank engine's block width (gflinalg.DEFAULT_BLOCK)

END_TO_END_UNITS = {
    "verify_s": "s",
    "reverify_s": "s",
    "oracle_s": "s",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}

PER_LAYER_UNITS = {
    "sampling.s": "s",
    "sampling.forms": "count",
    "gfpoly.mul_linear_calls": "count",
    "gfpoly.mul_linear_s": "s",
    "bolattice.colgen_s": "s",
    "bolattice.columns": "count",
    "bolattice.blocks": "count",
    "bolattice.verify_self_s": "s",
    "bolattice.retries": "count",
    "gflinalg.rank_s": "s",
    "gflinalg.columns_consumed": "count",
    "gflinalg.useful_ratio": "ratio",
    "gflinalg.clear_gflop": "GFLOP",
    "gflinalg.gemm_ref_ratio": "ratio",
    "gflinalg.rss_over_plan": "ratio",
    "certificate.emit_s": "s",
    "certificate.bytes": "bytes",
    "certificate.parse_s": "s",
    "certificate.provenance_s": "s",
    "certificate.reverify_s": "s",
    "chow.tangent_s": "s",
    "chow.rank_s": "s",
    "calib.gemm_gflops": "GFLOP/s",
    "trace.overhead_frac": "fraction",
}

STATEMENT_PHASES = ("verify", "reverify")
RANK = "gflinalg.rank_from_column_blocks"

# (span name, phase) -> the per-layer metric charged with that span's self
# time.  Under reverify, prepare_build replays the recorded forms instead of
# sampling, so it is charged to certificate.reverify_s.
SELF_TIME = {
    ("bolattice.verify_statement", "verify"): "bolattice.verify_self_s",
    ("bolattice.prepare_build", "verify"): "sampling.s",
    ("bolattice.prepare_build", "reverify"): "certificate.reverify_s",
    ("certificate.emit_text", "verify"): "certificate.emit_s",
    ("certificate.parse", "reverify"): "certificate.parse_s",
    ("certificate.reverify", "reverify"): "certificate.reverify_s",
    ("certificate.check_provenance", "reverify"): "certificate.provenance_s",
    ("chow.tangent_columns", "oracle"): "chow.tangent_s",
    (RANK, "oracle"): "chow.rank_s",
    **{("bolattice.column_blocks", ph): "bolattice.colgen_s" for ph in STATEMENT_PHASES},
    **{(RANK, ph): "gflinalg.rank_s" for ph in STATEMENT_PHASES},
    **{("gfpoly.mul_linear", ph): "gfpoly.mul_linear_s" for ph in (*STATEMENT_PHASES, "oracle")},
}
ACCOUNTING_TOLERANCE = 0.03


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", type=Path, default=gate.REFERENCE,
                        help="reference certificate digests, checked at the default seed")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the setup time and exit (used for setup_s samples)")
    return parser.parse_args(argv)


def blas_threads() -> int:
    return min(BLAS_THREADS, len(os.sched_getaffinity(0)))


def setup(workload):
    """Imports, configs, plan_statement for every statement and a BLAS warm-up."""
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    import chowdefect
    from chowdefect import bolattice, certificate, chow, gflinalg, gfpoly

    package = Path(chowdefect.__file__).resolve().parent
    if package != ROOT / "src" / "chowdefect":
        raise SystemExit(f"chowdefect was imported from {package}, not from {ROOT / 'src'}")
    configs = {family: bolattice.config_for(family) for family, _, _ in workload.statements}
    plans = [bolattice.plan_statement(configs[f], t, b) for f, t, b in workload.statements]
    rows = max(p["rows"] for p in plans)
    rank = max(p["expected"] for p in plans)
    np.ones((rows, CLEAR_WIDTH)) @ np.ones((CLEAR_WIDTH, CLEAR_WIDTH))
    return SimpleNamespace(np=np, bolattice=bolattice, certificate=certificate, chow=chow,
                           gflinalg=gflinalg, gfpoly=gfpoly, configs=configs, plans=plans,
                           clear_shape=(rows, rank))


def probe_setup_s(args) -> float:
    """Setup time of a fresh process, as it measures itself."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def gemm_gflops(lib, reps: int = 5) -> float:
    """float64 GEMM rate at the engine's clearing shape: (rows x rank) @ (rank x 256)."""
    np = lib.np
    rows, rank = lib.clear_shape
    rng = np.random.default_rng(0)
    basis = rng.integers(0, 8191, (rows, rank)).astype(np.float64)
    block = rng.integers(0, 8191, (rank, CLEAR_WIDTH)).astype(np.float64)
    basis @ block
    times = []
    for _ in range(reps):
        tic = time.perf_counter()
        basis @ block
        times.append(time.perf_counter() - tic)
    return 2 * rows * rank * CLEAR_WIDTH / statistics.median(times) / 1e9


def _mark(tracer, stmt, phase):
    if tracer is not None:
        tracer.stmt, tracer.phase = stmt, phase


def run_pass(lib, workload, seed, tracer=None, oracle_repeats=ORACLE_REPEATS, verify_only=False):
    """One closed-loop pass; returns ({section: seconds}, outputs for the gate)."""
    bolattice, certificate, chow = lib.bolattice, lib.certificate, lib.chow
    keys = [statement_key(*s) for s in workload.statements]

    verified = []
    tic = time.perf_counter()
    for key, (family, t, branch) in zip(keys, workload.statements):
        _mark(tracer, key, "verify")
        try:
            outcome = bolattice.verify_statement(lib.configs[family], t, branch, seed)
            verified.append((outcome, certificate.emit_text(outcome)))
        except Exception:
            traceback.print_exc()
            verified.append((None, None))
    verify_s = time.perf_counter() - tic
    if verify_only:
        return {"verify_s": verify_s}, (keys, verified, None, [])

    reports = []
    tic = time.perf_counter()
    for key, (_, text) in zip(keys, verified):
        _mark(tracer, key, "reverify")
        try:
            reports.append(certificate.reverify(certificate.parse(text)) if text is not None else None)
        except Exception:
            traceback.print_exc()
            reports.append(None)
    reverify_s = time.perf_counter() - tic

    ranks = []
    oracle_times = []
    field = lib.gfpoly.PrimeField()
    for _ in range(oracle_repeats):
        tic = time.perf_counter()
        for d, n, s in workload.oracle_cases:
            _mark(tracer, f"oracle:{d}:{n}:{s}", "oracle")
            try:
                rank = chow.terracini_rank(chow.SecantProblem(d, n, s), oracle_seed(seed), field)
            except Exception:
                traceback.print_exc()
                rank = None
            ranks.append(((d, n, s), rank))
        oracle_times.append(time.perf_counter() - tic)
    _mark(tracer, None, None)

    times = {"verify_s": verify_s, "reverify_s": reverify_s, "oracle_s": statistics.median(oracle_times)}
    return times, (keys, verified, reports, ranks)


def gate_pass(lib, outputs, reference) -> tuple[int, int]:
    """(attempted, failed): statements and oracle cases of one pass, and those missing any check."""
    keys, verified, reports, ranks = outputs
    if reports is None:
        reports = [gate.NOT_RUN] * len(keys)
    failed = 0
    for key, plan, (outcome, text), report in zip(keys, lib.plans, verified, reports):
        problems = (["verify or emit raised"] if outcome is None
                    else gate.statement_problems(key, plan, outcome, text, report, reference))
        for problem in problems:
            print(f"FAIL {key}: {problem}", file=sys.stderr)
        failed += bool(problems)
    for (d, n, s), rank in ranks:
        want = lib.chow.expdim_secant(lib.chow.SecantProblem(d, n, s)) + 1
        if rank != want:
            print(f"FAIL oracle (d,n,s)=({d},{n},{s}): rank {rank}, want {want}", file=sys.stderr)
            failed += 1
    return len(keys) + len(ranks), failed


def install_tracer(tracer: Tracer, lib) -> None:
    """Wrap, by name, every call into the modules that the per-layer metrics split."""
    bolattice, certificate, chow, gflinalg = lib.bolattice, lib.certificate, lib.chow, lib.gflinalg
    patch = tracer.patch
    patch(bolattice, "verify_statement",
          tracer.calls("bolattice.verify_statement", lambda out: {"retries": out.retries}))
    patch(bolattice, "prepare_build",
          tracer.calls("bolattice.prepare_build", lambda spec: {"forms": len(spec.forms)}))
    patch(bolattice, "column_blocks", tracer.pulls("bolattice.column_blocks"))
    for module in (bolattice, chow):
        patch(module, "mul_linear", tracer.calls("gfpoly.mul_linear"))
    for module in (bolattice, gflinalg, certificate):
        patch(module, "rank_from_column_blocks", tracer.rank_calls(RANK))
    patch(certificate, "emit_text",
          tracer.calls("certificate.emit_text", lambda text: {"bytes": len(text.encode("utf-8"))}))
    patch(certificate, "parse", tracer.calls("certificate.parse"))
    patch(certificate, "reverify", tracer.calls("certificate.reverify"))
    patch(certificate, "check_provenance", tracer.calls("certificate.check_provenance"))
    patch(chow, "terracini_rank", tracer.calls("chow.terracini_rank"))
    patch(chow, "tangent_columns", tracer.calls("chow.tangent_columns"))


def span_accounting(tracer: Tracer) -> list[str]:
    """Problems with the spans: a child outside its parent, or statement
    spans whose self times, as charged to metrics, do not add up to the
    statement roots."""
    problems = []
    roots = charged = 0.0
    for span in tracer.spans:
        if span[END] is None:
            problems.append(f"span {span[NAME]} never closed")
            continue
        if Tracer.self_s(span) < -1e-6:
            problems.append(f"span {span[NAME]} has children longer than itself")
        if span[PHASE] in STATEMENT_PHASES:
            if span[PARENT] < 0:
                roots += span[END] - span[START]
            if (span[NAME], span[PHASE]) in SELF_TIME:
                charged += Tracer.self_s(span)
    if roots and abs(charged / roots - 1) > ACCOUNTING_TOLERANCE:
        problems.append(f"layer self times cover {charged / roots:.3f} of the statement spans")
    return problems


def layer_metrics(tracer, lib, calib_gflops, peak_rss_mib, untraced_verify_s, traced_verify_s):
    values = {name: 0 if unit in ("count", "bytes") else 0.0 for name, unit in PER_LAYER_UNITS.items()}
    flop = found = 0
    for span in tracer.spans:
        name, phase, info = span[NAME], span[PHASE], span[INFO] or {}
        metric = SELF_TIME.get((name, phase))
        if metric is not None:
            values[metric] += Tracer.self_s(span)
        if name == "gfpoly.mul_linear":
            values["gfpoly.mul_linear_calls"] += 1
        elif name == "bolattice.column_blocks" and info:
            values["bolattice.columns"] += info["columns"]
            values["bolattice.blocks"] += 1
        elif name == "bolattice.prepare_build" and phase == "verify":
            values["sampling.forms"] += info.get("forms", 0)
        elif name == "bolattice.verify_statement":
            values["bolattice.retries"] += info.get("retries", 0)
        elif name == "certificate.emit_text":
            values["certificate.bytes"] += info.get("bytes", 0)
        elif name == RANK and phase in STATEMENT_PHASES:
            values["gflinalg.columns_consumed"] += info.get("done", 0)
            found += info.get("rank", 0)
            flop += info.get("flop", 0)
    consumed = values["gflinalg.columns_consumed"]
    values["gflinalg.useful_ratio"] = found / consumed if consumed else 0.0
    values["gflinalg.clear_gflop"] = flop / 1e9
    values["gflinalg.gemm_ref_ratio"] = (
        values["gflinalg.rank_s"] / (flop / 1e9 / calib_gflops) if flop else 0.0
    )
    values["gflinalg.rss_over_plan"] = peak_rss_mib * 2**20 / max(p["basis_bytes"] for p in lib.plans)
    values["calib.gemm_gflops"] = calib_gflops
    values["trace.overhead_frac"] = traced_verify_s / untraced_verify_s - 1
    return values


def git_commit() -> str:
    try:
        done = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment(lib, workload, args, absent) -> dict:
    blas = lib.np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload.name,
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": lib.np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": args.seed,
        "oracle_seed": oracle_seed(args.seed),
        "seconds": args.seconds,
        "trace": args.trace,
        "absent": sorted(set(absent)),
        "statements": [
            {k: p[k] for k in ("family", "t", "branch", "rows", "cols", "expected", "basis_bytes")}
            for p in lib.plans
        ],
        "oracle_cases": [list(c) for c in workload.oracle_cases],
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ["OPENBLAS_NUM_THREADS"] = str(blas_threads())
    workload = WORKLOADS[args.workload]
    lib = setup(workload)
    own_setup_s = time.perf_counter() - SCRIPT_START
    if args.setup_only:
        print(json.dumps({"setup_s": own_setup_s}))
        return 0

    reference = gate.load_reference(args.reference) if args.seed == DEFAULT_SEED else None
    attempted = failed = 0
    problems: list[str] = []
    absent: list[str] = []

    def gate_and_count(outputs):
        nonlocal attempted, failed
        a, f = gate_pass(lib, outputs, reference)
        attempted += a
        failed += f

    if args.trace:
        calib = gemm_gflops(lib)
        # Traced first, so that it runs with cold caches like a --trace 0 run;
        # an untraced verify section after it gives the overhead ratio.
        tracer = Tracer()
        install_tracer(tracer, lib)
        try:
            traced, outputs = run_pass(lib, workload, args.seed, tracer, oracle_repeats=1)
        finally:
            tracer.restore()
        gate_and_count(outputs)
        untraced, outputs = run_pass(lib, workload, args.seed, verify_only=True)
        gate_and_count(outputs)
        absent = tracer.absent
        problems = span_accounting(tracer)
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        values = layer_metrics(tracer, lib, calib, peak_rss_mib,
                               untraced["verify_s"], traced["verify_s"])
        units = PER_LAYER_UNITS
    else:
        passes = []
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < args.seconds:
            times, outputs = run_pass(lib, workload, args.seed)
            passes.append(times)
            gate_and_count(outputs)
        values = {name: statistics.median(p[name] for p in passes) for name in passes[0]}
        values["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        values["setup_s"] = statistics.median(
            [own_setup_s] + [probe_setup_s(args) for _ in range(SETUP_PROBES)]
        )
        units = END_TO_END_UNITS
        print(f"passes {len(passes)}")

    for problem in problems:
        print(f"TRACE {problem}", file=sys.stderr)
    for name, unit in units.items():
        print(f"{name:<28} {values[name]:.6g} {unit}")
    print(f"{'fail_frac':<28} {failed / attempted:.6g} fraction ({failed} of {attempted} attempted)")
    print(json.dumps({"environment": environment(lib, workload, args, absent)}))
    correct = failed == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
