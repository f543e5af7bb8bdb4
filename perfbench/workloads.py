"""The benchmark's workloads: which statements and oracle cases each runs, and why.

A statement is (family, t, branch) and runs through the calls that
`chowdefect verify` makes for it: `bolattice.verify_statement` with
library defaults, then `certificate.emit_text`.  Every workload then
parses and reverifies its own certificates and runs the Terracini oracle
cases, so that every end-to-end metric exists on every workload.
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_SEED = 20260809  # the acceptance-sweep seed
DEFAULT_ORACLE_SEED = 97  # the oracle seed of the acceptance suite

QUATERNARY = "quaternary"
CUBICS = "cubics"
BRANCHES = ("s1", "s2")

# (d, n, s): two tall cases (more rows than columns) take rank_mod_p's
# transpose path; all five are nondefective, so rank = expdim_secant + 1.
ORACLE_CASES = ((3, 12, 20), (4, 8, 20), (3, 20, 30), (3, 20, 10), (4, 10, 8))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    statements: tuple[tuple[str, int, str], ...]
    oracle_cases: tuple[tuple[int, int, int], ...]


def _sweep(t_max: int) -> tuple[tuple[str, int, str], ...]:
    """Every base case with t <= t_max, both families and branches, in schedule order."""
    return tuple(
        (family, t, branch)
        for family, t_start in ((QUATERNARY, 2), (CUBICS, 1))
        for t in range(t_start, t_max + 1)
        for branch in BRANCHES
    )


# t=28 is the smallest t with a subspace (i = K(t) = 1): below it the
# quaternary R1/R3 blocks and the cubics row restriction do not exist.
# The deep workloads run one statement each, so that a run (verify plus
# streaming reverify of a ~4500-row matrix) stays near half a minute.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "quaternary-deep",
            "quaternary t=28 s2: column generation (21k products of linear forms) is a "
            "large share on top of a full-size elimination",
            ((QUATERNARY, 28, "s2"),),
            ORACLE_CASES,
        ),
        Workload(
            "cubics-deep",
            "cubics t=28 s1: elimination bound (products have degree 2), rank-deficient, "
            "and the row-restricted (row_keep) build runs",
            ((CUBICS, 28, "s1"),),
            ORACLE_CASES,
        ),
        Workload(
            "desk-roundtrip",
            "62 small statements with t <= 16: fixed cost per block and per "
            "statement dominates, tall matrices take the transpose path",
            _sweep(16),
            ORACLE_CASES,
        ),
        Workload(
            "smoke",
            "a few seconds of the desk workload (t <= 6) for the benchmark's own tests",
            _sweep(6),
            ORACLE_CASES[:1],
        ),
    )
}


def oracle_seed(seed: int) -> int:
    """The oracle's seed: the acceptance suite's 97 at the default seed, else the run seed."""
    return DEFAULT_ORACLE_SEED if seed == DEFAULT_SEED else seed


def statement_key(family: str, t: int, branch: str) -> str:
    return f"{family}:{t}:{branch}"
