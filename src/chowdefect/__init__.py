"""Finite-field rank certificates for secant varieties of Chow varieties.

The package verifies, over a small prime field, the base-case rank
statements behind the nondefectivity of secant varieties of Chow
varieties of cubics and of quaternary forms, and re-checks the
resulting certificates independently.
"""

from .finite_calculus import (
    NonIntegralValue,
    Quasipolynomial,
    backward_diff,
    binomial,
    make_proof_functions,
    newton_reconstruct,
)
from .gfpoly import (
    BudgetExceeded,
    DimensionMismatch,
    EmptyProduct,
    HomPoly,
    IndexOutOfRange,
    LinearForm,
    PrimeField,
    monomial_count,
    monomial_rank,
    mul_linear,
    naive_product_oracle,
    product_of_linear_forms,
)
from .gflinalg import rank_from_column_blocks
from .chow import (
    ChowPoint,
    DomainError,
    SecantProblem,
    chow_quadric_dim,
    expdim_secant,
    tangent_columns,
    terracini_rank,
)
from .bolattice import (
    LatticeConfig,
    NegativeCount,
    RankContradiction,
    VerificationOutcome,
    a_i,
    base_case_schedule,
    config_for,
    induction_arithmetic_check,
    plan_statement,
    verify_statement,
)
from .certificate import Certificate, ParseError, emit_text, parse, reverify

__version__ = "0.1.0"
