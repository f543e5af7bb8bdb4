"""Verify one base-case statement and round-trip its certificate.

The degree-5 subabundant statement needs 3 points; their 15 linear
factors are recorded in the certificate, and reverification rebuilds the
56 x 60 matrix from those coefficients alone and recomputes the rank.
"""

from chowdefect import PrimeField, config_for, verify_statement
from chowdefect.certificate import emit_text, parse, reverify

field = PrimeField(8191)
config = config_for("quaternary")

outcome = verify_statement(config, 5, "s1", seed=1452337571, field=field)
text = emit_text(outcome)
print(text)

report = reverify(parse(text))
print(f"reverified: rank {report.recomputed_rank}, provenance {report.provenance}, ok={report.ok}")
