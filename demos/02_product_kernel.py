"""Multiplying many linear forms over Z_8191.

A point of the Chow variety is a product of linear forms; its coefficient
vector in the lex monomial basis is what the verification matrices are
made of.  The kernel multiplies one linear form at a time, gathering
coefficients through a cached division map, and is checked against a
brute-force tensor expansion where that is feasible.  Tangent spaces
need every product that omits one factor; a product tree builds that
family from the same kernel.
"""

import time

import numpy as np

from chowdefect import LinearForm, PrimeField, naive_product_oracle, product_of_linear_forms
from chowdefect.gfpoly import products_omitting_each
from chowdefect.sampling import FormSampler

field = PrimeField(8191)
sampler = FormSampler(2024, field)

forms = [LinearForm(3, sampler.linear_form("o", 3, i=0, gamma=g), field) for g in range(6)]
fast = product_of_linear_forms(forms)
slow = naive_product_oracle(forms)
print("6-form product matches the tensor-expansion oracle:",
      bool(np.array_equal(fast.coeffs, slow.coeffs)))

omitted = list(products_omitting_each(forms))
agree = all(
    np.array_equal(partial.coeffs, naive_product_oracle(forms[:b] + forms[b + 1:]).coeffs)
    for b, partial in enumerate(omitted)
)
print(f"the {len(omitted)} products omitting one of the 6 forms match the oracle:", agree)

forms = [LinearForm(3, sampler.linear_form("o", 3, i=1, gamma=g), field) for g in range(82)]
start = time.perf_counter()
product = product_of_linear_forms(forms)
print(f"82-form product: {len(product.coeffs)} coefficients "
      f"(C(85,3) = 98770) in {time.perf_counter() - start:.2f}s")
