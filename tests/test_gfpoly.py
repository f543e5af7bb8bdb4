import itertools

import numpy as np
import pytest

from chowdefect.gfpoly import (
    RESIDUE_DTYPE,
    BudgetExceeded,
    DimensionMismatch,
    EmptyProduct,
    HomPoly,
    IndexOutOfRange,
    LinearForm,
    PrimeField,
    division_map,
    monomial_count,
    monomial_exponents,
    monomial_rank,
    mul_linear,
    naive_product_oracle,
    product_of_linear_forms,
)
from chowdefect.sampling import FormSampler

F = PrimeField(8191)


def random_form(sampler, n, i, g):
    return LinearForm(n, sampler.linear_form("o", n, i=i, gamma=g), F)


def test_prime_field_validation():
    PrimeField(2)
    PrimeField(32749)
    with pytest.raises(ValueError):
        PrimeField(8192)
    with pytest.raises(ValueError):
        PrimeField(1 << 16)
    assert F.inv(2) * 2 % 8191 == 1


def test_monomial_rank_examples():
    assert monomial_rank((0, 0, 0), 3) == 1
    assert monomial_rank((3, 3, 3), 3) == 20
    assert monomial_rank((0, 0, 1), 3) == 2
    with pytest.raises(IndexOutOfRange):
        monomial_rank((1, 0), 3)
    with pytest.raises(IndexOutOfRange):
        monomial_rank((0, 4), 3)


def test_rank_is_lex_increasing():
    exps = monomial_exponents(3, 4)
    tuples = []
    for row in exps:
        tup = []
        for v, e in enumerate(row):
            tup += [v] * int(e)
        tuples.append(tuple(tup))
    assert tuples == sorted(tuples)


def test_monomial_exponents_rows_in_tuple_order():
    """The rows are the monomials x_{v1}...x_{vd}, v1 <= ... <= vd, in tuple
    order, as a read-only int32 matrix."""
    exps = monomial_exponents(40, 3)
    want = np.zeros((monomial_count(40, 3), 41), dtype=np.int32)
    for r, tup in enumerate(itertools.combinations_with_replacement(range(41), 3)):
        for v in tup:
            want[r, v] += 1
    assert exps.dtype == np.int32 and not exps.flags.writeable
    assert np.array_equal(exps, want)
    assert np.array_equal(monomial_exponents(0, 5), [[5]])
    assert np.array_equal(monomial_exponents(4, 0), [[0] * 5])


def test_mul_linear_binomial_square():
    x0_plus_x1 = LinearForm(1, np.array([1, 1]), F)
    f = HomPoly.from_linear(x0_plus_x1)
    sq = mul_linear(f, x0_plus_x1)
    assert sq.coeffs.tolist() == [1, 2, 1]


def test_mul_linear_places_single_monomial():
    f = HomPoly.from_linear(LinearForm.variable(0, 3, F))
    g = mul_linear(f, LinearForm.variable(2, 3, F))
    expected = np.zeros(monomial_count(3, 2), dtype=np.int64)
    expected[monomial_rank((0, 2), 3) - 1] = 1
    assert np.array_equal(g.coeffs, expected)


def test_mul_linear_dimension_mismatch():
    f = HomPoly.from_linear(LinearForm.variable(0, 2, F))
    with pytest.raises(DimensionMismatch):
        mul_linear(f, LinearForm.variable(0, 3, F))


def test_product_power_of_variable():
    forms = [LinearForm.variable(0, 3, F)] * 3
    p = product_of_linear_forms(forms)
    assert p.coeffs[0] == 1 and not p.coeffs[1:].any()
    with pytest.raises(EmptyProduct):
        product_of_linear_forms([])


def test_product_order_invariance():
    sampler = FormSampler(11, F)
    forms = [random_form(sampler, 3, 0, g) for g in range(6)]
    base = product_of_linear_forms(forms).coeffs
    rng = np.random.default_rng(0)
    for _ in range(5):
        perm = list(rng.permutation(6))
        assert np.array_equal(product_of_linear_forms([forms[i] for i in perm]).coeffs, base)


def test_oracle_difference_of_squares():
    plus = LinearForm(1, np.array([1, 1]), F)
    minus = LinearForm(1, np.array([1, -1]), F)
    prod = naive_product_oracle([plus, minus])
    assert prod.coeffs.tolist() == [1, 0, 8190]


def test_oracle_single_variable():
    p = naive_product_oracle([LinearForm.variable(1, 2, F)])
    expected = np.zeros(3, dtype=np.int64)
    expected[1] = 1
    assert np.array_equal(p.coeffs, expected)


def test_kernel_matches_oracle_random():
    sampler = FormSampler(5150, F)
    rng = np.random.default_rng(1)
    for trial in range(40):
        n = int(rng.integers(1, 4))
        d = int(rng.integers(1, 7))
        forms = [random_form(sampler, n, trial, g) for g in range(d)]
        assert np.array_equal(
            product_of_linear_forms(forms).coeffs, naive_product_oracle(forms).coeffs
        )


def test_oracle_budget_guard():
    forms = [LinearForm.variable(0, 7, F)] * 9  # 8^9 > 10^7
    with pytest.raises(BudgetExceeded):
        naive_product_oracle(forms)


def test_coefficients_stay_reduced():
    sampler = FormSampler(21, F)
    forms = [random_form(sampler, 3, 9, g) for g in range(12)]
    p = product_of_linear_forms(forms)
    assert p.coeffs.min() >= 0 and p.coeffs.max() < 8191
    assert len(p.coeffs) == monomial_count(3, 12)


def test_degree_82_product_length():
    sampler = FormSampler(77, F)
    forms = [random_form(sampler, 3, 1, g) for g in range(82)]
    p = product_of_linear_forms(forms)
    assert len(p.coeffs) == 98770


def test_zero_form_rejected():
    with pytest.raises(ValueError):
        LinearForm(3, np.zeros(4, dtype=np.int64), F)
    with pytest.raises(DimensionMismatch):
        LinearForm(3, np.ones(3, dtype=np.int64), F)


def test_division_map_cache_holds_the_last_variable_count():
    """Maps are cached for the variable count last asked for: building
    n = 41's evicts n = 40's, and a rebuilt n = 40 map equals the old one."""
    division_map.cache_clear()
    old = [division_map(40, k) for k in range(3)]
    assert division_map(40, 1) is old[1]
    new = [division_map(41, k) for k in range(3)]
    assert all(division_map(41, k) is G for k, G in enumerate(new))
    rebuilt = division_map(40, 1)
    assert rebuilt is not old[1] and np.array_equal(rebuilt, old[1])
    assert division_map(41, 1) is not new[1]  # n = 40 is the last asked for again
    division_map.cache_clear()
    assert division_map(40, 1) is not rebuilt


def test_division_map_matches_monomial_rank():
    for n, k in ((0, 4), (1, 0), (1, 6), (2, 5), (3, 0), (3, 4), (3, 9), (5, 2), (6, 3), (12, 2), (30, 1)):
        G = division_map(n, k)
        zero_slot = monomial_count(n, k)
        assert G.shape == (n + 1, monomial_count(n, k + 1)) and G.dtype == np.intp
        assert not G.flags.writeable
        for z, exps in enumerate(monomial_exponents(n, k + 1)):
            m = np.repeat(np.arange(n + 1), exps).tolist()
            for j in range(n + 1):
                if j not in m:
                    want = zero_slot
                else:
                    rest = list(m)
                    rest.remove(j)
                    want = monomial_rank(tuple(rest), n) - 1 if rest else 0
                assert G[j, z] == want, (n, k, j, z)


# ---------------------------------------------------------------------------
# adversarial equality of the product kernels (Hypothesis)

from hypothesis import example, given, settings, strategies as st

from chowdefect.gfpoly import products_omitting_each
from chowdefect.chow import ChowPoint, tangent_columns


# p = 2 and p = 3 make accidental cancellations common; 8191 is the workhorse
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@st.composite
def linear_forms(draw, n, field):
    """Dense, sparse, or a single variable: sparse forms leave most of a
    product's monomials at zero."""
    kind = draw(st.sampled_from(("dense", "sparse", "variable")))
    if kind == "variable":
        return LinearForm.variable(draw(st.integers(0, n)), n, field)
    coeffs = draw(st.lists(st.integers(0, field.modulus - 1), min_size=n + 1, max_size=n + 1))
    if kind == "sparse":
        keep = draw(st.integers(0, n))
        coeffs = [c if j == keep or draw(st.booleans()) else 0 for j, c in enumerate(coeffs)]
    if not any(coeffs):
        coeffs[draw(st.integers(0, n))] = 1
    return LinearForm(n, np.array(coeffs), field)


@st.composite
def form_lists(draw, max_terms=None, base_terms=0):
    """(field, forms, base_forms): n in 1..6 and d in 1..14, or fewer
    terms where (n+1)^d would exceed max_terms, plus up to base_terms
    forms of the same n."""
    field = PrimeField(draw(st.sampled_from((2, 3, 8191))))
    n = draw(st.integers(1, 6))
    d_max = 14
    if max_terms is not None:
        while (n + 1) ** d_max > max_terms:
            d_max -= 1
    d = draw(st.integers(1, d_max))
    forms = [draw(linear_forms(n, field)) for _ in range(d)]
    return field, forms, [draw(linear_forms(n, field)) for _ in range(draw(st.integers(0, base_terms)))]


def variables(field, n, *js):
    return [LinearForm.variable(j, n, field) for j in js]


# the smallest families, with and without a base, whatever the search draws
SMALL_CASES = [
    (PrimeField(2), variables(PrimeField(2), 1, 0), []),
    (PrimeField(3), variables(PrimeField(3), 6, 6), variables(PrimeField(3), 6, 2, 2)),
    (F, [LinearForm(3, np.array([1, 2, 3, 4]), F), LinearForm.variable(1, 3, F)], []),
    (F, variables(F, 2, 0, 0), variables(F, 2, 1)),
]


@PROPERTY
@given(form_lists(base_terms=3))
@example(SMALL_CASES[0])
@example(SMALL_CASES[1])
@example(SMALL_CASES[2])
@example(SMALL_CASES[3])
def test_property_omit_one_matches_products(case):
    field, forms, base_forms = case
    n = forms[0].n
    base = product_of_linear_forms(base_forms) if base_forms else None
    got = list(products_omitting_each(forms, base))
    assert len(got) == len(forms)
    for b, partial in enumerate(got):
        rest = forms[:b] + forms[b + 1:] + base_forms
        want = product_of_linear_forms(rest) if rest else HomPoly.one(n, field)
        assert (partial.n, partial.d) == (want.n, want.d)
        assert np.array_equal(partial.coeffs, want.coeffs)


@PROPERTY
@given(form_lists(max_terms=200_000))
@example(SMALL_CASES[2])
@example(SMALL_CASES[3])
def test_property_mul_linear_matches_oracle(case):
    field, forms, _ = case
    *head, last = forms
    acc = HomPoly.from_linear(last)
    for ell in reversed(head):
        acc = mul_linear(acc, ell)
    assert np.array_equal(acc.coeffs, naive_product_oracle(forms).coeffs)


def prefix_fold_tangent_columns(point, field):
    """x_v * prod_{g != b} l_g for b, then v, with shared prefixes and the
    suffix folded per b; each column multiplies by x_v instead of scattering.
    Every factor after the first skips x_v for its first variable with a
    nonzero coefficient, the column that is a combination of the others."""
    n, d = point.n, point.d
    prefixes = [HomPoly.one(n, field)]
    for f in point.factors[:-1]:
        prefixes.append(mul_linear(prefixes[-1], f))
    cols = []
    for b in range(d):
        partial = prefixes[b]
        for g in range(b + 1, d):
            partial = mul_linear(partial, point.factors[g])
        skip = int(np.flatnonzero(point.factors[b].coeffs)[0]) if b else None
        for v in range(n + 1):
            if v != skip:
                cols.append(mul_linear(partial, LinearForm.variable(v, n, field)).coeffs)
    return cols


@PROPERTY
@given(form_lists())
@example(SMALL_CASES[0])
@example(SMALL_CASES[2])
def test_property_tangent_columns_match_prefix_fold(case):
    field, forms, _ = case
    point = ChowPoint(tuple(forms))
    got = tangent_columns(point)
    want = prefix_fold_tangent_columns(point, field)
    assert got.dtype == RESIDUE_DTYPE and got.flags.f_contiguous
    assert got.shape == (want[0].size, point.d * point.n + 1) and len(want) == got.shape[1]
    for g, w in zip(got.T, want):
        assert np.array_equal(g, w)
