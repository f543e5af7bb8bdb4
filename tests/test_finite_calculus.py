import random
from fractions import Fraction

import pytest

from chowdefect.finite_calculus import (
    A_TABLE,
    NonIntegralValue,
    Quasipolynomial,
    backward_diff,
    binomial,
    make_proof_functions,
    newton_reconstruct,
)

S1, S2 = make_proof_functions()


def N(t):
    return binomial(t + 3, 3)


def test_binomial_values():
    assert binomial(85, 3) == 98770
    assert binomial(8, 3) == 56
    assert binomial(5, 0) == 1
    assert binomial(4, 5) == 0
    assert binomial(-2, 3) == 0
    assert binomial(3, -1) == 0


def test_point_count_spot_values():
    # frozen by direct evaluation of the quasiquadratic formula
    assert S1(2) == 1
    assert S1(5) == 3
    assert S1(0) == 0
    assert S1(82) == 399
    assert S2(82) == 400


def test_residue_table_spot_values():
    assert A_TABLE[0] == 0
    assert A_TABLE[13] == -13
    assert A_TABLE[26] == 7


def test_constant_quasipolynomial():
    q = Quasipolynomial(1, [[7]])
    for t in (-5, 0, 3, 1000):
        assert q(t) == 7


def test_integrality_enforced():
    q = Quasipolynomial(1, [[Fraction(1, 2), Fraction(1, 3)]])
    with pytest.raises(NonIntegralValue):
        q(1)


def test_common_leading_coefficient_required():
    with pytest.raises(ValueError):
        Quasipolynomial(2, [[0, 1], [0, 2]])
    with pytest.raises(ValueError):
        Quasipolynomial(2, [[0, 1], [0, 1, 1]])


def test_ceiling_identity_exhaustive():
    for t in range(1, 201):
        assert S2(t) == -(-N(t) // (3 * t + 1))
        assert S2(t) - S1(t) == 1


def test_backward_diff_linear_slope():
    f = lambda t: t
    for t in (-3, 0, 7, 100):
        assert backward_diff(f, 1, t, 1) == 1


def test_power_rule_on_proof_functions():
    # degree 2, LC 1/18, step 27: second difference 2 * 27^2 / 18 = 81
    for t in (2, 30, 55, 82, 150, 999):
        for s in (S1, S2):
            assert backward_diff(s, 2, t, 27) == 81
            assert backward_diff(s, 3, t, 27) == 0


def test_power_rule_random_quasiquadratics():
    rng = random.Random(7)
    for _ in range(10):
        ell = rng.randint(1, 9)
        lc = Fraction(rng.randint(1, 5), rng.randint(1, 5))
        coeffs = [[Fraction(rng.randint(-9, 9)), Fraction(rng.randint(-9, 9)), lc] for _ in range(ell)]
        q = Quasipolynomial(ell, coeffs)
        t = rng.randint(-20, 20) * ell  # same residue class throughout, so values are exact
        f = lambda u: sum(c * u**k for k, c in enumerate(q.coeffs[u % ell]))
        assert backward_diff(f, 2, t, ell) == lc * ell**2 * 2
        assert backward_diff(f, 3, t, ell) == 0


def test_newton_identity():
    for t in (5, 40, 100):
        for n in range(6):
            assert newton_reconstruct(S1, n, t, 27) == S1(t)
    f = lambda t: t * t
    assert newton_reconstruct(f, 2, 13, 5) == 169
    assert newton_reconstruct(N, 3, 82, 27) == 98770


def test_linearity_and_composition():
    rng = random.Random(3)
    f = S1
    g = lambda t: N(t)
    for _ in range(20):
        t = rng.randint(-50, 200)
        i = rng.randint(0, 3)
        a, b = rng.randint(-4, 4), rng.randint(-4, 4)
        combo = lambda u: a * f(u) + b * g(u)
        assert backward_diff(combo, i, t, 27) == a * backward_diff(f, i, t, 27) + b * backward_diff(g, i, t, 27)
        al = rng.randint(0, 2)
        be = rng.randint(0, 2)
        inner = lambda u: backward_diff(f, be, u, 27)
        assert backward_diff(inner, al, t, 27) == backward_diff(f, al + be, t, 27)
