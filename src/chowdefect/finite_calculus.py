"""Exact finite calculus: backward differences and quasipolynomials.

A quasipolynomial of quasiperiod ``ell`` is a function on the integers
given by one polynomial per residue class mod ``ell``.  Coefficients are
stored as exact ``fractions.Fraction`` values (constant term first), and
every evaluation checks that the rationals cancel to an integer; a
non-integral value means the function was built wrong, and in a proof
tool that must be a hard error rather than a rounding.

The backward difference operator with step ``ell`` is

    diff^i f(t) = sum_{j=0}^{i} (-1)^j C(i,j) f(t - j*ell),

and Newton's backward formula reconstructs f(t) from the differences.
The concrete functions of the verification workflow (point counts s1, s2
and the residue table they depend on) live here as well.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Sequence


class NonIntegralValue(ArithmeticError):
    """A quasipolynomial evaluated to a non-integer: malformed input."""


def binomial(n: int, k: int) -> int:
    """C(n, k), with 0 whenever k < 0, k > n or n < 0.

    The zero convention matters: dimension formulas like C(n-2s+2, 2) and
    C(t-j*ell+3, 3) are used at arguments where the top runs negative,
    and there they must count an empty set.
    """
    if k < 0 or n < 0 or k > n:
        return 0
    return math.comb(n, k)


def backward_diff(f: Callable[[int], int], i: int, t: int, ell: int) -> int:
    """i-th backward difference of f at t with step ell (closed form)."""
    if i < 0:
        raise ValueError(f"order must be >= 0, got {i}")
    if ell < 1:
        raise ValueError(f"step must be >= 1, got {ell}")
    return sum((-1) ** j * math.comb(i, j) * f(t - j * ell) for j in range(i + 1))


def newton_reconstruct(f: Callable[[int], int], n: int, t: int, ell: int) -> int:
    """Newton backward-difference reconstruction of f(t).

    Evaluates sum_j C(n,j) diff^{n-j} f(t - j*ell).  This is an identity,
    equal to f(t) for every n >= 0; it is kept as an independent oracle
    for the difference operator, so it must not share code with it beyond
    calling backward_diff itself.
    """
    if n < 0:
        raise ValueError(f"order must be >= 0, got {n}")
    return sum(
        math.comb(n, j) * backward_diff(f, n - j, t - j * ell, ell)
        for j in range(n + 1)
    )


class Quasipolynomial:
    """One polynomial per residue class mod the quasiperiod.

    ``coeffs[r]`` holds the coefficients (constant first) of the
    polynomial applied when ``t % period == r``.  All residue polynomials
    must share a single leading coefficient; families violating that are
    rejected at construction, since the downstream dimension arguments
    rely on it.
    """

    def __init__(self, period: int, coeffs: Sequence[Sequence]):
        if period < 1:
            raise ValueError(f"period must be >= 1, got {period}")
        if len(coeffs) != period:
            raise ValueError(f"need {period} residue polynomials, got {len(coeffs)}")
        table = [[Fraction(c) for c in poly] for poly in coeffs]
        degrees = {len(poly) - 1 for poly in table}
        if len(degrees) != 1:
            raise ValueError(f"residue polynomials differ in degree: {sorted(degrees)}")
        self.degree = degrees.pop()
        if self.degree < 0:
            raise ValueError("empty coefficient lists are not allowed")
        leads = {poly[-1] for poly in table}
        if len(leads) != 1:
            raise ValueError(f"residue polynomials differ in leading coefficient: {sorted(leads)}")
        self.leading_coefficient = leads.pop()
        self.period = period
        self.coeffs = table

    def __call__(self, t: int) -> int:
        """The value at integer t; raises NonIntegralValue if it is not integral."""
        acc = Fraction(0)
        power = Fraction(1)
        for c in self.coeffs[t % self.period]:
            acc += c * power
            power *= t
        if acc.denominator != 1:
            raise NonIntegralValue(f"value {acc} at t={t} is not an integer")
        return int(acc)

    def __repr__(self):
        return (f"Quasipolynomial(period={self.period}, degree={self.degree}, "
                f"lc={self.leading_coefficient})")


# Residue table for the 27-quasiquadratic point-count functions.  Index r
# gives the constant a(27q + r); these 27 integers are what make
# s2(t) = ceil(C(t+3,3) / (3t+1)) hold on every residue class.
A_TABLE = (
    0, -10, 4, -12, -4, 1, 3, 2, -2,
    -9, 8, -5, 6, -13, -8, -6, -7, -11,
    9, -1, 13, -3, 5, 10, 12, 11, 7,
)

PROOF_STEP = 27


def make_proof_functions() -> tuple[Quasipolynomial, Quasipolynomial]:
    """The pair (s1, s2) of 27-quasiquadratic point counts.

    s1(t) = t^2/18 + 17t/54 + a(t)/27 with a(t) from A_TABLE, and
    s2 = s1 + 1.  s1(t) is the largest point count that stays subabundant
    and s2(t) = ceil(N(t)/m(t)) the smallest superabundant one, for
    N(t) = C(t+3,3) and m(t) = 3t+1.
    """
    s1 = Quasipolynomial(
        PROOF_STEP,
        [[Fraction(a, 27), Fraction(17, 54), Fraction(1, 18)] for a in A_TABLE],
    )
    s2 = Quasipolynomial(
        PROOF_STEP,
        [[Fraction(a, 27) + 1, Fraction(17, 54), Fraction(1, 18)] for a in A_TABLE],
    )
    return s1, s2
