"""Dense homogeneous polynomial arithmetic over a small prime field.

A degree-d form in n+1 variables is a coefficient vector of length
C(n+d, d) over the monomial basis

    x_0^d, x_0^{d-1} x_1, ..., x_n^d

listed lexicographically by the nondecreasing index tuple
(i_1 <= ... <= i_d) of each monomial x_{i_1} ... x_{i_d}.  Positions are
1-based: x_0^d sits at 1 and x_n^d at C(n+d, d).

Products of generic linear forms are fully dense, so everything here is
dense numpy int64 with eager reduction mod P at operation boundaries.
The only product ever needed is (degree-k form) * (linear form), done as
a gather: the division map lists, for every degree-(k+1) monomial m and
variable x_j, the position of m / x_j in degree k (or a zero slot when
x_j does not divide m), so f * l is one take of f through the map and
an (n+1)-term dot product per output coefficient.  Families of products
that each omit one factor come from a product tree built on that kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np

from .finite_calculus import binomial


class IndexOutOfRange(ValueError):
    pass


class DimensionMismatch(ValueError):
    pass


class EmptyProduct(ValueError):
    pass


class BudgetExceeded(RuntimeError):
    pass


_ORACLE_BUDGET = 10**7  # cap on (n+1)^d for the tensor-expansion oracle

MAX_PRIME = 1 << 15  # entries must fit 16-bit storage


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


@dataclass(frozen=True)
class PrimeField:
    """Z_P for a small prime P (default 8191, the workhorse modulus)."""

    modulus: int = 8191

    def __post_init__(self):
        if not _is_prime(self.modulus):
            raise ValueError(f"{self.modulus} is not prime")
        if self.modulus > MAX_PRIME:
            raise ValueError(f"prime {self.modulus} exceeds 16-bit storage limit {MAX_PRIME}")

    def inv(self, a: int) -> int:
        a %= self.modulus
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(a, self.modulus - 2, self.modulus)


def monomial_count(n: int, d: int) -> int:
    return binomial(n + d, d)


@lru_cache(maxsize=None)
def _binom_table(rows: int, cols: int) -> np.ndarray:
    # Entries beyond int64 are left at 0: the position formulas only read
    # C(a, b) with min(b, a-b) small enough that the value is bounded by a
    # monomial count that fits in memory, so oversized entries are never
    # reachable from any computation that can be represented at all.
    t = np.zeros((rows, cols), dtype=np.int64)
    for i in range(rows):
        for j in range(min(i, cols - 1) + 1):
            v = math.comb(i, j)
            if v < 2**62:
                t[i, j] = v
    return t


def _ranks_of_exponents(exps: np.ndarray, n: int, d: int) -> np.ndarray:
    """1-based lex positions for rows of an exponent matrix (count x n+1)."""
    table = _binom_table(n + d + 2, n + 2)
    suffix = np.cumsum(exps[:, ::-1], axis=1)[:, ::-1]
    ranks = np.ones(exps.shape[0], dtype=np.int64)
    for v in range(n):
        ranks += table[suffix[:, v + 1] - 1 + n - v, n - v]
    return ranks


def lex_positions(exps: np.ndarray, n: int, d: int) -> np.ndarray:
    """Vectorized monomial_rank: 1-based positions for exponent rows."""
    return _ranks_of_exponents(np.asarray(exps, dtype=np.int64), n, d)


@lru_cache(maxsize=None)
def monomial_exponents(n: int, d: int) -> np.ndarray:
    """Exponent matrix (count x n+1) of all degree-d monomials, lex order.

    Built recursively: the block with leading exponent e_0 is e_0 glued
    onto the degree d - e_0 monomials in the remaining variables, with
    e_0 running from d down to 0.  Cost is linear in the output.
    """
    if d < 0:
        raise IndexOutOfRange(f"degree must be >= 0, got {d}")
    if n == 0:
        return np.full((1, 1), d, dtype=np.int32)
    if d == 0:
        return np.zeros((1, n + 1), dtype=np.int32)
    out = np.empty((monomial_count(n, d), n + 1), dtype=np.int32)
    pos = 0
    for e0 in range(d, -1, -1):
        sub = monomial_exponents(n - 1, d - e0)
        out[pos : pos + sub.shape[0], 0] = e0
        out[pos : pos + sub.shape[0], 1:] = sub
        pos += sub.shape[0]
    out.setflags(write=False)
    return out


def variable_insertion_map(n: int, k: int) -> np.ndarray:
    """0-based positions of x_j * m for every degree-k monomial m.

    Entry [m, j] is the position (in degree k+1) of the monomial at
    position m of degree k with variable j multiplied in.  Each column is
    injective, so it inverts into a row of the division map, which is
    what the kernels use and what is cached.  Inserting x_j bumps the
    suffix sums S_1..S_j by one, so all n+1 columns come from one pass
    over the shared suffix sums.
    """
    exps = monomial_exponents(n, k)
    count = exps.shape[0]
    table = _binom_table(n + k + 3, n + 2)
    suffix = np.empty((count, n), dtype=np.int64)  # column v holds S_{v+1}
    running = np.zeros(count, dtype=np.int64)
    for v in range(n - 1, -1, -1):
        running += exps[:, v + 1]
        suffix[:, v] = running
    out = np.empty((count, n + 1), dtype=np.int64)
    acc = np.zeros(count, dtype=np.int64)
    for v in range(n):
        acc += table[suffix[:, v] - 1 + n - v, n - v]
    out[:, 0] = acc
    # inserting x_{j+1} instead of x_j additionally bumps S_{j+1} by one,
    # so only the term at v = j moves
    for j in range(n):
        arg = suffix[:, j] - 1 + n - j
        acc = acc - table[arg, n - j] + table[arg + 1, n - j]
        out[:, j + 1] = acc
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def division_map(n: int, k: int) -> np.ndarray:
    """Gather indices from degree k to degree k+1, one row per variable.

    Entry [j, r] is the 0-based degree-k position of m / x_j for the
    degree-(k+1) monomial m at position r, or C(n+k, k) -- a zero slot
    one past the end -- when x_j does not divide m.  With f padded by one
    zero, take(fpad, G)[j] is x_j * f, and f * l is l @ take(fpad, G).
    """
    imap = variable_insertion_map(n, k)
    count = imap.shape[0]
    out = np.full((n + 1, monomial_count(n, k + 1)), count, dtype=np.intp)
    quotients = np.arange(count, dtype=np.intp)
    for j in range(n + 1):
        out[j, imap[:, j]] = quotients
    out.setflags(write=False)
    return out


def padded(coeffs: np.ndarray) -> np.ndarray:
    """Coefficients followed by the zero that division_map's zero slot reads."""
    out = np.empty(coeffs.size + 1, dtype=np.int64)
    out[:-1] = coeffs
    out[-1] = 0
    return out


def monomial_rank(indices: tuple, n: int) -> int:
    """1-based position of x_{i_1}...x_{i_d} in the lex monomial order."""
    d = len(indices)
    if d == 0:
        raise IndexOutOfRange("empty index tuple")
    prev = 0
    for i in indices:
        if i < prev or i > n:
            raise IndexOutOfRange(f"indices must be nondecreasing in 0..{n}: {indices}")
        prev = i
    exps = np.zeros((1, n + 1), dtype=np.int64)
    for i in indices:
        exps[0, i] += 1
    return int(_ranks_of_exponents(exps, n, d)[0])


def monomial_unrank(z: int, n: int, d: int) -> tuple:
    """Inverse of monomial_rank on 1..C(n+d, d)."""
    if not 1 <= z <= monomial_count(n, d):
        raise IndexOutOfRange(f"position {z} outside 1..{monomial_count(n, d)}")
    r = z - 1
    out = []
    lo = 0
    for pos in range(d):
        rem = d - pos - 1
        v = lo
        while True:
            block = binomial(n - v + rem, rem)
            if r < block:
                break
            r -= block
            v += 1
        out.append(v)
        lo = v
    return tuple(out)


@dataclass(frozen=True)
class LinearForm:
    """A nonzero linear form; coeffs[j] multiplies x_j, reduced mod P."""

    n: int
    coeffs: np.ndarray
    field: PrimeField

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.int64) % self.field.modulus
        if c.shape != (self.n + 1,):
            raise DimensionMismatch(f"need {self.n + 1} coefficients, got {c.shape}")
        if not c.any():
            raise ValueError("zero linear form")
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def variable(cls, j: int, n: int, field: PrimeField) -> "LinearForm":
        c = np.zeros(n + 1, dtype=np.int64)
        c[j] = 1
        return cls(n, c, field)


@dataclass(frozen=True)
class HomPoly:
    """Dense degree-d form; coeffs in lex monomial order, reduced mod P."""

    n: int
    d: int
    coeffs: np.ndarray
    field: PrimeField

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.int64) % self.field.modulus
        want = monomial_count(self.n, self.d)
        if c.shape != (want,):
            raise DimensionMismatch(f"degree {self.d} in {self.n + 1} variables needs "
                                    f"{want} coefficients, got {c.shape}")
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def _reduced(cls, n: int, d: int, coeffs: np.ndarray, field: PrimeField) -> "HomPoly":
        """Wrap int64 coefficients already reduced mod P and of the right
        length, without the copy and reduction of the checked constructor."""
        coeffs.setflags(write=False)
        poly = object.__new__(cls)
        for name, value in (("n", n), ("d", d), ("coeffs", coeffs), ("field", field)):
            object.__setattr__(poly, name, value)
        return poly

    @classmethod
    def one(cls, n: int, field: PrimeField) -> "HomPoly":
        return cls(n, 0, np.ones(1, dtype=np.int64), field)

    @classmethod
    def from_linear(cls, form: LinearForm) -> "HomPoly":
        return cls(form.n, 1, form.coeffs.copy(), form.field)


def mul_linear(f: HomPoly, ell: LinearForm) -> HomPoly:
    """f * ell for a degree-k form f: one gather through the division map
    and an (n+1)-term dot product per coefficient of the result."""
    if f.n != ell.n:
        raise DimensionMismatch(f"variable counts differ: {f.n + 1} vs {ell.n + 1}")
    # entries stay below (n+1) * P^2 < 2^63 before the reduction
    out = ell.coeffs @ np.take(padded(f.coeffs), division_map(f.n, f.d))
    out %= f.field.modulus
    return HomPoly._reduced(f.n, f.d + 1, out, f.field)


def _times(acc: HomPoly, forms: list[LinearForm]) -> HomPoly:
    for ell in forms:
        acc = mul_linear(acc, ell)
    return acc


def product_of_linear_forms(forms: list[LinearForm]) -> HomPoly:
    """Left fold l_1 * l_2 * ... * l_d via the linear multiplication kernel."""
    if not forms:
        raise EmptyProduct("need at least one linear form")
    return _times(HomPoly.from_linear(forms[0]), forms[1:])


def products_omitting_each(forms: list[LinearForm], base: HomPoly | None = None) -> Iterator[HomPoly]:
    """base * prod_{g != b} forms[g] for b = 0, 1, ..., in that order.

    A product tree: the base of the left half takes in the right half's
    forms and the other way round, then each half recurses, so t forms
    cost about t * log2(t) mul_linear calls instead of the t^2 / 2 of a
    prefix fold.  Only the bases on the current path are held.  The base
    defaults to the constant 1.
    """
    if not forms:
        raise EmptyProduct("need at least one linear form")
    if base is None:
        base = HomPoly.one(forms[0].n, forms[0].field)

    def split(acc: HomPoly, lo: int, hi: int) -> Iterator[HomPoly]:
        if hi - lo == 1:
            yield acc
            return
        mid = (lo + hi) // 2
        yield from split(_times(acc, forms[mid:hi]), lo, mid)
        yield from split(_times(acc, forms[lo:mid]), mid, hi)

    return split(base, 0, len(forms))


def naive_product_oracle(forms: list[LinearForm]) -> HomPoly:
    """Reference product via full tensor expansion plus symmetrization.

    Expands all (n+1)^d index assignments and accumulates each into its
    sorted monomial.  Exponential, guarded, and used only to validate the
    fast kernel; it deliberately shares no code path with mul_linear.
    """
    if not forms:
        raise EmptyProduct("need at least one linear form")
    n = forms[0].n
    d = len(forms)
    if any(f.n != n for f in forms):
        raise DimensionMismatch("mixed variable counts in product")
    count = (n + 1) ** d
    if count > _ORACLE_BUDGET:
        raise BudgetExceeded(f"(n+1)^d = {count} exceeds oracle budget {_ORACLE_BUDGET}")
    p = forms[0].field.modulus
    codes = np.arange(count, dtype=np.int64)
    prod = np.ones(count, dtype=np.int64)
    exps = np.zeros((count, n + 1), dtype=np.int32)
    for pos in range(d):
        digit = (codes // (n + 1) ** pos) % (n + 1)
        prod = prod * forms[pos].coeffs[digit] % p
        np.add.at(exps, (np.arange(count), digit), 1)
    ranks = _ranks_of_exponents(exps, n, d)
    out = np.zeros(monomial_count(n, d), dtype=np.int64)
    np.add.at(out, ranks - 1, prod)
    out %= p
    return HomPoly(n, d, out, forms[0].field)
