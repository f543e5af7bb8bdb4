"""Reproducible coefficient sampling for all randomized constructions.

Every linear form drawn anywhere in a verification run comes from its
own substream keyed by (master seed, role, j, i, gamma), so adding
points or reordering construction loops cannot shift any other sample.
A substream is a SHA-256 counter stream: block c of the substream is

    sha256( LE64(seed) . LE32(role) . LE32(i) . LE32(j) . LE32(gamma) . LE64(c) )

read as four little-endian 64-bit words, and each word is mapped to
{0, ..., P-1} by rejection (words >= floor(2^64/P)*P are skipped), which
is exactly uniform.  The scheme is self-contained and bit-stable across
platforms and library versions; its name below is recorded in every
certificate so an independent implementation can regenerate the forms.

The all-zero form occurs with probability P^-(n+1) and would collapse a
point, so it is resampled (from the same substream, which simply keeps
running) and counted.  A sampler draws each key once: asked for a key
again, it returns the form it drew, so one sampler can serve several
builds that share forms (an s1 spec and the s2 spec that extends it).
"""

from __future__ import annotations

import hashlib
import struct
from typing import Iterator, Sequence

import numpy as np

from .gfpoly import DimensionMismatch, PrimeField

SUBSTREAM_ALGORITHM = "sha256-ctr-rej-v1"

# Substream role tags.  Quaternary builds use g/l/f, cubic builds use
# k/l/m for generic points and kj/lj/mj for points inside a subspace,
# and the Terracini oracle uses o.
ROLE_IDS = {
    "g": 1,
    "l": 2,
    "f": 3,
    "k": 4,
    "m": 5,
    "kj": 6,
    "lj": 7,
    "mj": 8,
    "o": 9,
    "retry": 15,
}

_MASK64 = (1 << 64) - 1


def _word_stream(seed: int, role_id: int, i: int, j: int, gamma: int) -> Iterator[int]:
    prefix = struct.pack("<QIIII", seed & _MASK64, role_id, i, j, gamma)
    counter = 0
    while True:
        digest = hashlib.sha256(prefix + struct.pack("<Q", counter)).digest()
        counter += 1
        for off in range(0, 32, 8):
            yield int.from_bytes(digest[off : off + 8], "little")


def field_stream(seed: int, p: int, role: str, i: int = 0, j: int = 0, gamma: int = 0) -> Iterator[int]:
    """Uniform elements of Z_p from the substream keyed by (role, j, i, gamma)."""
    threshold = (2**64 // p) * p
    for w in _word_stream(seed, ROLE_IDS[role], i, j, gamma):
        if w < threshold:
            yield w % p


def derive_retry_seed(seed: int, attempt: int) -> int:
    """Fresh master seed for retry number `attempt` (attempt >= 1)."""
    return next(_word_stream(seed, ROLE_IDS["retry"], attempt, 0, 0))


class FormSampler:
    """Draws keyed linear forms; the seeded side of a verification run."""

    def __init__(self, seed: int, field: PrimeField):
        self.seed = seed
        self.field = field
        self.resamples = 0
        self._drawn: dict[tuple, np.ndarray] = {}

    def linear_form(
        self,
        role: str,
        n: int,
        i: int = 0,
        j: int = 0,
        gamma: int = 0,
        support: Sequence[int] | None = None,
    ) -> np.ndarray:
        """Coefficient vector of length n+1, nonzero, keyed by indices.

        With `support`, only those coordinate positions are sampled and
        the rest stay zero (points confined to a coordinate subspace).
        A key is drawn once: asked again, the sampler returns the same
        form, with no new draw and no resample counted.
        """
        key = (role, i, j, gamma)
        if key not in self._drawn:
            self._drawn[key] = self.draw(key, n, support)
        return self._drawn[key]

    def draw(self, key: tuple, n: int, support: Sequence[int] | None) -> np.ndarray:
        """Sample the form of `key` from its substream, counting resamples."""
        role, i, j, gamma = key
        idx = list(range(n + 1)) if support is None else list(support)
        stream = field_stream(self.seed, self.field.modulus, role, i=i, j=j, gamma=gamma)
        while True:
            vals = [next(stream) for _ in idx]
            if any(vals):
                coeffs = np.zeros(n + 1, dtype=np.int64)
                coeffs[idx] = vals
                return coeffs
            self.resamples += 1


class RecordedForms:
    """Replays forms recorded in a certificate instead of sampling.

    Lookup is by the same (role, i, j, gamma) keys the sampler uses, so
    the builders are oblivious to which side they are talking to.
    """

    def __init__(self, forms: dict[tuple, np.ndarray]):
        self._forms = dict(forms)

    def linear_form(
        self,
        role: str,
        n: int,
        i: int = 0,
        j: int = 0,
        gamma: int = 0,
        support: Sequence[int] | None = None,
    ) -> np.ndarray:
        key = (role, i, j, gamma)
        if key not in self._forms:
            raise DimensionMismatch(f"certificate is missing form {key}")
        coeffs = np.asarray(self._forms[key], dtype=np.int64)
        if coeffs.shape != (n + 1,):
            raise DimensionMismatch(f"form {key} has {coeffs.shape[0]} coefficients, want {n + 1}")
        if not coeffs.any():
            raise DimensionMismatch(f"form {key} is zero")
        if support is not None:
            outside = np.ones(n + 1, dtype=bool)
            outside[list(support)] = False
            if coeffs[outside].any():
                raise DimensionMismatch(f"form {key} has support outside its subspace")
        return coeffs
