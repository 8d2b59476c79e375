"""Classical binary linear codes: duals, containment, distance, syndrome
tables, and the built-in fixtures used throughout the package.

Distance and table construction are brute force, bounded at k <= 20 and
t <= 3; everything here is desk scale by design.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import gf2
from .errors import CapacityError, DegenerateCodeError, ShapeError

BRUTE_FORCE_K = 20


@dataclass(frozen=True, eq=False)
class LinearCode:
    n: int
    k: int
    gen: np.ndarray   # k x n, full rank
    pchk: np.ndarray  # (n - k) x n, rows orthogonal to gen


def from_generator(g) -> LinearCode:
    """Build a code from a generator matrix; derives the parity check as a
    nullspace basis. Rank-deficient input is reduced to its row space."""
    g = gf2.as_bits(g)
    if g.size == 0 or not g.any():
        raise DegenerateCodeError("generator has no nonzero rows")
    red, rk, _ = gf2.rref(g)
    if rk < g.shape[0]:
        g = red[:rk]
    n = g.shape[1]
    pchk = gf2.nullspace(g)
    return LinearCode(n=n, k=g.shape[0], gen=g, pchk=pchk)


def dual(c: LinearCode) -> LinearCode:
    return LinearCode(n=c.n, k=c.n - c.k, gen=c.pchk, pchk=c.gen)


def is_subcode(c2: LinearCode, c1: LinearCode) -> bool:
    """True iff every codeword of c2 lies in c1."""
    if c2.n != c1.n:
        raise ShapeError(f"length mismatch {c2.n} vs {c1.n}")
    if c2.k == 0:
        return True
    return not gf2.mat_mul(c2.gen, c1.pchk.T).any()


def codewords(c: LinearCode) -> np.ndarray:
    """All 2^k codewords as a (2^k, n) array; message 0 maps to row 0."""
    if c.k > BRUTE_FORCE_K:
        raise CapacityError(f"k={c.k} exceeds brute-force bound {BRUTE_FORCE_K}")
    if c.k == 0:
        return np.zeros((1, c.n), dtype=np.uint8)
    msgs = ((np.arange(1 << c.k, dtype=np.uint32)[:, None]
             >> np.arange(c.k - 1, -1, -1, dtype=np.uint32)) & 1).astype(np.uint8)
    return gf2.mat_mul(msgs, c.gen)


def min_distance(c: LinearCode) -> int:
    if c.k == 0:
        raise DegenerateCodeError("zero code has no nonzero codewords")
    w = codewords(c).sum(axis=1)
    return int(w[w > 0].min())


@dataclass(frozen=True)
class SyndromeTable:
    radius: int
    entries: dict[bytes, np.ndarray] = field(repr=False)


def build_syndrome_table(c: LinearCode, t: int) -> SyndromeTable:
    """Coset-leader table for all error patterns of weight <= t.

    A syndrome collision among the enumerated patterns means the radius is
    too large for this code and raises CapacityError.
    """
    entries: dict[bytes, np.ndarray] = {}
    for w in range(t + 1):
        for pos in itertools.combinations(range(c.n), w):
            e = np.zeros(c.n, dtype=np.uint8)
            e[list(pos)] = 1
            key = gf2.mat_mul(c.pchk, e).tobytes()
            if key in entries:
                raise CapacityError(
                    f"syndrome collision at weight {w}: t={t} exceeds the "
                    f"correction radius of this [{c.n},{c.k}] code")
            entries[key] = e
    return SyndromeTable(radius=t, entries=entries)


_HAMMING74_GEN = [
    "1000110",
    "0100101",
    "0010011",
    "0001111",
]

# Cyclic generator polynomial of the [23,12,7] Golay code,
# 1 + x^2 + x^4 + x^5 + x^6 + x^10 + x^11, shifted across 23 columns.
_GOLAY_POLY = "101011100011"


def _golay_gen() -> list[str]:
    rows = []
    for i in range(12):
        rows.append("0" * i + _GOLAY_POLY + "0" * (11 - i))
    return rows


def builtin_codes() -> dict[str, LinearCode]:
    hamming74 = from_generator(_HAMMING74_GEN)
    return {
        "hamming74": hamming74,
        "simplex73": dual(hamming74),
        "golay2312": from_generator(_golay_gen()),
    }
