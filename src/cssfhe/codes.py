"""Classical binary linear codes: duals, containment, distance, syndrome
tables, and the built-in fixtures used throughout the package.

Generator and parity-check rows, codewords, syndromes and coset leaders
are int masks, bit n-1-j for column j (gf2). Distance and table
construction are brute force, bounded at k <= 20, syndromes of at most
20 bits and t <= 3; everything here is desk scale by design.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import gf2
from .errors import CapacityError, DegenerateCodeError, ShapeError

BRUTE_FORCE_K = 20
SYNDROME_BITS = 20


@dataclass(frozen=True, eq=False)
class LinearCode:
    n: int
    k: int
    gen: tuple[int, ...]   # k rows, full rank
    pchk: tuple[int, ...]  # n - k rows, orthogonal to gen


def from_generator(rows, n: int) -> LinearCode:
    """Build a code from n-bit generator rows; derives the parity check as
    a nullspace basis. Rank-deficient input is reduced to its row space."""
    rows = tuple(rows)
    if any(not 0 <= r < 1 << n for r in rows):
        raise ShapeError(f"generator row exceeds {n} bits")
    if not any(rows):
        raise DegenerateCodeError("generator has no nonzero rows")
    red, pivots = gf2.row_echelon(rows, n)
    if len(pivots) < len(rows):
        rows = tuple(red)
    return LinearCode(n=n, k=len(rows), gen=rows, pchk=gf2.nullspace(rows, n))


def dual(c: LinearCode) -> LinearCode:
    return LinearCode(n=c.n, k=c.n - c.k, gen=c.pchk, pchk=c.gen)


def is_subcode(c2: LinearCode, c1: LinearCode) -> bool:
    """True iff every codeword of c2 lies in c1."""
    if c2.n != c1.n:
        raise ShapeError(f"length mismatch {c2.n} vs {c1.n}")
    return not any((g & h).bit_count() & 1 for g in c2.gen for h in c1.pchk)


def codewords(c: LinearCode) -> np.ndarray:
    """All 2^k codewords as an int64 array: entry i is the XOR of the gen
    rows at the set bits of i, row 0 the most significant."""
    if c.k > BRUTE_FORCE_K:
        raise CapacityError(f"k={c.k} exceeds brute-force bound {BRUTE_FORCE_K}")
    words = np.zeros(1, dtype=np.int64)
    for row in reversed(c.gen):
        words = np.concatenate([words, words ^ row])
    return words


def min_distance(c: LinearCode) -> int:
    if c.k == 0:
        raise DegenerateCodeError("zero code has no nonzero codewords")
    w = gf2.weights(codewords(c))
    return int(w[w > 0].min())


def build_syndrome_table(c: LinearCode, t: int) -> np.ndarray:
    """Coset-leader table for all error patterns of weight <= t: an int64
    array indexed by the syndrome (bit n-k-1-i the parity against pchk
    row i), holding the leader, or -1 for a syndrome beyond the radius.

    A syndrome collision among the enumerated patterns means the radius is
    too large for this code and raises CapacityError.
    """
    r = len(c.pchk)
    if r > SYNDROME_BITS:
        raise CapacityError(
            f"{r} syndrome bits exceed the table bound {SYNDROME_BITS}")
    unit = 1 << np.arange(c.n - 1, -1, -1, dtype=np.int64)
    column = np.zeros(c.n, dtype=np.int64)  # the syndrome of each unit error
    for h in c.pchk:
        column = (column << 1) | ((unit & h) != 0)
    table = np.full(1 << r, -1, dtype=np.int64)
    for w in range(t + 1):
        combos = list(itertools.combinations(range(c.n), w))
        pos = np.array(combos, dtype=np.intp).reshape(len(combos), w)
        syndromes = np.bitwise_xor.reduce(column[pos], axis=1)
        leaders = np.bitwise_or.reduce(unit[pos], axis=1)
        fresh = (table[syndromes] < 0).all()
        table[syndromes] = leaders
        # two patterns of this weight with one syndrome: one is overwritten
        if not fresh or (table[syndromes] != leaders).any():
            raise CapacityError(
                f"syndrome collision at weight {w}: t={t} exceeds the "
                f"correction radius of this [{c.n},{c.k}] code")
    return table


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
    hamming74 = from_generator(
        [gf2.parse_word(r, 7) for r in _HAMMING74_GEN], 7)
    return {
        "hamming74": hamming74,
        "simplex73": dual(hamming74),
        "golay2312": from_generator(
            [gf2.parse_word(r, 23) for r in _golay_gen()], 23),
    }
