"""Linear algebra over GF(2) on int rows.

A row of n bits is a Python int mask, bit n-1-j for column j, and a
matrix is a tuple of such rows; its width is carried beside it. Everything
is exact. All sampling takes an explicit numpy Generator so runs are
reproducible from a single seed.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError

# the set bits of every 16-bit value
_WEIGHT16 = np.zeros(1, dtype=np.int8)
for _ in range(16):
    _WEIGHT16 = np.concatenate([_WEIGHT16, _WEIGHT16 + 1])


def parse_word(bits: str, n: int) -> int:
    """An n-bit word written as n characters '0'/'1', column 0 first (a
    built-in generator row or a measurement record), as an int mask;
    anything else raises ShapeError."""
    if not isinstance(bits, str) or not set(bits) <= {"0", "1"}:
        raise ShapeError(f"record {bits!r} holds a character other than 0/1")
    if len(bits) != n:
        raise ShapeError(f"record length {len(bits)}, expected {n}")
    return int(bits or "0", 2)


def weights(words: np.ndarray) -> np.ndarray:
    """The number of set bits of each nonnegative int64 word, as int8, by
    lookups in a table of 16-bit weights: the package's one popcount
    (numpy 1.24 has no bitwise_count)."""
    out = _WEIGHT16[words & 0xFFFF]
    for shift in range(16, int(words.max(initial=0)).bit_length(), 16):
        out = out + _WEIGHT16[(words >> shift) & 0xFFFF]
    return out


def rank(rows) -> int:
    """Rank by elimination: each pivot row is kept under its leading bit,
    and a row that reduces to 0 adds nothing."""
    pivots = {}
    for row in rows:
        while row.bit_length() in pivots:
            row ^= pivots[row.bit_length()]
        if row:
            pivots[row.bit_length()] = row
    return len(pivots)


def row_echelon(rows, cols: int) -> tuple[list[int], list[int]]:
    """The reduced row echelon form of the rows as cols-bit words: its
    nonzero rows, which span the same space, and their pivot columns;
    each pivot column holds a single 1."""
    rows = list(rows)
    pivots: list[int] = []
    for c in range(cols):
        bit = 1 << (cols - 1 - c)
        r = len(pivots)
        hit = next((i for i in range(r, len(rows)) if rows[i] & bit), None)
        if hit is None:
            continue
        rows[r], rows[hit] = rows[hit], rows[r]
        rows = [row ^ rows[r] if i != r and row & bit else row
                for i, row in enumerate(rows)]
        pivots.append(c)
    return rows[:len(pivots)], pivots


def nullspace(rows, cols: int) -> tuple[int, ...]:
    """Basis of {x : row . x = 0 mod 2 for every row}, one word per free
    column of the echelon form."""
    red, pivots = row_echelon(rows, cols)
    basis = []
    for f in range(cols):
        if f in pivots:
            continue
        bit = 1 << (cols - 1 - f)
        word = bit
        for row, p in zip(red, pivots):
            if row & bit:
                word |= 1 << (cols - 1 - p)
        basis.append(word)
    return tuple(basis)


def mat_mul(a, b) -> tuple[int, ...]:
    """The product A B of int-row matrices: row i is the XOR of the rows
    of B at the set bits of a[i], its bit len(b)-1-j selecting b[j]."""
    k = len(b)
    out = []
    for row in a:
        if not 0 <= row < 1 << k:
            raise ShapeError(f"row {row:#x} exceeds the {k} rows of B")
        acc = 0
        for j, brow in enumerate(b):
            if row >> (k - 1 - j) & 1:
                acc ^= brow
        out.append(acc)
    return tuple(out)


def _pack(bits: np.ndarray) -> list[int]:
    """The rows of a 0/1 array as int masks, column 0 most significant."""
    cols = bits.shape[-1]
    packed = np.packbits(bits.reshape(-1, cols), axis=1).tolist()
    return [int.from_bytes(row, "big") >> (-cols % 8) for row in packed]


def random_vector(n: int, rng: np.random.Generator) -> int:
    return _pack(rng.integers(0, 2, size=n, dtype=np.uint8))[0]


def random_nonsingular(n: int, rng: np.random.Generator) -> tuple[int, ...]:
    """Uniform draw-until-full-rank; expected under 4 attempts for any n."""
    while True:
        m = _pack(rng.integers(0, 2, size=(n, n), dtype=np.uint8))
        if rank(m) == n:
            return tuple(m)


def random_permutation(n: int, rng: np.random.Generator) -> tuple[int, ...]:
    """A uniform n x n permutation matrix: row i has its one bit in column
    perm[i]."""
    return tuple(1 << (n - 1 - c) for c in rng.permutation(n).tolist())
