"""Dense linear algebra over GF(2).

Matrices are 2-D numpy uint8 arrays with entries in {0, 1}; vectors are 1-D.
Everything is exact. All sampling takes an explicit numpy Generator so runs
are reproducible from a single seed.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError, SingularMatrixError


def _string_bits(s: str) -> list[int]:
    """The bits of a '0101' string; any other character raises ShapeError."""
    if not set(s) <= {"0", "1"}:
        raise ShapeError(f"bit string {s!r} holds a character other than 0/1")
    return [ch == "1" for ch in s]


def as_bits(rows) -> np.ndarray:
    """Coerce nested lists, arrays, or '0101' strings to a uint8 bit matrix."""
    if isinstance(rows, np.ndarray):
        arr = (rows % 2).astype(np.uint8)
    elif isinstance(rows, (list, tuple)) and rows and isinstance(rows[0], str):
        arr = np.array([_string_bits(r) for r in rows], dtype=np.uint8)
    else:
        arr = (np.array(rows, dtype=np.int64) % 2).astype(np.uint8)
    if arr.ndim != 2:
        raise ShapeError(f"expected a 2-D bit matrix, got ndim={arr.ndim}")
    return arr


def as_vec(bits) -> np.ndarray:
    """Coerce a list, array, or '0101' string to a uint8 bit vector."""
    if isinstance(bits, str):
        arr = np.array(_string_bits(bits), dtype=np.uint8)
    elif isinstance(bits, np.ndarray):
        arr = (bits % 2).astype(np.uint8)
    else:
        arr = (np.array(bits, dtype=np.int64) % 2).astype(np.uint8)
    if arr.ndim != 1:
        raise ShapeError(f"expected a 1-D bit vector, got ndim={arr.ndim}")
    return arr


def identity(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.uint8)


def zeros_vec(n: int) -> np.ndarray:
    return np.zeros(n, dtype=np.uint8)


def weight(v) -> int:
    return int(as_vec(v).sum())


def dot(a, b) -> int:
    """Inner product mod 2."""
    a, b = as_vec(a), as_vec(b)
    if a.shape != b.shape:
        raise ShapeError(f"dot length mismatch {a.shape} vs {b.shape}")
    return int((a & b).sum() % 2)


def rref(m) -> tuple[np.ndarray, int, list[int]]:
    """Reduced row echelon form over GF(2).

    Returns (reduced, rank, pivot column indices). Row space is preserved;
    pivot columns have a single 1.
    """
    a = as_bits(m).copy()
    rows, cols = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        hits = np.nonzero(a[r:, c])[0]
        if hits.size == 0:
            continue
        p = r + int(hits[0])
        if p != r:
            a[[r, p]] = a[[p, r]]
        # clear the pivot column everywhere else
        for i in np.nonzero(a[:, c])[0]:
            if i != r:
                a[i] ^= a[r]
        pivots.append(c)
        r += 1
    return a, r, pivots


def rank(m) -> int:
    """Rank by elimination on the rows packed into Python ints: each pivot
    row is kept under its leading bit, and a row that reduces to 0 adds
    nothing."""
    pivots = {}
    for packed in np.packbits(as_bits(m), axis=1):
        row = int.from_bytes(packed.tobytes(), "big")
        while row.bit_length() in pivots:
            row ^= pivots[row.bit_length()]
        if row:
            pivots[row.bit_length()] = row
    return len(pivots)


def mat_mul(a, b) -> np.ndarray:
    """Matrix (or matrix-vector) product mod 2."""
    a = np.asarray(a, dtype=np.uint8)
    b = np.asarray(b, dtype=np.uint8)
    a_cols = a.shape[-1] if a.ndim > 0 else 0
    b_rows = b.shape[0] if b.ndim > 0 else 0
    if a_cols != b_rows:
        raise ShapeError(f"mat_mul shape mismatch {a.shape} x {b.shape}")
    return ((a.astype(np.int64) @ b.astype(np.int64)) % 2).astype(np.uint8)


def inverse(m) -> np.ndarray:
    """Inverse over GF(2); raises SingularMatrixError if rank deficient."""
    a = as_bits(m)
    if a.shape[0] != a.shape[1]:
        raise ShapeError(f"inverse needs a square matrix, got {a.shape}")
    n = a.shape[0]
    aug = np.concatenate([a, identity(n)], axis=1)
    red, _, _ = rref(aug)
    if not np.array_equal(red[:, :n], identity(n)):
        raise SingularMatrixError(f"matrix of shape {a.shape} is singular")
    return red[:, n:]


def rowspace_contains(m, w) -> bool:
    """True iff w is a GF(2) combination of rows of m."""
    a = as_bits(m)
    w = as_vec(w)
    if w.shape[0] != a.shape[1]:
        raise ShapeError(f"vector length {w.shape[0]} vs {a.shape[1]} columns")
    red, _, pivots = rref(a)
    r = w.copy()
    for i, c in enumerate(pivots):
        if r[c]:
            r ^= red[i]
    return not r.any()


def nullspace(m) -> np.ndarray:
    """Basis (as rows) of {x : m @ x = 0 mod 2}; shape (cols - rank, cols)."""
    a = as_bits(m)
    cols = a.shape[1]
    red, rk, pivots = rref(a)
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free), cols), dtype=np.uint8)
    for i, f in enumerate(free):
        basis[i, f] = 1
        for row, p in enumerate(pivots):
            basis[i, p] = red[row, f]
    return basis


def random_matrix(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    return rng.integers(0, 2, size=(rows, cols), dtype=np.uint8)


def random_vector(n: int, rng: np.random.Generator) -> np.ndarray:
    return rng.integers(0, 2, size=n, dtype=np.uint8)


def random_nonsingular(n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform draw-until-full-rank; expected under 4 attempts for any n."""
    while True:
        m = random_matrix(n, n, rng)
        if rank(m) == n:
            return m


def random_permutation(n: int, rng: np.random.Generator) -> np.ndarray:
    perm = rng.permutation(n)
    p = np.zeros((n, n), dtype=np.uint8)
    p[np.arange(n), perm] = 1
    return p
