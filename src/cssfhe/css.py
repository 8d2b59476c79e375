"""CSS code objects keyed by a phase word u and a shift word v.

A code instance encodes one logical qubit into n physical qubits. The
logical zero is the superposition of the inner code's codewords, phased by
u and shifted by v; the logical one uses the fixed coset representative x1
(minimum weight, lexicographic tie break).

Every n-bit word (u, v, x1, Pauli frames, check rows, inner codewords,
coset leaders, measurement records) is a Python int mask or an int64
array entry, bit n-1-j for qubit j, as in sim.apply_block_pauli and the
codes module.

A secret key (symmetric.SymKey) is a view of its pair's one base code:
a McEliece-style scrambled presentation, the base code with its qubits
permuted (u = v = 0), or a random (u, v) over it. Transversal operations
move (u, v) keys to other members of the family by the closed-form rules
in KeyEvolver.

The key (u, v) is exactly the Pauli frame X^v Z^u on the zero-key
encoding, so every key of a qubit presentation encodes and decodes
through that presentation's one code-space support (_block_support),
with the key folded into the caller's frame. The sparse isometry
(isometry) is the reference path, for attack_key_guess and for the tests
that check the support against it.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field, replace

import numpy as np

from . import codes as codes_mod
from . import gf2, sim
from .codes import LinearCode
from .errors import (
    CapacityError,
    DecodeFailureError,
    InvalidPairError,
    LeakageError,
    ShapeError,
)

DECODE_LEAKAGE_TOL = 1e-9
ENUMERATION_LIMIT = 7

MAGIC_PHASE = np.exp(1j * np.pi / 4)
MAGIC_AMPS = np.array([1.0, MAGIC_PHASE], dtype=np.complex128) / math.sqrt(2.0)


@dataclass(eq=False)
class CssCode:
    c1: LinearCode
    c2: LinearCode
    u: int
    v: int
    n: int
    t: int
    x1: int
    # the readout row: a row of c2.pchk odd on x1, so a word of C1 lies in
    # the x1 coset exactly when its parity against this row is odd
    x1_check: int
    # key-independent caches shared between all (u, v) siblings over the
    # same qubit presentation: "inner_words", "tables", and the code-space
    # support ("support", m) of each block count m
    _shared: dict = field(default_factory=dict, repr=False)
    # the reference isometry, built on first use; with_key starts over
    _iso: sim.BlockIsometry | None = field(default=None, init=False,
                                           repr=False)

    def with_key(self, u: int, v: int) -> "CssCode":
        return replace(self, u=_frame_mask(u, self.n),
                       v=_frame_mask(v, self.n))


def build(c1: LinearCode, c2: LinearCode, u: int, v: int) -> CssCode:
    """Validate the pair and assemble a code with t = floor((d-1)/2)."""
    if c1.n != c2.n:
        raise InvalidPairError(f"length mismatch {c1.n} vs {c2.n}")
    if not codes_mod.is_subcode(c2, c1):
        raise InvalidPairError("inner code is not contained in the outer code")
    if c1.k - c2.k != 1:
        raise InvalidPairError(
            f"dimension gap {c1.k - c2.k}, need exactly 1 logical qubit")
    u, v = _frame_mask(u, c1.n), _frame_mask(v, c1.n)
    d = min(codes_mod.min_distance(c1),
            codes_mod.min_distance(codes_mod.dual(c2)))
    t = (d - 1) // 2
    # a check of C2 that C1 fails is odd on x1, as it is even on all of C2
    check = next(h for h in c2.pchk
                 if any((h & g).bit_count() & 1 for g in c1.gen))
    cw1 = codes_mod.codewords(c1)
    x1 = _lightest(cw1[codes_mod.weights(cw1 & check) & 1 == 1])
    return CssCode(c1=c1, c2=c2, u=u, v=v, n=c1.n, t=t, x1=x1,
                   x1_check=check)


def _lightest(words: np.ndarray) -> int:
    """The word of least weight, the lowest among ties."""
    w = codes_mod.weights(words)
    return int(words[w == w.min()].min())


def _inner_words(code: CssCode) -> np.ndarray:
    if "inner_words" not in code._shared:
        code._shared["inner_words"] = codes_mod.codewords(code.c2)
    return code._shared["inner_words"]


def _iso_columns(code: CssCode):
    """Sparse logical-basis columns for the current (u, v), one word at a
    time: the reference that the code-space support is checked against."""
    inner = _inner_words(code).tolist()
    scale = 1.0 / math.sqrt(len(inner))
    cols = []
    for rep in (0, code.x1):
        words = [w ^ rep for w in inner]
        signs = [-scale if (w & code.u).bit_count() & 1 else scale
                 for w in words]
        cols.append((np.array(words) ^ code.v,
                     np.array(signs, dtype=np.complex128)))
    return tuple(cols)


def isometry(code: CssCode) -> sim.BlockIsometry:
    if code._iso is None:
        code._iso = sim.BlockIsometry(code.n, _iso_columns(code))
    return code._iso


def logical_basis(code: CssCode) -> tuple[sim.StateVector, sim.StateVector]:
    out = []
    for idx, vals in _iso_columns(code):
        amps = np.zeros(1 << code.n, dtype=np.complex128)
        amps[idx] = vals
        out.append(sim.StateVector(code.n, amps, check=False))
    return out[0], out[1]


def _block_support(code: CssCode, m: int):
    """The code space of m blocks under the zero key, shared by every key
    of the code's qubit presentation: the register indices of shape
    (2, K) * m for K inner codewords, entry (bit_0, j_0, bit_1, j_1, ...)
    block 0 most significant, their one weight K^(-m/2), and the block-
    local index rows of shape (2, K), (bit, j) with j in inner-word order
    as _iso_columns orders them: the support of one block."""
    key = ("support", m)
    if key not in code._shared:
        inner = _inner_words(code)
        rows = np.array([inner, inner ^ code.x1])
        scale = 1.0 / math.sqrt(inner.size)
        support = np.zeros((), dtype=np.int64)
        weight = 1.0
        for _ in range(m):
            support = (support[..., None, None] << code.n) | rows
            weight *= scale
        code._shared[key] = (support, weight, rows)
    return code._shared[key]


def _frame_mask(part: int, n: int) -> int:
    """An n-bit word (a key part or one part of a block frame) as a
    block-local int mask, refused with ShapeError beyond n bits."""
    part = operator.index(part)
    if not 0 <= part < 1 << n:
        raise ShapeError(f"mask {part:#x} exceeds {n} bits")
    return part


def _z_signs(rows: np.ndarray, z: int) -> np.ndarray:
    """(-1)^(s.z) over the block rows s."""
    return 1 - 2 * sim._parity(rows & z)


def _framed_support(code: CssCode, m: int, frames):
    """_block_support under m block frames with the key folded in:
    X^x Z^z X^v Z^u is (-1)^(z.v) X^(x^v) Z^(z^u), the key (u, v) being
    the frame X^v Z^u on the zero-key encoding. Given frames[i] = (x, z)
    (None: identity frames), returns the support's register indices moved
    by the X masks, its weight times the blocks' signs (-1)^(z.v), and for
    each block whose z ^ u is not 0 its _z_signs, shaped to broadcast
    against the indices."""
    if frames is None:
        frames = [(0, 0)] * m
    elif len(frames) != m:
        raise ShapeError(f"need {m} frames, got {len(frames)}")
    n = code.n
    u, v = code.u, code.v
    support, weight, rows = _block_support(code, m)
    x_mask, factors = 0, []
    for i, (x, z) in enumerate(frames):
        x, z = _frame_mask(x, n), _frame_mask(z, n)
        x_mask = (x_mask << n) | (x ^ v)
        if (z & v).bit_count() & 1:
            weight = -weight
        if z ^ u:
            factors.append(_z_signs(rows, z ^ u).reshape(
                (1, 1) * i + rows.shape + (1, 1) * (m - 1 - i)))
    return support ^ x_mask, weight, factors


def encode_blocks(code: CssCode, logical_state: sim.StateVector,
                  frames: list[tuple] | None = None,
                  out: sim.StateVector | None = None) -> sim.StateVector:
    """Encode every wire into its own n-qubit block, wire w at qubits
    [w*n, (w+1)*n): one scatter of the weighted plaintext over the
    code-space support only. With frames, as in decode_blocks, block i is
    encoded under the Pauli X^x Z^z given by frames[i] = (x, z) in the
    same scatter, and the key is such a frame on every block
    (_framed_support). The register is new, or `out`, an m*n-qubit register
    that is zeroed and overwritten."""
    m = logical_state.num_qubits
    total = m * code.n
    if total > sim.MAX_QUBITS:
        raise CapacityError(
            f"{m} wires need {total} qubits (limit {sim.MAX_QUBITS})")
    if out is not None and out.num_qubits != total:
        raise ShapeError(
            f"{m} wires need a {total}-qubit register, got {out.num_qubits}")
    index, weight, factors = _framed_support(code, m, frames)
    terms = weight * logical_state.amps.reshape((2, 1) * m)
    for f in factors:
        terms = terms * f
    if out is None:
        out = sim.StateVector(total, np.zeros(1 << total, dtype=np.complex128),
                              check=False)
    else:
        out.amps.fill(0)
    out.amps[index] = terms
    return out


def decode_blocks(code: CssCode, physical_state: sim.StateVector,
                  frames: list[tuple] | None = None) -> sim.StateVector:
    """Inverse of encode_blocks, in one gather over the code-space support;
    the input is left as it is. With frames, block i carries the Pauli
    X^x Z^z given by frames[i] = (x, z), int masks (the coset leaders
    correct_errors returns, or the shift from this key to an evolved one),
    and is decoded against that Pauli times the encoder.
    Raises LeakageError when the weight outside the code space exceeds
    DECODE_LEAKAGE_TOL."""
    n = code.n
    if physical_state.num_qubits % n:
        raise ShapeError(
            f"{physical_state.num_qubits} qubits is not a multiple of n={n}")
    m = physical_state.num_qubits // n
    index, weight, factors = _framed_support(code, m, frames)
    terms = physical_state.amps.take(index)
    for f in factors:
        terms *= f
    logical = terms.sum(axis=tuple(range(1, 2 * m, 2))).reshape(-1)
    logical *= weight
    kept = float(np.vdot(logical, logical).real)
    leak = 1.0 - kept
    if leak > DECODE_LEAKAGE_TOL:
        raise LeakageError(f"weight {leak:.3e} outside the code space")
    logical /= math.sqrt(kept)
    return sim.StateVector(m, logical, check=False)


@dataclass(frozen=True)
class StabilizerSet:
    x_type: tuple[tuple[int, int], ...]
    z_type: tuple[tuple[int, int], ...]


def stabilizers(code: CssCode) -> StabilizerSet:
    """Signed generators as (int mask, sign bit): (-1)^(u.g) X^g for g
    spanning the inner code, (-1)^(h.v) Z^h for h spanning the outer
    code's dual."""
    xs = tuple((g, (g & code.u).bit_count() & 1) for g in code.c2.gen)
    zs = tuple((h, (h & code.v).bit_count() & 1) for h in code.c1.pchk)
    return StabilizerSet(x_type=xs, z_type=zs)


def _tables(code: CssCode) -> tuple[np.ndarray, np.ndarray]:
    """The bit-flip and phase-flip leader tables (codes.build_syndrome_table)
    of c1 and of the dual of c2: their syndromes are the parities against
    the rows of c1.pchk and of c2.gen."""
    if "tables" not in code._shared:
        x_table = codes_mod.build_syndrome_table(code.c1, code.t)
        z_table = codes_mod.build_syndrome_table(codes_mod.dual(code.c2), code.t)
        code._shared["tables"] = (x_table, z_table)
    return code._shared["tables"]


def _x_leader(code: CssCode, y: int) -> int | None:
    """The bit-flip coset leader of the n-bit word y read under the key's
    v, or None beyond the table's radius."""
    y ^= code.v
    syndrome = 0
    for h in code.c1.pchk:
        syndrome = (syndrome << 1) | ((y & h).bit_count() & 1)
    leader = int(_tables(code)[0][syndrome])
    return None if leader < 0 else leader


def correct_errors(code: CssCode, state: sim.StateVector, block: int,
                   index: int | None = None) -> tuple[int, int]:
    """Measure the signed stabilizers of one block and return its coset
    leaders (x_leader, z_leader): up to a stabilizer, the block carries
    the error X^x_leader Z^z_leader. The state is left as it is; decode
    under the leaders (decode_blocks with frames) instead of applying them.

    The input must carry a definite Pauli error on the block (the only way
    errors enter this package), which makes both syndromes deterministic:
    the bit-flip syndrome is read off one occupied basis index (`index`,
    or sim.first_occupied when None), the phase-flip syndrome off
    amplitude ratios within a coset, which an X error only permutes. Each
    syndrome bit is the parity of a block-local int mask: the block's bits
    under v against the rows of c1.pchk, and the sign of X^g against u.g
    for the rows g of c2.gen."""
    n = code.n
    start = block * n
    if start < 0 or start + n > state.num_qubits:
        raise ShapeError(f"block {block} out of range")
    post = state.num_qubits - start - n

    jidx = sim.first_occupied(state) if index is None else index
    x_leader = _x_leader(code, (jidx >> post) & ((1 << n) - 1))
    if x_leader is None:
        raise DecodeFailureError(
            f"bit-flip syndrome outside radius t={code.t} on block {block}")

    amps = state.amps
    ref = amps.item(jidx)
    if ref == 0:
        raise ShapeError(f"basis index {jidx} is not occupied")
    z_syn = 0
    for g in code.c2.gen:
        ratio = amps.item(jidx ^ (g << post)) / ref
        if abs(abs(ratio) - 1.0) > 1e-6 or abs(ratio.imag) > 1e-6:
            raise DecodeFailureError(
                f"block {block} does not carry a definite Pauli error")
        bit = (ratio.real < 0) ^ (g & code.u).bit_count() & 1
        z_syn = (z_syn << 1) | bit
    z_leader = int(_tables(code)[1][z_syn])
    if z_leader < 0:
        raise DecodeFailureError(
            f"phase-flip syndrome outside radius t={code.t} on block {block}")
    return x_leader, z_leader


@functools.lru_cache(maxsize=8)
def base_code(c1: LinearCode, c2: LinearCode) -> CssCode:
    """The pair's code under the zero key, built once per pair (the cache
    keeps the last few pairs, compared by identity). Family codes over the
    pair are its with_key siblings, so they share its t, x1 and caches;
    scrambled codes are its permuted views."""
    return build(c1, c2, 0, 0)


# bit b of every byte value, shape (256, 8)
_BYTE_BITS = (np.arange(256)[:, None] >> np.arange(8)) & 1


def _permuted(words: np.ndarray, p) -> np.ndarray:
    """The int64 words times the permutation matrix P (int rows): bit
    n-1-i becomes row i's one bit. Each byte of the words is looked up in
    the table of its moved bits, the product of the byte's bits with its
    rows of P. A -1 entry (no leader) stays -1."""
    rows = np.array(p[::-1], dtype=np.int64)  # row n-1-b moves bit b
    out = None
    for lo in range(0, rows.size, 8):
        part = rows[lo:lo + 8]
        table = _BYTE_BITS[:1 << part.size, :part.size] @ part
        moved = table[(words >> lo) & (table.size - 1)]
        out = moved if out is None else out | moved
    return np.where(words < 0, -1, out)


def scrambled(c1: LinearCode, c2: LinearCode, s, p) -> CssCode:
    """The pair's base code with its qubits permuted by P: what build makes
    of the scrambled pair (S C1 P, C2 P) under u = v = 0, as S only changes
    how the published c1.gen is written. One permutation moves every word
    of the base code: the check rows, the readout row, the inner words,
    the x1 coset (whose lightest word is the view's x1) and the leaders of
    both tables, which P keeps indexed by the same syndromes."""
    base = base_code(c1, c2)
    n, k1, k2 = c1.n, c1.k, c2.k
    inner = _inner_words(base)
    x_table, z_table = _tables(base)
    rows = (*gf2.mat_mul(s, c1.gen), *c1.pchk, *c2.gen, *c2.pchk,
            base.x1_check)
    moved = _permuted(np.concatenate([np.array(rows, dtype=np.int64), inner,
                                      inner ^ base.x1, x_table, z_table]), p)
    rows = moved[:2 * n + 1].tolist()
    # where the inner words, the coset, the x table and the z table start
    a = 2 * n + 1
    b = a + inner.size
    c = b + inner.size
    d = c + x_table.size
    return CssCode(
        c1=LinearCode(n, k1, tuple(rows[:k1]), tuple(rows[k1:n])),
        c2=LinearCode(n, k2, tuple(rows[n:n + k2]), tuple(rows[n + k2:2 * n])),
        u=0, v=0, n=n, t=base.t, x1=_lightest(moved[b:c]),
        x1_check=rows[2 * n],
        _shared={"inner_words": moved[a:b], "tables": (moved[c:d], moved[d:])})


def magic_ancilla(code: CssCode) -> sim.StateVector:
    """Encoded (|0> + e^{i pi/4} |1>)/sqrt(2)."""
    plain = sim.StateVector(1, MAGIC_AMPS.copy(), check=False)
    return encode_blocks(code, plain)


def magic_ancilla_sparse(code: CssCode) -> tuple[np.ndarray, np.ndarray]:
    """Encoded (|0> + e^{i pi/4} |1>)/sqrt(2) as block indices and
    amplitudes, in _iso_columns' order: the order splice_ancilla's draw
    indexes."""
    index, weight, factors = _framed_support(code, 1, None)
    vals = np.full(index.shape, weight, dtype=np.complex128)
    for f in factors:
        vals *= f
    vals[1] *= MAGIC_PHASE
    vals /= math.sqrt(2.0)
    return index.reshape(-1), vals.reshape(-1)


def logical_readout(code: CssCode, y: int) -> int:
    """Classically correct an n-bit measurement record, an int mask read
    under the key's v, and return the logical bit it encodes: the parity
    of the corrected C1 word against the c2.pchk row that is odd on x1."""
    y = _frame_mask(y, code.n)
    leader = _x_leader(code, y)
    if leader is None:
        raise DecodeFailureError(
            f"measurement record outside radius t={code.t}")
    word = y ^ leader ^ code.v
    return (word & code.x1_check).bit_count() & 1


def _class_signature(idx_zero: np.ndarray, idx_one: np.ndarray,
                     s0: np.ndarray, s1: np.ndarray) -> tuple:
    """Canonical form of the encoded code space: each basis state is reduced
    to (sorted support, signs with the first forced positive), then the two
    reduced states are sorted. Quotients out per-state global sign and the
    zero/one labelling, leaving exactly the 2-dim subspace."""
    parts = []
    for idx, signs in ((idx_zero, s0), (idx_one, s1)):
        order = np.argsort(idx)
        sg = signs[order]
        sg = sg * sg[0]
        parts.append((tuple(idx[order].tolist()), tuple(sg.tolist())))
    parts.sort()
    return tuple(parts)


def family_signature(code: CssCode) -> tuple:
    """Class signature of this code's (u, v); two keys span the same encoded
    code space iff signatures match."""
    zero, one = _block_support(code, 1)[2]
    return _class_signature(zero ^ code.v, one ^ code.v,
                            _z_signs(zero, code.u), _z_signs(one, code.u))


def family_key_classes(c1: LinearCode, c2: LinearCode) -> dict[tuple, tuple]:
    """Map class signature -> first (u, v) reaching it, scanning keys in
    lexicographic order. Brute force, n <= 7 only."""
    n = c1.n
    if n > ENUMERATION_LIMIT:
        raise CapacityError(f"n={n} exceeds enumeration bound {ENUMERATION_LIMIT}")
    zero, one = _block_support(base_code(c1, c2), 1)[2]
    classes: dict[tuple, tuple] = {}
    for u in range(1 << n):
        s0, s1 = _z_signs(zero, u), _z_signs(one, u)
        for v in range(1 << n):
            sig = _class_signature(zero ^ v, one ^ v, s0, s1)
            if sig not in classes:
                classes[sig] = (u, v)
    return classes


def count_distinct_family_codes(c1: LinearCode, c2: LinearCode) -> int:
    return len(family_key_classes(c1, c2))


class KeyEvolver:
    """Closed-form (u, v) updates for the transversal operations.

    The rules hold for base pairs whose inner code is the dual of the outer
    one (C2 = C1^perp), as both builtin pairs are: transversal H swaps the
    roles of phase and shift, X then S-dagger folds the shift into the
    phase, and CNOT spreads the target's phase to the control and the
    control's shift to the target.

    Read with (u, v) as (z, x), the same rules move a Pauli frame
    X^x Z^z through these gates: X^x Z^z on a block keyed (u, v) is, up
    to a global phase, the block keyed (u ^ z, v ^ x), so an error frame
    evolves as a key shift does.

    The rules take u and v as int masks and return int masks.
    """

    @staticmethod
    def h_rule(u, v) -> tuple:
        return v, u

    @staticmethod
    def sdgx_rule(u, v) -> tuple:
        return u ^ v, v

    @staticmethod
    def cnot_rule(key_c, key_t) -> tuple[tuple, tuple]:
        (uc, vc), (ut, vt) = key_c, key_t
        return (uc ^ ut, vc), (ut, vc ^ vt)
