"""CSS codes as qubit presentations, and Pauli frames beside them.

A code encodes one logical qubit into n physical qubits. The logical zero
is the uniform superposition of the inner code's codewords; the logical
one is that of the coset x1 + C2, x1 the coset's lightest word (lowest
among ties).

Every n-bit word (x1, Pauli frames, check rows, inner codewords, coset
leaders, measurement records) is a Python int mask or an int64 array
entry, bit n-1-j for qubit j, as in sim.apply_block_pauli and the codes
module.

A code holds no key. A block carries a Pauli frame X^x Z^z, given as the
pair of int masks (x, z), and every routine here takes frames and words
only: encode_blocks and decode_blocks scatter and gather over the one
code-space support of the presentation (_block_support) moved by the
frames, correct_errors reads a block's frame off its syndromes, and
logical_readout reads a record under the zero frame. A symmetric family
key (u, v) is the frame (v, u), so the caller passes it like any other
frame; KeyEvolver's closed-form rules move frames and keys alike through
the transversal operations.

The code space a frame moves the code onto is named by the frame's
syndrome pair (frame_class), so a pair has 2^(len(c1.pchk) + len(c2.gen))
key classes, counted and listed in closed form at every n.

base_code builds each named pair's code once, whole (rows, t, x1, inner
words, both leader tables); scrambled views move it by P. CssCode._cache
holds only what use builds: a support per block count, the magic ancilla.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from . import codes as codes_mod
from . import gf2, sim
from .codes import LinearCode
from .errors import (
    CapacityError,
    DecodeFailureError,
    InvalidPairError,
    LeakageError,
    ParameterError,
    ShapeError,
)

DECODE_LEAKAGE_TOL = 1e-9

MAGIC_PHASE = np.exp(1j * np.pi / 4)
MAGIC_AMPS = np.array([1.0, MAGIC_PHASE], dtype=np.complex128) / math.sqrt(2.0)


@dataclass(eq=False)
class CssCode:
    c1: LinearCode
    c2: LinearCode
    n: int
    t: int
    x1: int
    # the readout row: a row of c2.pchk odd on x1, so a word of C1 lies in
    # the x1 coset exactly when its parity against this row is odd
    x1_check: int
    # the inner codewords (codes.codewords order) and the leader tables
    # (codes.build_syndrome_table) of c1 and of c2's dual, indexed by the
    # parities against c1.pchk and against c2.gen
    inner: np.ndarray = field(repr=False)
    x_table: np.ndarray = field(repr=False)
    z_table: np.ndarray = field(repr=False)
    # the zero frame's magic ancilla ("magic") and the code-space support
    # ("support", m) of each block count m, built on first use
    _cache: dict = field(default_factory=dict, repr=False)


def build(c1: LinearCode, c2: LinearCode) -> CssCode:
    """Validate the pair and assemble a code with t = floor((d-1)/2)."""
    if c1.n != c2.n:
        raise InvalidPairError(f"length mismatch {c1.n} vs {c2.n}")
    if not codes_mod.is_subcode(c2, c1):
        raise InvalidPairError("inner code is not contained in the outer code")
    if c1.k - c2.k != 1:
        raise InvalidPairError(
            f"dimension gap {c1.k - c2.k}, need exactly 1 logical qubit")
    d = min(codes_mod.min_distance(c1),
            codes_mod.min_distance(codes_mod.dual(c2)))
    t = (d - 1) // 2
    # a check of C2 that C1 fails is odd on x1, as it is even on all of C2
    check = next(h for h in c2.pchk
                 if any((h & g).bit_count() & 1 for g in c1.gen))
    cw1 = codes_mod.codewords(c1)
    x1 = _lightest(cw1[gf2.weights(cw1 & check) & 1 == 1])
    return CssCode(
        c1=c1, c2=c2, n=c1.n, t=t, x1=x1, x1_check=check,
        inner=codes_mod.codewords(c2),
        x_table=codes_mod.build_syndrome_table(c1, t),
        z_table=codes_mod.build_syndrome_table(codes_mod.dual(c2), t))


def _lightest(words: np.ndarray) -> int:
    """The word of least weight, the lowest among ties."""
    w = gf2.weights(words)
    return int(words[w == w.min()].min())


def _block_support(code: CssCode, m: int):
    """The code space of m blocks under the zero frame: the register
    indices of shape (2, K) * m for K inner codewords, entry (bit_0, j_0,
    bit_1, j_1, ...) block 0 most significant, their one weight K^(-m/2),
    and the block-local index rows of shape (2, K), (bit, j) with j in
    codes.codewords order: the support of one block."""
    key = ("support", m)
    if key not in code._cache:
        inner = code.inner
        rows = np.array([inner, inner ^ code.x1])
        scale = 1.0 / math.sqrt(inner.size)
        support = np.zeros((), dtype=np.int64)
        weight = 1.0
        for _ in range(m):
            support = (support[..., None, None] << code.n) | rows
            weight *= scale
        code._cache[key] = (support, weight, rows)
    return code._cache[key]


def _frame_mask(part: int, n: int) -> int:
    """An n-bit word (one part of a block frame, or a record) as a
    block-local int mask, refused with ShapeError beyond n bits."""
    part = operator.index(part)
    if not 0 <= part < 1 << n:
        raise ShapeError(f"mask {part:#x} exceeds {n} bits")
    return part


def _z_signs(rows: np.ndarray, z: int) -> np.ndarray:
    """(-1)^(s.z) over the block rows s."""
    return 1 - 2 * (gf2.weights(rows & z) & 1)


def _framed_support(code: CssCode, m: int, frames):
    """_block_support under m block frames X^x Z^z, frames[i] = (x, z)
    (None: identity frames): the support's register indices moved by the
    X masks, its weight, and for each block whose z is not 0 its _z_signs,
    shaped to broadcast against the indices."""
    if frames is None:
        frames = [(0, 0)] * m
    elif len(frames) != m:
        raise ShapeError(f"need {m} frames, got {len(frames)}")
    n = code.n
    support, weight, rows = _block_support(code, m)
    x_mask, factors = 0, []
    for i, (x, z) in enumerate(frames):
        x, z = _frame_mask(x, n), _frame_mask(z, n)
        x_mask = (x_mask << n) | x
        if z:
            factors.append(_z_signs(rows, z).reshape(
                (1, 1) * i + rows.shape + (1, 1) * (m - 1 - i)))
    return support ^ x_mask, weight, factors


def encode_blocks(code: CssCode, logical_state: sim.StateVector,
                  frames: list[tuple] | None = None,
                  out: sim.StateVector | None = None) -> sim.StateVector:
    """Encode every wire into its own n-qubit block, wire w at qubits
    [w*n, (w+1)*n): one scatter of the weighted plaintext over the
    code-space support only. With frames, as in decode_blocks, block i is
    encoded under the Pauli X^x Z^z given by frames[i] = (x, z) in the
    same scatter (_framed_support). The register is new, or `out`, an
    m*n-qubit register that is zeroed and overwritten."""
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
    correct_errors returns, or a symmetric key's evolved (v, u)), and is
    decoded against that Pauli times the encoder.
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


def _syndrome(word: int, rows) -> int:
    """The parities of the n-bit word against the rows, the first row's
    the most significant bit."""
    syndrome = 0
    for h in rows:
        syndrome = (syndrome << 1) | ((word & h).bit_count() & 1)
    return syndrome


def _x_leader(code: CssCode, y: int) -> int | None:
    """The bit-flip coset leader of the n-bit word y, or None beyond the
    table's radius."""
    leader = int(code.x_table[_syndrome(y, code.c1.pchk)])
    return None if leader < 0 else leader


def correct_errors(code: CssCode, state: sim.StateVector, block: int,
                   index: int | None = None) -> tuple[int, int]:
    """Measure the stabilizers of one block and return its coset leaders
    (x_leader, z_leader): up to a stabilizer, the block carries the frame
    X^x_leader Z^z_leader. The state is left as it is; decode
    under the leaders (decode_blocks with frames) instead of applying them.

    The input must carry a definite Pauli error on the block (the only way
    errors enter this package), which makes both syndromes deterministic:
    the bit-flip syndrome is read off one occupied basis index (`index`,
    or sim.first_occupied when None), the phase-flip syndrome off
    amplitude ratios within a coset, which an X error only permutes. Each
    syndrome bit is the parity of a block-local int mask: the block's bits
    against the rows of c1.pchk, and the sign of X^g for the rows g of
    c2.gen."""
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
        z_syn = (z_syn << 1) | (ratio.real < 0)
    z_leader = int(code.z_table[z_syn])
    if z_leader < 0:
        raise DecodeFailureError(
            f"phase-flip syndrome outside radius t={code.t} on block {block}")
    return x_leader, z_leader


# each named base pair's outer code (codes.builtin_codes); its inner code
# is the outer code's dual
BASE_PAIRS = {"steane": "hamming74", "golay": "golay2312"}


@functools.cache
def base_code(name: str) -> CssCode:
    """The named pair's code (C1, C1^perp), built once per process. Every
    family key over the pair uses it; scrambled codes are its permuted
    views."""
    if name not in BASE_PAIRS:
        raise ParameterError(f"unknown base pair {name!r}")
    c1 = codes_mod.builtin_codes()[BASE_PAIRS[name]]
    return build(c1, codes_mod.dual(c1))


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


def scrambled(base: CssCode, s, p) -> CssCode:
    """The base code with its qubits permuted by P: what build makes of
    the scrambled pair (S C1 P, C2 P), as S only changes how the published
    c1.gen is written. One permutation moves every word of the base code:
    the check rows, the readout row, the inner words, the x1 coset (whose
    lightest word is the view's x1) and the leaders of both tables, which
    P keeps indexed by the same syndromes."""
    c1, c2, inner = base.c1, base.c2, base.inner
    n, k1, k2 = base.n, c1.k, c2.k
    rows = (*gf2.mat_mul(s, c1.gen), *c1.pchk, *c2.gen, *c2.pchk,
            base.x1_check)
    moved = _permuted(np.concatenate([np.array(rows, dtype=np.int64), inner,
                                      inner ^ base.x1, base.x_table,
                                      base.z_table]), p)
    rows = moved[:2 * n + 1].tolist()
    # where the inner words, the coset, the x table and the z table start
    a = 2 * n + 1
    b = a + inner.size
    c = b + inner.size
    d = c + base.x_table.size
    return CssCode(
        c1=LinearCode(n, k1, tuple(rows[:k1]), tuple(rows[k1:n])),
        c2=LinearCode(n, k2, tuple(rows[n:n + k2]), tuple(rows[n + k2:2 * n])),
        n=n, t=base.t, x1=_lightest(moved[b:c]), x1_check=rows[2 * n],
        inner=moved[a:b], x_table=moved[c:d], z_table=moved[d:])


def magic_ancilla_sparse(code: CssCode,
                         frame: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Encoded (|0> + e^{i pi/4} |1>)/sqrt(2) under the frame (x, z) as
    block indices and amplitudes, the logical zero's support first, each
    in codes.codewords order: the order splice_ancilla's draw indexes.
    Both arrays are read-only, since ancilla pools share them."""
    index, weight, factors = _framed_support(code, 1, [frame])
    vals = np.full(index.shape, weight, dtype=np.complex128)
    for f in factors:
        vals *= f
    vals[1] *= MAGIC_PHASE
    vals /= math.sqrt(2.0)
    pair = index.reshape(-1), vals.reshape(-1)
    for a in pair:
        a.setflags(write=False)
    return pair


def zero_frame_magic(code: CssCode) -> tuple[np.ndarray, np.ndarray]:
    """magic_ancilla_sparse(code, (0, 0)), built once per code: the
    asymmetric scheme's evaluator makes this ancilla for every T gadget."""
    if "magic" not in code._cache:
        code._cache["magic"] = magic_ancilla_sparse(code, (0, 0))
    return code._cache["magic"]


def logical_readout(code: CssCode, y: int) -> int:
    """Classically correct an n-bit measurement record, an int mask read
    under the zero frame, and return the logical bit it encodes: the
    parity of the corrected C1 word against the c2.pchk row that is odd
    on x1."""
    y = _frame_mask(y, code.n)
    leader = _x_leader(code, y)
    if leader is None:
        raise DecodeFailureError(
            f"measurement record outside radius t={code.t}")
    return ((y ^ leader) & code.x1_check).bit_count() & 1


def frame_class(code: CssCode, frame: tuple) -> tuple[int, int]:
    """The code space a frame X^x Z^z moves the code onto, as its syndrome
    pair (x against c1.pchk, z against c2.gen). A Pauli maps the code space
    onto itself iff it commutes with every stabilizer, so two frames give
    the same code space iff their syndrome pairs match."""
    x, z = frame
    return _syndrome(x, code.c1.pchk), _syndrome(z, code.c2.gen)


def _coset_floors(rows, n: int) -> list[int]:
    """The lowest word of each coset of the span of the n-bit rows,
    ascending: the words that are 0 at every pivot column of the span's
    echelon form. Any other word of a coset is larger, at the highest pivot
    where the two differ."""
    _, pivots = gf2.row_echelon(rows, n)
    words = [0]
    for c in reversed(range(n)):  # bits in ascending order
        if c not in pivots:
            words += [w | 1 << (n - 1 - c) for w in words]
    return words


def family_key_classes(code: CssCode) -> Iterator[tuple[int, int]]:
    """The lowest key (u, v) of each code-space class of the code, lazily,
    in lexicographic (u, v) order: the lowest u of each z-syndrome (a coset
    of C2's dual) crossed with the lowest v of each x-syndrome (a coset of
    C1), u-major."""
    return itertools.product(_coset_floors(code.c2.pchk, code.n),
                             _coset_floors(code.c1.gen, code.n))


def count_distinct_family_codes(code: CssCode) -> int:
    """The number of code-space classes of the code: its syndrome pairs."""
    return 1 << (len(code.c1.pchk) + len(code.c2.gen))


class KeyEvolver:
    """Closed-form (u, v) updates for the transversal operations.

    The rules hold for base pairs whose inner code is the dual of the outer
    one (C2 = C1^perp), as base_code builds every pair: transversal H swaps the
    roles of phase and shift, X then S-dagger folds the shift into the
    phase, and CNOT spreads the target's phase to the control and the
    control's shift to the target.

    A key (u, v) is the frame X^v Z^u, so read with (u, v) as (z, x) the
    same rules move any Pauli frame X^x Z^z through these gates.

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
