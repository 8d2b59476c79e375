"""Exact dense state-vector simulator and the logical circuit format.

Conventions, fixed once:
  - wire 0 is the most significant bit of the amplitude index;
  - at most 24 qubits (three 7-qubit blocks, or one 23-qubit block, fit);
  - gates and block kernels mutate the StateVector in place and return
    it. No kernel rebinds `state.amps`, so an array read from it before
    a call holds the result after it. The block kernels work a chunk of
    _CHUNK = 2^14 amplitudes (256 KiB) at a time, and their scratch is
    never a register-sized array: it is a few chunks of one module-level
    arena, allocated once at import and reused by every call, so a call
    pages in no fresh memory. Each kernel keeps to fixed rows of the
    arena (see _ARENA), so a kernel that calls another never shares
    scratch with it. The kernels are therefore not reentrant: the
    package is single-threaded. Besides the arena, transversal_cnot
    keeps plans: the row index of its tile, which depends on the shape
    alone, built on the first call of a shape and kept in an lru_cache
    of at most _PLANS entries. A plan is at most a chunk of intp
    (128 KiB), so the plans hold at most _PLANS chunks (1 MiB);
  - `amps` is always C-contiguous, so reshapes are views.

The per-qubit `apply_gate` and `measure_z` are the reference path; the
block kernels (`transversal_h`, `transversal_cnot`, `splice_ancilla`,
`apply_block_pauli`) act on a whole n-qubit block at once and are tested
against that path. `splice_ancilla` runs the whole T gadget, its X.Sdg
correction folded into its scatter.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from . import gf2
from .errors import (
    CapacityError,
    CircuitParseError,
    IsometryError,
    ShapeError,
    UnknownGateError,
    WireError,
)

MAX_QUBITS = 24
_CHUNK_BITS = 14
_CHUNK = 1 << _CHUNK_BITS  # amplitudes per step of the in-place kernels
_INDEX = np.arange(_CHUNK, dtype=np.intp)  # gather index of a chunk
# The block kernels' scratch arena: rows 0-3 hold amplitudes (_STAGE) and
# row 4 two rows of gather indices (_INDICES). transversal_h and
# first_occupied take stage 0; transversal_cnot stage 0-1 and indices 1;
# apply_block_pauli stage 0-1, its Z sign table and the negated table in
# stage 2-3, and indices 0; splice_ancilla stage 0-2 (gather, weights,
# phases) and indices 0-1; sample_block, which splice_ancilla calls, none.
_ARENA = np.empty((5, _CHUNK), dtype=np.complex128)
_STAGE = _ARENA[:4]
_INDICES = _ARENA[4:].view(np.intp).reshape(2, _CHUNK)
_SQRT2 = math.sqrt(2.0)
_PLANS = 8  # row-index plans transversal_cnot keeps

GATE_1Q = {
    "H": np.array([[1, 1], [1, -1]], dtype=np.complex128) / _SQRT2,
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "Z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
    "S": np.array([[1, 0], [0, 1j]], dtype=np.complex128),
    "Sdg": np.array([[1, 0], [0, -1j]], dtype=np.complex128),
    "T": np.array([[1, 0], [0, np.exp(1j * np.pi / 4)]], dtype=np.complex128),
    "Tdg": np.array([[1, 0], [0, np.exp(-1j * np.pi / 4)]], dtype=np.complex128),
}

LOGICAL_GATES = ("H", "CNOT", "T")


class StateVector:
    """Pure state over num_qubits qubits; amps has 2^num_qubits entries."""

    __slots__ = ("num_qubits", "amps")

    def __init__(self, num_qubits: int, amps, check: bool = True):
        if num_qubits < 0 or num_qubits > MAX_QUBITS:
            raise CapacityError(f"{num_qubits} qubits outside [0, {MAX_QUBITS}]")
        amps = np.ascontiguousarray(amps, dtype=np.complex128)
        if amps.shape != (1 << num_qubits,):
            raise ShapeError(
                f"expected {1 << num_qubits} amplitudes, got {amps.shape}")
        if check:
            norm = float(np.vdot(amps, amps).real)
            if not abs(norm - 1.0) <= 1e-9:  # also NaN
                raise ShapeError(f"state norm {norm} is not 1")
        self.num_qubits = num_qubits
        self.amps = amps

    def copy(self) -> "StateVector":
        return StateVector(self.num_qubits, self.amps.copy(), check=False)

    def norm(self) -> float:
        return float(np.vdot(self.amps, self.amps).real)


def basis_state(m: int, label: str) -> StateVector:
    if not 0 <= m <= MAX_QUBITS:
        raise CapacityError(f"{m} qubits outside [0, {MAX_QUBITS}]")
    if len(label) != m or any(ch not in "01" for ch in label):
        raise ShapeError(f"label {label!r} is not an {m}-bit string")
    amps = np.zeros(1 << m, dtype=np.complex128)
    amps[int(label, 2) if m else 0] = 1.0
    return StateVector(m, amps, check=False)


@dataclass(frozen=True)
class GateOp:
    kind: str
    wires: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "wires",
                           tuple(operator.index(w) for w in self.wires))
        if self.kind == "CNOT":
            if len(self.wires) != 2:
                raise WireError("CNOT takes two wires")
            if self.wires[0] == self.wires[1]:
                raise WireError(f"CNOT wires must be distinct, got {self.wires}")
        elif self.kind in GATE_1Q:
            if len(self.wires) != 1:
                raise WireError(f"{self.kind} takes one wire")
        else:
            raise WireError(f"unknown gate kind {self.kind!r}")
        if any(w < 0 for w in self.wires):
            raise WireError(f"negative wire in {self.wires}")


def _view1(amps: np.ndarray, w: int) -> np.ndarray:
    return amps.reshape(1 << w, 2, -1)


def _apply_single(amps: np.ndarray, m: int, w: int, mat: np.ndarray) -> None:
    if not 0 <= w < m:
        raise WireError(f"wire {w} out of range for {m} qubits")
    view = _view1(amps, w)
    if mat[0, 1] == 0 and mat[1, 0] == 0:
        if mat[0, 0] != 1:
            view[:, 0, :] *= mat[0, 0]
        if mat[1, 1] != 1:
            view[:, 1, :] *= mat[1, 1]
        return
    a0 = view[:, 0, :].copy()
    a1 = view[:, 1, :].copy()
    view[:, 0, :] = mat[0, 0] * a0 + mat[0, 1] * a1
    view[:, 1, :] = mat[1, 0] * a0 + mat[1, 1] * a1


def _apply_cnot(amps: np.ndarray, m: int, c: int, t: int) -> None:
    if not (0 <= c < m and 0 <= t < m):
        raise WireError(f"CNOT wires ({c},{t}) out of range for {m} qubits")
    lo, hi = (c, t) if c < t else (t, c)
    view = amps.reshape(1 << lo, 2, 1 << (hi - lo - 1), 2, -1)
    if c < t:
        tmp = view[:, 1, :, 0, :].copy()
        view[:, 1, :, 0, :] = view[:, 1, :, 1, :]
        view[:, 1, :, 1, :] = tmp
    else:
        tmp = view[:, 0, :, 1, :].copy()
        view[:, 0, :, 1, :] = view[:, 1, :, 1, :]
        view[:, 1, :, 1, :] = tmp


def apply_gate(state: StateVector, g: GateOp) -> StateVector:
    if g.kind == "CNOT":
        _apply_cnot(state.amps, state.num_qubits, g.wires[0], g.wires[1])
    else:
        _apply_single(state.amps, state.num_qubits, g.wires[0], GATE_1Q[g.kind])
    return state


def measure_z(state: StateVector, wire: int,
              rng: np.random.Generator) -> tuple[int, StateVector]:
    """Projective Z measurement; collapses in place and renormalizes."""
    if not 0 <= wire < state.num_qubits:
        raise WireError(f"wire {wire} out of range")
    view = _view1(state.amps, wire)
    p1 = float(np.sum(np.abs(view[:, 1, :]) ** 2))
    bit = 1 if rng.random() < p1 else 0
    p = p1 if bit else 1.0 - p1
    view[:, 1 - bit, :] = 0
    state.amps /= math.sqrt(p)
    return bit, state


def fidelity(a: StateVector, b: StateVector) -> float:
    if a.num_qubits != b.num_qubits:
        raise ShapeError(f"qubit counts differ: {a.num_qubits} vs {b.num_qubits}")
    return float(abs(np.vdot(a.amps, b.amps)) ** 2)


def kron_states(a: StateVector, b: StateVector) -> StateVector:
    m = a.num_qubits + b.num_qubits
    if m > MAX_QUBITS:
        raise CapacityError(f"{m} qubits exceeds {MAX_QUBITS}")
    return StateVector(m, np.kron(a.amps, b.amps), check=False)


def permute_wires(state: StateVector, perm: list[int]) -> StateVector:
    """Reorder wires so that new wire i is old wire perm[i]."""
    m = state.num_qubits
    if sorted(perm) != list(range(m)):
        raise WireError(f"{perm} is not a permutation of 0..{m - 1}")
    amps = state.amps.reshape([2] * m).transpose(perm).reshape(-1)
    return StateVector(m, np.ascontiguousarray(amps), check=False)


class BlockIsometry:
    """Sparse 2-column isometry sending one wire into an n-qubit block.

    Column b is stored as (indices, values) over the 2^n block basis, in
    the order given, with no index repeated. Columns must be orthonormal
    (Gram deviation below 1e-10)."""

    __slots__ = ("block_qubits", "cols")

    def __init__(self, block_qubits: int, cols):
        if len(cols) != 2:
            raise IsometryError("an encoding isometry needs exactly 2 columns")
        parsed = []
        for idx, vals in cols:
            idx = np.asarray(idx, dtype=np.int64)
            vals = np.asarray(vals, dtype=np.complex128)
            if idx.shape != vals.shape or idx.ndim != 1:
                raise IsometryError("column index/value shape mismatch")
            parsed.append((idx, vals))
        # both columns dense over the union of their indices
        union, where = np.unique(np.concatenate([parsed[0][0], parsed[1][0]]),
                                 return_inverse=True)
        dense = np.zeros((2, union.size), dtype=np.complex128)
        k = parsed[0][0].size
        for b, part in enumerate((where[:k], where[k:])):
            if np.bincount(part, minlength=union.size).max(initial=0) > 1:
                raise IsometryError(f"column {b} repeats an index")
            dense[b, part] = parsed[b][1]
        for i, j in itertools.product(range(2), range(2)):
            g = complex(np.vdot(dense[i], dense[j]))
            want = 1.0 if i == j else 0.0
            if abs(g - want) > 1e-10:
                raise IsometryError(
                    f"column Gram [{i},{j}] = {g}, expected {want}")
        self.block_qubits = block_qubits
        self.cols = tuple(parsed)


def sparse_vdot(ia, va, ib, vb) -> complex:
    """<a|b> for sparse vectors given as (indices, values) pairs."""
    common, ka, kb = np.intersect1d(ia, ib, return_indices=True)
    if common.size == 0:
        return 0.0
    return complex(np.vdot(va[ka], vb[kb]))


def apply_block_isometry(state: StateVector, wire: int,
                         iso: BlockIsometry) -> StateVector:
    """Replace `wire` by an n-qubit block; all other wires untouched.
    The per-block reference for css.encode_blocks."""
    m = state.num_qubits
    if not 0 <= wire < m:
        raise WireError(f"wire {wire} out of range")
    n = iso.block_qubits
    m2 = m - 1 + n
    if m2 > MAX_QUBITS:
        raise CapacityError(f"{m2} qubits exceeds {MAX_QUBITS}")
    src = state.amps.reshape(1 << wire, 2, -1)
    out = np.zeros((1 << wire, 1 << n, src.shape[2]), dtype=np.complex128)
    for b in range(2):
        idx, vals = iso.cols[b]
        out[:, idx, :] += vals[None, :, None] * src[:, b, :][:, None, :]
    return StateVector(m2, out.reshape(-1), check=False)


def contract_block_isometry(state: StateVector, start: int,
                            iso: BlockIsometry, x_mask: int = 0,
                            z_mask: int = 0) -> tuple[StateVector, float]:
    """Inverse of apply_block_isometry on the block at qubits
    [start, start+n), taken against X^x Z^z V rather than the isometry V
    itself; the masks are block-local, as in apply_block_pauli. Column
    entry j of X^x Z^z V sits at index j ^ x_mask and is negated where
    popcount(j & z_mask) is odd, so the contraction gathers at idx ^ x_mask
    and flips those signs. Returns (smaller state, leaked weight outside
    the column span). The result is renormalized. The per-block reference
    for css.decode_blocks."""
    m = state.num_qubits
    n = iso.block_qubits
    if start < 0 or start + n > m:
        raise WireError(f"block [{start}, {start + n}) out of range")
    if not (0 <= x_mask < 1 << n and 0 <= z_mask < 1 << n):
        raise ShapeError(f"masks {x_mask:#x}, {z_mask:#x} exceed {n} bits")
    view = state.amps.reshape(1 << start, 1 << n, -1)
    out = np.empty((1 << start, 2, view.shape[2]), dtype=np.complex128)
    for b in range(2):
        idx, vals = iso.cols[b]
        weights = vals.conj() * (1 - 2 * (gf2.weights(idx & z_mask) & 1))
        out[:, b, :] = np.einsum("j,ajb->ab", weights, view[:, idx ^ x_mask, :])
    kept = float(np.sum(np.abs(out) ** 2))
    leakage = max(0.0, 1.0 - kept)
    if kept > 0:
        out /= math.sqrt(kept)
    return StateVector(m - n + 1, out.reshape(-1), check=False), leakage


def contract_block_state(state: StateVector, start: int, n: int,
                         idx, vals) -> tuple[StateVector, float]:
    """Project the block at [start, start+n) onto a fixed sparse block state
    and drop it; returns (smaller state, weight lost). Used to verify and
    discard unentangled ancilla blocks."""
    m = state.num_qubits
    if start < 0 or start + n > m:
        raise WireError(f"block [{start}, {start + n}) out of range")
    idx = np.asarray(idx, dtype=np.int64)
    vals = np.asarray(vals, dtype=np.complex128)
    view = state.amps.reshape(1 << start, 1 << n, -1)
    out = np.einsum("j,ajb->ab", vals.conj(), view[:, idx, :])
    kept = float(np.sum(np.abs(out) ** 2))
    lost = max(0.0, 1.0 - kept)
    if kept > 0:
        out /= math.sqrt(kept)
    return StateVector(m - n, out.reshape(-1), check=False), lost


def _block_cube(state: StateVector, start: int, n: int) -> np.ndarray:
    """(2^start, 2^n, rest) view of the block at qubits [start, start+n)."""
    if n < 1 or start < 0 or start + n > state.num_qubits:
        raise WireError(f"block [{start}, {start + n}) out of range for "
                        f"{state.num_qubits} qubits")
    return state.amps.reshape(1 << start, 1 << n, -1)


def _slabs(cube: np.ndarray, per: int, cap: int):
    """Views cube[p0:p1, :, q0:q1] that tile the (pre, k, post) array
    cube: whole rows while they fit, else column pieces of one row. Each
    slab has at most max(cap, per) elements once its middle axis is cut
    down to `per` entries."""
    pre, _, post = cube.shape
    rows = max(1, cap // (per * post))
    width = max(1, min(post, cap // per))
    for p0 in range(0, pre, rows):
        for q0 in range(0, post, width):
            yield cube[p0:p0 + rows, :, q0:q0 + width]


def _hadamard(k: int) -> np.ndarray:
    """Real dense H^(x)k, a symmetric 2^k x 2^k matrix."""
    mat = np.ones((1, 1))
    for _ in range(k):
        mat = np.kron(mat, GATE_1Q["H"].real)
    return mat


_H_CHUNK = 4  # qubits per dense Hadamard factor
_H_DENSE = {k: _hadamard(k) for k in range(1, _H_CHUNK + 1)}
# H^(x)k (x) I for axes with fewer than 16 floats per index: the floats are
# folded into the matrix so that each product has rows of useful length
_H_FOLDED = {(k, inner): np.kron(_H_DENSE[k], np.eye(inner))
             for k in _H_DENSE for inner in (2, 4, 8)}


def _h_factor(src: np.ndarray, out: np.ndarray) -> None:
    """out = H^(x)k along axis 1 of the (rows, 2^k, inner) float views."""
    rows, size, inner = src.shape
    k = size.bit_length() - 1
    if inner < 16:
        np.matmul(src.reshape(rows, -1), _H_FOLDED[k, inner],
                  out=out.reshape(rows, -1))
    else:
        np.matmul(_H_DENSE[k], src, out=out)


def transversal_h(state: StateVector, start: int, n: int) -> StateVector:
    """H on every qubit of the block at [start, start+n).

    H^(x)n is applied as dense H^(x)k factors on groups of at most
    _H_CHUNK qubits, each a real matrix product over the re/im-interleaved
    amplitudes, computed slab by slab into a chunk of scratch. A factor
    whose fibers (the block from its first qubit on, times everything
    after the block) fit in the scratch runs together with the later
    factors: each slab of whole fibers goes through all of them in turn,
    alternating between the slab and the scratch. Each earlier factor
    makes its own pass and copies every slab back."""
    start, n = map(operator.index, (start, n))
    cube = _block_cube(state, start, n).view(np.float64)
    _, size, inner = cube.shape
    cap = min(2 * _CHUNK, cube.size)  # floats of scratch
    buf = _STAGE[0].view(np.float64)[:cap]
    factors = [(o, min(_H_CHUNK, n - o)) for o in range(0, n, _H_CHUNK)]
    split = next((i for i, (o, _) in enumerate(factors)
                  if (size >> o) * inner <= cap), len(factors))

    def axes(o, k):  # (rows, 2^k, floats per index) of the factor at o
        return -1, 1 << k, (size >> (o + k)) * inner

    for o, k in factors[:split]:
        for slab in _slabs(cube.reshape(axes(o, k)), 1 << k, cap):
            out = buf[:slab.size].reshape(slab.shape)
            _h_factor(slab, out)
            np.copyto(slab, out)
    if split < len(factors):
        o0 = factors[split][0]
        fibers = cube.reshape(-1, size >> o0, inner)
        for slab in _slabs(fibers, size >> o0, cap):
            src, dst = slab, buf[:slab.size].reshape(slab.shape)
            for o, k in factors[split:]:
                _h_factor(src.reshape(axes(o, k)), dst.reshape(axes(o, k)))
                src, dst = dst, src
            if src is not slab:
                np.copyto(slab, src)
    return state


@functools.lru_cache(maxsize=_PLANS)
def _cnot_rows(n: int, group: int, forward: bool) -> np.ndarray:
    """The row index of transversal_cnot's first tile, of control values
    [0, group) and the whole n-qubit target block: row f reads row
    f ^ (control value << the target's bits). Writeable, as np.take
    copies a read-only index, and at most a chunk of intp."""
    rows = np.arange(group << n, dtype=np.intp)
    if forward:   # tile (control i, target b): f = i*size + b reads b ^ i
        base = rows >> n
    else:         # tile (target a, control j): f = a*group + j reads a ^ j
        base = (rows & (group - 1)) << (group.bit_length() - 1)
    return np.bitwise_xor(base, rows, out=base)


def transversal_cnot(state: StateVector, c0: int, t0: int,
                     n: int) -> StateVector:
    """CNOT from qubit c0+q onto qubit t0+q for every q < n, so the target
    block index t becomes t XOR c. In place, a tile at a time: a tile is
    a range of control values times the whole target block, at one index
    of the wires before and between the two blocks, in rows over a range
    of the wires after them, at most a chunk in all. The map keeps the
    control value, so it permutes the rows of each tile: one np.take
    gathers them into the stage (from a staged copy of the tile when the
    tile is not contiguous), and the stage is copied back. The first
    range's row index is planned once per shape (_cnot_rows); for a range
    of control values starting at o it is that index XOR a multiple of o."""
    c0, t0, n = map(operator.index, (c0, t0, n))
    _block_cube(state, c0, n)
    _block_cube(state, t0, n)
    if abs(c0 - t0) < n:
        raise WireError(f"blocks at {c0} and {t0} overlap (n={n})")
    lo, hi = sorted((c0, t0))
    size = 1 << n
    cube = state.amps.reshape(1 << lo, size, 1 << (hi - lo - n), size, -1)
    pre, _, mid, _, post = cube.shape
    width = min(post, max(1, _CHUNK >> n))  # amplitudes per row
    group = min(size, max(1, _CHUNK // (size * width)))  # control values
    rows = group * size
    base = _cnot_rows(n, group, c0 < t0)
    step = 1 if c0 < t0 else group
    shifted = _INDICES[1, :rows]
    out = _STAGE[0, :rows * width].reshape(rows, width)
    staged = _STAGE[1, :rows * width]
    for p, q, o, r in itertools.product(range(pre), range(mid),
                                        range(0, size, group),
                                        range(0, post, width)):
        ctrl = slice(o, o + group)
        tile = (cube[p, ctrl, q, :, r:r + width] if c0 < t0
                else cube[p, :, q, ctrl, r:r + width])
        src = tile
        if not tile.flags.c_contiguous:
            src = staged.reshape(tile.shape)
            np.copyto(src, tile)
        index = np.bitwise_xor(base, o * step, out=shifted) if o else base
        np.take(src.reshape(rows, width), index, axis=0, out=out,
                mode="clip")
        np.copyto(tile, out.reshape(tile.shape))
    return state


def _marginal(cube: np.ndarray) -> np.ndarray:
    """Probability weight of each index of axis 1 of the (pre, k, post)
    array cube, summed over the other two axes."""
    f = cube.view(np.float64)  # (pre, k, 2*post)
    if f.shape[2] >= 16:
        return np.einsum("pjq,pjq->j", f, f)
    flat = f.reshape(f.shape[0], -1)  # short rows: sum whole columns first
    return np.einsum("pk,pk->k", flat, flat).reshape(f.shape[1], -1).sum(1)


def sample_block(state: StateVector, start: int, n: int,
                 rng: np.random.Generator) -> tuple[int, float]:
    """Draw one basis index of the block at [start, start+n) from its
    marginal with a single random number. Returns the index and its
    weight, which is its probability: the state must be normalized
    (ShapeError otherwise).

    The marginal is summed over ranges of a chunk of block indices. Only
    the last range's marginal is kept, and the range the draw falls in is
    summed again if it is another one, so a 23-qubit block holds no
    register-sized marginal. The last range's cumulative sums are kept
    too, so with one range this is a plain cumsum and searchsorted."""
    cube = _block_cube(state, start, n)
    starts = range(0, 1 << n, _CHUNK)
    ends = []
    for j0 in starts:
        weights = _marginal(cube[:, j0:j0 + _CHUNK])
        sums = np.cumsum(weights)
        ends.append(sums[-1])
    ends = np.cumsum(ends)
    if abs(ends[-1] - 1.0) > 1e-9:
        raise ShapeError(f"state norm {ends[-1]} is not 1")
    target = rng.random() * ends[-1]
    i = int(np.searchsorted(ends, target, side="right"))
    if i != len(starts) - 1:
        weights = _marginal(cube[:, starts[i]:starts[i] + _CHUNK])
        sums = np.cumsum(weights)
    cum = sums + ends[i - 1] if i else sums
    j = int(np.searchsorted(cum, target, side="right"))
    return starts[i] + j, float(weights[j])


_MINUS_I_POWERS = np.array([1, -1j, -1, 1j])  # (-i)^k, the Sdg phase of k ones


def splice_ancilla(state: StateVector, start: int, n: int, a_idx, a_val,
                   readout, rng: np.random.Generator
                   ) -> tuple[str, int, StateVector]:
    """The T gadget on the data block at [start, start+n) in one kernel
    call, without building the joint register: a transversal CNOT from a
    product-factor ancilla onto the block, a Z measurement of the block,
    the readout of its record, and the X then Sdg correction on outcome
    1. The ancilla is the normalized sum_a a_val[a] |a_idx[a]> over at
    most _CHUNK distinct block indices (CapacityError otherwise).

    With record y the state is sum_a alpha_a |a> (x) |rest at y xor a>: the
    ancilla takes the data block's place. y is one draw from the XOR
    convolution of the two marginals, y = a xor d, with a drawn from
    |a_val|^2 as Generator.choice draws it (its cdf searched at one
    random double) and then d from the data block (sample_block).
    `readout` maps the n-bit record (block qubit 0 first) to the outcome
    before the register is touched, so a readout that raises leaves it
    as it was.

    The update is in place, slab by slab: the slices at y xor a_idx are
    gathered into at most a chunk of the stage, by one np.take along the
    block axis, weighted by the ancilla and normalized; the slab is
    zeroed, and they are scattered to a_idx on outcome 0, and on outcome
    1 to a_idx ^ (2^n - 1) times (-i)^popcount of that index: bit for
    bit the splice followed by a dense transversal X then Sdg, since the
    phase comes after the norm. With one slab its gather serves both the
    norm and the scatter; more slabs take a read-only first pass for the
    norm. Returns the record, the outcome and the state."""
    start, n = map(operator.index, (start, n))
    cube = _block_cube(state, start, n)
    per = a_idx.shape[0]
    if per > _CHUNK:
        raise CapacityError(f"{per} ancilla terms exceed {_CHUNK}")
    probs = np.abs(a_val) ** 2
    cdf = np.cumsum(probs / probs.sum())
    cdf /= cdf[-1]
    j = int(cdf.searchsorted(rng.random(), "right"))
    d, _ = sample_block(state, start, n, rng)
    y = int(a_idx[j]) ^ d
    bits = format(y, f"0{n}b")
    outcome = int(readout(bits))

    pre, size, post = cube.shape
    fit = 1 << ((_CHUNK // per).bit_length() - 1)  # a power of two
    rows, width = min(pre, max(1, fit // post)), min(post, fit)
    pieces = post // width
    # the cube in rows of `width` amplitudes: a slab's slices at y xor
    # a_idx are one np.take along axis 1 of `rows` whole rows of it
    lines = cube.reshape(pre, size * pieces, width)
    src = np.multiply(a_idx ^ y, pieces, out=_INDICES[0, :per])
    index = _INDICES[1, :per]
    got = _STAGE[0, :rows * per * width].reshape(rows, per, width)
    weights = _STAGE[1, :got.size].reshape(got.shape)
    np.copyto(weights, a_val[:, None])  # so that the weighting is flat
    dest = a_idx
    if outcome == 1:
        dest = a_idx ^ (size - 1)
        pop = gf2.weights(dest) & 3
        phase = _STAGE[2, :got.size].reshape(got.shape)
        np.copyto(phase, _MINUS_I_POWERS[pop][:, None])
    slabs = [(p, q) for p in range(0, pre, rows) for q in range(pieces)]

    def gather(p, q):  # the slab's slices at y xor a_idx, weighted
        np.take(lines[p:p + rows], np.add(src, q, out=index), axis=1,
                out=got, mode="clip")
        return np.multiply(got, weights, out=got)

    scale = 1 / math.sqrt(sum(float(np.vdot(g, g).real)
                              for g in itertools.starmap(gather, slabs)))
    for p, q in slabs:
        if len(slabs) > 1:  # else the stage still holds the one gather
            gather(p, q)
        got *= scale
        if outcome == 1:
            np.multiply(got, phase, out=got)
        slab = cube[p:p + rows, :, q * width:(q + 1) * width]
        slab[...] = 0
        slab[:, dest, :] = got
    return bits, outcome, state


def apply_block_pauli(state: StateVector, start: int, n: int,
                      x_mask: int, z_mask: int) -> StateVector:
    """Apply Z^z then X^x on the block at qubits [start, start+n), with
    masks given as block-local integers (bit n-1-j of the mask acts on the
    j-th qubit of the block, matching index arithmetic).

    new[i ^ x] = (-1)^popcount(i & z) * old[i]: the sign belongs to the
    source index. One in-place pass, chunk by chunk, with X and Z the
    masks moved to the register bits: chunk k pairs with chunk
    k ^ (X >> _CHUNK_BITS), and each chunk of a pair is staged, copied
    into scratch times the Z signs of its own indices: the parity of
    k & (Z >> _CHUNK_BITS) times one flat table for Z's bits inside a
    chunk, built by doubling before the pass and negated once if Z has
    bits above the chunk, so that no multiply broadcasts (a broadcasting
    ufunc takes a buffer from malloc on every call). Then the low bits
    of X are one np.take from the stage straight into the partner chunk,
    in rows as wide as X's lowest set bit allows (mode "clip" writes
    straight into `out`, which the default mode buffers). So the register
    is read once and written once, and the gather reads from cache.
    Without X the chunks are signed in place; the identity makes no
    pass."""
    start, n, x_mask, z_mask = map(operator.index, (start, n, x_mask, z_mask))
    cube = _block_cube(state, start, n)
    if not (0 <= x_mask < cube.shape[1] and 0 <= z_mask < cube.shape[1]):
        raise ShapeError(f"masks {x_mask:#x}, {z_mask:#x} exceed {n} bits")
    if not (x_mask or z_mask):
        return state
    shift = state.num_qubits - start - n  # register bits after the block
    cbits = min(state.num_qubits, _CHUNK_BITS)
    chunks = state.amps.reshape(-1, 1 << cbits)
    x_hi, x_lo = divmod(x_mask << shift, 1 << cbits)
    z_hi, z_lo = divmod(z_mask << shift, 1 << cbits)
    signs = _STAGE[2:4, :1 << cbits]  # Z's table over a chunk, and negated
    if z_lo:
        signs[0, 0] = 1
        for b in range(cbits):  # indices with bit b set: flipped by z bit b
            np.multiply(signs[0, :1 << b], -1 if z_lo >> b & 1 else 1,
                        out=signs[0, 1 << b:2 << b])
        if z_hi:
            np.multiply(signs[0], -1, out=signs[1])

    def signed(dst, src, k):
        """dst = src, the amplitudes of chunk k, times their Z signs."""
        odd = (k & z_hi).bit_count() & 1
        if z_lo:
            np.multiply(src, signs[odd], out=dst)
        elif odd:
            np.multiply(src, -1, out=dst)  # np.negative: 4x slower on complex
        elif src is not dst:
            np.copyto(dst, src)

    if not x_mask:
        for k, chunk in enumerate(chunks):
            signed(chunk, chunk, k)
        return state
    r = ((x_lo & -x_lo) or 1 << cbits).bit_length() - 1  # row width 2^r
    src_of = np.bitwise_xor(_INDEX[:1 << (cbits - r)], x_lo >> r,
                            out=_INDICES[0, :1 << (cbits - r)])
    stage = _STAGE[:2, :1 << cbits]
    rows = chunks.reshape(len(chunks), -1, 1 << r)
    stage_rows = stage.reshape(2, -1, 1 << r)
    for k in range(len(chunks)):
        k2 = k ^ x_hi
        if k2 < k:
            continue
        signed(stage[0], chunks[k2], k2)
        if k2 != k:
            signed(stage[1], chunks[k], k)
            np.take(stage_rows[1], src_of, axis=0, out=rows[k2], mode="clip")
        np.take(stage_rows[0], src_of, axis=0, out=rows[k], mode="clip")
    return state


def mask_of_bits(bits: np.ndarray) -> int:
    """Block-local mask integer for a bit vector (bit 0 most significant)."""
    m = 0
    for b in np.asarray(bits).tolist():
        m = (m << 1) | b
    return m


def first_occupied(state: StateVector) -> int:
    """Lowest basis index whose amplitude exceeds 1e-6 * 2^(-m/2) in
    modulus, scanned 256 amplitudes first and then in steps four times
    longer each, up to a chunk, with the moduli in the stage, so that
    nothing register-sized is allocated and an index in the first
    thousands is found without a pass over the whole chunk. On a unit
    vector some index passes (max |a| >= 2^(-m/2)), while rounding
    residues of order 1e-17, such as transversal H leaves behind, never
    do."""
    floor = 1e-6 * 2.0 ** (-state.num_qubits / 2)
    amps = state.amps
    lo, step = 0, 256  # a short first step: the index is often low
    while lo < amps.shape[0]:
        part = amps[lo:lo + step]
        mod = np.abs(part, out=_STAGE[0].view(np.float64)[:len(part)])
        hits = np.flatnonzero(mod > floor)
        if hits.size:
            return lo + int(hits[0])
        lo, step = lo + step, min(4 * step, _CHUNK)
    raise ShapeError(f"no amplitude above {floor:.3e}: the state is not "
                     f"normalized")


def remove_block(state: StateVector, start: int, n: int,
                 bits: str) -> StateVector:
    """Drop a collapsed block whose qubits hold the definite string `bits`."""
    if len(bits) != n:
        raise ShapeError(f"bits {bits!r} is not {n} long")
    view = state.amps.reshape(1 << start, 1 << n, -1)
    out = view[:, int(bits, 2), :].copy()
    kept = float(np.sum(np.abs(out) ** 2))
    if abs(kept - 1.0) > 1e-9:
        raise ShapeError(f"block not collapsed to |{bits}>: weight {kept}")
    out /= math.sqrt(kept)
    return StateVector(state.num_qubits - n, out.reshape(-1), check=False)


@dataclass(frozen=True)
class LogicalCircuit:
    num_wires: int
    gates: tuple[GateOp, ...]

    def __post_init__(self):
        for g in self.gates:
            if g.kind not in LOGICAL_GATES:
                raise WireError(f"gate {g.kind} is not in the logical set")
            if any(w >= self.num_wires for w in g.wires):
                raise WireError(f"wire in {g.wires} exceeds {self.num_wires}")


def parse_circuit(text: str) -> LogicalCircuit:
    """Parse the line format: 'H <w>' | 'T <w>' | 'CNOT <wc> <wt>'.

    '#' starts a comment; blank lines are skipped.
    """
    gates: list[GateOp] = []
    max_wire = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        name, args = parts[0], parts[1:]
        if name not in LOGICAL_GATES:
            raise UnknownGateError(f"unknown gate {name!r}", lineno)
        want = 2 if name == "CNOT" else 1
        if len(args) != want:
            raise CircuitParseError(
                f"{name} takes {want} wire argument(s), got {len(args)}", lineno)
        try:
            wires = tuple(int(a) for a in args)
        except ValueError:
            raise CircuitParseError(f"bad wire index in {line!r}", lineno)
        if max(wires) >= MAX_QUBITS:
            raise CircuitParseError(
                f"wire {max(wires)} outside [0, {MAX_QUBITS})", lineno)
        try:
            gates.append(GateOp(name, wires))
        except WireError as exc:
            raise CircuitParseError(str(exc), lineno)
        max_wire = max(max_wire, *wires)
    return LogicalCircuit(num_wires=max_wire + 1, gates=tuple(gates))


def count_t_gates(c: LogicalCircuit) -> int:
    return sum(1 for g in c.gates if g.kind == "T")


def run_circuit(state: StateVector, c: LogicalCircuit) -> StateVector:
    if c.num_wires > state.num_qubits:
        raise WireError(
            f"circuit needs {c.num_wires} wires, state has {state.num_qubits}")
    for g in c.gates:
        apply_gate(state, g)
    return state
