"""Exact dense state-vector simulator and the logical circuit format.

Conventions, fixed once:
  - wire 0 is the most significant bit of the amplitude index;
  - at most 24 qubits (three 7-qubit blocks, or one 23-qubit block, fit);
  - gates and block kernels mutate the StateVector and return it. The
    kernels that permute amplitudes (`transversal_cnot`, `transversal_sdgx`
    and the X part of `apply_block_pauli`) rebind `state.amps` to a new
    array, so read `state.amps` again after a call instead of keeping the
    old array;
  - `amps` is always C-contiguous, so reshapes are views.

The per-qubit `apply_gate` and `measure_z` are the reference path; the
block kernels (`transversal_h`, `transversal_cnot`, `transversal_sdgx`,
`splice_ancilla`, `apply_block_pauli`) act on a whole n-qubit block at
once, in one pass over the register (H: one pass per four qubits), and
are tested against that path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CapacityError,
    CircuitParseError,
    IsometryError,
    ShapeError,
    UnknownGateError,
    WireError,
)

MAX_QUBITS = 24
_SQRT2 = math.sqrt(2.0)

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
            if abs(norm - 1.0) > 1e-9:
                raise ShapeError(f"state norm {norm} is not 1")
        self.num_qubits = num_qubits
        self.amps = amps

    def copy(self) -> "StateVector":
        return StateVector(self.num_qubits, self.amps.copy(), check=False)

    def norm(self) -> float:
        return float(np.vdot(self.amps, self.amps).real)


def basis_state(m: int, label: str) -> StateVector:
    if len(label) != m or any(ch not in "01" for ch in label):
        raise ShapeError(f"label {label!r} is not an {m}-bit string")
    amps = np.zeros(1 << m, dtype=np.complex128)
    amps[int(label, 2) if m else 0] = 1.0
    return StateVector(m, amps, check=False)


def state_from_amps(amps) -> StateVector:
    amps = np.asarray(amps, dtype=np.complex128)
    m = int(amps.shape[0]).bit_length() - 1
    if (1 << m) != amps.shape[0]:
        raise ShapeError(f"{amps.shape[0]} amplitudes is not a power of two")
    return StateVector(m, amps.copy())


@dataclass(frozen=True)
class GateOp:
    kind: str
    wires: tuple[int, ...]

    def __post_init__(self):
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
    the order given. Columns must be orthonormal (Gram deviation below 1e-10).
    """

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
        for i in range(2):
            for j in range(2):
                g = sparse_vdot(*parsed[i], *parsed[j])
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
    """Replace `wire` by an n-qubit block; all other wires untouched."""
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


def _parity(a: np.ndarray) -> np.ndarray:
    """Parity of the set bits of each entry (entries below 2^32)."""
    for shift in (16, 8, 4, 2, 1):
        a = a ^ (a >> shift)
    return a & 1


def contract_block_isometry(state: StateVector, start: int,
                            iso: BlockIsometry, x_mask: int = 0,
                            z_mask: int = 0) -> tuple[StateVector, float]:
    """Inverse of apply_block_isometry on the block at qubits
    [start, start+n), taken against X^x Z^z V rather than the isometry V
    itself; the masks are block-local, as in apply_block_pauli. Column
    entry j of X^x Z^z V sits at index j ^ x_mask and is negated where
    popcount(j & z_mask) is odd, so the contraction gathers at idx ^ x_mask
    and flips those signs. Returns (smaller state, leaked weight outside
    the column span). The result is renormalized."""
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
        weights = vals.conj() * (1 - 2 * _parity(idx & z_mask))
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


def _hadamard(k: int) -> np.ndarray:
    """Real dense H^(x)k, a symmetric 2^k x 2^k matrix."""
    mat = np.ones((1, 1))
    for _ in range(k):
        mat = np.kron(mat, GATE_1Q["H"].real)
    return mat


_H_CHUNK = 4  # qubits per dense Hadamard factor
_H_DENSE = {k: _hadamard(k) for k in range(1, _H_CHUNK + 1)}


def transversal_h(state: StateVector, start: int, n: int) -> StateVector:
    """H on every qubit of the block at [start, start+n).

    H^(x)n is applied as dense H^(x)k factors on chunks of at most
    _H_CHUNK qubits. Each factor is one real matrix product over the
    re/im-interleaved amplitudes, and the passes alternate between the
    register and a single scratch array, so the result ends in place."""
    _block_cube(state, start, n)
    m = state.num_qubits
    reg = src = state.amps.view(np.float64)
    dst = np.empty_like(src)
    for q in range(start, start + n, _H_CHUNK):
        k = min(_H_CHUNK, start + n - q)
        mat = _H_DENSE[k]
        inner = 2 << (m - q - k)  # floats per chunk index
        if inner >= 16:
            np.matmul(mat, src.reshape(1 << q, 1 << k, inner),
                      out=dst.reshape(1 << q, 1 << k, inner))
        else:
            # few floats per index: fold them into the matrix instead
            width = inner << k
            np.matmul(src.reshape(-1, width), np.kron(mat, np.eye(inner)),
                      out=dst.reshape(-1, width))
        src, dst = dst, src
    if src is not reg:
        np.copyto(reg, src)
    return state


def transversal_cnot(state: StateVector, c0: int, t0: int,
                     n: int) -> StateVector:
    """CNOT from qubit c0+q onto qubit t0+q for every q < n, so the target
    block index t becomes t XOR c. One gather through a flat source index
    built by broadcasting over (before, first block, between, second
    block, after)."""
    _block_cube(state, c0, n)
    _block_cube(state, t0, n)
    if abs(c0 - t0) < n:
        raise WireError(f"blocks at {c0} and {t0} overlap (n={n})")
    m = state.num_qubits
    lo, hi = sorted((c0, t0))
    size = 1 << n
    mid, post = 1 << (hi - lo - n), 1 << (m - hi - n)
    # amplitude strides of the five axes
    s_mid = size * post
    s_first = mid * s_mid
    s_pre = size * s_first
    j = np.arange(size, dtype=np.intp)
    xor = j[:, None] ^ j[None, :]
    if c0 < t0:   # axes (c, t): keep c, read t ^ c
        blocks = j[:, None] * s_first + xor * post
    else:         # axes (t, c): read t ^ c, keep c
        blocks = xor * s_first + j[None, :] * post
    rest = (np.arange(1 << lo, dtype=np.intp)[:, None, None] * s_pre
            + np.arange(mid, dtype=np.intp)[None, :, None] * s_mid
            + np.arange(post, dtype=np.intp))
    idx = np.empty((1 << lo, size, mid, size, post), dtype=np.intp)
    np.add(blocks[None, :, None, :, None], rest[:, None, :, None, :], out=idx)
    state.amps = state.amps[idx.reshape(-1)]
    return state


def _sdg_phases(n: int) -> np.ndarray:
    """(-i)^popcount(j) for every n-bit block index j."""
    phases = np.ones(1, dtype=np.complex128)
    for _ in range(n):
        phases = np.kron(phases, [1, -1j])
    return phases


def transversal_sdgx(state: StateVector, start: int, n: int) -> StateVector:
    """X then Sdg on every qubit of the block at [start, start+n):
    new[j] = (-i)^popcount(j) * old[j XOR (2^n - 1)], one pass."""
    cube = _block_cube(state, start, n)
    out = np.empty_like(cube)
    np.multiply(cube[:, ::-1, :], _sdg_phases(n)[None, :, None], out=out)
    state.amps = out.reshape(-1)
    return state


def block_marginal(state: StateVector, start: int, n: int) -> np.ndarray:
    """Probability weight of each basis index of the block at
    [start, start+n), summed over the rest of the register."""
    f = _block_cube(state, start, n).view(np.float64)  # (pre, 2^n, 2*post)
    if f.shape[2] >= 16:
        return np.einsum("pjq,pjq->j", f, f)
    flat = f.reshape(f.shape[0], -1)  # short rows: sum whole columns first
    return np.einsum("pk,pk->k", flat, flat).reshape(1 << n, -1).sum(1)


def sample_block(state: StateVector, start: int, n: int,
                 rng: np.random.Generator) -> tuple[int, float]:
    """Draw one basis index of the block at [start, start+n) from its
    marginal with a single random number. Returns the index and its
    weight, which is its probability: the state must be normalized
    (ShapeError otherwise)."""
    marginal = block_marginal(state, start, n)
    cum = np.cumsum(marginal)
    if abs(cum[-1] - 1.0) > 1e-9:
        raise ShapeError(f"state norm {cum[-1]} is not 1")
    j = int(np.searchsorted(cum, rng.random() * cum[-1], side="right"))
    return j, float(marginal[j])


def splice_ancilla(state: StateVector, start: int, n: int, a_idx, a_val,
                   rng: np.random.Generator) -> tuple[str, StateVector]:
    """Transversal CNOT from a product-factor ancilla onto the data block
    at [start, start+n), then a Z measurement of the data block, without
    building the joint register. The ancilla is the normalized
    sum_a a_val[a] |a_idx[a]> over distinct block indices.

    With record y the state is sum_a alpha_a |a> (x) |rest at y xor a>: the
    ancilla takes the data block's place. y is one draw from the XOR
    convolution of the two marginals, y = a xor d, with a drawn from
    |a_val|^2 and then d from the data block (sample_block). Returns the
    n-bit record (block qubit 0 first) and the renormalized state."""
    cube = _block_cube(state, start, n)
    probs = np.abs(a_val) ** 2
    j = int(rng.choice(a_idx.shape[0], p=probs / probs.sum()))
    d, _ = sample_block(state, start, n, rng)
    y = int(a_idx[j]) ^ d

    new = np.zeros_like(cube)
    new[:, a_idx, :] = a_val[None, :, None] * cube[:, y ^ a_idx, :]
    flat = new.reshape(-1)
    flat /= np.linalg.norm(flat)
    return (format(y, f"0{n}b"),
            StateVector(state.num_qubits, flat, check=False))


def apply_block_pauli(state: StateVector, start: int, n: int,
                      x_mask: int, z_mask: int) -> StateVector:
    """Apply Z^z then X^x on the block at qubits [start, start+n), with
    masks given as block-local integers (bit n-1-j of the mask acts on the
    j-th qubit of the block, matching index arithmetic).

    Each Z bit negates one strided half of the register in place; the X
    part is a single copy through a view that flips the axes of the set
    mask bits."""
    cube = _block_cube(state, start, n)
    if not (0 <= x_mask < cube.shape[1] and 0 <= z_mask < cube.shape[1]):
        raise ShapeError(f"masks {x_mask:#x}, {z_mask:#x} exceed {n} bits")
    for q in range(n):
        if (z_mask >> (n - 1 - q)) & 1:
            state.amps.reshape(1 << (start + q), 2, -1)[:, 1, :] *= -1
    if x_mask:
        shape = (cube.shape[0], *[2] * n, cube.shape[2])
        axes = [1 + q for q in range(n) if (x_mask >> (n - 1 - q)) & 1]
        out = np.empty_like(state.amps)
        np.copyto(out.reshape(shape), np.flip(state.amps.reshape(shape), axes))
        state.amps = out
    return state


def mask_of_bits(bits: np.ndarray) -> int:
    """Block-local mask integer for a bit vector (bit 0 most significant)."""
    m = 0
    for b in bits:
        m = (m << 1) | int(b)
    return m


_SCAN_CHUNK = 1 << 14  # amplitudes per step of first_occupied


def first_occupied(state: StateVector) -> int:
    """Lowest basis index whose amplitude exceeds 1e-6 * 2^(-m/2) in
    modulus, scanned a chunk at a time so that nothing register-sized is
    allocated. On a unit vector some index passes (max |a| >= 2^(-m/2)),
    while rounding residues of order 1e-17, such as transversal H leaves
    behind, never do."""
    floor = 1e-6 * 2.0 ** (-state.num_qubits / 2)
    amps = state.amps
    for lo in range(0, amps.shape[0], _SCAN_CHUNK):
        hits = np.flatnonzero(np.abs(amps[lo:lo + _SCAN_CHUNK]) > floor)
        if hits.size:
            return lo + int(hits[0])
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
        try:
            gates.append(GateOp(name, wires))
        except WireError as exc:
            raise CircuitParseError(str(exc), lineno)
        max_wire = max(max_wire, *wires)
    return LogicalCircuit(num_wires=max_wire + 1, gates=tuple(gates))


def circuit_to_text(c: LogicalCircuit) -> str:
    return "\n".join(f"{g.kind} {' '.join(str(w) for w in g.wires)}"
                     for g in c.gates)


def count_t_gates(c: LogicalCircuit) -> int:
    return sum(1 for g in c.gates if g.kind == "T")


def run_circuit(state: StateVector, c: LogicalCircuit) -> StateVector:
    if c.num_wires > state.num_qubits:
        raise WireError(
            f"circuit needs {c.num_wires} wires, state has {state.num_qubits}")
    for g in c.gates:
        apply_gate(state, g)
    return state
