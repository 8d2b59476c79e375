"""Shared test utilities: independent oracles and random generators.

Oracles here deliberately avoid the library's own routines (span
enumeration by exhaustive combination, distances by scanning, the
encoding isometry of a key word by word) so test expectations are derived
from first principles rather than echoed back.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from cssfhe import codes, css, sim


def rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def random_state(gen: np.random.Generator, m: int) -> sim.StateVector:
    amps = gen.normal(size=1 << m) + 1j * gen.normal(size=1 << m)
    amps /= np.linalg.norm(amps)
    return sim.StateVector(m, amps)


def refresh_count(transcript: list) -> int:
    """The refresh round trips of a session transcript of (kind, bounds)
    messages."""
    return sum(kind == "RefreshRequest" for kind, _ in transcript)


def state_record(state: sim.StateVector) -> dict:
    """A state as the record that files.parse_state reads."""
    return {"qubits": state.num_qubits,
            "amps": [[float(a.real), float(a.imag)] for a in state.amps]}


def circuit_to_text(c: sim.LogicalCircuit) -> str:
    """A circuit in the text form that sim.parse_circuit reads."""
    return "\n".join(f"{g.kind} {' '.join(str(w) for w in g.wires)}"
                     for g in c.gates)


def block_marginal(state: sim.StateVector, start: int, n: int) -> np.ndarray:
    """Probability weight of each basis index of the block at
    [start, start+n), |amp|^2 summed over the rest of the register: the
    oracle that sample_block and splice_ancilla draw against."""
    cube = state.amps.reshape(1 << start, 1 << n, -1)
    return (np.abs(cube) ** 2).sum(axis=(0, 2))


def transversal_sdgx(state: sim.StateVector, start: int,
                     n: int) -> sim.StateVector:
    """X then Sdg on every qubit of the block at [start, start+n), densely:
    new[j] = (-i)^popcount(j) * old[j ^ (2^n - 1)], the block axis
    reversed and then phased. The reference that splice_ancilla's fused
    correction is checked against."""
    cube = state.amps.reshape(1 << start, 1 << n, -1)
    pop = np.zeros(1, dtype=np.int8)
    for _ in range(n):  # the upper half of each doubling has one more bit
        pop = np.concatenate([pop, pop + 1])
    phase = np.array([1, -1j, -1, 1j])[pop & 3]
    cube[...] = cube[:, ::-1] * phase[:, None]
    return state


def iso_columns(code, u: int, v: int):
    """The sparse logical-basis columns of the code under the key (u, v),
    one word at a time: logical b is the uniform superposition of the
    words w of b*x1 + C2, each signed (-1)^(u.w) and shifted by v, in
    codes.codewords order. The reference that the library's code-space
    support is checked against."""
    inner = codes.codewords(code.c2).tolist()
    scale = 1.0 / math.sqrt(len(inner))
    cols = []
    for rep in (0, code.x1):
        words = [w ^ rep for w in inner]
        signs = [-scale if (w & u).bit_count() & 1 else scale
                 for w in words]
        cols.append((np.array(words) ^ v,
                     np.array(signs, dtype=np.complex128)))
    return tuple(cols)


def family_signature(code, u: int, v: int) -> tuple:
    """The code space of the code under the key (u, v), by brute force
    over its basis states: each logical basis state reduced to (sorted
    support, signs with the first forced positive), then the two reduced
    states sorted. That quotients out each state's global sign and the
    zero/one labelling, so two keys have equal signatures iff they span
    the same code space. The oracle that css.frame_class is checked
    against."""
    parts = []
    for idx, vals in iso_columns(code, u, v):
        order = np.argsort(idx)
        negative = vals.real[order] < 0
        parts.append((tuple(idx[order].tolist()),
                      tuple((negative ^ negative[0]).tolist())))
    return tuple(sorted(parts))


def isometry(code, u: int, v: int) -> sim.BlockIsometry:
    """The validated reference isometry of the code under (u, v)."""
    return sim.BlockIsometry(code.n, iso_columns(code, u, v))


def logical_basis(code, u: int, v: int):
    """The code's logical |0> and |1> under (u, v) as dense n-qubit states."""
    out = []
    for idx, vals in iso_columns(code, u, v):
        amps = np.zeros(1 << code.n, dtype=np.complex128)
        amps[idx] = vals
        out.append(sim.StateVector(code.n, amps, check=False))
    return out[0], out[1]


@dataclass(frozen=True)
class StabilizerSet:
    x_type: tuple[tuple[int, int], ...]
    z_type: tuple[tuple[int, int], ...]


def stabilizers(code, u: int, v: int) -> StabilizerSet:
    """Signed generators under (u, v) as (int mask, sign bit): (-1)^(u.g)
    X^g for g spanning the inner code, (-1)^(h.v) Z^h for h spanning the
    outer code's dual."""
    xs = tuple((g, (g & u).bit_count() & 1) for g in code.c2.gen)
    zs = tuple((h, (h & v).bit_count() & 1) for h in code.c1.pchk)
    return StabilizerSet(x_type=xs, z_type=zs)


def decode_per_block(state: sim.StateVector, code, keys) -> sim.StateVector:
    """Decode block i under the reference isometry of keys[i] = (u, v),
    asserting that each block lies in that code space."""
    for i, (u, v) in enumerate(keys):
        state, leak = sim.contract_block_isometry(state, i,
                                                  isometry(code, u, v))
        assert leak <= css.DECODE_LEAKAGE_TOL
    return state


def count_calls(monkeypatch, owner, name) -> list:
    """Wrap owner.name for the rest of the test so that every call still
    runs, and return the list that collects each call's positional
    arguments."""
    calls = []
    real = getattr(owner, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)
    return calls


def span_brute(rows) -> set[int]:
    """Every GF(2) combination of the given int rows, by exhaustion."""
    out = set()
    for picks in itertools.product((0, 1), repeat=len(rows)):
        acc = 0
        for p, r in zip(picks, rows):
            if p:
                acc ^= r
        out.add(acc)
    return out


def min_weight_brute(rows) -> int:
    return min(w.bit_count() for w in span_brute(rows) if w)


def bits_to_index(bits) -> int:
    """MSB-first bit tuple -> amplitude index."""
    out = 0
    for b in bits:
        out = (out << 1) | int(b)
    return out


def random_circuit(gen: np.random.Generator, max_wires: int = 2,
                   max_gates: int = 8, max_t: int = 2) -> sim.LogicalCircuit:
    """Random H/CNOT/T circuit with at most max_t T gates. Magic ancillas
    wait outside the register, so only the wires take 7-qubit blocks."""
    wires = int(gen.integers(1, max_wires + 1))
    gates = []
    t_used = 0
    for _ in range(int(gen.integers(1, max_gates + 1))):
        kinds = ["H"]
        if wires > 1:
            kinds.append("CNOT")
        if t_used < max_t:
            kinds.append("T")
        kind = kinds[int(gen.integers(len(kinds)))]
        if kind == "CNOT":
            c, t = gen.choice(wires, size=2, replace=False)
            gates.append(sim.GateOp("CNOT", (int(c), int(t))))
        else:
            w = int(gen.integers(wires))
            gates.append(sim.GateOp(kind, (w,)))
            if kind == "T":
                t_used += 1
    return sim.LogicalCircuit(num_wires=wires, gates=tuple(gates))


class FrameOracle:
    """Test-side Pauli frame of an asymmetric ciphertext: wire w's block
    carries X^x Z^z with (x, z) = frames[w], block-local int masks. The
    ciphertext keeps no such
    record, since only the key holder may know the errors. The frame
    starts from Paulis the test injected itself (`inject`) or from the
    syndromes read under the private key (`read`), and the gates move it
    by the key rules with (u, v) read as (z, x). Unlike the oracles above
    it reuses library routines, so the tests that use it also check its
    frame against the register itself (`undo`, or `read` after a gate)."""

    def __init__(self, frames):
        self.frames = list(frames)

    @classmethod
    def inject(cls, ct, frames) -> "FrameOracle":
        """Apply X^x Z^z to each block of `ct` and record it; `ct` should
        carry no errors of its own (encrypted with override_weight=0)."""
        oracle = cls(frames)
        for w, (x, z) in enumerate(oracle.frames):
            sim.apply_block_pauli(ct.state, w * ct.n, ct.n,
                                  x_mask=x, z_mask=z)
        return oracle

    @classmethod
    def read(cls, private, ct) -> "FrameOracle":
        """Read every block's frame off its syndromes; exact while each
        block's error weight is within the radius t."""
        code = private.code
        return cls([css.correct_errors(code, ct.state, w)
                    for w in range(ct.num_wires)])

    def h(self, w: int) -> None:
        x, z = self.frames[w]
        z, x = css.KeyEvolver.h_rule(z, x)
        self.frames[w] = (x, z)

    def cnot(self, wc: int, wt: int) -> None:
        (xc, zc), (xt, zt) = self.frames[wc], self.frames[wt]
        (zc, xc), (zt, xt) = css.KeyEvolver.cnot_rule((zc, xc), (zt, xt))
        self.frames[wc], self.frames[wt] = (xc, zc), (xt, zt)

    def t(self, w: int) -> None:
        """The error-free ancilla, as control of the gadget's CNOT, takes
        the data block's phase errors and none of its bit flips, which
        only perturb the corrected readout. X then S-dagger on outcome 1
        leaves a frame without bit flips as it is."""
        x, z = self.frames[w]
        (z, x), _ = css.KeyEvolver.cnot_rule((0, 0), (z, x))
        self.frames[w] = (x, z)

    def weight(self, w: int) -> int:
        x, z = self.frames[w]
        return (x | z).bit_count()

    def undo(self, ct) -> sim.StateVector:
        """A copy of the register with every block's frame applied again,
        which removes it up to a global phase."""
        probe = ct.state.copy()
        for w, (x, z) in enumerate(self.frames):
            sim.apply_block_pauli(probe, w * ct.n, ct.n, x_mask=x, z_mask=z)
        return probe


def _inject_reference(state, start, n, weight, gen) -> None:
    """Draw `weight` Pauli errors on a block as the schemes draw them
    (positions, then kinds: 0 X, 1 Y, 2 Z) and apply them with the
    block Pauli kernel, one position at a time."""
    positions = gen.choice(n, size=weight, replace=False)
    kinds = gen.integers(0, 3, size=weight)
    x = np.zeros(n, dtype=np.uint8)
    z = np.zeros(n, dtype=np.uint8)
    for p, k in zip(positions, kinds):
        if k != 2:
            x[p] ^= 1
        if k != 0:
            z[p] ^= 1
    sim.apply_block_pauli(state, start, n, x_mask=sim.mask_of_bits(x),
                          z_mask=sim.mask_of_bits(z))


def encrypt_reference(pk, plaintext, gen, weight) -> sim.StateVector:
    """asymmetric.encrypt's register, built densely: encode every wire
    without errors, then inject each block's errors in turn."""
    state = css.encode_blocks(pk.code, plaintext)
    for w in range(plaintext.num_qubits):
        _inject_reference(state, w * pk.code.n, pk.code.n, weight, gen)
    return state


def refresh_reference(private, ct, gen) -> tuple[sim.StateVector, list]:
    """asymmetric.refresh's register and bounds, built densely into a new
    register: decrypt, encode, then inject the session weight into one
    uniformly drawn block. `ct` is left as it is."""
    code = private.code
    plaintext = css.decode_blocks(
        code, ct.state, frames=[css.correct_errors(code, ct.state, w)
                                for w in range(ct.num_wires)])
    state = css.encode_blocks(code, plaintext)
    bounds = [0] * ct.num_wires
    if ct.session_weight > 0:
        target = int(gen.integers(ct.num_wires))
        _inject_reference(state, target * code.n, code.n, ct.session_weight,
                          gen)
        bounds[target] = ct.session_weight
    return state, bounds
