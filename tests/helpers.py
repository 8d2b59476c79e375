"""Shared test utilities: independent oracles and random generators.

Oracles here deliberately avoid the library's own routines (span
enumeration by exhaustive combination, distances by scanning) so test
expectations are derived from first principles rather than echoed back.
"""

import itertools

import numpy as np

from cssfhe import css, sim


def rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def random_state(gen: np.random.Generator, m: int) -> sim.StateVector:
    amps = gen.normal(size=1 << m) + 1j * gen.normal(size=1 << m)
    amps /= np.linalg.norm(amps)
    return sim.StateVector(m, amps)


def decode_per_block(state: sim.StateVector, block_codes) -> sim.StateVector:
    """Decode block i under block_codes[i]'s own isometry, asserting that
    each block lies in that code space."""
    for i, code in enumerate(block_codes):
        state, leak = sim.contract_block_isometry(state, i, css.isometry(code))
        assert leak <= css.DECODE_LEAKAGE_TOL
    return state


def span_brute(rows) -> set[tuple]:
    """Every GF(2) combination of the given rows, by exhaustion."""
    rows = [np.asarray(r, dtype=np.uint8) % 2 for r in rows]
    k = len(rows)
    out = set()
    for picks in itertools.product((0, 1), repeat=k):
        acc = np.zeros_like(rows[0]) if rows else np.zeros(0, dtype=np.uint8)
        for p, r in zip(picks, rows):
            if p:
                acc = acc ^ r
        out.add(tuple(int(b) for b in acc))
    return out


def min_weight_brute(rows) -> int:
    return min(sum(w) for w in span_brute(rows) if any(w))


def bits_to_index(bits) -> int:
    """MSB-first bit tuple -> amplitude index."""
    out = 0
    for b in bits:
        out = (out << 1) | int(b)
    return out


def random_circuit(gen: np.random.Generator, max_wires: int = 2,
                   max_gates: int = 8, max_t: int = 2) -> sim.LogicalCircuit:
    """Random H/CNOT/T circuit that fits the 24-qubit register when each
    wire and each T ancilla costs one 7-qubit block."""
    wires = int(gen.integers(1, max_wires + 1))
    t_cap = min(max_t, 24 // 7 - wires)
    gates = []
    t_used = 0
    for _ in range(int(gen.integers(1, max_gates + 1))):
        kinds = ["H"]
        if wires > 1:
            kinds.append("CNOT")
        if t_used < t_cap:
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
