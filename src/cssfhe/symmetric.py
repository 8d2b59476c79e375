"""Symmetric scheme: encrypt under a secret CSS code, evaluate H/CNOT/T
blindly on the encoded blocks, decrypt with the secret key.

The evaluator sees only the block length n, the circuit, the ciphertext,
and a classical readout oracle (n-bit string in, one bit out) that the key
holder answers during each T gadget. It never touches key material, and it
never runs an error-correction round.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import codes as codes_mod
from . import css, gf2, sim
from .codes import LinearCode
from .css import CssCode, FamilySecretKey, KeyEvolver, ScrambledSecretKey
from .errors import (
    AncillaExhaustedError,
    CapacityError,
    LeakageError,
    ParameterError,
    ShapeError,
    WireError,
)

ANCILLA_PRODUCT_TOL = 1e-9


@functools.cache
def base_pair(name: str) -> tuple[LinearCode, LinearCode]:
    """The named (C1, C2) pair, built once per process. Every key over the
    pair shares its matrices, so they are made read-only."""
    builtins = codes_mod.builtin_codes()
    if name == "steane":
        pair = builtins["hamming74"], builtins["simplex73"]
    elif name == "golay":
        g = builtins["golay2312"]
        pair = g, codes_mod.dual(g)
    else:
        raise ParameterError(f"unknown base pair {name!r}")
    for code in pair:
        code.gen.setflags(write=False)
        code.pchk.setflags(write=False)
    return pair


@dataclass(eq=False)
class SymKey:
    variant: str  # "scrambled" | "family"
    base_name: str
    secret: ScrambledSecretKey | FamilySecretKey

    @property
    def code(self) -> CssCode:
        if self.variant == "scrambled":
            return self.secret.scrambled_code
        return self.secret.code


def keygen(base_name: str, mode: str, rng: np.random.Generator) -> SymKey:
    c1, c2 = base_pair(base_name)
    if mode == "scrambled":
        return SymKey("scrambled", base_name, css.keygen_scrambled(c1, c2, rng))
    if mode == "family":
        return SymKey("family", base_name, css.keygen_family(c1, c2, rng))
    raise ParameterError(f"unknown key mode {mode!r}")


@dataclass
class BlockSlot:
    sid: int
    wire: int


@dataclass(eq=False)
class SymCiphertext:
    state: sim.StateVector
    n: int
    layout: list[BlockSlot]               # physical order of the data blocks
    variant: str
    # unconsumed magic ancillas, each a product factor beside the register:
    # (sid, block indices, amplitudes), consumed front first
    ancilla_pool: list[tuple[int, np.ndarray, np.ndarray]]
    events: list[tuple] = field(default_factory=list)
    executed: list[sim.GateOp] = field(default_factory=list)
    gadget_outcomes: list[int] = field(default_factory=list)
    log: list[str] = field(default_factory=list)
    rng: np.random.Generator | None = None

    def slot_start(self, sid: int) -> int:
        for i, slot in enumerate(self.layout):
            if slot.sid == sid:
                return i * self.n
        raise WireError(f"slot {sid} is not live")

    def wire_slot(self, wire: int) -> BlockSlot:
        for slot in self.layout:
            if slot.wire == wire:
                return slot
        raise WireError(f"no block for wire {wire}")

    @property
    def num_wires(self) -> int:
        return len(self.layout)


def encrypt(sk: SymKey, plaintext: sim.StateVector, t_budget: int,
            rng: np.random.Generator) -> SymCiphertext:
    """Encode each wire into an n-qubit block and prepare t_budget encoded
    magic ancillas. The ancillas stay sparse product factors beside the
    m*n-qubit register until a T gadget splices one in."""
    code = sk.code
    m = plaintext.num_qubits
    total = m * code.n
    if total > sim.MAX_QUBITS:
        raise CapacityError(
            f"{m} wires need {total} qubits (limit {sim.MAX_QUBITS})")
    state = css.encode_blocks(code, plaintext)
    layout = [BlockSlot(sid=w, wire=w) for w in range(m)]
    pool = [(m + a, *css.magic_ancilla_sparse(code)) for a in range(t_budget)]
    return SymCiphertext(state=state, n=code.n, layout=layout,
                         variant=sk.variant, ancilla_pool=pool, rng=rng)


def _transversal_h(ct: SymCiphertext, wire: int) -> None:
    slot = ct.wire_slot(wire)
    sim.transversal_h(ct.state, ct.slot_start(slot.sid), ct.n)
    ct.events.append(("H", slot.sid))


def _transversal_cnot(ct: SymCiphertext, wc: int, wt: int) -> None:
    sc, st = ct.wire_slot(wc), ct.wire_slot(wt)
    sim.transversal_cnot(ct.state, ct.slot_start(sc.sid),
                         ct.slot_start(st.sid), ct.n)
    ct.events.append(("CNOT", sc.sid, st.sid))


def ft_t_gadget(ct: SymCiphertext, wire: int, readout) -> SymCiphertext:
    """Teleport a T gate through one encoded magic ancilla.

    Transversal CNOTs with the ancilla block as control write the data onto
    the ancilla, and measuring the data block yields an n-bit record whose
    logical bit the oracle reports; sim.splice_ancilla does both on the
    pending product factor, and the ancilla takes the data block's place.
    Outcome 1 takes the transversal X then S-dagger correction. The
    ancilla becomes the wire's block.
    """
    if not ct.ancilla_pool:
        raise AncillaExhaustedError(f"no ancilla left for T on wire {wire}")
    data = ct.wire_slot(wire)
    sid, a_idx, a_val = ct.ancilla_pool.pop(0)
    anc = BlockSlot(sid=sid, wire=wire)
    n = ct.n

    ct.events.append(("CNOT", anc.sid, data.sid))
    bits, _ = sim.splice_ancilla(ct.state, ct.slot_start(data.sid), n,
                                 a_idx, a_val, ct.rng)
    ct.layout[ct.layout.index(data)] = anc
    ct.events.append(("MEASURE", data.sid, bits))

    outcome = int(readout(bits))
    ct.log.append(f"READOUT {data.sid} {bits} -> {outcome}")
    ct.gadget_outcomes.append(outcome)

    if outcome == 1:
        sim.transversal_sdgx(ct.state, ct.slot_start(anc.sid), n)
        ct.events.append(("SDGX", anc.sid))

    ct.events.append(("RETIRE", data.sid, wire, anc.sid))
    return ct


def evaluate(n: int, circuit: sim.LogicalCircuit, ct: SymCiphertext,
             readout) -> SymCiphertext:
    """Run the circuit on the encoded blocks. Inputs are the public block
    length, the circuit, the ciphertext, and the classical readout oracle;
    no key material is accepted."""
    if n != ct.n:
        raise ShapeError(f"block length {n} does not match ciphertext {ct.n}")
    if circuit.num_wires > ct.num_wires:
        raise WireError(
            f"circuit uses {circuit.num_wires} wires, ciphertext has "
            f"{ct.num_wires}")
    if sim.count_t_gates(circuit) > len(ct.ancilla_pool):
        raise AncillaExhaustedError(
            f"{sim.count_t_gates(circuit)} T gates but only "
            f"{len(ct.ancilla_pool)} ancillas")
    for g in circuit.gates:
        if g.kind == "H":
            _transversal_h(ct, g.wires[0])
        elif g.kind == "CNOT":
            _transversal_cnot(ct, g.wires[0], g.wires[1])
        else:
            ft_t_gadget(ct, g.wires[0], readout)
        ct.executed.append(g)
    return ct


def _replay_keys(sk: SymKey, events: list[tuple]) -> dict[int, tuple]:
    """Walk the event log and return each slot's current (u, v)."""
    code = sk.code
    keys: dict[int, tuple] = {}

    def key_of(sid):
        if sid not in keys:
            keys[sid] = (code.u.copy(), code.v.copy())
        return keys[sid]

    if sk.variant == "scrambled":
        # static key: transversal operations keep u = v = 0
        return keys
    for event in events:
        if event[0] == "H":
            keys[event[1]] = KeyEvolver.h_rule(*key_of(event[1]))
        elif event[0] == "CNOT":
            kc, kt = KeyEvolver.cnot_rule(key_of(event[1]), key_of(event[2]))
            keys[event[1]], keys[event[2]] = kc, kt
        elif event[0] == "SDGX":
            keys[event[1]] = KeyEvolver.sdgx_rule(*key_of(event[1]))
    return keys


def _slot_code(sk: SymKey, keys: dict[int, tuple], sid: int) -> CssCode:
    code = sk.code
    if sk.variant == "scrambled" or sid not in keys:
        return code
    return code.with_key(*keys[sid])


def make_readout(sk: SymKey, ct: SymCiphertext):
    """Alice's side of the oracle boundary: maps the n-bit measurement
    record of the most recent gadget to its logical bit. Only classical
    strings cross this callable."""

    def readout(bits: str) -> int:
        keys = _replay_keys(sk, ct.events)
        measured = [e for e in ct.events if e[0] == "MEASURE"]
        if not measured:
            raise ShapeError("no measurement to read out")
        sid = measured[-1][1]
        return css.logical_readout(_slot_code(sk, keys, sid), bits)

    return readout


def decrypt(sk: SymKey, ct: SymCiphertext) -> sim.StateVector:
    """Check that every unconsumed ancilla is still the key's magic state,
    replay the executed operations to recover each block's key, decode
    the data blocks, and put the wires back in logical order.

    A block keyed (u', v') is, up to a global phase, the key's own
    encoding under the Pauli frame X^(v' ^ v) Z^(u' ^ u), so every block
    decodes under the key's cached isometry with that frame."""
    code = sk.code
    magic = css.magic_ancilla_sparse(code)
    for sid, idx, vals in ct.ancilla_pool:
        lost = 1.0 - abs(sim.sparse_vdot(*magic, idx, vals)) ** 2
        if lost > ANCILLA_PRODUCT_TOL:
            raise LeakageError(
                f"ancilla slot {sid} is not the expected product state "
                f"(weight {lost:.3e} lost)")
    keys = _replay_keys(sk, ct.events)
    frames = []
    for slot in ct.layout:
        u, v = keys.get(slot.sid, (code.u, code.v))
        frames.append((v ^ code.v, u ^ code.u))
    plain = css.decode_blocks(code, ct.state, frames=frames)
    wires = [s.wire for s in ct.layout]
    perm = [wires.index(w) for w in range(len(wires))]
    return sim.permute_wires(plain, perm)


def attack_key_guess(ct: SymCiphertext, candidates: list[SymKey],
                     rng: np.random.Generator) -> dict:
    """Try to identify the key by decoding one data block under each
    candidate. Reports how many candidates decode without leakage; clean
    decode alone cannot single out the true key when several do."""
    if not ct.layout:
        raise ShapeError("ciphertext has no data blocks")
    clean = []
    for cand in candidates:
        _, leak = sim.contract_block_isometry(ct.state, 0,
                                              css.isometry(cand.code))
        clean.append(bool(leak <= css.DECODE_LEAKAGE_TOL))
    return {
        "candidates": len(candidates),
        "clean": int(sum(clean)),
        "per_candidate": clean,
        "identified": sum(clean) == 1,
    }


def attack_ancilla_leak(copies: int, candidates: list[SymKey],
                        true_key: SymKey, rng: np.random.Generator,
                        trials: int = 1000) -> dict:
    """Monte Carlo of the ancilla-comparison attack.

    Per candidate key the attacker measures each of `copies` leaked
    ancillas in the {magic, orthogonal} basis of that key; a candidate
    survives if every copy passes. The attacker guesses uniformly among
    survivors. With 0 copies this is a uniform guess at 1/K."""
    true_anc = css.magic_ancilla(true_key.code)
    overlaps = [sim.fidelity(css.magic_ancilla(c.code), true_anc)
                for c in candidates]
    true_idx = next(
        (i for i, c in enumerate(candidates)
         if np.array_equal(c.code.u, true_key.code.u)
         and np.array_equal(c.code.v, true_key.code.v)), None)
    if true_idx is None:
        raise ParameterError("true key must be among the candidates")
    hits = 0
    for _ in range(trials):
        survivors = [i for i, p in enumerate(overlaps)
                     if all(rng.random() < p for _ in range(copies))]
        pick = survivors[rng.integers(len(survivors))]
        if pick == true_idx:
            hits += 1
    return {
        "copies": copies,
        "trials": trials,
        "success": hits / trials,
        "overlaps": overlaps,
    }
