"""Symmetric scheme: encrypt under a secret CSS code and Pauli frame,
evaluate H/CNOT/T blindly on the encoded blocks, decrypt with the secret
key.

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
from .css import CssCode, KeyEvolver
from .errors import (
    AncillaExhaustedError,
    LeakageError,
    ParameterError,
    ShapeError,
    WireError,
)

ANCILLA_PRODUCT_TOL = 1e-9
# The largest T budget encrypt takes. The pool's entries share one array
# pair at encryption, but the evaluator may replace any of them and decrypt
# checks each one; 1024 distinct Golay ancillas (2 x 2^11 indices and
# amplitudes, 96 KiB each) come to about 100 MiB, below one 23-qubit
# register.
MAX_T_BUDGET = 1024
# The largest roster the attack experiments take. Each candidate costs a
# decode or an ancilla overlap, and a pair's key classes grow as 2^(n-1):
# Golay has 2^22, so without a bound a roster could run for hours. 256 holds
# a full Steane roster (65 keys) with room to spare.
MAX_CANDIDATES = 256
# ancilla-leak draws every candidate's survival at once per trial; at this
# bound the largest accepted run takes under a second.
MAX_TRIALS = 10_000
# A candidate's ancilla overlaps the true one at 0, 1/2 or 1, so past 64
# copies a rival at 1/2 survives with probability below 2^-64: more copies
# change nothing but the run time.
MAX_COPIES = 64


@functools.cache
def base_pair(name: str) -> tuple[LinearCode, LinearCode]:
    """The named (C1, C2) pair, built once per process; every key over the
    pair shares its rows."""
    builtins = codes_mod.builtin_codes()
    if name == "steane":
        pair = builtins["hamming74"], builtins["simplex73"]
    elif name == "golay":
        g = builtins["golay2312"]
        pair = g, codes_mod.dual(g)
    else:
        raise ParameterError(f"unknown base pair {name!r}")
    return pair


@dataclass(eq=False)
class SymKey:
    """A secret key over a named base pair: a qubit presentation of the
    pair's code, and the Pauli frame X^v Z^u that every block is encoded
    under. A family key is a random (u, v) over the pair's own code. A
    scrambled key holds the S and P that made its code from the pair
    (McEliece style): the pair's code with its qubits permuted by P,
    published as S C1 P, with u = v = 0. The asymmetric private key is a
    scrambled SymKey. u and v are int masks, S and P int rows (gf2)."""
    base_name: str
    code: CssCode
    u: int
    v: int
    s: tuple[int, ...] | None = None
    p: tuple[int, ...] | None = None

    @property
    def variant(self) -> str:
        return "family" if self.s is None else "scrambled"

    @property
    def frame(self) -> tuple[int, int]:
        """The key as the block frame (x, z) = (v, u)."""
        return self.v, self.u


def keygen(base_name: str, mode: str, rng: np.random.Generator) -> SymKey:
    c1, c2 = base_pair(base_name)
    if mode == "scrambled":
        s = gf2.random_nonsingular(c1.k, rng)
        p = gf2.random_permutation(c1.n, rng)
        return SymKey(base_name, css.scrambled(c1, c2, s, p), 0, 0, s, p)
    if mode == "family":
        u = gf2.random_vector(c1.n, rng)
        v = gf2.random_vector(c1.n, rng)
        return SymKey(base_name, css.base_code(c1, c2), u, v)
    raise ParameterError(f"unknown key mode {mode!r}")


@dataclass(eq=False)
class SymCiphertext:
    """Wire w's block is register qubits [w*n, (w+1)*n); blocks never
    move. What the gates did to the key is a function of `executed` and
    `gadget_outcomes`, which only the key holder can evaluate."""
    state: sim.StateVector
    n: int
    # unconsumed magic ancillas, each a product factor beside the register:
    # (block indices, amplitudes), consumed front first
    ancilla_pool: list[tuple[np.ndarray, np.ndarray]]
    executed: list[sim.GateOp] = field(default_factory=list)
    gadget_outcomes: list[int] = field(default_factory=list)
    rng: np.random.Generator | None = None

    @property
    def num_wires(self) -> int:
        return self.state.num_qubits // self.n


def encrypt(sk: SymKey, plaintext: sim.StateVector, t_budget: int,
            rng: np.random.Generator) -> SymCiphertext:
    """Encode each wire into an n-qubit block under the key's frame and
    prepare t_budget encoded magic ancillas under the same frame, in
    [0, MAX_T_BUDGET]. The ancillas stay sparse product factors beside the
    m*n-qubit register until a T gadget splices one in; they are equal, so
    the pool holds one pair of read-only arrays t_budget times."""
    if not 0 <= t_budget <= MAX_T_BUDGET:
        raise ParameterError(
            f"T budget must be in [0, {MAX_T_BUDGET}], got {t_budget}")
    code = sk.code
    state = css.encode_blocks(code, plaintext,
                              [sk.frame] * plaintext.num_qubits)
    pool = [css.magic_ancilla_sparse(code, sk.frame)] * t_budget
    return SymCiphertext(state=state, n=code.n, ancilla_pool=pool, rng=rng)


def ft_t_gadget(state: sim.StateVector, start: int, n: int, ancilla,
                readout, rng: np.random.Generator) -> int:
    """Teleport a T gate through one encoded magic ancilla, a sparse
    product factor (indices, amplitudes) beside the register, onto the
    block at qubits [start, start+n). Both schemes run it; only `readout`
    differs: the key holder's oracle here, the public code's classical
    decoder in the asymmetric scheme.

    Transversal CNOTs with the ancilla block as control write the data onto
    the ancilla, and measuring the data block yields an n-bit record whose
    logical bit `readout` reports; the ancilla takes the data block's
    place, and outcome 1 takes the transversal X then S-dagger
    correction. sim.splice_ancilla does all of it in one kernel call, the
    correction folded into its scatter. Returns the outcome.
    """
    _, outcome, _ = sim.splice_ancilla(state, start, n, *ancilla, readout,
                                       rng)
    return outcome


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
        ct.executed.append(g)
        w = g.wires[0]
        if g.kind == "H":
            sim.transversal_h(ct.state, w * n, n)
        elif g.kind == "CNOT":
            sim.transversal_cnot(ct.state, w * n, g.wires[1] * n, n)
        else:
            ct.gadget_outcomes.append(ft_t_gadget(
                ct.state, w * n, n, ct.ancilla_pool.pop(0), readout, ct.rng))
    return ct


class _KeyReplay:
    """Each wire's current (u, v) as int masks, replayed from a
    ciphertext's executed gates and gadget outcomes and advanced from
    where the last call left off, so a readout oracle that keeps one does
    O(1) rule calls per gate.

    A T gadget's ancilla starts under the key itself; the transversal
    CNOT from it moves the ancilla to the wire's new key, and outcome 1
    adds the X then S-dagger rule. A scrambled key, u = v = 0, is a fixed
    point of all three rules."""

    def __init__(self, sk: SymKey, num_wires: int):
        self.key = (sk.u, sk.v)
        self.keys = [self.key] * num_wires
        self.done = 0       # executed gates applied to self.keys
        self.outcomes = 0   # gadget outcomes read

    def advance(self, ct: SymCiphertext, stop: int) -> list:
        """Replay ct.executed[:stop], every T of it with its outcome, and
        return each wire's (u, v) after it."""
        keys = self.keys
        while self.done < stop:
            g = ct.executed[self.done]
            w = g.wires[0]
            if g.kind == "H":
                keys[w] = KeyEvolver.h_rule(*keys[w])
            elif g.kind == "CNOT":
                keys[w], keys[g.wires[1]] = KeyEvolver.cnot_rule(
                    keys[w], keys[g.wires[1]])
            else:
                keys[w], _ = KeyEvolver.cnot_rule(self.key, keys[w])
                if ct.gadget_outcomes[self.outcomes] == 1:
                    keys[w] = KeyEvolver.sdgx_rule(*keys[w])
                self.outcomes += 1
            self.done += 1
        return keys


def make_readout(sk: SymKey, ct: SymCiphertext):
    """Alice's side of the oracle boundary: maps the n-bit measurement
    record of the pending gadget, the last executed gate, to its logical
    bit. Only classical strings cross this callable; the replayed keys
    stay on Alice's side between calls.

    The gadget's CNOT from an ancilla under the key (u0, v0) leaves the
    data block, keyed (u, v) before the T, under (u, v0 ^ v); the record
    XOR v XOR v0 is therefore read under the zero frame."""
    code = sk.code
    replay = _KeyReplay(sk, ct.num_wires)

    def readout(bits: str) -> int:
        if not ct.executed or ct.executed[-1].kind != "T":
            raise ShapeError("no measurement to read out")
        y = gf2.parse_word(bits, code.n)
        keys = replay.advance(ct, len(ct.executed) - 1)
        _, v = keys[ct.executed[-1].wires[0]]
        return css.logical_readout(code, y ^ v ^ sk.v)

    return readout


def decrypt(sk: SymKey, ct: SymCiphertext) -> sim.StateVector:
    """Check that every unconsumed ancilla is still the key's magic state,
    replay the executed operations to recover each block's key, and
    decode the data blocks.

    A block keyed (u', v') is, up to a global phase, the zero-frame
    encoding under the Pauli frame X^v' Z^u', so every block decodes with
    its replayed key as its frame."""
    code = sk.code
    if ct.ancilla_pool:
        magic = css.magic_ancilla_sparse(code, sk.frame)
    for a, (idx, vals) in enumerate(ct.ancilla_pool):
        lost = 1.0 - abs(sim.sparse_vdot(*magic, idx, vals)) ** 2
        if lost > ANCILLA_PRODUCT_TOL:
            raise LeakageError(
                f"pending ancilla {a} is not the expected product state "
                f"(weight {lost:.3e} lost)")
    keys = _KeyReplay(sk, ct.num_wires).advance(ct, len(ct.executed))
    return css.decode_blocks(code, ct.state, [(v, u) for u, v in keys])


def check_attack_sizes(candidates: int, trials: int, copies: int) -> None:
    """Refuse an attack experiment's sizes outside [1, MAX_CANDIDATES],
    [1, MAX_TRIALS] and [0, MAX_COPIES] with ParameterError, before any
    work is done."""
    for name, value, low, high in (
            ("candidates", candidates, 1, MAX_CANDIDATES),
            ("trials", trials, 1, MAX_TRIALS),
            ("copies", copies, 0, MAX_COPIES)):
        if not low <= value <= high:
            raise ParameterError(
                f"{name} must be in [{low}, {high}], got {value}")


def attack_key_guess(ct: SymCiphertext, candidates: list[SymKey]) -> dict:
    """Try to identify the key by decoding the data blocks under each
    candidate's code and frame. Reports how many candidates decode without
    leakage; clean decode alone cannot single out the true key when
    several do."""
    if not ct.num_wires:
        raise ShapeError("ciphertext has no data blocks")
    clean = []
    for cand in candidates:
        try:
            css.decode_blocks(cand.code, ct.state,
                              [cand.frame] * ct.num_wires)
        except LeakageError:
            clean.append(False)
        else:
            clean.append(True)
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
    survivors. With 0 copies this is a uniform guess at 1/K.

    Beside the sampled `success`, `exact` is the rate the trials sample:
    E[1/(1+S)], with S the number of other candidates that survive, a
    Poisson-binomial count in which candidate i survives with probability
    overlap_i^copies."""
    check_attack_sizes(len(candidates), trials, copies)
    true_anc = css.magic_ancilla_sparse(true_key.code, true_key.frame)
    overlaps = [abs(sim.sparse_vdot(
        *css.magic_ancilla_sparse(c.code, c.frame), *true_anc)) ** 2
        for c in candidates]
    # a family roster's overlaps are exactly 0, 1/2 or 1, but the sums that
    # give them land a few ulps off, which `exact` would carry
    overlaps = [next((q for q in (0.0, 0.5, 1.0) if abs(p - q) <= 1e-9), p)
                for p in overlaps]
    true_idx = next((i for i, c in enumerate(candidates)
                     if c.frame == true_key.frame), None)
    if true_idx is None:
        raise ParameterError("true key must be among the candidates")
    # passing all `copies` tests is one draw below p^copies, which is 1
    # for the true key, so it always survives
    survive = np.array(overlaps) ** copies
    hits = 0
    for _ in range(trials):
        survivors = np.flatnonzero(rng.random(survive.size) < survive)
        if survivors[rng.integers(survivors.size)] == true_idx:
            hits += 1
    dist = np.ones(1)  # P(S = s) over the other candidates seen so far
    for i, q in enumerate(survive):
        if i != true_idx:
            dist = np.append(dist * (1 - q), 0) + np.append(0, dist * q)
    return {
        "copies": copies,
        "trials": trials,
        "success": hits / trials,
        "exact": float(dist @ (1 / np.arange(1, dist.size + 1))),
        "overlaps": overlaps,
    }
