"""Public-key scheme: encrypt by encoding under a published scrambled code
and deliberately injecting Pauli errors; evaluation tracks an error-weight
bound per block and asks the key holder to refresh the ciphertext before
any gate would push a bound past the correction radius.

Bob can decode T-gadget measurement records himself with the public code's
syndrome table. Nothing here is hidden from him: PublicKey.code is the
private CssCode itself, and the published S C1 P rows alone, built into a
code with their own dual inside, decrypt every ciphertext. At real sizes,
recovering P from S C1 P is the code-equivalence problem, which the
support-splitting algorithm solves for most codes (Sendrier, IEEE Trans.
Inf. Theory 46(4), 2000); on Golay the scrambled presentations number
23!/|M23|, with |M23| = 10200960.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import css, gf2, sim, symmetric
from .css import CssCode
from .errors import (
    ParameterError,
    RefreshAuthorityError,
    WeightTooLargeError,
    WireError,
)


@dataclass(eq=False)
class PublicKey:
    code: CssCode      # the private key's CssCode object itself
    ct_weight: int     # Pauli errors per block at encryption time


@dataclass(eq=False)
class AsymKeyPair:
    private: symmetric.SymKey  # scrambled
    public: PublicKey


def keygen(base_name: str, c: float, rng: np.random.Generator) -> AsymKeyPair:
    if not 0.0 < c < 1.0:
        raise ParameterError(f"c must be in (0, 1), got {c}")
    private = symmetric.keygen(base_name, "scrambled", rng)
    t = private.code.t
    ct_weight = math.floor(c * t)
    if ct_weight == 0:
        warnings.warn(
            f"floor({c} * {t}) = 0: encryption will inject no errors",
            stacklevel=2)
    return AsymKeyPair(private=private,
                       public=PublicKey(code=private.code,
                                        ct_weight=ct_weight))


@dataclass(eq=False)
class AsymCiphertext:
    """Wire w's block is register qubits [w*n, (w+1)*n). The evaluator
    holds the blocks and an upper bound on each block's error weight; the
    errors themselves are known only to whoever can read the syndromes
    under the private key."""
    state: sim.StateVector
    n: int
    t: int
    bounds: list[int]  # per wire: tracked upper bound on the error weight
    session_weight: int

    @property
    def num_wires(self) -> int:
        return self.state.num_qubits // self.n


def _draw(n: int, weight: int, rng: np.random.Generator) -> tuple[int, int]:
    """The (x, z) block-local int masks of `weight` Pauli errors on a
    block: distinct uniform positions, each an X, Y or Z (kind 0, 1 or 2)
    with equal probability."""
    positions = rng.choice(n, size=weight, replace=False)
    kinds = rng.integers(0, 3, size=weight)
    x = z = 0
    for pos, kind in zip(positions.tolist(), kinds.tolist()):
        bit = 1 << (n - 1 - pos)
        x |= bit if kind != 2 else 0
        z |= bit if kind != 0 else 0
    return x, z


def encrypt(pk: PublicKey, plaintext: sim.StateVector,
            rng: np.random.Generator,
            override_weight: int | None = None) -> AsymCiphertext:
    """Encode every wire under the public code with `weight` Pauli errors
    at distinct random positions on each block: every block's errors are
    drawn first, then encoded as its frame in the one scatter."""
    code = pk.code
    weight = pk.ct_weight if override_weight is None else override_weight
    if weight < 0:
        raise ParameterError(f"error weight must be at least 0, got {weight}")
    if weight > code.t:
        raise WeightTooLargeError(
            f"{weight} Pauli errors per block exceed the radius t={code.t}; "
            f"the ciphertext would be undecryptable")
    m = plaintext.num_qubits
    frames = [_draw(code.n, weight, rng) for _ in range(m)]
    state = css.encode_blocks(code, plaintext, frames)
    return AsymCiphertext(state=state, n=code.n, t=code.t, bounds=[weight] * m,
                          session_weight=weight)


def decrypt(private: symmetric.SymKey, ct: AsymCiphertext) -> sim.StateVector:
    """Read each block's Pauli frame off its syndromes and decode every
    block under its frame, so the errors never need to be undone: the
    ciphertext is left unchanged and no register-sized array is made."""
    code = private.code
    index = sim.first_occupied(ct.state)
    frames = [css.correct_errors(code, ct.state, i, index)
              for i in range(ct.num_wires)]
    return css.decode_blocks(code, ct.state, frames=frames)


def refresh(private: symmetric.SymKey, ct: AsymCiphertext,
            rng: np.random.Generator) -> AsymCiphertext:
    """Decrypt and re-encrypt with fresh randomness. The session's error
    weight goes back into a single uniformly chosen block so the
    total never grows with the block count; bounds drop to the actual
    fresh counts.

    The re-encryption is written into the register it consumes, as a
    quantum register cannot be copied: the returned ciphertext holds
    ct.state, which no longer holds the old encryption. A decrypt that
    fails raises before anything is written."""
    plaintext = decrypt(private, ct)
    code = private.code
    m = plaintext.num_qubits
    bounds = [0] * m
    frames = [(0, 0)] * m
    if ct.session_weight > 0:
        target = int(rng.integers(m))
        frames[target] = _draw(code.n, ct.session_weight, rng)
        bounds[target] = ct.session_weight
    state = css.encode_blocks(code, plaintext, frames, out=ct.state)
    return AsymCiphertext(state=state, n=code.n, t=code.t, bounds=bounds,
                          session_weight=ct.session_weight)


def make_refresh_authority(private: symmetric.SymKey,
                           rng: np.random.Generator):
    def authority(ct: AsymCiphertext) -> AsymCiphertext:
        return refresh(private, ct, rng)
    return authority


def _predicted_bounds(ct: AsymCiphertext, gate: sim.GateOp) -> list[int]:
    if gate.kind == "H":
        return []
    if gate.kind == "CNOT":
        wc, wt = gate.wires
        return [min(ct.n, ct.bounds[wc] + ct.bounds[wt])] * 2
    # T: the output block inherits the data block's bound
    return [ct.bounds[gate.wires[0]]]


def _step(ct: AsymCiphertext, gate: sim.GateOp, code: CssCode,
          rng: np.random.Generator) -> None:
    """Run one gate on the blocks and update the bounds it moves.

    A T is Bob's own gadget: a fresh error-free magic ancilla from the
    public code, whose record Bob decodes with it. The wire's bound carries
    over: the new block inherits the data block's phase errors, and its
    bit-flip errors are absorbed by the corrected readout."""
    start = gate.wires[0] * ct.n
    if gate.kind == "H":
        sim.transversal_h(ct.state, start, ct.n)
    elif gate.kind == "CNOT":
        wc, wt = gate.wires
        sim.transversal_cnot(ct.state, start, wt * ct.n, ct.n)
        ct.bounds[wc], ct.bounds[wt] = _predicted_bounds(ct, gate)
    else:
        symmetric.ft_t_gadget(
            ct.state, start, ct.n, css.zero_frame_magic(code),
            lambda bits: css.logical_readout(code, gf2.parse_word(bits, code.n)),
            rng)


def evaluate_session(pk: PublicKey, circuit: sim.LogicalCircuit,
                     ct: AsymCiphertext, alice,
                     rng: np.random.Generator) -> tuple[AsymCiphertext, list]:
    """Run the circuit, interleaving refresh round trips with the key
    holder whenever the next gate would push a tracked bound past t.
    Returns the final ciphertext, no superseded register left alive, and
    the transcript: (kind, bounds) per message, kind one of Cipher,
    RefreshRequest, RefreshResponse and Result."""
    if circuit.num_wires > ct.num_wires:
        raise WireError(
            f"circuit uses {circuit.num_wires} wires, ciphertext has "
            f"{ct.num_wires}")
    transcript = [("Cipher", tuple(ct.bounds))]
    for gate in circuit.gates:
        if any(b > ct.t for b in _predicted_bounds(ct, gate)):
            transcript.append(("RefreshRequest", tuple(ct.bounds)))
            try:
                ct = alice(ct)
            except Exception as exc:
                raise RefreshAuthorityError(f"refresh failed: {exc}") from exc
            transcript.append(("RefreshResponse", tuple(ct.bounds)))
            if any(b > ct.t for b in _predicted_bounds(ct, gate)):
                raise RefreshAuthorityError(
                    f"bounds {ct.bounds} still exceed t={ct.t} after "
                    f"a refresh; gate {gate.kind} cannot run")
        _step(ct, gate, pk.code, rng)
    transcript.append(("Result", tuple(ct.bounds)))
    return ct, transcript
