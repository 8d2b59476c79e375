"""Seeded runs whose discrete outputs are pinned: the gadget outcomes and
readout records of symmetric round trips, and the transcripts of
asymmetric sessions. A change to how keys, frames or registers are
represented must leave every one of them as it is; the decrypted
plaintexts must keep their fidelity to 1e-12.

Run this module as a script to print the records of the code in the
tree, in the form the tables below take."""

import warnings

import numpy as np

from cssfhe import asymmetric, css, sim, symmetric
from helpers import random_circuit, random_state, refresh_count

SEEDS = range(40)
FIDELITY_TOL = 1e-12
KIND_LETTERS = {"Cipher": "C", "RefreshRequest": "Q", "RefreshResponse": "A",
                "Result": "R"}


def _gen(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def sym_record(seed: int) -> tuple[str, float]:
    """A Steane round trip, family keys on even seeds and scrambled keys
    on odd ones: 'outcomes/record:bit,record:bit' and the fidelity."""
    mode = ("family", "scrambled")[seed % 2]
    key = symmetric.keygen("steane", mode, _gen(seed, 0))
    circuit = random_circuit(_gen(seed, 1), max_wires=2, max_gates=8,
                             max_t=2)
    psi = random_state(_gen(seed, 2), circuit.num_wires)
    ct = symmetric.encrypt(key, psi, sim.count_t_gates(circuit),
                           _gen(seed, 3))
    oracle = symmetric.make_readout(key, ct)
    calls = []

    def readout(bits):
        calls.append(f"{bits}:{oracle(bits)}")
        return int(calls[-1][-1])

    symmetric.evaluate(key.code.n, circuit, ct, readout)
    out = symmetric.decrypt(key, ct)
    fid = sim.fidelity(out, sim.run_circuit(psi.copy(), circuit))
    outcomes = "".join(map(str, ct.gadget_outcomes))
    return f"{outcomes}/{','.join(calls)}", fid


def session_record(seed: int) -> tuple[str, float]:
    """A Steane session at one error per block, refreshes from the key
    holder: the transcript as kind letter and bounds per message, then
    the final ciphertext's frames as the syndromes read them."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        pair = asymmetric.keygen("steane", 0.5, _gen(seed, 0))
    circuit = random_circuit(_gen(seed, 1), max_wires=2, max_gates=8,
                             max_t=2)
    psi = random_state(_gen(seed, 2), circuit.num_wires)
    ct = asymmetric.encrypt(pair.public, psi, _gen(seed, 3),
                            override_weight=1)
    alice = asymmetric.make_refresh_authority(pair.private, _gen(seed, 4))
    ct, transcript = asymmetric.evaluate_session(
        pair.public, circuit, ct, alice, _gen(seed, 5))
    frames = [css.correct_errors(pair.private.code, ct.state, w)
              for w in range(ct.num_wires)]
    out = asymmetric.decrypt(pair.private, ct)
    fid = sim.fidelity(out, sim.run_circuit(psi.copy(), circuit))
    words = [KIND_LETTERS[kind] + "".join(map(str, bounds))
             for kind, bounds in transcript]
    words += [f"{x:02x}{z:02x}" for x, z in frames]
    return f"{refresh_count(transcript)}/{' '.join(words)}", fid


# recorded before keys became frames on one shared support
SYM_RECORDS = [
    '11/1111111:1,1001001:1',
    '0/0011011:0',
    '00/0000001:0,0011100:0',
    '1/1110000:1',
    '01/0110110:0,0101101:1',
    '11/0100011:1,0001101:1',
    '00/1101100:0,1100011:0',
    '1/1010001:1',
    '/',
    '1/1111111:1',
    '00/1011010:0,1010101:0',
    '1/0001101:1',
    '0/1101100:0',
    '/',
    '11/1001011:1,1001001:1',
    '0/0101101:0',
    '11/1000110:1,1001001:1',
    '00/0000000:0,1110001:0',
    '1/1000110:1',
    '/',
    '11/0100100:1,0010010:1',
    '01/1001101:0,1101000:1',
    '/',
    '10/1001100:1,0110011:0',
    '11/0100101:1,1001001:1',
    '/',
    '00/0101100:0,1100011:0',
    '01/0101011:0,1010100:1',
    '1/1010100:1',
    '1/1100100:1',
    '11/1111111:1,0101010:1',
    '/',
    '11/1101010:1,0010111:1',
    '1/1100010:1',
    '1/0001110:1',
    '0/1101010:0',
    '01/1011010:0,0010011:1',
    '11/0101001:1,0011010:1',
    '/',
    '11/1001010:1,0011100:1',
]

SESSION_RECORDS = [
    '0/C11 R11 0008 0001',
    '2/C11 Q11 A01 Q11 A01 R11 0000 0004',
    '0/C1 R1 0000',
    '2/C11 Q11 A10 Q11 A10 R11 2000 0000',
    '0/C1 R1 0000',
    '0/C1 R1 0000',
    '0/C1 R1 4000',
    '3/C11 Q11 A01 Q11 A10 Q11 A01 R11 0008 0800',
    '0/C11 R11 0800 2020',
    '0/C1 R1 0200',
    '0/C11 R11 4040 0020',
    '0/C1 R1 0000',
    '2/C11 Q11 A10 Q11 A10 R11 0101 0100',
    '2/C11 Q11 A01 Q11 A10 R11 0404 0400',
    '0/C1 R1 0004',
    '2/C11 Q11 A01 Q11 A01 R11 0000 1000',
    '0/C1 R1 0000',
    '0/C1 R1 0000',
    '2/C11 Q11 A01 Q11 A10 R11 0404 0004',
    '0/C11 R11 0202 1010',
    '0/C1 R1 0000',
    '3/C11 Q11 A10 Q11 A01 Q11 A10 R11 0010 0000',
    '2/C11 Q11 A10 Q11 A10 R11 0202 0002',
    '1/C11 Q11 A01 R11 0000 4040',
    '0/C1 R1 0000',
    '0/C1 R1 1010',
    '2/C11 Q11 A01 Q11 A10 R11 0000 0000',
    '0/C1 R1 0000',
    '2/C11 Q11 A10 Q11 A01 R11 0001 0101',
    '4/C11 Q11 A10 Q11 A10 Q11 A10 Q11 A10 R11 0000 0800',
    '3/C11 Q11 A10 Q11 A10 Q11 A01 R11 0000 1000',
    '0/C1 R1 1000',
    '3/C11 Q11 A10 Q11 A10 Q11 A10 R11 2000 0000',
    '0/C1 R1 0004',
    '4/C11 Q11 A10 Q11 A10 Q11 A10 Q11 A10 R11 1010 1000',
    '0/C1 R1 0000',
    '0/C1 R1 0040',
    '3/C11 Q11 A01 Q11 A01 Q11 A10 R11 0808 0008',
    '0/C11 R11 0202 0400',
    '1/C11 Q11 A10 R11 1010 0010',
]


def test_symmetric_round_trips_match_pinned_records():
    for seed in SEEDS:
        got, fid = sym_record(seed)
        assert got == SYM_RECORDS[seed], seed
        assert abs(fid - 1.0) <= FIDELITY_TOL, seed


def test_sessions_match_pinned_records():
    for seed in SEEDS:
        got, fid = session_record(seed)
        assert got == SESSION_RECORDS[seed], seed
        assert abs(fid - 1.0) <= FIDELITY_TOL, seed


if __name__ == "__main__":
    for name, record in (("SYM_RECORDS", sym_record),
                         ("SESSION_RECORDS", session_record)):
        rows = [record(seed) for seed in SEEDS]
        print(f"{name} = [")
        for text, _ in rows:
            print(f"    {text!r},")
        print("]")
        print(f"# worst infidelity {max(1.0 - fid for _, fid in rows):.3e}")
