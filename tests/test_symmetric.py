"""Symmetric scheme: encrypt, blind evaluation, gadget statistics,
decrypt, key replay, and the two attack experiments."""

import time
import tracemalloc

import numpy as np
import pytest

from cssfhe import cli, css, gf2, sim, symmetric
from cssfhe.errors import (
    AncillaExhaustedError,
    CapacityError,
    LeakageError,
    ParameterError,
    ShapeError,
    WireError,
)

from helpers import count_calls, iso_columns, random_state, rng


def family_key(u, v):
    """A Steane family key; u and v as int masks or '0101' strings."""
    u, v = (w if isinstance(w, int) else int(w, 2) for w in (u, v))
    return symmetric.SymKey("steane", css.base_code("steane"), u, v)


def run_encrypted(key, plaintext, circuit_text, t_budget, seed):
    g = rng(seed)
    circuit = sim.parse_circuit(circuit_text)
    ct = symmetric.encrypt(key, plaintext, t_budget, g)
    symmetric.evaluate(key.code.n, circuit, ct, symmetric.make_readout(key, ct))
    return symmetric.decrypt(key, ct), ct


def test_keygen_deterministic_and_validated():
    a = symmetric.keygen("steane", "family", rng(7))
    b = symmetric.keygen("steane", "family", rng(7))
    assert a.u == b.u
    assert a.v == b.v
    with pytest.raises(ParameterError):
        symmetric.keygen("steane", "random", rng(0))
    with pytest.raises(ParameterError):
        symmetric.keygen("bch", "family", rng(0))


def test_keygen_scrambled_has_zero_key():
    key = symmetric.keygen("steane", "scrambled", rng(3))
    assert key.u == 0 and key.v == 0


def test_encrypt_layout_and_capacity():
    g = rng(10)
    key = symmetric.keygen("steane", "family", g)
    psi = random_state(g, 1)
    ct = symmetric.encrypt(key, psi, 0, g)
    assert ct.state.num_qubits == 7
    assert ct.num_wires == 1
    assert ct.ancilla_pool == []
    # the ancilla is a pending product factor, not part of the register
    ct = symmetric.encrypt(key, psi, 1, g)
    assert ct.state.num_qubits == 7
    assert len(ct.ancilla_pool) == 1
    idx, vals = ct.ancilla_pool[0]
    want_idx, want_vals = css.magic_ancilla_sparse(key.code, (key.v, key.u))
    assert np.array_equal(idx, want_idx) and np.array_equal(vals, want_vals)
    # ancillas take no register space: only the wires count; the equal
    # entries of a pool are one pair of arrays
    ct = symmetric.encrypt(key, psi, 3, g)
    assert ct.state.num_qubits == 7
    assert all(entry is ct.ancilla_pool[0] for entry in ct.ancilla_pool)
    with pytest.raises(CapacityError):
        symmetric.encrypt(key, random_state(g, 4), 0, g)  # 4*7 = 28


def test_ancilla_pool_entries_are_read_only():
    """The pool repeats one pair of arrays, so a write into one entry would
    change every pending ancilla: both arrays refuse it."""
    g = rng(11)
    key = symmetric.keygen("steane", "family", g)
    ct = symmetric.encrypt(key, random_state(g, 1), 2, g)
    for array in ct.ancilla_pool[0]:
        with pytest.raises(ValueError):
            array[0] = 0


def test_encrypt_refuses_a_t_budget_out_of_range(monkeypatch):
    """A budget below 0 or above MAX_T_BUDGET raises ParameterError before
    anything is encoded; MAX_T_BUDGET itself is taken."""
    g = rng(12)
    key = symmetric.keygen("steane", "family", g)
    psi = random_state(g, 1)
    encodes = count_calls(monkeypatch, css, "encode_blocks")
    for budget in (-1, symmetric.MAX_T_BUDGET + 1, 10**6):
        with pytest.raises(ParameterError, match="T budget"):
            symmetric.encrypt(key, psi, budget, g)
    assert encodes == []
    ct = symmetric.encrypt(key, psi, symmetric.MAX_T_BUDGET, g)
    assert len(ct.ancilla_pool) == symmetric.MAX_T_BUDGET


def test_encrypt_decrypt_roundtrip():
    g = rng(11)
    for mode in ("family", "scrambled"):
        for budget in (0, 1):
            key = symmetric.keygen("steane", mode, g)
            psi = random_state(g, 2)
            ct = symmetric.encrypt(key, psi, budget, g)
            out = symmetric.decrypt(key, ct)
            assert sim.fidelity(out, psi) >= 1 - 1e-10


def test_evaluate_h_on_zero():
    key = symmetric.keygen("steane", "family", rng(12))
    out, _ = run_encrypted(key, sim.basis_state(1, "0"), "H 0", 0, 13)
    plus = sim.apply_gate(sim.basis_state(1, "0"), sim.GateOp("H", (0,)))
    assert sim.fidelity(out, plus) >= 1 - 1e-9


def test_evaluate_bell_pair():
    key = symmetric.keygen("steane", "scrambled", rng(14))
    out, _ = run_encrypted(key, sim.basis_state(2, "00"), "H 0\nCNOT 0 1", 0, 15)
    bell = sim.run_circuit(sim.basis_state(2, "00"),
                           sim.parse_circuit("H 0\nCNOT 0 1"))
    assert sim.fidelity(out, bell) >= 1 - 1e-9


def test_evaluate_rejects_overdrawn_t_budget():
    g = rng(16)
    key = symmetric.keygen("steane", "family", g)
    ct = symmetric.encrypt(key, random_state(g, 1), 0, g)
    with pytest.raises(AncillaExhaustedError):
        symmetric.evaluate(7, sim.parse_circuit("T 0"), ct,
                           symmetric.make_readout(key, ct))


def test_evaluate_rejects_wrong_block_length():
    g = rng(17)
    key = symmetric.keygen("steane", "family", g)
    ct = symmetric.encrypt(key, random_state(g, 1), 0, g)
    with pytest.raises(ShapeError):
        symmetric.evaluate(23, sim.parse_circuit("H 0"), ct,
                           symmetric.make_readout(key, ct))


def test_evaluate_rejects_extra_wires():
    g = rng(18)
    key = symmetric.keygen("steane", "family", g)
    ct = symmetric.encrypt(key, random_state(g, 1), 0, g)
    with pytest.raises(WireError):
        symmetric.evaluate(7, sim.parse_circuit("CNOT 0 1"), ct,
                           symmetric.make_readout(key, ct))


def test_gadget_exhausts_pool_accounting():
    g = rng(19)
    key = symmetric.keygen("steane", "family", g)
    ct = symmetric.encrypt(key, random_state(g, 1), 2, g)
    symmetric.evaluate(7, sim.parse_circuit("T 0"), ct,
                       symmetric.make_readout(key, ct))
    assert len(ct.ancilla_pool) == 1
    assert ct.num_wires == 1
    with pytest.raises(AncillaExhaustedError):
        symmetric.evaluate(7, sim.parse_circuit("T 0\nT 0"), ct,
                           symmetric.make_readout(key, ct))


def test_gadget_keeps_register_at_data_blocks():
    """A 2-wire, 1-T Steane circuit never holds more than the two data
    blocks: the gadget splices its ancilla into the measured block's place,
    at the same register position."""
    g = rng(48)
    key = symmetric.keygen("steane", "family", g)
    ct = symmetric.encrypt(key, random_state(g, 2), 1, g)
    assert ct.state.num_qubits == 14
    symmetric.evaluate(7, sim.parse_circuit("H 1\nT 0\nCNOT 0 1"), ct,
                       symmetric.make_readout(key, ct))
    assert ct.state.num_qubits == 14
    assert ct.num_wires == 2
    assert ct.ancilla_pool == []


def test_gadget_t_on_plus_both_outcomes():
    """200 gadget shots on |+>: every decrypt equals T|+> exactly and both
    measurement outcomes occur with near-even frequency."""
    plus = sim.apply_gate(sim.basis_state(1, "0"), sim.GateOp("H", (0,)))
    want = sim.apply_gate(plus.copy(), sim.GateOp("T", (0,)))
    key = symmetric.keygen("steane", "family", rng(20))
    outcomes = []
    for shot in range(200):
        out, ct = run_encrypted(key, plus, "T 0", 1, 1000 + shot)
        assert sim.fidelity(out, want) >= 1 - 1e-9
        outcomes.extend(ct.gadget_outcomes)
    assert len(outcomes) == 200
    assert 60 <= sum(outcomes) <= 140


def test_gadget_t_on_basis_state():
    key = symmetric.keygen("steane", "scrambled", rng(21))
    out, _ = run_encrypted(key, sim.basis_state(1, "0"), "T 0", 1, 22)
    assert sim.fidelity(out, sim.basis_state(1, "0")) >= 1 - 1e-9


def test_gadget_twice_is_s_gate():
    g = rng(23)
    psi = random_state(g, 1)
    want = sim.apply_gate(psi.copy(), sim.GateOp("S", (0,)))
    key = symmetric.keygen("steane", "family", g)
    out, _ = run_encrypted(key, psi, "T 0\nT 0", 2, 24)
    assert sim.fidelity(out, want) >= 1 - 1e-9


def test_gadget_on_entangled_wire():
    bell = sim.run_circuit(sim.basis_state(2, "00"),
                           sim.parse_circuit("H 0\nCNOT 0 1"))
    want = sim.apply_gate(bell.copy(), sim.GateOp("T", (1,)))
    key = symmetric.keygen("steane", "family", rng(25))
    out, _ = run_encrypted(key, bell, "T 1", 1, 26)
    assert sim.fidelity(out, want) >= 1 - 1e-9


def test_family_replay_mixed_circuit():
    g = rng(27)
    psi = random_state(g, 2)
    text = "H 0\nT 0\nCNOT 0 1\nH 1"
    want = sim.run_circuit(psi.copy(), sim.parse_circuit(text))
    key = symmetric.keygen("steane", "family", g)
    out, ct = run_encrypted(key, psi, text, 1, 28)
    assert sim.fidelity(out, want) >= 1 - 1e-9
    assert [g.kind for g in ct.executed] == ["H", "T", "CNOT", "H"]


def test_numpy_integer_wires_round_trip_like_python_ints():
    """Gates built on numpy-integer wires (as a circuit generated with
    numpy would have) run the same round trip as on Python ints,
    including the X then S-dagger correction of a gadget outcome 1."""
    circuit = sim.parse_circuit("H 0\nT 0\nCNOT 0 1\nT 1\nH 1\nT 0")
    numpy_circuit = sim.LogicalCircuit(2, tuple(
        sim.GateOp(g.kind, tuple(np.int64(w) for w in g.wires))
        for g in circuit.gates))
    assert numpy_circuit == circuit
    assert all(type(w) is int for g in numpy_circuit.gates for w in g.wires)
    outcomes = set()
    for seed in range(4):
        key = symmetric.keygen("steane", "family", rng(seed))
        psi = random_state(rng(seed), 2)
        runs = []
        for c in (circuit, numpy_circuit):
            ct = symmetric.encrypt(key, psi, 3, rng(100 + seed))
            symmetric.evaluate(7, c, ct, symmetric.make_readout(key, ct))
            runs.append((symmetric.decrypt(key, ct), ct.gadget_outcomes))
        (want, want_bits), (got, got_bits) = runs
        assert got_bits == want_bits
        assert np.array_equal(got.amps, want.amps)
        outcomes |= set(got_bits)
    assert outcomes == {0, 1}


def test_golay_family_h_roundtrip_budget():
    # the key holder's H rule is a swap, so no 23-qubit work beyond the
    # ciphertext itself
    t0 = time.perf_counter()
    for seed in (0, 1):
        key = symmetric.keygen("golay", "family", rng(seed))
        psi = random_state(rng(seed + 10), 1)
        out, _ = run_encrypted(key, psi, "H 0", 0, seed + 20)
        ref = sim.apply_gate(psi.copy(), sim.GateOp("H", (0,)))
        assert sim.fidelity(out, ref) >= 1 - 1e-9
    assert time.perf_counter() - t0 < 5.0


def test_golay_family_t_roundtrip_in_place():
    """One Golay wire takes a T gate: the magic ancilla waits outside the
    23-qubit register, and the in-place kernels keep the allocations of
    evaluate far below one 128 MiB register."""
    key = symmetric.keygen("golay", "family", rng(40))
    psi = random_state(rng(41), 1)
    circuit = sim.parse_circuit("H 0\nT 0")
    ct = symmetric.encrypt(key, psi, 1, rng(42))
    readout = symmetric.make_readout(key, ct)
    tracemalloc.start()
    try:
        symmetric.evaluate(key.code.n, circuit, ct, readout)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    want = sim.run_circuit(psi.copy(), circuit)
    assert sim.fidelity(symmetric.decrypt(key, ct), want) >= 1 - 1e-9
    assert peak < 32 * 2**20


def test_scrambled_replay_mixed_circuit():
    g = rng(29)
    psi = random_state(g, 2)
    text = "CNOT 1 0\nH 1\nT 1\nCNOT 0 1"
    want = sim.run_circuit(psi.copy(), sim.parse_circuit(text))
    key = symmetric.keygen("steane", "scrambled", g)
    out, _ = run_encrypted(key, psi, text, 1, 30)
    assert sim.fidelity(out, want) >= 1 - 1e-9


def test_evaluator_sees_only_classical_bits(monkeypatch):
    """The oracle boundary: during evaluation the only key-holder traffic
    is n-bit measurement records, and the evaluator never triggers an
    error-correction round."""
    g = rng(31)
    key = symmetric.keygen("steane", "family", g)
    psi = random_state(g, 1)
    ct = symmetric.encrypt(key, psi, 2, g)
    inner = symmetric.make_readout(key, ct)
    seen = []

    def recorder(bits):
        seen.append(bits)
        return inner(bits)

    corrections = count_calls(monkeypatch, css, "correct_errors")
    symmetric.evaluate(7, sim.parse_circuit("H 0\nT 0\nT 0"), ct, recorder)
    assert corrections == []
    assert len(seen) == 2
    for bits in seen:
        assert isinstance(bits, str) and len(bits) == 7
        assert set(bits) <= {"0", "1"}


def full_replay_readout(key, ct):
    """A readout oracle that replays every executed gate from the key on
    each call, by the key rules alone: the reference for make_readout."""
    def readout(bits):
        base = (key.u, key.v)
        keys = [base] * ct.num_wires
        outcomes = iter(ct.gadget_outcomes)
        measured = None
        for g in ct.executed:
            w = g.wires[0]
            if g.kind == "H":
                keys[w] = css.KeyEvolver.h_rule(*keys[w])
            elif g.kind == "CNOT":
                keys[w], keys[g.wires[1]] = css.KeyEvolver.cnot_rule(
                    keys[w], keys[g.wires[1]])
            else:
                keys[w], measured = css.KeyEvolver.cnot_rule(base, keys[w])
                if next(outcomes, 0) == 1:
                    keys[w] = css.KeyEvolver.sdgx_rule(*keys[w])
        # the record is a word under the frame of the measured key's v
        return css.logical_readout(key.code, int(bits, 2) ^ measured[1])
    return readout


def test_readout_matches_full_replay():
    """The readout oracle keeps its replayed keys between calls; its bits,
    the gadget outcomes and the decrypted amplitudes equal those of an
    oracle that replays the whole circuit on every call."""
    for seed in range(50):
        g = rng(1000 + seed)
        wires = int(g.integers(1, 3))
        gates = []
        for _ in range(int(g.integers(1, 13))):
            kind = ("H", "T", "CNOT")[int(g.integers(3 if wires > 1 else 2))]
            if kind == "CNOT":
                gates.append(sim.GateOp(kind, (0, 1) if g.integers(2) else (1, 0)))
            else:
                gates.append(sim.GateOp(kind, (int(g.integers(wires)),)))
        circuit = sim.LogicalCircuit(num_wires=wires, gates=tuple(gates))
        key = symmetric.keygen("steane", ("family", "scrambled")[seed % 2], g)
        psi = random_state(g, wires)
        runs = []
        for make in (symmetric.make_readout, full_replay_readout):
            ct = symmetric.encrypt(key, psi, sim.count_t_gates(circuit),
                                   rng(2000 + seed))
            oracle = make(key, ct)
            answers = []

            def readout(bits):
                answers.append(oracle(bits))
                return answers[-1]

            symmetric.evaluate(key.code.n, circuit, ct, readout)
            runs.append((answers, ct.gadget_outcomes,
                         symmetric.decrypt(key, ct).amps))
        (bits_a, out_a, amps_a), (bits_b, out_b, amps_b) = runs
        assert bits_a == bits_b and out_a == out_b
        assert np.array_equal(amps_a, amps_b)
        want = sim.run_circuit(psi.copy(), circuit)
        assert sim.fidelity(sim.StateVector(wires, amps_a), want) >= 1 - 1e-9


def test_readout_rule_calls_grow_linearly(monkeypatch):
    """Each gate costs the readout oracle a bounded number of key-rule
    calls, however long the circuit already is (a 320-gate H/T circuit
    made 32598 calls when every call replayed the circuit)."""
    calls = [count_calls(monkeypatch, css.KeyEvolver, rule)
             for rule in ("h_rule", "cnot_rule", "sdgx_rule")]
    key = symmetric.keygen("steane", "family", rng(50))
    for length in (20, 80, 320):
        circuit = sim.parse_circuit("H 0\nT 0\n" * (length // 2))
        ct = symmetric.encrypt(key, random_state(rng(51), 1), length // 2,
                               rng(52))
        readout = symmetric.make_readout(key, ct)
        for c in calls:
            c.clear()
        symmetric.evaluate(key.code.n, circuit, ct, readout)
        assert sum(map(len, calls)) <= 3 * length


def test_readout_oracle_requires_a_measurement():
    g = rng(32)
    key = symmetric.keygen("steane", "family", g)
    ct = symmetric.encrypt(key, random_state(g, 1), 0, g)
    with pytest.raises(ShapeError):
        symmetric.make_readout(key, ct)("0000000")


def test_readout_oracle_refuses_a_record_of_the_wrong_length():
    g = rng(39)
    key = symmetric.keygen("steane", "scrambled", g)
    ct = symmetric.encrypt(key, random_state(g, 1), 1, g)
    oracle = symmetric.make_readout(key, ct)
    symmetric.evaluate(7, sim.parse_circuit("T 0"), ct, oracle)
    for bits in ("000000", "00000000"):
        with pytest.raises(ShapeError, match="record length"):
            oracle(bits)


@pytest.mark.parametrize("mode", ["family", "scrambled"])
def test_readout_oracle_refuses_a_record_that_is_not_bits(mode):
    """A record is exactly n characters 0/1: a digit that a read mod 2
    would fold into 0 or 1, a letter, a 0b prefix, an underscore or a
    space is refused with ShapeError, and the oracle still answers a
    well-formed record afterwards."""
    g = rng(44)
    key = symmetric.keygen("steane", mode, g)
    ct = symmetric.encrypt(key, random_state(g, 1), 1, g)
    oracle = symmetric.make_readout(key, ct)
    seen = []
    symmetric.evaluate(7, sim.parse_circuit("T 0"), ct,
                       lambda bits: seen.append(bits) or oracle(bits))
    for bits in ("0000002", "2222222", "0000009", "000000a", "0b10101",
                 "1_00000", " 000000", "000000 ", "０００００００"):
        with pytest.raises(ShapeError):
            oracle(bits)
    assert oracle(seen[0]) == ct.gadget_outcomes[0]


def test_decrypt_wrong_family_key_leaks():
    g = rng(33)
    key = family_key("1010110", "0110001")
    ct = symmetric.encrypt(key, random_state(g, 1), 0, g)
    wrong = family_key("1010111", "0110001")  # different code space
    with pytest.raises(LeakageError):
        symmetric.decrypt(wrong, ct)


def test_decrypt_sibling_key_flips_plaintext():
    # same code space, v shifted by the logical representative: decode is
    # leak free but lands on the bit-flipped plaintext
    g = rng(34)
    key = family_key("1010110", "0110001")
    psi = random_state(g, 1)
    ct = symmetric.encrypt(key, psi, 0, g)
    sibling = family_key("1010110", 0b0110001 ^ key.code.x1)
    out = symmetric.decrypt(sibling, ct)
    assert sim.fidelity(out, psi) < 0.99
    flipped = sim.apply_gate(psi.copy(), sim.GateOp("X", (0,)))
    assert sim.fidelity(out, flipped) >= 1 - 1e-10


@pytest.mark.parametrize("mode", ["family", "scrambled"])
def test_decrypt_rejects_tampered_pending_ancilla(mode):
    """An unconsumed ancilla must be the key's own magic state: a sibling
    key's magic state (half overlap) or the key's |0>_L make decrypt
    raise, while the untouched ancilla decrypts cleanly."""
    g = rng(49)
    key = symmetric.keygen("steane", mode, g)
    psi = random_state(g, 1)
    ct = symmetric.encrypt(key, psi, 1, g)
    assert sim.fidelity(symmetric.decrypt(key, ct), psi) >= 1 - 1e-10
    sibling = (key.v ^ key.code.x1, key.u)
    logical_zero = iso_columns(key.code, key.u, key.v)[0]
    for idx, vals in (css.magic_ancilla_sparse(key.code, sibling),
                      logical_zero):
        ct.ancilla_pool[0] = (idx, vals)
        with pytest.raises(LeakageError):
            symmetric.decrypt(key, ct)


def test_decrypt_of_no_wires_is_a_new_state():
    g = rng(52)
    key = symmetric.keygen("steane", "family", g)
    ct = symmetric.encrypt(key, sim.StateVector(0, np.ones(1)), 0, g)
    out = symmetric.decrypt(key, ct)
    assert out is not ct.state and out.amps.tolist() == [1.0]


def test_base_code_is_one_read_only_code_per_name():
    """css.base_code builds each named pair once, with read-only rows:
    every family key holds that one code, a scrambled key publishes S C1 P
    of its C1, and an unknown name is refused."""
    for name in ("steane", "golay"):
        base = css.base_code(name)
        assert css.base_code(name) is base
        for code in (base.c1, base.c2):
            for mat in (code.gen, code.pchk):
                with pytest.raises(TypeError):
                    mat[0] ^= 1
    base = css.base_code("steane")
    a = symmetric.keygen("steane", "family", rng(50))
    b = symmetric.keygen("steane", "scrambled", rng(51))
    assert a.code is base
    assert np.array_equal(b.code.c1.gen,
                          gf2.mat_mul(gf2.mat_mul(b.s, base.c1.gen), b.p))
    with pytest.raises(ParameterError, match="unknown base pair 'x'"):
        css.base_code("x")
    with pytest.raises(ParameterError, match="unknown base pair 'x'"):
        symmetric.keygen("x", "family", rng(52))


def test_decrypt_wrong_scrambled_key_leaks():
    g = rng(35)
    key = symmetric.keygen("steane", "scrambled", g)
    ct = symmetric.encrypt(key, random_state(g, 1), 0, g)
    wrong = symmetric.keygen("steane", "scrambled", rng(99))
    with pytest.raises(LeakageError):
        symmetric.decrypt(wrong, ct)


def test_attack_key_guess_single_candidate():
    g = rng(36)
    key = symmetric.keygen("steane", "family", g)
    ct = symmetric.encrypt(key, random_state(g, 1), 0, g)
    report = symmetric.attack_key_guess(ct, [key])
    assert report["clean"] == 1 and report["identified"]


def test_attack_key_guess_sibling_blocks_identification():
    g = rng(37)
    key = family_key("0101101", "1110000")
    ct = symmetric.encrypt(key, random_state(g, 1), 0, g)
    sibling = family_key("0101101", 0b1110000 ^ key.code.x1)
    stranger = family_key("0101100", "1110000")
    report = symmetric.attack_key_guess(ct, [key, sibling, stranger])
    assert report["clean"] == 2
    assert report["per_candidate"] == [True, True, False]
    assert not report["identified"]


def test_attack_key_guess_empty_roster():
    g = rng(38)
    key = symmetric.keygen("steane", "family", g)
    ct = symmetric.encrypt(key, random_state(g, 1), 0, g)
    report = symmetric.attack_key_guess(ct, [])
    assert report["clean"] == 0 and not report["identified"]


def leak_roster(true_key):
    """True key, its half-overlap sibling, and span-distinct fillers."""
    roster = [true_key,
              family_key(true_key.u, true_key.v ^ true_key.code.x1)]
    u = true_key.u
    for i in range(14):
        e = 1 << (6 - i % 7)
        shift = 1 << (6 - (i + 1) % 7) if i >= 7 else 0
        roster.append(family_key(u ^ e ^ shift, true_key.v))
    return roster


def test_attack_ancilla_leak_single_candidate():
    key = symmetric.keygen("steane", "family", rng(39))
    report = symmetric.attack_ancilla_leak(1, [key], key, rng(40), trials=50)
    assert report["success"] == 1.0


def test_attack_ancilla_leak_requires_true_key():
    key = symmetric.keygen("steane", "family", rng(41))
    other = family_key(key.u ^ 0b1000000, key.v)
    with pytest.raises(ParameterError):
        symmetric.attack_ancilla_leak(1, [other], key, rng(42))


def test_attack_ancilla_leak_zero_copies_is_uniform():
    key = family_key("1100110", "0011010")
    roster = leak_roster(key)
    assert len(roster) == 16
    report = symmetric.attack_ancilla_leak(0, roster, key, rng(43), trials=2000)
    assert abs(report["success"] - 1 / 16) < 0.03


def test_attack_ancilla_leak_success_grows_with_copies():
    """With span-distinct fillers eliminated by one copy, the only
    surviving rival is the half-overlap sibling; success approaches 1 as
    copies grow but never reaches it."""
    key = family_key("1100110", "0011010")
    roster = leak_roster(key)
    results = [symmetric.attack_ancilla_leak(c, roster, key, rng(44 + c),
                                             trials=2000)["success"]
               for c in (0, 1, 4)]
    assert results[0] < results[1] < results[2] < 1.0
    # expected values 1/16, 3/4, and 31/32 up to Monte Carlo noise
    assert abs(results[1] - 0.75) < 0.05
    assert abs(results[2] - 31 / 32) < 0.03


def test_attack_ancilla_leak_overlap_spectrum():
    key = family_key("1100110", "0011010")
    roster = leak_roster(key)
    report = symmetric.attack_ancilla_leak(0, roster, key, rng(47), trials=10)
    overlaps = np.array(report["overlaps"])
    assert abs(overlaps[0] - 1.0) < 1e-12
    assert abs(overlaps[1] - 0.5) < 1e-12
    assert np.all(overlaps[2:] < 1e-12)


def _exact_by_enumeration(overlaps, true_idx, copies) -> float:
    """E[1/(1+S)] summed over every survivor set of the other candidates."""
    q = np.array([p for i, p in enumerate(overlaps) if i != true_idx])
    q = q ** copies
    sets = (np.arange(1 << q.size)[:, None] >> np.arange(q.size)) & 1
    probs = np.where(sets == 1, q, 1 - q).prod(axis=1)
    return float(probs @ (1 / (1 + sets.sum(axis=1))))


def test_attack_ancilla_leak_exact_rate():
    """The exact rate is the survivor-set sum, and on this roster, whose
    only partial overlap is the sibling's 1/2, 1/16 at 0 copies and
    1 - 2^-(c+1) at c copies."""
    key = family_key("1100110", "0011010")
    roster = leak_roster(key)
    for copies in range(5):
        report = symmetric.attack_ancilla_leak(copies, roster, key,
                                               rng(48), trials=1)
        want = 1 / 16 if copies == 0 else 1 - 2.0 ** -(copies + 1)
        assert report["exact"] == pytest.approx(want, abs=1e-12)
        assert report["exact"] == pytest.approx(_exact_by_enumeration(
            report["overlaps"], 0, copies), abs=1e-12)


@pytest.mark.parametrize("size", [16, 65])
def test_attack_ancilla_leak_samples_the_exact_rate(size):
    key = symmetric.keygen("steane", "family", rng(49))
    roster = cli._family_candidates("steane", size, key)
    for copies in range(4):
        report = symmetric.attack_ancilla_leak(copies, roster, key,
                                               rng(50 + copies), trials=1000)
        p = report["exact"]
        assert abs(report["success"] - p) <= 3 * np.sqrt(p * (1 - p) / 1000)
