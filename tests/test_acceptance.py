"""Acceptance gate: ten end-to-end criteria, one test each, with the
stated tolerances and runtime budgets asserted inside the tests."""

import inspect
import json
import time
import warnings
from functools import reduce

import numpy as np

from cssfhe import asymmetric, cli, css, files, gf2, sim, symmetric
from cssfhe.errors import DecodeFailureError

from helpers import (count_calls, decode_per_block, isometry, random_circuit,
                     random_state, refresh_count)


def seeded(*parts):
    return np.random.default_rng(list(parts))


def sym_run(key, psi, circuit, t_budget, gen):
    ct = symmetric.encrypt(key, psi, t_budget, gen)
    symmetric.evaluate(key.code.n, circuit, ct, symmetric.make_readout(key, ct))
    return symmetric.decrypt(key, ct), ct


def steane_keypair(seed):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # weight floor(c * 1) = 0 warning
        return asymmetric.keygen("steane", 0.5, seeded(5, seed))


def test_criterion_01_roundtrip_identity():
    t0 = time.perf_counter()
    gen = seeded(1, 0)
    for i in range(20):
        psi = random_state(gen, 1 + i % 2)
        for variant in ("family", "scrambled"):
            key = symmetric.keygen("steane", variant, seeded(1, 1, i))
            ct = symmetric.encrypt(key, psi, 0, seeded(1, 2, i))
            out = symmetric.decrypt(key, ct)
            assert sim.fidelity(out, psi) >= 1 - 1e-10
    assert time.perf_counter() - t0 < 5.0


def test_criterion_02_homomorphism():
    t0 = time.perf_counter()
    gen = seeded(2, 0)
    cases = []
    for _ in range(20):
        circuit = random_circuit(gen)
        psi = random_state(gen, circuit.num_wires)
        cases.append((circuit, psi, sim.run_circuit(psi.copy(), circuit),
                      sim.count_t_gates(circuit)))
    t_total = sum(t for _, _, _, t in cases)
    assert t_total > 0
    # smallest repeat count that still yields >= 200 gadget shots overall
    repeats = -(-100 // t_total)
    gadget_shots = 0
    peak = 0
    fidelities = []
    for ci, (circuit, psi, reference, t_count) in enumerate(cases):
        for vi, variant in enumerate(("family", "scrambled")):
            key = symmetric.keygen("steane", variant, seeded(2, 1, ci, vi))
            for s in range(repeats if t_count else 1):
                out, ct = sym_run(key, psi, circuit, t_count,
                                  seeded(2, 2, ci, vi, s))
                peak = max(peak, ct.state.num_qubits)
                gadget_shots += t_count
                fid = sim.fidelity(out, reference)
                fidelities.append(fid)
                assert fid >= 1 - 1e-9
    assert gadget_shots >= 200
    assert float(np.mean(fidelities)) >= 1 - 1e-9
    assert peak == 14  # 2 blocks; the magic ancillas wait outside
    assert time.perf_counter() - t0 < 60.0


def test_criterion_03_transversal_identities():
    t0 = time.perf_counter()
    steane = css.base_code("steane")
    code = css.build(steane.c1, steane.c2)
    gen = seeded(3, 0)

    # transversal H with the swapped key; the key (u, v) is the frame (v, u)
    for _ in range(5):
        u, v = (gf2.random_vector(7, gen) for _ in range(2))
        psi = random_state(gen, 1)
        enc = css.encode_blocks(code, psi, [(v, u)])
        for q in range(7):
            sim.apply_gate(enc, sim.GateOp("H", (q,)))
        out = css.decode_blocks(code, enc, [(u, v)])
        ref = sim.apply_gate(psi.copy(), sim.GateOp("H", (0,)))
        assert sim.fidelity(out, ref) >= 1 - 1e-10

    # transversal CNOT with the xor key rule
    for _ in range(3):
        uc, vc, ut, vt = (gf2.random_vector(7, gen)
                          for _ in range(4))
        psi = random_state(gen, 2)
        enc = sim.apply_block_isometry(psi.copy(), 0, isometry(code, uc, vc))
        enc = sim.apply_block_isometry(enc, 7, isometry(code, ut, vt))
        for q in range(7):
            sim.apply_gate(enc, sim.GateOp("CNOT", (q, 7 + q)))
        out = decode_per_block(enc, code, [(uc ^ ut, vc), (ut, vc ^ vt)])
        ref = sim.apply_gate(psi.copy(), sim.GateOp("CNOT", (0, 1)))
        assert sim.fidelity(out, ref) >= 1 - 1e-10

    # logical S as transversal S-dagger on scrambled codes
    for seed in range(3):
        key = symmetric.keygen("steane", "scrambled", seeded(3, 1, seed))
        psi = random_state(gen, 1)
        enc = css.encode_blocks(key.code, psi)
        for q in range(7):
            sim.apply_gate(enc, sim.GateOp("Sdg", (q,)))
        ref = css.encode_blocks(key.code,
                                sim.apply_gate(psi.copy(), sim.GateOp("S", (0,))))
        assert sim.fidelity(enc, ref) >= 1 - 1e-10

    # the gadget correction pair: transversal X then S-dagger
    for _ in range(5):
        u, v = (gf2.random_vector(7, gen) for _ in range(2))
        psi = random_state(gen, 1)
        enc = css.encode_blocks(code, psi, [(v, u)])
        for q in range(7):
            sim.apply_gate(enc, sim.GateOp("X", (q,)))
        for q in range(7):
            sim.apply_gate(enc, sim.GateOp("Sdg", (q,)))
        out = css.decode_blocks(code, enc, [(v, u ^ v)])
        ref = sim.apply_gate(sim.apply_gate(psi.copy(), sim.GateOp("X", (0,))),
                             sim.GateOp("S", (0,)))
        assert sim.fidelity(out, ref) >= 1 - 1e-10
    assert time.perf_counter() - t0 < 10.0


def test_criterion_04_gadget_both_branches(monkeypatch):
    plus = sim.apply_gate(sim.basis_state(1, "0"), sim.GateOp("H", (0,)))
    want = sim.apply_gate(plus.copy(), sim.GateOp("T", (0,)))
    key = symmetric.keygen("steane", "family", seeded(4, 0))
    circuit = sim.parse_circuit("T 0")
    splices = []
    real = sim.splice_ancilla

    def spy(state, start, n, a_idx, a_val, readout, rng):
        before = state.amps.copy()
        bits, outcome, state = real(state, start, n, a_idx, a_val, readout,
                                    rng)
        splices.append((before, start, n, a_idx, a_val, int(bits, 2),
                        outcome, state.amps.copy()))
        return bits, outcome, state

    monkeypatch.setattr(sim, "splice_ancilla", spy)
    found = {}
    for seed in range(60):
        if len(found) == 2:
            break
        splices.clear()
        out, ct = sym_run(key, plus, circuit, 1, seeded(4, 1, seed))
        outcome = ct.gadget_outcomes[0]
        if outcome in found:
            continue
        assert sim.fidelity(out, want) >= 1 - 1e-9
        # the wire's block holds the spliced ancilla at a_idx on outcome 0
        # and, corrected by X then Sdg, at a_idx ^ 127 on outcome 1
        [(before, start, n, a_idx, a_val, y, spliced, after)] = splices
        assert (start, n, spliced) == (0, 7, outcome)
        dest = a_idx ^ (127 * outcome)
        ref = np.zeros_like(before)
        ref[dest] = a_val * before[y ^ a_idx]
        if outcome:
            ref[dest] *= (-1j) ** np.array([int(d).bit_count() for d in dest])
        assert np.allclose(after, ref / np.linalg.norm(ref), atol=1e-12)
        found[outcome] = seed
    assert sorted(found) == [0, 1]


def test_criterion_05_asymmetric_error_sweep():
    t0 = time.perf_counter()

    def sweep(kp, n):
        gen = seeded(5, 10 + n)
        psi = random_state(gen, 1)
        ct = asymmetric.encrypt(kp.public, psi, gen, override_weight=0)
        clean = ct.state.amps.copy()
        for pos in range(n):
            for kind in ("X", "Y", "Z"):
                ct.state = sim.StateVector(n, clean.copy(), check=False)
                x = int(kind in ("X", "Y")) << (n - 1 - pos)
                z = int(kind in ("Y", "Z")) << (n - 1 - pos)
                sim.apply_block_pauli(ct.state, 0, n, x_mask=x, z_mask=z)
                out = asymmetric.decrypt(kp.private, ct)
                assert sim.fidelity(out, psi) >= 1 - 1e-10
        return psi, ct, clean

    def overload(kp, n, psi, ct, clean, positions):
        ct.state = sim.StateVector(n, clean.copy(), check=False)
        mask = 0
        for p in positions:
            mask |= 1 << (n - 1 - p)
        sim.apply_block_pauli(ct.state, 0, n, x_mask=mask, z_mask=0)
        try:
            out = asymmetric.decrypt(kp.private, ct)
            assert sim.fidelity(out, psi) < 0.99
        except DecodeFailureError:
            pass

    kp7 = steane_keypair(1)
    psi7, ct7, clean7 = sweep(kp7, 7)          # 21 cases
    overload(kp7, 7, psi7, ct7, clean7, [0, 1])  # weight t+1 = 2

    kp23 = asymmetric.keygen("golay", 0.5, seeded(5, 2))
    psi23, ct23, clean23 = sweep(kp23, 23)     # 69 cases
    overload(kp23, 23, psi23, ct23, clean23, [2, 7, 11, 19])  # weight t+1 = 4

    assert time.perf_counter() - t0 < 120.0


def test_criterion_06_refresh_protocol():
    for k in (1, 2, 3):
        kp = steane_keypair(20 + k)
        gen = seeded(6, k)
        psi = random_state(gen, 2)
        ct = asymmetric.encrypt(kp.public, psi, gen, override_weight=1)
        alice = asymmetric.make_refresh_authority(kp.private, seeded(6, 1, k))
        circuit = sim.parse_circuit("\n".join(["CNOT 0 1"] * k))
        final, transcript = asymmetric.evaluate_session(
            kp.public, circuit, ct, alice, seeded(6, 2, k))
        assert refresh_count(transcript) == k
        want = sim.run_circuit(psi.copy(), circuit)
        out = asymmetric.decrypt(kp.private, final)
        assert sim.fidelity(out, want) >= 1 - 1e-9


def test_criterion_07_position_preservation():
    # independent operator oracle built from plain kronecker products
    h1 = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2)
    eye = np.eye(2, dtype=np.complex128)
    px = np.array([[0, 1], [1, 0]], dtype=np.complex128)
    pz = np.array([[1, 0], [0, -1]], dtype=np.complex128)
    h7 = reduce(np.kron, [h1] * 7)

    def embed(op, i):
        return reduce(np.kron, [op if q == i else eye for q in range(7)])

    for i in range(7):
        xi, zi = embed(px, i), embed(pz, i)
        assert np.allclose(h7 @ xi, zi @ h7, atol=1e-12)
        assert np.allclose(h7 @ zi, xi @ h7, atol=1e-12)

    # and the simulator's own kernels agree on a random encoded state
    gen = seeded(7, 0)
    psi = random_state(gen, 7)
    for i in range(7):
        a = psi.copy()
        sim.apply_gate(a, sim.GateOp("X", (i,)))
        for q in range(7):
            sim.apply_gate(a, sim.GateOp("H", (q,)))
        b = psi.copy()
        for q in range(7):
            sim.apply_gate(b, sim.GateOp("H", (q,)))
        sim.apply_gate(b, sim.GateOp("Z", (i,)))
        assert sim.fidelity(a, b) >= 1 - 1e-10
        assert np.allclose(a.amps, b.amps, atol=1e-10)


def test_criterion_08_ancilla_leak_statistics():
    key = symmetric.keygen("steane", "family", seeded(8, 0))
    roster = cli._family_candidates("steane", 16, key)
    assert len(roster) == 16
    r0 = symmetric.attack_ancilla_leak(0, roster, key, seeded(8, 1),
                                       trials=1000)
    # binomial 3 sigma around 1/16 at 1000 trials
    assert abs(r0["success"] - 1 / 16) <= 3 * np.sqrt(
        (1 / 16) * (15 / 16) / 1000)
    r4 = symmetric.attack_ancilla_leak(4, roster, key, seeded(8, 2),
                                       trials=1000)
    assert r4["success"] > r0["success"]


def test_criterion_09_evaluator_isolation(monkeypatch):
    # the evaluation entry point cannot receive key material
    params = set(inspect.signature(symmetric.evaluate).parameters)
    assert params == {"n", "circuit", "ct", "readout"}

    gen = seeded(9, 0)
    key = symmetric.keygen("steane", "family", gen)
    psi = random_state(gen, 1)
    ct = symmetric.encrypt(key, psi, 2, gen)
    inner = symmetric.make_readout(key, ct)
    crossing = []

    def recorder(bits):
        crossing.append(bits)
        return inner(bits)

    corrections = count_calls(monkeypatch, css, "correct_errors")
    symmetric.evaluate(7, sim.parse_circuit("H 0\nT 0\nT 0"), ct, recorder)
    assert corrections == []
    assert len(crossing) == 2
    for bits in crossing:
        assert isinstance(bits, str) and len(bits) == 7
        assert set(bits) <= {"0", "1"}


def test_criterion_10_determinism(capsys, tmp_path):
    def sym_trace():
        key = symmetric.keygen("steane", "family", seeded(10, 0))
        psi = random_state(seeded(10, 1), 2)
        circuit = sim.parse_circuit("H 0\nT 0\nCNOT 0 1")
        ct = symmetric.encrypt(key, psi, 1, seeded(10, 2))
        oracle = symmetric.make_readout(key, ct)
        crossing = []

        def recorder(bits):
            crossing.append((bits, oracle(bits)))
            return crossing[-1][1]

        symmetric.evaluate(key.code.n, circuit, ct, recorder)
        out = symmetric.decrypt(key, ct)
        return out.amps.tobytes(), tuple(ct.gadget_outcomes), tuple(crossing)

    def asym_trace():
        kp = steane_keypair(3)
        psi = random_state(seeded(10, 3), 2)
        ct = asymmetric.encrypt(kp.public, psi, seeded(10, 4),
                                override_weight=1)
        alice = asymmetric.make_refresh_authority(kp.private, seeded(10, 5))
        final, tr = asymmetric.evaluate_session(
            kp.public, sim.parse_circuit("CNOT 0 1\nH 0"), ct, alice,
            seeded(10, 6))
        return (asymmetric.decrypt(kp.private, final).amps.tobytes(),
                files.dumps(files.transcript_records(tr)))

    assert sym_trace() == sym_trace()
    assert asym_trace() == asym_trace()

    circ = tmp_path / "c.circ"
    circ.write_text("CNOT 0 1\n", encoding="utf-8")
    argv = ["session", "--circuit", str(circ), "--weight", "1", "--seed", "99"]
    outs = []
    for _ in range(2):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert cli.main(argv) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["refreshes"] == 1
