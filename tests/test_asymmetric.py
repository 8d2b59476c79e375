"""Asymmetric scheme: public-code encryption with injected errors, bound
tracking, refresh round trips, and the session protocol."""

import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest

from cssfhe import asymmetric, codes, css, sim, symmetric
from cssfhe.errors import (
    CapacityError,
    DecodeFailureError,
    LeakageError,
    ParameterError,
    RefreshAuthorityError,
    WeightTooLargeError,
    WireError,
)

from helpers import (FrameOracle, encrypt_reference, random_state,
                     refresh_count, refresh_reference, rng)


def steane_pair(seed):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # floor(c * 1) = 0 for every c
        return asymmetric.keygen("steane", 0.5, rng(seed))


@pytest.fixture(scope="module")
def golay_pair():
    return asymmetric.keygen("golay", 0.5, rng(200))


def run_gate(kp, ct, kind, *wires, gen=None):
    asymmetric._step(ct, sim.GateOp(kind, wires), kp.public.code, gen)


def pauli_kinds(frame) -> set:
    """The (x, z) bits of every position a frame flips: (1, 0) is an X,
    (1, 1) a Y and (0, 1) a Z."""
    return {(x >> i & 1, z >> i & 1) for x, z in frame.frames
            for i in range((x | z).bit_length()) if (x | z) >> i & 1}


def unit(n, *positions):
    """The int mask of the given qubit positions, bit n-1-j for qubit j."""
    return sum(1 << (n - 1 - p) for p in positions)


def test_keygen_validates_c():
    for bad in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(ParameterError):
            asymmetric.keygen("golay", bad, rng(0))


def test_keygen_golay_weights():
    kp = asymmetric.keygen("golay", 0.5, rng(1))
    assert kp.public.code.t == 3
    assert kp.public.ct_weight == 1  # floor(0.5 * 3)
    assert asymmetric.keygen("golay", 0.99, rng(2)).public.ct_weight == 2
    assert asymmetric.keygen("golay", 0.34, rng(3)).public.ct_weight == 1


def test_keygen_steane_warns_on_zero_weight():
    with pytest.warns(UserWarning):
        kp = asymmetric.keygen("steane", 0.9, rng(4))
    assert kp.public.ct_weight == 0  # floor(0.9 * 1)


def test_public_code_has_zero_key():
    kp = steane_pair(5)
    assert kp.private.u == 0 and kp.private.v == 0
    assert kp.public.code is kp.private.code
    assert kp.private.variant == "scrambled"


def test_ciphertexts_hold_nothing_the_evaluator_must_not_see():
    """The evaluator holds the blocks, public sizes, weight bounds and the
    gates it ran: no error masks, and no field that the key decides."""
    assert [f.name for f in dataclasses.fields(asymmetric.AsymCiphertext)] \
        == ["state", "n", "t", "bounds", "session_weight"]
    quantum = {"state", "ancilla_pool"}  # data prepared under the key
    classical = [f.name for f in dataclasses.fields(symmetric.SymCiphertext)
                 if f.name not in quantum]
    assert classical == ["n", "executed", "gadget_outcomes", "rng"]
    circuit = sim.parse_circuit("H 0\nCNOT 0 1")
    g = rng(36)
    psi = random_state(g, 2)
    views = []
    for seed, mode in enumerate(("family", "scrambled", "family")):
        key = symmetric.keygen("steane", mode, rng(40 + seed))
        ct = symmetric.encrypt(key, psi, 1, rng(37))
        symmetric.evaluate(7, circuit, ct, symmetric.make_readout(key, ct))
        views.append((ct.n, ct.executed, ct.gadget_outcomes,
                      ct.rng.bit_generator.state))
    assert views[0] == views[1] == views[2]


def test_encrypt_zero_weight_roundtrip():
    g = rng(6)
    kp = steane_pair(6)
    psi = random_state(g, 2)
    ct = asymmetric.encrypt(kp.public, psi, g)
    assert ct.state.num_qubits == 14
    assert ct.bounds == [0, 0]
    frame = FrameOracle.read(kp.private, ct)
    assert [frame.weight(w) for w in range(2)] == [0, 0]
    out = asymmetric.decrypt(kp.private, ct)
    assert sim.fidelity(out, psi) >= 1 - 1e-10


def test_encrypt_injects_per_block():
    g = rng(7)
    kp = steane_pair(7)
    psi = random_state(g, 2)
    ct = asymmetric.encrypt(kp.public, psi, g, override_weight=1)
    assert ct.bounds == [1, 1]
    assert ct.session_weight == 1
    frame = FrameOracle.read(kp.private, ct)
    assert [frame.weight(w) for w in range(2)] == [1, 1]
    out = asymmetric.decrypt(kp.private, ct)
    assert sim.fidelity(out, psi) >= 1 - 1e-10


def test_injected_errors_are_uniform_paulis(golay_pair):
    """encrypt puts exactly `weight` errors on every block and refresh puts
    the session weight on one block; X, Y and Z errors all occur."""
    seen = set()
    for seed in range(12):
        g = rng(500 + seed)
        kp = steane_pair(500 + seed)
        ct = asymmetric.encrypt(kp.public, random_state(g, 2), g,
                                override_weight=1)
        frame = FrameOracle.read(kp.private, ct)
        assert [frame.weight(w) for w in range(2)] == [1, 1]
        fresh = asymmetric.refresh(kp.private, ct, g)
        fresh_frame = FrameOracle.read(kp.private, fresh)
        assert sorted(fresh_frame.weight(w) for w in range(2)) == [0, 1]
        seen |= pauli_kinds(frame) | pauli_kinds(fresh_frame)
    for seed in range(2):
        g = rng(520 + seed)
        ct = asymmetric.encrypt(golay_pair.public, random_state(g, 1), g,
                                override_weight=3)
        frame = FrameOracle.read(golay_pair.private, ct)
        assert frame.weight(0) == 3
        seen |= pauli_kinds(frame)
        del ct  # free the 128 MiB register before the next encryption
    assert seen == {(1, 0), (1, 1), (0, 1)}


def test_encrypt_rejects_weight_beyond_radius():
    g = rng(8)
    kp = steane_pair(8)
    with pytest.raises(WeightTooLargeError):
        asymmetric.encrypt(kp.public, random_state(g, 1), g, override_weight=2)


def test_encrypt_refuses_capacity_before_allocating():
    """Four Steane wires need 28 qubits: the refusal comes before any
    register is built."""
    g = rng(10)
    kp = steane_pair(10)
    plain = random_state(g, 4)
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError):
            asymmetric.encrypt(kp.public, plain, g, override_weight=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_decrypt_single_pauli_sweep():
    """Every weight-1 Pauli on the block is recovered exactly."""
    g = rng(9)
    kp = steane_pair(9)
    psi = random_state(g, 1)
    ct = asymmetric.encrypt(kp.public, psi, g)
    clean_amps = ct.state.amps.copy()
    for pos in range(7):
        for kind in ("X", "Y", "Z"):
            ct.state = sim.StateVector(7, clean_amps.copy(), check=False)
            x = int(kind in ("X", "Y")) << (6 - pos)
            z = int(kind in ("Y", "Z")) << (6 - pos)
            sim.apply_block_pauli(ct.state, 0, 7, x_mask=x, z_mask=z)
            out = asymmetric.decrypt(kp.private, ct)
            assert sim.fidelity(out, psi) >= 1 - 1e-10


def test_decrypt_random_weights_many_seeds():
    for seed in range(10):
        g = rng(300 + seed)
        kp = steane_pair(10)
        psi = random_state(g, 2)
        ct = asymmetric.encrypt(kp.public, psi, g, override_weight=1)
        out = asymmetric.decrypt(kp.private, ct)
        assert sim.fidelity(out, psi) >= 1 - 1e-10


def test_refresh_resets_bounds_to_one_block():
    g = rng(11)
    kp = steane_pair(11)
    psi = random_state(g, 2)
    ct = asymmetric.encrypt(kp.public, psi, g, override_weight=1)
    fresh = asymmetric.refresh(kp.private, ct, g)
    assert sorted(fresh.bounds) == [0, 1]  # total stays session_weight
    assert fresh.session_weight == 1
    frame = FrameOracle.read(kp.private, fresh)
    assert [frame.weight(w) for w in range(2)] == fresh.bounds
    out = asymmetric.decrypt(kp.private, fresh)
    assert sim.fidelity(out, psi) >= 1 - 1e-10


def test_refresh_single_block_restores_encryption_weight(golay_pair):
    g = rng(12)
    psi = random_state(g, 1)
    ct = asymmetric.encrypt(golay_pair.public, psi, g)
    assert ct.bounds == [1]
    fresh = asymmetric.refresh(golay_pair.private, ct, g)
    assert fresh.bounds == [1]  # floor(c * t) again
    out = asymmetric.decrypt(golay_pair.private, fresh)
    assert sim.fidelity(out, psi) >= 1 - 1e-10


def test_refresh_five_times_stays_exact():
    g = rng(13)
    kp = steane_pair(13)
    psi = random_state(g, 2)
    ct = asymmetric.encrypt(kp.public, psi, g, override_weight=1)
    for _ in range(5):
        ct = asymmetric.refresh(kp.private, ct, g)
    out = asymmetric.decrypt(kp.private, ct)
    assert sim.fidelity(out, psi) >= 1 - 1e-9


def test_gate_h_swaps_masks():
    g = rng(14)
    kp = steane_pair(14)
    psi = random_state(g, 1)
    ct = asymmetric.encrypt(kp.public, psi, g, override_weight=1)
    (x0, z0), = FrameOracle.read(kp.private, ct).frames
    run_gate(kp, ct, "H", 0)
    (x1, z1), = FrameOracle.read(kp.private, ct).frames
    assert np.array_equal(x1, z0)
    assert np.array_equal(z1, x0)
    assert ct.bounds == [1]
    want = sim.apply_gate(psi.copy(), sim.GateOp("H", (0,)))
    assert sim.fidelity(asymmetric.decrypt(kp.private, ct), want) >= 1 - 1e-10


def test_gate_cnot_propagates_masks_and_bounds():
    g = rng(15)
    kp = steane_pair(15)
    psi = random_state(g, 2)
    ct = asymmetric.encrypt(kp.public, psi, g, override_weight=0)
    xc, zc, xt, zt = unit(7, 2), unit(7, 2), unit(7, 5), unit(7, 0)
    frame = FrameOracle.inject(ct, [(xc, zc), (xt, zt)])  # Y 2 | X 5, Z 0
    ct.bounds = [1, 1]
    run_gate(kp, ct, "CNOT", 0, 1)
    frame.cnot(0, 1)
    (xc1, zc1), (xt1, zt1) = frame.frames
    assert np.array_equal(xt1, unit(7, 2, 5))  # xt ^ xc
    assert np.array_equal(zc1, unit(7, 0, 2))  # zc ^ zt
    assert np.array_equal(xc1, xc)
    assert np.array_equal(zt1, zt)
    assert ct.bounds == [2, 2]
    evolved = sim.apply_gate(psi.copy(), sim.GateOp("CNOT", (0, 1)))
    clean = css.encode_blocks(kp.public.code, evolved)
    assert sim.fidelity(frame.undo(ct), clean) >= 1 - 1e-10


def test_gate_masks_match_physical_error():
    """Undoing the recorded masks must land exactly on the clean encoding
    of the evolved plaintext (Paulis are involutions up to global phase)."""
    g = rng(16)
    kp = steane_pair(16)
    code = kp.public.code
    psi = random_state(g, 2)
    ct = asymmetric.encrypt(kp.public, psi, g, override_weight=1)
    frame = FrameOracle.read(kp.private, ct)
    run_gate(kp, ct, "H", 0)
    frame.h(0)
    run_gate(kp, ct, "CNOT", 0, 1)
    frame.cnot(0, 1)
    run_gate(kp, ct, "H", 1)
    frame.h(1)
    evolved = sim.run_circuit(psi.copy(),
                              sim.parse_circuit("H 0\nCNOT 0 1\nH 1"))
    clean = css.encode_blocks(code, evolved)
    assert sim.fidelity(frame.undo(ct), clean) >= 1 - 1e-10


def test_gate_t_inherits_phase_mask_and_bound():
    """T consumes the data block; the replacement inherits its Z mask and
    bound, while X corruption is absorbed by the corrected readout."""
    for seed in range(10):
        g = rng(400 + seed)
        kp = steane_pair(17)
        psi = random_state(g, 1)
        ct = asymmetric.encrypt(kp.public, psi, g, override_weight=0)
        # definite Y error: both mask kinds at one position
        frame = FrameOracle.inject(ct, [(unit(7, 3), unit(7, 3))])
        ct.bounds[0] = 1
        run_gate(kp, ct, "T", 0, gen=g)
        frame.t(0)
        (x, z), = frame.frames
        assert x == 0
        assert np.array_equal(z, unit(7, 3))
        (x_read, z_read), = FrameOracle.read(kp.private, ct).frames
        assert np.array_equal(x_read, x) and np.array_equal(z_read, z)
        assert ct.bounds == [1]
        want = sim.apply_gate(psi.copy(), sim.GateOp("T", (0,)))
        assert sim.fidelity(asymmetric.decrypt(kp.private, ct), want) >= 1 - 1e-10


def test_gate_t_on_entangled_wires():
    g = rng(18)
    kp = steane_pair(18)
    bell = sim.run_circuit(sim.basis_state(2, "00"),
                           sim.parse_circuit("H 0\nCNOT 0 1"))
    ct = asymmetric.encrypt(kp.public, bell, g)
    run_gate(kp, ct, "T", 1, gen=g)
    want = sim.apply_gate(bell.copy(), sim.GateOp("T", (1,)))
    assert sim.fidelity(asymmetric.decrypt(kp.private, ct), want) >= 1 - 1e-10


def test_bounds_dominate_actual_weights():
    """Property: after every gate the tracked bound is at least the true
    corrupted-position count of its block."""
    g = rng(19)
    kp = steane_pair(19)
    psi = random_state(g, 2)
    ct = asymmetric.encrypt(kp.public, psi, g, override_weight=1)
    frame = FrameOracle.read(kp.private, ct)
    plain = psi.copy()
    for step in range(30):
        pick = g.integers(3)
        if pick == 0:
            w = int(g.integers(2))
            run_gate(kp, ct, "H", w)
            frame.h(w)
            plain = sim.apply_gate(plain, sim.GateOp("H", (w,)))
        elif pick == 1:
            wc = int(g.integers(2))
            gate = sim.GateOp("CNOT", (wc, 1 - wc))
            if max(asymmetric._predicted_bounds(ct, gate)) > ct.t:
                ct = asymmetric.refresh(kp.private, ct, g)
                frame = FrameOracle.read(kp.private, ct)
            run_gate(kp, ct, "CNOT", wc, 1 - wc)
            frame.cnot(wc, 1 - wc)
            plain = sim.apply_gate(plain, gate)
        else:
            continue
        for w in range(ct.num_wires):
            assert ct.bounds[w] >= frame.weight(w)
            assert ct.bounds[w] <= ct.t or pick == 1
    assert sim.fidelity(frame.undo(ct), css.encode_blocks(kp.public.code,
                                                          plain)) >= 1 - 1e-9
    out = asymmetric.decrypt(kp.private, ct)
    # bounds can sit above t right after a CNOT; refresh before comparing
    assert sim.fidelity(out, plain) >= 1 - 1e-9 or sim.fidelity(
        asymmetric.decrypt(kp.private, asymmetric.refresh(kp.private, ct, g)),
        plain) >= 1 - 1e-9


def test_session_no_refresh_without_cnot():
    g = rng(20)
    kp = steane_pair(20)
    psi = random_state(g, 1)
    ct = asymmetric.encrypt(kp.public, psi, g, override_weight=1)
    alice = asymmetric.make_refresh_authority(kp.private, g)
    circuit = sim.parse_circuit("H 0\nT 0\nH 0")
    final, transcript = asymmetric.evaluate_session(kp.public, circuit, ct,
                                                    alice, g)
    assert refresh_count(transcript) == 0
    want = sim.run_circuit(psi.copy(), sim.parse_circuit("H 0\nT 0\nH 0"))
    assert sim.fidelity(asymmetric.decrypt(kp.private, final), want) >= 1 - 1e-9


@pytest.mark.parametrize("k", [1, 2, 3])
def test_session_refresh_count_tracks_cnots(k):
    g = rng(21 + k)
    kp = steane_pair(21)
    psi = random_state(g, 2)
    ct = asymmetric.encrypt(kp.public, psi, g, override_weight=1)
    alice = asymmetric.make_refresh_authority(kp.private, g)
    text = "\n".join(["CNOT 0 1"] * k)
    circuit = sim.parse_circuit(text)
    final, transcript = asymmetric.evaluate_session(kp.public, circuit, ct,
                                                    alice, g)
    assert refresh_count(transcript) == k
    kinds = [kind for kind, _ in transcript]
    assert kinds == (["Cipher"]
                     + ["RefreshRequest", "RefreshResponse"] * k
                     + ["Result"])
    want = sim.run_circuit(psi.copy(), circuit)
    assert sim.fidelity(asymmetric.decrypt(kp.private, final), want) >= 1 - 1e-9


def test_session_transcript_bounds_snapshots():
    g = rng(25)
    kp = steane_pair(25)
    psi = random_state(g, 2)
    ct = asymmetric.encrypt(kp.public, psi, g, override_weight=1)
    alice = asymmetric.make_refresh_authority(kp.private, g)
    _, transcript = asymmetric.evaluate_session(
        kp.public, sim.parse_circuit("CNOT 0 1"), ct, alice, g)
    cipher, request, response, result = transcript
    assert cipher == ("Cipher", (1, 1))
    assert request == ("RefreshRequest", (1, 1))  # just before the refresh
    assert response[0] == "RefreshResponse"
    assert sorted(response[1]) == [0, 1]
    assert result == ("Result", (1, 1))  # both blocks after the CNOT


def test_session_stale_authority_rejected():
    g = rng(26)
    kp = steane_pair(26)
    psi = random_state(g, 2)
    ct = asymmetric.encrypt(kp.public, psi, g, override_weight=1)
    with pytest.raises(RefreshAuthorityError):
        asymmetric.evaluate_session(kp.public, sim.parse_circuit("CNOT 0 1"),
                                    ct, lambda c: c, g)


def test_session_raising_authority_wrapped():
    g = rng(27)
    kp = steane_pair(27)
    psi = random_state(g, 2)
    ct = asymmetric.encrypt(kp.public, psi, g, override_weight=1)

    def broken(_):
        raise ValueError("authority offline")

    with pytest.raises(RefreshAuthorityError):
        asymmetric.evaluate_session(kp.public, sim.parse_circuit("CNOT 0 1"),
                                    ct, broken, g)


def test_session_rejects_extra_wires():
    g = rng(28)
    kp = steane_pair(28)
    ct = asymmetric.encrypt(kp.public, random_state(g, 1), g)
    alice = asymmetric.make_refresh_authority(kp.private, g)
    with pytest.raises(WireError):
        asymmetric.evaluate_session(kp.public, sim.parse_circuit("CNOT 0 1"),
                                    ct, alice, g)


def test_golay_weight_three_roundtrip(golay_pair):
    g = rng(29)
    psi = random_state(g, 1)
    ct = asymmetric.encrypt(golay_pair.public, psi, g, override_weight=3)
    out = asymmetric.decrypt(golay_pair.private, ct)
    assert sim.fidelity(out, psi) >= 1 - 1e-10


@pytest.mark.parametrize("base, weight", [("steane", 1), ("golay", 3)])
def test_published_rows_alone_decrypt(base, weight, golay_pair):
    """No secret is needed to decrypt: the code built from the published
    S C1 P rows alone, as the outer code with its own dual inside, reads
    every block's frame and decodes the plaintext."""
    kp = golay_pair if base == "golay" else steane_pair(32)
    rows = kp.public.code.c1.gen
    c1 = codes.from_generator(rows, kp.public.code.n)
    attacker = symmetric.SymKey(base, css.build(c1, codes.dual(c1)), 0, 0)
    g = rng(33)
    psi = random_state(g, 1)
    ct = asymmetric.encrypt(kp.public, psi, g, override_weight=weight)
    out = asymmetric.decrypt(attacker, ct)
    assert sim.fidelity(out, psi) >= 1 - 1e-9


def test_golay_weight_four_rejected_or_corrupted(golay_pair):
    g = rng(30)
    with pytest.raises(WeightTooLargeError):
        asymmetric.encrypt(golay_pair.public, random_state(g, 1), g,
                           override_weight=4)


def test_golay_session_h_then_t(golay_pair):
    g = rng(31)
    psi = random_state(g, 1)
    ct = asymmetric.encrypt(golay_pair.public, psi, g)
    alice = asymmetric.make_refresh_authority(golay_pair.private, g)
    final, transcript = asymmetric.evaluate_session(
        golay_pair.public, sim.parse_circuit("H 0\nT 0"), ct, alice, g)
    assert refresh_count(transcript) == 0
    want = sim.run_circuit(psi.copy(), sim.parse_circuit("H 0\nT 0"))
    assert sim.fidelity(asymmetric.decrypt(golay_pair.private, final),
                        want) >= 1 - 1e-9


def test_decrypt_and_refresh_leave_ciphertext_unchanged():
    g = rng(32)
    kp = steane_pair(32)
    psi = random_state(g, 2)
    ct = asymmetric.encrypt(kp.public, psi, g, override_weight=1)
    before = ct.state.amps.tobytes()
    assert sim.fidelity(asymmetric.decrypt(kp.private, ct), psi) >= 1 - 1e-10
    assert ct.state.amps.tobytes() == before
    # refresh consumes the register: it re-encrypts into ct.state
    fresh = asymmetric.refresh(kp.private, ct, g)
    assert fresh.state is ct.state
    assert sim.fidelity(asymmetric.decrypt(kp.private, fresh), psi) >= 1 - 1e-10


def test_encrypt_and_refresh_match_dense_reference():
    """Seeded encrypt and refresh draw the same errors as encoding first
    and then injecting block by block, and build the same amplitudes."""
    for seed in range(6):
        kp = steane_pair(600 + seed)
        for m in (1, 2):
            psi = random_state(rng(seed), m)
            g, ref_g = rng([600 + seed, m]), rng([600 + seed, m])
            ct = asymmetric.encrypt(kp.public, psi, g, override_weight=1)
            want = encrypt_reference(kp.public, psi, ref_g, 1)
            assert np.array_equal(ct.state.amps, want.amps)
            for _ in range(3):
                want, bounds = refresh_reference(kp.private, ct, ref_g)
                ct = asymmetric.refresh(kp.private, ct, g)
                assert ct.bounds == bounds
                assert np.array_equal(ct.state.amps, want.amps)


@pytest.mark.parametrize("base", ["steane", "golay"])
def test_refresh_allocates_less_than_a_register(base, golay_pair):
    kp = steane_pair(37) if base == "steane" else golay_pair
    g = rng(37)
    m = 2 if base == "steane" else 1
    psi = random_state(g, m)
    ct = asymmetric.encrypt(kp.public, psi, g, override_weight=1)
    ct = asymmetric.refresh(kp.private, ct, g)  # builds the code's caches
    register = ct.state.amps.nbytes
    tracemalloc.start()
    try:
        fresh = asymmetric.refresh(kp.private, ct, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fresh.state is ct.state
    assert peak < register
    assert sim.fidelity(asymmetric.decrypt(kp.private, fresh), psi) >= 1 - 1e-10


def test_refresh_refuses_before_writing():
    """A refresh whose decrypt fails raises before the register it would
    consume is touched."""
    g = rng(38)
    kp = steane_pair(38)
    ct = asymmetric.encrypt(kp.public, random_state(g, 2), g,
                            override_weight=1)
    ct.state.amps[g.integers(0, 1 << 14, size=8)] += 1e-3
    ct.state.amps /= np.linalg.norm(ct.state.amps)
    before = ct.state.amps.copy()
    with pytest.raises((LeakageError, DecodeFailureError)):
        asymmetric.refresh(kp.private, ct, g)
    assert np.array_equal(ct.state.amps, before)


def test_decrypt_ignores_rounding_residues():
    # transversal H leaves residues of about 1e-17 on unoccupied indices;
    # the syndrome must be read off a truly occupied one
    g = rng(33)
    kp = steane_pair(33)
    psi = random_state(g, 2)
    ct = asymmetric.encrypt(kp.public, psi, g, override_weight=1)
    amps = ct.state.amps
    amps[amps == 0] += 1e-17
    assert sim.fidelity(asymmetric.decrypt(kp.private, ct), psi) >= 1 - 1e-10


def test_golay_decrypt_allocates_no_register(golay_pair):
    g = rng(34)
    psi = random_state(g, 1)
    ct = asymmetric.encrypt(golay_pair.public, psi, g, override_weight=3)
    asymmetric.decrypt(golay_pair.private, ct)  # builds the code's tables
    tracemalloc.start()
    try:
        out = asymmetric.decrypt(golay_pair.private, ct)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20  # the register alone is 128 MiB
    assert sim.fidelity(out, psi) >= 1 - 1e-10


def test_golay_decrypts_add_no_cache_entries(golay_pair):
    code = golay_pair.public.code
    g = rng(35)
    psi = random_state(g, 1)
    ct = asymmetric.encrypt(golay_pair.public, psi, g, override_weight=0)
    before = set(code._cache)  # with what earlier tests on the pair built
    errors = set()
    carried = (0, 0)
    while len(errors) < 20:
        weight = 1 + len(errors) % code.t
        pos = g.choice(code.n, size=weight, replace=False)
        kinds = g.integers(0, 3, size=weight)  # 0 X, 1 Y, 2 Z
        x = sum(1 << (code.n - 1 - int(p)) for p in pos[kinds != 2])
        z = sum(1 << (code.n - 1 - int(p)) for p in pos[kinds != 0])
        if (x, z) in errors:
            continue
        errors.add((x, z))
        # turn the carried error into this one, up to a global sign
        sim.apply_block_pauli(ct.state, 0, code.n, x ^ carried[0],
                              z ^ carried[1])
        carried = (x, z)
        out = asymmetric.decrypt(golay_pair.private, ct)
        assert sim.fidelity(out, psi) >= 1 - 1e-10
    # the code came whole, and the encrypt built the one support
    assert set(code._cache) == before
