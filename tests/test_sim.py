"""State-vector simulator: gates, measurement, isometries, circuits."""

import tracemalloc

import numpy as np
import pytest

from cssfhe import codes, css, gf2, sim, symmetric
from cssfhe.errors import (
    CapacityError,
    CircuitParseError,
    IsometryError,
    ShapeError,
    UnknownGateError,
    WireError,
)

from helpers import (bits_to_index, block_marginal, circuit_to_text,
                     random_circuit, random_state, rng)


def test_basis_state_single():
    s = sim.basis_state(1, "0")
    assert np.allclose(s.amps, [1, 0])


def test_basis_state_msb_convention():
    # wire 0 is the most significant index bit
    s = sim.basis_state(2, "10")
    assert s.amps[2] == 1
    assert abs(s.norm() - 1) < 1e-12


def test_basis_state_capacity():
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError):
            sim.basis_state(25, "0" * 25)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # refused before the 512 MiB array is made


def test_statevector_rejects_unnormalized():
    with pytest.raises(ShapeError):
        sim.StateVector(1, np.array([1.0, 1.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(np.inf, 1)])
def test_statevector_rejects_non_finite_amplitudes(bad):
    # a NaN norm fails every comparison, so the check must not pass it
    with pytest.raises(ShapeError):
        sim.StateVector(1, np.array([bad, 0.0]))


def test_apply_h_on_zero():
    s = sim.apply_gate(sim.basis_state(1, "0"), sim.GateOp("H", (0,)))
    assert np.allclose(s.amps, [1 / np.sqrt(2), 1 / np.sqrt(2)])


def test_apply_cnot_flips_target():
    s = sim.apply_gate(sim.basis_state(2, "10"), sim.GateOp("CNOT", (0, 1)))
    assert s.amps[bits_to_index((1, 1))] == 1


def test_apply_t_on_plus():
    s = sim.apply_gate(sim.basis_state(1, "0"), sim.GateOp("H", (0,)))
    s = sim.apply_gate(s, sim.GateOp("T", (0,)))
    assert np.allclose(s.amps, [1 / np.sqrt(2), np.exp(1j * np.pi / 4) / np.sqrt(2)])


def test_gate_wire_validation():
    with pytest.raises(WireError):
        sim.apply_gate(sim.basis_state(1, "0"), sim.GateOp("H", (1,)))
    with pytest.raises(WireError):
        sim.GateOp("CNOT", (0, 0))


def test_involutions_and_periods():
    g = rng(60)
    for kind, period in (("H", 2), ("S", 4), ("T", 8), ("X", 2), ("Z", 2)):
        psi = random_state(g, 2)
        s = psi.copy()
        for _ in range(period):
            s = sim.apply_gate(s, sim.GateOp(kind, (1,)))
        assert sim.fidelity(s, psi) >= 1 - 1e-12
        assert np.allclose(s.amps, psi.amps, atol=1e-12)


def test_cnot_involution():
    g = rng(61)
    psi = random_state(g, 3)
    s = psi.copy()
    for _ in range(2):
        s = sim.apply_gate(s, sim.GateOp("CNOT", (2, 0)))
    assert np.allclose(s.amps, psi.amps, atol=1e-12)


def test_t_squared_is_s_and_s_squared_is_z():
    g = rng(62)
    psi = random_state(g, 1)
    tt = sim.apply_gate(sim.apply_gate(psi.copy(), sim.GateOp("T", (0,))),
                        sim.GateOp("T", (0,)))
    s = sim.apply_gate(psi.copy(), sim.GateOp("S", (0,)))
    assert sim.fidelity(tt, s) >= 1 - 1e-12
    ss = sim.apply_gate(s.copy(), sim.GateOp("S", (0,)))
    z = sim.apply_gate(psi.copy(), sim.GateOp("Z", (0,)))
    assert sim.fidelity(ss, z) >= 1 - 1e-12


def test_sdg_inverts_s():
    g = rng(63)
    psi = random_state(g, 1)
    s = sim.apply_gate(psi.copy(), sim.GateOp("S", (0,)))
    back = sim.apply_gate(s, sim.GateOp("Sdg", (0,)))
    assert np.allclose(back.amps, psi.amps, atol=1e-12)


def test_norm_preserved_over_many_gates():
    g = rng(64)
    psi = random_state(g, 4)
    kinds = ("H", "X", "Y", "Z", "S", "Sdg", "T", "Tdg")
    for _ in range(1000):
        kind = kinds[int(g.integers(len(kinds)))]
        if g.random() < 0.25:
            c, t = g.choice(4, size=2, replace=False)
            psi = sim.apply_gate(psi, sim.GateOp("CNOT", (int(c), int(t))))
        else:
            psi = sim.apply_gate(psi, sim.GateOp(kind, (int(g.integers(4)),)))
        assert abs(psi.norm() - 1) < 1e-12


def test_gate_matrix_oracle():
    # single-qubit action agrees with an explicit kron-built matrix
    g = rng(65)
    for kind, mat in sim.GATE_1Q.items():
        psi = random_state(g, 3)
        got = sim.apply_gate(psi.copy(), sim.GateOp(kind, (1,)))
        full = np.kron(np.kron(np.eye(2), mat), np.eye(2))
        assert np.allclose(got.amps, full @ psi.amps, atol=1e-12)


def test_measure_z_deterministic_on_basis():
    bit, post = sim.measure_z(sim.basis_state(1, "0"), 0, rng(1))
    assert bit == 0
    assert np.allclose(post.amps, [1, 0])


def test_measure_z_statistics_on_plus():
    zeros = 0
    g = rng(66)
    plus = sim.apply_gate(sim.basis_state(1, "0"), sim.GateOp("H", (0,)))
    for _ in range(10000):
        bit, _ = sim.measure_z(plus.copy(), 0, g)
        zeros += bit == 0
    assert 0.48 <= zeros / 10000 <= 0.52


def test_measure_z_collapse_renormalized():
    g = rng(67)
    psi = random_state(g, 3)
    bit, post = sim.measure_z(psi, 1, g)
    assert abs(post.norm() - 1) < 1e-12
    # collapsed wire measures the same way ever after
    bit2, _ = sim.measure_z(post, 1, g)
    assert bit2 == bit


def test_measure_z_seeded_stream_reproducible():
    psi = random_state(rng(68), 4)
    runs = []
    for _ in range(2):
        g = rng(99)
        s = psi.copy()
        bits = []
        for w in range(4):
            b, s = sim.measure_z(s, w, g)
            bits.append(b)
        runs.append((bits, s.amps.copy()))
    assert runs[0][0] == runs[1][0]
    assert np.array_equal(runs[0][1], runs[1][1])


def test_fidelity_properties():
    g = rng(69)
    psi = random_state(g, 2)
    phi = random_state(g, 2)
    assert abs(sim.fidelity(psi, psi) - 1) < 1e-12
    assert sim.fidelity(sim.basis_state(1, "0"), sim.basis_state(1, "1")) == 0
    rotated = sim.StateVector(2, psi.amps * np.exp(0.7j), check=False)
    assert abs(sim.fidelity(psi, rotated) - 1) < 1e-12
    assert 0 <= sim.fidelity(psi, phi) <= 1
    with pytest.raises(ShapeError):
        sim.fidelity(psi, sim.basis_state(1, "0"))


def test_kron_states_index_arithmetic():
    a = sim.basis_state(1, "1")
    b = sim.basis_state(2, "01")
    joint = sim.kron_states(a, b)
    assert joint.num_qubits == 3
    assert joint.amps[bits_to_index((1, 0, 1))] == 1


def test_permute_wires_against_index_oracle():
    g = rng(70)
    psi = random_state(g, 3)
    perm = [2, 0, 1]  # new wire i reads old wire perm[i]
    out = sim.permute_wires(psi, perm)
    for idx in range(8):
        bits = [(idx >> (2 - w)) & 1 for w in range(3)]
        src = bits_to_index([bits[perm.index(w)] for w in range(3)])
        assert out.amps[bits_to_index(bits)] == psi.amps[src]


def test_block_isometry_identity_embedding():
    iso = sim.BlockIsometry(1, [(np.array([0]), np.array([1.0 + 0j])),
                            (np.array([1]), np.array([1.0 + 0j]))])
    g = rng(71)
    psi = random_state(g, 2)
    out = sim.apply_block_isometry(psi.copy(), 1, iso)
    assert np.allclose(out.amps, psi.amps)


def test_block_isometry_gram_check():
    with pytest.raises(IsometryError):
        sim.BlockIsometry(1, [(np.array([0]), np.array([1.0 + 0j])),
                          (np.array([0]), np.array([1.0 + 0j]))])


def test_block_isometry_refuses_repeated_index():
    # the Gram matrix of a column with a repeated index is not the Gram
    # matrix of the vector the column scatters
    with pytest.raises(IsometryError, match="repeats"):
        sim.BlockIsometry(1, [([0, 0], [1, 0.5]), ([1], [1])])
    with pytest.raises(IsometryError, match="repeats"):
        sim.BlockIsometry(2, [([0], [1]), ([3, 1, 3], [0.5, 0.5, 0.5])])


def test_block_isometry_gram_matches_sparse_vdot():
    """The Gram check accepts a pair of columns exactly when their pairwise
    sparse_vdot overlaps are within 1e-10 of the identity: orthonormal
    pairs over overlapping supports, and pairs that miss by a little."""
    g = rng(72)
    for trial in range(60):
        n = int(g.integers(1, 6))
        dense = np.zeros((2, 1 << n), dtype=np.complex128)
        for b in range(2):
            idx = g.choice(1 << n, size=int(g.integers(1, (1 << n) + 1)),
                           replace=False)
            dense[b, idx] = g.normal(size=idx.size) + 1j * g.normal(size=idx.size)
        dense[0] /= np.linalg.norm(dense[0])
        dense[1] -= np.vdot(dense[0], dense[1]) * dense[0]
        if np.linalg.norm(dense[1]) < 1e-3:
            continue
        dense[1] /= np.linalg.norm(dense[1])
        dense[trial % 2] *= 1 + (trial % 3 - 1) * 1e-9  # 0 or about 2e-9 off
        cols = [(np.flatnonzero(dense[b]), dense[b][dense[b] != 0])
                for b in range(2)]
        ok = all(abs(sim.sparse_vdot(*cols[i], *cols[j]) - (i == j)) <= 1e-10
                 for i in range(2) for j in range(2))
        if ok:
            iso = sim.BlockIsometry(n, cols)
            assert all(np.array_equal(a, b) for a, b in
                       zip(iso.cols[1], cols[1]))
        else:
            with pytest.raises(IsometryError, match="Gram"):
                sim.BlockIsometry(n, cols)


def _ghz_iso(n):
    # |b> -> |b b ... b>, a valid 2 -> 2^n isometry
    amp = np.array([1.0 + 0j])
    return sim.BlockIsometry(n, [(np.array([0]), amp),
                             (np.array([(1 << n) - 1]), amp)])


def test_block_isometry_preserves_other_wires():
    bell = sim.apply_gate(sim.basis_state(2, "00"), sim.GateOp("H", (0,)))
    bell = sim.apply_gate(bell, sim.GateOp("CNOT", (0, 1)))
    out = sim.apply_block_isometry(bell, 1, _ghz_iso(3))
    assert out.num_qubits == 4
    assert abs(out.norm() - 1) < 1e-12
    # marginal of the untouched wire stays uniform
    p0 = np.sum(np.abs(out.amps[: 1 << 3]) ** 2)
    assert abs(p0 - 0.5) < 1e-12


def test_block_isometry_roundtrip():
    g = rng(72)
    psi = random_state(g, 2)
    iso = _ghz_iso(3)
    big = sim.apply_block_isometry(psi.copy(), 0, iso)
    back, leak = sim.contract_block_isometry(big, 0, iso)
    assert leak < 1e-12
    assert sim.fidelity(back, psi) >= 1 - 1e-10


def test_contract_reports_leakage():
    iso = _ghz_iso(2)
    stray = sim.basis_state(2, "01")  # orthogonal to both columns
    _, leak = sim.contract_block_isometry(stray, 0, iso)
    assert abs(leak - 1.0) < 1e-12


def _random_iso(g, n, size):
    """Two unit columns with disjoint random supports and random phases."""
    support = g.choice(1 << n, size=2 * size, replace=False)
    cols = []
    for part in (support[:size], support[size:]):
        phases = np.exp(2j * np.pi * g.random(size))
        cols.append((part, phases / np.sqrt(size)))
    return sim.BlockIsometry(n, cols)


def test_contract_with_masks_matches_pauli_then_contract():
    # contracting against X^x Z^z V is V^dagger Z^z X^x, while
    # apply_block_pauli applies X^x Z^z: the two differ by (-1)^(x.z)
    g = rng(80)
    iso = _random_iso(g, 7, 8)
    full = (1 << 7) - 1
    for m in (14, 21):
        psi = random_state(g, m)
        reference = psi.amps.copy()
        for start in (0, (m - 7) // 2, m - 7):
            for x, z in ((0, 0), (full, full),
                         (int(g.integers(1 << 7)), int(g.integers(1 << 7)))):
                fast, leak = sim.contract_block_isometry(
                    psi, start, iso, x_mask=x, z_mask=z)
                hurt = sim.apply_block_pauli(psi.copy(), start, 7, x, z)
                slow, slow_leak = sim.contract_block_isometry(hurt, start, iso)
                sign = (-1) ** bin(x & z).count("1")
                assert fast.num_qubits == m - 6
                assert np.allclose(fast.amps, sign * slow.amps, atol=1e-12)
                assert abs(leak - slow_leak) < 1e-12
        assert np.array_equal(psi.amps, reference)


def test_contract_rejects_wide_masks():
    iso = _ghz_iso(2)
    with pytest.raises(ShapeError):
        sim.contract_block_isometry(sim.basis_state(2, "00"), 0, iso,
                                    x_mask=4)


def test_parity_matches_bit_count():
    g = rng(61)
    values = np.concatenate([np.arange(1 << 10), [(1 << 32) - 1],
                             g.integers(0, 1 << 32, size=4096)])
    want = [bin(int(a)).count("1") & 1 for a in values]
    assert sim._parity(values).tolist() == want
    assert sim._parity(values.reshape(-1, 3)).shape == (len(values) // 3, 3)


def test_first_occupied_skips_rounding_residues():
    amps = np.full(1 << 16, 1e-17, dtype=np.complex128)
    amps[40000] = 0.6
    amps[50000] = 0.8j
    state = sim.StateVector(16, amps)
    assert sim.first_occupied(state) == 40000
    amps[40000] = 1e-17
    amps[50000] = 1.0
    assert sim.first_occupied(state) == 50000
    with pytest.raises(ShapeError):
        sim.first_occupied(sim.StateVector(3, np.zeros(8), check=False))


def test_first_occupied_matches_modulus_rule():
    """The stepped scan picks the lowest index that |a| > floor picks:
    over 1e-17 residues, and over amplitudes just above and below the
    floor, in either part, within the first step, in a later one, or in a
    later chunk."""
    g = rng(74)
    for m in (3, 9, 14, 16):
        floor = 1e-6 * 2.0 ** (-m / 2)
        for _ in range(20):
            amps = np.full(1 << m, 1e-17, dtype=np.complex128)
            near = g.choice(1 << m, size=6, replace=False)
            scale = floor * (1 + g.choice([-1e-9, -1e-6, 1e-9, 1e-6], size=6))
            phase = g.choice([1, -1, 1j, -1j, np.exp(0.3j)], size=6)
            amps[near] = scale * phase
            amps[int(g.integers(1 << m))] = 0.5
            state = sim.StateVector(m, amps, check=False)
            want = int(np.flatnonzero(np.abs(amps) > floor)[0])
            assert sim.first_occupied(state) == want


def test_apply_block_pauli_matches_gate_loop():
    g = rng(73)
    for _ in range(20):
        psi = random_state(g, 4)
        x = int(g.integers(1 << 3))
        z = int(g.integers(1 << 3))
        fast = psi.copy()
        sim.apply_block_pauli(fast, 1, 3, x_mask=x, z_mask=z)
        slow = psi.copy()
        for q in range(3):
            if (z >> (2 - q)) & 1:
                slow = sim.apply_gate(slow, sim.GateOp("Z", (1 + q,)))
        for q in range(3):
            if (x >> (2 - q)) & 1:
                slow = sim.apply_gate(slow, sim.GateOp("X", (1 + q,)))
        assert np.allclose(fast.amps, slow.amps, atol=1e-12)


# Block kernels against the per-qubit reference path. Blocks sit at the
# head, middle and tail of 8-14 qubit registers, including positions that
# are not multiples of the block length. Registers of 17-18 qubits span
# 8-16 chunks of the in-place kernels, so the chunk pairing, the staging,
# the per-chunk phase scalar and the phase table inside a chunk all act:
# their blocks lie entirely above the chunk bits (18, 0, 3), across them,
# or below them, and the 16-qubit blocks have more indices than one chunk.
WIDE_BLOCKS = [(17, 0, 7), (18, 1, 7), (18, 5, 7), (17, 10, 7), (18, 0, 3),
               (17, 1, 16), (18, 0, 16)]
BLOCKS = [(12, 0, 4), (12, 4, 4), (12, 8, 4), (14, 0, 7), (14, 7, 7),
          (10, 3, 5), (12, 2, 9), (8, 7, 1), *WIDE_BLOCKS]
# The 17-18 qubit CNOT pairs have tiles of fewer control values than the
# block has, so the tile index is shifted by the range's first value.
CNOT_PAIRS = [(12, 0, 4, 4), (12, 4, 0, 4), (12, 0, 8, 4), (12, 8, 0, 4),
              (12, 4, 8, 4), (12, 8, 4, 4), (14, 0, 7, 7), (14, 7, 0, 7),
              (13, 1, 8, 4), (13, 8, 1, 4), (9, 0, 6, 3), (9, 6, 0, 3),
              (17, 0, 7, 7), (17, 7, 0, 7), (18, 1, 10, 7), (18, 10, 1, 7)]


def _per_qubit(state, kind, start, n):
    for q in range(n):
        state = sim.apply_gate(state, sim.GateOp(kind, (start + q,)))
    return state


def _masks(g, m, start, n):
    """0, all ones, the lowest and the highest block bit (rows of the
    gather as narrow as the block allows), the block bits on both sides
    of the chunk boundary (if any) alone and with random bits, and random
    bits."""
    shift = m - start - n
    edge = sum(1 << b for b in (sim._CHUNK_BITS - 1 - shift,
                                sim._CHUNK_BITS - shift) if 0 <= b < n)
    return [0, (1 << n) - 1, 1 | 1 << (n - 1), edge,
            edge | int(g.integers(1 << n)), int(g.integers(1 << n))]


@pytest.mark.parametrize("m,start,n", BLOCKS)
def test_transversal_h_matches_gate_loop(m, start, n):
    psi = random_state(rng(80 + start), m)
    fast = sim.transversal_h(psi.copy(), start, n)
    slow = _per_qubit(psi.copy(), "H", start, n)
    assert np.allclose(fast.amps, slow.amps, atol=1e-12)
    assert fast.amps.flags.c_contiguous


@pytest.mark.parametrize("m,c0,t0,n", CNOT_PAIRS)
def test_transversal_cnot_matches_gate_loop(m, c0, t0, n):
    psi = random_state(rng(81 + c0 + 3 * t0), m)
    fast = sim.transversal_cnot(psi.copy(), c0, t0, n)
    slow = psi.copy()
    for q in range(n):
        slow = sim.apply_gate(slow, sim.GateOp("CNOT", (c0 + q, t0 + q)))
    assert np.array_equal(fast.amps, slow.amps)
    # a second call reads the shape's cached plan, which the first left
    # as it was: the two CNOTs are the identity
    assert np.array_equal(sim.transversal_cnot(fast, c0, t0, n).amps,
                          psi.amps)


@pytest.mark.parametrize("m,start,n", BLOCKS)
def test_transversal_sdgx_matches_gate_loop(m, start, n):
    psi = random_state(rng(82 + start), m)
    fast = sim.transversal_sdgx(psi.copy(), start, n)
    slow = _per_qubit(_per_qubit(psi.copy(), "X", start, n), "Sdg", start, n)
    assert np.allclose(fast.amps, slow.amps, atol=1e-12)


@pytest.mark.parametrize("m,start,n", BLOCKS)
def test_apply_block_pauli_matches_gate_loop_on_blocks(m, start, n):
    g = rng(83 + start)
    psi = random_state(g, m)
    for x in _masks(g, m, start, n):
        for z in _masks(g, m, start, n):
            fast = sim.apply_block_pauli(psi.copy(), start, n, x, z)
            slow = psi.copy()
            for q in range(n):
                if (z >> (n - 1 - q)) & 1:
                    slow = sim.apply_gate(slow, sim.GateOp("Z", (start + q,)))
            for q in range(n):
                if (x >> (n - 1 - q)) & 1:
                    slow = sim.apply_gate(slow, sim.GateOp("X", (start + q,)))
            assert np.array_equal(fast.amps, slow.amps)
            assert fast.amps.flags.c_contiguous


def test_block_kernels_take_numpy_integers():
    """Starts, block lengths and masks given as numpy integers act as the
    Python ints of the same value."""
    i = np.int64
    calls = [
        lambda s, c: sim.apply_block_pauli(s, c(7), c(7), c(0b1010011),
                                           c(0b0110101)),
        lambda s, c: sim.transversal_sdgx(s, c(0), c(7)),
        lambda s, c: sim.transversal_h(s, c(7), c(7)),
        lambda s, c: sim.transversal_cnot(s, c(7), c(0), c(7)),
        lambda s, c: sim.splice_ancilla(
            s, c(0), c(7), *css.magic_ancilla_sparse(
                css.base_code(*symmetric.base_pair("steane")), (0, 0)),
            _corrected, rng(75))[2],
    ]
    for call in calls:
        psi = random_state(rng(76), 14)
        want = call(psi.copy(), int)
        got = call(psi.copy(), i)
        assert np.array_equal(got.amps, want.amps)


def test_apply_block_pauli_rejects_wide_masks():
    psi = random_state(rng(90), 8)
    for x, z in ((1 << 4, 0), (0, 1 << 4), (-1, 0)):
        with pytest.raises(ShapeError):
            sim.apply_block_pauli(psi.copy(), 2, 4, x, z)


def test_transversal_h_stays_in_place():
    for n in (4, 7, 9):  # odd and even numbers of dense factors
        s = random_state(rng(91), 12)
        buf = s.amps
        sim.transversal_h(s, 1, n)
        assert s.amps is buf


def test_block_kernels_leave_input_arrays_usable():
    # every kernel updates state.amps in place and never rebinds it
    psi = random_state(rng(84), 8)
    s = psi.copy()
    before = s.amps
    a_idx, a_val = _sparse_ancilla("random", 4, rng(0))
    for step in (lambda: sim.transversal_h(s, 0, 4),
                 lambda: sim.transversal_cnot(s, 4, 0, 4),
                 lambda: sim.transversal_sdgx(s, 4, 4),
                 lambda: sim.apply_block_pauli(s, 0, 8, 0b10110101, 0b1),
                 lambda: sim.splice_ancilla(s, 2, 4, a_idx, a_val,
                                            _corrected, rng(1))[2]):
        assert step() is s
        assert s.amps is before
        assert abs(s.norm() - 1) < 1e-12


class _Fixed:
    """Generator stand-in whose random() returns preset values in order."""

    def __init__(self, *values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)


def _reference_measure(state, start, n, bits):
    """Measure the block qubit by qubit with measure_z forced to `bits`;
    returns the product of the conditional probabilities and the state
    after remove_block."""
    prob = 1.0
    for q, b in enumerate(bits):
        before = state.amps.copy()
        # bit = 1 iff random() < p1: 0.0 forces 1, just below 1.0 forces 0
        forced = 0.0 if b == "1" else np.nextafter(1.0, 0.0)
        got, state = sim.measure_z(state, start + q, _Fixed(forced))
        assert got == int(b)
        k = int(np.argmax(np.abs(state.amps)))
        prob *= abs(before[k]) ** 2 / abs(state.amps[k]) ** 2
    return prob, sim.remove_block(state, start, n, bits)


@pytest.mark.parametrize("m,start,n", [(9, 0, 3), (9, 3, 3), (9, 6, 3),
                                       (10, 2, 5), (8, 7, 1)])
def test_block_marginal_matches_sequential_measure_z(m, start, n):
    psi = random_state(rng(85 + start), m)
    marginal = block_marginal(psi, start, n)
    for j in range(1 << n):
        want, _ = _reference_measure(psi.copy(), start, n, format(j, f"0{n}b"))
        assert abs(marginal[j] - want) < 1e-12


class _Forced:
    """Generator stand-in for splice_ancilla: the first random() is the
    midpoint of a preset ancilla term's interval of the cdf of the weights
    `probs`, so that the term is drawn, and the second returns a preset
    value; a third call raises."""

    def __init__(self, term, value, probs):
        cdf = np.cumsum(probs / probs.sum())
        lower = cdf[term - 1] if term else 0.0
        self.values = [value, (lower + cdf[term]) / 2]

    def random(self):
        return self.values.pop()


def _uncorrected(bits):
    """A readout that reports outcome 0 for every record."""
    return 0


def _corrected(bits):
    """A readout that reports outcome 1 for every record."""
    return 1


def _sparse_ancilla(kind, n, g):
    """A Steane magic ancilla under a random family key, or a random
    normalized state on five distinct n-bit block indices."""
    if kind == "steane":
        b = codes.builtin_codes()
        code = css.build(b["hamming74"], b["simplex73"])
        u = gf2.random_vector(7, g)
        v = gf2.random_vector(7, g)
        return css.magic_ancilla_sparse(code, (v, u))
    idx = g.choice(1 << n, size=5, replace=False).astype(np.int64)
    vals = g.normal(size=5) + 1j * g.normal(size=5)
    return idx, vals / np.linalg.norm(vals)


def _joint_after_cnots(psi, start, n, a_idx, a_val):
    """Reference: the ancilla appended as a dense block after the register,
    then one CNOT per qubit from the ancilla onto the data block."""
    m = psi.num_qubits
    anc = np.zeros(1 << n, dtype=np.complex128)
    anc[a_idx] = a_val
    joint = sim.kron_states(psi.copy(), sim.StateVector(n, anc, check=False))
    for q in range(n):
        sim.apply_gate(joint, sim.GateOp("CNOT", (m + q, start + q)))
    return joint


@pytest.mark.parametrize("m,start,n,kind", [
    (7, 0, 7, "steane"), (14, 0, 7, "steane"), (14, 7, 7, "steane"),
    (14, 0, 7, "random"), (14, 7, 7, "random"), (14, 5, 4, "random"),
    (7, 0, 3, "random"), (7, 2, 3, "random"), (7, 4, 3, "random"),
    (12, 0, 4, "random"), (12, 4, 4, "random"), (12, 8, 4, "random")])
def test_splice_ancilla_forced_record_matches_joint_register(m, start, n,
                                                             kind):
    """With both draws forced, the record is a xor d and the state is the
    joint register sliced at that record, renormalized, with the ancilla
    moved into the data block's place."""
    g = rng(86 + start)
    psi = random_state(g, m)
    a_idx, a_val = _sparse_ancilla(kind, n, g)
    joint = _joint_after_cnots(psi, start, n, a_idx, a_val)
    cube = joint.amps.reshape(1 << start, 1 << n, -1, 1 << n)
    cum = np.cumsum(block_marginal(psi, start, n))
    for term in (0, a_idx.size - 1):
        for d in (0, (1 << n) - 1, int(g.integers(1 << n))):
            lower = cum[d - 1] if d else 0.0
            forced = _Forced(term, (lower + cum[d]) / 2, np.abs(a_val) ** 2)
            bits, outcome, post = sim.splice_ancilla(
                psi.copy(), start, n, a_idx, a_val, _uncorrected, forced)
            assert not forced.values
            assert outcome == 0
            y = int(a_idx[term]) ^ d
            assert bits == format(y, f"0{n}b")
            ref = cube[:, y].transpose(0, 2, 1).reshape(-1)
            assert post.num_qubits == m
            assert np.allclose(post.amps, ref / np.linalg.norm(ref),
                               atol=1e-12)
            assert abs(post.norm() - 1) < 1e-12


def test_splice_ancilla_record_distribution_is_joint_marginal():
    """Drawing a from the ancilla and d from the data block gives the
    record y = a xor d with the XOR convolution of the two marginals,
    which is the data block's marginal in the joint register after the
    CNOTs."""
    g = rng(88)
    for m, start, n, kind in ((7, 0, 7, "steane"), (14, 7, 7, "steane"),
                              (14, 0, 7, "random"), (12, 4, 4, "random")):
        psi = random_state(g, m)
        a_idx, a_val = _sparse_ancilla(kind, n, g)
        want = block_marginal(_joint_after_cnots(psi, start, n, a_idx,
                                                 a_val), start, n)
        marginal = block_marginal(psi, start, n)
        got = np.zeros(1 << n)
        for a, p in zip(a_idx, np.abs(a_val) ** 2):
            got += p * marginal[np.arange(1 << n) ^ a]
        assert np.allclose(got, want, atol=1e-12)


def test_splice_ancilla_uses_two_draws_and_checks_norm():
    psi = random_state(rng(87), 8)
    a_idx, a_val = _sparse_ancilla("random", 4, rng(0))
    # a third draw raises
    sim.splice_ancilla(psi.copy(), 2, 4, a_idx, a_val, _corrected,
                       _Forced(1, 0.5, np.abs(a_val) ** 2))
    unnormalized = sim.StateVector(8, 2 * psi.amps, check=False)
    with pytest.raises(ShapeError):
        sim.splice_ancilla(unnormalized, 2, 4, a_idx, a_val, _corrected,
                           rng(0))


@pytest.mark.parametrize("call", [
    lambda s: sim.transversal_h(s, 5, 4),
    lambda s: sim.transversal_h(s, -1, 4),
    lambda s: sim.transversal_sdgx(s, 6, 3),
    lambda s: sim.transversal_cnot(s, 0, 6, 4),
    lambda s: sim.transversal_cnot(s, 0, 2, 4),
    lambda s: sim.transversal_cnot(s, 4, 4, 4),
    lambda s: sim.splice_ancilla(s, 6, 3, np.array([0]), np.array([1.0]),
                                 _uncorrected, rng(0)),
    lambda s: sim.splice_ancilla(s, 0, 0, np.array([0]), np.array([1.0]),
                                 _uncorrected, rng(0)),
    lambda s: sim.sample_block(s, -2, 3, rng(0)),
    lambda s: sim.apply_block_pauli(s, 7, 2, 1, 0),
])
def test_block_kernels_reject_bad_blocks(call):
    with pytest.raises(WireError):
        call(random_state(rng(89), 8))


@pytest.mark.parametrize("m,start,n", WIDE_BLOCKS)
def test_splice_ancilla_across_chunks_matches_dense_splice(m, start, n):
    """Forced draws against the splice written out densely: the slices at
    y xor a_idx, weighted by the ancilla and moved to a_idx."""
    g = rng(102 + start)
    psi = random_state(g, m)
    a_idx, a_val = _sparse_ancilla("steane" if n == 7 else "random", n, g)
    cube = psi.amps.reshape(1 << start, 1 << n, -1)
    cum = np.cumsum(block_marginal(psi, start, n))
    for term, d in ((0, 0), (a_idx.size - 1, (1 << n) - 1),
                    (1, int(g.integers(1 << n)))):
        lower = cum[d - 1] if d else 0.0
        forced = _Forced(term, (lower + cum[d]) / 2, np.abs(a_val) ** 2)
        bits, _, post = sim.splice_ancilla(psi.copy(), start, n, a_idx,
                                           a_val, _uncorrected, forced)
        y = int(a_idx[term]) ^ d
        assert bits == format(y, f"0{n}b")
        ref = np.zeros_like(cube)
        ref[:, a_idx, :] = a_val[None, :, None] * cube[:, y ^ a_idx, :]
        ref = ref.reshape(-1) / np.linalg.norm(ref)
        assert np.allclose(post.amps, ref, atol=1e-12)


@pytest.mark.parametrize("m,start,n", [(14, 0, 7), (14, 7, 7), *WIDE_BLOCKS])
def test_fused_splice_matches_splice_then_dense_sdgx(m, start, n):
    """The correction folded into the scatter is bit for bit the splice
    followed by the dense X.Sdg on outcome 1, at the same record, and is
    the splice alone on outcome 0."""
    g = rng(113 + start)
    psi = random_state(g, m)
    a_idx, a_val = _sparse_ancilla("steane" if n == 7 else "random", n, g)
    for seed in (114, 115):
        want = psi.copy()
        want_bits, _, _ = sim.splice_ancilla(want, start, n, a_idx, a_val,
                                             _uncorrected, rng(seed))
        for outcome, readout in enumerate((_uncorrected, _corrected)):
            if outcome:
                sim.transversal_sdgx(want, start, n)
            got = psi.copy()
            bits, got_outcome, _ = sim.splice_ancilla(
                got, start, n, a_idx, a_val, readout, rng(seed))
            assert (bits, got_outcome) == (want_bits, outcome)
            assert np.array_equal(got.amps, want.amps)


def test_splice_ancilla_readout_that_raises_leaves_register_untouched():
    psi = random_state(rng(116), 14)
    a_idx, a_val = _sparse_ancilla("steane", 7, rng(117))
    for start in (0, 7):
        s = psi.copy()
        records = []

        def readout(bits):
            records.append(bits)
            raise RuntimeError("no answer")

        with pytest.raises(RuntimeError):
            sim.splice_ancilla(s, start, 7, a_idx, a_val, readout, rng(118))
        assert len(records) == 1
        assert np.array_equal(s.amps, psi.amps)


def test_splice_ancilla_draws_its_term_as_generator_choice():
    """On a data block in |0...0> the record is the drawn ancilla index,
    which is the term Generator.choice draws from the ancilla's weights,
    and the draw takes one double from the generator."""
    g = rng(119)
    zero = sim.basis_state(9, "0" * 9)
    for _ in range(20):
        a_idx, a_val = _sparse_ancilla("random", 6, g)
        probs = np.abs(a_val) ** 2
        seed = int(g.integers(1 << 30))
        want = rng(seed)
        term = int(want.choice(a_idx.size, p=probs / probs.sum()))
        want.random()  # the data block's draw
        got = rng(seed)
        bits, _, _ = sim.splice_ancilla(zero.copy(), 1, 6, a_idx, a_val,
                                        _uncorrected, got)
        assert int(bits, 2) == a_idx[term]
        assert got.random() == want.random()


def test_sample_block_draws_across_ranges_like_full_marginal():
    # a 16-qubit block has two ranges of a chunk of block indices each
    psi = random_state(rng(103), 17)
    cum = np.cumsum(block_marginal(psi, 1, 16))
    for r in (0.0, 0.25, 0.5, 0.75, np.nextafter(1.0, 0.0),
              *rng(104).random(20)):
        j, weight = sim.sample_block(psi, 1, 16, _Fixed(r))
        assert j == int(np.searchsorted(cum, r * cum[-1], side="right"))
        assert abs(weight - (cum[j] - (cum[j - 1] if j else 0.0))) < 1e-15


def _peak(call) -> int:
    """tracemalloc peak of one call, in bytes."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_block_kernels_scratch_stays_within_chunks():
    """On a 21-qubit register (32 MiB) no kernel, the CNOT between every
    pair of blocks in both directions included, allocates more than a
    few chunks (512 KiB each)."""
    s = random_state(rng(105), 21)
    a_idx, a_val = _sparse_ancilla("steane", 7, rng(106))
    for start in (0, 7, 14):
        for call in (
                lambda: sim.apply_block_pauli(s, start, 7, 0b1010011,
                                              0b0110101),
                lambda: sim.transversal_h(s, start, 7),
                lambda: sim.transversal_sdgx(s, start, 7),
                lambda: sim.splice_ancilla(s, start, 7, a_idx, a_val,
                                           _uncorrected, rng(107)),
                lambda: sim.splice_ancilla(s, start, 7, a_idx, a_val,
                                           _corrected, rng(107))):
            assert _peak(call) < 4 * 2**20
    for c0 in (0, 7, 14):
        for t0 in (0, 7, 14):
            if c0 != t0:
                assert _peak(lambda: sim.transversal_cnot(s, c0, t0, 7)) \
                    < 4 * 2**20


def test_block_kernels_take_their_scratch_from_the_arena():
    """On a warmed 14-qubit register of two Steane blocks (the size the
    schemes run at) no kernel allocates a chunk: each takes its scratch
    from the module's arena."""
    s = random_state(rng(108), 14)
    a_idx, a_val = _sparse_ancilla("steane", 7, rng(109))
    for start, other in ((0, 7), (7, 0)):
        calls = {
            "pauli": lambda: sim.apply_block_pauli(s, start, 7, 0b1010011,
                                                   0b0110101),
            "sdgx": lambda: sim.transversal_sdgx(s, start, 7),
            "h": lambda: sim.transversal_h(s, start, 7),
            "cnot": lambda: sim.transversal_cnot(s, start, other, 7),
            "splice": lambda: sim.splice_ancilla(s, start, 7, a_idx, a_val,
                                                 _uncorrected, rng(110)),
            "splice, corrected": lambda: sim.splice_ancilla(
                s, start, 7, a_idx, a_val, _corrected, rng(110)),
        }
        for call in calls.values():  # warm up
            call()
        for name, call in calls.items():
            assert _peak(call) < 64 * 2**10, name


@pytest.mark.parametrize("m", [14, 21])
def test_a_second_h_or_cnot_call_allocates_nothing(m):
    """Once a shape's CNOT plan is built, H and CNOT on it allocate no
    more than a few Python objects: the row index comes from the plan,
    H's factor schedule is a few small lists, and the scratch comes from
    the arena."""
    s = random_state(rng(120), m)
    starts = range(0, m, 7)
    for a in starts:
        for b in starts:
            call = (lambda: sim.transversal_h(s, a, 7)) if a == b else (
                lambda: sim.transversal_cnot(s, a, b, 7))
            call()
            assert _peak(call) < 4 * 2**10, (a, b)


def test_plans_stay_within_their_bound_and_keep_a_writeable_index():
    for m, c0, t0, n in CNOT_PAIRS:
        sim.transversal_cnot(random_state(rng(121), m), c0, t0, n)
    info = sim._cnot_rows.cache_info()
    assert info.maxsize == sim._PLANS
    assert 0 < info.currsize <= sim._PLANS
    index = sim._cnot_rows(7, 128, True)
    assert index.flags.writeable  # np.take would copy a read-only index
    assert index.dtype == np.intp and index.size <= sim._CHUNK


def test_block_kernels_reuse_the_arena_without_stale_scratch():
    """Kernels interleaved on a one-chunk 14-qubit register and a 18-qubit
    register of 16 chunks, so that each call finds the arena as a call of
    another shape left it. Every result matches the per-qubit path (the
    splice: the dense splice at the record it drew, then on outcome 1 the
    dense X.Sdg)."""
    g = rng(111)
    a_idx, a_val = _sparse_ancilla("steane", 7, rng(112))
    registers = [(random_state(g, 14), (0, 7)), (random_state(g, 18), (1, 10))]

    def pauli(s, b, other, x=0, z=0):
        for q in range(7):
            if (z >> (6 - q)) & 1:
                s = sim.apply_gate(s, sim.GateOp("Z", (b + q,)))
        for q in range(7):
            if (x >> (6 - q)) & 1:
                s = sim.apply_gate(s, sim.GateOp("X", (b + q,)))
        return s

    def cnot(s, b, other):
        for q in range(7):
            s = sim.apply_gate(s, sim.GateOp("CNOT", (b + q, other + q)))
        return s

    steps = [
        (lambda s, b, o: sim.apply_block_pauli(s, b, 7, 0b1010011, 0b0110101),
         lambda s, b, o: pauli(s, b, o, 0b1010011, 0b0110101)),
        (lambda s, b, o: sim.apply_block_pauli(s, b, 7, 0, 0b1000001),
         lambda s, b, o: pauli(s, b, o, 0, 0b1000001)),
        (lambda s, b, o: sim.transversal_sdgx(s, b, 7),
         lambda s, b, o: _per_qubit(_per_qubit(s, "X", b, 7), "Sdg", b, 7)),
        (lambda s, b, o: sim.transversal_h(s, b, 7),
         lambda s, b, o: _per_qubit(s, "H", b, 7)),
        (lambda s, b, o: sim.transversal_cnot(s, b, o, 7), cnot),
    ]
    for i in range(40):
        state, blocks = registers[i % 2]
        fast, slow = steps[(i // 2) % len(steps)]
        b, other = blocks if (i // 10) % 2 else blocks[::-1]
        want = slow(state.copy(), b, other)
        assert fast(state, b, other) is state
        assert np.allclose(state.amps, want.amps, atol=1e-12)
        if i % 3 == 0:  # a splice, against the dense one at its record
            cube = state.amps.reshape(1 << b, 1 << 7, -1).copy()
            readout = _corrected if i % 2 else _uncorrected
            bits, outcome, _ = sim.splice_ancilla(state, b, 7, a_idx, a_val,
                                                  readout, g)
            y = int(bits, 2)
            ref = np.zeros_like(cube)
            ref[:, a_idx, :] = a_val[None, :, None] * cube[:, y ^ a_idx, :]
            want = sim.StateVector(state.num_qubits, ref.reshape(-1)
                                   / np.linalg.norm(ref), check=False)
            if outcome:
                sim.transversal_sdgx(want, b, 7)
            assert np.allclose(state.amps, want.amps, atol=1e-12)


def test_parse_circuit_basic():
    c = sim.parse_circuit("H 0\nCNOT 0 1\nT 1")
    assert len(c.gates) == 3
    assert c.num_wires == 2
    assert c.gates[1] == sim.GateOp("CNOT", (0, 1))


def test_parse_circuit_comments_and_blanks():
    c = sim.parse_circuit("# header\n\nH 0\n  # tail\nT 0\n")
    assert [g.kind for g in c.gates] == ["H", "T"]


def test_parse_circuit_rejects_gadget_internal_gate():
    with pytest.raises(UnknownGateError):
        sim.parse_circuit("S 0")


def test_parse_circuit_rejects_equal_wires():
    with pytest.raises(CircuitParseError) as err:
        sim.parse_circuit("H 0\nCNOT 0 0")
    assert "line 2" in str(err.value)


def test_parse_circuit_reports_line_numbers():
    with pytest.raises(CircuitParseError) as err:
        sim.parse_circuit("H 0\n\nH x")
    assert "line 3" in str(err.value)


def test_circuit_text_roundtrip():
    text = "H 0\nCNOT 0 1\nT 1"
    assert circuit_to_text(sim.parse_circuit(text)) == text


def test_count_t_gates():
    assert sim.count_t_gates(sim.LogicalCircuit(1, ())) == 0
    c = sim.parse_circuit("H 0\nT 0\nCNOT 0 1\nT 1")
    assert sim.count_t_gates(c) == 2


def test_run_circuit_identity():
    g = rng(74)
    psi = random_state(g, 2)
    out = sim.run_circuit(psi.copy(), sim.LogicalCircuit(2, ()))
    assert np.array_equal(out.amps, psi.amps)


def test_run_circuit_bell():
    out = sim.run_circuit(sim.basis_state(2, "00"), sim.parse_circuit("H 0\nCNOT 0 1"))
    assert np.allclose(out.amps, np.array([1, 0, 0, 1]) / np.sqrt(2))


def test_run_circuit_composition():
    g = rng(75)
    for _ in range(10):
        c1 = random_circuit(g, max_wires=2, max_gates=4, max_t=2)
        c2 = random_circuit(g, max_wires=2, max_gates=4, max_t=2)
        wires = max(c1.num_wires, c2.num_wires)
        glued = sim.LogicalCircuit(wires, c1.gates + c2.gates)
        psi = random_state(g, wires)
        split = sim.run_circuit(sim.run_circuit(psi.copy(), c1), c2)
        joint = sim.run_circuit(psi.copy(), glued)
        assert sim.fidelity(split, joint) >= 1 - 1e-12


def test_run_circuit_wire_out_of_range():
    with pytest.raises(WireError):
        sim.run_circuit(sim.basis_state(1, "0"), sim.parse_circuit("H 1"))
