"""CSS codes and the Pauli frames beside them: encoding against the
reference isometry of a key (u, v), the frame (v, u), stabilizers,
correction, ancillas, readout, key classes, and key evolution under
transversal gates."""

import itertools
import math
import re
import tracemalloc
from functools import reduce

import numpy as np
import pytest

from cssfhe import asymmetric, codes, css, gf2, sim, symmetric
from cssfhe.errors import (
    DecodeFailureError,
    InvalidPairError,
    LeakageError,
    ShapeError,
)

from helpers import (count_calls, decode_per_block, family_signature,
                     iso_columns, isometry, logical_basis, random_state,
                     refresh_count, rng, span_brute, stabilizers,
                     transversal_sdgx)


@pytest.fixture(scope="module")
def steane_pair():
    b = codes.builtin_codes()
    return b["hamming74"], b["simplex73"]


@pytest.fixture(scope="module")
def steane(steane_pair):
    c1, c2 = steane_pair
    return css.build(c1, c2)


@pytest.fixture(scope="module")
def toy_pair():
    return (codes.from_generator([0b110, 0b011], 3),
            codes.from_generator([0b110], 3))


def as_mask(word) -> int:
    """An int mask as it is; a '0101' string as its mask."""
    return word if isinstance(word, int) else int(word, 2)


def parity(a: int, b: int) -> int:
    return (a & b).bit_count() & 1


def encoded_basis(code, u, v):
    """The library's logical |0> and |1> under the key (u, v): encoded
    under the frame (v, u)."""
    return tuple(css.encode_blocks(code, sim.basis_state(1, b), [(v, u)])
                 for b in "01")


def composed(u, v, frames):
    """Each frame X^x Z^z after the key's frame X^v Z^u, as one frame per
    block and the sign they pick up: X^x Z^z X^v Z^u is
    (-1)^(z.v) X^(x^v) Z^(z^u)."""
    sign = 1
    for _, z in frames:
        sign *= -1 if parity(z, v) else 1
    return [(x ^ v, z ^ u) for x, z in frames], sign


def test_build_steane(steane):
    assert steane.n == 7
    assert steane.t == 1
    # recompute the logical-X representative by exhaustion: the
    # minimum-weight word outside the inner code, ties broken by bit order
    c1_words = span_brute(steane.c1.gen)
    c2_words = span_brute(steane.c2.gen)
    coset = sorted(c1_words - c2_words, key=lambda w: (w.bit_count(), w))
    assert steane.x1 == coset[0] == 0b0010011


def test_build_golay():
    b = codes.builtin_codes()
    code = css.build(b["golay2312"], codes.dual(b["golay2312"]))
    assert code.n == 23
    assert code.t == 3


def test_build_rejects_bad_pairs(steane_pair):
    c1, c2 = steane_pair
    with pytest.raises(InvalidPairError):
        css.build(c1, c1)  # gap 0
    with pytest.raises(InvalidPairError):
        css.build(c2, c1)  # not nested


def bases(code, u, v):
    """The reference logical basis of the key (u, v) and the library's."""
    return logical_basis(code, u, v), encoded_basis(code, u, v)


def test_logical_basis_plain_steane(steane):
    for zero, one in bases(steane, 0, 0):
        inner_words = span_brute(steane.c2.gen)
        for word in inner_words:
            assert abs(zero.amps[word] - 1 / np.sqrt(8)) < 1e-12
        assert np.count_nonzero(zero.amps) == 8
        assert abs(zero.norm() - 1) < 1e-12
        assert abs(one.norm() - 1) < 1e-12


def test_logical_basis_orthogonal_for_random_keys(steane):
    g = rng(80)
    for _ in range(20):
        u, v = gf2.random_vector(7, g), gf2.random_vector(7, g)
        for zero, one in bases(steane, u, v):
            assert abs(np.vdot(zero.amps, one.amps)) < 1e-12


def test_logical_basis_v_shift_moves_support(steane):
    for zero, _ in bases(steane, 0, 0b1000000):
        shifted = {w ^ 0b1000000 for w in span_brute(steane.c2.gen)}
        support = {i for i in range(128) if abs(zero.amps[i]) > 1e-12}
        assert support == shifted


def test_logical_basis_u_twists_signs(steane):
    u = "1100101"
    for zero, _ in bases(steane, as_mask(u), 0):
        ubits = [int(c) for c in u]
        for word in span_brute(steane.c2.gen):
            wbits = [int(c) for c in format(word, "07b")]
            odd = sum(a * b for a, b in zip(ubits, wbits)) % 2
            expect = (-1) ** odd / np.sqrt(8)
            assert abs(zero.amps[word] - expect) < 1e-12


def test_encode_zero_is_zero_state(steane):
    zero, _ = logical_basis(steane, 0, 0)
    enc = css.encode_blocks(steane, sim.basis_state(1, "0"))
    assert sim.fidelity(enc, zero) >= 1 - 1e-12


def test_encode_bell_block_structure(steane):
    bell = sim.run_circuit(sim.basis_state(2, "00"), sim.parse_circuit("H 0\nCNOT 0 1"))
    enc = css.encode_blocks(steane, bell)
    assert enc.num_qubits == 14
    assert abs(enc.norm() - 1) < 1e-12
    zero, one = logical_basis(steane, 0, 0)
    oracle = (np.kron(zero.amps, zero.amps) + np.kron(one.amps, one.amps)) / np.sqrt(2)
    assert np.allclose(enc.amps, oracle, atol=1e-12)


def test_encode_decode_roundtrip(steane):
    g = rng(81)
    for m in (1, 2):
        u, v = gf2.random_vector(7, g), gf2.random_vector(7, g)
        psi = random_state(g, m)
        frames = [(v, u)] * m
        back = css.decode_blocks(steane, css.encode_blocks(steane, psi, frames),
                                 frames)
        assert sim.fidelity(back, psi) >= 1 - 1e-10


def encode_per_block(key, psi):
    """The reference encoder: one apply_block_isometry per wire."""
    state, iso = psi.copy(), isometry(key.code, key.u, key.v)
    for w in range(psi.num_qubits):
        state = sim.apply_block_isometry(state, w * key.code.n, iso)
    return state


def decode_per_block_leaks(key, state, frames):
    """The reference decoder: one contract_block_isometry per block, each
    under its own frame on top of the key's; returns the state and every
    block's leak."""
    iso, leaks = isometry(key.code, key.u, key.v), []
    for i, (x, z) in enumerate(frames):
        state, leak = sim.contract_block_isometry(state, i, iso,
                                                  x_mask=x, z_mask=z)
        leaks.append(leak)
    return state, leaks


def codec_cases():
    """(key, blocks, generator): Steane family and scrambled keys with
    0..3 blocks, and one Golay block."""
    g = rng(90)
    for mode in ("family", "scrambled"):
        for m in range(4):
            yield symmetric.keygen("steane", mode, g), m, g
    yield symmetric.keygen("golay", "family", g), 1, g


def test_codec_matches_per_block_path():
    """One pass over the code-space support gives the amplitudes of the
    per-block isometry chain, under the key's frame and random frames on
    top of it, and never writes to the register it decodes."""
    for key, m, g in codec_cases():
        code, u, v = key.code, key.u, key.v
        psi = random_state(g, m)
        enc = css.encode_blocks(code, psi, [(v, u)] * m)
        ref = encode_per_block(key, psi)
        assert np.abs(enc.amps - ref.amps).max() <= 1e-12
        del ref
        frames = [(sim.mask_of_bits(g.integers(0, 2, code.n, dtype=np.uint8)),
                   sim.mask_of_bits(g.integers(0, 2, code.n, dtype=np.uint8)))
                  for _ in range(m)]
        for i, (x, z) in enumerate(frames):
            sim.apply_block_pauli(enc, i * code.n, code.n, x, z)
        before = enc.amps.copy()
        total, sign = composed(u, v, frames)
        out = css.decode_blocks(code, enc, frames=total)
        assert np.array_equal(enc.amps, before)
        del before
        want, leaks = decode_per_block_leaks(key, enc, frames)
        assert max(leaks, default=0.0) <= 1e-12
        assert np.abs(sign * out.amps - want.amps).max() <= 1e-12
        assert sim.fidelity(out, psi) >= 1 - 1e-12


def _reference_code(key):
    """The key's code as build makes it from scratch: on the pair of a
    family key, on the scrambled pair (S C1 P, C2 P) of a scrambled one."""
    base = css.base_code(key.base_name)
    c1, c2 = base.c1, base.c2
    if key.s is None:
        return css.build(c1, c2)
    return css.build(
        codes.from_generator(gf2.mat_mul(gf2.mat_mul(key.s, c1.gen), key.p),
                             c1.n),
        codes.from_generator(gf2.mat_mul(c2.gen, key.p), c2.n))


def test_key_view_matches_the_reference_isometry():
    """Encoding and decoding through the presentation's support, with the
    key's frame composed with random frames given as int masks, gives to
    1e-12 the amplitudes of the validated isometry of the key (u, v) over
    its code built from scratch. The magic ancilla keeps the reference
    columns' order."""
    g = rng(94)
    cases = [(symmetric.keygen("steane", mode, g), m)
             for mode in ("family", "scrambled") for m in (1, 2, 3)]
    cases += [(symmetric.keygen("golay", mode, g), 1)
              for mode in ("family", "scrambled")]
    for key, m in cases:
        code, iso = key.code, isometry(_reference_code(key), key.u, key.v)
        n = code.n
        masks = [(gf2.random_vector(n, g), gf2.random_vector(n, g))
                 for _ in range(m)]
        total, sign = composed(key.u, key.v, masks)
        psi = random_state(g, m)
        want = psi.copy()
        for i in range(m):
            want = sim.apply_block_isometry(want, i * n, iso)
        for i, (x, z) in enumerate(masks):
            sim.apply_block_pauli(want, i * n, n, x, z)
        got = css.encode_blocks(code, psi, total)
        got.amps *= sign
        np.subtract(got.amps, want.amps, out=got.amps)
        assert np.abs(got.amps).max() <= 1e-12
        del got
        back = css.decode_blocks(code, want, total)
        for i, (x, z) in enumerate(masks):
            want, leak = sim.contract_block_isometry(want, i, iso, x, z)
            assert leak <= 1e-12
        assert np.abs(sign * back.amps - want.amps).max() <= 1e-12
        idx, vals = css.magic_ancilla_sparse(code, (key.v, key.u))
        (i0, v0), (i1, v1) = iso.cols
        assert np.array_equal(idx, np.concatenate([i0, i1]))
        magic = np.concatenate([v0, css.MAGIC_PHASE * v1]) / np.sqrt(2)
        assert np.abs(vals - magic).max() <= 1e-15


def test_encode_under_frames_is_encode_then_pauli():
    """Encoding under the key's frame composed with frames gives exactly
    the amplitudes of encoding under the key's frame alone and then
    applying each block's Pauli, up to the sign the composition picks up:
    X^x Z^z scatters at the support ^ X and negates the entries s where
    s.z is odd."""
    g = rng(92)
    cases = [(symmetric.keygen("steane", mode, g), m)
             for mode in ("family", "scrambled") for m in (1, 2, 3)]
    cases.append((symmetric.keygen("golay", "scrambled", g), 1))
    for key, m in cases:
        code = key.code
        psi = random_state(g, m)
        frames = [(sim.mask_of_bits(g.integers(0, 2, code.n, dtype=np.uint8)),
                   sim.mask_of_bits(g.integers(0, 2, code.n, dtype=np.uint8)))
                  for _ in range(m)]
        want = css.encode_blocks(code, psi, [(key.v, key.u)] * m)
        for i, (x, z) in enumerate(frames):
            sim.apply_block_pauli(want, i * code.n, code.n, x, z)
        total, sign = composed(key.u, key.v, frames)
        got = css.encode_blocks(code, psi, total)
        assert np.array_equal(sign * got.amps, want.amps)
        del got, want


def test_encode_into_register_overwrites_it():
    g = rng(93)
    code = symmetric.keygen("steane", "scrambled", g).code
    psi = random_state(g, 2)
    frames = [(gf2.random_vector(7, g),
               gf2.random_vector(7, g)) for _ in range(2)]
    out = random_state(g, 14)  # every entry non-zero
    got = css.encode_blocks(code, psi, frames, out=out)
    assert got is out
    assert np.array_equal(out.amps, css.encode_blocks(code, psi, frames).amps)
    with pytest.raises(ShapeError):
        css.encode_blocks(code, psi, out=random_state(g, 7))
    with pytest.raises(ShapeError):
        css.encode_blocks(code, psi, frames[:1])


def test_codec_leakage_is_total_over_blocks():
    """The leak decode_blocks reports is the weight outside the code space
    of all blocks at once, 1 - prod(1 - leak_i) over the per-block leaks,
    so it refuses whatever the per-block path refuses."""
    for key, m, g in codec_cases():
        if not m:
            continue
        code, frames = key.code, [(key.v, key.u)] * m
        enc = css.encode_blocks(code, random_state(g, m), frames)
        hit = g.integers(0, enc.amps.shape[0], size=32)
        enc.amps[hit] += 1e-3 * (g.normal(size=32) + 1j * g.normal(size=32))
        enc.amps /= np.linalg.norm(enc.amps)
        _, leaks = decode_per_block_leaks(key, enc, [(0, 0)] * m)
        want = 1 - np.prod([1 - leak for leak in leaks])
        assert want > css.DECODE_LEAKAGE_TOL
        with pytest.raises(LeakageError) as info:
            css.decode_blocks(code, enc, frames)
        got = float(re.search(r"weight (\S+)", str(info.value)).group(1))
        assert got == pytest.approx(want, rel=5e-3)


def test_decode_21_qubits_allocates_no_register():
    g = rng(91)
    key = symmetric.keygen("steane", "family", g)
    code = key.code
    psi = random_state(g, 3)
    enc = css.encode_blocks(code, psi, [(key.v, key.u)] * 3)
    errors = [(sim.mask_of_bits(g.integers(0, 2, 7, dtype=np.uint8)),
               sim.mask_of_bits(g.integers(0, 2, 7, dtype=np.uint8)))
              for _ in range(3)]
    for i, (x, z) in enumerate(errors):
        sim.apply_block_pauli(enc, 7 * i, 7, x, z)
    frames, _ = composed(key.u, key.v, errors)
    tracemalloc.start()
    try:
        out = css.decode_blocks(code, enc, frames=frames)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sim.fidelity(out, psi) >= 1 - 1e-12
    assert peak < 2**20


def test_encode_norm_preservation(steane):
    g = rng(82)
    for _ in range(100):
        u, v = gf2.random_vector(7, g), gf2.random_vector(7, g)
        psi = random_state(g, 1)
        assert abs(css.encode_blocks(steane, psi, [(v, u)]).norm() - 1) < 1e-12


def test_decode_wrong_key_full_sweep(steane_pair):
    """Sweep all 2^14 candidate keys against one encoded state.

    Decoding leaks nothing exactly when the candidate spans the same code
    space (u xor u' orthogonal to the inner code, v xor v' in the outer
    code); it additionally returns the original plaintext exactly when the
    encoders agree up to a common phase (u xor u' orthogonal to the outer
    code, v xor v' in the inner code)."""
    c1, c2 = steane_pair
    g = rng(83)
    u = gf2.random_vector(7, g)
    v = gf2.random_vector(7, g)
    code0 = css.build(c1, c2)
    psi = random_state(g, 1)
    enc = css.encode_blocks(code0, psi, [(v, u)])

    clean = 0
    exact = 0
    for ui in range(128):
        for vi in range(128):
            du, dv = u ^ ui, v ^ vi
            same_space = (not any(parity(g, du) for g in c2.gen)
                          and not any(parity(h, dv) for h in c1.pchk))
            same_encoder = (not any(parity(g, du) for g in c1.gen)
                            and not any(parity(h, dv) for h in c2.pchk))
            try:
                out = css.decode_blocks(code0, enc, [(vi, ui)])
            except LeakageError:
                assert not same_space
                continue
            clean += 1
            assert same_space
            if sim.fidelity(out, psi) >= 1 - 1e-10:
                exact += 1
                assert same_encoder
            else:
                assert not same_encoder
    assert clean == 256
    assert exact == 64


def apply_leaders(state, block, leaders, n=7):
    """Undo the Pauli error that correct_errors reports, on a copy."""
    x, z = leaders
    return sim.apply_block_pauli(state.copy(), block * n, n,
                                 x_mask=x, z_mask=z)


def test_correct_errors_clean_block(steane):
    g = rng(84)
    code = steane
    enc = css.encode_blocks(code, random_state(g, 1))
    reference = enc.copy()
    x_leader, z_leader = css.correct_errors(code, enc, 0)
    assert x_leader == 0
    assert z_leader == 0
    out = apply_leaders(enc, 0, (x_leader, z_leader))
    assert sim.fidelity(out, reference) >= 1 - 1e-12
    with pytest.raises(ShapeError):  # the syndrome needs an occupied index
        css.correct_errors(code, enc, 0, int(np.flatnonzero(enc.amps == 0)[0]))


def test_correct_errors_single_paulis_exhaustive(steane):
    g = rng(85)
    code = steane
    psi = random_state(g, 1)
    enc = css.encode_blocks(code, psi)
    for pos in range(7):
        for kind in ("X", "Y", "Z"):
            hurt = enc.copy()
            x = int(kind in ("X", "Y")) << (6 - pos)
            z = int(kind in ("Y", "Z")) << (6 - pos)
            sim.apply_block_pauli(hurt, 0, 7, x_mask=x, z_mask=z)
            x_leader, z_leader = css.correct_errors(code, hurt, 0)
            fixed = apply_leaders(hurt, 0, (x_leader, z_leader))
            assert sim.fidelity(fixed, enc) >= 1 - 1e-10
            assert (x_leader != 0) == (x != 0)
            assert (z_leader != 0) == (z != 0)
            back = css.decode_blocks(code, fixed)
            assert sim.fidelity(back, psi) >= 1 - 1e-10


def test_correct_errors_weight2_misleads(steane):
    # weight 2 exceeds t=1: the corrector either flags the block or lands
    # on the wrong coset leader, whose correction is a logical flip
    g = rng(86)
    code = steane
    enc = css.encode_blocks(code, random_state(g, 1))
    reference = enc.copy()
    hurt = enc.copy()
    sim.apply_block_pauli(hurt, 0, 7, x_mask=0b1100000, z_mask=0)
    try:
        fixed = apply_leaders(hurt, 0, css.correct_errors(code, hurt, 0))
        assert sim.fidelity(fixed, reference) < 0.99
    except DecodeFailureError:
        pass


def _frame_checks(code, enc, psi, x, z):
    """The zero-frame block enc carries X^x Z^z: its leaders are (x, z),
    and it decodes under the key (z, x), under the reference isometry
    with the frame, and through the library under the frame."""
    leaders = css.correct_errors(code, enc, 0)
    assert leaders[0] == x and leaders[1] == z
    for iso, (xm, zm) in ((isometry(code, z, x), (0, 0)),
                          (isometry(code, 0, 0), (x, z))):
        back, leak = sim.contract_block_isometry(enc, 0, iso,
                                                 x_mask=xm, z_mask=zm)
        assert leak < 1e-12
        assert sim.fidelity(back, psi) >= 1 - 1e-12
    back = css.decode_blocks(code, enc, [leaders])
    assert sim.fidelity(back, psi) >= 1 - 1e-12


def test_pauli_frame_is_key_shift_steane(steane):
    g = rng(88)
    code = steane
    for _ in range(8):
        psi = random_state(g, 1)
        enc = css.encode_blocks(code, psi)
        for pos in range(7):
            for kind in ("X", "Y", "Z"):
                x = int(kind in ("X", "Y")) << (6 - pos)
                z = int(kind in ("Y", "Z")) << (6 - pos)
                hurt = sim.apply_block_pauli(enc.copy(), 0, 7,
                                             x_mask=x, z_mask=z)
                _frame_checks(code, hurt, psi, x, z)


def test_pauli_frame_is_key_shift_golay():
    b = codes.builtin_codes()
    g = rng(89)
    code = css.build(b["golay2312"], codes.dual(b["golay2312"]))
    psi = random_state(g, 1)
    enc = css.encode_blocks(code, psi)
    for _ in range(3):
        pos = g.choice(23, size=3, replace=False)
        kinds = g.integers(0, 3, size=3)  # 0 X, 1 Y, 2 Z
        x = sum(1 << (22 - int(p)) for p in pos[kinds != 2])
        z = sum(1 << (22 - int(p)) for p in pos[kinds != 0])
        sim.apply_block_pauli(enc, 0, 23, x, z)
        _frame_checks(code, enc, psi, x, z)
        sim.apply_block_pauli(enc, 0, 23, x, z)  # undone up to a sign


def test_frames_leave_the_cache_bounded(steane_pair):
    # the cache holds one support per block count, however many frames
    # encode and decode through it
    c1, c2 = steane_pair
    base = css.build(c1, c2)
    g = rng(90)
    psi = random_state(g, 1)
    supports = set()
    for k in g.choice(1 << 14, size=256, replace=False):
        frame = (int(k) & 0x7F, int(k) >> 7)
        css.decode_blocks(base, css.encode_blocks(base, psi, [frame]), [frame])
        css.correct_errors(base, css.encode_blocks(base, psi), 0)
        supports.add(id(base._cache[("support", 1)]))
    assert set(base._cache) == {("support", 1)}
    assert len(supports) == 1


@pytest.mark.parametrize("pair", ["steane", "golay", "toy"])
def test_a_code_is_whole_at_construction(pair, toy_pair):
    """build and scrambled return a code with nothing cached and its inner
    words and both leader tables set: codes.codewords of its own c2, and
    codes.build_syndrome_table of its own c1 and of its c2's dual. A
    scrambled view moves the base code's arrays by P, which maps each
    leader to the unique error of weight <= t with the view's syndrome,
    so the view's arrays must match exactly too."""
    if pair == "toy":
        made = [css.build(*toy_pair)]
    else:
        base = css.base_code(pair)
        made = [css.build(base.c1, base.c2)] + [
            symmetric.keygen(pair, "scrambled", rng(480 + seed)).code
            for seed in range(3)]
    for code in made:
        assert code._cache == {}
        assert np.array_equal(code.inner, codes.codewords(code.c2))
        assert np.array_equal(
            code.x_table, codes.build_syndrome_table(code.c1, code.t))
        assert np.array_equal(
            code.z_table,
            codes.build_syndrome_table(codes.dual(code.c2), code.t))


def test_stabilizers_fix_basis_states(steane):
    """The signed stabilizers of the key (u, v) fix the library's
    encoding under the frame (v, u)."""
    g = rng(87)
    for _ in range(10):
        u, v = gf2.random_vector(7, g), gf2.random_vector(7, g)
        stab = stabilizers(steane, u, v)
        assert len(stab.x_type) == 3 and len(stab.z_type) == 3
        for state in encoded_basis(steane, u, v):
            for support, sign in stab.x_type:
                hit = state.copy()
                sim.apply_block_pauli(hit, 0, 7, x_mask=support, z_mask=0)
                assert np.allclose(hit.amps, (-1) ** int(sign) * state.amps,
                                   atol=1e-10)
            for support, sign in stab.z_type:
                hit = state.copy()
                sim.apply_block_pauli(hit, 0, 7, x_mask=0, z_mask=support)
                assert np.allclose(hit.amps, (-1) ** int(sign) * state.amps,
                                   atol=1e-10)


def test_keygen_scrambled_valid_code(steane_pair):
    c1, c2 = steane_pair
    for seed in range(5):
        key = symmetric.keygen("steane", "scrambled", rng(seed))
        code = key.code
        assert (code.n, code.t) == (7, 1)
        assert key.u == 0 and key.v == 0
        assert codes.is_subcode(code.c2, code.c1)
        # row space of the published generator is the permuted base space
        perm_words = {gf2.mat_mul([w], key.p)[0] for w in span_brute(c1.gen)}
        assert span_brute(code.c1.gen) == perm_words
        assert gf2.rank(key.s) == 4


def test_keygen_scrambled_distinct_permutations_differ():
    supports = set()
    for seed in range(6):
        key = symmetric.keygen("steane", "scrambled", rng(seed))
        supports.add(tuple(sorted(span_brute(key.code.c1.gen))))
    assert len(supports) > 1


def _correctable_errors(n: int, t: int) -> list[int]:
    """Every error of weight <= t, as int masks."""
    return [sum(1 << (n - 1 - p) for p in pos)
            for w in range(t + 1)
            for pos in itertools.combinations(range(n), w)]


def _table_leaders(code, errors) -> list[np.ndarray]:
    """The (bit-flip, phase-flip) leaders the code's tables give each
    error, by the code's own checks (c1.pchk and the rows of c2.gen), in
    the code's qubit order, as int masks."""
    out = []
    for table, checks in zip((code.x_table, code.z_table),
                             (code.c1.pchk, code.c2.gen)):
        leaders = []
        for e in errors:
            syndrome = 0
            for h in checks:
                syndrome = (syndrome << 1) | parity(h, e)
            leaders.append(int(table[syndrome]))
        out.append(np.array(leaders))
    return out


@pytest.mark.parametrize("pair, seeds", [("steane", 50), ("golay", 3)])
def test_scrambled_key_is_a_view_of_the_base_code(pair, seeds):
    """A scrambled key's code is the base code with its qubits permuted
    by P. It equals what build makes of the scrambled pair (S C1 P, C2 P):
    the same isometry columns in the same order, on the view's own
    support too, x1 and t, and the same coset leaders for every error of
    weight <= t."""
    for seed in range(seeds):
        key = symmetric.keygen(pair, "scrambled", rng(300 + seed))
        view, ref = key.code, _reference_code(key)
        assert view.t == ref.t
        assert view.x1 == ref.x1
        ref_cols = iso_columns(ref, 0, 0)
        for (iv, wv), (ir, wr) in zip(iso_columns(view, 0, 0), ref_cols):
            assert np.array_equal(iv, ir) and np.array_equal(wv, wr)
        idx, _ = css.magic_ancilla_sparse(view, (0, 0))
        assert np.array_equal(idx, np.concatenate([ir for ir, _ in ref_cols]))
        errors = _correctable_errors(view.n, view.t)
        for mine, theirs in zip(_table_leaders(view, errors),
                                _table_leaders(ref, errors)):
            assert np.array_equal(mine, theirs)
            assert np.array_equal(mine, errors)


def test_scrambled_keys_rebuild_nothing(monkeypatch):
    """After one warm-up key per pair, scrambled keygens and a decrypt
    derive no distance, codeword list, syndrome table or code: every
    scrambled key reuses its base code's."""
    for pair in ("steane", "golay"):
        symmetric.keygen(pair, "scrambled", rng(400))
    spies = [count_calls(monkeypatch, codes, name)
             for name in ("min_distance", "codewords", "build_syndrome_table")]
    spies.append(count_calls(monkeypatch, css, "build"))
    steane = [symmetric.keygen("steane", "scrambled", rng(410 + seed))
              for seed in range(20)]
    golay = [symmetric.keygen("golay", "scrambled", rng(440 + seed))
             for seed in range(3)]
    key = steane[-1]
    psi = random_state(rng(450), 1)
    circuit = sim.parse_circuit("H 0\nT 0")
    ct = symmetric.encrypt(key, psi, 1, rng(451))
    symmetric.evaluate(7, circuit, ct, symmetric.make_readout(key, ct))
    want = sim.run_circuit(psi.copy(), circuit)
    assert sim.fidelity(symmetric.decrypt(key, ct), want) >= 1 - 1e-9
    act = asymmetric.encrypt(asymmetric.PublicKey(code=key.code, ct_weight=1),
                             psi, rng(452))
    assert sim.fidelity(asymmetric.decrypt(key, act), psi) >= 1 - 1e-10
    for g in golay:
        error = 0b111 << 20
        assert css.logical_readout(g.code, g.code.x1 ^ error) == 1
    assert spies == [[], [], [], []]


def test_key_paths_build_no_isometry(monkeypatch):
    """No keygen, encrypt, evaluate, readout, decrypt, refresh or session
    builds an isometry: every key encodes and decodes through its
    presentation's support."""
    symmetric.keygen("steane", "family", rng(460))
    built = count_calls(monkeypatch, sim, "BlockIsometry")
    psi = random_state(rng(461), 2)
    circuit = sim.parse_circuit("H 0\nCNOT 0 1\nT 0\nT 1\nCNOT 1 0")
    want = sim.run_circuit(psi.copy(), circuit)
    for seed, mode in enumerate(("family", "scrambled")):
        key = symmetric.keygen("steane", mode, rng(462 + seed))
        ct = symmetric.encrypt(key, psi, 2, rng(464 + seed))
        symmetric.evaluate(7, circuit, ct, symmetric.make_readout(key, ct))
        assert sim.fidelity(symmetric.decrypt(key, ct), want) >= 1 - 1e-9
    with pytest.warns(UserWarning):  # c * t = 0.5: the weight is set below
        pair = asymmetric.keygen("steane", 0.5, rng(466))
    ct = asymmetric.encrypt(pair.public, psi, rng(467), override_weight=1)
    alice = asymmetric.make_refresh_authority(pair.private, rng(468))
    ct, transcript = asymmetric.evaluate_session(pair.public, circuit, ct,
                                                 alice, rng(469))
    assert refresh_count(transcript) > 0
    assert sim.fidelity(asymmetric.decrypt(pair.private, ct), want) >= 1 - 1e-9
    assert built == []


def test_keygen_family_deterministic():
    a = symmetric.keygen("steane", "family", rng(5))
    b = symmetric.keygen("steane", "family", rng(5))
    assert a.u == b.u
    assert a.v == b.v


@pytest.mark.parametrize("pair", ["steane", "golay"])
def test_family_keys_share_the_cached_base_code(pair, monkeypatch):
    base = css.base_code(pair)
    n = base.n
    first = symmetric.keygen(pair, "family", rng(91))
    css.correct_errors(first.code, css.encode_blocks(first.code,
                                                     random_state(rng(92), 1)),
                       0)
    calls = count_calls(monkeypatch, codes, "min_distance")
    built = dict(base._cache)  # earlier tests may have added supports
    for seed in range(93, 98):
        key = symmetric.keygen(pair, "family", rng(seed))
        want = rng(seed)  # the same draws as before: u, then v
        assert key.u == gf2.random_vector(n, want)
        assert key.v == gf2.random_vector(n, want)
        assert key.code is base is first.code
        ct = symmetric.encrypt(key, random_state(rng(seed), 1), 1, rng(seed))
        circuit = sim.parse_circuit("T 0")
        symmetric.evaluate(n, circuit, ct, symmetric.make_readout(key, ct))
        out = symmetric.decrypt(key, ct)
        assert sim.fidelity(out, sim.run_circuit(
            random_state(rng(seed), 1), circuit)) >= 1 - 1e-10
    assert calls == []
    # one entry per block count, built once, however many keys use it
    assert set(base._cache) == set(built) | {("support", 1)}
    assert all(base._cache[k] is built[k] for k in built)
    assert all(k == "magic" or k[0] == "support" for k in base._cache)


def test_keygen_family_zero_key_matches_plain(steane):
    for mine, plain in zip(encoded_basis(steane, 0, 0),
                           logical_basis(steane, 0, 0)):
        assert sim.fidelity(mine, plain) >= 1 - 1e-12


def test_keygen_family_random_key_usually_differs(steane):
    g = rng(88)
    zero_plain, _ = logical_basis(steane, 0, 0)
    differing = 0
    for _ in range(10):
        key = symmetric.keygen("steane", "family", g)
        zero, _ = encoded_basis(key.code, key.u, key.v)
        differing += sim.fidelity(zero, zero_plain) < 1 - 1e-12
    assert differing >= 8


def dense_magic_ancilla(code, frame) -> sim.StateVector:
    """The encoded magic state under the frame as a dense block, encoded
    from css.MAGIC_AMPS by encode_blocks."""
    plain = sim.StateVector(1, css.MAGIC_AMPS.copy(), check=False)
    return css.encode_blocks(code, plain, [frame])


def test_magic_ancilla_decodes_to_magic_state(steane):
    g = rng(89)
    u, v = gf2.random_vector(7, g), gf2.random_vector(7, g)
    anc = dense_magic_ancilla(steane, (v, u))
    assert abs(anc.norm() - 1) < 1e-12
    out = css.decode_blocks(steane, anc, [(v, u)])
    oracle = sim.StateVector(
        1, np.array([1, np.exp(1j * np.pi / 4)]) / np.sqrt(2), check=False)
    assert sim.fidelity(out, oracle) >= 1 - 1e-12


def test_magic_ancilla_sparse_matches_dense(steane):
    g = rng(90)
    u, v = gf2.random_vector(7, g), gf2.random_vector(7, g)
    idx, vals = css.magic_ancilla_sparse(steane, (v, u))
    dense = np.zeros(128, dtype=complex)
    dense[idx] = vals
    assert np.allclose(dense, dense_magic_ancilla(steane, (v, u)).amps,
                       atol=1e-12)


def test_magic_ancilla_overlap_values(steane):
    """Candidate keys covering the three geometric cases: same key
    (fidelity 1), same space with v shifted by the logical representative
    (fidelity 1/2), different space (fidelity 0)."""
    u, v = 0b1010110, 0b1111000
    anc = dense_magic_ancilla(steane, (v, u))
    same = dense_magic_ancilla(steane, (v, u))
    assert abs(sim.fidelity(same, anc) - 1) < 1e-12
    sibling = dense_magic_ancilla(steane, (v ^ steane.x1, u))
    assert abs(sim.fidelity(sibling, anc) - 0.5) < 1e-12
    other = dense_magic_ancilla(steane, (v, 0b1010111))
    assert sim.fidelity(other, anc) < 1e-12


def test_logical_readout_cosets(steane):
    assert css.logical_readout(steane, 0) == 0
    assert css.logical_readout(steane, steane.x1) == 1


def test_logical_readout_exhaustive_weight1(steane):
    code = steane
    c2_words = span_brute(code.c2.gen)
    for w in span_brute(code.c1.gen):
        bit = 0 if w in c2_words else 1
        assert css.logical_readout(code, w) == bit
        for i in range(7):
            e = 1 << (6 - i)
            assert css.logical_readout(code, w ^ e) == bit


def test_logical_readout_beyond_radius(toy_pair):
    # the toy pair has t=0, so any nonzero syndrome is out of range
    code = css.build(*toy_pair)
    assert code.t == 0
    with pytest.raises(DecodeFailureError):
        css.logical_readout(code, 0b100)


def test_logical_readout_agrees_with_decode_then_measure(steane):
    """A record measured under the key (u, v) XOR v is read under the
    zero frame with the plaintext's statistics."""
    g = rng(92)
    code = steane
    u, v = gf2.random_vector(7, g), gf2.random_vector(7, g)
    psi = random_state(g, 1)
    enc = css.encode_blocks(code, psi, [(v, u)])
    counts = {0: 0, 1: 0}
    for _ in range(1000):
        shot = enc.copy()
        bits = ""
        for q in range(7):
            b, shot = sim.measure_z(shot, q, g)
            bits += str(b)
        counts[css.logical_readout(code, int(bits, 2) ^ v)] += 1
    p1 = abs(psi.amps[1]) ** 2
    # 4-sigma binomial envelope around the plaintext statistics
    sigma = np.sqrt(p1 * (1 - p1) / 1000)
    assert abs(counts[1] / 1000 - p1) < 4 * sigma + 1e-9


@pytest.mark.parametrize("pair", ["steane", "golay"])
def test_logical_readout_is_the_coset_bit(pair):
    """The one-parity readout of every C1 word, clean and under each
    correctable error, is the word's coset bit (0 in C2, 1 in x1 + C2)
    by codes.codewords: on the base code and on three scrambled views.
    Steane takes every word with every error; Golay every word clean and
    once under an error, each error on two words."""
    views = [css.base_code(pair)] + [
        symmetric.keygen(pair, "scrambled", rng(470 + seed)).code
        for seed in range(3)]
    for code in views:
        words = codes.codewords(code.c1).tolist()
        inner = set(codes.codewords(code.c2).tolist())
        errors = _correctable_errors(code.n, code.t)
        assert len(words) == 2 * len(inner)
        if pair == "steane":
            cases = [(w, e) for w in words for e in errors]
        else:
            cases = [(w, 0) for w in words]
            cases += [(w, errors[i % len(errors)]) for i, w in enumerate(words)]
        for w, e in cases:
            assert css.logical_readout(code, w ^ e) == (w not in inner)


def test_x_leader_codeword_passthrough(steane):
    word = 0b1000110
    err = css._x_leader(steane, word)
    cw = word ^ err
    assert cw == word
    assert err == 0


def test_x_leader_hamming_exhaustive(steane):
    for cw in span_brute(steane.c1.gen):
        for i in range(7):
            e = 1 << (6 - i)
            got_e = css._x_leader(steane, cw ^ e)
            got_cw = cw ^ e ^ got_e
            assert got_cw == cw
            assert got_e == e


def test_x_leader_weight2_misbehaves(steane):
    # beyond the radius the reader must fail or return a different codeword
    e = 0b1100000
    word = 0b1000110 ^ e
    err = css._x_leader(steane, word)
    if err is not None:
        assert word ^ err != 0b1000110


def test_x_leader_golay_randomized():
    code = css.base_code("golay")
    gen = rng(50)
    for _ in range(1000):
        msg = gf2.random_vector(12, gen)
        cw = gf2.mat_mul([msg], code.c1.gen)[0]
        weight = int(gen.integers(0, 4))
        e = sum(1 << (22 - int(p))
                for p in gen.choice(23, size=weight, replace=False))
        got_e = css._x_leader(code, cw ^ e)
        got_cw = cw ^ e ^ got_e
        assert got_cw == cw
        assert got_e == e


def test_family_classes_steane_count(steane):
    classes = list(css.family_key_classes(steane))
    assert len(classes) == 64  # 2^(n-1) at n=7
    assert css.count_distinct_family_codes(steane) == 64


def test_family_classes_toy_count(toy_pair):
    # 2^(n-1) at n=3
    assert css.count_distinct_family_codes(css.build(*toy_pair)) == 4


def test_family_classes_golay_count():
    """The closed form holds past the old brute-force cap (n <= 7): 11
    checks of C1 and 11 rows of C2 give 2^22 classes, listed lazily."""
    code = css.base_code("golay")
    assert css.count_distinct_family_codes(code) == 1 << 22 == 4194304
    first = list(itertools.islice(css.family_key_classes(code), 4096))
    assert first[:3] == [(0, 0), (0, 1), (0, 2)]
    assert len({css.frame_class(code, (v, u)) for u, v in first}) == 4096


def test_family_signature_reflexive_sibling_distinct(steane):
    u, v = 0b1010110, 0b1111000
    a = family_signature(steane, u, v)
    assert a == family_signature(steane, u, v)
    # shifting v by the logical representative keeps the spanned space
    assert a == family_signature(steane, u, v ^ steane.x1)
    assert a != family_signature(steane, 0b1010111, v)
    cls = css.frame_class(steane, (v, u))
    assert cls == css.frame_class(steane, (v ^ steane.x1, u))
    assert cls != css.frame_class(steane, (v, 0b1010111))


def test_family_class_representatives_pairwise_distinct(steane):
    """Recompute signatures for a sample of enumerated representatives;
    each must land in its own class."""
    g = rng(93)
    classes = list(css.family_key_classes(steane))
    picks = [classes[int(i)] for i in g.choice(len(classes), size=6, replace=False)]
    for (u1, v1), (u2, v2) in itertools.combinations(picks, 2):
        s1 = family_signature(steane, u1, v1)
        s2 = family_signature(steane, u2, v2)
        assert s1 != s2


@pytest.mark.parametrize("name", ["steane", "scrambled-5", "scrambled-6",
                                  "toy"])
def test_frame_class_names_the_code_space(name, steane, toy_pair):
    """Over every key (u, v) of the code: equal frame_class iff equal
    brute-force signature, so the syndrome pairs name exactly the code
    spaces the keys reach, and family_key_classes lists the lowest key of
    each class in the order a lexicographic scan first reaches it."""
    if name == "steane":
        code = steane
    elif name == "toy":
        code = css.build(*toy_pair)
    else:  # two scrambled views of Steane
        code = symmetric.keygen("steane", "scrambled",
                                rng(int(name[-1]))).code
    first_reach = {}
    pairs = set()
    for u in range(1 << code.n):
        for v in range(1 << code.n):
            sig = family_signature(code, u, v)
            first_reach.setdefault(sig, (u, v))
            pairs.add((sig, css.frame_class(code, (v, u))))
    assert len(pairs) == len(first_reach) == len({c for _, c in pairs})
    assert len(pairs) == css.count_distinct_family_codes(code)
    if name in ("steane", "toy"):
        assert list(css.family_key_classes(code)) == list(
            first_reach.values())


def test_steane_permutations_give_30_code_spaces():
    """The 7! qubit permutations of Steane give 7!/168 = 30 distinct code
    spaces: P matters only up to the Hamming code's automorphism group,
    GL(3,2) of order 168."""
    base = css.base_code("steane")
    k = base.c1.k
    s = tuple(1 << (k - 1 - i) for i in range(k))  # the identity
    spaces = set()
    for perm in itertools.permutations(range(7)):
        p = tuple(1 << (6 - j) for j in perm)
        spaces.add(family_signature(css.scrambled(base, s, p), 0, 0))
    assert len(spaces) == math.factorial(7) // 168 == 30


@pytest.mark.parametrize("shift", [1, 5])
def test_golay_cyclic_shift_keeps_the_code_space(shift):
    """The builtin Golay code is cyclic, so scrambling it by a cyclic shift
    of its qubits gives back the base code's own code space: P matters
    only up to the code's automorphism group, M23, and there are
    23!/|M23| = 23!/10200960 scrambled presentations in all."""
    base = css.base_code("golay")
    k = base.c1.k
    s = tuple(1 << (k - 1 - i) for i in range(k))  # the identity
    p = tuple(1 << (22 - (j + shift) % 23) for j in range(23))
    view = css.scrambled(base, s, p)
    assert view.c1.gen != base.c1.gen
    assert family_signature(view, 0, 0) == family_signature(base, 0, 0)


def test_transversal_h_scrambled_commutation():
    g = rng(94)
    for seed in range(3):
        code = symmetric.keygen("steane", "scrambled", rng(seed)).code
        psi = random_state(g, 1)
        enc = css.encode_blocks(code, psi)
        for q in range(7):
            enc = sim.apply_gate(enc, sim.GateOp("H", (q,)))
        ref = css.encode_blocks(code, sim.apply_gate(psi.copy(), sim.GateOp("H", (0,))))
        assert sim.fidelity(enc, ref) >= 1 - 1e-10


def test_transversal_cnot_scrambled_commutation():
    g = rng(95)
    code = symmetric.keygen("steane", "scrambled", rng(4)).code
    psi = random_state(g, 2)
    enc = css.encode_blocks(code, psi)
    for q in range(7):
        enc = sim.apply_gate(enc, sim.GateOp("CNOT", (q, 7 + q)))
    ref = css.encode_blocks(code, sim.apply_gate(psi.copy(), sim.GateOp("CNOT", (0, 1))))
    assert sim.fidelity(enc, ref) >= 1 - 1e-10


def test_transversal_sdg_is_logical_s_scrambled():
    g = rng(96)
    code = symmetric.keygen("steane", "scrambled", rng(5)).code
    psi = random_state(g, 1)
    enc = css.encode_blocks(code, psi)
    for q in range(7):
        enc = sim.apply_gate(enc, sim.GateOp("Sdg", (q,)))
    ref = css.encode_blocks(code, sim.apply_gate(psi.copy(), sim.GateOp("S", (0,))))
    assert sim.fidelity(enc, ref) >= 1 - 1e-10


def test_key_evolution_h_rule(steane):
    g = rng(97)
    for _ in range(10):
        u, v = (gf2.random_vector(7, g) for _ in range(2))
        nu, nv = css.KeyEvolver.h_rule(u, v)
        assert np.array_equal(nu, v) and np.array_equal(nv, u)
        psi = random_state(g, 1)
        enc = css.encode_blocks(steane, psi, [(v, u)])
        for q in range(7):
            enc = sim.apply_gate(enc, sim.GateOp("H", (q,)))
        out = css.decode_blocks(steane, enc, [(nv, nu)])
        ref = sim.apply_gate(psi.copy(), sim.GateOp("H", (0,)))
        assert sim.fidelity(out, ref) >= 1 - 1e-10


def test_key_evolution_sdgx_rule(steane):
    g = rng(98)
    for _ in range(10):
        u, v = (gf2.random_vector(7, g) for _ in range(2))
        nu, nv = css.KeyEvolver.sdgx_rule(u, v)
        assert np.array_equal(nu, u ^ v) and np.array_equal(nv, v)
        psi = random_state(g, 1)
        enc = css.encode_blocks(steane, psi, [(v, u)])
        for q in range(7):
            enc = sim.apply_gate(enc, sim.GateOp("X", (q,)))
        for q in range(7):
            enc = sim.apply_gate(enc, sim.GateOp("Sdg", (q,)))
        out = css.decode_blocks(steane, enc, [(nv, nu)])
        ref = sim.apply_gate(sim.apply_gate(psi.copy(), sim.GateOp("X", (0,))),
                             sim.GateOp("S", (0,)))
        assert sim.fidelity(out, ref) >= 1 - 1e-10


def test_key_evolution_cnot_rule(steane):
    g = rng(99)
    for _ in range(5):
        uc, vc, ut, vt = (gf2.random_vector(7, g)
                          for _ in range(4))
        (nuc, nvc), (nut, nvt) = css.KeyEvolver.cnot_rule((uc, vc), (ut, vt))
        assert np.array_equal(nuc, uc ^ ut) and np.array_equal(nvc, vc)
        assert np.array_equal(nut, ut) and np.array_equal(nvt, vc ^ vt)
        psi = random_state(g, 2)
        enc = sim.apply_block_isometry(psi.copy(), 0,
                                       isometry(steane, uc, vc))
        enc = sim.apply_block_isometry(enc, 7, isometry(steane, ut, vt))
        for q in range(7):
            enc = sim.apply_gate(enc, sim.GateOp("CNOT", (q, 7 + q)))
        out = decode_per_block(enc, steane, [(nuc, nvc), (nut, nvt)])
        ref = sim.apply_gate(psi.copy(), sim.GateOp("CNOT", (0, 1)))
        assert sim.fidelity(out, ref) >= 1 - 1e-10


# Exhaustive and sampled checks of the closed-form key rules. A rule is
# right when the transversal operation maps the logical basis of (u, v)
# onto the rule key's basis times the logical gate, up to one global phase.

LOGICAL_SX = np.array([[0, 1], [1j, 0]])  # S after X
TRANSVERSAL_1Q = {
    "H": np.array([[1, 1], [1, -1]]) / np.sqrt(2),
    "SdgX": np.array([[0, 1], [-1j, 0]]),  # Sdg after X, on one qubit
}


@pytest.fixture(scope="module")
def steane_bases(steane):
    """bases[ui, vi] is the 128 x 2 logical basis of the key whose u and v
    have amplitude indices ui and vi."""
    keys = list(range(128))
    bases = np.empty((128, 128, 128, 2), dtype=np.complex128)
    for ui, u in enumerate(keys):
        for vi, v in enumerate(keys):
            zero, one = logical_basis(steane, u, v)
            bases[ui, vi, :, 0] = zero.amps
            bases[ui, vi, :, 1] = one.amps
    return keys, bases


def assert_maps_basis(out, rule_basis, logical):
    """out = rule_basis @ (phase * logical), checked per key in the
    leading axes: no weight outside the rule key's space, and the induced
    logical action equals `logical` up to a global phase."""
    m = rule_basis.conj().swapaxes(-1, -2) @ out
    leak = out - rule_basis @ m
    assert np.abs(leak).max() < 1e-10
    overlap = np.abs(np.einsum("ab,...ab->...", logical.conj(), m))
    assert np.abs(overlap - logical.shape[0]).max() < 1e-10


@pytest.mark.parametrize("gate,rule,logical", [
    ("H", css.KeyEvolver.h_rule, TRANSVERSAL_1Q["H"]),
    ("SdgX", css.KeyEvolver.sdgx_rule, LOGICAL_SX),
])
def test_key_rule_exhaustive_steane(steane_bases, gate, rule, logical):
    keys, bases = steane_bases
    op = reduce(np.kron, [TRANSVERSAL_1Q[gate]] * 7)
    rule_idx = np.empty((128, 128, 2), dtype=np.int64)
    for ui, u in enumerate(keys):
        for vi, v in enumerate(keys):
            nu, nv = rule(u, v)
            rule_idx[ui, vi] = nu, nv
    out = np.moveaxis(np.tensordot(op, bases, axes=(1, 2)), 0, 2)
    assert_maps_basis(out, bases[rule_idx[..., 0], rule_idx[..., 1]], logical)


def test_key_rule_cnot_sampled_steane(steane_bases):
    keys, bases = steane_bases

    def pair_basis(key_c, key_t):
        bc, bt = (bases[u, v] for u, v in (key_c, key_t))
        return np.einsum("ia,jb->ijab", bc, bt)

    g = rng(100)
    idx = np.arange(128)[:, None]
    cnot = np.eye(4)[[0, 1, 3, 2]]
    for _ in range(64):
        uc, vc, ut, vt = (keys[int(i)] for i in g.integers(128, size=4))
        key_c, key_t = css.KeyEvolver.cnot_rule((uc, vc), (ut, vt))
        before = pair_basis((uc, vc), (ut, vt))
        out = before[idx, idx ^ idx.T]  # target block ^= control block
        after = pair_basis(key_c, key_t)
        assert_maps_basis(out.reshape(1 << 14, 4),
                          after.reshape(1 << 14, 4), cnot)


def test_key_rule_sdgx_golay_transversal():
    b = codes.builtin_codes()
    c1 = b["golay2312"]
    c2 = codes.dual(c1)
    code0 = css.build(c1, c2)
    g = rng(101)
    for _ in range(2):
        u, v = (gf2.random_vector(23, g) for _ in range(2))
        psi = random_state(g, 1)
        enc = css.encode_blocks(code0, psi, [(v, u)])
        transversal_sdgx(enc, 0, 23)
        nu, nv = css.KeyEvolver.sdgx_rule(u, v)
        out = css.decode_blocks(code0, enc, [(nv, nu)])
        ref = sim.apply_gate(sim.apply_gate(psi.copy(), sim.GateOp("X", (0,))),
                             sim.GateOp("S", (0,)))
        assert sim.fidelity(out, ref) >= 1 - 1e-10
