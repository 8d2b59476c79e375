"""Linear block codes: construction, duals, distance, syndrome tables."""

import numpy as np
import pytest

from cssfhe import codes, gf2
from cssfhe.errors import CapacityError, DegenerateCodeError

from helpers import min_weight_brute, span_brute


@pytest.fixture(scope="module")
def builtins():
    return codes.builtin_codes()


def test_from_generator_full_code():
    c = codes.from_generator(gf2.identity(3))
    assert (c.n, c.k) == (3, 3)
    assert c.pchk.shape == (0, 3)


def test_from_generator_hamming_parity_orthogonal(builtins):
    ham = builtins["hamming74"]
    assert ham.pchk.shape == (3, 7)
    for word in span_brute(ham.gen):
        w = np.array(word, dtype=np.uint8)
        assert not gf2.mat_mul(ham.pchk, w[:, None]).any()


def test_from_generator_repetition_parity_rank():
    rep = codes.from_generator([[1, 1, 1]])
    assert rep.pchk.shape == (2, 3)
    assert gf2.rank(rep.pchk) == 2


def test_from_generator_reduces_dependent_rows():
    c = codes.from_generator([[1, 1, 0], [1, 1, 0], [0, 0, 1]])
    assert c.k == 2


def test_from_generator_rejects_zero():
    with pytest.raises(DegenerateCodeError):
        codes.from_generator([[0, 0], [0, 0]])


def test_gen_times_pchk_vanishes_everywhere(builtins):
    for c in builtins.values():
        assert not gf2.mat_mul(c.gen, c.pchk.T).any()
        assert gf2.rank(c.gen) == c.k
        assert gf2.rank(c.pchk) == c.n - c.k


def test_dual_swaps_roles(builtins):
    ham = builtins["hamming74"]
    d = codes.dual(ham)
    assert (d.n, d.k) == (7, 3)
    assert np.array_equal(d.gen, ham.pchk)


def test_dual_involution_on_row_spaces(builtins):
    for c in builtins.values():
        dd = codes.dual(codes.dual(c))
        assert span_brute(dd.gen) == span_brute(c.gen)


def test_dual_of_hamming_has_distance_4(builtins):
    d = codes.dual(builtins["hamming74"])
    assert min_weight_brute(d.gen) == 4
    assert codes.min_distance(d) == 4


def test_dual_of_full_code_is_trivial():
    d = codes.dual(codes.from_generator(gf2.identity(3)))
    assert d.k == 0


def test_is_subcode_reflexive(builtins):
    for c in builtins.values():
        assert codes.is_subcode(c, c)


def test_is_subcode_dual_containment(builtins):
    ham = builtins["hamming74"]
    # oracle: every dual codeword appears among the 16 Hamming codewords
    dual_words = span_brute(ham.pchk)
    ham_words = span_brute(ham.gen)
    assert dual_words <= ham_words
    assert codes.is_subcode(codes.dual(ham), ham)


def test_is_subcode_rejects_larger_code():
    full = codes.from_generator(gf2.identity(3))
    rep = codes.from_generator([[1, 1, 1]])
    assert not codes.is_subcode(full, rep)
    assert codes.is_subcode(rep, full)


def test_min_distance_repetition():
    assert codes.min_distance(codes.from_generator([[1, 1, 1]])) == 3


def test_min_distance_hamming(builtins):
    assert min_weight_brute(builtins["hamming74"].gen) == 3
    assert codes.min_distance(builtins["hamming74"]) == 3


def test_min_distance_golay(builtins):
    g = builtins["golay2312"]
    assert (g.n, g.k) == (23, 12)
    # full scan of the 4095 nonzero codewords
    msgs = ((np.arange(1, 1 << 12)[:, None] >> np.arange(11, -1, -1)) & 1)
    words = msgs.astype(np.uint8) @ g.gen % 2
    assert int(words.sum(axis=1).min()) == 7
    assert codes.min_distance(g) == 7


def test_min_distance_capacity_bound():
    big = codes.from_generator(gf2.identity(21))
    with pytest.raises(CapacityError):
        codes.min_distance(big)


def test_syndrome_table_t0(builtins):
    table = codes.build_syndrome_table(builtins["hamming74"], 0)
    assert table.radius == 0
    assert len(table.entries) == 1
    zero_syn = bytes(3)
    assert not table.entries[zero_syn].any()


def test_syndrome_table_hamming_t1(builtins):
    table = codes.build_syndrome_table(builtins["hamming74"], 1)
    assert len(table.entries) == 8
    for syn, leader in table.entries.items():
        assert gf2.weight(leader) <= 1
        check = gf2.mat_mul(builtins["hamming74"].pchk, leader[:, None])[:, 0]
        assert check.tobytes() == syn


def test_syndrome_table_golay_t3(builtins):
    table = codes.build_syndrome_table(builtins["golay2312"], 3)
    # 1 + 23 + C(23,2) + C(23,3)
    assert len(table.entries) == 1 + 23 + 253 + 1771 == 2048


def test_syndrome_table_collision_capacity(builtins):
    with pytest.raises(CapacityError):
        codes.build_syndrome_table(builtins["hamming74"], 2)


def test_builtin_parameters(builtins):
    assert set(builtins) == {"hamming74", "simplex73", "golay2312"}
    ham, sim73, gol = (builtins[k] for k in ("hamming74", "simplex73", "golay2312"))
    assert (ham.n, ham.k) == (7, 4)
    assert (sim73.n, sim73.k) == (7, 3)
    assert codes.min_distance(sim73) == 4
    assert codes.is_subcode(sim73, ham)
    assert span_brute(sim73.gen) == span_brute(ham.pchk)
    assert codes.is_subcode(codes.dual(gol), gol)


def test_codewords_enumeration_matches_brute(builtins):
    ham = builtins["hamming74"]
    listed = {tuple(int(b) for b in w) for w in codes.codewords(ham)}
    assert listed == span_brute(ham.gen)
    assert len(codes.codewords(ham)) == 16
