"""Linear block codes: construction, duals, distance, syndrome tables."""

import pytest

from cssfhe import codes, css, gf2
from cssfhe.errors import CapacityError, DegenerateCodeError

from helpers import min_weight_brute, span_brute


def eye(n: int) -> list[int]:
    return [1 << (n - 1 - i) for i in range(n)]


def parity(a: int, b: int) -> int:
    return (a & b).bit_count() & 1


@pytest.fixture(scope="module")
def builtins():
    return codes.builtin_codes()


def test_from_generator_full_code():
    c = codes.from_generator(eye(3), 3)
    assert (c.n, c.k) == (3, 3)
    assert c.pchk == ()


def test_from_generator_hamming_parity_orthogonal(builtins):
    ham = builtins["hamming74"]
    assert (len(ham.pchk), ham.n) == (3, 7)
    for word in span_brute(ham.gen):
        assert not any(parity(h, word) for h in ham.pchk)


def test_from_generator_repetition_parity_rank():
    rep = codes.from_generator([0b111], 3)
    assert len(rep.pchk) == 2
    assert gf2.rank(rep.pchk) == 2


def test_from_generator_reduces_dependent_rows():
    c = codes.from_generator([0b110, 0b110, 0b001], 3)
    assert c.k == 2
    assert span_brute(c.gen) == span_brute([0b110, 0b001])


def test_from_generator_rejects_zero():
    with pytest.raises(DegenerateCodeError):
        codes.from_generator([0, 0], 2)


def test_gen_times_pchk_vanishes_everywhere(builtins):
    for c in builtins.values():
        assert not any(parity(g, h) for g in c.gen for h in c.pchk)
        assert gf2.rank(c.gen) == c.k
        assert gf2.rank(c.pchk) == c.n - c.k


def test_dual_swaps_roles(builtins):
    ham = builtins["hamming74"]
    d = codes.dual(ham)
    assert (d.n, d.k) == (7, 3)
    assert d.gen == ham.pchk


def test_dual_involution_on_row_spaces(builtins):
    for c in builtins.values():
        dd = codes.dual(codes.dual(c))
        assert span_brute(dd.gen) == span_brute(c.gen)


def test_dual_of_hamming_has_distance_4(builtins):
    d = codes.dual(builtins["hamming74"])
    assert min_weight_brute(d.gen) == 4
    assert codes.min_distance(d) == 4


def test_dual_of_full_code_is_trivial():
    d = codes.dual(codes.from_generator(eye(3), 3))
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
    full = codes.from_generator(eye(3), 3)
    rep = codes.from_generator([0b111], 3)
    assert not codes.is_subcode(full, rep)
    assert codes.is_subcode(rep, full)


def test_min_distance_repetition():
    assert codes.min_distance(codes.from_generator([0b111], 3)) == 3


def test_min_distance_hamming(builtins):
    assert min_weight_brute(builtins["hamming74"].gen) == 3
    assert codes.min_distance(builtins["hamming74"]) == 3


def test_min_distance_golay(builtins):
    g = builtins["golay2312"]
    assert (g.n, g.k) == (23, 12)
    # full scan of the 4095 nonzero codewords
    assert min_weight_brute(g.gen) == 7
    assert codes.min_distance(g) == 7


def test_min_distance_capacity_bound():
    big = codes.from_generator(eye(21), 21)
    with pytest.raises(CapacityError):
        codes.min_distance(big)


def test_syndrome_table_t0(builtins):
    table = codes.build_syndrome_table(builtins["hamming74"], 0)
    # one entry per 3-bit syndrome, and only the zero syndrome has a leader
    assert table.shape == (8,)
    assert (table >= 0).sum() == 1
    assert table[0] == 0


def syndrome(c, e: int) -> int:
    """The parities of e against the pchk rows, row 0 the top bit."""
    out = 0
    for h in c.pchk:
        out = (out << 1) | parity(h, e)
    return out


def test_syndrome_table_hamming_t1(builtins):
    ham = builtins["hamming74"]
    table = codes.build_syndrome_table(ham, 1)
    assert (table >= 0).sum() == 8
    for syn, leader in enumerate(table.tolist()):
        assert leader.bit_count() <= 1
        assert syndrome(ham, leader) == syn


def test_syndrome_table_golay_t3(builtins):
    g = builtins["golay2312"]
    table = codes.build_syndrome_table(g, 3)
    # 1 + 23 + C(23,2) + C(23,3)
    assert (table >= 0).sum() == 1 + 23 + 253 + 1771 == 2048
    for syn, leader in enumerate(table.tolist()):
        assert leader.bit_count() <= 3
        assert syndrome(g, leader) == syn


def test_syndrome_table_width_bound():
    # a [22,1] code has 21 syndrome bits: a table of 2^21 entries is refused
    with pytest.raises(CapacityError):
        codes.build_syndrome_table(codes.from_generator([1], 22), 0)
    assert codes.build_syndrome_table(codes.from_generator([1], 21), 0)[0] == 0


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
    listed = set(codes.codewords(ham).tolist())
    assert listed == span_brute(ham.gen)
    assert len(codes.codewords(ham)) == 16


def _six_codes():
    """The codes the CSS layer enumerates or tabulates: C1, C2 and the
    dual of C2 of the Steane and Golay pairs."""
    for name in ("steane", "golay"):
        code = css.base_code(name)
        yield from (code.c1, code.c2, codes.dual(code.c2))


def test_codewords_order_is_the_message_bits():
    """Entry i is the XOR of the gen rows at the set bits of i, row 0 the
    most significant bit: the order the code-space support and the
    splice draw index."""
    for c in _six_codes():
        words = codes.codewords(c).tolist()
        assert len(words) == 1 << c.k
        for i, word in enumerate(words):
            want = 0
            for j, row in enumerate(c.gen):
                if i >> (c.k - 1 - j) & 1:
                    want ^= row
            assert word == want
