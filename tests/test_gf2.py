"""GF(2) linear algebra on int rows: elimination, products, sampling."""

import itertools

import numpy as np
import pytest

from cssfhe import gf2
from cssfhe.errors import ShapeError

from helpers import bits_to_index, rng, span_brute

HAMMING_GEN = [0b1000110, 0b0100101, 0b0010011, 0b0001111]


def eye(n: int) -> list[int]:
    return [1 << (n - 1 - i) for i in range(n)]


def random_rows(rows: int, cols: int, g) -> list[int]:
    """A uniform rows x cols matrix, drawn as one (rows, cols) block of
    bits, as int rows."""
    return [bits_to_index(r)
            for r in g.integers(0, 2, size=(rows, cols), dtype=np.uint8)]


def bit_matrix(rows, cols: int) -> np.ndarray:
    """Int rows as a 0/1 array, column 0 first: an oracle's view."""
    return np.array([[(r >> (cols - 1 - j)) & 1 for j in range(cols)]
                     for r in rows], dtype=np.int64).reshape(len(rows), cols)


def transpose(rows, cols: int) -> list[int]:
    return [bits_to_index(col) for col in bit_matrix(rows, cols).T]


def inverse(m, n: int) -> list[int]:
    """The inverse read off the echelon form of [M | I]; None when the
    left half does not reduce to I."""
    red, _ = gf2.row_echelon([(r << n) | e for r, e in zip(m, eye(n))], 2 * n)
    if [r >> n for r in red] != eye(n):
        return None
    return [r & ((1 << n) - 1) for r in red]


def rowspace_contains(m, w) -> bool:
    """w reduced against the echelon rows of m leaves 0."""
    cols = max([1, *(r.bit_length() for r in m), w.bit_length()])
    red, pivots = gf2.row_echelon(m, cols)
    for row, c in zip(red, pivots):
        if w >> (cols - 1 - c) & 1:
            w ^= row
    return w == 0


def test_weights_match_bit_count():
    """The popcount, and its parity and value mod 4 as the sign and phase
    tables read them, on int64 words up to 2^62: every small word, each
    16-bit boundary from both sides, and random words of every width."""
    g = rng(61)
    edges = [(1 << b) + d for b in (16, 32, 48) for d in (-1, 0, 1)]
    words = np.concatenate([
        np.arange(1 << 10), edges, [(1 << 62) - 1, 1 << 62],
        *(g.integers(0, 1 << b, size=1024) for b in (16, 17, 32, 33, 48, 49,
                                                     62))]).astype(np.int64)
    want = np.array([int(w).bit_count() for w in words])
    got = gf2.weights(words)
    assert got.tolist() == want.tolist()
    assert (got & 1).tolist() == (want % 2).tolist()
    assert (got & 3).tolist() == (want % 4).tolist()
    assert gf2.weights(words[:1023].reshape(-1, 3)).shape == (341, 3)


def test_rref_identity_is_fixed_point():
    red, pivots = gf2.row_echelon(eye(3), 3)
    assert red == eye(3)
    assert len(pivots) == gf2.rank(eye(3)) == 3
    assert pivots == [0, 1, 2]


def test_rref_collapses_duplicate_rows():
    red, pivots = gf2.row_echelon([0b11, 0b11], 2)
    assert red == [0b11]
    assert len(pivots) == 1


def test_rref_hamming_rank_matches_brute_span():
    _, pivots = gf2.row_echelon(HAMMING_GEN, 7)
    # independent count: 2^rank distinct words in the row span
    assert len(span_brute(HAMMING_GEN)) == 1 << len(pivots)
    assert len(pivots) == 4


def test_rref_idempotent():
    g = rng(100)
    for _ in range(100):
        cols = int(g.integers(1, 17))
        m = random_rows(int(g.integers(1, 17)), cols, g)
        red, _ = gf2.row_echelon(m, cols)
        again, _ = gf2.row_echelon(red, cols)
        assert red == again


def test_rref_preserves_row_space_exactly():
    g = rng(101)
    for _ in range(25):
        cols = int(g.integers(1, 9))
        m = random_rows(int(g.integers(1, 7)), cols, g)
        red, _ = gf2.row_echelon(m, cols)
        assert span_brute(m) == span_brute(red)


def test_mat_mul_identity():
    g = rng(7)
    a = random_rows(3, 5, g)
    assert gf2.mat_mul(a, eye(5)) == tuple(a)


def test_mat_mul_parity_cancellation():
    assert gf2.mat_mul([0b11], [1, 1]) == (0,)


def test_mat_mul_shape_mismatch():
    # a row of A wider than B has rows
    with pytest.raises(ShapeError):
        gf2.mat_mul(eye(3), eye(2))


def test_mat_mul_agrees_with_integer_product():
    g = rng(8)
    for _ in range(50):
        k, cols = int(g.integers(1, 9)), int(g.integers(1, 9))
        a = random_rows(int(g.integers(1, 9)), k, g)
        b = random_rows(k, cols, g)
        oracle = (bit_matrix(a, k) @ bit_matrix(b, cols)) % 2
        assert np.array_equal(bit_matrix(gf2.mat_mul(a, b), cols), oracle)


def test_mat_mul_associative():
    g = rng(9)
    for _ in range(30):
        ka, kb = int(g.integers(1, 7)), int(g.integers(1, 7))
        a = random_rows(int(g.integers(1, 7)), ka, g)
        b = random_rows(ka, kb, g)
        c = random_rows(kb, int(g.integers(1, 7)), g)
        left = gf2.mat_mul(gf2.mat_mul(a, b), c)
        right = gf2.mat_mul(a, gf2.mat_mul(b, c))
        assert left == right


def test_scrambling_preserves_rank():
    g = rng(10)
    for _ in range(20):
        s = gf2.random_nonsingular(4, g)
        p = gf2.random_permutation(7, g)
        scrambled = gf2.mat_mul(gf2.mat_mul(s, HAMMING_GEN), p)
        assert gf2.rank(scrambled) == gf2.rank(HAMMING_GEN) == 4


def test_inverse_identity():
    assert inverse(eye(4), 4) == eye(4)


def test_inverse_upper_triangular_self_inverse():
    m = [0b11, 0b01]
    assert inverse(m, 2) == m


def test_inverse_multiply_back():
    g = rng(11)
    for n in (1, 2, 4, 6):
        m = gf2.random_nonsingular(n, g)
        inv = inverse(m, n)
        assert list(gf2.mat_mul(m, inv)) == eye(n)
        assert list(gf2.mat_mul(inv, m)) == eye(n)


def test_inverse_exists_iff_full_rank():
    g = rng(12)
    for _ in range(40):
        n = int(g.integers(1, 8))
        m = random_rows(n, n, g)
        assert (inverse(m, n) is not None) == (gf2.rank(m) == n)


def test_rowspace_contains_zero_vector():
    g = rng(13)
    m = random_rows(3, 6, g)
    assert rowspace_contains(m, 0)


def test_rowspace_contains_identity_combination():
    assert rowspace_contains(eye(3), 0b101)


def test_rowspace_excludes_weight_one_from_hamming():
    # oracle: none of the 16 codewords has weight 1
    words = span_brute(HAMMING_GEN)
    for i in range(7):
        e = 1 << (6 - i)
        assert e not in words
        assert not rowspace_contains(HAMMING_GEN, e)


def test_rowspace_contains_matches_brute_force():
    g = rng(14)
    for _ in range(20):
        m = random_rows(int(g.integers(1, 5)), 6, g)
        words = span_brute(m)
        for _ in range(10):
            w = gf2.random_vector(6, g)
            assert rowspace_contains(m, w) == (w in words)
            assert (gf2.rank([*m, w]) == gf2.rank(m)) == (w in words)


def test_rowspace_length_mismatch():
    # a row of A wider than B has rows is refused, as a vector of the
    # wrong length was
    with pytest.raises(ShapeError):
        gf2.mat_mul([0b1000], eye(3))


def test_nullspace_is_orthogonal_complement():
    g = rng(15)
    for _ in range(30):
        cols = int(g.integers(1, 9))
        m = random_rows(int(g.integers(1, 7)), cols, g)
        ns = gf2.nullspace(m, cols)
        assert len(ns) == cols - gf2.rank(m)
        assert not any((r & x).bit_count() & 1 for r in m for x in ns)
        assert gf2.rank(ns) == len(ns)


def test_random_nonsingular_one_by_one():
    assert gf2.random_nonsingular(1, rng(0)) == (1,)


def test_random_nonsingular_full_rank():
    m = gf2.random_nonsingular(4, rng(21))
    assert gf2.rank(m) == 4


def test_packed_rank_agrees_with_rref():
    """rank, by elimination on leading bits, agrees with the echelon
    form's pivot count on 2400 random square matrices of sizes 1-12
    (about a third of them nonsingular) and on random wide, tall and
    empty shapes."""
    g = rng(22)
    full = 0
    for trial in range(2400):
        n = 1 + trial % 12
        m = random_rows(n, n, g)
        assert gf2.rank(m) == len(gf2.row_echelon(m, n)[1])
        full += gf2.rank(m) == n
    assert 600 < full < 1200
    for rows, cols in itertools.product(range(0, 14, 3), range(0, 20, 4)):
        m = random_rows(rows, cols, g)
        if rows >= 3:
            m[-1] = m[0] ^ m[1]  # a dependent row
        assert gf2.rank(m) == len(gf2.row_echelon(m, cols)[1])


def test_random_nonsingular_draws_as_the_rref_loop_did():
    """Same generator calls, same matrix: draw n x n until the echelon
    form says full rank."""
    for n in (1, 4, 12):
        for seed in range(30):
            ref_g = rng([23, n, seed])
            while True:
                want = random_rows(n, n, ref_g)
                if len(gf2.row_echelon(want, n)[1]) == n:
                    break
            g = rng([23, n, seed])
            assert gf2.random_nonsingular(n, g) == tuple(want)
            assert g.bit_generator.state == ref_g.bit_generator.state


def test_random_nonsingular_seed_determinism_and_spread():
    a = gf2.random_nonsingular(6, rng(1))
    b = gf2.random_nonsingular(6, rng(1))
    assert a == b
    collisions = 0
    for seed in range(100):
        if gf2.random_nonsingular(6, rng(seed)) == a:
            collisions += 1
    assert collisions <= 5


def test_random_permutation_one_by_one():
    assert gf2.random_permutation(1, rng(0)) == (1,)


def test_random_permutation_row_and_column_sums():
    p = bit_matrix(gf2.random_permutation(5, rng(3)), 5)
    assert (p.sum(axis=0) == 1).all()
    assert (p.sum(axis=1) == 1).all()


def test_random_permutation_orthogonal():
    for seed in range(10):
        p = gf2.random_permutation(6, rng(seed))
        assert list(gf2.mat_mul(p, transpose(p, 6))) == eye(6)


def test_random_draws_match_the_bit_draws():
    """Each draw makes the generator calls of a uint8 bit draw and packs
    the bits, column 0 most significant."""
    for seed in range(20):
        want, got = rng(seed), rng(seed)
        assert gf2.random_vector(9, got) == bits_to_index(
            want.integers(0, 2, size=9, dtype=np.uint8))
        perm = want.permutation(7)
        assert gf2.random_permutation(7, got) == tuple(
            1 << (6 - int(c)) for c in perm)
        assert got.bit_generator.state == want.bit_generator.state


def test_vector_helpers():
    a, b = gf2.parse_word("110", 3), gf2.parse_word("011", 3)
    assert gf2.parse_word("0101", 4) == 0b0101
    assert gf2.parse_word("01110", 5).bit_count() == 3
    assert (a & b).bit_count() & 1 == 1
    assert (a & a).bit_count() & 1 == 0


@pytest.mark.parametrize("word", ["0102", "0009", "01a1", "0b11", "1_01",
                                  " 011", "011 ", "-101", ""])
def test_bit_strings_refuse_other_characters(word):
    with pytest.raises(ShapeError):
        gf2.parse_word(word, 4)
    with pytest.raises(ShapeError):
        gf2.parse_word("0110", 5)
    assert gf2.parse_word("0110", 4) == 0b0110
