"""GF(2) linear algebra: elimination, products, inverses, sampling."""

import itertools

import numpy as np
import pytest

from cssfhe import gf2
from cssfhe.errors import ShapeError, SingularMatrixError

from helpers import rng, span_brute

HAMMING_GEN = ["1000110", "0100101", "0010011", "0001111"]


def test_rref_identity_is_fixed_point():
    eye = gf2.identity(3)
    red, rank, pivots = gf2.rref(eye)
    assert np.array_equal(red, eye)
    assert rank == 3
    assert pivots == [0, 1, 2]


def test_rref_collapses_duplicate_rows():
    red, rank, _ = gf2.rref(gf2.as_bits([[1, 1], [1, 1]]))
    assert np.array_equal(red, gf2.as_bits([[1, 1], [0, 0]]))
    assert rank == 1


def test_rref_hamming_rank_matches_brute_span():
    gen = gf2.as_bits(HAMMING_GEN)
    _, rank, _ = gf2.rref(gen)
    # independent count: 2^rank distinct words in the row span
    assert len(span_brute(gen)) == 1 << rank
    assert rank == 4


def test_rref_idempotent():
    g = rng(100)
    for _ in range(100):
        m = gf2.random_matrix(int(g.integers(1, 17)), int(g.integers(1, 17)), g)
        red, _, _ = gf2.rref(m)
        again, _, _ = gf2.rref(red)
        assert np.array_equal(red, again)


def test_rref_preserves_row_space_exactly():
    g = rng(101)
    for _ in range(25):
        m = gf2.random_matrix(int(g.integers(1, 7)), int(g.integers(1, 9)), g)
        red, _, _ = gf2.rref(m)
        assert span_brute(m) == span_brute(red)


def test_mat_mul_identity():
    g = rng(7)
    a = gf2.random_matrix(3, 5, g)
    assert np.array_equal(gf2.mat_mul(a, gf2.identity(5)), a)


def test_mat_mul_parity_cancellation():
    out = gf2.mat_mul(gf2.as_bits([[1, 1]]), gf2.as_bits([[1], [1]]))
    assert np.array_equal(out, gf2.as_bits([[0]]))


def test_mat_mul_shape_mismatch():
    with pytest.raises(ShapeError):
        gf2.mat_mul(gf2.identity(2), gf2.identity(3))


def test_mat_mul_agrees_with_integer_product():
    g = rng(8)
    for _ in range(50):
        a = gf2.random_matrix(int(g.integers(1, 9)), int(g.integers(1, 9)), g)
        b = gf2.random_matrix(a.shape[1], int(g.integers(1, 9)), g)
        oracle = (a.astype(int) @ b.astype(int)) % 2
        assert np.array_equal(gf2.mat_mul(a, b), oracle.astype(np.uint8))


def test_mat_mul_associative():
    g = rng(9)
    for _ in range(30):
        a = gf2.random_matrix(int(g.integers(1, 7)), int(g.integers(1, 7)), g)
        b = gf2.random_matrix(a.shape[1], int(g.integers(1, 7)), g)
        c = gf2.random_matrix(b.shape[1], int(g.integers(1, 7)), g)
        left = gf2.mat_mul(gf2.mat_mul(a, b), c)
        right = gf2.mat_mul(a, gf2.mat_mul(b, c))
        assert np.array_equal(left, right)


def test_scrambling_preserves_rank():
    g = rng(10)
    gen = gf2.as_bits(HAMMING_GEN)
    for _ in range(20):
        s = gf2.random_nonsingular(4, g)
        p = gf2.random_permutation(7, g)
        scrambled = gf2.mat_mul(gf2.mat_mul(s, gen), p)
        assert gf2.rank(scrambled) == gf2.rank(gen) == 4


def test_inverse_identity():
    assert np.array_equal(gf2.inverse(gf2.identity(4)), gf2.identity(4))


def test_inverse_upper_triangular_self_inverse():
    m = gf2.as_bits([[1, 1], [0, 1]])
    assert np.array_equal(gf2.inverse(m), m)


def test_inverse_multiply_back():
    g = rng(11)
    for n in (1, 2, 4, 6):
        m = gf2.random_nonsingular(n, g)
        inv = gf2.inverse(m)
        assert np.array_equal(gf2.mat_mul(m, inv), gf2.identity(n))
        assert np.array_equal(gf2.mat_mul(inv, m), gf2.identity(n))


def test_inverse_exists_iff_full_rank():
    g = rng(12)
    for _ in range(40):
        n = int(g.integers(1, 8))
        m = gf2.random_matrix(n, n, g)
        if gf2.rank(m) == n:
            gf2.inverse(m)
        else:
            with pytest.raises(SingularMatrixError):
                gf2.inverse(m)


def test_rowspace_contains_zero_vector():
    g = rng(13)
    m = gf2.random_matrix(3, 6, g)
    assert gf2.rowspace_contains(m, gf2.zeros_vec(6))


def test_rowspace_contains_identity_combination():
    assert gf2.rowspace_contains(gf2.identity(3), gf2.as_vec([1, 0, 1]))


def test_rowspace_excludes_weight_one_from_hamming():
    # oracle: none of the 16 codewords has weight 1
    gen = gf2.as_bits(HAMMING_GEN)
    words = span_brute(gen)
    for i in range(7):
        e = gf2.zeros_vec(7)
        e[i] = 1
        assert tuple(e) not in words
        assert not gf2.rowspace_contains(gen, e)


def test_rowspace_contains_matches_brute_force():
    g = rng(14)
    for _ in range(20):
        m = gf2.random_matrix(int(g.integers(1, 5)), 6, g)
        words = span_brute(m)
        for _ in range(10):
            w = gf2.random_vector(6, g)
            assert gf2.rowspace_contains(m, w) == (tuple(w) in words)


def test_rowspace_length_mismatch():
    with pytest.raises(ShapeError):
        gf2.rowspace_contains(gf2.identity(3), gf2.zeros_vec(4))


def test_nullspace_is_orthogonal_complement():
    g = rng(15)
    for _ in range(30):
        m = gf2.random_matrix(int(g.integers(1, 7)), int(g.integers(1, 9)), g)
        ns = gf2.nullspace(m)
        assert ns.shape[0] == m.shape[1] - gf2.rank(m)
        if ns.shape[0]:
            assert not gf2.mat_mul(m, ns.T).any()
            assert gf2.rank(ns) == ns.shape[0]


def test_random_nonsingular_one_by_one():
    assert np.array_equal(gf2.random_nonsingular(1, rng(0)), gf2.as_bits([[1]]))


def test_random_nonsingular_full_rank():
    m = gf2.random_nonsingular(4, rng(21))
    assert gf2.rank(m) == 4


def test_packed_rank_agrees_with_rref():
    """rank, by elimination on packed rows, agrees with rref's rank on
    2400 random square matrices of sizes 1-12 (about a third of them
    nonsingular) and on random wide, tall and empty shapes."""
    g = rng(22)
    full = 0
    for trial in range(2400):
        n = 1 + trial % 12
        m = gf2.random_matrix(n, n, g)
        assert gf2.rank(m) == gf2.rref(m)[1]
        full += gf2.rank(m) == n
    assert 600 < full < 1200
    for rows, cols in itertools.product(range(0, 14, 3), range(0, 20, 4)):
        m = gf2.random_matrix(rows, cols, g)
        if rows >= 3:
            m[-1] = m[0] ^ m[1]  # a dependent row
        assert gf2.rank(m) == gf2.rref(m)[1]


def test_random_nonsingular_draws_as_the_rref_loop_did():
    """Same generator calls, same matrix: draw n x n until rref says full
    rank."""
    for n in (1, 4, 12):
        for seed in range(30):
            ref_g = rng([23, n, seed])
            while True:
                want = gf2.random_matrix(n, n, ref_g)
                if gf2.rref(want)[1] == n:
                    break
            g = rng([23, n, seed])
            assert np.array_equal(gf2.random_nonsingular(n, g), want)
            assert g.bit_generator.state == ref_g.bit_generator.state


def test_random_nonsingular_seed_determinism_and_spread():
    a = gf2.random_nonsingular(6, rng(1))
    b = gf2.random_nonsingular(6, rng(1))
    assert np.array_equal(a, b)
    collisions = 0
    for seed in range(100):
        m = gf2.random_nonsingular(6, rng(seed))
        if np.array_equal(m, a):
            collisions += 1
    assert collisions <= 5


def test_random_permutation_one_by_one():
    assert np.array_equal(gf2.random_permutation(1, rng(0)), gf2.as_bits([[1]]))


def test_random_permutation_row_and_column_sums():
    p = gf2.random_permutation(5, rng(3))
    assert (p.sum(axis=0) == 1).all()
    assert (p.sum(axis=1) == 1).all()


def test_random_permutation_orthogonal():
    for seed in range(10):
        p = gf2.random_permutation(6, rng(seed))
        assert np.array_equal(gf2.mat_mul(p, p.T), gf2.identity(6))


def test_vector_helpers():
    assert np.array_equal(gf2.as_vec("0101"), np.array([0, 1, 0, 1], dtype=np.uint8))
    assert gf2.weight(gf2.as_vec("01110")) == 3
    assert gf2.dot(gf2.as_vec("110"), gf2.as_vec("011")) == 1
    assert gf2.dot(gf2.as_vec("110"), gf2.as_vec("110")) == 0


@pytest.mark.parametrize("word", ["0102", "0009", "01a1", "0b11", "1_01",
                                  " 011", "-101"])
def test_bit_strings_refuse_other_characters(word):
    with pytest.raises(ShapeError):
        gf2.as_vec(word)
    with pytest.raises(ShapeError):
        gf2.as_bits(["0110", word])
    assert gf2.as_vec("0110").tolist() == [0, 1, 1, 0]
