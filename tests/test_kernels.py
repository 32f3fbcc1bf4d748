"""The GF(p)[i] elimination kernel."""

import random

import numpy as np
import pytest

from multirank.rank import PRIMES_3_MOD_4
from multirank import kernels
from helpers import gf_rank


def rand_arrays(rng, rows, cols, p, density=0.8):
    re = np.zeros((rows, cols), dtype=np.int64)
    im = np.zeros((rows, cols), dtype=np.int64)
    for r in range(rows):
        for c in range(cols):
            if rng.random() < density:
                re[r, c] = rng.randrange(p)
                im[r, c] = rng.randrange(p)
    return re, im


def low_rank_arrays(rng, rows, cols, inner, p):
    a_re, a_im = rand_arrays(rng, rows, inner, p, density=1.0)
    b_re, b_im = rand_arrays(rng, inner, cols, p, density=1.0)
    # complex product mod p, kept in python ints to dodge overflow
    re = np.zeros((rows, cols), dtype=np.int64)
    im = np.zeros((rows, cols), dtype=np.int64)
    for r in range(rows):
        for c in range(cols):
            acc_r = acc_i = 0
            for k in range(inner):
                ar, ai = int(a_re[r, k]), int(a_im[r, k])
                br, bi = int(b_re[k, c]), int(b_im[k, c])
                acc_r += ar * br - ai * bi
                acc_i += ar * bi + ai * br
            re[r, c] = acc_r % p
            im[r, c] = acc_i % p
    return re, im


def test_random_matrices_rank_in_range_and_transpose_invariant():
    rng = random.Random(2024)
    for _ in range(60):
        p = rng.choice(PRIMES_3_MOD_4)
        rows, cols = rng.randint(1, 12), rng.randint(1, 12)
        re, im = rand_arrays(rng, rows, cols, p)
        rank = kernels.rank_mod_gaussian(re.copy(), im.copy(), p)
        assert 0 <= rank <= min(rows, cols)
        assert kernels.rank_mod_gaussian(re.T.copy(), im.T.copy(), p) == rank


def test_low_rank_products_have_inner_rank():
    rng = random.Random(99)
    for _ in range(25):
        p = rng.choice(PRIMES_3_MOD_4)
        rows, cols = rng.randint(3, 9), rng.randint(3, 9)
        inner = rng.randint(1, min(rows, cols) - 1)
        re, im = low_rank_arrays(rng, rows, cols, inner, p)
        # random full-rank factors, w.h.p.
        assert kernels.rank_mod_gaussian(re, im, p) == inner


def test_pure_kernel_handles_worst_case_values():
    # every entry at p-1 stresses the overflow margins
    p = PRIMES_3_MOD_4[0]
    re = np.full((8, 8), p - 1, dtype=np.int64)
    im = np.full((8, 8), p - 1, dtype=np.int64)
    assert kernels.rank_mod_gaussian(re, im, p) == 1


def test_selected_backend_reported():
    assert kernels.BACKEND == "python"


def from_entries(rows, cols, entries):
    re = np.zeros((rows, cols), dtype=np.int64)
    im = np.zeros((rows, cols), dtype=np.int64)
    for (r, c), (x, y) in entries.items():
        re[r, c], im[r, c] = x, y
    return re, im


def assert_kernel_matches(re, im, p, expected=None):
    want = gf_rank(re, im, p)
    if expected is not None:
        assert want == expected
    assert kernels.rank_mod_gaussian(re.copy(), im.copy(), p) == want
    assert kernels.rank_mod_gaussian(re.T.copy(), im.T.copy(), p) == want


@pytest.mark.parametrize("p", [7, 11, 19, *PRIMES_3_MOD_4[:3]])
def test_sparse_matrices_match_plain_elimination(p):
    # small primes make entries cancel during elimination
    rng = random.Random(p)
    for _ in range(120):
        rows, cols = rng.randint(1, 16), rng.randint(1, 16)
        re, im = rand_arrays(rng, rows, cols, p, density=rng.uniform(0.05, 0.3))
        assert_kernel_matches(re, im, p)


@pytest.mark.parametrize("p", [7, PRIMES_3_MOD_4[0]])
def test_every_pivot_of_a_permutation_matrix_is_lone(p):
    rng = random.Random(11)
    for n in range(1, 17):
        order = rng.sample(range(n), n)
        entries = {(r, c): (rng.randrange(1, p), rng.randrange(p)) for r, c in enumerate(order)}
        re, im = from_entries(n, n, entries)
        assert_kernel_matches(re, im, p, expected=n)
        # a partial permutation padded with zero rows keeps its rank
        keep = rng.randint(0, n)
        re, im = from_entries(n + 3, n, {k: v for k, v in entries.items() if k[0] < keep})
        assert_kernel_matches(re, im, p, expected=keep)


def test_column_with_nonzeros_separated_by_zero_rows():
    p = 7
    # column 0 is nonzero in rows 2, 5 and 6 only; row 5 is 3i times row 2
    entries = {
        (2, 0): (1, 2), (2, 1): (3, 0), (2, 3): (0, 1),
        (5, 0): (1, 3), (5, 1): (0, 2), (5, 3): (4, 0),
        (6, 0): (5, 5), (6, 2): (1, 0),
        (8, 1): (2, 6), (8, 3): (1, 1),
    }
    re, im = from_entries(9, 4, entries)
    # row 8, below the column's last nonzero, still pivots column 1
    assert_kernel_matches(re, im, p, expected=3)


@pytest.mark.parametrize(
    "entries,expected",
    [
        # in columns 0 and 1, row 1 is 2 times row 0 and row 2 is 1 + i
        # times it: column 1 is empty below its pivot once column 0 is cleared
        ({(0, 0): (1, 1), (0, 1): (2, 0), (1, 0): (2, 2), (1, 1): (4, 0), (1, 2): (1, 0),
          (2, 0): (0, 2), (2, 1): (2, 2)}, 2),
        # clearing column 0 leaves one nonzero in column 1, a lone pivot
        ({(0, 0): (1, 0), (0, 1): (1, 0), (1, 0): (1, 0), (1, 1): (2, 0),
          (2, 0): (3, 1), (2, 1): (3, 1)}, 2),
    ],
    ids=["emptied", "left-lone"],
)
def test_column_emptied_below_its_pivot_by_an_earlier_step(entries, expected):
    re, im = from_entries(3, 3, entries)
    assert_kernel_matches(re, im, 7, expected=expected)


# The kernel peels the block not yet pivoted at its first column with two
# or more nonzeros: lone columns drop the rows that hold them, lone rows the
# columns.  Each case below is pinned against plain elimination.


def test_two_lone_columns_in_one_row_count_it_once():
    # columns 1 and 2 are lone, both in row 2; rows 0 and 1 are proportional
    entries = {
        (0, 0): (1, 0), (0, 3): (2, 0),
        (1, 0): (3, 0), (1, 3): (6, 0),
        (2, 0): (1, 1), (2, 1): (2, 0), (2, 2): (0, 3),
    }
    re, im = from_entries(3, 4, entries)
    assert_kernel_matches(re, im, 7, expected=2)


def test_lone_row_and_lone_column_meeting_at_one_entry():
    # (2, 2) is the only nonzero of its row and of its column
    entries = {
        (0, 0): (1, 0), (0, 1): (1, 0),
        (1, 0): (2, 0), (1, 1): (2, 0),
        (2, 2): (5, 0),
    }
    re, im = from_entries(3, 3, entries)
    assert_kernel_matches(re, im, 7, expected=2)


@pytest.mark.parametrize("n", [2, 3, 8, 15])
def test_staircase_each_removal_leaves_the_next_line_lone(n):
    # (n + 1) x n lower bidiagonal: column 0 needs an update, and only the
    # first and last rows are lone until their columns are dropped
    rng = random.Random(n)
    p = 7
    entries = {}
    for i in range(n):
        entries[i, i] = (rng.randrange(1, p), rng.randrange(p))
        entries[i + 1, i] = (rng.randrange(1, p), rng.randrange(p))
    re, im = from_entries(n + 1, n, entries)
    assert_kernel_matches(re, im, p, expected=n)


def test_lone_pivots_then_a_block_that_peels_to_nothing():
    # columns 0 and 1 have lone pivots (rows 3 and 1); column 2 then has two
    # nonzeros below them, and the rest, rows 0, 2, 4 by columns 2-4, peels
    entries = {
        (3, 0): (1, 1), (3, 2): (2, 0), (3, 4): (0, 3),
        (1, 1): (4, 0), (1, 3): (1, 2),
        (0, 2): (1, 0), (0, 3): (5, 1),
        (2, 2): (3, 3),
        (4, 4): (6, 0),
    }
    re, im = from_entries(5, 5, entries)
    assert_kernel_matches(re, im, 7, expected=5)


@pytest.mark.parametrize("p", [7, PRIMES_3_MOD_4[0]])
def test_peelable_part_beside_a_dense_rank_two_core(p):
    rng = random.Random(p)
    for _ in range(20):
        core = low_rank_arrays(rng, 3, 3, 2, p)
        while not (core[0] | core[1]).all():
            core = low_rank_arrays(rng, 3, 3, 2, p)
        re, im = np.zeros((5, 5), dtype=np.int64), np.zeros((5, 5), dtype=np.int64)
        re[:3, :3], im[:3, :3] = core
        # column 3 is lone in row 3, which also meets the core's columns;
        # row 4 is lone in column 4, which also meets the core's rows
        for r, c in [(3, 3), (3, 0), (3, 2), (4, 4), (0, 4), (2, 4)]:
            re[r, c], im[r, c] = rng.randrange(1, p), rng.randrange(p)
        assert_kernel_matches(re, im, p, expected=4)


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
def test_empty_shapes_have_rank_zero(shape):
    re = np.zeros(shape, dtype=np.int64)
    assert_kernel_matches(re, re.copy(), 7, expected=0)
