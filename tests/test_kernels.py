"""The GF(p)[i] elimination kernel."""

import random

import numpy as np

from multirank.rank import PRIMES_3_MOD_4
from multirank import kernels


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
