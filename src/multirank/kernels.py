"""Elimination kernel over GF(p)[i], vectorized with numpy.

Entries are int64 pairs (re, im) already reduced to [0, p).  With
p < 2**31 a product of two residues is below 2**62, so a residue plus
or minus at most two residue products is below 2**63 in absolute value
and int64 never overflows.  Each update is therefore reduced mod p once,
after combining.

The kernel mutates its arguments; callers pass owned copies.
"""

from __future__ import annotations

import numpy as np

BACKEND = "python"


def rank_mod_gaussian(re: np.ndarray, im: np.ndarray, p: int) -> int:
    """Rank of the matrix re + i*im over GF(p)[i], destroying the inputs."""
    rows, cols = re.shape
    rank = 0
    for col in range(cols):
        if rank == rows:
            break
        nz = np.flatnonzero(re[rank:, col] | im[rank:, col])
        if nz.size == 0:
            continue
        piv = rank + int(nz[0])
        if piv != rank:
            re[[rank, piv]] = re[[piv, rank]]
            im[[rank, piv]] = im[[piv, rank]]
        a = int(re[rank, col])
        b = int(im[rank, col])
        ninv = pow(a * a + b * b, -1, p)
        inv_r = a * ninv % p
        inv_i = (p - b) * ninv % p
        # factors g = M[i, col] / pivot for every row below
        fr = re[rank + 1 :, col]
        fi = im[rank + 1 :, col]
        gr = ((fr * inv_r - fi * inv_i) % p)[:, None]
        gi = ((fr * inv_i + fi * inv_r) % p)[:, None]
        pr = re[rank, col:]
        pi = im[rank, col:]
        re[rank + 1 :, col:] = (re[rank + 1 :, col:] - gr * pr + gi * pi) % p
        im[rank + 1 :, col:] = (im[rank + 1 :, col:] - gr * pi - gi * pr) % p
        rank += 1
    return rank


# the name the benchmark's kernel replay looks up
pure_rank_mod_gaussian = rank_mod_gaussian
