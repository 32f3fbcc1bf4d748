"""Elimination kernel over GF(p)[i], vectorized with numpy.

Entries are int64 pairs (re, im) already reduced to [0, p).  With
p < 2**31 a product of two residues is below 2**62, so a residue plus
or minus at most two residue products is below 2**63 in absolute value
and int64 never overflows.  Each update is therefore reduced mod p once,
after combining.

Each pivot column is scanned once, below the rows already pivoted.  The
scan gives the pivot row (its first nonzero) and the column's last
nonzero row.  A pivot that is the column's only nonzero is swapped into
place and counted with no arithmetic: the rows below already hold zero
in that column.  Otherwise only the rows down to the last nonzero are
updated, as one slice.  A row in that slice whose factor is zero is left
as it was, since (x - 0) mod p = x for x in [0, p).

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
        nz = (re[rank:, col] | im[rank:, col]).nonzero()[0]
        if nz.size == 0:
            continue
        piv = rank + int(nz[0])
        if piv != rank:
            re[[rank, piv]] = re[[piv, rank]]
            im[[rank, piv]] = im[[piv, rank]]
        if nz.size == 1:
            rank += 1
            continue
        end = rank + int(nz[-1]) + 1
        a = int(re[rank, col])
        b = int(im[rank, col])
        ninv = pow(a * a + b * b, -1, p)
        inv_r = a * ninv % p
        inv_i = (p - b) * ninv % p
        # factors g = M[i, col] / pivot for the rows down to the last nonzero
        fr = re[rank + 1 : end, col]
        fi = im[rank + 1 : end, col]
        gr = ((fr * inv_r - fi * inv_i) % p)[:, None]
        gi = ((fr * inv_i + fi * inv_r) % p)[:, None]
        pr = re[rank, col:]
        pi = im[rank, col:]
        re[rank + 1 : end, col:] = (re[rank + 1 : end, col:] - gr * pr + gi * pi) % p
        im[rank + 1 : end, col:] = (im[rank + 1 : end, col:] - gr * pi - gi * pr) % p
        rank += 1
    return rank


# the name the benchmark's kernel replay looks up
pure_rank_mod_gaussian = rank_mod_gaussian
