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

At the first column that needs an update, and only there, the block not
yet pivoted is peeled on its nonzero pattern (the first phase of
structured Gaussian elimination, LaMacchia & Odlyzko, CRYPTO '90).  A
row that holds the only nonzero of some column is independent of every
other row, so rank(M) = |those rows| + rank(M without them); by
transposition the same holds for a column that holds the only nonzero of
some row.  Lone columns and lone rows are dropped in turn, with the
lines that hold their nonzeros, until neither kind is left.  The loop
then goes on over the rows and columns that still hold a nonzero (in
place, if nothing was dropped), with no second peel.  Peeling at the
first update rather than at entry spares the matrices whose pivots are
all lone, which need no arithmetic, its cost.

The kernel mutates its arguments; callers pass owned copies.
"""

from __future__ import annotations

import numpy as np

BACKEND = "python"


def rank_mod_gaussian(re: np.ndarray, im: np.ndarray, p: int) -> int:
    """Rank of the matrix re + i*im over GF(p)[i], destroying the inputs."""
    rows, cols = re.shape
    rank = col = peeled = 0
    peel = True
    while rank < rows and col < cols:
        nz = (re[rank:, col] | im[rank:, col]).nonzero()[0]
        if nz.size > 1 and peel:
            peel = False
            mask = (re[rank:, col:] | im[rank:, col:]) != 0
            # lines turns from the columns to the rows and back; two turns
            # in a row that drop nothing end the peel
            lines, found, idle = mask, 0, 0
            while idle < 2:
                # the lines that hold the nonzero of a lone crossing line
                held = lines @ (lines.sum(0) == 1)
                count = int(np.count_nonzero(held))
                if count:
                    found += count
                    lines[held] = False
                    idle = 0
                else:
                    idle += 1
                lines = lines.T
            if found:
                peeled = rank + found
                r = mask.any(1).nonzero()[0]
                if not r.size:
                    return peeled
                c = mask.any(0).nonzero()[0]
                re, im = re[rank + r][:, col + c], im[rank + r][:, col + c]
                rows, cols = re.shape
                rank = col = 0
            continue
        if nz.size:
            piv = rank + int(nz[0])
            if piv != rank:
                re[[rank, piv]] = re[[piv, rank]]
                im[[rank, piv]] = im[[piv, rank]]
            if nz.size > 1:
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
        col += 1
    return peeled + rank


# the name the benchmark's kernel replay looks up
pure_rank_mod_gaussian = rank_mod_gaussian
