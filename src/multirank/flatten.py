"""Matricization of a state along a bipartition.

Each nonzero term maps to exactly one matrix entry: the row index is the
big-endian mixed-radix value of the ket digits on the row side (first
listed party most significant), the column index the same construction
over the complement.  Any fixed bijection gives the same rank; this one
is chosen so the produced matrices, not just their ranks, are stable and
reproducible.  The matrix is assembled straight from the sparse terms;
the dense tensor is never materialized.

The kets come from the state, built once and shared by every flattening
of it: one matmul of the cut's place values with the ket array gives
every (row, col), so ``entries`` keeps the state's term order and the
matrix hands the state's :class:`~multirank.state.TermTable` on to the
rank layer.  When d_1 * ... * d_n reaches 2**63 the kets are Python ints
(numpy's object dtype), since an int64 matmul would wrap.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidStateError
from .gaussian import Amplitude
from .partition import Bipartition
from .state import StateTensor, TermTable


@dataclass(frozen=True)
class FlattenedMatrix:
    """Sparse ``rows x cols`` matrix holding the surviving amplitudes.

    ``table`` reads the amplitudes in the order of ``entries``: the
    state's table for a flattening, else one built from ``entries``.
    """

    rows: int
    cols: int
    entries: dict[tuple[int, int], Amplitude]
    table: TermTable = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.table is None:
            object.__setattr__(self, "table", TermTable(self.entries.values()))


def flatten(state: StateTensor, bipartition: Bipartition) -> FlattenedMatrix:
    """Build the flattening of ``state`` induced by ``bipartition``.

    The shape is the product of the state's local dimensions on each
    side, so the bipartition only has to split the state's parties.
    Every term's (row, col) is one column of the product of a 2 x n
    matrix of place values with the transposed ket array.
    """
    dims = state.dims
    labels = bipartition.parties + bipartition.complement
    if sorted(labels) != list(range(1, dims.n + 1)):
        raise InvalidStateError(
            f"bipartition {bipartition.parties}/{bipartition.complement} "
            f"does not partition parties 1..{dims.n}"
        )
    kets, d = state.kets, dims.dims
    row, col = [0] * dims.n, [0] * dims.n
    rows = cols = 1
    for j in reversed(bipartition.parties):
        row[j - 1] = rows
        rows *= d[j - 1]
    for j in reversed(bipartition.complement):
        col[j - 1] = cols
        cols *= d[j - 1]
    r, c = np.array((row, col), dtype=kets.dtype).dot(kets.T).tolist()
    return FlattenedMatrix(rows, cols, dict(zip(zip(r, c), state.terms.values())), state.table)


def dense_string_rows(matrix: FlattenedMatrix) -> list[list[str]]:
    """Dense rendering with every entry as an exact string (debug dumps)."""
    out = [["0"] * matrix.cols for _ in range(matrix.rows)]
    for (r, c), amp in matrix.entries.items():
        out[r][c] = str(amp)
    return out
