"""Matricization of a state along a bipartition.

Each nonzero term maps to exactly one matrix entry: the row index is the
big-endian mixed-radix value of the ket digits on the row side (first
listed party most significant), the column index the same construction
over the complement.  Any fixed bijection gives the same rank; this one
is chosen so the produced matrices, not just their ranks, are stable and
reproducible.  The matrix is assembled straight from the sparse terms;
the dense tensor is never materialized.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

from .errors import InvalidStateError
from .gaussian import Amplitude
from .partition import Bipartition
from .state import MultiIndex, QuditDims, StateTensor


@dataclass(frozen=True)
class FlattenedMatrix:
    """Sparse ``rows x cols`` matrix holding the surviving amplitudes."""

    rows: int
    cols: int
    entries: dict[tuple[int, int], Amplitude]


def row_col_of(
    index: MultiIndex, bipartition: Bipartition, dims: QuditDims
) -> tuple[int, int]:
    """Map one multi-index to its (row, col) position in the flattening."""
    row = 0
    for j in bipartition.parties:
        row = row * dims.dims[j - 1] + index[j - 1]
    col = 0
    for j in bipartition.complement:
        col = col * dims.dims[j - 1] + index[j - 1]
    return row, col


def flatten(state: StateTensor, bipartition: Bipartition) -> FlattenedMatrix:
    """Build the flattening of ``state`` induced by ``bipartition``.

    The shape is the product of the state's local dimensions on each
    side, so the bipartition only has to split the state's parties.
    """
    dims = state.dims
    labels = bipartition.parties + bipartition.complement
    if sorted(labels) != list(range(1, dims.n + 1)):
        raise InvalidStateError(
            f"bipartition {bipartition.parties}/{bipartition.complement} "
            f"does not partition parties 1..{dims.n}"
        )
    entries = {
        row_col_of(index, bipartition, dims): amp for index, amp in state.terms.items()
    }
    return FlattenedMatrix(
        rows=prod(dims.dims[j - 1] for j in bipartition.parties),
        cols=prod(dims.dims[j - 1] for j in bipartition.complement),
        entries=entries,
    )


def dense_string_rows(matrix: FlattenedMatrix) -> list[list[str]]:
    """Dense rendering with every entry as an exact string (debug dumps)."""
    out = [["0"] * matrix.cols for _ in range(matrix.rows)]
    for (r, c), amp in matrix.entries.items():
        out[r][c] = str(amp)
    return out
