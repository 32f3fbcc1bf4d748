"""Enumeration of the bipartitions that drive the rank profile.

A bipartition is a set of parties and its complement; the shape of its
flattening comes from the state it is applied to.  For ``n`` parties,
every split (I, complement) with ``1 <= |I| <= floor(n/2)`` is visited;
choosing the smaller side loses nothing because the two flattenings are
transposes of each other.  Subsets are emitted in lexicographic order,
which fixes the position of every rank in the printed profile.  When
``n`` is even, level ``n/2`` deliberately contains both members of each
complementary pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .state import QuditDims


@dataclass(frozen=True, slots=True)
class Bipartition:
    """One split of the parties {1..n} into a row side and column side.

    ``parties`` is the strictly increasing tuple of 1-based labels on
    the row side; ``complement`` is the rest.  It holds no dimensions,
    so it flattens any state with the same ``n``.
    """

    parties: tuple[int, ...]
    complement: tuple[int, ...]

    @property
    def level(self) -> int:
        return len(self.parties)

    def label(self) -> str:
        return "I=[" + ",".join(str(j) for j in self.parties) + "]"


def enumerate_bipartitions(dims: QuditDims, level: int) -> list[Bipartition]:
    """All C(n, level) bipartitions at one level, lexicographic by row side."""
    if not 1 <= level <= dims.n // 2:
        raise ValueError(
            f"level must be between 1 and {dims.n // 2} for {dims.n} parties, got {level}"
        )
    labels = range(1, dims.n + 1)
    return [
        Bipartition(parties, tuple(j for j in labels if j not in parties))
        for parties in combinations(labels, level)
    ]


def all_levels(dims: QuditDims) -> list[list[Bipartition]]:
    """Bipartition lists for every level 1..floor(n/2), in increasing level."""
    return [enumerate_bipartitions(dims, level) for level in range(1, dims.n // 2 + 1)]
