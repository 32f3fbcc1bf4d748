"""Assembly of the full rank profile across every level and bipartition.

Levels run from 1 to floor(n/2); inside a level the bipartitions keep
their lexicographic order, so the flat list of values lines up with the
printed output position by position.  Every matrix is ranked with the
master seed, so a rank depends on its matrix and the seed alone, never
on where the matrix sits: under the generic policy the flattenings of
one state share one automatic prime and one random point per trial, and
a cut and its complement, transposes of each other, get the same rank.
Every certified rank bounds the next cut (r(A | B) <= r(A) * r(B)),
which can close a rank in fewer passes: the value never depends on that
record, its certificate can.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Optional

from .flatten import flatten
from .partition import Bipartition, all_levels, enumerate_bipartitions
from .rank import RankPolicy, RankResult, rank_dispatch
from .state import QuditDims, StateTensor

DEFAULT_SEED = 1729

LevelEntries = tuple[tuple[Bipartition, RankResult], ...]


@dataclass(frozen=True)
class MultirankProfile:
    """Per-level (bipartition, rank) lists in canonical order."""

    dims: QuditDims
    levels: tuple[LevelEntries, ...]
    policy: RankPolicy
    seed: int

    def rank_lists(self) -> list[list[int]]:
        return [[result.value for _, result in level] for level in self.levels]


def _split_bound(record: dict[int, int], mask: int) -> Optional[int]:
    """The product bound for the cut ``mask``, or None when no split counts.

    The minimum of r(A) * r(B) over the splits of the cut into A and B,
    with A holding its lowest party, both nonzero and both in ``record``.
    Each term bounds r(A | B): the state lies in U_A (x) U_B (x) H_rest,
    with U_A the span of its slices on A, of dimension r(A).
    """
    low = mask & -mask
    rest = mask ^ low
    best = None
    sub = rest
    while sub:  # B runs over the nonzero submasks of rest
        a, b = mask ^ sub, sub
        if a in record and b in record:
            bound = record[a] * record[b]
            if best is None or bound < best:
                best = bound
        sub = (sub - 1) & rest
    return best


def _profile(
    state: StateTensor, groups, policy: RankPolicy, seed: int
) -> tuple[LevelEntries, ...]:
    """The one loop: rank each bipartition of each group, in order.

    It records each certified rank by the bitmask of its parties and
    offers ``rank_dispatch`` the product bound of the recorded splits.
    Lower levels come first, so every split of a cut is ranked before it.
    """
    record = {}
    levels = []
    for bipartitions in groups:
        entries = []
        for bp in bipartitions:
            mask = sum(1 << (j - 1) for j in bp.parties)
            upper = partial(_split_bound, record, mask)
            result = rank_dispatch(flatten(state, bp), policy, seed, upper)
            if result.certainty == "exact":
                record[mask] = result.value
            entries.append((bp, result))
        levels.append(tuple(entries))
    return tuple(levels)


def multirank_profile(
    state: StateTensor,
    policy: RankPolicy = RankPolicy.fast(),
    seed: int = DEFAULT_SEED,
) -> MultirankProfile:
    """Rank every flattening of the state under the given policy."""
    levels = _profile(state, all_levels(state.dims), policy, seed)
    return MultirankProfile(dims=state.dims, levels=levels, policy=policy, seed=seed)


def profile_level(
    state: StateTensor,
    level: int,
    policy: RankPolicy = RankPolicy.fast(),
    seed: int = DEFAULT_SEED,
) -> LevelEntries:
    """One level of the profile: the same values as the full run's slice.

    A certificate or a pass count can differ from the full run's, since
    a single level has no record of the lower levels to bound it by.
    """
    (entries,) = _profile(
        state, [enumerate_bipartitions(state.dims, level)], policy, seed
    )
    return entries
