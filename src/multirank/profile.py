"""Assembly of the full rank profile across every level and bipartition.

Levels run from 1 to floor(n/2); inside a level the bipartitions keep
their lexicographic order, so the flat list of values lines up with the
printed output position by position.  Every matrix is ranked with the
master seed, so a rank depends on its matrix and the seed alone, never
on where the matrix sits: under the generic policy the flattenings of
one state share one automatic prime and one random point per trial, and
a cut and its complement, transposes of each other, get the same rank.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def _rank_level(
    state: StateTensor, bipartitions: list[Bipartition], policy: RankPolicy, seed: int
) -> LevelEntries:
    return tuple(
        (bp, rank_dispatch(flatten(state, bp), policy, seed)) for bp in bipartitions
    )


def multirank_profile(
    state: StateTensor,
    policy: RankPolicy = RankPolicy.fast(),
    seed: int = DEFAULT_SEED,
) -> MultirankProfile:
    """Rank every flattening of the state under the given policy."""
    levels = tuple(
        _rank_level(state, bps, policy, seed) for bps in all_levels(state.dims)
    )
    return MultirankProfile(dims=state.dims, levels=levels, policy=policy, seed=seed)


def profile_level(
    state: StateTensor,
    level: int,
    policy: RankPolicy = RankPolicy.fast(),
    seed: int = DEFAULT_SEED,
) -> LevelEntries:
    """One level of the profile; identical to the same slice of the full run."""
    return _rank_level(state, enumerate_bipartitions(state.dims, level), policy, seed)
