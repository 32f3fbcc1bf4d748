"""Assembly of the full rank profile across every level and bipartition.

Levels run from 1 to floor(n/2); inside a level the bipartitions keep
their lexicographic order, so the flat list of values lines up with the
printed output position by position.  Under the exact and fast
policies a rank depends on its matrix alone.  Under the generic policy
each matrix gets its own random stream derived from the master seed and
its position, so results never depend on evaluation order (flattenings
are pure functions of immutable inputs and could be computed
concurrently).
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


def _matrix_seed(seed: int, level: int, position: int) -> str:
    # string seeds hash deterministically across processes, unlike objects
    return f"{seed}:{level}:{position}"


def _rank_level(
    state: StateTensor,
    bipartitions: list[Bipartition],
    level: int,
    policy: RankPolicy,
    seed: int,
) -> LevelEntries:
    return tuple(
        (bp, rank_dispatch(flatten(state, bp), policy, seed=_matrix_seed(seed, level, k)))
        for k, bp in enumerate(bipartitions)
    )


def multirank_profile(
    state: StateTensor,
    policy: RankPolicy = RankPolicy.fast(),
    seed: int = DEFAULT_SEED,
) -> MultirankProfile:
    """Rank every flattening of the state under the given policy."""
    levels = tuple(
        _rank_level(state, bps, level, policy, seed)
        for level, bps in enumerate(all_levels(state.dims), start=1)
    )
    return MultirankProfile(dims=state.dims, levels=levels, policy=policy, seed=seed)


def profile_level(
    state: StateTensor,
    level: int,
    policy: RankPolicy = RankPolicy.fast(),
    seed: int = DEFAULT_SEED,
) -> LevelEntries:
    """One level of the profile; identical to the same slice of the full run."""
    bipartitions = enumerate_bipartitions(state.dims, level)
    return _rank_level(state, bipartitions, level, policy, seed)
