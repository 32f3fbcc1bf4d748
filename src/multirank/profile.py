"""Assembly of the rank profile across every level and bipartition.

Levels run from 1 to floor(n/2), or a run ranks one level alone; inside
a level the bipartitions keep their lexicographic order, so the flat
list of values lines up with the printed output position by position.
A run counts its cuts before it builds any and refuses more than
:data:`CUT_LIMIT`, since it keeps every cut's rank.  Every matrix is
ranked with the master seed, so a rank depends on its matrix and the
seed alone, never on where the matrix sits: under the generic policy
the flattenings of one state share one automatic prime and one random
point per trial, and a cut and its complement, transposes of each
other, get the same rank.
Every certified rank bounds the next cut (r(A | B) <= r(A) * r(B)),
which can close a rank in fewer passes: the value never depends on that
record, its certificate can.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from math import comb
from typing import Optional

from .errors import MultirankError
from .flatten import flatten
from .partition import Bipartition, all_levels, enumerate_bipartitions
from .rank import RankPolicy, RankResult, rank_dispatch
from .state import QuditDims, StateTensor

DEFAULT_SEED = 1729
# a run keeps every cut's rank; 21 parties have 2**20 - 1 cuts
CUT_LIMIT = 2**20

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
    policy: RankPolicy = RankPolicy("fast"),
    seed: int = DEFAULT_SEED,
    level: Optional[int] = None,
) -> MultirankProfile:
    """Rank every flattening of the state, or only those at ``level``.

    The cuts are counted before any is built, and a run of more than
    :data:`CUT_LIMIT` raises :class:`MultirankError`.  A single level has
    the full run's values there, but a certificate or a pass count can
    differ, since it has no record of the lower levels to bound it by.
    """
    n = state.dims.n
    # a level out of range counts nothing here; enumerate_bipartitions refuses it
    cuts = sum(comb(n, k) for k in range(1, n // 2 + 1) if level in (None, k))
    if cuts > CUT_LIMIT:
        raise MultirankError(f"the profile has {cuts} cuts, more than the limit of {CUT_LIMIT}")
    if level is None:
        groups = all_levels(state.dims)
    else:
        groups = [enumerate_bipartitions(state.dims, level)]
    levels = _profile(state, groups, policy, seed)
    return MultirankProfile(dims=state.dims, levels=levels, policy=policy, seed=seed)
