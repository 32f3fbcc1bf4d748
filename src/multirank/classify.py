"""Entanglement verdicts read off a rank profile.

For a nonzero pure state, a flattening has rank 1 exactly when the
state is a product across that cut.  Hence: genuinely multipartite
entangled iff no cut is a product cut, and fully product iff every
single-party rank equals 1.  A state that vanishes mod the run's prime
has ranks 0 and no verdict.  Verdicts inherit the certainty of the
profile's rank policy; under the generic policy they hold for all
parameter values outside a measure-zero set.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ZeroStateError
from .partition import Bipartition
from .profile import MultirankProfile


@dataclass(frozen=True)
class EntanglementVerdict:
    """Aggregated classification plus the cuts that witness separability."""

    gme: bool
    fully_product: bool
    product_cuts: tuple[Bipartition, ...]


def is_gme(profile: MultirankProfile) -> bool:
    """True iff every rank at every level exceeds 1.

    Levels stop at floor(n/2), which still covers every bipartition:
    the complementary flattening is a transpose with the same rank.
    """
    return verdict(profile).gme


def is_fully_product(profile: MultirankProfile) -> bool:
    """True iff every single-party flattening has rank 1."""
    return verdict(profile).fully_product


def verdict(profile: MultirankProfile) -> EntanglementVerdict:
    first = profile.levels[0][0][1]
    if first.value == 0:  # every flattening holds every term, so every rank is 0
        raise ZeroStateError(f"every rank is 0: the state vanishes mod {first.prime}")
    cuts = tuple(bp for level in profile.levels for bp, result in level if result.value == 1)
    return EntanglementVerdict(
        gme=not cuts,
        fully_product=all(result.value == 1 for _, result in profile.levels[0]),
        product_cuts=cuts,
    )
