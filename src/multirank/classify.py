"""Entanglement verdicts read off a rank profile.

For a nonzero pure state, a flattening has rank 1 exactly when the
state is a product across that cut.  Hence: genuinely multipartite
entangled iff no cut is a product cut, and fully product iff every
single-party rank equals 1.  A profile of one level out of several,
and a state that vanishes mod the run's prime (so its ranks are 0),
have no verdict.  Verdicts inherit the certainty of the
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


def verdict(profile: MultirankProfile) -> EntanglementVerdict:
    """The verdict of a full profile; one level alone raises ``ValueError``.

    ``gme`` holds iff every rank at every level exceeds 1: levels stop at
    floor(n/2), which still covers every bipartition, since the
    complementary flattening is a transpose with the same rank.
    ``fully_product`` holds iff every single-party rank is 1.
    """
    if len(profile.levels) != profile.dims.n // 2:
        raise ValueError("a verdict needs every level of the profile")
    first = profile.levels[0][0][1]
    if first.value == 0:  # every flattening holds every term, so every rank is 0
        raise ZeroStateError(f"every rank is 0: the state vanishes mod {first.prime}")
    cuts = tuple(bp for level in profile.levels for bp, result in level if result.value == 1)
    return EntanglementVerdict(
        gme=not cuts,
        fully_product=all(result.value == 1 for _, result in profile.levels[0]),
        product_cuts=cuts,
    )
