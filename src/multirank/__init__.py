"""multirank: flattening-rank profiles of multiqudit pure states.

Flatten an n-party state along every bipartition (I, complement) with
|I| <= floor(n/2), compute each matrix rank exactly, and classify the
state as fully product, biseparable across identified cuts, or
genuinely multipartite entangled.  All arithmetic is exact (Gaussian
rationals); fast probabilistic paths over GF(p)[i] are available and
clearly labelled in the results.
"""

from .classify import EntanglementVerdict, verdict
from .errors import (
    InvalidStateError,
    MultirankError,
    PolicyMismatchError,
    PrimeClashError,
    StateSyntaxError,
    ZeroStateError,
)
from .flatten import FlattenedMatrix, dense_string_rows, flatten
from .gaussian import Amplitude, GaussianRational, Parameter, parse_coefficient
# not in __all__: the benchmark (perfbench/run.py) reads multirank.BACKEND
from .kernels import BACKEND
from .partition import Bipartition, all_levels, enumerate_bipartitions
from .profile import DEFAULT_SEED, MultirankProfile, multirank_profile
from .rank import (
    RankPolicy,
    RankResult,
    exact_rank,
    generic_rank,
    modular_rank,
    parse_policy,
    rank_dispatch,
)
from .state import QuditDims, StateTensor, build_state, parse_state

__version__ = "0.1.0"

__all__ = [
    "Amplitude",
    "Bipartition",
    "DEFAULT_SEED",
    "EntanglementVerdict",
    "FlattenedMatrix",
    "GaussianRational",
    "InvalidStateError",
    "MultirankError",
    "MultirankProfile",
    "PolicyMismatchError",
    "Parameter",
    "PrimeClashError",
    "QuditDims",
    "RankPolicy",
    "RankResult",
    "StateSyntaxError",
    "StateTensor",
    "ZeroStateError",
    "all_levels",
    "build_state",
    "dense_string_rows",
    "enumerate_bipartitions",
    "exact_rank",
    "flatten",
    "generic_rank",
    "modular_rank",
    "multirank_profile",
    "parse_coefficient",
    "parse_policy",
    "parse_state",
    "rank_dispatch",
    "verdict",
]
