"""Exact, modular, and generic (probabilistic) matrix rank.

Three routes, one contract:

* :func:`modular_rank` eliminates over GF(p)[i] with p an odd prime
  congruent to 3 mod 4, so i*i + 1 is irreducible and the quotient is
  the field GF(p^2).  The result never exceeds the exact rank; it can
  undershoot when p divides a pivot minor.  A rational amplitude becomes
  a residue through one inverse of its denominator, ``pow(d, -1, p)``;
  p < 2**31 lets the kernel reduce each update once (see
  :mod:`multirank.kernels`).

* :func:`exact_rank` works over the Gaussian rationals by modular passes
  alone.  The largest modular rank seen is the lower bound; the upper
  bound is either min(nonzero rows, nonzero cols) or a multi-prime
  Hadamard certificate: once the product of the primes used exceeds the
  Hadamard bound on the next-larger minors of the row-cleared
  Gaussian-integer matrix, those minors are all zero.

* :func:`generic_rank` substitutes uniform random field elements for
  each named parameter, takes the modular rank, and maximizes over
  trials.  By Schwartz-Zippel the per-trial failure probability is at
  most deg/p with deg bounded by the smaller matrix dimension (entries
  are at most linear in the parameters).

Every route first discards all-zero rows and columns, so the working
matrix is never larger than the number of nonzero entries on a side.
:func:`rank_dispatch` glues the routes together under a policy; the
exact and fast policies are two names for :func:`exact_rank`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import lcm, prod
from typing import Optional

import numpy as np

from .errors import PolicyMismatchError, PrimeClashError
from .flatten import FlattenedMatrix
from .gaussian import Parameter
from .kernels import rank_mod_gaussian

# Twenty primes == 3 (mod 4) just below 2**31: large enough that random
# substitution failures are negligible, small enough for int64 kernels.
PRIMES_3_MOD_4 = (
    2147483647, 2147483587, 2147483579, 2147483563, 2147483543,
    2147483423, 2147483399, 2147483323, 2147483179, 2147483171,
    2147483123, 2147483059, 2147482951, 2147482943, 2147482867,
    2147482859, 2147482819, 2147482811, 2147482763, 2147482739,
)

DEFAULT_GENERIC_TRIALS = 8


@dataclass(frozen=True, slots=True)
class RankResult:
    """A rank value plus how it was obtained.

    ``certainty`` is "exact" when the value provably equals the rank
    over the Gaussian rationals, "probabilistic" otherwise.  A modular
    value is always a lower bound on the exact rank.  ``failure_bound``
    is the Schwartz-Zippel bound on the probability that a generic
    result understates the generic rank.  An exact value records which
    upper bound closed it in ``certificate`` ("structural" when it met
    min(nonzero rows, nonzero cols), "hadamard" otherwise) and the
    number of modular passes it took in ``primes``.
    """

    value: int
    mode: str  # "exact" | "modular" | "generic"
    certainty: str  # "exact" | "probabilistic"
    prime: Optional[int] = None
    trials: Optional[int] = None
    failure_bound: Optional[float] = None
    certificate: Optional[str] = None  # "structural" | "hadamard"
    primes: Optional[int] = None


@dataclass(frozen=True, slots=True)
class RankPolicy:
    """Which rank route to use; see :func:`rank_dispatch`."""

    kind: str  # "exact" | "fast" | "modular" | "generic"
    prime: Optional[int] = None
    trials: Optional[int] = None

    @classmethod
    def exact(cls) -> "RankPolicy":
        return cls("exact")

    @classmethod
    def fast(cls) -> "RankPolicy":
        return cls("fast")

    @classmethod
    def modular(cls, prime: int) -> "RankPolicy":
        return cls("modular", prime=prime)

    @classmethod
    def generic(cls, trials: int = DEFAULT_GENERIC_TRIALS, prime: Optional[int] = None) -> "RankPolicy":
        return cls("generic", prime=prime, trials=trials)

    def label(self) -> str:
        if self.kind == "modular":
            return f"mod:{self.prime}"
        if self.kind == "generic":
            prime = self.prime if self.prime is not None else "auto"
            return f"generic:{self.trials},{prime}"
        return self.kind


def parse_policy(text: str) -> RankPolicy:
    """Parse the CLI policy syntax: exact | fast | mod:<p> | generic:<trials>,<p>.

    The prime and the trial count are validated here, so that a bad
    policy is rejected before any state is read.
    """
    policy = _policy_from_text(text)
    if policy.prime is not None:
        _check_prime(policy.prime)
    if policy.trials is not None and policy.trials < 1:
        raise ValueError(f"trials must be >= 1, got {policy.trials}")
    return policy


def _policy_from_text(text: str) -> RankPolicy:
    if text == "exact":
        return RankPolicy.exact()
    if text == "fast":
        return RankPolicy.fast()
    if text.startswith("mod:"):
        try:
            return RankPolicy.modular(int(text[4:]))
        except ValueError:
            raise ValueError(f"malformed modular policy {text!r}") from None
    if text == "generic":
        return RankPolicy.generic()
    if text.startswith("generic:"):
        body = text[len("generic:") :]
        parts = body.split(",")
        try:
            if len(parts) == 1:
                return RankPolicy.generic(trials=int(parts[0]))
            if len(parts) == 2:
                return RankPolicy.generic(trials=int(parts[0]), prime=int(parts[1]))
        except ValueError:
            pass
        raise ValueError(f"malformed generic policy {text!r}")
    raise ValueError(f"unknown rank policy {text!r}")


# ---------------------------------------------------------------------------
# Shared plumbing


def _compress(matrix: FlattenedMatrix):
    """Relabel to the nonzero rows/cols only; rank is unaffected."""
    row_ids = sorted({r for r, _ in matrix.entries})
    col_ids = sorted({c for _, c in matrix.entries})
    row_of = {r: i for i, r in enumerate(row_ids)}
    col_of = {c: i for i, c in enumerate(col_ids)}
    entries = {
        (row_of[r], col_of[c]): amp for (r, c), amp in matrix.entries.items()
    }
    return len(row_ids), len(col_ids), entries


# ---------------------------------------------------------------------------
# Modular route


def _check_prime(p: int) -> None:
    if p < 3 or p % 4 != 3:
        raise ValueError(
            f"prime must be congruent to 3 mod 4 so that GF(p)[i] is a field, got {p}"
        )
    if p >= 2**31:
        # the kernel reduces once per update: a residue plus two residue
        # products must fit int64
        raise ValueError(f"prime must be below 2**31, got {p}")
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _admissible_primes(matrix: FlattenedMatrix, rng: random.Random):
    """Primes p == 3 (mod 4) below 2**31 that divide no denominator.

    First the table in an order shuffled by ``rng``, then the primes
    below the table in descending order.
    """
    denominators = {
        d
        for a in matrix.entries.values()
        if not isinstance(a, Parameter)
        for d in (a.re.denominator, a.im.denominator)
        if d > 1
    }
    table = list(PRIMES_3_MOD_4)
    rng.shuffle(table)
    below = (p for p in range(PRIMES_3_MOD_4[-1] - 4, 2, -4) if _is_prime(p))
    for p in chain(table, below):
        if all(d % p for d in denominators):
            yield p


def _residue(x: Fraction, p: int) -> int:
    # checked first: pow(d, -1, p) would raise a bare ValueError instead
    if x.denominator % p == 0:
        raise PrimeClashError(f"prime {p} divides a denominator")
    return x.numerator * pow(x.denominator, -1, p) % p


def _modular_arrays(rows, cols, entries, p, assignment=None):
    re = np.zeros((rows, cols), dtype=np.int64)
    im = np.zeros((rows, cols), dtype=np.int64)
    for (r, c), amp in entries.items():
        if isinstance(amp, Parameter):
            if assignment is None:
                raise PolicyMismatchError(
                    "matrix has parametric entries; use the generic policy"
                )
            re[r, c], im[r, c] = assignment[amp.name]
        else:
            re[r, c] = _residue(amp.re, p)
            im[r, c] = _residue(amp.im, p)
    return re, im


def modular_rank(matrix: FlattenedMatrix, p: int) -> RankResult:
    """Rank over GF(p)[i]; a guaranteed lower bound for the exact rank."""
    _check_prime(p)
    rows, cols, entries = _compress(matrix)
    re, im = _modular_arrays(rows, cols, entries, p)
    value = int(rank_mod_gaussian(re, im, p))
    return RankResult(value, mode="modular", certainty="probabilistic", prime=p)


# ---------------------------------------------------------------------------
# Exact route


def exact_rank(matrix: FlattenedMatrix, seed: object = 0) -> RankResult:
    """Rank over the Gaussian rationals, certified by modular passes alone.

    Each admissible prime p (see :func:`_admissible_primes`) gives a
    modular rank, and the largest seen so far, r, is a lower bound on the
    exact rank.  The loop stops when r meets min(nonzero rows, nonzero
    cols), or when the product P of the primes used satisfies P**2 > H,
    with H the product of the r + 1 largest squared row norms of the
    row-cleared Gaussian-integer matrix.  A parametric entry raises
    :class:`PolicyMismatchError` in the first pass.

    Proof of the upper bound in the second case.  Clearing a row's
    denominators scales it by an integer that p does not divide, so the
    cleared matrix has the same rank mod p, at most r.  Every (r+1)-minor
    of it is therefore a Gaussian integer divisible by p: a prime
    p == 3 (mod 4) stays prime in Z[i], so Z[i]/(p) is the field
    GF(p)[i].  Distinct rational primes are coprime in Z[i], so P divides
    every (r+1)-minor, and a nonzero one has modulus at least P.  By
    Hadamard's inequality its squared modulus is at most H < P**2, so
    every (r+1)-minor is zero and the rank is r.  When a prime raises r,
    the earlier primes still gave ranks <= r, so P keeps them.
    """
    rows, cols, entries = _compress(matrix)
    if rows == 0:
        return RankResult(
            0, mode="exact", certainty="exact", certificate="structural", primes=0
        )
    value, product, norms = 0, 1, None
    primes = _admissible_primes(matrix, random.Random(f"fast:{seed}"))
    for passes, p in enumerate(primes, start=1):
        re, im = _modular_arrays(rows, cols, entries, p)
        value = max(value, int(rank_mod_gaussian(re, im, p)))
        if value == min(rows, cols):
            break
        if norms is None:
            norms = _cleared_row_norms(rows, entries)
        product *= p
        if product * product > prod(norms[: value + 1]):
            break
    certificate = "structural" if value == min(rows, cols) else "hadamard"
    return RankResult(
        value, mode="exact", certainty="exact", certificate=certificate, primes=passes
    )


def _cleared_row_norms(rows: int, entries) -> list[int]:
    """Squared row norms after per-row denominator clearing, largest first."""
    amps = [[] for _ in range(rows)]
    for (r, _), amp in entries.items():
        amps[r].append(amp)
    norms = []
    for row in amps:
        scale = lcm(*(d for a in row for d in (a.re.denominator, a.im.denominator)))
        norms.append(int(scale * scale * sum(a.re * a.re + a.im * a.im for a in row)))
    return sorted(norms, reverse=True)


# ---------------------------------------------------------------------------
# Generic route


def generic_rank(
    matrix: FlattenedMatrix,
    trials: int = DEFAULT_GENERIC_TRIALS,
    p: Optional[int] = None,
    seed: object = 0,
) -> RankResult:
    """Max modular rank over random parameter substitutions.

    Equals the generic rank (the rank away from a measure-zero parameter
    set) except with probability at most (deg/p)**trials, reported in
    ``failure_bound``.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = random.Random(f"generic:{seed}")
    if p is None:
        p = next(_admissible_primes(matrix, rng))
    _check_prime(p)
    rows, cols, entries = _compress(matrix)
    names = sorted(
        {a.name for a in entries.values() if isinstance(a, Parameter)}
    )
    best = 0
    for _ in range(trials):
        assignment = {
            name: (rng.randrange(p), rng.randrange(p)) for name in names
        }
        re, im = _modular_arrays(rows, cols, entries, p, assignment)
        best = max(best, int(rank_mod_gaussian(re, im, p)))
        if best == min(rows, cols):
            break
    per_trial = Fraction(min(rows, cols), p)
    return RankResult(
        best,
        mode="generic",
        certainty="probabilistic",
        prime=p,
        trials=trials,
        failure_bound=float(per_trial**trials),
    )


# ---------------------------------------------------------------------------
# Dispatch


def rank_dispatch(
    matrix: FlattenedMatrix, policy: RankPolicy, seed: object = 0
) -> RankResult:
    """Run one matrix through the policy; exact and fast both run
    :func:`exact_rank`."""
    if policy.kind in ("exact", "fast"):
        return exact_rank(matrix, seed=seed)
    if policy.kind == "generic":
        trials = DEFAULT_GENERIC_TRIALS if policy.trials is None else policy.trials
        return generic_rank(matrix, trials=trials, p=policy.prime, seed=seed)
    if policy.kind == "modular":
        if policy.prime is None:
            raise ValueError("modular policy needs an explicit prime")
        return modular_rank(matrix, policy.prime)
    raise ValueError(f"unknown rank policy kind {policy.kind!r}")
