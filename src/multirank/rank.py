"""Exact, modular, and generic (probabilistic) matrix rank.

Three routes, one contract:

* :func:`modular_rank` eliminates over GF(p)[i] with p an odd prime
  congruent to 3 mod 4, so i*i + 1 is irreducible and the quotient is
  the field GF(p^2).  The result never exceeds the exact rank; it can
  undershoot when p divides a pivot minor.  p < 2**31 lets the kernel
  reduce each update once (see :mod:`multirank.kernels`).

* :func:`exact_rank` works over the Gaussian rationals by modular passes
  at one fixed sequence of primes, so it depends on the matrix alone.
  The largest modular rank is the lower bound; the upper bound is
  min(nonzero rows, nonzero cols) or a multi-prime Hadamard certificate:
  once the product of the primes used exceeds the Hadamard bound on the
  next-larger minors of the row-cleared matrix, those minors are all zero.

* :func:`generic_rank`, the one route that draws from a seed, substitutes
  uniform random field elements for each named parameter, takes the
  modular rank, and maximizes over trials.  By Schwartz-Zippel the
  per-trial failure probability is at most deg/p with deg bounded by the
  smaller matrix dimension (entries are at most linear in the parameters).

Every route starts from :func:`_compress`, the one place where
amplitudes become numbers: it discards all-zero rows and columns, so the
working matrix is never larger than the number of nonzero entries on a
side, and clears each row's denominators, so every entry is a pair of
integers.  A modular pass then only reduces those integers mod p.
:func:`rank_dispatch` glues the routes together under a policy; the
exact and fast policies are two names for :func:`exact_rank`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import chain
from math import isqrt, lcm, log2, prod
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
    """Nonzero rows and cols only, each row cleared of its denominators.

    Returns ``(rows, cols, scale)``.  ``rows`` lists, in first-seen order,
    ``(s, [(col, entry), ...])``: ``s`` is the lcm of the row's
    denominators, and each entry is the Gaussian integer ``s * amplitude``
    as a pair ``(re, im)``, or a :class:`Parameter`, which a pass scales by
    ``s`` when it draws the parameter's value.  ``scale`` is the lcm of
    every denominator.  A prime that does not divide ``scale`` divides no
    ``s``, so the cleared matrix has the same rank mod p.
    """
    by_row: dict[int, list] = {}
    for (r, c), amp in matrix.entries.items():
        by_row.setdefault(r, []).append((c, amp))
    col_of = {c: i for i, c in enumerate(dict.fromkeys(c for _, c in matrix.entries))}
    rows, scale = [], 1
    for entries in by_row.values():
        amps = [a for _, a in entries if not isinstance(a, Parameter)]
        s = lcm(*(d for a in amps for d in (a.re.denominator, a.im.denominator)))
        row = []
        for c, a in entries:
            if not isinstance(a, Parameter):
                a = (
                    a.re.numerator * (s // a.re.denominator),
                    a.im.numerator * (s // a.im.denominator),
                )
            row.append((col_of[c], a))
        rows.append((s, row))
        scale = lcm(scale, s)
    return rows, len(col_of), scale


def _pass(rows, cols: int, scale: int, p: int, assignment=None) -> int:
    """Rank mod p of the compressed matrix, parameters set by ``assignment``.

    Without an assignment a parametric entry raises
    :class:`PolicyMismatchError`.  That check precedes the one that p
    divides no denominator, so the error does not depend on term order.
    """
    re = np.zeros((len(rows), cols), dtype=np.int64)
    im = np.zeros((len(rows), cols), dtype=np.int64)
    for r, (s, row) in enumerate(rows):
        for c, x in row:
            if isinstance(x, Parameter):
                if assignment is None:
                    raise PolicyMismatchError(
                        "matrix has parametric entries; use the generic policy"
                    )
                a, b = assignment[x.name]
                re[r, c], im[r, c] = a * s % p, b * s % p
            else:
                re[r, c], im[r, c] = x[0] % p, x[1] % p
    if scale % p == 0:
        raise PrimeClashError(f"prime {p} divides a denominator")
    return int(rank_mod_gaussian(re, im, p))


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


@cache
def _is_prime(n: int) -> bool:
    # trial division by odd q; every caller passes an odd 3 <= n < 2**31.
    # modular_rank checks its prime once per matrix, hence the cache; it
    # holds only policy primes and the candidates scanned below the table.
    return all(n % q for q in range(3, isqrt(n) + 1, 2))


def _admissible_primes(scale: int, table=PRIMES_3_MOD_4):
    """Primes p == 3 (mod 4) below 2**31 that divide no denominator.

    ``scale`` is the lcm of the denominators (see :func:`_compress`).
    First ``table`` in its order, then the smaller primes, descending.
    """
    below = (p for p in range(PRIMES_3_MOD_4[-1] - 4, 2, -4) if _is_prime(p))
    for p in chain(table, below):
        if scale % p:
            yield p


def modular_rank(matrix: FlattenedMatrix, p: int) -> RankResult:
    """Rank over GF(p)[i]; a guaranteed lower bound for the exact rank."""
    _check_prime(p)
    rows, cols, scale = _compress(matrix)
    value = _pass(rows, cols, scale, p)
    return RankResult(value, mode="modular", certainty="probabilistic", prime=p)


# ---------------------------------------------------------------------------
# Exact route


def exact_rank(matrix: FlattenedMatrix) -> RankResult:
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
    rows, cols, scale = _compress(matrix)
    if not rows:
        return RankResult(
            0, mode="exact", certainty="exact", certificate="structural", primes=0
        )
    value, product, norms = 0, 1, None
    for passes, p in enumerate(_admissible_primes(scale), start=1):
        value = max(value, _pass(rows, cols, scale, p))
        if value == min(len(rows), cols):
            break
        if norms is None:
            norms = sorted(
                (sum(a * a + b * b for _, (a, b) in row) for _, row in rows),
                reverse=True,
            )
        product *= p
        if product * product > prod(norms[: value + 1]):
            break
    certificate = "structural" if value == min(len(rows), cols) else "hadamard"
    return RankResult(
        value, mode="exact", certainty="exact", certificate=certificate, primes=passes
    )


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
    ``failure_bound`` and capped at 1.  Without parameters every trial
    is the same pass, so only the first runs.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = random.Random(f"generic:{seed}")
    rows, cols, scale = _compress(matrix)
    if p is None:
        table = list(PRIMES_3_MOD_4)
        rng.shuffle(table)
        p = next(_admissible_primes(scale, table))
    else:
        _check_prime(p)
    names = sorted(
        {x.name for _, row in rows for _, x in row if isinstance(x, Parameter)}
    )
    best = 0
    for _ in range(trials):
        assignment = {
            name: (rng.randrange(p), rng.randrange(p)) for name in names
        }
        best = max(best, _pass(rows, cols, scale, p, assignment))
        if best == min(len(rows), cols) or not names:
            break
    per_trial = min(Fraction(min(len(rows), cols), p), 1)
    tiny = per_trial and trials * -log2(per_trial) > 1100  # power < 2**-1076
    return RankResult(
        best,
        mode="generic",
        certainty="probabilistic",
        prime=p,
        trials=trials,
        failure_bound=0.0 if tiny else float(per_trial**trials),
    )


# ---------------------------------------------------------------------------
# Dispatch


def rank_dispatch(
    matrix: FlattenedMatrix, policy: RankPolicy, seed: object = 0
) -> RankResult:
    """Run one matrix through the policy; exact and fast both run
    :func:`exact_rank`.  Only the generic route draws from ``seed``."""
    if policy.kind in ("exact", "fast"):
        return exact_rank(matrix)
    if policy.kind == "generic":
        trials = DEFAULT_GENERIC_TRIALS if policy.trials is None else policy.trials
        return generic_rank(matrix, trials=trials, p=policy.prime, seed=seed)
    if policy.kind == "modular":
        if policy.prime is None:
            raise ValueError("modular policy needs an explicit prime")
        return modular_rank(matrix, policy.prime)
    raise ValueError(f"unknown rank policy kind {policy.kind!r}")
