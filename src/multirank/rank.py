"""Exact, modular, and generic (probabilistic) matrix rank.

Three routes, one contract:

* :func:`modular_rank` eliminates over GF(p)[i] with p an odd prime
  congruent to 3 mod 4, so i*i + 1 is irreducible and the quotient is
  the field GF(p^2).  The result never exceeds the exact rank; it can
  undershoot when p divides a pivot minor.  p < 2**31 lets the kernel
  reduce each update once (see :mod:`multirank.kernels`).

* :func:`exact_rank` works over the Gaussian rationals by modular passes
  at one fixed sequence of primes, so its value depends on the matrix
  alone.  The largest modular rank is the lower bound; the upper bound
  is the term rank (:func:`_term_rank`), a bound the caller proves, or a
  multi-prime Hadamard certificate: once the product of the primes used
  exceeds the Hadamard bound on the next-larger minors of the
  row-cleared matrix, those minors are all zero.

* :func:`generic_rank`, the one route that draws from a seed, substitutes
  uniform random field elements for each named parameter, takes the
  modular rank, and maximizes over trials.  By Schwartz-Zippel the
  per-trial failure probability is at most deg/p with deg bounded by the
  smaller matrix dimension (entries are at most linear in the parameters).

Every route starts from :func:`_compress`, which discards all-zero rows
and columns, so the working matrix is never larger than the number of
nonzero entries on a side, and numbers the rest in first-seen order.
What does not depend on the cut comes from the matrix's
:class:`~multirank.state.TermTable`, which a flattening shares with
every other flattening of its state: the denominators and parameter
names, so that a pass refuses a matrix before it fills an array, and the
residues.  ``TermTable.residues`` is the one place where amplitudes
become numbers, read as num * den^-1 mod p once per state and prime; a
modular pass (:func:`_pass`) fills its arrays from them through one
index array.  That is the row-cleared matrix with each row scaled by
s^-1 mod p, s the lcm of the row's denominators, which p does not
divide.  So every modular rank, pass count, certificate and generic
draw is the cleared matrix's.  The row lists that the term rank and the
Hadamard bound read are built only when a route reaches them.
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
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import PolicyMismatchError
from .flatten import FlattenedMatrix
from .gaussian import parse_integer
from .kernels import rank_mod_gaussian
from .state import TermTable

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
    upper bound closed it in ``certificate`` and the number of modular
    passes it took in ``primes``.  The certificate is "structural" when
    the value met the term rank (min(nonzero rows, nonzero cols) is its
    cheap first check), "product" when it met r(A)*r(B) for a split of
    the cut into two certified parts (profile runs only, see
    :mod:`multirank.profile`), and "hadamard" otherwise.
    """

    value: int
    mode: str  # "exact" | "modular" | "generic"
    certainty: str  # "exact" | "probabilistic"
    prime: Optional[int] = None
    trials: Optional[int] = None
    failure_bound: Optional[float] = None
    certificate: Optional[str] = None  # "structural" | "product" | "hadamard"
    primes: Optional[int] = None


@dataclass(frozen=True, slots=True)
class RankPolicy:
    """Which rank route to use; see :func:`rank_dispatch`."""

    kind: str  # "exact" | "fast" | "modular" | "generic"
    prime: Optional[int] = None
    trials: Optional[int] = None

    def __post_init__(self):
        if self.kind == "generic" and self.trials is None:
            object.__setattr__(self, "trials", DEFAULT_GENERIC_TRIALS)

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
            prime = "" if self.prime is None else f",{self.prime}"
            return f"generic:{self.trials}{prime}"
        return self.kind


def parse_policy(text: str) -> RankPolicy:
    """Parse the CLI policy syntax: exact | fast | mod:<p> | generic:<trials>,<p>.

    Each number is an optional ``-`` and ASCII digits.  The prime and the
    trial count are validated here, so that a bad policy is rejected
    before any state is read.
    """
    if text in ("exact", "fast"):
        return RankPolicy(text)
    if text == "generic":
        return RankPolicy.generic()
    if text.startswith("mod:"):
        prime = parse_integer(text[len("mod:") :], "prime")
        if prime is None:
            raise ValueError(f"malformed modular policy {text!r}")
        policy = RankPolicy.modular(prime)
    elif text.startswith("generic:"):
        parts = text[len("generic:") :].split(",")
        values = [parse_integer(part, what) for part, what in zip(parts, ("trials", "prime"))]
        if len(parts) > 2 or None in values:
            raise ValueError(f"malformed generic policy {text!r}")
        policy = RankPolicy.generic(*values)
    else:
        raise ValueError(f"unknown rank policy {text!r}")
    if policy.prime is not None:
        _check_prime(policy.prime)
    if policy.trials is not None and policy.trials < 1:
        raise ValueError(f"trials must be >= 1, got {policy.trials}")
    return policy


# ---------------------------------------------------------------------------
# Shared plumbing


class _Compressed(NamedTuple):
    """A matrix's nonzero rows and columns, each numbered in first-seen order.

    Entry k of ``matrix.entries`` lies at row r and column c of the
    compressed matrix, with ``at[k] = r * cols + c``: one index array,
    through which a pass fills.  ``table`` holds the entries' amplitudes
    in the same order.
    """

    rows: int
    cols: int
    at: np.ndarray
    table: TermTable


def _compress(matrix: FlattenedMatrix) -> _Compressed:
    """Number the nonzero rows and cols of ``matrix`` in first-seen order.

    First-seen order, not sorted order: the kernel swaps in a lone pivot
    with no arithmetic, and sorted order doubled its time on ``wide12``.
    """
    col_of: dict[int, int] = {}
    c = [col_of.setdefault(j, len(col_of)) for _, j in matrix.entries]
    cols = len(col_of)
    row_of: dict[int, int] = {}
    at = [
        row_of.setdefault(i, len(row_of)) * cols + j
        for (i, _), j in zip(matrix.entries, c)
    ]
    return _Compressed(len(row_of), cols, np.array(at, dtype=np.intp), matrix.table)


def _rows(compressed: _Compressed) -> list[list]:
    """Per nonzero row, in first-seen order, ``[(col, amplitude), ...]``."""
    rows: list[list] = [[] for _ in range(compressed.rows)]
    for k, a in zip(compressed.at.tolist(), compressed.table.amplitudes):
        r, c = divmod(k, compressed.cols)
        rows[r].append((c, a))
    return rows


def _pass(compressed: _Compressed, p: int, assignment=None) -> int:
    """Rank mod p of the compressed matrix, parameters set by ``assignment``.

    A parameter reads as its drawn value.  Before anything is allocated,
    a parametric matrix without an assignment raises
    :class:`PolicyMismatchError` and then a p that divides a denominator
    raises :class:`PrimeClashError` (from the table's residues), so the
    error does not depend on term order.
    """
    rows, cols, at, table = compressed
    if table.names and assignment is None:
        raise PolicyMismatchError("matrix has parametric entries; use the generic policy")
    residues = table.residues(p)
    re = np.zeros(rows * cols, dtype=np.int64)
    im = np.zeros(rows * cols, dtype=np.int64)
    re[at], im[at] = residues
    for k in table.params:
        re[at[k]], im[at[k]] = assignment[table.amplitudes[k].name]
    return int(rank_mod_gaussian(re.reshape(rows, cols), im.reshape(rows, cols), p))


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


def _admissible_primes(dens, table=PRIMES_3_MOD_4):
    """Primes p == 3 (mod 4) below 2**31 that divide none of ``dens``.

    First ``table`` in its order, then the smaller primes, descending.
    """
    below = (p for p in range(PRIMES_3_MOD_4[-1] - 4, 2, -4) if _is_prime(p))
    for p in chain(table, below):
        if all(d % p for d in dens):
            yield p


def modular_rank(matrix: FlattenedMatrix, p: int) -> RankResult:
    """Rank over GF(p)[i]; a guaranteed lower bound for the exact rank."""
    _check_prime(p)
    value = _pass(_compress(matrix), p)
    return RankResult(value, mode="modular", certainty="probabilistic", prime=p)


# ---------------------------------------------------------------------------
# Exact route


def _term_rank(rows) -> int:
    """Largest matching between the compressed rows and their columns.

    Every matrix with this support, at any parameter values, has rank at
    most its term rank: a nonzero k-minor has a nonzero term in its
    expansion, which is a matching of size k.  One augmenting-path search
    per row (Kuhn), run with an explicit stack so that a long path cannot
    exhaust the interpreter's recursion limit.  A search that fails
    leaves the matching unchanged, so the columns it visited stay dead
    until the next augmentation and ``seen`` is cleared only then.
    """
    support = [[c for c, _ in row] for row in rows]
    owner: dict[int, int] = {}  # column -> the row matched to it
    seen: set[int] = set()
    for start in range(len(support)):
        stack = [(start, iter(support[start]))]
        path: list[int] = []  # path[k]: the column that stack[k]'s row takes
        while stack:
            for c in stack[-1][1]:
                if c in seen:
                    continue
                seen.add(c)
                path.append(c)
                if c not in owner:
                    for (r, _), col in zip(stack, path):
                        owner[col] = r
                    seen.clear()
                    stack = []
                else:
                    stack.append((owner[c], iter(support[owner[c]])))
                break
            else:
                stack.pop()
                if path:
                    path.pop()
    return len(owner)


def exact_rank(
    matrix: FlattenedMatrix, upper: Optional[Callable[[], Optional[int]]] = None
) -> RankResult:
    """Rank over the Gaussian rationals, certified by modular passes alone.

    Each admissible prime p (see :func:`_admissible_primes`) gives a
    modular rank, and the largest seen so far, r, is a lower bound on the
    exact rank.  The loop stops when r meets an upper bound:

    * "structural": min(nonzero rows, nonzero cols), checked after every
      pass, or, once a pass falls below it, the term rank
      (:func:`_term_rank`), computed once.
    * "product": ``upper()``, a proven upper bound supplied by the caller
      (see :mod:`multirank.profile`), called at most once and only when
      a pass falls below the term rank.  ``None`` means no bound.
    * "hadamard": the product P of the primes used satisfies P**2 > H,
      with H the product of the r + 1 largest squared row norms of the
      Gaussian-integer matrix with each row cleared by its own denominators' lcm.

    A parametric entry raises :class:`PolicyMismatchError` in the first
    pass.

    Proof of the term-rank bound.  Every nonzero k-minor has a nonzero
    term in its Leibniz expansion, whose k entries lie in distinct rows
    and columns of the support: a matching of size k.

    Proof of the Hadamard bound.  A pass reads each cleared row scaled by
    s^-1 mod p (see the module docstring), so the cleared matrix has the
    same rank mod p, at most r.  Every (r+1)-minor of it is therefore a
    Gaussian integer divisible by p: a prime p == 3 (mod 4) stays prime
    in Z[i], so Z[i]/(p) is the field GF(p)[i].  Distinct rational primes
    are coprime in Z[i], so P divides every (r+1)-minor, and a nonzero
    one has modulus at least P.  By Hadamard's inequality its squared
    modulus is at most H < P**2, so every (r+1)-minor is zero and the
    rank is r.  When a prime raises r, the earlier primes still gave
    ranks <= r, so P keeps them.
    """
    compressed = _compress(matrix)
    if not compressed.rows:
        return RankResult(
            0, mode="exact", certainty="exact", certificate="structural", primes=0
        )
    value, product, norms = 0, 1, None
    ceiling, certificate = min(compressed.rows, compressed.cols), "structural"
    for passes, p in enumerate(_admissible_primes(compressed.table.dens), start=1):
        value = max(value, _pass(compressed, p))
        if value == ceiling:
            break
        if passes == 1:
            rows = _rows(compressed)
            ceiling = _term_rank(rows)
            bound = None if value == ceiling or upper is None else upper()
            if bound is not None and bound < ceiling:
                ceiling, certificate = bound, "product"
            if value == ceiling:
                break
        if norms is None:
            norms = []
            for row in rows:
                parts = [q for _, a in row for q in (a.re, a.im)]
                s = lcm(*(q.denominator for q in parts))
                norms.append(sum((q.numerator * (s // q.denominator)) ** 2 for q in parts))
            norms.sort(reverse=True)
        product *= p
        if product * product > prod(norms[: value + 1]):
            break
    if value < ceiling:
        certificate = "hadamard"
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
    is the same pass, so only the first runs.  The trials also stop once
    the value meets the term rank (:func:`_term_rank`, computed once
    after the first trial), which bounds the rank at every parameter
    value, so no later trial could raise it.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = random.Random(f"generic:{seed}")
    compressed = _compress(matrix)
    names = compressed.table.names
    if p is None:
        table = list(PRIMES_3_MOD_4)
        rng.shuffle(table)
        p = next(_admissible_primes(compressed.table.dens, table))
    else:
        _check_prime(p)
    best, ceiling = 0, min(compressed.rows, compressed.cols)
    for trial in range(trials):
        assignment = {
            name: (rng.randrange(p), rng.randrange(p)) for name in names
        }
        best = max(best, _pass(compressed, p, assignment))
        if best == ceiling or not names:
            break
        if trial == 0:
            ceiling = _term_rank(_rows(compressed))
            if best == ceiling:
                break
    per_trial = min(Fraction(min(compressed.rows, compressed.cols), p), 1)
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
    matrix: FlattenedMatrix,
    policy: RankPolicy,
    seed: object = 0,
    upper: Optional[Callable[[], Optional[int]]] = None,
) -> RankResult:
    """Run one matrix through the policy; exact and fast both run
    :func:`exact_rank`, which alone uses ``upper``, a zero-argument
    callable giving a proven upper bound on the rank or None.  Only the
    generic route draws from ``seed``."""
    if policy.kind in ("exact", "fast"):
        return exact_rank(matrix, upper)
    if policy.kind == "generic":
        return generic_rank(matrix, trials=policy.trials, p=policy.prime, seed=seed)
    if policy.kind == "modular":
        if policy.prime is None:
            raise ValueError("modular policy needs an explicit prime")
        return modular_rank(matrix, policy.prime)
    raise ValueError(f"unknown rank policy kind {policy.kind!r}")
