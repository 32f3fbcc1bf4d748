"""Seeded inputs for the benchmark workloads.

Each generated workload is one state written as a ``.state`` file in the
line grammar.  The generator depends only on the workload seed and on
this file, never on multirank itself, so later changes to the program
cannot change the inputs it is measured on.  ``reference`` is the five
shipped sample states with their outputs pinned in README and tests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Job:
    """One CLI invocation: a state file, extra flags and its expected stdout."""

    path: Path
    flags: tuple[str, ...] = ()
    expected: str | None = None  # None: the ``--rank exact`` output decides

    def argv(self) -> list[str]:
        return [str(self.path), *self.flags]


# Outputs pinned by README.md and tests/test_cli.py.  The verdict lines of
# qutrit3 and ghz6_qutrit_plus follow from their pinned profiles (every
# rank exceeds 1, hence GME).
REFERENCE = (
    ("w3.state", (), "{{2, 2, 2}}\nverdict: GME\n"),
    ("cluster4.state", (), "{{2, 2, 2, 2}, {2, 4, 4, 4, 4, 2}}\nverdict: GME\n"),
    ("qutrit3.state", (), "{{3, 3, 3}}\nverdict: GME\n"),
    (
        "ghz6_qutrit_plus.state",
        (),
        "{{3, 3, 3, 3, 3, 3}, "
        "{3, 4, 4, 4, 4, 4, 4, 4, 4, 3, 4, 4, 4, 4, 3}, "
        "{4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4}}\n"
        "verdict: GME\n",
    ),
    ("param_ghz3.state", ("--rank", "generic"), "{{2, 2, 2}}\nverdict: GME (generic)\n"),
)


def _coeff(re: int, im: int) -> str:
    if im == 0:
        return str(re)
    return f"{re}{'+' if im > 0 else '-'}{abs(im)}i"


def render(dims: tuple[int, ...], terms: dict[tuple[int, ...], tuple[int, int]]) -> str:
    lines = ["dims " + " ".join(map(str, dims))]
    for ket in sorted(terms):
        lines.append(f"{_coeff(*terms[ket])} |{''.join(map(str, ket))}>")
    return "\n".join(lines) + "\n"


def support(rng: random.Random, n: int, count: int) -> list[tuple[int, ...]]:
    """``count`` distinct random n-qubit kets, drawn as in ``bench_kernels.py``."""
    kets = set()
    while len(kets) < count:
        kets.add(tuple(rng.randrange(2) for _ in range(n)))
    return sorted(kets)


def coefficient(rng: random.Random) -> tuple[int, int]:
    return rng.randint(-3, 3), rng.randint(1, 3)


def relabel(terms: dict, rng: random.Random) -> dict:
    """Permute the parties and flip bits on some of them.

    Both are local relabelings: they map the set of flattenings onto
    itself, each matrix to a row and column permutation of its image, so
    every rank, flattening count and fallback count is that of the input
    while the kets themselves change with the seed.
    """
    n = len(next(iter(terms)))
    order = list(range(n))
    rng.shuffle(order)
    flips = [rng.randrange(2) for _ in range(n)]
    return {
        tuple(ket[order[j]] ^ flips[j] for j in range(n)): amp
        for ket, amp in terms.items()
    }


# The nonzero pattern of every generated state is drawn once from this
# seed; the workload seed relabels it and draws fresh coefficients.  The
# pattern decides how many flattenings fall back to Bareiss and how large
# they are, so fixing it keeps a run's cost and counts the same from seed
# to seed (random patterns varied run_s by a factor of two on product10).
SHAPE_SEED = 2


def sparse10(rng: random.Random) -> str:
    """10 qubits, 60 terms, on the support of the ROADMAP baseline state."""
    kets = support(random.Random(SHAPE_SEED), 10, 60)
    return render((2,) * 10, relabel({k: coefficient(rng) for k in kets}, rng))


def product10(rng: random.Random) -> str:
    """Product of two 5-qubit, 8-term states on interleaved parties.

    Its rank deficits come from the product structure, that is from
    cancellation, which no bound on the nonzero pattern can certify; the
    cut between the two factors' parties has rank 1.
    """
    shape = random.Random(SHAPE_SEED)
    a = {k: coefficient(rng) for k in support(shape, 5, 8)}
    b = {k: coefficient(rng) for k in support(shape, 5, 8)}
    terms = {}
    for ka, (ar, ai) in a.items():
        for kb, (br, bi) in b.items():
            ket = tuple(x for pair in zip(ka, kb) for x in pair)
            terms[ket] = (ar * br - ai * bi, ar * bi + ai * br)
    return render((2,) * 10, relabel(terms, rng))


def wide12(rng: random.Random) -> str:
    """12 qubits, 12 terms: 2,509 flattenings of at most 12 x 12."""
    kets = support(random.Random(SHAPE_SEED), 12, 12)
    return render((2,) * 12, relabel({k: coefficient(rng) for k in kets}, rng))


GENERATORS = {"sparse10": sparse10, "product10": product10, "wide12": wide12}
WORKLOADS = ("reference", *GENERATORS)


def jobs(workload: str, seed: int, repo: Path, workdir: Path) -> list[Job]:
    """Write the workload's inputs for ``seed`` under ``workdir``."""
    if workload == "reference":
        states = repo / "states"
        return [Job(states / name, flags, out) for name, flags, out in REFERENCE]
    text = GENERATORS[workload](random.Random(seed))
    workdir.mkdir(parents=True, exist_ok=True)
    path = workdir / f"{workload}-{seed}.state"
    path.write_text(text, encoding="utf-8")
    return [Job(path)]
