"""Shared constructions for the test suite.

Random states, random invertible local matrices, the four reference
states exercised throughout, builders for dense matrices, transposes and
line-grammar text, and two reference ranks that share no code
with the library's modular routes: fraction-free Bareiss elimination and
exhaustive minors.  Every generator takes an explicit ``random.Random``
so tests stay reproducible.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import lcm

from multirank import (
    FlattenedMatrix,
    GaussianRational,
    Parameter,
    PolicyMismatchError,
    QuditDims,
    StateTensor,
    build_state,
)
from multirank.gaussian import as_amplitude

GaussInt = tuple[int, int]


def _has_parameters(matrix: FlattenedMatrix) -> bool:
    return any(isinstance(a, Parameter) for a in matrix.entries.values())


def w3() -> StateTensor:
    return build_state((2, 2, 2), [((0, 0, 1), 1), ((0, 1, 0), 1), ((1, 0, 0), 1)])


def cluster4() -> StateTensor:
    return build_state(
        (2, 2, 2, 2),
        [((0, 0, 0, 0), 1), ((0, 0, 1, 1), 1), ((1, 1, 0, 0), 1), ((1, 1, 1, 1), -1)],
    )


def qutrit3() -> StateTensor:
    return build_state(
        (3, 3, 3),
        [
            ((0, 0, 2), 1),
            ((0, 2, 0), 1),
            ((2, 0, 0), 1),
            ((0, 1, 1), 1),
            ((1, 0, 1), 1),
            ((1, 1, 0), 1),
        ],
    )


def ghz6_qutrit_plus() -> StateTensor:
    terms = [((k,) * 6, 1) for k in range(3)]
    terms.append(((0, 0, 1, 1, 2, 2), 1))
    return build_state((3,) * 6, terms)


REFERENCE_PROFILES = {
    "w3": (w3, [[2, 2, 2]]),
    "cluster4": (cluster4, [[2, 2, 2, 2], [2, 4, 4, 4, 4, 2]]),
    "qutrit3": (qutrit3, [[3, 3, 3]]),
    "ghz6_qutrit_plus": (
        ghz6_qutrit_plus,
        [[3] * 6, [3, 4, 4, 4, 4, 4, 4, 4, 4, 3, 4, 4, 4, 4, 3], [4] * 20],
    ),
}


def matrix_from_dense(rows) -> FlattenedMatrix:
    """A matrix from dense values (anything ``as_amplitude`` takes); zeros are dropped."""
    n_rows = len(rows)
    n_cols = len(rows[0]) if n_rows else 0
    entries = {}
    for r, row in enumerate(rows):
        if len(row) != n_cols:
            raise ValueError("ragged rows")
        for c, value in enumerate(row):
            amp = as_amplitude(value)
            if isinstance(amp, GaussianRational) and amp.is_zero:
                continue
            entries[(r, c)] = amp
    return FlattenedMatrix(rows=n_rows, cols=n_cols, entries=entries)


def transposed(matrix: FlattenedMatrix) -> FlattenedMatrix:
    """Swap rows and columns; the result carries no bipartition."""
    return FlattenedMatrix(
        rows=matrix.cols,
        cols=matrix.rows,
        entries={(c, r): a for (r, c), a in matrix.entries.items()},
    )


def serialize_state(state: StateTensor) -> str:
    """Render a state in the line grammar; it reparses term-identical."""
    lines = ["dims " + " ".join(str(d) for d in state.dims.dims)]
    digit_form = all(d <= 10 for d in state.dims.dims)
    for index in sorted(state.terms):
        ket = "".join(str(i) for i in index) if digit_form else ",".join(str(i) for i in index)
        lines.append(f"{state.terms[index]} |{ket}>")
    return "\n".join(lines) + "\n"


def gauss(re=0, im=0) -> GaussianRational:
    return GaussianRational(Fraction(re), Fraction(im))


def rand_gauss_int(rng: random.Random, lo: int = -3, hi: int = 3) -> GaussianRational:
    """Nonzero Gaussian integer with both parts in [lo, hi]."""
    while True:
        g = gauss(rng.randint(lo, hi), rng.randint(lo, hi))
        if not g.is_zero:
            return g


def rand_gauss_fraction(rng: random.Random, lo: int = -3, hi: int = 3) -> GaussianRational:
    """Nonzero Gaussian rational; each part has denominator in [1, 6]."""
    while True:
        g = gauss(
            Fraction(rng.randint(lo, hi), rng.randint(1, 6)),
            Fraction(rng.randint(lo, hi), rng.randint(1, 6)),
        )
        if not g.is_zero:
            return g


def rand_dims(rng: random.Random, max_n: int = 6, max_d: int = 3) -> tuple[int, ...]:
    n = rng.randint(2, max_n)
    return tuple(rng.randint(2, max_d) for _ in range(n))


def rand_state(
    rng: random.Random,
    max_n: int = 6,
    max_d: int = 3,
    max_terms: int = 20,
) -> StateTensor:
    dims = rand_dims(rng, max_n, max_d)
    space = 1
    for d in dims:
        space *= d
    count = rng.randint(1, min(max_terms, space))
    indices: set[tuple[int, ...]] = set()
    while len(indices) < count:
        indices.add(tuple(rng.randrange(d) for d in dims))
    return build_state(dims, [(idx, rand_gauss_int(rng)) for idx in indices])


def _rand_local_vector(rng: random.Random, d: int, max_support: int = 2):
    support = rng.sample(range(d), rng.randint(1, min(max_support, d)))
    return {i: rand_gauss_int(rng) for i in support}


def rand_product_state(rng: random.Random, max_n: int = 6, max_d: int = 3) -> StateTensor:
    """Explicit tensor product of random single-party vectors."""
    dims = rand_dims(rng, max_n, max_d)
    vectors = [_rand_local_vector(rng, d) for d in dims]
    terms = [((), gauss(1))]
    for vec in vectors:
        terms = [
            (idx + (i,), coeff * v) for idx, coeff in terms for i, v in vec.items()
        ]
    return build_state(dims, terms)


def rand_cut_product_state(
    rng: random.Random, max_n: int = 6, max_d: int = 3, coeff=rand_gauss_int
):
    """A state that is a product across one chosen cut.

    Returns (state, cut) with ``cut`` the sorted tuple of 1-based party
    labels on one side.  Either side may be internally entangled.  Each
    side's coefficients are drawn by ``coeff(rng)``.
    """
    n = rng.randint(3, max_n)
    dims = tuple(rng.randint(2, max_d) for _ in range(n))
    size = rng.randint(1, n - 1)
    cut = tuple(sorted(rng.sample(range(1, n + 1), size)))
    rest = tuple(j for j in range(1, n + 1) if j not in cut)

    def side_terms(parties):
        side_dims = [dims[j - 1] for j in parties]
        space = 1
        for d in side_dims:
            space *= d
        count = rng.randint(1, min(4, space))
        chosen: set[tuple[int, ...]] = set()
        while len(chosen) < count:
            chosen.add(tuple(rng.randrange(d) for d in side_dims))
        return {idx: coeff(rng) for idx in chosen}

    left, right = side_terms(cut), side_terms(rest)
    terms = []
    for li, lc in left.items():
        for ri, rc in right.items():
            full = [0] * n
            for pos, j in enumerate(cut):
                full[j - 1] = li[pos]
            for pos, j in enumerate(rest):
                full[j - 1] = ri[pos]
            terms.append((tuple(full), lc * rc))
    return build_state(dims, terms), cut


def matmul(a, b):
    """Exact product of two dense GaussianRational matrices."""
    rows, inner, cols = len(a), len(b), len(b[0])
    out = [[gauss(0)] * cols for _ in range(rows)]
    for r in range(rows):
        for k in range(inner):
            if a[r][k].is_zero:
                continue
            for c in range(cols):
                out[r][c] = out[r][c] + a[r][k] * b[k][c]
    return out


def rand_invertible_matrix(rng: random.Random, d: int):
    """L @ U with unit lower L and nonzero upper diagonal, rows permuted."""
    units = [gauss(1), gauss(-1), gauss(2), gauss(0, 1), gauss(1, 1)]
    small = lambda: gauss(rng.randint(-2, 2), rng.randint(-2, 2))
    lower = [[gauss(1) if r == c else (small() if r > c else gauss(0)) for c in range(d)] for r in range(d)]
    upper = [
        [rng.choice(units) if r == c else (small() if r < c else gauss(0)) for c in range(d)]
        for r in range(d)
    ]
    product = matmul(lower, upper)
    perm = list(range(d))
    rng.shuffle(perm)
    return [product[i] for i in perm]


def compressed_dense(matrix: FlattenedMatrix):
    """Drop empty rows/cols, test-side; used to feed the minors oracle."""
    row_ids = sorted({r for r, _ in matrix.entries})
    col_ids = sorted({c for _, c in matrix.entries})
    dense = [[gauss(0)] * len(col_ids) for _ in row_ids]
    for (r, c), amp in matrix.entries.items():
        dense[row_ids.index(r)][col_ids.index(c)] = amp
    return dense


def dims_of(state: StateTensor) -> QuditDims:
    return state.dims


# ---------------------------------------------------------------------------
# Reference ranks


def bareiss_rank(matrix: FlattenedMatrix) -> int:
    """Rank over the Gaussian rationals by fraction-free elimination.

    Each row is scaled by the lcm of its denominators (rank-invariant),
    then Bareiss elimination runs over the Gaussian integers: every 2x2
    cross-multiplication is exactly divisible by the previous pivot,
    which keeps entry growth polynomial instead of exponential.
    """
    if _has_parameters(matrix):
        raise PolicyMismatchError("Bareiss reference needs non-parametric entries")
    return _bareiss_rank(_cleared_integer_rows(matrix.rows, matrix.cols, matrix.entries))


def _cleared_integer_rows(rows: int, cols: int, entries) -> list[list[GaussInt]]:
    """Dense Gaussian-integer rows after per-row denominator clearing."""
    grid: list[list[GaussianRational]] = [
        [None] * cols for _ in range(rows)  # type: ignore[list-item]
    ]
    for (r, c), amp in entries.items():
        grid[r][c] = amp
    out = []
    for row in grid:
        scale = 1
        for amp in row:
            if amp is not None:
                scale = lcm(scale, amp.re.denominator, amp.im.denominator)
        out.append(
            [
                (0, 0)
                if amp is None
                else (int(amp.re * scale), int(amp.im * scale))
                for amp in row
            ]
        )
    return out


def _gdiv_exact(a: GaussInt, b: GaussInt) -> GaussInt:
    # a / b in Z[i]; Bareiss guarantees divisibility, assert it anyway.
    norm = b[0] * b[0] + b[1] * b[1]
    xr = a[0] * b[0] + a[1] * b[1]
    xi = a[1] * b[0] - a[0] * b[1]
    qr, rr = divmod(xr, norm)
    qi, ri = divmod(xi, norm)
    if rr or ri:
        raise ArithmeticError("inexact Gaussian-integer division in Bareiss step")
    return (qr, qi)


def _bareiss_rank(mat: list[list[GaussInt]]) -> int:
    """Fraction-free elimination over Z[i]; mutates and returns the rank."""
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    rank = 0
    prev: GaussInt = (1, 0)
    for col in range(cols):
        if rank == rows:
            break
        piv = next((i for i in range(rank, rows) if mat[i][col] != (0, 0)), None)
        if piv is None:
            continue
        if piv != rank:
            mat[rank], mat[piv] = mat[piv], mat[rank]
        pivot = mat[rank][col]
        for i in range(rank + 1, rows):
            # the pivot rescale applies even when factor is zero, or the
            # exact-division invariant breaks at later steps
            factor = mat[i][col]
            row_i = mat[i]
            row_p = mat[rank]
            for j in range(col + 1, cols):
                num = (
                    pivot[0] * row_i[j][0] - pivot[1] * row_i[j][1]
                    - factor[0] * row_p[j][0] + factor[1] * row_p[j][1],
                    pivot[0] * row_i[j][1] + pivot[1] * row_i[j][0]
                    - factor[0] * row_p[j][1] - factor[1] * row_p[j][0],
                )
                row_i[j] = _gdiv_exact(num, prev) if prev != (1, 0) else num
            row_i[col] = (0, 0)
        prev = pivot
        rank += 1
    return rank


def oracle_rank_minors(matrix: FlattenedMatrix) -> int:
    """Largest k with a nonzero k x k minor, by exhaustive expansion.

    Test oracle, deliberately independent of the elimination routes;
    restricted to matrices no larger than 6 on either side.
    """
    if matrix.rows > 6 or matrix.cols > 6:
        raise ValueError("minor oracle is restricted to dimensions <= 6")
    if _has_parameters(matrix):
        raise PolicyMismatchError("minor oracle needs non-parametric entries")
    zero = gauss(0)
    dense = [[zero] * matrix.cols for _ in range(matrix.rows)]
    for (r, c), amp in matrix.entries.items():
        dense[r][c] = amp
    for k in range(min(matrix.rows, matrix.cols), 0, -1):
        for row_ids in combinations(range(matrix.rows), k):
            for col_ids in combinations(range(matrix.cols), k):
                sub = [[dense[r][c] for c in col_ids] for r in row_ids]
                if not _determinant(sub).is_zero:
                    return k
    return 0


def _determinant(sub: list[list[GaussianRational]]) -> GaussianRational:
    n = len(sub)
    if n == 1:
        return sub[0][0]
    total = gauss(0)
    for j, top in enumerate(sub[0]):
        if top.is_zero:
            continue
        minor = [row[:j] + row[j + 1 :] for row in sub[1:]]
        term = top * _determinant(minor)
        total = total - term if j % 2 else total + term
    return total
