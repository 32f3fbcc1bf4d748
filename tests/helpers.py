"""Shared constructions for the test suite.

Random states, random invertible local matrices and their action on one
party, the four reference states exercised throughout, known-answer
families (qubit graph states, qubit and qudit Dicke states, and the
states of linear codes) with their closed-form cut ranks, builders for
dense matrices, transposes and line-grammar text, the flattening's
per-term index map (:func:`row_col_of`), and reference ranks
that share no code with the library's routes: fraction-free Bareiss
elimination, exhaustive minors and plain elimination over GF(p)[i].  An
exhaustive term rank checks the structural bound.  Every generator takes
an explicit ``random.Random`` so tests stay reproducible.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cache
from itertools import combinations, product
from math import lcm
from typing import Sequence

from multirank import (
    Bipartition,
    FlattenedMatrix,
    GaussianRational,
    InvalidStateError,
    Parameter,
    PolicyMismatchError,
    QuditDims,
    StateTensor,
    build_state,
)
from multirank.gaussian import _is_int, as_amplitude
from multirank.state import MultiIndex

GaussInt = tuple[int, int]


def _has_parameters(matrix: FlattenedMatrix) -> bool:
    return any(isinstance(a, Parameter) for a in matrix.entries.values())


def row_col_of(
    index: MultiIndex, bipartition: Bipartition, dims: QuditDims
) -> tuple[int, int]:
    """Map one multi-index to its (row, col) position in the flattening."""
    row = 0
    for j in bipartition.parties:
        row = row * dims.dims[j - 1] + index[j - 1]
    col = 0
    for j in bipartition.complement:
        col = col * dims.dims[j - 1] + index[j - 1]
    return row, col


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


def graph_state(n: int, edges) -> StateTensor:
    """The qubit graph state: amplitude (-1)^(sum over edges of x_i x_j).

    ``edges`` are pairs of 1-based parties.
    """
    terms = [
        (x, (-1) ** sum(x[i - 1] & x[j - 1] for i, j in edges))
        for x in product((0, 1), repeat=n)
    ]
    return build_state((2,) * n, terms)


def graph_cut_rank(edges, parties) -> int:
    """2 ** (rank over GF(2) of the adjacency block between the cut's sides).

    Hein, Eisert & Briegel, Phys. Rev. A 69, 062311 (2004).
    """
    side = set(parties)
    rows = dict.fromkeys(side, 0)  # party in the cut -> its crossing edges as bits
    for i, j in edges:
        if (i in side) != (j in side):
            inner, outer = (i, j) if i in side else (j, i)
            rows[inner] ^= 1 << outer
    basis: list[int] = []  # no row holds the leading bit of an earlier one
    for row in rows.values():
        for b in basis:
            row = min(row, row ^ b)
        if row:
            basis.append(row)
    return 2 ** len(basis)


def dicke_state(n: int, m: int) -> StateTensor:
    """D(n, m): every n-qubit ket with m ones, each with amplitude 1."""
    return build_state((2,) * n, [(x, 1) for x in product((0, 1), repeat=n) if sum(x) == m])


def dicke_cut_rank(n: int, m: int, k: int) -> int:
    """Rank of D(n, m) across a cut of k parties: D(n, m) is the sum over j
    of D(k, j) (x) D(n - k, m - j), one term per j that both sides allow."""
    return min(k, m, n - k, n - m) + 1


def qudit_dicke_state(m: Sequence[int]) -> StateTensor:
    """D(m): every distinct permutation of the ket holding m[t] copies of
    level t, each with amplitude 1; d = len(m) levels on sum(m) parties."""
    n, d = sum(m), len(m)
    kets = [x for x in product(range(d), repeat=n) if all(x.count(t) == c for t, c in enumerate(m))]
    return build_state((d,) * n, [(x, 1) for x in kets])


def qudit_dicke_cut_rank(m: Sequence[int], k: int) -> int:
    """Rank of D(m) across a cut of k parties: D(m) is the sum over j of
    D(j) (x) D(m - j), one term per j with sum(j) = k and 0 <= j <= m."""
    return sum(sum(j) == k for j in product(*(range(c + 1) for c in m)))


def _codewords(generator: Sequence[Sequence[int]], q: int) -> set[tuple[int, ...]]:
    """The linear code {x G mod q} spanned by the rows of ``generator``."""
    return {
        tuple(sum(a * g for a, g in zip(x, column)) % q for column in zip(*generator))
        for x in product(range(q), repeat=len(generator))
    }


def code_state(generator: Sequence[Sequence[int]], q: int) -> StateTensor:
    """The sum of |c> over the codewords c of the code over GF(q), q prime."""
    return build_state((q,) * len(generator[0]), [(c, 1) for c in _codewords(generator, q)])


def code_cut_rank(generator: Sequence[Sequence[int]], q: int, parties) -> int:
    """|C| / (|C_S| * |C_T|) for the cut S = ``parties`` and T its complement,
    with C_S the codewords that vanish off S.

    Helwig, Cui, Latorre, Riera & Lo, Phys. Rev. A 86, 052335 (2012).
    """
    code = _codewords(generator, q)
    outside = [i for i in range(len(generator[0])) if i + 1 not in parties]
    in_s = sum(all(c[i] == 0 for i in outside) for c in code)
    in_t = sum(all(c[j - 1] == 0 for j in parties) for c in code)
    return len(code) // (in_s * in_t)


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
    """Swap rows and columns."""
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


def apply_local_operation(
    state: StateTensor,
    site: int,
    matrix: Sequence[Sequence[object]],
) -> StateTensor:
    """Apply an exact d x d matrix to one tensor factor.

    ``site`` is the 1-based party label.  Acting on a term ``c|i>`` at
    that site produces ``sum_k c * A[k][i] |k>``.  Each row is a list or
    tuple of values that ``as_amplitude`` reads, parameters excepted.
    Invertible matrices leave every flattening rank unchanged; that is
    verified by the test suite, not assumed here.
    """
    if not _is_int(site):
        raise InvalidStateError(f"site must be an integer, got {site!r}")
    if not 1 <= site <= state.dims.n:
        raise InvalidStateError(f"site {site} out of range for {state.dims.n} parties")
    d = state.dims.dims[site - 1]
    rows = []
    try:
        for row in matrix:
            if not isinstance(row, (list, tuple)):
                raise TypeError(f"row {row!r} is not a list or tuple")
            rows.append([as_amplitude(v) for v in row])
    except (TypeError, ValueError) as exc:
        raise InvalidStateError(f"matrix for site {site}: {exc}") from None
    if len(rows) != d or any(len(row) != d for row in rows):
        raise InvalidStateError(f"matrix must be {d}x{d} for site {site}")
    if state.has_parameters or any(isinstance(v, Parameter) for row in rows for v in row):
        raise InvalidStateError(
            "local operations with parameters are not representable "
            "in the amplitude model"
        )
    axis = site - 1
    return build_state(
        state.dims,
        (
            (index[:axis] + (k,) + index[axis + 1 :], rows[k][index[axis]] * amp)
            for index, amp in state.terms.items()
            for k in range(d)
            if not rows[k][index[axis]].is_zero
        ),
    )


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


def gf_rank(re, im, p):
    """Rank over GF(p)[i] by plain elimination on Python ints, row by row."""
    rows, cols = re.shape
    m = [[(int(re[r, c]), int(im[r, c])) for c in range(cols)] for r in range(rows)]
    rank = 0
    for col in range(cols):
        piv = next((r for r in range(rank, rows) if m[r][col] != (0, 0)), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        a, b = m[rank][col]
        norm_inv = pow(a * a + b * b, -1, p)
        inv = (a * norm_inv % p, -b * norm_inv % p)
        for r in range(rank + 1, rows):
            x, y = m[r][col]
            gr, gi = (x * inv[0] - y * inv[1]) % p, (x * inv[1] + y * inv[0]) % p
            m[r] = [
                ((u - gr * s + gi * t) % p, (v - gr * t - gi * s) % p)
                for (u, v), (s, t) in zip(m[r], m[rank])
            ]
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


def oracle_term_rank(matrix: FlattenedMatrix) -> int:
    """Most nonzero entries in distinct rows and columns, by exhaustive search.

    Test oracle for ``rank._term_rank``: each row in turn is either left
    out or takes one free column of its support, and every choice is
    tried.  Parametric entries count as nonzero.
    """
    support: dict[int, list[int]] = {}
    for r, c in matrix.entries:
        support.setdefault(r, []).append(c)
    rows = list(support.values())

    @cache
    def best(i: int, used: frozenset) -> int:
        if i == len(rows):
            return 0
        found = best(i + 1, used)
        for c in rows[i]:
            if c not in used:
                found = max(found, 1 + best(i + 1, used | {c}))
        return found

    return best(0, frozenset())


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
