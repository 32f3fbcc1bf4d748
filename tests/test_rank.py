"""Rank routes: exact (certified modular), modular GF(p)[i], generic, and dispatch.

The minors oracle and Bareiss elimination in ``helpers`` are the
independent references: they never touch the modular code paths they
are used to check.
"""

import random
import time
from fractions import Fraction
from math import isqrt, prod

import numpy as np
import pytest

import multirank.rank as rank_module
from multirank import (
    FlattenedMatrix,
    PolicyMismatchError,
    PrimeClashError,
    RankPolicy,
    RankResult,
    build_state,
    enumerate_bipartitions,
    exact_rank,
    flatten,
    generic_rank,
    modular_rank,
    multirank_profile,
    parse_policy,
    parse_state,
    rank_dispatch,
)
from multirank.rank import PRIMES_3_MOD_4
from helpers import (
    _cleared_integer_rows,
    bareiss_rank,
    gauss,
    gf_rank,
    matrix_from_dense,
    oracle_rank_minors,
    oracle_term_rank,
    rand_cut_product_state,
    rand_gauss_fraction,
    rand_gauss_int,
    rand_state,
    transposed,
    w3,
)


def rand_matrix(rng, max_dim=6, lo=-3, hi=3, density=0.7):
    rows = rng.randint(1, max_dim)
    cols = rng.randint(1, max_dim)
    return matrix_from_dense(
        [
            [
                (rng.randint(lo, hi), rng.randint(lo, hi))
                if rng.random() < density
                else 0
                for _ in range(cols)
            ]
            for _ in range(rows)
        ]
    )


def w_flattening(position=0):
    return flatten(w3(), enumerate_bipartitions(w3().dims, 1)[position])


class TestOracle:
    def test_identity(self):
        assert oracle_rank_minors(matrix_from_dense([[1, 0], [0, 1]])) == 2

    def test_proportional_rows(self):
        assert oracle_rank_minors(matrix_from_dense([[1, 2], [2, 4]])) == 1

    def test_zero_matrix(self):
        assert oracle_rank_minors(matrix_from_dense([[0, 0], [0, 0]])) == 0

    def test_w_flattening_second_cut(self):
        assert oracle_rank_minors(w_flattening(1)) == 2

    def test_rejects_large(self):
        with pytest.raises(ValueError):
            oracle_rank_minors(matrix_from_dense([[1] * 7]))


class TestExactRank:
    def test_identity_full_rank(self):
        r = exact_rank(matrix_from_dense([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
        assert (r.value, r.mode, r.certainty) == (3, "exact", "exact")

    def test_zero_matrix(self):
        from multirank import FlattenedMatrix

        assert exact_rank(FlattenedMatrix(2, 4, {})).value == 0

    @pytest.mark.parametrize(
        "route,expected",
        [
            (
                lambda m: modular_rank(m, 7),
                RankResult(0, mode="modular", certainty="probabilistic", prime=7),
            ),
            (
                generic_rank,
                RankResult(
                    0, mode="generic", certainty="probabilistic", prime=2147483059,
                    trials=8, failure_bound=0.0,
                ),
            ),
            (
                exact_rank,
                RankResult(
                    0, mode="exact", certainty="exact", certificate="structural", primes=0
                ),
            ),
        ],
        ids=["modular", "generic", "exact"],
    )
    def test_zero_matrix_on_every_route(self, route, expected):
        from multirank import FlattenedMatrix

        assert route(FlattenedMatrix(2, 4, {})) == expected

    def test_w_flattening(self):
        assert exact_rank(w_flattening()).value == 2

    def test_cluster4_mixed_cut(self):
        state = parse_state(
            "dims 2 2 2 2 ; +1 |0000> ; +1 |0011> ; +1 |1100> ; -1 |1111>"
        )
        bp = enumerate_bipartitions(state.dims, 2)[1]  # parties (1, 3)
        assert exact_rank(flatten(state, bp)).value == 4

    def test_rejects_parameters(self):
        with pytest.raises(PolicyMismatchError):
            exact_rank(matrix_from_dense([["a", 0], [0, 1]]))

    def test_agrees_with_oracle_on_random_matrices(self):
        rng = random.Random(101)
        for _ in range(300):
            matrix = rand_matrix(rng)
            assert exact_rank(matrix).value == oracle_rank_minors(matrix)

    def test_rational_entries(self):
        # det = 1/2 * 2 - 1/3 * 3/2 = 1/2, full rank
        matrix = matrix_from_dense(
            [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), 2]]
        )
        assert exact_rank(matrix).value == oracle_rank_minors(matrix) == 2
        # det = 1/2 * 1 - 1/3 * 3/2 = 0, rank deficient
        singular = matrix_from_dense(
            [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), 1]]
        )
        assert exact_rank(singular).value == oracle_rank_minors(singular) == 1

    def test_transpose_invariance(self):
        rng = random.Random(7)
        for _ in range(100):
            matrix = rand_matrix(rng)
            assert exact_rank(matrix).value == exact_rank(transposed(matrix)).value

    def test_row_scaling_and_permutation_invariance(self):
        rng = random.Random(19)
        for _ in range(60):
            matrix = rand_matrix(rng, max_dim=5)
            base = exact_rank(matrix).value
            dense = [[matrix.entries.get((r, c), 0) for c in range(matrix.cols)] for r in range(matrix.rows)]
            rows = []
            for row in dense:
                scale = rand_gauss_int(rng, -2, 2)  # nonzero Gaussian int: rank-safe
                rows.append([scale * v if v != 0 else 0 for v in row])
            rng.shuffle(rows)
            cols_order = list(range(matrix.cols))
            rng.shuffle(cols_order)
            rows = [[row[c] for c in cols_order] for row in rows]
            assert exact_rank(matrix_from_dense(rows)).value == base


class TestCertificate:
    """exact_rank on matrices that its first modular pass does not settle."""

    @pytest.mark.parametrize(
        "dense,certificate",
        [
            (lambda P: [[P, 0], [0, 1]], "structural"),
            # rank 2 of 3: the 21st prime raises r to 2 and certifies it
            # only because the table primes stay in the product
            (lambda P: [[P, 0, 0], [0, 1, 1], [0, 1, 1]], "hadamard"),
            # det = P with both squared row norms near P: a bound over r
            # rows instead of r + 1 would stop at rank 1 after 11 primes
            (
                lambda P: [[isqrt(P) + 1, (isqrt(P) + 1) ** 2 - P], [1, isqrt(P) + 1]],
                "structural",
            ),
        ],
        ids=["diagonal", "raised-rank", "balanced-rows"],
    )
    def test_every_table_prime_undershoots(self, monkeypatch, dense, certificate):
        import multirank.rank as rank_module

        primes = []
        kernel = rank_module.rank_mod_gaussian

        def spy(re, im, p):
            primes.append(p)
            return kernel(re, im, p)

        monkeypatch.setattr(rank_module, "rank_mod_gaussian", spy)
        result = exact_rank(matrix_from_dense(dense(prod(PRIMES_3_MOD_4))))
        assert (result.value, result.certainty) == (2, "exact")
        assert sorted(primes[:20]) == sorted(PRIMES_3_MOD_4)
        assert len(primes) == 21 and primes[-1] < min(PRIMES_3_MOD_4)
        assert (result.certificate, result.primes) == (certificate, 21)

    def test_primes_follow_the_table_order(self, monkeypatch):
        import multirank.rank as rank_module

        primes = []
        kernel = rank_module.rank_mod_gaussian

        def spy(re, im, p):
            primes.append(p)
            return kernel(re, im, p)

        monkeypatch.setattr(rank_module, "rank_mod_gaussian", spy)
        result = exact_rank(matrix_from_dense([[PRIMES_3_MOD_4[0], 0], [0, 1]]))
        assert primes == list(PRIMES_3_MOD_4[:2])
        assert (result.value, result.certificate, result.primes) == (2, "structural", 2)

    def test_result_ignores_row_col_and_entry_order(self):
        rng = random.Random(83)
        for _ in range(60):
            matrix = rand_matrix(rng, max_dim=5)
            row_perm = rng.sample(range(matrix.rows), matrix.rows)
            col_perm = rng.sample(range(matrix.cols), matrix.cols)
            entries = {
                (row_perm[r], col_perm[c]): a
                for (r, c), a in reversed(list(matrix.entries.items()))
            }
            shuffled = FlattenedMatrix(matrix.rows, matrix.cols, entries)
            assert exact_rank(shuffled) == exact_rank(matrix)

    def test_rational_cancellation_deficit(self):
        row = [gauss(Fraction(1, 2)), gauss(Fraction(1, 3), 1), gauss(0, Fraction(-5, 7))]
        scale = gauss(Fraction(3, 2), Fraction(-1, 4))
        matrix = matrix_from_dense([row, [scale * x for x in row]])
        assert bareiss_rank(matrix) == 1
        assert exact_rank(matrix).value == 1

    def test_agrees_with_bareiss_on_fractional_cut_products(self):
        rng = random.Random(4242)
        deficits = 0
        for k in range(40):
            state, _ = rand_cut_product_state(rng, max_n=5, coeff=rand_gauss_fraction)
            for level in range(1, state.dims.n // 2 + 1):
                for bp in enumerate_bipartitions(state.dims, level):
                    matrix = flatten(state, bp)
                    result = exact_rank(matrix)
                    value = result.value
                    assert value == bareiss_rank(matrix)
                    rows = len({r for r, _ in matrix.entries})
                    cols = len({c for _, c in matrix.entries})
                    deficits += value < min(rows, cols)
                    assert result.certificate == (
                        "hadamard" if value < oracle_term_rank(matrix) else "structural"
                    )
                    assert result.primes >= 1
        assert deficits >= 50

    def test_norms_use_each_row_own_denominators(self):
        # row 0 clears to (1, 1), so H = 2 * 2 and one prime certifies
        # rank 1; clearing every row by 2**200 would make H = 2**402 and
        # take seven primes
        tiny = Fraction(1, 2**200)
        result = exact_rank(matrix_from_dense([[tiny, tiny], [1, 1]]))
        assert (result.value, result.certificate, result.primes) == (1, "hadamard", 1)


    def test_norms_are_the_squared_norms_of_the_cleared_rows(self):
        # the Hadamard bound reads the table's integers: entry (x + iy)/d of
        # a row clears to (s/d)(x + iy), s the lcm of that row's d alone
        rng = random.Random(67)
        mixed = 0
        for _ in range(200):
            rows, cols = rng.randint(1, 5), rng.randint(1, 6)
            matrix = matrix_from_dense(
                [[rand_gauss_fraction(rng) if rng.random() < 0.7 else 0 for _ in range(cols)]
                 for _ in range(rows)]
            )
            compressed = rank_module._compress(matrix)
            cleared = _cleared_integer_rows(matrix.rows, cols, matrix.entries)
            squares = (sum(x * x + y * y for x, y in row) for row in cleared)
            expected = sorted((n for n in squares if n), reverse=True)
            assert rank_module._norms(rank_module._rows(compressed), compressed.table) == expected
            mixed += len(compressed.table.dens) > 1
        assert mixed >= 100


class TestTermRank:
    """The structural bound: a maximum matching on the nonzero pattern."""

    def test_between_rank_and_nonzero_lines_on_random_sparse_matrices(self):
        # every other pattern lies on one row and one column, a cross with
        # term rank at most 2 and often more nonzero lines than that
        rng = random.Random(97)
        below_min = 0
        for k in range(300):
            height, width = rng.randint(1, 6), rng.randint(1, 6)
            cross = rng.randrange(height), rng.randrange(width)
            matrix = matrix_from_dense(
                [
                    [
                        rand_gauss_int(rng)
                        if rng.random() < 0.7 and (k % 2 or cross[0] == r or cross[1] == c)
                        else 0
                        for c in range(width)
                    ]
                    for r in range(height)
                ]
            )
            compressed = rank_module._compress(matrix)
            rows, cols = rank_module._rows(compressed), compressed.cols
            term = rank_module._term_rank(rows)
            assert bareiss_rank(matrix) <= term == oracle_term_rank(matrix)
            assert term <= min(len(rows), cols)
            below_min += term < min(len(rows), cols)
        assert below_min >= 30

    def test_full_support_deficit_closes_by_hadamard(self):
        # rank 1 and term rank 2: only the multi-prime bound proves it
        state = parse_state("dims 2 2 ; 1 |00> ; 1 |01> ; 1 |10> ; 1 |11>")
        for level in multirank_profile(state).levels:
            for _, result in level:
                assert (result.value, result.certificate) == (1, "hadamard")

    def test_long_augmenting_path_needs_no_recursion(self):
        # rows i < n - 1 each take column i + 1 first, so row n - 1, whose
        # only column is n - 1, augments along a path through all n rows;
        # the extra rows of the tall matrix then fail on a visited column
        n, one = 1500, gauss(1)
        entries = {}
        for i in range(n - 1):
            entries[(i, i + 1)] = entries[(i, i)] = one
        for r in range(n - 1, n + 100):
            entries[(r, n - 1)] = one
        rows = rank_module._rows(rank_module._compress(FlattenedMatrix(n + 100, n, entries)))
        assert rank_module._term_rank(rows) == n


class TestModularRank:
    def test_invertible_mod_three(self):
        assert modular_rank(matrix_from_dense([[2, 0], [0, 2]]), 3).value == 2

    def test_pivot_annihilation_mod_three(self):
        matrix = matrix_from_dense([[3, 0], [0, 3]])
        assert modular_rank(matrix, 3).value == 0
        assert exact_rank(matrix).value == 2

    def test_w_flattening_mod_seven(self):
        assert modular_rank(w_flattening(), 7).value == 2

    @pytest.mark.parametrize("p", [5, 13, 2147483629])
    def test_rejects_one_mod_four(self, p):
        with pytest.raises(ValueError):
            modular_rank(matrix_from_dense([[1]]), p)

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            modular_rank(matrix_from_dense([[1]]), 15)

    def test_rejects_prime_too_large_for_kernels(self):
        # 2**61 - 1 is prime and 3 mod 4, but residue products overflow int64
        with pytest.raises(ValueError):
            modular_rank(matrix_from_dense([[1]]), 2**61 - 1)

    def test_prime_dividing_denominator(self):
        # in the second input a multiple of p follows a clean fraction
        for dense in ([[Fraction(1, 7), 1]], [[Fraction(1, 2), Fraction(1, 21)]]):
            with pytest.raises(PrimeClashError):
                modular_rank(matrix_from_dense(dense), 7)

    def test_never_exceeds_exact(self):
        rng = random.Random(53)
        misses = 0
        for _ in range(120):
            matrix = rand_matrix(rng, max_dim=5)
            target = exact_rank(matrix).value
            hits = []
            for p in rng.sample(PRIMES_3_MOD_4, 3):
                value = modular_rank(matrix, p).value
                assert value <= target
                hits.append(value == target)
            if not any(hits):
                misses += 1  # logged, not asserted: astronomically rare
        assert misses <= 1

    def test_fractional_matrices_match_plain_elimination_of_cleared_rows(self):
        # a pass reads num * den^-1 mod p where the reference clears each
        # row of its denominators.  Every other matrix gets a row that is
        # congruent mod p to a multiple of another, so its modular rank
        # falls below the exact one and a residue read wrongly shows.
        rng = random.Random(61)
        below = 0
        for p in (7, 11, 19, 23, PRIMES_3_MOD_4[0]):
            for k in range(80):
                rows, cols = rng.randint(1, 5), rng.randint(1, 6)
                dense = [
                    [rand_gauss_fraction(rng) if rng.random() < 0.7 else gauss(0) for _ in range(cols)]
                    for _ in range(rows)
                ]
                if k % 2:
                    g, base = rand_gauss_fraction(rng), rng.choice(dense)
                    dense.append([g * x + gauss(p) * rand_gauss_fraction(rng) for x in base])
                matrix = matrix_from_dense(dense)
                cleared = _cleared_integer_rows(matrix.rows, cols, matrix.entries)
                re = np.array([[x % p for x, _ in row] for row in cleared], dtype=np.int64)
                im = np.array([[y % p for _, y in row] for row in cleared], dtype=np.int64)
                value = modular_rank(matrix, p).value
                assert value == gf_rank(re, im, p)
                below += value < bareiss_rank(matrix)
        assert below >= 100


@pytest.fixture
def kernel_primes(monkeypatch):
    """The prime of every kernel call, in order."""
    primes = []
    kernel = rank_module.rank_mod_gaussian

    def spy(re, im, p):
        primes.append(p)
        return kernel(re, im, p)

    monkeypatch.setattr(rank_module, "rank_mod_gaussian", spy)
    return primes


class TestGenericRank:
    def test_parametric_ghz_cut(self):
        state = parse_state("dims 2 2 2 ; a |000> ; +1 |111>")
        matrix = flatten(state, enumerate_bipartitions(state.dims, 1)[0])
        result = generic_rank(matrix, trials=5, seed=3)
        assert result.value == 2
        assert result.mode == "generic"
        assert result.certainty == "probabilistic"
        assert 0 < result.failure_bound < 1e-8

    def test_single_parametric_entry(self):
        assert generic_rank(matrix_from_dense([["a"]]), trials=3, seed=0).value == 1

    def test_shared_parameter_diagonal(self):
        state = build_state((2, 2), [((0, 0), "a"), ((1, 1), "a")])
        matrix = flatten(state, enumerate_bipartitions(state.dims, 1)[0])
        assert generic_rank(matrix, trials=4, seed=9).value == 2

    def test_prime_dividing_denominator(self):
        # in the second input a multiple of p follows a clean fraction
        for dense in (
            [[Fraction(1, 7), "a"], [1, 1]],
            [[Fraction(1, 2), "a"], [1, Fraction(1, 21)]],
        ):
            with pytest.raises(PrimeClashError):
                generic_rank(matrix_from_dense(dense), trials=2, p=7)

    def test_monotone_in_trials(self):
        state = parse_state("dims 2 2 ; a |00> ; b |11> ; +1 |01>")
        matrix = flatten(state, enumerate_bipartitions(state.dims, 1)[0])
        for seed in range(10):
            few = generic_rank(matrix, trials=2, p=PRIMES_3_MOD_4[0], seed=seed)
            many = generic_rank(matrix, trials=6, p=PRIMES_3_MOD_4[0], seed=seed)
            assert many.value >= few.value

    @pytest.mark.parametrize("p", [None, 7])
    def test_failure_bound_skips_a_power_below_every_float(self, p):
        matrix = matrix_from_dense([["a", 0, 0], [0, 1, 0], [0, 0, 1]])
        start = time.perf_counter()
        assert generic_rank(matrix, trials=10**6, p=p).failure_bound == 0.0
        assert time.perf_counter() - start < 5

    @pytest.mark.parametrize(
        "k,p", [(1, 7), (3, 7), (6, 7), (1, PRIMES_3_MOD_4[0]), (2, PRIMES_3_MOD_4[0])]
    )
    def test_failure_bound_is_the_exact_power(self, k, p):
        # (1/p)**t and (2/p)**t with p near 2**31 cross 2**-1076 inside 1..80
        dense = [["a" if i == j == 0 else int(i == j) for j in range(k)] for i in range(k)]
        for t in range(1, 81):
            bound = generic_rank(matrix_from_dense(dense), trials=t, p=p).failure_bound
            assert bound == float(Fraction(k, p) ** t)

    def test_failure_bound_is_capped_at_one(self):
        dense = [["a" if i == j == 0 else int(i == j) for j in range(8)] for i in range(8)]
        assert generic_rank(matrix_from_dense(dense), trials=6000, p=7).failure_bound == 1.0

    def test_trials_must_be_positive(self):
        with pytest.raises(ValueError):
            generic_rank(matrix_from_dense([["a"]]), trials=0)

    def test_matrix_without_parameters_takes_one_pass(self, monkeypatch):
        import multirank.rank as rank_module

        calls = []
        kernel = rank_module.rank_mod_gaussian

        def spy(re, im, p):
            calls.append(p)
            return kernel(re, im, p)

        monkeypatch.setattr(rank_module, "rank_mod_gaussian", spy)
        result = generic_rank(matrix_from_dense([[1, 1], [1, 1]]), trials=50, p=7)
        assert calls == [7]
        assert result == RankResult(
            1,
            mode="generic",
            certainty="probabilistic",
            prime=7,
            trials=50,
            failure_bound=float(Fraction(2, 7) ** 50),
        )

    def test_a_minor_that_vanishes_identically_runs_every_trial(self, kernel_primes):
        # rank 1 at every point and term rank 2: no trial meets the term rank
        result = generic_rank(matrix_from_dense([["a", "a"], ["a", "a"]]), trials=6, seed=2)
        assert len(kernel_primes) == 6
        assert (result.value, result.trials, result.certificate) == (1, 6, None)

    def test_a_value_at_the_term_rank_stops_the_trials(self, kernel_primes):
        # rows 2 and 3 hold only column 1, so row 1 and column 1 cover the
        # support: term rank 2, below min(rows, cols) = 3; trial 1 meets it
        dense = [["a", "b", "c"], ["b", 0, 0], ["a", 0, 0]]
        result = generic_rank(matrix_from_dense(dense), trials=6, seed=2)
        assert len(kernel_primes) == 1
        assert result.value == 2


class TestDispatch:
    def test_fast_certifies_full_rank(self):
        result = rank_dispatch(matrix_from_dense([[1, 0], [0, 1]]), RankPolicy("fast"))
        assert (result.value, result.mode, result.certainty) == (2, "exact", "exact")

    def test_fast_falls_back_on_deficient(self):
        result = rank_dispatch(matrix_from_dense([[1, 2], [2, 4]]), RankPolicy("fast"))
        assert (result.value, result.mode) == (1, "exact")

    def test_generic_policy_routes_parameters(self):
        result = rank_dispatch(
            matrix_from_dense([["a", 0], [0, 1]]), RankPolicy("generic", trials=4), seed=1
        )
        assert result.value == 2
        assert result.mode == "generic"

    def test_exact_policy_rejects_parameters(self):
        with pytest.raises(PolicyMismatchError):
            rank_dispatch(matrix_from_dense([["a"]]), RankPolicy("exact"))

    def test_fast_policy_rejects_parameters(self):
        with pytest.raises(PolicyMismatchError):
            rank_dispatch(matrix_from_dense([["a"]]), RankPolicy("fast"))

    def test_modular_policy_uses_given_prime(self):
        result = rank_dispatch(matrix_from_dense([[3, 0], [0, 3]]), RankPolicy("modular", 3))
        assert (result.value, result.prime) == (0, 3)

    @pytest.mark.parametrize(
        "policy,message",
        [
            (("modular",), "modular policy needs an explicit prime"),
            (("bogus",), "unknown rank policy kind 'bogus'"),
        ],
    )
    def test_policy_it_cannot_run_is_rejected(self, policy, message):
        # refused when built, so rank_dispatch never meets such a policy
        with pytest.raises(ValueError, match=message):
            RankPolicy(*policy)

    def test_fast_agrees_with_exact_on_randoms(self):
        rng = random.Random(71)
        for k in range(100):
            matrix = rand_matrix(rng, max_dim=5)
            fast = rank_dispatch(matrix, RankPolicy("fast"), seed=k)
            assert fast.value == bareiss_rank(matrix)
            assert fast.certainty == "exact"


class TestPolicyParsing:
    @pytest.mark.parametrize(
        "text,kind,prime,trials",
        [
            ("exact", "exact", None, None),
            ("fast", "fast", None, None),
            ("mod:7", "modular", 7, None),
            ("generic:5,2147483647", "generic", 2147483647, 5),
            ("generic", "generic", None, 8),
        ],
    )
    def test_valid(self, text, kind, prime, trials):
        policy = parse_policy(text)
        assert (policy.kind, policy.prime, policy.trials) == (kind, prime, trials)

    @pytest.mark.parametrize(
        "text", ["exact", "fast", "mod:7", "generic", "generic:3", "generic:3,7"]
    )
    def test_label_parses_back(self, text):
        assert parse_policy(parse_policy(text).label()) == parse_policy(text)

    def test_generic_without_trials_takes_the_default(self):
        # the label a report prints must parse back to the same policy
        assert parse_policy(RankPolicy("generic").label()) == RankPolicy("generic")

    @pytest.mark.parametrize("trials", [None, 3])
    @pytest.mark.parametrize("prime", [None, 7])
    @pytest.mark.parametrize("kind", ["exact", "fast", "modular", "generic"])
    def test_a_policy_holds_only_what_its_kind_reads(self, kind, prime, trials):
        # exact and fast take no prime, modular needs one, and only generic
        # takes a trial count; every policy that is built parses back
        if kind == "generic" or (trials is None and (prime is None) == (kind != "modular")):
            policy = RankPolicy(kind, prime, trials)
            assert parse_policy(policy.label()) == policy
        else:
            with pytest.raises(ValueError):
                RankPolicy(kind, prime, trials)

    @pytest.mark.parametrize("text", ["", "mod:", "mod:x", "generic:a,b", "best"])
    def test_invalid(self, text):
        with pytest.raises(ValueError):
            parse_policy(text)


def test_random_state_flattenings_match_oracle():
    # end-to-end: flattenings of small random states, both routes
    rng = random.Random(613)
    checked = 0
    for _ in range(60):
        state = rand_state(rng, max_n=4, max_d=3, max_terms=6)
        for level in range(1, state.dims.n // 2 + 1):
            for bp in enumerate_bipartitions(state.dims, level):
                matrix = flatten(state, bp)
                if matrix.rows > 6 or matrix.cols > 6:
                    continue
                assert exact_rank(matrix).value == oracle_rank_minors(matrix)
                checked += 1
    assert checked >= 100


def test_every_pass_hands_the_kernel_its_whole_matrix(monkeypatch):
    """Each pass reaches the kernel with the flattening's nonzero rows and cols.

    Every flattening of W on 6 qubits peels to an empty core, and the peel
    runs inside the kernel, so every pass still calls it.  The benchmark's
    per-layer run replays the captured kernel inputs until they have taken
    a second (``perfbench/run.py``), and with no input that loop never
    ends.  Until the benchmark reads counters instead of replaying (ROADMAP
    item 3), the peel stays inside the kernel.
    """
    shapes = []
    kernel = rank_module.rank_mod_gaussian

    def spy(re, im, p):
        shapes.append(re.shape)
        return kernel(re, im, p)

    monkeypatch.setattr(rank_module, "rank_mod_gaussian", spy)
    n = 6
    state = build_state((2,) * n, [(tuple(int(i == j) for j in range(n)), 1) for i in range(n)])
    entries = [entry for level in multirank_profile(state).levels for entry in level]
    assert [result.value for _, result in entries] == [2] * 41
    assert len(shapes) == sum(result.primes for _, result in entries)
    expected = []
    for bp, result in entries:
        cells = flatten(state, bp).entries
        shape = (len({r for r, _ in cells}), len({c for _, c in cells}))
        expected += [shape] * result.primes
    assert shapes == expected
