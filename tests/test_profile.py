"""Full profile assembly: reference outputs, consistency, and symmetry."""

import random
from itertools import combinations
from pathlib import Path

import pytest

import multirank.profile as profile_module
import multirank.rank as rank_module
from multirank import (
    FlattenedMatrix,
    MultirankError,
    RankPolicy,
    build_state,
    enumerate_bipartitions,
    exact_rank,
    flatten,
    multirank_profile,
    parse_state,
    parse_policy,
    profile_level,
    rank_dispatch,
)
from helpers import (
    REFERENCE_PROFILES,
    bareiss_rank,
    compressed_dense,
    matrix_from_dense,
    oracle_rank_minors,
    rand_cut_product_state,
    rand_dims,
    rand_gauss_fraction,
    rand_gauss_int,
    rand_product_state,
    rand_state,
    transposed,
)

STATES = Path(__file__).resolve().parent.parent / "states"


def rand_parametric_qubits(rng: random.Random, n: int):
    """A random n-qubit state whose terms mix parameters a, b, c and integers."""
    kets = rng.sample(range(2**n), rng.randint(2, min(8, 2**n)))
    return build_state(
        (2,) * n,
        [
            (
                tuple(int(bit) for bit in format(x, f"0{n}b")),
                rng.choice(["a", "b", "c", rand_gauss_int(rng)]),
            )
            for x in kets
        ],
    )


@pytest.mark.parametrize("name", sorted(REFERENCE_PROFILES))
def test_reference_profiles(name):
    make, expected = REFERENCE_PROFILES[name]
    assert multirank_profile(make()).rank_lists() == expected


def test_product_state_profile():
    state = build_state((2, 2, 2), [((0, 0, 0), 1)])
    assert multirank_profile(state).rank_lists() == [[1, 1, 1]]


def test_qudit_ghz_profile():
    d = 4
    state = build_state((d, d, d), [((k, k, k), 1) for k in range(d)])
    profile = multirank_profile(state)
    assert profile.rank_lists() == [[4, 4, 4]]
    # independent check: minors oracle on the compressed flattening
    for bp in enumerate_bipartitions(state.dims, 1):
        small = matrix_from_dense(compressed_dense(flatten(state, bp)))
        assert oracle_rank_minors(small) == 4


def test_profile_level_reference_values():
    from helpers import cluster4, w3

    assert [r.value for _, r in profile_level(w3(), 1)] == [2, 2, 2]
    assert [r.value for _, r in profile_level(cluster4(), 2)] == [2, 4, 4, 4, 4, 2]


def test_profile_level_matches_full_profile():
    rng = random.Random(88)
    for _ in range(20):
        state = rand_state(rng, max_n=5)
        full = multirank_profile(state)
        for level in range(1, state.dims.n // 2 + 1):
            slice_ = profile_level(state, level)
            assert [r.value for _, r in slice_] == full.rank_lists()[level - 1]
            assert [bp for bp, _ in slice_] == [bp for bp, _ in full.levels[level - 1]]


def test_level_out_of_range():
    state = build_state((2, 2, 2), [((0, 0, 0), 1)])
    with pytest.raises(ValueError):
        profile_level(state, 0)
    with pytest.raises(ValueError):
        profile_level(state, 2)


def test_complement_symmetry_at_half_level():
    rng = random.Random(17)
    for _ in range(30):
        state = rand_state(rng, max_n=6)
        if state.dims.n % 2:
            continue
        half = state.dims.n // 2
        entries = profile_level(state, half, RankPolicy.exact())
        by_parties = {bp.parties: r.value for bp, r in entries}
        for bp, r in entries:
            assert by_parties[bp.complement] == r.value


def assert_split_bounds(profile):
    """ceil(r(A) / r(B)) <= r(A | B) <= r(A) * r(B) for every split of every cut."""
    rank = {frozenset(bp.parties): r.value for level in profile.levels for bp, r in level}
    for cut, value in rank.items():
        for size in range(1, len(cut)):
            for side in combinations(sorted(cut), size):
                a = rank[frozenset(side)]
                b = rank[cut - frozenset(side)]
                assert -(-a // b) <= value <= a * b, (sorted(cut), side)


def test_split_bounds_hold_on_every_profile():
    rng = random.Random(37)
    states = [parse_state(path.read_text()) for path in sorted(STATES.glob("*.state"))]
    states += [rand_state(rng, max_n=6) for _ in range(40)]
    states += [rand_cut_product_state(rng, max_n=6)[0] for _ in range(40)]
    for state in states:
        policy = RankPolicy.generic() if state.has_parameters else RankPolicy.fast()
        assert_split_bounds(multirank_profile(state, policy))


def test_product_certificates_equal_bareiss():
    rng = random.Random(43)
    states = [rand_cut_product_state(rng, max_n=6, coeff=rand_gauss_fraction)[0] for _ in range(30)]
    states += [rand_product_state(rng, max_n=6) for _ in range(30)]
    products = 0
    for state in states:
        for level in multirank_profile(state).levels:
            for bp, result in level:
                if result.certificate == "product":
                    products += 1
                    assert result.value == bareiss_rank(flatten(state, bp))
                    assert result.primes == 1
    assert products >= 50


def test_rank_bounds():
    rng = random.Random(29)
    for _ in range(25):
        state = rand_state(rng, max_n=5)
        profile = multirank_profile(state)
        for level in profile.levels:
            for bp, result in level:
                matrix = flatten(state, bp)
                assert 1 <= result.value <= min(matrix.rows, matrix.cols)


def test_policy_equivalence_exact_vs_fast():
    rng = random.Random(41)
    states = [make() for make, _ in REFERENCE_PROFILES.values()]
    states += [rand_state(rng, max_n=5) for _ in range(25)]
    for state in states:
        fast = multirank_profile(state, RankPolicy.fast())
        exact = multirank_profile(state, RankPolicy.exact())
        assert fast.rank_lists() == exact.rank_lists()


def test_rank_equals_transposed_rank_for_all_bipartitions():
    rng = random.Random(59)
    for _ in range(25):
        state = rand_state(rng, max_n=5, max_terms=10)
        for level in range(1, state.dims.n // 2 + 1):
            for bp in enumerate_bipartitions(state.dims, level):
                matrix = flatten(state, bp)
                assert exact_rank(matrix).value == exact_rank(transposed(matrix)).value


def test_deterministic_across_runs():
    rng = random.Random(67)
    state = rand_state(rng, max_n=5)
    first = multirank_profile(state, RankPolicy.fast(), seed=5)
    second = multirank_profile(state, RankPolicy.fast(), seed=5)
    assert first.rank_lists() == second.rank_lists()
    primes_a = [r.prime for lvl in first.levels for _, r in lvl]
    primes_b = [r.prime for lvl in second.levels for _, r in lvl]
    assert primes_a == primes_b


def test_generic_twins_agree_at_half_level():
    # one trial mod 3 fails often; a cut and its complement must fail alike
    rng = random.Random(23)
    states = [
        build_state(
            (2, 2, 2, 2), [((0, 0, 0, 1), "a"), ((0, 1, 1, 0), "a"), ((0, 1, 1, 1), "b")]
        )
    ]
    states += [rand_parametric_qubits(rng, n) for n in (4, 6) for _ in range(15)]
    policy = RankPolicy.generic(trials=1, prime=3)
    for state in states:
        for seed in range(5):
            entries = profile_level(state, state.dims.n // 2, policy, seed)
            by_parties = {bp.parties: r.value for bp, r in entries}
            for bp, r in entries:
                assert by_parties[bp.complement] == r.value, (state, seed, bp)


@pytest.mark.parametrize(
    "policy",
    [RankPolicy.generic(), RankPolicy.generic(trials=1, prime=3)],
    ids=["auto-prime", "one-trial-mod-3"],
)
def test_generic_entry_depends_on_matrix_and_seed_alone(policy):
    rng = random.Random(31)
    states = [rand_parametric_qubits(rng, n) for n in (3, 4, 5) for _ in range(8)]
    for state in states:
        for seed in (0, 1729):
            profile = multirank_profile(state, policy, seed)
            for level, entries in enumerate(profile.levels, start=1):
                assert profile_level(state, level, policy, seed) == entries
                for bp, result in entries:
                    assert result == rank_dispatch(flatten(state, bp), policy, seed)


def rand_fraction_state(rng: random.Random, names=()):
    """Up to 5 parties, fractional complex coefficients, some named ``names``."""
    dims = rand_dims(rng, max_n=5)
    kets = {tuple(rng.randrange(d) for d in dims) for _ in range(rng.randint(1, 12))}
    return build_state(
        dims, [(ket, rng.choice([*names, rand_gauss_fraction(rng)])) for ket in sorted(kets)]
    )


@pytest.mark.parametrize("policy", ["exact", "fast", "mod:2147483647", "generic", "generic:3,7"])
def test_each_cut_ranks_as_its_matrix_alone(monkeypatch, policy):
    """The state's term table and each flattening's own entries agree.

    Every cut's result, or refusal, equals ``rank_dispatch`` on a copy of
    its matrix that reads its amplitudes off its entries, offered the
    same upper bound as the profile offers that cut.
    """
    policy = parse_policy(policy)
    dispatch = profile_module.rank_dispatch
    pairs = []

    def outcome(*args):
        try:
            return dispatch(*args)
        except MultirankError as exc:
            return type(exc)

    def spy(matrix, policy, seed, upper):
        alone = FlattenedMatrix(matrix.rows, matrix.cols, dict(matrix.entries))
        assert alone.table is not matrix.table
        pairs.append((outcome(alone, policy, seed, upper), outcome(matrix, policy, seed, upper)))
        return dispatch(matrix, policy, seed, upper)

    monkeypatch.setattr(profile_module, "rank_dispatch", spy)
    rng = random.Random(83)
    states = [rand_fraction_state(rng) for _ in range(12)]
    states += [rand_cut_product_state(rng, max_n=5, coeff=rand_gauss_fraction)[0] for _ in range(6)]
    states += [rand_fraction_state(rng, ("a", "b")) for _ in range(8)]
    states += [rand_parametric_qubits(rng, n) for n in (3, 4)]
    results = []
    for state in states:
        start = len(pairs)
        try:
            profile = multirank_profile(state, policy, seed=11)
        except MultirankError as exc:
            assert pairs[-1][1] is type(exc)
        else:
            entries = [r for level in profile.levels for _, r in level]
            assert entries == [got for _, got in pairs[start:]]
            results += entries
    assert all(alone == got for alone, got in pairs)
    assert len(results) >= 100
    if policy.kind in ("exact", "fast"):  # the upper bound closed some cut
        assert any(r.certificate == "product" for r in results)


@pytest.mark.parametrize("seed", range(10))
def test_generic_values_do_not_depend_on_the_term_rank_stop(monkeypatch, seed):
    """Stopping the trials once the value meets the term rank moves no value.

    With the term rank patched to a bound that no value meets, every
    matrix runs every trial; the profiles must not differ.
    """
    rng = random.Random(seed)
    states = [rand_parametric_qubits(rng, n) for n in (3, 4, 5, 6)]
    states += [rand_fraction_state(rng, ("a", "b", "c")) for _ in range(4)]
    policy = RankPolicy.generic(trials=4)
    kernel = rank_module.rank_mod_gaussian
    calls = []

    def spy(re, im, p):
        calls.append(p)
        return kernel(re, im, p)

    monkeypatch.setattr(rank_module, "rank_mod_gaussian", spy)
    stopped = [multirank_profile(state, policy, seed) for state in states]
    passes = len(calls)
    monkeypatch.setattr(rank_module, "_term_rank", lambda rows: -1)
    every_trial = [multirank_profile(state, policy, seed) for state in states]
    assert stopped == every_trial
    assert passes < len(calls) - passes  # the stop saved passes
