"""Acceptance criteria, one test per criterion.

Each test enforces its stated tolerance (exact arithmetic means zero
tolerance) and prints one PASS line on success; pytest -v shows a
pass/fail line per criterion either way.  Random batches are sized at or
above the required counts with fixed seeds.
"""

import random
import time

import pytest

from multirank import (
    RankPolicy,
    enumerate_bipartitions,
    exact_rank,
    flatten,
    multirank_profile,
    parse_state,
    verdict,
)
from multirank.cli import format_rank_lists
from helpers import (
    apply_local_operation,
    bareiss_rank,
    cluster4,
    ghz6_qutrit_plus,
    oracle_rank_minors,
    qutrit3,
    rand_cut_product_state,
    rand_invertible_matrix,
    rand_product_state,
    rand_state,
    transposed,
    w3,
)
from test_rank import rand_matrix


def report(number: int, message: str) -> None:
    print(f"ACCEPTANCE {number}: PASS — {message}")


def timed_profile_text(state, budget_s: float):
    start = time.perf_counter()
    profile = multirank_profile(state)
    text = format_rank_lists(profile.rank_lists())
    elapsed = time.perf_counter() - start
    assert elapsed < budget_s, f"profile took {elapsed * 1e3:.2f} ms, budget {budget_s * 1e3:.0f} ms"
    return profile, text, elapsed


@pytest.fixture(scope="module")
def symmetry_suite():
    """The >= 200 random states shared by criteria 6 and 9."""
    rng = random.Random(20240601)
    return [rand_state(rng, max_n=6, max_d=3, max_terms=20) for _ in range(200)]


def test_criterion_01_three_qubit_w_state():
    profile, text, elapsed = timed_profile_text(w3(), 0.010)
    assert text == "{{2, 2, 2}}"
    assert verdict(profile).gme
    report(1, f"W state -> {text}, GME, {elapsed * 1e3:.2f} ms < 10 ms")


def test_criterion_02_four_qubit_state():
    profile, text, elapsed = timed_profile_text(cluster4(), 0.050)
    assert text == "{{2, 2, 2, 2}, {2, 4, 4, 4, 4, 2}}"
    report(2, f"four-qubit state -> {text}, {elapsed * 1e3:.2f} ms < 50 ms")


def test_criterion_03_three_qutrit_state():
    profile, text, elapsed = timed_profile_text(qutrit3(), 0.010)
    assert text == "{{3, 3, 3}}"
    report(3, f"three-qutrit state -> {text}, {elapsed * 1e3:.2f} ms < 10 ms")


def test_criterion_04_six_qutrit_state():
    profile, text, elapsed = timed_profile_text(ghz6_qutrit_plus(), 1.0)
    lists = profile.rank_lists()
    assert lists[0] == [3] * 6
    assert lists[1] == [3, 4, 4, 4, 4, 4, 4, 4, 4, 3, 4, 4, 4, 4, 3]
    assert lists[2] == [4] * 20
    assert text == (
        "{{3, 3, 3, 3, 3, 3}, "
        "{3, 4, 4, 4, 4, 4, 4, 4, 4, 3, 4, 4, 4, 4, 3}, "
        "{4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4}}"
    )
    report(4, f"six-qutrit state reproduces all three levels, {elapsed * 1e3:.1f} ms < 1 s")


def test_criterion_05_oracle_equivalence():
    rng = random.Random(50505)
    for k in range(1000):
        matrix = rand_matrix(rng, max_dim=6, lo=-3, hi=3, density=rng.uniform(0.3, 1.0))
        assert exact_rank(matrix).value == oracle_rank_minors(matrix), f"case {k}"
    report(5, "exact rank == minors oracle on 1000 random matrices <= 6x6")


def test_criterion_06_complement_symmetry(symmetry_suite):
    assert len(symmetry_suite) >= 200
    for state in symmetry_suite:
        for level in range(1, state.dims.n // 2 + 1):
            for bp in enumerate_bipartitions(state.dims, level):
                matrix = flatten(state, bp)
                assert exact_rank(matrix).value == exact_rank(transposed(matrix)).value
    report(6, "rank(M_I) == rank(M_complement) on 200 random states, zero tolerance")


def test_criterion_07_local_operation_invariance():
    rng = random.Random(70707)
    for _ in range(200):
        state = rand_state(rng, max_n=6, max_d=3, max_terms=12)
        site = rng.randint(1, state.dims.n)
        matrix = rand_invertible_matrix(rng, state.dims.dims[site - 1])
        before = multirank_profile(state, RankPolicy("exact"))
        after = multirank_profile(
            apply_local_operation(state, site, matrix), RankPolicy("exact")
        )
        assert before.rank_lists() == after.rank_lists()
    report(7, "profiles invariant under 200 random invertible local operations")


def test_criterion_08_product_detection():
    rng = random.Random(80808)
    for _ in range(100):
        profile = multirank_profile(rand_product_state(rng))
        assert [r.value for _, r in profile.levels[0]] == [1] * profile.dims.n
        assert verdict(profile).fully_product
    for _ in range(100):
        state, cut = rand_cut_product_state(rng)
        v = verdict(multirank_profile(state))
        assert not v.gme
        n = state.dims.n
        rep = cut if len(cut) <= n // 2 else tuple(
            j for j in range(1, n + 1) if j not in cut
        )
        assert rep in {bp.parties for bp in v.product_cuts}, f"cut {cut} not found"
    report(8, "100 fully-product and 100 single-cut states classified correctly")


def test_criterion_09_policy_agreement(symmetry_suite):
    states = [w3(), cluster4(), qutrit3(), ghz6_qutrit_plus()] + symmetry_suite
    for state in states:
        fast = multirank_profile(state, RankPolicy("fast"))
        exact = multirank_profile(state, RankPolicy("exact"))
        assert fast.rank_lists() == exact.rank_lists()
        for level in exact.levels:
            for bp, result in level:
                assert result.value == bareiss_rank(flatten(state, bp))
    report(9, f"fast == exact == Bareiss profiles on {len(states)} states (criteria 1-4 and 6)")


def test_criterion_10_generic_rank_sanity():
    state = parse_state("dims 2 2 2 ; a |000> ; +1 |111>")
    for seed in range(10):
        profile = multirank_profile(state, RankPolicy("generic", trials=8), seed=seed)
        assert profile.rank_lists() == [[2, 2, 2]], f"seed {seed}"
        for level in profile.levels:
            for _, result in level:
                assert result.certainty == "probabilistic"
                assert result.mode == "generic"
                assert result.failure_bound is not None and result.failure_bound < 1e-8
    report(10, "generic policy gives [[2, 2, 2]] with probabilistic qualifier on 10 seeds")
