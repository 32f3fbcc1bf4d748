"""Entanglement verdicts from rank profiles."""

import random

import pytest

from multirank import (
    RankPolicy,
    ZeroStateError,
    build_state,
    multirank_profile,
    parse_state,
    verdict,
)
from helpers import (
    apply_local_operation,
    cluster4,
    rand_cut_product_state,
    rand_invertible_matrix,
    rand_product_state,
    rand_state,
    w3,
)


def profile_of(state):
    return multirank_profile(state)


def test_w_state_is_gme():
    v = verdict(profile_of(w3()))
    assert v.gme and not v.fully_product


def test_product_state():
    state = build_state((2, 2, 2), [((0, 1, 0), 1)])
    v = verdict(profile_of(state))
    assert v.fully_product and not v.gme
    assert len(v.product_cuts) == 3


def test_single_cut_product():
    # |0> (x) (|00> + |11>)
    state = build_state((2, 2, 2), [((0, 0, 0), 1), ((0, 1, 1), 1)])
    p = profile_of(state)
    assert p.rank_lists() == [[1, 2, 2]]
    v = verdict(p)
    assert not v.gme and not v.fully_product
    assert [bp.parties for bp in v.product_cuts] == [(1,)]


def test_cluster4_verdict():
    v = verdict(profile_of(cluster4()))
    assert v.gme and not v.fully_product and v.product_cuts == ()


def test_bell_pair_is_gme():
    state = build_state((2, 2), [((0, 0), 1), ((1, 1), 1)])
    assert verdict(profile_of(state)).gme


def test_two_qubit_product():
    state = build_state((2, 2), [((0, 1), 1)])
    v = verdict(profile_of(state))
    assert v.fully_product and not v.gme


def test_gme_and_fully_product_are_exclusive():
    rng = random.Random(3)
    for _ in range(40):
        p = profile_of(rand_state(rng, max_n=5))
        v = verdict(p)
        assert not (v.gme and v.fully_product)


def test_random_product_states_detected():
    rng = random.Random(13)
    for _ in range(40):
        p = profile_of(rand_product_state(rng))
        assert verdict(p).fully_product
        assert [r.value for _, r in p.levels[0]] == [1] * p.dims.n


def test_random_cut_states_identified():
    rng = random.Random(37)
    for _ in range(40):
        state, cut = rand_cut_product_state(rng)
        p = profile_of(state)
        v = verdict(p)
        assert not v.gme
        n = state.dims.n
        rep = cut if len(cut) <= n // 2 else tuple(
            j for j in range(1, n + 1) if j not in cut
        )
        assert rep in {bp.parties for bp in v.product_cuts}


def test_verdict_invariant_under_local_operations():
    rng = random.Random(47)
    for _ in range(40):
        state = rand_state(rng, max_n=5, max_terms=8)
        before = multirank_profile(state, RankPolicy("exact"))
        site = rng.randint(1, state.dims.n)
        matrix = rand_invertible_matrix(rng, state.dims.dims[site - 1])
        after_state = apply_local_operation(state, site, matrix)
        after = multirank_profile(after_state, RankPolicy("exact"))
        assert before.rank_lists() == after.rank_lists()
        assert verdict(before) == verdict(after)


@pytest.mark.parametrize(
    "coeff,policy,seed",
    [(7, RankPolicy("modular", 7), 1729), ("a", RankPolicy("generic", 3, 1), 0)],
    ids=["mod-7", "generic-3"],
)
def test_verdict_refuses_a_profile_that_vanishes_mod_its_prime(coeff, policy, seed):
    state = build_state((2, 2), [((0, 0), coeff), ((1, 1), coeff)])
    p = multirank_profile(state, policy, seed)
    assert p.rank_lists() == [[0, 0]]
    with pytest.raises(ZeroStateError, match=f"vanishes mod {policy.prime}"):
        verdict(p)


def test_verdict_reads_its_product_cuts():
    # a rank of 0 mod 3 makes every rank 0, and the verdict refuses; otherwise
    # gme iff every rank exceeds 1, and fully product iff every level-1 rank is 1
    rng = random.Random(59)
    vanished = 0
    for _ in range(60):
        p = multirank_profile(rand_state(rng, max_n=5), RankPolicy("modular", 3))
        values = [r.value for level in p.levels for _, r in level]
        if 0 in values:
            vanished += 1
            assert set(values) == {0}
            with pytest.raises(ZeroStateError):
                verdict(p)
            continue
        v = verdict(p)
        assert v.gme == all(value > 1 for value in values)
        assert v.fully_product == all(r.value == 1 for _, r in p.levels[0])
        assert v.product_cuts == tuple(
            bp for level in p.levels for bp, r in level if r.value == 1
        )
    assert 0 < vanished < 60


@pytest.mark.parametrize(
    "text,level,cut",
    [
        ("dims 2 2 2 2 ; 1 |0001> ; 1 |0010> ; 1 |0100>", 2, (1,)),
        ("dims 2 2 2 2 ; 1 |0000> ; 1 |0011> ; 1 |1100> ; 1 |1111>", 1, (1, 2)),
    ],
    ids=["zero-w3-level-2", "bell-bell-level-1"],
)
def test_a_verdict_needs_every_level(text, level, cut):
    # the level alone has no rank-1 cut, while the full run has one elsewhere
    state = parse_state(text)
    one = multirank_profile(state, level=level)
    assert all(r.value > 1 for _, r in one.levels[0])
    with pytest.raises(ValueError, match="every level"):
        verdict(one)
    full = verdict(multirank_profile(state))
    assert not full.gme and cut in [bp.parties for bp in full.product_cuts]


@pytest.mark.parametrize("text", ["dims 2 2 ; 1 |00> ; 1 |11>", "dims 2 2 2 ; 1 |000> ; 1 |011>"])
def test_level_one_of_two_or_three_parties_is_the_full_run(text):
    state = parse_state(text)
    assert verdict(multirank_profile(state, level=1)) == verdict(multirank_profile(state))
