"""Known-answer families: closed-form ranks past the reach of Bareiss.

A qubit graph state's rank across a cut is 2 ** (rank over GF(2) of the
adjacency block between its sides), and the state is GME exactly when
the graph is connected.  The Dicke state D(n, m) has rank
min(k, m, n - k, n - m) + 1 across a cut of k parties, and the qudit
Dicke state D(m) has one rank per way to split its level counts m into
j on the cut and m - j off it.  The state of a linear code C has rank
|C| / (|C_S| * |C_T|) across the cut S | T, where C_S holds the
codewords that vanish off S.  A qudit graph state over Z_4 has rank
across S | T the number of distinct vectors Gamma[S, T]^T x mod 4,
which need not be a power of 4.  Every family's profiles, and those of
random states, also obey the cross-cut invariants of
:func:`helpers.check_profile`.
"""

import random
from dataclasses import replace

import pytest

from multirank import RankPolicy, build_state, multirank_profile, verdict

from helpers import (
    check_profile,
    code_cut_rank,
    code_state,
    dicke_cut_rank,
    dicke_state,
    graph_cut_rank,
    graph_state,
    qudit_dicke_cut_rank,
    qudit_dicke_state,
    rand_cut_product_state,
    rand_product_state,
    rand_state,
    w3,
    z4_graph_cut_rank,
    z4_graph_state,
)


def _random_graphs():
    rng = random.Random(2004)
    for n in range(3, 9):
        for _ in range(4):
            pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
            yield n, [edge for edge in pairs if rng.random() < 0.4]


def _connected(n, edges):
    reached, frontier = {1}, [1]
    while frontier:
        i = frontier.pop()
        for edge in edges:
            if i in edge:
                (j,) = set(edge) - {i}
                if j not in reached:
                    reached.add(j)
                    frontier.append(j)
    return len(reached) == n


def _ring(n):
    return [(i, i % n + 1) for i in range(1, n + 1)]


def test_graph_state_profiles_and_verdicts():
    connected = []
    for n, edges in _random_graphs():
        profile = multirank_profile(graph_state(n, edges))
        for level in profile.levels:
            for bp, result in level:
                assert result.certainty == "exact"
                assert result.value == graph_cut_rank(edges, bp.parties), (n, edges, bp)
        connected.append(_connected(n, edges))
        assert verdict(profile).gme == connected[-1], (n, edges)
    # the sample holds both kinds, so the verdict check is not one-sided
    assert 0 < sum(connected) < len(connected)


@pytest.mark.parametrize("n", range(3, 9))
def test_dicke_state_profiles(n):
    for m in range(n + 1):
        profile = multirank_profile(dicke_state(n, m))
        for level in profile.levels:
            for bp, result in level:
                assert result.certainty == "exact"
                assert result.value == dicke_cut_rank(n, m, bp.level), (n, m, bp)


@pytest.mark.parametrize(
    "m", [(2, 2, 2), (1, 2, 3), (3, 1, 1, 2), (2, 2, 1, 1), (4, 4), (1,) * 6, (3, 3, 2)]
)
def test_qudit_dicke_state_profiles(m):
    profile = multirank_profile(qudit_dicke_state(m))
    assert profile.dims.dims == (len(m),) * sum(m)
    for level in profile.levels:
        for bp, result in level:
            assert result.certainty == "exact"
            assert result.value == qudit_dicke_cut_rank(m, bp.level), (m, bp)


# AME(4, 3), and a [6, 3] MDS code over GF(5): Reed-Solomon, extended by the point at infinity
CODES = {
    "ame4-3": ([[1, 0, 1, 1], [0, 1, 1, 2]], 3, [[3] * 4, [9] * 6]),
    "mds6-5": (
        [[1, 1, 1, 1, 1, 0], [0, 1, 2, 3, 4, 0], [0, 1, 4, 4, 1, 1]],
        5,
        [[5] * 6, [25] * 15, [125] * 20],
    ),
}


@pytest.mark.parametrize("name", sorted(CODES))
def test_linear_code_state_profiles(name):
    generator, q, expected = CODES[name]
    profile = multirank_profile(code_state(generator, q))
    assert profile.rank_lists() == expected
    for level in profile.levels:
        for bp, result in level:
            assert result.certainty == "exact"
            assert result.value == code_cut_rank(generator, q, bp.parties), (name, bp)
    assert verdict(profile).gme


SLICES = {
    "dicke12": (lambda: dicke_state(12, 6), lambda bp: dicke_cut_rank(12, 6, bp.level)),
    "ring12": (
        lambda: graph_state(12, _ring(12)),
        lambda bp: graph_cut_rank(_ring(12), bp.parties),
    ),
}


@pytest.mark.parametrize("name, level", [("dicke12", 2), ("dicke12", 3), ("ring12", 2)])
def test_twelve_qubit_level_slices(name, level):
    build, expected = SLICES[name]
    (entries,) = multirank_profile(build(), level=level).levels
    for bp, result in entries:
        assert result.certainty == "exact"
        assert result.value == expected(bp), bp


def _z4_gammas():
    """Random symmetric Gamma over Z_4 on 3 to 5 parties, and one with 2
    off the diagonal: every cut then has rank 2 (x_S reads only as 2 * sum x_S)."""
    rng = random.Random(4)
    for n in (3, 3, 4, 4, 5):
        gamma = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                gamma[i][j] = gamma[j][i] = rng.randrange(4)
        yield gamma
    yield [[0 if i == j else 2 for j in range(4)] for i in range(4)]


def test_z4_graph_state_profiles():
    values = set()
    for gamma in _z4_gammas():
        profile = multirank_profile(z4_graph_state(gamma))
        for level in profile.levels:
            for bp, result in level:
                assert result.certainty == "exact"
                assert result.value == z4_graph_cut_rank(gamma, bp.parties), (gamma, bp)
                values.add(result.value)
    # ranks that are not powers of 4 occur, so the check is not of qubit pairs alone
    assert {2, 8} <= values


def _family_states():
    """Every known-answer family at small sizes, then random, product and
    cut-product states."""
    yield from (graph_state(n, edges) for n, edges in _random_graphs() if n <= 6)
    yield from (dicke_state(n, m) for n in range(3, 7) for m in range(1, n))
    yield from (qudit_dicke_state(m) for m in [(2, 2, 2), (1, 2, 3), (2, 2, 1, 1)])
    yield from (code_state(generator, q) for generator, q, _ in CODES.values())
    yield from (z4_graph_state(gamma) for gamma in _z4_gammas())
    rng = random.Random(9)
    for _ in range(20):
        yield rand_state(rng, max_n=6)
        yield rand_product_state(rng)
        yield rand_cut_product_state(rng)[0]


@pytest.mark.parametrize("policy", ["exact", "fast"])
def test_cross_cut_invariants_hold(policy):
    for state in _family_states():
        profile = multirank_profile(state, RankPolicy(policy))
        assert check_profile(profile) == [], state


def _corrupt(profile, parties, value):
    """The profile with the rank of the cut ``parties`` set to ``value``."""
    levels = tuple(
        tuple((bp, replace(r, value=value) if bp.parties == parties else r) for bp, r in level)
        for level in profile.levels
    )
    return replace(profile, levels=levels)


def test_one_corrupted_rank_is_refused():
    # a rank above r(B) * r(C): W3 has r([1]) = 2 <= r([2]) * r([3]) = 4
    assert check_profile(_corrupt(multirank_profile(w3()), (1,), 5))
    # a rank of 2 among product sides, whose union is a product side
    product = multirank_profile(build_state((2, 2, 2), [((0, 1, 0), 1)]))
    assert check_profile(_corrupt(product, (2,), 2))
    # a cut that a product side splits, off by one in either direction
    rng = random.Random(12)
    corrupted = 0
    for _ in range(20):
        state, cut = rand_cut_product_state(rng, max_n=5)
        profile = multirank_profile(state)
        for level in profile.levels:
            for bp, result in level:
                side = set(bp.parties)
                if side & set(cut) and side - set(cut):
                    for value in {result.value + 1, max(result.value - 1, 1)} - {result.value}:
                        assert check_profile(_corrupt(profile, bp.parties, value)), (state, bp)
                        corrupted += 1
    assert corrupted >= 100
