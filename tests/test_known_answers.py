"""Known-answer families: closed-form ranks past the reach of Bareiss.

A qubit graph state's rank across a cut is 2 ** (rank over GF(2) of the
adjacency block between its sides), and the state is GME exactly when
the graph is connected.  The Dicke state D(n, m) has rank
min(k, m, n - k, n - m) + 1 across a cut of k parties, and the qudit
Dicke state D(m) has one rank per way to split its level counts m into
j on the cut and m - j off it.  The state of a linear code C has rank
|C| / (|C_S| * |C_T|) across the cut S | T, where C_S holds the
codewords that vanish off S.
"""

import random

import pytest

from multirank import multirank_profile, profile_level, verdict

from helpers import (
    code_cut_rank,
    code_state,
    dicke_cut_rank,
    dicke_state,
    graph_cut_rank,
    graph_state,
    qudit_dicke_cut_rank,
    qudit_dicke_state,
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
    for bp, result in profile_level(build(), level):
        assert result.certainty == "exact"
        assert result.value == expected(bp), bp
