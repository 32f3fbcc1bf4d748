"""Bipartition enumeration: counts, order, and partition invariants."""

from itertools import combinations
from math import comb

import pytest

from multirank import QuditDims, all_levels, enumerate_bipartitions


def qubits(n: int) -> QuditDims:
    return QuditDims((2,) * n)


def brute_force_subsets(n: int, size: int):
    """Independent enumeration: filter the full power set by size."""
    out = []
    for mask in range(1 << n):
        subset = tuple(j + 1 for j in range(n) if mask >> j & 1)
        if len(subset) == size:
            out.append(subset)
    return sorted(out)


def test_singletons_for_three_parties():
    bps = enumerate_bipartitions(qubits(3), 1)
    assert [bp.parties for bp in bps] == [(1,), (2,), (3,)]
    assert [bp.complement for bp in bps] == [(2, 3), (1, 3), (1, 2)]


def test_pairs_for_four_parties():
    bps = enumerate_bipartitions(qubits(4), 2)
    assert [bp.parties for bp in bps] == [
        (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4),
    ]


def test_twenty_triples_for_six_parties():
    assert len(enumerate_bipartitions(qubits(6), 3)) == 20


def test_counts_and_order_match_brute_force():
    for n in range(2, 13):
        dims = qubits(n)
        for size in range(1, n // 2 + 1):
            bps = enumerate_bipartitions(dims, size)
            assert len(bps) == comb(n, size)
            assert [bp.parties for bp in bps] == brute_force_subsets(n, size)


def test_levels_shape():
    assert [bp.parties for bp in all_levels(qubits(2))[0]] == [(1,), (2,)]
    assert len(all_levels(qubits(2))) == 1
    assert [len(level) for level in all_levels(qubits(3))] == [3]
    assert [len(level) for level in all_levels(qubits(5))] == [5, 10]


def test_partition_invariants():
    dims = QuditDims((2, 3, 2, 3, 2))
    for level in all_levels(dims):
        for bp in level:
            assert sorted(bp.parties + bp.complement) == [1, 2, 3, 4, 5]
            assert list(bp.parties) == sorted(bp.parties)
            assert list(bp.complement) == sorted(bp.complement)


def test_complementary_pairs_present_at_half_level():
    bps = enumerate_bipartitions(qubits(6), 3)
    parties = {bp.parties for bp in bps}
    for members in combinations(range(1, 7), 3):
        assert members in parties  # both halves of every pair are listed


@pytest.mark.parametrize("level", [0, 2, 7])
def test_level_out_of_range(level):
    with pytest.raises(ValueError):
        enumerate_bipartitions(qubits(3), level)


def test_deterministic_order():
    dims = QuditDims((2, 2, 3, 2))
    first = [(bp.parties, bp.complement) for bp in enumerate_bipartitions(dims, 2)]
    second = [(bp.parties, bp.complement) for bp in enumerate_bipartitions(dims, 2)]
    assert first == second
