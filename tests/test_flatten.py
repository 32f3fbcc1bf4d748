"""Matricization: index mapping, bijectivity, and entry bookkeeping."""

import random
from itertools import product
from math import prod

import pytest

from multirank import (
    Bipartition,
    InvalidStateError,
    QuditDims,
    build_state,
    dense_string_rows,
    enumerate_bipartitions,
    flatten,
)
from helpers import (
    cluster4,
    gauss,
    matrix_from_dense,
    rand_gauss_fraction,
    rand_state,
    row_col_of,
    transposed,
    w3,
)


def test_row_col_examples():
    dims = QuditDims((2, 2, 2))
    first, second, third = enumerate_bipartitions(dims, 1)
    assert row_col_of((0, 1, 0), first, dims) == (0, 2)
    assert row_col_of((1, 0, 1), second, dims) == (0, 3)
    assert row_col_of((0, 0, 0), third, dims) == (0, 0)


def test_all_zero_index_maps_to_origin():
    dims = QuditDims((3, 2, 4, 2))
    for level in (1, 2):
        for bp in enumerate_bipartitions(dims, level):
            assert row_col_of((0,) * 4, bp, dims) == (0, 0)


def test_w_state_flattening():
    matrix = flatten(w3(), enumerate_bipartitions(w3().dims, 1)[0])
    assert (matrix.rows, matrix.cols) == (2, 4)
    assert matrix.entries == {(0, 1): gauss(1), (0, 2): gauss(1), (1, 0): gauss(1)}


def test_single_term_state():
    state = build_state((2, 2), [((1, 1), 1)])
    matrix = flatten(state, enumerate_bipartitions(state.dims, 1)[0])
    assert matrix.entries == {(1, 1): gauss(1)}
    assert (matrix.rows, matrix.cols) == (2, 2)


def test_cluster4_block_structure():
    state = cluster4()
    bp = enumerate_bipartitions(state.dims, 2)[0]  # parties (1, 2)
    matrix = flatten(state, bp)
    assert (matrix.rows, matrix.cols) == (4, 4)
    assert matrix.entries == {
        (0, 0): gauss(1),
        (0, 3): gauss(1),
        (3, 0): gauss(1),
        (3, 3): gauss(-1),
    }


@pytest.mark.parametrize(
    "dims",
    [(2, 2, 2), (2, 3, 4), (3, 3, 3, 3), (2, 2, 2, 2, 2, 2), (4, 4, 4, 4, 4), (2, 16, 2)],
)
def test_index_map_is_a_bijection(dims):
    qd = QuditDims(dims)
    assert prod(dims) <= 4096
    for level in range(1, qd.n // 2 + 1):
        for bp in enumerate_bipartitions(qd, level):
            seen = set()
            for index in product(*(range(d) for d in dims)):
                r, c = row_col_of(index, bp, qd)
                assert 0 <= r < prod(dims[j - 1] for j in bp.parties)
                assert 0 <= c < prod(dims[j - 1] for j in bp.complement)
                seen.add((r, c))
            assert len(seen) == prod(dims)


def test_entries_follow_the_index_map_past_int64():
    # a side whose dimensions multiply past 2**63 has indices that an int64
    # matmul would wrap; entries must still equal the index map's, in order
    rng = random.Random(63)
    sizes = (2, 3, 5, 2**20 + 7, 2**31 - 1, 2**40, 3**30)
    past = 0
    for _ in range(60):
        dims = [rng.choice(sizes) for _ in range(rng.randint(2, 5))]
        top = [d - 1 if rng.random() < 0.5 else rng.randrange(d) for d in dims]
        kets = {tuple(rng.randrange(d) for d in dims) for _ in range(rng.randint(1, 8))}
        kets.add(tuple(top))
        terms = [(ket, rng.choice(["a", rand_gauss_fraction(rng)])) for ket in sorted(kets)]
        state = build_state(dims, terms)
        past += prod(dims) >= 2**63
        for level in range(1, len(dims) // 2 + 1):
            for bp in enumerate_bipartitions(state.dims, level):
                expected = [(row_col_of(k, bp, state.dims), a) for k, a in state.terms.items()]
                assert list(flatten(state, bp).entries.items()) == expected
    assert past >= 20


def test_entry_conservation_on_random_states():
    rng = random.Random(31)
    for _ in range(40):
        state = rand_state(rng)
        for level in range(1, state.dims.n // 2 + 1):
            for bp in enumerate_bipartitions(state.dims, level):
                assert len(flatten(state, bp).entries) == len(state.terms)


def test_complement_flattening_is_the_transpose():
    # at n = 2*level both orientations are enumerated; compare entrywise
    rng = random.Random(43)
    for _ in range(25):
        state = rand_state(rng, max_n=4)
        if state.dims.n % 2:
            continue
        half = state.dims.n // 2
        bps = {bp.parties: bp for bp in enumerate_bipartitions(state.dims, half)}
        for parties, bp in bps.items():
            partner = bps[bp.complement]
            assert flatten(state, partner).entries == transposed(flatten(state, bp)).entries


def test_mismatched_bipartition_rejected():
    state = w3()
    other = enumerate_bipartitions(QuditDims((2, 2, 2, 2)), 1)[0]
    with pytest.raises(InvalidStateError):
        flatten(state, other)


@pytest.mark.parametrize("parties,complement", [((1,), (2,)), ((1, 2), (2, 3))])
def test_labels_that_do_not_split_the_parties_are_rejected(parties, complement):
    with pytest.raises(InvalidStateError, match=r"does not partition parties 1\.\.3"):
        flatten(w3(), Bipartition(parties, complement))


def test_shape_comes_from_the_state_not_the_bipartition():
    bp = enumerate_bipartitions(QuditDims((2, 2, 2)), 1)[0]
    ghz = build_state((3, 3, 3), [((0, 0, 0), 1), ((1, 1, 1), 1), ((2, 2, 2), 1)])
    matrix = flatten(ghz, bp)
    assert (matrix.rows, matrix.cols) == (3, 9)
    assert matrix.entries == {(0, 0): gauss(1), (1, 4): gauss(1), (2, 8): gauss(1)}


def test_dense_dump_strings():
    matrix = matrix_from_dense([[1, 0], [0, "1/2+1i"]])
    assert dense_string_rows(matrix) == [["1", "0"], ["0", "1/2+1i"]]
