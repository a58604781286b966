"""Matroid families, derived quantities and axiom spot checks."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from rainbowpack.errors import (
    GirthTooExpensiveError,
    InputError,
    PreconditionError,
    ValidationError,
)
from rainbowpack.matroids import (
    GraphicMatroid,
    LinearMatroid,
    SparsePavingMatroid,
    UniformMatroid,
    build_matroid,
    closure,
    find_circuit,
    girth,
    girth_by_search,
    max_independent_subset,
    rank_of,
)


def test_uniform_basics():
    M = UniformMatroid(2, 4)
    assert M.rank == 2
    assert M.is_independent({0, 1})
    assert not M.is_independent({0, 1, 2})
    assert M.is_independent(())
    for pair in itertools.combinations(range(4), 2):
        assert M.is_independent(pair)


def test_graphic_triangle():
    M = GraphicMatroid(3, [(0, 1), (1, 2), (2, 0)])
    assert M.rank == 2
    assert M.is_independent({0, 1})
    assert not M.is_independent({0, 1, 2})
    assert girth(M) == 3


def test_linear_identity_free():
    M = LinearMatroid(2, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert M.rank == 3
    assert M.is_independent({0, 1, 2})
    assert girth(M) == float("inf")


def test_linear_parallel_columns_closure():
    # columns e1, e1, e2 over GF(2): col0 and col1 are parallel
    M = LinearMatroid(2, [[1, 1, 0], [0, 0, 1]])
    assert closure(M, {0}) == {0, 1}
    assert not M.is_independent({0, 1})
    assert girth(M) == 2


def test_sparse_paving_rules():
    chs = [frozenset({0, 1, 2}), frozenset({0, 3, 4})]
    M = SparsePavingMatroid(3, 6, chs)
    assert M.rank == 3
    assert not M.is_independent({0, 1, 2})
    assert M.is_independent({0, 1, 3})
    assert M.is_independent({0, 1})  # below rank always independent
    assert girth(M) == 3


def test_sparse_paving_intersection_condition_enforced():
    with pytest.raises(ValidationError):
        SparsePavingMatroid(3, 6, [frozenset({0, 1, 2}), frozenset({0, 1, 3})])


def test_build_matroid_families():
    assert build_matroid("uniform", {"k": 2, "m": 4}).rank == 2
    assert build_matroid("linear", {"p": 3, "matrix": [[1, 0], [0, 1]]}).rank == 2
    g = build_matroid("graphic", {"vertices": 3, "edges": [[0, 1], [1, 2], [2, 0]]})
    assert g.rank == 2
    sp = build_matroid(
        "sparse_paving", {"k": 2, "m": 4, "circuit_hyperplanes": [[0, 1]]}
    )
    assert not sp.is_independent({0, 1})


def test_build_matroid_rejects_malformed():
    with pytest.raises((InputError, ValidationError)):
        build_matroid("uniform", {"k": -1, "m": 4})
    with pytest.raises((InputError, ValidationError)):
        build_matroid("linear", {"p": 4, "matrix": [[1]]})  # p not prime
    with pytest.raises((InputError, ValidationError)):
        build_matroid("graphic", {"vertices": 2, "edges": [[0, 5]]})
    with pytest.raises((InputError, ValidationError)):
        build_matroid("nosuch", {})


def test_out_of_range_element_rejected():
    M = UniformMatroid(2, 4)
    with pytest.raises(InputError):
        M.is_independent({0, 7})


def test_rank_and_closure_properties():
    M = GraphicMatroid(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    assert rank_of(M, range(5)) == 3
    assert rank_of(M, ()) == 0
    A = {0, 1}
    cl = closure(M, A)
    assert A <= cl
    assert closure(M, cl) == cl
    assert rank_of(M, cl) == rank_of(M, A)


def test_find_circuit():
    M = GraphicMatroid(3, [(0, 1), (1, 2), (2, 0), (0, 1)])
    C = find_circuit(M, {0, 3})
    assert C == {0, 3}
    for e in C:
        assert M.is_independent(C - {e})
    full = find_circuit(M, {0, 1, 2, 3})
    assert not M.is_independent(full)


def test_max_independent_subset():
    M = UniformMatroid(2, 5)
    A = max_independent_subset(M, {1, 2, 3})
    assert len(A) == 2 and A <= {1, 2, 3}


def test_girth_by_search_matches_closed_forms():
    matroids = [
        UniformMatroid(2, 4),
        GraphicMatroid(3, [(0, 1), (1, 2), (2, 0)]),
        LinearMatroid(2, [[1, 1, 0], [0, 0, 1]]),
        SparsePavingMatroid(3, 6, [frozenset({0, 1, 2})]),
    ]
    for M in matroids:
        assert girth(M) == girth_by_search(M)


def test_girth_cap():
    # rank-2 GF(2) matroid with 25 nonzero columns: no closed form, over cap
    cols = [[1, 1, 0], [0, 1, 1]]
    matrix = [[cols[0][j % 3] for j in range(25)], [cols[1][j % 3] for j in range(25)]]
    M = LinearMatroid(2, matrix)
    with pytest.raises(GirthTooExpensiveError):
        girth(M, cap=20)
    assert girth(M, cap=25) == girth_by_search(M)


@pytest.mark.parametrize(
    "M",
    [
        UniformMatroid(2, 5),
        GraphicMatroid(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3)]),
        LinearMatroid(3, [[1, 0, 1, 2], [0, 1, 1, 1]]),
        SparsePavingMatroid(3, 6, [frozenset({0, 1, 2}), frozenset({3, 4, 5})]),
    ],
)
def test_matroid_axioms_spot_check(M):
    rng = random.Random(0)
    ground = list(range(M.size))
    independents = [
        frozenset(A)
        for r in range(min(M.size, M.rank + 1) + 1)
        for A in itertools.combinations(ground, r)
        if M.is_independent(A)
    ]
    assert frozenset() in independents
    for A in rng.sample(independents, min(40, len(independents))):
        for e in A:  # hereditary
            assert M.is_independent(A - {e})
    for _ in range(60):  # exchange
        A = rng.choice(independents)
        B = rng.choice(independents)
        if len(A) < len(B):
            assert any(M.is_independent(A | {e}) for e in B - A)
    assert max(map(len, independents)) == M.rank


@st.composite
def linear_matroids(draw):
    """Small matrices over GF(2), GF(3) or GF(5) with zero, repeated and
    dependent columns."""
    p = draw(st.sampled_from((2, 3, 5)))
    k = draw(st.integers(1, 4))
    vector = st.lists(st.integers(0, p - 1), min_size=k, max_size=k)
    pool = draw(st.lists(vector, min_size=1, max_size=3))
    column = st.sampled_from(pool) | st.just([0] * k) | vector
    cols = draw(st.lists(column, min_size=1, max_size=8))
    return LinearMatroid(p, [[c[i] for c in cols] for i in range(k)])


@st.composite
def graphic_matroids(draw):
    """Small multigraphs with loops, parallel edges and several components."""
    vertices = draw(st.integers(1, 6))
    vertex = st.integers(0, vertices - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), min_size=1, max_size=10))
    return GraphicMatroid(vertices, edges)


@st.composite
def independent_sets(draw, M):
    """An independent set: the greedy maximal subset of a random subset."""
    pick = draw(st.sets(st.integers(0, M.size - 1)))
    return max_independent_subset(M, pick)


@settings(deadline=None)
@given(linear_matroids() | graphic_matroids())
def test_closed_form_rank_matches_greedy(M):
    assert M.rank == len(max_independent_subset(M, range(M.size)))


@settings(deadline=None)
@given(st.data(), linear_matroids() | graphic_matroids())
def test_exchange_query_matches_oracle(data, M):
    T = data.draw(independent_sets(M))
    for x in sorted(T):
        for y in range(M.size):  # y == x, y in T and loops included
            assert M.is_exchange_independent(T, x, y) == M.is_independent(T - {x} | {y})


@settings(deadline=None)
@given(st.data(), linear_matroids())
def test_exchange_query_alternating_targets(data, M):
    T1 = data.draw(independent_sets(M))
    T2 = data.draw(independent_sets(M))
    if T1 == T2 and T1:
        T2 = T1 - {min(T1)}
    queries = [
        (T, x, y) for T in (T1, T2) for x in sorted(T) for y in range(M.size)
    ]
    # alternate between the two targets, so the cached state keeps changing
    queries = [q for pair in zip(queries, reversed(queries)) for q in pair]
    for T, x, y in queries:
        assert M.is_exchange_independent(T, x, y) == M.is_independent(T - {x} | {y})


def test_exchange_query_preconditions():
    M = LinearMatroid(3, [[1, 0, 1, 2], [0, 1, 1, 1]])
    with pytest.raises(PreconditionError):
        M.is_exchange_independent(frozenset({0, 1, 2}), 0, 3)  # dependent
    with pytest.raises(PreconditionError):
        M.is_exchange_independent(frozenset({0, 1}), 2, 3)  # 2 not in the set
    with pytest.raises(InputError):
        M.is_exchange_independent(frozenset({0, 1}), 0, 9)
    G = GraphicMatroid(3, [(0, 1), (1, 2), (2, 0)])
    with pytest.raises(PreconditionError):
        G.is_exchange_independent(frozenset({0, 1}), 2, 0)
