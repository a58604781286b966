"""Matroid families, derived quantities and axiom spot checks."""

import gc
import hashlib
import itertools
import math
import random
import time
import tracemalloc
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from rainbowpack import matroids
from rainbowpack.errors import (
    GirthTooExpensiveError,
    InputError,
    PreconditionError,
    ValidationError,
)
from rainbowpack.instances import generate_instance
from rainbowpack.matroids import (
    GraphicMatroid,
    LinearMatroid,
    SparsePavingMatroid,
    UniformMatroid,
    build_matroid,
    closure,
    find_circuit,
    girth,
    gf_rank,
    girth_by_search,
    max_independent_subset,
    rank_of,
)
from rainbowpack.solver import dump_move_log, pack_rainbow_bases


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


def test_girth_cap(monkeypatch):
    # rank-2 GF(2) matroid with 25 nonzero columns: no closed form, over cap
    cols = [[1, 1, 0], [0, 1, 1]]
    matrix = [[cols[0][j % 3] for j in range(25)], [cols[1][j % 3] for j in range(25)]]
    M = LinearMatroid(2, matrix)
    with pytest.raises(GirthTooExpensiveError):
        girth(M)  # GIRTH_SEARCH_CAP = 20
    monkeypatch.setattr("rainbowpack.matroids.GIRTH_SEARCH_CAP", 25)
    assert girth(M) == girth_by_search(M)


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


# Two large moduli, where a packed lane is widest: the Mersenne prime
# 2**61 - 1 and the largest prime below the primality test's range.
LARGE_PRIMES = (2**61 - 1, 3317044064679887385961813)


def _combinations(pool, scales, reduce):
    """Columns a + c * b for a and b drawn from ``pool`` and c from
    ``scales``, each entry passed through ``reduce``: repeated (c = 0),
    scaled (a = b) and dependent columns, over any modulus."""
    return st.builds(
        lambda a, b, c: [reduce(x + c * y) for x, y in zip(a, b)],
        st.sampled_from(pool),
        st.sampled_from(pool),
        scales,
    )


@st.composite
def linear_matroids(draw):
    """Matrices of up to 8 rows over GF(2), GF(3), GF(5) and two large
    prime fields, with zero, repeated, scaled and dependent columns."""
    p = draw(st.sampled_from((2, 3, 5) + LARGE_PRIMES))
    k = draw(st.integers(1, 8))
    vector = st.lists(st.integers(0, p - 1), min_size=k, max_size=k)
    pool = draw(st.lists(vector, min_size=1, max_size=3))
    combination = _combinations(pool, st.integers(0, p - 1), lambda a: a % p)
    column = combination | st.just([0] * k) | vector
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
def uniform_matroids(draw):
    m = draw(st.integers(1, 8))
    return UniformMatroid(draw(st.integers(0, m)), m)


@st.composite
def sparse_paving_matroids(draw):
    """Declared circuit-hyperplanes kept while they meet every earlier one in
    at most k - 2 elements, and never all k-subsets."""
    m = draw(st.integers(1, 7))
    k = draw(st.integers(1, m))
    chs: list = []
    for ch in draw(st.lists(st.sets(st.integers(0, m - 1), min_size=k, max_size=k))):
        if all(len(ch & other) <= k - 2 for other in chs) and ch not in chs:
            chs.append(ch)
    if len(chs) == math.comb(m, k):
        chs.pop()
    return SparsePavingMatroid(k, m, chs)


def all_matroids():
    return linear_matroids() | graphic_matroids() | uniform_matroids() | sparse_paving_matroids()


def _acyclic(vertices, edges):
    """Plain union-find: False at the first edge that closes a cycle."""
    parent = list(range(vertices))

    def root(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for u, v in edges:
        a, b = root(u), root(v)
        if a == b:
            return False
        parent[a] = b
    return True


def _from_scratch(M, A):
    """Whether A is independent in M, from the family's definition alone:
    never through the matroid's cache, kept state or counters."""
    A = sorted(A)
    if M.family == "linear":
        return _rref_rank([[row[j] for row in M.matrix] for j in A], M.p) == len(A)
    if M.family == "graphic":
        return _acyclic(M.vertices, [M.edges[j] for j in A])
    if M.family == "uniform":
        return len(A) <= M.k
    return len(A) < M.k or (len(A) == M.k and frozenset(A) not in M.circuit_hyperplanes)


def _greedy(M, elements):
    """A maximal independent subset of ``elements``, found without asking
    M: greedy by :func:`_from_scratch`."""
    picked: set = set()
    for e in sorted(elements):
        if _from_scratch(M, picked | {e}):
            picked.add(e)
    return frozenset(picked)


@settings(deadline=None)
@given(linear_matroids() | graphic_matroids())
def test_closed_form_rank_matches_greedy(M):
    # The rank shares its elimination with is_independent, so the greedy
    # asks _from_scratch instead.
    assert M.rank == len(_greedy(M, range(M.size)))


@st.composite
def independent_sets(draw, M):
    """An independent set found without asking M: the greedy maximal
    subset of a random subset."""
    return _greedy(M, draw(st.sets(st.integers(0, M.size - 1))))


@settings(deadline=None)
@given(st.data(), linear_matroids() | graphic_matroids())
def test_exchange_query_matches_oracle(data, M):
    T = data.draw(independent_sets(M))
    state = M.state(T)
    for x in sorted(T):
        for y in range(M.size):  # y == x, y in T and loops included
            assert state.independent((x,), (y,)) == _from_scratch(M, T - {x} | {y})


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
        assert M.state(T).independent((x,), (y,)) == _from_scratch(M, T - {x} | {y})


def test_exchange_query_preconditions():
    M = LinearMatroid(3, [[1, 0, 1, 2], [0, 1, 1, 1]])
    with pytest.raises(PreconditionError):
        M.state(frozenset({0, 1, 2}))  # dependent


def _queries(M, T):
    """Every query with at most one removed element of T and at most two
    added elements, in both orders and repeated."""
    for removed in [()] + [(x,) for x in sorted(T)]:
        yield removed, ()
        for y in range(M.size):
            yield removed, (y,)
            for z in range(M.size):
                yield removed, (y, z)


@settings(deadline=None, max_examples=60)
@given(st.data(), all_matroids())
def test_state_matches_oracle(data, M):
    T = data.draw(independent_sets(M))
    state = M.state(T)
    for removed, added in _queries(M, T):
        want = _from_scratch(M, T - set(removed) | set(added))
        assert state.independent(removed, added) == want, (sorted(T), removed, added)


@settings(deadline=None, max_examples=60)
@given(st.data(), all_matroids())
def test_state_extend_chains(data, M):
    order = data.draw(st.permutations(range(M.size)))
    for start in (data.draw(independent_sets(M)), frozenset()):
        state = M.state(start)
        for y in order:  # the chain ends at a base, |base - start| steps long
            if y in state.T or not _from_scratch(M, state.T | {y}):
                continue
            state = state.extend(y)
            for removed, added in _queries(M, state.T):
                want = _from_scratch(M, state.T - set(removed) | set(added))
                assert state.independent(removed, added) == want
        assert len(state.T) == M.rank and start <= state.T


@st.composite
def deep_graphic_matroids(draw):
    """Multigraphs on up to 12 vertices whose forests run deep: several
    trees, mostly long paths with a few branches, under a shuffled vertex
    numbering; then loops, chords and parallel copies, in a shuffled edge
    order."""
    vertices = draw(st.integers(2, 12))
    name = draw(st.permutations(range(vertices)))
    edges = []
    for v in range(1, vertices):
        # v - 1 lengthens a path, v - 3 branches, None starts another tree
        u = draw(st.sampled_from((v - 1, v - 1, max(v - 3, 0), None)))
        if u is not None:
            edges.append((name[u], name[v]))
    vertex = st.integers(0, vertices - 1)
    edges += draw(st.lists(vertex.map(lambda v: (v, v)) | st.tuples(vertex, vertex), max_size=4))
    if edges:
        edges += draw(st.lists(st.sampled_from(edges), max_size=3))
    return GraphicMatroid(vertices, draw(st.permutations(edges)) or [(0, 0)])


def _exchanges(data, M, T):
    """Every question with one removed element of T and one or two added
    elements, shuffled, so that each x comes back after others were asked."""
    queries = [
        ((x,), added)
        for x in T
        for y in range(M.size)
        for added in [(y,)] + [(y, z) for z in range(M.size)]
    ]
    data.draw(st.randoms()).shuffle(queries)
    return queries


@settings(deadline=None, max_examples=40)
@given(st.data(), deep_graphic_matroids())
def test_deep_forest_state_matches_oracle(data, M):
    for T in (_greedy(M, range(M.size)), data.draw(independent_sets(M))):
        state = M.state(T)
        for removed, added in _exchanges(data, M, T):
            want = _from_scratch(M, T - set(removed) | set(added))
            assert state.independent(removed, added) == want, (sorted(T), removed, added)


@settings(deadline=None, max_examples=30)
@given(st.data(), deep_graphic_matroids())
def test_deep_forest_extend_chains(data, M):
    # Each state of the chain answers every T - x + y, x in a shuffled
    # order, before it is extended; the last, a spanning forest, answers
    # every question with one removed element.
    order = data.draw(st.permutations(range(M.size)))
    state = M.state(data.draw(independent_sets(M)))
    for y in order:
        if y in state.T or not _from_scratch(M, state.T | {y}):
            continue
        state = state.extend(y)
        for x in data.draw(st.permutations(sorted(state.T))):
            for z in range(M.size):
                want = _from_scratch(M, state.T - {x} | {z})
                assert state.independent((x,), (z,)) == want
    assert len(state.T) == M.rank
    for removed, added in _exchanges(data, M, state.T):
        want = _from_scratch(M, state.T - set(removed) | set(added))
        assert state.independent(removed, added) == want


def test_graphic_state_builds_its_forest_once(monkeypatch):
    # M.state(T) builds T's forest once; every T - x + y (+ z) after that
    # is answered from T's one rooted tour, with no build from scratch.
    M = GraphicMatroid(
        9,
        [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5), (5, 6), (7, 8),
         (4, 6), (0, 0), (1, 2), (8, 7), (0, 8), (6, 3)],
    )
    T = frozenset(range(7))  # a path with a branch, and the tree 7-8
    calls = []
    build = matroids._components
    monkeypatch.setattr(matroids, "_components", lambda *a: calls.append(a) or build(*a))
    state = M.state(T)
    assert len(calls) == 1
    for x in sorted(T):
        for y in range(M.size):
            assert state.independent((x,), (y,)) == _from_scratch(M, T - {x} | {y})
            for z in range(M.size):
                want = _from_scratch(M, T - {x} | {y, z})
                assert state.independent((x,), (y, z)) == want
    assert len(calls) == 1


def test_graphic_state_keeps_nothing_per_removed_edge():
    # After its first T - x question a state holds T's labels and one tour;
    # asking about every other x of a 200-vertex tree keeps less than two
    # lists of 200 pointers, where a labels list of T - x kept per x would
    # keep ~1.6 kB for each of the 198.
    vertices = 200
    rng = random.Random(0)
    tree = [(rng.randrange(v), v) for v in range(1, vertices)]
    chords = [(rng.randrange(vertices), rng.randrange(vertices)) for _ in range(50)]
    M = GraphicMatroid(vertices, tree + chords)
    T = frozenset(range(len(tree)))
    state = M.state(T)
    state.independent((0,), (len(tree),))  # roots T's tree
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for x in range(1, len(tree)):
            for y in range(len(tree), M.size):
                state.independent((x,), (y,))
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept < 2 * 8 * vertices, kept


@settings(deadline=None)
@given(st.data(), all_matroids())
def test_state_rejects_dependent_sets(data, M):
    A = frozenset(data.draw(st.sets(st.integers(0, M.size - 1))))
    if _from_scratch(M, A):
        assert M.state(A).T == A
    else:
        with pytest.raises(PreconditionError):
            M.state(A)


# One small matroid of each family; {0, 2}, {1} and {1, 2} are independent
# in all four.
SMALL_MATROIDS = {
    "linear": lambda: LinearMatroid(3, [[1, 0, 1, 2], [0, 1, 1, 1]]),
    "graphic": lambda: GraphicMatroid(4, [(0, 1), (1, 2), (2, 3), (3, 0)]),
    "uniform": lambda: UniformMatroid(2, 4),
    "sparse_paving": lambda: SparsePavingMatroid(2, 4, [[0, 1]]),
}


@pytest.mark.parametrize("family", sorted(SMALL_MATROIDS))
def test_state_belongs_to_its_caller(family):
    # Every state() call builds a new state and gives no answer, so the
    # answer counts stay as they were; and it leaves the kept state where it
    # was, so {1, 2}, asked after {1}, is routed the same way whether or not
    # states of {0, 2} and {1} were built in between.
    routes = []
    for between in (False, True):
        M = SMALL_MATROIDS[family]()
        assert M.is_independent({1})
        if between:
            before = dict(M.answers)
            for T in ({0, 2}, {1}):
                first, second = M.state(T), M.state(T)
                assert first is not second and first.T == second.T == T
            assert M.answers == before
        before = dict(M.answers)
        assert M.is_independent({1, 2})
        routes.append({k: M.answers[k] - before[k] for k in before})
    kind = "incremental" if family in ("linear", "graphic") else "scratch"
    assert routes == [{k: int(k == kind) for k in routes[0]}] * 2


@pytest.mark.parametrize("family", sorted(SMALL_MATROIDS))
def test_only_linear_and_graphic_remember_answers(family):
    # A closed form answers {1, 2} from scratch each time it is asked; a
    # linear or graphic matroid, whose check is an elimination, remembers it.
    M = SMALL_MATROIDS[family]()
    counts = []
    for _ in range(2):
        before = dict(M.answers)
        assert M.is_independent({1, 2})
        counts.append({k: M.answers[k] - before[k] for k in before})
    again = "cached" if family in ("linear", "graphic") else "scratch"
    assert counts == [
        {k: int(k == "scratch") for k in counts[0]},
        {k: int(k == again) for k in counts[0]},
    ]


def test_answer_memo_starts_over_at_its_cap(monkeypatch):
    # A solve whose memo outgrows a cap of 64 answers makes the same moves
    # with that cap, and its memo then never holds more than 64 answers.
    def solve():
        seq = generate_instance("graphic", 12, "overlapping", seed=0).base_sequence()
        return seq.matroid, dump_move_log(pack_rainbow_bases(seq).moves)

    M, log = solve()
    assert len(M._known) > 64
    sizes = []
    answer = matroids._KeptStateMatroid._answer

    def recording(self, A):
        independent = answer(self, A)
        sizes.append(len(self._known))
        return independent

    monkeypatch.setattr(matroids, "KNOWN_ANSWERS_CAP", 64)
    monkeypatch.setattr(matroids._KeptStateMatroid, "_answer", recording)
    M, capped = solve()
    assert capped == log
    assert max(sizes) == 64 and M.answers["cached"] > 0


def _one_more(T, A):
    return len(A) == len(T) + 1 and T < A


@settings(deadline=None, max_examples=150)
@given(st.data(), linear_matroids() | graphic_matroids())
def test_kept_state_follows_growth(data, M):
    # Growth chains through is_independent (dependent extensions included),
    # states of other sets and isolated queries, interleaved.  Every answer
    # must equal a from-scratch check, and be counted as the rule says: a
    # set one element larger than the kept set takes one state query, any
    # other set not asked before a check from scratch.  An independent set
    # becomes the kept set; a dependent one leaves it where it was, and so
    # do a cached answer and a state, which belongs to its caller.
    sets = st.frozensets(st.integers(0, M.size - 1))
    asked = {frozenset()}
    kept = None
    chain = frozenset()
    ops = ("grow", "restart", "state", "isolated")
    for op in data.draw(st.lists(st.sampled_from(ops), max_size=30)):
        if op == "restart":
            chain = data.draw(independent_sets(M))
            continue
        A = chain | {data.draw(st.integers(0, M.size - 1))} if op == "grow" else data.draw(sets)
        want = _from_scratch(M, A)
        if op == "state":
            if want:
                assert M.state(A).T == A
            else:
                with pytest.raises(PreconditionError):
                    M.state(A)
            continue
        before = dict(M.answers)
        assert M.is_independent(A) == want, (sorted(A), op)
        if A in asked:
            kind = "cached"
        else:
            kind = "incremental" if kept is not None and _one_more(kept, A) else "scratch"
            if want:
                kept = A
        asked.add(A)
        assert {k: M.answers[k] - before[k] for k in before} == {
            k: int(k == kind) for k in before
        }, (sorted(A), op)
        if op == "grow" and want:
            chain = A


def _query_states(M):
    want = M.is_independent({1, 2, 3})
    assert M.state({0}).extend(2).independent((0,), (1, 3)) == want


def _answer_in_isolation(M):
    # a set asked on its own: on linear and graphic matroids its check from
    # scratch builds the state they keep
    assert M.is_independent({1})


def _grow_a_chain(M):
    # {0}, {0, 1}, ... : on linear and graphic matroids the kept state
    # follows the chain
    for k in range(1, M.size + 1):
        assert M.is_independent(range(k)) == _from_scratch(M, range(k))


def test_states_hold_no_reference_cycle():
    # A matroid that keeps a state must still be freed by reference
    # counting, with its independence cache, once the caller drops it: after
    # state queries, after an isolated is_independent and right after a
    # growth chain through is_independent.
    for build in (
        lambda: LinearMatroid(3, [[1, 0, 1, 2], [0, 1, 1, 1]]),
        lambda: GraphicMatroid(4, [(0, 1), (1, 2), (2, 3), (3, 0)]),
        lambda: UniformMatroid(2, 4),
        lambda: SparsePavingMatroid(2, 4, [[0, 1]]),
    ):
        for use in (_query_states, _answer_in_isolation, _grow_a_chain):
            M = build()
            gc.collect()
            gc.disable()
            try:
                use(M)
                ref = weakref.ref(M)
                del M
                assert ref() is None, use.__name__
            finally:
                gc.enable()


def test_state_query_limits():
    M = UniformMatroid(2, 4)
    with pytest.raises(InputError):
        M.state({0, 7})


def test_linear_modulus_primality():
    # deterministic Miller-Rabin: a prime near 10^18 loads at once, and
    # strong pseudoprimes to the smaller bases are still refused
    start = time.perf_counter()
    M = LinearMatroid(10**18 + 9, [[1]])
    assert M.rank == 1 and time.perf_counter() - start < 0.1
    for p in (561, 2047, 3215031751, 318665857834031151167461):
        with pytest.raises(ValidationError, match="not prime"):
            LinearMatroid(p, [[1]])
    with pytest.raises(ValidationError, match="beyond the primality test"):
        LinearMatroid(10**25 + 13, [[1]])


def test_linear_modulus_primality_matches_trial_division():
    # the witnesses themselves and their multiples take the short path
    for p in range(-2, 5000):
        prime = p >= 2 and all(p % d for d in range(2, math.isqrt(p) + 1))
        if prime:
            assert LinearMatroid(p, [[1]]).rank == 1, p
        else:
            with pytest.raises(ValidationError, match="not prime"):
                LinearMatroid(p, [[1]])


def _rref_rank(columns, p):
    """Rank by full reduction of the row-major matrix: every pivot column is
    cleared above and below its pivot."""
    rows = [list(col) for col in zip(*columns)] if columns else []
    rank = 0
    for col in range(len(columns)):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] % p), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        rows[rank] = [(v * inv) % p for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] % p:
                f = rows[r][col]
                rows[r] = [(a - f * b) % p for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


@st.composite
def gf_columns(draw):
    """A prime p and a list of columns of up to 8 rows, with unreduced
    (negative and large) entries, zero, repeated, scaled and dependent
    columns, and often more columns than rows."""
    p = draw(st.sampled_from((2, 3, 5, 7) + LARGE_PRIMES))
    k = draw(st.integers(1, 8))
    entry = st.integers(-12, 30) | st.integers(-2 * p, 2 * p)
    vector = st.lists(entry, min_size=k, max_size=k)
    pool = draw(st.lists(vector, min_size=1, max_size=3))
    combination = _combinations(pool, st.integers(-p, p), lambda a: a)
    column = combination | st.just([0] * k) | vector
    return p, draw(st.lists(column, max_size=9))


@settings(deadline=None)
@given(gf_columns())
def test_gf_rank_matches_full_reduction(case):
    p, columns = case
    assert gf_rank(columns, p) == _rref_rank(columns, p)


@pytest.mark.parametrize("p", (2, 5, 2**61 - 1))
def test_linear_lanes_at_64_rows_of_the_largest_entry(p):
    # Every entry p - 1, the largest a reduced lane starts from.  The all
    # p - 1 matrix has rank 1.  The 64 columns of (p - 1)(J - I), J all
    # ones, are independent over these p (63 is not 0 mod p), so their
    # elimination runs 64 pivot steps, and the all p - 1 column depends on
    # every one of them: each lane meets as many steps as a lane can.
    k = 64
    ones = [p - 1] * k
    assert gf_rank([ones] * 8, p) == _rref_rank([ones] * 8, p) == 1
    columns = [[0 if i == j else p - 1 for i in range(k)] for j in range(k)] + [ones]
    assert gf_rank(columns, p) == _rref_rank(columns, p) == k
    M = LinearMatroid(p, [list(row) for row in zip(*columns)])
    # a lane starts below p and each of at most k steps adds at most
    # (p - 1) * p; the lane-wise mod is exact up to that bound, whose
    # residue is p - 1, the largest
    lanes = M._lanes
    top = (p - 1) * (1 + k * p)
    values = [top - i for i in range(k)]
    assert lanes.mod(sum(a << i * lanes.width for i, a in enumerate(values))) == lanes.pack(values)
    # a built state of half of T, extended to T = 0..62, one step at a time
    state = M.state(range(32))
    for y in range(32, 63):
        state = state.extend(y)
    T = state.T
    for x in (0, 31, 62):
        for added in ((63,), (k,), (63, k)):
            want = _from_scratch(M, T - {x} | set(added))
            assert state.independent((x,), added) == want, (x, added)
    assert state.independent((), (63,)) and not state.independent((), (63, k))


def test_gf_rank_edge_cases():
    assert gf_rank([], 5) == 0
    assert gf_rank([[0, 0], [0, 0]], 3) == 0
    assert gf_rank([[5, 10], [7, 14]], 5) == 1  # unreduced: (0, 0) and (2, 4) mod 5
    assert gf_rank([[1, 0], [0, 1], [1, 1], [2, 3]], 7) == 2  # stops at full row rank
    assert gf_rank([[1, 1], [1, 1]], 2) == 1


# The move log of a linear solve at 32 rows, more than the strategies above
# draw.  Its SHA-256 was computed at commit a039f40, with the list-based
# elimination that preceded the packed lanes.
LINEAR_N32_MOVELOG_SHA256 = "4dba0c35bb29ea9c8fb1b58bce786aa2a6184ee06cbeed70af53614a009f74bb"


def test_linear_solve_at_32_rows_is_pinned():
    seq = generate_instance("linear", 32, "overlapping", seed=0).base_sequence()
    log = dump_move_log(pack_rainbow_bases(seq).moves)
    assert hashlib.sha256(log.encode()).hexdigest() == LINEAR_N32_MOVELOG_SHA256
