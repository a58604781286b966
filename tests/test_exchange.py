"""Roots, swap/add enumeration, transitions and the cyclic exchange move."""

import gc
import itertools

import pytest

from rainbowpack import cascade, solver
from rainbowpack.errors import (
    InputError,
    PreconditionError,
    ValidationError,
)
from rainbowpack.exchange import (
    AddRecord,
    ExchangeGraph,
    Root,
    add_set,
    apply_add,
    arrow,
    cyclic_exchange,
    exchange_injection,
    exchanged_set,
    iter_roots,
    make_root,
    swap_set,
    transition,
)
from rainbowpack.instances import generate_instance
from rainbowpack.matroids import LinearMatroid
from rainbowpack.model import (
    BaseSequence,
    Collection,
    is_ris,
    underline,
    unused,
    validate_collection,
)
from rainbowpack.oracle import enumerate_ris
from rainbowpack.solver import apply_move, pack_rainbow_bases
from conftest import generated_seqs, uniform_seq


def small_instances():
    yield uniform_seq(2, [{0, 1}, {2, 3}])
    yield uniform_seq(2, [{0, 1}, {0, 1}])
    yield uniform_seq(3, [{0, 1, 2}, {0, 3, 5}, {1, 3, 4}])
    yield BaseSequence(
        LinearMatroid(2, [[1, 0, 1, 0, 1], [0, 1, 1, 0, 0], [0, 0, 0, 1, 1]]),
        [{0, 1, 3}, {2, 3, 0}, {1, 2, 4}],
    )


def some_collections(seq, cap=40):
    """A deterministic spread of small valid collections."""
    from rainbowpack.oracle import iter_collections

    out = []
    for coll in iter_collections(seq, max_sets=3):
        out.append(coll)
        if len(out) >= cap:
            break
    return out


def test_make_root_validation(u24_disjoint):
    seq = u24_disjoint
    coll = Collection(2, (frozenset({(0, 1)}),))
    root = make_root(seq, coll, 0, 2)
    assert root.ris == {(0, 1)} and root.b == 2
    with pytest.raises(ValidationError):
        make_root(seq, coll, 5, 2)
    with pytest.raises(InputError):
        make_root(seq, coll, 0, 3)
    with pytest.raises(ValidationError):
        make_root(seq, coll, 0, 1)  # colour already present


def test_iter_roots(u24_disjoint):
    coll = Collection(2, (frozenset({(0, 1)}), frozenset({(2, 2), (1, 1)})))
    roots = list(iter_roots(u24_disjoint, coll))
    assert [(r.index, r.b) for r in roots] == [(0, 2)]
    assert list(iter_roots(u24_disjoint, coll, size=2)) == []


def test_swap_set_matches_definition():
    for seq in small_instances():
        for coll in some_collections(seq, cap=15):
            for root in iter_roots(seq, coll):
                got = swap_set(seq, root)
                S = root.ris
                pool = unused(seq, coll, root.b)
                for xc in S:
                    expected = sorted(
                        yb for yb in pool if is_ris(seq, (S - {xc}) | {yb})
                    )
                    assert list(got.get(xc, ())) == expected


def test_add_set_matches_definition():
    for seq in small_instances():
        for coll in some_collections(seq, cap=15):
            for root in iter_roots(seq, coll):
                S = root.ris
                pool = unused(seq, coll, root.b)
                got = {rec.element: rec for rec in add_set(seq, root)}
                for xc in sorted(seq.universe - S):
                    direct = is_ris(seq, S | {xc})
                    variants = set()
                    if not direct:
                        for yb in pool:
                            for xpc in S:
                                if xpc[1] != xc[1]:
                                    continue
                                if is_ris(seq, (S | {xc, yb}) - {xpc}):
                                    variants.add((xpc, yb))
                    if direct:
                        assert got[xc].variants == ()
                    elif variants:
                        assert set(got[xc].variants) == variants
                    else:
                        assert xc not in got


def _add_set_by_definition(seq, root):
    """add_set as first written: every candidate checked with is_ris."""
    S = root.ris
    pool = sorted(unused(seq, root.collection, root.b))
    records = []
    for xc in sorted(seq.universe - S):
        x, c = xc
        if is_ris(seq, S | {xc}):
            records.append(AddRecord(xc))
            continue
        variants = []
        removable = sorted(xpc for xpc in S if xpc[1] == c)
        for yb in pool:
            for xpc in removable:
                if is_ris(seq, (S | {xc, yb}) - {xpc}):
                    variants.append((xpc, yb))
        if variants:
            variants.sort(key=lambda v: (v[1], v[0]))
            records.append(AddRecord(xc, tuple(variants)))
    return tuple(records)


def _swap_set_by_definition(seq, root):
    """swap_set as first written: every witness checked with is_ris."""
    S = root.ris
    pool = sorted(unused(seq, root.collection, root.b))
    out = {}
    for xc in sorted(S):
        witnesses = [yb for yb in pool if is_ris(seq, S - {xc} | {yb})]
        if witnesses:
            out[xc] = tuple(witnesses)
    return out


def test_add_and_swap_sets_match_definition_on_solver_collections():
    """Every root of every collection a solve passes through, the final one
    included, on generated instances of every family and mode, n = 3..8.

    Each record and variant of ``add_set`` also goes through ``transition``,
    which trusts the record: it either refuses the move (a foreign or
    singleton donor) or makes a valid collection whose
    root set is the one ``apply_add`` describes."""
    roots = moved = 0
    for name, seq in generated_seqs(range(3, 9)):
        coll, free = Collection(seq.n), sorted(seq.universe)
        for move in pack_rainbow_bases(seq).moves:
            coll = apply_move(seq, coll, move, free)
            for root in iter_roots(seq, coll):
                roots += 1
                records = add_set(seq, root)
                assert records == _add_set_by_definition(seq, root), name
                assert swap_set(seq, root) == _swap_set_by_definition(seq, root), name
                for rec in records:
                    for variant in rec.variants or (None,):
                        try:
                            new_root = transition(seq, root, rec, variant)
                        except PreconditionError:
                            continue
                        moved += 1
                        new_coll = new_root.collection
                        ok, why = validate_collection(seq, new_coll)
                        assert ok, (name, why)
                        T = apply_add(root.ris, rec, variant)
                        assert new_coll.sets[root.index] == T, name
    assert roots > 1000 and moved > 10000


def test_add_record_canonical_variant():
    rec = AddRecord(
        (5, 1),
        (((0, 1), (2, 2)), ((1, 1), (2, 2)), ((0, 1), (3, 2))),
    )
    # variants are consumed in the given order; the first is canonical
    assert rec.variants[0] == ((0, 1), (2, 2))
    assert len(rec.variants) == 3


def test_apply_add():
    S = frozenset({(0, 1), (2, 2)})
    assert apply_add(S, AddRecord((3, 3))) == S | {(3, 3)}
    rec = AddRecord((4, 1), (((0, 1), (5, 3)),))
    out = apply_add(S, rec)
    assert out == {(4, 1), (5, 3), (2, 2)}
    alt = apply_add(S, rec, variant=((0, 1), (5, 3)))
    assert alt == out


def test_transition_moves_element(bad_root_u36):
    seq, root = bad_root_u36
    # (3,2) sits in the second set and is addable to S={(0,2),(1,3)} at colour 1?
    # enumerate instead of assuming: take any addable element held by set 1
    for rec in add_set(seq, root):
        donor = root.collection.index_of_element(rec.element)
        if donor == 1:
            new_root = transition(seq, root, rec)
            assert new_root.index == 1
            assert new_root.b == rec.element[1]
            assert rec.element in new_root.collection.sets[0]
            assert rec.element not in new_root.collection.sets[1]
            ok, why = validate_collection(seq, new_root.collection)
            assert ok, why
            return
    pytest.skip("no cross-set addable element on this fixture")


def test_transition_rejects_foreign_and_singleton(u24_disjoint):
    seq = u24_disjoint
    coll = Collection(2, (frozenset({(0, 1)}), frozenset({(2, 2)})))
    root = Root(coll, 0, 2)
    free = AddRecord((3, 2))
    with pytest.raises(PreconditionError):
        transition(seq, root, free)  # element not held by another set
    held = AddRecord((2, 2))
    with pytest.raises(PreconditionError):
        transition(seq, root, held)  # donor would become empty


def test_exchange_injection_properties():
    for seq in small_instances():
        for coll in some_collections(seq, cap=10):
            for S in coll.sets:
                for c in range(1, seq.n + 1):
                    phi = exchange_injection(seq, S, c)
                    raw = underline(S)
                    assert set(phi) == set(raw)
                    assert len(set(phi.values())) == len(phi)  # injective
                    for x, y in phi.items():
                        assert y in seq.base(c)
                        assert y == x or seq.matroid.is_independent(
                            (raw - {x}) | {y}
                        )


def test_exchange_injection_leaves_no_garbage_cycles():
    # Its search must be freed by reference counting when it returns, not
    # held in a reference cycle until the next full garbage collection.
    seq = generate_instance("linear", 4, "disjoint", seed=0).base_sequence()
    S = pack_rainbow_bases(seq).collection.sets[0]
    gc.collect()
    gc.disable()
    try:
        for c in range(1, seq.n + 1):
            exchange_injection(seq, S, c)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_arrow(u24_disjoint):
    seq = u24_disjoint
    T = frozenset({(1, 1), (2, 2)})
    assert arrow(ExchangeGraph(seq, T), (0, 1), (1, 1))


def test_arrow_asks_whether_a_fresh_pair_swaps():
    # For a fresh pair, xpc in S_prime and xc of its colour whose raw element
    # lies outside S_prime, arrow on S_prime's exchange graph answers whether
    # S_prime - xpc + xc is an RIS.
    checked = 0
    for _, seq in generated_seqs(ns=(3, 4)):
        for S_prime in enumerate_ris(seq):
            graph = ExchangeGraph(seq, S_prime)
            for xpc, xc in itertools.product(sorted(S_prime), sorted(seq.universe)):
                if xc[1] == xpc[1] and xc[0] not in graph.raw:
                    assert arrow(graph, xc, xpc) == is_ris(seq, S_prime - {xpc} | {xc})
                    checked += 1
    assert checked > 10000


def test_cyclic_exchange_self_swap():
    seq = uniform_seq(2, [{0, 1}, {2, 3}])
    S_prime = frozenset({(1, 1), (3, 2)})
    pairs = [((0, 1), (1, 1)), ((2, 2), (3, 2))]
    I = cyclic_exchange(ExchangeGraph(seq, S_prime), pairs)
    assert I == {0}  # uniform matroids allow every single swap; the least wins
    assert is_ris(seq, exchanged_set(S_prime, pairs, I))


def test_cyclic_exchange_prefers_the_least_self_swap():
    # GF(3) columns 0..3 = e1..e4, 4 = 2e2, 5 = 2e1, 6 = e1 + e3, 7 = e2 + e4.
    # Pairs 0 and 1 relate only to each other (a 2-cycle on the least
    # indices); pairs 2 and 3 each relate to themselves and to one of them.
    M = LinearMatroid(3, [
        [1, 0, 0, 0, 0, 2, 1, 0],
        [0, 1, 0, 0, 2, 0, 0, 1],
        [0, 0, 1, 0, 0, 0, 1, 0],
        [0, 0, 0, 1, 0, 0, 0, 1],
    ])
    seq = BaseSequence(M, [{0, 2, 3, 4}, {1, 2, 3, 5}, {1, 2, 3, 6}, {0, 2, 3, 7}])
    S_prime = frozenset({(0, 1), (1, 2), (2, 3), (3, 4)})
    pairs = [((4, 1), (0, 1)), ((5, 2), (1, 2)), ((6, 3), (2, 3)), ((7, 4), (3, 4))]
    graph = ExchangeGraph(seq, S_prime)
    relation = {
        (i, j)
        for i, j in itertools.product(range(4), repeat=2)
        if arrow(graph, pairs[i][0], pairs[j][1])
    }
    assert relation == {(0, 1), (1, 0), (2, 0), (2, 2), (3, 1), (3, 3)}
    I = cyclic_exchange(graph, pairs)
    assert I == {2}
    assert is_ris(seq, exchanged_set(S_prime, pairs, I))


def test_cyclic_exchange_true_cycle():
    # GF(3) columns: 0=(1,0) 1=(0,1) 2=(0,2) 3=(2,0); no single swap works
    # because column 2 is parallel to 1 and column 3 is parallel to 0.
    M = LinearMatroid(3, [[1, 0, 0, 2], [0, 1, 2, 0]])
    seq = BaseSequence(M, [{0, 2}, {1, 3}])
    S_prime = frozenset({(0, 1), (1, 2)})
    pairs = [((2, 1), (0, 1)), ((3, 2), (1, 2))]
    graph = ExchangeGraph(seq, S_prime)
    assert not arrow(graph, (2, 1), (0, 1))
    assert not arrow(graph, (3, 2), (1, 2))
    I = cyclic_exchange(graph, pairs)
    assert I == {0, 1}
    assert is_ris(seq, exchanged_set(S_prime, pairs, I))


def _partnerless_system():
    """GF(3) columns 0..3 = e1..e4, 4 = 2e2, 5 = 2e1, 6 = 2e4.  Pair 0's left
    element 2e4 stays in the span of S_prime minus any right element, so it
    relates to no partner; pairs 1 and 2 relate only to each other."""
    M = LinearMatroid(3, [
        [1, 0, 0, 0, 0, 2, 0],
        [0, 1, 0, 0, 2, 0, 0],
        [0, 0, 1, 0, 0, 0, 0],
        [0, 0, 0, 1, 0, 0, 2],
    ])
    seq = BaseSequence(M, [{0, 2, 3, 4}, {1, 2, 3, 5}, {0, 1, 2, 6}, {0, 1, 2, 3}])
    S_prime = frozenset({(0, 1), (1, 2), (2, 3), (3, 4)})
    pairs = [((6, 3), (2, 3)), ((4, 1), (0, 1)), ((5, 2), (1, 2))]
    return seq, S_prime, pairs


def test_cyclic_exchange_skips_a_pair_with_no_partner():
    seq, S_prime, pairs = _partnerless_system()
    graph = ExchangeGraph(seq, S_prime)
    assert not any(arrow(graph, pairs[0][0], q[1]) for q in pairs)
    I = cyclic_exchange(graph, pairs)
    assert I == {1, 2}
    assert is_ris(seq, exchanged_set(S_prime, pairs, I))


def test_cyclic_exchange_without_a_cycle_needs_a_pair_with_no_partner():
    seq, S_prime, pairs = _partnerless_system()
    # pair 1 relates only to pair 2, which is left out
    with pytest.raises(PreconditionError, match="no partner"):
        cyclic_exchange(ExchangeGraph(seq, S_prime), pairs[:2])


def test_cyclic_exchange_exhaustive_cross_check():
    # every returned index set must be realizable; cross-check against all
    # subsets on small systems drawn from real collections
    for seq in small_instances():
        checked = 0
        colls = some_collections(seq, cap=20)
        for coll in colls:
            for a, b in itertools.permutations(range(len(coll.sets)), 2):
                S, S_prime = coll.sets[a], coll.sets[b]
                if underline(S) & underline(S_prime):
                    continue
                shared = sorted(
                    {c for _, c in S} & {c for _, c in S_prime}
                )
                if not shared:
                    continue
                left = {c: (x, c) for x, c in S}
                right = {c: (x, c) for x, c in S_prime}
                pairs = [(left[c], right[c]) for c in shared]
                graph = ExchangeGraph(seq, S_prime)
                if not all(
                    any(arrow(graph, p[0], q[1]) for q in pairs)
                    for p in pairs
                ):
                    continue
                I = cyclic_exchange(graph, pairs)
                assert I and is_ris(seq, exchanged_set(S_prime, pairs, I))
                checked += 1
        assert checked > 0


def test_solver_keeps_the_exchange_contracts(monkeypatch):
    # transition and cyclic_exchange trust their callers; check at every
    # call a solve makes what they no longer check themselves
    calls = {"cyclic_exchange": 0, "transition": 0}
    attempt, colls = solver._attempt_exchange, []

    def recording_attempt(seq, coll, probe):
        colls.append(coll)
        return attempt(seq, coll, probe)

    def checked_cyclic_exchange(graph, pairs):
        calls["cyclic_exchange"] += 1
        # the graph is that of a set of the collection
        S_prime = frozenset(graph.holder.values())
        assert S_prime in colls[-1].sets and underline(S_prime) == graph.raw
        assert pairs and len({c for (_, c), _ in pairs}) == len(pairs)
        # every left element comes from one other set of the collection
        donors = {colls[-1].index_of_element(left) for left, _ in pairs}
        assert len(donors) == 1 and None not in donors
        assert colls[-1].sets[donors.pop()] != S_prime
        for left, right in pairs:
            assert left[1] == right[1] and right in S_prime
        return cyclic_exchange(graph, pairs)

    def checked_transition(seq, root, record, variant=None):
        calls["transition"] += 1
        assert record.element not in root.ris
        for _, witness in record.variants:
            assert root.collection.index_of_element(witness) is None
        return transition(seq, root, record, variant)

    monkeypatch.setattr(solver, "_attempt_exchange", recording_attempt)
    monkeypatch.setattr(solver, "cyclic_exchange", checked_cyclic_exchange)
    monkeypatch.setattr(solver, "transition", checked_transition)
    monkeypatch.setattr(cascade, "transition", checked_transition)
    for _, seq in generated_seqs():
        pack_rainbow_bases(seq)
    assert calls["cyclic_exchange"] > 0 and calls["transition"] > 0, calls


def test_cyclic_exchange_preconditions(u24_overlapping):
    # raw collision between an incoming element and the target set
    with pytest.raises(PreconditionError, match="already present in the target"):
        cyclic_exchange(
            ExchangeGraph(u24_overlapping, frozenset({(1, 2), (0, 1)})),
            [((1, 1), (0, 1)), ((0, 2), (1, 2))],
        )
