"""Recolouring graph, good transform, cascades and concentration probes."""

import gc
import random

import pytest

from rainbowpack import solver
from rainbowpack.cascade import (
    build_good_graph,
    cascade_search,
    concentration_probe,
    good_transform,
    is_good,
)
from rainbowpack.errors import LevelBoundViolatedError, PreconditionError
from rainbowpack.exchange import Root, add_set, transition
from rainbowpack.instances import generate_instance
from rainbowpack.model import Collection, underline, validate_collection
from rainbowpack.solver import PROBE_K, pack_rainbow_bases, replay_moves
from conftest import sample_bad_root, uniform_seq


def test_is_good_cases(u24_disjoint):
    seq = u24_disjoint
    coll = Collection(2, (frozenset({(0, 1)}),))
    assert is_good(seq, Root(coll, 0, 2))  # (2,2) and (3,2) avoid underline
    # bad: the only unused colour-1 element has its raw under the set
    seq2 = uniform_seq(2, [{0, 1}, {0, 1}])
    coll2 = Collection(2, (frozenset({(0, 2)}), frozenset({(1, 1)})))
    assert not is_good(seq2, Root(coll2, 0, 1))  # UN_1 = {(0,1)}, 0 under S
    coll3 = Collection(2, (frozenset({(0, 2)}), frozenset({(1, 2)})))
    assert is_good(seq2, Root(coll3, 0, 1))  # (1,1) avoids underline(S) = {0}


def test_worked_example_graph(bad_root_u36):
    seq, root = bad_root_u36
    assert not is_good(seq, root)
    g = build_good_graph(seq, root)
    assert g.base == ("O", 1)
    assert g.levels[0] == (("O", 1),)
    assert set(g.levels[1]) == {(0, 2), (1, 3)}
    assert set(g.levels[2]) == {(5, 2), (3, 3)}
    assert set(g.terminals) == {(5, 2), (3, 3)}
    assert set(g.terminals) <= set(g.levels[-1])  # it stops at a terminal level
    assert g.parents[(5, 2)] == (0, 2)
    assert g.parents[(3, 3)] == (1, 3)
    assert g.cumulative_sizes() == (1, 3, 5)


def test_worked_example_transform(bad_root_u36):
    seq, root = bad_root_u36
    new_root, path = good_transform(seq, root)
    assert new_root.ris == {(0, 1), (1, 3)}
    assert new_root.b == 2
    assert underline(new_root.ris) == underline(root.ris)
    assert is_good(seq, new_root)
    assert path == (("O", 1), (0, 2), (5, 2))
    assert len(path) - 2 == 1  # hops
    assert 5 not in underline(new_root.ris)
    ok, why = validate_collection(seq, new_root.collection)
    assert ok, why


def test_good_transform_identity_on_good_root(u24_disjoint):
    seq = u24_disjoint
    coll = Collection(2, (frozenset({(0, 1)}),))
    root = Root(coll, 0, 2)
    new_root, path = good_transform(seq, root)
    assert new_root == root
    assert len(path) - 2 == 0 and new_root.ris == root.ris


def test_good_transform_level_bound_error():
    # the graph dead-ends: the only colour-1 candidate loops back into S and
    # every colour-2 element is already used, so no terminal ever appears
    seq = uniform_seq(2, [{0, 1}, {0, 1}])
    coll = Collection(
        2,
        (frozenset({(0, 2)}), frozenset({(1, 1)}), frozenset({(1, 2)})),
    )
    root = Root(coll, 0, 1)
    g = build_good_graph(seq, root)
    assert g.terminals == ()
    with pytest.raises(LevelBoundViolatedError):
        good_transform(seq, root)


def brute_cascadable(seq, root, chain):
    """Independent definitional enumeration of cascadable elements.

    Walks every sequence of transitions whose donors follow the chain in
    order, with every (variant) choice, and collects the elements addable at
    the end that avoid the chain sets and the root's set.
    """
    forbidden = frozenset().union(
        root.ris, *(root.collection.sets[i] for i in chain)
    )
    found = set()

    def walk(current, pos):
        if pos == len(chain):
            for rec in add_set(seq, current):
                if rec.element not in forbidden:
                    found.add(rec.element)
            return
        target = current.collection.sets[chain[pos]]
        for rec in add_set(seq, current):
            if rec.element not in target:
                continue
            for variant in rec.variants or (None,):
                try:
                    nxt = transition(seq, current, rec, variant)
                except PreconditionError:
                    continue
                walk(nxt, pos + 1)

    walk(root, 0)
    return found


def test_cascade_search_matches_brute():
    from rainbowpack.oracle import iter_collections
    from rainbowpack.exchange import iter_roots

    seq = uniform_seq(3, [{0, 1, 2}, {0, 3, 5}, {1, 3, 4}])
    rng = random.Random(3)
    checked = 0
    for coll in iter_collections(seq, max_sets=3, rng=rng):
        if len(coll.sets) < 2:
            continue
        for root in iter_roots(seq, coll):
            others = [i for i in range(len(coll.sets)) if i != root.index]
            for chain in [(i,) for i in others]:
                got = cascade_search(seq, root, chain)
                expect = brute_cascadable(seq, root, chain)
                assert set(got) == expect
                checked += 1
        if checked > 60:
            break
    assert checked > 30


def test_cascade_trace_replays(bad_root_u36):
    seq, root = bad_root_u36
    results = cascade_search(seq, root, (1,))
    assert results  # the worked instance has cascadable elements via set 1
    for elem, trace in results.items():
        assert trace.record.element == elem
        ok, why = validate_collection(seq, trace.final_root.collection)
        assert ok, why
        holder = trace.final_root.collection.index_of_element(elem)
        if (
            holder is not None
            and holder != trace.final_root.index
            and len(trace.final_root.collection.sets[holder]) > 1
        ):
            # only elements held by another member admit an associated root
            aroot = transition(seq, trace.final_root, trace.record)
            assert elem in aroot.collection.sets[trace.final_root.index]
            ok, why = validate_collection(seq, aroot.collection)
            assert ok, why


def test_concentration_probe(bad_root_u36):
    seq, root = bad_root_u36
    coll = root.collection
    probes = concentration_probe(seq, coll, PROBE_K, depth_limit=2)
    assert probes  # the worked instance has cascadable elements via set 1
    for probe in probes:
        assert probe.traces
        for elem, trace in probe.traces.items():
            assert trace.record.element == elem
            assert elem in coll.sets[probe.landing_index]
            ok, why = validate_collection(seq, trace.final_root.collection)
            assert ok, why
    # most concentrated first, and no result twice
    sizes = [len(probe.traces) for probe in probes]
    assert sizes == sorted(sizes, reverse=True)
    assert len(set(probes)) == len(probes)


def test_good_cascade_on_sampled_bad_roots():
    rng = random.Random(11)
    seq, root, alpha = sample_bad_root(rng)
    # a good cascade through any single-set chain must end on a valid root
    others = [i for i in range(len(root.collection.sets)) if i != root.index]
    results = cascade_search(seq, root, (others[0],), good=True)
    for elem, trace in results.items():
        ok, why = validate_collection(seq, trace.final_root.collection)
        assert ok, why


def test_concentration_probe_leaves_no_garbage_cycles(monkeypatch):
    # A search's states and traces must be freed when it returns, not held
    # in a reference cycle until the next full garbage collection.  Without
    # the steal move the solve reaches a collection a cascade moves from.
    monkeypatch.setattr(solver, "_takes", lambda graph, free: lambda y: False)
    seq = generate_instance("graphic", 5, "overlapping", kappa=2, seed=1).base_sequence()
    moves = pack_rainbow_bases(seq).moves
    at = [m["kind"] for m in moves].index("cascade")
    coll = replay_moves(seq, moves[:at])
    gc.collect()
    gc.disable()
    try:
        assert concentration_probe(seq, coll, PROBE_K, depth_limit=2) is not None
        assert gc.collect() == 0
    finally:
        gc.enable()
