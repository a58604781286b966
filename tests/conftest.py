"""Shared fixtures and builders for the rainbowpack test suite."""

import pytest

from rainbowpack.exchange import Root
from rainbowpack.instances import GENERATOR_FAMILIES, generate_instance
from rainbowpack.matroids import UniformMatroid
from rainbowpack.model import BaseSequence, Collection


def uniform_seq(k, bases):
    """Base sequence over U(k, m) with m inferred from the bases."""
    m = max(x for B in bases for x in B) + 1
    return BaseSequence(UniformMatroid(k, m), bases)


def generated_seqs(ns=range(3, 7), families=GENERATOR_FAMILIES):
    """Named base sequences of seed-0 generated instances, every family and
    both modes, each n."""
    for family in families:
        for mode in ("disjoint", "overlapping"):
            for n in ns:
                inst = generate_instance(family, n, mode, seed=0)
                yield f"{family}-{mode}-{n}", inst.base_sequence()


@pytest.fixture
def u24_disjoint():
    """U(2,4), two disjoint bases; the smallest nontrivial disjoint instance."""
    return uniform_seq(2, [{0, 1}, {2, 3}])


@pytest.fixture
def u24_overlapping():
    """U(2,4), both bases equal; kappa = 2."""
    return uniform_seq(2, [{0, 1}, {0, 1}])


@pytest.fixture
def bad_root_u36():
    """The worked U(3,6) bad-root instance.

    B1={0,1,2}, B2={0,3,5}, B3={1,3,4}; collection { S={(0,2),(1,3)},
    S'={(2,1),(3,2),(4,3)} }; root (S, colour 1) is bad.
    """
    seq = BaseSequence(UniformMatroid(3, 6), [{0, 1, 2}, {0, 3, 5}, {1, 3, 4}])
    S = frozenset({(0, 2), (1, 3)})
    S_prime = frozenset({(2, 1), (3, 2), (4, 3)})
    coll = Collection(3, (S, S_prime))
    return seq, Root(coll, 0, 1)


def sample_bad_root(rng, n=None):
    """One constructed bad root on a kappa=2 uniform instance.

    Returns (seq, root, alpha) with alpha = n - |collection| > kappa = 2,
    the regime where the recolouring graph must reach a terminal.  The
    root's set S carries raw elements of the missing colour's base under
    other colours, and the remaining elements of that colour are used by
    the other sets, so every unused element of the missing colour has its
    raw inside underline(S).
    """
    if n is None:
        n = rng.choice((6, 7, 8))
    b = rng.randrange(1, n + 1)
    others = [c for c in range(1, n + 1) if c != b]
    rng.shuffle(others)
    size = rng.randrange(4, n)  # |S|; alpha = size - 1 >= 3 > kappa
    covered = list(range(size))  # raws of B_b carried by S under other colours
    uncovered = list(range(size, n))

    bases = {b: set(range(n))}
    fresh = n
    carriers = others[:size]
    for i, c in enumerate(carriers):
        bases[c] = {covered[i]} | set(range(fresh, fresh + n - 1))
        fresh += n - 1
    for c in others[size:]:
        bases[c] = set(range(fresh, fresh + n))
        fresh += n
    seq = uniform_seq(n, [bases[c] for c in range(1, n + 1)])

    S = frozenset((covered[i], carriers[i]) for i in range(size))
    # one singleton set per colour-b element whose raw S does not carry, so
    # the unused colour-b elements are exactly the covered ones
    rest = tuple(frozenset({(y, b)}) for y in uncovered)
    coll = Collection(n, (S,) + rest)
    alpha = n - len(coll.sets)
    assert alpha > 2
    return seq, Root(coll, 0, b), alpha
