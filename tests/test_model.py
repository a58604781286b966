"""Coloured universe, RIS validation, signatures and the signature order."""

import pytest
from hypothesis import given, strategies as st

from rainbowpack.errors import InputError, PreconditionError, ValidationError
from rainbowpack.matroids import UniformMatroid
from rainbowpack.model import (
    BaseSequence,
    BoundParams,
    Collection,
    colours_of,
    is_ris,
    istar,
    istarstar,
    lex_compare,
    signature_of_sizes,
    submaximal_signature,
    underline,
    unused,
    validate_collection,
    validate_ris,
)


def test_bound_params_validation():
    BoundParams(beta=0, kappa=1, alpha=0)
    with pytest.raises(ValidationError):
        BoundParams(beta=-1)
    with pytest.raises(ValidationError):
        BoundParams(kappa=0)
    with pytest.raises(ValidationError):
        BoundParams(alpha=-1)
    assert BoundParams(alpha=2).eta(7) == 5


def test_base_sequence_universe(u24_disjoint):
    seq = u24_disjoint
    assert seq.n == 2
    assert seq.universe == {(0, 1), (1, 1), (2, 2), (3, 2)}
    assert seq.base(1) == {0, 1}
    assert seq.colour_elements(2) == {(2, 2), (3, 2)}
    assert seq.overlap_kappa() == 1 and seq.is_disjoint()
    with pytest.raises(InputError):
        seq.base(3)


def test_build_universe_rejects_non_bases():
    M = UniformMatroid(2, 4)
    with pytest.raises(ValidationError):
        BaseSequence(M, [{0, 1}])  # wrong count
    with pytest.raises(ValidationError):
        BaseSequence(M, [{0, 1}, {2}])  # too small
    with pytest.raises((InputError, ValidationError)):
        BaseSequence(M, [{0, 1}, {2, 9}])  # out of range
    seq = BaseSequence(M, [{0, 1}, {2, 3}])
    assert seq.universe == {(0, 1), (1, 1), (2, 2), (3, 2)}


def test_underline_colours(u24_overlapping):
    S = {(0, 1), (1, 2)}
    assert underline(S) == {0, 1}
    assert colours_of(S) == {1, 2}


def test_validate_ris_cases(u24_overlapping):
    seq = u24_overlapping
    assert is_ris(seq, {(0, 1), (1, 2)})
    assert is_ris(seq, set())
    ok, why = validate_ris(seq, {(0, 1), (0, 2)})
    assert not ok and "raw" in why
    ok, why = validate_ris(seq, {(0, 1), (1, 1)})
    assert not ok and "colour" in why
    ok, why = validate_ris(seq, {(9, 1)})
    assert not ok


def test_validate_ris_dependent():
    from rainbowpack.matroids import GraphicMatroid

    # edges 0 and 1 are parallel: distinct raws, distinct colours, dependent
    M = GraphicMatroid(3, [(0, 1), (0, 1), (1, 2), (1, 2)])
    seq = BaseSequence(M, [{0, 2}, {1, 3}])
    ok, why = validate_ris(seq, {(0, 1), (1, 2)})
    assert not ok and "dependent" in why


def test_signature_of_sizes():
    assert signature_of_sizes([1, 1, 3], 3) == (2, 0, 1)
    assert signature_of_sizes([], 4) == (0, 0, 0, 0)
    with pytest.raises(InputError):
        signature_of_sizes([0], 3)
    with pytest.raises(InputError):
        signature_of_sizes([4], 3)


def test_lex_compare_last_coordinate_first():
    assert lex_compare((5, 0), (0, 1)) == -1  # one RB beats any number of singletons
    assert lex_compare((0, 1), (5, 0)) == 1
    assert lex_compare((1, 2), (1, 2)) == 0
    assert lex_compare((0, 1, 1), (2, 0, 1)) == 1
    with pytest.raises(InputError):
        lex_compare((1,), (1, 2))


@given(
    st.integers(1, 5).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(0, 4), min_size=n, max_size=n),
            min_size=3,
            max_size=3,
        )
    )
)
def test_lex_compare_transitive(triple):
    a, b, c = map(tuple, triple)
    if lex_compare(a, b) <= 0 and lex_compare(b, c) <= 0:
        assert lex_compare(a, c) <= 0


def test_collection_replace_append_signature(u24_disjoint):
    assert Collection(2).signature == (0, 0)
    coll = Collection(2, [frozenset({(0, 1)})])
    assert coll.signature == (1, 0)
    coll = coll.replace(0, frozenset({(0, 1), (2, 2)}))
    assert coll.signature == (0, 1)
    coll = Collection(2, [*coll.sets, frozenset({(1, 1)})])
    assert coll.signature == (1, 1)
    shrunk = coll.replace(1, frozenset())
    assert shrunk.signature == (0, 1) and len(shrunk.sets) == 1
    assert coll.index_of_element((1, 1)) == 1
    assert coll.index_of_element((3, 2)) is None
    assert coll.used() == {(0, 1), (2, 2), (1, 1)}


def test_validate_collection_detects_overlap(u24_disjoint):
    seq = u24_disjoint
    good = Collection(2, (frozenset({(0, 1), (2, 2)}), frozenset({(1, 1), (3, 2)})))
    assert validate_collection(seq, good) == (True, None)
    overlapping = Collection(2, (frozenset({(0, 1)}), frozenset({(0, 1), (2, 2)})))
    ok, why = validate_collection(seq, overlapping)
    assert not ok and "reuses" in why


def test_unused(u24_disjoint):
    seq = u24_disjoint
    coll = Collection(2, (frozenset({(0, 1), (2, 2)}),))
    assert unused(seq, coll, 1) == {(1, 1)}
    assert unused(seq, coll, 2) == {(3, 2)}


def test_istar_istarstar():
    assert istar((1, 2, 0, 4)) == 2
    assert istarstar((1, 2, 0, 4)) == 1
    assert istarstar((0, 2, 0, 4)) is None
    with pytest.raises(PreconditionError):
        istar((0, 0, 0, 4))  # all sets are rainbow bases
    coll = Collection(2, (frozenset({(0, 1)}),))
    assert istar(coll) == 1


SUBMAX_CASES = [
    # (maximal signature, expected one-step-below signature)
    ((0, 0, 2, 0, 4), (0, 0, 1, 2, 3)),
    ((0, 1, 0, 0, 0, 4), (0, 0, 1, 0, 1, 3)),
    ((0, 3, 0, 0, 4), (0, 2, 1, 1, 3)),
]


@pytest.mark.parametrize("tau,expected", SUBMAX_CASES)
def test_submaximal_signature_worked_cases(tau, expected):
    assert submaximal_signature(tau) == expected
    assert lex_compare(expected, tau) < 0


def test_submaximal_signature_preconditions():
    with pytest.raises(PreconditionError):
        submaximal_signature((1, 0, 0))  # no full-size set
    with pytest.raises(PreconditionError):
        submaximal_signature((0, 1, 2))  # t_{n-1} != 0
    with pytest.raises(PreconditionError):
        submaximal_signature((0, 0, 3))  # every set full-size
