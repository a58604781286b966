"""Roots, swappable/addable elements, transitions and exchange lemma moves."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import (
    InputError,
    InternalInvariantError,
    OracleInconsistencyError,
    PreconditionError,
    ValidationError,
)
from .matroids import Matroid
from .model import (
    BaseSequence,
    CElem,
    Collection,
    colours_of,
    is_ris,
    underline,
    unused,
    validate_ris,
)


@dataclass(frozen=True)
class Root:
    """A collection, one of its member sets (by index) and a missing colour."""

    collection: Collection
    index: int
    b: int

    @property
    def ris(self) -> frozenset:
        return self.collection.sets[self.index]


def make_root(seq: BaseSequence, coll: Collection, index: int, b: int) -> Root:
    if not 0 <= index < len(coll.sets):
        raise ValidationError(f"set index {index} outside the collection")
    if not 1 <= b <= seq.n:
        raise InputError(f"colour {b} outside 1..{seq.n}")
    if b in colours_of(coll.sets[index]):
        raise ValidationError(f"colour {b} already present in the chosen set")
    return Root(coll, index, b)


def iter_roots(seq: BaseSequence, coll: Collection, size: int | None = None):
    """All roots of a collection, optionally restricted to |S| == size."""
    for i, S in enumerate(coll.sets):
        if size is not None and len(S) != size:
            continue
        present = colours_of(S)
        for b in range(1, seq.n + 1):
            if b not in present:
                yield Root(coll, i, b)


def swap_set(seq: BaseSequence, root: Root) -> dict:
    """Swappable elements of the root's set, each with its sorted witness list."""
    S = root.ris
    pool = sorted(unused(seq, root.collection, root.b))
    out: dict = {}
    for xc in sorted(S):
        witnesses = [yb for yb in pool if is_ris(seq, S - {xc} | {yb})]
        if witnesses:
            out[xc] = tuple(witnesses)
    return out


@dataclass(frozen=True)
class AddRecord:
    """One addable element with how it can be added.

    Direct additions need no witness.  Indirect ones carry every valid
    (removed, witness) pair in ``variants``, canonical choice first, ordered
    by witness then removed element.
    """

    element: CElem
    mode: str  # "direct" or "indirect"
    variants: tuple = ()

    @property
    def witness(self) -> Optional[CElem]:
        return self.variants[0][1] if self.variants else None

    @property
    def removed(self) -> Optional[CElem]:
        return self.variants[0][0] if self.variants else None

    @property
    def alternatives(self) -> int:
        return len(self.variants)


def add_set(seq: BaseSequence, root: Root) -> tuple:
    """All addable elements at a root, in deterministic element order."""
    S = root.ris
    pool = sorted(unused(seq, root.collection, root.b))
    records = []
    for xc in sorted(seq.universe - S):
        x, c = xc
        if is_ris(seq, S | {xc}):
            records.append(AddRecord(xc, "direct"))
            continue
        variants = []
        removable = sorted(xpc for xpc in S if xpc[1] == c)
        for yb in pool:
            for xpc in removable:
                if is_ris(seq, (S | {xc, yb}) - {xpc}):
                    variants.append((xpc, yb))
        if variants:
            variants.sort(key=lambda v: (v[1], v[0]))
            records.append(AddRecord(xc, "indirect", tuple(variants)))
    return tuple(records)


def apply_add(S: frozenset, record: AddRecord, variant=None) -> frozenset:
    """The set the root's RIS becomes after adding the record's element."""
    if record.mode == "direct":
        return S | {record.element}
    removed, witness = variant if variant is not None else record.variants[0]
    return (S | {record.element, witness}) - {removed}


def transition(
    seq: BaseSequence, root: Root, record: AddRecord, variant=None
) -> Root:
    """Move an addable element out of its current set into the root's set.

    The element must live in a set other than the root's.  Returns the new
    root (same collection size, set identities kept positional).
    """
    xc = record.element
    donor = root.collection.index_of_element(xc)
    if donor is None or donor == root.index:
        raise PreconditionError(
            f"{xc} is not held by another set of the collection"
        )
    if len(root.collection.sets[donor]) == 1:
        # the donor would become empty, which no collection may contain;
        # such degenerate roots carry no useful continuation
        raise PreconditionError(f"removing {xc} would empty its set")
    T = apply_add(root.ris, record, variant)
    ok, why = validate_ris(seq, T)
    if not ok:
        raise PreconditionError(f"add record invalid against the collection: {why}")
    coll = root.collection.replace(root.index, T)
    coll = coll.replace(donor, coll.sets[donor] - {xc})
    new_root = Root(coll, donor, xc[1])
    if __debug__:
        from .model import validate_collection

        ok, why = validate_collection(seq, coll)
        assert ok, f"transition corrupted the collection: {why}"
    return new_root


def exchange_injection(seq: BaseSequence, S, c: int) -> dict:
    """Injection phi from the raw elements of an RIS into base B_c.

    phi maps each x to an element keeping underline(S) - x + phi(x)
    independent; returned as the lexicographically least such injection.
    """
    M = seq.matroid
    raw = sorted(underline(S) if S and isinstance(next(iter(S)), tuple) else S)
    B = sorted(seq.base(c))
    raw_set = frozenset(raw)
    edges = {
        x: [y for y in B if y == x or M.is_independent(raw_set - {x} | {y})]
        for x in raw
    }

    # Depth-first with ascending candidates: the first complete assignment is
    # the lexicographically least one.
    def assign(i: int, used: set, acc: dict) -> Optional[dict]:
        if i == len(raw):
            return dict(acc)
        x = raw[i]
        for y in edges[x]:
            if y in used:
                continue
            used.add(y)
            acc[x] = y
            result = assign(i + 1, used, acc)
            if result is not None:
                return result
            used.remove(y)
            del acc[x]
        return None

    phi = assign(0, set(), {})
    if phi is None:
        raise OracleInconsistencyError(
            f"no exchange injection into colour {c}; the oracle violates "
            "the exchange axiom"
        )
    return phi


def arrow(M: Matroid, S_from, S_to, xc: CElem, xpc: CElem) -> bool:
    """True when the target set stays independent after the raw swap."""
    x = xc[0]
    xp = xpc[0]
    return M.is_independent(underline(S_to) - {xp} | {x})


def cyclic_exchange(
    seq: BaseSequence, S, S_prime, pairs: Sequence
) -> frozenset:
    """Nonempty index set realizing a valid multi-element swap into S_prime.

    ``pairs`` lists ((x_i, c_i) in S, (x'_i, c_i) in S_prime) with distinct
    colours; every left element must relate to some right element.  Returns
    0-based indices I such that removing the right elements of I and adding
    the left ones keeps S_prime an RIS.
    """
    M = seq.matroid
    k = len(pairs)
    if k == 0:
        raise PreconditionError("need at least one pair")
    cols = [ci for (_, ci), _ in pairs]
    if len(set(cols)) != k:
        raise PreconditionError("pair colours must be distinct")
    raw_prime = underline(S_prime)
    for (xi, ci), (xpi, cpi) in pairs:
        if ci != cpi:
            raise PreconditionError("each pair must share one colour")
        if (xi, ci) not in S or (xpi, cpi) not in S_prime:
            raise PreconditionError("pair elements must lie in their sets")
        # the exchange argument needs incoming raw elements fresh to S_prime
        # (except for the trivial self-swap) for every index set to stay RIS
        if xi in raw_prime and xi != xpi:
            raise PreconditionError(
                f"raw element {xi} already present in the target set"
            )

    succ = []
    for i in range(k):
        outs = [
            j
            for j in range(k)
            if arrow(M, S, S_prime, pairs[i][0], pairs[j][1])
        ]
        if not outs:
            raise PreconditionError(
                f"pair {i} relates to no partner; hypothesis violated"
            )
        succ.append(outs)

    for i in range(k):
        if i in succ[i]:
            return _checked_exchange(seq, S_prime, pairs, frozenset([i]))

    # Shortest directed cycle; breadth-first from each start, neighbours in
    # ascending order so ties resolve deterministically.
    best: Optional[tuple] = None
    for start in range(k):
        prev = {start: None}
        frontier = [start]
        found = None
        while frontier and found is None:
            nxt = []
            for u in frontier:
                for v in succ[u]:
                    if v == start:
                        found = u
                        break
                    if v not in prev:
                        prev[v] = u
                        nxt.append(v)
                if found is not None:
                    break
            frontier = nxt
        if found is not None:
            path = [found]
            while prev[path[-1]] is not None:
                path.append(prev[path[-1]])
            cycle = tuple(sorted(path))
            if best is None or (len(cycle), cycle) < (len(best), best):
                best = cycle
    if best is None:
        raise InternalInvariantError("functional digraph with no cycle")
    return _checked_exchange(seq, S_prime, pairs, frozenset(best))


def _checked_exchange(seq, S_prime, pairs, I: frozenset) -> frozenset:
    ok, why = validate_ris(seq, exchanged_set(S_prime, pairs, I))
    if not ok:
        raise InternalInvariantError(
            f"cyclic exchange produced an invalid set ({why}); "
            "this contradicts the exchange argument"
        )
    return I


def exchanged_set(S_prime, pairs: Sequence, I: frozenset) -> frozenset:
    return frozenset(S_prime) - {pairs[i][1] for i in I} | {pairs[i][0] for i in I}
