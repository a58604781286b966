"""Coloured universe, base sequences, rainbow independent sets and signatures.

A coloured element is a pair ``(x, c)`` with ``x`` a matroid element and
``c`` a colour in ``1..n``.  A rainbow independent set (RIS) is a set of
coloured elements whose raw elements are distinct and independent and whose
colours are distinct.  Collections are immutable tuples of pairwise-disjoint
RIS's carrying a cached signature.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .errors import InputError, PreconditionError, ValidationError
from .matroids import Matroid

CElem = tuple  # (element, colour)


@dataclass(frozen=True)
class BoundParams:
    """Girth deficit, overlap cap and truncation deficit for one instance.

    ``beta`` encodes the girth promise g >= n - beta + 1, ``kappa`` bounds how
    many bases may share an element, and ``alpha`` sets the truncation
    eta = n - alpha.  ``alpha`` may be 0 so the solver can chase full packings.
    """

    beta: int = 0
    kappa: int = 1
    alpha: int = 0

    def __post_init__(self):
        if self.beta < 0:
            raise ValidationError("beta must be non-negative")
        if self.kappa < 1:
            raise ValidationError("kappa must be positive")
        if self.alpha < 0:
            raise ValidationError("alpha must be non-negative")

    def eta(self, n: int) -> int:
        return n - self.alpha


def overlap_counts(bases: Iterable[Iterable[int]]) -> dict:
    """How many of the given bases hold each element."""
    counts: dict = {}
    for B in bases:
        for x in B:
            counts[x] = counts.get(x, 0) + 1
    return counts


class BaseSequence:
    """An n-tuple of bases of a rank-n matroid, the c-th coloured c."""

    def __init__(self, matroid: Matroid, bases: Sequence[Iterable[int]]):
        n = matroid.rank
        if len(bases) != n:
            raise ValidationError(
                f"need exactly rank={n} bases, got {len(bases)}"
            )
        frozen = []
        for c, base in enumerate(bases, start=1):
            B = frozenset(base)
            if len(B) != n or not matroid.is_independent(B):
                raise ValidationError(f"colour {c}: {sorted(B)} is not a base")
            frozen.append(B)
        self.matroid = matroid
        self.n = n
        self.bases = tuple(frozen)
        self.universe = frozenset(
            (x, c) for c, B in enumerate(self.bases, start=1) for x in B
        )

    def base(self, colour: int) -> frozenset:
        if not 1 <= colour <= self.n:
            raise InputError(f"colour {colour} outside 1..{self.n}")
        return self.bases[colour - 1]

    def colour_elements(self, colour: int) -> frozenset:
        return frozenset((x, colour) for x in self.base(colour))

    def overlap_kappa(self) -> int:
        """Largest number of bases sharing a single matroid element."""
        return max(overlap_counts(self.bases).values())

    def is_disjoint(self) -> bool:
        return self.overlap_kappa() == 1

    def __repr__(self):
        return f"BaseSequence(n={self.n}, {self.matroid!r})"


def underline(S: Iterable[CElem]) -> frozenset:
    """Raw matroid elements of a set of coloured elements."""
    return frozenset(x for x, _ in S)


def colours_of(S: Iterable[CElem]) -> frozenset:
    return frozenset(c for _, c in S)


def validate_ris(seq: BaseSequence, S: Iterable[CElem]):
    """Check the three RIS invariants; returns (ok, first violation or None)."""
    S = frozenset(S)
    for ce in S:
        if ce not in seq.universe:
            return False, f"{ce} is not a coloured element of the universe"
    raw = [x for x, _ in S]
    if len(set(raw)) != len(S):
        return False, "raw elements are not distinct"
    cols = [c for _, c in S]
    if len(set(cols)) != len(S):
        return False, "colours are not distinct"
    if not seq.matroid.is_independent(raw):
        return False, "underlying element set is dependent"
    return True, None


def is_ris(seq: BaseSequence, S: Iterable[CElem]) -> bool:
    return validate_ris(seq, S)[0]


Signature = tuple


def signature_of_sizes(sizes: Iterable[int], n: int) -> Signature:
    sig = [0] * n
    for s in sizes:
        if not 1 <= s <= n:
            raise InputError(f"set size {s} outside 1..{n}")
        sig[s - 1] += 1
    return tuple(sig)


def lex_compare(a: Signature, b: Signature) -> int:
    """Last-coordinate-first comparison; -1, 0 or 1."""
    if len(a) != len(b):
        raise InputError(f"signature lengths differ: {len(a)} vs {len(b)}")
    for x, y in zip(reversed(a), reversed(b)):
        if x != y:
            return -1 if x < y else 1
    return 0


def sig_key(sig: Signature) -> tuple:
    """Sort key equivalent to the last-coordinate-first order."""
    return tuple(reversed(sig))


class Collection:
    """Immutable family of pairwise-disjoint RIS's with a cached signature.

    Mutating operations return new collections so that searches can compare
    before/after states and traces can be replayed.
    """

    __slots__ = ("sets", "n", "signature")

    def __init__(self, n: int, sets: Sequence[frozenset] = (), signature=None):
        self.n = n
        self.sets = tuple(frozenset(S) for S in sets)
        if signature is None:
            signature = signature_of_sizes((len(S) for S in self.sets), n)
        self.signature = signature
        if __debug__:
            assert self.signature == signature_of_sizes(
                (len(S) for S in self.sets), n
            ), "cached signature out of date"

    def used(self) -> frozenset:
        out: set = set()
        for S in self.sets:
            out |= S
        return frozenset(out)

    def replace(self, index: int, new_set: frozenset) -> "Collection":
        old = self.sets[index]
        new_set = frozenset(new_set)
        sets = self.sets[:index] + (new_set,) + self.sets[index + 1 :]
        sig = list(self.signature)
        sig[len(old) - 1] -= 1
        if new_set:
            sig[len(new_set) - 1] += 1
            return Collection(self.n, sets, tuple(sig))
        return Collection(self.n, sets[:index] + sets[index + 1 :], tuple(sig))

    def append(self, new_set: frozenset) -> "Collection":
        new_set = frozenset(new_set)
        sig = list(self.signature)
        sig[len(new_set) - 1] += 1
        return Collection(self.n, self.sets + (new_set,), tuple(sig))

    def index_of_element(self, ce: CElem) -> Optional[int]:
        for i, S in enumerate(self.sets):
            if ce in S:
                return i
        return None

    def __len__(self):
        return len(self.sets)

    def __eq__(self, other):
        return isinstance(other, Collection) and self.sets == other.sets

    def __hash__(self):
        return hash(self.sets)

    def __repr__(self):
        return f"Collection(sizes={sorted((len(S) for S in self.sets), reverse=True)})"


def validate_collection(seq: BaseSequence, coll: Collection):
    """Full re-validation: every member an RIS, members pairwise disjoint."""
    seen: set = set()
    for i, S in enumerate(coll.sets):
        ok, why = validate_ris(seq, S)
        if not ok:
            return False, f"set {i}: {why}"
        if seen & S:
            return False, f"set {i} reuses coloured elements {sorted(seen & S)}"
        seen |= S
    return True, None


def unused(seq: BaseSequence, coll: Collection, b: int) -> frozenset:
    """Colour-b coloured elements not used by any set of the collection."""
    return seq.colour_elements(b) - coll.used()


def istar(sig_or_coll) -> int:
    """Largest size of a non-RB set; needs at least one such set."""
    sig = sig_or_coll.signature if isinstance(sig_or_coll, Collection) else sig_or_coll
    n = len(sig)
    if sig[n - 1] == sum(sig):
        raise PreconditionError("all sets are rainbow bases; i* undefined")
    return max(i + 1 for i in range(n - 1) if sig[i] > 0)


def istarstar(sig_or_coll) -> Optional[int]:
    """Second-largest occupied non-RB size, or None when absent."""
    sig = sig_or_coll.signature if isinstance(sig_or_coll, Collection) else sig_or_coll
    top = istar(sig)
    smaller = [i + 1 for i in range(top - 1) if sig[i] > 0]
    return max(smaller) if smaller else None


def submaximal_signature(tau_eta: Signature) -> Signature:
    """Signature one prescribed step below a maximal one.

    The step deletes an element from a full-size set and adds one to a set of
    the largest non-full size.  Defined only when the maximal signature has no
    sets of size n-1.  In the middle case the published three-case table shows
    a final coordinate inconsistent with the defining step under that standing
    hypothesis; the value implemented here is the one the step produces.
    """
    n = len(tau_eta)
    t = list(tau_eta)
    if t[n - 1] < 1:
        raise PreconditionError("maximal signature has no full-size set")
    if n >= 2 and t[n - 2] != 0:
        raise PreconditionError("submaximality undefined when t_{n-1} != 0")
    top = istar(tau_eta)  # raises when every set is full-size
    out = list(t)
    out[top - 1] -= 1
    out[top] += 1
    out[n - 2] += 1
    out[n - 1] -= 1
    return tuple(out)


def is_eta_maximal(coll: Collection, tau_eta: Signature) -> bool:
    return coll.signature == tuple(tau_eta)


def is_eta_submaximal(coll: Collection, tau_eta: Signature) -> bool:
    try:
        target = submaximal_signature(tuple(tau_eta))
    except PreconditionError:
        return False
    return coll.signature == target


@dataclass(frozen=True)
class SignatureReference:
    """A maximal-signature reference plus its provenance.

    ``exact`` means the signature came from exhaustive search; otherwise it is
    only the best signature seen so far and classifications against it must
    not be treated as ground truth.
    """

    signature: Signature
    eta: int
    exact: bool
