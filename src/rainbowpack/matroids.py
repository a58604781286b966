"""Finite matroid families behind a shared independence-oracle interface.

Elements of a matroid are the integers ``0..m-1``.  Every family answers
independence queries through :meth:`Matroid.is_independent`, and gives its
rank in closed form: ``k`` for uniform and sparse-paving matroids, one
elimination of the columns (:func:`gf_rank`) for linear ones, one
union-find pass over the edges (:func:`_components`) for graphic ones.

A loop that asks many questions about one fixed independent set ``T``
("is T - x + y independent?", "is T - x + y + z?") asks them through
:meth:`Matroid.state`: an :class:`IndependenceState` answers
``T - removed | added`` for one removed and two added elements without
re-checking T, and :meth:`IndependenceState.extend` gives the state of
``T + y``.  Every call builds a new state, through the family's
``_build``, and the state belongs to its caller.  Linear states work on
packed columns: each GF(p) column is one int with one lane per row, and
the lane width, derived from p and the row count, keeps every reduction
from carrying between lanes.  A state keeps one pivot step per element of
T, each a multiply-add that pivots without row swaps on the lowest lane
no earlier step took, and the lanes none took, the rows that vanish on
span(T), as one mask.  Graphic states keep the
component labels of the forest T and, from the first question that removes
an edge, one depth-first tour of T: an added edge's end lies in the part
that T - x cuts off exactly when it lies in the subtree under x, which
its enter time shows, so no question builds labels of T - x.  Uniform and
sparse-paving states ask the family's closed form directly.

Uniform and sparse-paving matroids answer :meth:`Matroid.is_independent`
in closed form and remember nothing.  Linear and graphic matroids, whose
check from scratch is an elimination, remember recent answers and keep one
state of their own, which follows a set as it grows: asked about the kept
set plus one element, one state query answers, and an independent answer
moves the kept state to the larger set.  Any other new set is checked from
scratch, and that check is the state build itself: the pivot steps of its
columns, or the component labels of its edges, stopping at the first
dependent element.  Every independent set's state becomes the kept one, a
base's included.  Each family has this one elimination for its rank, its
from-scratch answers and its states.  Each matroid counts its independence
answers (:attr:`Matroid.answers`).  Closure, circuits and the girth search
(by state builds, which leave the answers alone) are derived from the oracle
alone, so they are valid for any family that satisfies the matroid axioms.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import Iterable

from .errors import (
    GirthTooExpensiveError,
    InputError,
    PreconditionError,
    ValidationError,
)

GIRTH_SEARCH_CAP = 20
KNOWN_ANSWERS_CAP = 4096  # most answers a linear or graphic matroid remembers

INFINITY = math.inf


def _as_element_set(m: int, elements: Iterable[int]) -> frozenset:
    A = frozenset(elements)
    for e in A:
        if type(e) is not int or not 0 <= e < m:
            raise InputError(f"element {e!r} outside ground set 0..{m - 1}")
    return A


class Matroid:
    """Independence oracle over the ground set ``0..size-1``.

    Its answers never change, but it is not immutable: it counts them, and
    linear and graphic matroids also remember them and keep one state (see
    :class:`_KeptStateMatroid`).  Each family sets ``rank``, the size of its
    bases.  ``answers`` counts the answers :meth:`is_independent` has given:
    ``cached`` (a set asked before; linear and graphic only),
    ``incremental`` (one state query) and ``scratch`` (a check of the whole
    set).
    """

    family = "abstract"
    rank: int

    def __init__(self, size: int):
        if size < 1:
            raise ValidationError("ground set size must be at least 1")
        self.size = size
        self.answers = {"cached": 0, "incremental": 0, "scratch": 0}

    def is_independent(self, elements: Iterable[int]) -> bool:
        return self._answer(_as_element_set(self.size, elements))

    def _answer(self, A: frozenset) -> bool:
        """Independence of A by the closed form, counted; nothing is remembered."""
        self.answers["scratch"] += 1
        return self._independent(A)

    def _independent(self, A: frozenset) -> bool:
        raise NotImplementedError

    def state(self, T: Iterable[int]) -> "IndependenceState":
        """A new independence state of the independent set ``T``, the
        caller's own: built by the family's :meth:`_build`, it neither reads
        nor moves a kept state, nor counts as an answer.

        Raises :class:`PreconditionError` when T is dependent.
        """
        T = _as_element_set(self.size, T)
        state = self._build(T)
        if state is None:
            raise PreconditionError(f"independence state of the dependent set {sorted(T)}")
        return state

    def _build(self, T: frozenset):
        """The state of T, or None when T is dependent.  This one asks the
        family's closed form about each changed set, which costs no more
        than building it; linear and graphic matroids build their own."""
        return _ClosedFormState(self, T) if self._independent(T) else None

    def params(self) -> dict:
        """Family parameters, round-trippable through the instance format."""
        raise NotImplementedError

    def _girth_closed_form(self):
        """Exact girth when the family admits one, else None."""
        return None

    def __repr__(self):
        return f"{type(self).__name__}({self.params()})"


class _KeptStateMatroid(Matroid):
    """A family whose check from scratch is a state build (``_build``): it
    remembers the answers of :meth:`is_independent` and keeps one state.

    A set asked again, as replay's final check asks each set the moves built,
    costs one lookup, until the memo holds :data:`KNOWN_ANSWERS_CAP` answers
    and starts over (most repeats are recent).  The kept state is that of the
    last independent set a new answer was about; a remembered answer, a
    dependent set and :meth:`state` leave it where it was.  A kept state must
    hold no reference to its matroid: the two would form a reference cycle,
    and a dropped matroid would wait for the cycle collector.
    """

    def __init__(self, size: int):
        super().__init__(size)
        self._known: dict = {frozenset(): True}  # set -> its answer
        self._state = None  # the kept state

    def _answer(self, A):
        """A remembered answer, else one state query when A is the kept set
        plus one element, else a check from scratch, which is A's state
        build; an independent A's state becomes the kept one."""
        known = self._known.get(A)
        if known is not None:
            self.answers["cached"] += 1
            return known
        state = self._state
        if state is not None and len(A) == len(state.T) + 1 and state.T < A:
            self.answers["incremental"] += 1
            (y,) = A - state.T
            state = state.extend(y) if state._query((), (y,)) else None
        else:
            self.answers["scratch"] += 1
            state = self._build(A)
        if len(self._known) >= KNOWN_ANSWERS_CAP:
            self._known = {frozenset(): True}
        independent = self._known[A] = state is not None
        if independent:
            self._state = state
        return independent


class IndependenceState:
    """Independence of small changes to one independent set ``T``.

    Built by :meth:`Matroid.state`, which checks T; each family's subclass
    answers :meth:`independent` from what it keeps about T.  Queries are
    not checked: their callers, all in this package, keep the contracts.
    """

    def __init__(self, T: frozenset):
        self.T = T

    def independent(self, removed=(), added=()) -> bool:
        """Whether ``T - removed | added`` is independent.

        The caller keeps the contract: ``removed`` holds at most one
        element, which lies in T, and ``added`` at most two elements of the
        ground set; added elements may lie in T or repeat.
        """
        T = self.T
        new = []
        for y in added:
            if y not in T and y not in new:
                new.append(y)
        if not new:
            return True  # a subset of T
        return self._query([x for x in removed if x not in added], new)

    def _query(self, gone: list, new: list) -> bool:
        """``independent`` once ``gone`` is a subset of T and ``new`` of its complement."""
        raise NotImplementedError

    def extend(self, y: int) -> "IndependenceState":
        """The state of ``T + y``, unchecked: y lies outside T and T + y is
        independent; the caller has asked."""
        raise NotImplementedError


class _ClosedFormState(IndependenceState):
    """Asks the matroid's ``_independent`` about each changed set."""

    def __init__(self, matroid: Matroid, T: frozenset):
        super().__init__(T)
        self.matroid = matroid

    def _query(self, gone, new):
        return self.matroid._independent(self.T.difference(gone).union(new))

    def extend(self, y):
        return _ClosedFormState(self.matroid, self.T | {y})


class UniformMatroid(Matroid):
    """U(k, m): a set is independent iff it has at most k elements."""

    family = "uniform"

    def __init__(self, k: int, m: int):
        super().__init__(m)
        if not 0 <= k <= m:
            raise ValidationError(f"uniform matroid needs 0 <= k <= m, got k={k}, m={m}")
        self.k = k

    def _independent(self, A):
        return len(A) <= self.k

    @property
    def rank(self):
        return self.k

    def params(self):
        return {"k": self.k, "m": self.size}

    def _girth_closed_form(self):
        return self.k + 1 if self.size > self.k else INFINITY


# Miller-Rabin on the primes up to 41 decides every p below 3.3e24 (Sorenson
# and Webster, 2017); those up to 37 pass the composite 318665857834031151167461.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(p: int) -> bool:
    if p >= 3317044064679887385961981:
        raise ValidationError(f"modulus {p} is beyond the primality test's range")
    if p < 2 or any(p % a == 0 for a in _WITNESSES):
        return p in _WITNESSES
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = d * 2**s with d odd
    d = (p - 1) >> s
    return all(
        pow(a, d, p) == 1 or any(pow(a, d << i, p) == p - 1 for i in range(s))
        for a in _WITNESSES
    )


class _Lanes:
    """GF(p) columns of ``rows`` entries, each packed into one int.

    Row i of a column is the lane of ``width`` bits at bit ``i * width``,
    and a packed column is reduced when every lane holds its entry mod p.
    A pivot step ``(shift, inv, g)`` pivots on the lane at bit ``shift``.
    Applied to a column whose pivot lane holds a, it sets that lane to
    ``c = a * inv mod p`` and subtracts c times the pivot column w from
    every other lane, as one multiply-add: ``v + c * g - (a << shift)``,
    where g holds ``p - w`` in w's other lanes and 1 in its pivot lane.
    Applied to w, it leaves the unit vector of the pivot lane.

    Lanes go back below p once per column, by :meth:`mod`; until then each
    step adds at most ``(p - 1) * p`` to a lane, and a column meets at most
    ``rows`` steps, one per lane.  The width is worked out from p and
    ``rows``: the largest lane a column can reach, times :meth:`mod`'s
    Barrett factor, still fits in one lane, so no operation carries from
    one lane into the next.
    """

    def __init__(self, p: int, rows: int):
        top = (p - 1) * (1 + rows * p)  # the most a lane holds before mod
        self.p = p
        self.shift = (top * p).bit_length()  # 2**shift > top * p: exact quotients
        self.barrett = -(-(1 << self.shift) // p)
        self.width = width = (top * self.barrett).bit_length()
        self.lane = (1 << width) - 1
        ones = ((1 << rows * width) - 1) // self.lane  # 1 in every lane
        self.full = self.lane * ones  # the mask of every lane
        self.quotients = ((1 << width - self.shift) - 1) * ones
        self.ps = p * ones  # p in every lane

    def pack(self, column) -> int:
        """The reduced packed column of a vector of integers."""
        p, width = self.p, self.width
        return sum((a % p) << i * width for i, a in enumerate(column))

    def mod(self, v: int) -> int:
        """v with every lane taken mod p, by a lane-wise Barrett step: a
        lane's quotient by p is the lane times ``barrett``, shifted right by
        ``shift``, exact for every lane a column reaches."""
        return v - ((v * self.barrett >> self.shift) & self.quotients) * self.p

    def low(self, v: int) -> int:
        """The shift of the lowest non-zero lane of v, which is not 0."""
        return ((v & -v).bit_length() - 1) // self.width * self.width

    def step(self, w: int, free: int):
        """The pivot step of the reduced column w on its lowest non-zero
        lane among ``free``, a mask of whole lanes, or None when w is zero
        on all of them: then w depends on the columns whose steps took the
        other lanes."""
        t = w & free
        if not t:
            return None
        shift = self.low(t)
        a = w >> shift & self.lane
        return shift, pow(a, -1, self.p), self.ps - w + (a + 1 - self.p << shift)

    def apply(self, steps, v: int) -> int:
        """The reduced column of v after the pivot steps ``steps``, in order."""
        lane, p = self.lane, self.p
        for shift, inv, g in steps:
            a = v >> shift & lane
            if a:
                v += a * inv % p * g - (a << shift)
        return self.mod(v)

    def rank(self, packed) -> int:
        """Rank of the packed columns: each, reduced by the steps of the
        independent columns before it, adds its own step when it stays
        non-zero on a lane no step has taken.  Stops once every lane is."""
        steps: list = []
        free = self.full
        for v in packed:
            step = self.step(self.apply(steps, v), free)
            if step:
                steps.append(step)
                free ^= self.lane << step[0]
                if not free:
                    break
        return len(steps)


def gf_rank(columns: list, p: int) -> int:
    """Rank of a list of column vectors over GF(p), entries taken mod p."""
    if not columns or not columns[0]:
        return 0
    lanes = _Lanes(p, len(columns[0]))
    return lanes.rank(map(lanes.pack, columns))


class LinearMatroid(_KeptStateMatroid):
    """Columns of a k-by-m matrix over GF(p); independence is linear independence."""

    family = "linear"

    def __init__(self, p: int, matrix: list):
        if not _is_prime(p):
            raise ValidationError(f"modulus {p} is not prime")
        if not matrix or not matrix[0]:
            raise ValidationError("matrix must have at least one row and one column")
        width = len(matrix[0])
        if any(len(row) != width for row in matrix):
            raise ValidationError("matrix rows have unequal lengths")
        for row in matrix:
            for v in row:
                if type(v) is not int or not 0 <= v < p:
                    raise ValidationError(f"matrix entry {v!r} not reduced mod {p}")
        super().__init__(width)
        self.p = p
        self.matrix = tuple(tuple(row) for row in matrix)
        self._lanes = _Lanes(p, len(matrix))
        self._packed = [self._lanes.pack(col) for col in zip(*matrix)]
        self.rank = self._lanes.rank(self._packed)

    def _build(self, T):
        lanes, packed = self._lanes, self._packed
        steps: list = []
        position = {}
        free = lanes.full
        for x in T:
            step = lanes.step(lanes.apply(steps, packed[x]), free)
            if step is None:
                return None
            steps.append(step)
            position[x] = lanes.lane << step[0]
            free ^= position[x]
        return _LinearState(T, packed, lanes, position, tuple(steps), free)

    def params(self):
        return {"p": self.p, "matrix": [list(row) for row in self.matrix]}

    def _girth_closed_form(self):
        if 0 in self._packed:
            return 1  # zero column is a loop
        if self.rank == self.size:
            return INFINITY
        return None


class _LinearState(IndependenceState):
    """Pivot steps E bringing each column of T to the unit vector of a lane.

    Pivots take no row swaps: each element x of T pivots on the lowest lane
    that its column, reduced by the steps before it, is non-zero on and no
    earlier element took; ``position[x]`` is that lane's mask.  The lanes
    no element took are the rows that vanish on span(T), and ``free`` is
    their one mask.  A column reduced by E (cached per element) shows at
    once whether T - x plus it is independent: modulo span(T - x), only x's
    lane and the free lanes remain, so one added column is independent iff
    it is non-zero there, a mask test, and two iff they have rank 2 there,
    which one multiply-add and one :meth:`_Lanes.mod` decide.  E is kept as
    one step per element of T, in the order they were added, so that
    :meth:`extend` adds one step and copies no matrix.
    """

    def __init__(self, T, packed, lanes, position, steps, free):
        super().__init__(T)
        self.packed = packed  # element -> its packed column
        self.lanes = lanes
        self.position = position  # element of T -> the mask of its pivot lane
        self.steps = steps  # one pivot step per element of T
        self.free = free  # the mask of the lanes no element of T took
        self._reduced: dict = {}  # element -> E times its column

    def _vector(self, y: int) -> int:
        w = self._reduced.get(y)
        if w is None:
            w = self._reduced[y] = self.lanes.apply(self.steps, self.packed[y])
        return w

    def _query(self, gone, new):
        rows = self.free
        for x in gone:
            rows |= self.position[x]
        u = self._vector(new[0]) & rows
        if not u or len(new) == 1:
            return u != 0
        v = self._vector(new[1]) & rows
        lanes = self.lanes
        p, lane, shift = lanes.p, lanes.lane, lanes.low(u)
        f = (v >> shift & lane) * pow(u >> shift & lane, -1, p) % p
        return lanes.mod(v + (p - f) * u) != 0

    def extend(self, y):
        step = self.lanes.step(self._vector(y), self.free)
        lane = self.lanes.lane << step[0]
        position = {**self.position, y: lane}
        return _LinearState(
            self.T | {y}, self.packed, self.lanes, position, self.steps + (step,), self.free ^ lane
        )


class GraphicMatroid(_KeptStateMatroid):
    """Edges of a multigraph; a set is independent iff it is acyclic."""

    family = "graphic"

    def __init__(self, vertices: int, edges: list):
        if vertices < 1:
            raise ValidationError("graph needs at least one vertex")
        for e in edges:
            if len(e) != 2 or not all(type(v) is int and 0 <= v < vertices for v in e):
                raise ValidationError(f"edge {e!r} references invalid vertices")
        if not edges:
            raise ValidationError("graph needs at least one edge")
        super().__init__(len(edges))
        self.vertices = vertices
        self.edges = tuple((int(u), int(v)) for u, v in edges)
        # a spanning forest's edge count: the edges that join two components
        self.rank = _components(vertices, self.edges, range(len(self.edges)))[1]

    def _build(self, T):
        labels, joined = _components(self.vertices, self.edges, T)
        return _GraphicState(T, self.vertices, self.edges, labels) if joined == len(T) else None

    def params(self):
        return {"vertices": self.vertices, "edges": [list(e) for e in self.edges]}

    def _girth_closed_form(self):
        # Shortest cycle in the multigraph: loops, then parallel pairs,
        # then BFS from each vertex over simple edges.
        if any(u == v for u, v in self.edges):
            return 1
        seen = set()
        for u, v in self.edges:
            key = (min(u, v), max(u, v))
            if key in seen:
                return 2
            seen.add(key)
        best = INFINITY
        adj: dict = {}
        for u, v in seen:
            adj.setdefault(u, []).append(v)
            adj.setdefault(v, []).append(u)
        for root in adj:
            dist = {root: 0}
            parent = {root: -1}
            queue = [root]
            while queue:
                nxt = []
                for x in queue:
                    for y in adj.get(x, ()):
                        if y not in dist:
                            dist[y] = dist[x] + 1
                            parent[y] = x
                            nxt.append(y)
                        elif parent[x] != y:
                            best = min(best, dist[x] + dist[y] + 1)
                queue = nxt
        return best


def _components(vertices: int, edges: tuple, A) -> tuple:
    """Union-find with path halving over the edges ``A`` (indices into
    ``edges``): the component label of each vertex, itself a vertex, and
    how many edges of ``A`` joined two components.  A is a forest iff
    every one of them did."""
    parent = list(range(vertices))
    joined = 0
    for i in A:
        u, v = edges[i]
        while parent[u] != u:
            parent[u] = u = parent[parent[u]]
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        if u != v:
            parent[u] = v
            joined += 1
    labels = []
    for v in range(vertices):
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        labels.append(v)
    return labels, joined


def _tour(vertices: int, edges: tuple, T) -> tuple:
    """A depth-first tour of the forest ``T``, each tree rooted once.

    Returns ``(enter, leave)``: each vertex's enter time and the time after
    its subtree's last enter.  The subtree of w holds exactly the vertices
    entered in ``enter[w] .. leave[w] - 1``, and an edge of T's lower end is
    the end entered later.
    """
    near: list = [[] for _ in range(vertices)]
    for i in T:
        u, v = edges[i]
        near[u].append(v)
        near[v].append(u)
    enter = [-1] * vertices
    leave = [0] * vertices
    clock = 0
    for root in range(vertices):
        if enter[root] >= 0:
            continue
        stack = [root]
        while stack:
            v = stack.pop()
            if v < 0:
                leave[~v] = clock
                continue
            enter[v] = clock
            clock += 1
            stack.append(~v)
            for w in near[v]:
                if enter[w] < 0:  # in a forest, every neighbour but the parent
                    stack.append(w)
    return enter, leave


class _GraphicState(IndependenceState):
    """Component labels of the forest T and, once asked, one tour of T.

    Added edges join components: one is independent iff its ends lie in
    different components, two iff the second still does once the first
    has merged its two.  The first question that removes an edge roots
    each tree of T once (:func:`_tour`).  Removing x cuts off the subtree
    under x's lower end: an added edge's end whose enter time lies in that
    subtree's interval takes the fresh label ``vertices``, and every other
    end keeps its label in T.  So each question reads four labels and makes
    no list.
    """

    def __init__(self, T, vertices, edges, labels):
        super().__init__(T)
        self.vertices = vertices
        self.edges = edges
        self.labels = labels
        self._rooted = None  # _tour of T, once a question removes an edge

    def _query(self, gone, new):
        labels, edges = self.labels, self.edges
        u, v = edges[new[0]]
        a, b = labels[u], labels[v]
        if gone:
            if self._rooted is None:
                self._rooted = _tour(self.vertices, edges, self.T)
            enter, leave = self._rooted
            p, q = edges[gone[0]]
            w = p if enter[p] > enter[q] else q
            first, end, fresh = enter[w], leave[w], self.vertices
            if first <= enter[u] < end:
                a = fresh
            if first <= enter[v] < end:
                b = fresh
        if a == b:
            return False
        if len(new) == 1:
            return True
        u, v = edges[new[1]]
        c, d = labels[u], labels[v]
        if gone:
            if first <= enter[u] < end:
                c = fresh
            if first <= enter[v] < end:
                d = fresh
        return (a if c == b else c) != (a if d == b else d)

    def extend(self, y):
        u, v = self.edges[y]
        a, b = self.labels[u], self.labels[v]
        labels = [a if c == b else c for c in self.labels]
        return _GraphicState(self.T | {y}, self.vertices, self.edges, labels)


class SparsePavingMatroid(Matroid):
    """Rank-k matroid whose only k-element circuits are the listed hyperplanes.

    A set is independent iff it has fewer than k elements, or exactly k and is
    not one of the declared circuit-hyperplanes.  The declared k-subsets must
    pairwise intersect in at most k-2 elements for this to define a matroid.
    """

    family = "sparse_paving"

    def __init__(self, k: int, m: int, circuit_hyperplanes: list):
        super().__init__(m)
        if not 1 <= k <= m:
            raise ValidationError(f"sparse-paving needs 1 <= k <= m, got k={k}, m={m}")
        chs = []
        for ch in circuit_hyperplanes:
            fs = _as_element_set(m, ch)
            if len(fs) != k:
                raise ValidationError(f"circuit-hyperplane {sorted(fs)} is not a {k}-subset")
            chs.append(fs)
        for i, a in enumerate(chs):
            for b in chs[i + 1 :]:
                if len(a & b) > k - 2:
                    raise ValidationError(
                        f"circuit-hyperplanes {sorted(a)} and {sorted(b)} intersect "
                        f"in more than {k - 2} elements"
                    )
        if len(chs) == math.comb(m, k):
            raise ValidationError("every k-subset declared dependent; rank would drop")
        self.k = k
        self.circuit_hyperplanes = frozenset(chs)

    def _independent(self, A):
        if len(A) < self.k:
            return True
        return len(A) == self.k and A not in self.circuit_hyperplanes

    @property
    def rank(self):
        return self.k

    def params(self):
        chs = sorted(sorted(ch) for ch in self.circuit_hyperplanes)
        return {"k": self.k, "m": self.size, "circuit_hyperplanes": [list(c) for c in chs]}

    def _girth_closed_form(self):
        if self.circuit_hyperplanes:
            return self.k
        return self.k + 1 if self.size > self.k else INFINITY


# Each family's constructor and its parameters in order, each an integer or
# a list of lists.
_FAMILIES = {
    "uniform": (UniformMatroid, {"k": int, "m": int}),
    "linear": (LinearMatroid, {"p": int, "matrix": list}),
    "graphic": (GraphicMatroid, {"vertices": int, "edges": list}),
    "sparse_paving": (SparsePavingMatroid, {"k": int, "m": int, "circuit_hyperplanes": list}),
}


def build_matroid(family: str, params: dict) -> Matroid:
    """Construct a matroid from its serialized family spec."""
    try:
        cls, fields = _FAMILIES[family]
    except KeyError:
        raise ValidationError(f"unknown matroid family {family!r}") from None
    extra = sorted(map(str, params.keys() - fields.keys()))
    if extra:
        raise ValidationError(f"family {family!r} takes no parameter {', '.join(extra)}")
    for name, kind in fields.items():
        if name not in params:
            raise ValidationError(f"family {family!r} missing parameter {name!r}")
        value = params[name]
        if kind is int:
            ok = type(value) is int
        else:
            ok = isinstance(value, (list, tuple)) and all(
                isinstance(row, (list, tuple)) for row in value
            )
        if not ok:
            what = "an integer" if kind is int else "a list of lists"
            raise ValidationError(
                f"family {family!r} parameter {name!r} must be {what}, got {value!r}"
            )
    return cls(*(params[name] for name in fields))


def max_independent_subset(M: Matroid, elements: Iterable[int]) -> frozenset:
    """Greedy maximal independent subset; maximum-sized by the exchange axiom."""
    picked: set = set()
    for e in sorted(_as_element_set(M.size, elements)):
        if M.is_independent(picked | {e}):
            picked.add(e)
    return frozenset(picked)


def rank_of(M: Matroid, elements: Iterable[int]) -> int:
    return len(max_independent_subset(M, elements))


def closure(M: Matroid, elements: Iterable[int]) -> frozenset:
    A = _as_element_set(M.size, elements)
    base = max_independent_subset(M, A)
    # rank(A + e) == rank(A) iff base + e is dependent, since base is a
    # maximum independent subset of A.
    out = set(A)
    for e in range(M.size):
        if e not in out and not M.is_independent(base | {e}):
            out.add(e)
    return frozenset(out)


def find_circuit(M: Matroid, elements: Iterable[int], contains: int | None = None) -> frozenset:
    """Minimal dependent subset of a dependent set, by deletion refinement.

    When ``contains`` is given and the set minus that element is independent,
    the returned circuit contains it.
    """
    A = set(_as_element_set(M.size, elements))
    if M.is_independent(A):
        raise PreconditionError("find_circuit needs a dependent set")
    if contains is not None and contains not in A:
        raise InputError(f"distinguished element {contains} not in the set")
    for e in sorted(A):
        if e == contains:
            continue
        if not M.is_independent(A - {e}):
            A.remove(e)
    return frozenset(A)


def girth(M: Matroid, most: int | None = None):
    """Size of a smallest circuit, or ``math.inf`` if the matroid is free.

    Uses the family's closed form when available; otherwise searches subsets
    by increasing size, which is only permitted for ground sets up to
    ``GIRTH_SEARCH_CAP`` elements.  With ``most``, the search asks no set of
    more than ``most`` elements, so a girth above ``most`` may read as
    ``math.inf``.
    """
    closed = M._girth_closed_form()
    if closed is not None:
        return closed
    if M.size > GIRTH_SEARCH_CAP:
        raise GirthTooExpensiveError(
            f"girth needs exhaustive search on m={M.size} > cap={GIRTH_SEARCH_CAP}"
        )
    return girth_by_search(M, most)


def girth_by_search(M: Matroid, most: int | None = None):
    """Exhaustive girth: the smallest dependent set is a circuit.  With
    ``most``, as in :func:`girth`, no larger set is asked; each is a state
    build, which leaves the memo, kept state and answers as they were."""
    largest = M.rank + 1 if most is None else min(most, M.rank + 1)
    for s in range(1, largest + 1):
        for sub in combinations(range(M.size), s):
            if M._build(frozenset(sub)) is None:
                return s
    return INFINITY
