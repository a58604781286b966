"""Finite matroid families behind a shared independence-oracle interface.

Elements of a matroid are the integers ``0..m-1``.  Every family answers
independence queries through :meth:`Matroid.is_independent` and the
single-exchange query :meth:`Matroid.is_exchange_independent`, and gives its
rank in closed form: ``k`` for uniform and sparse-paving matroids, one
elimination of every column for linear ones, one union-find pass over the
edges for graphic ones.  Closure, circuits and the girth search are derived
from the oracle alone, so they are valid for any family that satisfies the
matroid axioms.
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

INFINITY = math.inf


def _as_element_set(m: int, elements: Iterable[int]) -> frozenset:
    A = frozenset(elements)
    for e in A:
        if not isinstance(e, int) or not 0 <= e < m:
            raise InputError(f"element {e!r} outside ground set 0..{m - 1}")
    return A


class Matroid:
    """Immutable independence oracle over the ground set ``0..size-1``.

    Each family sets ``rank``, the size of its bases.
    """

    family = "abstract"
    rank: int

    def __init__(self, size: int):
        if size < 1:
            raise ValidationError("ground set size must be at least 1")
        self.size = size
        self._indep_cache: dict = {frozenset(): True}

    def is_independent(self, elements: Iterable[int]) -> bool:
        A = _as_element_set(self.size, elements)
        cached = self._indep_cache.get(A)
        if cached is None:
            cached = self._indep_cache[A] = self._independent(A)
        return cached

    def _independent(self, A: frozenset) -> bool:
        raise NotImplementedError

    def is_exchange_independent(self, T: frozenset, x: int, y: int) -> bool:
        """Whether ``T - x + y`` is independent, for an independent ``T`` holding ``x``."""
        if x not in T:
            raise PreconditionError(f"exchange query removes {x}, which is not in the set")
        return self.is_independent(T - {x} | {y})

    def params(self) -> dict:
        """Family parameters, round-trippable through the instance format."""
        raise NotImplementedError

    def _girth_closed_form(self):
        """Exact girth when the family admits one, else None."""
        return None

    def __repr__(self):
        return f"{type(self).__name__}({self.params()})"


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


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    for d in range(2, int(p**0.5) + 1):
        if p % d == 0:
            return False
    return True


def gf_rank(columns: list, p: int) -> int:
    """Rank of a list of column vectors over GF(p) by Gaussian elimination."""
    rows = [list(col) for col in zip(*columns)] if columns else []
    rank = 0
    ncols = len(columns)
    for col in range(ncols):
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


class LinearMatroid(Matroid):
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
                if not isinstance(v, int) or not 0 <= v < p:
                    raise ValidationError(f"matrix entry {v!r} not reduced mod {p}")
        super().__init__(width)
        self.p = p
        self.matrix = tuple(tuple(row) for row in matrix)
        self._columns = [tuple(row[j] for row in matrix) for j in range(width)]
        self.rank = gf_rank(self._columns, p)
        self._exchange_state = None  # see is_exchange_independent

    def _independent(self, A):
        cols = [self._columns[j] for j in sorted(A)]
        return gf_rank(cols, self.p) == len(cols)

    def is_exchange_independent(self, T, x, y):
        """Whether ``T - x + y`` is independent, for an independent ``T`` holding ``x``.

        Keeps one state, for the last ``T`` asked about: row operations E
        that bring T's columns to the first unit vectors, and E times each
        column ``y`` reduced so far.  Column y lies outside span(T) iff E y
        is nonzero past position |T|; inside, its coordinate at x's position
        is x's coefficient in y, and T - x + y is independent iff it is
        nonzero.  Raises :class:`PreconditionError` when T is dependent or
        does not hold x.
        """
        state = self._exchange_state
        if state is None or state[0] != T:
            state = self._exchange_state = self._eliminate(T)
        _, position, ops, reduced = state
        if x not in position:
            raise PreconditionError(f"exchange query removes {x}, which is not in the set")
        if y in position:
            return True  # T - x + y is T itself or T - x
        w = reduced.get(y)
        if w is None:
            if not isinstance(y, int) or not 0 <= y < self.size:
                raise InputError(f"element {y!r} outside ground set 0..{self.size - 1}")
            col = self._columns[y]
            p = self.p
            w = reduced[y] = [sum(a * b for a, b in zip(row, col)) % p for row in ops]
        return any(w[len(position):]) or w[position[x]] != 0

    def _eliminate(self, T):
        """The exchange state of ``T``: (T, position of each element, E, {})."""
        T = _as_element_set(self.size, T)
        order = sorted(T)
        p = self.p
        k = len(self.matrix)
        r = len(order)
        # Reducing [A | I], A the columns of T, until A reads [I; 0] leaves E
        # where I was.
        rows = [
            [row[j] for j in order] + [int(h == i) for h in range(k)]
            for i, row in enumerate(self.matrix)
        ]
        for c in range(r):
            pivot = next((i for i in range(c, k) if rows[i][c]), None)
            if pivot is None:
                raise PreconditionError(f"exchange query on the dependent set {order}")
            rows[c], rows[pivot] = rows[pivot], rows[c]
            inv = pow(rows[c][c], -1, p)
            top = rows[c] = [v * inv % p for v in rows[c]]
            for i in range(k):
                f = rows[i][c]
                if f and i != c:
                    rows[i] = [(a - f * b) % p for a, b in zip(rows[i], top)]
        return T, {x: i for i, x in enumerate(order)}, [row[r:] for row in rows], {}

    def params(self):
        return {"p": self.p, "matrix": [list(row) for row in self.matrix]}

    def _girth_closed_form(self):
        if any(all(v == 0 for v in col) for col in self._columns):
            return 1  # zero column is a loop
        if self.rank == self.size:
            return INFINITY
        return None


class _UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b) -> bool:
        """Merge the classes of a and b; False if already merged."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        return True


class GraphicMatroid(Matroid):
    """Edges of a multigraph; a set is independent iff it is acyclic."""

    family = "graphic"

    def __init__(self, vertices: int, edges: list):
        if vertices < 1:
            raise ValidationError("graph needs at least one vertex")
        for e in edges:
            if len(e) != 2 or not all(isinstance(v, int) and 0 <= v < vertices for v in e):
                raise ValidationError(f"edge {e!r} references invalid vertices")
        if not edges:
            raise ValidationError("graph needs at least one edge")
        super().__init__(len(edges))
        self.vertices = vertices
        self.edges = tuple((int(u), int(v)) for u, v in edges)
        # a spanning forest's edge count: vertices minus components
        uf = _UnionFind(vertices)
        self.rank = sum(uf.union(u, v) for u, v in self.edges)

    def _independent(self, A):
        uf = _UnionFind(self.vertices)
        for i in sorted(A):
            u, v = self.edges[i]
            if u == v or not uf.union(u, v):
                return False
        return True

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


def girth(M: Matroid, cap: int = GIRTH_SEARCH_CAP):
    """Size of a smallest circuit, or ``math.inf`` if the matroid is free.

    Uses the family's closed form when available; otherwise searches subsets
    by increasing size, which is only permitted for ground sets up to ``cap``.
    """
    closed = M._girth_closed_form()
    if closed is not None:
        return closed
    if M.size > cap:
        raise GirthTooExpensiveError(
            f"girth needs exhaustive search on m={M.size} > cap={cap}"
        )
    return girth_by_search(M)


def girth_by_search(M: Matroid):
    """Exhaustive girth: the smallest dependent set is a circuit."""
    for s in range(1, M.rank + 2):
        for sub in combinations(range(M.size), s):
            if not M.is_independent(sub):
                return s
    return INFINITY
