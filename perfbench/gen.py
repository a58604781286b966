"""Instance text for the benchmark workloads.

The four families mirror the program's own generators, but the code is the
benchmark's: the workloads must not change when the program's generators do.
Overlapping instances are built directly with every element in at most
kappa = 2 bases, so construction never fails at any n.  The output is YAML
text; the program sees only that text, through ``parse_instance``.

Each instance is drawn once, from its suite position (family, n, mode,
index).  The run seed then draws a random presentation of that same
instance: a change of basis and column scaling for linear matroids, a
vertex relabelling and edge orientation for graphic ones, the listing order
of circuit-hyperplanes for sparse paving.  The matroid, its element labels
and the bases stay fixed, so the solver takes the same path under every
seed while the text it parses differs.
"""

from __future__ import annotations

import random

import yaml

LINEAR_P = 5
KAPPA = 2


def _gf_rank(columns: list, p: int) -> int:
    rows = [list(col) for col in zip(*columns)]
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


def _windows(n: int, rng: random.Random) -> tuple:
    """n cyclic windows of size n; each element lies in at most two.

    The step between window starts is drawn from ceil(n/2)..n-1, so
    consecutive windows overlap and no element reaches a third window.
    The ground set is relabelled by a random permutation.
    """
    step = rng.randint(-(-n // 2), max(-(-n // 2), n - 1))
    m = n * step
    label = list(range(m))
    rng.shuffle(label)
    bases = [
        sorted(label[(c * step + i) % m] for i in range(n)) for c in range(n)
    ]
    return m, bases


def _uniform(n, mode, rng):
    if mode == "disjoint":
        m = n * n
        bases = [list(range(c * n, (c + 1) * n)) for c in range(n)]
    else:
        m, bases = _windows(n, rng)
    return {"k": n, "m": m}, bases


def _circuit_hyperplanes(n, m, bases, rng, tries=200):
    """Random n-subsets, none a base, pairwise meeting in at most n-2."""
    forbidden = {frozenset(B) for B in bases}
    chs: list = []
    for _ in range(tries):
        if len(chs) >= n:
            break
        cand = frozenset(rng.sample(range(m), n))
        if cand in forbidden:
            continue
        if all(len(cand & other) <= n - 2 for other in chs):
            chs.append(cand)
    return [sorted(ch) for ch in chs]


def _sparse_paving(n, mode, rng):
    params, bases = _uniform(n, mode, rng)
    chs = _circuit_hyperplanes(n, params["m"], bases, rng)
    return {"k": n, "m": params["m"], "circuit_hyperplanes": chs}, bases


def _spanning_tree(rng, vertices):
    order = list(range(vertices))
    rng.shuffle(order)
    return [
        sorted((order[i], order[rng.randrange(i)])) for i in range(1, vertices)
    ]


def _graphic(n, mode, rng):
    """Fresh copies of random spanning trees on n+1 vertices.

    Disjoint: one copy per colour.  Overlapping: colours 2i-1 and 2i share
    one copy, so every edge lies in at most two bases.
    """
    share = 1 if mode == "disjoint" else KAPPA
    edges: list = []
    bases = []
    for start in range(0, n, share):
        idx = list(range(len(edges), len(edges) + n))
        edges.extend(_spanning_tree(rng, n + 1))
        bases.extend([idx] * min(share, n - start))
    return {"vertices": n + 1, "edges": edges}, bases


def _random_columns(rng, n, count):
    return [[rng.randrange(LINEAR_P) for _ in range(n)] for _ in range(count)]


def _linear(n, mode, rng):
    """Random columns over GF(5), every base resampled until full rank."""
    if mode == "disjoint":
        columns: list = []
        bases = []
        for _ in range(n):
            while True:
                cols = _random_columns(rng, n, n)
                if _gf_rank(cols, LINEAR_P) == n:
                    break
            bases.append(list(range(len(columns), len(columns) + n)))
            columns.extend(cols)
    else:
        m, bases = _windows(n, rng)
        while True:
            columns = _random_columns(rng, n, m)
            if all(_gf_rank([columns[j] for j in B], LINEAR_P) == n for B in bases):
                break
    matrix = [[col[i] for col in columns] for i in range(n)]
    return {"p": LINEAR_P, "matrix": matrix}, bases


_BUILDERS = {
    "uniform": _uniform,
    "sparse_paving": _sparse_paving,
    "graphic": _graphic,
    "linear": _linear,
}

FAMILIES = tuple(_BUILDERS)


def _present_linear(params, rng):
    """Left-multiply by a random invertible matrix and scale every column
    by a random non-zero scalar; column independence is unchanged."""
    rows = params["matrix"]
    n, m = len(rows), len(rows[0])
    while True:
        change = _random_columns(rng, n, n)
        if _gf_rank(change, LINEAR_P) == n:
            break
    scale = [rng.randrange(1, LINEAR_P) for _ in range(m)]
    matrix = [
        [
            sum(change[i][k] * rows[k][j] for k in range(n)) * scale[j] % LINEAR_P
            for j in range(m)
        ]
        for i in range(n)
    ]
    return {"p": params["p"], "matrix": matrix}


def _present_graphic(params, rng):
    """Relabel the vertices and orient every edge at random."""
    relabel = list(range(params["vertices"]))
    rng.shuffle(relabel)
    edges = [[relabel[u], relabel[v]] for u, v in params["edges"]]
    for e in edges:
        if rng.random() < 0.5:
            e.reverse()
    return {"vertices": params["vertices"], "edges": edges}


def _present_sparse_paving(params, rng):
    chs = list(params["circuit_hyperplanes"])
    rng.shuffle(chs)
    return {**params, "circuit_hyperplanes": chs}


_PRESENTERS = {
    "linear": _present_linear,
    "graphic": _present_graphic,
    "sparse_paving": _present_sparse_paving,
}


def _declared_beta(family: str, n: int, params: dict) -> int:
    """A girth promise that holds by construction.

    Uniform has girth n+1 and sparse paving girth n (n+1 without
    circuit-hyperplanes).  Graphic and linear promise only girth >= 1, which
    still makes the load path run its girth check.
    """
    if family == "uniform":
        return 0
    if family == "sparse_paving":
        return 1 if params["circuit_hyperplanes"] else 0
    return n


def instance_text(family: str, n: int, mode: str, index: int, seed: int) -> str:
    """YAML text of one suite instance as presented under ``seed``.

    The same arguments give the same text.
    """
    position = f"{family}:{n}:{mode}:{index}"
    params, bases = _BUILDERS[family](n, mode, random.Random(f"suite:{position}"))
    present = _PRESENTERS.get(family)
    if present is not None:
        params = present(params, random.Random(f"seed:{seed}:{position}"))
    doc = {
        "version": 1,
        "matroid": {"family": family, "params": params},
        "bases": [sorted(B) for B in bases],
        "declared": {
            "beta": _declared_beta(family, n, params),
            "kappa": 1 if mode == "disjoint" else KAPPA,
        },
        "provenance": {
            "generator": f"perfbench-{family}-{mode}",
            "seed": seed,
            "index": index,
        },
    }
    return yaml.safe_dump(doc, sort_keys=True, default_flow_style=None)
