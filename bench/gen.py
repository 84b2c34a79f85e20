"""Seeded input graphs for the benchmark, built without importing lrw1.

Each case carries the answer known from its construction, so the checker can
compare the program's verdict against it.  Graphs are adjacency lists of
vertex ids 0..n-1; the file formats label vertex i as i, so the labels in the
program's JSON output are these ids.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from checker import SHAPES

# One size per workload, so medians and tails compare like with like.
CATERPILLAR_N = 200
CATERPILLAR_LOCAL_COMPLEMENTS = 6
DENSE_N = 80
DENSE_M_PER_N = (10, 30)
BURIED_N = 60
# One round of buried_obstruction plants each of these once, in this order.
BURIED_ROUND = ("house", "gem", "domino", "hole5", "hole6", "hole7", "hole8", "hole12")


@dataclass(frozen=True)
class Case:
    adj: list[set[int]]
    fmt: str  # "edge-list" | "graph6"
    status: str  # "lrw_le_1" | "lrw_ge_2"
    family: str | None = None  # known family of the obstruction, if any
    vertices: tuple[int, ...] | None = None  # known obstruction vertex set, if unique


def _empty(n: int) -> list[set[int]]:
    return [set() for _ in range(n)]


def _add(adj: list[set[int]], u: int, v: int) -> None:
    adj[u].add(v)
    adj[v].add(u)


def local_complement(adj: list[set[int]], x: int) -> None:
    """Complement the edges among the neighbours of x, in place.

    Local complementation preserves every cut rank, hence linear rank-width.
    """
    nb = sorted(adj[x])
    for i, u in enumerate(nb):
        for w in nb[i + 1:]:
            if w in adj[u]:
                adj[u].discard(w)
                adj[w].discard(u)
            else:
                _add(adj, u, w)


def relabel(rng: random.Random, adj: list[set[int]]) -> tuple[list[set[int]], list[int]]:
    """Shuffle vertex ids; returns the new adjacency and the old-to-new map."""
    n = len(adj)
    perm = list(range(n))
    rng.shuffle(perm)
    out = _empty(n)
    for u in range(n):
        out[perm[u]] = {perm[v] for v in adj[u]}
    return out, perm


def scrambled_caterpillar(rng: random.Random, n: int, local_complements: int) -> list[set[int]]:
    """A random caterpillar (linear rank-width 1) scrambled by local complementations."""
    adj = _empty(n)
    spine = rng.randint(max(1, n // 5), max(1, n // 2))
    for i in range(spine - 1):
        _add(adj, i, i + 1)
    for leaf in range(spine, n):
        _add(adj, rng.randrange(spine), leaf)
    for _ in range(local_complements):
        local_complement(adj, rng.randrange(n))
    return adj


def _attach(adj: list[set[int]], w: int, v: int, move: str) -> None:
    """Join w to v as a pendant, true twin or false twin of v."""
    if move == "pendant":
        nb = {v}
    elif move == "true_twin":
        nb = adj[v] | {v}
    else:
        nb = set(adj[v])
    for u in nb:
        _add(adj, w, u)


NET_EDGES = ((0, 1), (1, 2), (0, 2), (0, 3), (1, 4), (2, 5))


def net_grown(rng: random.Random, n: int) -> list[set[int]]:
    """A dense distance-hereditary graph that contains the Net as an induced subgraph.

    Grown from the Net by pendant and twin moves, which keep a graph distance
    hereditary and keep every induced subgraph; the Net has linear rank-width
    2, so the result must be rejected with a distance-hereditary obstruction.
    Drawn again until m lies in DENSE_M_PER_N times n.
    """
    lo, hi = DENSE_M_PER_N
    while True:
        adj = _empty(n)
        for u, v in NET_EDGES:
            _add(adj, u, v)
        for w in range(6, n):
            move = rng.choices(("pendant", "true_twin", "false_twin"), weights=(1, 5, 4))[0]
            _attach(adj, w, rng.randrange(w), move)
        m = sum(map(len, adj)) // 2
        if lo * n <= m <= hi * n:
            return adj


def obstruction(kind: str) -> tuple[str, list[tuple[int, int]], int]:
    """Family, edges and order of a minimal non-distance-hereditary graph."""
    if kind.startswith("hole"):
        k = int(kind[4:])
        return "hole", [(i, (i + 1) % k) for i in range(k)], k
    k, edges = SHAPES[kind]
    return kind, list(edges), k


def buried(rng: random.Random, kind: str, n: int) -> tuple[list[set[int]], str, tuple[int, ...]]:
    """A linear rank-width 1 base with one planted non-DH obstruction.

    One obstruction vertex x is joined to the base as a pendant or twin of a
    base vertex, so the base plus x stays distance hereditary and the
    obstruction stays induced.  x is then a cut vertex, and the minimal
    non-DH graphs (house, gem, domino, holes) are 2-connected, so the planted
    set is the only minimal non-DH induced subgraph.
    """
    family, edges, k = obstruction(kind)
    adj = scrambled_caterpillar(rng, n - k, CATERPILLAR_LOCAL_COMPLEMENTS) + _empty(k)
    base = n - k
    for u, v in edges:
        _add(adj, base + u, base + v)
    x = base + rng.randrange(k)
    _attach(adj, x, rng.randrange(base), rng.choice(("pendant", "true_twin", "false_twin")))
    adj, perm = relabel(rng, adj)
    return adj, family, tuple(sorted(perm[base + i] for i in range(k)))


WORKLOADS = {
    "caterpillar_accept": 1,
    "dense_dh_reject": 1,
    "buried_obstruction": len(BURIED_ROUND),
}
"""Workload name to the number of graphs in one round."""


def make_case(workload: str, seed: int, index: int) -> Case:
    """Graph number `index` of a workload; the same arguments give the same graph."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    if workload == "caterpillar_accept":
        adj = scrambled_caterpillar(rng, CATERPILLAR_N, CATERPILLAR_LOCAL_COMPLEMENTS)
        adj, _ = relabel(rng, adj)
        return Case(adj, "edge-list", "lrw_le_1")
    if workload == "dense_dh_reject":
        adj, _ = relabel(rng, net_grown(rng, DENSE_N))
        return Case(adj, "graph6", "lrw_ge_2", family="dh_star3")
    if workload == "buried_obstruction":
        kind = BURIED_ROUND[index % len(BURIED_ROUND)]
        adj, family, vertices = buried(rng, kind, BURIED_N)
        return Case(adj, "edge-list", "lrw_ge_2", family=family, vertices=vertices)
    raise ValueError(f"unknown workload {workload!r}")


# -- file formats ---------------------------------------------------------------


def to_edge_list(adj: list[set[int]]) -> str:
    edges = [(u, v) for u in range(len(adj)) for v in sorted(adj[u]) if u < v]
    lines = [f"{len(adj)} {len(edges)}"]
    lines.extend(f"{u} {v}" for u, v in edges)
    return "\n".join(lines) + "\n"


def to_graph6(adj: list[set[int]]) -> str:
    """graph6 encoding: the upper triangle column by column, 6 bits a character."""
    n = len(adj)
    if n <= 62:
        head = chr(n + 63)
    elif n <= 258047:
        head = "~" + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    else:
        raise ValueError("graph too large for this encoder")
    bits = [1 if i in adj[j] else 0 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    body = []
    for k in range(0, len(bits), 6):
        val = 0
        for b in bits[k:k + 6]:
            val = (val << 1) | b
        body.append(chr(val + 63))
    return head + "".join(body) + "\n"


def serialize(case: Case) -> str:
    return to_graph6(case.adj) if case.fmt == "graph6" else to_edge_list(case.adj)
