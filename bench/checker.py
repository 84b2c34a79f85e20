"""Independent check of the program's verdicts and certificates.

Nothing here imports lrw1.  The checker is deliberately simpler than the
program it checks: it decides "cut rank <= 1" from neighbourhoods alone,
computes linear rank-width by brute force over vertex subsets with its own
GF(2) rank, and recognises the named families from their definitions.
Every function returns None when the input passes and a reason when it fails.
"""

from __future__ import annotations

import itertools

BRUTE_FORCE_LIMIT = 10

# Fixed drawings of the named non-distance-hereditary graphs.
SHAPES = {
    # a 4-cycle 0-1-2-3 with a roof 4 on the edge 0-1
    "house": (5, ((0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (1, 4))),
    # the path 0-1-2-3 and a vertex 4 adjacent to all of it
    "gem": (5, ((0, 1), (1, 2), (2, 3), (0, 4), (1, 4), (2, 4), (3, 4))),
    # two 4-cycles sharing the edge 1-4
    "domino": (6, ((0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (1, 4), (2, 5))),
}


def gf2_rank(rows) -> int:
    """Rank over GF(2) of integer bit rows, by a basis with distinct leading bits."""
    basis: list[int] = []  # kept in decreasing order
    for row in rows:
        for b in basis:
            row = min(row, row ^ b)
        if row:
            basis.append(row)
            basis.sort(reverse=True)
    return len(basis)


def _masks(adj: list[set[int]]) -> list[int]:
    return [sum(1 << u for u in nb) for nb in adj]


def linear_rank_width(adj: list[set[int]]) -> int:
    """Exact linear rank-width by dynamic programming over prefix sets.

    width[S] is the best maximum cut rank of an ordering of S placed first;
    it depends on S only, so each subset is visited once.
    """
    n = len(adj)
    if n > BRUTE_FORCE_LIMIT:
        raise ValueError(f"brute force is limited to {BRUTE_FORCE_LIMIT} vertices")
    masks = _masks(adj)
    full = (1 << n) - 1
    width = [0] * (full + 1)
    for s in range(1, full + 1):
        members = [v for v in range(n) if s >> v & 1]
        cut = gf2_rank(masks[v] & full & ~s for v in members)
        width[s] = max(cut, min(width[s & ~(1 << v)] for v in members))
    return width[full]


def induced(adj: list[set[int]], vertices) -> list[set[int]]:
    """Subgraph induced by `vertices`, renumbered in the given order."""
    pos = {v: i for i, v in enumerate(vertices)}
    return [{pos[u] for u in adj[v] if u in pos} for v in vertices]


def _connected(adj: list[set[int]]) -> bool:
    if not adj:
        return False
    seen = {0}
    stack = [0]
    while stack:
        for u in adj[stack.pop()]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == len(adj)


def is_chordless_cycle(adj: list[set[int]]) -> bool:
    return len(adj) >= 3 and all(len(nb) == 2 for nb in adj) and _connected(adj)


def is_distance_hereditary(adj: list[set[int]]) -> bool:
    """For a connected graph: reducible to one vertex by deleting pendants and twins.

    This is the characterisation of Bandelt and Mulder (JCTB 1986).  Deleting
    a pendant or twin keeps the answer, so the order of deletions is free.
    """
    alive = set(range(len(adj)))
    while len(alive) > 1:
        for v in alive:
            nb = adj[v] & alive
            if len(nb) == 1 or any((adj[u] & alive) - {v} == nb - {u} for u in alive if u != v):
                alive.remove(v)
                break
        else:
            return False
    return True


def is_isomorphic(adj: list[set[int]], n: int, edges) -> bool:
    """Compare with a drawing given by edges on 0..n-1, trying every bijection."""
    if len(adj) != n or sum(map(len, adj)) != 2 * len(edges):
        return False
    return any(all(p[v] in adj[p[u]] for u, v in edges) for p in itertools.permutations(range(n)))


# -- certificates -------------------------------------------------------------------


def check_ordering(adj: list[set[int]], order) -> str | None:
    """An ordering passes when every prefix cut has rank at most 1.

    A cut has rank at most 1 exactly when all prefix vertices that have a
    neighbour across the cut have the same neighbourhood across it.
    """
    n = len(adj)
    if not isinstance(order, list) or any(not isinstance(v, int) for v in order):
        return "ordering is not a list of vertex ids"
    if sorted(order) != list(range(n)):
        return "ordering is not a permutation of the vertices"
    masks = _masks(adj)
    suffix = (1 << n) - 1
    prefix: list[int] = []
    for i, v in enumerate(order[:-1]):
        suffix &= ~(1 << v)
        prefix.append(v)
        across = {masks[u] & suffix for u in prefix} - {0}
        if len(across) > 1:
            return f"prefix cut after position {i} has rank 2 or more"
    return None


def check_obstruction(adj: list[set[int]], vertices, family: str) -> str | None:
    """An obstruction passes when it induces its family and is minimal of width 2.

    Up to BRUTE_FORCE_LIMIT vertices the induced graph must have linear
    rank-width exactly 2, and at most 1 after deleting any one vertex.  A
    larger certificate must be a hole, whose width follows from its being a
    chordless cycle.  A "dh_star3" obstruction must be connected and distance
    hereditary; together with minimal width 2 that makes its split tree a star
    with three leaves.
    """
    vs = list(vertices)
    if len(set(vs)) != len(vs):
        return "obstruction lists a vertex twice"
    if any(not (isinstance(v, int) and 0 <= v < len(adj)) for v in vs):
        return "obstruction names a vertex that is not in the graph"
    sub = induced(adj, vs)
    if family == "hole":
        if len(sub) < 5 or not is_chordless_cycle(sub):
            return "hole does not induce a chordless cycle of length 5 or more"
        if len(sub) > BRUTE_FORCE_LIMIT:
            return None
    elif family in SHAPES:
        if not is_isomorphic(sub, *SHAPES[family]):
            return f"vertices do not induce a {family}"
    elif family == "dh_star3":
        if not _connected(sub) or not is_distance_hereditary(sub):
            return "dh_star3 obstruction is not a connected distance-hereditary graph"
    else:
        return f"unknown obstruction family {family!r}"
    if len(sub) > BRUTE_FORCE_LIMIT:
        return f"{family} obstruction has {len(sub)} vertices, too many for its family"
    if linear_rank_width(sub) != 2:
        return "obstruction does not have linear rank-width 2"
    for i in range(len(vs)):
        if linear_rank_width(induced(sub, [u for u in range(len(vs)) if u != i])) > 1:
            return f"deleting vertex {vs[i]} keeps width 2: not minimal"
    return None


def check_verdict(case, exit_code: int, payload) -> str | None:
    """Compare a `recognize --json` result with the answer known from the construction."""
    if not isinstance(payload, dict):
        return "output is not a JSON object"
    status = payload.get("status")
    if status != case.status:
        return f"status {status!r}, expected {case.status!r}"
    expected_exit = 0 if status == "lrw_le_1" else 1
    if exit_code != expected_exit:
        return f"exit code {exit_code} with status {status}"
    if status == "lrw_le_1":
        return check_ordering(case.adj, payload.get("ordering"))
    obstruction = payload.get("obstruction")
    if not isinstance(obstruction, dict):
        return "rejection without an obstruction"
    vertices, family = obstruction.get("vertices"), obstruction.get("family")
    if not isinstance(vertices, list) or any(not isinstance(v, int) for v in vertices):
        return "obstruction is not a list of vertex ids"
    if family != case.family:
        return f"family {family!r}, expected {case.family!r}"
    if case.vertices is not None and sorted(vertices) != list(case.vertices):
        return f"obstruction {sorted(vertices)}, expected the planted {list(case.vertices)}"
    if family == "dh_star3" and not isinstance(obstruction.get("catalog_index"), int):
        return "dh_star3 obstruction without a catalog index"
    return check_obstruction(case.adj, vertices, family)
