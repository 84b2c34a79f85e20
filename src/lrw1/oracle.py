"""Brute-force references and corpus generators for the recognition pipeline.

Everything here answers questions by exhaustion: exact linear rank-width by a
memoised search over vertex-ordering prefixes, splits by enumerating
bipartitions, canonical decompositions by top-down refinement plus merging,
vertex-minors by state-space search over local complementations and
deletions.  Guards keep each operation at desk scale.
"""

from __future__ import annotations

import itertools
import os
import random
from importlib import resources
from pathlib import Path

from .dh import PruningSequence, PruningStep, is_distance_hereditary, pruning_sequence, replay_pruning
from .errors import AlreadyDH, CapExceeded, Disconnected, NotDH, TooLarge
from .gf2 import rank_of_rows
from .graph import (
    Graph,
    canonical_form,
    connected_components,
    induced_subgraph,
    local_complement,
    parse_graph,
    to_graph6,
)
from .splitdec import (
    Decomposition,
    DecompositionBuilder,
    block_splits,
    canonical_decomposition_dh,
    split_tree,
)

_LRW_GUARD = 10
_SPLIT_GUARD = 16
_ORBIT_GUARD = 8


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _member_table(width: int) -> tuple[tuple[int, ...], ...]:
    # doubling: the masks from 2^v up are those below it with v added last
    table: list[tuple[int, ...]] = [()]
    for v in range(width):
        table.extend([members + (v,) for members in table])
    return tuple(table)


# The ascending vertices of every mask the width search can meet.
_MEMBERS = _member_table(_LRW_GUARD)


# -- exact linear rank-width ---------------------------------------------------


def brute_lrw(graph: Graph) -> int:
    """Exact linear rank-width by minimising over all vertex orderings.

    Implemented as a memoised search over ordering prefixes: the best
    achievable maximum for a prefix set does not depend on the order inside
    the prefix, so the search visits each subset once.  The value equals the
    plain minimum over all n! orderings (cross-checked in tests).
    """
    return _lrw_table(graph)[0]


def brute_lrw_ordering(graph: Graph) -> tuple[int, tuple[int, ...]]:
    """Exact linear rank-width together with one optimal ordering."""
    value, best = _lrw_table(graph)
    order = []
    mask = (1 << graph.n) - 1
    while mask:
        # peeling any v whose remaining-set optimum fits the budget is safe
        take = min(v for v in _bits(mask) if best[mask ^ (1 << v)] <= best[mask])
        order.append(take)
        mask ^= 1 << take
    order.reverse()
    return value, tuple(order)


def _lrw_table(graph: Graph) -> tuple[int, dict[int, int]]:
    if graph.n > _LRW_GUARD:
        raise TooLarge(f"exact linear rank-width guard is {_LRW_GUARD} vertices")
    n = graph.n
    if n == 0:
        return 0, {0: 0}
    masks = graph.adjacency_masks()
    full = (1 << n) - 1
    cut = [0] * (full + 1)
    for mask in range(1, full + 1):
        cut[mask] = rank_of_rows(masks[v] & ~mask for v in _bits(mask))
    best = {0: 0}
    for mask in sorted(range(1, full + 1), key=int.bit_count):
        incoming = min(best[mask ^ (1 << v)] for v in _bits(mask))
        best[mask] = max(cut[mask], incoming)
    return best[full], best


def lrw_at_most(graph: Graph, k: int, without: int | None = None) -> bool:
    """Whether the linear rank-width is at most k, leaving out the vertex
    `without` when one is given.

    A depth-first search over ordering prefixes, taken as vertex sets: a
    prefix is extended only while its cut rank is at most k, and the search
    stops at the first full set.  Each set's rank is computed at most once,
    and only for sets reached through prefixes within the bound, where
    `brute_lrw` ranks every set.  A set's vertices are read from the table
    `_MEMBERS`; `brute_lrw`, the reference the search is tested against,
    lists them with `_bits` instead.

    Leaving out v lowers the width by at most 1: an ordering of G - v
    followed by v adds one column to each prefix cut, so
    lrw(G) <= lrw(G - v) + 1.
    """
    if graph.n > _LRW_GUARD:
        raise TooLarge(f"exact linear rank-width guard is {_LRW_GUARD} vertices")
    full = (1 << graph.n) - 1
    if without is not None:
        if not 0 <= without < graph.n:
            raise ValueError(f"vertex {without} out of range")
        full ^= 1 << without
    masks = [m & full for m in graph.adjacency_masks()]
    seen = {0}
    stack = [0]
    while stack:
        prefix = stack.pop()
        if prefix == full:
            return True
        for v in _MEMBERS[full & ~prefix]:
            grown = prefix | 1 << v
            if grown not in seen:
                seen.add(grown)
                if rank_of_rows([masks[u] & ~grown for u in _MEMBERS[grown]]) <= k:
                    stack.append(grown)
    return False


def brute_lrw_by_enumeration(graph: Graph) -> int:
    """Plain minimum over every ordering; only for cross-checking the search."""
    from .gf2 import cutrank_of_ordering

    if graph.n > 7:
        raise TooLarge("factorial enumeration capped at 7 vertices")
    if graph.n == 0:
        return 0
    return min(cutrank_of_ordering(graph, p) for p in itertools.permutations(range(graph.n)))


# -- splits ----------------------------------------------------------------------


def brute_splits(graph: Graph) -> list[tuple[int, ...]]:
    """All splits, reported as the side containing vertex 0, sorted."""
    if graph.n > _SPLIT_GUARD:
        raise TooLarge(f"split enumeration guard is {_SPLIT_GUARD} vertices")
    if graph.n == 0 or len(connected_components(graph)) != 1:
        raise Disconnected("splits are defined for connected graphs")
    n = graph.n
    masks = graph.adjacency_masks()
    full = (1 << n) - 1
    out = []
    for m in range(1 << (n - 1)):
        mask = (m << 1) | 1
        size = mask.bit_count()
        if size < 2 or n - size < 2:
            continue
        if rank_of_rows(masks[v] & ~mask for v in _bits(mask)) == 1:
            out.append(tuple(sorted(_bits(mask))))
    return sorted(out)


def _overlaps(m1: int, m2: int, full: int) -> bool:
    return bool(m1 & m2) and bool(m1 & ~m2 & full) and bool(~m1 & m2 & full) and bool(~m1 & ~m2 & full)


def brute_strong_splits(graph: Graph) -> list[tuple[int, ...]]:
    """Splits that overlap no other split (as bipartitions)."""
    splits = brute_splits(graph)
    full = (1 << graph.n) - 1
    masks = [sum(1 << v for v in s) for s in splits]
    out = []
    for i, m1 in enumerate(masks):
        if all(i == j or not _overlaps(m1, m2, full) for j, m2 in enumerate(masks)):
            out.append(splits[i])
    return out


# -- top-down canonical decomposition ---------------------------------------------


def _block_strong_splits(adj: dict[int, set[int]]) -> list[frozenset[int]]:
    splits = list(block_splits(adj))
    universe = frozenset(adj)
    strong = []
    for s in splits:
        t = universe - s
        clear = True
        for s2 in splits:
            if s2 == s:
                continue
            t2 = universe - s2
            if (s & s2) and (s & t2) and (t & s2) and (t & t2):
                clear = False
                break
        if clear:
            strong.append(s)
    return strong


def brute_canonical_decomposition(graph: Graph) -> Decomposition:
    """Canonical decomposition by iterated refinement along strong splits.

    Each block is split along a strong split of its block graph (smallest
    canonical side first) until none remains; in a clique or a star every
    split is overlapped by another, so degenerate blocks survive intact.  A
    merge pass guards the canonical adjacency conditions afterwards, though
    strong-split refinement is not expected to violate them.
    """
    if graph.n > _LRW_GUARD:
        raise TooLarge(f"canonical decomposition guard is {_LRW_GUARD} vertices")
    if graph.n == 0 or len(connected_components(graph)) != 1:
        raise Disconnected("decomposition is defined for connected graphs")
    builder = DecompositionBuilder()
    builder.add_block({v: set(graph.adj[v]) for v in range(graph.n)})
    while True:
        refined = False
        for bid in sorted(builder.badj):
            splits = _block_strong_splits(builder.badj[bid])
            if splits:
                side = min(splits, key=lambda s: (len(s), tuple(sorted(s))))
                builder.refine_block(bid, side)
                refined = True
                break
        if not refined:
            break
    while True:
        merged = False
        pairs = sorted(
            {tuple(sorted((m, p))) for m, p in builder.partner.items()},
            key=lambda t: (-t[1], -t[0]),
        )
        for m1, m2 in pairs:
            if builder.violation(m1, m2):
                builder.merge_pair(m1, m2)
                merged = True
                break
        if not merged:
            break
    return builder.freeze(graph)


def _insert_vertex(builder: DecompositionBuilder, kind: str, w: int, v: int) -> None:
    """Re-insert w (a pendant or twin of v) and repair canonicity locally.

    v is replaced inside its block by a marker, and {v, w} becomes a fresh
    block whose shape encodes the move: star centred at v for a pendant,
    triangle for a true twin, star centred at the new marker for a false
    twin.  The only canonical condition that can break is across the one new
    marked edge, where a single contraction repairs it; merged blocks keep
    their kind and centre slot, so no repair can cascade.
    """
    bid = builder.vhome[v]
    h_old = builder.markerize(bid, v)
    h_new = builder.fresh_marker()
    if kind == "pendant":
        new_adj = {v: {w, h_new}, w: {v}, h_new: {v}}
    elif kind == "true_twin":
        new_adj = {v: {w, h_new}, w: {v, h_new}, h_new: {v, w}}
    elif kind == "false_twin":
        new_adj = {v: {h_new}, w: {h_new}, h_new: {v, w}}
    else:
        raise ValueError(f"unknown step kind {kind!r}")
    builder.add_block(new_adj)
    builder.pair(h_new, h_old)
    if builder.violation(h_new, h_old):
        builder.merge_pair(h_new, h_old)


def reference_canonical_decomposition_dh(graph: Graph, seq: PruningSequence | None) -> Decomposition:
    """`splitdec.canonical_decomposition_dh` on explicit adjacency sets, kept
    as the reference: every insertion edits the adjacency of its blocks and
    reclassifies both blocks of the new marked edge, so a clique block of s
    vertices costs O(s) an insertion and O(s^2) edges when frozen.  It gives
    the same block ids, marker ids, kinds, centres and edges."""
    if seq is None:
        raise NotDH("graph is not distance hereditary")
    replay_pruning(graph, seq)
    steps = seq.steps[::-1]
    first = {seq.last} | {step.removed for step in steps[:2]}
    builder = DecompositionBuilder()
    builder.add_block({x: set(graph.adj[x] & first) for x in first})
    for step in steps[2:]:
        _insert_vertex(builder, step.kind, step.removed, step.anchor)
    return builder.freeze(graph)


# -- local complementation orbits and vertex-minors --------------------------------


def local_equivalence_orbit(graph: Graph, cap: int = 10**6) -> frozenset[Graph]:
    """Closure of a graph under local complementation at every vertex."""
    if graph.n > _ORBIT_GUARD:
        raise TooLarge(f"orbit guard is {_ORBIT_GUARD} vertices")
    seen = {graph}
    frontier = [graph]
    while frontier:
        g = frontier.pop()
        for v in range(g.n):
            if g.degree(v) < 2:
                continue  # complementing within 0 or 1 neighbours changes nothing
            h = local_complement(g, v)
            if h not in seen:
                if len(seen) >= cap:
                    raise CapExceeded(f"orbit exceeded cap {cap}")
                seen.add(h)
                frontier.append(h)
    return frozenset(seen)


def has_vertex_minor(graph: Graph, target: Graph) -> bool:
    """True iff the target appears as a vertex-minor of the graph.

    Interleaved search over local complementations and vertex deletions,
    deduplicated by canonical form so the state space is orbits of graphs
    rather than labelled graphs.
    """
    if graph.n > _ORBIT_GUARD:
        raise TooLarge(f"vertex-minor search guard is {_ORBIT_GUARD} vertices")
    return has_any_vertex_minor(graph, [target])


def has_any_vertex_minor(graph: Graph, targets: list[Graph]) -> bool:
    """True iff some target occurs as a vertex-minor; shares one search."""
    if graph.n > _ORBIT_GUARD:
        raise TooLarge(f"vertex-minor search guard is {_ORBIT_GUARD} vertices")
    by_size: dict[int, set[tuple[int, int]]] = {}
    for t in targets:
        by_size.setdefault(t.n, set()).add(canonical_form(t))
    if not by_size:
        return False
    min_size = min(by_size)

    def hit(g: Graph, key: tuple[int, int]) -> bool:
        return g.n in by_size and key in by_size[g.n]

    start_key = canonical_form(graph)
    if hit(graph, start_key):
        return True
    if graph.n < min_size:
        return False
    seen = {start_key}
    frontier = [graph]
    while frontier:
        g = frontier.pop()
        succs = []
        for v in range(g.n):
            if g.degree(v) >= 2:
                succs.append(local_complement(g, v))
        if g.n > min_size:
            for v in range(g.n):
                succs.append(induced_subgraph(g, [u for u in range(g.n) if u != v]))
        for s in succs:
            key = canonical_form(s)
            if key in seen:
                continue
            if hit(s, key):
                return True
            seen.add(key)
            frontier.append(s)
    return False


def graphs_with_vertex_minor(targets: list[Graph], max_n: int) -> set[tuple[int, int]]:
    """Canonical forms of every graph on <= max_n vertices containing one of
    the targets as a vertex-minor.

    Computed once as the reverse closure of the targets under local
    complementation and single-vertex addition with an arbitrary
    neighbourhood; cheaper than searching from each candidate graph.
    """
    seen: set[tuple[int, int]] = set()
    frontier: list[Graph] = []
    for t in targets:
        key = canonical_form(t)
        if key not in seen:
            seen.add(key)
            frontier.append(t)
    while frontier:
        g = frontier.pop()
        succs = []
        for v in range(g.n):
            if g.degree(v) >= 2:
                succs.append(local_complement(g, v))
        if g.n < max_n:
            edges = list(g.edges)
            for nb_mask in range(1 << g.n):
                extra = [(v, g.n) for v in _bits(nb_mask)]
                succs.append(Graph(g.n + 1, edges + extra))
        for s in succs:
            key = canonical_form(s)
            if key not in seen:
                seen.add(key)
                frontier.append(s)
    return seen


# -- direct distance-hereditary test ------------------------------------------------


def _bfs_distances(adj: list[frozenset[int]], inside: set[int], start: int) -> dict[int, int]:
    dist = {start: 0}
    queue = [start]
    while queue:
        nxt = []
        for u in queue:
            for w in adj[u]:
                if w in inside and w not in dist:
                    dist[w] = dist[u] + 1
                    nxt.append(w)
        queue = nxt
    return dist


def is_dh_by_distances(graph: Graph) -> bool:
    """Definition-level test: every connected induced subgraph preserves
    pairwise distances of the host graph."""
    if graph.n > _ORBIT_GUARD:
        raise TooLarge(f"distance test guard is {_ORBIT_GUARD} vertices")
    n = graph.n
    everything = set(range(n))
    host = [_bfs_distances(graph.adj, everything, v) for v in range(n)]
    for mask in range(1, 1 << n):
        inside = set(_bits(mask))
        if len(inside) < 3:
            continue
        start = min(inside)
        dist = _bfs_distances(graph.adj, inside, start)
        if len(dist) < len(inside):
            continue  # disconnected induced subgraph
        for u in inside:
            du = _bfs_distances(graph.adj, inside, u)
            for w in inside:
                if du[w] != host[u][w]:
                    return False
    return True


# -- reference pruning ------------------------------------------------------------------


def _next_elimination(adj: dict[int, set[int]]) -> PruningStep | None:
    """First removable vertex in ascending id order, smallest partner first."""
    open_buckets: dict[frozenset[int], list[int]] = {}
    closed_buckets: dict[frozenset[int], list[int]] = {}
    for u in adj:
        open_buckets.setdefault(frozenset(adj[u]), []).append(u)
        closed_buckets.setdefault(frozenset(adj[u] | {u}), []).append(u)
    for u in sorted(adj):
        nb = adj[u]
        if len(nb) == 1:
            return PruningStep(u, "pendant", next(iter(nb)))
        true_partner = min((v for v in closed_buckets[frozenset(nb | {u})] if v != u), default=None)
        false_partner = min((v for v in open_buckets[frozenset(nb)] if v != u), default=None)
        if true_partner is not None and (false_partner is None or true_partner < false_partner):
            return PruningStep(u, "true_twin", true_partner)
        if false_partner is not None:
            return PruningStep(u, "false_twin", false_partner)
    return None


def reference_pruning_sequence(graph: Graph) -> PruningSequence | None:
    """The greedy elimination of `dh.pruning_sequence`, rescanning every
    neighbourhood at every step: O(n(n + m)), kept as the reference."""
    if graph.n == 0:
        raise Disconnected("empty graph has no pruning sequence")
    if len(connected_components(graph)) != 1:
        raise Disconnected("pruning sequences are defined for connected graphs")
    adj = {v: set(graph.adj[v]) for v in range(graph.n)}
    steps = []
    while len(adj) > 1:
        step = _next_elimination(adj)
        if step is None:
            return None
        for u in adj[step.removed]:
            adj[u].discard(step.removed)
        del adj[step.removed]
        steps.append(step)
    (last,) = adj
    return PruningSequence(tuple(steps), last)


def reference_non_dh_obstruction(graph: Graph) -> tuple[int, ...]:
    """The greedy deletion of `dh.non_dh_obstruction`, restarting at the lowest
    id after every deletion and trying every vertex of the graph: up to n
    passes of up to n trials each, kept as the reference."""
    if is_distance_hereditary(graph):
        raise AlreadyDH("graph is distance hereditary")
    keep = list(range(graph.n))
    changed = True
    while changed:
        changed = False
        for v in keep:
            trial = [u for u in keep if u != v]
            if not is_distance_hereditary(induced_subgraph(graph, trial)):
                keep = trial
                changed = True
                break
    return tuple(keep)


# -- corpus generators ---------------------------------------------------------------


def random_dh_graph(n: int, seed: int) -> Graph:
    """Connected distance-hereditary graph grown by seeded pendant/twin moves."""
    if n < 1:
        raise ValueError("need at least one vertex")
    rng = random.Random(seed)
    adj: dict[int, set[int]] = {0: set()}
    for w in range(1, n):
        v = rng.randrange(w)
        ops = ("pendant", "true_twin") if w == 1 else ("pendant", "true_twin", "false_twin")
        op = rng.choice(ops)
        if op == "pendant":
            nb = {v}
        elif op == "true_twin":
            nb = {v} | adj[v]
        else:
            nb = set(adj[v])
        adj[w] = set(nb)
        for u in nb:
            adj[u].add(w)
    edges = [(u, v) for u in adj for v in adj[u] if u < v]
    return Graph(n, edges)


def random_lrw1_graph(n: int, seed: int) -> Graph:
    """Seeded graph of linear rank-width <= 1: a relabelled random caterpillar
    scrambled by a few local complementations (which preserve the width)."""
    if n < 1:
        raise ValueError("need at least one vertex")
    rng = random.Random(seed)
    spine = rng.randint(1, n)
    edges = [(i, i + 1) for i in range(spine - 1)]
    for leaf in range(spine, n):
        edges.append((rng.randrange(spine), leaf))
    perm = list(range(n))
    rng.shuffle(perm)
    g = Graph(n, [(perm[u], perm[v]) for u, v in edges])
    for _ in range(rng.randint(0, 6)):
        g = local_complement(g, rng.randrange(n))
    return g


def random_branching_dh_graph(n: int, seed: int, max_tries: int = 64) -> Graph:
    """Seeded connected DH graph whose split tree has a node of degree >= 3."""
    for attempt in range(max_tries):
        g = random_dh_graph(n, seed * max_tries + attempt)
        seq = pruning_sequence(g)
        tree = split_tree(canonical_decomposition_dh(g, seq))
        if not tree.is_path():
            return g
    raise RuntimeError(f"no branching DH graph found for n={n}, seed={seed}")


# -- exhaustive small-graph corpus ------------------------------------------------------

_ENUM_CACHE: dict[int, list[Graph]] = {}


def enumerate_graphs(n: int) -> list[Graph]:
    """All graphs on n vertices up to isomorphism, deterministically ordered.

    Grown by adding one vertex with every possible neighbourhood to each
    (n-1)-vertex graph and deduplicating by canonical form.
    """
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    if n in _ENUM_CACHE:
        return list(_ENUM_CACHE[n])
    if n == 0:
        out = [Graph(0)]
    elif n == 1:
        out = [Graph(1)]
    else:
        seen: dict[tuple[int, int], Graph] = {}
        for g in enumerate_graphs(n - 1):
            base_edges = list(g.edges)
            for mask in range(1 << (n - 1)):
                extra = [(v, n - 1) for v in _bits(mask)]
                h = Graph(n, base_edges + extra)
                key = canonical_form(h)
                if key not in seen:
                    seen[key] = h
        out = [seen[k] for k in sorted(seen)]
    _ENUM_CACHE[n] = out
    return list(out)


def enumerate_connected_graphs(n: int) -> list[Graph]:
    return [g for g in enumerate_graphs(n) if n <= 1 or len(connected_components(g)) == 1]


# -- fixture files -----------------------------------------------------------------------

_FIXTURES_ENV = "LRW1_FIXTURES"


def fixtures_dir() -> Path:
    """Fixture directory: the LRW1_FIXTURES override or the packaged copy."""
    env = os.environ.get(_FIXTURES_ENV)
    if env:
        return Path(env)
    return Path(str(resources.files("lrw1") / "fixtures"))


def fixture_path(n: int) -> Path:
    return fixtures_dir() / f"n{n}.g6"


def load_fixture_file(path: Path | str) -> list[Graph]:
    out = []
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            line = line.strip()
            if line:
                out.append(parse_graph(line, "graph6"))
    return out


def load_fixture_graphs(n: int) -> list[Graph]:
    """All graphs on n vertices up to isomorphism, read from the fixture files."""
    return load_fixture_file(fixture_path(n))


def write_fixture_files(directory: Path | str, max_n: int = 7) -> dict[int, int]:
    """Write one graph6 file per vertex count; returns the graph counts."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    counts = {}
    for n in range(1, max_n + 1):
        graphs = enumerate_graphs(n)
        with open(directory / f"n{n}.g6", "w", encoding="ascii") as fh:
            for g in graphs:
                fh.write(to_graph6(g) + "\n")
        counts[n] = len(graphs)
    return counts
