"""Brute-force references and corpus generators for the recognition pipeline.

Everything here answers questions by exhaustion: exact linear rank-width by a
memoised search over vertex-ordering prefixes, splits by enumerating
bipartitions, canonical decompositions by top-down refinement plus merging,
vertex-minors by state-space search over local complementations and
deletions.  Guards keep each operation at desk scale.

It also holds the checks of split decompositions, which nothing on the
recognition path runs: the split test, the adjacency-set block builder with
refinement and recomposition, canonicity validation, and the comparison of
two decompositions by their split trees.
"""

from __future__ import annotations

import itertools
import os
import random
from collections.abc import Collection, Iterable, Iterator, Mapping, Sequence
from importlib import resources
from pathlib import Path

from .dh import PruningSequence, PruningStep, is_distance_hereditary, pruning_sequence, replay_pruning
from .errors import (
    AlreadyDH,
    CapExceeded,
    Disconnected,
    InvalidVertex,
    MalformedDecomposition,
    NotASplit,
    NotDH,
    TooLarge,
)
from .gf2 import cut_rows, rank_of_rows
from .graph import (
    Graph,
    canonical_form,
    connected_components,
    induced_subgraph,
    local_complement,
    parse_graph,
    reach,
    to_graph6,
)
from .splitdec import (
    Block,
    Decomposition,
    _classify_adj,
    _decomposition,
    _pairing_fault,
    canonical_decomposition_dh,
    canonical_violation,
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


def lrw_at_most(graph: Graph, k: int) -> bool:
    """Whether the linear rank-width is at most k.

    A depth-first search over ordering prefixes, taken as vertex sets: a
    prefix is extended only while its cut rank is at most k, and the search
    stops at the first full set.  Each set's rank is computed at most once,
    and only for sets reached through prefixes within the bound, where
    `brute_lrw` ranks every set.  A set's vertices are read from the table
    `_MEMBERS`; `brute_lrw`, the reference the search is tested against,
    lists them with `_bits` instead.
    """
    if graph.n > _LRW_GUARD:
        raise TooLarge(f"exact linear rank-width guard is {_LRW_GUARD} vertices")
    full = (1 << graph.n) - 1
    masks = graph.adjacency_masks()
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


def _is_split_of(
    adj: Sequence[Iterable[int]] | Mapping[int, Iterable[int]], side: Collection[int], rest: Collection[int]
) -> bool:
    """The one split test: both sides hold two vertices or more, and the cut
    between them has rank 1 in the graph or block whose adjacency is adj."""
    return len(side) >= 2 and len(rest) >= 2 and rank_of_rows(cut_rows(adj, side, rest)) == 1


def _graph_side(graph: Graph, side: Iterable[int]) -> set[int]:
    """side as a set, once each of its vertices is checked to be in the graph."""
    side_set = set(side)
    for v in side_set:
        if not 0 <= v < graph.n:
            raise InvalidVertex(f"vertex {v} not in graph of order {graph.n}")
    return side_set


def is_split(graph: Graph, side: Iterable[int]) -> bool:
    """True iff {side, rest} has both sides of size >= 2 and cut rank 1."""
    side_set = _graph_side(graph, side)
    return _is_split_of(graph.adj, side_set, [v for v in range(graph.n) if v not in side_set])


def block_splits(adj: Mapping[int, Iterable[int]]) -> Iterator[frozenset[int]]:
    """Every split of a block graph, as the side holding its smallest vertex.

    Exhaustive over the 2^(n-1) bipartitions, so only for small blocks; the
    sides come in the order of the bit masks over the other vertices sorted
    by id.  A block of fewer than four vertices has no split.
    """
    vs = sorted(adj)
    n = len(vs)
    if n < 4:
        return
    anchor, others = vs[0], vs[1:]
    for mask in range(1 << (n - 1)):
        side = {anchor} | {others[i] for i in range(n - 1) if (mask >> i) & 1}
        if _is_split_of(adj, side, [v for v in vs if v not in side]):
            yield frozenset(side)


def _block_strong_splits(adj: Mapping[int, Iterable[int]]) -> list[frozenset[int]]:
    """The splits of a block that overlap no other split, in the order of
    `block_splits`."""
    splits = list(block_splits(adj))
    universe = frozenset(adj)
    # s and s2 overlap when all four intersections of the two bipartitions
    # are nonempty; no split overlaps itself
    return [s for s in splits if not any(s & s2 and s - s2 and s2 - s and universe - s - s2 for s2 in splits)]


def _guarded_block(graph: Graph) -> dict[int, frozenset[int]]:
    """The graph's adjacency as a block, once the graph passes the guards of
    split enumeration."""
    if graph.n > _SPLIT_GUARD:
        raise TooLarge(f"split enumeration guard is {_SPLIT_GUARD} vertices")
    if graph.n == 0 or len(connected_components(graph)) != 1:
        raise Disconnected("splits are defined for connected graphs")
    return dict(enumerate(graph.adj))


def brute_splits(graph: Graph) -> list[tuple[int, ...]]:
    """All splits, reported as the side containing vertex 0, sorted."""
    return sorted(tuple(sorted(s)) for s in block_splits(_guarded_block(graph)))


def brute_strong_splits(graph: Graph) -> list[tuple[int, ...]]:
    """Splits that overlap no other split (as bipartitions), sorted."""
    return sorted(tuple(sorted(s)) for s in _block_strong_splits(_guarded_block(graph)))


# -- block systems on adjacency sets ----------------------------------------------


def _contract(adj: dict[int, set[int]], h1: int, h2: int) -> None:
    """Contract the marked edge h1-h2 in place: both markers go, and every
    neighbour of one becomes adjacent to every neighbour of the other."""
    n1 = adj.pop(h1)
    n2 = adj.pop(h2)
    n1.discard(h2)
    n2.discard(h1)
    for u in n1:
        adj[u].discard(h1)
        adj[u] |= n2
    for u in n2:
        adj[u].discard(h2)
        adj[u] |= n1


class DecompositionBuilder:
    """Mutable block system on explicit adjacency sets, for blocks that may
    be prime (`refine`, the top-down decomposition and the reference DH
    build); freeze() turns it into a Decomposition."""

    def __init__(self):
        self.badj: dict[int, dict[int, set[int]]] = {}
        self.pairs: set[tuple[int, int]] = set()  # each marked edge, lower id first
        self.mhome: dict[int, int] = {}
        self.vhome: dict[int, int] = {}
        self._next_block = 0
        self._next_marker = -1

    def add_block(self, adj: dict[int, set[int]]) -> int:
        """Add a block and return its id.  The builder takes ownership of adj
        and of its sets, so the caller must not keep or reuse them."""
        bid = self._next_block
        self._next_block += 1
        self.badj[bid] = adj
        for v in adj:
            if v >= 0:
                self.vhome[v] = bid
            else:
                self.mhome[v] = bid
        return bid

    def fresh_marker(self) -> int:
        m = self._next_marker
        self._next_marker -= 1
        return m

    def pair(self, a: int, b: int) -> None:
        self.pairs.add((min(a, b), max(a, b)))

    def markerize(self, bid: int, v: int) -> int:
        """Replace original vertex v inside its block by a fresh marker."""
        adj = self.badj[bid]
        m = self.fresh_marker()
        nb = adj.pop(v)
        adj[m] = nb
        for u in nb:
            u_nb = adj[u]
            u_nb.discard(v)
            u_nb.add(m)
        del self.vhome[v]
        self.mhome[m] = bid
        return m

    def merge_pair(self, h1: int, h2: int) -> int:
        """Contract the marked edge h1-h2, fusing its two blocks into one."""
        b1 = self.mhome.pop(h1)
        b2 = self.mhome.pop(h2)
        self.pairs.remove((min(h1, h2), max(h1, h2)))
        merged = self.badj.pop(b1)
        merged.update(self.badj.pop(b2))
        _contract(merged, h1, h2)
        return self.add_block(merged)

    def violation(self, h1: int, h2: int) -> str | None:
        """`canonical_violation` of the marked edge h1-h2 in its current blocks."""
        k1, c1 = _classify_adj(self.badj[self.mhome[h1]])
        k2, c2 = _classify_adj(self.badj[self.mhome[h2]])
        return canonical_violation(k1, c1, h1, k2, c2, h2)

    def refine_block(self, bid: int, side: Iterable[int]) -> tuple[int, int]:
        """Split one block along a split of its block graph."""
        adj = self.badj[bid]
        side_set = set(side)
        rest = set(adj) - side_set
        if side_set - set(adj):
            raise NotASplit("side is not a subset of the block")
        if not _is_split_of(adj, side_set, rest):
            raise NotASplit(f"{sorted(side_set)} is not a split of block {bid}")
        hx = self.fresh_marker()
        hy = self.fresh_marker()
        ax = {v: adj[v] & side_set for v in side_set}
        fx = {v for v in side_set if adj[v] & rest}
        ax[hx] = fx
        for v in fx:
            ax[v].add(hx)
        ay = {v: adj[v] & rest for v in rest}
        fy = {v for v in rest if adj[v] & side_set}
        ay[hy] = fy
        for v in fy:
            ay[v].add(hy)
        del self.badj[bid]
        b1 = self.add_block(ax)
        b2 = self.add_block(ay)
        self.pair(hx, hy)
        return b1, b2

    def freeze(self, origin: Graph) -> Decomposition:
        """The Decomposition of the blocks so far; as in the DH build, only
        a prime block lists its edges."""
        blocks = []
        for bid in sorted(self.badj):
            adj = self.badj[bid]
            kind, centre = _classify_adj(adj)
            edges = None
            if kind == "prime":
                edges = tuple(sorted((u, v) for u in adj for v in adj[u] if u < v))  # adj is symmetric
            blocks.append(Block(bid, tuple(sorted(adj)), edges, kind, centre))
        return _decomposition(blocks, sorted(self.pairs), origin)


def refine(graph: Graph, side: Iterable[int]) -> tuple[Block, Block]:
    """Split a block graph along a split of its vertex set.

    Returns the two sides as blocks carrying fresh partnered markers -1 (on
    the side) and -2 (on the rest); each marker is adjacent to exactly the
    vertices with neighbours across the split.  Raises InvalidVertex on a
    vertex outside the graph and NotASplit when the side is no split.
    """
    side_set = _graph_side(graph, side)
    builder = DecompositionBuilder()
    bid = builder.add_block({v: set(graph.adj[v]) for v in range(graph.n)})
    bx, by = builder.refine_block(bid, side_set)
    frozen = builder.freeze(graph)
    return frozen.block(bx), frozen.block(by)


def contract_blocks(blocks: Iterable[Block], pairs: Iterable[tuple[int, int]]) -> dict[int, frozenset[int]]:
    """Contract marker pairs across blocks; returns the joined adjacency."""
    adj: dict[int, set[int]] = {}
    for blk in blocks:
        for v, nb in blk.adj.items():
            if v in adj:
                raise MalformedDecomposition(f"vertex {v} appears in two blocks")
            adj[v] = set(nb)
    for h1, h2 in pairs:
        if h1 not in adj or h2 not in adj:
            raise MalformedDecomposition(f"marker pair ({h1},{h2}) missing from blocks")
        _contract(adj, h1, h2)
    return {v: frozenset(nb) for v, nb in adj.items()}


def recompose(decomposition: Decomposition) -> Graph:
    """Contract every marked edge and rebuild the original graph."""
    adj = contract_blocks(decomposition.blocks, decomposition.marker_pairs)
    if any(v < 0 for v in adj):
        raise MalformedDecomposition("unpaired marker survived recomposition")
    if set(adj) != set(range(decomposition.origin.n)):
        raise MalformedDecomposition("recomposition changed the vertex set")
    edges = [(u, v) for u in adj for v in adj[u] if u < v]
    return Graph(decomposition.origin.n, edges)


# -- top-down canonical decomposition ---------------------------------------------


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
        for m1, m2 in sorted(builder.pairs, key=lambda t: (-t[1], -t[0])):
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


# -- checking a decomposition --------------------------------------------------------

_PRIME_CHECK_LIMIT = 16


def validate_canonical(decomposition: Decomposition) -> list[tuple]:
    """Structured violations of the canonical-decomposition conditions.

    Empty iff every block is a clique (>= 3), star (>= 3) or prime, no two
    clique blocks are adjacent, adjacent star blocks are oriented
    consistently, every marked edge is an isthmus of the block system, and
    recomposition returns exactly the original graph.  A prime block is
    searched for a split only up to 16 vertices (`_PRIME_CHECK_LIMIT`); a
    larger one is not, since the search tries every bipartition.  Pairs
    that break the pairing rule of `splitdec._pairing_fault` are reported as
    ("malformed", reason), which ends the check.
    """
    issues: list[tuple] = []
    d = decomposition
    fault = _pairing_fault(d)
    if fault is not None:
        issues.append(("malformed", fault))
        return issues
    try:
        rebuilt = recompose(d)
    except MalformedDecomposition as exc:
        issues.append(("malformed", str(exc)))
        return issues
    if rebuilt != d.origin:
        issues.append(("recompose-mismatch",))
    multi_block = len(d.blocks) > 1
    for blk in d.blocks:
        kind, centre = _classify_adj(blk.adj)
        if (kind, centre) != (blk.kind, blk.centre):
            issues.append(("kind-mismatch", blk.id))
        if multi_block and len(blk.vertices) < 3:
            issues.append(("undersized-block", blk.id))
        if kind == "prime" and 4 <= len(blk.vertices) <= _PRIME_CHECK_LIMIT:
            if next(block_splits(blk.adj), None) is not None:
                issues.append(("splittable-prime", blk.id))
    for m1, m2 in d.marker_pairs:
        b1 = d.block(d.home_of(m1))
        b2 = d.block(d.home_of(m2))
        violation = canonical_violation(b1.kind, b1.centre, m1, b2.kind, b2.centre, m2)
        if violation:
            issues.append((violation, b1.id, b2.id))
    # marked edges must be isthmuses of the block system
    sd_adj: dict[int, set[int]] = {}
    for blk in d.blocks:
        for v, nb in blk.adj.items():
            sd_adj.setdefault(v, set()).update(nb)
    for m1, m2 in d.marker_pairs:
        sd_adj[m1].add(m2)
        sd_adj[m2].add(m1)
    bridges = _bridges(sd_adj)
    for m1, m2 in d.marker_pairs:
        if (m1, m2) not in bridges:
            issues.append(("marked-edge-not-isthmus", m1, m2))
    return issues


def _bridges(adj: Mapping[int, Collection[int]]) -> set[tuple[int, int]]:
    """The isthmuses (bridges) of a simple graph, as (min, max) pairs.

    One iterative depth-first search in O(n + m): the tree edge from p to x
    is a bridge iff no back edge from x's subtree reaches p or above it,
    i.e. low[x] > disc[p].
    """
    disc: dict[int, int] = {}
    low: dict[int, int] = {}
    out: set[tuple[int, int]] = set()
    for root in adj:
        if root in disc:
            continue
        disc[root] = low[root] = len(disc)
        stack = [(root, None, iter(adj[root]))]
        while stack:
            x, parent, todo = stack[-1]
            for y in todo:
                if y == parent:
                    continue
                if y in disc:
                    low[x] = min(low[x], disc[y])
                else:
                    disc[y] = low[y] = len(disc)
                    stack.append((y, x, iter(adj[y])))
                    break
            else:
                stack.pop()
                if parent is not None:
                    low[parent] = min(low[parent], low[x])
                    if low[x] > disc[parent]:
                        out.add((min(x, parent), max(x, parent)))
    return out


def decompositions_isomorphic(a: Decomposition, b: Decomposition) -> bool:
    """Isomorphism of block systems fixing every original vertex pointwise.

    Original vertices pin down every marker, so no search is needed: each
    side names its markers from its split tree (`_renamed_blocks`), and the
    two are isomorphic iff their renamed blocks are the same.  O(size of the
    block systems).  Raises MalformedDecomposition when the blocks of either
    do not form a tree, or when two of its marked edges split off the same
    original vertices.
    """
    return a.origin == b.origin and _renamed_blocks(a) == _renamed_blocks(b)


def _renamed_blocks(d: Decomposition) -> set[tuple[frozenset, frozenset]]:
    """The blocks of d, as vertex and edge sets, with each marker renamed
    after its marked edge.

    Rooted at the block holding vertex 0, a marked edge is named by the
    count and the least id of the original vertices beyond it, with "down"
    for its marker in the nearer block and "up" for the one in the farther
    block.  An isomorphism that fixes the original vertices keeps the root
    and every edge's far side, so it keeps these names.
    """
    tree = split_tree(d)
    # breadth-first from the root: of two adjacent blocks, the nearer comes first
    root = next(blk.id for blk in d.blocks if 0 in blk.vertices)
    rank = {x: i for i, x in enumerate(reach(tree.adj, root, set()))}
    count = {blk.id: len(blk.own_vertices) for blk in d.blocks}
    least = {blk.id: min(blk.own_vertices, default=d.origin.n) for blk in d.blocks}
    pairs = [sorted(pair, key=lambda m: rank[d.home_of(m)]) for pair in d.marker_pairs]
    name: dict[int, tuple[int, int, str]] = {}
    # farthest first, so that a block's count and least id are whole before
    # the edge above it is named
    for near, far in sorted(pairs, key=lambda pair: rank[d.home_of(pair[1])], reverse=True):
        u, v = d.home_of(near), d.home_of(far)
        name[near], name[far] = (count[v], least[v], "down"), (count[v], least[v], "up")
        count[u] += count[v]
        least[u] = min(least[u], least[v])
    if len(set(name.values())) < len(name):
        raise MalformedDecomposition("two marked edges split off the same original vertices")
    return {
        (
            frozenset([name.get(x, x) for x in blk.vertices]),
            frozenset([frozenset((name.get(x, x), name.get(y, y))) for x, y in blk.edges]),
        )
        for blk in d.blocks
    }


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


_BRANCHING_TRIES = 64


def random_branching_dh_graph(n: int, seed: int) -> Graph:
    """Seeded connected DH graph whose split tree has a node of degree >= 3."""
    for attempt in range(_BRANCHING_TRIES):
        g = random_dh_graph(n, seed * _BRANCHING_TRIES + attempt)
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
