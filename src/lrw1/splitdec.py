"""Split decompositions of connected graphs.

A decomposition is a system of blocks: small graphs over a mixed vertex set
(original vertices have ids >= 0, markers have ids < 0) where partnered
markers pair blocks up.  Contracting a marker pair joins the solid
neighbourhoods of the two markers and removes them; contracting everything
recovers the original graph.

A decomposition is canonical when every block is a clique (>= 3 vertices), a
star (>= 3 vertices) or prime, no two clique blocks are adjacent, and two
adjacent star blocks point consistently (the marker pair is centre/centre or
leaf/leaf).  Every connected graph has exactly one canonical decomposition up
to marker renaming, which is what makes the incremental construction below
valid: after each insertion a single local repair restores the canonical
conditions, and uniqueness does the rest.

Representation and cost.  A prime block lists its solid edges.  A clique or
star block may instead be given by its kind, centre and vertices alone, and
`Block.edges` and `Block.adj` then list its edges only when read.  The
distance-hereditary build (`canonical_decomposition_dh`) makes only such
blocks: a DH graph is totally decomposable, so apart from a seed of at most
two vertices every block is a clique or a star.  It keeps one record per
block (kind, centre, member set), so an insertion is O(1) amortised and the
whole build, its checks included, takes O(n log n) time and O(n) memory,
independent of the number of edges.  That holds for a sequence that
`pruning_sequence` built on the same graph object, which it checked step by
step as it went; any other sequence is first checked by `replay_pruning`, in
O(n + m).  The adjacency-set `DecompositionBuilder` serves `refine` and the
brute-force oracles, where blocks can be prime.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from collections.abc import Collection, Iterable, Iterator, Mapping

from .dh import PruningSequence, replay_pruning
from .errors import (
    InvalidVertex,
    MalformedDecomposition,
    NotAPath,
    NotASplit,
    NotATreeEdge,
    NotDH,
)
from .gf2 import cut_rows, cutrank_of_cut, rank_of_rows
from .graph import Graph


# -- splits ------------------------------------------------------------------


def is_split(graph: Graph, side: Iterable[int]) -> bool:
    """True iff {side, rest} has both sides of size >= 2 and cut rank 1."""
    side_set = set(side)
    for v in side_set:
        if not 0 <= v < graph.n:
            raise InvalidVertex(f"vertex {v} not in graph of order {graph.n}")
    if len(side_set) < 2 or graph.n - len(side_set) < 2:
        return False
    return cutrank_of_cut(graph, side_set) == 1


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
        rest = [v for v in vs if v not in side]
        if len(side) < 2 or len(rest) < 2:
            continue
        if rank_of_rows(cut_rows(adj, side, rest)) == 1:
            yield frozenset(side)


def _classify_adj(adj: Mapping[int, Collection[int]]) -> tuple[str, int | None]:
    """Kind of a block graph: clique / star (with centre) / prime."""
    size = len(adj)
    if size < 3:
        return "prime", None
    if all(len(nb) == size - 1 for nb in adj.values()):
        return "clique", None
    centre = None
    for v, nb in adj.items():
        if len(nb) == size - 1:
            centre = v
        elif len(nb) != 1:
            return "prime", None
    if centre is None:
        return "prime", None
    return "star", centre


def canonical_violation(k1: str, c1: int | None, m1: int, k2: str, c2: int | None, m2: int) -> str | None:
    """The canonical condition that the marked edge m1-m2 breaks, if any;
    k and c are the kind and centre of the block holding each marker."""
    if k1 == "clique" and k2 == "clique":
        return "adjacent-cliques"
    if k1 == "star" and k2 == "star" and (c1 == m1) != (c2 == m2):
        return "star-orientation"
    return None


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


# -- decomposition data ------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Block:
    """One block: a small graph over original vertices and markers.

    `vertices` is sorted.  The solid edges of a clique or star follow from
    its kind, centre and vertices, so such a block may be given with
    `listed_edges` None: `edges` and `adj` then derive them on first use.
    A prime block lists its edges.  Two blocks are equal when their ids,
    vertices, kinds, centres and edges are.
    """

    id: int
    vertices: tuple[int, ...]
    listed_edges: tuple[tuple[int, int], ...] | None  # None: implied by kind and centre
    kind: str  # "clique" | "star" | "prime"
    centre: int | None  # star centre vertex (marker if negative)

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Solid edges inside the block."""
        if self.listed_edges is not None:
            return self.listed_edges
        vs = self.vertices
        if self.kind == "clique":
            return tuple(list(itertools.combinations(vs, 2)))
        c = self.centre  # a star: every other vertex is a leaf on c
        return tuple([(x, c) for x in vs if x < c] + [(c, x) for x in vs if x > c])

    @cached_property
    def adj(self) -> dict[int, frozenset[int]]:
        nbs: dict[int, set[int]] = {v: set() for v in self.vertices}
        for u, v in self.edges:
            nbs[u].add(v)
            nbs[v].add(u)
        return {v: frozenset(s) for v, s in nbs.items()}

    @property
    def own_vertices(self) -> tuple[int, ...]:
        return tuple([v for v in self.vertices if v >= 0])

    @property
    def marker_ids(self) -> tuple[int, ...]:
        return tuple([v for v in self.vertices if v < 0])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Block):
            return NotImplemented
        if (self.id, self.vertices, self.kind, self.centre) != (other.id, other.vertices, other.kind, other.centre):
            return False
        # two implied edge sets with the same kind, centre and vertices agree
        both_implied = self.listed_edges is None and other.listed_edges is None
        return both_implied or self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.id, self.vertices, self.kind, self.centre))


@dataclass(frozen=True)
class Marker:
    id: int
    home: int  # block id
    partner: int  # marker id in the neighbouring block


@dataclass(frozen=True)
class Decomposition:
    blocks: tuple[Block, ...]
    markers: tuple[Marker, ...]
    origin: Graph

    @cached_property
    def _block_by_id(self) -> dict[int, Block]:
        return {b.id: b for b in self.blocks}

    @cached_property
    def _marker_by_id(self) -> dict[int, Marker]:
        return {m.id: m for m in self.markers}

    def block(self, bid: int) -> Block:
        return self._block_by_id[bid]

    def partner_of(self, mid: int) -> int:
        return self._marker_by_id[mid].partner

    def home_of(self, mid: int) -> int:
        return self._marker_by_id[mid].home

    @cached_property
    def block_of_real(self) -> dict[int, int]:
        out = {}
        for b in self.blocks:
            for v in b.own_vertices:
                out[v] = b.id
        return out

    @cached_property
    def marker_pairs(self) -> tuple[tuple[int, int], ...]:
        pairs = {tuple(sorted((m.id, m.partner))) for m in self.markers}
        return tuple(sorted(pairs))


# -- builder -----------------------------------------------------------------


class DecompositionBuilder:
    """Mutable block system on explicit adjacency sets, for blocks that may
    be prime (`refine`, the oracle's top-down decomposition and its
    reference DH build); freeze() turns it into a Decomposition."""

    def __init__(self):
        self.badj: dict[int, dict[int, set[int]]] = {}
        self.partner: dict[int, int] = {}
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
        self.partner[a] = b
        self.partner[b] = a

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
        del self.partner[h1]
        del self.partner[h2]
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
        if len(side_set) < 2 or len(rest) < 2 or rank_of_rows(cut_rows(adj, side_set, rest)) != 1:
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
        blocks = []
        for bid in sorted(self.badj):
            adj = self.badj[bid]
            kind, centre = _classify_adj(adj)
            edges = sorted((u, v) for u in adj for v in adj[u] if u < v)  # adj is symmetric
            blocks.append(Block(bid, tuple(sorted(adj)), tuple(edges), kind, centre))
        return _decomposition(blocks, self.mhome, self.partner, self.vhome, origin)


def _decomposition(
    blocks: list[Block],
    mhome: Mapping[int, int],
    partner: Mapping[int, int],
    reals: Collection[int],
    origin: Graph,
) -> Decomposition:
    """The Decomposition of a finished block system, after its structural
    checks: every marker is partnered into another block, and the blocks
    hold each original vertex of origin once (reals lists them)."""
    markers = []
    for m in sorted(mhome, reverse=True):
        if m not in partner:
            raise MalformedDecomposition(f"marker {m} has no partner")
        markers.append(Marker(m, mhome[m], partner[m]))
    for m in markers:
        if mhome[m.partner] == m.home:
            raise MalformedDecomposition("partnered markers share a block")
    if sorted(reals) != list(range(origin.n)):
        raise MalformedDecomposition("blocks do not partition the original vertices")
    return Decomposition(tuple(blocks), tuple(markers), origin)


# -- refinement and recomposition (graph-level API) ---------------------------


def refine(graph: Graph, side: Iterable[int]) -> tuple[Block, Block]:
    """Split a block graph along a split of its vertex set.

    Returns the two sides as blocks carrying fresh partnered markers -1 (on
    the side) and -2 (on the rest); each marker is adjacent to exactly the
    vertices with neighbours across the split.
    """
    side_set = set(side)
    if not is_split(graph, side_set):  # raises InvalidVertex on a foreign vertex
        raise NotASplit(f"{sorted(side_set)} is not a split")
    builder = DecompositionBuilder()
    bid = builder.add_block({v: set(graph.adj[v]) for v in range(graph.n)})
    builder.refine_block(bid, side_set)
    frozen = builder.freeze(graph)
    bx = next(b for b in frozen.blocks if -1 in b.vertices)
    by = next(b for b in frozen.blocks if -2 in b.vertices)
    return bx, by


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
    return Graph(decomposition.origin.n, edges, labels=decomposition.origin.labels)


# -- canonical decomposition of distance-hereditary graphs --------------------


@dataclass(slots=True)
class _Cell:
    """A block of the DH build: its id, kind, centre and members, plus the
    edges of a prime seed.  Every member's home is the cell itself, so a
    merge that gives the block a fresh id updates no member."""

    id: int
    kind: str
    centre: int | None
    members: set[int]
    edges: tuple[tuple[int, int], ...] | None = None


def canonical_decomposition_dh(graph: Graph, seq: PruningSequence | None) -> Decomposition:
    """Canonical decomposition of a connected distance-hereditary graph.

    Built by replaying the pruning sequence backwards.  Graphs on up to
    three vertices are a single block by definition (splits need two vertices
    on both sides), so the last vertex and the first two re-inserted ones
    form the seed block.  It is read off the graph: every step has been
    checked against the graph, so the graph that re-insertion builds on the
    vertices placed so far is the subgraph they induce.  A sequence that
    `pruning_sequence` returned for this very graph object (`seq.graph is
    graph`) was checked as it was built; any other one, hand-built, altered
    or proved on another graph, even an equal one, is checked by
    `replay_pruning` first and raises `InvalidSequence` if a step is wrong.

    Every block is a clique or a star, kept as its kind, centre and member
    set; only a seed of at most two vertices is prime and lists its edges.
    Re-inserting w, a pendant or twin of v, replaces v in its block by a
    marker h_old paired with the marker h_new of a fresh 3-block
    {v, w, h_new}.  The one canonical condition that can break is across
    that marked edge, and contracting it merges the 3-block back under a
    fresh block id: v returns in place of h_old and w joins beside it, a
    clique stays a clique and a star keeps its centre, so no repair can
    cascade.  So an insertion is O(1) amortised, builds no edge and updates
    no member's home, and the build and its checks take O(n log n) time and
    O(n) memory, however many edges the graph has; a replay adds O(n + m).
    """
    if seq is None:
        raise NotDH("graph is not distance hereditary")
    if seq.graph is not graph:
        replay_pruning(graph, seq)
    steps = seq.steps[::-1]
    first = {seq.last} | {step.removed for step in steps[:2]}
    seed = {x: graph.adj[x] & first for x in first}
    cell = _Cell(0, *_classify_adj(seed), set(first))
    if cell.kind == "prime":
        cell.edges = tuple([(u, v) for u in sorted(first) for v in sorted(seed[u]) if u < v])
    cells = [cell]
    home = dict.fromkeys(first, cell)  # original vertex -> its cell
    mhome: dict[int, _Cell] = {}
    partner: dict[int, int] = {}
    next_block, next_marker = 1, -1
    for step in steps[2:]:
        w, v = step.removed, step.anchor
        cell = home[v]
        h_old, h_new = next_marker, next_marker - 1
        next_marker -= 2
        # the 3-block {v, w, h_new}: a star centred at v for a pendant, a
        # triangle for a true twin, a star centred at h_new for a false twin
        if step.kind == "pendant":
            kind, centre = "star", v
        elif step.kind == "true_twin":
            kind, centre = "clique", None
        else:  # a checked sequence has no other kind
            kind, centre = "star", h_new
        old_centre = h_old if cell.centre == v else cell.centre  # after markerizing v
        if canonical_violation(kind, centre, h_new, cell.kind, old_centre, h_old):
            # merge: the 3-block took id next_block and the merged block takes
            # the next; its centre, the one that is not a marker of the pair,
            # is the block's centre before v was markerized
            cell.id = next_block + 1
            next_block += 2
            cell.members.add(w)
            home[w] = cell
            continue
        cell.members.remove(v)
        cell.members.add(h_old)
        cell.centre = old_centre
        new = _Cell(next_block, kind, centre, {v, w, h_new})
        next_block += 1
        cells.append(new)
        home[v] = home[w] = new
        mhome[h_old] = cell
        mhome[h_new] = new
        partner[h_old] = h_new
        partner[h_new] = h_old
    cells.sort(key=lambda c: c.id)
    blocks = [Block(c.id, tuple(sorted(c.members)), c.edges, c.kind, c.centre) for c in cells]
    marker_home = {m: c.id for m, c in mhome.items()}
    return _decomposition(blocks, marker_home, partner, home, graph)


# -- split tree ----------------------------------------------------------------


@dataclass(frozen=True)
class TreeNode:
    id: int  # equals the block id
    kind: str
    centre: int | None
    own_vertices: tuple[int, ...]  # original vertices living in the block


@dataclass(frozen=True)
class SplitTree:
    nodes: tuple[TreeNode, ...]
    edges: tuple[tuple[int, int], ...]

    @cached_property
    def _by_id(self) -> dict[int, TreeNode]:
        return {n.id: n for n in self.nodes}

    @cached_property
    def _adj(self) -> dict[int, tuple[int, ...]]:
        nbs: dict[int, list[int]] = {n.id: [] for n in self.nodes}
        for u, v in self.edges:
            nbs[u].append(v)
            nbs[v].append(u)
        return {k: tuple(sorted(v)) for k, v in nbs.items()}

    def node(self, nid: int) -> TreeNode:
        return self._by_id[nid]

    def neighbours(self, nid: int) -> tuple[int, ...]:
        return self._adj[nid]

    def degree(self, nid: int) -> int:
        return len(self._adj[nid])

    def is_path(self) -> bool:
        return all(len(nb) <= 2 for nb in self._adj.values())


def split_tree(decomposition: Decomposition) -> SplitTree:
    """Contract the solid edges: one node per block, one edge per marker pair."""
    nodes = tuple([
        TreeNode(b.id, b.kind, b.centre, b.own_vertices) for b in decomposition.blocks
    ])
    edges = tuple(
        sorted(
            tuple(sorted((decomposition.home_of(a), decomposition.home_of(b))))
            for a, b in decomposition.marker_pairs
        )
    )
    if len(edges) != len(nodes) - 1:
        raise MalformedDecomposition("marker pairs do not form a tree")
    tree = SplitTree(nodes, edges)
    if nodes and len(_reach(tree, nodes[0].id, set())) != len(nodes):
        raise MalformedDecomposition("block adjacency is not connected")
    return tree


def side_vertices(tree: SplitTree, u: int, v: int) -> tuple[int, ...]:
    """Original vertices in the subtree on u's side of the tree edge uv."""
    if v not in tree._adj.get(u, ()):
        raise NotATreeEdge(f"({u},{v}) is not a tree edge")
    return tuple(sorted(x for nid in _reach(tree, u, {v}) for x in tree.node(nid).own_vertices))


def _reach(tree: SplitTree, start: int, blocked: set[int]) -> list[int]:
    """The nodes reachable from start without entering blocked (which grows)."""
    blocked.add(start)
    out = [start]
    for x in out:
        for y in tree.neighbours(x):
            if y not in blocked:
                blocked.add(y)
                out.append(y)
    return out


# -- canonicity validation -----------------------------------------------------


_PRIME_CHECK_LIMIT = 16


def validate_canonical(decomposition: Decomposition) -> list[tuple]:
    """Structured violations of the canonical-decomposition conditions.

    Empty iff every block is a clique (>= 3), star (>= 3) or prime, no two
    clique blocks are adjacent, adjacent star blocks are oriented
    consistently, every marked edge is an isthmus of the block system, and
    recomposition returns exactly the original graph.
    """
    issues: list[tuple] = []
    d = decomposition
    by_id = {m.id: m for m in d.markers}
    for m in d.markers:
        p = by_id.get(m.partner)
        if p is None or p.partner != m.id:
            issues.append(("malformed", f"marker {m.id} pairing is not an involution"))
            return issues
        if p.home == m.home:
            issues.append(("malformed", f"markers {m.id},{p.id} share a block"))
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


# -- comparison and export -----------------------------------------------------


def decompositions_isomorphic(a: Decomposition, b: Decomposition) -> bool:
    """Isomorphism of block systems fixing every original vertex pointwise.

    Original vertices anchor their blocks, so only markers need matching; a
    backtracking search maps markers preserving solid adjacency, marker
    partnering and block membership.
    """
    if a.origin != b.origin:
        return False
    if len(a.blocks) != len(b.blocks) or len(a.markers) != len(b.markers):
        return False
    bmap: dict[int, int] = {}
    for x in range(a.origin.n):
        ba, bb = a.block_of_real[x], b.block_of_real[x]
        if bmap.setdefault(ba, bb) != bb:
            return False
    for ba, bb in bmap.items():
        if a.block(ba).own_vertices != b.block(bb).own_vertices:
            return False
    sadj_a = {blk.id: blk.adj for blk in a.blocks}
    sadj_b = {blk.id: blk.adj for blk in b.blocks}

    def marker_sig(d: Decomposition, sadj, mid: int) -> tuple:
        blk = d.block(d.home_of(mid))
        nb = sadj[blk.id][mid]
        reals = frozenset(x for x in nb if x >= 0)
        return (
            reals,
            sum(1 for x in nb if x < 0),
            blk.kind,
            len(blk.vertices),
            blk.centre == mid,
        )

    ms_a = [m.id for m in a.markers]
    # the markers of b with each signature, in the order of b's marker list
    by_sig: dict[tuple, list[int]] = {}
    for m in b.markers:
        by_sig.setdefault(marker_sig(b, sadj_b, m.id), []).append(m.id)
    mmap: dict[int, int] = {}
    imap: dict[int, int] = {}

    def consistent(m: int, t: int) -> bool:
        ha, hb = a.home_of(m), b.home_of(t)
        if bmap.get(ha, hb) != hb:
            return False
        pa = a.partner_of(m)
        pb = b.partner_of(t)
        if pa in mmap and mmap[pa] != pb:
            return False
        if pb in imap and imap[pb] != pa:
            return False
        nb_a = sadj_a[ha][m]
        nb_b = sadj_b[hb][t]
        for x in nb_a:
            if x >= 0:
                if x not in nb_b:
                    return False
            elif x in mmap and mmap[x] not in nb_b:
                return False
        for y in nb_b:
            if y >= 0:
                if y not in nb_a:
                    return False
            elif y in imap and imap[y] not in nb_a:
                return False
        return True

    # frames[i]: the index, among the markers of b with ms_a[i]'s signature,
    # of the target that ms_a[i] holds, and whether ms_a[i]'s block was mapped
    # before it; a depth-first search in the order of b's markers, kept on
    # this list so that long decompositions do not exhaust the interpreter's
    # recursion limit
    cands = [by_sig.get(marker_sig(a, sadj_a, m), []) for m in ms_a]
    frames: list[tuple[int, bool]] = []
    start = 0
    while len(frames) < len(ms_a):
        m = ms_a[len(frames)]
        ha = a.home_of(m)
        targets = cands[len(frames)]
        for j in range(start, len(targets)):
            t = targets[j]
            if t in imap or not consistent(m, t):
                continue
            had_block = ha in bmap
            mmap[m] = t
            imap[t] = m
            if not had_block:
                bmap[ha] = b.home_of(t)
            frames.append((j, had_block))
            start = 0
            break
        else:
            # no target left for m: withdraw the previous marker's and try its next
            if not frames:
                return False
            start, had_block = frames.pop()
            start += 1
            m = ms_a[len(frames)]
            del imap[mmap.pop(m)]
            if not had_block:
                del bmap[a.home_of(m)]
    return True


def decomposition_to_dot(decomposition: Decomposition) -> str:
    """DOT rendering of the block system: solid block edges, dashed marked edges."""
    d = decomposition
    lines = ["graph block_system {"]
    for blk in d.blocks:
        for v in blk.vertices:
            if v >= 0:
                lines.append(f'  v{v} [label="{d.origin.labels[v]}"];')
            else:
                lines.append(f"  m{-v} [shape=point];")
    for blk in d.blocks:
        for u, v in blk.edges:
            lines.append(f"  {_dot_name(u)} -- {_dot_name(v)};")
    for m1, m2 in d.marker_pairs:
        lines.append(f"  {_dot_name(m1)} -- {_dot_name(m2)} [style=dashed];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _dot_name(v: int) -> str:
    return f"v{v}" if v >= 0 else f"m{-v}"


def split_tree_to_dot(tree: SplitTree) -> str:
    lines = ["graph split_tree {"]
    for node in tree.nodes:
        own = ",".join(str(v) for v in node.own_vertices)
        centre = ""
        if node.kind == "star":
            centre = " centre=" + ("marker" if (node.centre or 0) < 0 else str(node.centre))
        lines.append(f'  n{node.id} [label="{node.kind}{centre}\\n{{{own}}}"];')
    for u, v in tree.edges:
        lines.append(f"  n{u} -- n{v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
