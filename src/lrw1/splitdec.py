"""Split decompositions of connected graphs.

A decomposition is a system of blocks: small graphs over a mixed vertex set
(original vertices have ids >= 0, markers have ids < 0) whose markers are
paired across blocks.  Each marked edge is kept once, as a pair of marker
ids with the lower first; a marker's home is the block that holds it.
Contracting a marker pair joins the solid neighbourhoods of the two markers
and removes them; contracting everything recovers the original graph.

A decomposition is canonical when every block is a clique (>= 3 vertices), a
star (>= 3 vertices) or prime, no two clique blocks are adjacent, and two
adjacent star blocks point consistently (the marker pair is centre/centre or
leaf/leaf).  Every connected graph has exactly one canonical decomposition up
to marker renaming, which is what makes the incremental construction below
valid: after each insertion a single local repair restores the canonical
conditions, and uniqueness does the rest.

Representation and cost.  A prime block lists its solid edges.  A clique or
star block is given by its kind, centre and vertices alone, which fix its
edges, and `Block.edges` and `Block.adj` list them only when read.  The
distance-hereditary build (`canonical_decomposition_dh`) makes only such
blocks: a DH graph is totally decomposable, so apart from a seed of at most
two vertices every block is a clique or a star.  It keeps one record per
block (kind, centre, member set), so an insertion is O(1) amortised and the
whole build, its checks included, takes O(n log n) time and O(n) memory,
independent of the number of edges.  That holds for a sequence that
`pruning_sequence` built on the same graph object, which it checked step by
step as it went; any other sequence is first checked by `replay_pruning`, in
O(n + m).

This module holds only what recognition and `decompose` run: the blocks, the
DH build, the split tree and the DOT export.  Checking a decomposition
(canonicity, recomposition, comparison, splits of a block) and the
adjacency-set builder for blocks that may be prime are brute-force
references, and live in `oracle`.
"""

from __future__ import annotations

import itertools
from collections.abc import Collection, Mapping
from dataclasses import dataclass
from functools import cached_property

from .dh import PruningSequence, replay_pruning
from .errors import MalformedDecomposition, NotATreeEdge, NotDH
from .graph import Graph, reach


# -- block kinds -------------------------------------------------------------


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


# -- decomposition data ------------------------------------------------------


@dataclass(frozen=True)
class Block:
    """One block: a small graph over original vertices and markers.

    `vertices` is sorted.  A prime block lists its solid edges in
    `listed_edges`; a clique or star leaves it None, as its edges follow
    from its kind, centre and vertices, and `edges` and `adj` derive them on
    first use.  Equality and hashing are by the five fields.
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


@dataclass(frozen=True)
class Decomposition:
    """The blocks, each marked edge once as a (lower id, higher id) pair,
    and the graph they decompose."""

    blocks: tuple[Block, ...]
    marker_pairs: tuple[tuple[int, int], ...]
    origin: Graph

    @cached_property
    def _block_by_id(self) -> dict[int, Block]:
        return {b.id: b for b in self.blocks}

    @cached_property
    def _home(self) -> dict[int, int]:
        return {m: b.id for b in self.blocks for m in b.marker_ids}

    def block(self, bid: int) -> Block:
        return self._block_by_id[bid]

    def home_of(self, mid: int) -> int:
        """The id of the block that holds the marker."""
        return self._home[mid]

    def partner_of(self, mid: int) -> int:
        """The marker paired with mid, read off its pair in O(number of pairs)."""
        for a, b in self.marker_pairs:
            if mid in (a, b):
                return a + b - mid
        raise KeyError(mid)


def _pairing_fault(d: Decomposition) -> str | None:
    """Why the pairs of d do not pair up the markers of its blocks, or None:
    each marker that a block holds must be paired exactly once, with a marker
    of another block."""
    home = d._home
    paired: set[int] = set()
    for a, b in d.marker_pairs:
        for m in (a, b):
            if m not in home:
                return f"marker {m} is in no block"
            if m in paired:
                return f"marker {m} is in two pairs"
            paired.add(m)
        if home[a] == home[b]:
            return f"paired markers {a},{b} share a block"
    unpaired = home.keys() - paired
    if unpaired:
        return f"marker {max(unpaired)} has no partner"
    return None


def _decomposition(blocks: list[Block], pairs: list[tuple[int, int]], origin: Graph) -> Decomposition:
    """The Decomposition of a finished block system, after its structural
    checks: `_pairing_fault` finds none, and the blocks hold each original
    vertex of origin once."""
    d = Decomposition(tuple(blocks), tuple(pairs), origin)
    fault = _pairing_fault(d)
    if fault is not None:
        raise MalformedDecomposition(fault)
    if sorted([v for b in blocks for v in b.own_vertices]) != list(range(origin.n)):
        raise MalformedDecomposition("blocks do not partition the original vertices")
    return d


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
    pairs = []
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
        pairs.append((h_new, h_old))
    cells.sort(key=lambda c: c.id)
    blocks = [Block(c.id, tuple(sorted(c.members)), c.edges, c.kind, c.centre) for c in cells]
    pairs.reverse()  # marker ids fall as the build goes on
    return _decomposition(blocks, pairs, graph)


# -- split tree ----------------------------------------------------------------


@dataclass(frozen=True)
class SplitTree:
    """The block system with each block contracted to one node.  The tree
    keeps its decomposition: `nodes` is its `blocks` tuple, and a node's id
    is its block's."""

    decomposition: Decomposition
    edges: tuple[tuple[int, int], ...]

    @property
    def nodes(self) -> tuple[Block, ...]:
        return self.decomposition.blocks

    @cached_property
    def adj(self) -> dict[int, tuple[int, ...]]:
        """Each node's neighbours, sorted."""
        nbs: dict[int, list[int]] = {n.id: [] for n in self.nodes}
        for u, v in self.edges:
            nbs[u].append(v)
            nbs[v].append(u)
        return {k: tuple(sorted(v)) for k, v in nbs.items()}

    def node(self, nid: int) -> Block:
        return self.decomposition.block(nid)

    def neighbours(self, nid: int) -> tuple[int, ...]:
        return self.adj[nid]

    def degree(self, nid: int) -> int:
        return len(self.adj[nid])

    def is_path(self) -> bool:
        return all(len(nb) <= 2 for nb in self.adj.values())


def split_tree(decomposition: Decomposition) -> SplitTree:
    """Contract the solid edges: one node per block, one edge per marker pair."""
    blocks = decomposition.blocks
    home = decomposition.home_of
    try:
        edges = tuple(sorted(tuple(sorted((home(a), home(b)))) for a, b in decomposition.marker_pairs))
    except KeyError as exc:
        raise MalformedDecomposition(f"marker {exc.args[0]} is in no block") from None
    if len(edges) != len(blocks) - 1:
        raise MalformedDecomposition("marker pairs do not form a tree")
    tree = SplitTree(decomposition, edges)
    if blocks and len(reach(tree.adj, blocks[0].id, set())) != len(blocks):
        raise MalformedDecomposition("block adjacency is not connected")
    return tree


def side_vertices(tree: SplitTree, u: int, v: int) -> tuple[int, ...]:
    """Original vertices in the subtree on u's side of the tree edge uv."""
    if v not in tree.adj.get(u, ()):
        raise NotATreeEdge(f"({u},{v}) is not a tree edge")
    return tuple(sorted(x for nid in reach(tree.adj, u, {v}) for x in tree.node(nid).own_vertices))


# -- export --------------------------------------------------------------------


def decomposition_to_dot(decomposition: Decomposition) -> str:
    """DOT rendering of the block system: solid block edges, dashed marked edges."""
    d = decomposition
    lines = ["graph block_system {"]
    for blk in d.blocks:
        for v in blk.vertices:
            if v >= 0:
                lines.append(f'  v{v} [label="{v}"];')
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
