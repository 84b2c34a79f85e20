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
O(n + m).

This module holds only what recognition and `decompose` run: the blocks, the
DH build, the split tree and the DOT export.  Checking a decomposition
(canonicity, recomposition, comparison, splits of a block) and the
adjacency-set builder for blocks that may be prime are brute-force
references, and live in `oracle`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from collections.abc import Collection, Mapping

from .dh import PruningSequence, replay_pruning
from .errors import MalformedDecomposition, NotATreeEdge, NotDH
from .graph import Graph


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
    def marker_pairs(self) -> tuple[tuple[int, int], ...]:
        pairs = {tuple(sorted((m.id, m.partner))) for m in self.markers}
        return tuple(sorted(pairs))


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
class SplitTree:
    """The block system with each block contracted to one node: `nodes` is
    the decomposition's own `blocks` tuple, and a node's id is its block's."""

    nodes: tuple[Block, ...]
    edges: tuple[tuple[int, int], ...]

    @cached_property
    def _by_id(self) -> dict[int, Block]:
        return {n.id: n for n in self.nodes}

    @cached_property
    def _adj(self) -> dict[int, tuple[int, ...]]:
        nbs: dict[int, list[int]] = {n.id: [] for n in self.nodes}
        for u, v in self.edges:
            nbs[u].append(v)
            nbs[v].append(u)
        return {k: tuple(sorted(v)) for k, v in nbs.items()}

    def node(self, nid: int) -> Block:
        return self._by_id[nid]

    def neighbours(self, nid: int) -> tuple[int, ...]:
        return self._adj[nid]

    def degree(self, nid: int) -> int:
        return len(self._adj[nid])

    def is_path(self) -> bool:
        return all(len(nb) <= 2 for nb in self._adj.values())


def split_tree(decomposition: Decomposition) -> SplitTree:
    """Contract the solid edges: one node per block, one edge per marker pair."""
    blocks = decomposition.blocks
    edges = tuple(
        sorted(
            tuple(sorted((decomposition.home_of(a), decomposition.home_of(b))))
            for a, b in decomposition.marker_pairs
        )
    )
    if len(edges) != len(blocks) - 1:
        raise MalformedDecomposition("marker pairs do not form a tree")
    tree = SplitTree(blocks, edges)
    if blocks and len(_reach(tree, blocks[0].id, set())) != len(blocks):
        raise MalformedDecomposition("block adjacency is not connected")
    return tree


def side_vertices(tree: SplitTree, u: int, v: int) -> tuple[int, ...]:
    """Original vertices in the subtree on u's side of the tree edge uv."""
    if v not in tree._adj.get(u, ()):
        raise NotATreeEdge(f"({u},{v}) is not a tree edge")
    return tuple(sorted(x for nid in _reach(tree, u, {v}) for x in tree.node(nid).own_vertices))


def _reach(tree: SplitTree, start: int, blocked: set[int]) -> list[int]:
    """The nodes reachable from start without entering blocked (which grows),
    in breadth-first order: on a path walked from one end, the path order."""
    blocked.add(start)
    out = [start]
    for x in out:
        for y in tree.neighbours(x):
            if y not in blocked:
                blocked.add(y)
                out.append(y)
    return out


# -- export --------------------------------------------------------------------


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
