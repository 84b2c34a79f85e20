"""Recognition of linear rank-width at most 1, always with a certificate.

A connected graph has linear rank-width 1 exactly when it is distance
hereditary and its split tree is a path.  The accepting certificate is a
vertex ordering whose prefix cuts all have GF(2) rank at most 1; the
rejecting certificate is a minimal induced obstruction: one of the classical
non-distance-hereditary graphs (house, gem, domino, hole) or a
distance-hereditary graph whose split tree is a star with three leaves.
"""

from __future__ import annotations

import bisect
import itertools
from collections.abc import Collection
from typing import NamedTuple

from .dh import minimal_non_dh_family, non_dh_obstruction, pruning_sequence
from .errors import InternalInvariantViolation, NotApplicable, NotAPath, NotAPermutation
from .gf2 import cutrank_of_ordering
from .graph import Graph, connected_components, induced_subgraph, is_isomorphic_small, reach
from .splitdec import SplitTree, canonical_decomposition_dh, side_vertices, split_tree


# -- certificates -----------------------------------------------------------------


class OrderingCertificate(NamedTuple):
    order: tuple[int, ...]


class ObstructionCertificate(NamedTuple):
    vertices: tuple[int, ...]
    family: str  # "house" | "gem" | "domino" | "hole" | "dh_star3"
    catalog_index: int | None = None


Certificate = OrderingCertificate | ObstructionCertificate


class VerificationResult(NamedTuple):
    ok: bool
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def _fail(reason: str) -> VerificationResult:
    return VerificationResult(False, reason)


_OK = VerificationResult(True)


# -- ordering construction -----------------------------------------------------------


def ordering_from_path_tree(tree: SplitTree) -> tuple[int, ...]:
    """Concatenate the blocks of a path-shaped split tree end to end.

    The walk starts at the end block whose least original vertex is
    smallest, and lists each block's original vertices in ascending id.
    Every prefix cut of the result is a split (or trivially small), so its
    cut rank is <= 1.
    """
    if not tree.is_path():
        raise NotAPath("split tree has a node of degree 3 or more")
    ends = [n for n in tree.nodes if tree.degree(n.id) <= 1]
    start = min(ends, key=lambda n: n.own_vertices[0])
    return tuple([v for nid in reach(tree.adj, start.id, set()) for v in tree.node(nid).own_vertices])


# -- dh_star3 obstructions: one hub and leg table ------------------------------------------

# A dh_star3 obstruction's split tree is a hub block with three leaf blocks,
# its legs.  A leg holds two original vertices a < b and the marker towards
# the hub; its frontier is those of a and b that see that marker, which are
# those with a neighbour beyond the leg.  The leg's shape follows from how
# many of a and b are on the frontier and whether they are adjacent:
# a triangle with the marker (K3), a star centred at the marker (Sm), or a
# star centred at the frontier vertex (Sr).  No other pair is a leg.
_LEG_SHAPES = {"K3": (2, True), "Sm": (2, False), "Sr": (1, True)}

# For each hub kind, the shapes each of its three legs admits: a leg that
# would merge with the hub (a K3 on a clique, or two stars joined centre to
# leaf) is left out, so every choice is a canonical star with three leaves.
# A star centred at a marker points to its leg 0.
_HUB_LEGS = {
    "clique": (("Sm", "Sr"),) * 3,
    "marker star": (("K3", "Sm"), ("K3", "Sr"), ("K3", "Sr")),
    "vertex star": (("K3", "Sr"),) * 3,
}

def _star3_graph(hub: str, legs: tuple[str, ...]) -> Graph:
    """The obstruction with this hub kind and these leg shapes.

    Leg i holds vertices 2i < 2i + 1, with 2i on its frontier, and a vertex
    star's centre is vertex 6.  The hub joins the frontiers of two legs
    completely when its markers towards them are adjacent.
    """
    frontiers, edges = [], []
    for i, shape in enumerate(legs):
        count, adjacent = _LEG_SHAPES[shape]
        frontiers.append((2 * i, 2 * i + 1)[:count])
        if adjacent:
            edges.append((2 * i, 2 * i + 1))
    if hub == "vertex star":
        return Graph(7, edges + [(x, 6) for f in frontiers for x in f])
    joined = ((0, 1), (0, 2), (1, 2)) if hub == "clique" else ((0, 1), (0, 2))
    return Graph(6, edges + [(x, y) for i, j in joined for x in frontiers[i] for y in frontiers[j]])


def _build_catalog() -> tuple[tuple[Graph, ...], dict[tuple, int]]:
    """The catalog members, and each member's index keyed by its hub kind and
    the sorted `_LEG_SHAPES` values of its legs.  Under one hub kind the leg
    shapes, in any order, name one member: legs that admit the same shapes
    are swapped freely, and a marker star's leg 0, the one leg whose shapes
    differ, is the only one of its legs that admits Sm."""
    members: list[Graph] = []
    index: dict[tuple, int] = {}
    for hub, admitted in _HUB_LEGS.items():
        runs = [(shapes, len(list(group))) for shapes, group in itertools.groupby(admitted)]
        choices = (itertools.combinations_with_replacement(shapes, k) for shapes, k in runs)
        for parts in itertools.product(*choices):
            legs = sum(parts, ())
            index[hub, tuple(sorted([_LEG_SHAPES[shape] for shape in legs]))] = len(members)
            members.append(_star3_graph(hub, legs))
    return tuple(members), index


_CATALOG, _CATALOG_INDEX = _build_catalog()


def dh_obstruction_catalog() -> tuple[Graph, ...]:
    """Distance-hereditary induced obstructions for linear rank-width 1.

    Every member has a star-with-three-leaves split tree, and the members are
    read off `_HUB_LEGS`: for each hub kind (a triangle of markers, a 3-vertex
    star centred at a marker, or a 4-vertex star centred at an original
    vertex) every choice of admitted leg shapes, up to swapping legs that
    admit the same shapes.  No two members are isomorphic, and the order is
    stable: an obstruction certificate names its member by index.  The
    tuple is built once, at import, and every call returns it.
    """
    return _CATALOG


def _first_pair(
    graph: Graph, side: set[int], frontier: set[int], allowed: tuple[str, ...]
) -> tuple[int, int] | None:
    """The lexicographically first pair a < b in `side` whose leg shape is in
    `allowed`, or None.

    For each a in ascending order, an adjacent b is looked for among a's
    neighbours, and a non-adjacent one (shape Sm) is the first frontier
    vertex above a that a does not see, found by a bisect and at most deg(a)
    skips.  The walk costs O(|side| + edges at the side) beyond the sorts.
    """
    keys = {_LEG_SHAPES[shape] for shape in allowed}
    sorted_frontier = sorted(frontier)
    for a in sorted(side):
        nbs = graph.adj[a]
        a_on = a in frontier
        best = min(
            (b for b in nbs if b > a and b in side and (a_on + (b in frontier), True) in keys),
            default=None,
        )
        if a_on and (2, False) in keys:
            i = bisect.bisect_right(sorted_frontier, a)
            while i < len(sorted_frontier) and sorted_frontier[i] in nbs:
                i += 1
            if i < len(sorted_frontier) and (best is None or sorted_frontier[i] < best):
                best = sorted_frontier[i]
        if best is not None:
            return a, best
    return None


def extract_lrw1_obstruction(tree: SplitTree, node: int) -> ObstructionCertificate:
    """The `dh_star3` certificate of the minimal obstruction around a
    split-tree node of degree >= 3, in the graph that the tree's
    decomposition decomposes.

    The node is the hub.  Two vertices are chosen on each of three sides of
    it (plus the hub centre when it is an original vertex), so the induced
    subgraph has a star-with-three-leaves split tree.  Each side's pair is
    the lexicographically first one whose leg shape the hub admits, as
    `_HUB_LEGS` says, the same table the catalog is built from; finding it
    costs time linear in the side and its edges.  The hub kind and the leg
    shapes chosen name the catalog member, whose index the certificate
    carries, so no isomorphism test is made: the catalog's members are
    proven minimal obstructions, and `verify_certificate` checks the match.
    """
    try:
        degree = tree.degree(node)
    except KeyError:
        raise NotApplicable(f"{node} is not a split-tree node") from None
    if degree < 3:
        raise NotApplicable(f"node {node} has degree {degree}")
    decomposition = tree.decomposition
    graph = decomposition.origin
    hub = tree.node(node)
    nbs = tree.neighbours(node)  # sorted
    chosen: list[int] = []
    shapes: list[tuple[int, bool]] = []
    if hub.kind == "clique":
        kind, legs = "clique", nbs[:3]
    elif hub.kind == "star" and hub.centre is not None and hub.centre < 0:
        v1 = decomposition.home_of(decomposition.partner_of(hub.centre))
        kind, legs = "marker star", [v1, *[x for x in nbs if x != v1][:2]]
    elif hub.kind == "star":
        kind, legs = "vertex star", nbs[:3]
        chosen.append(hub.centre)
    else:
        raise InternalInvariantViolation("hub block of a DH graph is neither clique nor star")
    for leg, allowed in zip(legs, _HUB_LEGS[kind]):
        side = set(side_vertices(tree, leg, node))
        frontier = {x for x in side if graph.adj[x] - side}
        pair = _first_pair(graph, side, frontier, allowed)
        if pair is None:
            raise InternalInvariantViolation(f"no admissible pair on side of node {leg}")
        a, b = pair
        chosen.extend(pair)
        shapes.append(((a in frontier) + (b in frontier), b in graph.adj[a]))
    vs = tuple(sorted(chosen))
    if len(set(vs)) != len(vs):
        raise InternalInvariantViolation("sides of the hub node were not disjoint")
    return ObstructionCertificate(vs, "dh_star3", _CATALOG_INDEX[kind, tuple(sorted(shapes))])


# -- recognition ------------------------------------------------------------------------


def recognize(graph: Graph) -> Certificate:
    """Decide linear rank-width <= 1 and return a certificate either way.

    Components are processed independently in order of smallest vertex and
    their orderings concatenated; an obstruction inside any component is an
    obstruction for the whole graph.
    """
    parts: list[int] = []
    for comp in connected_components(graph):
        if len(comp) <= 2:
            parts.extend(comp)
            continue
        result = _recognize_connected(induced_subgraph(graph, comp))
        if isinstance(result, ObstructionCertificate):
            vs = tuple([comp[i] for i in result.vertices])
            return ObstructionCertificate(vs, result.family, result.catalog_index)
        parts.extend(comp[i] for i in result)
    return OrderingCertificate(tuple(parts))


def _recognize_connected(graph: Graph):
    residue: list[int] = []
    seq = pruning_sequence(graph, residue)
    if seq is None:
        return non_dh_certificate(graph, pruning_residue=residue)
    tree = split_tree(canonical_decomposition_dh(graph, seq))
    if tree.is_path():
        return ordering_from_path_tree(tree)
    node = min(n.id for n in tree.nodes if tree.degree(n.id) >= 3)
    return extract_lrw1_obstruction(tree, node)


def non_dh_certificate(graph: Graph, *, pruning_residue: Collection[int] | None = None) -> ObstructionCertificate:
    """The minimal obstruction of a graph known not to be distance hereditary.

    `pruning_residue`, the live vertices of a failed `pruning_sequence` of
    this very graph and no other set (see `non_dh_obstruction`), spares the
    search a second pruning of the graph's 2-core, and the search hands back
    the family it classified its answer as.
    """
    found: list[str | None] = []
    vs = non_dh_obstruction(graph, pruning_residue=pruning_residue, family=found)
    if found[0] is None:
        raise InternalInvariantViolation("minimal non-DH subgraph is not house/gem/domino/hole")
    return ObstructionCertificate(vs, found[0])


# -- certificate verification --------------------------------------------------------------


def verify_certificate(graph: Graph, certificate: Certificate) -> VerificationResult:
    """Check of a certificate: the cut ranks of an ordering, the shape of an
    obstruction.

    An ordering is scored by the GF(2) rank of each prefix cut, on one row
    basis updated as the ordering advances, in O(n + m) when its width is at
    most 1.  An obstruction is re-induced and checked to have the shape its
    family claims, and the shape is the proof: every shape the check admits
    has linear rank-width 2, and width at most 1 once any one vertex is
    deleted.  Of 23 fixed graphs this is proved once, by exhaustive search
    in the tier-1 tests, and trusted here rather than proved again for
    every certificate: of the house, gem and domino and the holes C5..C10
    in `tests/test_recognize.py::test_named_obstructions_are_minimal_of_width_2`,
    and of the 14 `dh_star3` catalog members, which
    `::test_catalog_order_is_pinned` fixes by graph6, in
    `::test_catalog_members_are_genuine_obstructions`.  A hole of any length
    k >= 5 needs no search at all: it is not distance hereditary, since two
    vertices at distance 2 are k - 2 >= 3 apart once their common neighbour
    is deleted; so its rank-width, hence its linear rank-width, is at least
    2, and the cycle order has no prefix cut of rank above 2.  Deleting any
    vertex leaves a path, of linear rank-width 1.
    The shape check shares `dh.minimal_non_dh_family`, `is_isomorphic_small`
    and the catalog with the recogniser, so
    `tests/test_checker_differential.py` holds it against `bench/checker.py`,
    which shares no code with this package.
    A malformed certificate yields a failed result with a reason, never an
    exception.  A vertex label is exactly an int: True and 4.0 equal
    vertices 1 and 4, but name none.
    """
    if isinstance(certificate, OrderingCertificate):
        try:
            width = cutrank_of_ordering(graph, certificate.order)
        except NotAPermutation:
            return _fail("ordering is not a permutation of the vertex set")
        if width > 1:
            return _fail(f"ordering has cut rank {width}")
        return _OK
    vs = certificate.vertices
    if any(type(v) is not int or not 0 <= v < graph.n for v in vs):
        return _fail("obstruction names a label that is not a vertex")
    if len(set(vs)) != len(vs):
        return _fail("obstruction lists a vertex twice")
    sub = induced_subgraph(graph, vs)
    fam = certificate.family
    if fam in ("hole", "house", "gem", "domino"):
        if minimal_non_dh_family(sub) != fam:
            shape = "chordless cycle" if fam == "hole" else fam
            return _fail(f"{fam} certificate does not induce a {shape}")
    elif fam == "dh_star3":
        idx = certificate.catalog_index
        if type(idx) is not int or not 0 <= idx < len(_CATALOG):
            return _fail("missing or invalid catalog index")
        if sub.n != _CATALOG[idx].n or not is_isomorphic_small(sub, _CATALOG[idx]):
            return _fail("obstruction does not match its catalog entry")
    else:
        return _fail(f"unknown obstruction family {fam!r}")
    return _OK
