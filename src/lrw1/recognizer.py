"""Recognition of linear rank-width at most 1, always with a certificate.

A connected graph has linear rank-width 1 exactly when it is distance
hereditary and its split tree is a path.  The accepting certificate is a
vertex ordering whose prefix cuts all have GF(2) rank at most 1; the
rejecting certificate is a minimal induced obstruction: one of the classical
non-distance-hereditary graphs (house, gem, domino, hole) or a
distance-hereditary graph whose split tree is a star with three leaves.
"""

from __future__ import annotations

import itertools
from collections.abc import Collection
from dataclasses import dataclass

from . import oracle
from .dh import minimal_non_dh_family, non_dh_obstruction, pruning_sequence
from .errors import InternalInvariantViolation, NotApplicable, NotAPath, NotAPermutation
from .gf2 import cutrank_of_ordering
from .graph import Graph, connected_components, induced_subgraph, is_isomorphic_small, canonical_form
from .splitdec import (
    Decomposition,
    SplitTree,
    canonical_decomposition_dh,
    contract_blocks,
    side_vertices,
    split_tree,
)


# -- certificates -----------------------------------------------------------------


@dataclass(frozen=True)
class OrderingCertificate:
    order: tuple[int, ...]


@dataclass(frozen=True)
class ObstructionCertificate:
    vertices: tuple[int, ...]
    family: str  # "house" | "gem" | "domino" | "hole" | "dh_star3"
    hole_length: int | None = None
    catalog_index: int | None = None


Certificate = OrderingCertificate | ObstructionCertificate


@dataclass(frozen=True)
class VerificationResult:
    ok: bool
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def _fail(reason: str) -> VerificationResult:
    return VerificationResult(False, reason)


_OK = VerificationResult(True)


# -- ordering construction -----------------------------------------------------------


def ordering_from_path_tree(tree: SplitTree, decomposition: Decomposition) -> tuple[int, ...]:
    """Concatenate the blocks of a path-shaped split tree end to end.

    Within a block the vertices are listed in ascending id; the path starts
    at the endpoint holding the smaller minimum vertex.  Every prefix cut of
    the result is a split (or trivially small), so its cut rank is <= 1.
    """
    if not tree.is_path():
        raise NotAPath("split tree has a node of degree 3 or more")
    if len(tree.nodes) == 1:
        return tuple(sorted(tree.nodes[0].own_vertices))
    ends = [n.id for n in tree.nodes if tree.degree(n.id) == 1]
    start = min(ends, key=lambda nid: min(tree.node(nid).own_vertices))
    order: list[int] = []
    prev, cur = None, start
    while True:
        order.extend(sorted(tree.node(cur).own_vertices))
        nxt = [x for x in tree.neighbours(cur) if x != prev]
        if not nxt:
            break
        prev, cur = cur, nxt[0]
    return tuple(order)


# -- the obstruction catalog ----------------------------------------------------------

_CATALOG: list[Graph] | None = None


def _leg_block(kind: str, marker: int, a: int, b: int) -> dict[int, set[int]]:
    if kind == "K3":
        return {marker: {a, b}, a: {marker, b}, b: {marker, a}}
    if kind == "Sm":  # star centred at the marker
        return {marker: {a, b}, a: {marker}, b: {marker}}
    if kind == "Sr":  # star centred at the first original vertex
        return {a: {marker, b}, marker: {a}, b: {a}}
    raise ValueError(kind)


def _assemble(centre: dict[int, set[int]], legs: tuple[str, str, str]) -> Graph:
    from .splitdec import Block

    blocks = []
    adjs = [centre]
    pairs = []
    for i, kind in enumerate(legs):
        hub_marker = -(i + 1)
        leg_marker = -(i + 4)
        adjs.append(_leg_block(kind, leg_marker, 2 * i, 2 * i + 1))
        pairs.append((hub_marker, leg_marker))
    for idx, adj in enumerate(adjs):
        edges = tuple(sorted({(min(u, v), max(u, v)) for u in adj for v in adj[u]}))
        blocks.append(Block(idx, tuple(sorted(adj)), edges, "prime", None))
    joined = contract_blocks(blocks, pairs)
    n = len(joined)
    edges = [(u, v) for u in joined for v in joined[u] if u < v]
    return Graph(n, edges)


def dh_obstruction_catalog() -> list[Graph]:
    """Distance-hereditary induced obstructions for linear rank-width 1.

    Every member has a star-with-three-leaves split tree.  The hub block is a
    triangle of markers, a 3-vertex star centred at a marker, or a 4-vertex
    star centred at an original vertex; each leg block has three vertices and
    is a triangle or a star, oriented so the whole system stays canonical.
    The list is deduplicated up to isomorphism and its order is stable.
    """
    global _CATALOG
    if _CATALOG is not None:
        return list(_CATALOG)
    combos: list[Graph] = []
    h1, h2, h3 = -1, -2, -3
    # hub = triangle of markers: legs are stars, either orientation
    centre = {h1: {h2, h3}, h2: {h1, h3}, h3: {h1, h2}}
    for legs in itertools.combinations_with_replacement(("Sm", "Sr"), 3):
        combos.append(_assemble(centre, legs))
    # hub = star centred at the marker towards leg 1
    centre = {h1: {h2, h3}, h2: {h1}, h3: {h1}}
    for first in ("K3", "Sm"):
        for rest in itertools.combinations_with_replacement(("K3", "Sr"), 2):
            combos.append(_assemble(centre, (first, *rest)))
    # hub = 4-vertex star centred at an original vertex
    centre = {6: {h1, h2, h3}, h1: {6}, h2: {6}, h3: {6}}
    for legs in itertools.combinations_with_replacement(("K3", "Sr"), 3):
        combos.append(_assemble(centre, legs))
    seen = set()
    out = []
    for g in combos:
        key = canonical_form(g)
        if key not in seen:
            seen.add(key)
            out.append(g)
    _CATALOG = out
    return list(out)


def _match_catalog(graph: Graph) -> int:
    for idx, member in enumerate(dh_obstruction_catalog()):
        if is_isomorphic_small(graph, member):
            return idx
    raise InternalInvariantViolation("extracted obstruction matches no catalog member")


# -- obstruction extraction ------------------------------------------------------------


def _pair_case_clique_hub(graph: Graph, side: list[int], frontier: set[int]):
    # two non-adjacent frontier vertices, or an edge with exactly one endpoint
    # on the frontier (legs of a clique hub must not look like cliques)
    for a, b in itertools.combinations(side, 2):
        adjacent = b in graph.adj[a]
        if not adjacent and a in frontier and b in frontier:
            return a, b
        if adjacent and ((a in frontier) != (b in frontier)):
            return a, b
    return None


def _pair_frontier(graph: Graph, side: list[int], frontier: set[int]):
    # any two frontier vertices; their mutual adjacency decides the leg shape
    for a, b in itertools.combinations(side, 2):
        if a in frontier and b in frontier:
            return a, b
    return None


def _pair_outward_edge(graph: Graph, side: list[int], frontier: set[int]):
    # an edge with at least one endpoint on the frontier
    for a, b in itertools.combinations(side, 2):
        if b in graph.adj[a] and (a in frontier or b in frontier):
            return a, b
    return None


def extract_lrw1_obstruction(
    graph: Graph, tree: SplitTree, decomposition: Decomposition, node: int
) -> tuple[int, ...]:
    """Minimal obstruction around a split-tree node of degree >= 3.

    Two vertices are chosen on each of three sides of the node (plus the hub
    centre when it is an original vertex), so the induced subgraph has a
    star-with-three-leaves split tree.  Pair scans are lexicographic.  No
    brute-force check is made: the caller matches the result against the
    obstruction catalog, whose members are proven minimal obstructions.
    """
    if tree.degree(node) < 3:
        raise NotApplicable(f"node {node} has degree {tree.degree(node)}")
    hub = decomposition.block(node)
    nbs = sorted(tree.neighbours(node))
    extra: tuple[int, ...] = ()
    if hub.kind == "clique":
        legs = nbs[:3]
        rules = [_pair_case_clique_hub] * 3
    elif hub.kind == "star" and hub.centre is not None and hub.centre < 0:
        partner = decomposition.partner_of(hub.centre)
        v1 = decomposition.home_of(partner)
        rest = [x for x in nbs if x != v1][:2]
        legs = [v1, *rest]
        rules = [_pair_frontier, _pair_outward_edge, _pair_outward_edge]
    elif hub.kind == "star":
        legs = nbs[:3]
        rules = [_pair_outward_edge] * 3
        extra = (hub.centre,)
    else:
        raise InternalInvariantViolation("hub block of a DH graph is neither clique nor star")
    chosen: list[int] = list(extra)
    for leg, rule in zip(legs, rules):
        side = set(side_vertices(tree, leg, node))
        frontier = {x for x in side if graph.adj[x] - side}
        pair = rule(graph, sorted(side), frontier)
        if pair is None:
            raise InternalInvariantViolation(f"no admissible pair on side of node {leg}")
        chosen.extend(pair)
    vs = tuple(sorted(chosen))
    if len(set(vs)) != len(vs):
        raise InternalInvariantViolation("sides of the hub node were not disjoint")
    return vs


# -- recognition ------------------------------------------------------------------------


def recognize(graph: Graph) -> Certificate:
    """Decide linear rank-width <= 1 and return a certificate either way.

    Components are processed independently in order of smallest vertex and
    their orderings concatenated; an obstruction inside any component is an
    obstruction for the whole graph.
    """
    parts: list[int] = []
    for comp in connected_components(graph):
        result = _recognize_connected(induced_subgraph(graph, comp))
        if isinstance(result, ObstructionCertificate):
            return ObstructionCertificate(
                tuple(comp[i] for i in result.vertices),
                result.family,
                result.hole_length,
                result.catalog_index,
            )
        parts.extend(comp[i] for i in result)
    return OrderingCertificate(tuple(parts))


def _recognize_connected(graph: Graph):
    if graph.n <= 2:
        return tuple(range(graph.n))
    residue: list[int] = []
    seq = pruning_sequence(graph, residue)
    if seq is None:
        return non_dh_certificate(graph, residue)
    decomposition = canonical_decomposition_dh(graph, seq)
    tree = split_tree(decomposition)
    if tree.is_path():
        return ordering_from_path_tree(tree, decomposition)
    node = min(n.id for n in tree.nodes if tree.degree(n.id) >= 3)
    vs = extract_lrw1_obstruction(graph, tree, decomposition, node)
    return ObstructionCertificate(
        vs, "dh_star3", catalog_index=_match_catalog(induced_subgraph(graph, vs))
    )


def non_dh_certificate(graph: Graph, residue: Collection[int] | None = None) -> ObstructionCertificate:
    """The minimal obstruction of a graph known not to be distance hereditary.

    `residue`, the live vertices of the graph's failed `pruning_sequence`,
    spares `non_dh_obstruction` a second pruning of the graph's 2-core.
    """
    vs = non_dh_obstruction(graph, residue)
    found = minimal_non_dh_family(induced_subgraph(graph, vs))
    if found is None:
        raise InternalInvariantViolation("minimal non-DH subgraph is not house/gem/domino/hole")
    family, k = found
    return ObstructionCertificate(vs, family, hole_length=k)


# -- certificate verification --------------------------------------------------------------


_VERIFY_BRUTE_GUARD = 10


def verify_certificate(graph: Graph, certificate: Certificate) -> VerificationResult:
    """Independent check of a certificate using only rank and search oracles.

    An ordering is scored by the GF(2) rank of each prefix cut, on one row
    basis updated as the ordering advances, in O(n + m) when its width is at
    most 1.  An obstruction is re-induced and checked to have the shape its
    family claims.  Up to the exhaustive guard of 10 vertices it is then
    checked to have linear rank-width exactly 2 and to lose it under every
    single vertex deletion.  A larger one can only be a hole, whose
    chordless-cycle shape check in O(n) already proves both.  A malformed
    certificate yields a failed result with a reason, never an exception.
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
    if len(set(vs)) != len(vs):
        return _fail("obstruction lists a vertex twice")
    if any(not 0 <= v < graph.n for v in vs):
        return _fail("obstruction vertex out of range")
    sub = induced_subgraph(graph, vs)
    shape = _check_family_shape(sub, certificate)
    if shape is not None:
        return shape
    if sub.n > _VERIFY_BRUTE_GUARD:
        # Only a hole passes the shape check at this size: the other families
        # have at most 7 vertices.  So sub is a chordless cycle of length
        # k >= 5.  It is not distance hereditary, since two vertices at
        # distance 2 are k - 2 >= 3 apart once their common neighbour is
        # deleted; so its rank-width, hence its linear rank-width, is at least
        # 2, and the cycle order has no prefix cut of rank above 2.  Deleting
        # any vertex leaves a path, of linear rank-width 1.
        return _OK
    if oracle.brute_lrw(sub) != 2:
        return _fail("induced subgraph does not have linear rank-width 2")
    for v in range(sub.n):
        remainder = induced_subgraph(sub, [u for u in range(sub.n) if u != v])
        for comp in connected_components(remainder):
            if oracle.brute_lrw(induced_subgraph(remainder, comp)) > 1:
                return _fail(f"deleting vertex {vs[v]} leaves width 2: not minimal")
    return _OK


def _check_family_shape(sub: Graph, certificate: ObstructionCertificate) -> VerificationResult | None:
    fam = certificate.family
    if fam in ("hole", "house", "gem", "domino"):
        found = minimal_non_dh_family(sub)
        if found is None or found[0] != fam:
            shape = "chordless cycle" if fam == "hole" else fam
            return _fail(f"{fam} certificate does not induce a {shape}")
        if fam == "hole" and certificate.hole_length != sub.n:
            return _fail("hole length does not match the vertex set")
    elif fam == "dh_star3":
        catalog = dh_obstruction_catalog()
        idx = certificate.catalog_index
        if idx is None or not 0 <= idx < len(catalog):
            return _fail("missing or invalid catalog index")
        if sub.n != catalog[idx].n or not is_isomorphic_small(sub, catalog[idx]):
            return _fail("obstruction does not match its catalog entry")
    else:
        return _fail(f"unknown obstruction family {fam!r}")
    return None
