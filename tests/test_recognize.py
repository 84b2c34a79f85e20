"""The recognizer, its certificates, the obstruction catalog and the verifier."""

import gc
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reversed_spider
from lrw1 import oracle
from lrw1 import recognizer as recognizer_module
from lrw1 import splitdec as splitdec_module
from lrw1.dh import pruning_sequence
from lrw1.errors import NotApplicable
from lrw1.gf2 import cutrank_of_ordering
from lrw1.graph import (
    Graph,
    connected_components,
    induced_subgraph,
    is_isomorphic_small,
    local_complement,
    parse_graph,
    serialize_graph,
    to_graph6,
)
from lrw1.named import (
    caterpillar_graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    domino_graph,
    gem_graph,
    house_graph,
    net_graph,
    octahedron_graph,
    path_graph,
    spider_graph,
)
from lrw1.recognizer import (
    ObstructionCertificate,
    OrderingCertificate,
    dh_obstruction_catalog,
    extract_lrw1_obstruction,
    ordering_from_path_tree,
    recognize,
    verify_certificate,
)
from lrw1.splitdec import canonical_decomposition_dh, side_vertices, split_tree


def _decompose(graph):
    d = canonical_decomposition_dh(graph, pruning_sequence(graph))
    return d, split_tree(d)


# -- accepting side -----------------------------------------------------------------


def test_caterpillar_gets_width_1_ordering():
    g = caterpillar_graph(4, [2, 0, 1, 2])
    cert = recognize(g)
    assert isinstance(cert, OrderingCertificate)
    assert cutrank_of_ordering(g, cert.order) == 1
    assert verify_certificate(g, cert)


def test_tiny_graphs_accepted_unconditionally():
    for g in [Graph(0), Graph(1), Graph(2), Graph(2, [(0, 1)])]:
        cert = recognize(g)
        assert isinstance(cert, OrderingCertificate)
        assert verify_certificate(g, cert)


def test_disconnected_orderings_concatenate_by_component():
    g = disjoint_union(path_graph(3), complete_graph(4))
    cert = recognize(g)
    assert isinstance(cert, OrderingCertificate)
    assert cert.order == (0, 1, 2, 3, 4, 5, 6)
    assert verify_certificate(g, cert)


def test_ordering_from_path_tree_examples():
    d, t = _decompose(path_graph(4))
    assert ordering_from_path_tree(t) == (0, 1, 2, 3)
    d, t = _decompose(cycle_graph(4))
    assert ordering_from_path_tree(t) == (0, 2, 1, 3)
    d, t = _decompose(complete_graph(5))
    assert ordering_from_path_tree(t) == (0, 1, 2, 3, 4)


def test_ordering_starts_at_the_end_with_the_least_vertex():
    # the bull: its path is block 0 {2, 4}, block 1 {0}, block 2 {1, 3}, and
    # the walk starts at block 2, not at the first node
    d, t = _decompose(Graph(5, [(0, 3), (0, 4), (1, 3), (2, 4), (3, 4)]))
    assert [(n.id, n.own_vertices) for n in t.nodes] == [(0, (2, 4)), (1, (0,)), (2, (1, 3))]
    assert t.edges == ((0, 1), (1, 2))
    assert ordering_from_path_tree(t) == (1, 3, 0, 2, 4)


# -- rejecting side: non-DH stage --------------------------------------------------------


def test_c5_rejected_with_hole():
    cert = recognize(cycle_graph(5))
    assert cert == ObstructionCertificate((0, 1, 2, 3, 4), "hole")
    assert verify_certificate(cycle_graph(5), cert)


def test_house_gem_domino_families():
    for g, family in [(house_graph(), "house"), (gem_graph(), "gem"), (domino_graph(), "domino")]:
        cert = recognize(g)
        assert isinstance(cert, ObstructionCertificate)
        assert cert.family == family
        assert cert.vertices == tuple(range(g.n))
        assert verify_certificate(g, cert)


def test_long_hole_certificate_verifies_structurally():
    g = cycle_graph(12)
    cert = recognize(g)
    assert cert.family == "hole" and len(cert.vertices) == 12
    assert verify_certificate(g, cert)


def test_obstruction_inside_bigger_graph():
    base = cycle_graph(6)
    g = Graph(8, list(base.edges) + [(0, 6), (6, 7)])
    cert = recognize(g)
    assert isinstance(cert, ObstructionCertificate)
    assert verify_certificate(g, cert)
    sub = induced_subgraph(g, cert.vertices)
    assert oracle.brute_lrw(sub) == 2


# -- rejecting side: DH stage ----------------------------------------------------------------


def test_net_rejected_whole():
    cert = recognize(net_graph())
    assert isinstance(cert, ObstructionCertificate)
    assert cert.family == "dh_star3"
    assert cert.vertices == (0, 1, 2, 3, 4, 5)
    assert verify_certificate(net_graph(), cert)


def test_octahedron_rejected_whole():
    cert = recognize(octahedron_graph())
    assert cert.family == "dh_star3"
    assert cert.vertices == (0, 1, 2, 3, 4, 5)
    assert verify_certificate(octahedron_graph(), cert)


def test_spider_extraction_takes_everything():
    g = spider_graph(3, 2)
    d, t = _decompose(g)
    hub = next(n.id for n in t.nodes if t.degree(n.id) >= 3)
    assert t.node(hub).kind == "star" and t.node(hub).centre == 0
    assert extract_lrw1_obstruction(t, hub).vertices == tuple(range(7))
    assert oracle.brute_lrw(g) == 2


def test_net_with_extra_pendant_extracts_net():
    g = Graph(7, list(net_graph().edges) + [(3, 6)])
    cert = recognize(g)
    assert cert.family == "dh_star3"
    assert len(cert.vertices) == 6
    assert is_isomorphic_small(induced_subgraph(g, cert.vertices), net_graph())


def test_extraction_rejects_low_degree_node():
    g = path_graph(6)
    d, t = _decompose(g)
    with pytest.raises(NotApplicable):
        extract_lrw1_obstruction(t, t.nodes[0].id)


def test_extraction_rejects_a_node_outside_the_tree():
    g = net_graph()
    d, t = _decompose(g)
    with pytest.raises(NotApplicable):
        extract_lrw1_obstruction(t, max(n.id for n in t.nodes) + 1)


def _exhaustive_first_pair(graph, side, allowed):
    # the definition: the least pair a < b of the side whose leg shape is
    # admitted, where K3 is two adjacent frontier vertices, Sm two
    # non-adjacent ones, and Sr an edge with exactly one frontier end
    frontier = {x for x in side if graph.adj[x] - side}

    def shape(a, b):
        adjacent = b in graph.adj[a]
        if a in frontier and b in frontier:
            return "K3" if adjacent else "Sm"
        return "Sr" if adjacent and (a in frontier or b in frontier) else None

    return min((p for p in itertools.combinations(sorted(side), 2) if shape(*p) in allowed), default=None)


def test_leg_pairs_are_the_first_admissible_pairs():
    graphs = [oracle.random_branching_dh_graph(8 + seed % 12, seed) for seed in range(100)]
    graphs += [reversed_spider(leg_length) for leg_length in range(2, 41)]
    for n in range(4, 8):
        graphs += [g for g in oracle.load_fixture_graphs(n) if len(connected_components(g)) == 1]
    admitted_sets = {allowed for legs in recognizer_module._HUB_LEGS.values() for allowed in legs}
    hubs = 0
    for g in graphs:
        seq = pruning_sequence(g)
        if seq is None:
            continue
        t = split_tree(canonical_decomposition_dh(g, seq))
        if t.is_path():
            continue
        hubs += 1
        hub = min(n.id for n in t.nodes if t.degree(n.id) >= 3)
        for leg in t.neighbours(hub):
            side = set(side_vertices(t, leg, hub))
            frontier = {x for x in side if g.adj[x] - side}
            for allowed in admitted_sets:
                expected = _exhaustive_first_pair(g, side, allowed)
                assert recognizer_module._first_pair(g, side, frontier, allowed) == expected, (g, leg, allowed)
    assert hubs == 98 + 100 + 39  # fixtures, branching DH graphs, spiders


def test_recognize_runs_no_brute_force(monkeypatch):
    # the extraction names the catalog member of a DH rejection, so
    # recognition needs neither the width oracles nor the verifier, and runs
    # no isomorphism test
    def refuse(*args, **kwargs):
        raise AssertionError("brute force on the recognise path")

    catalog = dh_obstruction_catalog()
    assert len(catalog) == 14
    graphs = [net_graph(), octahedron_graph(), *catalog]
    graphs += [oracle.random_branching_dh_graph(8 + seed % 10, seed) for seed in range(50)]
    for n in range(1, 7):
        graphs += [g for g in oracle.load_fixture_graphs(n) if len(connected_components(g)) == 1]
    monkeypatch.setattr(oracle, "brute_lrw", refuse)
    monkeypatch.setattr(oracle, "lrw_at_most", refuse)
    monkeypatch.setattr(recognizer_module, "verify_certificate", refuse)
    monkeypatch.setattr(recognizer_module, "is_isomorphic_small", refuse)
    certs = [recognize(g) for g in graphs]
    monkeypatch.undo()
    stars = [c for c in certs if isinstance(c, ObstructionCertificate) and c.family == "dh_star3"]
    assert len(stars) >= 66
    for g, cert in zip(graphs, certs):
        assert verify_certificate(g, cert), (g, cert)


def test_obstruction_only_when_tree_branches():
    # every DH rejection coincides with a branching split tree
    for seed in range(40):
        g = oracle.random_dh_graph(14, seed)
        cert = recognize(g)
        d, t = _decompose(g)
        assert isinstance(cert, ObstructionCertificate) == (not t.is_path())


def test_internal_path_nodes_carry_vertices():
    for seed in range(40):
        g = oracle.random_lrw1_graph(20, seed)
        cert = recognize(g)
        assert isinstance(cert, OrderingCertificate)
        comp = connected_components(g)
        if len(comp) != 1:
            continue
        d, t = _decompose(g)
        for node in t.nodes:
            if t.degree(node.id) == 2:
                assert node.own_vertices


# -- the catalog ---------------------------------------------------------------------------------


def test_catalog_contains_net_and_octahedron():
    catalog = dh_obstruction_catalog()
    assert any(is_isomorphic_small(m, net_graph()) for m in catalog)
    assert any(is_isomorphic_small(m, octahedron_graph()) for m in catalog)


def test_catalog_is_duplicate_free():
    catalog = dh_obstruction_catalog()
    from lrw1.graph import canonical_form

    assert len({canonical_form(m) for m in catalog}) == len(catalog)


def test_catalog_order_is_pinned():
    # a dh_star3 certificate names its member by index, so the order is output
    assert [to_graph6(m) for m in dh_obstruction_catalog()] == [
        "E]~o", "E]{G", "EXwG", "EpgG", "E~rG", "E~oG", "ExoG",
        "E^rG", "E^oG", "EXoG", "F`?Nw", "F`?No", "F`?NO", "F`?LO",
    ]


def test_catalog_members_extract_themselves():
    # every member is rejected with the whole graph and its own index,
    # whichever hub case fires
    for index, m in enumerate(dh_obstruction_catalog()):
        d, t = _decompose(m)
        hub = min(n.id for n in t.nodes if t.degree(n.id) >= 3)
        assert extract_lrw1_obstruction(t, hub) == ObstructionCertificate(tuple(range(m.n)), "dh_star3", index)


def test_catalog_members_are_genuine_obstructions():
    for m in dh_obstruction_catalog():
        assert oracle.brute_lrw(m) == 2
        d, t = _decompose(m)
        assert sorted(t.degree(n.id) for n in t.nodes) == [1, 1, 1, 3]
        for v in range(m.n):
            rest = induced_subgraph(m, [u for u in range(m.n) if u != v])
            for comp in connected_components(rest):
                assert oracle.brute_lrw(induced_subgraph(rest, comp)) <= 1


def test_named_obstructions_are_minimal_of_width_2():
    # the verifier trusts its shape check on these, and on the catalog above
    for g in [house_graph(), gem_graph(), domino_graph()] + [cycle_graph(k) for k in range(5, 11)]:
        assert oracle.brute_lrw(g) == 2, g
        for v in range(g.n):
            assert oracle.brute_lrw(induced_subgraph(g, [u for u in range(g.n) if u != v])) <= 1, (g, v)


# -- the verifier ------------------------------------------------------------------------------


def test_verifier_accepts_constructed_certificates():
    g = caterpillar_graph(3, [1, 2, 1])
    assert verify_certificate(g, recognize(g))


def test_verifier_rejects_bad_ordering():
    c5 = cycle_graph(5)
    for perm in [(0, 1, 2, 3, 4), (2, 0, 3, 1, 4)]:
        out = verify_certificate(c5, OrderingCertificate(perm))
        assert not out and "cut rank" in out.reason


def test_verifier_rejects_non_permutation():
    out = verify_certificate(path_graph(3), OrderingCertificate((0, 1)))
    assert not out


def test_verifier_names_every_kind_of_non_permutation():
    for order in [(0, 1), (0, 1, 1), (0, 1, 3), (0, 1, -1), (0, 1, 2, 2)]:
        out = verify_certificate(path_graph(3), OrderingCertificate(order))
        assert not out and out.reason == "ordering is not a permutation of the vertex set", order


def test_verifier_accepts_c5_obstruction():
    cert = ObstructionCertificate((0, 1, 2, 3, 4), "hole")
    assert verify_certificate(cycle_graph(5), cert)


def test_verifier_rejects_wrong_family_and_padding():
    c6 = cycle_graph(6)
    assert not verify_certificate(c6, ObstructionCertificate((0, 1, 2, 3, 4, 5), "domino"))
    g = disjoint_union(cycle_graph(5), Graph(1))
    assert not verify_certificate(g, ObstructionCertificate((0, 1, 2, 3, 4, 5), "hole"))


def test_large_hole_certificates_verify_structurally():
    for k in (11, 40):
        assert verify_certificate(cycle_graph(k), ObstructionCertificate(tuple(range(k)), "hole"))
    chorded = Graph(12, list(cycle_graph(12).edges) + [(0, 6)])
    two_c6 = disjoint_union(cycle_graph(6), cycle_graph(6))
    for g in (chorded, two_c6):
        out = verify_certificate(g, ObstructionCertificate(tuple(range(12)), "hole"))
        assert not out and out.reason


def test_verifier_fails_oversized_small_family_certificates():
    # more vertices than the family's members: a failed result, not TooLarge
    g = cycle_graph(12)
    for family, index in [("house", None), ("gem", None), ("domino", None), ("dh_star3", 0)]:
        out = verify_certificate(g, ObstructionCertificate(tuple(range(12)), family, catalog_index=index))
        assert not out and out.reason, family


def test_verifier_fails_unknown_families():
    # a family read from JSON may be any JSON value, a list included
    for family in ["triangle", None, ["hole"], {"hole": 5}]:
        out = verify_certificate(cycle_graph(5), ObstructionCertificate((0, 1, 2, 3, 4), family))
        assert not out and out.reason.startswith("unknown obstruction family"), family


def test_verifier_rejects_non_minimal_set():
    g = Graph(6, list(cycle_graph(5).edges) + [(0, 5)])
    cert = ObstructionCertificate((0, 1, 2, 3, 4, 5), "hole")
    assert not verify_certificate(g, cert)


def test_recognizing_and_verifying_a_dh_star3_graph_leaves_no_cyclic_garbage():
    # the verifier's isomorphism search must not recurse through a closure,
    # which refers to itself and so leaves every search behind as a cycle
    g = Graph(7, list(net_graph().edges) + [(3, 6)])
    gc.collect()
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        cert = recognize(g)
        assert cert.family == "dh_star3" and verify_certificate(g, cert)
        gc.collect()
        garbage = [type(obj).__name__ for obj in gc.garbage]
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
    assert garbage == []


# -- invariance properties ------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.data())
def test_decision_invariant_under_local_complementation(seed, data):
    import random

    rng = random.Random(seed)
    n = rng.randint(1, 8)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    g = Graph(n, [p for p in pairs if rng.random() < 0.4])
    before = isinstance(recognize(g), OrderingCertificate)
    h = g
    for _ in range(data.draw(st.integers(1, 6))):
        h = local_complement(h, data.draw(st.integers(0, n - 1)))
    after = isinstance(recognize(h), OrderingCertificate)
    assert before == after


def test_accepted_graphs_closed_under_deletion_up_to_7():
    # single-vertex deletions of accepted graphs stay accepted, exhaustively
    for n in range(2, 8):
        for g in oracle.load_fixture_graphs(n):
            if len(connected_components(g)) != 1:
                continue
            if not isinstance(recognize(g), OrderingCertificate):
                continue
            for v in range(g.n):
                rest = induced_subgraph(g, [u for u in range(g.n) if u != v])
                assert isinstance(recognize(rest), OrderingCertificate), (g, v)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6), st.data())
def test_accepted_random_subsets_stay_accepted(seed, data):
    g = oracle.random_lrw1_graph(12, seed)
    subset = data.draw(st.sets(st.integers(0, g.n - 1)))
    sub = induced_subgraph(g, subset)
    assert isinstance(recognize(sub), OrderingCertificate)


# -- no whole-graph rebuilds and no replay on the recognise path ----------------------


def test_rejecting_and_verifying_a_hole_builds_no_copy_of_it(monkeypatch):
    # the 2-core, the obstruction and the verifier's re-induction are all
    # G[V], which is G itself
    g = parse_graph(serialize_graph(cycle_graph(5000)))
    orders = []
    init = Graph.__init__

    def counting_init(self, n, *args, **kwargs):
        orders.append(n)
        init(self, n, *args, **kwargs)

    monkeypatch.setattr(Graph, "__init__", counting_init)
    cert = recognize(g)
    assert verify_certificate(g, cert)
    monkeypatch.undo()
    assert cert.family == "hole" and len(cert.vertices) == 5000
    assert 5000 not in orders


def test_recognize_never_replays_its_own_pruning_sequence(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("replay on the recognise path")

    monkeypatch.setattr(splitdec_module, "replay_pruning", refuse)
    graphs = []
    for n in range(1, 7):
        graphs += [g for g in oracle.load_fixture_graphs(n) if len(connected_components(g)) == 1]
    graphs += [oracle.random_lrw1_graph(10 + seed % 30, seed) for seed in range(50)]
    graphs += [oracle.random_branching_dh_graph(8 + seed % 10, seed) for seed in range(50)]
    certs = [recognize(g) for g in graphs]
    monkeypatch.undo()
    for g, cert in zip(graphs, certs):
        assert verify_certificate(g, cert), (g, cert)
