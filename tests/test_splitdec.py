"""Splits, refinement, recomposition, canonical decomposition, split trees."""

import dataclasses
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrw1 import oracle, splitdec
from lrw1.dh import PruningSequence, PruningStep, pruning_sequence
from lrw1 import cli
from lrw1.errors import InvalidSequence, MalformedDecomposition, NotAPath, NotASplit, NotATreeEdge
from lrw1.gf2 import cutrank_of_cut
from lrw1.graph import Graph, connected_components, serialize_graph
from lrw1.named import caterpillar_graph, complete_graph, cycle_graph, net_graph, path_graph
from lrw1.oracle import (
    contract_blocks,
    decompositions_isomorphic,
    is_split,
    recompose,
    refine,
    validate_canonical,
)
from lrw1.splitdec import (
    Block,
    Decomposition,
    canonical_decomposition_dh,
    decomposition_to_dot,
    side_vertices,
    split_tree,
    split_tree_to_dot,
)


# -- splits ------------------------------------------------------------------------


def test_c4_opposite_pair_is_split():
    assert is_split(cycle_graph(4), [0, 2])


def test_c5_has_no_split_at_all():
    c5 = cycle_graph(5)
    for mask in range(1 << 5):
        side = [v for v in range(5) if (mask >> v) & 1]
        assert not is_split(c5, side)


def test_p4_prefix_is_split():
    assert is_split(path_graph(4), [0, 1])
    assert not is_split(path_graph(4), [0])


# -- refinement -----------------------------------------------------------------------


def test_refine_c4_gives_two_marker_centred_stars():
    bx, by = refine(cycle_graph(4), [0, 2])
    assert bx.kind == "star" and bx.centre == -1
    assert set(bx.vertices) == {0, 2, -1}
    assert by.kind == "star" and by.centre == -2
    assert set(by.vertices) == {1, 3, -2}


def test_refine_p4_star_shapes():
    bx, by = refine(path_graph(4), [0, 1])
    assert set(bx.vertices) == {0, 1, -1}
    assert set(bx.adj[-1]) == {1}
    assert bx.kind == "star" and bx.centre == 1
    assert set(by.adj[-2]) == {2}
    assert by.kind == "star" and by.centre == 2


def test_refine_rejects_non_split():
    with pytest.raises(NotASplit):
        refine(cycle_graph(5), [0, 1])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_refine_then_contract_restores_graph(seed):
    import random

    rng = random.Random(seed)
    g = oracle.random_dh_graph(rng.randint(4, 9), seed)
    splits = oracle.brute_splits(g)
    if not splits:
        return
    side = splits[rng.randrange(len(splits))]
    bx, by = refine(g, side)
    joined = contract_blocks([bx, by], [(-1, -2)])
    edges = {(u, v) for u in joined for v in joined[u] if u < v}
    assert edges == set(g.edges)
    assert set(joined) == set(range(g.n))


# -- recomposition ----------------------------------------------------------------------


def test_recompose_single_block():
    g = cycle_graph(5)
    d = oracle.brute_canonical_decomposition(g)
    assert len(d.blocks) == 1
    assert recompose(d) == g


def test_recompose_c4_and_p4():
    for g in [cycle_graph(4), path_graph(4)]:
        d = canonical_decomposition_dh(g, pruning_sequence(g))
        assert recompose(d) == g


# -- canonical decomposition ---------------------------------------------------------------


def test_complete_graphs_are_single_clique_blocks():
    for n in range(3, 7):
        g = complete_graph(n)
        d = canonical_decomposition_dh(g, pruning_sequence(g))
        assert len(d.blocks) == 1
        assert d.blocks[0].kind == "clique"
        assert split_tree(d).is_path()


def test_p4_decomposition_shape():
    d = canonical_decomposition_dh(path_graph(4), pruning_sequence(path_graph(4)))
    assert len(d.blocks) == 2
    by_own = {b.own_vertices: b for b in d.blocks}
    first, second = by_own[(0, 1)], by_own[(2, 3)]
    assert first.kind == "star" and first.centre == 1
    assert second.kind == "star" and second.centre == 2
    # condition (iii): the marker pair joins two leaves
    for b in (first, second):
        marker = b.marker_ids[0]
        assert b.centre != marker


def test_net_decomposition_is_three_leaf_star():
    g = net_graph()
    d = canonical_decomposition_dh(g, pruning_sequence(g))
    t = split_tree(d)
    kinds = sorted(b.kind for b in d.blocks)
    assert kinds == ["clique", "star", "star", "star"]
    hub = next(b for b in d.blocks if b.kind == "clique")
    assert hub.own_vertices == ()
    assert t.degree(hub.id) == 3
    assert not t.is_path()
    sides = sorted(side_vertices(t, nb, hub.id) for nb in t.neighbours(hub.id))
    assert sides == [(0, 3), (1, 4), (2, 5)]


def test_single_and_two_vertex_graphs_are_one_block():
    for g in [Graph(1), Graph(2, [(0, 1)]), path_graph(3), complete_graph(3)]:
        d = canonical_decomposition_dh(g, pruning_sequence(g))
        assert len(d.blocks) == 1
        assert validate_canonical(d) == []


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 40), st.integers(0, 10**6))
def test_random_dh_decompositions_validate(n, seed):
    g = oracle.random_dh_graph(n, seed)
    d = canonical_decomposition_dh(g, pruning_sequence(g))
    assert validate_canonical(d) == []
    assert recompose(d) == g


def test_matches_brute_reference_on_small_dh_graphs():
    for n in range(1, 7):
        for g in oracle.load_fixture_graphs(n):
            if n > 1 and len(connected_components(g)) != 1:
                continue
            seq = pruning_sequence(g)
            if seq is None:
                continue
            mine = canonical_decomposition_dh(g, seq)
            brute = oracle.brute_canonical_decomposition(g)
            assert validate_canonical(mine) == []
            assert validate_canonical(brute) == []
            assert decompositions_isomorphic(mine, brute), g


def test_long_path_decomposition_is_isomorphic_to_itself():
    # 2994 markers, one level of the marker search each: deeper than the
    # interpreter's recursion limit
    g = path_graph(1500)
    d = canonical_decomposition_dh(g, pruning_sequence(g))
    assert len(d.marker_pairs) == 1497
    assert decompositions_isomorphic(d, d)


def _refined(g, side):
    builder = oracle.DecompositionBuilder()
    builder.refine_block(builder.add_block({v: set(g.adj[v]) for v in range(g.n)}), side)
    return builder.freeze(g)


def test_single_refinements_compare_equal_only_along_the_same_split():
    for g in [path_graph(5), complete_graph(4)]:
        splits = oracle.brute_splits(g)
        assert len(splits) >= 2
        for s in splits:
            for t in splits:
                assert decompositions_isomorphic(_refined(g, s), _refined(g, t)) == (s == t), (g, s, t)


def test_comparison_rejects_a_block_system_that_is_not_a_tree():
    # blocks 0 and 1 are joined by two marker pairs
    blocks = (
        Block(0, (-3, -1, 0), ((-3, -1), (-3, 0), (-1, 0)), "clique", None),
        Block(1, (-4, -2, 1), ((-4, -2), (-4, 1), (-2, 1)), "clique", None),
    )
    markers = ((-4, -3), (-2, -1))
    d = Decomposition(blocks, markers, Graph(2, [(0, 1)]))
    with pytest.raises(MalformedDecomposition, match="tree"):
        decompositions_isomorphic(d, d)


def test_comparison_rejects_two_marked_edges_splitting_off_the_same_vertices():
    # P4 as {0, 1} | two markers | {2, 3}: both marked edges split off {2, 3},
    # so neither names its markers apart from the other
    blocks = (
        Block(0, (-1, 0, 1), ((-1, 1), (0, 1)), "star", 1),
        Block(1, (-3, -2), ((-3, -2),), "prime", None),
        Block(2, (-4, 2, 3), ((-4, 2), (2, 3)), "star", 2),
    )
    markers = ((-4, -3), (-2, -1))
    d = Decomposition(blocks, markers, path_graph(4))
    assert recompose(d) == path_graph(4)
    with pytest.raises(MalformedDecomposition, match="split off the same"):
        decompositions_isomorphic(d, d)


def test_dh_decompositions_have_no_prime_blocks():
    for n in range(1, 25, 4):
        g = oracle.random_dh_graph(max(n, 4), seed=n)
        d = canonical_decomposition_dh(g, pruning_sequence(g))
        assert all(b.kind in ("clique", "star") for b in d.blocks)


# -- split tree ----------------------------------------------------------------------------


def test_split_tree_single_node():
    g = complete_graph(4)
    t = split_tree(canonical_decomposition_dh(g, pruning_sequence(g)))
    assert len(t.nodes) == 1
    assert t.nodes[0].own_vertices == (0, 1, 2, 3)
    assert t.is_path()


@pytest.mark.parametrize("seed", range(5))
def test_split_tree_nodes_are_the_blocks(seed):
    g = oracle.random_dh_graph(30, seed)
    d = canonical_decomposition_dh(g, pruning_sequence(g))
    t = split_tree(d)
    assert t.nodes is d.blocks
    assert all(t.node(b.id) is b for b in d.blocks)
    assert t.decomposition is d


def test_split_tree_p4_two_nodes():
    t = split_tree(canonical_decomposition_dh(path_graph(4), pruning_sequence(path_graph(4))))
    assert len(t.nodes) == 2 and len(t.edges) == 1
    assert sorted(n.own_vertices for n in t.nodes) == [(0, 1), (2, 3)]


def test_side_vertices_p4():
    t = split_tree(canonical_decomposition_dh(path_graph(4), pruning_sequence(path_graph(4))))
    u, v = t.edges[0]
    one = side_vertices(t, u, v)
    other = side_vertices(t, v, u)
    assert sorted(one + other) == [0, 1, 2, 3]
    assert {one, other} == {(0, 1), (2, 3)}


def test_side_vertices_rejects_non_edge():
    t = split_tree(canonical_decomposition_dh(net_graph(), pruning_sequence(net_graph())))
    leaves = [n.id for n in t.nodes if t.degree(n.id) == 1]
    with pytest.raises(NotATreeEdge):
        side_vertices(t, leaves[0], leaves[1])


def test_side_vertices_rejects_a_pair_naming_no_node():
    t = split_tree(canonical_decomposition_dh(path_graph(4), pruning_sequence(path_graph(4))))
    for u, v in [(0, 7), (7, 0), (-1, 1)]:
        with pytest.raises(NotATreeEdge):
            side_vertices(t, u, v)


def test_split_tree_rejects_too_few_marker_pairs():
    blocks = (Block(0, (0,), (), "prime", None), Block(1, (1,), (), "prime", None))
    with pytest.raises(MalformedDecomposition, match="marker pairs do not form a tree"):
        split_tree(Decomposition(blocks, (), Graph(2, [(0, 1)])))


def test_split_tree_rejects_a_disconnected_block_system():
    # two marker pairs join blocks 0 and 1 twice, and block 2 is left out:
    # the edge count is right for a tree on three nodes, the shape is not
    blocks = (
        Block(0, (-3, -1, 0), ((-3, 0), (-1, 0)), "star", 0),
        Block(1, (-4, -2, 1), ((-4, 1), (-2, 1)), "star", 1),
        Block(2, (2,), (), "prime", None),
    )
    markers = ((-4, -3), (-2, -1))
    with pytest.raises(MalformedDecomposition, match="block adjacency is not connected"):
        split_tree(Decomposition(blocks, markers, Graph(3, [(0, 1)])))


def test_tree_edges_are_splits_with_cutrank_1():
    # every tree edge induces a bipartition of cut rank exactly 1
    for seed in range(25):
        g = oracle.random_dh_graph(12, seed)
        t = split_tree(canonical_decomposition_dh(g, pruning_sequence(g)))
        for u, v in t.edges:
            side = side_vertices(t, u, v)
            if 2 <= len(side) <= g.n - 2:
                assert cutrank_of_cut(g, side) == 1


# -- canonicity validation -----------------------------------------------------------------


def test_validate_flags_adjacent_cliques():
    k3 = {(0, 1), (0, -1), (1, -1)}
    other = {(2, 3), (2, -2), (3, -2)}
    blocks = (
        Block(0, (-1, 0, 1), tuple(sorted(k3)), "clique", None),
        Block(1, (-2, 2, 3), tuple(sorted(other)), "clique", None),
    )
    from lrw1.splitdec import Decomposition

    origin = Graph(4, [(0, 1), (2, 3), (0, 2), (0, 3), (1, 2), (1, 3)])
    d = Decomposition(blocks, ((-2, -1),), origin)
    codes = [v[0] for v in validate_canonical(d)]
    assert "adjacent-cliques" in codes


def test_validate_flags_centre_to_leaf_stars():
    # star centred at its marker joined to a star centred at a real vertex
    a = Block(0, (-1, 0, 1), ((-1, 0), (-1, 1)), "star", -1)
    b = Block(1, (-2, 2, 3), ((2, -2), (2, 3)), "star", 2)
    from lrw1.splitdec import Decomposition

    origin = Graph(4, [(0, 2), (1, 2), (2, 3)])
    d = Decomposition((a, b), ((-2, -1),), origin)
    codes = [v[0] for v in validate_canonical(d)]
    assert "star-orientation" in codes


def test_validate_flags_splittable_prime():
    c4 = cycle_graph(4)
    from lrw1.splitdec import Decomposition

    blk = Block(0, (0, 1, 2, 3), tuple(c4.edges), "prime", None)
    d = Decomposition((blk,), (), c4)
    codes = [v[0] for v in validate_canonical(d)]
    assert "splittable-prime" in codes


def _p5_blocks():
    # the blocks of P5's decomposition, whose pairs are ((-4, -3), (-2, -1))
    g = path_graph(5)
    d = canonical_decomposition_dh(g, pruning_sequence(g))
    assert d.marker_pairs == ((-4, -3), (-2, -1))
    return d.blocks, g


PAIRING_FAULTS = [
    (((-4, -3),), "marker -1 has no partner"),
    (((-4, -3), (-2, -1), (-3, -1)), "marker -3 is in two pairs"),
    (((-4, -1), (-3, -2)), "paired markers -3,-2 share a block"),
    (((-5, -3), (-2, -1)), "marker -5 is in no block"),
]
PAIRING_FAULT_IDS = ["unpaired", "in-two-pairs", "inside-one-block", "in-no-block"]


@pytest.mark.parametrize("pairs, fault", PAIRING_FAULTS, ids=PAIRING_FAULT_IDS)
def test_the_builders_check_refuses_each_pairing_fault(pairs, fault):
    blocks, g = _p5_blocks()
    with pytest.raises(MalformedDecomposition, match=fault):
        splitdec._decomposition(list(blocks), list(pairs), g)


@pytest.mark.parametrize("pairs, fault", PAIRING_FAULTS, ids=PAIRING_FAULT_IDS)
def test_validate_reports_each_pairing_fault(pairs, fault):
    blocks, g = _p5_blocks()
    assert validate_canonical(Decomposition(blocks, pairs, g)) == [("malformed", fault)]


def test_a_pair_naming_a_marker_no_block_holds_is_malformed_not_a_key_error():
    blocks, g = _p5_blocks()
    d = Decomposition(blocks, ((-5, -3), (-2, -1)), g)
    with pytest.raises(MalformedDecomposition, match="marker -5 is in no block"):
        split_tree(d)
    with pytest.raises(MalformedDecomposition, match="marker -5 is in no block"):
        decompositions_isomorphic(d, d)


def test_recognition_checks_the_pairing_once(monkeypatch):
    from lrw1.recognizer import recognize

    calls = []
    check = splitdec._pairing_fault
    monkeypatch.setattr(splitdec, "_pairing_fault", lambda *args: calls.append(1) or check(*args))
    for g in [path_graph(40), net_graph(), oracle.random_dh_graph(50, 7)]:
        calls.clear()
        recognize(g)
        assert calls == [1]


# -- exports ----------------------------------------------------------------------------------


def test_dot_exports_are_deterministic_and_sane():
    g = net_graph()
    d = canonical_decomposition_dh(g, pruning_sequence(g))
    sd = decomposition_to_dot(d)
    tr = split_tree_to_dot(split_tree(d))
    assert sd == decomposition_to_dot(d)
    assert "style=dashed" in sd
    assert sd.count("style=dashed") == len(d.marker_pairs)
    assert tr.startswith("graph split_tree {")
    assert tr.count(" -- ") == len(d.blocks) - 1


def test_ordering_requires_path_tree():
    from lrw1.recognizer import ordering_from_path_tree

    g = net_graph()
    d = canonical_decomposition_dh(g, pruning_sequence(g))
    with pytest.raises(NotAPath):
        ordering_from_path_tree(split_tree(d))


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("name, graph", [
    ("net", net_graph()),
    ("p6", path_graph(6)),
    ("k5", complete_graph(5)),
    ("cat", caterpillar_graph(3, [2, 0, 1])),
    ("dh30", oracle.random_dh_graph(30, 1)),
])
def test_decompose_output_is_byte_identical_to_the_golden_file(name, graph, tmp_path, capsys):
    # block ids, marker ids and the order of every line are pinned, not only
    # the shape of the decomposition
    path = tmp_path / "g.edges"
    path.write_text(serialize_graph(graph))
    assert cli.main(["decompose", str(path), "--dot-sd", "-", "--dot-tree", "-"]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"decompose_{name}.txt").read_text()


# -- the implicit DH build against the adjacency-set reference -------------------------------------


def _assert_same_as_reference(g):
    seq = pruning_sequence(g)
    mine = canonical_decomposition_dh(g, seq)
    reference = oracle.reference_canonical_decomposition_dh(g, seq)
    # block ids, marker ids, vertices, kinds, centres and edges, all equal
    assert mine == reference, g
    assert [b.edges for b in mine.blocks] == [b.edges for b in reference.blocks]
    assert [b.adj for b in mine.blocks] == [b.adj for b in reference.blocks]


def test_builders_list_edges_only_for_prime_blocks():
    # a clique's or a star's edges follow from its kind and centre
    decompositions = [oracle.brute_canonical_decomposition(g) for g in [cycle_graph(5), net_graph(), path_graph(6)]]
    decompositions.append(oracle.reference_canonical_decomposition_dh(net_graph(), pruning_sequence(net_graph())))
    decompositions.append(canonical_decomposition_dh(complete_graph(2), pruning_sequence(complete_graph(2))))
    blocks = [b for d in decompositions for b in d.blocks] + list(refine(cycle_graph(4), [0, 2]))
    assert {b.kind for b in blocks} == {"clique", "star", "prime"}
    for b in blocks:
        assert (b.listed_edges is not None) == (b.kind == "prime"), b
        assert b.edges == tuple(sorted(b.edges))


def test_equal_blocks_hash_equal():
    g = oracle.random_dh_graph(40, 3)
    mine = canonical_decomposition_dh(g, pruning_sequence(g))
    reference = oracle.reference_canonical_decomposition_dh(g, pruning_sequence(g))
    for a, b in zip(mine.blocks, reference.blocks):
        assert a == b and a is not b and hash(a) == hash(b)
    assert len(set(mine.blocks) | set(reference.blocks)) == len(mine.blocks)


def test_dh_build_equals_the_reference_on_connected_fixtures():
    for n in range(1, 8):
        for g in oracle.load_fixture_graphs(n):
            if len(connected_components(g)) == 1 and pruning_sequence(g) is not None:
                _assert_same_as_reference(g)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 60), st.integers(0, 10**6), st.booleans())
def test_dh_build_equals_the_reference_on_random_graphs(n, seed, width_one):
    make = oracle.random_lrw1_graph if width_one else oracle.random_dh_graph
    _assert_same_as_reference(make(n, seed))


def test_dh_build_equals_the_reference_on_cliques_and_complete_bipartite_graphs():
    for n in range(1, 31):
        _assert_same_as_reference(complete_graph(n))
    for a in range(1, 9):
        for b in range(1, 9):
            _assert_same_as_reference(Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)]))


def test_dh_build_equals_the_reference_on_the_obstruction_catalog():
    from lrw1.recognizer import dh_obstruction_catalog

    catalog = dh_obstruction_catalog()
    assert len(catalog) == 14
    for g in catalog:
        _assert_same_as_reference(g)


def test_recognition_lists_no_block_edges(monkeypatch, tmp_path, capsys):
    import lrw1.splitdec as splitdec_module
    from lrw1.recognizer import OrderingCertificate, recognize

    graphs = [oracle.random_lrw1_graph(2000, 1), complete_graph(300)]
    classified = []
    classify = splitdec_module._classify_adj

    def refuse(self):
        raise AssertionError("a block's edges were listed")

    with monkeypatch.context() as patch:
        patch.setattr(Block, "edges", property(refuse))
        patch.setattr(Block, "adj", property(refuse))
        patch.setattr(splitdec_module, "_classify_adj", lambda adj: classified.append(len(adj)) or classify(adj))
        for g in graphs:
            classified.clear()
            assert isinstance(recognize(g), OrderingCertificate)
            assert classified == [3]  # the seed block, once
    for g in graphs:
        path = tmp_path / "g.edges"
        path.write_text(serialize_graph(g))
        assert cli.main(["decompose", str(path), "--dot-sd", "-", "--dot-tree", "-"]) == 0
        reference = oracle.reference_canonical_decomposition_dh(g, pruning_sequence(g))
        assert decomposition_to_dot(reference) in capsys.readouterr().out


def test_validate_flags_marked_edges_on_a_cycle():
    # blocks 0 and 1 are joined by two marker pairs, so the block system has
    # a cycle through both marked edges and neither is an isthmus
    blocks = (
        Block(0, (-3, -1, 0), ((-3, -1), (-3, 0), (-1, 0)), "clique", None),
        Block(1, (-4, -2, 1), ((-4, -2), (-4, 1), (-2, 1)), "clique", None),
    )
    markers = ((-4, -3), (-2, -1))
    d = Decomposition(blocks, markers, Graph(2, [(0, 1)]))
    isthmus_issues = [v for v in validate_canonical(d) if v[0] == "marked-edge-not-isthmus"]
    assert isthmus_issues == [("marked-edge-not-isthmus", -4, -3), ("marked-edge-not-isthmus", -2, -1)]


# -- which sequences are replayed -----------------------------------------------------


def _counting_replays(monkeypatch):
    calls = []
    replay = splitdec.replay_pruning
    monkeypatch.setattr(splitdec, "replay_pruning", lambda g, seq: calls.append(seq) or replay(g, seq))
    return calls


def test_the_pruners_own_sequence_is_not_replayed(monkeypatch):
    calls = _counting_replays(monkeypatch)
    for g in [net_graph(), path_graph(6), complete_graph(5), oracle.random_dh_graph(40, 3)]:
        seq = pruning_sequence(g)
        assert seq.graph is g
        canonical_decomposition_dh(g, seq)
    assert calls == []


def test_a_hand_built_copy_of_the_sequence_is_replayed_once(monkeypatch):
    g = oracle.random_dh_graph(40, 5)
    seq = pruning_sequence(g)
    own = canonical_decomposition_dh(g, seq)
    calls = _counting_replays(monkeypatch)
    copy = PruningSequence(seq.steps, seq.last)
    assert copy.graph is None
    assert canonical_decomposition_dh(g, copy) == own
    assert calls == [copy]


def test_a_sequence_proved_on_an_equal_but_distinct_graph_is_replayed(monkeypatch):
    g = oracle.random_dh_graph(30, 2)
    twin = Graph(g.n, g.edges)
    assert twin == g and twin is not g
    seq = pruning_sequence(twin)
    calls = _counting_replays(monkeypatch)
    assert canonical_decomposition_dh(g, seq) == canonical_decomposition_dh(twin, seq)
    assert calls == [seq]


def test_a_tampered_sequence_is_rejected_by_the_build():
    g = path_graph(5)
    seq = pruning_sequence(g)
    last = seq.steps[-1]
    # the two survivors of the last step are adjacent, so they are no false twins
    bad = seq.steps[:-1] + (PruningStep(last.removed, "false_twin", last.anchor),)
    for tampered in [PruningSequence(bad, seq.last), dataclasses.replace(seq, steps=bad)]:
        assert tampered.graph is None
        with pytest.raises(InvalidSequence):
            canonical_decomposition_dh(g, tampered)
    with pytest.raises(InvalidSequence):
        canonical_decomposition_dh(g, PruningSequence(seq.steps[:-1], seq.last))


def test_the_recorded_graph_is_not_part_of_the_value():
    for g in [net_graph(), oracle.random_dh_graph(25, 4)]:
        seq = pruning_sequence(g)
        reference = oracle.reference_pruning_sequence(g)
        assert reference.graph is None
        assert seq == reference and hash(seq) == hash(reference)
        assert repr(seq) == repr(reference)
        assert repr(seq) == f"PruningSequence(steps={seq.steps!r}, last={seq.last!r})"


def test_decompose_replays_nothing_on_the_golden_inputs(monkeypatch, tmp_path, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("replay on the decompose path")

    monkeypatch.setattr(splitdec, "replay_pruning", refuse)
    graphs = {
        "net": net_graph(),
        "p6": path_graph(6),
        "k5": complete_graph(5),
        "cat": caterpillar_graph(3, [2, 0, 1]),
        "dh30": oracle.random_dh_graph(30, 1),
    }
    for name, graph in graphs.items():
        path = tmp_path / f"{name}.edges"
        path.write_text(serialize_graph(graph))
        assert cli.main(["decompose", str(path), "--dot-sd", "-", "--dot-tree", "-"]) == 0
        assert capsys.readouterr().out == (GOLDEN / f"decompose_{name}.txt").read_text()
