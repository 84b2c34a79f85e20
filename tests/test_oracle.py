"""The brute-force references themselves, cross-checked against one another."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import graphs
from lrw1 import oracle
from lrw1.errors import Disconnected, TooLarge
from lrw1.graph import (
    Graph,
    canonical_form,
    connected_components,
    induced_subgraph,
    is_isomorphic_small,
    local_complement,
)
from lrw1.named import (
    complete_graph,
    cycle_graph,
    disjoint_union,
    net_graph,
    octahedron_graph,
    path_graph,
    spider_graph,
    star_graph,
)
from lrw1.oracle import validate_canonical


# -- exact linear rank-width ------------------------------------------------------


def test_lrw_of_paths_is_1():
    for n in range(2, 9):
        assert oracle.brute_lrw(path_graph(n)) == 1


def test_lrw_of_known_obstructions_is_2():
    assert oracle.brute_lrw(cycle_graph(5)) == 2
    assert oracle.brute_lrw(net_graph()) == 2
    assert oracle.brute_lrw(octahedron_graph()) == 2


def test_lrw_single_vertex_and_empty():
    assert oracle.brute_lrw(Graph(1)) == 0
    assert oracle.brute_lrw(Graph(0)) == 0


def test_lrw_guard():
    with pytest.raises(TooLarge):
        oracle.brute_lrw(path_graph(11))


def test_lrw_search_equals_factorial_enumeration_up_to_5():
    for n in range(1, 6):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            g = Graph(n, [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1])
            assert oracle.brute_lrw(g) == oracle.brute_lrw_by_enumeration(g)


@settings(max_examples=20, deadline=None)
@given(graphs(min_n=6, max_n=6))
def test_lrw_search_equals_enumeration_random_6(g):
    assert oracle.brute_lrw(g) == oracle.brute_lrw_by_enumeration(g)


def test_lrw_ordering_achieves_the_value():
    from lrw1.gf2 import cutrank_of_ordering

    for g in [path_graph(6), cycle_graph(5), net_graph(), spider_graph(), star_graph(5)]:
        value, order = oracle.brute_lrw_ordering(g)
        assert cutrank_of_ordering(g, order) == value


@settings(max_examples=40, deadline=None)
@given(graphs(max_n=4), graphs(max_n=4))
def test_lrw_of_disjoint_union_is_max(a, b):
    u = disjoint_union(a, b)
    assert oracle.brute_lrw(u) == max(oracle.brute_lrw(a), oracle.brute_lrw(b))


@settings(max_examples=40, deadline=None)
@given(graphs(min_n=1, max_n=7), st.data())
def test_lrw_monotone_under_deletion(g, data):
    v = data.draw(st.integers(0, g.n - 1))
    rest = induced_subgraph(g, [u for u in range(g.n) if u != v])
    assert oracle.brute_lrw(rest) <= oracle.brute_lrw(g)


def test_lrw_drops_by_at_most_one_under_deletion_up_to_7():
    # an ordering of G - v followed by v adds one column to each prefix cut;
    # the verifier relies on this bound instead of a width-2 search
    for n in range(1, 8):
        for g in oracle.load_fixture_graphs(n):
            width = oracle.brute_lrw(g)
            for v in range(n):
                rest = induced_subgraph(g, [u for u in range(n) if u != v])
                assert width <= oracle.brute_lrw(rest) + 1, (g, v)


def test_member_table_lists_the_ascending_bits_of_every_mask():
    assert len(oracle._MEMBERS) == 1 << oracle._LRW_GUARD
    for m, members in enumerate(oracle._MEMBERS):
        assert members == tuple(oracle._bits(m)), m


def test_lrw_at_most_equals_the_exact_width_up_to_7():
    for n in range(8):
        for g in oracle.load_fixture_graphs(n) if n else [Graph(0)]:
            width = oracle.brute_lrw(g)
            for k in range(4):
                assert oracle.lrw_at_most(g, k) == (width <= k), (g, k)


def test_lrw_at_most_guard():
    oracle.lrw_at_most(path_graph(10), 1)
    with pytest.raises(TooLarge):
        oracle.lrw_at_most(path_graph(11), 1)


# -- splits --------------------------------------------------------------------------


def test_c5_is_prime():
    assert oracle.brute_splits(cycle_graph(5)) == []


def test_c4_splits():
    # exhaustive over all bipartitions: only the opposite pairs work, the
    # side-by-side bipartitions have two independent crossing edges
    assert oracle.brute_splits(cycle_graph(4)) == [(0, 2)]


def test_c4_single_split_is_strong():
    assert oracle.brute_strong_splits(cycle_graph(4)) == [(0, 2)]


def test_cliques_and_stars_have_only_overlapping_splits():
    # every split of K4 or of a 4-star is overlapped by another one
    assert oracle.brute_splits(complete_graph(4)) == [(0, 1), (0, 2), (0, 3)]
    assert oracle.brute_strong_splits(complete_graph(4)) == []
    assert len(oracle.brute_splits(star_graph(4))) == 3
    assert oracle.brute_strong_splits(star_graph(4)) == []


def test_p4_strong_split():
    assert oracle.brute_strong_splits(path_graph(4)) == [(0, 1)]


def test_splits_require_connected():
    with pytest.raises(Disconnected):
        oracle.brute_splits(disjoint_union(path_graph(2), path_graph(2)))


# -- top-down canonical decomposition ---------------------------------------------------


def test_brute_canonical_kn_single_block():
    for n in [3, 4, 5]:
        d = oracle.brute_canonical_decomposition(complete_graph(n))
        assert len(d.blocks) == 1 and d.blocks[0].kind == "clique"


def test_brute_canonical_net_is_star3():
    from lrw1.splitdec import split_tree

    d = oracle.brute_canonical_decomposition(net_graph())
    assert validate_canonical(d) == []
    t = split_tree(d)
    assert sorted(t.degree(n.id) for n in t.nodes) == [1, 1, 1, 3]


def test_brute_canonical_validates_on_primes():
    for g in [cycle_graph(5), cycle_graph(6), cycle_graph(7)]:
        d = oracle.brute_canonical_decomposition(g)
        assert len(d.blocks) == 1
        assert d.blocks[0].kind == "prime"
        assert validate_canonical(d) == []


def test_rank_width_one_iff_dh_up_to_7():
    # connected graph is DH exactly when its canonical blocks are all
    # cliques and stars
    from lrw1.dh import is_distance_hereditary

    for n in range(1, 8):
        for g in oracle.load_fixture_graphs(n):
            if n > 1 and len(connected_components(g)) != 1:
                continue
            d = oracle.brute_canonical_decomposition(g)
            assert validate_canonical(d) == []
            # one- and two-vertex whole-graph blocks count as degenerate
            total = all(
                b.kind in ("clique", "star") or len(b.vertices) <= 2 for b in d.blocks
            )
            assert total == is_distance_hereditary(g), g


# -- local equivalence orbits --------------------------------------------------------------


def test_orbit_of_k1():
    assert oracle.local_equivalence_orbit(Graph(1)) == frozenset({Graph(1)})


def test_orbit_of_p3_contains_k3():
    assert complete_graph(3) in oracle.local_equivalence_orbit(path_graph(3))


def test_orbit_guard_and_cap():
    with pytest.raises(TooLarge):
        oracle.local_equivalence_orbit(path_graph(9))
    from lrw1.errors import CapExceeded

    with pytest.raises(CapExceeded):
        oracle.local_equivalence_orbit(cycle_graph(6), cap=2)


def _is_tree(g):
    return g.edge_count() == g.n - 1 and len(connected_components(g)) == 1


def test_caterpillar_orbits_contain_one_tree_up_to_iso():
    from lrw1.named import caterpillar_graph

    for cat in [path_graph(5), caterpillar_graph(3, [1, 1, 0]), caterpillar_graph(2, [2, 1])]:
        orbit = oracle.local_equivalence_orbit(cat)
        tree_keys = {canonical_form(g) for g in orbit if _is_tree(g)}
        assert tree_keys == {canonical_form(cat)}


# -- vertex-minors -----------------------------------------------------------------------------


def test_k1_is_vertex_minor_of_anything_nonempty():
    assert oracle.has_vertex_minor(net_graph(), Graph(1))


def test_c5_contains_itself():
    assert oracle.has_vertex_minor(cycle_graph(5), cycle_graph(5))


def test_p7_has_no_net_minor():
    assert not oracle.has_vertex_minor(path_graph(7), net_graph())


def test_spider_contains_one_of_the_three():
    targets = [cycle_graph(5), net_graph(), octahedron_graph()]
    assert oracle.has_any_vertex_minor(spider_graph(), targets)


def test_forward_search_matches_reverse_closure_up_to_6():
    targets = [cycle_graph(5), net_graph(), octahedron_graph()]
    bad = oracle.graphs_with_vertex_minor(targets, 6)
    for n in range(1, 7):
        for g in oracle.load_fixture_graphs(n):
            if n > 1 and len(connected_components(g)) != 1:
                continue
            assert oracle.has_any_vertex_minor(g, targets) == (canonical_form(g) in bad), g


# -- distance-based DH test ---------------------------------------------------------------------


def test_trees_pass_distance_test():
    assert oracle.is_dh_by_distances(path_graph(7))
    assert oracle.is_dh_by_distances(star_graph(6))


def test_c5_fails_distance_test():
    assert not oracle.is_dh_by_distances(cycle_graph(5))


# -- generators ---------------------------------------------------------------------------------


def test_random_dh_graph_basics():
    from lrw1.dh import is_distance_hereditary

    assert oracle.random_dh_graph(1, 0) == Graph(1)
    for seed in range(30):
        g = oracle.random_dh_graph(12, seed)
        assert len(connected_components(g)) == 1
        assert is_distance_hereditary(g)
    assert oracle.random_dh_graph(9, 42) == oracle.random_dh_graph(9, 42)


def test_random_lrw1_graph_has_width_at_most_1():
    for seed in range(20):
        g = oracle.random_lrw1_graph(9, seed)
        assert oracle.brute_lrw(g) <= 1
    assert oracle.random_lrw1_graph(50, 7) == oracle.random_lrw1_graph(50, 7)


def test_random_branching_dh_graph_branches():
    from lrw1.dh import pruning_sequence
    from lrw1.splitdec import canonical_decomposition_dh, split_tree

    for seed in range(10):
        g = oracle.random_branching_dh_graph(15, seed)
        t = split_tree(canonical_decomposition_dh(g, pruning_sequence(g)))
        assert not t.is_path()


# -- enumeration and fixtures ---------------------------------------------------------------------


KNOWN_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}
KNOWN_CONNECTED = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}


def test_enumeration_counts_up_to_6():
    for n in range(1, 7):
        gs = oracle.enumerate_graphs(n)
        assert len(gs) == KNOWN_COUNTS[n]
        assert len({canonical_form(g) for g in gs}) == len(gs)
        assert len(oracle.enumerate_connected_graphs(n)) == KNOWN_CONNECTED[n]


def test_fixture_files_match_enumeration_up_to_6():
    for n in range(1, 7):
        fixed = oracle.load_fixture_graphs(n)
        fresh = oracle.enumerate_graphs(n)
        assert {canonical_form(g) for g in fixed} == {canonical_form(g) for g in fresh}


def test_fixture_counts_include_853_connected_on_7():
    gs = oracle.load_fixture_graphs(7)
    assert len(gs) == KNOWN_COUNTS[7]
    connected = [g for g in gs if len(connected_components(g)) == 1]
    assert len(connected) == KNOWN_CONNECTED[7]


def test_iso_duplicates_absent_in_fixture_7():
    keys = {canonical_form(g) for g in oracle.load_fixture_graphs(7)}
    assert len(keys) == KNOWN_COUNTS[7]
