"""Graph construction, parsing, surgery and small-graph isomorphism."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import connected_graphs, graphs, relabelled_edge_set
from lrw1.errors import InvalidVertex, NotAnEdge, ParseError, TooLarge
from lrw1.graph import (
    Graph,
    canonical_form,
    connected_components,
    induced_subgraph,
    is_isomorphic_small,
    local_complement,
    parse_graph,
    pivot,
    serialize_graph,
    to_graph6,
    two_core,
)
from lrw1.named import (
    complete_graph,
    cycle_graph,
    disjoint_union,
    net_graph,
    path_graph,
    spider_graph,
    star_graph,
)


# -- parsing -----------------------------------------------------------------


def test_parse_edge_list_p3():
    g = parse_graph("3 2\n0 1\n1 2")
    assert g == path_graph(3)


def test_parse_edge_list_comments_and_blank_lines():
    g = parse_graph("# a path\n\n3 2\n0 1\n# middle\n1 2\n")
    assert g == path_graph(3)


def test_parse_edge_list_loop_rejected():
    with pytest.raises(ParseError) as err:
        parse_graph("2 1\n0 0")
    assert "loop" in str(err.value)


def test_parse_edge_list_duplicate_rejected():
    with pytest.raises(ParseError):
        parse_graph("3 2\n0 1\n1 0")


def test_parse_edge_list_out_of_range():
    with pytest.raises(ParseError):
        parse_graph("2 1\n0 5")


def test_parse_edge_list_bad_counts():
    with pytest.raises(ParseError):
        parse_graph("3 2\n0 1")
    with pytest.raises(ParseError):
        parse_graph("nonsense")


def test_parse_graph6_five_vertices_round_trip():
    g = parse_graph("D~{", "graph6")
    assert g.n == 5
    assert serialize_graph(g, "graph6").strip() == "D~{"


def test_parse_graph6_header():
    g = parse_graph(">>graph6<<D~{", "graph6")
    assert g.n == 5


def test_parse_graph6_garbage():
    with pytest.raises(ParseError):
        parse_graph("D~", "graph6")
    with pytest.raises(ParseError):
        parse_graph("\x07!", "graph6")
    with pytest.raises(ParseError, match="padding"):
        parse_graph("A`", "graph6")


@pytest.mark.parametrize("text, fmt, reason, line", [
    (b"3 2\n0 1\n\xff 2\n", "edge-list",
     "input is not ASCII: 'ascii' codec can't decode byte 0xff in position 8: ordinal not in range(128)", None),
    ("", "edge-list", "missing header line 'n m'", None),
    ("# only a comment\n\n   \n", "edge-list", "missing header line 'n m'", None),
    ("# header next\n\n3\n", "edge-list", "header must be 'n m'", 3),
    ("3 2 1\n0 1\n1 2\n", "edge-list", "header must be 'n m'", 1),
    ("x 2\n0 1\n1 2\n", "edge-list", "header must contain two integers", 1),
    ("3 -1\n", "edge-list", "header counts must be non-negative", 1),
    ("3 2\n0 1\n", "edge-list", "expected 2 edge lines, found 1", None),
    # a wrong count is reported before the bad edge line that comes first
    ("3 2\n0 x\n", "edge-list", "expected 2 edge lines, found 1", None),
    ("3 1\n0 1\n1 2\n", "edge-list", "expected 1 edge lines, found 2", None),
    ("3 2\n# c\n0 1\n\n1 2 3\n", "edge-list", "edge line must be 'u v'", 5),
    ("3 2\n0 1\n1\n", "edge-list", "edge line must be 'u v'", 3),
    ("3 2\n0 1\n1 two\n", "edge-list", "edge endpoints must be integers", 3),
    ("3 2\n0 1\n1.0 2\n", "edge-list", "edge endpoints must be integers", 3),
    ("3 2\n0 1\n1 3\n", "edge-list", "vertex out of range in edge (1,3)", 3),
    ("3 2\n-1 1\n1 2\n", "edge-list", "vertex out of range in edge (-1,1)", 2),
    ("3 2\n0 1\n2 2\n", "edge-list", "loop edge at vertex 2", 3),
    ("3 2\r\n0 1\r\n1 0\r\n", "edge-list", "duplicate edge (1,0)", 3),
    ("3 3\n0 1\n1 2\n\n2 1\n", "edge-list", "duplicate edge (2,1)", 5),
    ("", "graph6", "empty graph6 input", None),
    (">>graph6<<\n", "graph6", "empty graph6 input", None),
    ("D~ {", "graph6", "graph6 input must be a single token", None),
    ("D~\u2003{", "graph6", "graph6 input must be a single token", None),
    ("\x07!", "graph6", "invalid graph6 character", None),
    ("D~\x7f", "graph6", "invalid graph6 character", None),
    # a str that is not ASCII: a decoder that encodes it raises UnicodeEncodeError
    ("D~\xe9", "graph6", "invalid graph6 character", None),
    ("~", "graph6", "truncated graph6 vertex count", None),
    ("~~???", "graph6", "truncated graph6 vertex count", None),
    ("D~", "graph6", "graph6 body has 1 groups, expected 2", None),
    ("~?@???", "graph6", "graph6 body has 2 groups, expected 336", None),
    ("A`", "graph6", "nonzero padding bits in graph6 input", None),
])
def test_every_parse_error_keeps_its_reason_and_line(text, fmt, reason, line):
    with pytest.raises(ParseError) as err:
        parse_graph(text, fmt)
    assert (err.value.reason, err.value.line) == (reason, line)


def test_graph6_round_trip_beyond_62_vertices():
    rng = random.Random(62)
    for n in (63, 64, 130):
        g = Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.1])
        text = to_graph6(g)
        assert text.startswith("~")
        assert parse_graph(text, "graph6") == g


@settings(max_examples=60)
@given(graphs(max_n=20))
def test_round_trip_both_formats(g):
    assert parse_graph(serialize_graph(g, "edge-list"), "edge-list") == g
    assert parse_graph(serialize_graph(g, "graph6"), "graph6") == g


# -- induced subgraphs ----------------------------------------------------------


def test_induced_identity():
    g = cycle_graph(5)
    assert induced_subgraph(g, range(5)) == g


def test_induced_c5_three_consecutive_is_p3():
    assert induced_subgraph(cycle_graph(5), [0, 1, 2]) == path_graph(3)


def test_induced_net_triangle_is_k3():
    s = [2, 0, 1]
    sub = induced_subgraph(net_graph(), s)
    assert sub == complete_graph(3)
    assert relabelled_edge_set(sub, sorted(s)) == {frozenset(e) for e in [(0, 1), (0, 2), (1, 2)]}


def test_induced_rejects_foreign_vertex():
    with pytest.raises(InvalidVertex):
        induced_subgraph(path_graph(3), [0, 7])


def test_induced_on_every_vertex_is_the_graph_itself():
    g = net_graph()
    assert induced_subgraph(g, range(6)) is g
    assert induced_subgraph(g, [5, 3, 1, 0, 2, 4]) is g
    assert induced_subgraph(g, [4, 4, 0, 1, 2, 3, 5, 0]) is g
    empty = Graph(0)
    assert induced_subgraph(empty, []) is empty


def test_induced_on_a_proper_subset_is_a_fresh_graph():
    g = complete_graph(4)
    sub = induced_subgraph(g, [0, 1, 2])
    assert sub is not g and sub == complete_graph(3)
    single = Graph(1)
    assert induced_subgraph(single, []) == Graph(0)


def test_induced_checks_the_range_before_the_whole_set_shortcut():
    # n ids, all distinct, one of them out of range: not the whole vertex set
    with pytest.raises(InvalidVertex):
        induced_subgraph(path_graph(3), [0, 1, 3])
    with pytest.raises(InvalidVertex):
        induced_subgraph(path_graph(3), [-1, 1, 2])


@settings(max_examples=60)
@given(graphs(max_n=8), st.data())
def test_induced_monotone_via_labels(g, data):
    s = data.draw(st.sets(st.integers(0, max(g.n - 1, 0)).filter(lambda v: v < g.n)))
    t = data.draw(st.sets(st.sampled_from(sorted(s)))) if s else set()
    gs = induced_subgraph(g, s)
    vs = sorted(s)
    inner = sorted(vs.index(v) for v in t)
    nested = induced_subgraph(gs, inner)
    direct = induced_subgraph(g, t)
    back = [vs[i] for i in inner]
    assert relabelled_edge_set(nested, back) == relabelled_edge_set(direct, sorted(t))
    assert back == sorted(t)


@settings(max_examples=60)
@given(graphs(max_n=9), st.data())
def test_two_core_of_a_subset_is_the_two_core_of_its_induced_subgraph(g, data):
    s = data.draw(st.sets(st.sampled_from(range(g.n)))) if g.n else set()
    sub = induced_subgraph(g, s)
    assert two_core(g, s) == [sorted(s)[v] for v in two_core(sub)]
    assert two_core(g, range(g.n)) == two_core(g)


# -- local complementation and pivoting --------------------------------------------


def test_local_complement_p3_centre_gives_k3():
    assert local_complement(path_graph(3), 1) == complete_graph(3)


def test_local_complement_k3_gives_star():
    assert local_complement(complete_graph(3), 0) == Graph(3, [(0, 1), (0, 2)])


@settings(max_examples=80)
@given(graphs(min_n=1, max_n=8), st.data())
def test_local_complement_is_involution(g, data):
    x = data.draw(st.integers(0, g.n - 1))
    assert local_complement(local_complement(g, x), x) == g


def test_pivot_requires_edge():
    with pytest.raises(NotAnEdge):
        pivot(path_graph(3), 0, 2)


def _all_graphs_upto_5():
    import itertools

    for n in range(2, 6):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            yield Graph(n, [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1])


def test_pivot_laws_exhaustive_up_to_5():
    # definitional equality, symmetry in the edge, and involution
    for g in _all_graphs_upto_5():
        for u, v in g.edges:
            p = pivot(g, u, v)
            assert p == local_complement(local_complement(local_complement(g, u), v), u)
            assert p == pivot(g, v, u)
            assert pivot(p, u, v) == g


# -- components -------------------------------------------------------------------


def test_components_empty():
    assert connected_components(Graph(0)) == []


def test_components_k3():
    assert connected_components(complete_graph(3)) == [(0, 1, 2)]


def test_components_three_disjoint_edges():
    g = disjoint_union(path_graph(2), path_graph(2), path_graph(2))
    assert connected_components(g) == [(0, 1), (2, 3), (4, 5)]


@given(st.lists(connected_graphs(max_n=6), min_size=1, max_size=4), st.data())
def test_components_of_a_shuffled_disjoint_union_match_a_union_find(parts, data):
    union = disjoint_union(*parts)
    perm = data.draw(st.permutations(range(union.n)))
    g = Graph(union.n, [(perm[u], perm[v]) for u, v in union.edges])
    root = list(range(g.n))

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    for u, v in g.edges:
        root[find(u)] = find(v)
    comps = connected_components(g)
    assert sorted(v for comp in comps for v in comp) == list(range(g.n))
    assert all(list(comp) == sorted(comp) for comp in comps)
    assert [comp[0] for comp in comps] == sorted(comp[0] for comp in comps)
    part = {v: i for i, comp in enumerate(comps) for v in comp}
    assert all(part[u] == part[v] for u, v in g.edges)
    assert all(len({find(v) for v in comp}) == 1 for comp in comps)
    assert len(comps) == len({find(v) for v in range(g.n)}) == len(parts)


# -- isomorphism ---------------------------------------------------------------------


def test_iso_c5_relabelled():
    c5 = cycle_graph(5)
    relabelled = Graph(5, [(2, 4), (4, 1), (1, 3), (3, 0), (0, 2)])
    assert is_isomorphic_small(c5, relabelled)


def test_iso_c5_vs_p5():
    assert not is_isomorphic_small(cycle_graph(5), path_graph(5))


def test_iso_net_vs_spider_minus_leaf():
    other = induced_subgraph(spider_graph(3, 2), range(6))
    assert sorted(map(len, net_graph().adj)) != sorted(map(len, other.adj))
    assert not is_isomorphic_small(net_graph(), other)


def test_iso_guard():
    with pytest.raises(TooLarge):
        is_isomorphic_small(path_graph(11), path_graph(11))


@settings(max_examples=40)
@given(graphs(min_n=1, max_n=7), st.data())
def test_canonical_form_matches_isomorphism(g, data):
    perm = data.draw(st.permutations(range(g.n)))
    h = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])
    assert canonical_form(g) == canonical_form(h)
    assert is_isomorphic_small(g, h)


def test_graph_equality_and_hash_depend_on_n_and_the_edge_set_only():
    a = Graph(3, [(0, 1), (1, 2)])
    # the same edge set, given in another order, and taken as an induced subgraph
    for b in [Graph(3, [(2, 1), (1, 0)]), induced_subgraph(path_graph(4), [1, 2, 3])]:
        assert a == b and hash(a) == hash(b)
    assert a != Graph(3, [(0, 1), (0, 2)]) and is_isomorphic_small(a, Graph(3, [(0, 1), (0, 2)]))
    assert a != Graph(4, a.edges)


def test_star_is_not_complete():
    assert star_graph(4) != complete_graph(4)
