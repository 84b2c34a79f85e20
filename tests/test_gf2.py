"""GF(2) rank, cut rows and cut ranks of cuts and orderings."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import graphs
from lrw1 import cli, oracle
from lrw1.errors import InvalidVertex, NotAPermutation
from lrw1.gf2 import cut_rows, cutrank_of_cut, cutrank_of_ordering, rank_of_rows
from lrw1.named import caterpillar_graph, cycle_graph, disjoint_union, path_graph
from lrw1.graph import Graph, connected_components, serialize_graph
from lrw1.recognizer import recognize, verify_certificate


# -- rank ---------------------------------------------------------------------


def test_rank_zero_matrix():
    assert rank_of_rows([0, 0]) == 0


def test_rank_identical_rows():
    assert rank_of_rows([0b11, 0b11]) == 1


def test_rank_identity():
    assert rank_of_rows([0b01, 0b10]) == 2


def test_rank_of_rows_basic():
    assert rank_of_rows([]) == 0
    assert rank_of_rows([0b101, 0b011, 0b110]) == 2  # third row is the XOR


bit_matrices = st.integers(1, 6).flatmap(
    lambda c: st.lists(st.integers(0, (1 << c) - 1), min_size=0, max_size=6).map(lambda rows: (rows, c))
)


@settings(max_examples=100)
@given(bit_matrices)
def test_rank_equals_transpose_rank(data):
    rows, cols = data
    columns = [sum(((row >> c) & 1) << r for r, row in enumerate(rows)) for c in range(cols)]
    assert rank_of_rows(rows) == rank_of_rows(columns)
    assert rank_of_rows(rows) <= min(len(rows), cols)


# -- cut matrices -----------------------------------------------------------------


def test_cut_matrix_whole_side_has_no_columns():
    assert cut_rows(path_graph(3).adj, (0, 1, 2), ()) == [0, 0, 0]
    assert cutrank_of_cut(path_graph(3), [0, 1, 2]) == 0


def test_cut_matrix_c4_opposite_pair():
    assert cut_rows(cycle_graph(4).adj, (0, 2), (1, 3)) == [0b11, 0b11]
    assert cutrank_of_cut(cycle_graph(4), [0, 2]) == 1


def test_cut_matrix_p3_single_vertex():
    assert cut_rows(path_graph(3).adj, (0,), (1, 2)) == [0b01]
    assert cutrank_of_cut(path_graph(3), [0]) == 1


def test_cut_matrix_rejects_bad_vertex():
    with pytest.raises(InvalidVertex):
        cutrank_of_cut(path_graph(3), [5])


# -- cut ranks ----------------------------------------------------------------------


def test_cutrank_empty_side():
    assert cutrank_of_cut(cycle_graph(5), []) == 0


def test_cutrank_c5_adjacent_pairs():
    c5 = cycle_graph(5)
    for pair in itertools.combinations(range(5), 2):
        if c5.has_edge(*pair):
            assert cutrank_of_cut(c5, pair) == 2


def test_cutrank_c4_opposite():
    assert cutrank_of_cut(cycle_graph(4), [0, 2]) == 1


@settings(max_examples=40, deadline=None)
@given(graphs(min_n=1, max_n=8))
def test_cutrank_complement_symmetry_exhaustive(g):
    for mask in range(1 << g.n):
        side = [v for v in range(g.n) if (mask >> v) & 1]
        rest = [v for v in range(g.n) if not (mask >> v) & 1]
        rk = cutrank_of_cut(g, side)
        assert rk == cutrank_of_cut(g, rest)
        assert rk <= min(len(side), len(rest))


# -- ordering cut rank ------------------------------------------------------------------


def test_ordering_p4_natural():
    assert cutrank_of_ordering(path_graph(4), [0, 1, 2, 3]) == 1


def test_ordering_single_vertex():
    assert cutrank_of_ordering(Graph(1), [0]) == 0


def test_ordering_c5_minimum_over_all_orderings_is_2():
    c5 = cycle_graph(5)
    widths = [cutrank_of_ordering(c5, p) for p in itertools.permutations(range(5))]
    assert len(widths) == 120
    assert min(widths) == 2


def test_ordering_requires_permutation():
    with pytest.raises(NotAPermutation):
        cutrank_of_ordering(path_graph(3), [0, 1])
    with pytest.raises(NotAPermutation):
        cutrank_of_ordering(path_graph(3), [0, 1, 1])


@settings(max_examples=60)
@given(graphs(min_n=1, max_n=7), st.data())
def test_ordering_reverse_symmetry(g, data):
    order = data.draw(st.permutations(range(g.n)))
    assert cutrank_of_ordering(g, order) == cutrank_of_ordering(g, list(reversed(order)))


# -- the incremental basis against the cut-by-cut definition ----------------------------


def _reference_width(g, order, memo=None):
    """max(cutrank_of_cut(g, order[:i]) for i in 1..n-1), or 0; memo keys prefix sets."""
    memo = {} if memo is None else memo
    best = 0
    for i in range(1, g.n):
        side = frozenset(order[:i])
        if side not in memo:
            memo[side] = cutrank_of_cut(g, side)
        best = max(best, memo[side])
    return best


def _random_graph(rng, n, density):
    return Graph(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < density])


def test_ordering_matches_reference_on_every_permutation_up_to_6():
    widths = set()
    for n in range(1, 7):
        for g in oracle.load_fixture_graphs(n):
            if len(connected_components(g)) != 1:
                continue
            memo = {}
            for order in itertools.permutations(range(n)):
                width = cutrank_of_ordering(g, order)
                assert width == _reference_width(g, order, memo), (g, order)
                widths.add(width)
    assert widths == {0, 1, 2, 3}


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 40), st.floats(0.2, 1.0), st.integers(0, 2**32))
def test_ordering_matches_reference_on_dense_graphs(n, density, seed):
    # widths of 2 and more, where each new pivot is eliminated from the other rows
    rng = random.Random(seed)
    g = _random_graph(rng, n, density)
    order = rng.sample(range(n), n)
    assert cutrank_of_ordering(g, order) == _reference_width(g, order)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 12), st.floats(0.0, 1.0)), min_size=2, max_size=4), st.integers(0, 2**32))
def test_ordering_matches_reference_on_disconnected_graphs(parts, seed):
    rng = random.Random(seed)
    g = disjoint_union(*(_random_graph(rng, n, density) for n, density in parts))
    order = rng.sample(range(g.n), g.n)
    assert cutrank_of_ordering(g, order) == _reference_width(g, order)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 40), st.integers(0, 10**6))
def test_ordering_matches_reference_on_recognised_orderings(n, seed):
    g = oracle.random_lrw1_graph(n, seed)
    order = recognize(g).order
    width = cutrank_of_ordering(g, order)
    assert width == _reference_width(g, order)
    assert width <= 1


def test_ordering_check_builds_no_adjacency_masks(monkeypatch):
    g = oracle.random_lrw1_graph(2000, 3)
    cert = recognize(g)

    def refuse(self):
        raise AssertionError("the ordering check must not build n-bit rows")

    monkeypatch.setattr(Graph, "adjacency_masks", refuse)
    assert verify_certificate(g, cert)
    assert cutrank_of_ordering(g, cert.order) == 1


def test_verify_of_a_20000_vertex_caterpillar(tmp_path, capsys):
    # rescoring every prefix cut from scratch is quadratic here; the basis is linear
    path = tmp_path / "cat.edges"
    path.write_text(serialize_graph(caterpillar_graph(5000, [3] * 5000)))
    assert cli.main(["recognize", "--json", str(path)]) == 0
    plain = capsys.readouterr().out
    assert cli.main(["recognize", "--json", "--verify", str(path)]) == 0
    assert capsys.readouterr().out == plain
