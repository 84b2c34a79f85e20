"""The benchmark's independent checker accepts good certificates and rejects corrupted ones.

    python3 -m pytest bench/test_checker.py
"""

from __future__ import annotations

import random

import pytest

import checker
import gen


def graph(n: int, edges) -> list[set[int]]:
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def path(n: int) -> list[set[int]]:
    return graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> list[set[int]]:
    return graph(n, [(i, (i + 1) % n) for i in range(n)])


NET = graph(6, gen.NET_EDGES)


def test_gf2_rank():
    assert checker.gf2_rank([]) == 0
    assert checker.gf2_rank([0b110, 0b011, 0b101]) == 2
    assert checker.gf2_rank([0b100, 0b010, 0b001, 0b111]) == 3


def test_linear_rank_width_of_known_graphs():
    assert checker.linear_rank_width(graph(1, [])) == 0
    assert checker.linear_rank_width(path(6)) == 1
    assert checker.linear_rank_width(cycle(5)) == 2
    assert checker.linear_rank_width(NET) == 2
    assert checker.linear_rank_width(graph(4, [(0, 1), (0, 2), (0, 3)])) == 1


def test_ordering_accepted_and_rank_two_cut_rejected():
    adj = path(6)
    assert checker.check_ordering(adj, [0, 1, 2, 3, 4, 5]) is None
    # after {0, 2} both cross the cut, 0 to {1} and 2 to {1, 3}: rank 2
    assert "rank 2" in checker.check_ordering(adj, [0, 2, 1, 3, 4, 5])


def test_ordering_must_be_a_permutation():
    adj = path(4)
    assert checker.check_ordering(adj, [0, 1, 2]) is not None
    assert checker.check_ordering(adj, [0, 1, 1, 3]) is not None
    assert checker.check_ordering(adj, [0, 1, 2, "3"]) is not None


def test_obstructions_of_every_family_accepted():
    house = graph(*checker.SHAPES["house"])
    assert checker.check_obstruction(house, range(5), "house") is None
    assert checker.check_obstruction(graph(*checker.SHAPES["gem"]), range(5), "gem") is None
    assert checker.check_obstruction(graph(*checker.SHAPES["domino"]), range(6), "domino") is None
    assert checker.check_obstruction(cycle(7), range(7), "hole") is None
    assert checker.check_obstruction(cycle(12), range(12), "hole") is None
    assert checker.check_obstruction(NET, range(6), "dh_star3") is None


def test_obstruction_with_a_vertex_dropped_rejected():
    assert checker.check_obstruction(cycle(6), range(5), "hole") is not None
    assert checker.check_obstruction(NET, range(5), "dh_star3") is not None
    house = graph(*checker.SHAPES["house"])
    assert checker.check_obstruction(house, [0, 1, 2, 3], "house") is not None


def test_obstruction_with_a_vertex_added_rejected():
    net_plus = graph(7, list(gen.NET_EDGES) + [(3, 6)])
    assert checker.check_obstruction(net_plus, range(7), "dh_star3") == (
        "deleting vertex 6 keeps width 2: not minimal"
    )
    hole_plus = graph(6, [(i, (i + 1) % 5) for i in range(5)] + [(0, 5)])
    assert checker.check_obstruction(hole_plus, range(6), "hole") is not None
    assert checker.check_obstruction(cycle(5), [0, 1, 2, 3, 4, 4], "hole") is not None


def test_obstruction_with_the_wrong_family_rejected():
    house = graph(*checker.SHAPES["house"])
    assert checker.check_obstruction(house, range(5), "gem") is not None
    assert checker.check_obstruction(house, range(5), "hole") is not None
    assert checker.check_obstruction(cycle(5), range(5), "house") is not None
    assert checker.check_obstruction(cycle(5), range(5), "dh_star3") is not None
    assert checker.check_obstruction(NET, range(6), "domino") is not None
    assert checker.check_obstruction(NET, range(6), "octahedron") is not None


def test_long_hole_must_be_chordless():
    chorded = graph(12, [(i, (i + 1) % 12) for i in range(12)] + [(0, 6)])
    assert checker.check_obstruction(chorded, range(12), "hole") is not None


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_generated_cases_match_their_known_answers(workload):
    for index in range(gen.WORKLOADS[workload]):
        case = gen.make_case(workload, 7, index)
        assert case == gen.make_case(workload, 7, index)
        n = len(case.adj)
        assert all(v not in case.adj[v] and all(v in case.adj[u] for u in case.adj[v])
                   for v in range(n))
        if case.vertices is not None:
            assert checker.check_obstruction(case.adj, case.vertices, case.family) is None
        if workload == "dense_dh_reject":
            lo, hi = gen.DENSE_M_PER_N
            assert lo * n <= sum(map(len, case.adj)) // 2 <= hi * n


def test_verdict_compared_with_the_known_answer():
    rng = random.Random(3)
    adj, family, vertices = gen.buried(rng, "house", 30)
    case = gen.Case(adj, "edge-list", "lrw_ge_2", family=family, vertices=vertices)
    good = {"status": "lrw_ge_2", "obstruction": {"vertices": list(vertices), "family": family}}
    assert checker.check_verdict(case, 1, good) is None
    assert checker.check_verdict(case, 0, good) is not None
    assert checker.check_verdict(case, 1, {"status": "lrw_le_1", "ordering": list(range(30))}) is not None
    wrong_family = {"status": "lrw_ge_2", "obstruction": {"vertices": list(vertices), "family": "gem"}}
    assert checker.check_verdict(case, 1, wrong_family) is not None
    other = [v for v in range(30) if v not in vertices][:5]
    elsewhere = {"status": "lrw_ge_2", "obstruction": {"vertices": other, "family": family}}
    assert "planted" in checker.check_verdict(case, 1, elsewhere)
    assert checker.check_verdict(case, 1, None) is not None
