"""Distance-hereditary recognition, pruning sequences, minimal obstructions."""

import json
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import hung_c5

from lrw1 import cli, dh, oracle
from lrw1 import graph as graph_module
from lrw1.dh import (
    PruningStep,
    is_distance_hereditary,
    minimal_non_dh_family,
    non_dh_obstruction,
    pruning_sequence,
    replay_pruning,
)
from lrw1.errors import AlreadyDH, Disconnected, InvalidSequence
from lrw1.graph import (
    Graph,
    connected_components,
    induced_subgraph,
    is_isomorphic_small,
    reach,
    serialize_graph,
    two_core,
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
from lrw1.recognizer import recognize


def test_k1_has_empty_sequence():
    seq = pruning_sequence(Graph(1))
    assert seq.steps == () and seq.last == 0


def test_disconnected_rejected():
    with pytest.raises(Disconnected):
        pruning_sequence(disjoint_union(path_graph(2), path_graph(2)))
    with pytest.raises(Disconnected):
        pruning_sequence(Graph(0))


def test_trees_prune_by_pendants_only():
    for g in [path_graph(6), caterpillar_graph(4, [1, 0, 2, 1])]:
        seq = pruning_sequence(g)
        assert seq is not None
        assert all(s.kind == "pendant" for s in seq.steps)
        replay_pruning(g, seq)


def test_c5_has_no_sequence():
    assert pruning_sequence(cycle_graph(5)) is None


def test_greedy_is_deterministic():
    g = net_graph()
    assert pruning_sequence(g) == pruning_sequence(g)


@settings(max_examples=60)
@given(st.integers(1, 30), st.integers(0, 10**6))
def test_random_dh_graphs_prune_and_replay(n, seed):
    g = oracle.random_dh_graph(n, seed)
    seq = pruning_sequence(g)
    assert seq is not None
    replay_pruning(g, seq)


def test_replay_rejects_tampered_sequence():
    g = path_graph(4)
    seq = pruning_sequence(g)
    # the survivors of the last step are adjacent, so a false-twin claim is wrong
    bad = seq.steps[:-1] + (PruningStep(seq.steps[-1].removed, "false_twin", seq.steps[-1].anchor),)
    with pytest.raises(InvalidSequence):
        replay_pruning(g, type(seq)(bad, seq.last))
    with pytest.raises(InvalidSequence):
        replay_pruning(g, type(seq)(seq.steps[:-1], seq.last))


# -- the incremental pruning against the rescanning reference ------------------------


def _assert_matches_reference(g):
    assert pruning_sequence(g) == oracle.reference_pruning_sequence(g), g


def _connected_fixtures(max_n):
    for n in range(1, max_n + 1):
        for g in oracle.load_fixture_graphs(n):
            if n == 1 or len(connected_components(g)) == 1:
                yield g


def test_matches_reference_on_fixtures_up_to_7():
    for g in _connected_fixtures(7):
        _assert_matches_reference(g)


def test_matches_reference_on_twin_classes():
    bipartite = [
        Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])
        for a in range(1, 9) for b in range(1, 9)
    ]
    for g in [complete_graph(n) for n in range(1, 31)] + bipartite + [octahedron_graph()]:
        _assert_matches_reference(g)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 40), st.integers(0, 10**6))
def test_matches_reference_on_random_dh_graphs(n, seed):
    _assert_matches_reference(oracle.random_dh_graph(n, seed))
    _assert_matches_reference(oracle.random_lrw1_graph(n, seed))


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 40), st.floats(0.3, 0.95), st.integers(0, 10**6))
def test_matches_reference_on_dense_random_graphs(n, density, seed):
    rng = random.Random(seed)
    edges = [(i, i + 1) for i in range(n - 1)]
    edges += [(i, j) for i in range(n) for j in range(i + 2, n) if rng.random() < density]
    _assert_matches_reference(Graph(n, edges))


@pytest.mark.parametrize("bits", [0, 2])
def test_colliding_keys_leave_the_sequence_unchanged(monkeypatch, bits):
    # codes of 0 or 2 bits make keys collide everywhere; equal keys are only a
    # hint, so every twin claim must still hold on the real neighbourhoods
    rng = random.Random(bits)
    codes = SimpleNamespace(getrandbits=lambda _: rng.getrandbits(bits))
    monkeypatch.setattr(dh, "random", SimpleNamespace(Random=lambda seed: codes))
    for g in _connected_fixtures(6):
        _assert_matches_reference(g)
    for seed in range(60):
        _assert_matches_reference(oracle.random_dh_graph(25, seed))
        _assert_matches_reference(oracle.random_lrw1_graph(25, seed))
    _assert_matches_reference(complete_graph(12))


def _reference_residue(g):
    """The live vertices at which the rescanning reference pruner gets stuck."""
    adj = {v: set(g.adj[v]) for v in range(g.n)}
    while (step := oracle._next_elimination(adj)) is not None:
        for u in adj.pop(step.removed):
            adj[u].discard(step.removed)
    return sorted(adj)


def _assert_matches_reference_with_residue(g):
    expected = oracle.reference_pruning_sequence(g)
    residue = []
    assert pruning_sequence(g, residue) == expected, g
    assert residue == ([] if expected is not None else _reference_residue(g)), g


def _twin_heavy_graph(rng, n, flips):
    """A random graph on up to 6 vertices grown to n vertices by pendant and
    twin moves, mostly twins, then relabelled, with `flips` pairs toggled."""
    k = rng.randint(1, min(6, n))
    adj = [set() for _ in range(k)]
    for u in range(k):
        for v in range(u + 1, k):
            if v == u + 1 or rng.random() < 0.5:
                adj[u].add(v)
                adj[v].add(u)
    for w in range(k, n):
        v = rng.randrange(w)
        move = rng.random()
        nb = {v} if move < 0.15 or not adj[v] else adj[v] | {v} if move < 0.55 else set(adj[v])
        adj.append(nb)
        for u in nb:
            adj[u].add(w)
    pairs = {frozenset((u, v)) for u in range(n) for v in adj[u]}
    for _ in range(flips):
        pairs ^= {frozenset(rng.sample(range(n), 2))}
    perm = list(range(n))
    rng.shuffle(perm)
    return Graph(n, [(perm[u], perm[v]) for u, v in map(tuple, pairs)])


@pytest.mark.parametrize("bits", [1, 2])
def test_colliding_keys_keep_steps_and_residue(monkeypatch, bits):
    # with codes of 1 or 2 bits, nearly every recheck finds a class with its
    # key but other neighbours, so each twin claim is settled by comparing
    # adjacent-class sets
    rng = random.Random(bits)
    codes = SimpleNamespace(getrandbits=lambda _: rng.getrandbits(bits))
    monkeypatch.setattr(dh, "random", SimpleNamespace(Random=lambda seed: codes))
    for g in _connected_fixtures(7):
        _assert_matches_reference_with_residue(g)
    graphs = random.Random(bits + 10)
    for i in range(90):
        g = _twin_heavy_graph(graphs, graphs.randint(2, 40), i % 3)
        if len(connected_components(g)) == 1:
            _assert_matches_reference_with_residue(g)


def test_matches_reference_on_twin_heavy_graphs():
    graphs = random.Random(14)
    dh_seen = non_dh_seen = 0
    for i in range(150):
        g = _twin_heavy_graph(graphs, graphs.randint(2, 60), i % 3)
        if len(connected_components(g)) == 1:
            _assert_matches_reference_with_residue(g)
            if is_distance_hereditary(g):
                dh_seen += 1
            else:
                non_dh_seen += 1
    assert dh_seen > 30 and non_dh_seen > 30


def _complete_bipartite(a, b):
    return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def _shrink_then_merge(base, v):
    """`base` with a true twin t of v and a vertex w on v's neighbours: once
    v or t is deleted, the survivor's class of one is w's false twin."""
    n = base.n
    nb = sorted(base.adj[v])
    return Graph(n + 2, list(base.edges) + [(v, n)] + [(u, n) for u in nb] + [(u, n + 1) for u in nb])


# K_n up to 30 and K_{a,b} up to 8 x 8 are in test_matches_reference_on_twin_classes
@pytest.mark.parametrize("g", [
    *[_complete_bipartite(a, k) for a in (1, 2, 3) for k in (9, 16)],
    *[spider_graph(k, 2) for k in (1, 2, 3, 5)],
    # a true pair {0, 1} and 2 all on 3: deleting 0 leaves 1 a pendant that
    # merges into 2's class, so 1 goes as a pendant on 3
    Graph(4, [(0, 1), (0, 3), (1, 3), (2, 3)]),
    # the same on a false pair {3, 4}: 1 joins 2 as a false twin
    Graph(5, [(0, 1), (0, 3), (0, 4), (1, 3), (1, 4), (2, 3), (2, 4)]),
], ids=repr)
def test_matches_reference_on_twin_class_edge_cases(g):
    _assert_matches_reference_with_residue(g)


def test_matches_reference_when_a_class_shrinks_to_one_and_merges():
    for base in _connected_fixtures(5):
        if base.n > 1:
            for v in range(base.n):
                _assert_matches_reference_with_residue(_shrink_then_merge(base, v))


@pytest.mark.parametrize("g", [
    disjoint_union(cycle_graph(5), Graph(1)),  # pruning fails: a check, not None
    disjoint_union(Graph(1), Graph(1)),  # an isolated false twin is deleted
    disjoint_union(path_graph(2), path_graph(2)),
    disjoint_union(complete_graph(3), Graph(1)),
    disjoint_union(_complete_bipartite(1, 3), cycle_graph(6)),
], ids=repr)
def test_disconnected_graphs_raise(g):
    residue = []
    with pytest.raises(Disconnected):
        pruning_sequence(g, residue)
    assert residue == []
    with pytest.raises(Disconnected):
        oracle.reference_pruning_sequence(g)


def test_connectivity_is_checked_only_when_pruning_fails(monkeypatch):
    # the check is one walk over the live vertices; record how many it reaches
    calls = []

    def walk(adj, start, blocked):
        found = reach(adj, start, blocked)
        calls.append(len(found))
        return found

    monkeypatch.setattr(dh, "reach", walk)
    assert pruning_sequence(oracle.random_dh_graph(50, 1)) is not None
    assert calls == []
    assert pruning_sequence(cycle_graph(7)) is None
    assert calls == [7]
    # the live vertices keep the graph's components, so only they are checked
    assert pruning_sequence(hung_c5(200, False)) is None
    assert calls == [7, 5]


def test_recognizing_a_hole_walks_the_graph_once(monkeypatch, tmp_path, capsys):
    # recognize finds the components, so the failed pruning reads them
    # rather than walking its residue, the whole cycle, a second time
    calls = []

    def walk(adj, start, blocked):
        found = reach(adj, start, blocked)
        calls.append(len(found))
        return found

    monkeypatch.setattr(graph_module, "reach", walk)
    monkeypatch.setattr(dh, "reach", walk)
    path = tmp_path / "c2000.edges"
    path.write_text(serialize_graph(cycle_graph(2000)))
    assert cli.main(["recognize", "--json", "--verify", str(path)]) == 1
    assert json.loads(capsys.readouterr().out)["obstruction"]["family"] == "hole"
    assert calls == [2000]


# -- the boolean test ---------------------------------------------------------------


def test_caterpillars_are_dh():
    assert is_distance_hereditary(caterpillar_graph(5, [2, 0, 1, 3, 0]))


def test_classical_minimal_non_dh_graphs():
    for g in [house_graph(), gem_graph(), domino_graph(), cycle_graph(5), cycle_graph(6), cycle_graph(8)]:
        assert not is_distance_hereditary(g)
        assert not oracle.is_dh_by_distances(g)


def test_octahedron_is_dh():
    assert is_distance_hereditary(octahedron_graph())


def test_disconnected_checks_all_components():
    assert is_distance_hereditary(disjoint_union(path_graph(3), complete_graph(4)))
    assert not is_distance_hereditary(disjoint_union(path_graph(3), cycle_graph(5)))


def test_agrees_with_distance_definition_up_to_7():
    # exhaustive agreement between the elimination test and the definition
    for n in range(1, 8):
        for g in oracle.load_fixture_graphs(n):
            if n > 1 and len(connected_components(g)) != 1:
                continue
            assert is_distance_hereditary(g) == oracle.is_dh_by_distances(g), g


# -- minimal obstructions --------------------------------------------------------------


def test_c5_is_its_own_obstruction():
    assert non_dh_obstruction(cycle_graph(5)) == (0, 1, 2, 3, 4)


def test_pendant_on_c5_is_removed():
    g = Graph(6, list(cycle_graph(5).edges) + [(0, 5)])
    assert non_dh_obstruction(g) == (0, 1, 2, 3, 4)


def test_c8_is_its_own_obstruction():
    assert non_dh_obstruction(cycle_graph(8)) == tuple(range(8))


def test_obstruction_requires_non_dh():
    with pytest.raises(AlreadyDH):
        non_dh_obstruction(path_graph(4))


# -- the one-pass obstruction search against the restarting reference -------------------


def _assert_obstruction_matches_reference(g):
    reference = oracle.reference_non_dh_obstruction(g)
    assert non_dh_obstruction(g) == reference, g
    residue = []
    if len(connected_components(g)) == 1 and pruning_sequence(g, residue) is None:
        assert non_dh_obstruction(g, pruning_residue=residue) == reference, g


def test_obstruction_matches_reference_on_fixtures_up_to_7():
    for g in _connected_fixtures(7):
        if not is_distance_hereditary(g):
            _assert_obstruction_matches_reference(g)


def _relabelled(draw, g):
    perm = draw(st.permutations(range(g.n)))
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


@st.composite
def _grown_obstructions(draw, max_n):
    """A hole, house, gem or domino with trees and twins grown on it."""
    base = draw(st.sampled_from([house_graph(), gem_graph(), domino_graph()]
                                + [cycle_graph(k) for k in range(5, 13)]))
    adj = [set(nb) for nb in base.adj]
    for w in range(base.n, draw(st.integers(base.n, max(base.n, max_n)))):
        v = draw(st.integers(0, w - 1))
        move = draw(st.sampled_from(["pendant", "true_twin", "false_twin"]))
        nb = {v} if move == "pendant" else adj[v] | {v} if move == "true_twin" else set(adj[v])
        adj.append(nb)
        for u in nb:
            adj[u].add(w)
    return Graph(len(adj), [(u, v) for u in range(len(adj)) for v in adj[u] if u < v])


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_obstruction_matches_reference_on_grown_obstructions(data):
    g = data.draw(_grown_obstructions(40))
    _assert_obstruction_matches_reference(_relabelled(data.draw, g))


@settings(max_examples=40, deadline=None)
@given(st.data(), st.integers(1, 20), st.integers(0, 10**6))
def test_obstruction_matches_reference_on_disconnected_graphs(data, n, seed):
    parts = [data.draw(_grown_obstructions(20)), oracle.random_dh_graph(n, seed)]
    if data.draw(st.booleans()):
        parts.append(data.draw(_grown_obstructions(10)))
    g = disjoint_union(*data.draw(st.permutations(parts)))
    _assert_obstruction_matches_reference(_relabelled(data.draw, g))


@settings(max_examples=40, deadline=None)
@given(st.integers(5, 40), st.floats(0.05, 0.5), st.integers(0, 10**6))
def test_obstruction_matches_reference_on_random_graphs(n, density, seed):
    rng = random.Random(seed)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    g = Graph(n, [p for p in pairs if rng.random() < density])
    if not is_distance_hereditary(g):
        _assert_obstruction_matches_reference(g)


@pytest.mark.parametrize("c5_ids_first", [False, True])
def test_obstruction_matches_reference_on_long_path_with_c5(monkeypatch, c5_ids_first):
    # a path 0..k-1 whose last vertex lies on a C5; every path vertex is deleted
    k = 200
    edges = [(i, i + 1) for i in range(k + 3)] + [(k - 1, k + 3)]
    if c5_ids_first:
        edges = [(k + 3 - u, k + 3 - v) for u, v in edges]
    g = Graph(k + 4, edges)
    tested = []
    monkeypatch.setattr(dh, "is_distance_hereditary", lambda h: tested.append(h.n) or is_distance_hereditary(h))
    assert len(non_dh_obstruction(g)) == 5
    # the 2-core is the C5, which the stop rule returns with no DH test
    assert tested == []
    monkeypatch.undo()
    _assert_obstruction_matches_reference(g)


def _c5_path_k4(k4_ids_first):
    # a C5 on 0..4 and a K4 on 7..10, joined by the path 4-5-6-7
    edges = list(cycle_graph(5).edges) + [(4, 5), (5, 6), (6, 7)]
    edges += [(7 + u, 7 + v) for u, v in complete_graph(4).edges]
    if k4_ids_first:
        edges = [(10 - u, 10 - v) for u, v in edges]
    return Graph(11, edges)


def _record_dh_tests(monkeypatch):
    tested = []
    monkeypatch.setattr(dh, "is_distance_hereditary",
                        lambda h, residue=None: tested.append(h.n) or is_distance_hereditary(h, residue))
    return tested


@pytest.mark.parametrize("k4_ids_first, sizes", [
    # G[C], whose residue is the C5; G[C] is connected and the C5 minimal,
    # so the residue is the answer
    (False, [11]),
    # G[C], whose residue is the C5 on 6..10, which is the answer likewise
    (True, [11]),
])
def test_a_minimal_residue_of_a_connected_2_core_settles_after_one_test(monkeypatch, k4_ids_first, sizes):
    g = _c5_path_k4(k4_ids_first)
    tested = _record_dh_tests(monkeypatch)
    vs = non_dh_obstruction(g)
    assert tested == sizes
    monkeypatch.undo()
    assert vs == (tuple(range(6, 11)) if k4_ids_first else tuple(range(5)))
    _assert_obstruction_matches_reference(g)


def test_stop_rule_ends_the_pass_at_a_minimal_residue_of_a_disconnected_2_core(monkeypatch):
    # a C5 on 0, 5, 6, 7, 8 and a triangle on 1, 2, 3, with 4 isolated: the
    # test of G[C] hands back the C5, which the settled rule leaves open, as
    # G[C] is disconnected; the trial of 0 is the DH triangle, and deleting
    # 1, 2 and 3 leaves the C5 alone, which the stop rule returns, where the
    # pass would go on to test the empty trials of 5, 6, 7 and 8
    g = Graph(9, [(0, 5), (5, 6), (6, 7), (7, 8), (8, 0), (1, 2), (2, 3), (1, 3)])
    tested = _record_dh_tests(monkeypatch)
    vs = non_dh_obstruction(g)
    assert tested == [8, 3]
    monkeypatch.undo()
    assert vs == (0, 5, 6, 7, 8) == oracle.reference_non_dh_obstruction(g)


@pytest.mark.parametrize("k4_ids_first, sizes", [(False, []), (True, [])])
def test_recognize_hands_its_residue_to_the_search(monkeypatch, k4_ids_first, sizes):
    # the same trials as above, less the test of G[C]: the recogniser's own
    # failed pruning supplies the residue
    g = _c5_path_k4(k4_ids_first)
    tested = _record_dh_tests(monkeypatch)
    cert = recognize(g)
    assert tested == sizes
    assert cert.vertices == (tuple(range(6, 11)) if k4_ids_first else tuple(range(5)))


@pytest.mark.parametrize("c5_ids_first, sizes", [(False, []), (True, [])])
def test_hung_c5_costs_no_test_per_2_core_vertex(monkeypatch, c5_ids_first, sizes):
    # a 2-core of 334 vertices: the recogniser's pruning leaves the C5, a
    # minimal residue of a connected graph, so it is the answer wherever it lies
    g = hung_c5(400, c5_ids_first)
    tested = _record_dh_tests(monkeypatch)
    cert = recognize(g)
    assert tested == sizes
    assert cert.family == "hole"
    assert cert.vertices == (tuple(range(5)) if c5_ids_first else tuple(range(400, 405)))


def test_a_residue_vertex_that_had_a_twin_costs_no_test(monkeypatch):
    # the residue is the hole 1-4-5-3-6, and 0 was a false twin of 1; the
    # residue is minimal and the graph connected, so it is the answer
    g = Graph(7, [(0, 4), (0, 6), (1, 4), (1, 6), (2, 5), (2, 6), (3, 5), (3, 6), (4, 5)])
    tested = _record_dh_tests(monkeypatch)
    cert = recognize(g)
    assert tested == []
    assert cert.vertices == (1, 3, 4, 5, 6)
    assert cert.family == "hole"


def test_a_minimal_residue_leaves_a_dh_graph_when_one_of_its_vertices_goes():
    # the lemma behind the settled search: for v in a minimal residue R of a
    # connected graph, G[(R - v) + every vertex outside R above v] is DH
    cases = 0
    for g in _connected_fixtures(7):
        residue = []
        if pruning_sequence(g, residue) is not None or minimal_non_dh_family(induced_subgraph(g, residue)) is None:
            continue
        cases += 1
        for v in residue:
            w = [u for u in range(g.n) if u != v and (u in residue or u > v)]
            assert is_distance_hereditary(induced_subgraph(g, w)), (g, v)
    assert cases > 0


def test_a_minimal_residue_of_one_component_is_not_settled_when_another_is_non_dh():
    # G[C] is two C5s, and its DH test hands back the first; deleting 0
    # leaves the second, so 0 is deleted and the answer is the second
    g = disjoint_union(cycle_graph(5), cycle_graph(5))
    assert non_dh_obstruction(g) == tuple(range(5, 10)) == oracle.reference_non_dh_obstruction(g)


def test_obstruction_from_a_handed_in_residue_matches_reference_up_to_7():
    for g in _connected_fixtures(7):
        residue = []
        if pruning_sequence(g, residue) is None:
            assert non_dh_obstruction(g, pruning_residue=residue) == oracle.reference_non_dh_obstruction(g), g


def _assert_residue(g, residue):
    sub = induced_subgraph(g, residue)
    assert residue == sorted(set(residue))
    assert len(connected_components(sub)) == 1 and sub.n >= 5
    assert min(map(len, sub.adj)) >= 2
    assert not any(sub.adj[u] - {v} == sub.adj[v] - {u} for u in range(sub.n) for v in range(u + 1, sub.n))
    # the definition-level test is guarded to 8 vertices; past it, the
    # rescanning reference pruner stands in for it
    if sub.n <= 8:
        assert not oracle.is_dh_by_distances(sub)
    else:
        assert oracle.reference_pruning_sequence(sub) is None
    assert set(residue) <= set(two_core(g))


def _check_residues(g):
    for comp in connected_components(g):
        h = induced_subgraph(g, comp)
        residue = []
        if pruning_sequence(h, residue) is None:
            _assert_residue(h, residue)
            assert non_dh_obstruction(h, pruning_residue=residue) == non_dh_obstruction(h)
        else:
            assert residue == []
    residue = []
    if is_distance_hereditary(g, residue):
        assert residue == []
    else:
        _assert_residue(g, residue)
        assert any(set(residue) <= set(comp) for comp in connected_components(g))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 30), st.floats(0.05, 0.6), st.integers(0, 10**6))
def test_residue_contract_on_random_graphs(n, density, seed):
    rng = random.Random(seed)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    _check_residues(Graph(n, [p for p in pairs if rng.random() < density]))


@settings(max_examples=40, deadline=None)
@given(st.data(), st.integers(1, 20), st.integers(0, 10**6))
def test_residue_contract_on_grown_obstructions(data, n, seed):
    g = _relabelled(data.draw, data.draw(_grown_obstructions(30)))
    _check_residues(g)
    _check_residues(disjoint_union(*data.draw(st.permutations([g, oracle.random_dh_graph(n, seed)]))))


@pytest.mark.parametrize("g", [complete_graph(4), octahedron_graph()]
                         + [oracle.random_dh_graph(n, s) for n in (10, 40, 400) for s in (1, 2, 3)])
def test_obstruction_requires_non_dh_with_a_2_core(g):
    assert two_core(g)
    with pytest.raises(AlreadyDH):
        non_dh_obstruction(g)


def test_minimal_non_dh_family():
    for k in range(5, 9):
        assert minimal_non_dh_family(cycle_graph(k)) == "hole"
    for family, g in [("house", house_graph()), ("gem", gem_graph()), ("domino", domino_graph())]:
        assert minimal_non_dh_family(g) == family
    for g in [cycle_graph(4), complete_graph(5), path_graph(6), net_graph(),
              disjoint_union(cycle_graph(5), cycle_graph(5))]:
        assert minimal_non_dh_family(g) is None


@settings(max_examples=30, deadline=None)
@given(st.data(), st.integers(1, 68), st.integers(0, 10**6))
def test_obstruction_matches_reference_on_dh_graphs_with_a_hung_obstruction(data, n, seed):
    """A random DH graph with a hole, house, gem or domino joined to it by
    one to three edges, up to 80 vertices in all."""
    base = oracle.random_dh_graph(n, seed)
    hung = data.draw(st.sampled_from([house_graph(), gem_graph(), domino_graph()]
                                     + [cycle_graph(k) for k in range(5, 13)]))
    g = disjoint_union(base, hung)
    joins = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(n, g.n - 1)),
                               min_size=1, max_size=3, unique=True))
    g = Graph(g.n, list(g.edges) + joins)
    _assert_obstruction_matches_reference(_relabelled(data.draw, g))


def _classify(sub):
    if all(sub.degree(v) == 2 for v in range(sub.n)) and len(connected_components(sub)) == 1:
        return "hole"
    for name, pattern in [("house", house_graph()), ("gem", gem_graph()), ("domino", domino_graph())]:
        if sub.n == pattern.n and is_isomorphic_small(sub, pattern):
            return name
    return "unknown"


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_obstruction_is_always_classical_and_minimal(seed):
    import random

    rng = random.Random(seed)
    n = rng.randint(5, 9)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    g = Graph(n, [p for p in pairs if rng.random() < 0.45])
    if is_distance_hereditary(g):
        return
    vs = non_dh_obstruction(g)
    sub = induced_subgraph(g, vs)
    assert _classify(sub) != "unknown"
    assert not is_distance_hereditary(sub)
    for v in range(sub.n):
        assert is_distance_hereditary(induced_subgraph(sub, [u for u in range(sub.n) if u != v]))
