"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line (run with -s to see them); a failure
both fails the assertion and prints FAIL.  All tolerances are exact: the
properties under test are combinatorial identities.
"""

import itertools
import random
import time

from lrw1 import oracle
from lrw1.dh import pruning_sequence
from lrw1.gf2 import cutrank_of_ordering
from lrw1.graph import (
    Graph,
    canonical_form,
    connected_components,
    induced_subgraph,
    is_isomorphic_small,
    local_complement,
)
from lrw1.named import cycle_graph, net_graph, octahedron_graph
from lrw1.recognizer import (
    ObstructionCertificate,
    OrderingCertificate,
    dh_obstruction_catalog,
    extract_lrw1_obstruction,
    ordering_from_path_tree,
    recognize,
    verify_certificate,
)
from lrw1.oracle import decompositions_isomorphic, recompose, validate_canonical
from lrw1.splitdec import canonical_decomposition_dh, split_tree


def _report(k, ok, detail):
    print(f"ACCEPTANCE {k}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def _connected_fixture_graphs(n):
    for g in oracle.load_fixture_graphs(n):
        if n <= 1 or len(connected_components(g)) == 1:
            yield g


def test_criterion_1_exhaustive_oracle_equivalence():
    t0 = time.time()
    disagreements = 0
    per_n = {}
    for n in range(1, 8):
        count = 0
        for g in _connected_fixture_graphs(n):
            count += 1
            accepted = isinstance(recognize(g), OrderingCertificate)
            if accepted != (oracle.brute_lrw(g) <= 1):
                disagreements += 1
        per_n[n] = count
    elapsed = time.time() - t0
    ok = disagreements == 0 and per_n[7] == 853 and elapsed <= 600
    _report(
        1,
        ok,
        f"{sum(per_n.values())} connected graphs (n=7: {per_n[7]}), "
        f"{disagreements} disagreements, {elapsed:.1f}s",
    )


def test_criterion_2_named_obstruction_facts():
    failures = []
    for name, g in [("C5", cycle_graph(5)), ("Net", net_graph()), ("octahedron", octahedron_graph())]:
        if oracle.brute_lrw(g) != 2:
            failures.append(f"{name} width != 2")
        cert = recognize(g)
        if not isinstance(cert, ObstructionCertificate) or set(cert.vertices) != set(range(g.n)):
            failures.append(f"{name} not rejected with the whole graph")
        for v in range(g.n):
            rest = induced_subgraph(g, [u for u in range(g.n) if u != v])
            for comp in connected_components(rest):
                if oracle.brute_lrw(induced_subgraph(rest, comp)) > 1:
                    failures.append(f"{name} minus {v} still wide")
    _report(2, not failures, "; ".join(failures) or "C5, Net, octahedron: width 2, whole-graph rejection, minimal")


def test_criterion_3_vertex_minor_obstruction_completeness():
    t0 = time.time()
    targets = [cycle_graph(5), net_graph(), octahedron_graph()]
    containing = oracle.graphs_with_vertex_minor(targets, 7)
    mismatches = 0
    total = 0
    for n in range(1, 8):
        for g in _connected_fixture_graphs(n):
            total += 1
            if (oracle.brute_lrw(g) >= 2) != (canonical_form(g) in containing):
                mismatches += 1
    # the per-pair search agrees with the shared closure on a sample
    sample_ok = all(
        oracle.has_any_vertex_minor(g, targets) == (canonical_form(g) in containing)
        for g in _connected_fixture_graphs(5)
    )
    elapsed = time.time() - t0
    _report(
        3,
        mismatches == 0 and sample_ok,
        f"{total} graphs, {mismatches} mismatches, forward/backward sample agreement: {sample_ok}, {elapsed:.1f}s",
    )


def test_criterion_4_certificate_soundness_at_scale():
    t0 = time.time()
    rng = random.Random(20260810)
    bad_orderings = 0
    for i in range(1000):
        n = rng.randint(2, 200)
        g = oracle.random_lrw1_graph(n, seed=rng.randrange(10**9))
        if len(connected_components(g)) != 1:
            bad_orderings += 1
            continue
        d = canonical_decomposition_dh(g, pruning_sequence(g))
        t = split_tree(d)
        if not t.is_path():
            bad_orderings += 1
            continue
        order = ordering_from_path_tree(t)
        if cutrank_of_ordering(g, order) > 1:
            bad_orderings += 1
    mid = time.time()
    bad_extractions = 0
    for i in range(1000):
        n = rng.randint(7, 40)
        g = oracle.random_branching_dh_graph(n, seed=rng.randrange(10**9))
        d = canonical_decomposition_dh(g, pruning_sequence(g))
        t = split_tree(d)
        hub = min(node.id for node in t.nodes if t.degree(node.id) >= 3)
        vs = extract_lrw1_obstruction(t, hub).vertices
        cert = recognize(g)
        if not isinstance(cert, ObstructionCertificate) or not verify_certificate(g, cert):
            bad_extractions += 1
        sub = induced_subgraph(g, vs)
        if oracle.brute_lrw(sub) != 2:
            bad_extractions += 1
    elapsed = time.time() - t0
    ok = bad_orderings == 0 and bad_extractions == 0
    _report(
        4,
        ok,
        f"1000 path-tree graphs (orderings: {1000 - bad_orderings} ok, {mid - t0:.1f}s), "
        f"1000 branching graphs (extractions: {1000 - bad_extractions} ok), total {elapsed:.1f}s",
    )


def test_criterion_5_canonical_decomposition_correctness():
    t0 = time.time()
    bad = 0
    checked = 0

    def check(g):
        nonlocal bad, checked
        seq = pruning_sequence(g)
        if seq is None:
            return
        checked += 1
        mine = canonical_decomposition_dh(g, seq)
        brute = oracle.brute_canonical_decomposition(g)
        if validate_canonical(mine) or validate_canonical(brute):
            bad += 1
            return
        if recompose(mine) != g or recompose(brute) != g:
            bad += 1
            return
        if not decompositions_isomorphic(mine, brute):
            bad += 1

    for n in range(1, 8):
        for g in _connected_fixture_graphs(n):
            check(g)
    exhaustive = checked
    rng = random.Random(5)
    for i in range(500):
        check(oracle.random_dh_graph(rng.randint(1, 8), seed=rng.randrange(10**9)))
    elapsed = time.time() - t0
    _report(
        5,
        bad == 0,
        f"{exhaustive} exhaustive DH graphs (n<=7) + {checked - exhaustive} sampled (n<=8), "
        f"{bad} failures, {elapsed:.1f}s",
    )


def test_criterion_6_catalog_fidelity():
    t0 = time.time()
    catalog = dh_obstruction_catalog()
    failures = []
    if len({canonical_form(m) for m in catalog}) != len(catalog):
        failures.append("duplicates in catalog")
    if not any(is_isomorphic_small(m, net_graph()) for m in catalog):
        failures.append("Net missing")
    if not any(is_isomorphic_small(m, octahedron_graph()) for m in catalog):
        failures.append("octahedron missing")
    for idx, m in enumerate(catalog):
        if oracle.brute_lrw(m) != 2:
            failures.append(f"member {idx} width != 2")
        tree = split_tree(canonical_decomposition_dh(m, pruning_sequence(m)))
        if sorted(tree.degree(n.id) for n in tree.nodes) != [1, 1, 1, 3]:
            failures.append(f"member {idx} tree not a three-leaf star")
        for v in range(m.n):
            rest = induced_subgraph(m, [u for u in range(m.n) if u != v])
            for comp in connected_components(rest):
                if oracle.brute_lrw(induced_subgraph(rest, comp)) > 1:
                    failures.append(f"member {idx} not minimal at {v}")
    # completeness: every small wide DH graph contains a member
    keys = {}
    for m in catalog:
        keys.setdefault(m.n, []).append((canonical_form(m), m))
    missing = 0
    wide_dh = 0
    for n in range(1, 8):
        for g in _connected_fixture_graphs(n):
            seq = pruning_sequence(g)
            if seq is None or oracle.brute_lrw(g) <= 1:
                continue
            wide_dh += 1
            found = False
            for size, members in keys.items():
                if size > g.n or found:
                    continue
                for subset in itertools.combinations(range(g.n), size):
                    sub_key = canonical_form(induced_subgraph(g, subset))
                    if any(sub_key == mk for mk, _ in members):
                        found = True
                        break
            if not found:
                missing += 1
    if missing:
        failures.append(f"{missing} wide DH graphs contain no catalog member")
    elapsed = time.time() - t0
    _report(
        6,
        not failures,
        "; ".join(failures)
        or f"{len(catalog)} members verified; {wide_dh} wide DH graphs n<=7 all contain one, {elapsed:.1f}s",
    )


def test_criterion_7_local_complementation_invariance():
    t0 = time.time()
    width_changes = 0
    checked = 0
    for n in range(1, 7):
        for g in oracle.load_fixture_graphs(n):
            base = oracle.brute_lrw(g)
            for v in range(g.n):
                checked += 1
                if oracle.brute_lrw(local_complement(g, v)) != base:
                    width_changes += 1
    rng = random.Random(7)
    decision_changes = 0
    for i in range(200):
        n = rng.randint(1, 8)
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        g = Graph(n, [p for p in pairs if rng.random() < 0.4])
        before = isinstance(recognize(g), OrderingCertificate)
        h = g
        for _ in range(rng.randint(1, 8)):
            h = local_complement(h, rng.randrange(n))
        if isinstance(recognize(h), OrderingCertificate) != before:
            decision_changes += 1
    elapsed = time.time() - t0
    ok = width_changes == 0 and decision_changes == 0
    _report(
        7,
        ok,
        f"{checked} single complementations (width changes: {width_changes}); "
        f"200 seeded sequences (decision changes: {decision_changes}), {elapsed:.1f}s",
    )
