"""The verifier against `bench/checker.py`, which imports nothing from lrw1.

`verify_certificate` takes an obstruction's width and minimality from its
shape check alone.  The bench checker proves both by its own brute force,
so every mutant of a golden certificate that the verifier passes must pass
the checker too.  Each of the 1252 golden certificates gets eight seeded
mutants.  The golden graphs have at most 7 vertices, within the checker's
10-vertex brute-force limit.
"""

import importlib.util
import json
import random
from pathlib import Path

from lrw1.cli import certificate_from_json
from lrw1.graph import parse_graph
from lrw1.recognizer import ObstructionCertificate, OrderingCertificate, verify_certificate

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "recognize_fixtures.txt"


def _checker():
    spec = importlib.util.spec_from_file_location("bench_checker", ROOT / "bench" / "checker.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


checker = _checker()

FAMILIES = ("hole", "house", "gem", "domino", "dh_star3")


def _golden():
    for line in GOLDEN.read_text().splitlines():
        g6, _, payload = line.split(" ", 2)
        graph = parse_graph(g6, "graph6")
        yield graph, certificate_from_json(graph, json.loads(payload))


def _mutant(certificate, n: int, rng: random.Random):
    """The certificate with one or two of its vertices, its family or its
    catalog index changed."""
    if isinstance(certificate, OrderingCertificate):
        order = list(certificate.order)
        for _ in range(rng.randint(1, 2)):
            edit = rng.choice(["swap", "drop", "replace"])
            if edit == "swap" and len(order) >= 2:
                i, j = rng.sample(range(len(order)), 2)
                order[i], order[j] = order[j], order[i]
            elif edit == "drop" and order:
                del order[rng.randrange(len(order))]
            elif order:
                order[rng.randrange(len(order))] = rng.randrange(-1, n + 1)
        return OrderingCertificate(tuple(order))
    vs = list(certificate.vertices)
    family, index = certificate.family, certificate.catalog_index
    for _ in range(rng.randint(1, 2)):
        edit = rng.choice(["drop", "replace", "add", "family", "index"])
        if edit == "drop" and vs:
            del vs[rng.randrange(len(vs))]
        elif edit == "replace" and vs:
            vs[rng.randrange(len(vs))] = rng.randrange(n)  # may repeat a vertex
        elif edit == "add" and len(vs) < n:
            vs.append(rng.choice([v for v in range(n) if v not in vs]))
        elif edit == "family":
            family = rng.choice(FAMILIES)
        elif edit == "index":
            index = rng.randrange(-1, 15)
    return ObstructionCertificate(tuple(sorted(vs)), family, index)


def _checker_reason(adj, certificate):
    if isinstance(certificate, OrderingCertificate):
        return checker.check_ordering(adj, list(certificate.order))
    return checker.check_obstruction(adj, list(certificate.vertices), certificate.family)


def test_every_certificate_the_verifier_passes_passes_the_independent_checker():
    rng = random.Random(2026)
    tally = {(kind, passed): 0 for kind in (OrderingCertificate, ObstructionCertificate) for passed in (True, False)}
    for graph, certificate in _golden():
        adj = [set(nb) for nb in graph.adj]
        for mutant in [certificate] + [_mutant(certificate, graph.n, rng) for _ in range(8)]:
            passed = bool(verify_certificate(graph, mutant))
            reason = _checker_reason(adj, mutant)
            if passed:
                assert reason is None, (graph, mutant, reason)
            # the checker reads no catalog index, so on the other
            # certificates it must agree in both directions
            if isinstance(mutant, OrderingCertificate) or mutant.family in ("hole", "house", "gem", "domino"):
                assert passed == (reason is None), (graph, mutant, reason)
            tally[type(mutant), passed] += 1
    # the mutants reach both verdicts on both kinds of certificate
    assert all(tally.values()), tally
