"""Shared strategies and helpers for the test suite."""

from __future__ import annotations

import itertools

from hypothesis import strategies as st

from lrw1 import oracle
from lrw1.graph import Graph
from lrw1.named import spider_graph


@st.composite
def graphs(draw, min_n: int = 0, max_n: int = 8) -> Graph:
    n = draw(st.integers(min_n, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    picked = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return Graph(n, sorted(picked))


@st.composite
def connected_graphs(draw, min_n: int = 1, max_n: int = 8) -> Graph:
    n = draw(st.integers(min_n, max_n))
    # a random spanning tree plus extra edges keeps the graph connected
    edges = set()
    for v in range(1, n):
        u = draw(st.integers(0, v - 1))
        edges.add((u, v))
    pairs = list(itertools.combinations(range(n), 2))
    if pairs:
        edges |= draw(st.sets(st.sampled_from(pairs)))
    return Graph(n, sorted(edges))


def relabelled_edge_set(graph: Graph, ids: list[int]) -> set[frozenset]:
    """Edges with each vertex v named ids[v], for comparing induced
    subgraphs: vertex i of G[s] is sorted(s)[i] in G."""
    return {frozenset((ids[u], ids[v])) for u, v in graph.edges}


def hung_c5(n: int, c5_ids_first: bool) -> Graph:
    """`random_dh_graph(n, 1)` with a C5 joined to it by one edge, the C5 on
    ids 0..4 or on the highest ids n..n+4."""
    base = oracle.random_dh_graph(n, 1)
    shift, first = (5, 0) if c5_ids_first else (0, n)
    edges = [(u + shift, v + shift) for u, v in base.edges]
    edges += [(first + i, first + (i + 1) % 5) for i in range(5)] + [(shift, first)]
    return Graph(n + 5, edges)


def reversed_spider(leg_length: int) -> Graph:
    """`spider_graph(3, leg_length)` with the centre as 0 and each leg's ids
    descending outward, so the vertex next to the centre is its leg's largest."""
    def relabel(v: int) -> int:
        return v and v + leg_length - 1 - 2 * ((v - 1) % leg_length)

    return Graph(3 * leg_length + 1, [(relabel(u), relabel(v)) for u, v in spider_graph(3, leg_length).edges])
