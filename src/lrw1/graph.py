"""Simple graphs and the structural operations built on them.

Vertices are dense ids 0..n-1, and a vertex is its id: both input formats
number vertices 0..n-1, so results are reported in the input's own terms.
Graphs are immutable and every operation returns a fresh graph.  Equality is
exact (same vertex count, same edge set), never up to isomorphism:
certificates must point at concrete input vertices.
"""

from __future__ import annotations

import itertools
import re
from collections.abc import Iterable

from .errors import InvalidVertex, NotAnEdge, ParseError, TooLarge


class Graph:
    """Undirected loop-free graph with frozen-set adjacency.

    `Graph(n, edges)` checks each edge and collects every vertex's
    neighbour set.  The parsers, `induced_subgraph` and `local_complement`
    fill the neighbour sets themselves, with their own checks, and call
    `_from_sets`, so none of them builds an edge list.  Both ways end in
    `_freeze`, the one step that freezes the sets.
    """

    __slots__ = ("n", "adj", "_hash", "_masks", "_components")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        adj = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidVertex(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            adj[u].add(v)
            adj[v].add(u)
        self._freeze(adj)

    @classmethod
    def _from_sets(cls, adj: list[Iterable[int]]) -> Graph:
        """The graph in which vertex v has the neighbours adj[v], which the
        caller has checked to be in range, symmetric and free of loops."""
        graph = cls.__new__(cls)
        graph._freeze(adj)
        return graph

    def _freeze(self, adj: list[Iterable[int]]) -> None:
        """Take adj over as the adjacency, freezing each entry in place, so that
        a vertex's set is freed as soon as its frozen copy is made, and a
        frozenset given is kept as it is."""
        for v, nb in enumerate(adj):
            adj[v] = frozenset(nb)
        self.n = len(adj)
        # Per-graph tuples are built from lists, never from a generator or an
        # iterator of unknown length.  CPython builds such a tuple at a guessed
        # size and shrinks it, so it never comes from the free list of its
        # final size, yet joins that list when freed.  Only a full garbage
        # collection empties the lists, so in a long-lived caller each build
        # would leave one more block behind (tests/test_tuple_rule.py).
        self.adj = tuple(adj)
        self._hash = None
        self._masks = None
        self._components = None

    # -- basic queries ----------------------------------------------------

    def neighbours(self, v: int) -> frozenset[int]:
        return self.adj[v]

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple([(u, v) for u in range(self.n) for v in sorted(self.adj[u]) if u < v])

    def edge_count(self) -> int:
        return sum(len(s) for s in self.adj) // 2

    def adjacency_masks(self) -> tuple[int, ...]:
        """Adjacency rows as integers (bit v of row u set iff uv is an edge),
        built on the first call and kept, as the graph does not change."""
        if self._masks is None:
            self._masks = tuple([sum(1 << v for v in s) for s in self.adj])
        return self._masks

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.n, self.edges))
        return self._hash

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={list(self.edges)})"


# -- surgery ---------------------------------------------------------------


def induced_subgraph(graph: Graph, vertices: Iterable[int]) -> Graph:
    """Subgraph induced by a vertex subset, reindexed to dense ids.

    The subset's vertices are renumbered in ascending order, so vertex i of
    the result is the i-th smallest member of the subset, `sorted(set(
    vertices))[i]`; callers map results back through that list.  Once every
    id is checked to be in range, a set that holds all n of them, in any
    order and with any repeats, induces the graph itself, which is returned
    as it is: G[V] keeps the same ids, and a `Graph` cannot change.
    """
    vs = sorted(set(vertices))
    for v in vs:
        if not 0 <= v < graph.n:
            raise InvalidVertex(f"vertex {v} not in graph of order {graph.n}")
    if len(vs) == graph.n:
        return graph
    pos = {v: i for i, v in enumerate(vs)}
    adj = graph.adj
    return Graph._from_sets([frozenset([pos[v] for v in adj[u] if v in pos]) for u in vs])


def local_complement(graph: Graph, x: int) -> Graph:
    """Complement the subgraph induced on the neighbourhood of x."""
    if not 0 <= x < graph.n:
        raise InvalidVertex(f"vertex {x} not in graph of order {graph.n}")
    adj = list(graph.adj)
    nb = graph.adj[x]
    for u in nb:  # u's neighbours inside N(x) - {u} are complemented
        adj[u] = adj[u] ^ (nb - {u})
    return Graph._from_sets(adj)


def pivot(graph: Graph, x: int, y: int) -> Graph:
    """Pivot on the edge xy: the composition of local complements x, y, x."""
    if not (0 <= x < graph.n and 0 <= y < graph.n):
        raise InvalidVertex(f"pivot endpoints ({x},{y}) out of range")
    if not graph.has_edge(x, y):
        raise NotAnEdge(f"({x},{y}) is not an edge")
    return local_complement(local_complement(local_complement(graph, x), y), x)


def reach(adj, start: int, blocked: set[int]) -> list[int]:
    """The vertices reachable from start without entering blocked, in
    breadth-first order; adj[x] lists x's neighbours.  Every vertex reached
    is added to blocked, start included.  The package's one graph walk: on a
    path walked from one end, the order is the path order."""
    blocked.add(start)
    out = [start]
    for x in out:
        for y in adj[x]:
            if y not in blocked:
                blocked.add(y)
                out.append(y)
    return out


def connected_components(graph: Graph) -> list[tuple[int, ...]]:
    """Maximal connected vertex sets, each sorted, ordered by smallest member.

    They are found on the first call and kept on the graph, which does not
    change, so a later call walks nothing.  Every call returns the same
    list, which no caller may change.
    """
    if graph._components is None:
        seen: set[int] = set()
        graph._components = [tuple(sorted(reach(graph.adj, s, seen))) for s in range(graph.n) if s not in seen]
    return graph._components


def two_core(graph: Graph, vertices: Iterable[int] | None = None) -> list[int]:
    """Sorted vertices left after repeatedly deleting vertices of degree at most 1,
    from the whole graph or from the subgraph it induces on `vertices`.

    The vertices keep their ids in `graph`.  The cost is linear in the size of
    the subset and the degrees of its members in `graph`.
    """
    if vertices is None:
        degree = {v: len(nb) for v, nb in enumerate(graph.adj)}
    else:
        inside = set(vertices)
        degree = {v: len(graph.adj[v] & inside) for v in inside}
    stack = [v for v, d in degree.items() if d <= 1]
    peeled = set(stack)
    while stack:
        for u in graph.adj[stack.pop()]:
            if u in degree and u not in peeled:
                degree[u] -= 1
                if degree[u] <= 1:
                    peeled.add(u)
                    stack.append(u)
    return sorted(v for v in degree if v not in peeled)


# -- isomorphism (small graphs only) ----------------------------------------

_ISO_GUARD = 10


def is_isomorphic_small(a: Graph, b: Graph) -> bool:
    """Backtracking isomorphism test, guarded to at most 10 vertices."""
    if a.n > _ISO_GUARD or b.n > _ISO_GUARD:
        raise TooLarge(f"isomorphism guard is {_ISO_GUARD} vertices")
    if a.n != b.n or a.edge_count() != b.edge_count():
        return False
    if sorted(map(len, a.adj)) != sorted(map(len, b.adj)):
        return False
    order = sorted(range(a.n), key=lambda v: -a.degree(v))
    return _place(a, b, order, 0, [False] * b.n, [-1] * a.n)


def _place(a: Graph, b: Graph, order: list[int], i: int, used: list[bool], image: list[int]) -> bool:
    """Whether the partial map `image` of order[:i] extends to an isomorphism.

    A module-level function rather than a closure: a closure that calls
    itself refers to itself through its own cell, so every search would
    leave its graphs and lists behind as cyclic garbage."""
    if i == len(order):
        return True
    v = order[i]
    for w in range(b.n):
        if used[w] or b.degree(w) != a.degree(v):
            continue
        ok = True
        for u in order[:i]:
            if (u in a.adj[v]) != (image[u] in b.adj[w]):
                ok = False
                break
        if ok:
            image[v] = w
            used[w] = True
            if _place(a, b, order, i + 1, used, image):
                return True
            used[w] = False
            image[v] = -1
    return False


def _wl_colors(graph: Graph) -> list[int]:
    colors = [graph.degree(v) for v in range(graph.n)]
    for _ in range(graph.n):
        sigs = [(colors[v], tuple(sorted(colors[u] for u in graph.adj[v]))) for v in range(graph.n)]
        ranking = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [ranking[s] for s in sigs]
        if new == colors:
            break
        colors = new
    return colors


_CANON_PERM_CAP = 1_000_000


def canonical_form(graph: Graph) -> tuple[int, int]:
    """Canonical key: two graphs get equal keys iff they are isomorphic.

    Vertices are first partitioned by iterated neighbourhood refinement; the
    key is the minimum edge bitstring over all orders compatible with that
    partition.  Meant for small graphs (catalog dedup, enumeration).
    """
    n = graph.n
    if n == 0:
        return (0, 0)
    colors = _wl_colors(graph)
    by_color: dict[int, list[int]] = {}
    for v in range(n):
        by_color.setdefault(colors[v], []).append(v)
    classes = [by_color[c] for c in sorted(by_color)]
    total = 1
    for c in classes:
        for k in range(2, len(c) + 1):
            total *= k
        if total > _CANON_PERM_CAP:
            raise TooLarge("too many candidate orders for canonical form")
    masks = graph.adjacency_masks()
    best = None
    for combo in itertools.product(*[itertools.permutations(c) for c in classes]):
        perm = [v for part in combo for v in part]
        bits = 0
        for j in range(1, n):
            mj = masks[perm[j]]
            for i in range(j):
                bits = (bits << 1) | ((mj >> perm[i]) & 1)
        if best is None or bits < best:
            best = bits
    return (n, best)


# -- parsing and serialization ----------------------------------------------


def parse_graph(text: str | bytes, fmt: str = "edge-list") -> Graph:
    """Parse a graph from edge-list or graph6 text."""
    if isinstance(text, (bytes, bytearray)):
        try:
            text = bytes(text).decode("ascii")
        except UnicodeDecodeError as exc:
            raise ParseError(f"input is not ASCII: {exc}") from None
    if fmt == "edge-list":
        return _parse_edge_list(text)
    if fmt == "graph6":
        return _parse_graph6(text)
    raise ValueError(f"unknown format {fmt!r}")


def serialize_graph(graph: Graph, fmt: str = "edge-list") -> str:
    if fmt == "edge-list":
        lines = [f"{graph.n} {graph.edge_count()}"]
        lines.extend(f"{u} {v}" for u, v in graph.edges)
        return "\n".join(lines) + "\n"
    if fmt == "graph6":
        return to_graph6(graph)
    raise ValueError(f"unknown format {fmt!r}")


def _parse_edge_list(text: str) -> Graph:
    """Read the header, count the edge lines, then add each edge to both
    neighbour sets, so that a wrong edge count is reported before any bad
    edge line, and each edge line's error carries its line number."""
    lines = text.splitlines()
    # the numbers of the lines that are neither blank nor a comment
    numbers = [no for no, raw in enumerate(lines, 1) if (line := raw.lstrip()) and line[0] != "#"]
    if not numbers:
        raise ParseError("missing header line 'n m'")
    head_no = numbers[0]
    parts = lines[head_no - 1].split()
    if len(parts) != 2:
        raise ParseError("header must be 'n m'", head_no)
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise ParseError("header must contain two integers", head_no) from None
    if n < 0 or m < 0:
        raise ParseError("header counts must be non-negative", head_no)
    if len(numbers) - 1 != m:
        raise ParseError(f"expected {m} edge lines, found {len(numbers) - 1}")
    ids = list(range(n))  # one int object per vertex, shared by every set holding it
    adj = [set() for _ in ids]
    for k in range(1, m + 1):
        no = numbers[k]
        parts = lines[no - 1].split()
        if len(parts) != 2:
            raise ParseError("edge line must be 'u v'", no)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError("edge endpoints must be integers", no) from None
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"vertex out of range in edge ({u},{v})", no)
        if u == v:
            raise ParseError(f"loop edge at vertex {u}", no)
        nb = adj[u]
        if v in nb:
            raise ParseError(f"duplicate edge ({u},{v})", no)
        nb.add(ids[v])
        adj[v].add(ids[u])
    return Graph._from_sets(adj)


_G6_HEADER = ">>graph6<<"
_G6_INVALID = re.compile(r"[^?-~]")  # graph6 characters are chr(63) to chr(126)
_G6_NONZERO = re.compile(r"[^?]")  # a group with a bit set
# the set bits of each group value, as offsets from its most significant bit
_G6_BITS = [[b for b in range(6) if d >> (5 - b) & 1] for d in range(64)]


def _parse_graph6(text: str) -> Graph:
    """Check the text, then add each set bit straight to both neighbour sets,
    skipping the groups with no bit set in one regular-expression scan."""
    s = text.strip()
    if s.startswith(_G6_HEADER):
        s = s[len(_G6_HEADER):]
    if not s:
        raise ParseError("empty graph6 input")
    # whitespace is never a graph6 character, so both checks run only on a miss
    if _G6_INVALID.search(s) is not None:
        if any(ch.isspace() for ch in s):
            raise ParseError("graph6 input must be a single token")
        raise ParseError("invalid graph6 character")
    size = len(s)
    if s[0] != "~":
        n, idx = ord(s[0]) - 63, 1
    elif size >= 4 and s[1] != "~":
        n, idx = ((ord(s[1]) - 63) << 12) | ((ord(s[2]) - 63) << 6) | (ord(s[3]) - 63), 4
    elif size >= 8:
        n = 0
        for ch in s[2:8]:
            n = (n << 6) | (ord(ch) - 63)
        idx = 8
    else:
        raise ParseError("truncated graph6 vertex count")
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if size - idx != need:
        raise ParseError(f"graph6 body has {size - idx} groups, expected {need}")
    pad = need * 6 - nbits
    if pad and (ord(s[-1]) - 63) & ((1 << pad) - 1):
        raise ParseError("nonzero padding bits in graph6 input")
    ids = list(range(n))  # one int object per vertex, shared by every set holding it
    adj = [set() for _ in ids]
    # bit k of the body is entry (i, j) of the upper triangle, column by column;
    # (i, j) is the first bit of the group at `at`
    i, j, at = 0, 1, idx
    for group in _G6_NONZERO.finditer(s, idx):
        k = group.start()
        i += 6 * (k - at)
        at = k
        while i >= j:
            i -= j
            j += 1
        for b in _G6_BITS[ord(s[k]) - 63]:
            u, v = i + b, j
            while u >= v:
                u -= v
                v += 1
            u, v = ids[u], ids[v]
            adj[u].add(v)
            adj[v].add(u)
    return Graph._from_sets(adj)


def to_graph6(graph: Graph) -> str:
    n = graph.n
    if n <= 62:
        head = chr(n + 63)
    elif n <= 258047:
        head = "~" + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    else:
        head = "~~" + "".join(chr(((n >> s) & 63) + 63) for s in (30, 24, 18, 12, 6, 0))
    bits = []
    for j in range(1, n):
        for i in range(j):
            bits.append(1 if graph.has_edge(i, j) else 0)
    while len(bits) % 6:
        bits.append(0)
    body = []
    for k in range(0, len(bits), 6):
        val = 0
        for b in bits[k:k + 6]:
            val = (val << 1) | b
        body.append(chr(val + 63))
    return head + "".join(body)
