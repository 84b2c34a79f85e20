"""Distance-hereditary recognition by pendant and twin elimination.

A connected graph reduces to a single vertex by repeatedly deleting a pendant
vertex or one of a twin pair exactly when it is distance hereditary, and the
recorded elimination doubles as a replayable certificate.

`pruning_sequence` always deletes the smallest removable vertex id, as a
pendant when it has degree 1, else as the twin of its smallest partner, so
the sequence depends on the graph alone.  It keeps its neighbourhood keys and
twin buckets from one step to the next and costs O((n + m) log n);
`oracle.reference_pruning_sequence` rescans the whole graph at every step, in
O(n(n + m)), and the tests require the two to agree step for step.

When pruning fails, the vertices still live form its residue R: a connected
induced subgraph with at least 3 vertices and no pendant or twin, hence not
DH (Bandelt & Mulder, JCTB 41, 1986), of minimum degree 2, so R lies in the
2-core of every vertex set that contains it.  `pruning_sequence` and
`is_distance_hereditary` hand R back through an optional output list.

`non_dh_obstruction` makes one ascending pass over the 2-core C and deletes
each vertex whose removal leaves the rest non-DH.  The residue steers it: a
vertex outside R is deleted with no test, a vertex of R gets one trial,
peeled back to its 2-core, whose own residue replaces R when it is non-DH,
and the pass ends at the first vertex above max(R), or as soon as the kept
set is R and is a hole, house, gem or domino (`minimal_non_dh_family`).
Only a vertex of the current residue costs a DH test, so a small
obstruction in a large 2-core costs about |R| tests, and never more than
|C| + 1 in all, O(n(n + m) log n).  There is none at all when the 2-core is
one of the four, as for a hole, or when a residue handed in lies on the
highest ids of C.  `oracle.reference_non_dh_obstruction` restarts at the
lowest id after every deletion and tries every vertex, up to about n^2 DH
tests; the tests require the two to return the same vertex tuple.
"""

from __future__ import annotations

import random
from collections.abc import Collection
from dataclasses import dataclass, field
from functools import reduce
from heapq import heappop, heappush
from operator import xor

from .errors import AlreadyDH, Disconnected, InvalidSequence
from .graph import Graph, connected_components, induced_subgraph, is_isomorphic_small, two_core
from .named import domino_graph, gem_graph, house_graph


@dataclass(frozen=True)
class PruningStep:
    removed: int
    kind: str  # "pendant" | "true_twin" | "false_twin"
    anchor: int  # pendant: its neighbour; twins: the surviving twin


@dataclass(frozen=True)
class PruningSequence:
    """A pendant/twin elimination: `steps` in order, then the `last` vertex.

    `graph` is the graph object that `pruning_sequence` checked every step
    against while building the sequence, and None for any sequence built by
    hand, by `dataclasses.replace` or by the reference pruner.  Only
    `pruning_sequence` sets it, after construction, so a sequence vouches
    only for the very graph it was proved on.  It takes no part in equality,
    hashing or repr.
    """

    steps: tuple[PruningStep, ...]
    last: int
    graph: Graph | None = field(default=None, init=False, compare=False, repr=False)


# Seeds the per-vertex codes behind the neighbourhood keys; fixed so that a
# run is reproducible, though the output never depends on the codes.
_KEY_SEED = 20010101


def pruning_sequence(graph: Graph, residue: list[int] | None = None) -> PruningSequence | None:
    """Greedy pendant/twin elimination; None when no elimination exists.

    On failure the vertices still live, the residue, are appended to
    `residue` when a list is given, in ascending order; on success it is left
    as it is.  No live vertex is then a pendant or a twin, so they induce a
    connected graph of minimum degree 2 that is not DH.

    Succeeding is equivalent to the graph being distance hereditary, because
    induced subgraphs of distance-hereditary graphs always keep a pendant or
    twin, and conversely growing back the sequence only ever uses the three
    safe extension moves.

    A twin is deleted towards the smaller of its smallest true-twin and
    smallest false-twin partner.  Every vertex carries a 64-bit key, the XOR
    of fixed random codes over its open neighbourhood (its closed key adds
    its own code), and vertices with equal keys share a bucket.  Deleting x
    updates the keys of x's neighbours in O(1) each and puts them on a
    min-heap of candidates, which are checked when popped.  Equal keys are
    only a hint: each twin claim compares the real neighbourhoods, and a
    bucket found to hold unequal neighbourhoods requeues all its members
    whenever a vertex joins it.  The cost is O((n + m) log n) as long as no
    two distinct neighbourhoods share a key.
    """
    if graph.n == 0:
        raise Disconnected("empty graph has no pruning sequence")
    if len(connected_components(graph)) != 1:
        raise Disconnected("pruning sequences are defined for connected graphs")
    n = graph.n
    rng = random.Random(_KEY_SEED)
    code = [rng.getrandbits(64) for _ in range(n)]
    adj = [set(nb) for nb in graph.adj]
    okey = [reduce(xor, [code[w] for w in nb], 0) for nb in adj]
    alive = [True] * n
    # index 0: buckets by open key (false twins); index 1: by closed key (true twins).
    # A bucket is a heap of vertex ids whose stale entries are dropped when they surface.
    buckets: tuple[dict[int, list[int]], dict[int, list[int]]] = ({}, {})
    sizes: tuple[dict[int, int], dict[int, int]] = ({}, {})
    impure: tuple[set[int], set[int]] = (set(), set())
    for v in range(n):
        buckets[0].setdefault(okey[v], []).append(v)
        buckets[1].setdefault(okey[v] ^ code[v], []).append(v)
    for t in (0, 1):
        sizes[t].update((k, len(b)) for k, b in buckets[t].items())
    queue = list(range(n))
    queued = [True] * n

    def in_bucket(t: int, k: int, v: int) -> bool:
        return alive[v] and (okey[v] ^ code[v] if t else okey[v]) == k

    def top(t: int, k: int) -> int:
        bucket = buckets[t][k]
        while not in_bucket(t, k, bucket[0]):
            heappop(bucket)
        return bucket[0]

    def push(v: int) -> None:
        if not queued[v]:
            queued[v] = True
            heappush(queue, v)

    def leave(t: int, k: int) -> None:
        left = sizes[t][k] - 1
        if left:
            sizes[t][k] = left
        else:
            del sizes[t][k], buckets[t][k]

    def join(t: int, k: int, v: int) -> None:
        # v may be a new partner for a member whose key did not change.  A lone
        # member is queued.  In a larger bucket, a member off the queue was last
        # checked while sharing the bucket and found no partner there, which
        # marked the bucket impure; only then are the members queued again.
        size = sizes[t].get(k, 0)
        if k in impure[t]:
            for w in buckets[t].get(k, ()):
                if in_bucket(t, k, w):
                    push(w)
        elif size == 1:
            push(top(t, k))
        sizes[t][k] = size + 1
        heappush(buckets[t].setdefault(k, []), v)

    def twins(t: int, u: int, v: int) -> bool:
        if t:
            return v in adj[u] and adj[u] ^ adj[v] == {u, v}
        return adj[u] == adj[v]

    def partner(t: int, u: int) -> int | None:
        k = okey[u] ^ code[u] if t else okey[u]
        if sizes[t][k] < 2:
            return None
        candidate = top(t, k)
        if candidate == u:
            heappop(buckets[t][k])
            candidate = top(t, k)
            heappush(buckets[t][k], u)
        if candidate != u and twins(t, u, candidate):
            return candidate
        impure[t].add(k)
        members = {w for w in buckets[t][k] if w != u and in_bucket(t, k, w)}
        return next((w for w in sorted(members) if twins(t, u, w)), None)

    steps = []
    for _ in range(n - 1):
        while True:
            if not queue:
                if residue is not None:
                    residue.extend(v for v in range(n) if alive[v])
                return None
            u = heappop(queue)
            queued[u] = False
            if len(adj[u]) == 1:
                step = PruningStep(u, "pendant", next(iter(adj[u])))
                break
            true_partner = partner(1, u)
            false_partner = partner(0, u)
            if true_partner is not None and (false_partner is None or true_partner < false_partner):
                step = PruningStep(u, "true_twin", true_partner)
                break
            if false_partner is not None:
                step = PruningStep(u, "false_twin", false_partner)
                break
        x = step.removed
        alive[x] = False
        leave(0, okey[x])
        leave(1, okey[x] ^ code[x])
        for u in adj[x]:
            adj[u].discard(x)
            old = okey[u]
            okey[u] = new = old ^ code[x]
            leave(0, old)
            join(0, new, u)
            leave(1, old ^ code[u])
            join(1, new ^ code[u], u)
            push(u)
        steps.append(step)
    seq = PruningSequence(tuple(steps), alive.index(True))
    object.__setattr__(seq, "graph", graph)  # frozen, and not an init argument
    return seq


def replay_pruning(graph: Graph, seq: PruningSequence) -> None:
    """Re-verify every step of a pruning sequence against its definition.

    Every sequence given is checked, whatever its `graph` field says; it is
    the caller that skips the replay of a sequence `pruning_sequence` built
    on the same graph object, having checked each step as it went.
    """
    if graph.n == 0:
        raise InvalidSequence("no sequence can prune an empty graph")
    if len(seq.steps) != graph.n - 1:
        raise InvalidSequence(f"expected {graph.n - 1} steps, got {len(seq.steps)}")
    adj = {v: set(graph.adj[v]) for v in range(graph.n)}
    for i, st in enumerate(seq.steps):
        if st.removed not in adj or st.anchor not in adj or st.removed == st.anchor:
            raise InvalidSequence(f"step {i} references dead or equal vertices")
        nb = adj[st.removed]
        if st.kind == "pendant":
            if nb != {st.anchor}:
                raise InvalidSequence(f"step {i}: {st.removed} is not a pendant on {st.anchor}")
        elif st.kind == "true_twin":
            if st.anchor not in nb or nb - {st.anchor} != adj[st.anchor] - {st.removed}:
                raise InvalidSequence(f"step {i}: {st.removed} is not a true twin of {st.anchor}")
        elif st.kind == "false_twin":
            if st.anchor in nb or nb != adj[st.anchor]:
                raise InvalidSequence(f"step {i}: {st.removed} is not a false twin of {st.anchor}")
        else:
            raise InvalidSequence(f"step {i}: unknown kind {st.kind!r}")
        for u in nb:
            adj[u].discard(st.removed)
        del adj[st.removed]
    if set(adj) != {seq.last}:
        raise InvalidSequence("sequence does not end at the recorded last vertex")


def is_distance_hereditary(graph: Graph, residue: list[int] | None = None) -> bool:
    """True iff every connected component admits a pruning sequence.

    When one does not, the residue of the first such component, in `graph`'s
    ids, is appended to `residue` when a list is given.
    """
    for comp in connected_components(graph):
        live: list[int] = []
        if pruning_sequence(induced_subgraph(graph, comp), live) is None:
            if residue is not None:
                residue.extend(comp[i] for i in live)
            return False
    return True


# the minimal non-DH graphs other than holes, in the order they are tried;
# built once, at import
_SMALL_NON_DH = {"house": house_graph(), "gem": gem_graph(), "domino": domino_graph()}


def minimal_non_dh_family(graph: Graph) -> tuple[str, int | None] | None:
    """("hole", k) when the graph is a chordless cycle of length k >= 5,
    (family, None) when it is a house, gem or domino, else None.

    These are exactly the minimal non-DH graphs (Bandelt & Mulder, JCTB 41,
    1986).  A hole costs O(n); any other graph is refused after its first
    vertex of degree other than 2 unless it has 5 or 6 vertices, the only
    orders the isomorphism test is tried on.
    """
    n = graph.n
    if n >= 5 and all(len(nb) == 2 for nb in graph.adj) and len(connected_components(graph)) == 1:
        return "hole", n
    for family, member in _SMALL_NON_DH.items():
        if n == member.n and is_isomorphic_small(graph, member):
            return family, None
    return None


def non_dh_obstruction(graph: Graph, residue: Collection[int] | None = None) -> tuple[int, ...]:
    """Minimal induced subgraph witnessing non-distance-hereditariness.

    Greedy deletion in one ascending pass over the 2-core C of the graph,
    what remains after repeatedly deleting vertices of degree at most 1: drop
    each vertex whose removal keeps the kept set K non-DH.  The result is one
    of the classical minimal obstructions (house, gem, domino, or a hole).
    It is the same tuple as restarting at the lowest id after every deletion
    over all vertices (`oracle.reference_non_dh_obstruction`), for two
    reasons:

    - non-DH survives adding vertices, so a vertex whose deletion once left a
      DH graph can never be deleted later, and a restart repeats only trials
      that fail again;
    - a graph is DH exactly when its 2-core is, and the 2-core of G[K] is the
      2-core of G[K ∩ C], so every vertex outside C would be deleted and no
      decision on a vertex of C depends on them.

    `residue` is a vertex set R inside C that induces a non-DH graph, such
    as the residue of a failed `pruning_sequence` of the graph; without one,
    R is the residue of the one DH test on G[C], which raises `AlreadyDH`
    when G[C] is DH.  C is classified before that test, so a hole, or a C
    that is already a house, gem or domino, is returned with no DH test.
    The pass keeps R inside K and does the plain pass's work with four
    shortcuts, none of which changes the tuple:

    - **Skip.**  A vertex outside R is deleted with no test, since the rest
      of K still contains R and so is non-DH.
    - **Re-peel.**  A vertex v of R gets one trial, the 2-core of K - {v},
      which is also the 2-core of the plain pass's kept set minus v, since
      2-core(X - v) = 2-core(2-core(X) - v).  If it is non-DH it becomes K
      and its own residue becomes R; the vertices peeled out of it are
      skipped, since the plain pass deletes each of them: its 2-core, hence
      its DH status, does not change without them.
    - **Break.**  At the first vertex above max(R) the answer is R.  A
      vertex kept so far was kept because K minus it was DH, so it lies in
      every non-DH set inside K, and so in R; every later vertex lies
      outside R and is deleted, as the rest still contains R.
    - **Stop rule.**  Whenever K = R, G[R] is classified once; if it is a
      minimal non-DH graph M (`minimal_non_dh_family`), the plain pass would
      end with exactly M, so the pass returns it.  A later j in M is kept,
      as the 2-core of K - {j} lies in M - {j}, which is DH because M is
      minimal, and every other vertex is settled as under Break.

    Only a vertex of the current R costs a DH test, so a small obstruction
    inside a large 2-core costs about |R| tests, not |C|.  The worst case
    is still |C| + 1 DH tests, each on a 2-core, so O(n(n + m) log n), as
    when R is most of a prime 2-core.
    """
    keep = two_core(graph)
    sub = induced_subgraph(graph, keep)
    if minimal_non_dh_family(sub) is not None:
        return tuple(keep)
    if not residue:
        found: list[int] = []
        if is_distance_hereditary(sub, found):
            raise AlreadyDH("graph is distance hereditary")
        residue = [keep[i] for i in found]
    live = set(residue)
    top = max(live)
    kept = set(keep)
    for v in keep:
        if v > top:
            break
        if v not in kept:
            continue
        if v in live:
            trial = two_core(graph, kept - {v})
            found = []
            if is_distance_hereditary(induced_subgraph(graph, trial), found):
                continue
            kept = set(trial)
            live = {trial[i] for i in found}
            top = max(live)
        else:
            kept.discard(v)
        if len(kept) == len(live) and minimal_non_dh_family(induced_subgraph(graph, live)) is not None:
            break
    return tuple(sorted(live))
