"""Distance-hereditary recognition by pendant and twin elimination.

A connected graph reduces to a single vertex by repeatedly deleting a pendant
vertex or one of a twin pair exactly when it is distance hereditary, and the
recorded elimination doubles as a replayable certificate.

`pruning_sequence` always deletes the smallest removable vertex id, as a
pendant when it has degree 1, else as the twin of its smallest partner, so
the sequence depends on the graph alone.  It works on twin classes, maximal
sets of pairwise true or pairwise false twins.  Deleting x creates a new
twin pair only at the step's anchor, and only when x leaves no twin behind
(the lemma is proved in its docstring), so deleting a twin whose class
keeps two members touches nothing else, and at most the anchor's class is
looked up again.  It costs O(m + n log n);
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
and the pass ends as soon as the kept set is R and is a hole, house, gem
or domino (`minimal_non_dh_family`).
The failed pruning also settles the search: when G[R] is one of the four
and the pruned graph is connected, R is the answer, as the proof in
`non_dh_obstruction` shows.  So only an R that is not one of the four, or
the residue of a disconnected graph, costs DH tests: none for a hole or a
small obstruction hung on a large DH graph, and never more than |C| + 1 in
all, O(n(m + n log n)).
`oracle.reference_non_dh_obstruction` restarts at the lowest id after every
deletion and tries every vertex, up to about n^2 DH tests; the tests require
the two to return the same vertex tuple.
"""

from __future__ import annotations

import random
from collections.abc import Collection
from heapq import heappop, heappush
from typing import NamedTuple

from .errors import AlreadyDH, Disconnected, InvalidSequence
from .graph import Graph, connected_components, induced_subgraph, is_isomorphic_small, reach, two_core
from .named import domino_graph, gem_graph, house_graph
from .record import Record


class PruningStep(NamedTuple):
    """One elimination, recorded for each deleted vertex.  A named tuple, as
    it has no per-step `__dict__` and is built in about half the time of a
    frozen dataclass."""

    removed: int
    kind: str  # "pendant" | "true_twin" | "false_twin"
    anchor: int  # pendant: its neighbour; twins: the surviving twin


class PruningSequence(Record):
    """A pendant/twin elimination: `steps` in order, then the `last` vertex.

    `graph` is the graph object that `pruning_sequence` checked every step
    against while building the sequence, and None for any sequence built
    otherwise: by hand, from another sequence's fields or by the reference
    pruner.  Only `pruning_sequence` sets it, after construction, so a
    sequence vouches only for the very graph it was proved on.  It is not a
    field, so it takes no part in equality, hashing or repr.
    """

    _fields = ("steps", "last")
    steps: tuple[PruningStep, ...]
    last: int
    graph: Graph | None = None


# Seeds the per-vertex codes behind the neighbourhood keys; fixed so that a
# run is reproducible, though the output never depends on the codes.
_KEY_SEED = 20010101


def _twin_classes(adj: tuple[frozenset[int], ...], code: list[int], key: list[int]) -> tuple[list[int], bytearray]:
    """The twin classes of a graph: each vertex's class, named by its smallest
    member, and a flag per class that is set when it is a true class.

    `key[v]` is the XOR of `code` over v's neighbours.  Vertices are grouped
    by open key, for false twins, then by closed key, for true twins; a vertex
    whose key is already taken by a vertex it is not a twin of is grouped by
    its exact neighbourhood instead, so a key collision costs time, never a
    wrong class.  No vertex has twins of both kinds: if u ~ v were true twins
    and u ~ w false twins, w would be adjacent to v, hence to u.
    """
    n = len(adj)
    cls = list(range(n))
    true = bytearray(n)
    for closed in (0, 1):
        first: dict[int, int] = {}
        exact: dict[frozenset[int], int] = {}
        for v in range(n):
            if cls[v] != v:
                continue
            nb = adj[v]
            r = first.setdefault(key[v] ^ code[v] if closed else key[v], v)
            # with equal degrees, N(r) - N(v) = {v} says N[r] = N[v]
            if r != v and not (len(adj[r]) == len(nb) and adj[r] - nb == {v} if closed else adj[r] == nb):
                r = exact.setdefault(nb | {v} if closed else nb, v)
            if r != v:
                cls[v] = r
                true[r] = closed
    return cls, true


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

    The live vertices are kept in twin classes: maximal sets of pairwise true
    twins or pairwise false twins, found once, exactly, from `graph.adj`.  A
    class keeps its members, the set of classes adjacent to it, a key, the
    XOR of fixed random 64-bit codes over those classes, and an entry in an
    index from open and closed keys to classes.  Equal keys are only a hint:
    a twin claim is confirmed on the adjacent-class sets, so a collision costs
    one comparison, never a wrong step.

    Twins stay twins while other vertices are deleted, so classes never
    split.  They shrink as their members are deleted, and grow only when a
    one-member class merges into the class of its member's new twin.  That
    happens at a single place, by this lemma: *deleting x creates a new twin
    pair only at the step's anchor, and only when x leaves no twin behind.*
    Proof: two vertices are twins, of either kind, when no third vertex is
    adjacent to exactly one of them.  If a and b become twins once x is
    deleted, x was the one vertex that told them apart.  A surviving twin y
    of x has x's neighbours outside {x, y}, so unless y is a or b it tells
    them apart too.  So if x's class keeps two members, both would be a and
    b, which were twins already.  If it keeps one member y, y is a or b, and
    y is the step's anchor unless x is a pendant, when the other is x's one
    neighbour, the anchor, as x is adjacent to exactly one of a and b; so
    looking up y's class finds the pair.  If x was a pendant with no twin,
    its one neighbour, the anchor, is a or b for the same reason.  Likewise
    deleting x lowers a degree to 1 only at the anchor or at a neighbour of
    it: a neighbour of x still adjacent to two members of x's class keeps
    degree 2.

    So the steps run as follows.  A queue holds every vertex that is a
    pendant or has a twin; one popped after losing its only twin is dropped.
    The smallest queued vertex x is the smallest removable one, and so the
    smallest of its class, all of whose members are removable: a twin step's
    partner is the class's next member.  Deleting x from a class that keeps
    two or more members touches nothing else.  When the class is left with
    one member, its adjacent one-member classes with no other neighbour
    become pendants, and the class is rechecked; when a pendant's one-member
    class leaves, its neighbour's class drops one key term and is rechecked.
    A changed class is taken out of the index and filed again; a one-member
    class is rechecked as it is filed, against the classes already in the
    two buckets it joins, so a recheck costs no lookup of its own.  On a
    match the one-member class merges into its twin's class, whose code
    takes in its own, so that no other class's key changes.

    Setup costs O(n + m): one key per vertex, and each vertex compared once
    with the first vertex of its key.  A merge, and the pendant scan of a
    class left with one member, cost the number of classes adjacent to it,
    at most the degree of that member y, and adjacent-class sets only ever
    shrink.  The scan is paid for by the deletion of y's last twin, which had
    as many adjacent classes, and so is y's next merge; y's first merge is
    paid for by its own edges.  The queue takes O(n) vertices in all, each
    merge adding at most two and each vertex becoming a pendant once, so the
    steps cost O(m + n log n), as long as no two distinct neighbourhoods
    share a key.

    A false twin with no neighbour is an isolated vertex, and deleting one
    raises `Disconnected`.  No other step disconnects a component or
    deletes its last vertex, so the live vertices induce as many components
    as the graph has.  A disconnected graph thus either comes to such a
    step or fails with a disconnected residue, and a failed pruning checks
    the residue's connectivity before it returns None: the residue is
    connected exactly when the graph is, so when `connected_components` has
    already found the graph's components the check reads their number, and
    otherwise it is one walk over the live vertices.
    """
    n = graph.n
    if n == 0:
        raise Disconnected("empty graph has no pruning sequence")
    adj = graph.adj
    rng = random.Random(_KEY_SEED)
    code = [rng.getrandbits(64) for _ in range(n)]
    # the keys of the vertices' open neighbourhoods, which become the classes'
    # open keys once each class's code is the XOR of its members' codes
    key = []
    for nb in adj:
        k = 0
        for u in nb:
            k ^= code[u]
        key.append(k)
    cls, true = _twin_classes(adj, code, key)
    # members[c] is None for a class holding only the vertex c, else a heap
    members: list[list[int] | None] = [None] * n
    for v in range(n):
        c = cls[v]
        if c != v:
            if members[c] is None:
                members[c] = [c]
            members[c].append(v)
            code[c] ^= code[v]
            if true[c]:
                key[c] ^= code[v]  # a true class's members are not its neighbours
    nbr: list[set[int] | None] = [None] * n
    for v in range(n):
        if cls[v] == v:
            nbr[v] = nb = set(map(cls.__getitem__, adj[v]))
            nb.discard(v)
    by_open: dict[int, list[int]] = {}  # one-member and false classes
    by_closed: dict[int, list[int]] = {}  # one-member and true classes

    def single(c: int) -> int | None:
        m = members[c]
        if m is None:
            return c
        return m[0] if len(m) == 1 else None

    def file(c: int) -> tuple[list[int] | None, list[int] | None]:
        """File class c under its open and closed keys, as its kind and size
        say; the buckets it joined that already held a class, else None."""
        m = members[c]
        t = true[c]
        one = m is None or len(m) == 1
        opened = closed = None
        if one or not t:
            k = key[c]
            opened = by_open.get(k)
            if opened is None:
                by_open[k] = [c]
            else:
                opened.append(c)
        if one or t:
            k = key[c] ^ code[c]
            closed = by_closed.get(k)
            if closed is None:
                by_closed[k] = [c]
            else:
                closed.append(c)
        return opened, closed

    def unfile(c: int) -> None:
        m = members[c]
        t = true[c]
        one = m is None or len(m) == 1
        if one or not t:
            k = key[c]
            bucket = by_open[k]
            if len(bucket) == 1:
                del by_open[k]
            else:
                bucket.remove(c)
        if one or t:
            k = key[c] ^ code[c]
            bucket = by_closed[k]
            if len(bucket) == 1:
                del by_closed[k]
            else:
                bucket.remove(c)

    def lone_neighbour(c: int) -> int | None:
        """The one neighbour of each member of class c, when they have degree 1."""
        m = members[c]
        nb = nbr[c]
        if m is not None and len(m) > 1 and true[c]:
            return m[1] if len(m) == 2 and not nb else None  # the members form a K2
        if len(nb) == 1:
            for d in nb:
                return single(d)
        return None

    queue = [v for v in range(n) if members[cls[v]] is not None or len(adj[v]) == 1]
    queued = bytearray(n)
    for v in queue:
        queued[v] = 1

    def push(v: int) -> None:
        if not queued[v]:
            queued[v] = 1
            heappush(queue, v)

    def merge(c: int, t: int, closed: int) -> None:
        """The one-member class c joins t, the class of its member's twins.

        Every class adjacent to c but t is adjacent to t too, so once t's
        code takes in c's, their keys are unchanged.  So are t's index keys:
        a true t drops c's code from its open key, as c's member is now one
        of its members rather than a neighbour."""
        y = single(c)
        unfile(c)
        unfile(t)
        for d in nbr[c]:
            nbr[d].discard(c)
        nbr[c] = None
        code[t] ^= code[c]
        if closed:
            key[t] ^= code[c]
        m = members[t]
        if m is None:
            members[t] = m = [t]
        if len(m) == 1:
            push(m[0])
        heappush(m, y)
        cls[y] = t
        true[t] = closed
        file(t)
        push(y)

    def refile(c: int) -> None:
        """File the one-member class c, unfiled while it changed; queue its
        member if it is now a pendant, and merge c into the class of its new
        twins, if it has any, which share one of the two buckets c joins."""
        opened, closed = file(c)
        if lone_neighbour(c) is not None:
            push(single(c))
        nb = nbr[c]
        if opened is not None:
            for t in opened:
                if t != c and nbr[t] == nb:
                    merge(c, t, 0)
                    return
        if closed is not None:
            for t in closed:
                if t != c and t in nb and len(nbr[t]) == len(nb) and nb - nbr[t] == {t}:
                    merge(c, t, 1)
                    return

    for c in range(n):
        if cls[c] == c:
            file(c)
    steps = []
    while len(steps) < n - 1:
        if not queue:
            live = sorted(v for c in range(n) if nbr[c] is not None for v in members[c] or (c,))
            components = graph._components  # kept by connected_components, if it ran
            if components is not None:
                connected = len(components) == 1
            else:
                connected = len(reach(adj, live[0], set(range(n)).difference(live))) == len(live)
            if not connected:
                raise Disconnected("pruning sequences are defined for connected graphs")
            if residue is not None:
                residue.extend(live)
            return None
        x = heappop(queue)
        queued[x] = 0
        c = cls[x]
        m = members[c]
        anchor = lone_neighbour(c)
        if anchor is not None:
            kind = "pendant"
        elif m is None or len(m) == 1:
            continue  # x lost its only twin
        elif true[c] or nbr[c]:
            kind = "true_twin" if true[c] else "false_twin"
            anchor = min(m[1:3])  # the heap's second smallest
        else:  # a false twin with no neighbour is an isolated vertex
            raise Disconnected("pruning sequences are defined for connected graphs")
        steps.append(PruningStep(x, kind, anchor))
        if m is None or len(m) == 1:
            # x is a pendant with no twin: its class leaves with it, and only
            # its neighbour's class changes, dropping x's code from its key
            (p,) = nbr[c]
            unfile(c)
            nbr[c] = None
            unfile(p)
            nbr[p].discard(c)
            key[p] ^= code[c]
            refile(p)
        elif len(m) == 2:
            # x's class is left with one member, so a one-member class with
            # no other neighbour is now a pendant on it
            unfile(c)
            heappop(m)
            for d in nbr[c]:
                if len(nbr[d]) == 1 and single(d) is not None:
                    push(single(d))
            refile(c)
        else:
            heappop(m)
    seq = PruningSequence(tuple(steps), steps[-1].anchor if steps else 0)
    object.__setattr__(seq, "graph", graph)  # immutable, and not a field
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


def minimal_non_dh_family(graph: Graph) -> str | None:
    """"hole" when the graph is a chordless cycle of length at least 5, its
    family when it is a house, gem or domino, else None.

    These are exactly the minimal non-DH graphs (Bandelt & Mulder, JCTB 41,
    1986).  A hole costs O(n), and no walk when the graph's components are
    already known; any other graph is refused after its first vertex of
    degree other than 2 unless it has 5 or 6 vertices, the only orders the
    isomorphism test is tried on.
    """
    n = graph.n
    if n >= 5 and all(len(nb) == 2 for nb in graph.adj) and len(connected_components(graph)) == 1:
        return "hole"
    for family, member in _SMALL_NON_DH.items():
        if n == member.n and is_isomorphic_small(graph, member):
            return family
    return None


def _settle(graph: Graph, live: set[int], pruned: Graph) -> tuple[str | None, bool]:
    """The family of G[live], the residue of a failed pruning of `pruned`,
    and whether that settles the search: G[live] is a minimal non-DH graph
    and `pruned` is connected.  The DH test of `pruned` has already split it
    into components, so this walks nothing."""
    kind = minimal_non_dh_family(induced_subgraph(graph, live))
    return kind, kind is not None and len(connected_components(pruned)) == 1


def non_dh_obstruction(
    graph: Graph,
    *,
    pruning_residue: Collection[int] | None = None,
    family: list[str | None] | None = None,
) -> tuple[int, ...]:
    """Minimal induced subgraph witnessing non-distance-hereditariness.

    Greedy deletion in one ascending pass over the 2-core C of the graph,
    what remains after repeatedly deleting vertices of degree at most 1: drop
    each vertex whose removal keeps the kept set K non-DH.  The result is one
    of the classical minimal obstructions (house, gem, domino, or a hole),
    whose `minimal_non_dh_family` is appended to `family` when a list is
    given.  It is the same tuple as restarting at the lowest id after every
    deletion over all vertices (`oracle.reference_non_dh_obstruction`), for
    two reasons:

    - non-DH survives adding vertices, so a vertex whose deletion once left a
      DH graph can never be deleted later, and a restart repeats only trials
      that fail again;
    - a graph is DH exactly when its 2-core is, and the 2-core of G[K] is the
      2-core of G[K ∩ C], so every vertex outside C would be deleted and no
      decision on a vertex of C depends on them.

    `pruning_residue` must be the residue R of a failed `pruning_sequence`
    of `graph` itself, which is then connected; any other vertex set, even a
    non-DH one, may give a wrong tuple, since the settled rule below rests
    on that pruning.  Without one, R is the residue of the one DH test on
    G[C], which raises `AlreadyDH` when G[C] is DH.  C is classified before
    that test, so a hole, or a C that is already a house, gem or domino, is
    returned with no DH test.  The pass keeps R inside K and does the plain
    pass's work with four shortcuts, none of which changes the tuple.  They
    rest on one fact, here called Break: a vertex kept so far was kept
    because K minus it was DH, so it lies in every non-DH set inside K, and
    so in R.  So once the pass is above max(R) the answer is R: every later
    vertex lies outside R and Skip deletes it, as the rest still contains R,
    and the Stop rule ends the pass once K = R.

    - **Skip.**  A vertex outside R is deleted with no test, since the rest
      of K still contains R and so is non-DH.
    - **Re-peel.**  A vertex v of R gets one trial, the 2-core of K - {v},
      which is also the 2-core of the plain pass's kept set minus v, since
      2-core(X - v) = 2-core(2-core(X) - v).  If it is non-DH it becomes K
      and its own residue becomes R; the vertices peeled out of it are
      skipped, since the plain pass deletes each of them: its 2-core, hence
      its DH status, does not change without them.
    - **Settled.**  A minimal R is the answer.  Let S be the failed pruning
      of a connected graph H, with residue R, where H[R] is a hole, house,
      gem or domino.  For v in R, let W = (R - v) ∪ {u ∉ R : u > v}.  S
      always removes the smallest removable id x, and a twin step's anchor
      is the next member of x's class, so the anchor is above x.  Replay in
      H[W] the steps of S whose x lies in W: a twin step has x > v, so its
      anchor is above v, lies in W and is still x's twin; a pendant step
      leaves x a pendant or an isolated vertex.  So H[W] is DH iff H[R - v]
      is, and H[R - v] is DH because H[R] is minimal.  When the pass
      reaches v, every vertex it has kept lies in R (see Break), so for K
      inside V(H) its kept set minus v lies inside W, and v is kept: every
      vertex of R is kept, and the answer, a minimal non-DH set containing
      R, is R.  H is `graph` for a handed-in R, which is then returned
      before C is computed, and G[C] or the trial for an R found here, when
      that is connected: `is_distance_hereditary` prunes only its first
      non-DH component.
    - **Stop rule.**  Each R is classified once; whenever K = R and G[R] is
      a minimal non-DH graph M, the plain pass would end with exactly M, so
      the pass returns it.  A later j in M is kept, as the 2-core of
      K - {j} lies in M - {j}, which is DH because M is minimal, and every
      other vertex is settled as under Break.  This serves a minimal R
      whose pruned graph is disconnected, which Settled leaves open.

    Only a vertex of an R that is not minimal, or whose pruned graph is
    disconnected, costs a DH test, so a search whose first R is minimal
    costs at most the one test of G[C], and none when R is handed in.  The
    worst case is still |C| + 1 DH tests, each on a 2-core, so
    O(n(m + n log n)), as when R is most of a prime 2-core.
    """
    if pruning_residue:
        live = set(pruning_residue)
        kind = minimal_non_dh_family(induced_subgraph(graph, live))
        if kind is not None:  # settled, as `graph` is connected
            return _answer(live, kind, family)
    keep = two_core(graph)
    kept = set(keep)
    if not pruning_residue:
        sub = induced_subgraph(graph, keep)
        kind = minimal_non_dh_family(sub)
        if kind is not None:
            return _answer(kept, kind, family)
        found: list[int] = []
        if is_distance_hereditary(sub, found):
            raise AlreadyDH("graph is distance hereditary")
        live = {keep[i] for i in found}
        kind, settled = _settle(graph, live, sub)
        if settled:
            return _answer(live, kind, family)
    for v in keep:
        if v not in kept:
            continue
        if v in live:
            trial = two_core(graph, kept - {v})
            sub = induced_subgraph(graph, trial)
            found = []
            if is_distance_hereditary(sub, found):
                continue
            kept = set(trial)
            live = {trial[i] for i in found}
            kind, settled = _settle(graph, live, sub)
            if settled:
                break
        else:
            kept.discard(v)
        if kind is not None and len(kept) == len(live):
            break
    return _answer(live, kind, family)


def _answer(live: set[int], kind: str | None, family: list | None) -> tuple[int, ...]:
    if family is not None:
        family.append(kind)
    return tuple(sorted(live))
