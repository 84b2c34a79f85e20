"""GF(2) rank of bit-packed integer rows, and the cut ranks of a graph.

The cut rank of one cut is the rank of its bit rows (`cut_rows`).  The
width of a vertex ordering is scored incrementally instead: one row basis
over the suffix, held as vertex sets, follows the ordering.  Each vertex's
suffix row is its neighbour set less the prefix, one set difference that
CPython runs in O(deg v) whichever operand is larger, and a row is copied
only when it enters the basis, so an ordering of width at most 1 is
checked in O(n + m) with the per-edge work inside set operations.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence

from .errors import InvalidVertex, NotAPermutation
from .graph import Graph


def rank_of_rows(rows: Iterable[int]) -> int:
    """Rank over GF(2) of integer bit rows, by elimination on a pivot table."""
    pivots: dict[int, int] = {}
    for row in rows:
        while row:
            h = row.bit_length() - 1
            p = pivots.get(h)
            if p is None:
                pivots[h] = row
                break
            row ^= p
    return len(pivots)


def cut_rows(
    adj: Sequence[Iterable[int]] | Mapping[int, Iterable[int]], side: Iterable[int], cols: Iterable[int]
) -> list[int]:
    """Bit rows of the adjacency between `side` and the column vertices `cols`.

    `adj` maps each vertex to its neighbours: a graph's adjacency tuple, or a
    block's dictionary over original vertices and markers.  Row i belongs to
    the i-th vertex of `side`; its bit j is set when that vertex is adjacent
    to the j-th vertex of `cols`.  Neighbours outside `cols` are ignored, so
    with `cols` the complement of `side` the rank of the rows is the cut rank.
    """
    col_pos = {v: i for i, v in enumerate(cols)}
    rows = []
    for u in side:
        m = 0
        for w in adj[u]:
            p = col_pos.get(w)
            if p is not None:
                m |= 1 << p
        rows.append(m)
    return rows


def cutrank_of_cut(graph: Graph, side: Iterable[int]) -> int:
    """GF(2) rank of the adjacency between a vertex set and its complement."""
    side_set = set(side)
    for v in side_set:
        if not 0 <= v < graph.n:
            raise InvalidVertex(f"vertex {v} not in graph of order {graph.n}")
    rest = [v for v in range(graph.n) if v not in side_set]
    return rank_of_rows(cut_rows(graph.adj, side_set, rest))


def cutrank_of_ordering(graph: Graph, order: Sequence[int]) -> int:
    """Maximum cut rank over the prefix cuts of a vertex ordering.

    The cuts are scored as the ordering advances, on one GF(2) basis of the
    current cut's rows.  A row is the set of suffix vertices it holds.  Its
    pivot is the row's vertex that comes last in the ordering, and no other
    row holds it, so the rows are independent and the rank of the cut is
    their number.  When v moves into the prefix, column v leaves every row;
    if v is a pivot, its row is {v} alone and goes.  Then v's own row, its
    neighbours in the suffix, is reduced against the basis; if nonzero it is
    added, and its pivot p is eliminated from the other rows.  Those rows
    hold p, so their pivots come after p and after every vertex of the new
    row: each pivot stays last in its row, and no row ever needs a new one.

    v's row is `graph.adj[v] - prefix`, a set difference that CPython runs
    in O(deg v): it walks adj[v] and looks each member up in the prefix, or,
    when adj[v] is more than 4 times larger than the prefix, copies adj[v]
    and walks the prefix instead.  The difference is a frozenset, compared
    and reduced as it is and copied into a mutable row only when it enters
    the basis.  A reduction stops at a row equal to it, since their sum is
    zero, so on an ordering of width at most 1, where the basis holds at
    most one row S, a step that keeps the rank costs one comparison with S,
    O(deg v), and the whole check costs O(n + m).  A step at rank k costs
    O(k n) at most.

    An order holding a label that is not exactly an int, such as True or
    1.0, raises NotAPermutation even where the label equals a vertex.  The
    full-set cut has no columns and contributes 0, so a single vertex has
    cutrank 0 and any graph with an edge has cutrank at least 1.
    """
    n = graph.n
    if len(order) != n:
        raise NotAPermutation("order must be a permutation of the vertex set")
    pos = [-1] * n
    for i, v in enumerate(order):
        if type(v) is not int or not 0 <= v < n or pos[v] >= 0:
            raise NotAPermutation("order must be a permutation of the vertex set")
        pos[v] = i
    last = pos.__getitem__
    adj = graph.adj
    prefix: set[int] = set()
    basis: dict[int, set[int]] = {}  # pivot -> row
    best = 0
    for v in order[:-1]:
        prefix.add(v)
        if basis.pop(v, None) is None:
            for other in basis.values():
                other.discard(v)
        row = adj[v] - prefix
        if not row:
            continue
        if not basis:  # the rank goes from 0 to 1, with nothing to reduce
            basis[max(row, key=last)] = set(row)
            best = best or 1
            continue
        for p, other in basis.items():
            if p in row:
                if row == other:
                    break  # their sum is zero: row is in the span
                row ^= other
        else:
            row = set(row)
            p = max(row, key=last)
            for other in basis.values():
                if p in other:
                    other ^= row
            basis[p] = row
            if len(basis) > best:
                best = len(basis)
    return best
