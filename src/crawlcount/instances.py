"""Copies as sorted vertex tuples, and the rules the layered sampler applies to them.

A copy is a strictly increasing ``tuple[int, ...]`` of host-graph vertices.
Nothing here touches a ledger: every function reads the graph's raw
adjacency, and its callers charge the queries in bulk (a layer's fetches in
``LayerState.build``, a trial's grown tuple in the trial loop) or keep no
ledger (the exact side).  The representative rule is
:func:`representative`, the subset, and :func:`representative_hood`, the
neighborhood whose size is a copy's sampling weight; the sampler stores it
because its trials index into it.

Accepted patterns are cliques minus a matching, and under a feasible order
so is each level i, missing ``seg.missing[i]`` pairs; the next level misses
the same number or one more.  A copy of the next level is assigned to the
copy left by removing its smallest vertex in a missing pair if that level
misses one pair more, else its smallest vertex in none.  Relative to the
parent this is one rule, stated once here.  A copy holds the set of
vertices its missing pairs cover, handed down by its parent: an edge
covers nothing, and a child covers its parent's set, plus its new vertex
and the member it misses when its level grows.  :func:`covered_rule`
turns that set into the copy's threshold, and :func:`child_covered`
decides each candidate vertex with at most one probe per parent vertex,
returning the set the child holds.  The sampler and the exact tally both
pass covered sets down this way; neither reads a copy's pairs.  None
keeps state between calls.
"""

from __future__ import annotations

from itertools import combinations, filterfalse
from typing import AbstractSet, Container, Iterable, Mapping, Sequence


def representative(
    adj: Sequence[tuple[int, ...]],
    lookups: Mapping[int, dict[int, None]],
    verts: Sequence[int],
    slack: int,
) -> tuple[int, ...]:
    """The (slack+1)-subset of ``verts`` with the smallest joint neighborhood.

    ``adj`` and ``lookups`` are as for :func:`representative_hood`, and
    ``verts`` must be sorted.  Ties break to the lexicographically smallest
    subset: at slack 0 the lowest-id vertex of minimum degree, at slack 1
    the first pair of least union size.  Reads the graph unmetered.  Raises
    ValueError unless ``slack`` is 0 or 1 and ``verts`` is longer than it.
    """
    if not 0 <= slack <= 1 or len(verts) <= slack:
        raise ValueError(
            f"instance of size {len(verts)} has no representative at slack {slack}"
        )
    if slack == 0:
        return (min(verts, key=lambda v: len(adj[v])),)
    best: tuple[int, ...] = ()
    best_size = -1
    for a, b in combinations(verts, 2):
        size = len(adj[a]) + len(adj[b]) - len(lookups[a].keys() & lookups[b].keys())
        if best_size < 0 or size < best_size:
            best, best_size = (a, b), size
    return best


def representative_hood(
    adj: Sequence[tuple[int, ...]],
    lookups: Mapping[int, dict[int, None]],
    verts: Sequence[int],
    slack: int,
) -> tuple[int, ...]:
    """Sorted union of the neighbor lists of the representative subset of ``verts``.

    ``adj`` and ``lookups`` are the graph's
    :meth:`~crawlcount.graph.Graph.raw_adjacency` and
    :meth:`~crawlcount.graph.Graph.raw_neighbor_lookups`; ``verts`` must be
    sorted and longer than ``slack``.  Reads the graph unmetered: callers
    charge for it.  Only lookups of ``verts`` are read, so charging
    ``verts`` charges every lookup this builds.  A pair takes a shortcut: at
    slack 0 its lower-degree endpoint (ties to the lower id), at slack 1 the
    pair itself.  At slack 1 the union is a merge of the two sorted lists,
    not a set: the longer list, then the shorter one's vertices missing
    from the longer one's lookup, two sorted runs that ``sorted`` merges in
    linear time into the same tuple as the sorted set union.  Vertices of
    ``verts`` are not excluded; trials reject them later, which keeps every
    trial's landing probability at exactly one over the size of this set.
    """
    if len(verts) == 2:
        a, b = verts
        if slack == 0:
            return adj[b] if len(adj[b]) < len(adj[a]) else adj[a]
    else:
        rep = representative(adj, lookups, verts, slack)
        if slack == 0:
            return adj[rep[0]]
        a, b = rep
    if len(adj[a]) < len(adj[b]):
        a, b = b, a
    return tuple(sorted([*adj[a], *filterfalse(lookups[a].__contains__, adj[b])]))


UNCOVERED: frozenset[int] = frozenset()  # the covered set of every copy missing no pair


def covered_rule(verts: Iterable[int], covered: AbstractSet[int], grows: bool, n: int) -> int:
    """The threshold of a copy ``verts`` whose missing pairs cover ``covered``.

    ``grows`` says whether the next level misses one pair more, and ``n``
    is the vertex count.  Every child's new vertex lies below the
    threshold: the least vertex of ``covered`` if the level grows, else
    the least member outside it, and ``n`` when there is none.  A copy
    never reads its own pairs for ``covered``: its parent hands it down
    (see :func:`child_covered`).
    """
    if grows:
        return min(covered, default=n)
    if not covered:
        return min(verts)
    return min(filterfalse(covered.__contains__, verts), default=n)


def child_covered(
    nbrs: Container[int],
    verts: Sequence[int],
    u: int,
    threshold: int,
    covered: AbstractSet[int],
    grows: bool,
) -> AbstractSet[int] | None:
    """The covered set of ``verts + u`` if it is a child of ``verts``, else None.

    ``nbrs`` holds u's neighbors, ``threshold``, ``covered`` and ``grows``
    are those of the copy ``verts`` (see :func:`covered_rule`), and u must
    not be in ``verts``.  Under the assignment rule (see the module
    docstring), if the level grows, u misses exactly one vertex w of
    ``verts``, w outside its missing pairs, and u lies below w and the
    threshold; the child covers ``covered`` plus u and w.  Otherwise u is
    adjacent to all of ``verts`` and lies below the threshold, and the
    child covers ``covered`` itself.
    """
    if u >= threshold:
        return None
    if not grows:
        return covered if all(map(nbrs.__contains__, verts)) else None
    missed = [w for w in verts if w not in nbrs]
    if len(missed) == 1 and (w := missed[0]) > u and w not in covered:
        return covered | {u, w}
    return None
