"""Copies as sorted vertex tuples, and the rules the layered sampler applies to them.

A copy is a strictly increasing ``tuple[int, ...]`` of host-graph vertices.
Nothing here touches a ledger: every function reads the graph's raw
adjacency, and its callers charge the queries in bulk (a layer's fetches in
``LayerState.build``, a trial's grown tuple in the trial loop) or keep no
ledger (the exact side).  The representative rule is
:func:`representative`, the subset, and :func:`representative_hood`, the
neighborhood whose size is a copy's sampling weight.

Accepted patterns are cliques minus a matching, and under a feasible order
so is each level i, missing ``seg.missing[i]`` pairs; the next level misses
the same number or one more.  A sorted tuple is therefore a copy of level i
exactly when no vertex lies in two of its missing pairs and it misses that
many pairs.  A copy of the next level is assigned to the copy left by
removing its smallest vertex in a missing pair if that level misses one
pair more, else its smallest vertex in none.  Relative to the parent this
is one rule, stated once here: :func:`parent_rule` reads a copy once and
returns its threshold, the vertices its missing pairs cover and whether the
next level grows; :func:`is_child` then decides each candidate vertex with
at most one probe per parent vertex, and :func:`child_vertices` decides a
whole neighborhood at once by set algebra.  None keeps state between calls.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import combinations
from typing import AbstractSet, Container, Sequence

from .graph import Graph
from .patterns import Segmentation


def representative(
    adj: Sequence[tuple[int, ...]],
    lookups: Sequence[dict[int, None]],
    verts: Sequence[int],
    slack: int,
) -> tuple[int, ...]:
    """The (slack+1)-subset of ``verts`` with the smallest joint neighborhood.

    ``adj`` and ``lookups`` are as for :func:`representative_hood`, and
    ``verts`` must be sorted.  Ties break to the lexicographically smallest
    subset; at slack 0 this is the lowest-id vertex of minimum degree.
    Reads the graph unmetered.  Raises ValueError unless ``verts`` is
    longer than ``slack``.
    """
    if len(verts) <= slack:
        raise ValueError(
            f"instance of size {len(verts)} has no representative at slack {slack}"
        )
    if slack == 0:
        return (min(verts, key=lambda v: len(adj[v])),)
    best_subset: tuple[int, ...] = ()
    best_size = -1
    for sub in combinations(verts, slack + 1):
        if slack == 1:  # inclusion-exclusion, reading the smaller list once
            a, b = sub
            size = len(adj[a]) + len(adj[b]) - len(lookups[a].keys() & lookups[b].keys())
        else:
            size = len(set().union(*map(lookups.__getitem__, sub)))
        if best_size < 0 or size < best_size:
            best_subset = sub
            best_size = size
    return best_subset


def representative_hood(
    adj: Sequence[tuple[int, ...]],
    lookups: Sequence[dict[int, None]],
    verts: Sequence[int],
    slack: int,
) -> tuple[int, ...]:
    """Sorted union of the neighbor lists of the representative subset of ``verts``.

    ``adj`` and ``lookups`` are the graph's :meth:`~Graph.raw_adjacency` and
    :meth:`~Graph.raw_neighbor_lookups`; ``verts`` must be sorted and longer
    than ``slack``.  Reads the graph unmetered: callers charge for it.  A
    pair takes a shortcut: at slack 0 its lower-degree endpoint (ties to
    the lower id), at slack 1 the pair itself.  Vertices of ``verts`` are
    not excluded; trials reject them later, which keeps every trial's
    landing probability at exactly one over the size of this set.
    """
    if len(verts) == 2:
        a, b = verts
        if slack == 0:
            return adj[b] if len(adj[b]) < len(adj[a]) else adj[a]
        return tuple(sorted(lookups[a].keys() | lookups[b].keys()))
    rep = representative(adj, lookups, verts, slack)
    if len(rep) == 1:
        return adj[rep[0]]
    return tuple(sorted(set().union(*map(lookups.__getitem__, rep))))


Rule = tuple[int, AbstractSet[int], bool]
_NONE: AbstractSet[int] = frozenset()  # shared by every rule of a copy missing no pair


def parent_rule(g: Graph, verts: Sequence[int], seg: Segmentation) -> Rule | None:
    """What a sorted copy ``verts`` of a level of ``seg`` asks of its children.

    Returns None when ``verts`` is not a copy of its level.  Otherwise
    returns ``(threshold, covered, grows)``: ``covered`` is the set of
    vertices lying in the copy's missing pairs, ``grows`` whether the next
    level misses one pair more, and ``threshold`` the bound every child's
    new vertex lies below, the smallest vertex of ``covered`` if the level
    grows and else the smallest one outside it (``g.vertex_count`` when
    there is none).  Reads the graph unmetered.  Raises ValueError unless
    the order needs slack at most 1, the condition under which every level
    is a clique minus a matching, and when ``verts`` has no next level.
    """
    if seg.min_slack is None or seg.min_slack > 1:
        raise ValueError(
            f"extensions are classified only under an order of slack at most 1, not {seg.order}"
        )
    k = len(verts)
    if k + 1 >= len(seg.missing):
        raise ValueError(
            f"a copy of level {k} has no next level in a pattern of size {len(seg.order)}"
        )
    want = seg.missing[k]
    lookups = g.raw_neighbor_lookups()
    covered: set[int] = set()
    for i in range(1, k):
        v = verts[i]
        nbrs = lookups[v]
        for w in verts[:i]:
            if w in nbrs:
                continue
            if len(covered) == 2 * want or w in covered or v in covered:
                return None
            covered.add(w)
            covered.add(v)
    if len(covered) != 2 * want:
        return None
    if seg.missing[k + 1] > want:
        return min(covered, default=g.vertex_count), covered or _NONE, True
    if not covered:
        return verts[0], _NONE, False
    return next((v for v in verts if v not in covered), g.vertex_count), covered, False


def is_child(nbrs: Container[int], verts: Sequence[int], u: int, rule: Rule) -> bool:
    """Whether ``verts + u`` is a copy of the next level assigned to ``verts``.

    ``nbrs`` holds u's neighbors, ``rule`` is :func:`parent_rule` of
    ``verts``, and u must not be in ``verts``.  Under the assignment rule
    (see the module docstring), if the level grows, u misses exactly one
    vertex w of ``verts``, w outside its missing pairs, and u lies below w
    and below every vertex in a missing pair; otherwise u is adjacent to
    all of ``verts`` and lies below every vertex outside a missing pair.
    """
    threshold, covered, grows = rule
    if u >= threshold:
        return False
    if not grows:
        return all(map(nbrs.__contains__, verts))
    missed = [w for w in verts if w not in nbrs]
    return len(missed) == 1 and missed[0] > u and missed[0] not in covered


def child_vertices(
    lookups: Sequence[dict[int, None]], verts: Sequence[int], hood: Sequence[int], rule: Rule
) -> list[int]:
    """Every u of the sorted ``hood`` for which :func:`is_child` holds, sorted.

    ``lookups`` is the graph's :meth:`~Graph.raw_neighbor_lookups`.  The
    same rule, by set algebra over ``hood`` cut at the threshold: if the
    level does not grow, the cut hood intersected with the neighbor set of
    every vertex of ``verts``, which also drops ``verts`` itself; if it
    grows, for each w outside the missing pairs, the hood cut below w as
    well, intersected with the other vertices' sets, minus w's.  Each
    intersection reads the smaller side only.
    """
    threshold, covered, grows = rule
    if not grows:
        found = set(hood[: bisect_left(hood, threshold)])
        for v in verts:
            found = lookups[v].keys() & found
        return sorted(found)
    found = set()
    for w in verts:
        if w in covered:
            continue
        missing_w = set(hood[: bisect_left(hood, min(w, threshold))])
        for v in verts:
            if v != w:
                missing_w = lookups[v].keys() & missing_w
        found.update(missing_w.difference(lookups[w]))
    return sorted(found)
