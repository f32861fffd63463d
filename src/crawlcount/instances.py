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
the same number or one more.  A sorted tuple is therefore a copy of level i
exactly when no vertex lies in two of its missing pairs and it misses that
many pairs.  A copy of the next level is assigned to the copy left by
removing its smallest vertex in a missing pair if that level misses one
pair more, else its smallest vertex in none.  Relative to the parent this
is one rule, stated once here: :func:`parent_rule` reads a copy once for
the vertices its missing pairs cover and whether the next level grows, and
:func:`covered_rule` turns those into the rule, with its threshold; the
exact tally, which hands each copy its covered set, calls it directly.
:func:`is_child` then decides each candidate vertex with at most one probe
per parent vertex.  None keeps state between calls.
"""

from __future__ import annotations

from itertools import combinations, filterfalse
from typing import AbstractSet, Container, Iterable, Sequence

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
    lookups: Sequence[dict[int, None]],
    verts: Sequence[int],
    slack: int,
) -> tuple[int, ...]:
    """Sorted union of the neighbor lists of the representative subset of ``verts``.

    ``adj`` and ``lookups`` are the graph's
    :meth:`~crawlcount.graph.Graph.raw_adjacency` and
    :meth:`~crawlcount.graph.Graph.raw_neighbor_lookups`; ``verts`` must be
    sorted and longer than ``slack``.  Reads the graph unmetered: callers
    charge for it.  A pair takes a shortcut: at slack 0 its lower-degree
    endpoint (ties to the lower id), at slack 1 the pair itself.  At slack 1
    the union is a merge of the two sorted lists, not a set: the longer
    list, then the shorter one's vertices missing from the longer one's
    lookup, two sorted runs that ``sorted`` merges in linear time into the
    same tuple as the sorted set union.  Vertices of ``verts`` are not
    excluded; trials reject them later, which keeps every trial's landing
    probability at exactly one over the size of this set.
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


Rule = tuple[int, AbstractSet[int], bool]
_NONE: AbstractSet[int] = frozenset()  # shared by every rule of a copy missing no pair


def parent_rule(
    lookups: Sequence[dict[int, None]], verts: Sequence[int], seg: Segmentation
) -> Rule | None:
    """What a sorted copy ``verts`` of a level of ``seg`` asks of its children.

    Returns None when ``verts`` is not a copy of its level.  Otherwise
    returns ``(threshold, covered, grows)``: ``covered`` is the set of
    vertices lying in the copy's missing pairs, ``grows`` whether the next
    level misses one pair more, and ``threshold`` the bound every child's
    new vertex lies below, the smallest vertex of ``covered`` if the level
    grows and else the smallest one outside it (the vertex count,
    ``len(lookups)``, when there is none).  ``lookups`` is as for
    :func:`representative_hood`, read unmetered.  Raises ValueError unless
    the order needs slack at most 1, the condition under which every level
    is a clique minus a matching, and when ``verts`` has no next level.
    An edge, the usual case when level 2 misses no pair, takes one probe:
    it is a copy exactly when its endpoints are adjacent.
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
    if k == 2 and not want:
        if verts[0] not in lookups[verts[1]]:
            return None
        grows = seg.missing[3] > 0
        return (len(lookups) if grows else verts[0]), _NONE, grows
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
    grows = seg.missing[k + 1] > want
    if not covered:  # covered_rule's answer without its call, which the trial loop would pay
        return (len(lookups) if grows else verts[0]), _NONE, grows
    return covered_rule(verts, covered, grows, len(lookups))


def covered_rule(verts: Iterable[int], covered: AbstractSet[int], grows: bool, n: int) -> Rule:
    """The rule of a copy ``verts`` whose missing pairs cover ``covered``.

    ``grows`` says whether the next level misses one pair more, and ``n``
    is the vertex count.  The threshold is the least vertex of ``covered``
    if the level grows, else the least member outside it, and ``n`` when
    there is none: :func:`parent_rule` past its probes.  The exact tally
    calls it with the covered set it passes down, the parent's plus the
    new vertex and the member it misses when the level grows.
    """
    if grows:
        return min(covered, default=n), covered or _NONE, True
    if not covered:
        return min(verts), _NONE, False
    return min(filterfalse(covered.__contains__, verts), default=n), covered, False


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
