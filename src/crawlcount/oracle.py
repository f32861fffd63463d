"""Exact ground truth: copy tallies, degeneracy, bounds.

Everything here may read the graph without metering; it exists to verify
what the sampling estimator only approximates.  Copies are found by the
sampler's own structure: level 2 is the edge set, and the children of a
level-i copy are the accepted extensions by vertices of its representative
neighborhood (:func:`~crawlcount.instances.representative_hood`, read
unmetered: no ledger is kept).  Each copy is reached exactly once, from
its assigned parent, so the work is one
:func:`~crawlcount.instances.parent_rule` per copy plus set algebra over
its sorted neighborhood cut at the rule's threshold
(:func:`~crawlcount.instances.child_vertices`): if the level does not
grow, the children are the cut neighborhood intersected with every
member's neighbor set; if it grows, each member w outside the missing
pairs adds the neighborhood cut below w, intersected with the other
members' sets, minus w's.  That is :func:`~crawlcount.instances.is_child`
for all candidates at once.  The work budget counts every neighborhood
vertex, cut off or not: the sum of seg-degrees over every level below the
top one.  Completeness needs a feasible order at slack at most 1, so
patterns that fail :func:`require_feasible` are rejected here as well.

Copies are sorted vertex tuples, as on the crawl side, and are tallied
depth first, edge by edge, children in sorted order: each returns its
chain count, the number of full-size copies whose assignment chain
passes through it, and only counts above 0 are kept.  A
copy one level below the top counts its children in place.  No level is
listed whole; beyond those tables a count holds one path of at most seven
copies and their cut neighborhoods.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from heapq import heapify, heappop, heappush

from .graph import Graph
from .instances import child_vertices, parent_rule, representative_hood
from .patterns import Pattern, Segmentation, auto_segment, require_feasible


class EnumerationBudgetError(RuntimeError):
    """The enumeration outgrew the configured work budget."""


DEFAULT_BUDGET = 100_000_000


def _tally(
    g: Graph, pattern: Pattern, seg: Segmentation, top: int, budget: int
) -> tuple[dict[int, int], dict[int, dict[tuple[int, ...], int]]]:
    """Copy counts and chain-count tables of levels 2..top.

    A level-``top`` copy's chain count is 1, a lower copy's the sum over
    its children.  Tables hold counts above 0 only.  Raises as soon as the
    extension checks pass ``budget``.
    """
    require_feasible(pattern, seg)
    if not 2 <= top <= pattern.size:
        raise ValueError(f"level {top} outside 2..{pattern.size}")
    adj = g.raw_adjacency()
    lookups = g.raw_neighbor_lookups()
    slack = pattern.slack
    counts = dict.fromkeys(range(2, top + 1), 0)
    tables: dict[int, dict[tuple[int, ...], int]] = {i: {} for i in counts}
    leaves = tables[top]
    checks = 0

    def grow(verts: tuple[int, ...]) -> int:
        nonlocal checks
        level = len(verts)
        counts[level] += 1
        hood = representative_hood(adj, lookups, verts, slack)
        checks += len(hood)
        if checks > budget:
            raise EnumerationBudgetError(
                f"enumeration exceeded {budget} extension checks; "
                "use a smaller graph or raise the budget"
            )
        rule = parent_rule(g, verts, seg)
        new = [] if rule is None else child_vertices(lookups, verts, hood, rule)
        if level + 1 == top:
            counts[top] += len(new)
            for u in new:
                leaves[tuple(sorted(verts + (u,)))] = 1
            chains = len(new)
        else:
            chains = 0
            for u in new:
                chains += grow(tuple(sorted(verts + (u,))))
        if chains:
            tables[level][verts] = chains
        return chains

    edges = ((u, v) for u, nbrs in enumerate(adj) for v in nbrs[bisect_right(nbrs, u) :])
    if top == 2:
        leaves.update(dict.fromkeys(edges, 1))
        counts[2] = len(leaves)
    else:
        for e in edges:
            grow(e)
    del grow  # grow's closure refers to grow: free it now, not at a collection
    return counts, tables


def enumerate_instances(
    g: Graph,
    pattern: Pattern,
    seg: Segmentation,
    level: int,
    budget: int = DEFAULT_BUDGET,
) -> list[tuple[int, ...]]:
    """All copies of the given segmentation level as sorted vertex tuples, in order."""
    _, tables = _tally(g, pattern, seg, level, budget)
    return sorted(tables[level])


def exact_count(g: Graph, pattern: Pattern, budget: int = DEFAULT_BUDGET) -> int:
    """Exact number of copies of the pattern in the graph."""
    return count_profile(g, pattern, auto_segment(pattern), budget).total


@dataclass
class CountProfile:
    """Exact copy counts and assignment-chain tallies per level.

    ``f_tables[i]`` maps a level-i vertex tuple to the number of full-size
    copies whose assignment chain passes through it; each table sums to the
    total, because every copy owns exactly one chain.
    """

    total: int
    per_level_counts: dict[int, int]
    f_tables: dict[int, dict[tuple[int, ...], int]]
    f_max_per_level: dict[int, int]
    f_max: int


def count_profile(
    g: Graph, pattern: Pattern, seg: Segmentation, budget: int = DEFAULT_BUDGET
) -> CountProfile:
    """Tally every copy's chain count depth first; see :func:`_tally`."""
    k = pattern.size
    counts, f_tables = _tally(g, pattern, seg, k, budget)
    total = counts[k]
    for i in range(2, k + 1):
        assert sum(f_tables[i].values()) == total, "chain tallies must sum to total"
    f_max_per_level = {
        i: (max(f_tables[i].values()) if f_tables[i] else 0) for i in range(2, k + 1)
    }
    return CountProfile(
        total=total,
        per_level_counts=counts,
        f_tables=f_tables,
        f_max_per_level=f_max_per_level,
        f_max=max(f_max_per_level.values()) if f_max_per_level else 0,
    )


@dataclass(frozen=True)
class DegeneracyResult:
    value: int
    order: tuple[int, ...]


def degeneracy(g: Graph) -> DegeneracyResult:
    """Max min-degree over the peeling order (smallest id breaks ties).

    Trees give 1, cycles 2, the complete graph on n vertices n-1.  The
    value upper-bounds arboricity, so it is the plug-in for density-based
    bounds when the true arboricity is out of reach.
    """
    adj = g.raw_adjacency()
    n = len(adj)
    deg = [len(nbrs) for nbrs in adj]
    removed = [False] * n
    heap = [(deg[v], v) for v in range(n)]
    heapify(heap)
    order: list[int] = []
    value = 0
    while heap:
        d, v = heappop(heap)
        if removed[v] or d != deg[v]:
            continue
        removed[v] = True
        order.append(v)
        if d > value:
            value = d
        for w in adj[v]:
            if not removed[w]:
                deg[w] -= 1
                heappush(heap, (deg[w], w))
    return DegeneracyResult(value=value, order=tuple(order))


def seg_degree_total(
    g: Graph,
    pattern: Pattern,
    seg: Segmentation,
    level: int,
    budget: int = DEFAULT_BUDGET,
) -> int:
    """Sum of sampling weights over every copy of the given level."""
    adj, lookups = g.raw_adjacency(), g.raw_neighbor_lookups()
    return sum(
        len(representative_hood(adj, lookups, verts, pattern.slack))
        for verts in enumerate_instances(g, pattern, seg, level, budget=budget)
    )


@dataclass(frozen=True)
class ArboricityBound:
    """Exact left side vs the density upper bound, both integers."""

    lhs: int
    rhs: int
    holds: bool
    degeneracy_used: int


def check_arboricity_bound(
    g: Graph,
    pattern: Pattern,
    seg: Segmentation,
    level: int,
    budget: int = DEFAULT_BUDGET,
) -> ArboricityBound:
    """Check sum of weights at a level against 2m ((c+1) a)^(i-1-c) n^c.

    The bound holds with a equal to the arboricity; degeneracy is at least
    that, so it is a safe substitute on the right-hand side.
    """
    c = pattern.slack
    if level < c + 1:
        raise ValueError(f"level {level} has no representative at slack {c}")
    lhs = seg_degree_total(g, pattern, seg, level, budget=budget)
    a = degeneracy(g).value
    rhs = 2 * g.edge_count * ((c + 1) * a) ** (level - 1 - c) * g.vertex_count**c
    return ArboricityBound(lhs=lhs, rhs=rhs, holds=lhs <= rhs, degeneracy_used=a)
