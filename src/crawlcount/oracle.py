"""Exact ground truth: copy enumeration, chain counts, degeneracy, bounds.

Everything here may read the graph without metering; it exists to verify
what the sampling estimator only approximates.  Copies are found by the
sampler's own structure: level 2 is the edge set, and level i holds every
accepted extension of a level-(i-1) copy by a vertex of its representative
neighborhood.  Each copy is reached exactly once, from its assigned parent,
so the work is one extension check per (copy, neighborhood vertex) pair:
the sum of seg-degrees over every level below the top one.  The work
budget counts those checks.  Completeness needs a feasible order at slack at most 1, so
patterns that fail :func:`require_feasible` are rejected here as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush

from .graph import Graph, QueryLedger
from .instances import Instance, check_extension, seg_degree, seg_neighborhood
from .patterns import Pattern, Segmentation, auto_segment, require_feasible


class EnumerationBudgetError(RuntimeError):
    """The enumeration outgrew the configured work budget."""


DEFAULT_BUDGET = 100_000_000


def _expand(
    g: Graph, pattern: Pattern, seg: Segmentation, top: int, budget: int
) -> list[list[tuple[Instance, int]]]:
    """Copies of levels 2..top, each with the index of its parent one level down.

    ``result[i - 2]`` lists level i.  Level 2 is the sorted edge set (no
    parent, index -1); level i keeps parent order, then neighborhood order.
    Raises before a parent's checks would take the total past ``budget``.
    """
    require_feasible(pattern, seg)
    if not 2 <= top <= pattern.size:
        raise ValueError(f"level {top} outside 2..{pattern.size}")
    scratch = QueryLedger()
    levels = [[(Instance(e), -1) for e in g.edges()]]
    checks = 0
    for _ in range(3, top + 1):
        found = []
        for idx, (parent, _) in enumerate(levels[-1]):
            hood = seg_neighborhood(g, scratch, parent, pattern.slack)
            checks += len(hood)
            if checks > budget:
                raise EnumerationBudgetError(
                    f"enumeration exceeded {budget} extension checks; "
                    "use a smaller graph or raise the budget"
                )
            for u in hood:
                child = check_extension(g, scratch, parent, u, seg)
                if child is not None:
                    found.append((child, idx))
        levels.append(found)
    return levels


def enumerate_instances(
    g: Graph,
    pattern: Pattern,
    seg: Segmentation,
    level: int,
    budget: int = DEFAULT_BUDGET,
) -> list[Instance]:
    """All copies of the given segmentation level, sorted by vertex tuple."""
    found = [inst for inst, _ in _expand(g, pattern, seg, level, budget)[-1]]
    found.sort(key=lambda inst: inst.vertices)
    return found


def exact_count(g: Graph, pattern: Pattern, budget: int = DEFAULT_BUDGET) -> int:
    """Exact number of copies of the pattern in the graph."""
    return len(_expand(g, pattern, auto_segment(pattern), pattern.size, budget)[-1])


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
    """Enumerate every copy and add its chain tally to each ancestor by parent link."""
    k = pattern.size
    levels = _expand(g, pattern, seg, k, budget)
    total = len(levels[-1])
    f_tables: dict[int, dict[tuple[int, ...], int]] = {i: {} for i in range(2, k)}
    f_tables[k] = {inst.vertices: 1 for inst, _ in levels[-1]}
    chains = [1] * total
    for i in range(k, 2, -1):
        below = levels[i - 3]
        up = [0] * len(below)
        for (_, parent), w in zip(levels[i - 2], chains):
            up[parent] += w
        f_tables[i - 1] = {below[j][0].vertices: w for j, w in enumerate(up) if w}
        chains = up
    for i in range(2, k + 1):
        assert sum(f_tables[i].values()) == total, "chain tallies must sum to total"
    f_max_per_level = {
        i: (max(f_tables[i].values()) if f_tables[i] else 0) for i in range(2, k + 1)
    }
    return CountProfile(
        total=total,
        per_level_counts={i: len(levels[i - 2]) for i in range(2, k + 1)},
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
    scratch = QueryLedger()
    return sum(
        seg_degree(g, scratch, inst, pattern.slack)
        for inst in enumerate_instances(g, pattern, seg, level, budget=budget)
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
