"""Exact ground truth: the chain-count tally and the degeneracy.

Everything here may read the graph without metering: the tally gives the
exact count the sampling estimator only approximates, and the degeneracy
stands in for the arboricity when layers are sized.  Copies are found by
the sampler's own rule: level 2 is the edge set, and the children of a
level-i copy are its accepted extensions.  Each copy is reached exactly
once, from its assigned parent, so the work is one
:func:`~crawlcount.instances.parent_rule` per copy above the edges plus
set algebra over its members' neighbor sets
(:func:`~crawlcount.instances.weight_and_children`): if the level does not
grow, the children are the common neighbors of all members; if it grows,
each member w outside the missing pairs adds the common neighbors of the
others that w misses.  Each is cut below the rule's threshold (and below
w), and is :func:`~crawlcount.instances.is_child` for all candidates at
once.  No neighborhood is built.  The work budget counts each copy's
sampling weight, the size of the representative neighborhood the sampler
would store for it (at slack 1 by inclusion-exclusion over the pair's
common neighbors): the sum of seg-degrees over every level below the full
pattern.  Completeness needs a feasible order at slack at most 1, so
patterns that fail :func:`require_feasible` are rejected here as well.

Level 2 takes no :func:`~crawlcount.instances.parent_rule`: an edge
u < v misses no pair, so its rule is fixed by the order.  If level 3
grows, every edge goes through the set algebra above under the rule
(n, {}, True).  If it does not, the edge loop works in place: the
children are the common neighbors below u, and the weight is
min(deg u, deg v) at slack 0, deg u + deg v minus the number of common
neighbors at slack 1.  At slack 0 the common neighbors are not counted,
so u's lower neighbors are put in a set once per u and intersected with
each neighbor's set.  An edge adds its weight before its children are
tallied, as every copy does, so the budget trips at the same copy as it
would through the helpers.

Copies are sorted vertex tuples, as on the crawl side, and are tallied
depth first, edge by edge, children in sorted order: each returns its
chain count, the number of full-size copies whose assignment chain
passes through it, to its parent.  Chain counts are passed up the
recursion and never stored; each level keeps only its copy count and its
largest chain count.  A copy one level below the full pattern counts its
children in place.  No level is listed whole and no copy is kept: a
count holds one path of at most seven copies and their children.  The
per-copy chain tables the analysis reasons about come from the test
suite's independent reference tally (``util.reference_tally``).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import NoReturn

from .graph import Graph
from .instances import parent_rule, weight_and_children
from .patterns import Pattern, Segmentation, auto_segment, require_feasible


class EnumerationBudgetError(RuntimeError):
    """The enumeration outgrew the configured work budget."""


DEFAULT_BUDGET = 100_000_000


def _over_budget(budget: int) -> NoReturn:
    """Raise the error for extension checks that passed ``budget``."""
    raise EnumerationBudgetError(
        f"enumeration exceeded {budget} extension checks; "
        "use a smaller graph or raise the budget"
    )


def exact_count(
    g: Graph, pattern: Pattern, budget: int = DEFAULT_BUDGET, seg: Segmentation | None = None
) -> int:
    """Exact number of copies of the pattern in the graph.

    Tallied under ``seg``, or the automatic order when it is None: the
    count is the same under every feasible order, but the work that
    ``budget`` bounds is not.
    """
    return count_profile(g, pattern, auto_segment(pattern) if seg is None else seg, budget).total


@dataclass
class CountProfile:
    """Exact copy counts and the largest assignment-chain count per level.

    ``f_max_per_level[i]`` is the most full-size copies whose assignment
    chains pass through one level-i copy; at the top level it is 1 when
    the total is above 0.  No copy's own chain count is kept.
    """

    total: int
    per_level_counts: dict[int, int]
    f_max_per_level: dict[int, int]
    f_max: int


def count_profile(
    g: Graph, pattern: Pattern, seg: Segmentation, budget: int = DEFAULT_BUDGET
) -> CountProfile:
    """Tally every copy's chain count depth first.

    A full-size copy's chain count is 1, a lower copy's the sum over its
    children; each count goes up to the parent and into its level's
    running maximum, and is then dropped.  The edges take their rule from
    the order in the edge loop itself (see the module docstring); only
    level-3 copies and above go through ``grow``.  Every copy, edge or
    not, adds its weight before its children are visited, so the
    extension checks reach ``budget`` at the same copy.  Raises as soon as
    they pass it.
    """
    require_feasible(pattern, seg)
    adj = g.raw_adjacency()
    lookups = g.raw_neighbor_lookups()
    slack = pattern.slack
    k = pattern.size
    pair_grows = seg.missing[3] > 0
    counts = dict.fromkeys(range(2, k + 1), 0)
    f_max = dict.fromkeys(counts, 0)
    checks = 0

    def tally(verts: tuple[int, ...], new: list[int]) -> int:
        """Tally the children ``new`` of the copy ``verts``; return its chain count."""
        if len(verts) + 1 == k:
            counts[k] += len(new)
            chains = len(new)
        else:
            chains = 0
            for u in new:
                chains += grow(tuple(sorted(verts + (u,))))
        if chains > f_max[len(verts)]:
            f_max[len(verts)] = chains
        return chains

    def grow(verts: tuple[int, ...]) -> int:
        nonlocal checks
        counts[len(verts)] += 1
        weight, new = weight_and_children(adj, lookups, verts, slack, parent_rule(lookups, verts, seg))
        checks += weight
        if checks > budget:
            _over_budget(budget)
        return tally(verts, new)

    # Level 2, the edge set: an edge misses no pair, so its rule is fixed by
    # the order, (u, {}, False) or, if level 3 grows, (n, {}, True).
    pair_rule = (len(adj), frozenset(), True)
    for u, nbrs in enumerate(adj):
        upper = bisect_right(nbrs, u)
        counts[2] += len(nbrs) - upper
        mine = lookups[u].keys()
        if slack == 0:  # the weight needs no common neighbors: cut u's set once
            lower = set(nbrs[:upper])
        for v in nbrs[upper:]:
            theirs = lookups[v]
            if slack == 0:
                weight = min(len(nbrs), len(theirs))
                new = sorted(theirs.keys() & lower)
            elif pair_grows:
                weight, new = weight_and_children(adj, lookups, (u, v), 1, pair_rule)
            else:
                both = mine & theirs.keys()
                weight = len(nbrs) + len(theirs) - len(both)
                new = sorted(filter(u.__gt__, both))
            checks += weight
            if checks > budget:
                _over_budget(budget)
            if new:
                tally((u, v), new)
    del grow  # grow and tally refer to each other: free them now, not at a collection
    f_max[k] = min(counts[k], 1)  # a full-size copy's chain count is 1
    return CountProfile(
        total=counts[k], per_level_counts=counts, f_max_per_level=f_max, f_max=max(f_max.values())
    )


def degeneracy(g: Graph) -> int:
    """Max min-degree over the peeling order.

    Trees give 1, cycles 2, the complete graph on n vertices n-1.  The
    value upper-bounds arboricity, so it is the plug-in for alpha when
    sizing layers and the true arboricity is out of reach.  Peels in
    linear time from a lazy bucket queue (Matula and Beck 1983; Batagelj
    and Zaversnik 2003): a vertex is filed under its degree, and again one
    bucket lower each time a peeled neighbor lowers it; an entry whose
    degree is gone, or -1 once peeled, is skipped.  No degree falls by more
    than one per peel, so the scan then steps back one bucket.
    """
    adj = g.raw_adjacency()
    deg = [len(nbrs) for nbrs in adj]
    buckets: list[list[int]] = [[] for _ in range(max(deg, default=0) + 1)]
    for v, dv in enumerate(deg):
        buckets[dv].append(v)
    value = d = 0
    for _ in adj:  # each round peels one vertex of least remaining degree
        while True:
            bucket = buckets[d]
            if not bucket:
                d += 1
            elif deg[v := bucket.pop()] == d:
                break
        if d > value:
            value = d
        deg[v] = -1
        for w in adj[v]:
            dw = deg[w]
            if dw > 0:
                deg[w] = dw - 1
                buckets[dw - 1].append(w)
        if d:
            d -= 1
    return value
