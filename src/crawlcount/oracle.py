"""Exact ground truth: the chain-count tally and the degeneracy.

Everything here may read the graph without metering: the tally gives the
exact count the sampling estimator only approximates, and the degeneracy
stands in for the arboricity when layers are sized.  Copies are found by
the sampler's own rule: level 2 is the edge set, and the children of a
level-i copy are its accepted extensions.  Each copy is reached exactly
once, from its assigned parent, and is handed the state its parent
already held, so it computes only the intersections that involve its new
vertex u (the recursion of kClist, Danisch, Balalau and Sozio 2018, on
the order of Chiba and Nishizeki 1985).  No neighborhood is built.

- At slack 0 the tally starts at each vertex x, a root whose children
  are its lower neighbors.  Children are visited in increasing order, so
  a child u's own children are its neighbors among the siblings visited
  before it: its members' common neighbors below u.  Its weight is
  min(parent weight, deg u), and the root's is deg x.
- At slack 1 a copy holds the set its missing pairs cover (the parent's,
  plus u and the member w it misses when the level grows), from which
  :func:`~crawlcount.instances.covered_rule` gives its threshold; while
  a level from its own on does not grow, its members' common neighbors;
  and, while one grows, each uncovered member's others-common set, the
  common neighbors of the other members.  Each set is the parent's
  intersected with N(u).  If the level does not grow, the children are
  the common neighbors below the threshold; if it grows, each uncovered
  w adds its others-common set cut below w and the threshold, minus w's
  set.  The weight is min(parent weight, deg u), as at slack 0.

The work budget counts each copy's weight, its least member degree, over
every level below the full pattern.  At slack 0 that is the size of the
representative neighborhood the sampler would store for the copy, its
seg-degree; at slack 1 it is a lower bound on it, since the least pair
union is no smaller than either list.  Every copy adds its weight before
its children are visited, in increasing order at slack 0 and in any
order at slack 1: the weights sum to the same total in any order and the
error names no copy, so the budget trips at the same count whatever the
order.  Completeness needs a feasible order at slack at most 1, so
patterns that fail :func:`require_feasible` are rejected here as well.

At slack 1, level 2 is a loop over the edges and takes no rule call: an
edge x < y covers nothing, so its threshold is fixed by the order, x, or
n when level 3 grows, as in the sampler's level-2 layer, and its weight
is min(deg x, deg y).

Copies are tallied depth first, from each vertex at slack 0 and each
edge at slack 1: each returns its chain count, the number of full-size
copies whose assignment chain passes through it, to its parent.  Chain
counts are passed up the recursion and never stored; each level keeps
only its copy count and its largest chain count.  The level just below
the full pattern counts its children by set size, without listing them.
No level is listed whole and no copy is kept: a count holds one path of
at most seven copies, with their children and the sets each was handed.
The per-copy chain tables the analysis reasons about come from the test
suite's independent reference tally (``util.reference_tally``).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import AbstractSet, NoReturn

from .graph import Graph
from .instances import UNCOVERED, covered_rule
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
    running maximum, and is then dropped.  Each copy is handed the state
    its parent held, grown by its new vertex (see the module docstring),
    and adds its weight, its least member degree, before its children are
    visited, in increasing order at slack 0 and in any order at slack 1;
    the weights sum to the same total in any order, so the extension
    checks pass ``budget`` at the same count.  Raises as soon as they do.
    The level just below the top counts its children by set size.  Every
    vertex's neighbor lookup is built on entry and kept by the graph (see
    :meth:`~crawlcount.graph.Graph.raw_neighbor_lookups`).
    """
    require_feasible(pattern, seg)
    adj = g.raw_adjacency()
    n = len(adj)
    # the tally reads nearly every vertex's lookup: build them all once and
    # index a tuple, which is faster than the graph's lazy mapping.  The graph
    # keeps a lookup under the int it was first read by, so a missing one is
    # read by the int object a neighbor's tuple holds: a fresh one from
    # range(n) would cost 28 bytes a vertex for as long as the graph lives
    lookup_of = g.raw_neighbor_lookups()
    if len(lookup_of) < n:
        for x, nbrs in enumerate(adj):
            if nbrs:
                theirs = adj[nbrs[-1]]
                lookup_of[theirs[bisect_left(theirs, x)]]  # builds it if missing
    lookups = tuple(map(lookup_of.__getitem__, range(n)))
    k = pattern.size
    grows = [seg.missing[i + 1] > seg.missing[i] for i in range(k)]
    # a copy keeps its others-common sets while its level or a later one grows,
    # and its common neighbors while one does not
    keeps = [any(grows[i:]) for i in range(k)]
    needs = [not all(grows[i:]) for i in range(k)]
    counts = dict.fromkeys(range(2, k + 1), 0)
    f_max = dict.fromkeys(range(1, k + 1), 0)  # level 1 is slack 0's root, a vertex
    checks = 0

    def cliques(level: int, weight: int, kids: list[int]) -> int:
        """Chain count of a slack-0 copy at ``level`` < k - 1, counted and weighed already.

        ``kids``, its children, come in increasing order (at level 1 the copy
        is a vertex and they are its lower neighbors); a child's children
        are its neighbors among the siblings before it, ``below``.
        """
        nonlocal checks
        chains = 0
        counts[level + 1] += len(kids)
        leaf = level + 2 == k
        below: set[int] = set()
        for u in kids:
            du = len(adj[u])
            weight_u = du if du < weight else weight
            checks += weight_u
            if checks > budget:
                _over_budget(budget)
            new = lookups[u].keys() & below
            below.add(u)
            if leaf:  # the level below the top counts its children
                c = len(new)
                counts[k] += c
                if c > f_max[k - 1]:
                    f_max[k - 1] = c
            elif new:
                c = cliques(level + 1, weight_u, sorted(new))
            else:
                continue
            chains += c
        if chains > f_max[level]:
            f_max[level] = chains
        return chains

    def tally(
        verts: tuple[int, ...],
        covered: AbstractSet[int],
        weight: int,
        common: AbstractSet[int] | None,
        others: dict[int, AbstractSet[int]] | None,
    ) -> int:
        """Chain count of a slack-1 copy ``verts``, counted and weighed already.

        ``covered`` is the set its missing pairs cover.  While a level from
        this one on does not grow, ``common`` is its members' common
        neighbors; while one grows, ``others`` maps each member outside
        ``covered`` to the other members' common neighbors.  Each is None
        once no later level needs it.
        """
        nonlocal checks
        level = len(verts)
        threshold = covered_rule(verts, covered, grows[level], n)
        if grows[level]:  # a child misses one uncovered member w and lies below it
            kids = {}
            for w, theirs in others.items():
                kids[w] = new = set(filter((w if w < threshold else threshold).__gt__, theirs))
                new.difference_update(lookups[w])
        else:
            kids = {None: set(filter(threshold.__gt__, common))}
        chains = 0
        if level + 1 == k:  # the level below the top counts its children
            for new in kids.values():
                chains += len(new)
            counts[k] += chains
        else:
            for w, new in kids.items():
                counts[level + 1] += len(new)
                for u in new:
                    mine = lookups[u].keys()
                    du = len(mine)
                    weight_u = du if du < weight else weight
                    checks += weight_u
                    if checks > budget:
                        _over_budget(budget)
                    nxt = None
                    if keeps[level + 1]:
                        nxt = {b: mine & theirs for b, theirs in others.items() if b != w}
                        if w is None:
                            nxt[u] = common
                    chains += tally(
                        verts + (u,),
                        covered if w is None else covered | {u, w},
                        weight_u,
                        mine & common if needs[level + 1] else None,
                        nxt,
                    )
        if chains > f_max[level]:
            f_max[level] = chains
        return chains

    if pattern.slack == 0:  # each vertex is a root, its lower neighbors its children
        for x, nbrs in enumerate(adj):
            cliques(1, len(nbrs), nbrs[: bisect_right(nbrs, x)])
    else:
        # level 2, the edge set: an edge's rule is fixed by the order
        pair_grows = grows[2]
        keep = keeps[2]
        need = needs[2]
        for x, nbrs in enumerate(adj):
            upper = bisect_right(nbrs, x)
            counts[2] += len(nbrs) - upper
            dx = len(nbrs)
            mine = lookups[x].keys()
            for y in nbrs[upper:]:
                theirs = lookups[y]
                dy = len(theirs)
                weight = dx if dx < dy else dy
                checks += weight
                if checks > budget:
                    _over_budget(budget)
                both = mine & theirs.keys() if need else None
                if pair_grows or min(both, default=n) < x:  # else it has no child
                    others = {x: theirs.keys(), y: mine} if keep else None
                    tally((x, y), UNCOVERED, weight, both, others)
    del cliques, tally  # each refers to itself: free them now, not at a collection
    del f_max[1]  # a vertex is no copy
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
