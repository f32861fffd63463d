"""Vertex-set instances and the operations the layered sampler needs.

Everything here reaches the host graph through the metered oracle: each
helper charges one neighbors query per vertex of the tuple it decides on
(:func:`representative` and :func:`seg_neighborhood` the instance,
:func:`check_extension` the instance plus the candidate), then reads those
vertices' adjacency unmetered, so the cost of a decision shows up in the
ledger once per vertex.

Whether a sorted vertex tuple is a copy of its segmentation level, and
which vertex its assignment removes, depends only on the tuple's induced
adjacency.  Accepted patterns are cliques minus a matching, and under a
feasible order so is each level i, missing ``seg.missing[i]`` pairs.  A
tuple is therefore a copy of level i exactly when no vertex lies in two of
its missing pairs and it misses that many pairs; its assignment removes the
smallest vertex lying in ``missing[i] - missing[i-1]`` missing pairs.
:func:`classify` applies that rule in one pass over the tuple's pairs,
reading the graph's neighbor sets directly; it keeps no state between
calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from operator import ge
from typing import Sequence

from .graph import Graph, QueryLedger, charge
from .patterns import Segmentation


@dataclass(frozen=True, slots=True)
class Instance:
    """A strictly increasing tuple of host-graph vertices."""

    vertices: tuple[int, ...]

    def __post_init__(self) -> None:
        vs = self.vertices
        if any(map(ge, vs, vs[1:])):
            raise ValueError("instance vertices must be strictly increasing")
        if vs and vs[0] < 0:
            raise ValueError("vertex ids must be nonnegative")

    @property
    def level(self) -> int:
        return len(self.vertices)


def representative(
    g: Graph, ledger: QueryLedger, inst: Instance, slack: int
) -> tuple[int, ...]:
    """The (slack+1)-subset of the instance with the smallest joint neighborhood.

    Ties break to the lexicographically smallest subset.  With slack 0 this
    is simply the lowest-id vertex of minimum degree.
    """
    verts = inst.vertices
    if len(verts) <= slack:
        raise ValueError(
            f"instance of size {len(verts)} has no representative at slack {slack}"
        )
    charge(g, ledger, verts)
    if slack == 0:
        return (min(verts, key=g.raw_degree),)
    lookups = g.raw_neighbor_lookups()
    best_subset: tuple[int, ...] | None = None
    best_size = -1
    for sub in combinations(verts, slack + 1):
        hood: set[int] = set()
        for v in sub:
            hood.update(lookups[v])
        if best_subset is None or len(hood) < best_size:
            best_subset = sub
            best_size = len(hood)
    assert best_subset is not None
    return best_subset


def seg_neighborhood(
    g: Graph, ledger: QueryLedger, inst: Instance, slack: int
) -> tuple[int, ...]:
    """Sorted union of the neighbor lists of the representative subset.

    Its size is the instance's sampling weight.  Charges one neighbors
    query per instance vertex, through :func:`representative`, and reads
    the representative's lists unmetered: they are among those queries.
    Instance members are not excluded; extension checks reject them later,
    which keeps every trial's landing probability at exactly one over the
    size of this set.
    """
    rep = representative(g, ledger, inst, slack)
    if len(rep) == 1:
        return g.raw_adjacency()[rep[0]]
    lookups = g.raw_neighbor_lookups()
    return tuple(sorted(set().union(*[lookups[v] for v in rep])))


def classify(g: Graph, verts: Sequence[int], seg: Segmentation) -> int | None:
    """Classify a sorted tuple of at least three vertices against its level of ``seg``.

    Returns the index of the smallest vertex whose removal leaves a
    connected copy of the level below (the copy's assignment to its
    parent), or None when the tuple is not a copy of its level.  Under a
    feasible order every copy has such a vertex: removing the one that
    plays the order's last vertex leaves the level below.  Removing a
    vertex that lies in a missing pair leaves one pair fewer, removing any
    other leaves them all, hence the rule for the assigned vertex.  Reads
    the graph unmetered; callers charge the ledger for ``verts``.  Raises
    ValueError unless the order needs slack at most 1, the condition under
    which every level is a clique minus a matching.
    """
    if seg.min_slack is None or seg.min_slack > 1:
        raise ValueError(
            f"extensions are classified only under an order of slack at most 1, not {seg.order}"
        )
    k = len(verts)
    want = seg.missing[k]
    lookups = g.raw_neighbor_lookups()
    covered = count = 0  # bit i of covered: vertex i lies in a missing pair
    for i in range(1, k):
        nbrs = lookups[verts[i]]
        for j in range(i):
            if verts[j] in nbrs:
                continue
            pair = 1 << i | 1 << j
            if count == want or covered & pair:
                return None
            count += 1
            covered |= pair
    if count != want:
        return None
    # the first vertex in a missing pair if level k has one more than level
    # k-1, else the first vertex in none (there is one: the order's last)
    marks = covered if want > seg.missing[k - 1] else ~covered
    return (marks & -marks).bit_length() - 1


def check_extension(
    g: Graph, ledger: QueryLedger, parent: Instance, u: int, seg: Segmentation
) -> Instance | None:
    """Accept ``parent + u`` iff it is a copy of the next level assigned to ``parent``.

    Returns the extended instance on acceptance, None on rejection.
    """
    verts = parent.vertices
    if u in verts:
        return None
    merged = tuple(sorted(verts + (u,)))
    charge(g, ledger, merged)
    idx = classify(g, merged, seg)
    if idx is None or merged[idx] != u:
        return None
    return Instance(merged)
