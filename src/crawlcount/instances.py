"""Vertex-set instances and the operations the layered sampler needs.

Everything here reaches the host graph through the metered oracle: each
helper charges one neighbors query per vertex of the tuple it decides on
(:func:`representative` and :func:`seg_neighborhood` the instance,
:func:`check_extension` the instance plus the candidate), then reads those
vertices' adjacency unmetered, so the cost of a decision shows up in the
ledger once per vertex.

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
at most one probe per parent vertex.  Neither keeps state between calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from operator import ge
from typing import AbstractSet, Container, Sequence

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
    is a clique minus a matching.
    """
    if seg.min_slack is None or seg.min_slack > 1:
        raise ValueError(
            f"extensions are classified only under an order of slack at most 1, not {seg.order}"
        )
    k = len(verts)
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


def check_extension(
    g: Graph, ledger: QueryLedger, parent: Instance, u: int, seg: Segmentation
) -> Instance | None:
    """Accept ``parent + u`` iff it is a copy of the next level assigned to ``parent``.

    Returns the extended instance on acceptance, None on rejection.
    Charges the grown tuple unless u is in ``parent``, then applies
    :func:`parent_rule` and :func:`is_child`; loops that decide many
    candidates of one parent compute its rule once instead.
    """
    verts = parent.vertices
    if u in verts:
        return None
    merged = tuple(sorted(verts + (u,)))
    charge(g, ledger, merged)
    rule = parent_rule(g, verts, seg)
    if rule is None or not is_child(g.raw_neighbor_lookups()[u], verts, u, rule):
        return None
    return Instance(merged)
