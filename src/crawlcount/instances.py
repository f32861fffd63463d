"""Vertex-set instances and the operations the layered sampler needs.

Everything here reaches the host graph through the metered oracle: each
helper queries every vertex whose neighborhood it relies on, so the cost
of a decision shows up in the ledger.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

from .graph import Graph, QueryLedger, degree, neighbors
from .patterns import Segmentation, _bits_connected, _bits_isomorphic


class UnassignableInstanceError(RuntimeError):
    """No vertex removal leads back to the previous level.

    Cannot happen for instances produced by accepted extensions; seeing it
    means the caller handed in something that is not a copy of its level.
    """


@dataclass(frozen=True, slots=True)
class Instance:
    """A strictly increasing tuple of host-graph vertices."""

    vertices: tuple[int, ...]

    def __post_init__(self) -> None:
        vs = self.vertices
        if any(vs[i] >= vs[i + 1] for i in range(len(vs) - 1)):
            raise ValueError("instance vertices must be strictly increasing")
        if vs and vs[0] < 0:
            raise ValueError("vertex ids must be nonnegative")

    @property
    def level(self) -> int:
        return len(self.vertices)


def _neighbor_sets(
    g: Graph, ledger: QueryLedger, verts: Sequence[int]
) -> dict[int, frozenset[int]]:
    out = {}
    for v in verts:
        neighbors(g, ledger, v)
        out[v] = g.raw_neighbor_set(v)
    return out


def _local_bits(g: Graph, ledger: QueryLedger, verts: Sequence[int]) -> list[int]:
    """Induced adjacency bitmasks over ``verts`` (one query per vertex)."""
    for v in verts:
        neighbors(g, ledger, v)
    n = len(verts)
    bits = [0] * n
    for i in range(n):
        u = verts[i]
        for j in range(i):
            if g.has_edge(u, verts[j]):
                bits[i] |= 1 << j
                bits[j] |= 1 << i
    return bits


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
    if slack == 0:
        best = verts[0]
        best_d = degree(g, ledger, best)
        for v in verts[1:]:
            d = degree(g, ledger, v)
            if d < best_d:
                best, best_d = v, d
        return (best,)
    nsets = _neighbor_sets(g, ledger, verts)
    best_subset: tuple[int, ...] | None = None
    best_size = -1
    for sub in combinations(verts, slack + 1):
        hood: set[int] = set()
        for v in sub:
            hood |= nsets[v]
        if best_subset is None or len(hood) < best_size:
            best_subset = sub
            best_size = len(hood)
    assert best_subset is not None
    return best_subset


def seg_neighborhood(
    g: Graph, ledger: QueryLedger, inst: Instance, slack: int
) -> tuple[int, ...]:
    """Sorted union of the neighbor lists of the representative subset.

    Instance members are not excluded; extension checks reject them later,
    which keeps every trial's landing probability at exactly one over the
    size of this set.
    """
    rep = representative(g, ledger, inst, slack)
    if len(rep) == 1:
        return neighbors(g, ledger, rep[0])
    hood: set[int] = set()
    for v in rep:
        hood |= set(neighbors(g, ledger, v))
    return tuple(sorted(hood))


def seg_degree(g: Graph, ledger: QueryLedger, inst: Instance, slack: int) -> int:
    """Size of the representative neighborhood; the sampling weight."""
    if slack == 0:
        verts = inst.vertices
        if not verts:
            raise ValueError("empty instance")
        return min(degree(g, ledger, v) for v in verts)
    return len(seg_neighborhood(g, ledger, inst, slack))


def _drop_index(bits: Sequence[int], idx: int) -> list[int]:
    low = (1 << idx) - 1
    out = []
    for i, row in enumerate(bits):
        if i == idx:
            continue
        out.append((row & low) | ((row >> (idx + 1)) << idx))
    return out


def _assign_index(bits: Sequence[int], seg: Segmentation, level: int) -> int | None:
    """Index of the smallest vertex whose removal leaves a copy of the level below."""
    target = seg.level(level - 1)
    for idx in range(len(bits)):
        sub = _drop_index(bits, idx)
        if _bits_connected(sub, level - 1) and _bits_isomorphic(sub, target):
            return idx
    return None


def assign(g: Graph, ledger: QueryLedger, inst: Instance, seg: Segmentation) -> Instance:
    """Map a level-i copy to its unique parent at level i-1.

    Removes the smallest vertex whose removal leaves a connected copy of
    the previous level.  Vertices are scanned in increasing id order, so
    the result is deterministic.
    """
    lvl = inst.level
    if lvl < 3:
        raise ValueError("assignment needs an instance of level 3 or higher")
    bits = _local_bits(g, ledger, inst.vertices)
    if not _bits_isomorphic(bits, seg.level(lvl)):
        raise UnassignableInstanceError(
            f"{inst.vertices} is not a copy of level {lvl}"
        )
    idx = _assign_index(bits, seg, lvl)
    if idx is None:
        raise UnassignableInstanceError(f"unassignable instance {inst.vertices}")
    verts = inst.vertices
    return Instance(verts[:idx] + verts[idx + 1 :])


def check_extension(
    g: Graph, ledger: QueryLedger, parent: Instance, u: int, seg: Segmentation
) -> Instance | None:
    """Accept ``parent + u`` iff it is a copy of the next level assigned to ``parent``.

    Returns the extended instance on acceptance, None on rejection.
    """
    verts = parent.vertices
    if u in verts:
        return None
    lvl = parent.level + 1
    target = seg.level(lvl)
    merged = tuple(sorted(verts + (u,)))
    bits = _local_bits(g, ledger, merged)
    if not _bits_isomorphic(bits, target):
        return None
    idx = _assign_index(bits, seg, lvl)
    if idx is None or merged[idx] != u:
        return None
    return Instance(merged)
