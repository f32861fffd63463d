"""Immutable undirected graph plus the metered neighborhood oracle.

The estimation code never sees the whole graph.  It reaches it through
:func:`neighbors` and :func:`degree`, which charge every call to a
:class:`QueryLedger`.  The ledger is how experiments report how much of
the graph a run actually touched.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import IO, Iterable, Sequence


class EdgeListParseError(ValueError):
    """Raised when an edge-list stream is malformed."""


_HEADER_RE = re.compile(r"#\s*n\s*=\s*(\d+)\s*$")


class Graph:
    """Simple undirected graph with vertex ids 0..n-1.

    Adjacency lists are stored as strictly increasing tuples.  Numeric id
    order is the tie-breaking order used everywhere else in the package.
    Self-loops and duplicate edges are dropped at construction time.
    """

    __slots__ = ("_adj", "_adj_sets", "_m")

    def __init__(self, vertex_count: int, edges: Iterable[tuple[int, int]]):
        if vertex_count < 1:
            raise ValueError("vertex_count must be positive")
        seen: set[tuple[int, int]] = set()
        for u, v in edges:
            if u == v:
                continue
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise ValueError(f"edge ({u}, {v}) out of range for n={vertex_count}")
            seen.add((u, v) if u < v else (v, u))
        lists: list[list[int]] = [[] for _ in range(vertex_count)]
        for u, v in seen:
            lists[u].append(v)
            lists[v].append(u)
        self._adj: tuple[tuple[int, ...], ...] = tuple(
            tuple(sorted(l)) for l in lists
        )
        self._adj_sets: tuple[frozenset[int], ...] = tuple(
            frozenset(l) for l in lists
        )
        self._m = len(seen)

    @property
    def vertex_count(self) -> int:
        return len(self._adj)

    @property
    def edge_count(self) -> int:
        return self._m

    def raw_neighbors(self, v: int) -> tuple[int, ...]:
        """Unmetered adjacency access.

        Reserved for exact verification and internal bookkeeping; anything
        that claims to crawl must go through :func:`neighbors` instead.
        """
        return self._adj[v]

    def raw_degree(self, v: int) -> int:
        return len(self._adj[v])

    def raw_neighbor_set(self, v: int) -> frozenset[int]:
        """Unmetered frozenset view of the adjacency of ``v``."""
        return self._adj_sets[v]

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adj_sets[u]

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (min, max) pairs, sorted."""
        out = []
        for u, nbrs in enumerate(self._adj):
            i = bisect_left(nbrs, u)
            out.extend((u, w) for w in nbrs[i:])
        return out

    def __repr__(self) -> str:  # pragma: no cover
        return f"Graph(n={self.vertex_count}, m={self.edge_count})"


@dataclass
class QueryLedger:
    """Running account of oracle traffic.

    ``oracle_calls`` counts every call, repeats included.  The set is
    deduplicated, so ``len(queried_vertices) <= oracle_calls`` always.
    """

    queried_vertices: set[int] = field(default_factory=set)
    oracle_calls: int = 0

    def _record(self, v: int) -> None:
        self.oracle_calls += 1
        self.queried_vertices.add(v)


def neighbors(g: Graph, ledger: QueryLedger, v: int) -> tuple[int, ...]:
    """One oracle query: the sorted neighbor list of ``v``."""
    if not 0 <= v < g.vertex_count:
        raise ValueError(f"vertex {v} out of range")
    ledger._record(v)
    return g.raw_neighbors(v)


def degree(g: Graph, ledger: QueryLedger, v: int) -> int:
    """Degree of ``v``, charged exactly like a neighbors query."""
    return len(neighbors(g, ledger, v))


def charge(g: Graph, ledger: QueryLedger, verts: Sequence[int]) -> None:
    """Charge one neighbors query per vertex of ``verts``, as that many calls would.

    ``verts`` must be sorted.  For callers that then read the adjacency
    among ``verts`` unmetered.
    """
    if verts and (verts[0] < 0 or verts[-1] >= g.vertex_count):
        raise ValueError(f"vertex out of range in {tuple(verts)}")
    ledger.oracle_calls += len(verts)
    ledger.queried_vertices.update(verts)


def edges_observed_fraction(ledger: QueryLedger, g: Graph) -> float:
    """Share of the edge set the ledger has seen at least once.

    An edge is seen once either endpoint was queried, so the count is the
    degree sum over the queried set Q minus the edges inside Q, each of
    which that sum counts twice.  Read unmetered, once, at the end.
    """
    q = ledger.queried_vertices
    degrees = inside = 0
    for v in q:
        nbrs = g.raw_neighbor_set(v)
        degrees += len(nbrs)
        inside += len(nbrs.intersection(q))
    return (degrees - inside // 2) / g.edge_count


def load_edge_list(source: Iterable[str] | IO[str]) -> Graph:
    """Parse a whitespace edge list into a :class:`Graph`.

    Lines starting with '#' are comments.  An optional first header line
    ``# n=<int>`` fixes the vertex count, which permits isolated ids;
    without it the count is max id + 1.  Duplicate edges and self-loops
    are dropped silently.  A graph with no edges is rejected.
    """
    declared_n: int | None = None
    edges: list[tuple[int, int]] = []
    max_id = -1
    saw_line = False
    for lineno, raw in enumerate(source, start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            if not saw_line:
                m = _HEADER_RE.match(line)
                if m:
                    declared_n = int(m.group(1))
                    saw_line = True
            continue
        saw_line = True
        parts = line.split()
        if len(parts) != 2:
            raise EdgeListParseError(
                f"line {lineno}: expected two integer tokens, got {line!r}"
            )
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise EdgeListParseError(
                f"line {lineno}: expected two integer tokens, got {line!r}"
            ) from None
        if u < 0 or v < 0:
            raise EdgeListParseError(f"line {lineno}: negative vertex id in {line!r}")
        if declared_n is not None and (u >= declared_n or v >= declared_n):
            raise EdgeListParseError(
                f"line {lineno}: vertex id exceeds declared n={declared_n}"
            )
        edges.append((u, v))
        if u > max_id:
            max_id = u
        if v > max_id:
            max_id = v
    n = declared_n if declared_n is not None else max_id + 1
    if n <= 0:
        raise EdgeListParseError("edge list declares no vertices")
    g = Graph(n, edges)
    if g.edge_count == 0:
        raise EdgeListParseError("edge list contains no usable edges")
    return g


def load_edge_list_path(path: str) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return load_edge_list(fh)
