"""Immutable undirected graph plus the metered neighborhood oracle.

The estimation code never sees the whole graph.  Its unit of cost is one
:func:`neighbors` call, charged to a :class:`QueryLedger`.  The crawl side
reads adjacency unmetered and charges the same calls in bulk, as
:func:`charge_steps` does for a walk phase and the estimator does for a
layer's fetches and its trials.  The ledger is how experiments report how
much of the graph a run actually touched.
"""

from __future__ import annotations

import re
from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import IO, Iterable, Mapping, Sequence


class EdgeListParseError(ValueError):
    """Raised when an edge-list stream is malformed."""


_HEADER_RE = re.compile(r"#\s*n\s*=\s*(\d+)\s*$")


class _Lookups(dict):
    """Vertex id to a dict of its sorted neighbors to None, built on first read and kept."""

    __slots__ = ("_adj",)

    def __init__(self, adj: tuple[tuple[int, ...], ...]):
        self._adj = adj

    def __missing__(self, v: int) -> dict[int, None]:
        self[v] = lookup = dict.fromkeys(self._adj[v])
        return lookup


class Graph:
    """Simple undirected graph with vertex ids 0..n-1.

    Adjacency lists are stored as strictly increasing tuples.  Numeric id
    order is the tie-breaking order used everywhere else in the package.
    Self-loops and duplicate edges are dropped at construction time; an
    endpoint outside 0..n-1 raises ValueError, on a self-loop as well.
    Membership lookups are built per vertex on first read (see
    :meth:`raw_neighbor_lookups`), so a graph holds only its tuples until
    a caller probes a vertex's neighbors.
    """

    __slots__ = ("_adj", "_lookups", "_m")

    def __init__(self, vertex_count: int, edges: Iterable[tuple[int, int]]):
        if vertex_count < 1:
            raise ValueError("vertex_count must be positive")
        n = vertex_count
        # One pass fills per-vertex lists with the one int object ids[v] per
        # id, so a graph holds n ints, not one per edge end.  Each sorted list
        # goes through dict.fromkeys, which drops duplicates and keeps the
        # order, into a tuple, and is then cleared to free its buffer.
        # Clearing it rather than replacing it frees no tracked object, so
        # the cyclic collector's gen-0 passes keep running during the load
        # and untrack the new tuples of ints as they go; replacing each list
        # by its tuple would leave every tuple tracked for the first full
        # collection to walk.
        ids = list(range(n))
        nbrs: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                continue
            nbrs[u].append(ids[v])
            nbrs[v].append(ids[u])
        adj = []
        for l in nbrs:
            l.sort()
            adj.append(tuple(dict.fromkeys(l)))
            l.clear()
        self._adj: tuple[tuple[int, ...], ...] = tuple(adj)
        self._lookups = _Lookups(self._adj)
        self._m = sum(map(len, adj)) // 2

    @property
    def vertex_count(self) -> int:
        return len(self._adj)

    @property
    def edge_count(self) -> int:
        return self._m

    def raw_adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Unmetered adjacency of every vertex, indexed by id.

        Reserved for exact verification, internal bookkeeping and crawlers
        that charge the ledger in bulk what :func:`neighbors` calls would
        (:func:`charge_steps`); anything else that claims to crawl goes
        through :func:`neighbors`.
        """
        return self._adj

    def raw_degree(self, v: int) -> int:
        return len(self._adj[v])

    def raw_neighbor_lookups(self) -> Mapping[int, dict[int, None]]:
        """Unmetered ``in`` tests: vertex id to a dict of its sorted neighbors to None.

        Index it by id only.  A vertex's dict is built the first time it is
        read and then kept, so iterating the mapping yields only the ids
        read so far, not every vertex.  Each lookup, a dict of ints to None,
        is never tracked by the cyclic collector, and its keys are the
        adjacency tuple's own int objects.
        """
        return self._lookups

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


def neighbors(g: Graph, ledger: QueryLedger, v: int) -> tuple[int, ...]:
    """One oracle query: the sorted neighbor list of ``v``."""
    adj = g._adj
    if not 0 <= v < len(adj):
        raise ValueError(f"vertex {v} out of range")
    ledger.oracle_calls += 1
    ledger.queried_vertices.add(v)
    return adj[v]


def charge_steps(ledger: QueryLedger, path: Sequence[int]) -> None:
    """Charge one neighbors query per entry of ``path``, repeats included.

    For walks that read :meth:`Graph.raw_adjacency` step by step and settle
    the ledger once per phase.  Entries are not range-checked: a walk checks
    its start and then only steps to neighbors.
    """
    ledger.oracle_calls += len(path)
    ledger.queried_vertices.update(path)


def edges_observed_fraction(ledger: QueryLedger, g: Graph) -> float:
    """Share of the edge set the ledger has seen at least once.

    An edge is seen once either endpoint was queried, so the count is the
    degree sum over the queried set Q minus the edges inside Q, each of
    which that sum counts twice; each inside edge is found once, from its
    higher endpoint, whose sorted list holds the lower one below it.  Read
    unmetered, once, at the end.
    """
    q = ledger.queried_vertices
    adj = g.raw_adjacency()
    degrees = inside = 0
    for v in q:
        nbrs = adj[v]
        degrees += len(nbrs)
        inside += len(q.intersection(nbrs[: bisect_left(nbrs, v)]))
    return (degrees - inside) / g.edge_count


def load_edge_list(source: Iterable[str] | IO[str]) -> Graph:
    """Parse a whitespace edge list into a :class:`Graph`.

    Lines starting with '#' are comments.  An optional first header line
    ``# n=<int>`` fixes the vertex count, which permits isolated ids;
    without it the count is max id + 1.  Duplicate edges and self-loops
    are dropped silently.  A graph with no edges is rejected.  Endpoints
    are buffered as 64-bit machine integers, 16 bytes per edge, so ids must
    lie below 2**63.  Even an id without edges costs about 120 bytes while
    loading, and about 145 once every neighbor lookup has been read (the
    exact side reads them all), so a vertex count above max(2**20,
    4 * endpoints read) is refused before anything is allocated for it.
    """
    declared_n: int | None = None
    ends = array("q")  # u0, v0, u1, v1, ...
    push = ends.append
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
        try:
            push(u)
            push(v)
        except OverflowError:
            raise EdgeListParseError(
                f"line {lineno}: vertex id too large in {line!r}"
            ) from None
    n = declared_n if declared_n is not None else (max(ends) + 1 if ends else 0)
    if n <= 0:
        raise EdgeListParseError("edge list declares no vertices")
    if n > max(1 << 20, 4 * len(ends)):
        raise EdgeListParseError(
            f"vertex count {n} exceeds max(2**20, 4 x {len(ends)} endpoints); "
            "renumber the ids densely from 0"
        )
    pairs = iter(ends)
    g = Graph(n, zip(pairs, pairs))
    if g.edge_count == 0:
        raise EdgeListParseError("edge list contains no usable edges")
    return g


def load_edge_list_path(path: str) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return load_edge_list(fh)
