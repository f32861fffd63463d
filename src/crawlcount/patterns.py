"""Pattern graphs, density slack, and insertion orders.

A pattern is a small connected graph on k vertices (3 <= k <= 8) together
with a slack value c.  A segmentation is an insertion order of the pattern
vertices; the prefix of the first i vertices is called level i.  The order
is feasible for slack c when every level is connected and every vertex of
level i has at least i-1-c neighbors inside that level.  Cliques work with
c = 0, a clique missing one edge with c = 1, and so on.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import IO, Iterable, Sequence


@dataclass(frozen=True)
class LevelGraph:
    """Adjacency of one segmentation level, on local indices 0..size-1.

    ``bits[i]`` is the neighbor bitmask of local vertex i.
    """

    size: int
    bits: tuple[int, ...]
    degrees: tuple[int, ...]
    degree_multiset: tuple[int, ...]

    @staticmethod
    def from_bits(bits: Sequence[int]) -> "LevelGraph":
        degs = tuple(b.bit_count() for b in bits)
        return LevelGraph(
            size=len(bits),
            bits=tuple(bits),
            degrees=degs,
            degree_multiset=tuple(sorted(degs)),
        )


def _bits_connected(bits: Sequence[int], size: int) -> bool:
    if size == 0:
        return False
    seen = 1
    frontier = 1
    full = (1 << size) - 1
    while frontier:
        nxt = 0
        i = 0
        f = frontier
        while f:
            if f & 1:
                nxt |= bits[i]
            f >>= 1
            i += 1
        frontier = nxt & ~seen
        seen |= frontier
    return seen == full


def _bits_isomorphic(cand: Sequence[int], target: LevelGraph) -> bool:
    """Exact induced-subgraph equality up to relabeling, by backtracking.

    Degree multisets act as a cheap prefilter; the search then demands that
    edges and non-edges both match.
    """
    k = target.size
    cdegs = [b.bit_count() for b in cand]
    if sorted(cdegs) != list(target.degree_multiset):
        return False
    tbits = target.bits
    tdegs = target.degrees
    perm = [0] * k

    def place(i: int, used: int) -> bool:
        if i == k:
            return True
        row = cand[i]
        for t in range(k):
            bit = 1 << t
            if used & bit or tdegs[t] != cdegs[i]:
                continue
            trow = tbits[t]
            ok = True
            for j in range(i):
                if ((row >> j) & 1) != ((trow >> perm[j]) & 1):
                    ok = False
                    break
            if ok:
                perm[i] = t
                if place(i + 1, used | bit):
                    return True
        return False

    return place(0, 0)


class Pattern:
    """Connected pattern graph with a declared density slack."""

    __slots__ = ("size", "slack", "edges", "bits")

    def __init__(self, size: int, edges: Iterable[tuple[int, int]], slack: int = 0):
        if not 3 <= size <= 8:
            raise ValueError("pattern size must be between 3 and 8")
        if slack < 0:
            raise ValueError("slack must be nonnegative")
        eset: set[tuple[int, int]] = set()
        for a, b in edges:
            if a == b:
                raise ValueError("pattern may not contain self-loops")
            if not (0 <= a < size and 0 <= b < size):
                raise ValueError(f"pattern edge ({a}, {b}) out of range")
            eset.add((a, b) if a < b else (b, a))
        bits = [0] * size
        for a, b in eset:
            bits[a] |= 1 << b
            bits[b] |= 1 << a
        if not _bits_connected(bits, size):
            raise ValueError("pattern must be connected")
        self.size = size
        self.slack = slack
        self.edges = frozenset(eset)
        self.bits = tuple(bits)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Pattern(size={self.size}, edges={len(self.edges)}, slack={self.slack})"


class Segmentation:
    """Insertion order of pattern vertices; level i is the first i of them.

    ``memo`` maps the adjacency word of a sorted vertex tuple to its
    classification against this order's levels; ``instances.classify``
    fills it on first sight of each word.
    """

    __slots__ = ("pattern", "order", "_levels", "memo")

    def __init__(self, pattern: Pattern, order: Sequence[int]):
        k = pattern.size
        if sorted(order) != list(range(k)):
            raise ValueError("order must be a permutation of the pattern vertices")
        self.pattern = pattern
        self.order = tuple(order)
        levels: dict[int, LevelGraph] = {}
        for i in range(2, k + 1):
            chosen = self.order[:i]
            pos = {v: idx for idx, v in enumerate(chosen)}
            bits = [0] * i
            for idx, v in enumerate(chosen):
                row = pattern.bits[v]
                for w in chosen:
                    if (row >> w) & 1:
                        bits[idx] |= 1 << pos[w]
            levels[i] = LevelGraph.from_bits(bits)
        self._levels = levels
        self.memo: dict[int, int | None] = {}

    def level(self, i: int) -> LevelGraph:
        if i not in self._levels:
            raise ValueError(f"level {i} outside 2..{self.pattern.size}")
        return self._levels[i]

    def __repr__(self) -> str:  # pragma: no cover
        return f"Segmentation(order={self.order})"


@dataclass(frozen=True)
class SegmentationReport:
    """Outcome of validating an insertion order.

    ``min_slack`` is the smallest slack the order supports, or None when
    some level is disconnected (no slack can repair that).
    """

    min_slack: int | None
    disconnected_levels: tuple[int, ...]

    @property
    def ok(self) -> bool:
        return not self.disconnected_levels


def validate_segmentation(pattern: Pattern, seg: Segmentation) -> SegmentationReport:
    """Report the minimal feasible slack and any disconnected levels."""
    if seg.pattern is not pattern and seg.pattern.bits != pattern.bits:
        raise ValueError("segmentation belongs to a different pattern")
    slack = _order_slack(pattern.bits, seg.order)
    if slack is not None:
        return SegmentationReport(min_slack=slack, disconnected_levels=())
    bad = tuple(
        i
        for i in range(2, pattern.size + 1)
        if not _bits_connected(seg.level(i).bits, i)
    )
    return SegmentationReport(min_slack=None, disconnected_levels=bad)


def require_feasible(pattern: Pattern, seg: Segmentation) -> None:
    """Raise ValueError unless the sampler and the exact side can use this order.

    Slack 2 and up is out of reach: a 2-vertex instance has no representative
    subset of that size.  Below that, every level must be connected and the
    order may need no more slack than the pattern declares.
    """
    if pattern.slack >= 2:
        raise ValueError(
            "slack >= 2 is outside the sampler's reach: a 2-vertex instance "
            "has no representative subset of that size"
        )
    report = validate_segmentation(pattern, seg)
    if not report.ok:
        raise ValueError(
            f"segmentation has disconnected levels {report.disconnected_levels}"
        )
    if report.min_slack > pattern.slack:
        raise ValueError(
            f"segmentation needs slack {report.min_slack}, pattern declares {pattern.slack}"
        )


def _order_slack(pbits: Sequence[int], order: Sequence[int]) -> int | None:
    """Minimal slack of one order, or None if some prefix is disconnected.

    A prefix chain is fully connected exactly when each added vertex has a
    neighbor among the earlier ones, so one incremental pass suffices.
    """
    k = len(order)
    mask = 1 << order[0]
    local_deg = {order[0]: 0}
    worst = 0
    for i in range(1, k):
        v = order[i]
        row = pbits[v] & mask
        if row == 0:
            return None
        mask |= 1 << v
        local_deg[v] = row.bit_count()
        w = row
        while w:
            low = w & -w
            local_deg[low.bit_length() - 1] += 1
            w ^= low
        level = i + 1
        deficit = (level - 1) - min(local_deg[u] for u in order[: i + 1])
        if deficit > worst:
            worst = deficit
    return worst


def auto_segment(pattern: Pattern) -> Segmentation:
    """Exhaustively pick the order minimizing the needed slack.

    Ties go to the lexicographically smallest order; permutations are
    visited in lexicographic order so the first strict improvement wins.
    """
    best_order: tuple[int, ...] | None = None
    best_slack: int | None = None
    for order in permutations(range(pattern.size)):
        s = _order_slack(pattern.bits, order)
        if s is None:
            continue
        if best_slack is None or s < best_slack:
            best_slack = s
            best_order = order
    if best_order is None:
        raise ValueError("pattern admits no connected insertion order")
    return Segmentation(pattern, best_order)


_BUILTINS: dict[str, tuple[int, int, tuple[tuple[int, int], ...], tuple[int, ...]]] = {
    # name: (size, slack, edges, order)
    "g33": (3, 0, ((0, 1), (0, 2), (1, 2)), (0, 1, 2)),
    "g45": (4, 1, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3)), (0, 1, 2, 3)),
    "g46": (4, 0, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)), (0, 1, 2, 3)),
    "g59": (
        5,
        1,
        ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4)),
        (0, 1, 2, 3, 4),
    ),
    "g510": (
        5,
        0,
        ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)),
        (0, 1, 2, 3, 4),
    ),
}


def builtin_pattern(name: str) -> tuple[Pattern, Segmentation]:
    """Named library of small clique and near-clique patterns.

    g33: triangle.  g46: 4-clique.  g45: 4-clique minus an edge.
    g510: 5-clique.  g59: 5-clique minus an edge.
    """
    try:
        size, slack, edges, order = _BUILTINS[name]
    except KeyError:
        valid = ", ".join(sorted(_BUILTINS))
        raise ValueError(f"unknown pattern {name!r}; valid names: {valid}") from None
    p = Pattern(size, edges, slack=slack)
    return p, Segmentation(p, order)


def builtin_names() -> tuple[str, ...]:
    return tuple(sorted(_BUILTINS))


def parse_pattern(source: Iterable[str] | IO[str]) -> tuple[Pattern, Segmentation]:
    """Read a pattern file.

    Line 1 is ``k c``.  Line 2 may be ``order v_1 ... v_k``; if absent the
    order is chosen by :func:`auto_segment`.  Every other line is one edge
    ``a b`` on 0-based vertex ids.  '#' lines and blank lines are skipped.
    Feasibility is not checked here: the estimator and the exact side call
    :func:`require_feasible` themselves, after any slack or order override.
    """
    lines = []
    for raw in source:
        s = raw.strip()
        if s and not s.startswith("#"):
            lines.append(s)
    if not lines:
        raise ValueError("pattern file is empty")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError("pattern file line 1 must be 'k c'")
    try:
        size, slack = int(head[0]), int(head[1])
    except ValueError:
        raise ValueError("pattern file line 1 must be 'k c'") from None
    order: tuple[int, ...] | None = None
    rest = lines[1:]
    if rest and rest[0].split()[0] == "order":
        toks = rest[0].split()[1:]
        if len(toks) != size:
            raise ValueError(f"order line must list {size} vertices")
        order = tuple(int(t) for t in toks)
        rest = rest[1:]
    edges = []
    for s in rest:
        parts = s.split()
        if len(parts) != 2:
            raise ValueError(f"bad edge line {s!r}")
        edges.append((int(parts[0]), int(parts[1])))
    p = Pattern(size, edges, slack=slack)
    seg = Segmentation(p, order) if order is not None else auto_segment(p)
    return p, seg


def load_pattern_path(path: str) -> tuple[Pattern, Segmentation]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_pattern(fh)
