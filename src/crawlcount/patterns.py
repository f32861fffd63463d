"""Pattern graphs, density slack, and insertion orders.

A pattern is a small connected graph on k vertices (3 <= k <= 8) together
with a slack value c.  A segmentation is an insertion order of the pattern
vertices; the prefix of the first i vertices is called level i.  The order
is feasible for slack c when every level is connected and every vertex of
level i has at least i-1-c neighbors inside that level.  Cliques work with
c = 0, a clique missing one edge with c = 1, and so on.  The sampler
reaches slack at most 1, and the patterns with such an order are exactly
the k-cliques minus a matching (21 for k = 3..8): the full level already
demands degree at least k-2, and conversely every level of an order that
starts with an edge is a smaller clique minus a matching.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO, Iterable, Sequence


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

    ``min_slack`` is the smallest slack the order supports, or None when
    some level is disconnected; it is derived once, here.  ``level(i)`` is
    level i's adjacency on local indices 0..i-1, one neighbor bitmask per
    vertex, and ``missing[i]`` counts the vertex pairs absent from it.
    Nothing changes after construction, so one object can serve any number
    of graphs and runs.
    """

    __slots__ = ("pattern", "order", "_levels", "min_slack", "missing")

    def __init__(self, pattern: Pattern, order: Sequence[int]):
        k = pattern.size
        if sorted(order) != list(range(k)):
            raise ValueError("order must be a permutation of the pattern vertices")
        self.pattern = pattern
        self.order = tuple(order)
        levels: dict[int, tuple[int, ...]] = {}
        missing = [0, 0]
        for i in range(2, k + 1):
            chosen = self.order[:i]
            pos = {v: idx for idx, v in enumerate(chosen)}
            bits = [0] * i
            for idx, v in enumerate(chosen):
                row = pattern.bits[v]
                for w in chosen:
                    if (row >> w) & 1:
                        bits[idx] |= 1 << pos[w]
            levels[i] = tuple(bits)
            missing.append(i * (i - 1) // 2 - sum(b.bit_count() for b in bits) // 2)
        self._levels = levels
        self.min_slack = _order_slack(pattern.bits, self.order)
        self.missing = tuple(missing)

    def level(self, i: int) -> tuple[int, ...]:
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
    if seg.min_slack is not None:
        return SegmentationReport(min_slack=seg.min_slack, disconnected_levels=())
    bad = tuple(
        i
        for i in range(2, pattern.size + 1)
        if not _bits_connected(seg.level(i), i)
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
    """Minimal slack of one order, or None if some level is disconnected.

    The levels are all connected exactly when each added vertex has a
    neighbor among the earlier ones.  Every such order then needs the same
    slack, k-1 minus the pattern's minimum degree: the last level is the
    whole pattern, and a vertex of level i misses at most k-i of its
    neighbors there, so no earlier level falls further short.
    """
    mask = 1 << order[0]
    for v in order[1:]:
        if pbits[v] & mask == 0:
            return None
        mask |= 1 << v
    return len(order) - 1 - min(row.bit_count() for row in pbits)


def auto_segment(pattern: Pattern) -> Segmentation:
    """The lexicographically smallest order with every level connected.

    All connected orders need the same slack (see :func:`_order_slack`), so
    this is also the smallest among those of least slack.  Each step takes
    the smallest vertex adjacent to the ones already placed; a connected
    pattern always has one.  For a clique minus a matching that is the
    identity when vertices 0 and 1 are adjacent, else 0, 2, 1, 3, ....
    """
    order = [0]
    mask = 1
    while len(order) < pattern.size:
        v = next(w for w in range(pattern.size) if not mask >> w & 1 and pattern.bits[w] & mask)
        order.append(v)
        mask |= 1 << v
    return Segmentation(pattern, order)


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
