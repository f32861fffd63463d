"""Pattern graphs, density slack, and insertion orders.

A pattern is a small connected graph on k vertices (3 <= k <= 8) together
with a declared slack c.  A segmentation is an insertion order of the
pattern vertices; the prefix of the first i vertices is called level i.
:class:`Segmentation` works out once, from prefix bitmasks of the pattern,
the pairs each level misses, the levels that are not connected, and the
least slack the order needs: k-1 minus the pattern's minimum degree when
every level is connected, since the last level is the whole pattern and a
vertex of level i misses at most k-i of its neighbors there.
:func:`first_problem` is the one verdict on an order: a disconnected
level, more slack needed than declared, or a declared slack of 2 or more,
checked in that order.  The sampler reaches slack at most 1, and the
patterns with such an order are exactly the k-cliques minus a matching (21
for k = 3..8): the full level already demands degree at least k-2, and
conversely every level of an order that starts with an edge is a smaller
clique minus a matching.
"""

from __future__ import annotations

from itertools import combinations
from typing import IO, Iterable, Sequence


def _connected(pbits: Sequence[int], mask: int) -> bool:
    """Whether the pattern vertices in the nonempty bitmask ``mask`` induce a connected graph."""
    seen = frontier = mask & -mask
    while frontier:
        reach = 0
        while frontier:
            low = frontier & -frontier
            reach |= pbits[low.bit_length() - 1]
            frontier ^= low
        frontier = reach & mask & ~seen
        seen |= frontier
    return seen == mask


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
        if not _connected(bits, (1 << size) - 1):
            raise ValueError("pattern must be connected")
        self.size = size
        self.slack = slack
        self.edges = frozenset(eset)
        self.bits = tuple(bits)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Pattern(size={self.size}, edges={len(self.edges)}, slack={self.slack})"


class Segmentation:
    """Insertion order of pattern vertices; level i is the first i of them.

    Worked out once, from prefix bitmasks of ``pattern.bits``:
    ``missing[i]`` counts the vertex pairs absent from level i,
    ``disconnected`` lists the levels that are not connected, and
    ``min_slack`` is None when that list is non-empty, else k-1 minus the
    pattern's minimum degree.  Nothing changes after construction, so one
    object can serve any number of graphs and runs.
    """

    __slots__ = ("pattern", "order", "missing", "disconnected", "min_slack")

    def __init__(self, pattern: Pattern, order: Sequence[int]):
        k = pattern.size
        if sorted(order) != list(range(k)):
            raise ValueError("order must be a permutation of the pattern vertices")
        self.pattern = pattern
        self.order = tuple(order)
        pbits = pattern.bits
        missing = [0, 0]
        disconnected = []
        mask = 1 << self.order[0]
        for i, v in enumerate(self.order[1:], 2):
            # level i adds i-1 pairs, one per earlier vertex; v's edges fill some
            missing.append(missing[-1] + i - 1 - (pbits[v] & mask).bit_count())
            mask |= 1 << v
            if not _connected(pbits, mask):
                disconnected.append(i)
        self.missing = tuple(missing)
        self.disconnected = tuple(disconnected)
        self.min_slack = None if disconnected else k - 1 - min(row.bit_count() for row in pbits)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Segmentation(order={self.order})"


def first_problem(pattern: Pattern, seg: Segmentation) -> tuple[str, str] | None:
    """The first reason the sampler and the exact side cannot use this order, or None.

    Returns ``(verdict, message)``: the verdict ``validate`` prints and the
    message :func:`require_feasible` raises.  The checks run in this order:
    disconnected levels, more slack needed than ``pattern`` declares, and a
    declared slack of 2 or more, which is out of reach because a 2-vertex
    instance has no representative subset of that size.  ``pattern`` may
    declare another slack than ``seg.pattern`` but must have its edges.
    """
    if seg.pattern is not pattern and seg.pattern.bits != pattern.bits:
        raise ValueError("segmentation belongs to a different pattern")
    if seg.disconnected:
        return (
            "disconnected-levels-" + ",".join(map(str, seg.disconnected)),
            f"segmentation has disconnected levels {seg.disconnected}",
        )
    if seg.min_slack > pattern.slack:
        return (
            f"needs-slack-{seg.min_slack}",
            f"segmentation needs slack {seg.min_slack}, pattern declares {pattern.slack}",
        )
    if pattern.slack >= 2:
        return (
            f"unsupported-slack-{pattern.slack}",
            "slack >= 2 is outside the sampler's reach: a 2-vertex instance "
            "has no representative subset of that size",
        )
    return None


def require_feasible(pattern: Pattern, seg: Segmentation) -> None:
    """Raise ValueError with :func:`first_problem`'s message, if it finds one."""
    problem = first_problem(pattern, seg)
    if problem is not None:
        raise ValueError(problem[1])


def auto_segment(pattern: Pattern) -> Segmentation:
    """The lexicographically smallest order with every level connected.

    All connected orders need the same slack (see the module docstring), so
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


_BUILTINS: dict[str, tuple[int, tuple[tuple[int, int], ...]]] = {
    # name: (size, pairs the clique misses)
    "g33": (3, ()),
    "g45": (4, ((2, 3),)),
    "g46": (4, ()),
    "g59": (5, ((3, 4),)),
    "g510": (5, ()),
}


def builtin_pattern(name: str) -> tuple[Pattern, Segmentation]:
    """Named library of small clique and near-clique patterns.

    g33: triangle.  g46: 4-clique.  g45: 4-clique minus an edge.
    g510: 5-clique.  g59: 5-clique minus an edge.  Each is K_k minus the
    listed pairs, declares slack 1 exactly when it misses one, and comes
    with the order :func:`auto_segment` picks.
    """
    try:
        size, missing = _BUILTINS[name]
    except KeyError:
        valid = ", ".join(sorted(_BUILTINS))
        raise ValueError(f"unknown pattern {name!r}; valid names: {valid}") from None
    edges = [e for e in combinations(range(size), 2) if e not in missing]
    p = Pattern(size, edges, slack=1 if missing else 0)
    return p, auto_segment(p)


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
        try:
            order = tuple(map(int, toks))
        except ValueError:
            raise ValueError(f"bad order line {rest[0]!r}") from None
        rest = rest[1:]
    edges = []
    for s in rest:
        try:
            a, b = map(int, s.split())
        except ValueError:  # not two tokens, or not two integers
            raise ValueError(f"bad edge line {s!r}") from None
        edges.append((a, b))
    p = Pattern(size, edges, slack=slack)
    seg = Segmentation(p, order) if order is not None else auto_segment(p)
    return p, seg


def load_pattern_path(path: str) -> tuple[Pattern, Segmentation]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_pattern(fh)
