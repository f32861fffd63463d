"""Random walks over the metered oracle, plus collision-based edge counting.

A long enough walk visits each edge with probability 1/m per step, which
is what makes walk edges usable as near-uniform edge samples.  The same
fact powers the edge-count estimator: among s spaced samples the expected
number of colliding pairs is close to C(s, 2) / m.

Both walks step through one loop, :func:`_steps`, and read their samples
off the path by one rule, :func:`_spaced_edges`: the walk takes every
step's edge, the edge count every ``spacing``-th step's.  A step draws its
neighbor with ``rng.randrange(n)`` spelled inline, as
``getrandbits(n.bit_length())`` redrawn until it falls below n:
``random.Random`` draws below n that way, so the draws are the same, and
inline a step saves the two Python calls ``randrange`` makes.
Picking the start, at most 33 draws, still calls ``randrange``.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import chain, islice
from random import Random

from .graph import Graph, QueryLedger, charge_steps


class CollisionShortfallError(RuntimeError):
    """Raised when repeated sample doubling still yields zero collisions."""


def default_burn_in(n: int) -> int:
    """Heuristic mixing allowance: ceil(10 * log2 n)."""
    if n < 2:
        return 0
    return math.ceil(10 * math.log2(n))


@dataclass
class WalkConfig:
    """Parameters of one walk.

    ``burn_in`` of None means the size-based default.
    """

    length: int
    burn_in: int | None = None

    def __post_init__(self) -> None:
        if self.length < 1:
            raise ValueError("walk length must be at least 1")
        if self.burn_in is not None and self.burn_in < 0:
            raise ValueError("burn_in must be nonnegative")


# Uniform redraws of an isolated start before the pick falls back to listing
# the non-isolated ids; bounds the setup cost on a sparse, huge id space.
_START_DRAWS = 32

_ROUNDS = 6  # doubling rounds of the edge count before a collision shortfall


def _pick_start(g: Graph, rng: Random) -> int:
    """A uniform non-isolated vertex.

    Redraws uniformly up to ``_START_DRAWS`` times, then draws once from the
    listed non-isolated ids; both routes give the same distribution.
    """
    if g.edge_count == 0:
        raise ValueError("graph has no edges; every vertex is isolated")
    n = g.vertex_count
    for _ in range(_START_DRAWS):
        v = rng.randrange(n)
        if g.raw_degree(v):
            return v
    live = [v for v in range(n) if g.raw_degree(v)]
    return live[rng.randrange(len(live))]


def _steps(adj: tuple, rng: Random, cur: int, count: int, path: list[int]) -> int:
    """Take ``count`` steps from ``cur``; the vertex the last one ends on.

    Each step appends the vertex it queried to ``path`` and moves to a
    uniform neighbor of it.
    """
    getrandbits, step = rng.getrandbits, path.append
    for _ in range(count):
        step(cur)
        nbrs = adj[cur]
        n = len(nbrs)
        x = getrandbits(n.bit_length())  # rng.randrange(n), spelled inline
        while x >= n:
            x = getrandbits(n.bit_length())
        cur = nbrs[x]
    return cur


def _spaced_edges(path: list[int], first: int, end: int, spacing: int) -> list[tuple[int, int]]:
    """The edge of every ``spacing``-th step from ``path[first]`` on, as ``(low, high)`` pairs.

    ``path`` holds the vertex each step left and ``end`` the vertex the last
    one reached, so step i moved along ``seq[i], seq[i + 1]`` of
    ``seq = path[first:] + [end]``.  Strided slices of ``path`` stand in
    for ``seq``'s, so neither list is copied.
    """
    lows = islice(path, first + spacing - 1, None, spacing)
    highs = chain(islice(path, first + spacing, None, spacing), (end,))
    return [(a, b) if a < b else (b, a) for a, b in zip(lows, highs)]


def simple_random_walk(
    g: Graph, ledger: QueryLedger, cfg: WalkConfig, seed: int
) -> list[tuple[int, int]]:
    """Run the walk seeded with ``seed``; the last ``length`` traversed edges, in order.

    Every step issues exactly one neighbors query, so the ledger grows by
    burn_in + length calls.  Isolated start vertices are resampled before
    the walk begins (setup, not crawling).  Steps go through the module's
    one stepping loop, :func:`_steps`, which reads the adjacency unmetered;
    the ledger is charged for them once, at the end.
    """
    rng = Random(seed)
    burn = cfg.burn_in if cfg.burn_in is not None else default_burn_in(g.vertex_count)
    adj = g.raw_adjacency()
    path: list[int] = []  # the vertex each step queried
    cur = _steps(adj, rng, _pick_start(g, rng), burn + cfg.length, path)
    charge_steps(ledger, path)
    return _spaced_edges(path, burn, cur, 1)


@dataclass(frozen=True)
class EdgeCountEstimate:
    """Result of collision counting: the estimate plus how it was earned."""

    edge_estimate: float
    samples_used: int
    collisions: int
    attempts: int


def check_collision_args(samples: int, spacing: int, burn_in: int | None) -> None:
    """Raise ValueError unless :func:`estimate_edge_count` accepts these."""
    if samples < 2:
        raise ValueError("need at least 2 samples")
    if spacing < 1:
        raise ValueError("spacing must be at least 1")
    if burn_in is not None and burn_in < 0:
        raise ValueError("burn_in must be nonnegative")


def estimate_edge_count(
    g: Graph,
    ledger: QueryLedger,
    samples: int,
    spacing: int,
    seed: int,
    burn_in: int | None = None,
) -> EdgeCountEstimate:
    """Estimate the edge count from colliding walk samples.

    Takes one edge sample every ``spacing`` steps and counts unordered
    sample pairs that hit the same edge.  With X collisions among s samples
    the estimate is C(s, 2) / X.  Zero collisions double the sample count
    and continue the walk, up to six doubling rounds in all.  The walk steps
    through :func:`_steps`, the same loop as :func:`simple_random_walk`.
    """
    check_collision_args(samples, spacing, burn_in)
    rng = Random(seed)
    burn = burn_in if burn_in is not None else default_burn_in(g.vertex_count)
    adj = g.raw_adjacency()
    path: list[int] = []  # the vertex each step queried, charged once per round
    cur = _steps(adj, rng, _pick_start(g, rng), burn, path)
    counts: Counter[tuple[int, int]] = Counter()
    taken = 0
    target = samples
    attempts = 0
    while True:
        attempts += 1
        first = len(path)
        cur = _steps(adj, rng, cur, spacing * (target - taken), path)
        counts.update(_spaced_edges(path, first, cur, spacing))
        taken = target
        charge_steps(ledger, path)
        path.clear()
        collisions = sum(c * (c - 1) // 2 for c in counts.values())
        if collisions > 0:
            pairs = taken * (taken - 1) // 2
            return EdgeCountEstimate(
                edge_estimate=pairs / collisions,
                samples_used=taken,
                collisions=collisions,
                attempts=attempts,
            )
        if attempts >= _ROUNDS:
            raise CollisionShortfallError(
                f"no collisions after {attempts} rounds ({taken} samples); "
                "the graph is likely far larger than the sample budget"
            )
        target *= 2
