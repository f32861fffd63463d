"""Layered sampling estimator for pattern counts over the metered oracle.

:func:`estimate_count` is one sampling run, and :class:`EstimateResult`
its one result.  The run materializes a chain of layers.  Level 2 is the
multiset of edges collected by a random walk.  A layer holds each member's
representative neighborhood, fetched once per distinct member when the
layer is built; its size is the member's weight.  Beside it the layer
holds the member's rule: the set its missing pairs cover, which the trial
that accepted it handed down (an edge covers nothing), and the threshold
that set gives.  Each next level is
filled by one extension loop: pick a member with probability proportional
to its weight, pick a uniform vertex from its stored neighborhood, and
keep the grown instance only if it is a copy of the next level whose
assignment maps back to the sampled member.  The last level runs the same
loop but is never stored; its trials only count successes Y.

Every accepted instance at a given level is reachable by exactly one
(member, vertex) pair, so a single trial lands on any fixed copy with
probability 1 / c_i, where the scaling constant c_i is the walk and layer
normalization.  That makes Y * c_k / l_k an unbiased estimate of the total
pattern count, degenerate early exits included (they contribute zero).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, chain
from random import Random
from typing import AbstractSet, Sequence

from .graph import Graph, QueryLedger, edges_observed_fraction
from .instances import UNCOVERED, child_covered, covered_rule, representative_hood
from .patterns import Pattern, Segmentation, require_feasible
from .walk import WalkConfig, estimate_edge_count, simple_random_walk


EDGE_COUNT_MIN_SAMPLES = 200  # estimated-m walks max(this, ceil(10 sqrt n)) samples
EDGE_COUNT_GAP = 10  # walk steps between consecutive edge-count samples


class DegenerateLayerError(ValueError):
    """Sampling from a layer with zero total weight."""


@dataclass
class LayerState:
    """One materialized layer: members, their representative neighborhoods and rules.

    ``members`` are sorted vertex tuples, repeats kept.  ``hoods[i]`` is
    member i's representative neighborhood, whose size is the member's
    sampling weight; repeated members share one tuple.  ``covered[i]`` is
    the set member i's missing pairs cover and ``thresholds[i]`` the bound
    its children's new vertices lie below; ``grows`` says whether the next
    level misses one pair more.  These are what a trial reads.
    """

    level: int
    members: Sequence[tuple[int, ...]]
    hoods: list[tuple[int, ...]]
    trials: int
    thresholds: Sequence[int]
    covered: Sequence[AbstractSet[int]]
    grows: bool
    prefix_weights: list[int] = field(init=False)
    total_degree: int = field(init=False)

    def __post_init__(self) -> None:
        self.prefix_weights = list(accumulate(map(len, self.hoods)))
        self.total_degree = self.prefix_weights[-1] if self.prefix_weights else 0

    @staticmethod
    def build(
        g: Graph,
        ledger: QueryLedger,
        level: int,
        members: Sequence[tuple[int, ...]],
        covered: Sequence[AbstractSet[int]] | None,
        trials: int,
        slack: int,
        seg: Segmentation,
    ) -> "LayerState":
        """The layer of ``members``, fetching each distinct member's neighborhood once.

        ``covered`` holds each member's covered set, handed down by the
        trial that accepted it, and a member's threshold is
        :func:`~crawlcount.instances.covered_rule` of it.  It is None for
        the walk's edges, which cover nothing: an edge's threshold is its
        lower endpoint, or the vertex count when level 3 grows.  Raises
        ValueError unless ``seg`` needs slack at most 1, under which every
        level is a clique minus a matching, and when ``level`` has no next
        level.

        The fetches are settled in one bulk charge: one neighbors query per
        vertex of each distinct member, the same calls and queried set as one
        :func:`~crawlcount.graph.neighbors` call per vertex.  The
        representative's lists are among those queries, so reading them
        costs nothing more.
        """
        if seg.min_slack is None or seg.min_slack > 1:
            raise ValueError(
                "extensions are classified only under an order of slack at most 1, "
                f"not {seg.order}"
            )
        if level + 1 >= len(seg.missing):
            raise ValueError(
                f"a copy of level {level} has no next level in a pattern of size {len(seg.order)}"
            )
        grows = seg.missing[level + 1] > seg.missing[level]
        adj, lookups = g.raw_adjacency(), g.raw_neighbor_lookups()
        n = len(adj)
        if covered is None:
            thresholds = [n] * len(members) if grows else [x for x, _ in members]
            covered = [UNCOVERED] * len(members)
        else:
            thresholds = [covered_rule(m, c, grows, n) for m, c in zip(members, covered)]
        fetched = dict.fromkeys(members)
        for verts in fetched:
            fetched[verts] = representative_hood(adj, lookups, verts, slack)
        ledger.oracle_calls += level * len(fetched)
        ledger.queried_vertices.update(chain.from_iterable(fetched))
        hoods = [fetched[m] for m in members]
        return LayerState(level, members, hoods, trials, thresholds, covered, grows)

    def __len__(self) -> int:
        return len(self.members)


@dataclass
class EstimateConfig:
    """Knobs for one estimation run.

    ``layer_sizes`` lists the trial counts l_3..l_k, so its length must be
    pattern size minus 2.
    """

    layer_sizes: Sequence[int]
    walk: WalkConfig
    edge_count_mode: str = "exact-m"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.edge_count_mode not in ("exact-m", "estimated-m"):
            raise ValueError("edge_count_mode must be 'exact-m' or 'estimated-m'")
        if any(l < 1 for l in self.layer_sizes):
            raise ValueError("every layer size must be at least 1")


def initial_layer(
    g: Graph, ledger: QueryLedger, edges: Sequence[tuple[int, int]], slack: int, seg: Segmentation
) -> LayerState:
    """The level-2 layer of the walk's ``(low, high)`` edges (a multiset, order preserved)."""
    return LayerState.build(g, ledger, 2, edges, None, len(edges), slack, seg)


def _extend(
    g: Graph, ledger: QueryLedger, layer: LayerState, trials: int, rng: Random
) -> tuple[list[tuple[int, ...]], list[AbstractSet[int]]]:
    """Run ``trials`` extension trials against ``layer``: the grown tuples accepted,
    in order, and the covered set each one holds.

    A trial draws a member by weight and a uniform vertex u of its
    representative neighborhood, rejects u at or above the member's
    threshold before any probe, and otherwise keeps the grown tuple if
    :func:`child_covered` accepts u.  Each draw is ``randrange(n)``
    spelled inline: ``getrandbits(n.bit_length())`` redrawn until below n,
    which is how ``Random`` implements it, so the draws are the same.  A
    trial whose u is not a member charges the grown tuple, one neighbors
    query per vertex; the member's own vertices were queried when its
    neighborhood was fetched, so that adds u to the queried set.
    """
    total = layer.total_degree
    if total <= 0:
        raise DegenerateLayerError(f"degenerate layer at level {layer.level}")
    getrandbits = rng.getrandbits
    total_bits = total.bit_length()
    prefix, hoods, members = layer.prefix_weights, layer.hoods, layer.members
    thresholds, covered, grows = layer.thresholds, layer.covered, layer.grows
    lookups = g.raw_neighbor_lookups()
    query = ledger.queried_vertices.add
    accepted = []
    sets = []
    calls = 0
    charge = layer.level + 1
    for _ in range(trials):
        x = getrandbits(total_bits)
        while x >= total:
            x = getrandbits(total_bits)
        idx = bisect_right(prefix, x)
        hood = hoods[idx]
        n = len(hood)
        x = getrandbits(n.bit_length())
        while x >= n:
            x = getrandbits(n.bit_length())
        u = hood[x]
        verts = members[idx]
        if u in verts:
            continue
        calls += charge
        query(u)
        threshold = thresholds[idx]
        if u < threshold:
            got = child_covered(lookups[u], verts, u, threshold, covered[idx], grows)
            if got is not None:
                accepted.append(tuple(sorted(verts + (u,))))
                sets.append(got)
    ledger.oracle_calls += calls
    return accepted, sets


def final_level_successes(
    g: Graph, ledger: QueryLedger, layer: LayerState, trials: int, rng: Random
) -> int:
    """Run the last-level loop against a frozen layer and count successes."""
    return len(_extend(g, ledger, layer, trials, rng)[0])


def scaling_constant(
    level: int,
    edge_total: int | float,
    walk_length: int,
    layer_sizes: Sequence[int],
    layer_degrees: Sequence[int],
) -> Fraction:
    """Exact normalization constant c_i for the given realized layer degrees.

    c_i = (m / walk_length) * product over j in 3..i-1 of (D_{j-1} / l_j)
    times D_{i-1}.  ``layer_sizes`` holds l_3..l_{i-1} and ``layer_degrees``
    holds D_2..D_{i-1}.  Kept as a Fraction so the recursion
    c_i = c_{i-1} * D_{i-1} / l_{i-1} is an exact identity.
    """
    if level < 3:
        raise ValueError("scaling constant is defined for levels 3 and up")
    if walk_length < 1:
        raise ValueError("walk length must be positive")
    if edge_total <= 0:
        raise ValueError("edge total must be positive")
    need_sizes = level - 3
    need_degrees = level - 2
    if len(layer_sizes) != need_sizes:
        raise ValueError(f"expected {need_sizes} layer sizes l_3..l_{level - 1}")
    if len(layer_degrees) != need_degrees:
        raise ValueError(f"expected {need_degrees} layer degrees D_2..D_{level - 1}")
    if any(d <= 0 for d in layer_degrees):
        raise ValueError("zero layer degree: the scaling constant is undefined")
    if any(l < 1 for l in layer_sizes):
        raise ValueError("layer sizes must be positive")
    c = Fraction(edge_total) / walk_length
    for j in range(3, level):
        c = c * layer_degrees[j - 3] / layer_sizes[j - 3]
    return c * layer_degrees[level - 3]


@dataclass(frozen=True)
class LayerDiagnostic:
    level: int
    size: int
    total_degree: int | None
    trials: int
    acceptance_rate: float | None


@dataclass
class EstimateResult:
    """Outcome of one estimation run plus the cost of obtaining it.

    ``layers`` are the stored layers 2..k-1, ending early at an empty one;
    ``per_layer`` summarizes them and the final loop.
    """

    estimate: float
    successes: int
    scaling: float | None
    edge_total_used: float
    layers: list[LayerState]
    per_layer: list[LayerDiagnostic]
    oracle_calls: int
    edges_observed: float
    warnings: list[str]
    ledger: QueryLedger


def estimate_count(
    g: Graph, pattern: Pattern, seg: Segmentation, cfg: EstimateConfig
) -> EstimateResult:
    """One sampling run: edge total, walk, layers 3..k-1, final loop, normalization.

    Every query is charged to one ledger.  The edge total is
    ``g.edge_count`` under exact-m; under estimated-m it is a collision
    count charged ahead of the walk.  A layer that ends up empty stops the
    run with zero successes, an estimate of 0 and a warning; that outcome
    is a legitimate sample, not an error.
    """
    k = pattern.size
    if len(cfg.layer_sizes) != k - 2:
        raise ValueError(
            f"pattern of size {k} needs {k - 2} layer sizes "
            f"(l_3..l_{k}), got {len(cfg.layer_sizes)}"
        )
    require_feasible(pattern, seg)
    ledger = QueryLedger()
    root = Random(cfg.seed)
    walk_seed = root.getrandbits(63)
    trial_seed = root.getrandbits(63)
    edge_seed = root.getrandbits(63)
    if cfg.edge_count_mode == "exact-m":
        edge_total: float = float(g.edge_count)
    else:
        samples = max(EDGE_COUNT_MIN_SAMPLES, math.ceil(10 * math.sqrt(g.vertex_count)))
        edge_total = estimate_edge_count(
            g, ledger, samples, EDGE_COUNT_GAP, seed=edge_seed
        ).edge_estimate
    edges = simple_random_walk(g, ledger, cfg.walk, walk_seed)
    rng = Random(trial_seed)

    layers = [initial_layer(g, ledger, edges, pattern.slack, seg)]
    warnings: list[str] = []
    successes = 0
    for level, trials in enumerate(cfg.layer_sizes, start=3):
        cur = layers[-1]
        if cur.total_degree <= 0:
            warnings.append(f"degenerate layer at level {cur.level}")
            break
        if level == k:
            successes = final_level_successes(g, ledger, cur, trials, rng)
        else:
            members, covered = _extend(g, ledger, cur, trials, rng)
            layers.append(
                LayerState.build(g, ledger, level, members, covered, trials, pattern.slack, seg)
            )

    l_k = cfg.layer_sizes[-1]
    if warnings:
        estimate = 0.0
        scaling = None
    else:
        degrees = [ls.total_degree for ls in layers]
        c_k = scaling_constant(k, edge_total, cfg.walk.length, cfg.layer_sizes[:-1], degrees)
        scaling = float(c_k)
        estimate = float(Fraction(successes) * c_k / l_k)
    diags = [
        LayerDiagnostic(
            ls.level, len(ls), ls.total_degree, ls.trials,
            None if ls.level == 2 else len(ls) / ls.trials,
        )
        for ls in layers
    ]
    rate = None if warnings else successes / l_k
    diags.append(LayerDiagnostic(k, successes, None, l_k, rate))
    return EstimateResult(
        estimate=estimate,
        successes=successes,
        scaling=scaling,
        edge_total_used=edge_total,
        layers=layers,
        per_layer=diags,
        oracle_calls=ledger.oracle_calls,
        edges_observed=edges_observed_fraction(ledger, g),
        warnings=warnings,
        ledger=ledger,
    )


def check_sizing_args(eps: float, t_guess: float, fmax_guess: float) -> None:
    """Raise ValueError unless :func:`recommend_sample_sizes` accepts these, whatever the graph."""
    if not 0 < eps < 1:
        raise ValueError("eps must lie strictly between 0 and 1")
    if eps**3 == 0:  # the sizes divide by it
        raise ValueError(f"eps {eps} is too close to 0 for finite sizes")
    if t_guess <= 0:
        raise ValueError("t_guess must be positive")
    if fmax_guess < 1:
        raise ValueError("fmax_guess must be at least 1")
    for name, value in (("t_guess", t_guess), ("fmax_guess", fmax_guess)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, not {value}")


def recommend_sample_sizes(
    n: int,
    m: int,
    alpha: int,
    c: int,
    k: int,
    eps: float,
    t_guess: float,
    fmax_guess: float,
) -> dict[int, int]:
    """Advisory trial counts ``{i: l_i}`` under which layers stay representative whp.

    Middle layers: l_i >= (ln n)^3 / (eps^3 (1-eps)^i) * F * 2m * n^c
    * ((c+1) alpha)^(i-(c+1)) / T.  Final layer swaps the (ln n)^3 * F
    factor for 3 (ln n)^2.  These are ceilings to aim for, not enforced
    minimums.
    """
    check_sizing_args(eps, t_guess, fmax_guess)
    if n < 2 or m < 1:
        raise ValueError("graph must have at least 2 vertices and 1 edge")
    if alpha < 1:
        raise ValueError("alpha must be at least 1")
    if k < 3:
        raise ValueError("pattern size must be at least 3")
    if c < 0:
        raise ValueError("slack must be nonnegative")
    ln = math.log(n)
    base = 2.0 * m * (n**c)
    sizes: dict[int, int] = {}
    for i in range(3, k + 1):
        if i < k:
            head = (ln**3) / (eps**3 * (1 - eps) ** i) * fmax_guess
        else:
            head = 3 * (ln**2) / (eps**3 * (1 - eps) ** k)
        val = head * base * ((c + 1) * alpha) ** (i - (c + 1)) / t_guess
        sizes[i] = _ceil_size(val, f"size l_{i}")
    return sizes


def _ceil_size(value: float, what: str) -> int:
    """``value`` rounded up to a count of at least 1; ValueError if it is not finite."""
    if not math.isfinite(value):
        raise ValueError(
            f"the recommended {what} is not finite; raise t_guess, or lower fmax_guess"
        )
    return max(1, math.ceil(value))
