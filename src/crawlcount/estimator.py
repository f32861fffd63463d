"""Layered sampling estimator for pattern counts over the metered oracle.

The sampler materializes a chain of layers.  Level 2 is the multiset of
edges collected by a random walk.  A layer holds each member's
representative neighborhood, fetched once per distinct member when the
layer is built; its size is the member's weight.  Each next level is
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
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import accumulate, chain
from random import Random
from typing import Sequence

from .graph import Graph, QueryLedger, edges_observed_fraction
from .instances import Rule, is_child, parent_rule, representative_hood
from .patterns import Pattern, Segmentation, require_feasible
from .walk import WalkConfig, estimate_edge_count, simple_random_walk


EDGE_COUNT_MIN_SAMPLES = 200  # estimated-m walks max(this, ceil(10 sqrt n)) samples
EDGE_COUNT_GAP = 10  # walk steps between consecutive edge-count samples


class DegenerateLayerError(ValueError):
    """Sampling from a layer with zero total weight."""


@dataclass
class LayerState:
    """One materialized layer: members, their representative neighborhoods, prefix weights.

    ``members`` are sorted vertex tuples, repeats kept.  ``hoods[i]`` is
    member i's representative neighborhood, whose size is the member's
    sampling weight; repeated members share one tuple.
    """

    level: int
    members: Sequence[tuple[int, ...]]
    hoods: list[tuple[int, ...]]
    trials: int
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
        trials: int,
        slack: int,
    ) -> "LayerState":
        """The layer of ``members``, fetching each distinct member's neighborhood once.

        The fetches are settled in one bulk charge: one neighbors query per
        vertex of each distinct member, the same calls and queried set as one
        :func:`~crawlcount.graph.neighbors` call per vertex.  The
        representative's lists are among those queries, so reading them
        costs nothing more.
        """
        adj, lookups = g.raw_adjacency(), g.raw_neighbor_lookups()
        fetched = dict.fromkeys(members)
        for verts in fetched:
            fetched[verts] = representative_hood(adj, lookups, verts, slack)
        ledger.oracle_calls += level * len(fetched)
        ledger.queried_vertices.update(chain.from_iterable(fetched))
        return LayerState(level, members, [fetched[m] for m in members], trials)

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
    g: Graph, ledger: QueryLedger, edges: Sequence[tuple[int, int]], slack: int
) -> LayerState:
    """The level-2 layer of the walk's ``(low, high)`` edges (a multiset, order preserved)."""
    return LayerState.build(g, ledger, 2, edges, len(edges), slack)


def _extend(
    g: Graph,
    ledger: QueryLedger,
    layer: LayerState,
    seg: Segmentation,
    trials: int,
    rng: Random,
) -> list[tuple[int, ...]]:
    """Run ``trials`` extension trials against ``layer``; the grown tuples accepted, in order.

    A trial draws a member by weight and a uniform vertex u of its
    representative neighborhood, and keeps the grown tuple if u is a child
    of the member under :func:`is_child`.  Each draw is ``randrange(n)``
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
    lookups = g.raw_neighbor_lookups()
    query = ledger.queried_vertices.add
    rules: dict[tuple[int, ...], Rule | None] = {}
    accepted = []
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
        try:
            rule = rules[verts]
        except KeyError:
            rule = rules[verts] = parent_rule(g, verts, seg)
        if rule is not None and u < rule[0] and is_child(lookups[u], verts, u, rule):
            accepted.append(tuple(sorted(verts + (u,))))
    ledger.oracle_calls += calls
    return accepted


def final_level_successes(
    g: Graph,
    ledger: QueryLedger,
    layer: LayerState,
    seg: Segmentation,
    trials: int,
    rng: Random,
) -> int:
    """Run the last-level loop against a frozen layer and count successes."""
    return len(_extend(g, ledger, layer, seg, trials, rng))


@dataclass
class LayerBuild:
    """Everything a build produced: edge total, layers 2..k-1, final successes, ledger."""

    edge_total: float
    layers: list[LayerState]
    successes: int
    final_trials: int
    ledger: QueryLedger
    warnings: list[str] = field(default_factory=list)

    @property
    def degenerate(self) -> bool:
        return bool(self.warnings)


def build_layers(
    g: Graph, pattern: Pattern, seg: Segmentation, cfg: EstimateConfig
) -> LayerBuild:
    """Edge total, walk, layers 3..k-1, then the final counting loop, on one ledger.

    The edge total is ``g.edge_count`` under exact-m; under estimated-m it
    is a collision count charged to the ledger ahead of the walk.  A layer
    that ends up empty stops the build with zero successes and a warning;
    that outcome is a legitimate sample, not an error.
    """
    if len(cfg.layer_sizes) != pattern.size - 2:
        raise ValueError(
            f"pattern of size {pattern.size} needs {pattern.size - 2} layer sizes "
            f"(l_3..l_{pattern.size}), got {len(cfg.layer_sizes)}"
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
    k = pattern.size
    wcfg = cfg.walk if cfg.walk.seed is not None else replace(cfg.walk, seed=walk_seed)
    edges = simple_random_walk(g, ledger, wcfg)
    rng = Random(trial_seed)

    layers = [initial_layer(g, ledger, edges, pattern.slack)]
    warnings: list[str] = []
    successes = 0
    for level, trials in enumerate(cfg.layer_sizes, start=3):
        cur = layers[-1]
        if cur.total_degree <= 0:
            warnings.append(f"degenerate layer at level {cur.level}")
            break
        if level == k:
            successes = final_level_successes(g, ledger, cur, seg, trials, rng)
        else:
            members = _extend(g, ledger, cur, seg, trials, rng)
            layers.append(LayerState.build(g, ledger, level, members, trials, pattern.slack))
    return LayerBuild(edge_total, layers, successes, cfg.layer_sizes[-1], ledger, warnings)


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
    """Outcome of one estimation run plus the cost of obtaining it."""

    estimate: float
    successes: int
    scaling: float | None
    final_trials: int
    walk_length: int
    edge_total_used: float
    per_layer: list[LayerDiagnostic]
    oracle_calls: int
    edges_observed: float
    warnings: list[str]
    ledger: QueryLedger


def estimate_count(
    g: Graph, pattern: Pattern, seg: Segmentation, cfg: EstimateConfig
) -> EstimateResult:
    """One full estimation run: walk, layers, final loop, normalization."""
    build = build_layers(g, pattern, seg, cfg)
    k = pattern.size
    diags = [
        LayerDiagnostic(
            level=ls.level,
            size=len(ls),
            total_degree=ls.total_degree,
            trials=ls.trials,
            acceptance_rate=None if ls.level == 2 else len(ls) / ls.trials,
        )
        for ls in build.layers
    ]
    warnings = list(build.warnings)
    if build.degenerate:
        estimate = 0.0
        scaling = None
    else:
        degrees = [ls.total_degree for ls in build.layers]
        sizes = list(cfg.layer_sizes[: k - 3])
        c_k = scaling_constant(k, build.edge_total, cfg.walk.length, sizes, degrees)
        scaling = float(c_k)
        estimate = float(Fraction(build.successes) * c_k / build.final_trials)
    diags.append(
        LayerDiagnostic(
            level=k,
            size=build.successes,
            total_degree=None,
            trials=build.final_trials,
            acceptance_rate=(
                build.successes / build.final_trials if not build.degenerate else None
            ),
        )
    )
    return EstimateResult(
        estimate=estimate,
        successes=build.successes,
        scaling=scaling,
        final_trials=build.final_trials,
        walk_length=cfg.walk.length,
        edge_total_used=build.edge_total,
        per_layer=diags,
        oracle_calls=build.ledger.oracle_calls,
        edges_observed=edges_observed_fraction(build.ledger, g),
        warnings=warnings,
        ledger=build.ledger,
    )


@dataclass(frozen=True)
class SampleSizeRecommendation:
    walk_length: int
    layer_sizes: dict[int, int]


def check_sizing_args(eps: float, t_guess: float, fmax_guess: float) -> None:
    """Raise ValueError unless :func:`recommend_sample_sizes` accepts these, whatever the graph."""
    if not 0 < eps < 1:
        raise ValueError("eps must lie strictly between 0 and 1")
    if t_guess <= 0:
        raise ValueError("t_guess must be positive")
    if fmax_guess < 1:
        raise ValueError("fmax_guess must be at least 1")


def recommend_sample_sizes(
    n: int,
    m: int,
    alpha: int,
    c: int,
    k: int,
    eps: float,
    t_guess: float,
    fmax_guess: float,
) -> SampleSizeRecommendation:
    """Advisory trial counts under which layers stay representative whp.

    Middle layers: l_i >= (ln n)^3 / (eps^3 (1-eps)^i) * F * 2m * n^c
    * ((c+1) alpha)^(i-(c+1)) / T.  Final layer swaps the (ln n)^3 * F
    factor for 3 (ln n)^2.  Walk length: tau_mix + tau_rel * (ln n / eps^2)
    * F * m / T, with both tau values defaulting to ceil(10 log2 n).
    These are ceilings to aim for, not enforced minimums.
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
    for i in range(3, k):
        val = (
            (ln**3)
            / (eps**3 * (1 - eps) ** i)
            * fmax_guess
            * base
            * ((c + 1) * alpha) ** (i - (c + 1))
            / t_guess
        )
        sizes[i] = max(1, math.ceil(val))
    final = (
        3
        * (ln**2)
        / (eps**3 * (1 - eps) ** k)
        * base
        * ((c + 1) * alpha) ** (k - (c + 1))
        / t_guess
    )
    sizes[k] = max(1, math.ceil(final))
    tau = math.ceil(10 * math.log2(n))
    walk = tau + tau * (ln / eps**2) * (fmax_guess * m / t_guess)
    return SampleSizeRecommendation(
        walk_length=max(1, math.ceil(walk)), layer_sizes=sizes
    )


@dataclass(frozen=True)
class LayerNiceness:
    """Diagnostic verdicts for one realized layer.

    ``nice_range`` asks whether the layer's share of assignment chains sits
    inside (1 +/- eps)^i of its expectation; ``nice_ratio`` asks whether
    chains per unit of sampling weight did not collapse.
    """

    level: int
    f_value: int
    range_low: float
    range_high: float
    nice_range: bool
    ratio_lhs: float
    ratio_rhs: float
    nice_ratio: bool

    @property
    def nice(self) -> bool:
        return self.nice_range and self.nice_ratio


def niceness_report(
    g: Graph,
    pattern: Pattern,
    seg: Segmentation,
    layers: Sequence[LayerState],
    profile,
    eps: float,
) -> list[LayerNiceness]:
    """Judge realized layers against exact chain counts.

    Needs a full CountProfile; this is a verification tool for graphs small
    enough to enumerate, not part of the estimator proper.
    """
    from .oracle import seg_degree_total

    if not 0 < eps < 1:
        raise ValueError("eps must lie strictly between 0 and 1")
    if not layers:
        raise ValueError("no layers to report on")
    t = profile.total
    m = g.edge_count
    ln_n = math.log(max(g.vertex_count, 2))
    walk_length = layers[0].trials
    out = []
    for pos, layer in enumerate(layers):
        i = layer.level
        table = profile.f_tables.get(i)
        if table is None:
            raise ValueError(f"profile is missing exact chain counts for level {i}")
        f_val = sum(table.get(verts, 0) for verts in layer.members)
        if i == 2:
            factor = Fraction(walk_length, m)
        else:
            sizes = [layers[p].trials for p in range(1, pos)]  # l_3..l_{i-1}
            degrees = [layers[p].total_degree for p in range(pos)]  # D_2..D_{i-1}
            c_i = scaling_constant(i, m, walk_length, sizes, degrees)
            factor = Fraction(layer.trials) / c_i
        range_low = (1 - eps) ** i * float(factor) * t
        range_high = (1 + eps) ** i * float(factor) * t
        nice_range = range_low <= f_val <= range_high
        degtotal = seg_degree_total(g, pattern, seg, i)
        ratio_lhs = f_val / layer.total_degree if layer.total_degree > 0 else 0.0
        ratio_rhs = (
            (1 - eps) ** i * (eps / ln_n) * (t / degtotal) if degtotal > 0 else 0.0
        )
        nice_ratio = ratio_lhs >= ratio_rhs
        out.append(
            LayerNiceness(
                level=i,
                f_value=f_val,
                range_low=range_low,
                range_high=range_high,
                nice_range=nice_range,
                ratio_lhs=ratio_lhs,
                ratio_rhs=ratio_rhs,
                nice_ratio=nice_ratio,
            )
        )
    return out
