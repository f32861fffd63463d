"""Every pattern the loader accepts, not only the builtins.

A pattern is accepted when some insertion order needs slack at most 1.
Those are exactly the k-cliques minus a matching: the last level is the
whole pattern, so every vertex needs degree k-2 or more, and conversely
any order that starts with an edge works.  The connected graphs on 3-7
vertices come from the networkx graph atlas (one per isomorphism class,
994 in all); 2, 3, 3, 4 and 4 of them are accepted for k = 3..7.  The
atlas stops at 7, so the five 8-vertex ones (K8 minus 0..4 disjoint
pairs) are built here, for 21 in all.  For each one the layer expansion
must count exactly what a subset scan counts, a seeded estimator mean
must land within 3 standard errors of the truth, and every classified
adjacency word must agree with the backtracking reference.
"""

import math
import statistics
from functools import cache
from itertools import combinations, permutations
from random import Random

import pytest

from crawlcount import (
    EstimateConfig,
    Graph,
    Pattern,
    QueryLedger,
    Segmentation,
    WalkConfig,
    auto_segment,
    enumerate_instances,
    estimate_count,
    exact_count,
    representative,
    require_feasible,
)
from crawlcount.instances import representative_hood
from crawlcount.oracle import DEFAULT_BUDGET, _tally
from crawlcount.patterns import _order_slack

import util

CONNECTED = util.connected_atlas()
ACCEPTED = util.accepted_patterns()
IDS = [name for name, _, _ in ACCEPTED]


def test_accepted_exactly_when_complement_is_a_matching():
    assert len(CONNECTED) == 994
    sizes = [p.size for _, p, _ in ACCEPTED]
    assert [sizes.count(k) for k in range(3, 9)] == [2, 3, 3, 4, 4, 5]
    for idx, h in CONNECTED:
        k = h.number_of_nodes()
        matching = min(d for _, d in h.degree()) >= k - 2
        assert (f"atlas{idx}" in IDS) == matching, idx
        if not matching:
            # the loader's order, like every connected one, needs slack 2 or more
            p = Pattern(k, h.edges(), slack=1)
            with pytest.raises(ValueError, match="slack"):
                require_feasible(p, auto_segment(p))
    for _, p, seg in ACCEPTED:
        # the automatic order is the lexicographically first feasible one
        assert seg.order == util.first_order_within_slack_one(p.size, p.edges)
        require_feasible(p, seg)
        assert p.slack == (0 if len(p.edges) == p.size * (p.size - 1) // 2 else 1)
    # every builtin shape is among them: triangle, diamond, K4, K5 - e, K5
    shapes = {(p.size, len(p.edges)) for _, p, _ in ACCEPTED}
    assert {(3, 3), (4, 5), (4, 6), (5, 9), (5, 10)} <= shapes


@pytest.mark.parametrize("name,p,seg", ACCEPTED, ids=IDS)
def test_exact_count_matches_naive_subset_scan(name, p, seg):
    n, density, seeds = (9, 0.55, 4) if p.size <= 5 else (13, 0.85, 2)
    for seed in range(seeds):
        g = util.er_graph(n, density, seed)
        want = util.naive_copies(g, util.level_matrix(seg, p.size))
        assert exact_count(g, p) == len(want), seed


@pytest.mark.parametrize("slack", [0, 1])
@pytest.mark.parametrize("name,p,seg", ACCEPTED, ids=IDS)
def test_representative_hood_matches_exhaustive_argmin(name, p, seg, slack):
    # unequal degrees, so the argmin and its tie-break both matter
    g = util.er_graph(14, 0.7, 5)
    adj, lookups = g.raw_adjacency(), g.raw_neighbor_lookups()
    seen = 0
    for level in range(2, p.size + 1):
        for verts in enumerate_instances(g, p, seg, level)[:25]:
            rep = util.brute_representative(g, verts, slack)
            want = tuple(sorted(set().union(*(adj[v] for v in rep))))
            assert representative(adj, lookups, verts, slack) == rep
            assert representative_hood(adj, lookups, verts, slack) == want
            assert util.metered_hood(g, QueryLedger(), verts, slack) == want
            seen += 1
    assert seen >= 2 * (p.size - 1)


@pytest.mark.parametrize("name,p,seg", ACCEPTED, ids=IDS)
def test_tally_by_set_algebra_matches_is_child(name, p, seg):
    # the tables must match entry for entry and in insertion order, since
    # children are visited in sorted order on both sides
    found = 0
    for g in (util.er_graph(12, 0.7, 2), util.er_graph(16, 0.8, 4)):
        for top in range(2, p.size + 1):
            counts, tables = _tally(g, p, seg, top, DEFAULT_BUDGET)
            want_counts, want_tables = util.reference_tally(g, p, seg, top)
            assert counts == want_counts, top
            assert {i: list(t.items()) for i, t in tables.items()} == {
                i: list(t.items()) for i, t in want_tables.items()
            }, top
        found += counts[p.size]
    assert found > 0


# Connected ER(18, 0.8) where every accepted pattern has T > 0 (K8 minus a
# perfect matching the fewest, 52); runs, walk and layer sizes were fixed
# once.  Patterns on 6 or more vertices get 40 runs of 300-trial layers:
# with 30 trials most of their runs end in an empty layer, and the rare
# survivors carry so much weight that even a few hundred runs say little.
# 300 trials leave fewer empty layers, though K8 minus a perfect matching,
# the rarest, still ends 34 of its 40 runs at zero (92 of 100 with 150).
MEAN_GRAPH = util.connected_er_graph(18, 0.8, 1)


@pytest.mark.parametrize("name,p,seg", ACCEPTED, ids=IDS)
def test_estimator_mean_within_three_se(name, p, seg):
    t = exact_count(MEAN_GRAPH, p)
    assert t > 0
    runs, layer = (1500, 30) if p.size <= 5 else (40, 300)
    ests = [
        estimate_count(
            MEAN_GRAPH,
            p,
            seg,
            EstimateConfig(
                layer_sizes=[layer] * (p.size - 2),
                walk=WalkConfig(length=30, burn_in=20),
                seed=i,
            ),
        ).estimate
        for i in range(runs)
    ]
    se = statistics.stdev(ests) / math.sqrt(runs)
    assert abs(statistics.fmean(ests) - t) <= 3 * se, (t, statistics.fmean(ests), se)


def test_every_copy_is_assignable_under_every_feasible_order():
    """Under an order of slack at most 1, every relabelled copy of every level
    classifies to a parent: dropping the vertex that plays the order's last
    vertex always leaves the level below, so no copy is unreachable."""
    orders = copies = 0
    for _, acc, _ in ACCEPTED:
        if acc.size > 5:
            continue
        p = Pattern(acc.size, acc.edges, slack=1)
        for order in permutations(range(p.size)):
            need = _order_slack(p.bits, order)
            if need is None or need > 1:
                continue
            orders += 1
            seg = Segmentation(p, order)
            for k in range(3, p.size + 1):
                rows = seg.level(k)
                for perm in permutations(range(k)):
                    edges = [
                        (perm[i], perm[j])
                        for i in range(k)
                        for j in range(i)
                        if (rows[i] >> j) & 1
                    ]
                    copies += 1
                    assert util.classify_by_rule(Graph(k, edges), tuple(range(k)), seg) is not None
    assert orders == 394
    assert copies > 0


def _graph_and_bits(k, edges):
    bits = [0] * k
    for a, b in edges:
        bits[a] |= 1 << b
        bits[b] |= 1 << a
    return Graph(k, edges), bits


@cache
def _words(k):
    """Tuples of k vertices to classify, as (graph, neighbor bitmasks).

    Up to 5 vertices that is every graph on them; above, 40 seeded random
    graphs and 40 cliques minus a random matching, one extra missing pair
    in every third, so that copies and near misses both come up."""
    pairs = list(combinations(range(k), 2))
    if k <= 5:
        return [
            _graph_and_bits(k, [e for i, e in enumerate(pairs) if mask >> i & 1])
            for mask in range(1 << len(pairs))
        ]
    rng = Random(k)
    out = []
    for _ in range(40):
        out.append(_graph_and_bits(k, [e for e in pairs if rng.random() < 0.5]))
    for j in range(40):
        perm = rng.sample(range(k), k)
        gone = {tuple(sorted(perm[2 * i : 2 * i + 2])) for i in range(rng.randrange(k // 2 + 1))}
        if j % 3 == 0:
            gone.add(tuple(sorted(rng.sample(range(k), 2))))
        out.append(_graph_and_bits(k, [e for e in pairs if e not in gone]))
    return out


# the reference's answer depends only on the word and the two levels, which
# many orders share
_REFERENCE: dict = {}


@pytest.mark.parametrize("name,p,seg", ACCEPTED, ids=IDS)
def test_classification_matches_backtracking_reference(name, p, seg):
    """The missing-pair counting rule against the backtracking reference, under
    every feasible order up to 5 vertices and under the automatic order plus
    five seeded feasible ones above."""
    if p.size <= 5:
        orders = [o for o in permutations(range(p.size)) if _order_slack(p.bits, o) in (0, 1)]
    else:
        rng = Random(p.size * 10 + len(p.edges))
        orders = {seg.order}
        while len(orders) < 6:
            order = tuple(rng.sample(range(p.size), p.size))
            if _order_slack(p.bits, order) in (0, 1):
                orders.add(order)
    accepted = 0
    for order in orders:
        s = Segmentation(p, order)
        for k in range(3, p.size + 1):
            for g, bits in _words(k):
                key = (s.level(k), s.level(k - 1), tuple(bits))
                if key not in _REFERENCE:
                    _REFERENCE[key] = util.reference_class(bits, s, k)
                want = _REFERENCE[key]
                assert util.classify_by_rule(g, tuple(range(k)), s) == want, (order, bits)
                accepted += want is not None
    assert accepted > 0


LARGE = [(name, p, seg) for name, p, seg in ACCEPTED if p.size >= 6]


@pytest.mark.parametrize("name,p,seg", LARGE, ids=[name for name, _, _ in LARGE])
def test_classification_near_every_level_at_six_to_eight(name, p, seg):
    """Under the automatic order, every tuple that misses at most one pair
    more than its level (K_k minus s_k pairs) agrees with the backtracking
    reference: all copies, all near misses, and every way to add one pair
    too many."""
    for k in range(3, p.size + 1):
        pairs = list(combinations(range(k), 2))
        for gone in range(seg.missing[k] + 2):
            for absent in combinations(pairs, gone):
                g, bits = _graph_and_bits(k, [e for e in pairs if e not in absent])
                want = util.reference_class(bits, seg, k)
                assert util.classify_by_rule(g, tuple(range(k)), seg) == want, (k, absent)


def test_infeasible_order_refuses_to_classify():
    # path 0-1-2-3 in the order 0, 2, 1, 3: level 2 has no edge
    p = Pattern(4, [(0, 1), (1, 2), (2, 3)], slack=1)
    seg = Segmentation(p, (0, 2, 1, 3))
    with pytest.raises(ValueError, match="slack at most 1"):
        util.classify_by_rule(util.triangle(), (0, 1, 2), seg)
    # the five-cycle's best order needs slack 2
    wide = Pattern(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)], slack=2)
    with pytest.raises(ValueError, match="slack at most 1"):
        util.classify_by_rule(util.k4(), (0, 1, 2, 3), auto_segment(wide))
