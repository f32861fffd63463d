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
    EnumerationBudgetError,
    EstimateConfig,
    Graph,
    Pattern,
    QueryLedger,
    Segmentation,
    WalkConfig,
    auto_segment,
    builtin_names,
    builtin_pattern,
    count_profile,
    estimate_count,
    exact_count,
    initial_layer,
    representative,
    require_feasible,
)
from crawlcount.instances import UNCOVERED, child_covered, covered_rule, representative_hood

import truth
import util

CONNECTED = util.connected_atlas()
ACCEPTED = util.accepted_patterns()
IDS = [name for name, _, _ in ACCEPTED]
# Every feasible order of each builtin, the automatic one included.  Under
# g45's 0,2,3,1 and g59's 0,3,4,1,2 level 3 grows, so copies carry a covered
# set from level 3 on.
EVERY_ORDER = [
    (f"{name}-every-order", p, util.feasible_orders(p))
    for name in builtin_names()
    for p in [builtin_pattern(name)[0]]
]
# the accepted patterns under their automatic orders, then the builtins under all
WITH_EVERY_ORDER = [(name, p, [seg]) for name, p, seg in ACCEPTED] + EVERY_ORDER
WITH_EVERY_ORDER_IDS = [name for name, _, _ in WITH_EVERY_ORDER]
# ER(16, 0.8) at seeded ids below 5000: its sets iterate out of vertex
# order, as sets of small dense ids do not, so a tally that takes a set's
# order for a sorted one miscounts here (the largest chain count of g46 at
# level 3, and of g510 at levels 3 and 4)
SPREAD = util.spread_ids(util.er_graph(16, 0.8, 4), 1)


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
        for verts in truth.copies(g, p, seg, level)[:25]:
            rep = util.brute_representative(g, verts, slack)
            want = tuple(sorted(set().union(*(adj[v] for v in rep))))
            assert representative(adj, lookups, verts, slack) == rep
            assert representative_hood(adj, lookups, verts, slack) == want
            assert util.metered_hood(g, QueryLedger(), verts, slack) == want
            seen += 1
    assert seen >= 2 * (p.size - 1)


@pytest.mark.parametrize("name,p,seg", ACCEPTED, ids=IDS)
def test_tally_by_set_algebra_matches_is_child(name, p, seg):
    # copies per level and the largest chain count per level must match the
    # reference, which decides every candidate of every hood with child_covered
    found = 0
    graphs = (util.er_graph(12, 0.7, 2), util.er_graph(16, 0.8, 4), util.hk_graph(60, 4, 0.7, 3))
    for g in graphs + (SPREAD,):
        prof = count_profile(g, p, seg)
        want_counts, want_tables, _ = util.reference_tally(g, p, seg, p.size)
        assert prof.per_level_counts == want_counts
        assert prof.f_max_per_level == {i: max(t.values(), default=0) for i, t in want_tables.items()}
        assert prof.total == want_counts[p.size]
        found += prof.total
    assert found > 0


@pytest.mark.parametrize("name,p,segs", EVERY_ORDER, ids=[name for name, _, _ in EVERY_ORDER])
def test_tally_under_every_feasible_builtin_order(name, p, segs):
    # the two checks above under every order of the builtins: copies and
    # largest chain count per level against the reference, and the budget
    # passing at the reference work and raising one below it
    grown = 0
    for g in (util.er_graph(12, 0.7, 2), util.hk_graph(60, 4, 0.7, 3), SPREAD):
        for seg in segs:
            want_counts, want_tables, work = util.reference_tally(g, p, seg, p.size)
            prof = count_profile(g, p, seg, budget=work)
            assert prof.per_level_counts == want_counts, seg.order
            want_max = {i: max(t.values(), default=0) for i, t in want_tables.items()}
            assert prof.f_max_per_level == want_max, seg.order
            assert prof.total == want_counts[p.size]
            with pytest.raises(EnumerationBudgetError, match=f"exceeded {work - 1} "):
                count_profile(g, p, seg, budget=work - 1)
            grown += seg.missing[3] > 0
    if p.slack == 0:
        assert len(segs) == math.factorial(p.size)
    else:
        assert grown > 0


@pytest.mark.parametrize("name,p,segs", WITH_EVERY_ORDER, ids=WITH_EVERY_ORDER_IDS)
def test_child_rule_follows_from_the_parent_covered_set(name, p, segs):
    # the sampler and the tally derive each copy's rule from the covered set
    # its parent hands down, plus u and the member w it misses when the
    # level grows, as child_covered returns it; covered set and threshold
    # must be the copy's own, read by probing every member pair
    g = util.hk_graph(60, 4, 0.7, 3)
    lookups = g.raw_neighbor_lookups()
    n = g.vertex_count
    for seg in segs:
        seen = 0

        def check(verts, rule, u, child):
            nonlocal seen
            level = len(child)
            if level == p.size:
                return
            covered = child_covered(lookups[u], verts, u, *rule)
            grows = seg.missing[level + 1] > seg.missing[level]
            want = util.brute_parent_rule(g, child, seg)
            assert (covered_rule(child, covered, grows, n), covered, grows) == want, child
            seen += 1

        pair_grows = seg.missing[3] > seg.missing[2]
        for edge in util.edges(g):
            want = util.brute_parent_rule(g, edge, seg)
            assert (covered_rule(edge, UNCOVERED, pair_grows, n), UNCOVERED, pair_grows) == want
        util.reference_tally(g, p, seg, p.size, on_child=check)
        assert seen > 0 or p.size == 3, seg.order


@pytest.mark.parametrize("name,p,seg", ACCEPTED, ids=IDS)
def test_budget_trips_at_the_reference_hood_sum(name, p, seg):
    # --budget bounds the sum of least member degrees over every copy below
    # the top (at slack 0 the representative neighborhood sizes): that sum
    # passes and one less raises
    for g in (util.er_graph(16, 0.8, 4), util.hk_graph(60, 4, 0.7, 3)):
        _, _, work = util.reference_tally(g, p, seg, p.size)
        count_profile(g, p, seg, budget=work)
        with pytest.raises(EnumerationBudgetError, match=f"exceeded {work - 1} "):
            count_profile(g, p, seg, budget=work - 1)


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


# The 4-cycle under every feasible order, and K8 minus a perfect matching
# under three orders other than its automatic one: under the first and the
# third level 3 grows, and the second keeps a clique to level 4.
C4 = next(p for name, p, _ in ACCEPTED if p.size == 4 and len(p.edges) == 4)
K8_MATCHING = next(p for name, p, _ in ACCEPTED if name == "k8minus4")
K8_ORDERS = [(0, 2, 1, 3, 4, 5, 6, 7), (0, 2, 4, 6, 1, 3, 5, 7), (7, 5, 6, 4, 3, 1, 2, 0)]
STORED = WITH_EVERY_ORDER + [
    ("c4-every-order", C4, util.feasible_orders(C4)),
    ("k8minus4-three-orders", K8_MATCHING, [Segmentation(K8_MATCHING, o) for o in K8_ORDERS]),
]


@pytest.mark.parametrize("name,p,segs", STORED, ids=[name for name, _, _ in STORED])
def test_chain_counts_pass_through_stored_hoods(name, p, segs):
    # On a seeded run's stored layers, f_i(m) = sum of f_(i+1)(m + u) over
    # the u in m's stored hood that child_covered accepts under m's stored
    # rule: every child the tally counts can be drawn from the member's
    # stored neighborhood, so each trial carries the layer's f-mass over its
    # weight into the next level.  Every stored rule, handed down trial by
    # trial, must be the member's own, read by probing every member pair.
    # f is the reference's, computed only below the members; under the
    # hundred-odd orders of g59 and g510, layers of 10 trials keep that quick.
    lookups = MEAN_GRAPH.raw_neighbor_lookups()
    trials = 10 if len(segs) > 100 else 30
    grown = 0
    for seg in segs:
        f = util.reference_chain_count(MEAN_GRAPH, p, seg)
        cfg = EstimateConfig(
            layer_sizes=[trials] * (p.size - 2), walk=WalkConfig(length=60), seed=0
        )
        checked = carried = 0
        for layer in estimate_count(MEAN_GRAPH, p, seg, cfg).layers:
            rules = [(t, c, layer.grows) for t, c in zip(layer.thresholds, layer.covered)]
            assert rules == [util.brute_parent_rule(MEAN_GRAPH, m, seg) for m in layer.members]
            for m, (hood, rule) in dict(zip(layer.members, zip(layer.hoods, rules))).items():
                got = sum(
                    f(tuple(sorted(m + (u,))))
                    for u in hood
                    if u not in m and child_covered(lookups[u], m, u, *rule) is not None
                )
                assert got == f(m), (seg.order, layer.level, m)
                checked += 1
                carried += got > 0
                grown += bool(rule[1])
        assert checked >= 46 and carried > 0, seg.order
    # a stored member covers a pair whenever a level from 3 to k-1 grows
    assert grown > 0 or all(s.missing[p.size - 1] == 0 for s in segs)


@pytest.mark.parametrize("name,p,segs", WITH_EVERY_ORDER, ids=WITH_EVERY_ORDER_IDS)
def test_pair_rule_matches_the_probe_loop(name, p, segs):
    # the level-2 layer takes every edge's rule from the order alone (its
    # lower endpoint, or n when level 3 grows, and nothing covered); on
    # every edge of a small graph that must be the rule read by probing,
    # under every order (level 3 grows under some of them)
    g = util.er_graph(12, 0.5, 3)
    edges = util.edges(g)
    for seg in segs:
        layer = initial_layer(g, QueryLedger(), edges, p.slack, seg)
        rules = [(t, c, layer.grows) for t, c in zip(layer.thresholds, layer.covered)]
        assert rules == [util.brute_parent_rule(g, e, seg) for e in edges], seg.order


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
            seg = Segmentation(p, order)
            if seg.min_slack is None or seg.min_slack > 1:
                continue
            orders += 1
            for k in range(3, p.size + 1):
                rows = util.level_bits(seg, k)
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
        orders = [o for o in permutations(range(p.size)) if Segmentation(p, o).min_slack in (0, 1)]
    else:
        rng = Random(p.size * 10 + len(p.edges))
        orders = {seg.order}
        while len(orders) < 6:
            order = tuple(rng.sample(range(p.size), p.size))
            if Segmentation(p, order).min_slack in (0, 1):
                orders.add(order)
    accepted = 0
    for order in orders:
        s = Segmentation(p, order)
        for k in range(3, p.size + 1):
            for g, bits in _words(k):
                key = (util.level_bits(s, k), util.level_bits(s, k - 1), tuple(bits))
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
    # a layer is built only under an order whose levels are cliques minus a
    # matching.  Path 0-1-2-3 in the order 0, 2, 1, 3: level 2 has no edge
    p = Pattern(4, [(0, 1), (1, 2), (2, 3)], slack=1)
    seg = Segmentation(p, (0, 2, 1, 3))
    with pytest.raises(ValueError, match="slack at most 1"):
        initial_layer(util.triangle(), QueryLedger(), [(0, 1)], 1, seg)
    # the five-cycle's best order needs slack 2
    wide = Pattern(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)], slack=2)
    with pytest.raises(ValueError, match="slack at most 1"):
        initial_layer(util.k4(), QueryLedger(), [(0, 1)], 1, auto_segment(wide))
