"""Every pattern the loader accepts on 3 to 5 vertices, not only the builtins.

The connected graphs on 3-5 vertices come from the networkx graph atlas
(one per isomorphism class, 29 in all).  A pattern is accepted when its
``auto_segment`` order needs slack at most 1; 8 of the 29 are.  For each
one the layer expansion must count exactly what a subset scan counts, and
a seeded estimator mean must land within 3 standard errors of the truth.
"""

import math
import statistics
from itertools import permutations

import networkx as nx
import pytest

from crawlcount import (
    EstimateConfig,
    Graph,
    Pattern,
    Segmentation,
    WalkConfig,
    auto_segment,
    estimate_count,
    exact_count,
    validate_segmentation,
)
from crawlcount.instances import classify
from crawlcount.patterns import _order_slack

import util

CONNECTED = [
    (idx, h)
    for idx, h in enumerate(nx.graph_atlas_g())
    if 3 <= h.number_of_nodes() <= 5 and nx.is_connected(h)
]


def _accepted():
    out = []
    for idx, h in CONNECTED:
        p = Pattern(h.number_of_nodes(), h.edges(), slack=0)
        need = validate_segmentation(p, auto_segment(p)).min_slack
        if need <= 1:
            p = Pattern(p.size, p.edges, slack=need)
            out.append((f"atlas{idx}", p, auto_segment(p)))
    return out


ACCEPTED = _accepted()
IDS = [name for name, _, _ in ACCEPTED]


def test_sweep_covers_eight_of_twenty_nine():
    assert len(CONNECTED) == 29
    assert len(ACCEPTED) == 8
    # every builtin shape is among them: triangle, diamond, K4, K5 - e, K5
    shapes = {(p.size, len(p.edges)) for _, p, _ in ACCEPTED}
    assert {(3, 3), (4, 5), (4, 6), (5, 9), (5, 10)} <= shapes


@pytest.mark.parametrize("name,p,seg", ACCEPTED, ids=IDS)
def test_exact_count_matches_naive_subset_scan(name, p, seg):
    for seed in range(4):
        g = util.er_graph(9, 0.55, seed)
        want = util.naive_copies(g, util.level_matrix(seg, p.size))
        assert exact_count(g, p) == len(want), seed


# Connected ER(15, 0.65) where every accepted pattern has T > 0 (the
# 5-clique the fewest, 27); runs, walk and layer sizes were fixed once.
MEAN_GRAPH = util.connected_er_graph(15, 0.65, 1)
MEAN_RUNS = 1500


@pytest.mark.parametrize("name,p,seg", ACCEPTED, ids=IDS)
def test_estimator_mean_within_three_se(name, p, seg):
    t = exact_count(MEAN_GRAPH, p)
    assert t > 0
    ests = [
        estimate_count(
            MEAN_GRAPH,
            p,
            seg,
            EstimateConfig(
                layer_sizes=[30] * (p.size - 2),
                walk=WalkConfig(length=30, burn_in=20),
                seed=i,
            ),
        ).estimate
        for i in range(MEAN_RUNS)
    ]
    se = statistics.stdev(ests) / math.sqrt(MEAN_RUNS)
    assert abs(statistics.fmean(ests) - t) <= 3 * se, (t, statistics.fmean(ests), se)


def test_every_copy_is_assignable_under_every_feasible_order():
    """Under an order of slack at most 1, every relabelled copy of every level
    classifies to a parent: dropping the vertex that plays the order's last
    vertex always leaves the level below, so no copy is unreachable."""
    orders = copies = 0
    for _, h in CONNECTED:
        p = Pattern(h.number_of_nodes(), h.edges(), slack=1)
        for order in permutations(range(p.size)):
            need = _order_slack(p.bits, order)
            if need is None or need > 1:
                continue
            orders += 1
            seg = Segmentation(p, order)
            for k in range(3, p.size + 1):
                rows = seg.level(k).bits
                for perm in permutations(range(k)):
                    edges = [
                        (perm[i], perm[j])
                        for i in range(k)
                        for j in range(i)
                        if (rows[i] >> j) & 1
                    ]
                    copies += 1
                    assert classify(Graph(k, edges), tuple(range(k)), seg) is not None
    assert orders == 394
    assert copies > 0
