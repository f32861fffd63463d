from collections import Counter
from fractions import Fraction
from random import Random

import pytest

from crawlcount import (
    CollisionShortfallError,
    EdgeCountEstimate,
    Graph,
    QueryLedger,
    WalkConfig,
    default_burn_in,
    estimate_edge_count,
    simple_random_walk,
)
from crawlcount.walk import _pick_start

import util


@pytest.fixture(scope="module")
def pa20k():
    """m = 59991: the six rounds' 64 samples rarely collide."""
    return util.pa_graph(20000, 3, 1)


class TestConfig:
    def test_length_positive(self):
        with pytest.raises(ValueError):
            WalkConfig(length=0)

    def test_burn_in_nonnegative(self):
        with pytest.raises(ValueError):
            WalkConfig(length=5, burn_in=-1)

    def test_default_burn_in(self):
        assert default_burn_in(1) == 0
        assert default_burn_in(2) == 10
        assert default_burn_in(1024) == 100


class TestWalk:
    def test_deterministic_for_fixed_seed(self, k4):
        a = simple_random_walk(k4, QueryLedger(), WalkConfig(length=50), 7)
        b = simple_random_walk(k4, QueryLedger(), WalkConfig(length=50), 7)
        c = simple_random_walk(k4, QueryLedger(), WalkConfig(length=50), 8)
        assert a == b
        assert a != c

    def test_edges_are_canonical_and_real(self, bowtie):
        walk = simple_random_walk(bowtie, QueryLedger(), WalkConfig(length=200), 1)
        assert len(walk) == 200
        for a, b in walk:
            assert a < b
            assert b in bowtie.raw_neighbor_lookups()[a]

    def test_consecutive_edges_share_a_vertex(self, bowtie):
        walk = simple_random_walk(bowtie, QueryLedger(), WalkConfig(length=300), 3)
        for e, f in zip(walk, walk[1:]):
            assert set(e) & set(f)

    def test_oracle_cost_is_exactly_burn_plus_length(self, bowtie):
        led = QueryLedger()
        simple_random_walk(bowtie, led, WalkConfig(length=40, burn_in=17), 2)
        assert led.oracle_calls == 17 + 40

    def test_default_burn_in_applies(self, bowtie):
        led = QueryLedger()
        simple_random_walk(bowtie, led, WalkConfig(length=10), 2)
        assert led.oracle_calls == default_burn_in(5) + 10

    def test_isolated_start_is_resampled(self):
        g = Graph(4, [(1, 2), (2, 3), (1, 3)])  # vertex 0 isolated
        for seed in range(20):
            walk = simple_random_walk(g, QueryLedger(), WalkConfig(length=30), seed)
            assert all(0 not in e for e in walk)

    def test_edgeless_graph_rejected(self):
        g = Graph(3, [])
        with pytest.raises(ValueError, match="no edges"):
            simple_random_walk(g, QueryLedger(), WalkConfig(length=1), 0)

    @pytest.mark.parametrize(
        "edge,unmixed",
        [((0, 1), Fraction(9, 8)), ((1, 2), Fraction(3, 4)), ((2, 3), Fraction(9, 8))],
    )
    def test_edge_law_is_uniform_on_a_bipartite_graph(self, edge, unmixed):
        # The path 0-1-2-3 is bipartite, so the walk is periodic, and not
        # regular, so a uniform start is not stationary.  Each edge is still
        # taken with probability 1/m once the start has mixed: the walk
        # needs no lazy steps.  At burn-in 0 the unmixed start shows.
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        mixed = util.exact_walk_expectation(g, {edge: 1}, burn_in=40, length=1)
        assert abs(mixed - 1) < 1e-12
        assert util.exact_walk_expectation(g, {edge: 1}, burn_in=0, length=1) == unmixed

    def test_long_walk_visits_k4_edges_near_uniformly(self, k4):
        # stationary edge frequency on a regular graph is exactly 1/m
        walk = simple_random_walk(
            k4, QueryLedger(), WalkConfig(length=20_000, burn_in=50), 11
        )
        freq = Counter(walk)
        assert set(freq) == set(util.edges(k4))
        for e, cnt in freq.items():
            assert abs(cnt / 20_000 - 1 / 6) < 0.02


class TestEdgeCount:
    def test_validation(self, k4):
        with pytest.raises(ValueError):
            estimate_edge_count(k4, QueryLedger(), samples=1, spacing=5, seed=0)
        with pytest.raises(ValueError):
            estimate_edge_count(k4, QueryLedger(), samples=10, spacing=0, seed=0)

    def test_negative_burn_in_rejected(self, k4):
        led = QueryLedger()
        with pytest.raises(ValueError, match="burn_in must be nonnegative"):
            estimate_edge_count(k4, led, samples=10, spacing=2, seed=0, burn_in=-3)
        assert led == QueryLedger()

    def test_deterministic(self, k4):
        a = estimate_edge_count(k4, QueryLedger(), samples=50, spacing=3, seed=5)
        b = estimate_edge_count(k4, QueryLedger(), samples=50, spacing=3, seed=5)
        assert a == b

    def test_k4_usually_lands_within_ten_percent(self, k4):
        # calibrated: with s=600, gap=10 the miss rate is far below 5 of 200
        hits = 0
        for seed in range(200):
            est = estimate_edge_count(
                k4, QueryLedger(), samples=600, spacing=10, seed=seed
            )
            if 5.4 <= est.edge_estimate <= 6.6:
                hits += 1
        assert hits >= 190

    def test_doubling_kicks_in_when_sparse_samples_miss(self):
        # large cycle, tiny first batch: zero collisions are the norm
        n = 400
        g = Graph(n, [(i, (i + 1) % n) for i in range(n)])
        est = estimate_edge_count(g, QueryLedger(), samples=4, spacing=2, seed=1)
        assert est.attempts > 1
        assert est.samples_used > 4

    def test_shortfall_raises_after_cap(self, pa20k):
        with pytest.raises(CollisionShortfallError, match="no collisions after 6 rounds"):
            estimate_edge_count(pa20k, QueryLedger(), samples=2, spacing=30, seed=3)

    def test_single_edge_graph_is_exact(self):
        g = Graph(2, [(0, 1)])
        est = estimate_edge_count(g, QueryLedger(), samples=10, spacing=2, seed=0)
        assert est.edge_estimate == 1.0


def with_isolated_vertices() -> Graph:
    """A 4-cycle and a triangle among ids 0..19; the other 13 ids are isolated."""
    return Graph(20, [(3, 7), (7, 11), (11, 15), (3, 15), (16, 17), (17, 18), (16, 18)])


def graphs(corpus):
    return corpus + [
        ("isolated", with_isolated_vertices()),
        ("pa300", util.pa_graph(300, 3, 5)),
    ]


def assert_same_ledger(got: QueryLedger, ref: QueryLedger) -> None:
    assert got.oracle_calls == ref.oracle_calls
    assert got.queried_vertices == ref.queried_vertices


def assert_walk_matches(g: Graph, cfg: WalkConfig, seed: int) -> None:
    led, ref = QueryLedger(), QueryLedger()
    assert simple_random_walk(g, led, cfg, seed) == util.reference_walk(g, ref, cfg, seed)
    assert_same_ledger(led, ref)


def assert_edge_count_matches(g: Graph, *args, **kwargs) -> EdgeCountEstimate | None:
    """The same estimate or the same shortfall as the reference, and the same ledger."""
    led, ref = QueryLedger(), QueryLedger()
    try:
        want = util.reference_edge_count(g, ref, *args, **kwargs)
    except CollisionShortfallError:
        with pytest.raises(CollisionShortfallError, match="no collisions"):
            estimate_edge_count(g, led, *args, **kwargs)
        want = None
    else:
        assert estimate_edge_count(g, led, *args, **kwargs) == want
    assert_same_ledger(led, ref)
    return want


class TestStart:
    def test_draws_match_unbounded_loop_when_it_ends_sooner(self):
        g = with_isolated_vertices()
        for seed in range(300):
            rng, ref = Random(seed), Random(seed)
            assert _pick_start(g, rng) == util.reference_start(g, ref)
            assert rng.getstate() == ref.getstate()

    def test_redraws_are_bounded(self):
        class CountingRandom(Random):
            draws = 0

            def randrange(self, *args):
                self.draws += 1
                return super().randrange(*args)

        g = Graph(20_000, [(0, 1), (1, 2)])
        fell_back = 0
        for seed in range(40):
            rng = CountingRandom(seed)
            assert _pick_start(g, rng) in (0, 1, 2)
            assert rng.draws <= 33
            fell_back += rng.draws == 33
        assert fell_back > 30

    def test_fallback_keeps_the_start_uniform(self):
        # 10 of 1000 ids have neighbors, so about 72% of picks fall back.
        g = Graph(1000, [(i, (i + 1) % 10) for i in range(10)])
        freq = Counter(_pick_start(g, Random(seed)) for seed in range(3000))
        assert set(freq) == set(range(10))
        assert all(218 <= c <= 382 for c in freq.values())  # 300 +- 5 sd


class TestLedgerEquivalence:
    """Bulk-charged walks against the per-step references in util."""

    def test_walk_matches_per_step_reference(self, corpus):
        for _, g in graphs(corpus):
            for seed in range(20):
                burn_in = None if seed == 0 else seed % 7
                assert_walk_matches(
                    g, WalkConfig(length=1 + 3 * seed, burn_in=burn_in), seed
                )

    def test_edge_count_matches(self, corpus):
        for _, g in graphs(corpus):
            for seed in range(8):
                for samples, spacing in ((2, 1), (5, 3), (40, 2)):
                    assert_edge_count_matches(g, samples, spacing, seed, burn_in=seed)

    def test_doubling_rounds_match(self):
        n = 400
        g = Graph(n, [(i, (i + 1) % n) for i in range(n)])
        rounds = [
            assert_edge_count_matches(g, 4, 2, seed=seed).attempts
            for seed in range(10)
        ]
        assert max(rounds) > 1

    def test_shortfall_leaves_the_same_ledger(self, pa20k):
        outcomes = [assert_edge_count_matches(pa20k, 2, 10, seed=seed) for seed in range(12)]
        assert outcomes.count(None) >= 10


def test_inline_draw_is_randrange():
    """The walks and the extension trials spell ``randrange(n)`` inline as a
    ``getrandbits`` rejection loop; on this interpreter the two draw alike."""
    for seed in range(3):
        rng, ref = Random(seed), Random(seed)
        for n in range(1, 3001):
            x = rng.getrandbits(n.bit_length())
            while x >= n:
                x = rng.getrandbits(n.bit_length())
            assert x == ref.randrange(n), (seed, n)
        assert rng.getstate() == ref.getstate()
