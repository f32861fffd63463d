import copy
import math
from fractions import Fraction
from random import Random

import pytest

from crawlcount import (
    DegenerateLayerError,
    EstimateConfig,
    Graph,
    LayerState,
    QueryLedger,
    WalkConfig,
    builtin_pattern,
    count_profile,
    default_burn_in,
    estimate_count,
    final_level_successes,
    initial_layer,
    recommend_sample_sizes,
    scaling_constant,
    simple_random_walk,
)
from crawlcount.estimator import _extend
from crawlcount.instances import UNCOVERED

import truth
import util


class TestLayerState:
    def test_build_prefix_sums(self):
        members = [(0, 1), (1, 2), (0, 2)]
        hoods = [(2,), (0, 3, 4), (1, 3)]
        layer = LayerState(2, members, hoods, 3, [0, 1, 0], [UNCOVERED] * 3, False)
        assert [len(h) for h in layer.hoods] == [1, 3, 2]
        assert layer.total_degree == 6
        assert layer.prefix_weights == [1, 4, 6]
        assert len(layer) == 3

    def test_empty_layer_is_degenerate(self):
        layer = LayerState(3, [], [], 10, [], [], False)
        assert layer.total_degree == 0
        _, seg = builtin_pattern("g46")
        with pytest.raises(DegenerateLayerError):
            final_level_successes(util.k5(), QueryLedger(), layer, 10, Random(0))
        with pytest.raises(DegenerateLayerError):
            util.reference_extend(util.k5(), QueryLedger(), layer, seg, 10, Random(0))

    def test_weighted_sample_distribution(self):
        # In K5 every draw from (3, 4) is its child and the one from (0, 1)
        # is not ((0, 1, 2) belongs to (1, 2)), so successes count the draws
        # of the weight-3 member.
        layer = hand_layer(util.k5(), "g33", [(0, 1), (3, 4)], [(2,), (0, 1, 2)])
        hits = assert_extend_matches_reference(util.k5(), layer, "g33", 20_000, 42)
        assert abs(len(hits) / 20_000 - 0.75) < 0.02

    def test_zero_weight_member_never_drawn(self):
        # In K7 every vertex below 5 grows (5, 6) into its child; a draw
        # from the empty neighborhood could not even pick a vertex.
        k7 = Graph(7, [(i, j) for i in range(7) for j in range(i + 1, 7)])
        layer = hand_layer(k7, "g33", [(0, 1), (5, 6)], [(), (0, 1, 2, 3, 4)])
        assert len(assert_extend_matches_reference(k7, layer, "g33", 200, 7)) == 200


def hand_layer(g, pat, members, hoods):
    """A level-2 layer of ``members`` with the given hoods, each member's rule
    read from the member itself by ``util.brute_parent_rule``."""
    _, seg = builtin_pattern(pat)
    rules = [util.brute_parent_rule(g, m, seg) for m in members]
    thresholds, covered, grows = zip(*rules)
    return LayerState(2, members, hoods, len(members), thresholds, covered, grows[0])


def assert_extend_matches_reference(g, layer, pat, trials, seed):
    """Run ``_extend`` and the plain reference loop from one state; both must
    accept the same tuples, charge equal ledgers and leave the rng alike, and
    each accepted tuple must come with the set its missing pairs cover."""
    _, seg = builtin_pattern(pat)
    led, ref_led = QueryLedger(), QueryLedger()
    for verts in dict.fromkeys(layer.members):
        util.metered_hood(g, led, verts, 0)
        util.metered_hood(g, ref_led, verts, 0)
    rng, ref_rng = Random(seed), Random(seed)
    got, covered = _extend(g, led, layer, trials, rng)
    want = util.reference_extend(g, ref_led, layer, seg, trials, ref_rng)
    assert got == want
    assert covered == [util.brute_covered(g, c) for c in got]
    assert led == ref_led
    assert rng.getstate() == ref_rng.getstate()
    return got


class TestScalingConstant:
    def test_level_three_worked_example(self):
        # m=6 edges, walk of 3, realized level-2 weight 4
        assert scaling_constant(3, 6, 3, [], [4]) == Fraction(8)

    def test_level_four_worked_example(self):
        # (6/3) * (4/2) * 5
        assert scaling_constant(4, 6, 3, [2], [4, 5]) == Fraction(20)

    def test_recursion_identity_is_exact(self):
        sizes = [17, 23, 31]
        degrees = [101, 57, 43, 29]
        for level in (4, 5, 6):
            full = scaling_constant(
                level, 311, 97, sizes[: level - 3], degrees[: level - 2]
            )
            prev = scaling_constant(
                level - 1, 311, 97, sizes[: level - 4], degrees[: level - 3]
            )
            assert full == prev * Fraction(degrees[level - 3], sizes[level - 4])

    def test_fractional_edge_total_allowed(self):
        c = scaling_constant(3, 5.5, 2, [], [3])
        assert c == Fraction(5.5) / 2 * 3

    def test_validation(self):
        with pytest.raises(ValueError):
            scaling_constant(2, 6, 3, [], [])
        with pytest.raises(ValueError):
            scaling_constant(3, 6, 0, [], [4])
        with pytest.raises(ValueError):
            scaling_constant(3, 0, 3, [], [4])
        with pytest.raises(ValueError, match="sizes"):
            scaling_constant(3, 6, 3, [2], [4])
        with pytest.raises(ValueError, match="degrees"):
            scaling_constant(4, 6, 3, [2], [4])
        with pytest.raises(ValueError, match="zero"):
            scaling_constant(3, 6, 3, [], [0])
        with pytest.raises(ValueError, match="layer sizes must be positive"):
            scaling_constant(4, 6, 3, [0], [4, 5])


class TestConfigValidation:
    def test_bad_mode(self):
        with pytest.raises(ValueError):
            EstimateConfig(layer_sizes=[5], walk=WalkConfig(length=5), edge_count_mode="guess")

    def test_bad_layer_size(self):
        with pytest.raises(ValueError):
            EstimateConfig(layer_sizes=[0], walk=WalkConfig(length=5))

    def test_wrong_layer_count(self, bowtie):
        p, seg = builtin_pattern("g33")
        cfg = EstimateConfig(layer_sizes=[5, 5], walk=WalkConfig(length=5))
        with pytest.raises(ValueError, match="layer sizes"):
            estimate_count(bowtie, p, seg, cfg)

    def test_high_slack_rejected(self, c5):
        from crawlcount import Pattern, auto_segment

        p = Pattern(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)], slack=2)
        seg = auto_segment(p)
        cfg = EstimateConfig(layer_sizes=[9, 9, 9], walk=WalkConfig(length=5))
        with pytest.raises(ValueError, match="slack"):
            estimate_count(c5, p, seg, cfg)

    def test_infeasible_segmentation_rejected(self, bowtie):
        from crawlcount import Pattern, Segmentation

        p = Pattern(4, [(0, 1), (1, 2), (2, 3)], slack=1)
        seg = Segmentation(p, (0, 2, 1, 3))  # level 2 disconnected
        cfg = EstimateConfig(layer_sizes=[5, 5], walk=WalkConfig(length=5))
        with pytest.raises(ValueError, match="disconnected"):
            estimate_count(bowtie, p, seg, cfg)


class TestInitialLayer:
    def test_wraps_walk_edges_in_order(self, bowtie):
        led = QueryLedger()
        edges = simple_random_walk(bowtie, led, WalkConfig(length=12), 3)
        layer = initial_layer(bowtie, led, edges, 0, builtin_pattern("g33")[1])
        assert layer.members == edges
        assert layer.trials == 12
        assert layer.level == 2

    def test_bowtie_weights_all_two(self, bowtie):
        # every bowtie edge has an endpoint of degree 2
        led = QueryLedger()
        edges = simple_random_walk(bowtie, led, WalkConfig(length=30), 5)
        layer = initial_layer(bowtie, led, edges, 0, builtin_pattern("g33")[1])
        assert [len(h) for h in layer.hoods] == [2] * 30
        assert layer.total_degree == 60

    def test_repeat_edges_share_weight(self, k4):
        led = QueryLedger()
        layer = initial_layer(k4, led, [(0, 1), (0, 1), (2, 3)], 0, builtin_pattern("g46")[1])
        assert [len(h) for h in layer.hoods] == [3, 3, 3]
        assert layer.hoods[0] is layer.hoods[1]
        assert led.oracle_calls == 4  # two distinct edges, two vertices each


def accepted_extension_count(g, verts, seg, slack):
    led = QueryLedger()
    hood = util.metered_hood(g, led, verts, slack)
    hits = 0
    for u in hood:
        if util.metered_check(g, led, verts, u, seg) is not None:
            hits += 1
    return hits


class TestUnbiasednessStructure:
    """Deterministic identities that make the estimator unbiased.

    For every copy g at level i, the number of accepted (g, u) extension
    pairs equals the number of level-(i+1) copies assigned to g.  Summed
    over a layer, expected successes come out to exactly the chain count.
    """

    @pytest.mark.parametrize(
        "graph_name,pat",
        [
            ("bowtie", "g33"),
            ("bowtie_plus", "g45"),
            ("k5", "g46"),
            ("k5", "g33"),
        ],
    )
    def test_accepted_pairs_match_assignment_fibers(self, graph_name, pat, request):
        g = request.getfixturevalue(graph_name)
        p, seg = builtin_pattern(pat)

        for level in range(2, p.size):
            children = {}
            for child in util.naive_copies(g, util.level_matrix(seg, level + 1)):
                par = util.naive_assign(g, child, seg)
                children[par] = children.get(par, 0) + 1
            for verts in truth.copies(g, p, seg, level):
                want = children.get(verts, 0)
                got = accepted_extension_count(g, verts, seg, p.slack)
                assert got == want, (graph_name, pat, level, verts)

    def test_walk_layer_expectation_tracks_exact_chain_count(self, bowtie):
        """E[(m / r) * f2(walk)] equals T up to mixing error, computed in
        exact rational arithmetic over transition-matrix powers."""
        p, seg = builtin_pattern("g33")
        f2 = util.reference_tally(bowtie, p, seg, p.size)[1][2]
        exact = util.exact_walk_expectation(bowtie, f2, burn_in=40, length=30)
        assert abs(float(exact) - count_profile(bowtie, p, seg).total) < 1e-12

    @pytest.mark.parametrize(
        "graph,burn_in,length",
        [
            # vertex 5 has no edge: the walk never starts there
            (Graph(6, util.edges(util.bowtie())), 40, 30),
            (util.connected_er_graph(18, 0.8, 1), 30, 10),
        ],
        ids=["bowtie-isolated", "er18"],
    )
    def test_walk_layer_expectation_from_a_non_isolated_start(self, graph, burn_in, length):
        p, seg = builtin_pattern("g33")
        f2 = util.reference_tally(graph, p, seg, p.size)[1][2]
        exact = util.exact_walk_expectation(graph, f2, burn_in=burn_in, length=length)
        assert abs(float(exact) - count_profile(graph, p, seg).total) < 1e-12

    def test_walk_layer_expectation_on_richer_graph(self):
        g = util.bowtie_plus()
        p, seg = builtin_pattern("g45")
        f2 = util.reference_tally(g, p, seg, p.size)[1][2]
        exact = util.exact_walk_expectation(g, f2, burn_in=60, length=25)
        assert abs(float(exact) - count_profile(g, p, seg).total) < 1e-10

    def test_slow_mixing_start_biases_the_expectation(self):
        """K20 with a 200-vertex path hung off vertex 0: the default burn-in
        leaves most walks on the path, and the mean estimate at walk 100 is
        far below T.  Walk 1000 gives 369.58 but takes about a minute in
        rationals."""
        k20 = [(i, j) for i in range(20) for j in range(i + 1, 20)]
        g = Graph(220, k20 + [(0, 20)] + [(v, v + 1) for v in range(20, 219)])
        p, seg = builtin_pattern("g33")
        total = count_profile(g, p, seg).total
        assert (g.edge_count, total, default_burn_in(220)) == (390, 1140, 78)
        f2 = util.reference_tally(g, p, seg, p.size)[1][2]
        exact = util.exact_walk_expectation(g, f2, burn_in=78, length=100)
        assert abs(float(exact) - 289.19222138747625) < 1e-9
        assert exact < total / 3


class TestBuildLayers:
    """The layers one run builds, as ``EstimateResult.layers`` holds them."""

    def cfg(self, sizes, length=40, seed=0):
        return EstimateConfig(
            layer_sizes=sizes, walk=WalkConfig(length=length, burn_in=30), seed=seed
        )

    def test_triangle_pattern_has_single_stored_layer(self, bowtie):
        p, seg = builtin_pattern("g33")
        res = estimate_count(bowtie, p, seg, self.cfg([50]))
        assert [ls.level for ls in res.layers] == [2]
        assert 0 <= res.successes <= 50
        assert not res.warnings

    def test_explicit_walk_seed_reproduces_walk(self, bowtie):
        p, seg = builtin_pattern("g33")
        cfg = self.cfg([50], seed=11)
        walk_seed = Random(cfg.seed).getrandbits(63)  # the first draw of the run's root
        edges = simple_random_walk(bowtie, QueryLedger(), cfg.walk, walk_seed)
        assert estimate_count(bowtie, p, seg, cfg).layers[0].members == edges

    def test_deterministic_in_master_seed(self, k5):
        p, seg = builtin_pattern("g46")
        a = estimate_count(k5, p, seg, self.cfg([30, 30], seed=5))
        b = estimate_count(k5, p, seg, self.cfg([30, 30], seed=5))
        c = estimate_count(k5, p, seg, self.cfg([30, 30], seed=6))
        assert a.successes == b.successes
        assert a.layers[1].members == b.layers[1].members
        assert a.successes != c.successes or a.layers[1].members != c.layers[1].members

    def test_middle_layers_store_only_accepted_copies(self, k5):
        p, seg = builtin_pattern("g46")
        lvl3 = estimate_count(k5, p, seg, self.cfg([40, 40], seed=2)).layers[1]
        assert lvl3.trials == 40
        assert len(lvl3) <= 40
        tri = set(truth.copies(k5, p, seg, 3))
        assert all(m in tri for m in lvl3.members)

    def test_degenerate_layer_warns_and_zeroes(self):
        star = util.star4()
        p, seg = builtin_pattern("g46")
        res = estimate_count(star, p, seg, self.cfg([25, 25]))
        assert res.successes == 0
        assert any("degenerate" in w for w in res.warnings)

    def test_final_successes_reproducible(self, bowtie):
        p, seg = builtin_pattern("g33")
        led = QueryLedger()
        edges = simple_random_walk(bowtie, led, WalkConfig(length=40, burn_in=30), 9)
        layer = initial_layer(bowtie, led, edges, p.slack, seg)
        a = final_level_successes(bowtie, led, layer, 200, Random(4))
        b = final_level_successes(bowtie, led, layer, 200, Random(4))
        assert a == b


class TestOneFetchPerMember:
    """A run fetches each distinct member's neighborhood once, its trial loops
    draw, accept and charge exactly as the plain reference loop does, and its
    ledger is the walk, the fetches and the charged trials, nothing else."""

    @pytest.mark.parametrize(
        "pat,sizes",
        [("g33", [200]), ("g46", [150, 200]), ("g59", [150, 150, 200])],
    )
    def test_each_member_fetched_once_and_ledger_adds_up(self, pat, sizes, monkeypatch):
        import crawlcount.estimator as est

        g = util.connected_er_graph(40, 0.5, 3)
        p, seg = builtin_pattern(pat)
        fetched, trial_calls = [], []
        fetch, extend = est.representative_hood, est._extend

        def counting_fetch(adj, lookups, verts, slack):
            fetched.append(verts)
            return fetch(adj, lookups, verts, slack)

        def compared_extend(g, ledger, layer, trials, rng):
            ref_ledger = copy.deepcopy(ledger)
            ref_rng = copy.deepcopy(rng)
            before = ledger.oracle_calls
            got = extend(g, ledger, layer, trials, rng)
            want = util.reference_extend(g, ref_ledger, layer, seg, trials, ref_rng)
            assert got[0] == want
            assert got[1] == [util.brute_covered(g, c) for c in want]
            assert ledger == ref_ledger
            assert rng.getstate() == ref_rng.getstate()
            trial_calls.append((trials, ledger.oracle_calls - before))
            return got

        monkeypatch.setattr(est, "representative_hood", counting_fetch)
        monkeypatch.setattr(est, "_extend", compared_extend)
        cfg = EstimateConfig(
            layer_sizes=sizes, walk=WalkConfig(length=60, burn_in=20), seed=4
        )
        res = estimate_count(g, p, seg, cfg)
        assert not res.warnings and len(res.layers) == p.size - 2
        assert len(res.layers[-1]) > 0

        distinct = [set(ls.members) for ls in res.layers]
        assert len(fetched) == len(set(fetched))
        assert set(fetched) == set().union(*distinct)
        assert [trials for trials, _ in trial_calls] == sizes
        want = (
            20 + 60
            + sum(ls.level * len(d) for ls, d in zip(res.layers, distinct))
            + sum(calls for _, calls in trial_calls)
        )
        assert res.ledger.oracle_calls == want


class TestBulkLayerCharge:
    """A layer's one bulk charge equals its members' metered fetches, one by one."""

    @pytest.mark.parametrize("pat", ["g33", "g46", "g59", "g510"])
    def test_build_charges_like_per_member_fetches(self, pat):
        g = util.hk_graph(120, 4, 0.7, 2)
        p, seg = builtin_pattern(pat)
        for level in range(2, p.size):
            copies = truth.copies(g, p, seg, level)[:40]
            members = copies + copies[::3]  # repeats are fetched and charged once
            led = QueryLedger({-1}, 5)
            covered = None if level == 2 else [util.brute_covered(g, m) for m in members]
            layer = LayerState.build(g, led, level, members, covered, len(members), p.slack, seg)
            ref = QueryLedger({-1}, 5)
            want = {}
            for m in members:
                if m not in want:
                    want[m] = util.metered_hood(g, ref, m, p.slack)
            assert led == ref, (pat, level)
            assert layer.hoods == [want[m] for m in members]
            rules = [(t, c, layer.grows) for t, c in zip(layer.thresholds, layer.covered)]
            assert rules == [util.brute_parent_rule(g, m, seg) for m in members], (pat, level)


class TestLazyLookups:
    """A run builds the neighbor lookups of the vertices it charged, and no others."""

    @pytest.mark.parametrize("mode", ["exact-m", "estimated-m"])
    @pytest.mark.parametrize("pat", ["g33", "g59"])
    def test_built_only_for_queried_vertices(self, pat, mode):
        g = util.hk_graph(600, 4, 0.7, 2)
        lookups = g.raw_neighbor_lookups()
        assert len(lookups) == 0
        p, seg = builtin_pattern(pat)
        cfg = EstimateConfig(
            layer_sizes=[200] * (p.size - 2),
            walk=WalkConfig(length=60),
            edge_count_mode=mode,
            seed=4,
        )
        res = estimate_count(g, p, seg, cfg)
        built = set(lookups)
        assert built and built <= res.ledger.queried_vertices
        assert len(built) < g.vertex_count
        adj = g.raw_adjacency()
        for v in built:
            assert lookups[v] is lookups[v]
            # the lookup's keys are the adjacency tuple's own int objects
            assert all(a is b for a, b in zip(lookups[v], adj[v], strict=True))

    def test_count_profile_keys_each_lookup_by_the_tuples_int(self):
        # ids up to 599, so most lie beyond the interpreter's cached small ints
        g = Graph(610, util.edges(util.hk_graph(600, 4, 0.7, 2)))
        count_profile(g, *builtin_pattern("g33"))
        lookups = g.raw_neighbor_lookups()
        adj = g.raw_adjacency()
        assert len(lookups) == g.vertex_count
        for v in lookups:
            if adj[v]:
                theirs = adj[adj[v][0]]
                assert v is theirs[theirs.index(v)]
            else:
                assert v >= 600 and lookups[v] == {}


class TestEstimateCount:
    def cfg(self, sizes, length=40, seed=0, **kw):
        return EstimateConfig(
            layer_sizes=sizes, walk=WalkConfig(length=length, burn_in=30), seed=seed, **kw
        )

    def test_estimate_is_successes_times_scaling_over_trials(self, bowtie):
        p, seg = builtin_pattern("g33")
        res = estimate_count(bowtie, p, seg, self.cfg([80]))
        assert res.scaling is not None
        assert math.isclose(
            res.estimate, res.successes * res.scaling / 80
        )
        assert res.edge_total_used == 6.0

    def test_layer_diagnostics_cover_all_levels(self, k5):
        p, seg = builtin_pattern("g46")
        res = estimate_count(k5, p, seg, self.cfg([30, 30]))
        assert [d.level for d in res.per_layer] == [2, 3, 4]
        assert res.per_layer[0].trials == 40
        assert res.per_layer[-1].trials == 30
        assert res.oracle_calls == res.ledger.oracle_calls
        assert 0 < res.edges_observed <= 1

    def test_per_layer_agrees_with_layers(self):
        p, seg = builtin_pattern("g46")
        # one healthy run, and one that stops at an empty layer
        for g, sizes, degenerate in ((util.k5(), [30, 30], False), (util.star4(), [25, 25], True)):
            cfg = self.cfg(sizes)
            res = estimate_count(g, p, seg, cfg)
            assert bool(res.warnings) == degenerate
            assert len(res.per_layer) == len(res.layers) + 1
            for d, ls in zip(res.per_layer, res.layers):
                assert (d.level, d.size, d.total_degree, d.trials) == (
                    ls.level, len(ls), ls.total_degree, ls.trials
                )
            assert res.per_layer[0].trials == cfg.walk.length
            assert res.per_layer[-1].trials == cfg.layer_sizes[-1]

    def test_zero_copy_graph_estimates_zero(self, c5):
        p, seg = builtin_pattern("g33")
        res = estimate_count(c5, p, seg, self.cfg([60]))
        assert res.estimate == 0.0
        assert res.successes == 0
        assert res.scaling is not None  # layer was healthy, count is just zero
        assert not res.warnings

    def test_degenerate_reports_zero_with_warning(self):
        star = util.star4()
        p, seg = builtin_pattern("g46")
        res = estimate_count(star, p, seg, self.cfg([25, 25]))
        assert res.estimate == 0.0
        assert res.scaling is None
        assert res.warnings

    def test_estimated_m_mode(self, k4):
        p, seg = builtin_pattern("g33")
        cfg = self.cfg([60], seed=3, edge_count_mode="estimated-m")
        res = estimate_count(k4, p, seg, cfg)
        assert 5.0 <= res.edge_total_used <= 7.2
        again = estimate_count(k4, p, seg, cfg)
        assert res.estimate == again.estimate

    def test_determinism_across_runs(self, bowtie):
        p, seg = builtin_pattern("g33")
        a = estimate_count(bowtie, p, seg, self.cfg([80], seed=12))
        b = estimate_count(bowtie, p, seg, self.cfg([80], seed=12))
        assert a.estimate == b.estimate
        assert a.successes == b.successes
        assert a.oracle_calls == b.oracle_calls


class TestRecommendations:
    def test_validation(self):
        with pytest.raises(ValueError):
            recommend_sample_sizes(100, 300, 3, 0, 4, eps=0.0, t_guess=10, fmax_guess=1)
        with pytest.raises(ValueError):
            recommend_sample_sizes(100, 300, 3, 0, 4, eps=1.0, t_guess=10, fmax_guess=1)
        with pytest.raises(ValueError):
            recommend_sample_sizes(100, 300, 3, 0, 4, eps=0.5, t_guess=0, fmax_guess=1)
        with pytest.raises(ValueError):
            recommend_sample_sizes(100, 300, 0, 0, 4, eps=0.5, t_guess=10, fmax_guess=1)
        with pytest.raises(ValueError, match="at least 2 vertices"):
            recommend_sample_sizes(1, 300, 3, 0, 4, eps=0.5, t_guess=10, fmax_guess=1)
        with pytest.raises(ValueError, match="pattern size must be at least 3"):
            recommend_sample_sizes(100, 300, 3, 0, 2, eps=0.5, t_guess=10, fmax_guess=1)
        with pytest.raises(ValueError, match="slack must be nonnegative"):
            recommend_sample_sizes(100, 300, 3, -1, 4, eps=0.5, t_guess=10, fmax_guess=1)

    @pytest.mark.parametrize(
        "t_guess, fmax_guess, what",
        [
            (math.inf, 1, "t_guess must be finite"),
            (math.nan, 1, "t_guess must be finite"),
            (10, math.inf, "fmax_guess must be finite"),
            (10, math.nan, "fmax_guess must be finite"),
            (1e-320, 1, "size l_3 is not finite"),
        ],
    )
    def test_sizes_are_finite_or_refused(self, t_guess, fmax_guess, what):
        with pytest.raises(ValueError, match=what):
            recommend_sample_sizes(100, 300, 3, 0, 3, eps=0.5, t_guess=t_guess, fmax_guess=fmax_guess)

    def test_layers_cover_3_to_k(self):
        rec = recommend_sample_sizes(1000, 5000, 4, 0, 5, eps=0.4, t_guess=100, fmax_guess=2)
        assert sorted(rec) == [3, 4, 5]

    def test_bigger_count_guess_means_smaller_samples(self):
        lo = recommend_sample_sizes(1000, 5000, 4, 0, 4, eps=0.4, t_guess=10, fmax_guess=2)
        hi = recommend_sample_sizes(1000, 5000, 4, 0, 4, eps=0.4, t_guess=1000, fmax_guess=2)
        assert all(hi[i] <= lo[i] for i in (3, 4))

    def test_density_exponent_grows_per_level(self):
        a1 = recommend_sample_sizes(10**6, 10**7, 5, 0, 6, eps=0.3, t_guess=1e3, fmax_guess=1)
        a2 = recommend_sample_sizes(10**6, 10**7, 10, 0, 6, eps=0.3, t_guess=1e3, fmax_guess=1)
        for i in (3, 4, 5):
            ratio = a2[i] / a1[i]
            assert math.isclose(ratio, 2 ** (i - 1), rel_tol=1e-3), i

    def test_final_layer_ignores_fmax(self):
        a = recommend_sample_sizes(1000, 5000, 4, 0, 4, eps=0.4, t_guess=10, fmax_guess=1)
        b = recommend_sample_sizes(1000, 5000, 4, 0, 4, eps=0.4, t_guess=10, fmax_guess=8)
        assert a[4] == b[4]
        assert b[3] > a[3]

    @pytest.mark.parametrize(
        "c, k, want",
        [
            (0, 3, {3: 16568432}),
            (0, 8, {3: 76300448, 4: 508669649, 5: 3391130988, 6: 22607539915,
                    7: 150716932763, 8: 218185107428}),
            (1, 3, {3: 8284215798}),
            (1, 8, {3: 38150223606, 4: 508669648074, 5: 6782261974312,
                    6: 90430159657488, 7: 1205735462099838, 8: 3490961718833514}),
        ],
    )
    def test_pinned_sizes(self, c, k, want):
        # the middle and final bounds, to the last unit of the rounded size
        assert recommend_sample_sizes(
            1000, 5000, 4, c, k, eps=0.4, t_guess=100, fmax_guess=2
        ) == want


class TestNiceness:
    def test_zero_copy_graph_is_trivially_nice(self, c5):
        p, seg = builtin_pattern("g33")
        cfg = EstimateConfig(layer_sizes=[30], walk=WalkConfig(length=25, burn_in=25), seed=1)
        layers = estimate_count(c5, p, seg, cfg).layers
        report = truth.niceness_report(c5, p, seg, layers, eps=0.5)
        assert len(report) == 1
        assert report[0].level == 2
        assert report[0].nice

    def test_bowtie_walk_layer_usually_nice(self, bowtie):
        p, seg = builtin_pattern("g33")
        nice = 0
        runs = 300
        for seed in range(runs):
            cfg = EstimateConfig(
                layer_sizes=[10], walk=WalkConfig(length=40, burn_in=30), seed=seed
            )
            layers = estimate_count(bowtie, p, seg, cfg).layers
            rep = truth.niceness_report(bowtie, p, seg, layers, eps=0.5)
            if all(r.nice for r in rep):
                nice += 1
        assert nice >= 0.9 * runs

    def test_eps_validation(self, bowtie):
        p, seg = builtin_pattern("g33")
        cfg = EstimateConfig(layer_sizes=[10], walk=WalkConfig(length=10, burn_in=10), seed=0)
        layers = estimate_count(bowtie, p, seg, cfg).layers
        with pytest.raises(ValueError):
            truth.niceness_report(bowtie, p, seg, layers, eps=1.5)

    def test_range_bounds_use_realized_factor(self, k5):
        p, seg = builtin_pattern("g46")
        cfg = EstimateConfig(
            layer_sizes=[40, 40], walk=WalkConfig(length=30, burn_in=30), seed=2
        )
        layers = estimate_count(k5, p, seg, cfg).layers
        rep = truth.niceness_report(k5, p, seg, layers, eps=0.5)
        assert [r.level for r in rep] == [2, 3]
        lvl2 = rep[0]
        want = (1 - 0.5) ** 2 * (30 / 10) * count_profile(k5, p, seg).total
        assert math.isclose(lvl2.range_low, want)
