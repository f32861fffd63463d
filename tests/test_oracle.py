import gc
import io
import tracemalloc
from math import comb

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from crawlcount import (
    EnumerationBudgetError,
    Graph,
    Pattern,
    builtin_names,
    count_profile,
    degeneracy,
    builtin_pattern,
    exact_count,
    parse_pattern,
)
from crawlcount.instances import representative_hood

import truth
import util

TRIANGLE_M = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]

# Every builtin, the 4-cycle in the order the loader picks, and every
# loader-accepted pattern on at most 5 vertices with its automatic order.
PATTERNS = [(name, *builtin_pattern(name)) for name in builtin_names()]
PATTERNS.append(("c4", *parse_pattern(io.StringIO("4 1\n0 1\n1 2\n2 3\n0 3\n"))))
PATTERNS += [t for t in util.accepted_patterns() if t[1].size <= 5]


def nx_of(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.vertex_count))
    h.add_edges_from(util.edges(g))
    return h


class TestEnumeration:
    def test_known_counts(self, k5, c5, bowtie):
        p33, _ = builtin_pattern("g33")
        p46, _ = builtin_pattern("g46")
        p510, _ = builtin_pattern("g510")
        assert exact_count(k5, p33) == comb(5, 3)
        assert exact_count(k5, p46) == comb(5, 4)
        assert exact_count(k5, p510) == 1
        assert exact_count(c5, p33) == 0
        assert exact_count(bowtie, p33) == 2

    def test_near_clique_counts(self, bowtie_plus, k5):
        p45, _ = builtin_pattern("g45")
        p59, _ = builtin_pattern("g59")
        # bowtie_plus diamonds: {0,1,2,3} and {0,2,3,4}
        assert exact_count(bowtie_plus, p45) == 2
        assert exact_count(k5, p45) == 0  # induced, so K5 has no diamonds
        assert exact_count(k5, p59) == 0

    def test_level_two_is_edge_set(self, corpus):
        p, seg = builtin_pattern("g33")
        for name, g in corpus:
            assert count_profile(g, p, seg).per_level_counts[2] == g.edge_count, name
            tables = util.reference_tally(g, p, seg, p.size)[1]
            assert set(tables[2]) <= set(util.edges(g)), name

    def test_sorted_and_unique(self, corpus):
        # a table's keys are unique; each must be a sorted tuple of distinct vertices
        p, seg = builtin_pattern("g33")
        for name, g in corpus:
            for lvl, table in util.reference_tally(g, p, seg, p.size)[1].items():
                assert all(v == tuple(sorted(set(v))) and len(v) == lvl for v in table), name

    def test_triangle_counts_match_networkx(self, corpus):
        p, seg = builtin_pattern("g33")
        for name, g in corpus:
            want = sum(nx.triangles(nx_of(g)).values()) // 3
            assert exact_count(g, p) == want, name

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000), st.integers(4, 11))
    def test_matches_naive_subset_scan(self, seed, n):
        g = util.er_graph(n, 0.4, seed)
        p, seg = builtin_pattern("g33")
        got = util.reference_tally(g, p, seg, p.size)[1][3]
        assert sorted(got) == util.naive_copies(g, TRIANGLE_M)
        assert set(got.values()) <= {1}
        assert count_profile(g, p, seg).total == len(got)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000))
    def test_matches_naive_subset_scan_diamonds(self, seed):
        g = util.er_graph(10, 0.45, seed)
        p, seg = builtin_pattern("g45")
        tgt = [[0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 0], [1, 1, 0, 0]]
        got = util.reference_tally(g, p, seg, p.size)[1][4]
        assert sorted(got) == util.naive_copies(g, tgt)
        assert set(got.values()) <= {1}
        assert count_profile(g, p, seg).total == len(got)

    @pytest.mark.parametrize("name,p,seg", PATTERNS, ids=[t[0] for t in PATTERNS])
    def test_every_level_matches_naive_subset_scan(self, name, p, seg):
        for seed in range(4):
            g = util.er_graph(9, 0.55, seed)
            prof = count_profile(g, p, seg)
            tables = util.reference_tally(g, p, seg, p.size)[1]
            for lvl in range(2, p.size + 1):
                want = util.naive_copies(g, util.level_matrix(seg, lvl))
                # below the top, a table keeps only copies that some full copy extends
                assert set(tables[lvl]) <= set(want), (seed, lvl)
                assert prof.per_level_counts[lvl] == len(want), (seed, lvl)
            assert sorted(tables[p.size]) == want, seed
            assert exact_count(g, p) == len(want), seed

    def test_underdeclared_slack_rejected(self, bowtie_plus):
        # g45's order needs slack 1; at slack 0 the expansion would undercount
        p, seg = builtin_pattern("g45")
        with pytest.raises(ValueError, match="slack"):
            count_profile(bowtie_plus, Pattern(4, p.edges, slack=0), seg)

    def test_budget_counts_extension_checks(self, k4):
        # 6 edges, each with seg-degree 3: 18 checks find the 4 triangles
        p, _ = builtin_pattern("g33")
        with pytest.raises(EnumerationBudgetError, match="budget"):
            exact_count(k4, p, budget=17)
        assert exact_count(k4, p, budget=18) == 4

    def test_budget_error(self):
        g = util.er_graph(30, 0.3, 1)
        p, _ = builtin_pattern("g510")
        with pytest.raises(EnumerationBudgetError, match="budget|nodes"):
            exact_count(g, p, budget=50)

    def test_big_sparse_graph_fits_measured_budget(self):
        # a dense-subset bound would refuse this outright; measured work passes
        g = util.pa_graph(2000, 3, seed=9)
        p, _ = builtin_pattern("g33")
        assert exact_count(g, p) > 0


class TestCountProfile:
    @pytest.mark.parametrize("name,p,seg", PATTERNS, ids=[t[0] for t in PATTERNS])
    def test_f_tables_match_assign_chain_walk(self, corpus, name, p, seg):
        # the reference's chain tables against the naive assignment walk,
        # and the tally's per-level maxima against those tables
        for gname, g in corpus[:14]:
            tables = util.chain_walk_tables(g, seg)
            assert util.reference_tally(g, p, seg, p.size)[1] == tables, gname
            want = {i: max(t.values(), default=0) for i, t in tables.items()}
            assert count_profile(g, p, seg).f_max_per_level == want, gname

    def test_chain_tallies_sum_to_total(self, corpus):
        for name, g in corpus[:12]:
            for pat in ("g33", "g45", "g46"):
                p, seg = builtin_pattern(pat)
                total = count_profile(g, p, seg).total
                for table in util.reference_tally(g, p, seg, p.size)[1].values():
                    assert sum(table.values()) == total

    def test_bowtie_profile(self, bowtie):
        p, seg = builtin_pattern("g33")
        prof = count_profile(bowtie, p, seg)
        assert prof.total == 2
        assert prof.per_level_counts == {2: 6, 3: 2}
        assert prof.f_max_per_level == {2: 1, 3: 1}
        assert prof.f_max == 1
        assert util.reference_tally(bowtie, p, seg, 3)[1][2] == {(1, 2): 1, (3, 4): 1}

    def test_k5_top_table_is_all_ones(self, k5):
        p, seg = builtin_pattern("g46")
        prof = count_profile(k5, p, seg)
        assert prof.total == 5
        assert prof.f_max_per_level[4] == 1
        tables = util.reference_tally(k5, p, seg, 4)[1]
        assert all(v == 1 for v in tables[4].values())
        assert sum(tables[2].values()) == 5

    def test_memory_stays_flat_without_copies(self):
        # K_{40,40}: 1600 edges, 64000 extension checks, no triangle.  K60:
        # 1770 edges and 34220 triangles.  The tally keeps no copy, only
        # per-level counts and maxima, so neither grows with the copies.
        k40_40 = Graph(80, [(a, 40 + b) for a in range(40) for b in range(40)])
        k60 = Graph(60, [(a, b) for a in range(60) for b in range(a + 1, 60)])
        p, seg = builtin_pattern("g33")
        for g, counts in ((k40_40, {2: 1600, 3: 0}), (k60, {2: 1770, 3: 34220})):
            # warm-up, so that the traced count sees only its own working set
            count_profile(g, p, seg)
            tracemalloc.start()
            try:
                prof = count_profile(g, p, seg)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert prof.per_level_counts == counts
            assert peak < 64 * 1024, (g.vertex_count, peak)

    def test_leaves_no_reference_cycle(self, bowtie_plus):
        # garbage in a cycle would keep the tally's closures alive until a collection
        p, seg = builtin_pattern("g45")
        gc.collect()
        gc.disable()
        try:
            assert count_profile(bowtie_plus, p, seg).total == 2
            assert exact_count(bowtie_plus, p) == 2
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_zero_copy_graph(self, c5):
        p, seg = builtin_pattern("g33")
        prof = count_profile(c5, p, seg)
        assert prof.total == 0
        assert prof.per_level_counts[2] == 5
        assert prof.f_max_per_level == {2: 0, 3: 0}
        assert prof.f_max == 0
        assert util.reference_tally(c5, p, seg, 3)[1][2] == {}


class TestDegeneracy:
    def test_known_values(self, k5, c5):
        assert degeneracy(util.tree7()) == 1
        assert degeneracy(k5) == 4
        assert degeneracy(c5) == 2
        assert degeneracy(util.bowtie()) == 2

    def test_matches_networkx_core_number(self, corpus):
        for name, g in corpus:
            want = max(nx.core_number(nx_of(g)).values()) if g.edge_count else 0
            assert degeneracy(g) == want, name

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.integers(3, 14))
    def test_random_graphs_match_networkx(self, seed, n):
        g = util.er_graph(n, 0.35, seed)
        if g.edge_count == 0:
            return
        assert degeneracy(g) == max(nx.core_number(nx_of(g)).values())

    def test_pa_graph_with_isolated_ids_matches_networkx(self):
        # every even id is isolated, so the peel starts on a full bin 0
        pa = util.pa_graph(400, 3, seed=5)
        g = Graph(2 * pa.vertex_count + 1, [(2 * u + 1, 2 * v + 1) for u, v in util.edges(pa)])
        assert degeneracy(g) == max(nx.core_number(nx_of(g)).values())


class TestArboricityBound:
    def test_triangle_example(self, triangle):
        p, seg = builtin_pattern("g33")
        res = truth.check_arboricity_bound(triangle, p, seg, level=2)
        # every edge weighs min-degree 2: lhs = 6; rhs = 2 m a = 2*3*2
        assert res.lhs == 6
        assert res.rhs == 12
        assert res.holds

    def test_level_below_slack_plus_one_rejected(self, bowtie_plus):
        p, seg = builtin_pattern("g45")
        with pytest.raises(ValueError):
            truth.check_arboricity_bound(bowtie_plus, p, seg, level=1)

    def test_holds_across_corpus_and_patterns(self, corpus):
        for name, g in corpus[:12]:
            for pat in ("g33", "g45", "g46"):
                p, seg = builtin_pattern(pat)
                for level in range(p.slack + 1, p.size + 1):
                    if level < 2:
                        continue
                    res = truth.check_arboricity_bound(g, p, seg, level=level)
                    assert res.holds, (name, pat, level)

    def test_lhs_matches_direct_weight_sum(self, bowtie):
        p, seg = builtin_pattern("g33")
        res = truth.check_arboricity_bound(bowtie, p, seg, level=3)
        adj, lookups = bowtie.raw_adjacency(), bowtie.raw_neighbor_lookups()
        copies = truth.copies(bowtie, p, seg, 3)
        assert res.lhs == sum(len(representative_hood(adj, lookups, v, 0)) for v in copies)
        # triangles {0,1,2} and {2,3,4} both have min member degree 2
        assert res.lhs == 4
