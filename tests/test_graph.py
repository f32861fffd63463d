import gc
import io
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from crawlcount import (
    EdgeListParseError,
    EstimateConfig,
    Graph,
    QueryLedger,
    WalkConfig,
    builtin_pattern,
    edges_observed_fraction,
    estimate_count,
    load_edge_list,
    neighbors,
)

import util


def edge_lists(max_n=12):
    return st.integers(2, max_n).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                min_size=1,
                max_size=40,
            ),
        )
    )


class TestGraphStore:
    def test_dedup_and_self_loop_drop(self):
        g = Graph(3, [(0, 1), (1, 0), (0, 1), (2, 2), (1, 2)])
        assert g.edge_count == 2
        assert g.raw_adjacency()[0] == (1,)
        assert g.raw_adjacency()[1] == (0, 2)

    def test_no_vertices_rejected(self):
        with pytest.raises(ValueError, match="vertex_count must be positive"):
            Graph(0, [])

    def test_out_of_range_vertex_rejected(self):
        with pytest.raises(ValueError):
            Graph(3, [(0, 3)])
        with pytest.raises(ValueError):
            Graph(3, [(-1, 0)])
        # a self-loop is dropped, but only once its ids are known to be in range
        for loop in ((7, 7), (3, 3), (-2, -2)):
            with pytest.raises(ValueError, match=r"out of range for n=3"):
                Graph(3, [(0, 1), loop])

    @given(edge_lists())
    def test_invariants_hold_for_any_input(self, spec):
        n, raw = spec
        g = Graph(n, raw)
        seen = set()
        for v in range(n):
            hood = g.raw_adjacency()[v]
            assert list(hood) == sorted(set(hood))
            assert v not in hood
            for w in hood:
                assert v in g.raw_adjacency()[w]
                seen.add((min(v, w), max(v, w)))
        assert sum(g.raw_degree(v) for v in range(n)) == 2 * g.edge_count
        assert len(seen) == g.edge_count

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(2, 700).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=60),
                st.lists(st.integers(0, n - 1), max_size=5),
            )
        )
    )
    @example((600, [(300, 400), (400, 500), (300, 500), (599, 300)], [400]))
    def test_matches_dict_of_sets_with_one_int_per_id(self, spec):
        n, pairs, loops = spec
        # Every edge in both directions and repeated, with self-loops in
        # between, each entry a fresh int object (ids above 256 are not
        # cached), as a parser would produce.
        fresh = lambda x: int(str(x))
        raw = [(fresh(u), fresh(v)) for u, v in pairs]
        raw += [(fresh(v), fresh(v)) for v in loops]
        raw += [(fresh(v), fresh(u)) for u, v in pairs]
        raw += [(fresh(u), fresh(v)) for u, v in pairs[::-1]]
        raw += [(fresh(v), fresh(v)) for v in loops]
        ref: dict[int, set[int]] = {v: set() for v in range(n)}
        for u, v in raw:
            if u != v:
                ref[u].add(v)
                ref[v].add(u)
        g = Graph(n, raw)
        for v in range(n):
            assert g.raw_adjacency()[v] == tuple(sorted(ref[v]))
            assert set(g.raw_neighbor_lookups()[v]) == ref[v]
        assert g.edge_count == sum(map(len, ref.values())) // 2
        assert util.edges(g) == sorted((u, v) for u in ref for v in ref[u] if u < v)
        # One int object per vertex id across every tuple and lookup, so
        # at most n; the graph holds them all, so their ids are distinct.
        entries = [w for v in range(n) for w in g.raw_adjacency()[v]]
        lookups = g.raw_neighbor_lookups()
        entries += [w for v in range(n) for w in lookups[v]]
        assert len({id(w) for w in entries}) == len(set(entries)) <= n
        # an out-of-range edge after the valid ones still stops the build
        with pytest.raises(ValueError, match="out of range"):
            Graph(n, raw + [(0, n)])

    def test_lookups_are_untracked_and_small(self):
        # PA(20000, 5): about 100k edges
        edges = util.edges(util.pa_graph(20000, 5, seed=7))
        tracemalloc.start()
        try:
            g = Graph(20000, edges)
            loaded = tracemalloc.get_traced_memory()[0]
            lookups = g.raw_neighbor_lookups()
            for v in range(20000):
                lookups[v]
            read = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert g.edge_count == len(edges) > 99_000
        for v, nbrs in enumerate(g.raw_adjacency()):
            assert not gc.is_tracked(lookups[v])
            assert tuple(lookups[v]) == nbrs
        # the tuples alone hold about 32 bytes per edge here, and about 135
        # with every lookup built
        assert loaded / g.edge_count < 40, loaded / g.edge_count
        assert read / g.edge_count < 160, read / g.edge_count

    def test_load_leaves_the_adjacency_untracked(self):
        # The collector untracks a tuple of ints when a collection finds it.
        # The load frees no tracked object per tuple it makes, so gen-0
        # collections run as it goes and only the last few hundred tuples
        # are left for the next collection; replacing each list by its tuple
        # would leave all 20000 tracked, for a full collection to walk.
        edges = util.edges(util.pa_graph(20000, 5, seed=7))
        g = Graph(20000, edges)
        tracked = sum(map(gc.is_tracked, g.raw_adjacency()))
        assert tracked < 1000, tracked


class TestLoader:
    def test_basic_parse(self):
        text = "# n=5\n0 1\n\n0 2\n1 2\n2 3\n2 4\n3 4\n"
        g = load_edge_list(io.StringIO(text))
        assert g.vertex_count == 5
        assert g.edge_count == 6

    def test_header_allows_isolated_vertices(self):
        g = load_edge_list(io.StringIO("# n=3\n0 1\n"))
        assert g.vertex_count == 3
        assert g.raw_degree(2) == 0

    def test_no_header_sizes_from_max_id(self):
        g = load_edge_list(io.StringIO("0 1\n1 4\n"))
        assert g.vertex_count == 5

    def test_malformed_line_reports_line_number(self):
        with pytest.raises(EdgeListParseError, match="line 3"):
            load_edge_list(io.StringIO("0 1\n1 2\n2 x\n"))

    def test_three_tokens_rejected(self):
        with pytest.raises(EdgeListParseError, match="line 1"):
            load_edge_list(io.StringIO("0 1 2\n"))

    def test_id_beyond_machine_range_rejected(self):
        with pytest.raises(EdgeListParseError, match="line 2: vertex id too large"):
            load_edge_list(io.StringIO("0 1\n1 9223372036854775808\n"))

    def test_negative_id_rejected(self):
        with pytest.raises(EdgeListParseError):
            load_edge_list(io.StringIO("0 -1\n"))

    def test_id_beyond_declared_n_rejected(self):
        with pytest.raises(EdgeListParseError):
            load_edge_list(io.StringIO("# n=2\n0 2\n"))

    def test_edgeless_input_rejected(self):
        with pytest.raises(EdgeListParseError):
            load_edge_list(io.StringIO("# n=4\n"))
        with pytest.raises(EdgeListParseError, match="edge list declares no vertices"):
            load_edge_list(io.StringIO(""))

    def test_sparse_id_space_refused_before_allocating(self):
        # one edge claims 10**8 ids, which a Graph would need tens of GB for
        tracemalloc.start()
        try:
            with pytest.raises(EdgeListParseError, match="renumber"):
                load_edge_list(io.StringIO("0 100000000\n"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak

    @pytest.mark.parametrize("text", ["0 1048576\n", "# n=1048577\n0 1\n"])
    def test_id_space_floor_is_two_to_the_twenty(self, text):
        # n = 2**20 + 1 with 2 endpoints: past the floor, by max id or by header
        with pytest.raises(EdgeListParseError, match="vertex count 1048577"):
            load_edge_list(io.StringIO(text))

    def test_comment_lines_skipped(self):
        g = load_edge_list(io.StringIO("# n=3\n# a note\n0 1\n# more\n1 2\n"))
        assert g.edge_count == 2

    def test_roundtrip_through_file(self, tmp_path):
        from crawlcount import load_edge_list_path

        p = tmp_path / "g.txt"
        p.write_text("# n=4\n0 1\n1 2\n2 3\n")
        g = load_edge_list_path(p)
        assert g.edge_count == 3


class TestLedger:
    def test_counts_repeat_queries(self):
        g = util.triangle()
        led = QueryLedger()
        neighbors(g, led, 0)
        neighbors(g, led, 0)
        neighbors(g, led, 1)
        assert led.oracle_calls == 3
        assert led.queried_vertices == {0, 1}

    def test_observed_edges_accumulate(self):
        g = util.bowtie()
        led = QueryLedger()
        neighbors(g, led, 2)
        assert edges_observed_fraction(led, g) == 4 / 6  # 0-2, 1-2, 2-3, 2-4
        neighbors(g, led, 0)
        assert edges_observed_fraction(led, g) == 5 / 6  # plus 0-1

    def test_observed_fraction(self):
        g = util.bowtie()
        led = QueryLedger()
        assert edges_observed_fraction(led, g) == 0.0
        for v in range(5):
            neighbors(g, led, v)
        assert edges_observed_fraction(led, g) == 1.0

    def test_out_of_range_query_rejected(self):
        g = util.triangle()
        led = QueryLedger()
        with pytest.raises(ValueError):
            neighbors(g, led, 5)

    @given(st.lists(st.integers(0, 4), min_size=1, max_size=30))
    def test_monotone_accounting(self, queries):
        g = util.bowtie()
        led = QueryLedger()
        prev_calls = 0
        prev_seen = 0.0
        for v in queries:
            neighbors(g, led, v)
            assert led.oracle_calls == prev_calls + 1
            seen = edges_observed_fraction(led, g)
            assert seen == util.brute_observed_edges(g, led.queried_vertices) / g.edge_count
            assert seen >= prev_seen
            prev_calls = led.oracle_calls
            prev_seen = seen
        assert len(led.queried_vertices) <= led.oracle_calls

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 20), st.integers(0, 10_000))
    def test_estimate_run_observed_fraction_matches_brute_force(self, corpus, pick, seed):
        # A whole run, so the walk, the weights and the one-call charges of
        # the extension trials all feed the ledger.
        name, g = corpus[pick]
        p, seg = builtin_pattern("g45")
        cfg = EstimateConfig(
            layer_sizes=[30, 30], walk=WalkConfig(length=20, burn_in=5), seed=seed
        )
        led = estimate_count(g, p, seg, cfg).ledger
        assert len(led.queried_vertices) <= led.oracle_calls
        assert edges_observed_fraction(led, g) == (
            util.brute_observed_edges(g, led.queried_vertices) / g.edge_count
        )
