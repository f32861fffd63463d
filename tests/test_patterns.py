import io
from itertools import combinations, permutations
from random import Random

import networkx as nx
import pytest
from hypothesis import given, strategies as st

from crawlcount import (
    Pattern,
    Segmentation,
    auto_segment,
    builtin_names,
    builtin_pattern,
    parse_pattern,
    require_feasible,
)

import util


class TestPattern:
    def test_size_bounds(self):
        with pytest.raises(ValueError):
            Pattern(2, [(0, 1)])
        with pytest.raises(ValueError):
            Pattern(9, [(i, i + 1) for i in range(8)])

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError, match="connected"):
            Pattern(4, [(0, 1), (2, 3)])

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            Pattern(3, [(0, 0), (0, 1), (1, 2)])

    def test_edge_out_of_range_rejected(self):
        with pytest.raises(ValueError, match=r"pattern edge \(1, 3\) out of range"):
            Pattern(3, [(0, 1), (1, 3)])

    def test_negative_slack_rejected(self):
        with pytest.raises(ValueError):
            Pattern(3, [(0, 1), (1, 2), (0, 2)], slack=-1)

    def test_edges_canonicalized(self):
        p = Pattern(3, [(1, 0), (0, 2), (2, 1)])
        assert p.edges == frozenset({(0, 1), (0, 2), (1, 2)})


class TestBuiltins:
    def test_roster(self):
        assert builtin_names() == ("g33", "g45", "g46", "g510", "g59")

    @pytest.mark.parametrize(
        "name,size,edges,slack,missing,order",
        [
            pytest.param("g33", 3, 3, 0, (), (0, 1, 2), id="g33-3-3-0"),
            pytest.param("g45", 4, 5, 1, ((2, 3),), (0, 1, 2, 3), id="g45-4-5-1"),
            pytest.param("g46", 4, 6, 0, (), (0, 1, 2, 3), id="g46-4-6-0"),
            pytest.param("g59", 5, 9, 1, ((3, 4),), (0, 1, 2, 3, 4), id="g59-5-9-1"),
            pytest.param("g510", 5, 10, 0, (), (0, 1, 2, 3, 4), id="g510-5-10-0"),
        ],
    )
    def test_shapes(self, name, size, edges, slack, missing, order):
        p, seg = builtin_pattern(name)
        assert p.size == size
        assert len(p.edges) == edges
        assert p.slack == slack
        assert set(combinations(range(size), 2)) - p.edges == set(missing)
        assert seg.order == order
        require_feasible(p, seg)
        assert seg.min_slack == slack

    def test_unknown_name_lists_roster(self):
        with pytest.raises(ValueError, match="g33.*g45.*g46.*g510.*g59"):
            builtin_pattern("g99")


class TestSegmentation:
    def test_order_must_be_permutation(self):
        p, _ = builtin_pattern("g33")
        with pytest.raises(ValueError):
            Segmentation(p, (0, 1, 1))

    def test_levels_shrink_correctly(self):
        p, seg = builtin_pattern("g45")
        for i, edges in ((4, 5), (3, 3), (2, 1)):
            assert sum(row.bit_count() for row in util.level_bits(seg, i)) == 2 * edges
            assert seg.missing[i] == i * (i - 1) // 2 - edges

    def test_disconnected_level_named_in_report(self):
        # path 0-1-2-3 inserted as 0, 2: level 2 has no edge
        p = Pattern(4, [(0, 1), (1, 2), (2, 3)], slack=2)
        seg = Segmentation(p, (0, 2, 1, 3))
        assert seg.disconnected == (2,)
        assert seg.min_slack is None
        with pytest.raises(ValueError, match="disconnected"):
            require_feasible(Pattern(4, p.edges, slack=1), seg)

    def test_report_against_recomputed_slack(self):
        for name in builtin_names():
            p, _ = builtin_pattern(name)
            for order in permutations(range(p.size)):
                seg = Segmentation(p, order)
                ref = util.brute_min_slack(p.size, p.edges, order)
                assert seg.min_slack == ref
                assert bool(seg.disconnected) == (ref is None)

    def test_levels_against_recomputed_rows(self):
        """On every connected graph on 3-5 vertices and every order, the
        disconnected levels and missing pairs match the per-level rows,
        checked by an independent search."""
        for h in nx.graph_atlas_g():
            k = h.number_of_nodes()
            if not (3 <= k <= 5 and nx.is_connected(h)):
                continue
            p = Pattern(k, h.edges())
            for order in permutations(range(k)):
                seg = Segmentation(p, order)
                rows = {i: util.level_bits(seg, i) for i in range(2, k + 1)}
                assert seg.disconnected == tuple(
                    i for i, bits in rows.items() if not util.bits_connected(list(bits))
                )
                for i, bits in rows.items():
                    assert seg.missing[i] == i * (i - 1) // 2 - sum(b.bit_count() for b in bits) // 2

    def test_order_of_another_pattern_refused(self):
        g45, _ = builtin_pattern("g45")
        _, seg = builtin_pattern("g46")
        with pytest.raises(ValueError, match="different pattern"):
            require_feasible(g45, seg)


class TestAutoSegment:
    def test_diamond_needs_slack_one(self):
        p = Pattern(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)], slack=1)
        seg = auto_segment(p)
        assert seg.min_slack == 1

    def test_five_cycle_needs_slack_two(self):
        p = Pattern(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)], slack=2)
        seg = auto_segment(p)
        assert seg.min_slack == 2

    def test_two_triangles_sharing_a_vertex_needs_slack_two(self):
        p = Pattern(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)], slack=2)
        seg = auto_segment(p)
        assert seg.min_slack == 2

    def test_matches_exhaustive_minimum(self):
        cases = [
            Pattern(4, [(0, 1), (1, 2), (2, 3)], slack=3),
            Pattern(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)], slack=3),
            Pattern(4, [(0, 1), (0, 2), (0, 3)], slack=3),
            builtin_pattern("g59")[0],
        ]
        for p in cases:
            seg = auto_segment(p)
            got = seg.min_slack
            ref = min(
                (
                    s
                    for s in (
                        util.brute_min_slack(p.size, p.edges, order)
                        for order in permutations(range(p.size))
                    )
                    if s is not None
                ),
            )
            assert got == ref

    def test_lexicographic_tie_break(self):
        p, _ = builtin_pattern("g510")
        assert auto_segment(p).order == (0, 1, 2, 3, 4)

    def test_first_connected_order_has_least_slack(self):
        """On every connected graph on 3-5 vertices, under its atlas labels and
        a seeded relabelling, every connected order needs k-1 minus the
        minimum degree, and the automatic order is the lexicographically
        first connected one, all recomputed from scratch."""
        rng = Random(5)
        for h in nx.graph_atlas_g():
            k = h.number_of_nodes()
            if not (3 <= k <= 5 and nx.is_connected(h)):
                continue
            perm = rng.sample(range(k), k)
            for edges in (list(h.edges()), [(perm[a], perm[b]) for a, b in h.edges()]):
                p = Pattern(k, edges)
                want = k - 1 - min(d for _, d in h.degree())
                needs = {o: util.brute_min_slack(k, edges, o) for o in permutations(range(k))}
                assert {s for s in needs.values() if s is not None} == {want}
                seg = auto_segment(p)
                assert seg.order == next(o for o, s in needs.items() if s is not None)
                assert seg.min_slack == want
                for order, need in needs.items():
                    assert Segmentation(p, order).min_slack == need

    def test_k8_minus_a_path_needs_slack_two(self):
        # 0-1 and 1-2 are gone, so 1 waits until 3 is placed
        p = Pattern(8, [e for e in combinations(range(8), 2) if e not in {(0, 1), (1, 2)}])
        seg = auto_segment(p)
        assert seg.order == (0, 2, 3, 1, 4, 5, 6, 7)
        assert seg.min_slack == 2

    def test_clique_minus_matching_starts_with_an_edge(self):
        # 0 and 1 are apart, so the first order starting with an edge is 0, 2, 1, ...
        p = Pattern(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
        seg = auto_segment(p)
        assert seg.order == (0, 2, 1, 3, 4)
        assert seg.min_slack == 1
        assert seg.missing == (0, 0, 0, 1, 1, 1)


def all_graphs_on(k):
    pairs = list(combinations(range(k), 2))
    for mask in range(1 << len(pairs)):
        yield [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1]


def adjacency_bits(adj):
    return [sum(val << j for j, val in enumerate(row)) for row in adj]


def adjacency_matrix(k, edges):
    adj = [[0] * k for _ in range(k)]
    for a, b in edges:
        adj[a][b] = adj[b][a] = 1
    return adj


def degree_preserving_swap(edges, rng):
    """Replace edges a-b and c-d by a-d and c-b when both are absent, which
    keeps every degree; None when 50 draws find no such pair."""
    eset = {tuple(sorted(e)) for e in edges}
    for _ in range(50):
        if len(eset) < 2:
            return None
        (a, b), (c, d) = rng.sample(sorted(eset), 2)
        new = {tuple(sorted((a, d))), tuple(sorted((c, b)))}
        if len({a, b, c, d}) == 4 and not new & eset:
            return sorted(eset - {(a, b), (c, d)} | new)
    return None


class TestInducedIsomorphic:
    """The backtracking reference in ``util`` that classification is checked against."""

    def test_agrees_with_permutation_scan_on_4_vertex_graphs(self):
        p, _ = builtin_pattern("g45")
        target = [[1 if (a, b) in p.edges or (b, a) in p.edges else 0 for b in range(4)] for a in range(4)]
        for edges in all_graphs_on(4):
            adj = [[0] * 4 for _ in range(4)]
            for a, b in edges:
                adj[a][b] = adj[b][a] = 1
            got = util.bits_isomorphic(adjacency_bits(adj), p.bits)
            assert got == util.matrices_isomorphic(adj, target)

    def test_agrees_with_permutation_scan_on_5_vertex_graphs(self):
        """Every labelled graph on 5 vertices against each of the 34
        isomorphism classes there; classes with another degree sequence
        cannot match, so only those with the same one go through the scan."""
        classes = []
        for h in nx.graph_atlas_g():
            if h.number_of_nodes() == 5:
                tadj = adjacency_matrix(5, h.edges())
                classes.append((tadj, adjacency_bits(tadj), sorted(map(sum, tadj))))
        assert len(classes) == 34
        for edges in all_graphs_on(5):
            adj = adjacency_matrix(5, edges)
            bits = adjacency_bits(adj)
            degrees = sorted(map(sum, adj))
            matches = 0
            for tadj, tbits, tdegrees in classes:
                got = util.bits_isomorphic(bits, tbits)
                if tdegrees == degrees:
                    assert got == util.matrices_isomorphic(adj, tadj), (edges, tadj)
                else:
                    assert not got
                matches += got
            assert matches == 1, edges

    @pytest.mark.parametrize("k,trials", [(6, 40), (7, 20), (8, 6)])
    def test_agrees_with_permutation_scan_on_sampled_larger_graphs(self, k, trials):
        """Seeded graphs against a relabelled copy and a relabelled
        degree-preserving swap, where degrees alone cannot decide."""
        rng = Random(k)
        pairs = list(combinations(range(k), 2))
        for _ in range(trials):
            edges = [e for e in pairs if rng.random() < 0.5]
            tadj = adjacency_matrix(k, edges)
            perm = rng.sample(range(k), k)
            others = [edges, degree_preserving_swap(edges, rng)]
            for other in others:
                if other is None:
                    continue
                adj = adjacency_matrix(k, [(perm[a], perm[b]) for a, b in other])
                got = util.bits_isomorphic(adjacency_bits(adj), adjacency_bits(tadj))
                assert got == util.matrices_isomorphic(adj, tadj), (edges, other)

    @given(st.integers(0, 63), st.permutations(range(4)))
    def test_invariant_under_relabeling(self, mask, perm):
        pairs = list(combinations(range(4), 2))
        edges = [pairs[i] for i in range(6) if (mask >> i) & 1]
        adj = [[0] * 4 for _ in range(4)]
        for a, b in edges:
            adj[a][b] = adj[b][a] = 1
        shuffled = [[adj[perm[i]][perm[j]] for j in range(4)] for i in range(4)]
        p, _ = builtin_pattern("g45")
        assert util.bits_isomorphic(adjacency_bits(adj), p.bits) == util.bits_isomorphic(
            adjacency_bits(shuffled), p.bits
        )


class TestParsePattern:
    def test_with_explicit_order(self):
        text = "4 1\norder 0 1 2 3\n0 1\n0 2\n0 3\n1 2\n1 3\n"
        p, seg = parse_pattern(io.StringIO(text))
        assert p.size == 4
        assert p.slack == 1
        assert seg.order == (0, 1, 2, 3)

    def test_auto_order_when_absent(self):
        text = "3 0\n0 1\n1 2\n0 2\n"
        p, seg = parse_pattern(io.StringIO(text))
        assert seg.order == (0, 1, 2)

    def test_comments_and_blanks_skipped(self):
        text = "# triangle\n\n3 0\n0 1\n\n1 2\n0 2\n"
        p, _ = parse_pattern(io.StringIO(text))
        assert len(p.edges) == 3

    def test_strict_rejects_underdeclared_slack(self):
        # five-cycle declared with slack 0 cannot work
        text = "5 0\n0 1\n1 2\n2 3\n3 4\n0 4\n"
        with pytest.raises(ValueError, match="slack"):
            require_feasible(*parse_pattern(io.StringIO(text)))

    def test_lenient_mode_parses_anyway(self):
        # parsing never judges feasibility; require_feasible does
        text = "5 0\n0 1\n1 2\n2 3\n3 4\n0 4\n"
        p, seg = parse_pattern(io.StringIO(text))
        assert seg.min_slack == 2

    def test_bad_header(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_pattern(io.StringIO("three zero\n0 1\n"))
        with pytest.raises(ValueError, match="line 1"):
            parse_pattern(io.StringIO("3\n0 1\n1 2\n0 2\n"))

    def test_bad_edge_line(self):
        with pytest.raises(ValueError, match="bad edge line '0 1 2'"):
            parse_pattern(io.StringIO("3 0\n0 1 2\n1 2\n0 2\n"))

    @pytest.mark.parametrize("line", ["1 y", "x 2", "1.0 2", "7"])
    def test_edge_line_of_non_integers_is_named(self, line):
        with pytest.raises(ValueError, match=f"^bad edge line '{line}'$"):
            parse_pattern(io.StringIO(f"3 0\n0 1\n{line}\n0 2\n"))

    def test_order_line_of_non_integers_is_named(self):
        with pytest.raises(ValueError, match="^bad order line 'order 0 1 x'$"):
            parse_pattern(io.StringIO("3 0\norder 0 1 x\n0 1\n1 2\n0 2\n"))

    def test_empty_file(self):
        with pytest.raises(ValueError, match="empty"):
            parse_pattern(io.StringIO("# nothing\n"))

    def test_order_line_wrong_length(self):
        with pytest.raises(ValueError, match="order"):
            parse_pattern(io.StringIO("3 0\norder 0 1\n0 1\n1 2\n0 2\n"))
