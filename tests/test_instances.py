import io
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from crawlcount import (
    Graph,
    LayerState,
    QueryLedger,
    Segmentation,
    builtin_names,
    builtin_pattern,
    enumerate_instances,
    parse_pattern,
    representative,
)
from crawlcount.instances import representative_hood

import util


def rep(g, verts, slack):
    return representative(g.raw_adjacency(), g.raw_neighbor_lookups(), verts, slack)


def hood(g, verts, slack):
    return representative_hood(g.raw_adjacency(), g.raw_neighbor_lookups(), verts, slack)


class TestRepresentative:
    def test_slack_zero_is_first_min_degree(self, bowtie):
        # degrees: 0,1,3,4 have 2; 2 has 4
        assert rep(bowtie, (0, 1, 2), 0) == (0,)
        assert rep(bowtie, (2, 3, 4), 0) == (3,)

    def test_edge_instance_on_triangle(self, triangle):
        assert rep(triangle, (0, 1), 0) == (0,)

    def test_slack_one_pair_with_smallest_union(self, bowtie_plus):
        verts = (0, 1, 2, 3)
        assert rep(bowtie_plus, verts, 1) == util.brute_representative(bowtie_plus, verts, 1)

    def test_too_small_for_slack(self, triangle):
        with pytest.raises(ValueError):
            rep(triangle, (0, 1), 2)

    def test_charges_one_query_per_member(self, bowtie):
        # the representative is read unmetered; the layer that fetches it
        # charges one query per member vertex, as many as neighbors calls
        led = QueryLedger()
        LayerState.build(bowtie, led, 3, [(0, 1, 2)], 1, 0)
        assert led.oracle_calls == 3

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000), st.integers(0, 1))
    def test_matches_brute_force_on_random_graphs(self, seed, slack):
        g = util.er_graph(12, 0.4, seed)
        rng_sets = [vs for vs in util.naive_copies(g, [[0, 1, 1], [1, 0, 1], [1, 1, 0]])]
        for verts in rng_sets[:8]:
            assert rep(g, verts, slack) == util.brute_representative(g, verts, slack)


class TestSegNeighborhood:
    def test_triangle_edge(self, triangle):
        assert hood(triangle, (0, 1), 0) == (1, 2)

    def test_members_not_excluded(self, bowtie):
        assert hood(bowtie, (0, 1, 2), 0) == (1, 2)  # neighbors of 0, own members included

    def test_slack_one_union(self, bowtie_plus):
        verts = (0, 1, 2, 3)
        want = set()
        for v in util.brute_representative(bowtie_plus, verts, 1):
            want |= set(bowtie_plus.raw_neighbor_lookups()[v])
        assert hood(bowtie_plus, verts, 1) == tuple(sorted(want))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000))
    def test_slack_zero_degree_is_min_member_degree(self, seed):
        g = util.er_graph(10, 0.45, seed)
        tri = util.naive_copies(g, [[0, 1, 1], [1, 0, 1], [1, 1, 0]])
        for verts in tri[:6]:
            assert len(hood(g, verts, 0)) == min(g.raw_degree(v) for v in verts)


class TestAssign:
    """The assignment rule, read as a classifier by ``util.classify_by_rule``:
    the index it returns is the vertex whose removal maps a copy to its parent."""

    def test_bowtie_triangle_drops_smallest(self, bowtie):
        p, seg = builtin_pattern("g33")
        assert util.classify_by_rule(bowtie, (0, 1, 2), seg) == 0  # parent (1, 2)
        assert util.classify_by_rule(bowtie, (2, 3, 4), seg) == 0  # parent (3, 4)

    def test_diamond_removal_must_keep_a_triangle(self, bowtie_plus):
        # {0,1,2,3}: dropping 0 leaves path 1-2-3, so 1 goes instead
        p, seg = builtin_pattern("g45")
        assert util.classify_by_rule(bowtie_plus, (0, 1, 2, 3), seg) == 1

    def test_parent_is_always_a_copy_of_previous_level(self, corpus):
        for name, g in corpus[:8]:
            for pat in ("g33", "g45"):
                p, seg = builtin_pattern(pat)
                for verts in enumerate_instances(g, p, seg, p.size):
                    idx = util.classify_by_rule(g, verts, seg)
                    parent = verts[:idx] + verts[idx + 1 :]
                    assert parent == util.naive_assign(g, verts, seg)
                    mat = util.naive_matrix(g, parent)
                    tgt = util.level_matrix(seg, p.size - 1)
                    assert util.matrices_isomorphic(mat, tgt)


class TestCheckExtension:
    def test_accepts_assigned_child(self, bowtie):
        _, seg = builtin_pattern("g33")
        led = QueryLedger()
        assert util.metered_check(bowtie, led, (1, 2), 0, seg) == (0, 1, 2)

    def test_rejects_child_assigned_elsewhere(self, bowtie):
        # {2,3,4} assigns to {3,4}, so the parent {2,3} must refuse u=4
        _, seg = builtin_pattern("g33")
        led = QueryLedger()
        assert util.metered_check(bowtie, led, (2, 3), 4, seg) is None
        assert util.metered_check(bowtie, led, (3, 4), 2, seg) == (2, 3, 4)

    def test_rejects_member_landing(self, bowtie):
        _, seg = builtin_pattern("g33")
        led = QueryLedger()
        assert util.metered_check(bowtie, led, (1, 2), 1, seg) is None

    def test_rejects_wrong_shape(self, c5):
        _, seg = builtin_pattern("g33")
        led = QueryLedger()
        assert util.metered_check(c5, led, (0, 1), 2, seg) is None

    def test_each_copy_accepted_from_exactly_one_parent(self, corpus):
        """Partition property behind unbiasedness: for every level-i copy h,
        exactly one (parent, u) pair passes the extension check, and that
        parent is the naive reference's assignment of h."""
        for name, g in corpus[:8]:
            p, seg = builtin_pattern("g33")
            copies = util.naive_copies(g, util.level_matrix(seg, 3))
            parents = enumerate_instances(g, p, seg, 2)
            scratch = QueryLedger()
            assigned = {verts: util.naive_assign(g, verts, seg) for verts in copies}
            for child, par in assigned.items():
                for parent in parents:
                    for u in child:
                        if u in parent:
                            continue
                        if tuple(sorted(parent + (u,))) != child:
                            continue
                        got = util.metered_check(g, scratch, parent, u, seg)
                        if parent == par:
                            assert got == child
                        else:
                            assert got is None


class TestClassify:
    @pytest.mark.parametrize("name", [*builtin_names(), "c4"])
    def test_every_word_matches_backtracking(self, name):
        if name == "c4":
            _, seg = parse_pattern(io.StringIO("4 1\n0 1\n1 2\n2 3\n0 3\n"))
        else:
            _, seg = builtin_pattern(name)
        for k in range(3, seg.pattern.size + 1):
            pairs = list(combinations(range(k), 2))
            for mask in range(1 << len(pairs)):
                edges = [e for i, e in enumerate(pairs) if (mask >> i) & 1]
                bits = [0] * k
                for a, b in edges:
                    bits[a] |= 1 << b
                    bits[b] |= 1 << a
                g = Graph(k, edges)
                assert util.classify_by_rule(g, tuple(range(k)), seg) == util.reference_class(bits, seg, k)

    def test_orders_classify_the_same_tuple_apart(self):
        # g45 misses edge 2-3: order 0,1,2,3 has a triangle at level 3,
        # order 2,0,3,1 a path, so the same triangle must part ways.
        p, seg_a = builtin_pattern("g45")
        seg_b = Segmentation(p, (2, 0, 3, 1))
        tri = Graph(3, [(0, 1), (0, 2), (1, 2)])
        assert util.classify_by_rule(tri, (0, 1, 2), seg_a) == 0
        assert util.classify_by_rule(tri, (0, 1, 2), seg_b) is None


class TestHotPathLedger:
    def test_full_size_parent_is_rejected_by_level(self, k4):
        _, seg = builtin_pattern("g33")
        with pytest.raises(ValueError, match="level 3 has no next level"):
            util.metered_check(k4, QueryLedger(), (0, 1, 2), 3, seg)
