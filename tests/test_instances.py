import pytest
from hypothesis import given, settings, strategies as st

from crawlcount import (
    Instance,
    QueryLedger,
    UnassignableInstanceError,
    assign,
    builtin_pattern,
    check_extension,
    enumerate_instances,
    representative,
    seg_degree,
    seg_neighborhood,
)

import util


class TestInstance:
    def test_requires_strict_increase(self):
        with pytest.raises(ValueError):
            Instance((1, 1, 2))
        with pytest.raises(ValueError):
            Instance((2, 1))

    def test_level_is_size(self):
        assert Instance((0, 4, 7)).level == 3


class TestRepresentative:
    def test_slack_zero_is_first_min_degree(self, bowtie):
        led = QueryLedger()
        # degrees: 0,1,3,4 have 2; 2 has 4
        assert representative(bowtie, led, Instance((0, 1, 2)), 0) == (0,)
        assert representative(bowtie, led, Instance((2, 3, 4)), 0) == (3,)

    def test_edge_instance_on_triangle(self, triangle):
        led = QueryLedger()
        assert representative(triangle, led, Instance((0, 1)), 0) == (0,)

    def test_slack_one_pair_with_smallest_union(self, bowtie_plus):
        led = QueryLedger()
        inst = Instance((0, 1, 2, 3))
        rep = representative(bowtie_plus, led, inst, 1)
        assert rep == util.brute_representative(bowtie_plus, inst.vertices, 1)

    def test_too_small_for_slack(self, triangle):
        led = QueryLedger()
        with pytest.raises(ValueError):
            representative(triangle, led, Instance((0, 1)), 2)

    def test_charges_one_query_per_member(self, bowtie):
        led = QueryLedger()
        representative(bowtie, led, Instance((0, 1, 2)), 0)
        assert led.oracle_calls == 3

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000), st.integers(0, 1))
    def test_matches_brute_force_on_random_graphs(self, seed, slack):
        g = util.er_graph(12, 0.4, seed)
        rng_sets = [vs for vs in util.naive_copies(g, [[0, 1, 1], [1, 0, 1], [1, 1, 0]])]
        led = QueryLedger()
        for verts in rng_sets[:8]:
            inst = Instance(verts)
            assert representative(g, led, inst, slack) == util.brute_representative(
                g, verts, slack
            )


class TestSegNeighborhood:
    def test_triangle_edge(self, triangle):
        led = QueryLedger()
        assert seg_neighborhood(triangle, led, Instance((0, 1)), 0) == (1, 2)

    def test_members_not_excluded(self, bowtie):
        led = QueryLedger()
        hood = seg_neighborhood(bowtie, led, Instance((0, 1, 2)), 0)
        assert hood == (1, 2)  # neighbors of 0, own members included

    def test_slack_one_union(self, bowtie_plus):
        led = QueryLedger()
        inst = Instance((0, 1, 2, 3))
        hood = seg_neighborhood(bowtie_plus, led, inst, 1)
        rep = util.brute_representative(bowtie_plus, inst.vertices, 1)
        want = set()
        for v in rep:
            want |= set(bowtie_plus.raw_neighbors(v))
        assert hood == tuple(sorted(want))

    def test_degree_equals_len_of_neighborhood(self, bowtie):
        for verts in [(0, 1), (0, 1, 2), (2, 3, 4)]:
            led = QueryLedger()
            inst = Instance(verts)
            assert seg_degree(bowtie, led, inst, 0) == len(
                seg_neighborhood(bowtie, QueryLedger(), inst, 0)
            )

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000))
    def test_slack_zero_degree_is_min_member_degree(self, seed):
        g = util.er_graph(10, 0.45, seed)
        tri = util.naive_copies(g, [[0, 1, 1], [1, 0, 1], [1, 1, 0]])
        for verts in tri[:6]:
            led = QueryLedger()
            assert seg_degree(g, led, Instance(verts), 0) == min(
                g.raw_degree(v) for v in verts
            )


class TestAssign:
    def test_bowtie_triangle_drops_smallest(self, bowtie):
        p, seg = builtin_pattern("g33")
        led = QueryLedger()
        assert assign(bowtie, led, Instance((0, 1, 2)), seg).vertices == (1, 2)
        assert assign(bowtie, led, Instance((2, 3, 4)), seg).vertices == (3, 4)

    def test_diamond_removal_must_keep_a_triangle(self, bowtie_plus):
        # {0,1,2,3}: dropping 0 leaves path 1-2-3, so 1 goes instead
        p, seg = builtin_pattern("g45")
        led = QueryLedger()
        got = assign(bowtie_plus, led, Instance((0, 1, 2, 3)), seg)
        assert got.vertices == (0, 2, 3)

    def test_level_too_small(self, triangle):
        _, seg = builtin_pattern("g33")
        led = QueryLedger()
        with pytest.raises(ValueError):
            assign(triangle, led, Instance((0, 1)), seg)

    def test_non_copy_raises(self, c5):
        _, seg = builtin_pattern("g33")
        led = QueryLedger()
        with pytest.raises(UnassignableInstanceError):
            assign(c5, led, Instance((0, 1, 2)), seg)  # path, not triangle

    def test_parent_is_always_a_copy_of_previous_level(self, corpus):
        for name, g in corpus[:8]:
            for pat in ("g33", "g45"):
                p, seg = builtin_pattern(pat)
                for inst in enumerate_instances(g, p, seg, p.size):
                    led = QueryLedger()
                    parent = assign(g, led, inst, seg)
                    assert set(parent.vertices) < set(inst.vertices)
                    mat = util.naive_matrix(g, parent.vertices)
                    lg = seg.level(p.size - 1)
                    tgt = [
                        [(lg.bits[i] >> j) & 1 for j in range(lg.size)]
                        for i in range(lg.size)
                    ]
                    assert util.matrices_isomorphic(mat, tgt)


class TestCheckExtension:
    def test_accepts_assigned_child(self, bowtie):
        _, seg = builtin_pattern("g33")
        led = QueryLedger()
        got = check_extension(bowtie, led, Instance((1, 2)), 0, seg)
        assert got is not None and got.vertices == (0, 1, 2)

    def test_rejects_child_assigned_elsewhere(self, bowtie):
        # {2,3,4} assigns to {3,4}, so the parent {2,3} must refuse u=4
        _, seg = builtin_pattern("g33")
        led = QueryLedger()
        assert check_extension(bowtie, led, Instance((2, 3)), 4, seg) is None
        got = check_extension(bowtie, led, Instance((3, 4)), 2, seg)
        assert got is not None and got.vertices == (2, 3, 4)

    def test_rejects_member_landing(self, bowtie):
        _, seg = builtin_pattern("g33")
        led = QueryLedger()
        assert check_extension(bowtie, led, Instance((1, 2)), 1, seg) is None

    def test_rejects_wrong_shape(self, c5):
        _, seg = builtin_pattern("g33")
        led = QueryLedger()
        assert check_extension(c5, led, Instance((0, 1)), 2, seg) is None

    def test_each_copy_accepted_from_exactly_one_parent(self, corpus):
        """Partition property behind unbiasedness: for every level-i copy h,
        exactly one (parent, u) pair passes the extension check, and that
        parent is assign(h)."""
        for name, g in corpus[:8]:
            p, seg = builtin_pattern("g33")
            copies = enumerate_instances(g, p, seg, 3)
            parents = enumerate_instances(g, p, seg, 2)
            scratch = QueryLedger()
            assigned = {
                inst.vertices: assign(g, scratch, inst, seg).vertices
                for inst in copies
            }
            for child, par in assigned.items():
                for parent in parents:
                    for u in child:
                        if u in parent.vertices:
                            continue
                        if tuple(sorted(parent.vertices + (u,))) != child:
                            continue
                        got = check_extension(g, scratch, parent, u, seg)
                        if parent.vertices == par:
                            assert got is not None and got.vertices == child
                        else:
                            assert got is None
