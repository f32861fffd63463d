import gc
import io
import re
import tracemalloc
from random import Random

import pytest
from hypothesis import assume, example, given, settings, strategies as st

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
    load_edge_list_path,
    neighbors,
)
from crawlcount import graph

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


# Lines the bulk parser must leave to the line-by-line parse, one way or
# another.  Both parses accept the first group: blanks, comments and headers,
# tabs, a carriage return, leading zeros, signs, underscores and a self-loop.
# Each of the second group stops both: negative and 64-bit-overflowing ids,
# other than two tokens, a non-ASCII digit and a NUL.
ODD_LINES = [
    "", "   ", "# a note", "# n=5", "#n = 9", "3\t4", "\t2 5 ", "1 2\r",
    "007 3", "3 00", "0 0", "+5 1", "1_0 2", "0 -0",
]
BAD_LINES = [
    "-1 2", "9223372036854775808 1", "1 9223372036854775807", "18446744073709551616 2",
    "1 2 3", "4", "x 1", "1 2 # tail", "\u0663 1", "0\x001 2",
]


@st.composite
def edge_list_sources(draw):
    """A fresh-source factory for one edge-list text, as a file or as arbitrary string pieces."""
    n = draw(st.integers(2, 14))
    plain = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).map("{0[0]} {0[1]}".format)
    odd = st.sampled_from(ODD_LINES)
    lines = draw(st.lists(st.one_of(plain, plain, plain, plain, plain, odd), max_size=30))
    if draw(st.booleans()):
        # one line that stops the parse, or a plain one past the declared n
        past_n = st.tuples(st.integers(0, n + 2), st.integers(n, n + 2)).map("{0[0]} {0[1]}".format)
        bad = draw(st.one_of(st.sampled_from(BAD_LINES), past_n))
        lines.insert(draw(st.integers(0, len(lines))), bad)
    if draw(st.booleans()):
        lines.insert(0, f"# n={n}")
    eol = draw(st.sampled_from(["\n", "\n", "\r\n"]))
    text = eol.join(lines) + (eol if draw(st.booleans()) else "")
    source = draw(st.sampled_from(["file", "file", "lines", "pieces"]))
    if source == "file":
        return lambda: io.StringIO(text)
    lines = re.findall(r"[^\n]*\n|[^\n]+$", text)
    if source == "pieces":
        # the same text cut into pieces that are not lines: a merged line, a
        # split line or an empty string, each of which the parse reads as a line
        at = draw(st.integers(0, len(lines)))
        cut = draw(st.sampled_from(["merge", "split", "empty"]))
        if cut == "empty" or not lines:
            lines.insert(at, "")
        elif cut == "merge" and at > 0:
            lines[at - 1 : at + 1] = ["".join(lines[at - 1 : at + 1])]
        else:
            line = lines.pop(min(at, len(lines) - 1))
            k = draw(st.integers(0, len(line)))
            lines[at:at] = [line[:k], line[k:]]
    return lambda: iter(lines)


def load_outcome(load, source):
    try:
        g = load(source)
    except EdgeListParseError as e:
        return "error", str(e)
    return "graph", g.vertex_count, g.raw_adjacency()


def count_plain_chunks(monkeypatch) -> list[bool]:
    """Record, for each chunk the loader reads, whether it decoded as plain lines."""
    seen: list[bool] = []
    plain_ids = graph._plain_ids

    def spy(chunk):
        ids = plain_ids(chunk)
        seen.append(ids is not None)
        return ids

    monkeypatch.setattr(graph, "_plain_ids", spy)
    return seen


class TestBulkLoader:
    @settings(max_examples=400, deadline=None)
    @given(edge_list_sources())
    @example(lambda: iter(["0 1\n2 3\n"]))
    @example(lambda: iter(["", "0 1\n2 3\n", "4 5\n"]))
    @example(lambda: iter(["0 1\n\x002 3\n", "4 5\n", "6 7\n"]))
    @example(lambda: io.StringIO("# n=3\n0 1\n1 2\n2 0\n0 1\n1 0\n2 2\n"))
    def test_matches_the_line_by_line_parse(self, fresh):
        # three-line chunks, so that every kind of line lands inside a chunk,
        # at its start and at its end
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graph, "_CHUNK_LINES", 3)
            got = load_outcome(load_edge_list, fresh())
        assert got == load_outcome(util.reference_load_edge_list, fresh())

    @pytest.mark.parametrize(
        "header, bad, message",
        [
            (True, "# a note", None),
            (False, "# a note", None),
            (True, "17 x9", "line 5000: expected two integer tokens, got '17 x9'"),
            (False, "1\t2 3", "line 5000: expected two integer tokens, got '1\\t2 3'"),
            (True, "3 -4", "line 5000: negative vertex id in '3 -4'"),
            (True, "5 10000", "line 5000: vertex id exceeds declared n=10000"),
            (True, "6 9223372036854775808", "line 5000: vertex id exceeds declared n=10000"),
            (False, "6 9223372036854775808", "line 5000: vertex id too large in '6 9223372036854775808'"),
        ],
    )
    def test_line_inside_a_chunk_keeps_its_number(self, tmp_path, monkeypatch, header, bad, message):
        # 10000 lines at the default chunk size: line 5000 lies inside the
        # third chunk, whether line 1 is a header or an edge
        lines = [f"{i % 9973} {(i * 7 + 1) % 9973}" for i in range(1, 10001)]
        if header:
            lines[0] = "# n=10000"
        path = tmp_path / "g.txt"
        path.write_text("\n".join(lines) + "\n")
        plain = util.reference_load_edge_list(path.read_text().splitlines(keepends=True))
        lines[4999] = bad
        path.write_text("\n".join(lines) + "\n")
        chunks = count_plain_chunks(monkeypatch)
        if message is None:
            g = load_edge_list_path(path)
            dropped = util.reference_load_edge_list(l for i, l in enumerate(lines) if i != 4999)
            assert util.edges(g) == util.edges(dropped) != util.edges(plain)
            # line 1 alone, then lines 2-4097, 4098-8193 and 8194-10000
            assert chunks == [not header, True, False, True]
        else:
            with pytest.raises(EdgeListParseError) as err:
                load_edge_list_path(path)
            assert str(err.value) == message
            # the error stops the load in the third chunk, after a bulk one
            assert chunks[:2] == [not header, True] and len(chunks) == 3

    def test_duplicates_and_self_loops_through_the_bulk_path(self, monkeypatch):
        # PA(3000, 3): about 9000 edges, each listed once as read, then some
        # reversed next to it, self-loops in between, and the first 600 again
        # at the end in both orientations, several chunks from where they began
        pairs = util.edges(util.pa_graph(3000, 3, seed=5))
        raw = []
        for i, (u, v) in enumerate(pairs):
            raw.append((u, v))
            if i % 3 == 0:
                raw.append((v, u))
            if i % 50 == 0:
                raw.append((v, v))
        raw += pairs[:600] + [(v, u) for u, v in pairs[:600]]
        text = "# n=3000\n" + "".join(f"{u} {v}\n" for u, v in raw)
        ref: dict[int, set[int]] = {v: set() for v in range(3000)}
        for u, v in raw:
            if u != v:
                ref[u].add(v)
                ref[v].add(u)
        want = tuple(tuple(sorted(ref[v])) for v in range(3000))
        chunks = count_plain_chunks(monkeypatch)
        loaded = load_edge_list(io.StringIO(text))
        assert chunks == [False] + [True] * (len(chunks) - 1) and len(chunks) > 3
        # fresh int objects for every entry, as any caller's parser would give
        built = Graph(3000, [(int(str(u)), int(str(v))) for u, v in raw])
        for g in (loaded, built):
            assert g.raw_adjacency() == want
            assert g.edge_count == len(pairs)


@st.composite
def observed_cases(draw):
    """A graph with edges, ER or PA with its ids relabelled at random or not, and a queried set.

    The set is arbitrary, so it may hold isolated ids; vertex 0, the top id
    and a vertex of the highest degree are each added by a draw.
    """
    n = draw(st.integers(4, 40))
    seed = draw(st.integers(0, 10_000))
    if draw(st.booleans()):
        g = util.er_graph(n, draw(st.sampled_from([0.2, 0.5, 0.8])), seed)
    else:
        g = util.pa_graph(n, draw(st.integers(1, 3)), seed)
    assume(g.edge_count)
    if draw(st.booleans()):  # hubs lose their low ids, and some ids get no edge
        size = n + draw(st.integers(0, n))
        ids = Random(seed).sample(range(size), n)
        g = Graph(size, [(ids[u], ids[v]) for u, v in util.edges(g)])
    top = g.vertex_count - 1
    hub = max(range(top + 1), key=g.raw_degree)
    q = draw(st.sets(st.integers(0, top)))
    q.update(v for v in (0, top, hub) if draw(st.booleans()))
    return g, q


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

    @settings(max_examples=300, deadline=None)
    @given(observed_cases())
    def test_observed_fraction_matches_brute_force_on_any_queried_set(self, case):
        g, q = case
        led = QueryLedger(queried_vertices=q)
        assert edges_observed_fraction(led, g) == util.brute_observed_edges(g, q) / g.edge_count

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
