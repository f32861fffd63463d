"""Shared graphs and independent reference implementations for tests.

The reference implementations here are deliberately naive (subset scans,
permutation checks, backtracking isomorphism, fraction-exact chain
algebra) so that package code is verified against something that cannot
share its bugs.  :func:`reference_class`, built on the backtracking
isomorphism test, is the reference for the package's child rule, read as a
classifier by :func:`classify_by_rule`; :func:`reference_extend` is the
plain trial loop the sampler's inline draws and bulk charges must match.
:func:`metered_hood` and :func:`metered_check` are the per-copy metered
forms of a layer's fetch and a trial's decision, built on one literal
``neighbors`` call per vertex, so that every bulk charge of the package is
checked against the queries it stands for.  :func:`reference_load_edge_list`
is the plain line-by-line edge-list parser that the bulk one must match.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from fractions import Fraction
from functools import cache
from itertools import combinations, permutations
from random import Random

from collections import Counter

import networkx as nx

from crawlcount import (
    CollisionShortfallError,
    DegenerateLayerError,
    EdgeCountEstimate,
    EdgeListParseError,
    Graph,
    LayerState,
    Pattern,
    QueryLedger,
    Segmentation,
    WalkConfig,
    auto_segment,
    default_burn_in,
    neighbors,
)
from crawlcount.graph import _HEADER_RE
from crawlcount.instances import child_covered, covered_rule

# ---- named graphs ----


def triangle() -> Graph:
    return Graph(3, [(0, 1), (0, 2), (1, 2)])


def path3() -> Graph:
    return Graph(3, [(0, 1), (1, 2)])


def star4() -> Graph:
    return Graph(4, [(0, 1), (0, 2), (0, 3)])


def k4() -> Graph:
    return Graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])


def k5() -> Graph:
    return Graph(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])


def k6() -> Graph:
    return Graph(6, [(i, j) for i in range(6) for j in range(i + 1, 6)])


def c5() -> Graph:
    return Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])


def bowtie() -> Graph:
    """Two triangles sharing vertex 2."""
    return Graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])


def diamond_graph() -> Graph:
    """One 4-clique missing the 2-3 edge."""
    return Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])


def bowtie_plus() -> Graph:
    """Bowtie with the extra 0-3 edge; has two diamonds."""
    return Graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4), (0, 3)])


def tree7() -> Graph:
    return Graph(7, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)])


# ---- deterministic random graphs (generation is ours, not a library's) ----


def er_graph(n: int, p: float, seed: int) -> Graph:
    rng = Random(seed)
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
    ]
    return Graph(n, edges)


def pa_graph(n: int, attach: int, seed: int) -> Graph:
    """Preferential attachment: each new vertex links to ``attach`` targets
    drawn proportionally to degree (repeated-endpoint urn), seeded start.
    """
    if n <= attach:
        raise ValueError("need more vertices than attachments")
    rng = Random(seed)
    edges: list[tuple[int, int]] = []
    urn: list[int] = list(range(attach))
    for v in range(attach, n):
        targets: set[int] = set()
        while len(targets) < attach:
            if urn:
                cand = urn[rng.randrange(len(urn))]
            else:
                cand = rng.randrange(v)
            targets.add(cand)
        for t in targets:
            edges.append((v, t))
            urn.append(v)
            urn.append(t)
    return Graph(n, edges)


def hk_graph(n: int, attach: int, triad_p: float, seed: int) -> Graph:
    """Holme-Kim: preferential attachment plus triad formation.

    Each new vertex makes one link drawn from the degree urn, then each
    further link is, with probability ``triad_p``, to a random neighbor of
    the last urn target not yet linked (closing a triangle), otherwise drawn
    from the urn again.  Every new vertex links to earlier ones, so the
    graph is connected.
    """
    if n <= attach:
        raise ValueError("need more vertices than attachments")
    rng = Random(seed)
    adj: list[list[int]] = [[] for _ in range(n)]
    urn: list[int] = list(range(attach))
    edges: list[tuple[int, int]] = []
    for v in range(attach, n):
        linked: list[int] = []

        def from_urn() -> int:
            while True:
                t = urn[rng.randrange(len(urn))]
                if t not in linked:
                    return t

        anchor = from_urn()
        linked.append(anchor)
        while len(linked) < attach:
            if rng.random() < triad_p:
                cands = [w for w in adj[anchor] if w not in linked]
                if cands:
                    linked.append(cands[rng.randrange(len(cands))])
                    continue
            anchor = from_urn()
            linked.append(anchor)
        for t in linked:
            adj[v].append(t)
            adj[t].append(v)
            edges.append((v, t))
            urn.append(v)
            urn.append(t)
    return Graph(n, edges)


def spread_ids(g: Graph, seed: int) -> Graph:
    """``g`` with its vertices moved to distinct seeded ids below 5000.

    A set of small dense ints iterates in increasing order, which hides
    code that reads a set as if it were sorted; spread ids do not.
    """
    ids = Random(seed).sample(range(5000), g.vertex_count)
    return Graph(5000, [(ids[u], ids[v]) for u, v in edges(g)])


def connected_er_graph(n: int, p: float, seed: int) -> Graph:
    """First seed at or above ``seed`` whose sample is connected."""
    s = seed
    while True:
        g = er_graph(n, p, s)
        if g.edge_count > 0 and is_connected(g):
            return g
        s += 1


def is_connected(g: Graph) -> bool:
    n = g.vertex_count
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for w in g.raw_adjacency()[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


# ---- naive reference implementations ----


def edges(g: Graph) -> list[tuple[int, int]]:
    """All edges as (min, max) pairs, sorted."""
    return [(u, v) for u, nbrs in enumerate(g.raw_adjacency()) for v in nbrs if u < v]


def reference_load_edge_list(source) -> Graph:
    """The edge-list parser read one line at a time, for the bulk parser to match."""
    declared_n: int | None = None
    ends = array("q")  # u0, v0, u1, v1, ...
    push = ends.append
    saw_line = False
    for lineno, raw in enumerate(source, start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            if not saw_line:
                m = _HEADER_RE.match(line)
                if m:
                    declared_n = int(m.group(1))
                    saw_line = True
            continue
        saw_line = True
        parts = line.split()
        if len(parts) != 2:
            raise EdgeListParseError(
                f"line {lineno}: expected two integer tokens, got {line!r}"
            )
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise EdgeListParseError(
                f"line {lineno}: expected two integer tokens, got {line!r}"
            ) from None
        if u < 0 or v < 0:
            raise EdgeListParseError(f"line {lineno}: negative vertex id in {line!r}")
        if declared_n is not None and (u >= declared_n or v >= declared_n):
            raise EdgeListParseError(
                f"line {lineno}: vertex id exceeds declared n={declared_n}"
            )
        try:
            push(u)
            push(v)
        except OverflowError:
            raise EdgeListParseError(
                f"line {lineno}: vertex id too large in {line!r}"
            ) from None
    n = declared_n if declared_n is not None else (max(ends) + 1 if ends else 0)
    if n <= 0:
        raise EdgeListParseError("edge list declares no vertices")
    if n > max(1 << 20, 4 * len(ends)):
        raise EdgeListParseError(
            f"vertex count {n} exceeds max(2**20, 4 x {len(ends)} endpoints); "
            "renumber the ids densely from 0"
        )
    pairs = iter(ends)
    g = Graph(n, zip(pairs, pairs))
    if g.edge_count == 0:
        raise EdgeListParseError("edge list contains no usable edges")
    return g


def naive_matrix(g: Graph, verts: tuple[int, ...]) -> list[list[int]]:
    return [
        [1 if b in g.raw_neighbor_lookups()[a] else 0 for b in verts] for a in verts
    ]


def matrices_isomorphic(a: list[list[int]], b: list[list[int]]) -> bool:
    if len(a) != len(b):
        return False
    n = len(a)
    for perm in permutations(range(n)):
        if all(
            a[i][j] == b[perm[i]][perm[j]] for i in range(n) for j in range(n)
        ):
            return True
    return False


def bits_isomorphic(cand: list[int], target: tuple[int, ...]) -> bool:
    """Induced-subgraph equality of two neighbor-bitmask graphs up to
    relabeling, by backtracking that pairs vertices of equal degree and
    demands that edges and non-edges both match."""
    k = len(target)
    if len(cand) != k:
        return False
    cdegs = [b.bit_count() for b in cand]
    tdegs = [b.bit_count() for b in target]
    if sorted(cdegs) != sorted(tdegs):
        return False
    perm = [0] * k

    def place(i: int, used: int) -> bool:
        if i == k:
            return True
        for t in range(k):
            if used >> t & 1 or tdegs[t] != cdegs[i]:
                continue
            if all((cand[i] >> j & 1) == (target[t] >> perm[j] & 1) for j in range(i)):
                perm[i] = t
                if place(i + 1, used | 1 << t):
                    return True
        return False

    return place(0, 0)


def bits_connected(bits: list[int]) -> bool:
    seen = {0}
    stack = [0]
    while stack:
        a = stack.pop()
        for b in range(len(bits)):
            if bits[a] >> b & 1 and b not in seen:
                seen.add(b)
                stack.append(b)
    return len(seen) == len(bits)


@cache
def level_bits(seg: Segmentation, i: int) -> tuple[int, ...]:
    """Level i of ``seg`` on local indices 0..i-1, one neighbor bitmask per vertex."""
    chosen = seg.order[:i]
    return tuple(
        sum(1 << j for j, w in enumerate(chosen) if seg.pattern.bits[v] >> w & 1)
        for v in chosen
    )


def reference_class(bits: list[int], seg: Segmentation, k: int) -> int | None:
    """What :func:`classify_by_rule` must return for a k-vertex tuple with
    these neighbor bitmasks: the backtracking isomorphism test against level
    k, then the first local vertex whose removal leaves a connected copy of
    level k-1."""
    if not bits_isomorphic(bits, level_bits(seg, k)):
        return None
    for drop in range(k):
        keep = [i for i in range(k) if i != drop]
        sub = [
            sum(((bits[a] >> b) & 1) << j for j, b in enumerate(keep)) for a in keep
        ]
        if bits_connected(sub) and bits_isomorphic(sub, level_bits(seg, k - 1)):
            return drop
    return None


def classify_by_rule(g: Graph, verts: tuple[int, ...], seg: Segmentation) -> int | None:
    """The index j for which ``verts[j]`` is a child of ``verts`` without
    ``verts[j]`` under ``child_covered``, or None when there is no such j:
    the package's child rule read as a classifier of the grown tuple.  Each
    parent's covered set and growth come from :func:`brute_parent_rule`,
    its threshold from ``covered_rule``.  Every index is tried, and an
    AssertionError raised when more than one accepts: a rule that assigns a
    copy to two parents counts it twice."""
    lookups = g.raw_neighbor_lookups()
    accepting = []
    for j, u in enumerate(verts):
        parent = verts[:j] + verts[j + 1 :]
        rule = brute_parent_rule(g, parent, seg)
        if rule is None:
            continue
        _, covered, grows = rule
        threshold = covered_rule(parent, covered, grows, g.vertex_count)
        if child_covered(lookups[u], parent, u, threshold, covered, grows) is not None:
            accepting.append(j)
    assert len(accepting) <= 1, f"{verts} is a child of the parents without each of {accepting}"
    return accepting[0] if accepting else None


def feasible_orders(p: Pattern) -> list[Segmentation]:
    """Every insertion order of ``p`` that its declared slack allows."""
    segs = [Segmentation(p, order) for order in permutations(range(p.size))]
    return [s for s in segs if s.min_slack is not None and s.min_slack <= p.slack]


def first_order_within_slack_one(size: int, edges) -> tuple[int, ...] | None:
    """Lexicographically first insertion order needing slack at most 1, or
    None: a pruned search whose every prefix must be connected (each new
    vertex has an earlier neighbor) and give each member at least i-2
    neighbors inside the first i vertices."""
    adj = [set() for _ in range(size)]
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    if any(len(nbrs) < size - 2 for nbrs in adj):
        return None  # the last level is the whole pattern, whatever the order

    def extend(prefix: list[int]) -> tuple[int, ...] | None:
        if len(prefix) == size:
            return tuple(prefix)
        for v in range(size):
            if v in prefix or (prefix and not adj[v] & set(prefix)):
                continue
            chosen = set(prefix) | {v}
            if all(len(adj[a] & chosen) >= len(chosen) - 2 for a in chosen):
                found = extend(prefix + [v])
                if found is not None:
                    return found
        return None

    return extend([])


@cache
def connected_atlas() -> list:
    """(atlas index, graph) for every connected 3- to 7-vertex graph of the networkx atlas."""
    return [
        (idx, h)
        for idx, h in enumerate(nx.graph_atlas_g())
        if 3 <= h.number_of_nodes() <= 7 and nx.is_connected(h)
    ]


@cache
def accepted_patterns() -> list[tuple[str, Pattern, Segmentation]]:
    """Every loader-accepted pattern on 3 to 8 vertices, one per isomorphism
    class, with its automatic order: the atlas graphs that have an order of
    slack at most 1, then K8 minus 0..4 disjoint pairs."""
    out = []
    for idx, h in connected_atlas():
        if first_order_within_slack_one(h.number_of_nodes(), h.edges()) is not None:
            out.append((f"atlas{idx}", h.number_of_nodes(), list(h.edges())))
    for s in range(5):
        gone = {(2 * j, 2 * j + 1) for j in range(s)}
        kept = [e for e in combinations(range(8), 2) if e not in gone]
        out.append((f"k8minus{s}", 8, kept))
    accepted = []
    for name, size, pairs in out:
        seg = auto_segment(Pattern(size, pairs))
        p = Pattern(size, pairs, slack=seg.min_slack)
        accepted.append((name, p, Segmentation(p, seg.order)))
    return accepted


def set_connected(g: Graph, verts: tuple[int, ...]) -> bool:
    vs = set(verts)
    seen = {verts[0]}
    stack = [verts[0]]
    while stack:
        v = stack.pop()
        for w in g.raw_adjacency()[v]:
            if w in vs and w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(vs)


def naive_copies(g: Graph, target_matrix: list[list[int]]) -> list[tuple[int, ...]]:
    """All connected induced copies of the target, by scanning every subset."""
    k = len(target_matrix)
    target = [sum(val << j for j, val in enumerate(row)) for row in target_matrix]
    found = []
    for verts in combinations(range(g.vertex_count), k):
        if not set_connected(g, verts):
            continue
        bits = [sum(val << j for j, val in enumerate(row)) for row in naive_matrix(g, verts)]
        if bits_isomorphic(bits, target):
            found.append(verts)
    return found


def level_matrix(seg: Segmentation, level: int) -> list[list[int]]:
    """Adjacency matrix of one segmentation level, for :func:`naive_copies`."""
    return [[(row >> j) & 1 for j in range(level)] for row in level_bits(seg, level)]


def naive_assign(g: Graph, verts: tuple[int, ...], seg: Segmentation) -> tuple[int, ...] | None:
    """Parent of a copy: drop the smallest vertex whose removal leaves a
    connected copy of the level below, by permutation scan; None if none does."""
    target = level_matrix(seg, len(verts) - 1)
    for drop in verts:
        rest = tuple(v for v in verts if v != drop)
        if set_connected(g, rest) and matrices_isomorphic(naive_matrix(g, rest), target):
            return rest
    return None


def chain_walk_tables(g: Graph, seg: Segmentation) -> dict[int, dict[tuple[int, ...], int]]:
    """Chain tallies by walking :func:`naive_assign` down from every naive full-size copy."""
    k = seg.pattern.size
    tables: dict[int, dict[tuple[int, ...], int]] = {i: {} for i in range(2, k + 1)}
    for verts in naive_copies(g, level_matrix(seg, k)):
        cur = verts
        tables[k][verts] = tables[k].get(verts, 0) + 1
        for lvl in range(k, 2, -1):
            cur = naive_assign(g, cur, seg)
            tables[lvl - 1][cur] = tables[lvl - 1].get(cur, 0) + 1
    return tables


def brute_observed_edges(g: Graph, queried: set[int]) -> int:
    """Edges with at least one queried endpoint, counted edge by edge."""
    return sum(1 for u, v in edges(g) if u in queried or v in queried)


def brute_representative(g: Graph, verts: tuple[int, ...], slack: int) -> tuple[int, ...]:
    """Independent argmin over (slack+1)-subsets, first minimum wins."""
    best = None
    best_size = None
    for sub in combinations(sorted(verts), slack + 1):
        hood = set()
        for v in sub:
            hood |= set(g.raw_adjacency()[v])
        if best_size is None or len(hood) < best_size:
            best = sub
            best_size = len(hood)
    return best


def brute_covered(g: Graph, verts: tuple[int, ...]) -> frozenset[int]:
    """The vertices of ``verts`` that lie in a missing pair, every pair probed."""
    lookups = g.raw_neighbor_lookups()
    return frozenset(v for a, b in combinations(verts, 2) if b not in lookups[a] for v in (a, b))


def brute_parent_rule(g: Graph, verts: tuple[int, ...], seg: Segmentation):
    """A copy's rule read from the copy itself, every member pair probed:
    None unless the missing pairs are ``seg.missing[k]`` disjoint ones, else
    ``(threshold, covered, grows)``: the least covered vertex (growing) or
    least uncovered member, ``n`` if none; the covered set; and whether
    level k+1 misses one pair more.  The package never reads a copy's pairs:
    a parent hands its child the covered set."""
    lookups = g.raw_neighbor_lookups()
    k = len(verts)
    missing = [(a, b) for a, b in combinations(verts, 2) if b not in lookups[a]]
    covered = frozenset(v for pair in missing for v in pair)
    if len(missing) != seg.missing[k] or len(covered) != 2 * len(missing):
        return None
    grows = seg.missing[k + 1] > seg.missing[k]
    pool = covered if grows else [v for v in verts if v not in covered]
    return min(pool, default=g.vertex_count), covered, grows


def brute_seg_degree(g: Graph, verts: tuple[int, ...], slack: int) -> int:
    rep = brute_representative(g, verts, slack)
    hood = set()
    for v in rep:
        hood |= set(g.raw_adjacency()[v])
    return len(hood)


def brute_min_slack(size: int, edges, order) -> int | None:
    """Slack needed by one insertion order, recomputed from scratch."""
    eset = {tuple(sorted(e)) for e in edges}

    def adj(a, b):
        return tuple(sorted((a, b))) in eset

    worst = 0
    for i in range(2, size + 1):
        chosen = order[:i]
        comp = {chosen[0]}
        grew = True
        while grew:
            grew = False
            for a in chosen:
                if a not in comp and any(adj(a, b) for b in comp):
                    comp.add(a)
                    grew = True
        if len(comp) != i:
            return None
        mind = min(sum(1 for b in chosen if b != a and adj(a, b)) for a in chosen)
        worst = max(worst, (i - 1) - mind)
    return worst


def exact_walk_expectation(
    g: Graph, f2: dict[tuple[int, int], int], burn_in: int, length: int
) -> Fraction:
    """Exact E of (m/length) * sum of f2 over walk edges.

    The walk starts at a uniform vertex of positive degree, as the
    sampler's does.  Transition-matrix powers in rational arithmetic; the
    independent route to the estimator's expectation for 3-vertex patterns.
    """
    n = g.vertex_count
    live = sum(1 for v in range(n) if g.raw_degree(v))
    dist = [Fraction(1, live) if g.raw_degree(v) else Fraction(0) for v in range(n)]

    def step(d):
        out = [Fraction(0)] * n
        for v in range(n):
            if d[v] == 0:
                continue
            share = d[v] / g.raw_degree(v)
            for w in g.raw_adjacency()[v]:
                out[w] += share
        return out

    for _ in range(burn_in):
        dist = step(dist)
    total = Fraction(0)
    for _ in range(length):
        for v in range(n):
            if dist[v] == 0:
                continue
            share = dist[v] / g.raw_degree(v)
            for w in g.raw_adjacency()[v]:
                e = (v, w) if v < w else (w, v)
                total += share * f2.get(e, 0)
        dist = step(dist)
    return Fraction(g.edge_count, length) * total


def metered_hood(
    g: Graph, ledger: QueryLedger, verts: tuple[int, ...], slack: int
) -> tuple[int, ...]:
    """A copy's representative neighborhood the per-query way: one metered
    ``neighbors`` call per vertex of the sorted ``verts``, then the union of
    the first (slack+1)-subset of those lists whose union is smallest."""
    best: set[int] | None = None
    for sub in combinations([neighbors(g, ledger, v) for v in verts], slack + 1):
        hood = set().union(*sub)
        if best is None or len(hood) < len(best):
            best = hood
    return tuple(sorted(best))


def metered_check(
    g: Graph, ledger: QueryLedger, verts: tuple[int, ...], u: int, seg: Segmentation
) -> tuple[int, ...] | None:
    """The grown tuple if ``verts + u`` is a copy of the next level assigned
    to ``verts``, else None: one trial's decision the per-query way.  None,
    uncharged, when u is in ``verts``; otherwise one metered ``neighbors``
    call per vertex of the grown tuple, then :func:`brute_parent_rule` and
    ``child_covered``."""
    if u in verts:
        return None
    grown = tuple(sorted(verts + (u,)))
    for v in grown:
        neighbors(g, ledger, v)
    rule = brute_parent_rule(g, verts, seg)
    if rule is None or child_covered(g.raw_neighbor_lookups()[u], verts, u, *rule) is None:
        return None
    return grown


def reference_extend(
    g: Graph, ledger: QueryLedger, layer: LayerState, seg: Segmentation, trials: int, rng: Random
) -> list[tuple[int, ...]]:
    """The extension trial loop spelled plainly: a member by ``randrange`` over
    the prefix weights, a vertex by ``randrange`` over its neighborhood, and
    :func:`metered_check`, which charges the grown tuple, on each pair."""
    accepted = []
    for _ in range(trials):
        if layer.total_degree <= 0:
            raise DegenerateLayerError(f"degenerate layer at level {layer.level}")
        idx = bisect_right(layer.prefix_weights, rng.randrange(layer.total_degree))
        hood = layer.hoods[idx]
        u = hood[rng.randrange(len(hood))]
        got = metered_check(g, ledger, layer.members[idx], u, seg)
        if got is not None:
            accepted.append(got)
    return accepted


def reference_tally(
    g: Graph, p: Pattern, seg: Segmentation, top: int, on_child=None
) -> tuple[dict[int, int], dict[int, dict[tuple[int, ...], int]], int]:
    """The exact tally decided one candidate at a time: each copy's
    :func:`metered_hood`, then ``child_covered`` under its
    :func:`brute_parent_rule` on every vertex of it, every copy
    visited, leaves included.  Counts and chain tables in the package's
    order, and the work the budget counts: the sum of each copy's least
    member degree over every copy below ``top``.  ``on_child(verts, rule,
    u, child)``, when given, is called on each accepted child before it is
    visited."""
    counts = dict.fromkeys(range(2, top + 1), 0)
    tables: dict[int, dict[tuple[int, ...], int]] = {i: {} for i in counts}
    lookups = g.raw_neighbor_lookups()
    work = 0

    def grow(verts: tuple[int, ...]) -> int:
        nonlocal work
        counts[len(verts)] += 1
        chains = 1
        if len(verts) < top:
            chains = 0
            rule = brute_parent_rule(g, verts, seg)
            hood = metered_hood(g, QueryLedger(), verts, p.slack)
            work += min(map(g.raw_degree, verts))
            for u in hood:
                if (
                    rule is not None
                    and u not in verts
                    and child_covered(lookups[u], verts, u, *rule) is not None
                ):
                    child = tuple(sorted(verts + (u,)))
                    if on_child is not None:
                        on_child(verts, rule, u, child)
                    chains += grow(child)
        if chains:
            tables[len(verts)][verts] = chains
        return chains

    for u, v in edges(g):
        grow((u, v))
    return counts, tables, work


def reference_chain_count(g: Graph, p: Pattern, seg: Segmentation):
    """One copy's chain count by :func:`reference_tally`'s rule, computed on
    demand: only the copies below the ones asked about are visited, each
    once."""
    lookups = g.raw_neighbor_lookups()

    @cache
    def chains(verts: tuple[int, ...]) -> int:
        if len(verts) == p.size:
            return 1
        rule = brute_parent_rule(g, verts, seg)
        if rule is None:
            return 0
        return sum(
            chains(tuple(sorted(verts + (u,))))
            for u in metered_hood(g, QueryLedger(), verts, p.slack)
            if u not in verts and child_covered(lookups[u], verts, u, *rule) is not None
        )

    return chains


def reference_start(g: Graph, rng: Random) -> int:
    """Unbounded rejection loop: redraw uniformly until the vertex has a neighbor."""
    if g.edge_count == 0:
        raise ValueError("graph has no edges; every vertex is isolated")
    v = rng.randrange(g.vertex_count)
    while g.raw_degree(v) == 0:
        v = rng.randrange(g.vertex_count)
    return v


def reference_walk(
    g: Graph, ledger: QueryLedger, cfg: WalkConfig, seed: int
) -> list[tuple[int, int]]:
    """The walk with one metered ``neighbors`` call per step."""
    rng = Random(seed)
    burn = cfg.burn_in if cfg.burn_in is not None else default_burn_in(g.vertex_count)
    cur = reference_start(g, rng)
    for _ in range(burn):
        nbrs = neighbors(g, ledger, cur)
        cur = nbrs[rng.randrange(len(nbrs))]
    edges: list[tuple[int, int]] = []
    for _ in range(cfg.length):
        nbrs = neighbors(g, ledger, cur)
        nxt = nbrs[rng.randrange(len(nbrs))]
        edges.append((cur, nxt) if cur < nxt else (nxt, cur))
        cur = nxt
    return edges


def reference_edge_count(
    g: Graph,
    ledger: QueryLedger,
    samples: int,
    spacing: int,
    seed: int,
    burn_in: int | None = None,
) -> EdgeCountEstimate:
    """Collision edge count with one metered ``neighbors`` call per step, six rounds at most."""
    rng = Random(seed)
    burn = burn_in if burn_in is not None else default_burn_in(g.vertex_count)
    cur = reference_start(g, rng)
    for _ in range(burn):
        nbrs = neighbors(g, ledger, cur)
        cur = nbrs[rng.randrange(len(nbrs))]
    counts: Counter[tuple[int, int]] = Counter()
    taken = 0
    target = samples
    attempts = 0
    while True:
        attempts += 1
        while taken < target:
            for _ in range(spacing):
                nbrs = neighbors(g, ledger, cur)
                nxt = nbrs[rng.randrange(len(nbrs))]
                edge = (cur, nxt) if cur < nxt else (nxt, cur)
                cur = nxt
            counts[edge] += 1
            taken += 1
        collisions = sum(c * (c - 1) // 2 for c in counts.values())
        if collisions > 0:
            return EdgeCountEstimate(
                edge_estimate=taken * (taken - 1) // 2 / collisions,
                samples_used=taken,
                collisions=collisions,
                attempts=attempts,
            )
        if attempts >= 6:
            raise CollisionShortfallError(f"no collisions after {attempts} rounds")
        target *= 2


def acceptance_corpus() -> list[tuple[str, Graph]]:
    """The named-plus-seeded graph collection the acceptance criteria sweep."""
    graphs: list[tuple[str, Graph]] = [
        ("triangle", triangle()),
        ("path3", path3()),
        ("star4", star4()),
        ("k4", k4()),
        ("k5", k5()),
        ("k6", k6()),
        ("c5", c5()),
        ("bowtie", bowtie()),
        ("bowtie_plus", bowtie_plus()),
        ("diamond", diamond_graph()),
        ("tree7", tree7()),
    ]
    for idx, (n, p) in enumerate(
        [(12, 0.3), (15, 0.25), (18, 0.25), (20, 0.2), (22, 0.2), (25, 0.18),
         (25, 0.3), (30, 0.15), (35, 0.12), (40, 0.1)]
    ):
        graphs.append((f"er{idx}", er_graph(n, p, seed=100 + idx)))
    return graphs
