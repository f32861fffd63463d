"""Seeded graph generators and independent reference counts for the benchmark.

Run as a script, this writes one generated graph as an edge-list file plus a
JSON file of reference counts next to it.  The benchmark runs it in a child
process so that generation time and memory never enter its own set-up time
or peak RSS.

The generators follow ``tests/util.py`` (ER and the PA urn draw the same
random numbers, so PA(n, a, seed) here is the test suite's graph) and add
Holme-Kim preferential attachment with triad formation.  The reference
counts use set intersections only and share no code with ``crawlcount``.
"""

from __future__ import annotations

import argparse
import json
import os
from random import Random


def er_edges(n: int, p: float, seed: int) -> list[tuple[int, int]]:
    rng = Random(seed)
    return [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]


def _connected(n: int, edges: list[tuple[int, int]]) -> bool:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def connected_er_edges(n: int, p: float, seed: int) -> list[tuple[int, int]]:
    """First seed at or above ``seed`` whose ER sample is connected."""
    s = seed
    while True:
        edges = er_edges(n, p, s)
        if edges and _connected(n, edges):
            return edges
        s += 1


def pa_edges(n: int, attach: int, seed: int) -> list[tuple[int, int]]:
    """Preferential attachment by a repeated-endpoint urn, as in the tests."""
    if n <= attach:
        raise ValueError("need more vertices than attachments")
    rng = Random(seed)
    edges: list[tuple[int, int]] = []
    urn: list[int] = list(range(attach))
    for v in range(attach, n):
        targets: set[int] = set()
        while len(targets) < attach:
            targets.add(urn[rng.randrange(len(urn))])
        for t in targets:
            edges.append((v, t))
            urn.append(v)
            urn.append(t)
    return edges


def hk_edges(n: int, attach: int, triad_p: float, seed: int) -> list[tuple[int, int]]:
    """Holme-Kim: preferential attachment plus triad formation.

    Each new vertex makes one preferential link, then each further link is,
    with probability ``triad_p``, to a random neighbor of the last
    preferential target (closing a triangle), otherwise preferential again.
    Every new vertex links to existing ones, so the graph is connected.
    """
    if n <= attach:
        raise ValueError("need more vertices than attachments")
    rng = Random(seed)
    adj: list[list[int]] = [[] for _ in range(n)]
    urn: list[int] = list(range(attach))
    edges: list[tuple[int, int]] = []
    for v in range(attach, n):
        linked: set[int] = set()

        def link(t: int) -> None:
            linked.add(t)
            adj[v].append(t)
            adj[t].append(v)
            edges.append((v, t))

        def preferential() -> int:
            while True:
                t = urn[rng.randrange(len(urn))]
                if t not in linked:
                    return t

        anchor = preferential()
        link(anchor)
        while len(linked) < attach:
            if rng.random() < triad_p:
                cands = [w for w in adj[anchor] if w != v and w not in linked]
                if cands:
                    link(cands[rng.randrange(len(cands))])
                    continue
            anchor = preferential()
            link(anchor)
        for t in linked:
            urn.append(v)
            urn.append(t)
    return edges


GENERATORS = {
    "er": connected_er_edges,
    "pa": pa_edges,
    "hk": hk_edges,
}


def relabel(n: int, edges: list[tuple[int, int]], seed: int) -> list[tuple[int, int]]:
    """The same graph with its vertex ids permuted by ``seed``."""
    perm = list(range(n))
    Random(seed).shuffle(perm)
    return [(perm[u], perm[v]) for u, v in edges]


def _non_adjacent_pairs(common: set[int], adj: list[set[int]]) -> int:
    size = len(common)
    inside = sum(len(adj[x] & common) for x in common) // 2
    return size * (size - 1) // 2 - inside


def reference_counts(n: int, edges: list[tuple[int, int]], names: list[str]) -> dict[str, int]:
    """Induced copy counts of g33, g45 and g59 by neighbourhood intersection.

    g33: triangles.  g45 (diamond): for each edge, the non-adjacent pairs in
    its common neighbourhood; the edge is the diamond's unique spine.  g59
    (K5 minus an edge): the same count for each triangle.
    """
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    want = set(names)
    out = dict.fromkeys(want & {"g33", "g45", "g59"}, 0)
    for u in range(n):
        for v in adj[u]:
            if v <= u:
                continue
            common = adj[u] & adj[v]
            if "g45" in want:
                out["g45"] += _non_adjacent_pairs(common, adj)
            if "g33" in want or "g59" in want:
                for w in common:
                    if w <= v:
                        continue
                    if "g33" in want:
                        out["g33"] += 1
                    if "g59" in want:
                        out["g59"] += _non_adjacent_pairs(common & adj[w], adj)
    unknown = want - out.keys()
    if unknown:
        raise ValueError(f"no reference count for {sorted(unknown)}")
    return out


def write_graph(path: str, kind: str, params: list, seed: int, patterns: list[str],
                relabel_seed: int | None = None) -> None:
    """Generate, write ``path`` and ``path + '.ref.json'``, each atomically.

    The JSON holds the reference count of each pattern and the edge count
    under ``edges``.
    """
    edges = GENERATORS[kind](*params, seed)
    n = params[0]
    if relabel_seed is not None:
        edges = relabel(n, edges, relabel_seed)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(f"# n={n}\n")
        fh.write("".join(f"{u} {v}\n" for u, v in edges))
    refs = reference_counts(n, edges, patterns)
    refs["edges"] = len({(min(e), max(e)) for e in edges if e[0] != e[1]})
    with open(path + ".ref.json.tmp", "w", encoding="utf-8") as fh:
        json.dump(refs, fh)
    os.replace(tmp, path)
    os.replace(path + ".ref.json.tmp", path + ".ref.json")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--kind", choices=sorted(GENERATORS), required=True)
    ap.add_argument("--params", required=True, help="JSON list of generator parameters")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--patterns", required=True, help="comma-separated pattern names")
    ap.add_argument("--out", required=True)
    ap.add_argument("--relabel", type=int, default=None, help="permute vertex ids with this seed")
    args = ap.parse_args()
    write_graph(args.out, args.kind, json.loads(args.params), args.seed, args.patterns.split(","),
                args.relabel)


if __name__ == "__main__":
    main()
