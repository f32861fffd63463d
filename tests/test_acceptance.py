"""Acceptance suite: ten criteria, one verdict line each.

Every quantity here is seeded and therefore deterministic.  Statistical
tolerances and the constants they depend on (sample sizes, schedules,
thresholds) were fixed by calibration runs before being frozen below;
they are contracts, not knobs to loosen when a change breaks them.
"""

import csv
import io
import statistics
from collections import Counter
from fractions import Fraction
from random import Random

from crawlcount import (
    EstimateConfig,
    Graph,
    QueryLedger,
    WalkConfig,
    build_layers,
    builtin_names,
    builtin_pattern,
    check_arboricity_bound,
    count_profile,
    enumerate_instances,
    estimate_count,
    estimate_edge_count,
    exact_count,
    final_level_successes,
    representative,
    scaling_constant,
    simple_random_walk,
)
from crawlcount.instances import representative_hood
from crawlcount.cli import main, summary_path

import util
from acceptance_log import record


def test_c01_unbiased_mean_within_three_se(corpus):
    cases = [
        ("bowtie/g33", util.bowtie(), "g33", 30, 40, [60]),
        ("k5/g46", util.k5(), "g46", 30, 40, [40, 40]),
        ("er60/g33", util.connected_er_graph(60, 0.15, 0), "g33", 150, 60, [250]),
    ]
    runs = 20_000
    details = []
    ok = True
    for name, g, pat, walk_len, burn, sizes in cases:
        p, seg = builtin_pattern(pat)
        t_exact = exact_count(g, p)
        ests = []
        for i in range(runs):
            cfg = EstimateConfig(
                layer_sizes=sizes,
                walk=WalkConfig(length=walk_len, burn_in=burn),
                seed=i,
            )
            ests.append(estimate_count(g, p, seg, cfg).estimate)
        mean = statistics.fmean(ests)
        se = statistics.stdev(ests) / runs**0.5
        dev = (mean - t_exact) / se
        details.append(f"{name} T={t_exact} mean={mean:.4f} dev={dev:+.2f}SE")
        ok = ok and abs(dev) < 3.0
    record(1, "unbiasedness over 20000 runs", ok, "; ".join(details))
    assert ok, details


def test_c02_chain_tallies_sum_to_total_exactly():
    checked = 0
    ok = True
    bad = None
    for i in range(50):
        n = 8 + round(i * 32 / 49)
        p_edge = 0.3 if n < 20 else (0.2 if n < 30 else 0.15)
        g = util.er_graph(n, p_edge, 1000 + i)
        for name in builtin_names():
            p, seg = builtin_pattern(name)
            prof = count_profile(g, p, seg)
            t = exact_count(g, p)
            if prof.total != t or sum(prof.f_tables[2].values()) != t:
                ok = False
                bad = (i, name, prof.total, t)
            for lvl in range(2, p.size + 1):
                if sum(prof.f_tables[lvl].values()) != t:
                    ok = False
                    bad = (i, name, lvl)
            checked += 1
    record(
        2,
        "count-function totality",
        ok,
        f"sum f_i = T exact on {checked} graph/pattern pairs"
        + ("" if ok else f", first failure {bad}"),
    )
    assert ok, bad


def test_c03_representative_matches_exhaustive_argmin(corpus):
    checked = 0
    ok = True
    bad = None
    for gname, g in corpus:
        adj, lookups = g.raw_adjacency(), g.raw_neighbor_lookups()
        for name in builtin_names():
            p, seg = builtin_pattern(name)
            for lvl in range(2, p.size + 1):
                for verts in enumerate_instances(g, p, seg, lvl):
                    got = representative(adj, lookups, verts, p.slack)
                    want = util.brute_representative(g, verts, p.slack)
                    if got != want:
                        ok = False
                        bad = (gname, name, lvl, verts, got, want)
                    wdeg = util.brute_seg_degree(g, verts, p.slack)
                    if len(representative_hood(adj, lookups, verts, p.slack)) != wdeg:
                        ok = False
                        bad = (gname, name, lvl, verts, "degree")
                    checked += 1
    record(
        3,
        "representative = exhaustive argmin",
        ok,
        f"{checked} instances across {len(corpus)} graphs"
        + ("" if ok else f", first failure {bad}"),
    )
    assert ok, bad


def test_c04_arboricity_bound_never_violated(corpus):
    checked = 0
    ok = True
    bad = None
    for gname, g in corpus:
        for name in builtin_names():
            p, seg = builtin_pattern(name)
            for lvl in range(2, p.size + 1):
                res = check_arboricity_bound(g, p, seg, level=lvl)
                if not res.holds:
                    ok = False
                    bad = (gname, name, lvl, res.lhs, res.rhs)
                checked += 1
    record(
        4,
        "degree-sum density bound",
        ok,
        f"{checked} level checks, zero violations"
        + ("" if ok else f", first failure {bad}"),
    )
    assert ok, bad


def test_c05_frozen_layer_expectation(bowtie):
    p, seg = builtin_pattern("g33")
    prof = count_profile(bowtie, p, seg)
    cfg = EstimateConfig(
        layer_sizes=[60], walk=WalkConfig(length=30, burn_in=40), seed=0
    )
    build = build_layers(bowtie, p, seg, cfg)
    layer = build.layers[-1]
    f_frozen = sum(prof.f_tables[2].get(m, 0) for m in layer.members)
    expected = 60 * f_frozen / layer.total_degree
    reruns = 10_000
    ys = []
    for i in range(reruns):
        ys.append(
            final_level_successes(
                bowtie, QueryLedger(), layer, seg, 60, Random(1_000_000 + i)
            )
        )
    mean = statistics.fmean(ys)
    se = statistics.stdev(ys) / reruns**0.5
    dev = (mean - expected) / se
    ok = abs(dev) < 3.0
    record(
        5,
        "frozen-layer conditional mean",
        ok,
        f"expected={expected:.4f} mean={mean:.4f} dev={dev:+.2f}SE over {reruns} reruns",
    )
    assert ok, (mean, expected, se)


def test_c06_scaling_recursion_exact():
    k9 = Graph(9, [(i, j) for i in range(9) for j in range(i + 1, 9)])
    er25 = util.er_graph(25, 0.45, 42)
    cases = [
        ("k9/g510", k9, "g510", [50, 50, 60], 40, 40),
        ("er25/g45", er25, "g45", [80, 80], 60, 50),
    ]
    runs = 0
    ok = True
    bad = None
    for name, g, pat, sizes, walk_len, burn in cases:
        p, seg = builtin_pattern(pat)
        k = p.size
        for seed in range(3):
            cfg = EstimateConfig(
                layer_sizes=sizes,
                walk=WalkConfig(length=walk_len, burn_in=burn),
                seed=seed,
            )
            build = build_layers(g, p, seg, cfg)
            assert not build.degenerate, (name, seed)
            degrees = [ls.total_degree for ls in build.layers]
            for i in range(4, k + 1):
                c_i = scaling_constant(
                    i, g.edge_count, walk_len, sizes[: i - 3], degrees[: i - 2]
                )
                c_prev = scaling_constant(
                    i - 1, g.edge_count, walk_len, sizes[: i - 4], degrees[: i - 3]
                )
                l_prev = sizes[i - 4]
                if c_i != c_prev * Fraction(degrees[i - 3], l_prev):
                    ok = False
                    bad = (name, seed, i)
            res = estimate_count(g, p, seg, cfg)
            c_k = scaling_constant(k, g.edge_count, walk_len, sizes[: k - 3], degrees)
            if res.successes != build.successes or res.estimate != float(
                Fraction(res.successes) * c_k / res.final_trials
            ):
                ok = False
                bad = (name, seed, "estimate")
            runs += 1
    record(
        6,
        "scaling-constant recursion",
        ok,
        f"exact identity c_i = c_(i-1) D_(i-1)/l_(i-1) held in {runs} runs"
        + ("" if ok else f", first failure {bad}"),
    )
    assert ok, bad


def test_c07_walk_stationarity_on_k4(k4):
    walk = simple_random_walk(
        k4, QueryLedger(), WalkConfig(length=60_000, seed=0, burn_in=100)
    )
    freq = Counter(walk)
    devs = {e: abs(c / 60_000 - 1 / 6) for e, c in freq.items()}
    worst = max(devs.values())
    ok = len(freq) == 6 and worst < 0.01
    record(
        7,
        "walk edge stationarity",
        ok,
        f"six K4 edges, max |freq - 1/6| = {worst:.5f} (tol 0.01)",
    )
    assert ok, devs


def test_c08_edge_count_estimator_hits_ten_percent():
    g = util.er_graph(150, 0.09, 0)
    m = g.edge_count
    hits = 0
    for seed in range(200):
        est = estimate_edge_count(
            g, QueryLedger(), samples=1500, spacing=8, seed=seed
        )
        if abs(est.edge_estimate - m) / m <= 0.10:
            hits += 1
    ok = hits >= 180
    record(
        8,
        "collision edge count",
        ok,
        f"m={m}, {hits}/200 seeded trials within 10% (need 180, s=1500 gap=8)",
    )
    assert ok, hits


def test_c09_error_shrinks_with_walk_length():
    g = util.pa_graph(2000, 3, 8)
    p, seg = builtin_pattern("g33")
    t_exact = exact_count(g, p)
    schedule = [150, 500, 1700, 5600]
    medians = []
    for walk_len in schedule:
        rels = []
        for j in range(100):
            cfg = EstimateConfig(
                layer_sizes=[20_000], walk=WalkConfig(length=walk_len), seed=j
            )
            est = estimate_count(g, p, seg, cfg).estimate
            rels.append(abs(est - t_exact) * 100.0 / t_exact)
        medians.append(statistics.median(rels))
    mono = all(a >= b for a, b in zip(medians, medians[1:]))
    final_ok = medians[-1] < 12.0
    ok = mono and final_ok
    record(
        9,
        "convergence trend",
        ok,
        f"T={t_exact}, median |err|% over schedule {schedule}: "
        + ", ".join(f"{m:.2f}" for m in medians)
        + f" (monotone={mono}, final<12%={final_ok})",
    )
    assert ok, medians


def test_c10_cli_byte_determinism(tmp_path, capsys):
    gfile = tmp_path / "bowtie.txt"
    gfile.write_text("# n=5\n0 1\n0 2\n1 2\n2 3\n2 4\n3 4\n")
    k4file = tmp_path / "k4.txt"
    k4file.write_text("# n=4\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")

    def run(args):
        code = main(args)
        out = capsys.readouterr()
        return code, out.out, out.err

    commands = [
        ["exact", "--graph", str(gfile), "--pattern", "g33"],
        ["validate", "--pattern", "g45"],
        [
            "estimate", "--graph", str(gfile), "--pattern", "g33",
            "--walk-len", "30", "--layers", "40", "--seed", "5",
        ],
        [
            "edgecount", "--graph", str(k4file), "--samples", "200",
            "--gap", "5", "--seed", "2",
        ],
    ]
    ok = True
    checked = 0
    for args in commands:
        first = run(args)
        second = run(args)
        if first != second:
            ok = False
        checked += 1

    exp_outs = []
    for name in ("a.csv", "b.csv"):
        out_csv = tmp_path / name
        code, out, _ = run(
            [
                "experiment", "--graph", str(gfile), "--pattern", "g33",
                "--walk-len", "20,35", "--reps", "4", "--layers", "25",
                "--seed", "7", "--out", str(out_csv),
            ]
        )
        exp_outs.append(
            (code, out, out_csv.read_bytes(),
             open(summary_path(str(out_csv)), "rb").read())
        )
    if exp_outs[0] != exp_outs[1]:
        ok = False
    checked += 1
    rows = list(csv.reader(io.StringIO(exp_outs[0][2].decode())))
    if len(rows) != 9 or b"\r" in exp_outs[0][2]:
        ok = False
    record(
        10,
        "CLI determinism",
        ok,
        f"{checked} commands byte-identical across repeat runs",
    )
    assert ok
