"""Benchmark for crawlcount: seeded workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sweep-small --seed 1 --seconds 15 --trace 0

The benchmark generates the workload's graph from ``--seed`` in a child
process (cached under ``perfbench/.cache``), then loads it through the
program's public API and drives it in a closed loop with one client: each
run starts when the previous one has returned.  It checks every output
against an independent reference count and prints a human-readable report
followed by one JSON line with ``correct``, ``attempted``, ``failed`` and
``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` repeats the
measurement, runs its first seeds again with and without timing wrappers
installed (see ``tracer.py``), reports the per-layer metrics and the tracing
overhead, and writes the spans to ``perfbench/out``.  See ``README.md`` for the metric
definitions and the reason for each workload.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import zlib
from dataclasses import dataclass, replace
from random import Random

from tracer import CALLS, END, LEVEL, NAME, OUTCOME, PARENT, PHASE, SID, START, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CACHE = os.path.join(HERE, ".cache")
OUT = os.path.join(HERE, "out")
KEEP_FILES = 8  # generated graphs and span files kept per workload and size

SE_LIMIT = 4.0
# The check must resolve a mean this far from the reference, as a share of
# it: every estimate workload runs enough seeds that SE_LIMIT standard errors
# at its known per-run deviation stay within TOL.
TOL = 0.5
TAIL_PERCENTILES = (99, 95, 90)
TAIL_MIN_BEYOND = 10
SETUP_MIN_SECONDS = 0.5
# Host-speed calibration (see Speed): a kernel time older than CAL_STALE_S
# is measured again, as the best of CAL_BURSTS bursts; times are scaled to
# the speed at which one burst takes CAL_REF_S.
CAL_REF_S = 0.0006
CAL_STALE_S = 0.05
CAL_BURSTS = 3


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str
    params: tuple
    patterns: tuple[str, ...]
    walk: int = 0
    burn_in: int | None = None
    layers: tuple[int, ...] = ()
    estimate_m: bool = False
    graph_seed: int | None = None  # set: a fixed graph whose ids --seed permutes
    setup_repeats: int = 5
    # Seeds in pass 1 at least; per-run counts average over these, so they
    # repeat exactly.
    min_runs: int = 10
    # Each seed runs once per pass; its time is the median of its passes'
    # speed-scaled times (see Speed).
    passes: int = 2
    # Per-run standard deviation, as a share of the true value, of the
    # estimate at the true edge count and (estimated-m only) of m / m_hat,
    # measured over 16 to 150 runs: the floor of the check's SE and what
    # sizes its sample (check_seeds).
    rel_sd: float = 0.0
    edge_rel_sd: float = 0.0

    @property
    def exact(self) -> bool:
        return not self.layers

    @property
    def check_seeds(self) -> int:
        """Distinct seeds for which SE_LIMIT floored standard errors are at most TOL."""
        if self.exact:
            return 1
        sd = max(self.rel_sd, self.edge_rel_sd)
        return max(2, math.ceil((SE_LIMIT * sd / TOL) ** 2))


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        # At least 100 seeds so that the tail is p90 whatever the host's speed.
        Workload("sweep-small", "er", (60, 0.15), ("g33",), walk=150, burn_in=60, layers=(250,),
                 min_runs=100, passes=40, rel_sd=0.35),
        # Layers of 4000, 4000 and 10000 rather than 20000, 20000 and 50000:
        # a run of about 0.2 s instead of 1 s, so that the host speed
        # measured just before and after it holds for most of it.
        Workload("deep-layers", "hk", (3000, 5, 0.8), ("g59",), walk=2000,
                 layers=(4000, 4000, 10000), min_runs=8, passes=8, rel_sd=0.5),
        # The estimate is (estimate at the true m) * m_hat / m.  The collision
        # count makes it heavy-tailed (up to 7x the count in 40 runs), so the
        # check tests the two factors, whose deviations are 0.45-0.48 and
        # 0.33-0.38 over two graphs.
        Workload("crawl-1m", "pa", (200000, 5), ("g33",), walk=20000, layers=(10000,),
                 estimate_m=True, setup_repeats=3, min_runs=2, passes=8, rel_sd=0.5,
                 edge_rel_sd=0.4),
        # Enumeration time follows the graph's hubs, so the structure is
        # fixed, as for a benchmark on a dataset graph, and --seed permutes
        # the vertex ids.  The graph is small enough (about 1 s per run, 9 s
        # at n=600) for eight passes in one measurement.
        Workload("exact-truth", "hk", (150, 4, 0.7), ("g33", "g45"), graph_seed=3,
                 min_runs=2, passes=8),
    )
}
# Same code paths, passes and check at sizes that run in seconds, for the
# self-test.  Their per-run deviations (0.29, 0.30, 0.34 and 0.29 over 80 to
# 150 runs) are within the full-size floors they share.
TINY = {
    "sweep-small": WORKLOADS["sweep-small"],
    "deep-layers": replace(WORKLOADS["deep-layers"], params=(300, 5, 0.8), walk=2000,
                           layers=(3000, 3000, 8000)),
    "crawl-1m": replace(WORKLOADS["crawl-1m"], params=(3000, 5), walk=1000, layers=(1000,)),
    "exact-truth": replace(WORKLOADS["exact-truth"], params=(80, 4, 0.7)),
}

END_TO_END = {
    "setup_s": "s",
    "runs_per_s": "1/s",
    "run_ms_p50": "ms",
    "run_ms_tail": "ms",
    "peak_rss_mb": "MB",
}
CHECK_LEVELS = (3, 4, 5)
MIDDLE_LEVELS = (3, 4)
ORACLE_LEVELS = (2, 3, 4)
# per-layer metric -> (unit, traced name it is measured from, or None).  Unit
# "queries" is a change of the ledger's oracle_calls, the paper's cost;
# "count" counts calls of the traced function.
PER_LAYER: dict[str, tuple[str, str | None]] = {
    "estimator.trials_per_s": ("1/s", None),
    "graph.oracle_calls_per_run": ("queries", None),
    "graph.distinct_queried_per_run": ("count", None),
    "graph.observed_edges_per_run": ("count", None),
    "graph.edges_observed_pct": ("%", None),
    "oracle.exact_s": ("s", None),
    "walk.walk_s": ("s", "estimator.simple_random_walk"),
    "walk.walk_calls": ("queries", "estimator.simple_random_walk"),
    "walk.steps_per_s": ("1/s", "estimator.simple_random_walk"),
    "walk.edgecount_s": ("s", "estimator.estimate_edge_count"),
    "walk.edgecount_calls": ("queries", "estimator.estimate_edge_count"),
    "walk.edgecount_attempts": ("count", "estimator.estimate_edge_count"),
    "estimator.level2_s": ("s", "estimator.initial_layer"),
    "estimator.level2_calls": ("queries", "estimator.initial_layer"),
    **{
        f"estimator.level{i}_{kind}": (unit, "estimator.LayerState.build")
        for i in MIDDLE_LEVELS
        for kind, unit in (("s", "s"), ("calls", "queries"))
    },
    "estimator.final_s": ("s", "estimator.final_level_successes"),
    "estimator.final_calls": ("queries", "estimator.final_level_successes"),
    "estimator.hood_cache_hit_ratio": ("ratio", "estimator.seg_neighborhood"),
    **{
        f"instances.{kind}.l{i}": (unit, "estimator.check_extension")
        for i in CHECK_LEVELS
        for kind, unit in (
            ("check_extension_calls", "count"),
            ("check_extension_s", "s"),
            ("accept_ratio", "ratio"),
        )
    },
    "instances.seg_degree_calls": ("count", "estimator.seg_degree"),
    "instances.seg_degree_s": ("s", "estimator.seg_degree"),
    "instances.seg_neighborhood_calls": ("count", "estimator.seg_neighborhood"),
    "instances.seg_neighborhood_s": ("s", "estimator.seg_neighborhood"),
    **{
        f"oracle.{kind}.l{i}": (unit, "oracle.enumerate_instances")
        for i in ORACLE_LEVELS
        for kind, unit in (("enumerate_s", "s"), ("copies", "count"))
    },
    "oracle.assign_calls": ("count", "oracle.assign"),
    "oracle.assign_s": ("s", "oracle.assign"),
    "cli.experiment_s": ("s", None),
    "trace.overhead_pct": ("%", None),
    "trace.runs_per_s_overhead": ("1/s", None),
    "trace.trials_per_s_overhead": ("1/s", None),
    "trace.unattributed_pct": ("%", None),
    "trace.unaccounted_pct": ("%", None),
}
MISSING = -1.0  # value of a per-layer metric whose traced name no longer exists


class SetupError(RuntimeError):
    """The checkout does not hold the program, or the graph could not be made."""


@dataclass(slots=True)
class Run:
    seed: int
    seconds: float
    scaled: float = 0.0  # seconds at the reference speed (see Speed)
    error: str | None = None
    estimate: float = 0.0  # estimate workloads
    edge_total: float = 0.0  # the edge count the estimate used
    totals: dict | None = None  # exact workload: pattern -> count
    oracle_calls: int = 0
    trials: int = 0
    distinct: int = 0
    observed: float = 0.0
    observed_pct: float = 0.0
    ok: bool = False


# ---- host speed ----


class Speed:
    """Scales wall times to a fixed reference speed of the host.

    The host this was tuned on runs at speeds up to 1.8x apart, in spells of
    tenths of a second to minutes, so a wall time says as much about the
    host as about the program: over 15 s windows the best run time of
    ``deep-layers`` spread 0.30 and its median 0.13.  ``scale()`` times a
    fixed pure-Python kernel of dict look-ups and set intersections, the
    operations crawlcount spends its time in, as the best of CAL_BURSTS
    bursts (unless it did so less than CAL_STALE_S ago) and returns
    CAL_REF_S / that time.  A wall time multiplied by the mean of the
    factors taken just before and just after it reads as at the speed at
    which the kernel takes CAL_REF_S; the same windows of scaled times
    spread 0.06.  The kernel shares no code with the program, so a change
    to the program moves scaled times as it moves wall times.
    """

    def __init__(self) -> None:
        rng = Random(7)
        self.adj = {v: set(rng.sample(range(2000), 12)) for v in range(2000)}
        self.keys = [rng.randrange(2000) for _ in range(300)]
        self.at = -math.inf
        self.factor = 1.0

    def burst(self) -> float:
        adj = self.adj
        t0 = time.perf_counter()
        hits = 0
        for k in self.keys:
            a = adj[k]
            for w in a:
                if k in adj[w]:
                    hits += 1
            hits += len(a & adj[(k * 7) % 2000])
        return time.perf_counter() - t0

    def scale(self) -> float:
        now = time.perf_counter()
        if now - self.at >= CAL_STALE_S:
            self.factor = CAL_REF_S / min(self.burst() for _ in range(CAL_BURSTS))
            self.at = time.perf_counter()
        return self.factor


# ---- program, graph, setup ----


def import_program():
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "crawlcount", "__init__.py")):
        raise SetupError(f"no crawlcount sources under {src}")
    sys.path.insert(0, src)
    import crawlcount
    import crawlcount.cli

    return crawlcount


def graph_file(wl: Workload, size: str, seed: int) -> tuple[str, dict]:
    """Edge-list path and reference counts, generated once per workload and seed."""
    os.makedirs(CACHE, exist_ok=True)
    stem = f"{wl.name}-{size}-"
    # The generator's inputs are part of the name, so a changed workload
    # never reads a graph cached for its old definition.
    key = json.dumps([wl.kind, wl.params, wl.patterns, wl.graph_seed])
    path = os.path.join(CACHE, f"{stem}{zlib.crc32(key.encode()):08x}-{seed}.txt")
    if not (os.path.exists(path) and os.path.exists(path + ".ref.json")):
        cmd = [
            sys.executable, os.path.join(HERE, "graphs.py"),
            "--kind", wl.kind, "--params", json.dumps(list(wl.params)),
            "--patterns", ",".join(wl.patterns), "--out", path,
        ]
        if wl.graph_seed is None:
            cmd += ["--seed", str(seed)]
        else:
            cmd += ["--seed", str(wl.graph_seed), "--relabel", str(seed)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            raise SetupError(f"graph generation failed: {proc.stderr.strip()}")
        prune(CACHE, stem, ".txt", (".txt", ".txt.ref.json"))
    with open(path + ".ref.json", encoding="utf-8") as fh:
        return path, json.load(fh)


def prune(folder: str, prefix: str, ext: str, suffixes: tuple[str, ...]) -> None:
    """Keep the newest KEEP_FILES ``prefix*ext`` files, with their companions."""
    names = sorted(
        (f for f in os.listdir(folder) if f.startswith(prefix) and f.endswith(ext)),
        key=lambda f: os.path.getmtime(os.path.join(folder, f)),
    )
    for name in names[:-KEEP_FILES]:
        for suffix in suffixes:
            with contextlib.suppress(FileNotFoundError):
                os.remove(os.path.join(folder, name[: -len(ext)] + suffix))


def setup(cc, wl: Workload, path: str, times: list[float], speed: Speed, min_repeats: int = 1):
    """Load the graph and resolve the patterns; append each set-up's scaled time to ``times``.

    Repeats until ``min_repeats`` set-ups are done and this call has spent
    its share, one in ``wl.passes``, of SETUP_MIN_SECONDS.  Cheap set-ups
    also run once more before each later pass (see ``measure``), so that
    their median, like the run times, spans the host's fast and slow spells
    instead of one fraction of a second.
    """
    g = pats = None
    spent, done = 0.0, 0
    while done < min_repeats or spent < SETUP_MIN_SECONDS / wl.passes:
        g = pats = None
        gc.collect()
        before = speed.scale()
        t0 = time.perf_counter()
        g = cc.load_edge_list_path(path)
        pats = {name: cc.builtin_pattern(name) for name in wl.patterns}
        seconds = time.perf_counter() - t0
        spent += seconds
        times.append(seconds * (before + speed.scale()) / 2)
        done += 1
    return g, pats


# ---- runs ----


def make_runner(cc, wl: Workload, g, pats):
    if wl.exact:
        def run(seed: int, rec: Run) -> None:
            rec.totals = {name: cc.count_profile(g, p, seg).total for name, (p, seg) in pats.items()}
        return run

    (p, seg), = pats.values()

    def run(seed: int, rec: Run) -> None:
        res = cc.estimate_count(g, p, seg, estimate_config(cc, wl, seed))
        rec.estimate = res.estimate
        rec.edge_total = res.edge_total_used
        rec.oracle_calls = res.oracle_calls
        rec.trials = sum(d.trials for d in res.per_layer if d.level >= 3 and d.acceptance_rate is not None)
        rec.distinct = len(res.ledger.queried_vertices)
        rec.observed = res.edges_observed * g.edge_count
        rec.observed_pct = res.edges_observed * 100.0

    return run


def estimate_config(cc, wl: Workload, seed: int):
    return cc.EstimateConfig(
        layer_sizes=wl.layers,
        walk=cc.WalkConfig(length=wl.walk, burn_in=wl.burn_in),
        edge_count_mode="estimated-m" if wl.estimate_m else "exact-m",
        seed=seed,
    )


def timed_run(runner, seed: int, speed: Speed | None = None) -> Run:
    rec = Run(seed=seed, seconds=0.0)
    before = speed.scale() if speed is not None else 1.0
    t0 = time.perf_counter()
    try:
        runner(seed, rec)
    except Exception as e:  # a failed run is counted, the loop goes on
        rec.error = f"{type(e).__name__}: {e}"
    rec.seconds = time.perf_counter() - t0
    after = speed.scale() if speed is not None else 1.0
    rec.scaled = rec.seconds * (before + after) / 2
    return rec


def measure(runner, base: int, seconds: float, wl: Workload, speed: Speed,
            between=None) -> tuple[list[Run], list[Run], list[float]]:
    """Closed loop in ``wl.passes`` passes over the seeds base, base+1, ...

    Pass 1 runs new seeds for its share of ``seconds`` (at least
    ``wl.min_runs``); every later pass repeats them in the same order.
    Successive passes run pinned to successive CPUs of the process, because
    the slow spells of the host were seen to differ between its CPUs;
    ``between``, if given, is called untimed before each later pass.  If
    the check needs more distinct seeds than pass 1 ran, the missing ones
    run once each afterwards, untimed.  Returns every execution, the first
    execution of each seed (timed seeds first), and each timed seed's median
    scaled time.
    """
    first: list[Run] = []
    home = os.sched_getaffinity(0)
    cpus = sorted(home)
    try:
        os.sched_setaffinity(0, {cpus[0]})
        t0 = time.perf_counter()
        while len(first) < wl.min_runs or time.perf_counter() - t0 < seconds / wl.passes:
            first.append(timed_run(runner, base + len(first), speed))
        runs = list(first)
        for k in range(1, wl.passes):
            os.sched_setaffinity(0, {cpus[k % len(cpus)]})
            if between is not None:
                between()
            runs += [timed_run(runner, r.seed, speed) for r in first]
    finally:
        os.sched_setaffinity(0, home)
    n = len(first)
    typical = [statistics.median(runs[i + k * n].scaled for k in range(wl.passes))
               for i in range(n)]
    while len(first) < wl.check_seeds:
        first.append(timed_run(runner, base + len(first)))
        runs.append(first[-1])
    return runs, first, typical


# ---- correctness ----


def output(r: Run) -> tuple:
    return r.estimate, r.totals, r.oracle_calls


def check(wl: Workload, runs: list[Run], first: list[Run], refs: dict) -> str:
    """Mark each execution ok or not and describe the workload-level check.

    A repeated seed must reproduce its first output exactly.  Estimates must
    be finite and nonnegative.  Over the distinct seeds, the mean of each
    checked quantity must lie within SE_LIMIT standard errors and within TOL
    of its reference.  The quantities are the estimate at the true edge
    count, estimate * m / m_hat, against the reference count, and with
    ``estimated-m`` also m / m_hat against 1: both factors of the estimate
    have a mean known in advance, the estimate itself is too heavy-tailed
    to check on a few seeds.  The standard error takes the larger of the
    sample deviation and the workload's known per-run deviation, so that a
    small sample whose spread happens to be low cannot fail a correct
    program; ``wl.check_seeds`` makes the sample large enough that the
    floor alone cannot let an error of TOL through.
    """
    by_seed = {r.seed: output(r) for r in first}
    for r in runs:
        if r.error is not None:
            continue
        if wl.exact:
            r.ok = r.totals == {name: refs[name] for name in wl.patterns}
        else:
            r.ok = (math.isfinite(r.estimate) and r.estimate >= 0 and r.oracle_calls > 0
                    and r.edge_total > 0)
        r.ok = r.ok and output(r) == by_seed[r.seed]
    if wl.exact:
        return f"count_profile totals {first[0].totals} vs reference {refs}"
    valid = [r for r in first if r.ok]
    m = refs["edges"]
    quantities = [("estimate * m / m_hat", [r.estimate * m / r.edge_total for r in valid],
                   refs[wl.patterns[0]], wl.rel_sd)]
    if wl.estimate_m:
        quantities.append(("m / m_hat", [m / r.edge_total for r in valid], 1.0, wl.edge_rel_sd))
    notes, verdict = [], True
    for label, vals, ref, rel_sd in quantities:
        ok, note = mean_within(vals, ref, rel_sd, wl.check_seeds)
        verdict = verdict and ok
        notes.append(f"{label}: {note}" + ("" if ok else " FAILED"))
    if not verdict:
        for r in runs:
            r.ok = False
    return "; ".join(notes)


def mean_within(vals: list[float], ref: float, rel_sd: float, need: int) -> tuple[bool, str]:
    """Whether the mean of ``vals`` is within SE_LIMIT floored SEs and TOL of ``ref``."""
    if len(vals) < need:
        return False, f"only {len(vals)} valid seeds, the check needs {need}"
    mean = statistics.fmean(vals)
    se = max(statistics.stdev(vals), rel_sd * ref) / math.sqrt(len(vals))
    z = abs(mean - ref) / se if se > 0 else (0.0 if mean == ref else math.inf)
    off = abs(mean - ref) / ref
    return z <= SE_LIMIT and off <= TOL, (
        f"mean {mean:.4g} vs reference {ref:.4g} over {len(vals)} seeds, SE {se:.3g}, "
        f"|z| = {z:.2f} (limit {SE_LIMIT}), off by {off:.1%} (limit {TOL:.0%})"
    )


# ---- metrics ----


def tail(values_ms: list[float]) -> tuple[float, str]:
    """Highest listed percentile with at least ten samples beyond it, else the median."""
    xs = sorted(values_ms)
    n = len(xs)
    for q in TAIL_PERCENTILES:
        rank = math.ceil(q * n / 100)
        if n - rank >= TAIL_MIN_BEYOND:
            return xs[rank - 1], f"p{q} of {n} seeds"
    return statistics.median(xs), f"p50 of {n} seeds, too few for a higher percentile"


def summarize(wl: Workload, runs: list[Run], first: list[Run], typical: list[float],
              setup_times: list[float]) -> tuple[dict, dict]:
    """Every end-to-end number of one measurement, and a note for some of them."""
    ms = [t * 1000 for t in typical]
    tail_ms, tail_note = tail(ms)
    timed = first[: len(typical)]
    prefix = first[: wl.min_runs]
    failed = sum(not r.ok for r in runs)
    out = {
        "setup_s": statistics.median(setup_times),
        "runs_per_s": len(typical) / sum(typical),
        "run_ms_p50": statistics.median(ms),
        "run_ms_tail": tail_ms,
        "trials_per_s": sum(r.trials for r in timed) / sum(typical),
        "oracle_calls_per_run": statistics.fmean(r.oracle_calls for r in prefix),
        "exact_s": statistics.median(typical) if wl.exact else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "failed_frac": failed / len(runs),
    }
    notes = {
        "setup_s": f"median of {len(setup_times)} set-ups, scaled to the reference speed",
        "runs_per_s": (f"{len(typical)} seeds, each timed as the median of {wl.passes} passes, "
                       f"scaled to the reference speed; wall time per run "
                       f"{statistics.fmean(r.seconds for r in runs[: len(typical) * wl.passes]) * 1000:.4g} ms"
                       + (f"; {len(first) - len(typical)} more run once for the check"
                          if len(first) > len(typical) else "")),
        "run_ms_tail": tail_note,
        "oracle_calls_per_run": f"mean over the first {len(prefix)} seeds",
        "failed_frac": f"{failed} of {len(runs)} executions",
    }
    return out, notes


E2E_UNITS = {**END_TO_END, "trials_per_s": "1/s", "oracle_calls_per_run": "queries",
             "exact_s": "s", "failed_frac": "ratio"}


def untraced_layer_metrics(wl: Workload, runs: list[Run], summary: dict) -> dict:
    prefix = runs[: wl.min_runs]
    return {
        "estimator.trials_per_s": summary["trials_per_s"],
        "graph.oracle_calls_per_run": summary["oracle_calls_per_run"],
        "graph.distinct_queried_per_run": statistics.fmean(r.distinct for r in prefix),
        "graph.observed_edges_per_run": statistics.fmean(r.observed for r in prefix),
        "graph.edges_observed_pct": statistics.fmean(r.observed_pct for r in prefix),
        "oracle.exact_s": summary["exact_s"] or 0.0,
    }


def traced_layer_metrics(spans: list[tuple], n_runs: int, trials: int) -> dict:
    """Per-run sums of the traced spans, by the names in PER_LAYER."""
    acc: dict[tuple[str, object], list[float]] = {}  # (name, level) -> [n, s, calls, outcome]
    for s in spans:
        a = acc.setdefault((s[NAME], s[LEVEL]), [0, 0.0, 0, 0])
        a[0] += 1
        a[1] += s[END] - s[START]
        a[2] += s[CALLS]
        a[3] += s[OUTCOME] or 0

    def total(name: str, field: int, level=None, any_level: bool = True) -> float:
        return sum(
            v[field] for (nm, lv), v in acc.items() if nm == name and (any_level or lv == level)
        )

    def per_run(name: str, field: int, level=None) -> float:
        return total(name, field, level, level is None) / n_runs

    walk_s = total("estimator.simple_random_walk", 1)
    out = {
        "walk.walk_s": per_run("estimator.simple_random_walk", 1),
        "walk.walk_calls": per_run("estimator.simple_random_walk", 2),
        "walk.steps_per_s": total("estimator.simple_random_walk", 2) / walk_s if walk_s else 0.0,
        "walk.edgecount_s": per_run("estimator.estimate_edge_count", 1),
        "walk.edgecount_calls": per_run("estimator.estimate_edge_count", 2),
        "walk.edgecount_attempts": per_run("estimator.estimate_edge_count", 3),
        "estimator.level2_s": per_run("estimator.initial_layer", 1),
        "estimator.level2_calls": per_run("estimator.initial_layer", 2),
        "estimator.final_s": per_run("estimator.final_level_successes", 1),
        "estimator.final_calls": per_run("estimator.final_level_successes", 2),
        "estimator.hood_cache_hit_ratio": (
            1 - total("estimator.seg_neighborhood", 0) / trials if trials else 0.0
        ),
        "instances.seg_degree_calls": per_run("estimator.seg_degree", 0),
        "instances.seg_degree_s": per_run("estimator.seg_degree", 1),
        "instances.seg_neighborhood_calls": per_run("estimator.seg_neighborhood", 0),
        "instances.seg_neighborhood_s": per_run("estimator.seg_neighborhood", 1),
        "oracle.assign_calls": per_run("oracle.assign", 0),
        "oracle.assign_s": per_run("oracle.assign", 1),
    }
    for i in MIDDLE_LEVELS:
        out[f"estimator.level{i}_s"] = per_run(PHASE, 1, i)
        out[f"estimator.level{i}_calls"] = per_run(PHASE, 2, i)
    for i in CHECK_LEVELS:
        n = total("estimator.check_extension", 0, i, False)
        out[f"instances.check_extension_calls.l{i}"] = n / n_runs
        out[f"instances.check_extension_s.l{i}"] = per_run("estimator.check_extension", 1, i)
        out[f"instances.accept_ratio.l{i}"] = (
            total("estimator.check_extension", 3, i, False) / n if n else 0.0
        )
    for i in ORACLE_LEVELS:
        out[f"oracle.enumerate_s.l{i}"] = per_run("oracle.enumerate_instances", 1, i)
        out[f"oracle.copies.l{i}"] = per_run("oracle.enumerate_instances", 3, i)
    return out


# ---- modes ----


def untraced(wl: Workload, runner, base: int, seconds: float, setup_times, refs, speed: Speed,
             between=None) -> dict:
    runs, first, typical = measure(runner, base, seconds, wl, speed, between)
    note = check(wl, runs, first, refs)
    summary, notes = summarize(wl, runs, first, typical, setup_times)
    return {"runs": runs, "first": first, "check": note, "summary": summary, "notes": notes}


def cli_experiment(cc, wl: Workload, path: str, seed: int, ref: int) -> tuple[float, str]:
    """One in-process ``crawlcount experiment`` run; returns its time and CSV estimate."""
    os.makedirs(OUT, exist_ok=True)
    csv_path = os.path.join(OUT, f"cli-{wl.name}-{os.getpid()}.csv")
    argv = [
        "experiment", "--graph", path, "--pattern", wl.patterns[0],
        "--walk-len", str(wl.walk), "--reps", "1", "--seed", str(seed),
        "--layers", ",".join(map(str, wl.layers)), "--out", csv_path, "--exact-t", str(ref),
    ]
    if wl.burn_in is not None:
        argv += ["--burn-in", str(wl.burn_in)]
    if wl.estimate_m:
        argv.append("--estimate-m")
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            code = cc.cli.main(argv)
            seconds = time.perf_counter() - t0
        if code != 0:
            return seconds, f"exit code {code}"
        with open(csv_path, encoding="utf-8", newline="") as fh:
            return seconds, next(csv.DictReader(fh))["estimate"]
    finally:
        for p in (csv_path, os.path.splitext(csv_path)[0] + ".summary.csv"):
            with contextlib.suppress(FileNotFoundError):
                os.remove(p)


def traced(wl: Workload, runner, base: int, seconds: float, setup_times, refs, stem: str,
           speed: Speed, between=None) -> dict:
    """The untraced measurement, then its first seeds again with and without the tracer.

    For about half of ``seconds``, and for one seed at least, each seed runs
    four times without and four times with the tracer installed, in the
    order U T T U T U U T, pinned to one CPU, and each condition is timed
    by its best run in raw wall time.  The tracing overhead is the traced
    minus the untraced time.  The spans account for the run time if the time
    outside every top-level span is within that overhead;
    ``trace.unaccounted_pct`` is the excess, 0 when they do.
    """
    plain = untraced(wl, runner, base, seconds, setup_times, refs, speed, between)
    by_seed = {r.seed: r for r in plain["first"]}
    tracer = Tracer()
    t_origin = time.perf_counter()
    bare: list[Run] = []
    traced_runs: list[Run] = []
    home = os.sched_getaffinity(0)
    try:
        os.sched_setaffinity(0, {min(home)})
        for ref_run in plain["first"]:
            if traced_runs and time.perf_counter() - t_origin >= seconds / 2:
                break
            for with_tracer in (False, True, True, False, True, False, False, True):
                # Each run starts from a collected heap: a full collection
                # that an earlier run left due can cost crawl-1m 0.3-0.5 s.
                gc.collect()
                if not with_tracer:
                    bare.append(timed_run(runner, ref_run.seed))
                    continue
                tracer.install()
                tracer.begin_run(len(traced_runs))
                try:
                    traced_runs.append(timed_run(runner, ref_run.seed))
                finally:
                    tracer.end_run()
                    tracer.uninstall()
    finally:
        os.sched_setaffinity(0, home)
    for r in bare + traced_runs:
        a = by_seed[r.seed]
        r.ok = r.error is None and a.ok and output(a) == output(r)

    n = len(traced_runs)
    trials = sum(r.trials for r in traced_runs)

    def best_per_seed(rs: list[Run]) -> float:
        """Mean over the replayed seeds of each seed's best time."""
        best: dict[int, float] = {}
        for r in rs:
            best[r.seed] = min(best.get(r.seed, math.inf), r.seconds)
        return statistics.fmean(best.values())

    best_u = best_per_seed(bare)
    best_t = best_per_seed(traced_runs)
    top = sum(s[END] - s[START] for s in tracer.spans if s[PARENT] < 0)
    overhead = best_t - best_u
    unattributed = (sum(r.seconds for r in traced_runs) - top) / n

    layer = untraced_layer_metrics(wl, plain["first"], plain["summary"])
    layer.update(traced_layer_metrics(tracer.spans, n, trials))
    layer["trace.overhead_pct"] = overhead / best_u * 100
    layer["trace.runs_per_s_overhead"] = 1 / best_t - 1 / best_u
    layer["trace.trials_per_s_overhead"] = (trials / n) * (1 / best_t - 1 / best_u)
    layer["trace.unattributed_pct"] = unattributed / best_u * 100
    layer["trace.unaccounted_pct"] = max(unattributed - overhead, 0.0) / best_u * 100

    within = unattributed <= overhead
    notes = [
        f"traced {n} runs, {len(tracer.spans)} spans; tracing overhead {overhead:+.4f} s per run "
        f"({layer['trace.overhead_pct']:+.2f}%), time outside top-level spans {unattributed:.4f} s "
        f"({layer['trace.unattributed_pct']:.2f}%), so the spans account for the run time "
        + ("within" if within else "NOT within") + " the tracing overhead",
    ]
    for name in tracer.missing:
        notes.append(f"missing: {name} no longer exists; its metrics read {MISSING}")
    for metric, (_, source) in PER_LAYER.items():
        if source in tracer.missing:
            layer[metric] = MISSING
    os.makedirs(OUT, exist_ok=True)
    span_path = os.path.join(OUT, f"spans-{stem}.csv.gz")
    tracer.dump(span_path, t_origin)
    prune(OUT, f"spans-{wl.name}-", ".csv.gz", (".csv.gz",))
    notes.append(f"spans written to {os.path.relpath(span_path, ROOT)}")
    notes.extend(self_time_table(tracer, n))
    return {"runs": plain["runs"] + bare + traced_runs, "first": plain["first"],
            "check": plain["check"], "layer": layer, "notes": notes}


def self_time_table(tracer: Tracer, n_runs: int) -> list[str]:
    own = tracer.self_times()
    rows: dict[str, list[float]] = {}
    for s in tracer.spans:
        key = s[NAME] + ("" if s[LEVEL] is None else f"[l{s[LEVEL]}]")
        r = rows.setdefault(key, [0, 0.0])
        r[0] += 1
        r[1] += own[s[SID]]
    lines = ["self time per run by span (name[level]: calls, ms):"]
    for key, (cnt, sec) in sorted(rows.items(), key=lambda kv: -kv[1][1]):
        lines.append(f"  {key:44s} {cnt / n_runs:12.1f} {sec * 1000 / n_runs:12.3f}")
    return lines


# ---- entry point ----


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny runs the same code paths on small graphs (self-test)")
    ap.add_argument("--wrong-reference", action="store_true",
                    help="corrupt the reference pattern counts, to show that the check fails (self-test)")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    wl = (TINY if args.size == "tiny" else WORKLOADS)[args.workload]
    try:
        cc = import_program()
        path, refs = graph_file(wl, args.size, args.seed)
    except (SetupError, ImportError, OSError, subprocess.TimeoutExpired) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if args.wrong_reference:
        refs = {k: 3 * v + 7 if k in wl.patterns else v for k, v in refs.items()}
    setup_times: list[float] = []
    speed = Speed()
    g, pats = setup(cc, wl, path, setup_times, speed, wl.setup_repeats)
    cheap = statistics.median(setup_times) < SETUP_MIN_SECONDS / wl.passes
    between = (lambda: setup(cc, wl, path, setup_times, speed)) if cheap else None
    base = args.seed * 1_000_000
    print(f"workload={wl.name} size={args.size} seed={args.seed} graph={os.path.relpath(path, ROOT)} "
          f"n={g.vertex_count} m={g.edge_count} reference={refs}; closed loop, one client")
    runner = make_runner(cc, wl, g, pats)
    del g, pats  # the runner holds the graph; dropping it frees the graph for the CLI step
    if args.trace:
        stem = f"{wl.name}-{args.size}-{args.seed}"
        res = traced(wl, runner, base, args.seconds, setup_times, refs, stem, speed, between)
        del runner
        if not wl.exact:
            # The CLI loads the graph twice more; this process's copy is gone.
            gc.collect()
            seed0 = res["first"][0]
            cli_s, cli_est = cli_experiment(cc, wl, path, seed0.seed, refs[wl.patterns[0]])
            direct = f"{seed0.estimate:.6f}"
            res["runs"].append(Run(seed=seed0.seed, seconds=cli_s, ok=cli_est == direct))
            res["layer"]["cli.experiment_s"] = cli_s
            res["notes"].insert(1, f"cli experiment estimate {cli_est} vs estimate_count {direct}")
        metrics = {k: res["layer"].get(k, 0.0) for k in PER_LAYER}
        units = {k: u for k, (u, _) in PER_LAYER.items()}
    else:
        res = untraced(wl, runner, base, args.seconds, setup_times, refs, speed, between)
        summary = res["summary"]
        for name, unit in E2E_UNITS.items():
            v = summary[name]
            shown = "n/a" if v is None else f"{v:.6g}"
            print(f"{name:22s} {shown:>14s} {unit:6s} {res['notes'].get(name, '')}")
        metrics = {k: summary[k] for k in END_TO_END}
        units = END_TO_END
        res["notes"] = []
    runs = res["runs"]
    failed = sum(not r.ok for r in runs)
    print(f"check: {res['check']}")
    for r in runs:
        if r.error:
            print(f"run seed={r.seed} raised {r.error}")
            break
    for line in res["notes"]:
        print(line)
    if args.trace:
        for name, value in metrics.items():
            print(f"{name:44s} {value:14.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
