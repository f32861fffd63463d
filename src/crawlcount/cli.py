"""Command line harness: exact counts, single estimates, experiment sweeps.

Output is deterministic byte for byte given the same inputs and seeds:
rows are written with fixed float formatting, LF line endings, and no
timestamps.
"""

from __future__ import annotations

import argparse
import csv
import os
import statistics
import sys
from dataclasses import dataclass, replace
from typing import IO, Sequence

from .estimator import (
    EstimateConfig,
    EstimateResult,
    check_sizing_args,
    estimate_count,
    recommend_sample_sizes,
)
from .graph import Graph, QueryLedger, load_edge_list_path
from .oracle import (
    DEFAULT_BUDGET,
    EnumerationBudgetError,
    count_profile,
    degeneracy,
    exact_count,
)
from .patterns import (
    Pattern,
    Segmentation,
    builtin_names,
    builtin_pattern,
    load_pattern_path,
    require_feasible,
    validate_segmentation,
)
from .walk import (
    CollisionShortfallError,
    WalkConfig,
    check_collision_args,
    estimate_edge_count,
)

CSV_HEADER = [
    "run",
    "seed",
    "walk_len",
    "estimate",
    "exact",
    "rel_err_pct",
    "oracle_calls",
    "edges_observed_pct",
    "warnings",
]

SUMMARY_HEADER = [
    "walk_len",
    "runs",
    "median_rel_err_pct",
    "median_abs_rel_err_pct",
    "iqr_rel_err_pct",
    "median_edges_observed_pct",
]


@dataclass(frozen=True)
class RunRecord:
    """One estimation run as a CSV row."""

    run: int
    seed: int
    walk_len: int
    estimate: float
    exact: float | None
    rel_err_pct: float | None
    oracle_calls: int
    edges_observed_pct: float
    warnings: str

    def row(self) -> list[str]:
        return [
            str(self.run),
            str(self.seed),
            str(self.walk_len),
            f"{self.estimate:.6f}",
            "" if self.exact is None else f"{self.exact:.6f}",
            "" if self.rel_err_pct is None else f"{self.rel_err_pct:.6f}",
            str(self.oracle_calls),
            f"{self.edges_observed_pct:.4f}",
            self.warnings,
        ]


@dataclass
class ExperimentSpec:
    """A full sweep: repetitions at every walk length in the schedule.

    Checked when built, so before any graph work; ``layer_sizes`` stays None
    until they are sized from the graph.
    """

    walk_lengths: tuple[int, ...]
    repetitions: int = 100
    layer_sizes: tuple[int, ...] | None = None
    burn_in: int | None = None
    base_seed: int = 0
    out_path: str = "runs.csv"
    estimate_m: bool = False
    lazy_walk: bool = False
    exact_total: float | None = None
    budget: int = DEFAULT_BUDGET

    def __post_init__(self) -> None:
        if not self.walk_lengths:
            raise ValueError("experiment needs at least one walk length")
        if self.repetitions < 1:
            raise ValueError("experiment needs at least one repetition")
        if self.exact_total is not None and not self.exact_total >= 0:
            raise ValueError(f"exact total must be at least 0, not {self.exact_total}")
        for walk_len in self.walk_lengths:
            self.config(walk_len, self.base_seed)  # the runs' own checks

    def config(self, walk_len: int, seed: int) -> EstimateConfig:
        """The configuration of one run of the sweep."""
        walk = WalkConfig(walk_len, burn_in=self.burn_in, lazy=self.lazy_walk)
        mode = "estimated-m" if self.estimate_m else "exact-m"
        return EstimateConfig(self.layer_sizes or (), walk, mode, seed)


@dataclass(frozen=True)
class SummaryRecord:
    walk_len: int
    runs: int
    median_rel_err_pct: float | None
    median_abs_rel_err_pct: float | None
    iqr_rel_err_pct: float | None
    median_edges_observed_pct: float

    def row(self) -> list[str]:
        fmt = lambda x: "" if x is None else f"{x:.6f}"
        return [
            str(self.walk_len),
            str(self.runs),
            fmt(self.median_rel_err_pct),
            fmt(self.median_abs_rel_err_pct),
            fmt(self.iqr_rel_err_pct),
            f"{self.median_edges_observed_pct:.4f}",
        ]


def _record_from_result(
    run: int, seed: int, res: EstimateResult, exact: float | None
) -> RunRecord:
    rel = None
    if exact is not None and exact != 0:
        rel = (exact - res.estimate) * 100.0 / exact
    return RunRecord(
        run=run,
        seed=seed,
        walk_len=res.walk_length,
        estimate=res.estimate,
        exact=exact,
        rel_err_pct=rel,
        oracle_calls=res.oracle_calls,
        edges_observed_pct=res.edges_observed * 100.0,
        warnings="; ".join(res.warnings),
    )


def _pattern_args(args: argparse.Namespace) -> tuple[Pattern, Segmentation]:
    """The pattern the flags name, with the ``--c`` and ``--order`` overrides applied.

    Feasibility is left to the caller: ``validate`` reports it, the other
    commands stop on :func:`require_feasible`.
    """
    name, path = args.pattern, args.pattern_file
    order = None if args.order is None else tuple(int(t) for t in args.order.split(","))
    if (name is None) == (path is None):
        raise ValueError("give exactly one of a builtin pattern name or a pattern file")
    p, seg = builtin_pattern(name) if name is not None else load_pattern_path(path)
    if args.c is not None and args.c != p.slack:
        p = Pattern(p.size, p.edges, slack=args.c)
        seg = Segmentation(p, seg.order)
    if order is not None:
        seg = Segmentation(p, order)
    return p, seg


def _component_count(g: Graph) -> int:
    """Connected components with at least one edge, by unmetered search."""
    adj = g.raw_adjacency()
    seen: set[int] = set()
    count = 0
    for root, nbrs in enumerate(adj):
        if not nbrs or root in seen:
            continue
        count += 1
        seen.add(root)
        frontier = {root}
        while frontier:
            reached: set[int] = set()
            for v in frontier:
                reached.update(adj[v])
            frontier = reached - seen
            seen |= frontier
    return count


def _load_graph(path: str) -> Graph:
    """Load the graph file, warning when it has more than one component with edges."""
    g = load_edge_list_path(path)
    count = _component_count(g)
    if count > 1:
        print(
            f"warning: graph has {count} components with edges; the estimate "
            "covers only the component the walk starts in",
            file=sys.stderr,
        )
    return g


def run_experiment(
    spec: ExperimentSpec, g: Graph, p: Pattern, seg: Segmentation
) -> tuple[list[RunRecord], list[SummaryRecord]]:
    """Execute the sweep; returns per-run rows and per-walk-length medians."""
    if spec.layer_sizes is None:
        raise ValueError("experiment needs explicit layer sizes")
    exact: float | None = spec.exact_total
    if exact is None:
        try:
            exact = float(exact_count(g, p, budget=spec.budget))
        except EnumerationBudgetError as e:
            raise ValueError(
                f"exact count is out of reach ({e}); pass the known total instead"
            ) from None
    records: list[RunRecord] = []
    summaries: list[SummaryRecord] = []
    for walk_len in spec.walk_lengths:
        block: list[RunRecord] = []
        for j in range(spec.repetitions):
            seed = spec.base_seed + j
            res = estimate_count(g, p, seg, spec.config(walk_len, seed))
            block.append(_record_from_result(j, seed, res, exact))
        records.extend(block)
        rels = [r.rel_err_pct for r in block if r.rel_err_pct is not None]
        if rels:
            med = statistics.median(rels)
            med_abs = statistics.median(abs(x) for x in rels)
            if len(rels) >= 2:
                q = statistics.quantiles(rels, n=4, method="inclusive")
                iqr = q[2] - q[0]
            else:
                iqr = 0.0
        else:
            med = med_abs = iqr = None
        summaries.append(
            SummaryRecord(
                walk_len=walk_len,
                runs=len(block),
                median_rel_err_pct=med,
                median_abs_rel_err_pct=med_abs,
                iqr_rel_err_pct=iqr,
                median_edges_observed_pct=statistics.median(
                    r.edges_observed_pct for r in block
                ),
            )
        )
    return records, summaries


def _write_csv(path_or_handle, header: list[str], rows: list[list[str]]) -> None:
    def dump(fh: IO[str]) -> None:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)

    if hasattr(path_or_handle, "write"):
        dump(path_or_handle)
    else:
        with open(path_or_handle, "w", encoding="utf-8", newline="") as fh:
            dump(fh)


def summary_path(out_path: str) -> str:
    stem, _ = os.path.splitext(out_path)
    return stem + ".summary.csv"


# ---- subcommands ----


def cmd_exact(args: argparse.Namespace) -> int:
    p, seg = _pattern_args(args)
    require_feasible(p, seg)
    g = load_edge_list_path(args.graph)
    profile = count_profile(g, p, seg, budget=args.budget)
    print(f"T={profile.total}")
    for i in range(2, p.size + 1):
        print(
            f"level={i} copies={profile.per_level_counts[i]} "
            f"f_max={profile.f_max_per_level[i]}"
        )
    print(f"F_max={profile.f_max}")
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    p, seg = _pattern_args(args)
    label = args.pattern if args.pattern is not None else args.pattern_file
    report = validate_segmentation(p, seg)
    print(f"pattern={label} size={p.size} edges={len(p.edges)} declared_slack={p.slack}")
    print("order=" + ",".join(str(v) for v in seg.order))
    if not report.ok:
        levels = ",".join(str(i) for i in report.disconnected_levels)
        print("min_slack=none")
        print(f"verdict=disconnected-levels-{levels}")
        return 1
    print(f"min_slack={report.min_slack}")
    if report.min_slack > p.slack:
        print(f"verdict=needs-slack-{report.min_slack}")
        return 1
    try:
        require_feasible(p, seg)
    except ValueError:
        # Connected levels and enough declared slack: what is left is a
        # slack the sampler cannot reach.
        print(f"verdict=unsupported-slack-{p.slack}")
        return 1
    print("verdict=ok")
    return 0


def cmd_estimate(args: argparse.Namespace) -> int:
    p, seg = _pattern_args(args)
    require_feasible(p, seg)
    spec = _run_spec(args, p, (args.walk_len,), repetitions=1)
    g = _load_graph(args.graph)
    spec = _sized(spec, g, p, args)
    res = estimate_count(g, p, seg, spec.config(args.walk_len, args.seed))
    rec = _record_from_result(0, args.seed, res, None)
    _write_csv(sys.stdout, CSV_HEADER, [rec.row()])
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    p, seg = _pattern_args(args)
    require_feasible(p, seg)
    spec = _run_spec(
        args, p, tuple(args.walk_len), repetitions=args.reps, out_path=args.out,
        exact_total=args.exact_t, budget=args.budget,
    )
    g = _load_graph(args.graph)
    records, summaries = run_experiment(_sized(spec, g, p, args), g, p, seg)
    _write_csv(spec.out_path, CSV_HEADER, [r.row() for r in records])
    _write_csv(summary_path(spec.out_path), SUMMARY_HEADER, [s.row() for s in summaries])
    _write_csv(sys.stdout, SUMMARY_HEADER, [s.row() for s in summaries])
    return 0


def cmd_edgecount(args: argparse.Namespace) -> int:
    check_collision_args(args.samples, args.gap, args.burn_in)
    g = _load_graph(args.graph)
    ledger = QueryLedger()
    est = estimate_edge_count(
        g,
        ledger,
        samples=args.samples,
        spacing=args.gap,
        seed=args.seed,
        burn_in=args.burn_in,
    )
    print(f"m_true={g.edge_count}")
    print(f"m_hat={est.edge_estimate:.6f}")
    print(f"samples={est.samples_used}")
    print(f"collisions={est.collisions}")
    print(f"attempts={est.attempts}")
    print(f"oracle_calls={ledger.oracle_calls}")
    return 0


# ---- argument plumbing ----


def _run_spec(
    args: argparse.Namespace, p: Pattern, walk_lengths: tuple[int, ...], **fields
) -> ExperimentSpec:
    """The run flags as a sweep, checked before the graph is loaded.

    Without ``--layers`` its sizes are None until :func:`_sized` sets them,
    but the flags that size them are checked here all the same.
    """
    sizes = None
    if args.layers is not None:
        sizes = tuple(int(t) for t in args.layers.split(","))
        if len(sizes) != p.size - 2:
            raise ValueError(
                f"--layers needs {p.size - 2} values l_3..l_{p.size} for this pattern"
            )
    elif _t_guess(args) is None:
        raise ValueError("auto layer sizing needs --t-guess or --exact-t")
    spec = ExperimentSpec(
        walk_lengths=walk_lengths,
        layer_sizes=sizes,
        burn_in=args.burn_in,
        base_seed=args.seed,
        estimate_m=args.estimate_m,
        lazy_walk=args.lazy_walk,
        **fields,
    )
    if sizes is None:
        check_sizing_args(args.epsilon, _t_guess(args), args.fmax_guess)
        if args.max_layer < 1:
            raise ValueError(f"--max-layer must be at least 1, not {args.max_layer}")
    return spec


def _t_guess(args: argparse.Namespace) -> float | None:
    return args.t_guess if args.t_guess is not None else getattr(args, "exact_t", None)


def _sized(spec: ExperimentSpec, g: Graph, p: Pattern, args: argparse.Namespace) -> ExperimentSpec:
    """``spec`` with its layers sized from the graph unless ``--layers`` gave them."""
    if spec.layer_sizes is not None:
        return spec
    rec = recommend_sample_sizes(
        n=g.vertex_count, m=g.edge_count, alpha=degeneracy(g).value, c=p.slack, k=p.size,
        eps=args.epsilon, t_guess=_t_guess(args), fmax_guess=args.fmax_guess,
    )
    sizes = tuple(min(args.max_layer, rec.layer_sizes[i]) for i in range(3, p.size + 1))
    return replace(spec, layer_sizes=sizes)


def _add_pattern_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--pattern", help="builtin pattern name: " + ", ".join(builtin_names()))
    sp.add_argument("--pattern-file", help="pattern description file")
    sp.add_argument("--c", type=int, default=None, help="override the pattern's slack")
    sp.add_argument("--order", default=None, help="insertion order override, e.g. 0,1,2,3")


def _add_estimate_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--burn-in", type=int, default=None, help="walk burn-in steps")
    sp.add_argument("--layers", default=None, help="trial counts l3,l4,... per layer")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--estimate-m", action="store_true", help="estimate the edge count instead of reading it")
    sp.add_argument("--lazy-walk", action="store_true", help="lazy walk (stay put with probability 1/2)")
    sp.add_argument("--epsilon", type=float, default=0.5, help="accuracy knob for auto layer sizing")
    sp.add_argument("--t-guess", type=float, default=None, help="count guess for auto layer sizing")
    sp.add_argument("--fmax-guess", type=float, default=1.0, help="chain concentration guess for auto sizing")
    sp.add_argument("--max-layer", type=int, default=100_000, help="cap for auto-sized layers")


BUDGET_HELP = (
    "cap on the exact side's extension checks (one per parent and vertex of its "
    "representative neighborhood, so the sum of seg-degrees over each level)"
)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="crawlcount",
        description="Estimate clique and near-clique counts through a metered neighborhood oracle.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("exact", help="enumerate and count exactly")
    sp.add_argument("--graph", required=True)
    _add_pattern_flags(sp)
    sp.add_argument("--budget", type=int, default=DEFAULT_BUDGET, help=BUDGET_HELP)
    sp.set_defaults(func=cmd_exact)

    sp = sub.add_parser("validate", help="report the minimal slack of a segmentation")
    _add_pattern_flags(sp)
    sp.set_defaults(func=cmd_validate)

    sp = sub.add_parser("estimate", help="one estimation run, printed as a CSV row")
    sp.add_argument("--graph", required=True)
    _add_pattern_flags(sp)
    sp.add_argument("--walk-len", type=int, required=True)
    _add_estimate_flags(sp)
    sp.set_defaults(func=cmd_estimate)

    sp = sub.add_parser("experiment", help="repeated runs over a walk-length schedule")
    sp.add_argument("--graph", required=True)
    _add_pattern_flags(sp)
    sp.add_argument(
        "--walk-len",
        type=lambda s: [int(t) for t in s.split(",")],
        required=True,
        help="schedule r1,r2,...",
    )
    sp.add_argument("--reps", type=int, default=100)
    sp.add_argument("--out", required=True, help="CSV output path")
    sp.add_argument("--exact-t", type=float, default=None, help="known exact count")
    sp.add_argument("--budget", type=int, default=DEFAULT_BUDGET, help=BUDGET_HELP)
    _add_estimate_flags(sp)
    sp.set_defaults(func=cmd_experiment)

    sp = sub.add_parser("edgecount", help="estimate the edge count by collisions")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--samples", type=int, default=600)
    sp.add_argument("--gap", type=int, default=10)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--burn-in", type=int, default=None)
    sp.set_defaults(func=cmd_edgecount)

    return ap


def main(argv: Sequence[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, EnumerationBudgetError, CollisionShortfallError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
