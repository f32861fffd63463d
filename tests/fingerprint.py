"""Identity fingerprint of fixed-seed outputs, checked against a golden file.

For a fixed corpus of graphs, patterns, edge-count modes and seeds this
records what a change that claims identical outputs must leave alone:

- per estimation run: the estimate (repr), successes, oracle calls, a hash
  of the sorted queried-vertex set, ``edges_observed`` (repr) and each
  layer's (level, size, total_degree, trials), or the error it raised;
- per exact count: the total and the per-level copy counts of
  ``count_profile``, and a hash of each level's chain-count table from the
  reference tally (``util.reference_tally``);
- per CLI command: the exit code and hashes of stdout, stderr and any CSV
  it wrote.

Usage, from the root of a checkout, to rewrite the golden file:

    PYTHONPATH=src python tests/fingerprint.py

``tests/test_fingerprint.py`` runs the comparison in the tier-1 suite.  A
change that moves an output on purpose rewrites the golden file with this
script and says so; the file's diff, one entry per line, then shows which
entries moved.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from crawlcount import (
    CollisionShortfallError,
    EstimateConfig,
    WalkConfig,
    builtin_pattern,
    count_profile,
    estimate_count,
    parse_pattern,
)
from crawlcount.cli import main as cli_main

import util

GOLDEN = Path(__file__).resolve().parent / "fingerprint.json"

C4_PATTERN = "4 1\n0 1\n1 2\n2 3\n0 3\n"
PATTERNS = ("g33", "g45", "g46", "g59", "g510", "c4")
MODES = ("exact-m", "estimated-m")


def _pattern(name: str):
    if name == "c4":
        return parse_pattern(io.StringIO(C4_PATTERN))
    return builtin_pattern(name)


def _digest(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()[:16]


def corpus() -> list[tuple[str, object, int, tuple[int, ...]]]:
    """(name, graph, walk length, seeds): the acceptance graphs and three larger ones."""
    small = [(name, g, 30, (0, 1)) for name, g in util.acceptance_corpus()]
    return small + [
        ("er60", util.er_graph(60, 0.15, 1), 150, (0, 1, 2)),
        ("hk300", util.hk_graph(300, 5, 0.8, 1), 300, (0, 1, 2)),
        ("pa2000", util.pa_graph(2000, 3, 8), 400, (0, 1)),
    ]


def _run(g, p, seg, mode: str, seed: int, walk: int) -> dict:
    cfg = EstimateConfig(
        layer_sizes=[walk] * (p.size - 2),
        walk=WalkConfig(length=walk, burn_in=10),
        edge_count_mode=mode,
        seed=seed,
    )
    try:
        res = estimate_count(g, p, seg, cfg)
    except (ValueError, CollisionShortfallError) as e:
        return {"error": f"{type(e).__name__}: {e}"}
    queried = ",".join(map(str, sorted(res.ledger.queried_vertices)))
    return {
        "estimate": repr(res.estimate),
        "successes": res.successes,
        "oracle_calls": res.oracle_calls,
        "queried": _digest(queried),
        "edges_observed": repr(res.edges_observed),
        "layers": [[d.level, d.size, d.total_degree, d.trials] for d in res.per_layer],
        "warnings": res.warnings,
    }


def _profile(g, p, seg) -> dict:
    prof = count_profile(g, p, seg)
    tables = util.reference_tally(g, p, seg, p.size)[1]
    return {
        "total": prof.total,
        "counts": [prof.per_level_counts[i] for i in sorted(prof.per_level_counts)],
        "f_tables": [_digest(repr(sorted(tables[i].items()))) for i in sorted(tables)],
    }


def _cli(tmp: Path) -> dict:
    graph = tmp / "er60.txt"
    g = util.er_graph(60, 0.15, 1)
    graph.write_text(
        f"# n={g.vertex_count}\n" + "".join(f"{u} {v}\n" for u, v in util.edges(g))
    )
    pattern = tmp / "c4.pat"
    pattern.write_text(C4_PATTERN)
    gf = ["--graph", str(graph)]
    commands = {
        "exact": ["exact", *gf, "--pattern", "g45"],
        "exact-file": ["exact", *gf, "--pattern-file", str(pattern)],
        "validate": ["validate", "--pattern", "g59", "--order", "4,3,2,1,0"],
        "estimate": ["estimate", *gf, "--pattern", "g46", "--walk-len", "200",
                     "--layers", "300,300", "--seed", "3"],
        "estimate-auto": ["estimate", *gf, "--pattern", "g33", "--walk-len", "150",
                          "--t-guess", "50", "--max-layer", "400", "--estimate-m"],
        "experiment": ["experiment", *gf, "--pattern", "g45", "--walk-len", "60,120",
                       "--reps", "3", "--layers", "100,100", "--seed", "5",
                       "--out", str(tmp / "runs.csv")],
        "edgecount": ["edgecount", *gf, "--samples", "300", "--gap", "4", "--seed", "2"],
    }
    out = {}
    for name, argv in commands.items():
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli_main(argv)
        entry = {"code": code, "stdout": _digest(stdout.getvalue()), "stderr": _digest(stderr.getvalue())}
        for csv_path in sorted(tmp.glob("*.csv")):
            entry[csv_path.name] = _digest(csv_path.read_bytes())
            csv_path.unlink()
        out[f"cli/{name}"] = entry
    return out


def compute() -> dict[str, dict]:
    """Every fingerprint entry, keyed by what it describes."""
    out: dict[str, dict] = {}
    for gname, g, walk, seeds in corpus():
        for pname in PATTERNS:
            p, seg = _pattern(pname)
            out[f"exact/{gname}/{pname}"] = _profile(g, p, seg)
            for mode in MODES:
                for seed in seeds:
                    out[f"run/{gname}/{pname}/{mode}/{seed}"] = _run(g, p, seg, mode, seed, walk)
    with tempfile.TemporaryDirectory() as tmp:
        out.update(_cli(Path(tmp)))
    return out


def dumps(fp: dict[str, dict]) -> str:
    """One entry per line, so that a diff of the golden file names what moved."""
    lines = [f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(fp.items())]
    return "{\n" + ",\n".join(lines) + "\n}\n"


def differences(got: dict[str, dict], want: dict[str, dict]) -> list[str]:
    """The keys whose entries differ, are missing, or are new."""
    return sorted(k for k in got.keys() | want.keys() if got.get(k) != want.get(k))


def main() -> int:
    fp = compute()
    GOLDEN.write_text(dumps(fp), encoding="utf-8")
    print(f"wrote {len(fp)} entries to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
