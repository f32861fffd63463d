"""Self-test of the benchmark: every workload at a tiny size, every metric named.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import graphs  # noqa: E402
import run  # noqa: E402

import crawlcount as cc  # noqa: E402

SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def result(*args: str) -> dict:
    proc = bench(*args)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tiny(workload: str, trace: int, *extra: str, seconds: float = 0.3) -> dict:
    return result("--workload", workload, "--seed", "3", "--seconds", str(seconds),
                  "--trace", str(trace), "--size", "tiny", *extra)


def test_spec_matches_the_benchmark():
    assert set(WORKLOADS) == set(run.WORKLOADS) == set(run.TINY)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
        k: unit for k, (unit, _) in run.PER_LAYER.items()
    }


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_and_correct(workload, trace):
    out = tiny(workload, trace)
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert set(out["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = out["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        if trace:
            assert got["value"] != run.MISSING, m["name"]
        else:
            assert got["value"] > 0, m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wrong_reference_fails_every_run(workload):
    out = tiny(workload, 0, "--wrong-reference", seconds=1.0)
    assert not out["correct"]
    assert out["failed"] == out["attempted"]


@pytest.mark.parametrize("workload", [w for w in WORKLOADS if not run.WORKLOADS[w].exact])
def test_check_resolves_errors_at_full_size(workload):
    """The full-size check, on its own sample size, fails estimates off by more than TOL.

    Each synthetic sample has the workload's known per-run deviation
    around ``factor`` times the truth, and ``edge_factor`` times the true
    edge count as m_hat.
    """
    wl = run.WORKLOADS[workload]
    ref, m = 1000, 5000
    refs = {wl.patterns[0]: ref, "edges": m}

    def passes(factor: float, edge_factor: float = 1.0) -> bool:
        runs = []
        for i in range(wl.check_seeds):
            wobble = wl.rel_sd * (1 if i % 2 else -1) * factor
            runs.append(run.Run(seed=i, seconds=0.0, oracle_calls=1, edge_total=m * edge_factor,
                                estimate=(factor + wobble) * ref * edge_factor))
        run.check(wl, runs, runs, refs)
        assert len({r.ok for r in runs}) == 1
        return runs[0].ok

    assert passes(1.0)
    assert passes(0.8) and passes(1.2)
    for factor in (0.0, 0.45, 1 / 3, 1.6):
        assert not passes(factor), factor
    if wl.estimate_m:
        assert passes(1.0, 1.3)
        assert not passes(1.0, 2.5)


def test_oracle_calls_repeat_exactly():
    a = tiny("crawl-1m", 1)["metrics"]["graph.oracle_calls_per_run"]["value"]
    b = tiny("crawl-1m", 1)["metrics"]["graph.oracle_calls_per_run"]["value"]
    assert a == b > 0


def test_reference_counts_match_exact_count():
    cases = [
        ("hk", (150, 4, 0.7), 3, ("g33", "g45", "g59")),
        ("er", (30, 0.25), 5, ("g33", "g45", "g59")),
        ("pa", (200, 3), 2, ("g33", "g45")),
    ]
    for kind, params, seed, names in cases:
        edges = graphs.GENERATORS[kind](*params, seed)
        g = cc.Graph(params[0], edges)
        ref = graphs.reference_counts(params[0], edges, list(names))
        assert ref == {k: cc.exact_count(g, cc.builtin_pattern(k)[0]) for k in names}
        assert min(ref.values()) > 0


def test_missing_traced_name_is_reported_not_fatal(monkeypatch, capsys):
    import crawlcount.oracle

    monkeypatch.delattr(crawlcount.oracle, "assign")
    assert run.main(["--workload", "sweep-small", "--seed", "3", "--seconds", "0.1",
                     "--trace", "1", "--size", "tiny"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    out = json.loads(lines[-1])
    assert out["correct"]
    assert out["metrics"]["oracle.assign_s"]["value"] == run.MISSING
    assert out["metrics"]["oracle.assign_calls"]["value"] == run.MISSING
    assert out["metrics"]["walk.walk_s"]["value"] > 0
    assert any(line.startswith("missing: oracle.assign") for line in lines)


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".cache", "out", "__pycache__"))
    proc = bench("--workload", "sweep-small", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
