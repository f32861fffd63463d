import csv
import io
import statistics
import subprocess
import sys
from itertools import permutations

import pytest

from crawlcount import (
    EstimateConfig,
    Graph,
    Pattern,
    QueryLedger,
    Segmentation,
    WalkConfig,
    builtin_names,
    builtin_pattern,
    estimate_count,
    estimate_edge_count,
    load_edge_list_path,
    require_feasible,
)
from crawlcount import cli
from crawlcount.cli import (
    CSV_HEADER,
    SUMMARY_HEADER,
    ExperimentSpec,
    main,
    run_experiment,
    summary_path,
)

import util

BOWTIE_TXT = "# n=5\n0 1\n0 2\n1 2\n2 3\n2 4\n3 4\n"
K4_TXT = "# n=4\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n"
FIVE_CYCLE_PATTERN = "5 2\n0 1\n1 2\n2 3\n3 4\n0 4\n"
DIAMOND_PATTERN = "4 1\norder 0 1 2 3\n0 1\n0 2\n0 3\n1 2\n1 3\n"
TRIANGLE_PATTERN = "3 0\n0 1\n1 2\n0 2\n"
# Two disjoint triangles and the isolated vertex 3.
TWO_TRIANGLES_TXT = "# n=7\n0 1\n0 2\n1 2\n4 5\n4 6\n5 6\n"


@pytest.fixture
def bowtie_file(tmp_path):
    p = tmp_path / "bowtie.txt"
    p.write_text(BOWTIE_TXT)
    return str(p)


@pytest.fixture
def k4_file(tmp_path):
    p = tmp_path / "k4.txt"
    p.write_text(K4_TXT)
    return str(p)


class TestExact:
    def test_bowtie_triangles(self, bowtie_file, capsys):
        assert main(["exact", "--graph", bowtie_file, "--pattern", "g33"]) == 0
        out = capsys.readouterr().out
        assert out == (
            "T=2\n"
            "level=2 copies=6 f_max=1\n"
            "level=3 copies=2 f_max=1\n"
            "F_max=1\n"
        )

    def test_k4_cliques(self, k4_file, capsys):
        assert main(["exact", "--graph", k4_file, "--pattern", "g46"]) == 0
        out = capsys.readouterr().out
        assert "T=1\n" in out
        assert "level=4 copies=1 f_max=1" in out

    def test_slack_override_applies_before_file_feasibility(self, tmp_path, capsys):
        # The file alone is infeasible (slack 0 declared, 1 needed); --c 1
        # must rescue it exactly as it would the builtin g45.
        gf = tmp_path / "g.txt"
        gf.write_text(BOWTIE_TXT + "0 3\n")
        pf = tmp_path / "diamond0.pat"
        pf.write_text(DIAMOND_PATTERN.replace("4 1", "4 0", 1))
        common = ["exact", "--graph", str(gf), "--c", "1"]
        assert main([*common, "--pattern", "g45"]) == 0
        builtin = capsys.readouterr().out
        assert main([*common, "--pattern-file", str(pf)]) == 0
        from_file = capsys.readouterr().out
        assert from_file.startswith("T=2\n")
        assert from_file == builtin
        assert main(["exact", "--graph", str(gf), "--pattern-file", str(pf)]) == 2
        assert "needs slack 1, pattern declares 0" in capsys.readouterr().err

    def test_budget_exhaustion_reports_error(self, k4_file, capsys):
        code = main(
            ["exact", "--graph", k4_file, "--pattern", "g33", "--budget", "2"]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestValidate:
    def test_builtin_ok(self, capsys):
        assert main(["validate", "--pattern", "g45"]) == 0
        out = capsys.readouterr().out
        assert "size=4 edges=5 declared_slack=1" in out
        assert "order=0,1,2,3" in out
        assert "min_slack=1" in out
        assert "verdict=ok" in out

    def test_slack_override_flags_shortfall(self, capsys):
        assert main(["validate", "--pattern", "g45", "--c", "0"]) == 1
        out = capsys.readouterr().out
        assert "verdict=needs-slack-1" in out

    def test_pattern_file_five_cycle(self, tmp_path, capsys):
        # C5 needs slack 2 and declares it, which the sampler cannot reach
        pf = tmp_path / "c5.pat"
        pf.write_text(FIVE_CYCLE_PATTERN)
        assert main(["validate", "--pattern-file", str(pf)]) == 1
        out = capsys.readouterr().out
        assert "min_slack=2" in out
        assert out.endswith("verdict=unsupported-slack-2\n")

    @pytest.mark.parametrize(
        "text, line",
        [("3 0\norder 0 1 x\n0 1\n1 2\n0 2\n", "order line 'order 0 1 x'"),
         ("3 0\n0 1\n1 y\n0 2\n", "edge line '1 y'")],
        ids=["order", "edge"],
    )
    def test_non_integer_token_names_its_line(self, tmp_path, capsys, text, line):
        pf = tmp_path / "bad.pat"
        pf.write_text(text)
        assert main(["validate", "--pattern-file", str(pf)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: bad {line}\n"

    def test_disconnected_order_reported(self, tmp_path, capsys):
        pf = tmp_path / "path.pat"
        pf.write_text("4 2\norder 0 2 1 3\n0 1\n1 2\n2 3\n")
        assert main(["validate", "--pattern-file", str(pf)]) == 1
        out = capsys.readouterr().out
        assert "min_slack=none" in out
        assert "verdict=disconnected-levels-2" in out

    def test_order_override_is_honoured(self, capsys):
        assert main(["validate", "--pattern", "g45", "--order", "2,0,3,1"]) == 0
        assert capsys.readouterr().out == (
            "pattern=g45 size=4 edges=5 declared_slack=1\n"
            "order=2,0,3,1\n"
            "min_slack=1\n"
            "verdict=ok\n"
        )
        # g45 lacks the edge 2-3, so an order starting 2,3 has a bare level 2
        assert main(["validate", "--pattern", "g45", "--order", "2,3,0,1"]) == 1
        out = capsys.readouterr().out
        assert "order=2,3,0,1\n" in out
        assert out.endswith("verdict=disconnected-levels-2\n")

    @pytest.mark.parametrize("order", ["0,0,1,2", "0,1,2", "0,1,2,4"])
    def test_non_permutation_order_is_one_error_line(self, order, capsys):
        assert main(["validate", "--pattern", "g45", "--order", order]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error:") and out.err.count("\n") == 1
        assert "permutation" in out.err

    def test_non_integer_order_names_the_flag_and_token(self, capsys):
        assert main(["validate", "--pattern", "g45", "--order", "0,1,,3"]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "error: --order: '' in '0,1,,3' is not an integer\n"

    def test_slack_two_is_unsupported(self, capsys):
        # g45 needs only slack 1, but a declared 2 is out of the sampler's reach
        assert main(["validate", "--pattern", "g45", "--c", "2"]) == 1
        assert capsys.readouterr().out == (
            "pattern=g45 size=4 edges=5 declared_slack=2\n"
            "order=0,1,2,3\n"
            "min_slack=1\n"
            "verdict=unsupported-slack-2\n"
        )

    def test_disconnected_and_short_slack_verdicts_come_first(self, tmp_path, capsys):
        # Both patterns declare slack 2, which is unsupported; the older
        # verdicts still take precedence.
        c5 = tmp_path / "c5.pat"
        c5.write_text(FIVE_CYCLE_PATTERN)
        assert main(["validate", "--pattern-file", str(c5), "--order", "0,2,1,3,4"]) == 1
        assert capsys.readouterr().out.endswith("verdict=disconnected-levels-2\n")
        star = tmp_path / "star.pat"
        star.write_text("5 2\n0 1\n0 2\n0 3\n0 4\n")
        assert main(["validate", "--pattern-file", str(star)]) == 1
        assert capsys.readouterr().out.endswith("min_slack=3\nverdict=needs-slack-3\n")


# the path P4, the cycle C5 and the star K1,4: connected, but none has an
# order of slack at most 1
SHAPES = {
    "p4": (4, [(0, 1), (1, 2), (2, 3)]),
    "c5": (5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]),
    "star": (5, [(0, 1), (0, 2), (0, 3), (0, 4)]),
}


def error_for(verdict: str, declared: int) -> str:
    """The ``error:`` line that goes with one of ``validate``'s failing verdicts."""
    kind, _, arg = verdict.rpartition("-")
    if kind == "disconnected-levels":
        levels = tuple(int(t) for t in arg.split(","))
        return f"error: segmentation has disconnected levels {levels}\n"
    if kind == "needs-slack":
        return f"error: segmentation needs slack {arg}, pattern declares {declared}\n"
    assert kind == "unsupported-slack" and int(arg) == declared >= 2, verdict
    return (
        "error: slack >= 2 is outside the sampler's reach: a 2-vertex instance "
        "has no representative subset of that size\n"
    )


class TestOneLadder:
    """``validate`` and the commands that stop on :func:`require_feasible`
    give one judgement of every order, at declared slack 0, 1 and 2."""

    def check(self, flags, p, bowtie_file, capsys):
        verdicts = set()
        for order in permutations(range(p.size)):
            argv = flags + ["--order", ",".join(map(str, order))]
            code = main(["validate"] + argv)
            verdict = capsys.readouterr().out.splitlines()[-1].removeprefix("verdict=")
            try:
                require_feasible(p, Segmentation(p, order))
                feasible = True
            except ValueError:
                feasible = False
            assert (code == 0) == feasible == (verdict == "ok"), (flags, order, verdict)
            if not feasible:
                assert code == 1
                assert main(["exact", "--graph", bowtie_file] + argv) == 2
                out = capsys.readouterr()
                assert out.out == ""
                assert out.err == error_for(verdict, p.slack), (flags, order)
            verdicts.add(verdict.rstrip("0123456789,"))
        return verdicts

    @pytest.mark.parametrize("name", builtin_names())
    def test_builtin_orders(self, name, bowtie_file, capsys):
        base, _ = builtin_pattern(name)
        verdicts = set()
        for c in (0, 1, 2):
            p = Pattern(base.size, base.edges, slack=c)
            verdicts |= self.check(["--pattern", name, "--c", str(c)], p, bowtie_file, capsys)
        assert {"ok", "unsupported-slack-"} <= verdicts

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_shapes_beyond_reach(self, shape, tmp_path, bowtie_file, capsys):
        size, edges = SHAPES[shape]
        verdicts = set()
        for c in (0, 1, 2):
            pf = tmp_path / f"{shape}{c}.pat"
            pf.write_text(f"{size} {c}\n" + "".join(f"{a} {b}\n" for a, b in edges))
            p = Pattern(size, edges, slack=c)
            verdicts |= self.check(["--pattern-file", str(pf)], p, bowtie_file, capsys)
        assert "ok" not in verdicts
        assert {"disconnected-levels-", "needs-slack-"} <= verdicts

    def test_disconnected_path_order_names_its_level(self, tmp_path, bowtie_file, capsys):
        pf = tmp_path / "path.pat"
        pf.write_text("4 2\norder 0 2 1 3\n0 1\n1 2\n2 3\n")
        assert main(["exact", "--graph", bowtie_file, "--pattern-file", str(pf)]) == 2
        assert capsys.readouterr().err == "error: segmentation has disconnected levels (2,)\n"


class TestEstimate:
    def run_cli(self, args, capsys):
        code = main(args)
        out = capsys.readouterr().out
        return code, out

    def test_csv_row_matches_library(self, bowtie_file, capsys):
        args = [
            "estimate", "--graph", bowtie_file, "--pattern", "g33",
            "--walk-len", "40", "--burn-in", "30", "--layers", "60",
            "--seed", "7",
        ]
        code, out = self.run_cli(args, capsys)
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == CSV_HEADER
        assert len(rows) == 2
        p, seg = builtin_pattern("g33")
        res = estimate_count(
            util.bowtie(),
            p,
            seg,
            EstimateConfig(
                layer_sizes=(60,),
                walk=WalkConfig(length=40, burn_in=30),
                seed=7,
            ),
        )
        row = rows[1]
        assert row[0] == "0"
        assert row[1] == "7"
        assert row[2] == "40"
        assert row[3] == f"{res.estimate:.6f}"
        assert row[4] == ""  # no exact column for single runs
        assert row[6] == str(res.oracle_calls)

    def test_deterministic_output(self, bowtie_file, capsys):
        args = [
            "estimate", "--graph", bowtie_file, "--pattern", "g33",
            "--walk-len", "30", "--layers", "40", "--seed", "3",
        ]
        _, first = self.run_cli(args, capsys)
        _, second = self.run_cli(args, capsys)
        assert first == second

    def test_auto_layer_sizing_runs(self, bowtie_file, capsys):
        args = [
            "estimate", "--graph", bowtie_file, "--pattern", "g33",
            "--walk-len", "30", "--seed", "1",
            "--t-guess", "2", "--max-layer", "64",
        ]
        code, out = self.run_cli(args, capsys)
        assert code == 0
        assert len(out.splitlines()) == 2


class TestExperiment:
    def test_sweep_writes_rows_and_summary(self, bowtie_file, tmp_path, capsys):
        out_csv = tmp_path / "runs.csv"
        args = [
            "experiment", "--graph", bowtie_file, "--pattern", "g33",
            "--walk-len", "20,40", "--reps", "5", "--layers", "30",
            "--burn-in", "30", "--seed", "100", "--out", str(out_csv),
        ]
        assert main(args) == 0
        text = out_csv.read_bytes()
        assert b"\r" not in text
        rows = list(csv.reader(io.StringIO(text.decode())))
        assert rows[0] == CSV_HEADER
        assert len(rows) == 1 + 2 * 5
        seeds = [r[1] for r in rows[1:]]
        assert seeds == [str(100 + j) for j in range(5)] * 2
        assert {r[2] for r in rows[1:6]} == {"20"}
        assert {r[2] for r in rows[6:]} == {"40"}
        for r in rows[1:]:
            assert r[4] == "2.000000"

        sidecar = summary_path(str(out_csv))
        srows = list(csv.reader(io.StringIO(open(sidecar).read())))
        assert srows[0] == SUMMARY_HEADER
        assert len(srows) == 3
        # summary medians recomputable from the per-run rows
        rels = [float(r[5]) for r in rows[1:6]]
        assert float(srows[1][2]) == pytest.approx(statistics.median(rels), abs=1e-6)
        med_abs = statistics.median(abs(x) for x in rels)
        assert float(srows[1][3]) == pytest.approx(med_abs, abs=1e-6)
        # stdout repeats the summary table
        out = capsys.readouterr().out
        srows_stdout = list(csv.reader(io.StringIO(out)))
        assert srows_stdout == srows

    def test_byte_identical_across_runs(self, bowtie_file, tmp_path, capsys):
        outs = []
        for name in ("a.csv", "b.csv"):
            out_csv = tmp_path / name
            args = [
                "experiment", "--graph", bowtie_file, "--pattern", "g33",
                "--walk-len", "25", "--reps", "4", "--layers", "20",
                "--seed", "9", "--out", str(out_csv),
            ]
            assert main(args) == 0
            capsys.readouterr()
            outs.append(out_csv.read_bytes())
        assert outs[0] == outs[1]

    def test_exact_t_override_skips_enumeration(self, bowtie_file, tmp_path, capsys):
        out_csv = tmp_path / "r.csv"
        args = [
            "experiment", "--graph", bowtie_file, "--pattern", "g33",
            "--walk-len", "20", "--reps", "2", "--layers", "20",
            "--seed", "0", "--out", str(out_csv), "--exact-t", "2",
            "--budget", "1",
        ]
        assert main(args) == 0
        capsys.readouterr()
        rows = list(csv.reader(io.StringIO(out_csv.read_text())))
        assert rows[1][4] == "2.000000"

    def test_zero_exact_total_leaves_the_rel_columns_empty(self, bowtie_file, tmp_path, capsys):
        out_csv = tmp_path / "r.csv"
        args = [
            "experiment", "--graph", bowtie_file, "--pattern", "g33",
            "--walk-len", "20,30", "--reps", "3", "--layers", "10",
            "--out", str(out_csv), "--exact-t", "0",
        ]
        assert main(args) == 0
        rows = list(csv.reader(io.StringIO(out_csv.read_text())))
        assert len(rows) == 1 + 2 * 3
        assert all(r[4:6] == ["0.000000", ""] for r in rows[1:])
        assert capsys.readouterr().out == (
            ",".join(SUMMARY_HEADER) + "\n20,3,,,,100.0000\n30,3,,,,100.0000\n"
        )

    @pytest.mark.parametrize("budget", [1500, 2189])
    def test_exact_count_follows_the_order_flag(self, budget, tmp_path, capsys):
        # g45 here needs 1339 extension checks under its automatic order
        # (0,1,2,3) and 2189 under (0,2,3,1): experiment must count under
        # the run's own order, as exact does, and refuse or agree with it
        g = util.er_graph(16, 0.5, 4)
        gf = tmp_path / "g.txt"
        gf.write_text(f"# n={g.vertex_count}\n" + "".join(f"{u} {v}\n" for u, v in util.edges(g)))
        flags = ["--graph", str(gf), "--pattern", "g45", "--order", "0,2,3,1",
                 "--budget", str(budget)]
        exact_code = main(["exact", *flags])
        exact = capsys.readouterr()
        out_csv = tmp_path / "r.csv"
        run_code = main(["experiment", *flags, "--walk-len", "20", "--reps", "1",
                         "--layers", "10,10", "--seed", "1", "--out", str(out_csv)])
        run = capsys.readouterr()
        assert exact_code == run_code == (2 if budget < 2189 else 0)
        if exact_code:
            assert f"exceeded {budget} extension checks" in exact.err
            assert f"exceeded {budget} extension checks" in run.err
        else:
            assert exact.out.startswith("T=271\n")
            rows = list(csv.reader(io.StringIO(out_csv.read_text())))
            assert rows[1][4] == "271.000000"

    def test_pattern_file_with_estimator(self, tmp_path, capsys):
        # diamond pattern over the bowtie-plus graph, slack 1 path
        gf = tmp_path / "g.txt"
        gf.write_text("# n=5\n0 1\n0 2\n1 2\n2 3\n2 4\n3 4\n0 3\n")
        pf = tmp_path / "diamond.pat"
        pf.write_text(DIAMOND_PATTERN)
        out_csv = tmp_path / "d.csv"
        args = [
            "experiment", "--graph", str(gf), "--pattern-file", str(pf),
            "--walk-len", "30", "--reps", "3", "--layers", "40,40",
            "--seed", "2", "--out", str(out_csv),
        ]
        assert main(args) == 0
        capsys.readouterr()
        rows = list(csv.reader(io.StringIO(out_csv.read_text())))
        assert rows[1][4] == "2.000000"  # two diamonds in that graph


    def test_zero_reps_is_one_error_line(self, bowtie_file, tmp_path, capsys):
        out_csv = tmp_path / "z.csv"
        args = [
            "experiment", "--graph", bowtie_file, "--pattern", "g33",
            "--walk-len", "20", "--reps", "0", "--layers", "20",
            "--out", str(out_csv),
        ]
        assert main(args) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "error: experiment needs at least one repetition\n"
        assert not out_csv.exists()


class TestEdgecount:
    def test_k4_output(self, k4_file, capsys):
        code = main(
            ["edgecount", "--graph", k4_file, "--samples", "300",
             "--gap", "5", "--seed", "4"]
        )
        assert code == 0
        out = capsys.readouterr().out
        lines = dict(l.split("=", 1) for l in out.strip().splitlines())
        assert lines["m_true"] == "6"
        assert 4.5 <= float(lines["m_hat"]) <= 7.5
        assert int(lines["samples"]) >= 300
        assert int(lines["collisions"]) > 0
        assert int(lines["oracle_calls"]) > 0


class TestErrors:
    def test_unknown_pattern_lists_names(self, bowtie_file, capsys):
        code = main(["exact", "--graph", bowtie_file, "--pattern", "g7"])
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "g33" in err and "g510" in err

    @pytest.mark.parametrize(
        "extra",
        [
            ["estimate", "--walk-len", "20", "--layers", "10"],
            ["experiment", "--walk-len", "20", "--layers", "10", "--out", "never.csv"],
        ],
    )
    def test_lazy_walk_flag_is_gone(self, extra, bowtie_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(extra + ["--graph", bowtie_file, "--pattern", "g33", "--lazy-walk"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --lazy-walk" in capsys.readouterr().err

    def test_pattern_name_and_file_conflict(self, bowtie_file, tmp_path, capsys):
        pf = tmp_path / "p.pat"
        pf.write_text("3 0\n0 1\n1 2\n0 2\n")
        code = main(
            ["exact", "--graph", bowtie_file, "--pattern", "g33",
             "--pattern-file", str(pf)]
        )
        assert code == 2
        assert "exactly one" in capsys.readouterr().err

    def test_missing_graph_file(self, capsys):
        code = main(["exact", "--graph", "/nonexistent/g.txt", "--pattern", "g33"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra",
        [
            ["exact"],
            ["estimate", "--walk-len", "20", "--layers", "10"],
            ["experiment", "--walk-len", "20", "--layers", "10", "--out", "never.csv"],
        ],
    )
    def test_pattern_error_wins_over_a_missing_graph(self, extra, capsys):
        # the pattern is checked before the graph is loaded
        code = main(extra + ["--graph", "/nonexistent/g.txt", "--pattern", "g33", "--c", "2"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: slack >= 2") and err.count("\n") == 1

    def test_unwritable_out_wins_over_a_missing_graph(self, tmp_path, capsys):
        # the outputs are opened before the graph is loaded
        out_csv = tmp_path / "missing" / "x.csv"
        code = main(
            ["experiment", "--graph", str(tmp_path / "g.txt"), "--pattern", "g33",
             "--walk-len", "20", "--layers", "10", "--out", str(out_csv)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(out_csv) in err

    def test_failed_experiment_keeps_existing_outputs(self, bowtie_file, tmp_path, capsys):
        # files that were there keep their bytes; files the run created are removed
        for j, prior in enumerate([
            {"runs.csv": "old runs\n" * 50, "runs.summary.csv": "old summary\n" * 50},
            {},
            {"runs.csv": "old runs\n" * 50},
        ]):
            where = tmp_path / str(j)
            where.mkdir()
            for name, text in prior.items():
                (where / name).write_text(text)
            out_csv = where / "runs.csv"
            sidecar = where / "runs.summary.csv"
            argv = ["experiment", "--graph", bowtie_file, "--pattern", "g33",
                    "--walk-len", "20", "--layers", "10", "--out", str(out_csv)]
            assert main(argv + ["--budget", "1"]) == 2
            assert "exact count is out of reach" in capsys.readouterr().err
            assert {f.name: f.read_text() for f in where.iterdir()} == prior
            # a run that succeeds replaces both files whole
            assert main(argv) == 0
            assert capsys.readouterr().out == sidecar.read_text()
            assert out_csv.read_text().startswith(",".join(CSV_HEADER) + "\n")
            assert "old" not in out_csv.read_text() + sidecar.read_text()

    # each input the command reads: its flag, the name it is refused by,
    # and the text it holds
    INPUTS = [
        ("--graph", "--graph file", BOWTIE_TXT),
        ("--pattern-file", "--pattern-file", TRIANGLE_PATTERN),
    ]

    def experiment_argv(self, tmp_path, flag, given, out):
        """An ``experiment`` that reads ``given`` through ``flag`` and writes ``out``."""
        graph = tmp_path / "bowtie.txt"
        graph.write_text(BOWTIE_TXT)
        if flag == "--graph":
            inputs = ["--graph", str(given), "--pattern", "g33"]
        else:
            inputs = ["--graph", str(graph), "--pattern-file", str(given)]
        return ["experiment", *inputs, "--walk-len", "20", "--layers", "10", "--out", str(out)]

    @pytest.mark.parametrize("flag, name, text", INPUTS, ids=["graph", "pattern-file"])
    def test_out_that_is_the_graph_is_refused(self, flag, name, text, tmp_path, capsys):
        # by its own name or through a symlink: one error line, the input's
        # bytes kept, no output created
        given = tmp_path / "in.txt"
        given.write_text(text)
        link = tmp_path / "link.txt"
        link.symlink_to(given)
        for out in (given, link):
            code = main(self.experiment_argv(tmp_path, flag, given, out))
            assert code == 2
            err = capsys.readouterr().err
            assert err == f"error: {out} is the {name}; give --out another path\n"
            assert given.read_text() == text
        assert sorted(f.name for f in tmp_path.iterdir()) == ["bowtie.txt", "in.txt", "link.txt"]

    @pytest.mark.parametrize("flag, name, text", INPUTS, ids=["graph", "pattern-file"])
    def test_summary_that_is_the_graph_is_refused(self, flag, name, text, tmp_path, capsys):
        given = tmp_path / "runs.summary.csv"
        given.write_text(text)
        code = main(self.experiment_argv(tmp_path, flag, given, tmp_path / "runs.csv"))
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error: {given} is the {name}; give --out another path\n"
        assert given.read_text() == text
        assert sorted(f.name for f in tmp_path.iterdir()) == ["bowtie.txt", "runs.summary.csv"]

    def test_failed_sidecar_open_removes_the_created_runs_file(self, bowtie_file, tmp_path, capsys):
        out_csv = tmp_path / "runs.csv"
        (tmp_path / "runs.summary.csv").mkdir()
        argv = ["experiment", "--graph", bowtie_file, "--pattern", "g33",
                "--walk-len", "20", "--layers", "10", "--out", str(out_csv)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not out_csv.exists()
        assert (tmp_path / "runs.summary.csv").is_dir()

    def test_wrong_layer_count(self, bowtie_file, capsys):
        code = main(
            ["estimate", "--graph", bowtie_file, "--pattern", "g46",
             "--walk-len", "20", "--layers", "10"]
        )
        assert code == 2
        assert "--layers" in capsys.readouterr().err

    def test_auto_sizing_without_guess(self, bowtie_file, capsys):
        code = main(
            ["estimate", "--graph", bowtie_file, "--pattern", "g33",
             "--walk-len", "20"]
        )
        assert code == 2
        assert "t-guess" in capsys.readouterr().err

    def test_infeasible_slack_override(self, bowtie_file, capsys):
        # g45 genuinely needs slack 1; forcing 0 must fail loudly
        code = main(
            ["exact", "--graph", bowtie_file, "--pattern", "g45", "--c", "0"]
        )
        assert code == 2
        assert "slack" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra",
        [
            ["estimate", "--pattern", "g33", "--walk-len", "20", "--layers", "10"],
            ["edgecount", "--samples", "50"],
        ],
    )
    def test_negative_burn_in_is_one_error_line(self, extra, bowtie_file, capsys):
        code = main(extra + ["--graph", bowtie_file, "--burn-in", "-3"])
        assert code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: burn_in must be nonnegative\n"

    @pytest.mark.parametrize(
        "argv, line",
        [
            (["estimate", "--walk-len", "20", "--layers", "10", "--burn-in", "-3"],
             "burn_in must be nonnegative"),
            (["estimate", "--walk-len", "0", "--layers", "10"],
             "walk length must be at least 1"),
            (["estimate", "--walk-len", "20", "--layers", "0"],
             "every layer size must be at least 1"),
            (["estimate", "--walk-len", "20", "--layers", "10,10"],
             "--layers needs 1 values l_3..l_3 for this pattern"),
            (["estimate", "--walk-len", "20"],
             "auto layer sizing needs --t-guess or --exact-t"),
            (["experiment", "--walk-len", "20", "--layers", "10", "--reps", "0"],
             "experiment needs at least one repetition"),
            (["experiment", "--walk-len", "20,0", "--layers", "10"],
             "walk length must be at least 1"),
            (["experiment", "--walk-len", "20", "--layers", "10", "--burn-in", "-1"],
             "burn_in must be nonnegative"),
            (["experiment", "--walk-len", "20", "--layers", "-5"],
             "every layer size must be at least 1"),
            (["edgecount", "--burn-in", "-3"], "burn_in must be nonnegative"),
            (["edgecount", "--samples", "1"], "need at least 2 samples"),
            (["edgecount", "--gap", "0"], "spacing must be at least 1"),
            (["estimate", "--walk-len", "20", "--epsilon", "2", "--t-guess", "100"],
             "eps must lie strictly between 0 and 1"),
            (["estimate", "--walk-len", "20", "--t-guess", "-5"],
             "t_guess must be positive"),
            (["experiment", "--walk-len", "20", "--fmax-guess", "0.5", "--t-guess", "100"],
             "fmax_guess must be at least 1"),
            (["estimate", "--walk-len", "20", "--t-guess", "100", "--max-layer", "0"],
             "--max-layer must be at least 1, not 0"),
            (["experiment", "--walk-len", "20", "--exact-t", "100", "--max-layer", "-3"],
             "--max-layer must be at least 1, not -3"),
            (["experiment", "--walk-len", "20", "--layers", "30", "--exact-t", "-2"],
             "exact total must be at least 0, not -2.0"),
            (["experiment", "--walk-len", "20", "--layers", "30", "--exact-t", "inf"],
             "exact total must be finite, not inf"),
            (["exact", "--budget", "-1"], "--budget must be at least 1, not -1"),
            (["experiment", "--walk-len", "20", "--layers", "30", "--exact-t", "2",
              "--budget", "-5"],
             "--budget must be at least 1, not -5"),
            (["estimate", "--walk-len", "10", "--t-guess", "2", "--fmax-guess", "inf"],
             "fmax_guess must be finite, not inf"),
            (["estimate", "--walk-len", "10", "--t-guess", "nan"],
             "t_guess must be finite, not nan"),
            (["experiment", "--walk-len", "10", "--t-guess", "2", "--fmax-guess", "nan"],
             "fmax_guess must be finite, not nan"),
            (["estimate", "--walk-len", "10", "--t-guess", "2", "--epsilon", "1e-200"],
             "eps 1e-200 is too close to 0 for finite sizes"),
            # the three comma-list flags name themselves and the bad token
            (["experiment", "--walk-len", "10,,20", "--layers", "10"],
             "--walk-len: '' in '10,,20' is not an integer"),
            (["estimate", "--walk-len", "20", "--layers", "5,a"],
             "--layers: 'a' in '5,a' is not an integer"),
            (["experiment", "--walk-len", "20", "--layers", "5,a"],
             "--layers: 'a' in '5,a' is not an integer"),
            (["exact", "--order", "0,1,"],
             "--order: '' in '0,1,' is not an integer"),
            (["estimate", "--walk-len", "20", "--layers", "10", "--order", "0,x,2"],
             "--order: 'x' in '0,x,2' is not an integer"),
        ],
    )
    def test_bad_flag_is_reported_before_the_load(self, argv, line, tmp_path, monkeypatch, capsys):
        def no_load(path):
            raise AssertionError("graph loaded before the flags were checked")

        monkeypatch.setattr(cli, "load_edge_list_path", no_load)
        if argv[0] != "edgecount":
            argv = argv + ["--pattern", "g33"]
        if argv[0] == "experiment":
            argv = argv + ["--out", str(tmp_path / "never.csv")]
        assert main(argv + ["--graph", "g.txt"]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: {line}\n"
        assert not (tmp_path / "never.csv").exists()

    def test_exact_total_may_be_zero_but_not_negative(self):
        ExperimentSpec(walk_lengths=(10,), layer_sizes=(5,), exact_total=0)
        with pytest.raises(ValueError, match="exact total must be at least 0"):
            ExperimentSpec(walk_lengths=(10,), layer_sizes=(5,), exact_total=-2)
        with pytest.raises(ValueError, match="exact total must be at least 0"):
            ExperimentSpec(walk_lengths=(10,), layer_sizes=(5,), exact_total=float("nan"))

    def test_spec_needs_a_walk_length(self):
        with pytest.raises(ValueError, match="at least one walk length"):
            ExperimentSpec(walk_lengths=())

    def test_unsized_spec_is_not_run(self):
        p, seg = builtin_pattern("g33")
        g = Graph(3, [(0, 1), (1, 2), (0, 2)])
        with pytest.raises(ValueError, match="explicit layer sizes"):
            run_experiment(ExperimentSpec(walk_lengths=(10,)), g, p, seg, None)

    def test_budget_below_one_is_refused_with_a_known_total(self):
        ExperimentSpec(walk_lengths=(10,), layer_sizes=(5,), exact_total=2, budget=1)
        with pytest.raises(ValueError, match="--budget must be at least 1, not 0"):
            ExperimentSpec(walk_lengths=(10,), layer_sizes=(5,), exact_total=2, budget=0)

    @pytest.mark.parametrize(
        "guesses, line",
        [
            (["--t-guess", "1e-320"], "the recommended size l_3 is not finite"),
        ],
    )
    def test_overflowing_recommendation_is_one_error_line(self, guesses, line, bowtie_file, capsys):
        argv = ["estimate", "--graph", bowtie_file, "--pattern", "g33", "--walk-len", "10"]
        assert main(argv + guesses) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: {line}; raise t_guess, or lower fmax_guess\n"

    def test_huge_fmax_guess_sizes_a_triangle_run(self, bowtie_file, capsys):
        # the final layer's size ignores fmax_guess, and no walk length is recommended
        argv = ["estimate", "--graph", bowtie_file, "--pattern", "g33", "--walk-len", "10",
                "--t-guess", "1", "--fmax-guess", "1e308"]
        assert main(argv) == 0
        out = capsys.readouterr()
        assert out.err == ""
        assert out.out.startswith(",".join(CSV_HEADER) + "\n0,0,10,")

    def test_sparse_id_space_is_one_error_line(self, tmp_path, capsys):
        path = tmp_path / "sparse.txt"
        path.write_text("0 100000000\n")
        assert main(["exact", "--graph", str(path), "--pattern", "g33"]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: vertex count 100000001") and out.err.count("\n") == 1

    @pytest.mark.parametrize(
        "bad, message",
        [
            ("17 x9", "line 5000: expected two integer tokens, got '17 x9'"),
            ("3 -4", "line 5000: negative vertex id in '3 -4'"),
            ("5 10000", "line 5000: vertex id exceeds declared n=10000"),
            ("1 2 3", "line 5000: expected two integer tokens, got '1 2 3'"),
        ],
        ids=["token", "negative", "declared-n", "three-tokens"],
    )
    def test_parse_error_past_the_first_chunk_is_one_line(self, tmp_path, capsys, bad, message):
        # the loader reads plain lines in chunks of 4096; line 5000 lies inside the second
        lines = ["# n=10000"] + [f"{i % 9973} {(i * 7 + 1) % 9973}" for i in range(2, 10001)]
        lines[4999] = bad
        path = tmp_path / "bad.txt"
        path.write_text("\n".join(lines) + "\n")
        assert main(["exact", "--graph", str(path), "--pattern", "g33"]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: {message}\n"

    def test_slack_two_stops_exact_with_one_error_line(self, bowtie_file, capsys):
        code = main(
            ["exact", "--graph", bowtie_file, "--pattern", "g33", "--c", "2"]
        )
        assert code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error:") and out.err.count("\n") == 1
        assert "slack" in out.err


class TestDisconnectedWarning:
    def write(self, tmp_path, text):
        p = tmp_path / "g.txt"
        p.write_text(text)
        return str(p)

    def test_estimate_warns_once_and_keeps_the_csv(self, tmp_path, capsys):
        path = self.write(tmp_path, TWO_TRIANGLES_TXT)
        code = main([
            "estimate", "--graph", path, "--pattern", "g33",
            "--walk-len", "20", "--layers", "30", "--seed", "2",
        ])
        out = capsys.readouterr()
        assert code == 0
        assert out.err.startswith("warning: graph has 2 components with edges")
        assert out.err.count("\n") == 1
        assert "only the component the walk starts in" in out.err
        p, seg = builtin_pattern("g33")
        res = estimate_count(
            load_edge_list_path(path),
            p,
            seg,
            EstimateConfig(layer_sizes=(30,), walk=WalkConfig(length=20), seed=2),
        )
        assert out.out == (
            ",".join(CSV_HEADER) + "\n"
            f"0,2,20,{res.estimate:.6f},,,{res.oracle_calls},"
            f"{res.edges_observed * 100:.4f},\n"
        )

    def test_experiment_warns_once_and_keeps_the_csv(self, tmp_path, capsys):
        path = self.write(tmp_path, TWO_TRIANGLES_TXT)
        out_csv = tmp_path / "runs.csv"
        code = main([
            "experiment", "--graph", path, "--pattern", "g33",
            "--walk-len", "10,20", "--reps", "3", "--layers", "15",
            "--seed", "5", "--out", str(out_csv),
        ])
        out = capsys.readouterr()
        assert code == 0
        assert out.err.startswith("warning:") and out.err.count("\n") == 1
        p, seg = builtin_pattern("g33")
        spec = ExperimentSpec(
            repetitions=3, walk_lengths=(10, 20), layer_sizes=(15,), base_seed=5
        )
        rows, _ = run_experiment(spec, load_edge_list_path(path), p, seg, 2.0)
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows([CSV_HEADER] + rows)
        assert out_csv.read_text() == buf.getvalue()

    def test_edgecount_warns_once_and_keeps_stdout(self, tmp_path, capsys):
        # the walk sees one triangle, so m_hat lands near 3, not m_true=6
        path = self.write(tmp_path, TWO_TRIANGLES_TXT)
        code = main(["edgecount", "--graph", path, "--seed", "4"])
        out = capsys.readouterr()
        assert code == 0
        assert out.err.startswith("warning: graph has 2 components with edges")
        assert out.err.count("\n") == 1
        ledger = QueryLedger()
        est = estimate_edge_count(
            load_edge_list_path(path), ledger, samples=600, spacing=10, seed=4
        )
        assert out.out == (
            f"m_true=6\nm_hat={est.edge_estimate:.6f}\nsamples={est.samples_used}\n"
            f"collisions={est.collisions}\nattempts={est.attempts}\n"
            f"oracle_calls={ledger.oracle_calls}\n"
        )

    @pytest.mark.parametrize(
        "text", [BOWTIE_TXT, "# n=9\n0 1\n0 2\n1 2\n"], ids=["bowtie", "isolated"]
    )
    def test_one_component_with_edges_is_silent(self, tmp_path, capsys, text):
        path = self.write(tmp_path, text)
        code = main([
            "estimate", "--graph", path, "--pattern", "g33",
            "--walk-len", "20", "--layers", "30", "--seed", "2",
        ])
        assert code == 0
        assert capsys.readouterr().err == ""


class TestScriptEntry:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "crawlcount", "validate", "--pattern", "g33"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "verdict=ok" in proc.stdout

    def test_summary_path_handles_dotted_dirs(self):
        assert summary_path("runs.csv") == "runs.summary.csv"
        assert summary_path("/tmp/v1.2/runs") == "/tmp/v1.2/runs.summary.csv"
