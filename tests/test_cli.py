"""CLI tests: argument surface, exit codes, output artifacts, determinism."""

import os
import subprocess
import sys
import warnings

import pytest

import pfexpm

from pfexpm import cli
from pfexpm.bench import CSV_HEADER, parse_csv
from pfexpm.errors import InvariantViolation
from pfexpm.roots import load_table


def run(argv):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return cli.main(argv)


class TestExitCodes:
    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0
        assert "bench" in capsys.readouterr().out

    def test_missing_subcommand(self):
        assert run([]) == 2

    def test_missing_out(self):
        assert run(["bench", "--family", "lap1d", "--d", "10"]) == 2

    def test_unknown_family(self):
        assert run(["bench", "--family", "hilbert", "--d", "4", "--out", "/tmp/x.csv"]) == 2

    def test_random_needs_range(self, tmp_path):
        out = str(tmp_path / "r.csv")
        assert run(["bench", "--family", "random", "--d", "8", "--out", out]) == 2

    def test_range_refused_for_lap(self, tmp_path):
        out = str(tmp_path / "r.csv")
        assert (
            run(["bench", "--family", "lap1d", "--d", "8", "--range", "-1:0", "--out", out])
            == 2
        )

    def test_lap2d_non_square_d(self, tmp_path):
        out = str(tmp_path / "r.csv")
        assert run(["bench", "--family", "lap2d", "--d", "10", "--out", out]) == 2

    def test_odd_order(self, tmp_path):
        out = str(tmp_path / "r.csv")
        assert run(["bench", "--family", "lap1d", "--d", "8", "--n", "7", "--out", out]) == 2

    def test_bad_shift_token(self, tmp_path):
        out = str(tmp_path / "r.csv")
        assert (
            run(["bench", "--family", "lap1d", "--d", "8", "--shift", "maybe", "--out", out])
            == 2
        )

    def test_overflowing_fixed_shift(self, tmp_path):
        out = str(tmp_path / "r.csv")
        code = run(
            ["bench", "--family", "lap1d", "--d", "8", "--n", "8", "--shift", "c=800",
             "--out", out]
        )
        assert code == 2

    def test_io_error_exit_4(self):
        assert (
            run(["bench", "--family", "lap1d", "--d", "8", "--n", "12",
                 "--out", "/nonexistent-dir/x.csv"])
            == 4
        )

    def test_tables_dir_collision_exit_4(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        assert run(["tables", "--n", "4", "--dir", str(blocker)]) == 4

    def test_invariant_violation_exit_3(self, monkeypatch, tmp_path):
        def broken(n):
            raise InvariantViolation("separation", "injected failure")

        monkeypatch.setattr(cli, "build_table", broken)
        assert run(["tables", "--n", "4", "--dir", str(tmp_path)]) == 3


class TestBenchCommand:
    def test_lap1d_csv(self, tmp_path, capsys):
        out = str(tmp_path / "lap.csv")
        code = run(
            ["bench", "--family", "lap1d", "--d", "20", "--n", "12,16", "--out", out]
        )
        assert code == 0
        assert "2 records" in capsys.readouterr().out
        lines = (tmp_path / "lap.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 3

    def test_action_mode(self, tmp_path):
        out = str(tmp_path / "act.csv")
        code = run(
            ["bench", "--family", "lap1d", "--d", "20", "--n", "16", "--mode", "action",
             "--out", out]
        )
        assert code == 0
        (rec,) = parse_csv(out)
        assert rec.mode == "action" and rec.error >= 0.0

    def test_random_defaults_to_10_trials(self, tmp_path):
        out = str(tmp_path / "rand.csv")
        code = run(
            ["bench", "--family", "random", "--d", "10", "--range", "-1:0", "--n", "8",
             "--out", out]
        )
        assert code == 0
        assert len(parse_csv(out)) == 10

    def test_shifted_random(self, tmp_path):
        out = str(tmp_path / "shift.csv")
        code = run(
            ["bench", "--family", "random", "--d", "10", "--range", "0:4", "--n", "16",
             "--trials", "2", "--shift", "auto", "--out", out]
        )
        assert code == 0
        for rec in parse_csv(out):
            assert rec.error_kind == "relative"
            assert rec.shift is not None and rec.shift > 0.0

    def test_rerun_identical_error_columns(self, tmp_path):
        # same arguments twice: error and bound columns match
        args = ["bench", "--family", "random", "--d", "12", "--range", "-1:0",
                "--n", "8,12", "--trials", "3", "--seed", "31"]
        out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert run(args + ["--out", out1]) == 0
        assert run(args + ["--out", out2]) == 0
        a, b = parse_csv(out1), parse_csv(out2)
        assert [(r.error, r.bound) for r in a] == [(r.error, r.bound) for r in b]
        assert [r.t_para for r in a] != [r.t_para for r in b]  # clocks move

    def test_dimension_list_in_order(self, tmp_path, capsys):
        out = str(tmp_path / "dims.csv")
        code = run(
            ["bench", "--family", "lap1d", "--d", "16,25", "--n", "8,12", "--out", out]
        )
        assert code == 0
        recs = parse_csv(out)
        assert [(r.spec.d, r.n) for r in recs] == [(16, 8), (16, 12), (25, 8), (25, 12)]
        # one table row per record, between the header and the summary line
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split() == [
            "d", "n", "error", "bound", "rounding", "err/err_n",
            "t_seq_ms", "t_para_ms", "t_total_ms",
        ]
        assert [tuple(ln.split()[:2]) for ln in lines[1:5]] == [
            ("16", "8"), ("16", "12"), ("25", "8"), ("25", "12")
        ]
        assert lines[5] == f"wrote 4 records to {out}"
        # two dimensions: one flatness line per order
        assert [ln.split(" flatness")[0] for ln in lines[6:]] == ["n=8", "n=12"]

    def test_one_stderr_line_per_uncertified_record(self, tmp_path):
        # run as a program, so that an escaping Python warning would print;
        # lap1d's Gershgorin [-4, 0] shifted by c = -1 reaches 1 > 0
        src = os.path.dirname(os.path.dirname(pfexpm.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-m", "pfexpm.cli", "bench", "--family", "lap1d",
             "--d", "16,100", "--n", "8", "--shift", "c=-1", "--out", str(tmp_path / "w.csv")],
            env=env, capture_output=True, text=True, check=True,
        )
        assert out.stderr.splitlines() == [
            f"pfexpm: d={d} n=8: no certified bound: the spectral interval reaches "
            "above 0 (try --shift auto)"
            for d in (16, 100)
        ]
        assert "runpy" not in out.stderr
        # n = 8 <= 2 rho = 8 unshifted: certified by 2^-8, nothing on stderr
        out = subprocess.run(
            [sys.executable, "-m", "pfexpm.cli", "bench", "--family", "lap1d",
             "--d", "16,100", "--n", "8", "--out", str(tmp_path / "m1.csv")],
            env=env, capture_output=True, text=True, check=True,
        )
        assert out.stderr == ""
        assert [r.bound for r in parse_csv(tmp_path / "m1.csv")] == [2.0**-8] * 2

    def test_flatness_over_d(self, tmp_path, capsys):
        out, plot = str(tmp_path / "f.csv"), tmp_path / "f.dat"
        code = run(
            ["bench", "--family", "random", "--range", "-1:0", "--d", "20,50",
             "--trials", "3", "--n", "8", "--out", out, "--plot-out", str(plot)]
        )
        assert code == 0
        recs = parse_csv(out)
        means = {
            key: [sum(getattr(r, col) for r in recs if r.spec.d == d) / 3 for d in (20, 50)]
            for key, col in (("error", "error"), ("ratio", "err_over_errn"))
        }
        flat = {k: (max(v) - min(v)) / (sum(v) / 2) for k, v in means.items()}
        (line,) = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("n=")]
        assert line == (
            f"n=8 flatness over d: error {flat['error']:.4g}, err/err_n(lo) {flat['ratio']:.4g}"
        )
        # truncation dominates at n = 8 on [-1, 0]: normalized means are 1, flat
        assert all(abs(m - 1.0) < 1e-6 for m in means["ratio"]) and flat["ratio"] < 1e-6
        rows = [ln.split() for ln in plot.read_text(encoding="utf-8").splitlines()[2:]]
        assert [float(row[-1]) for row in rows] == pytest.approx(means["ratio"], rel=1e-15)

    def test_plot_out_one_block_per_family_n_mode(self, tmp_path):
        out, plot = str(tmp_path / "p.csv"), tmp_path / "p.dat"
        code = run(
            ["bench", "--family", "lap1d", "--d", "16,25,36", "--n", "8,12",
             "--mode", "action", "--out", out, "--plot-out", str(plot)]
        )
        assert code == 0
        blocks = plot.read_text(encoding="utf-8").rstrip("\n").split("\n\n\n")
        assert [b.splitlines()[0] for b in blocks] == [
            "# family=lap1d n=8 mode=action",
            "# family=lap1d n=12 mode=action",
        ]
        for b in blocks:
            assert [ln.split()[0] for ln in b.splitlines()[2:]] == ["16", "25", "36"]


class TestScalarCommand:
    def test_default_orders(self, tmp_path):
        out = str(tmp_path / "s.csv")
        assert run(["scalar", "--grid", "-10:0:201", "--out", out]) == 0
        lines = (tmp_path / "s.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "n,max_e1,max_e2,max_e3,m1,m2"
        assert [ln.split(",")[0] for ln in lines[1:]] == ["4", "8", "16", "32"]

    def test_dash_leading_grid_value(self, tmp_path):
        # a space-separated value starting with "-" must not be lexed as a flag
        out = str(tmp_path / "s.csv")
        assert run(["scalar", "--n", "8", "--grid", "-5:0:11", "--out", out]) == 0

    def test_bad_grid(self, tmp_path):
        out = str(tmp_path / "s.csv")
        assert run(["scalar", "--grid", "0:-5:11", "--out", out]) == 2
        assert run(["scalar", "--grid", "-5:0", "--out", out]) == 2
        assert run(["scalar", "--grid", "-5:0:1", "--out", out]) == 2

    def test_prints_table_and_minimizer(self, tmp_path, capsys):
        out = str(tmp_path / "s.csv")
        assert run(["scalar", "--n", "2,4,6,8", "--grid", "-100:0:200", "--out", out]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split() == ["n", "max_e1", "max_e2", "max_e3", "m1", "m2"]
        assert [ln.split()[0] for ln in lines[1:5]] == ["2", "4", "6", "8"]
        e1 = {int(ln.split()[0]): float(ln.split()[1]) for ln in lines[1:5]}
        best = min(e1, key=e1.get)
        assert lines[5].startswith(f"uniform e1 minimizer: n={best} (e1=")
        assert lines[6] == f"wrote 4 rows to {out}"

    def test_positive_grid_refused(self, tmp_path):
        out = str(tmp_path / "s.csv")
        assert run(["scalar", "--grid", "-1:1:11", "--out", out]) == 2


class TestTablesCommand:
    def test_generate_and_validate(self, tmp_path, capsys):
        code = run(["tables", "--n", "4,8", "--dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "n= 4 ok" in out and "n= 8 ok" in out
        path = tmp_path / "pfexpm-table-n04.txt"
        assert path.exists()
        table = load_table(path)
        assert table.n == 4
        assert (tmp_path / "pfexpm-table-n08.txt").exists()
