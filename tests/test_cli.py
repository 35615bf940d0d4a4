"""Command line interface: parsing, config files, exit codes, artifacts."""

import json
import subprocess
import sys

import pytest

from sinklap.cli import main, parse_config, parse_grid
from sinklap.errors import UsageError


class TestParsing:
    def test_grid(self):
        grid = parse_grid("1e-4:1e-2:3log")
        assert grid == [1e-4, 1e-3, 1e-2]
        lin = parse_grid("1:2:3lin")
        assert lin == [1.0, 1.5, 2.0]
        for bad in ("1:2", "1:2:0log", "1:2:xlog", "-1:2:3log"):
            with pytest.raises(ValueError):
                parse_grid(bad)

    def test_defaults_and_required(self):
        cfg = parse_config(["pointwise", "--epsilon", "1e-3"])
        assert cfg.command == "pointwise"
        assert cfg.params["n"] == 3000
        assert cfg.params["epsilon"] == 1e-3
        assert cfg.params["lap"] == "bistoch_un"
        with pytest.raises(UsageError):
            parse_config(["pointwise"])
        with pytest.raises(UsageError):
            parse_config([])

    def test_bad_values(self):
        with pytest.raises(UsageError):
            parse_config(["pointwise", "--epsilon", "abc"])
        with pytest.raises(UsageError):
            parse_config(["pointwise", "--epsilon", "1e-3", "--density", "torus"])
        with pytest.raises(UsageError):
            parse_config(["pointwise", "--epsilon", "1e-3", "--lap", "foo"])

    def test_config_file(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("n = 60  # comment\nepsilon = 2e-3\n\n")
        cfg = parse_config(["pointwise", "--config", str(conf)])
        assert cfg.params["n"] == 60 and cfg.params["epsilon"] == 2e-3
        # explicit flags win over file values
        cfg = parse_config(["pointwise", "--config", str(conf), "--n", "40"])
        assert cfg.params["n"] == 40

    def test_config_file_errors(self, tmp_path):
        conf = tmp_path / "bad.conf"
        conf.write_text("bogus_key = 1\n")
        with pytest.raises(UsageError):
            parse_config(["pointwise", "--epsilon", "1e-3", "--config", str(conf)])
        conf.write_text("just a line\n")
        with pytest.raises(UsageError):
            parse_config(["pointwise", "--epsilon", "1e-3", "--config", str(conf)])
        with pytest.raises(UsageError):
            parse_config(["pointwise", "--epsilon", "1e-3", "--config",
                          str(tmp_path / "missing.conf")])


class TestExitCodes:
    def test_usage_error_is_1(self, capsys):
        assert main(["pointwise"]) == 1
        assert "required" in capsys.readouterr().err

    def test_unknown_flag_is_1(self, capsys):
        assert main(["moments", "--bogus", "1"]) == 1

    def test_numerical_failure_is_2(self, tmp_path, capsys):
        # epsilon far below the squared point separation underflows the
        # kernel to exact zeros, leaving zero-degree rows
        out = tmp_path / "diag.csv"
        code = main(["skdiag", "--n", "3", "--density", "uniform_circle",
                     "--epsilon", "1e-9", "--seed", "0", "--out", str(out)])
        assert code == 2
        assert "numerical failure" in capsys.readouterr().err

    def test_thread_count_errors_name_the_cause(self, tmp_path, capsys, monkeypatch):
        sweep = ["sweep", "--n", "20", "--eps-grid", "1e-3:2e-3:2log",
                 "--replicas", "1", "--out", str(tmp_path / "s.csv")]
        assert main(sweep + ["--threads", "0"]) == 1
        assert "threads must be >= 1" in capsys.readouterr().err
        monkeypatch.setenv("BISTOCH_THREADS", "abc")
        assert main(sweep) == 1
        err = capsys.readouterr().err
        assert "BISTOCH_THREADS must be an integer, got 'abc'" in err

    def test_success_is_0(self, capsys):
        assert main(["moments", "--d", "2"]) == 0
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert lines[0] == "m0 = 1"
        assert lines[1].startswith("m2 = 2")
        assert "wall=" in captured.err


class TestArtifacts:
    def test_generate_rerun_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["generate", "--n", "50", "--density", "uniform_circle",
                "--seed", "4", "--noise", "simple", "--m", "8"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert len(a.read_text().splitlines()) == 51

    def test_pointwise_out(self, tmp_path, capsys):
        out = tmp_path / "pw.csv"
        code = main(["pointwise", "--n", "60", "--density", "uniform_circle",
                     "--epsilon", "2e-3", "--lap", "bistoch_rw",
                     "--out", str(out)])
        assert code == 0
        captured = capsys.readouterr()
        assert "relerr2 = " in captured.out
        lines = out.read_text().splitlines()
        assert lines[0] == "relerr2,relerrinf,sk_iters,projection_hits"
        assert len(lines) == 2

    def test_sweep_with_slopes(self, tmp_path):
        out = tmp_path / "sweep.csv"
        slopes = tmp_path / "slopes.json"
        code = main(["sweep", "--n", "60", "--density", "uniform_circle",
                     "--eps-grid", "1e-3:2e-3:2log", "--replicas", "1",
                     "--lap", "bistoch_rw", "--slope-points", "2",
                     "--out", str(out), "--slopes-out", str(slopes)])
        assert code == 0
        assert len(out.read_text().splitlines()) == 3
        payload = json.loads(slopes.read_text())
        assert [e["branch"] for e in payload] == ["small_eps", "large_eps"]
        assert all(isinstance(e["slope"], float) for e in payload)

    def test_sweep_slope_points_validation(self, tmp_path, capsys):
        code = main(["sweep", "--n", "60", "--density", "uniform_circle",
                     "--eps-grid", "1e-3:2e-3:2log", "--replicas", "1",
                     "--slope-points", "5",
                     "--out", str(tmp_path / "s.csv"),
                     "--slopes-out", str(tmp_path / "s.json")])
        assert code == 1

    def test_skdiag_fixture(self, tmp_path, capsys):
        out = tmp_path / "hist.csv"
        assert main(["skdiag", "--fixture", "perm2", "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert "iterations = 1" in captured.out
        assert "converged = true" in captured.out
        lines = out.read_text().splitlines()
        assert lines[0] == "iter,residual_inf"
        assert len(lines) == 2

    def test_embed_requires_noise(self, tmp_path, capsys):
        code = main(["embed", "--n", "40", "--noise", "none",
                     "--out", str(tmp_path / "e.csv")])
        assert code == 1

    def test_embed_tiny(self, tmp_path):
        out = tmp_path / "embed.csv"
        eigen = tmp_path / "eig"
        code = main(["embed", "--n", "60", "--epsilon", "2e-3",
                     "--replicas", "1", "--m", "8", "--sigma-out", "0.05",
                     "--out", str(out), "--eigen-out", str(eigen)])
        assert code == 0
        assert len(out.read_text().splitlines()) == 5
        for method in ("sk", "dm"):
            path = tmp_path / f"eig_{method}.csv"
            assert path.exists()
            assert len(path.read_text().splitlines()) == 6


class TestUnconvergedWarning:
    """One stderr warning line counts the scalings that ran out of max_iter."""

    STARVED = ["--max-iter", "1", "--eps-sk", "1e-12"]

    @staticmethod
    def warnings(err):
        return [line for line in err.splitlines() if line.startswith("warning:")]

    def test_pointwise(self, tmp_path, capsys):
        args = ["pointwise", "--n", "60", "--density", "uniform_circle",
                "--epsilon", "2e-3", "--out", str(tmp_path / "pw.csv")]
        assert main(args + self.STARVED) == 0
        captured = capsys.readouterr()
        assert self.warnings(captured.err) == [
            "warning: 1 of 1 scalings did not converge within max_iter=1 (eps_sk=1e-12)"
        ]
        assert "sk_iters = 1" in captured.out

    def test_sweep(self, tmp_path, capsys):
        args = ["sweep", "--n", "60", "--eps-grid", "1e-3:2e-3:2log",
                "--replicas", "2", "--out", str(tmp_path / "s.csv")]
        assert main(args + self.STARVED) == 0
        [line] = self.warnings(capsys.readouterr().err)
        assert line.startswith("warning: 4 of 4 scalings did not converge")

    def test_embed(self, tmp_path, capsys):
        args = ["embed", "--n", "60", "--epsilon", "2e-3", "--replicas", "1",
                "--m", "8", "--sigma-out", "0.05", "--out", str(tmp_path / "e.csv")]
        assert main(args + self.STARVED) == 0
        [line] = self.warnings(capsys.readouterr().err)
        assert line.startswith("warning: 1 of 1 scalings did not converge")

    def test_converged_run_is_quiet(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        args = ["sweep", "--n", "60", "--eps-grid", "1e-3:2e-3:2log",
                "--replicas", "2", "--out", str(out)]
        assert main(args) == 0
        assert self.warnings(capsys.readouterr().err) == []
        assert len(out.read_text().splitlines()) == 3


def test_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "sinklap.cli", "moments", "--d", "3"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert "m0 = 1" in proc.stdout
