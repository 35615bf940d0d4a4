"""Command line interface: parsing, config files, exit codes, artifacts."""

import csv
import io
import json
import re
import subprocess
import sys

import numpy as np
import pytest
from scipy.sparse.linalg import ArpackNoConvergence

import sinklap.laplacian
from sinklap import (
    DensitySpec,
    LaplacianKind,
    NoiseKind,
    NoiseModel,
    SkConfig,
    approx_sym_sk,
    build_affinity,
    embedding_experiment,
    epsilon_sweep,
    noisy_dataset,
    pointwise_experiment,
)
from sinklap.cli import main, parse_config, parse_grid
from sinklap.csvio import fmt
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
        for bad in ("nan:1e-3:2log", "1e-3:inf:3log", "-inf:1:3lin"):
            with pytest.raises(ValueError, match="grid endpoints must be finite"):
                parse_grid(bad)

    def test_defaults_and_required(self):
        cfg = parse_config(["pointwise", "--epsilon", "1e-3"])
        assert cfg.command == "pointwise"
        assert cfg.params["n"] == 3000
        assert cfg.params["epsilon"] == 1e-3
        assert cfg.params["lap"] == LaplacianKind.BISTOCH_UN
        assert cfg.params["density"] == DensitySpec.SINUSOIDAL_1D
        assert cfg.params["noise"] is None
        p = cfg.params
        assert (
            SkConfig(p["c_sk"], p["eps_sk"], p["max_iter"]),
            NoiseModel(NoiseKind.SIMPLE, p["m"], p["sigma_out"], p["p_out"]),
        ) == (SkConfig(), NoiseModel(NoiseKind.SIMPLE, p["m"]))
        with pytest.raises(UsageError):
            parse_config(["pointwise"])
        with pytest.raises(UsageError):
            parse_config([])

    def test_bad_values(self):
        with pytest.raises(UsageError):
            parse_config(["pointwise", "--epsilon", "abc"])
        for option, value, spellings in (
            ("density", "torus", ["sinusoidal1d", "uniform_circle"]),
            ("lap", "foo", ["bistoch_rw", "bistoch_un", "dm_rw", "dm_un"]),
            ("noise", "gauss", ["heteroskedastic", "iid", "none", "simple"]),
        ):
            msg = f"bad value for --{option}: must be one of {spellings}"
            with pytest.raises(UsageError, match=re.escape(msg)):
                parse_config(["pointwise", "--epsilon", "1e-3", f"--{option}", value])

    def test_choices_parse_to_enum_members(self):
        cfg = parse_config(["embed", "--noise", "none", "--out", "e.csv"])
        assert cfg.params["noise"] is None
        cfg = parse_config(["pointwise", "--epsilon", "1e-3", "--noise", "iid",
                            "--density", "uniform_circle", "--lap", "dm_rw"])
        p = cfg.params
        assert (p["noise"], p["density"], p["lap"]) == (
            NoiseKind.IID, DensitySpec.UNIFORM_CIRCLE, LaplacianKind.DM_RW
        )

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

    def test_eigensolver_failure_is_2(self, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise ArpackNoConvergence("no convergence", np.zeros(0), np.zeros((0, 0)))

        monkeypatch.setattr(sinklap.laplacian, "eigsh", fail)
        code = main(["embed", "--n", "60", "--epsilon", "2e-3", "--replicas", "1",
                     "--m", "8", "--out", str(tmp_path / "e.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert "numerical failure: eigensolver did not converge" in err

    def test_thread_count_errors_name_the_cause(self, tmp_path, capsys):
        sweep = ["sweep", "--n", "20", "--eps-grid", "1e-3:2e-3:2log",
                 "--replicas", "1", "--out", str(tmp_path / "s.csv")]
        assert main(sweep + ["--threads", "0"]) == 1
        assert "threads must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args, message",
        [
            (["pointwise", "--epsilon", "nan"], "epsilon must be positive and finite"),
            (["pointwise", "--epsilon", "inf"], "epsilon must be positive and finite"),
            (["pointwise", "--epsilon=-inf"], "epsilon must be positive and finite"),
            (["pointwise", "--epsilon", "1e-3", "--eps-sk", "nan"],
             "eps_sk must be positive and finite"),
            (["pointwise", "--epsilon", "1e-3", "--eps-sk", "inf"],
             "eps_sk must be positive and finite"),
            (["pointwise", "--epsilon", "1e-3", "--c-sk", "nan"],
             "c_sk must be finite and >= 0"),
            (["pointwise", "--epsilon", "1e-3", "--c-sk", "inf"],
             "c_sk must be finite and >= 0"),
            (["generate", "--noise", "simple", "--m", "4", "--p-out", "0.5",
              "--sigma-out", "nan"], "sigma_out must be finite and >= 0"),
            (["generate", "--noise", "simple", "--m", "4", "--p-out", "0.5",
              "--sigma-out", "inf"], "sigma_out must be finite and >= 0"),
        ],
        ids=["epsilon-nan", "epsilon-inf", "epsilon-minus-inf", "eps-sk-nan",
             "eps-sk-inf", "c-sk-nan", "c-sk-inf", "sigma-out-nan", "sigma-out-inf"],
    )
    def test_non_finite_parameter_named(self, tmp_path, capsys, args, message):
        out = tmp_path / "out.csv"
        assert main(args + ["--n", "100", "--out", str(out)]) == 1
        assert f"sinklap {args[0]}: error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("grid", ["nan:1e-3:2log", "1e-3:inf:3log"])
    def test_non_finite_grid_named(self, tmp_path, capsys, grid):
        out = tmp_path / "s.csv"
        assert main(["sweep", "--n", "60", "--eps-grid", grid, "--replicas", "1",
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "bad value for --eps-grid: grid endpoints must be finite" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "args, option",
        [
            (["pointwise", "--n", "1", "--epsilon", "1e-3"], "--n"),
            (["sweep", "--n", "1", "--eps-grid", "1e-3:2e-3:2log", "--replicas", "1"],
             "--n"),
            (["skdiag", "--n", "1", "--epsilon", "1e-3"], "--n"),
            (["embed", "--n", "5", "--epsilon", "1e-3", "--replicas", "1", "--m", "8"],
             "--n"),
            (["generate", "--n", "5", "--seed", "-3"], "--seed"),
            (["sweep", "--n", "20", "--eps-grid", "2e-3:1e-3:2log", "--replicas", "1"],
             "--eps-grid"),
            (["sweep", "--n", "20", "--eps-grid", "0:1e-3:3lin", "--replicas", "1"],
             "--eps-grid"),
        ],
        ids=["pointwise-n", "sweep-n", "skdiag-n", "embed-n", "generate-seed",
             "sweep-decreasing-grid", "sweep-zero-grid"],
    )
    def test_bad_input_named_before_sampling(self, tmp_path, capsys, sample_calls,
                                             args, option):
        out = tmp_path / "out.csv"
        assert main(args + ["--out", str(out)]) == 1
        assert f"error: bad value for {option}: " in capsys.readouterr().err
        assert not out.exists()
        assert sample_calls == []

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

    def test_generate_roundtrip_clean(self, tmp_path):
        path = tmp_path / "d.csv"
        assert main(["generate", "--n", "25", "--seed", "9", "--out", str(path)]) == 0
        assert_csv_holds(noisy_dataset(25, DensitySpec.SINUSOIDAL_1D, None, 9), path)

    def test_generate_roundtrip_noisy(self, tmp_path):
        path = tmp_path / "d.csv"
        assert main(["generate", "--n", "25", "--seed", "9", "--noise", "simple",
                     "--m", "6", "--p-out", "0.3", "--out", str(path)]) == 0
        model = NoiseModel(NoiseKind.SIMPLE, 6, p_out=0.3)
        ds = noisy_dataset(25, DensitySpec.SINUSOIDAL_1D, model, 9)
        assert 0 < ds.outlier_flags.sum() < ds.n
        assert_csv_holds(ds, path)

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
        assert "slope_points must lie in [2, grid size]" in capsys.readouterr().err
        # rejected before the sweep runs, so no artifact is left behind
        assert not (tmp_path / "s.csv").exists()

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


    def test_bytes_rebuilt_from_library(self, tmp_path):
        """sweep, embed --eigen-out and skdiag files equal csv.writer's bytes
        for the library's own records, floats written as %.17g."""
        sk = SkConfig()
        circle = DensitySpec.UNIFORM_CIRCLE

        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--n", "60", "--density", "uniform_circle",
                     "--eps-grid", "1e-3:2e-3:2log", "--replicas", "2",
                     "--lap", "bistoch_rw", "--threads", "2", "--out", str(out)]) == 0
        recs = epsilon_sweep(60, circle, parse_grid("1e-3:2e-3:2log"), 2,
                             LaplacianKind.BISTOCH_RW, sk_config=sk, threads=1)
        assert out.read_bytes() == csv_bytes(
            ["epsilon", "relerr2_mean", "relerr2_std", "relerrinf_mean",
             "relerrinf_std", "mean_sk_iters", "replicas"],
            [[g17(r.epsilon), g17(r.relerr2_mean), g17(r.relerr2_std),
              g17(r.relerrinf_mean), g17(r.relerrinf_std), g17(r.mean_sk_iters),
              str(r.replicas)] for r in recs],
        )

        out, eigen = tmp_path / "embed.csv", tmp_path / "eig"
        assert main(["embed", "--n", "60", "--epsilon", "2e-3", "--replicas", "1",
                     "--m", "8", "--sigma-out", "0.05",
                     "--out", str(out), "--eigen-out", str(eigen)]) == 0
        model = NoiseModel(NoiseKind.SIMPLE, 8, sigma_out=0.05)
        res = embedding_experiment(60, model, 2e-3, sk_config=sk, replicas=1)
        assert out.read_bytes() == csv_bytes(
            ["method", "pair", "mse_mean", "mse_std", "replicas"],
            [[r.method, str(r.pair), g17(r.mse_mean), g17(r.mse_std),
              str(r.replicas)] for r in res.records],
        )
        assert res.records[0].method == "sk" and res.records[0].pair == 1
        for method, eig in res.first_eigenpairs.items():
            assert (tmp_path / f"eig_{method}.csv").read_bytes() == csv_bytes(
                ["mode", "eigenvalue"] + [f"v{i + 1}" for i in range(60)],
                [[str(k), g17(eig.values[k])] + [g17(v) for v in eig.vectors[:, k]]
                 for k in range(5)],
            )

        out = tmp_path / "hist.csv"
        assert main(["skdiag", "--n", "60", "--density", "uniform_circle",
                     "--epsilon", "2e-3", "--out", str(out)]) == 0
        ds = noisy_dataset(60, circle, None, 0)
        hist = approx_sym_sk(build_affinity(ds.points, 2e-3), sk).residual_history
        assert out.read_bytes() == csv_bytes(
            ["iter", "residual_inf"],
            [[str(k), g17(r)] for k, r in enumerate(hist, 1)],
        )


def g17(x):
    return format(x, ".17g")


def csv_bytes(header, rows):
    """The bytes csv.writer makes of a header and rows of text cells."""
    buf = io.StringIO(newline="")
    w = csv.writer(buf)
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue().encode()


def assert_csv_holds(ds, path):
    """The file is t, x1..xm, outlier; parsed back, every value is bitwise ds's."""
    with open(path, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    m = ds.points.shape[1]
    assert header == ["t"] + [f"x{j + 1}" for j in range(m)] + ["outlier"]
    assert all(len(row) == m + 2 for row in rows) and len(rows) == ds.n
    assert np.array_equal([float(row[0]) for row in rows], ds.t)
    assert np.array_equal([[float(v) for v in row[1:-1]] for row in rows], ds.points)
    flags = ds.outlier_flags if ds.outlier_flags is not None else np.zeros(ds.n)
    assert [row[-1] for row in rows] == [str(int(f)) for f in flags]


class TestUnconvergedWarning:
    """One stderr warning line counts the scalings that ran out of max_iter."""

    STARVED = ["--max-iter", "1", "--eps-sk", "1e-12"]

    @staticmethod
    def warnings(err):
        return [line for line in err.splitlines() if line.startswith("warning:")]

    @staticmethod
    def starved_pointwise(n, spec, epsilon, noise_model=None):
        return pointwise_experiment(
            n, spec, epsilon, LaplacianKind.BISTOCH_UN,
            sk_config=SkConfig(eps_sk=1e-12, max_iter=1), noise_model=noise_model,
        )

    def test_pointwise(self, tmp_path, capsys):
        args = ["pointwise", "--n", "60", "--density", "uniform_circle",
                "--epsilon", "2e-3", "--out", str(tmp_path / "pw.csv")]
        assert main(args + self.STARVED) == 0
        captured = capsys.readouterr()
        res = self.starved_pointwise(60, DensitySpec.UNIFORM_CIRCLE, 2e-3)
        assert self.warnings(captured.err) == [
            "warning: 1 of 1 scalings did not converge within max_iter=1 "
            f"(eps_sk=1e-12), last residual {res.sk_residual:.3e}"
        ]
        assert "sk_iters = 1" in captured.out

    def test_pointwise_residual_leaves_artifacts(self, tmp_path, capsys):
        # the residual goes to stderr only; stdout and the CSV are unchanged
        out = tmp_path / "pw.csv"
        args = ["pointwise", "--n", "80", "--epsilon", "2e-3", "--noise", "simple",
                "--m", "16", "--out", str(out)]
        assert main(args + self.STARVED) == 0
        captured = capsys.readouterr()
        res = self.starved_pointwise(
            80, DensitySpec.SINUSOIDAL_1D, 2e-3, NoiseModel(NoiseKind.SIMPLE, 16)
        )
        [line] = self.warnings(captured.err)
        assert line.endswith(f", last residual {res.sk_residual:.3e}")
        assert res.sk_residual > 1e-12
        keys = ("relerr2", "relerrinf", "sk_iters", "projection_hits")
        values = (fmt(res.relerr2), fmt(res.relerrinf), "1", str(res.projection_hits))
        assert captured.out.splitlines() == [f"{k} = {v}" for k, v in zip(keys, values)]
        rows = (",".join(keys), ",".join(values))
        assert out.read_bytes() == "".join(row + "\r\n" for row in rows).encode()

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
