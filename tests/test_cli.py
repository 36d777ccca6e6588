"""CLI dispatch, writers, SVG emission, determinism."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import biortho
from biortho import cli, dh_law, proof_lab, special
from biortho.gas_sampler import GasConfig, GFunction, Potential, mcmc_sample


def run(capsys, *argv):
    code = cli.dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDispatch:
    def test_no_args_usage(self, capsys):
        code, _, err = run(capsys)
        assert code == 1
        assert "usage" in err

    def test_unknown_flag(self, capsys):
        code, _, _ = run(capsys, "lambertw", "--bogus", "1")
        assert code == 1

    def test_unknown_subcommand(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 1

    def test_lambertw_near_e(self, capsys):
        code, out, _ = run(capsys, "lambertw", "--z", "2.718281828,0")
        assert code == 0
        re_, im_ = (float(v) for v in out.strip().split(","))
        assert im_ == 0.0
        assert abs(re_ - 1.0) < 1e-9
        # the printed value solves w e^w = z for the given (truncated) input
        assert abs(re_ * np.exp(re_) - 2.718281828) < 1e-12

    def test_lambertw_on_cut(self, capsys):
        # values starting with '-' need the --z=RE,IM form
        code, out, _ = run(capsys, "lambertw", "--z=-1,0")
        assert code == 0
        re_, im_ = (float(v) for v in out.strip().split(","))
        assert 0 < im_ < np.pi
        w = complex(re_, im_)
        assert abs(w * np.exp(w) + 1.0) < 1e-12

    def test_lambertw_domain_error_exit_code(self, capsys):
        code, _, err = run(capsys, "dh", "quantile", "--x", "1.5")
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize("argv", [("lambertw", "--z=nan,0"),
                                      ("lambertw", "--z=inf,0"),
                                      ("dh", "quantile", "--x", "nan")])
    def test_non_finite_is_domain_error_exit_1(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert "error" in err

    @pytest.mark.filterwarnings("error")        # a numpy warning fails the test
    @pytest.mark.parametrize("op,z", [("rtransform", "nan,0"),
                                      ("rtransform", "0.5,nan"),
                                      ("stieltjes", "nan,1"),
                                      ("stieltjes", "1,nan"),
                                      ("stieltjes", "inf,1")])
    def test_non_finite_transform_is_domain_error(self, capsys, op, z):
        code, out, err = run(capsys, "dh", op, f"--z={z}")
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    @pytest.mark.filterwarnings("error")        # a numpy warning fails the test
    @pytest.mark.parametrize("argv", [
        ("rate-largest", "--points", "0"),
        ("quantile-check", "--m", "0"),
        ("quantile-check", "--eps", "nan"),
        ("sample-matrix", "--n", "4", "--trials", "-1"),
        ("equilibrium", "--domain", "1e-4,inf"),
        ("equilibrium", "--tol", "nan"),
        ("equilibrium", "--grid", "30", "--max-iter", "-1"),
        ("rate-largest", "--grid", "30", "--x-max", "nan"),
        ("rate-largest", "--grid", "30", "--x-max", "0.1"),     # below b_eq
        ("sample-gas", "--n", "4", "--V", "poly:0,1,inf", "--steps", "5", "--burn-in", "5"),
        ("sample-gas", "--n", "4", "--V", "poly:nan,1", "--steps", "5", "--burn-in", "5"),
        ("equilibrium", "--grid", "30", "--V", "linear:inf"),
        ("equilibrium", "--grid", "30", "--g", "power:inf"),
        ("sample-gas", "--n", "4", "--b", "inf", "--steps", "5", "--burn-in", "5"),
        ("sample-matrix", "--n", "3", "--theta", "nan"),
        ("sample-matrix", "--n", "3", "--theta", "inf"),
        ("sample-matrix", "--n", "3", "--b", "inf"),
        ("quantile-check", "--dist", "uniform:1,inf"),
        ("quantile-check", "--dist", "uniform:nan,2"),
        ("equilibrium", "--domain", "1,2,3"),
        ("equilibrium", "--domain", "1"),
        ("quantile-check", "--dist", "uniform:1"),
    ])
    def test_invalid_request_is_validation_error(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        if argv[0] != "quantile-check":
            argv += ("--out", str(out))
        code, stdout, err = run(capsys, *argv)
        assert code == 1 and stdout == "" and not out.exists()
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    @pytest.mark.parametrize("cmd", ["equilibrium", "rate-largest"])
    def test_solver_has_no_b_flag(self, tmp_path, capsys, cmd):
        # the rate functional has no weight exponent, so --b is unknown there
        out = tmp_path / "out"
        code, stdout, err = run(capsys, cmd, "--grid", "30", "--b", "1", "--out", str(out))
        assert code == 1 and stdout == "" and not out.exists()
        assert err.startswith("usage: ")

    @pytest.mark.parametrize("argv,text", [
        (("equilibrium", "--domain", "1,2,3", "--out", "unused"), "1,2,3"),
        (("quantile-check", "--dist", "uniform:1"), "1"),
        (("lambertw", "--z", "1"), "1"),
    ])
    def test_pair_error_names_the_input(self, capsys, argv, text):
        assert run(capsys, *argv) == (1, "", f"error: expected A,B, got {text!r}\n")

    def test_cdf_at_nan_prints_nan(self, capsys):
        assert run(capsys, "dh", "cdf", "--x", "nan") == (0, "nan\n", "")

    def test_dispatches_share_no_state(self, tmp_path, capsys):
        # one parser serves every dispatch of the process: no flag, default
        # or error of one request may reach the next
        assert cli.build_parser() is cli.build_parser()
        csv = run(capsys, "dh", "cdf", "--csv", "--grid-points", "5")
        assert csv[0] == 0 and len(csv[1].splitlines()) == 6
        code, out, _ = run(capsys, "dh", "cdf", "--x", "1.0")
        assert code == 0 and out == f"{dh_law.DHLaw().cdf(1.0):.17g}\n"
        assert run(capsys, "lambertw", "--bogus", "1")[0] == 1
        assert run(capsys, "lambertw", "--z", "1,0")[0] == 0
        for chains in (3, 1):
            out = tmp_path / f"gas{chains}.csv"
            code, _, _ = run(capsys, "sample-gas", "--n", "4", "--steps", "20",
                             "--burn-in", "10", "--chains", str(chains),
                             "--out", str(out))
            assert code == 0 and len(out.read_text().splitlines()) == chains + 1
        assert run(capsys, "dh", "cdf", "--csv", "--grid-points", "5") == csv


class TestDhCommand:
    def test_moment_exact(self, capsys):
        code, out, _ = run(capsys, "dh", "moment", "--k", "3")
        assert code == 0
        assert float(out.strip()) == pytest.approx(1.125, abs=0)

    def test_moment_numeric(self, capsys):
        code, out, _ = run(capsys, "dh", "moment", "--k", "2", "--numeric")
        assert code == 0
        assert float(out.strip()) == pytest.approx(2.0 / 3.0, abs=1e-6)

    def test_density_value(self, capsys):
        code, out, _ = run(capsys, "dh", "density", "--x", "1.0")
        assert code == 0
        assert float(out.strip()) == pytest.approx(dh_law.dh_density(1.0), abs=0)

    def test_stieltjes(self, capsys):
        code, out, _ = run(capsys, "dh", "stieltjes", "--z", "0,1")
        assert code == 0
        re_, im_ = (float(v) for v in out.strip().split(","))
        assert im_ > 0

    def test_rtransform(self, capsys):
        code, out, _ = run(capsys, "dh", "rtransform", "--z", "0.5,0")
        assert code == 0
        re_, _ = (float(v) for v in out.strip().split(","))
        assert re_ == pytest.approx(2.0 / np.log(2.0) - 2.0, abs=1e-12)

    def test_csv_grid(self, capsys):
        code, out, _ = run(capsys, "dh", "density", "--csv",
                           "--grid-points", "20")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x,value"
        assert len(lines) == 21

    @pytest.mark.parametrize("op", ["density", "cdf", "quantile"])
    def test_csv_matches_per_row_calls(self, capsys, op):
        # one array call on the grid must print exactly what a scalar call
        # per row prints
        code, out, _ = run(capsys, "dh", op, "--csv", "--grid-points", "60")
        assert code == 0
        law = dh_law.DHLaw()
        fn = {"density": dh_law.dh_density, "cdf": law.cdf,
              "quantile": law.quantile}[op]
        if op == "quantile":
            grid = np.linspace(0.005, 0.995, 60)
        else:
            grid = np.linspace(0.0, float(np.e), 60)
        rows = [f"{float(xv):.17g},{float(fn(xv)):.17g}" for xv in grid]
        assert out == "x,value\n" + "\n".join(rows) + "\n"


class TestSampleMatrix:
    def test_csv_deterministic(self, tmp_path, capsys):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        for out in (out1, out2):
            code, _, _ = run(capsys, "sample-matrix", "--n", "16", "--theta",
                             "0", "--b", "1", "--trials", "3", "--seed", "7",
                             "--out", str(out))
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()
        lines = out1.read_text().splitlines()
        assert lines[0] == "trial," + ",".join(f"x{i+1}" for i in range(16))
        assert len(lines) == 4
        row = lines[1].split(",")
        assert row[0] == "0"
        vals = np.array([float(v) for v in row[1:]])
        assert np.all(np.diff(vals) >= 0)


class TestSampleGas:
    def test_smoke(self, tmp_path, capsys):
        out = tmp_path / "gas.csv"
        code, msg, _ = run(capsys, "sample-gas", "--n", "6", "--g", "id",
                           "--V", "linear:1", "--b", "1", "--steps", "60",
                           "--burn-in", "40", "--chains", "2", "--seed", "3",
                           "--out", str(out))
        assert code == 0
        assert "acceptance rates" in msg
        lines = out.read_text().splitlines()
        assert len(lines) == 3

    def test_chains_match_single_chain_runs(self, tmp_path, capsys):
        # row c is the sampler's chain c at the given seed, and row 0 the
        # single-chain run at that seed: the CLI passes --seed through
        out = tmp_path / "gas.csv"
        code, msg, _ = run(capsys, "sample-gas", "--n", "6", "--g", "log",
                           "--steps", "50", "--burn-in", "30", "--chains", "3",
                           "--seed", "3", "--out", str(out))
        assert code == 0
        rows = out.read_text().splitlines()[1:]
        cfg = GasConfig(6, GFunction("log"), Potential.linear(1.0), 1.0)
        _, diag = mcmc_sample(cfg, steps=50, burn_in=30, seed=3, chains=3)
        assert rows == [f"{c}," + ",".join(f"{v:.17g}" for v in np.sort(x))
                        for c, x in enumerate(diag.final)]
        single, _ = mcmc_sample(cfg, steps=50, burn_in=30, seed=3)
        assert rows[0] == "0," + ",".join(f"{v:.17g}" for v in single.points)
        rates = ", ".join(f"{a:.3f}" for a in diag.chain_acceptance)
        assert msg.rstrip().endswith("acceptance rates: " + rates)

    def test_growth_failure_exit_1(self, tmp_path, capsys):
        code, _, err = run(capsys, "sample-gas", "--n", "4", "--g", "exp",
                           "--V", "linear:1", "--out", str(tmp_path / "x.csv"))
        assert code == 1
        assert "growth" in err


class TestEquilibriumCommand:
    def test_report_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        plot = tmp_path / "plot.svg"
        code, _, _ = run(capsys, "equilibrium", "--g", "log", "--V", "linear:1",
                         "--grid", "60", "--domain", "1e-3,4", "--tol", "1e-3",
                         "--max-iter", "30000", "--out", str(out),
                         "--plot", str(plot), "--overlay-dh")
        assert code == 0
        payload = json.loads(out.read_text())
        assert len(payload["nodes"]) == 60
        assert sum(payload["weights"]) == pytest.approx(1.0, abs=1e-9)
        assert payload["kkt_residual"] <= 1e-3
        assert payload["iterations"] > 0
        assert payload["run_config"]["subcommand"] == "equilibrium"
        assert "b" not in payload["run_config"]["params"]
        svg = plot.read_text()
        assert svg.startswith("<svg")
        assert svg.count("<path") == 1      # overlay curve only; bars are rects
        assert "<rect" in svg

    def test_rate_largest(self, tmp_path, capsys):
        out = tmp_path / "j.json"
        code, _, _ = run(capsys, "rate-largest", "--g", "log", "--V", "linear:1",
                         "--grid", "60", "--domain", "1e-3,4", "--tol", "1e-3",
                         "--max-iter", "30000", "--points", "10",
                         "--out", str(out))
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["j"][0] == 0.0
        assert all(b >= a for a, b in zip(payload["j"], payload["j"][1:]))

    def test_rate_largest_unconverged_exit_2(self, tmp_path, capsys):
        out = tmp_path / "j.json"
        code, _, _ = run(capsys, "rate-largest", "--grid", "60", "--domain", "1e-3,4",
                         "--max-iter", "1", "--points", "10", "--out", str(out))
        assert code == 2
        assert len(json.loads(out.read_text())["j"]) == 10

    def test_equilibrium_defaults_converge(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code, _, _ = run(capsys, "equilibrium", "--out", str(out))
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["converged"] is True
        assert payload["kkt_residual"] <= payload["run_config"]["params"]["tol"]

    @pytest.mark.filterwarnings("error")        # a numpy warning fails the test
    def test_domain_floor_below_underflow(self, tmp_path, capsys):
        # products of two cell widths near 1e-300 are below the smallest double
        out = tmp_path / "report.json"
        code, msg, err = run(capsys, "equilibrium", "--grid", "400",
                             "--domain", "1e-300,4", "--out", str(out))
        assert code == 0 and err == "" and "converged True" in msg
        assert json.loads(out.read_text())["converged"] is True

    @pytest.mark.parametrize("argv,lo,hi", [(("--grid", "3"), 1e-4, 4.0),
                                            (("--domain", "0.05,0.08"), 0.05, 0.08)])
    def test_small_or_narrow_grid_solves_on_its_domain(self, tmp_path, capsys, argv, lo, hi):
        out = tmp_path / "report.json"
        code, _, _ = run(capsys, "equilibrium", *argv, "--out", str(out))
        assert code == 0
        nodes = json.loads(out.read_text())["nodes"]
        assert (nodes[0], nodes[-1]) == (lo, hi)

    def test_run_config_records_outputs(self, tmp_path, capsys):
        out, plot = tmp_path / "report.json", tmp_path / "P.svg"
        code, _, _ = run(capsys, "equilibrium", "--grid", "60", "--domain", "1e-3,4",
                         "--tol", "1e-3", "--out", str(out), "--plot", str(plot))
        assert code == 0
        run_config = json.loads(out.read_text())["run_config"]
        assert run_config["out"] == str(out)
        assert run_config["plot"] == str(plot)
        out_j = tmp_path / "j.json"
        code, _, _ = run(capsys, "rate-largest", "--grid", "60", "--domain", "1e-3,4",
                         "--out", str(out_j))
        assert code == 0
        run_config = json.loads(out_j.read_text())["run_config"]
        assert run_config["out"] == str(out_j)
        assert run_config["params"]["tol"] == 1e-4

    def test_plot_bar_areas_sum_to_one(self, tmp_path, capsys, monkeypatch):
        drawn, emit_svg = [], cli.emit_svg

        def capture(histogram, **kwargs):
            drawn.append(histogram)
            return emit_svg(histogram, **kwargs)

        monkeypatch.setattr(cli, "emit_svg", capture)
        code, _, _ = run(capsys, "equilibrium", "--out", str(tmp_path / "r.json"),
                         "--plot", str(tmp_path / "p.svg"))
        assert code == 0
        edges, heights = drawn[0]
        assert abs(float(np.sum(heights * np.diff(edges))) - 1.0) <= 1e-12


class TestQuantileCheckCommand:
    def test_uniform_json(self, capsys):
        code, out, _ = run(capsys, "quantile-check", "--dist", "uniform:1,2",
                           "--n", "50", "--eps", "0.1", "--g", "id")
        assert code == 0
        payload = json.loads(out)
        assert payload["spacing_ok"] is True
        assert payload["a_max"] == pytest.approx(1.5, abs=1e-9)
        assert payload["bl_value"] <= payload["bl_bound"]

    def test_ratios_evaluated(self, capsys):
        code, out, _ = run(capsys, "quantile-check", "--dist", "uniform:1,2",
                           "--n", "200", "--eps", "0.1", "--g", "log")
        assert code == 0
        grid = proof_lab.build_quantile_grid(proof_lab.uniform_nice(1.0, 2.0), 200)
        stats = proof_lab.ratio_statistics(grid, GFunction("log"), 0.1)
        assert json.loads(out)["ratios_evaluated"] == stats.evaluated

    def test_dh_trunc_floor_in_the_edge_zone_is_validation_error(self, capsys):
        code, out, err = run(capsys, "quantile-check", "--dist", "dh-trunc:1e-20")
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.mark.filterwarnings("error")        # a numpy warning fails the test
@pytest.mark.parametrize("argv", [
    ("quantile-check", "--dist", "uniform:1000,1001", "--n", "50"),
    ("quantile-check", "--dist", "dh-trunc:0.1", "--n", "50", "--m", "100"),
    ("equilibrium", "--grid", "60", "--domain", "1e-3,4", "--tol", "1e-3", "--out"),
    ("rate-largest", "--grid", "60", "--domain", "1e-3,4", "--points", "5", "--out"),
], ids=["quantile-check-uniform", "quantile-check-dh-trunc", "equilibrium", "rate-largest"])
def test_json_output_is_strict(tmp_path, capsys, argv):
    # json.dumps writes NaN and Infinity, which strict JSON readers refuse
    out = tmp_path / "out.json"
    if argv[-1] == "--out":
        argv += (str(out),)
    code, stdout, _ = run(capsys, *argv)
    assert code == 0
    text = out.read_text() if argv[0] != "quantile-check" else stdout
    json.loads(text, parse_constant=_reject_constant)


class TestSvg:
    def test_single_path_for_curve(self):
        xs = np.linspace(0, np.e, 200)
        svg = cli.emit_svg((np.linspace(0, np.e, 11), np.ones(10)),
                           overlay=(xs, dh_law.dh_density(xs)), title="density")
        assert svg.count("<path") == 1
        assert svg.startswith("<svg")
        assert svg.endswith("</svg>\n")

    def test_histogram_plus_overlay(self):
        rng = np.random.default_rng(0)
        data = rng.uniform(0, np.e, 4000)
        heights, edges = np.histogram(data, bins=24, density=True)
        # density normalization: total area is exactly 1
        assert np.sum(heights * np.diff(edges)) == pytest.approx(1.0, abs=1e-9)
        xs = np.linspace(0.01, np.e, 100)
        svg = cli.emit_svg(histogram=(edges, heights),
                           overlay=(xs, dh_law.dh_density(xs)))
        assert svg.count("<path") == 1
        assert svg.count("<rect") >= 24

    def test_deterministic_bytes(self):
        xs = np.linspace(0, 1, 50)
        edges, heights = np.linspace(0, 1, 6), np.arange(5.0)
        a = cli.emit_svg((edges, heights), overlay=(xs, xs ** 2))
        b = cli.emit_svg((edges, heights), overlay=(xs, xs ** 2))
        assert a == b

    def test_histogram_only(self):
        edges = np.linspace(0, 1, 11)
        heights = np.ones(10)
        svg = cli.emit_svg(histogram=(edges, heights))
        assert svg.count("<path") == 0
        assert svg.count('fill-opacity="0.75"') == 10

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            cli.emit_svg((np.array([0.0]), np.array([])))
        with pytest.raises(ValueError):
            cli.emit_svg((np.linspace(0, 1, 3), np.ones(2)),
                         overlay=(np.array([]), np.array([])))


def test_verify_single_fast_criterion(capsys):
    code, out, _ = run(capsys, "verify", "--only", "1")
    assert code == 0
    assert "moment-identity" in out
    assert "PASS" in out
    # seconds to the millisecond: criterion 7 takes about 0.04 s
    assert re.search(r"^ +1 moment-identity +PASS +\d+\.\d{3}s  ", out, re.M)


def test_verify_prints_each_criterion_once(capsys):
    code, out, _ = run(capsys, "verify", "--only", "1,7")
    assert code == 0
    for name in ("moment-identity", "proof-lab-uniform"):
        assert out.count(name) == 1
    assert "lambert-w-roundtrip" not in out


@pytest.mark.parametrize("only", ["11", "0", "1,11"])
def test_verify_rejects_unknown_criterion(capsys, only):
    code, out, err = run(capsys, "verify", "--only", only)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_runtime_imports_no_scipy():
    # the runtime needs only numpy; scipy is a test dependency
    code = ("import importlib, pkgutil, sys, biortho\n"
            "names = [m.name for m in pkgutil.iter_modules(biortho.__path__)]\n"
            "for name in names:\n"
            "    importlib.import_module('biortho.' + name)\n"
            "print(' '.join(names))\n"
            "print(' '.join(m for m in sys.modules if m.startswith('scipy')))\n")
    src = str(Path(biortho.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    names, loaded = (out + "\n").split("\n")[:2]
    assert "cli" in names.split()
    assert loaded.split() == []


def test_moments_load_no_numpy_polynomial():
    # the moment rule is closed-form: no numpy.polynomial, no eigen-solve
    code = ("import importlib, pkgutil, sys, biortho\n"
            "for m in pkgutil.iter_modules(biortho.__path__):\n"
            "    importlib.import_module('biortho.' + m.name)\n"
            "law = biortho.dh_law.DHLaw()\n"
            "print(sum(law.moment_numeric(k) for k in range(13)))\n"
            "print(' '.join(m for m in sys.modules if m.startswith('numpy.polynomial')))\n")
    src = str(Path(biortho.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    total, loaded = (out + "\n").split("\n")[:2]
    assert float(total) > 1.0
    assert loaded.split() == []
