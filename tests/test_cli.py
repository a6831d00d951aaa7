"""Command line runner: outputs, exit codes, reproducibility."""
import csv
import ctypes
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from infbsde import (DirectConfig, Grid, GridSolveConfig, NnPicardConfig,
                     RateStudyConfig, RngStream, SchemeParams,
                     contraction_nn_solve, estimate_c_constants,
                     problem_by_name)
from infbsde.cli import (_DEFAULTS, _ContractionConfig, _build, _format,
                         _sweep_seed, build_parser, run)
from infbsde.neural import load_checkpoint
from test_cold_start import COMMANDS

SRC = str(Path(__file__).resolve().parents[1] / "src")


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.reader(handle))


def without_seconds(rows):
    return [row[:-1] for row in rows]


def svg_plot(path):
    """The polylines and the legend texts of an SVG plot."""
    root = ET.parse(path).getroot()
    ns = "{http://www.w3.org/2000/svg}"
    return (list(root.iter(f"{ns}polyline")),
            [t.text for t in root.iter(f"{ns}text") if t.get("fill")])


def grid_args(out, seed="3"):
    return ["grid-solve", "--problem", "linear-constant", "--ntilde", "2",
            "--R", "1.0", "--M", "200", "--iters", "2", "--seed", seed,
            "--out", str(out)]


def picard_args(out, **extra):
    args = ["nn-picard", "--problem", "linear-constant", "--M", "32",
            "--iters", "2", "--steps", "10", "--m-err", "64",
            "--hidden", "8", "--seed", "7", "--out", str(out)]
    for flag, value in extra.items():
        args += [f"--{flag}", value]
    return args


class TestGridSolve:
    def test_outputs(self, tmp_path):
        out = tmp_path / "g"
        assert run(grid_args(out)) == 0
        for name in ("config_echo.json", "iterations.csv",
                     "grid_solution.csv", "errors.svg"):
            assert (out / name).exists()
        rows = read_csv(out / "iterations.csv")
        assert rows[0] == ["n", "sup_err_u", "sup_err_ubar", "seconds"]
        assert [r[0] for r in rows[1:]] == ["1", "2"]
        solution = read_csv(out / "grid_solution.csv")
        # 5 nodes for ntilde=2, plus the header
        assert len(solution) == 6
        assert solution[0][:2] == ["i1", "x1"]
        assert (out / "errors.svg").read_text(encoding="utf-8").startswith(
            "<svg")

    def test_without_exact_solution(self, tmp_path, monkeypatch):
        from infbsde import picard_grid
        real = picard_grid.problem_by_name
        monkeypatch.setattr(
            picard_grid, "problem_by_name",
            lambda *args: dataclasses.replace(real(*args), analytic=None))
        out = tmp_path / "g"
        assert run(grid_args(out)) == 0
        rows = read_csv(out / "iterations.csv")
        assert [r[1:3] for r in rows[1:]] == [["nan", "nan"]] * 2
        assert "err_u" not in read_csv(out / "grid_solution.csv")[0]
        assert not (out / "errors.svg").exists()

    def test_rerun_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(grid_args(a)) == 0
        assert run(grid_args(b)) == 0
        assert (a / "grid_solution.csv").read_bytes() == \
            (b / "grid_solution.csv").read_bytes()
        # wall-clock timings differ; everything else must match
        assert without_seconds(read_csv(a / "iterations.csv")) == \
            without_seconds(read_csv(b / "iterations.csv"))

    def test_config_echo_reproduces_run(self, tmp_path):
        first = tmp_path / "first"
        assert run(grid_args(first)) == 0
        echo = json.loads((first / "config_echo.json").read_text(
            encoding="utf-8"))
        assert echo["command"] == "grid-solve"
        assert echo["problem"] == "linear-constant"
        assert echo["n_half"] == 2
        assert echo["m_samples"] == 200
        second = tmp_path / "second"
        rc = run(["grid-solve", "--config",
                  str(first / "config_echo.json"), "--out", str(second)])
        assert rc == 0
        assert (first / "grid_solution.csv").read_bytes() == \
            (second / "grid_solution.csv").read_bytes()

    def test_flags_override_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"problem": "linear-constant",
                                   "n_half": 2, "half_width": 1.0,
                                   "m_samples": 200, "n_iters": 2}),
                       encoding="utf-8")
        out = tmp_path / "o"
        rc = run(["grid-solve", "--config", str(cfg), "--iters", "3",
                  "--out", str(out)])
        assert rc == 0
        echo = json.loads((out / "config_echo.json").read_text(
            encoding="utf-8"))
        assert echo["n_iters"] == 3
        assert len(read_csv(out / "iterations.csv")) == 4


def has_mallopt():
    try:
        ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return False
    return True


# two CLI calls at the grid-brownian-d2 shape (81 nodes x 1,500 draws); prints
# the minor page faults of the second
FAULT_PROBE = """
import resource, sys
from infbsde.cli import run
assert run(sys.argv[1:]) == 0
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
assert run(sys.argv[1:]) == 0
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


class TestFreedHeap:
    @pytest.mark.skipif(not has_mallopt(), reason="no glibc mallopt: the "
                        "CLI leaves the allocator as it finds it")
    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_grid_chunks_do_not_fault_freed_heap_back_in(self, tmp_path,
                                                          threads):
        # a fresh interpreter: a large free in an earlier test raises glibc's
        # dynamic thresholds and would hide the churn (21-26k faults a call
        # with glibc's start-up thresholds, under 50 with the CLI's)
        argv = ["grid-solve", "--problem", "arctan-const-sigma", "--d", "2",
                "--ntilde", "4", "--M", "1500", "--iters", "2",
                "--out", str(tmp_path / "g")]
        probe = subprocess.run(
            [sys.executable, "-c", FAULT_PROBE, *argv], check=True,
            capture_output=True, text=True, timeout=300,
            env={**os.environ, "PYTHONPATH": SRC, "BSDE_THREADS": threads})
        assert int(probe.stdout) < 1000

    @pytest.mark.parametrize("libc", ["missing", "without-mallopt"])
    def test_runs_unchanged_without_mallopt(self, tmp_path, monkeypatch,
                                            libc):
        normal, plain = tmp_path / "normal", tmp_path / "plain"
        assert run(grid_args(normal)) == 0
        lookups = []

        def lookup(name):
            lookups.append(name)
            if libc == "missing":
                raise OSError(f"{name}: cannot open shared object file")
            return object()

        monkeypatch.setattr(ctypes, "CDLL", lookup)
        assert run(grid_args(plain)) == 0
        assert lookups
        assert (normal / "grid_solution.csv").read_bytes() == \
            (plain / "grid_solution.csv").read_bytes()
        assert without_seconds(read_csv(normal / "iterations.csv")) == \
            without_seconds(read_csv(plain / "iterations.csv"))


class TestConfigErrors:
    def test_missing_problem(self, tmp_path, capsys):
        out = tmp_path / "never"
        assert run(["grid-solve", "--out", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_problem(self, tmp_path, capsys):
        out = tmp_path / "never"
        rc = run(["grid-solve", "--problem", "bogus", "--out", str(out)])
        assert rc == 2
        assert "bogus" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"problem": "linear-constant",
                                   "typo_key": 1}), encoding="utf-8")
        out = tmp_path / "never"
        rc = run(["grid-solve", "--config", str(cfg), "--out", str(out)])
        assert rc == 2
        assert "typo_key" in capsys.readouterr().err
        assert not out.exists()

    def test_echo_rejected_by_other_command(self, tmp_path, capsys):
        first = tmp_path / "first"
        assert run(grid_args(first)) == 0
        rc = run(["nn-picard", "--config", str(first / "config_echo.json"),
                  "--out", str(tmp_path / "never")])
        assert rc == 2
        assert "grid-solve" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{", encoding="utf-8")
        rc = run(["grid-solve", "--config", str(cfg),
                  "--out", str(tmp_path / "never")])
        assert rc == 2
        assert "cannot read config file" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["[1, 2]", '"grid"', "3", "null"])
    def test_config_must_be_an_object(self, tmp_path, capsys, text):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text, encoding="utf-8")
        out = tmp_path / "never"
        rc = run(["grid-solve", "--config", str(cfg), "--out", str(out)])
        assert rc == 2
        assert "must hold a JSON object" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_flag_value(self, tmp_path, capsys):
        rc = run(["grid-solve", "--problem", "linear-constant",
                  "--iters", "abc"])
        capsys.readouterr()
        assert rc == 2

    def test_no_subcommand(self, capsys):
        assert run([]) == 2
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0
        assert "grid-solve" in capsys.readouterr().out

    def test_parser_shared_across_calls(self, tmp_path, capsys):
        # the parser is built once per process: a call that fails in it
        # must leave the next call as a fresh process would run it
        assert build_parser() is build_parser()
        bad = tmp_path / "bad"
        assert run(grid_args(bad) + ["--M", "x"]) == 2
        assert "invalid int value" in capsys.readouterr().err
        assert not bad.exists()
        again, fresh = tmp_path / "again", tmp_path / "fresh"
        assert run(grid_args(again)) == 0
        subprocess.run([sys.executable, "-c",
                        "from infbsde.cli import main; main()",
                        *grid_args(fresh)], check=True, capture_output=True,
                       env={**os.environ, "PYTHONPATH": SRC})
        for name in ("config_echo.json", "grid_solution.csv"):
            assert (again / name).read_bytes() == (fresh / name).read_bytes()
        assert without_seconds(read_csv(again / "iterations.csv")) == \
            without_seconds(read_csv(fresh / "iterations.csv"))


def test_default_output_directory(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run(grid_args(tmp_path / "x")[:-2]) == 0
    assert (tmp_path / "runs" / "grid-solve" / "iterations.csv").exists()


class TestRateStudy:
    def test_outputs(self, tmp_path, capsys):
        out = tmp_path / "r"
        rc = run(["rate-study", "--problem", "linear-constant", "--R", "1.0",
                  "--iters", "2", "--ntilde-list", "2,3,4", "--k", "4",
                  "--seed", "1", "--out", str(out)])
        assert rc == 0
        rows = read_csv(out / "rate_study.csv")
        assert rows[0] == ["ntilde", "M", "sup_err_u", "sup_err_ubar"]
        assert [r[0] for r in rows[1:]] == ["2", "3", "4"]
        samples = [int(r[1]) for r in rows[1:]]
        assert samples == sorted(samples)
        fit = json.loads((out / "rate_fit.json").read_text(encoding="utf-8"))
        assert set(fit) == {"slope", "intercept"}
        assert np.isfinite(fit["slope"])
        # the sup errors and the fitted power law, slope in its legend
        lines, labels = svg_plot(out / "rate_fit.svg")
        assert len(lines) == 2
        assert labels == ["sup error", f"fit, slope {fit['slope']:.3f}"]
        assert "fitted slope:" in capsys.readouterr().out

    def test_needs_three_sizes(self, tmp_path, capsys):
        out = tmp_path / "never"
        rc = run(["rate-study", "--problem", "linear-constant",
                  "--ntilde-list", "2,3", "--out", str(out)])
        assert rc == 2
        assert "at least 3" in capsys.readouterr().err
        assert not out.exists()


class TestNnPicard:
    def test_outputs(self, tmp_path):
        out = tmp_path / "p"
        assert run(picard_args(out)) == 0
        rows = read_csv(out / "nn_trace.csv")
        assert rows[0] == ["n", "loss", "rel_err_u", "rel_err_ubar",
                           "seconds"]
        assert [r[0] for r in rows[1:]] == ["1", "2"]
        assert (out / "nn_trace.svg").exists()
        # per-iteration checkpoints hold the network only, no optimizer
        with np.load(out / "net_iter_02.npz") as data:
            layers = range(int(data["dims"][2]))
            assert sorted(data.files) == sorted(
                ["dims", *(f"{c}{k}" for k in layers for c in "wb")])
        net = load_checkpoint(out / "net_iter_02.npz")
        value = net(np.zeros((1, 1)))[0]
        assert np.isfinite(value).all()

    def test_rerun_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(picard_args(a)) == 0
        assert run(picard_args(b)) == 0
        assert without_seconds(read_csv(a / "nn_trace.csv")) == \
            without_seconds(read_csv(b / "nn_trace.csv"))
        net_a = load_checkpoint(a / "net_iter_02.npz")
        net_b = load_checkpoint(b / "net_iter_02.npz")
        for wa, wb in zip(net_a.weights, net_b.weights):
            assert np.array_equal(wa, wb)

    def test_numerical_failure_exits_one(self, tmp_path, capsys):
        out = tmp_path / "blowup"
        # two wide layers let an absurd learning rate overflow the loss
        with np.errstate(over="ignore"):
            rc = run(picard_args(out, lr="1e60", hidden="8,8"))
        assert rc == 1
        assert "numerical failure" in capsys.readouterr().err
        # config echo lands before the run starts; no trace is written
        assert (out / "config_echo.json").exists()
        assert not (out / "nn_trace.csv").exists()


class TestNnDirect:
    def test_outputs(self, tmp_path):
        out = tmp_path / "d"
        rc = run(["nn-direct", "--problem", "linear-constant",
                  "--epochs", "2", "--steps", "5", "--M-x", "16", "--M", "8",
                  "--m-err", "64", "--hidden", "8", "--seed", "2",
                  "--out", str(out)])
        assert rc == 0
        rows = read_csv(out / "nn_trace.csv")
        assert rows[0][0] == "n"
        assert len(rows) >= 3
        net = load_checkpoint(out / "net_final.npz")
        assert np.isfinite(net(np.zeros((1, 1)))[0]).all()


class TestContraction:
    def args(self, out, **extra):
        args = ["contraction", "--problem", "arctan-const-sigma",
                "--M", "400", "--probe-ntilde", "2", "--probe-R", "1.0",
                "--mu0-probes", "3", "--seed", "5", "--out", str(out)]
        for flag, value in extra.items():
            args += [f"--{flag.replace('_', '-')}", value]
        return args

    def test_closed_form_source(self, tmp_path):
        out = tmp_path / "c"
        assert run(self.args(out)) == 0
        rows = read_csv(out / "contraction_report.csv")
        assert rows[0] == ["name", "value", "status"]
        by_name = {r[0]: r for r in rows[1:]}
        for name in ("c_inf_estimate", "c_tilde_inf_estimate", "c_source",
                     "monotonicity_margin", "kappa_inf", "simplified_bound"):
            assert name in by_name
        assert not any(name.startswith("kappa_p") for name in by_name)
        # Brownian dynamics with the plain sup norm use the exact constants
        assert by_name["c_source"][2] == "closed form"
        assert by_name["discount_y"][2] == "ok"
        assert float(by_name["c_inf_estimate"][1]) > 0
        assert by_name["c_inf_estimate"][2].startswith("se=")

    def test_probe_estimate_source(self, tmp_path):
        out = tmp_path / "w"
        assert run(self.args(out, weight_degree="2.0")) == 0
        by_name = {r[0]: r for r in read_csv(
            out / "contraction_report.csv")[1:]}
        assert by_name["c_source"][2] == "probe-max estimate (lower bound)"

    def test_start_law_probes_come_from_stream_one(self, tmp_path):
        # probe grid nodes first, then the start-law draws of stream 1;
        # the estimator's own draws use stream 0 of the same seed.  At this
        # seed the largest c_tilde_inf estimate is at a start-law probe.
        out = tmp_path / "s"
        assert run(["contraction", "--problem", "arctan-tanh-sigma", "--dt",
                    "0.05", "--M", "200", "--probe-ntilde", "2",
                    "--mu0-probes", "3", "--seed", "7",
                    "--out", str(out)]) == 0
        problem = problem_by_name("arctan-tanh-sigma")
        draws = RngStream(7, stream_id=1).generator().normal(
            0.0, problem.mu0_std, size=(3, 1))
        probes = np.vstack([Grid(1, 2, 1.5).nodes, draws])
        est = estimate_c_constants(problem, SchemeParams(), 0.0, probes, 200,
                                   0.05, RngStream(7))
        by_name = {r[0]: r for r in read_csv(
            out / "contraction_report.csv")[1:]}
        assert by_name["c_inf_estimate"][1] == _format(est.c_inf)
        assert by_name["c_tilde_inf_estimate"][1] == _format(est.c_tilde_inf)

    def test_negative_c_and_kz(self, tmp_path):
        # the driver's constants are |c| + 1 and |kz|, whatever the signs
        out = tmp_path / "n"
        assert run(self.args(out, kz="-1", c="-3")) == 0
        by_name = {r[0]: r for r in read_csv(
            out / "contraction_report.csv")[1:]}
        assert float(by_name["lip_y"][1]) == 4.0
        assert float(by_name["lip_z"][1]) == 1.0
        assert float(by_name["monotonicity_margin"][1]) == -9.0

    def test_kernel_norm_whose_square_overflows(self, tmp_path):
        # c_inf is finite but c_inf**2 is not; this once exited 1 with
        # "(34, 'Numerical result out of range')"
        out = tmp_path / "o"
        assert run(["contraction", "--problem", "arctan-const-sigma",
                    "--weight-degree", "300", "--M", "200", "--probe-R", "1",
                    "--out", str(out)]) == 0
        by_name = {r[0]: r for r in read_csv(
            out / "contraction_report.csv")[1:]}
        assert np.isfinite(float(by_name["c_inf"][1]))
        assert by_name["kappa_inf"][1:] == ["inf", "not a contraction"]
        # the squares of its draws overflow too; this once wrote se=inf
        status = by_name["c_inf_estimate"][2]
        assert status.startswith("se=") and np.isfinite(float(status[3:]))

    def test_non_finite_probe_exits_one(self, tmp_path, capsys):
        # this once exited 0 with numpy warnings and c_inf_estimate inf
        out = tmp_path / "o"
        assert run(["contraction", "--problem", "arctan-const-sigma",
                    "--weight-degree", "400", "--M", "200",
                    "--out", str(out)]) == 1
        assert "non-finite mean at probe 0" in capsys.readouterr().err
        assert not (out / "contraction_report.csv").exists()

    def test_p_flag_rejected(self, tmp_path, capsys):
        out = tmp_path / "never"
        assert run(self.args(out, p="2")) == 2
        assert "--p" in capsys.readouterr().err
        assert not out.exists()

    def test_p_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"problem": "arctan-const-sigma", "p": 2.0}),
                       encoding="utf-8")
        out = tmp_path / "never"
        assert run(["contraction", "--config", str(cfg),
                    "--out", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()


class TestKzSweep:
    def args(self, out):
        return ["kz-sweep", "--problem", "arctan-const-sigma",
                "--scheme", "nn-picard", "--kz-list", "0.5,1.5",
                "--reps", "2", "--M", "16", "--iters", "1", "--steps", "5",
                "--m-err", "32", "--hidden", "4", "--seed", "9",
                "--out", str(out)]

    def test_outputs(self, tmp_path):
        out = tmp_path / "s"
        assert run(self.args(out)) == 0
        rows = read_csv(out / "kz_sweep.csv")
        assert rows[0] == ["kz", "rep", "du", "dubar"]
        assert [(float(r[0]), int(r[1])) for r in rows[1:]] == \
            [(0.5, 0), (0.5, 1), (1.5, 0), (1.5, 1)]
        assert all(0 < float(r[2]) < np.inf for r in rows[1:])
        # every cell is finite: one line per quantile of the error
        lines, labels = svg_plot(out / "kz_sweep.svg")
        assert len(lines) == 5
        assert labels == ["10%", "25%", "50%", "75%", "90%"]

    def test_failed_cell_drops_its_kz_from_the_plot(self, tmp_path,
                                                    monkeypatch):
        from infbsde import NonFiniteValue, cli
        real = cli.contraction_nn_solve

        def failing_at_kz(config):
            if config.overrides["kz"] == 1.5:
                raise NonFiniteValue("loss inf at step 0")
            return real(config)

        monkeypatch.setattr(cli, "contraction_nn_solve", failing_at_kz)
        out = tmp_path / "s"
        assert run(self.args(out)) == 0
        rows = read_csv(out / "kz_sweep.csv")[1:]
        assert [r[2] == "inf" for r in rows] == [False, False, True, True]
        lines, _ = svg_plot(out / "kz_sweep.svg")
        # each quantile keeps only kz 0.5
        assert [len(line.get("points").split()) for line in lines] == [1] * 5

    def test_cell_matches_direct_solve(self, tmp_path):
        out = tmp_path / "s"
        assert run(self.args(out)) == 0
        first = read_csv(out / "kz_sweep.csv")[1]
        config = NnPicardConfig(
            problem="arctan-const-sigma", dim=1, overrides={"kz": 0.5},
            params=SchemeParams(2.0, 2.0, 1.5, 1.5), n_iters=1,
            m_samples=16, train_steps=5, hidden=(4,), warm_start=True,
            base_lr=5e-4, lr_decay=0.9, lr_decay_period=1000, dt=None,
            m_err=32, seed=_sweep_seed(9, 0, 0))
        result = contraction_nn_solve(config)
        assert float(first[2]) == result.trace[-1].rel_err_u

    def test_empty_kz_list_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"problem": "arctan-const-sigma",
                                   "kz_list": []}), encoding="utf-8")
        out = tmp_path / "never"
        rc = run(["kz-sweep", "--config", str(cfg), "--out", str(out)])
        assert rc == 2
        assert "kz_list" in capsys.readouterr().err
        assert not out.exists()

    def test_problem_without_kz_rejected(self, tmp_path, capsys):
        out = tmp_path / "never"
        rc = run(["kz-sweep", "--problem", "linear-constant",
                  "--kz-list", "0.5", "--out", str(out)])
        assert rc == 2
        capsys.readouterr()
        assert not out.exists()

    @pytest.mark.parametrize("scheme, budget, key, value", [
        ("nn-picard", {"n_iters": 1, "train_steps": 0, "m_samples": 2},
         "n_epochs", 3),
        ("nn-direct", {"n_epochs": 1, "steps_per_epoch": 0, "m_starts": 2,
                       "m_inner": 2}, "warm_start", False)])
    def test_other_schemes_config_key_rejected(self, tmp_path, capsys, scheme,
                                               budget, key, value):
        # a value the sweep would not use (small budgets, so a sweep that
        # wrongly runs ends fast)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "problem": "arctan-const-sigma", "scheme": scheme,
            "kz_list": [1.0], "reps": 1, "m_err": 2, **budget, key: value}),
            encoding="utf-8")
        out = tmp_path / "never"
        assert run(["kz-sweep", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{scheme} does not take {key}" in err
        assert not out.exists()

    def test_bad_scheme_rejected(self, tmp_path, capsys):
        rc = run(["kz-sweep", "--problem", "arctan-const-sigma",
                  "--scheme", "bogus", "--out", str(tmp_path / "never")])
        assert rc == 2
        capsys.readouterr()


def test_csv_floats_carry_full_precision(tmp_path):
    out = tmp_path / "g"
    assert run(grid_args(out)) == 0
    cells = read_csv(out / "grid_solution.csv")[1]
    # float cells must survive a text round trip bit for bit
    for text in cells[2:]:
        assert text == _format(float(text))


# one tiny seeded run per subcommand (both kz-sweep schemes)
TINY_RUNS = {
    "grid-solve": grid_args("unused")[:-2],
    "rate-study": ["rate-study", "--problem", "linear-constant", "--R", "1.0",
                   "--iters", "2", "--ntilde-list", "2,3,4", "--k", "4",
                   "--seed", "1"],
    "nn-picard": picard_args("unused")[:-2],
    "nn-direct": ["nn-direct", "--problem", "linear-constant", "--epochs",
                  "2", "--steps", "3", "--M-x", "8", "--M", "4", "--m-err",
                  "32", "--hidden", "4", "--seed", "2"],
    "contraction": ["contraction", "--problem", "arctan-const-sigma",
                    "--M", "200", "--probe-ntilde", "1", "--mu0-probes", "2",
                    "--seed", "5"],
    "kz-sweep-picard": ["kz-sweep", "--problem", "arctan-const-sigma",
                        "--kz-list", "0.5,1.5", "--reps", "2", "--M", "8",
                        "--iters", "1", "--steps", "2", "--m-err", "16",
                        "--hidden", "4", "--seed", "9"],
    "kz-sweep-direct": ["kz-sweep", "--problem", "arctan-const-sigma",
                        "--scheme", "nn-direct", "--kz-list", "0.5,2",
                        "--reps", "2", "--epochs", "1", "--steps-per-epoch",
                        "2", "--M-x", "4", "--M-inner", "4", "--m-err", "16",
                        "--hidden", "4", "--seed", "11"],
}


def output_files(out):
    """Every output file by name; CSVs as rows without a seconds column."""
    files = {}
    for path in sorted(out.iterdir()):
        if path.suffix == ".csv":
            rows = read_csv(path)
            if "seconds" in rows[0]:
                k = rows[0].index("seconds")
                rows = [row[:k] + row[k + 1:] for row in rows]
            files[path.name] = rows
        else:
            files[path.name] = path.read_bytes()
    return files


@pytest.mark.parametrize("name", sorted(TINY_RUNS))
def test_config_echo_reproduces_run(tmp_path, capsys, name):
    argv = TINY_RUNS[name]
    first, second = tmp_path / "first", tmp_path / "second"
    assert run(argv + ["--out", str(first)]) == 0
    rc = run([argv[0], "--config", str(first / "config_echo.json"),
              "--out", str(second)])
    assert rc == 0
    capsys.readouterr()
    # echo, tables, checkpoints and plots all match byte for byte
    assert output_files(first) == output_files(second)
    assert len(output_files(first)) >= 2


@pytest.mark.parametrize("command, cls", [
    ("grid-solve", GridSolveConfig), ("nn-picard", NnPicardConfig),
    ("nn-direct", DirectConfig), (("kz-sweep", "nn-picard"), NnPicardConfig),
    (("kz-sweep", "nn-direct"), DirectConfig), ("rate-study", RateStudyConfig),
    ("contraction", _ContractionConfig)])
def test_cli_defaults_are_the_class_defaults(command, cls):
    cfg = dict(_DEFAULTS[command], problem="linear-constant")
    assert _build(cls, cfg) == cls(problem="linear-constant")


@pytest.mark.parametrize("scheme, cls, name", [
    ("nn-picard", NnPicardConfig, "kz-sweep-picard"),
    ("nn-direct", DirectConfig, "kz-sweep-direct")])
def test_sweep_echoes_only_its_schemes_keys(tmp_path, capsys, scheme, cls,
                                            name):
    out = tmp_path / "s"
    assert run(TINY_RUNS[name] + ["--out", str(out)]) == 0
    capsys.readouterr()
    echo = json.loads((out / "config_echo.json").read_text(encoding="utf-8"))
    assert echo.keys() == (_DEFAULTS[scheme].keys() - {"kz"}) | {
        "command", "scheme", "kz_list", "reps"}
    # the schedule in force is the scheme's own
    defaults = cls(problem="arctan-const-sigma")
    for key in ("base_lr", "lr_decay", "lr_decay_period"):
        assert echo[key] == getattr(defaults, key)
    if scheme == "nn-direct":
        assert echo["base_lr"] == 0.002 and "train_steps" not in echo


@pytest.mark.parametrize("scheme, key, value", [
    ("nn-picard", "m_inner", 100), ("nn-direct", "n_iters", 5)])
def test_sweep_rejects_other_schemes_key_at_its_default(tmp_path, capsys,
                                                        scheme, key, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"problem": "arctan-const-sigma",
                               "scheme": scheme, key: value}),
                   encoding="utf-8")
    out = tmp_path / "never"
    assert run(["kz-sweep", "--config", str(cfg), "--out", str(out)]) == 2
    assert f"{scheme} does not take {key}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    pytest.param(["kz-sweep", "--problem", "arctan-const-sigma", "--M", "0"],
                 id="kz-sweep-M0"),
    pytest.param(["kz-sweep", "--problem", "arctan-const-sigma", "--scheme",
                  "nn-direct", "--M-inner", "1"], id="kz-sweep-M-inner1"),
    pytest.param(["kz-sweep", "--problem", "arctan-const-sigma", "--kz",
                  "2"], id="kz-sweep-kz"),
    # a sweep rejects the other scheme's keys, whatever their values
    # (small budgets, so a sweep that wrongly runs ends fast)
    pytest.param(["kz-sweep", "--problem", "arctan-const-sigma", "--epochs",
                  "0", "--M-inner", "1", "--kz-list", "1", "--reps", "1",
                  "--iters", "1", "--steps", "0", "--M", "2", "--m-err", "2"],
                 id="kz-sweep-picard-direct-epochs0-M-inner1"),
    pytest.param(["kz-sweep", "--scheme", "nn-direct", "--problem",
                  "arctan-const-sigma", "--iters", "0", "--kz-list", "1",
                  "--reps", "1", "--epochs", "1", "--steps-per-epoch", "0",
                  "--M-x", "2", "--M-inner", "2", "--m-err", "2"],
                 id="kz-sweep-direct-picard-iters0"),
    pytest.param(["kz-sweep", "--problem", "arctan-const-sigma", "--scheme",
                  "nn-direct", "--kz-list", "1", "--reps", "1", "--epochs",
                  "1", "--steps-per-epoch", "1", "--M-x", "4", "--M-inner",
                  "4", "--m-err", "8", "--hidden", "3", "--steps", "7",
                  "--no-warm-start", "--M", "9", "--iters", "3"],
                 id="kz-sweep-direct-picard-flags"),
    pytest.param(["kz-sweep", "--problem", "arctan-const-sigma", "--epochs",
                  "3", "--kz-list", "1", "--reps", "1", "--iters", "1",
                  "--steps", "0", "--M", "2", "--m-err", "2"],
                 id="kz-sweep-picard-direct-epochs3"),
    pytest.param(["kz-sweep", "--problem", "arctan-const-sigma", "--scheme",
                  "nn-direct", "--iters", "5", "--kz-list", "1", "--reps",
                  "1", "--epochs", "1", "--steps-per-epoch", "0", "--M-x",
                  "2", "--M-inner", "2", "--m-err", "2"],
                 id="kz-sweep-direct-picard-iters-default"),
    pytest.param(["rate-study", "--problem", "linear-constant", "--iters",
                  "0"], id="rate-study-iters0"),
    pytest.param(["contraction", "--problem", "arctan-const-sigma",
                  "--mu0-probes", "-1"], id="contraction-mu0-probes-1"),
    pytest.param(["contraction", "--problem", "arctan-const-sigma", "--M",
                  "1"], id="contraction-M1"),
    pytest.param(["contraction", "--problem", "arctan-const-sigma",
                  "--probe-ntilde", "0"], id="contraction-probe-ntilde0"),
    pytest.param(["contraction", "--problem", "arctan-const-sigma",
                  "--theta", "0"], id="contraction-theta0"),
    pytest.param(["grid-solve", "--problem", "linear-constant", "--iters",
                  "0"], id="grid-solve-iters0"),
    pytest.param(["grid-solve", "--problem", "linear-constant", "--theta",
                  "0"], id="grid-solve-theta0"),
    pytest.param(["nn-picard", "--problem", "linear-constant", "--M", "0"],
                 id="nn-picard-M0"),
    pytest.param(["nn-direct", "--problem", "linear-constant", "--epochs",
                  "0"], id="nn-direct-epochs0"),
    # Euler dynamics need a positive step in every subcommand
    pytest.param(["grid-solve", "--problem", "arctan-tanh-sigma"],
                 id="grid-solve-no-dt"),
    pytest.param(["grid-solve", "--problem", "arctan-tanh-sigma", "--dt",
                  "0"], id="grid-solve-dt0"),
    pytest.param(["rate-study", "--problem", "arctan-tanh-sigma", "--dt",
                  "-0.1"], id="rate-study-dt-negative"),
    pytest.param(["nn-picard", "--problem", "arctan-tanh-sigma"],
                 id="nn-picard-no-dt"),
    pytest.param(["nn-direct", "--problem", "arctan-tanh-sigma"],
                 id="nn-direct-no-dt"),
    pytest.param(["contraction", "--problem", "arctan-tanh-sigma"],
                 id="contraction-no-dt"),
    pytest.param(["kz-sweep", "--problem", "arctan-tanh-sigma", "--dt", "0"],
                 id="kz-sweep-dt0"),
    # ... and a finite one
    *[pytest.param([command, "--problem", "arctan-tanh-sigma", "--dt", "inf"],
                   id=f"{command}-dt-inf")
      for command in ("grid-solve", "rate-study", "nn-picard", "nn-direct",
                      "contraction")],
    pytest.param(["grid-solve", "--problem", "arctan-tanh-sigma", "--dt",
                  "nan"], id="grid-solve-dt-nan"),
    pytest.param(["kz-sweep", "--problem", "arctan-tanh-sigma", "--dt", "inf",
                  "--kz-list", "1", "--reps", "1", "--iters", "1", "--steps",
                  "0", "--M", "2", "--m-err", "2"], id="kz-sweep-dt-inf"),
    # rates must be finite and positive
    *[pytest.param(["grid-solve", "--problem", "linear-constant", flag, value],
                   id=f"grid-solve{flag}{value}")
      for flag, value in (("--theta", "nan"), ("--theta", "inf"),
                          ("--a", "nan"), ("--a-tilde", "inf"),
                          ("--theta-tilde", "nan"))],
    # the start law's width must be finite and non-negative
    *[pytest.param(["nn-picard", "--problem", "linear-constant", "--mu0-std",
                    value], id=f"nn-picard-mu0-std{value}")
      for value in ("-1", "nan", "inf")],
    # problem overrides must be finite
    *[pytest.param([command, "--problem", "arctan-const-sigma", flag, value],
                   id=f"{command}{flag}{value}")
      for command in ("grid-solve", "contraction")
      for flag, value in (("--c", "nan"), ("--kz", "inf"))],
    # grid geometry
    pytest.param(["grid-solve", "--problem", "linear-constant", "--ntilde",
                  "-1"], id="grid-solve-ntilde-1"),
    pytest.param(["grid-solve", "--problem", "linear-constant", "--ntilde",
                  "0"], id="grid-solve-ntilde0"),
    pytest.param(["grid-solve", "--problem", "linear-constant", "--R", "0"],
                 id="grid-solve-R0"),
    pytest.param(["grid-solve", "--problem", "linear-constant", "--R", "inf"],
                 id="grid-solve-R-inf"),
    pytest.param(["grid-solve", "--problem", "linear-constant", "--R", "nan"],
                 id="grid-solve-R-nan"),
    pytest.param(["grid-solve", "--problem", "linear-constant", "--d", "0"],
                 id="grid-solve-d0"),
    # grids too large to allocate: each asks for more than the 128 TiB a
    # process can address, so the host's overcommit setting does not matter
    pytest.param(["grid-solve", "--problem", "arctan-const-sigma", "--d",
                  "12"], id="grid-solve-d12-out-of-memory"),
    pytest.param(["contraction", "--problem", "arctan-const-sigma", "--d",
                  "14"], id="contraction-d14-out-of-memory"),
    pytest.param(["rate-study", "--problem", "arctan-const-sigma", "--d",
                  "20", "--ntilde-list", "2,3,4"],
                 id="rate-study-d20-out-of-memory"),
    # a dimension below 1 is rejected before any output (small budgets, so
    # a run that wrongly starts ends fast)
    pytest.param(["nn-picard", "--problem", "arctan-const-sigma", "--d", "0",
                  "--M", "8", "--iters", "1", "--steps", "1"],
                 id="nn-picard-d0"),
    pytest.param(["nn-direct", "--problem", "arctan-const-sigma", "--d", "0",
                  "--epochs", "1", "--steps", "1", "--M-x", "2", "--M", "2"],
                 id="nn-direct-d0"),
    pytest.param(["kz-sweep", "--problem", "arctan-const-sigma", "--d", "0",
                  "--kz-list", "1", "--reps", "1", "--iters", "1", "--steps",
                  "1", "--M", "8"], id="kz-sweep-d0"),
    pytest.param(["grid-solve", "--problem", "linear-constant", "--p", "-1"],
                 id="grid-solve-p-1"),
    # truncation: a finite positive bound and a finite non-negative degree
    # (small budgets from here on, so a run that wrongly starts ends fast)
    *[pytest.param([*argv, "--problem", "linear-constant", "--trunc-bound",
                    bound, "--trunc-degree", degree],
                   id=f"{argv[0]}-trunc{bound},{degree}")
      for argv in COMMANDS[:2]
      for bound, degree in (("-1", "1"), ("0", "1"), ("nan", "1"),
                            ("inf", "1"), ("1", "-1"), ("1", "nan"),
                            ("1", "inf"))],
    # ... given together
    pytest.param(["grid-solve", "--problem", "linear-constant",
                  "--trunc-bound", "1", "--ntilde", "1", "--M", "2",
                  "--iters", "1"], id="grid-solve-trunc-bound-alone"),
    pytest.param(["rate-study", "--problem", "linear-constant",
                  "--trunc-degree", "1", "--ntilde-list", "1,2,3", "--k", "1",
                  "--iters", "1"], id="rate-study-trunc-degree-alone"),
    # a negative seed, on every subcommand
    *[pytest.param([*argv, "--problem", "arctan-const-sigma", "--seed", "-1"],
                   id=f"{argv[0]}-seed-1") for argv in COMMANDS],
    pytest.param(["rate-study", "--problem", "linear-constant",
                  "--ntilde-list", "0,1,2"], id="rate-study-ntilde-list0"),
    pytest.param(["rate-study", "--problem", "linear-constant", "--R", "0"],
                 id="rate-study-R0"),
    # the rate study's sample constant must be finite and positive, and a
    # slope needs three distinct mesh sizes
    *[pytest.param(["rate-study", "--problem", "linear-constant",
                    "--ntilde-list", "2,3,4", "--k", value],
                   id=f"rate-study-k{value}")
      for value in ("nan", "inf", "-5", "0")],
    pytest.param(["rate-study", "--problem", "linear-constant",
                  "--ntilde-list", "2,2,2"], id="rate-study-ntilde-list2-2-2"),
    # ... and every per-node sample count an integer within int64
    pytest.param(["rate-study", "--problem", "linear-constant",
                  "--ntilde-list", "2,3,4", "--k", "1e308"],
                 id="rate-study-k1e308"),
    pytest.param(["rate-study", "--problem", "linear-constant",
                  "--ntilde-list", "2,3,4", "--k", "1e300", "--R", "1"],
                 id="rate-study-k1e300-R1"),
    *[pytest.param(["rate-study", "--problem", "linear-constant",
                    "--ntilde-list", "2,3,4", "--R", value],
                   id=f"rate-study-R{value}") for value in ("1e-90", "1e100")],
    pytest.param(["contraction", "--problem", "arctan-const-sigma",
                  "--probe-R", "0"], id="contraction-probe-R0"),
    pytest.param(["contraction", "--problem", "arctan-const-sigma",
                  "--probe-R", "inf"], id="contraction-probe-R-inf"),
    # the probe weight's degree must be finite and non-negative
    *[pytest.param(["contraction", "--problem", "arctan-const-sigma",
                    "--weight-degree", value],
                   id=f"contraction-weight-degree{value}")
      for value in ("nan", "inf", "-1")],
    # neural config bounds
    pytest.param(["nn-picard", "--problem", "linear-constant", "--steps",
                  "-1"], id="nn-picard-steps-1"),
    pytest.param(["nn-picard", "--problem", "linear-constant", "--m-err",
                  "0"], id="nn-picard-m-err0"),
    pytest.param(["nn-picard", "--problem", "linear-constant", "--hidden",
                  "0"], id="nn-picard-hidden0"),
    pytest.param(["nn-direct", "--problem", "linear-constant", "--m-err",
                  "0"], id="nn-direct-m-err0"),
    pytest.param(["nn-direct", "--problem", "linear-constant", "--hidden",
                  "8,0"], id="nn-direct-hidden8-0"),
    # learning-rate schedules: a finite positive rate that does not grow
    *[pytest.param([command, "--problem", "linear-constant", flag, value],
                   id=f"{command}{flag}{value}")
      for command in ("nn-picard", "nn-direct")
      for flag, value in (("--decay-period", "0"), ("--decay-period", "-5"),
                          ("--lr", "0"), ("--lr", "-1"), ("--lr", "nan"),
                          ("--lr", "inf"), ("--decay", "0"),
                          ("--decay", "-1"), ("--decay", "nan"),
                          ("--decay", "1.5"))],
    # kz-sweep checks the keys both schemes share
    pytest.param(["kz-sweep", "--problem", "arctan-const-sigma", "--scheme",
                  "nn-direct", "--decay-period", "0", "--kz-list", "1",
                  "--reps", "1", "--epochs", "1", "--steps-per-epoch", "0",
                  "--M-x", "2", "--M-inner", "2", "--m-err", "2"],
                 id="kz-sweep-direct-decay-period0"),
    pytest.param(["kz-sweep", "--problem", "arctan-const-sigma", "--lr",
                  "nan", "--kz-list", "1", "--reps", "1", "--iters", "1",
                  "--steps", "0", "--M", "2", "--m-err", "2"],
                 id="kz-sweep-picard-lr-nan"),
])
def test_bad_input_exits_two_and_writes_nothing(tmp_path, capsys, argv):
    out = tmp_path / "never"
    assert run(argv + ["--out", str(out)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["grid-solve", "--trunc-bound", "1"], ["rate-study", "--trunc-degree", "1"]],
    ids=lambda argv: argv[0])
def test_half_truncation_pair_is_named(tmp_path, capsys, argv):
    assert run(argv + ["--problem", "linear-constant",
                       "--out", str(tmp_path / "never")]) == 2
    assert ("config error: trunc_bound and trunc_degree go together"
            in capsys.readouterr().err)


# a flag is taken only as it is spelled: argparse would otherwise read a
# unique prefix as the whole flag (these runs exited 0, so budgets are small)
@pytest.mark.parametrize("argv", [
    pytest.param(["rate-study", "--problem", "linear-constant", "--ntilde",
                  "1,2,3", "--k", "1", "--iters", "1"], id="rate-study-ntilde"),
    pytest.param(["nn-direct", "--problem", "linear-constant", "--epo", "1",
                  "--hid", "3", "--steps", "1", "--M-x", "2", "--M", "2",
                  "--m-err", "2"], id="nn-direct-epo-hid"),
])
def test_abbreviated_flag_exits_two_and_writes_nothing(tmp_path, capsys,
                                                       argv):
    out = tmp_path / "never"
    assert run(argv + ["--out", str(out)]) == 2
    assert "unrecognized arguments: --" in capsys.readouterr().err
    assert not out.exists()


# an unknown flag is reported under the subcommand's usage line (argparse
# printed the top-level one, which names no subcommand's flags)
@pytest.mark.parametrize("argv, unknown", [
    pytest.param(["contraction", "--problem", "arctan-const-sigma", "--p", "2"],
                 "--p 2", id="contraction-p"),
    pytest.param(["rate-study", "--problem", "arctan-const-sigma", "--ntilde",
                  "2,3,4"], "--ntilde 2,3,4", id="rate-study-ntilde"),
])
def test_unknown_flag_shows_the_subcommands_usage(tmp_path, capsys, argv,
                                                  unknown):
    out = tmp_path / "never"
    assert run(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: infbsde {argv[0]} ")
    assert f"unrecognized arguments: {unknown}" in err
    assert not out.exists()


@pytest.mark.parametrize("threads", ["abc", "0", "-2"])
@pytest.mark.parametrize("command", ["grid-solve", "rate-study"])
def test_bad_thread_count_exits_two_and_writes_nothing(
        tmp_path, capsys, monkeypatch, command, threads):
    monkeypatch.setenv("BSDE_THREADS", threads)
    test_bad_input_exits_two_and_writes_nothing(
        tmp_path, capsys, [command, "--problem", "linear-constant"])


# a step so small that a path's Euler step count does not fit in int64 is a
# numerical failure named by dt (it once wrapped to one step of 1e-300 and
# exited 0), on every subcommand that samples paths
@pytest.mark.parametrize("argv", [
    ["grid-solve", "--ntilde", "1", "--M", "2", "--iters", "1"],
    ["rate-study", "--ntilde-list", "1,2,3", "--k", "1", "--iters", "1"],
    ["nn-picard", "--M", "2", "--iters", "1", "--steps", "1"],
    ["nn-direct", "--M-x", "2", "--M", "2", "--epochs", "1", "--steps", "1"],
    ["contraction", "--M", "2"],
], ids=lambda argv: argv[0])
def test_step_count_beyond_int64_exits_one(tmp_path, capsys, argv):
    out = tmp_path / "o"
    assert run(argv + ["--problem", "arctan-tanh-sigma", "--dt", "1e-300",
                       "--out", str(out)]) == 1
    assert "numerical failure: dt = 1e-300 " in capsys.readouterr().err
    assert [path.name for path in out.iterdir()] == ["config_echo.json"]


def test_rate_study_with_exact_meshes_exits_one(tmp_path, capsys):
    # u = 0 when c0 = 0, so the zero start is exact and every mesh's error is
    # 0; this once printed "fitted slope: nan", exited 0 and wrote bare NaN
    out = tmp_path / "o"
    assert run(["rate-study", "--problem", "linear-constant", "--c0", "0",
                "--ntilde-list", "2,3,4", "--k", "1", "--iters", "2",
                "--out", str(out)]) == 1
    assert ("numerical failure: no log slope: the errors must be finite and "
            "positive, got [0.0, 0.0, 0.0]") in capsys.readouterr().err
    assert [path.name for path in out.iterdir()] == ["config_echo.json"]


@pytest.mark.parametrize("key, value", [
    ("warm_start", "false"), ("warm_start", 0), ("n_iters", 1.7),
    ("n_iters", True), ("m_samples", "32"), ("hidden", [8.5]),
    ("hidden", 8), ("base_lr", "1e-3"), ("kz", "0.5"), ("problem", 3),
])
def test_wrong_typed_config_value_rejected(tmp_path, capsys, key, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"problem": "arctan-const-sigma", key: value}),
                   encoding="utf-8")
    out = tmp_path / "never"
    assert run(["nn-picard", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and key in err
    assert not out.exists()


def test_config_values_cast_to_field_types():
    cfg = dict(_DEFAULTS["nn-picard"], problem="linear-constant", n_iters=2.0,
               discount_y=3, hidden=[8, 6], warm_start=False)
    config = _build(NnPicardConfig, cfg)
    assert config.n_iters == 2 and type(config.n_iters) is int
    assert config.params.discount_y == 3.0
    assert type(config.params.discount_y) is float
    assert config.hidden == (8, 6) and config.warm_start is False


@pytest.mark.parametrize("argv", [argv for argv in COMMANDS if argv[0] in (
    "grid-solve", "nn-picard", "nn-direct", "contraction")],
    ids=lambda argv: argv[0])
def test_problem_built_once(tmp_path, capsys, monkeypatch, argv):
    """When the config checks itself; the solver reads the config's."""
    from infbsde import model

    builds = []
    real = model.manufacture_problem

    def counting(*args, **kwargs):
        builds.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(model, "manufacture_problem", counting)
    assert run(argv + ["--problem", "arctan-const-sigma",
                       "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    assert len(builds) == 1


def test_rate_study_builds_each_grid_once(tmp_path, capsys, monkeypatch):
    """One grid per mesh, and no other: the solves reuse the configs'
    grids."""
    from infbsde import grid

    builds = []
    real = grid.Grid.__post_init__

    def counting(self):
        builds.append(self.n_half)
        real(self)

    monkeypatch.setattr(grid.Grid, "__post_init__", counting)
    assert run(["rate-study", "--problem", "linear-constant", "--ntilde-list",
                "2,3,4", "--k", "1", "--iters", "1",
                "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    assert sorted(builds) == [2, 3, 4]


def test_traced_entry_points_are_reached(tmp_path, monkeypatch):
    """The per-layer benchmark metrics (``perfbench/tracer.py``) wrap these
    module globals and methods from the outside, so the library must reach
    each of them through that name."""
    from infbsde import _svg, cli, grid, neural, nn_schemes, picard_grid

    traced = {
        picard_grid: ("sample_fk_batch", "r_sample_batch", "picard_step",
                      "problem_by_name"),
        nn_schemes: ("sample_fk_batch", "r_sample_batch", "adam_step",
                     "problem_by_name"),
        grid: ("interpolate",),
        neural.Mlp: ("_forward_cached", "backprop"),
        cli: ("problem_by_name", "contraction_nn_solve", "direct_nn_solve",
              "_write_csv", "_echo_config", "write_grid_csv",
              "save_checkpoint"),
        _svg: ("line_plot",),
    }
    reached = set()

    def counting(key, original):
        def wrapper(*args, **kwargs):
            reached.add(key)
            return original(*args, **kwargs)
        return wrapper

    for owner, names in traced.items():
        for name in names:
            key = f"{owner.__name__}.{name}"
            monkeypatch.setattr(owner, name,
                                counting(key, getattr(owner, name)))
    for argv in (grid_args(tmp_path / "g"), picard_args(tmp_path / "p"),
                 ["nn-direct", "--problem", "linear-constant", "--epochs",
                  "1", "--steps", "2", "--M-x", "8", "--M", "4", "--m-err",
                  "16", "--hidden", "4", "--out", str(tmp_path / "d")],
                 ["contraction", "--problem", "arctan-const-sigma", "--M",
                  "50", "--probe-ntilde", "1", "--mu0-probes", "1", "--out",
                  str(tmp_path / "c")]):
        assert run(argv) == 0
    expected = {f"{owner.__name__}.{name}"
                for owner, names in traced.items() for name in names}
    assert sorted(expected - reached) == []


def seeded_digests(out):
    """SHA-256 of each seeded output in ``out``: CSVs without their
    ``seconds`` column, the JSON files, and the arrays of each checkpoint
    (the npz container stores write times)."""
    digests = {}
    for name, content in output_files(out).items():
        if name.endswith(".csv"):
            blob = json.dumps(content).encode()
        elif name.endswith(".npz"):
            with np.load(out / name) as data:
                blob = b"".join(key.encode() + data[key].tobytes()
                                for key in sorted(data))
        elif name.endswith(".json"):
            blob = content
        else:
            continue
        digests[name] = hashlib.sha256(blob).hexdigest()
    return digests


class TestPinnedOutputs:
    """Digests of every seeded output of the six subcommands, run on
    ``arctan-const-sigma`` at the budgets of ``test_cold_start.COMMANDS``
    with the default seed, and of an Euler ``grid-solve`` and
    ``rate-study`` on ``arctan-tanh-sigma`` (``EULER``).

    Recorded before the config classes took over the run checks, so that
    no refactor moves a seeded output unseen.  The neural digests
    (``nn-picard``, ``nn-direct``, ``kz-sweep``) depend on the matrix
    kernels numpy calls; they were recorded with OpenBLAS 0.3.31 on an
    x86-64 (Haswell kernels) host and may differ under another BLAS.
    """

    DIGESTS = {
        "grid-solve": {
            "config_echo.json":
                "b9427840ea5fb3bb08ebdbf846b32695"
                "7093f3dd9ae3d81ed8883b70538d557f",
            "grid_solution.csv":
                "69d334aafde875193f5437728ea8c681"
                "1824814688627366630ed6c2400ab837",
            "iterations.csv":
                "c83dd25e47a3c3f673c9edfd5e393b7b"
                "560bc167a4958a1a03d48c205bf5162f",
        },
        "rate-study": {
            "config_echo.json":
                "f2b616596599972f4c707ac5df82e08d"
                "f90cb1c7d4fd58787cce89271402ae9e",
            "rate_fit.json":
                "1ebb1020981cfe3351e998eca2cd561d"
                "580a0e5f391ea9ebc739001dffe25cbe",
            "rate_study.csv":
                "63b5634cb71be3fa9aed54de1fdf5a81"
                "eeb3dd6bcb9f011e901177d97467b2bc",
        },
        "nn-picard": {
            "config_echo.json":
                "4d6023ef5c9218dfbec54e61462c542f"
                "c802d7b12046d0c20b3b7cd38fb4e4f6",
            "net_iter_01.npz":
                "d2117db2b19ee2de3c3c52abfaaff387"
                "c5fb4fd93e568a14ba7e449f0a6210fa",
            "nn_trace.csv":
                "78c473a9439aa1931d91421e845891db"
                "83b3396c4241db2058cb7ff0d9f96017",
        },
        "nn-direct": {
            "config_echo.json":
                "b86fb9390fbfcefd6c04490b66057baa"
                "8ba734c021b4e6cf744233577fd4106a",
            "net_final.npz":
                "9c511e9e7dbe11c2f4e9143929e777ba"
                "433a4f21e43356106f1c97e18b8335f5",
            "nn_trace.csv":
                "8772335b5ca692d43d15478dd67e91ba"
                "ea7838ae52d59822bf6b4bd3f3a78f37",
        },
        "contraction": {
            "config_echo.json":
                "59efde5442c16df38468a49ec7826efc"
                "437f2f9dd00a4e03ac785d10c6665087",
            "contraction_report.csv":
                "193df84c894275fbb5559313b365a232"
                "542d55f39a6305933f59371ff4bda978",
        },
        "kz-sweep": {
            "config_echo.json":
                "e75892a2c6689a710cc619aa690ac1c3"
                "b2df555af1a780508399fcf7c04337ee",
            "kz_sweep.csv":
                "df3a83a592a68929cef8d8d81e00ca6c"
                "d92be5fa19ce30f41f7caf0749f54442",
        },
    }

    @pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: argv[0])
    def test_digests(self, tmp_path, capsys, argv):
        out = tmp_path / argv[0]
        assert run(argv + ["--problem", "arctan-const-sigma",
                           "--out", str(out)]) == 0
        capsys.readouterr()
        assert seeded_digests(out) == self.DIGESTS[argv[0]]

    # Euler dynamics: the grid-solve at the shape of the benchmark's
    # grid-euler-d1 workload, and a small rate study
    EULER = {
        "grid-solve": (
            ["grid-solve", "--problem", "arctan-tanh-sigma", "--dt", "0.02",
             "--ntilde", "6", "--M", "500", "--iters", "4"],
            {"config_echo.json":
                "969b5942acc4a6121a48cccc0d2e3c30"
                "d8a7210fa3a59381aa990facdf743ee5",
             "grid_solution.csv":
                "f089e2ae9d62007679e9813a378f085d"
                "8093a4c714aea99aef724dc77fe56320",
             "iterations.csv":
                "22b3562b874d87088a51f58fae71cb16"
                "3ab00db589a8c8e726955b0a2ace3839"}),
        "rate-study": (
            ["rate-study", "--problem", "arctan-tanh-sigma", "--dt", "0.05",
             "--ntilde-list", "2,3,4", "--k", "20", "--iters", "4"],
            {"config_echo.json":
                "7ff4802a44e90f917743a6670064c6ca"
                "209e499a80818c95ce1ee7d238ffb7c9",
             "rate_fit.json":
                "4f86fb046f6337c2610a55d735084a37"
                "9dc8d535e34be3292d5e9929ab561437",
             "rate_study.csv":
                "3460e34b262dabee2c15297ffabd5f7a"
                "9c29bfb53e5edae196e576f93816a7bc"}),
    }

    @pytest.mark.parametrize("command", sorted(EULER))
    def test_euler_digests(self, tmp_path, capsys, command):
        argv, digests = self.EULER[command]
        out = tmp_path / command
        assert run(argv + ["--out", str(out)]) == 0
        capsys.readouterr()
        assert seeded_digests(out) == digests
