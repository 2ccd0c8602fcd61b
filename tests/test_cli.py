"""CLI configuration loading, experiment dispatch, outputs and exit codes."""

import json
import math
import re
import sys
import warnings
from pathlib import Path

import pytest

import switchsde as s
from switchsde import cli
from switchsde.harness import first_trajectory


def run_cli(args):
    return cli.main([str(a) for a in args])


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def model_coefficients(model, xs=(0.5, 1000.0, 6000.0)):
    """Drift, diffusion and diffusion derivative of every state at a few points."""
    return [(model.drift(x, i), model.diffusion(x, i), model.diffusion_derivative(x, i))
            for i in range(1, model.num_states + 1) for x in xs]


class TestLoadConfig:
    def test_telomere_defaults(self, tmp_path):
        parser = cli.build_parser()
        args = parser.parse_args(["ensemble", "--model", "telomere",
                                  "--out", str(tmp_path)])
        cfg = cli.load_config("ensemble", args)
        assert cfg.step.h_max == 0.03
        assert cfg.step.rho == 15.0
        assert cfg.step.k == 10.0
        assert cfg.seed == cli.DEFAULT_SEED
        assert cfg.generator.num_states == 4
        assert cfg.extra["horizon"] == 30.0
        assert cfg.extra["initial"] == 1000.0

    def test_rho_at_most_one_rejected(self, tmp_path):
        config = write_config(tmp_path, {"step": {"h_max": 0.03, "rho": 1.0, "k": 10.0}})
        parser = cli.build_parser()
        args = parser.parse_args(["ensemble", "--config", str(config)])
        with pytest.raises(cli.ConfigValidationError, match="rho"):
            cli.load_config("ensemble", args)

    def test_unknown_key_rejected(self, tmp_path):
        config = write_config(tmp_path, {"stepsize": 0.1})
        parser = cli.build_parser()
        args = parser.parse_args(["ensemble", "--config", str(config)])
        with pytest.raises(cli.ConfigValidationError, match="stepsize"):
            cli.load_config("ensemble", args)

    def test_flags_override_config_file(self, tmp_path):
        config = write_config(tmp_path, {"seed": 1, "trajectories": 5})
        parser = cli.build_parser()
        args = parser.parse_args(["ensemble", "--config", str(config), "--seed", "2"])
        cfg = cli.load_config("ensemble", args)
        assert cfg.seed == 2
        assert cfg.extra["trajectories"] == 5

    def test_empty_config_simulate_chain_is_runnable(self, tmp_path):
        config = write_config(tmp_path, {})
        parser = cli.build_parser()
        args = parser.parse_args(["simulate-chain", "--config", str(config),
                                  "--out", str(tmp_path / "o")])
        cfg = cli.load_config("simulate-chain", args)
        assert cfg.generator.num_states == 1
        assert cli.run(cfg) == 0
        assert (tmp_path / "o" / "chain.csv").exists()

    def test_multiple_chain_files(self, tmp_path):
        out = tmp_path / "chains"
        config = write_config(tmp_path, {"generator": cli.TELOMERE_GENERATOR,
                                         "r0": 2, "horizon": 20.0})
        assert run_cli(["simulate-chain", "--config", config, "--trajectories", 3,
                        "--out", out, "--seed", 8]) == 0
        names = sorted(p.name for p in out.glob("chain_*.csv"))
        assert names == ["chain_000.csv", "chain_001.csv", "chain_002.csv"]
        bodies = {(out / n).read_text() for n in names}
        assert len(bodies) == 3  # independent substreams per chain

    def test_uniform_r0_chain_is_the_trajectory_chain(self, tmp_path):
        out = tmp_path / "chains"
        config = write_config(tmp_path, {"generator": cli.TELOMERE_GENERATOR})
        assert run_cli(["simulate-chain", "--config", config, "--r0", "uniform",
                        "--trajectories", 3, "--horizon", 20.0, "--seed", 42,
                        "--out", out]) == 0
        with open(out / "chain_000.csv") as fh:
            chain = s.read_chain_csv(fh)
        trajectory = first_trajectory(s.telomere_model(s.TelomereParams()),
                                      s.validate_generator(cli.TELOMERE_GENERATOR),
                                      1000.0, "uniform", 20.0,
                                      s.StepParams(0.03, 15.0, 10.0), seed=42)
        assert chain == trajectory.chain

    def test_readme_table_documents_every_key(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        first_cells = [line.split("|")[1] for line in readme.splitlines()
                       if line.startswith("| `")]
        documented = set(re.findall(r"`([^`]+)`", "".join(first_cells)))
        fields = {f"model.{name}" for _, kind_fields in cli._MODELS.values()
                  for name in kind_fields}
        assert cli._PARSERS.keys() | fields <= documented
        assert all(f'"{kind}"' in readme for kind in cli._MODELS)

    def test_every_key_has_one_parser(self):
        keys = set(cli._COMMON_KEYS).union(*cli._EXPERIMENT_DEFAULTS.values())
        assert keys <= cli._PARSERS.keys()
        parser = cli.build_parser()
        for experiment in cli._EXPERIMENT_DEFAULTS:
            cli.load_config(experiment, parser.parse_args([experiment]))

    @pytest.mark.parametrize("ints, floats, generator", [
        ({"kind": "telomere", "c": [4, 7]}, {"kind": "telomere", "c": [4.0, 7.0]},
         cli.TELOMERE_GENERATOR),
        ({"kind": "telomere-fixed", "c": 4, "a": 0},
         {"kind": "telomere-fixed", "c": 4.0, "a": 0.0}, [[0.0]]),
        ({"kind": "linear", "mu": [1, -1], "sigma": [0, 2]},
         {"kind": "linear", "mu": [1.0, -1.0], "sigma": [0.0, 2.0]}, [[-1, 1], [1, -1]]),
    ])
    def test_integer_model_fields_load_the_same_model(self, tmp_path, ints, floats,
                                                      generator):
        parser = cli.build_parser()
        coefficients = []
        for payload in (ints, floats):
            config = write_config(tmp_path, {"model": payload, "generator": generator})
            args = parser.parse_args(["ensemble", "--config", str(config)])
            model = cli.load_config("ensemble", args).model
            coefficients.append(model_coefficients(model))
        assert coefficients[0] == coefficients[1]

    def test_generator_model_mismatch_rejected(self, tmp_path):
        config = write_config(tmp_path, {"generator": [[0.0]]})
        parser = cli.build_parser()
        args = parser.parse_args(["ensemble", "--config", str(config)])
        with pytest.raises(cli.ConfigValidationError, match="states"):
            cli.load_config("ensemble", args)


class TestExitCodes:
    def test_bad_json_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run_cli(["ensemble", "--config", bad]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_validation_error_exits_2(self, tmp_path):
        config = write_config(tmp_path, {"step": {"rho": 0.5}})
        assert run_cli(["ensemble", "--config", config]) == 2

    @pytest.mark.parametrize("payload", [
        {"horizon": 0.0},
        {"r0": 5},
        {"initial": "abc"},
        {"initial": {"uniform": [1.0, 2.0, 3.0]}},
        {"trajectories": "many"},
        {"trajectories": 2.5},
        {"trajectories": True},
        {"r0": 1.9},
        {"seed": "abc"},
        {"seed": -1},
        {"dump_trajectory": "no"},
        {"r0": "2"},
        {"horizon": 10 ** 400},
        {"step": {"h_max": 10 ** 400}},
    ])
    def test_bad_ensemble_values_exit_2(self, tmp_path, payload):
        config = write_config(tmp_path, payload)
        assert run_cli(["ensemble", "--config", config, "--out", tmp_path / "o"]) == 2
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("experiment, payload, key", [
        ("ensemble", {"model": {"kind": "telomere-fixed", "c": "4.5", "a": 2.2e-7},
                      "generator": [[0.0]]}, "model.c"),
        ("ensemble", {"model": {"kind": "telomere-fixed", "c": True, "a": 2.2e-7},
                      "generator": [[0.0]]}, "model.c"),
        ("ensemble", {"model": {"kind": "telomere-fixed", "c": 10 ** 400, "a": 2.2e-7},
                      "generator": [[0.0]]}, "model.c"),
        ("ensemble", {"model": {"kind": "telomere", "a": [True, 4.1e-7]}}, "model.a"),
        ("ensemble", {"model": {"kind": "telomere", "c": [4.5, 10 ** 400]}}, "model.c"),
        ("convergence", {"model": {"kind": "linear", "mu": [True, -0.5],
                                   "sigma": [0.3, 0.5]}}, "model.mu"),
        ("convergence", {"model": {"kind": "linear", "mu": "ab",
                                   "sigma": [0.3, 0.5]}}, "model.mu"),
        ("convergence", {"model": {"kind": "linear", "mu": [0.5, -0.5]}}, "model.sigma"),
        ("ensemble", {"horizon": 10 ** 400}, "horizon"),
        ("simulate-chain", {"generator": [["-1", True], ["1", -1]], "r0": 2}, "generator"),
        ("simulate-chain", {"generator": [[math.nan, 1.0], [1.0, -1.0]]}, "generator"),
        ("simulate-chain", {"generator": [[-math.inf, math.inf], [1.0, -1.0]]}, "generator"),
        ("simulate-chain", {"generator": 3}, "generator"),
        ("simulate-chain", {"horizon": math.inf}, "horizon"),
        ("ensemble", {"step": {"rho": math.inf}}, "step.rho"),
        ("ensemble", {"initial": math.nan}, "initial"),
        ("ensemble", {"initial": {"uniform": [4000.0, math.inf]}}, "initial"),
        ("convergence", {"x0": math.nan}, "x0"),
        ("convergence", {"grid": [0.1, math.nan, 0.01]}, "grid"),
    ])
    def test_bad_value_exits_2_naming_its_key(self, tmp_path, capsys, experiment,
                                              payload, key):
        config = write_config(tmp_path, payload)
        assert run_cli([experiment, "--config", config, "--trajectories", 100,
                        "--out", tmp_path / "o"]) == 2
        assert f"{key} must be" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_uniform_range_past_the_float_range_exits_2(self, tmp_path, capsys):
        # Each end is a finite number, but numpy cannot draw on a range whose
        # width overflows.
        config = write_config(tmp_path, {"initial": {"uniform": [-1e308, 1e308]}})
        assert run_cli(["ensemble", "--config", config, "--out", tmp_path / "o"]) == 2
        assert "hi - lo finite" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("args, key", [
        (["mean-change", "--end-day", "inf"], "end_day"),
        (["ensemble", "--horizon", "nan"], "horizon"),
    ])
    def test_non_finite_flag_exits_2_naming_its_key(self, tmp_path, capsys, args, key):
        assert run_cli(args + ["--out", tmp_path / "o"]) == 2
        assert f"{key} must be a finite number" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("experiment, size", [
        ("ensemble", ["--trajectories", 2]),
        ("mean-change", ["--initials", 2, "--runs", 1]),
        ("convergence", ["--trajectories", 100]),
    ])
    def test_rho_too_large_for_the_mesh_bound_exits_2(self, tmp_path, capsys, experiment,
                                                      size):
        # convergence checks its finest grid level, which has the largest cap
        config = write_config(tmp_path, {"step": {"rho": 1e308}})
        assert run_cli([experiment, "--config", config, *size,
                        "--out", tmp_path / "o"]) == 2
        assert "N_max" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_coarse_grid_level_out_of_range_exits_2(self, tmp_path, capsys):
        # every grid level's step parameters are checked, not only the finest's
        assert run_cli(["convergence", "--grid", 2, 0.5, 0.25, "--trajectories", 100,
                        "--out", tmp_path / "o"]) == 2
        assert "require 0 < h_max <= 1, got 2.0" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_step_that_can_round_to_nothing_exits_2(self, tmp_path, capsys):
        # h_min = 1e-11 is at most half an ulp of T = 1e6
        config = write_config(tmp_path, {"horizon": 1e6,
                                         "step": {"h_max": 1e-3, "rho": 1e8}})
        assert run_cli(["ensemble", "--config", config, "--trajectories", 2,
                        "--out", tmp_path / "o"]) == 2
        assert "half an ulp" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_norm_whose_power_overflows_exits_0(self, tmp_path):
        # k = 0.5 squares the norm: (1e200)^2 is beyond the float range
        config = write_config(tmp_path, {
            "model": {"kind": "linear", "mu": [-0.5], "sigma": [0.5]},
            "generator": [[0.0]], "initial": 1e200, "step": {"k": 0.5},
            "horizon": 1.0, "trajectories": 5})
        assert run_cli(["ensemble", "--config", config, "--out", tmp_path / "o"]) == 0

    def test_mean_of_values_near_the_float_range_is_finite(self, tmp_path):
        # five values near 1e308 sum past the float range
        config = write_config(tmp_path, {
            "model": {"kind": "linear", "mu": [0.5], "sigma": [0.5]},
            "generator": [[0.0]], "initial": 1e308, "step": {"k": 0.5},
            "horizon": 0.01, "trajectories": 5})
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run_cli(["ensemble", "--config", config, "--out", tmp_path / "o"]) == 0
        summary = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert 1e307 < summary["mean"] < math.inf and 0.0 < summary["sd"] < math.inf

    def test_mean_change_of_initials_near_the_float_range_is_zero(self, tmp_path):
        # four runs of an initial near 8e307 sum past the float range, and
        # every final value equals its initial
        config = write_config(tmp_path, {
            "model": {"kind": "linear", "mu": [0.0], "sigma": [0.0]},
            "generator": [[0.0]], "initial_range": [5e307, 8e307], "start_day": 0.0,
            "end_day": 0.01, "initials": 5, "runs": 4})
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run_cli(["mean-change", "--config", config, "--out", tmp_path / "o"]) == 0
        rows = (tmp_path / "o" / "meanchange.csv").read_text().splitlines()[1:]
        assert len(rows) == 5
        for row in rows:
            initial, mean_final, single_final = row.split(",")
            assert initial == mean_final == single_final
        summary = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert summary["grand_mean_change"] == summary["mean"] == summary["sd"] == 0.0

    def test_errors_whose_squares_overflow_fit_an_order(self, tmp_path, capsys):
        # mu = 45 over T = 10 gives errors near 1e195, whose squares overflow
        # (coarse levels and rho = 2 keep the floored steps few)
        config = write_config(tmp_path, {
            "model": {"kind": "linear", "mu": [45.0], "sigma": [0.1]},
            "generator": [[0.0]], "horizon": 10.0, "step": {"rho": 2.0},
            "grid": [0.25, 0.125, 0.0625], "trajectories": 100})
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run_cli(["convergence", "--config", config, "--out", tmp_path / "o"]) == 0
        rows = (tmp_path / "o" / "convergence.csv").read_text().splitlines()[1:]
        rms = [float(row.split(",")[1]) for row in rows]
        assert len(rms) == 3 and all(math.sqrt(sys.float_info.max) < e < math.inf for e in rms)
        assert "fitted order:" in capsys.readouterr().out

    def test_values_below_histogram_resolution_exit_3(self, tmp_path, capsys):
        # every terminal value is 1e20, a range no bin width can resolve
        config = write_config(tmp_path, {
            "model": {"kind": "linear", "mu": [0.0], "sigma": [0.0]},
            "generator": [[0.0]], "initial": 1e20, "horizon": 1.0})
        assert run_cli(["ensemble", "--config", config, "--trajectories", 2,
                        "--out", tmp_path / "o"]) == 3
        assert "computation failed: cannot bin the values" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("step", {"h_max": 0.5}),
        ("scheme", "em"),
        ("model", {"kind": "telomere-fixed", "c": 4.5, "a": 2.2e-7}),
        ("dump_trajectory", True),
    ])
    def test_simulate_chain_refuses_study_keys(self, tmp_path, capsys, key, value):
        config = write_config(tmp_path, {key: value})
        assert run_cli(["simulate-chain", "--config", config,
                        "--out", tmp_path / "o"]) == 2
        assert f"unknown config key(s): {key}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_simulate_chain_has_no_dump_flag(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli(["simulate-chain", "--dump-trajectory", "--out", tmp_path / "o"])
        assert exc.value.code == 2
        assert not (tmp_path / "o").exists()

    def test_mean_change_has_no_trajectories_flag(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli(["mean-change", "--trajectories", 5, "--initials", 2, "--runs", 1,
                     "--out", tmp_path / "o"])
        assert exc.value.code == 2
        assert not (tmp_path / "o").exists()

    def test_fractional_chain_count_and_r0_exit_2(self, tmp_path):
        config = write_config(tmp_path, {"generator": cli.TELOMERE_GENERATOR,
                                         "trajectories": 2.5, "r0": 1.9})
        assert run_cli(["simulate-chain", "--config", config,
                        "--out", tmp_path / "o"]) == 2
        assert not (tmp_path / "o").exists()

    def test_negative_seed_flag_exits_2(self, tmp_path):
        assert run_cli(["simulate-chain", "--seed", -1, "--out", tmp_path / "o"]) == 2
        assert not (tmp_path / "o").exists()

    def test_r0_flag_is_a_state_number(self, tmp_path):
        config = write_config(tmp_path, {"generator": cli.TELOMERE_GENERATOR})
        assert run_cli(["simulate-chain", "--config", config, "--r0", "2",
                        "--out", tmp_path / "o"]) == 0
        assert (tmp_path / "o" / "chain.csv").read_text().startswith("# r0=2 ")
        # the echo holds the typed state, so the manifest reruns the same chain
        echo = json.loads((tmp_path / "o" / "manifest.json").read_text())["config"]
        assert echo["r0"] == 2
        rerun = write_config(tmp_path, echo, name="rerun.json")
        assert run_cli(["simulate-chain", "--config", rerun, "--out", tmp_path / "r"]) == 0
        assert ((tmp_path / "r" / "chain.csv").read_bytes()
                == (tmp_path / "o" / "chain.csv").read_bytes())

    def test_fractional_r0_flag_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli(["simulate-chain", "--r0", "1.9", "--out", tmp_path / "o"])
        assert exc.value.code == 2
        assert not (tmp_path / "o").exists()

    def test_computation_failure_exits_3(self, tmp_path, capsys):
        config = write_config(tmp_path, {
            "model": {"kind": "linear", "mu": [1e308], "sigma": [0.0]},
            "generator": [[0.0]],
            "horizon": 1.0,
            "trajectories": 2,
        })
        code = run_cli(["ensemble", "--config", config, "--out", tmp_path / "o"])
        assert code == 3
        assert "computation failed" in capsys.readouterr().err

    def test_exact_value_past_the_float_range_exits_3(self, tmp_path, capsys):
        # State 2 grows like exp(800 t): a sample that switches early overflows
        # its exact value
        config = write_config(tmp_path, {
            "model": {"kind": "linear", "mu": [0.0, 800.0], "sigma": [0.1, 0.1]},
            "generator": [[-0.5, 0.5], [0.0, 0.0]], "grid": [0.1, 0.05, 0.025],
            "trajectories": 100, "seed": 4, "scheme": "em"})
        assert run_cli(["convergence", "--config", config, "--out", tmp_path / "o"]) == 3
        assert "computation failed: exact_linear_solution" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()  # no file was written

    def test_all_trajectories_failed_exits_3_and_writes_nothing(self, tmp_path, capsys):
        # A start of 1e308 overflows on the first step of every trajectory.
        assert run_cli(["ensemble", "--trajectories", 5, "--horizon", 1, "--initial", 1e308,
                        "--out", tmp_path / "o"]) == 3
        assert "all 5 trajectories failed" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_success_exits_0(self, tmp_path):
        assert run_cli(["simulate-chain", "--out", tmp_path / "o", "--seed", 5]) == 0


class TestEnsembleCommand:
    def test_outputs_and_manifest(self, tmp_path):
        out = tmp_path / "run"
        config = write_config(tmp_path, {"horizon": 2.0, "trajectories": 15})
        code = run_cli(["ensemble", "--model", "telomere", "--config", config,
                        "--out", out, "--seed", 9, "--dump-trajectory"])
        assert code == 0
        for name in ("histogram.csv", "summary.json", "manifest.json",
                     "trajectory.csv"):
            assert (out / name).exists(), name
        summary = json.loads((out / "summary.json").read_text())
        assert summary["M"] == 15
        assert summary["failed_count"] == 0
        assert summary["seed"] == 9
        assert summary["params"]["trajectories"] == 15
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 9
        assert manifest["tool_version"] == s.__version__
        assert manifest["config"]["horizon"] == 2.0
        assert manifest["config"]["step"] == {"h_max": 0.03, "rho": 15.0, "k": 10.0}
        header = (out / "trajectory.csv").read_text().splitlines()[0]
        assert header == "t,state,y,h,backstop"

    def test_histogram_rows_match_bins(self, tmp_path):
        out = tmp_path / "run"
        config = write_config(tmp_path, {"horizon": 1.0, "trajectories": 12})
        assert run_cli(["ensemble", "--model", "telomere-c1a1", "--config", config,
                        "--out", out]) == 0
        lines = (out / "histogram.csv").read_text().splitlines()
        assert lines[0] == "bin_left,bin_right,density"
        assert len(lines) >= 2

    def test_uniform_initial_range_flag(self, tmp_path):
        out = tmp_path / "run"
        config = write_config(tmp_path, {"horizon": 1.0, "trajectories": 8})
        assert run_cli(["ensemble", "--model", "telomere", "--config", config,
                        "--initial-range", 4000, 8000, "--out", out]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["initial"] == {"uniform": [4000.0, 8000.0]}


class TestConvergenceCommand:
    def test_writes_six_rows_and_prints_order(self, tmp_path, capsys):
        out = tmp_path / "conv"
        assert run_cli(["convergence", "--trajectories", 100, "--out", out]) == 0
        printed = capsys.readouterr().out
        assert "fitted order:" in printed
        lines = (out / "convergence.csv").read_text().splitlines()
        assert lines[0] == "h_max,rms_error"
        assert len(lines) == 1 + 6  # default grid 2^-4 .. 2^-9

    def test_manifest_records_each_levels_work(self, tmp_path):
        out = tmp_path / "conv"
        args = ["--trajectories", 100, "--grid", 0.0625, 0.03125, 0.015625, "--seed", 3]
        assert run_cli(["convergence", *args, "--out", out]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        report = s.strong_order_study(
            s.LinearModelParams(mu=(0.5, -0.5), sigma=(0.3, 0.5)),
            s.validate_generator(cli.MODEL_PRESETS["linear2"]["generator"]), 1.0, 1.0,
            [0.0625, 0.03125, 0.015625], 15.0, 10.0, M=100, seed=3)
        assert manifest["mean_steps"] == list(report.mean_steps)
        assert manifest["backstop_fractions"] == list(report.backstop_fractions)
        assert len(manifest["mean_steps"]) == 3

    def test_nonlinear_model_rejected(self, tmp_path):
        config = write_config(tmp_path, {"model": {"kind": "telomere"},
                                         "generator": cli.TELOMERE_GENERATOR})
        assert run_cli(["convergence", "--config", config]) == 2


class TestMeanChangeCommand:
    def test_outputs(self, tmp_path):
        out = tmp_path / "mc"
        config = write_config(tmp_path, {"initials": 6, "runs": 2,
                                         "start_day": 5.0, "end_day": 6.0})
        assert run_cli(["mean-change", "--config", config, "--out", out]) == 0
        lines = (out / "meanchange.csv").read_text().splitlines()
        assert lines[0] == "initial,mean_final,single_final"
        assert len(lines) == 1 + 6
        initials = [float(line.split(",")[0]) for line in lines[1:]]
        assert initials == sorted(initials)
        summary = json.loads((out / "summary.json").read_text())
        assert "grand_mean_change" in summary


class TestDeterminism:
    def test_rerun_reproduces_bitwise_outputs(self, tmp_path):
        config = write_config(tmp_path, {"horizon": 2.0, "trajectories": 10})
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run_cli(["ensemble", "--model", "telomere", "--config", config,
                            "--out", out, "--seed", 77]) == 0
            outs.append(out)
        for fname in ("histogram.csv", "summary.json"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


def _dumped(out):
    """(first y, last y) of trajectory.csv."""
    rows = (out / "trajectory.csv").read_text().splitlines()[1:]
    return float(rows[0].split(",")[2]), float(rows[-1].split(",")[2])


class TestDumpTrajectory:
    """--dump-trajectory writes trajectory 0 of the study it ran with."""

    STEP = s.StepParams(0.03, 15.0, 10.0)

    def test_ensemble_dumps_index_0(self, tmp_path):
        out = tmp_path / "ens"
        assert run_cli(["ensemble", "--model", "telomere", "--horizon", 1.0,
                        "--trajectories", 3, "--runs-per-initial", 2,
                        "--initial-range", 4000, 8000, "--r0", "uniform",
                        "--seed", 42, "--out", out, "--dump-trajectory"]) == 0
        g = s.validate_generator(cli.TELOMERE_GENERATOR)
        summary = s.run_ensemble(s.telomere_model(s.TelomereParams()), g,
                                 (4000.0, 8000.0), "uniform", 1.0, self.STEP, M=3,
                                 runs_per_initial=2, seed=42)
        assert _dumped(out)[1] == summary.terminal_values[0]

    def test_mean_change_dumps_index_0(self, tmp_path):
        out = tmp_path / "mc"
        assert run_cli(["mean-change", "--initials", 3, "--runs", 2,
                        "--start-day", 5.0, "--end-day", 6.0, "--r0", "uniform",
                        "--seed", 42, "--out", out, "--dump-trajectory"]) == 0
        g = s.validate_generator(cli.TELOMERE_GENERATOR)
        report = s.mean_change_study(s.telomere_model(s.TelomereParams()), g,
                                     4000.0, 8000.0, 5.0, 6.0, n_initials=3,
                                     runs_per_initial=2, seed=42, p=self.STEP,
                                     r0="uniform")
        x0, y = _dumped(out)
        # index 0 is the first run of its initial, so its final is single_final
        j = list(report.initials).index(x0)
        assert y == report.single_finals[j]
