"""Command-line front end.

Subcommands: ``simulate-chain``, ``convergence``, ``ensemble``, ``mean-change``.
Runs are configured through a JSON file (``--config``) merged with inline
flags (flags win); every run writes a ``manifest.json`` echoing the exact
merged configuration, the seed, the tool version, wall time and failed
trajectory count, which is sufficient to reproduce the run bit for bit.

Exit codes: 0 success, 2 configuration error, 3 computation failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from . import __version__
from .ctmc import GeneratorMatrix, validate_generator, write_chain_csv
from .errors import (
    ConfigParseError,
    ConfigValidationError,
    SwitchSDEError,
)
from .harness import (
    _trajectory_chains,
    check_ensemble_args,
    check_mean_change_args,
    check_run_args,
    check_strong_order_args,
    first_trajectory,
    mean_change_study,
    run_ensemble,
    strong_order_study,
)
from .models import (
    LinearModelParams,
    RegimeModel,
    TELOMERE_A,
    TELOMERE_C,
    TelomereParams,
    linear_model,
    telomere_model,
    telomere_regime_model,
)
from .reporting import (
    summary_dict,
    write_convergence_csv,
    write_histogram_csv,
    write_json,
    write_meanchange_csv,
    write_trajectory_csv,
)
from .stepping import StepParams

DEFAULT_SEED = 42
DEFAULT_STEP = {"h_max": 0.03, "rho": 15.0, "k": 10.0}

TELOMERE_GENERATOR = [
    [-0.3, 0.1, 0.1, 0.1],
    [0.1, -0.3, 0.1, 0.1],
    [0.1, 0.1, -0.3, 0.1],
    [0.1, 0.1, 0.1, -0.3],
]

MODEL_PRESETS: dict[str, dict[str, Any]] = {
    "telomere": {
        "model": {"kind": "telomere", "c": list(TELOMERE_C), "a": list(TELOMERE_A)},
        "generator": TELOMERE_GENERATOR,
    },
    "telomere-c1a1": {
        "model": {"kind": "telomere-fixed", "c": TELOMERE_C[0], "a": TELOMERE_A[0]},
        "generator": [[0.0]],
    },
    "telomere-c2a2": {
        "model": {"kind": "telomere-fixed", "c": TELOMERE_C[1], "a": TELOMERE_A[1]},
        "generator": [[0.0]],
    },
    "linear2": {
        "model": {"kind": "linear", "mu": [0.5, -0.5], "sigma": [0.3, 0.5]},
        "generator": [[-1.0, 1.0], [1.0, -1.0]],
    },
}

_COMMON_KEYS = {"experiment", "seed", "out", "generator"}

# Keys of the three studies that walk trajectories; each also takes a model preset.
_STUDY_DEFAULTS = {"step": DEFAULT_STEP, "scheme": "milstein", "r0": 1,
                   "dump_trajectory": False}

# Each experiment accepts _COMMON_KEYS and exactly the keys it has a default for.
_EXPERIMENT_DEFAULTS: dict[str, dict[str, Any]] = {
    "simulate-chain": {"generator": [[0.0]], "horizon": 30.0, "r0": 1,
                       "trajectories": 1},
    "convergence": {
        **_STUDY_DEFAULTS,
        **MODEL_PRESETS["linear2"],
        "horizon": 1.0,
        "x0": 1.0,
        "grid": [2.0 ** -e for e in range(4, 10)],
        "trajectories": 1000,
    },
    "ensemble": {
        **_STUDY_DEFAULTS,
        **MODEL_PRESETS["telomere"],
        "horizon": 30.0,
        "initial": 1000.0,
        "trajectories": 1000,
        "runs_per_initial": 1,
    },
    "mean-change": {
        **_STUDY_DEFAULTS,
        **MODEL_PRESETS["telomere"],
        "initial_range": [4000.0, 8000.0],
        "start_day": 5.0,
        "end_day": 30.0,
        "initials": 1000,
        "runs": 100,
    },
}


@dataclass
class RunConfig:
    """Fully validated run configuration plus the exact raw echo."""

    experiment: str
    raw: dict[str, Any]
    seed: int
    out_dir: Path
    generator: GeneratorMatrix
    step: StepParams | None = None
    scheme: str = "milstein"
    dump_trajectory: bool = False
    model: RegimeModel | None = None
    linear_params: LinearModelParams | None = None
    extra: dict[str, Any] = field(default_factory=dict)


def _reject_unknown(raw: dict, known: set[str], context: str) -> None:
    unknown = set(raw) - known
    if unknown:
        raise ConfigValidationError(
            f"unknown {context} key(s): {', '.join(sorted(unknown))}")


def _merge(experiment: str, args: argparse.Namespace) -> dict[str, Any]:
    merged = {"experiment": experiment, "seed": DEFAULT_SEED, "out": "out"}
    merged.update(_EXPERIMENT_DEFAULTS[experiment])

    model_name = getattr(args, "model", None)
    if model_name is not None:
        if model_name not in MODEL_PRESETS:
            raise ConfigValidationError(
                f"unknown model preset {model_name!r}; "
                f"choose from {', '.join(sorted(MODEL_PRESETS))}")
        merged.update(MODEL_PRESETS[model_name])

    if args.config is not None:
        try:
            text = Path(args.config).read_text()
        except OSError as exc:
            raise ConfigParseError(f"cannot read config file: {exc}")
        try:
            file_cfg = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigParseError(f"invalid JSON in {args.config}: {exc}")
        if not isinstance(file_cfg, dict):
            raise ConfigParseError("config file must contain a JSON object")
        if file_cfg.get("experiment", experiment) != experiment:
            raise ConfigValidationError(
                f"config file is for experiment {file_cfg['experiment']!r}, "
                f"not {experiment!r}")
        merged.update(file_cfg)
        merged["experiment"] = experiment

    for key, value in vars(args).items():
        if key not in ("experiment", "config", "model") and value is not None:
            merged[key] = value
    return merged


def _expect(key: str, value, ok: bool, what: str):
    if not ok:
        raise ConfigValidationError(f"{key} must be {what}, got {value!r}")
    return value


def _integer(key: str, value) -> int:
    return _expect(key, value, type(value) is int, "an integer")  # not 2.5, not true


def _number(key: str, value) -> float:
    # abs() <= max also refuses nan, infinities and ints too large for a float
    finite = type(value) in (int, float) and abs(value) <= sys.float_info.max
    return float(_expect(key, value, finite, "a finite number"))


def _numbers(key: str, value) -> tuple[float, ...]:
    _expect(key, value, isinstance(value, list), "a list of numbers")
    return tuple(_number(key, v) for v in value)


def _generator(key: str, value) -> GeneratorMatrix:
    _expect(key, value, isinstance(value, list), "a list of rows of numbers")
    return validate_generator([_numbers(key, row) for row in value])


def _pair(key: str, value) -> tuple[float, float]:
    _expect(key, value, isinstance(value, list) and len(value) == 2, "a pair [lo, hi]")
    return _number(key, value[0]), _number(key, value[1])


def _initial(key: str, value) -> float | tuple[float, float]:
    if isinstance(value, dict):
        _reject_unknown(value, {"uniform"}, key)
        return _pair(key, value["uniform"])
    return _number(key, value)


def _step(key: str, value) -> StepParams:
    _expect(key, value, isinstance(value, dict), "an object with h_max, rho, k")
    _reject_unknown(value, set(DEFAULT_STEP), key)
    return StepParams(**{name: _number(f"{key}.{name}", value.get(name, default))
                         for name, default in DEFAULT_STEP.items()})


# Model kind -> (build: parsed fields in order -> (model, linear params or None),
# {field: (parser, default)}); a None default makes its parser refuse a missing field.
_MODELS = {
    "telomere": (lambda c, a: (telomere_model(TelomereParams(c, a)), None),
                 {"c": (_pair, list(TELOMERE_C)), "a": (_pair, list(TELOMERE_A))}),
    "telomere-fixed": (lambda c, a: (telomere_regime_model([(c, a)]), None),
                       {"c": (_number, None), "a": (_number, None)}),
    "linear": (lambda mu, sigma: (linear_model(p := LinearModelParams(mu, sigma)), p),
               {"mu": (_numbers, None), "sigma": (_numbers, None)}),
}


def _model(key: str, value) -> tuple[RegimeModel, LinearModelParams | None]:
    _expect(key, value, isinstance(value, dict) and value.get("kind") in _MODELS,
            f"an object with a 'kind' of {', '.join(map(repr, _MODELS))}")
    build, fields = _MODELS[value["kind"]]
    _reject_unknown(value, {"kind", *fields}, key)
    return build(*(parse(f"{key}.{name}", value.get(name, default))
                   for name, (parse, default) in fields.items()))


# The one parser of each config key: (key, raw value) -> typed value.
_PARSERS = {
    "experiment": lambda key, value: value,
    "seed": lambda key, value: _expect(key, value, _integer(key, value) >= 0,
                                       "an integer >= 0"),
    "out": lambda key, value: Path(value),
    "step": _step,
    "generator": _generator,
    "scheme": lambda key, value: _expect(key, value, value in ("milstein", "em"),
                                         "'milstein' or 'em'"),
    "dump_trajectory": lambda key, value: _expect(key, value, type(value) is bool,
                                                  "true or false"),
    "model": _model,
    "grid": _numbers,
    "initial_range": _pair,
    "initial": _initial,
    "r0": lambda key, value: _expect(key, value, value == "uniform" or type(value) is int,
                                     "a state number or 'uniform'"),
    **dict.fromkeys(("horizon", "x0", "start_day", "end_day"), _number),
    **dict.fromkeys(("trajectories", "runs_per_initial", "initials", "runs"), _integer),
}


def load_config(experiment: str, args: argparse.Namespace) -> RunConfig:
    """Merge defaults, preset, config file and flags; type and validate every
    value, so that a bad config fails here, before any output exists."""
    raw = _merge(experiment, args)
    _reject_unknown(raw, _COMMON_KEYS | _EXPERIMENT_DEFAULTS[experiment].keys(), "config")
    try:
        typed = {key: _PARSERS[key](key, value) for key, value in raw.items()}
        model, linear_params = typed.pop("model", (None, None))
        study = {key: typed.pop(key) for key in ("step", "scheme", "dump_trajectory")
                 if key in typed}
        cfg = RunConfig(typed.pop("experiment"), raw, typed.pop("seed"), typed.pop("out"),
                        typed.pop("generator"), model=model, linear_params=linear_params,
                        extra=typed, **study)
        _check_experiment(cfg)
    except (SwitchSDEError, ValueError, TypeError, KeyError, OverflowError) as exc:
        if isinstance(exc, (ConfigParseError, ConfigValidationError)):
            raise
        raise ConfigValidationError(str(exc))
    return cfg


def _check_experiment(cfg: RunConfig) -> None:
    """Run the harness's argument checks on the typed configuration."""
    x, g = cfg.extra, cfg.generator
    if cfg.experiment == "simulate-chain":
        check_run_args(g.num_states, g, x["r0"], x["horizon"], x["trajectories"])
    elif cfg.experiment == "convergence":
        if cfg.linear_params is None:
            raise ConfigValidationError(
                "convergence requires a linear model (it needs the exact solution)")
        check_strong_order_args(cfg.linear_params, g, x["x0"], x["horizon"], x["grid"],
                                cfg.step.rho, cfg.step.k, x["trajectories"], x["r0"])
    elif cfg.experiment == "ensemble":
        check_ensemble_args(cfg.model, g, x["initial"], x["r0"], x["horizon"], cfg.step,
                            x["trajectories"], x["runs_per_initial"])
    elif cfg.experiment == "mean-change":
        lo, hi = x["initial_range"]
        check_mean_change_args(cfg.model, g, lo, hi, x["start_day"], x["end_day"],
                               x["initials"], x["runs"], cfg.step, x["r0"])


def _params_echo(cfg: RunConfig) -> dict[str, Any]:
    """Computation-affecting parameters only, so summaries are location-free."""
    return {k: v for k, v in cfg.raw.items() if k not in ("out", "dump_trajectory")}


def _write(cfg: RunConfig, name: str, writer, *args) -> None:
    """Write one output file, creating the output directory with the first."""
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    with open(cfg.out_dir / name, "w") as fh:
        writer(fh, *args)


def run(cfg: RunConfig) -> int:
    """Execute a validated configuration; returns the failed-trajectory count."""
    started = time.perf_counter()
    failed = 0
    work = {}  # the convergence study's work per grid level, for the manifest
    x = cfg.extra

    if cfg.experiment == "simulate-chain":
        n_chains = x["trajectories"]
        chains = _trajectory_chains(cfg.generator, x["r0"], x["horizon"], cfg.seed,
                                    range(n_chains))
        for idx in range(n_chains):
            name = "chain.csv" if n_chains == 1 else f"chain_{idx:03d}.csv"
            _write(cfg, name, lambda fh: write_chain_csv(chains.path(idx), fh))
        print(f"wrote {n_chains} chain file(s) to {cfg.out_dir} "
              f"({int(chains.counts.sum())} switches)")

    elif cfg.experiment == "convergence":
        report = strong_order_study(
            cfg.linear_params, cfg.generator, x["x0"], x["horizon"], x["grid"],
            cfg.step.rho, cfg.step.k, x["trajectories"], cfg.seed,
            scheme=cfg.scheme, r0=x["r0"])
        _write(cfg, "convergence.csv", write_convergence_csv, report)
        work = {"mean_steps": list(report.mean_steps),
                "backstop_fractions": list(report.backstop_fractions)}
        print(f"fitted order: {report.fitted_order:.4f} ({report.scheme}, "
              f"M={report.sample_count})")
        initial, horizon = x["x0"], x["horizon"]

    elif cfg.experiment == "ensemble":
        summary = run_ensemble(
            cfg.model, cfg.generator, x["initial"], x["r0"], x["horizon"], cfg.step,
            x["trajectories"], x["runs_per_initial"], cfg.seed, cfg.scheme)
        failed = summary.failed_count
        _write(cfg, "histogram.csv", write_histogram_csv, summary)
        _write(cfg, "summary.json", write_json,
               summary_dict(summary, cfg.seed, _params_echo(cfg)))
        print(f"mean={summary.mean:.4f} sd={summary.std_dev:.4f} "
              f"se={summary.standard_error:.4f} failed={failed}")
        initial, horizon = x["initial"], x["horizon"]

    elif cfg.experiment == "mean-change":
        lo, hi = x["initial_range"]
        report = mean_change_study(
            cfg.model, cfg.generator, lo, hi, x["start_day"], x["end_day"],
            x["initials"], x["runs"], cfg.seed, cfg.step, x["r0"], cfg.scheme)
        failed = report.failed_count
        _write(cfg, "meanchange.csv", write_meanchange_csv, report)
        _write(cfg, "histogram.csv", write_histogram_csv, report.summary)
        payload = summary_dict(report.summary, cfg.seed, _params_echo(cfg))
        payload["grand_mean_change"] = report.grand_mean_change
        _write(cfg, "summary.json", write_json, payload)
        print(f"grand mean change: {report.grand_mean_change:.4f} (failed={failed})")
        initial, horizon = (lo, hi), x["end_day"] - x["start_day"]

    else:  # pragma: no cover - argparse restricts choices
        raise ConfigValidationError(f"unknown experiment {cfg.experiment!r}")

    if cfg.dump_trajectory:  # each study branch names its initial value and horizon
        _write(cfg, "trajectory.csv", write_trajectory_csv,
               first_trajectory(cfg.model, cfg.generator, initial, x["r0"], horizon,
                                cfg.step, cfg.seed, cfg.scheme))
    _write(cfg, "manifest.json", write_json, {
        "config": cfg.raw,
        "seed": cfg.seed,
        "tool_version": __version__,
        "wall_time_s": time.perf_counter() - started,
        "failed_count": failed,
        **work,
    })
    return failed


def _state_or_uniform(text: str) -> int | str:
    return text if text == "uniform" else int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="switchsde",
        description="Adaptive-mesh hybrid Milstein solver for SDEs with "
                    "Markovian switching")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="experiment", required=True)
    chain = subs.add_parser("simulate-chain", help="sample one Markov chain path")
    conv = subs.add_parser("convergence", help="strong-order study on the linear model")
    ens = subs.add_parser("ensemble", help="terminal-value ensemble statistics")
    mc = subs.add_parser("mean-change", help="mean change over uniform initials")
    for p in (chain, conv, ens, mc):
        p.add_argument("--config", help="JSON config file; flags override its values")
        p.add_argument("--seed", type=int)
        p.add_argument("--out", help="output directory (default: out)")
        p.add_argument("--r0", type=_state_or_uniform)
    for p in (chain, conv, ens):
        p.add_argument("--trajectories", type=int, metavar="M")
        p.add_argument("--horizon", type=float)
    for p in (conv, ens, mc):
        p.add_argument("--scheme", choices=["milstein", "em"])
        p.add_argument("--dump-trajectory", action="store_const", const=True,
                       help="also write trajectory.csv for the first trajectory")
    for p in (ens, mc):
        p.add_argument("--model", choices=sorted(MODEL_PRESETS))
        p.add_argument("--initial-range", type=float, nargs=2, metavar=("LO", "HI"))
    conv.add_argument("--grid", type=float, nargs="+", help="decreasing h_max levels")
    conv.add_argument("--x0", type=float)
    ens.add_argument("--initial", type=float)
    ens.add_argument("--runs-per-initial", type=int)
    mc.add_argument("--initials", type=int)
    mc.add_argument("--runs", type=int)
    mc.add_argument("--start-day", type=float)
    mc.add_argument("--end-day", type=float)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.experiment == "ensemble" and getattr(args, "initial_range", None) is not None:
        args.initial = {"uniform": list(args.initial_range)}
        args.initial_range = None
    try:
        cfg = load_config(args.experiment, args)
    except (ConfigParseError, ConfigValidationError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    try:
        run(cfg)
    except (SwitchSDEError, OSError) as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
