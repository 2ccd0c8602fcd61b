"""Interleaved timing of two source trees in one process.

    python3 tools/ab_trees.py --parent ../parent-tree --change . \\
        --workload fast-switching --units 100 --stages

``--parent`` and ``--change`` are two checkouts of the repository, each
holding ``src/switchsde``.  The package imports its own modules relatively,
so each tree loads under a name of its own (``ab_parent``, ``ab_change``) and
both live in this process side by side.  Unit i runs the workload's study
(``bench/configs/<workload>.json`` beside this script, loaded by each tree's
``cli.load_config``) at study seed ``--first-seed`` + i (0 + i by default) in
both trees, the parent first in even units and the change first in odd ones,
and checks that the two trees' output arrays are bitwise equal.  A claim
sized on the first seeds can so be checked on held-out ones.  It writes no
output files.

It prints the median over the units of the per-unit ratio parent seconds /
change seconds (above 1: the change is faster), its quartiles, and the units
the change won.  ``--stages`` wraps ``harness.simulate_chains``, the stream
setup that the harness calls (whichever of ``STREAM_CALLS`` it binds:
substream derivation, lane uniform sources and noise generators),
``harness.solve_terminals``, the noise sources' ``advance`` (each of
``NOISE_SOURCES``, its block draws included) and ``schemes._newton_values``
in both trees and prints each tree's median milliseconds per unit in the
chains, the streams, the walk (``solve_terminals`` less the noise and the
Newton), the noise, the Newton and the rest of the study.

Runs of two subprocesses minutes apart feel the host's swings of speed; units
interleaved in one process feel them alike.  Exits 1 at the first unit whose
outputs differ, naming it.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import importlib.util
import json
import logging
import statistics
import sys
import time
from pathlib import Path

import numpy as np

CONFIG_DIR = Path(__file__).resolve().parents[1] / "bench" / "configs"
SIDES = ("parent", "change")
STAGES = ("chains", "streams", "walk", "noise", "newton", "rest")
# The stream setup a harness may call, none of them through another.
STREAM_CALLS = ("substream_states", "seeded_generators", "LaneUniforms", "substream_uniforms",
                "substream_rngs")
NOISE_SOURCES = ("ForwardNoise", "BridgeNoise")  # the lane noise sources


def load_tree(tree: Path, name: str):
    """The package under ``tree/src/switchsde``, imported as ``name``."""
    for module in [m for m in sys.modules if m == name or m.startswith(name + ".")]:
        del sys.modules[module]
    init = tree / "src" / "switchsde" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init,
                                                  submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def study(package, workload: str):
    """``run(seed)`` of the workload in ``package``: its output arrays."""
    cli, harness = (importlib.import_module(f"{package.__name__}.{m}") for m in ("cli", "harness"))
    experiment = json.loads((CONFIG_DIR / f"{workload}.json").read_text())["experiment"]
    cfg = cli.load_config(experiment, cli.build_parser().parse_args(
        [experiment, "--config", str(CONFIG_DIR / f"{workload}.json")]))
    x = cfg.extra
    if experiment == "ensemble":
        def run(seed):
            s = harness.run_ensemble(cfg.model, cfg.generator, float(x["initial"]), x["r0"],
                                     float(x["horizon"]), cfg.step, int(x["trajectories"]),
                                     int(x["runs_per_initial"]), seed, cfg.scheme)
            return (s.terminal_values,)
    elif experiment == "convergence":
        def run(seed):
            grid = [float(h) for h in x["grid"]]
            r = harness.strong_order_study(cfg.linear_params, cfg.generator, float(x["x0"]),
                                           float(x["horizon"]), grid, cfg.step.rho, cfg.step.k,
                                           int(x["trajectories"]), seed, scheme=cfg.scheme,
                                           r0=int(x["r0"]))
            return (np.array(r.rms_errors),)
    else:
        def run(seed):
            lo, hi = (float(v) for v in x["initial_range"])
            r = harness.mean_change_study(cfg.model, cfg.generator, lo, hi,
                                          float(x["start_day"]), float(x["end_day"]),
                                          int(x["initials"]), int(x["runs"]), seed, cfg.step,
                                          x["r0"], cfg.scheme)
            return r.initials, r.mean_finals, r.single_finals
    return run


def wrap_stages(package, totals: dict) -> None:
    """Adds each call's seconds of the staged functions to ``totals``."""
    harness, noise, schemes = (importlib.import_module(f"{package.__name__}.{m}")
                               for m in ("harness", "noise", "schemes"))
    staged = [(harness, "simulate_chains", "chains"), (harness, "solve_terminals", "walk"),
              (schemes, "_newton_values", "newton")]
    staged += [(harness, name, "streams") for name in STREAM_CALLS if hasattr(harness, name)]
    staged += [(getattr(noise, name), "advance", "noise") for name in NOISE_SOURCES]
    for owner, name, stage in staged:
        def timed(*args, _inner=getattr(owner, name), _stage=stage, **kwargs):
            t0 = time.perf_counter()
            try:
                return _inner(*args, **kwargs)
            finally:
                totals[_stage] += time.perf_counter() - t0
        setattr(owner, name, timed)


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    q = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return q[0], statistics.median(values), q[2]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", default="fast-switching")
    parser.add_argument("--units", type=int, default=100)
    parser.add_argument("--first-seed", type=int, default=0,
                        help="the study seed of unit 0; unit i runs seed first + i")
    parser.add_argument("--stages", action="store_true",
                        help="time the chains, the streams, the walk, the noise and the Newton "
                             "in each tree")
    args = parser.parse_args(argv)
    trees = {"parent": args.parent, "change": args.change}
    runs, totals, stages = {}, {}, {side: {stage: [] for stage in STAGES} for side in SIDES}
    for side in SIDES:
        package = load_tree(trees[side], f"ab_{side}")
        logging.getLogger(package.__name__).setLevel(logging.ERROR)  # the backstop-share warning
        totals[side] = dict.fromkeys(STAGES, 0.0)
        if args.stages:
            wrap_stages(package, totals[side])
        runs[side] = study(package, args.workload)
    seconds = {side: [] for side in SIDES}
    for unit in range(args.units):
        outputs, seed = {}, args.first_seed + unit
        for side in SIDES if unit % 2 == 0 else reversed(SIDES):
            totals[side].update(dict.fromkeys(STAGES, 0.0))
            t0 = time.perf_counter()
            outputs[side] = runs[side](seed)
            seconds[side].append(time.perf_counter() - t0)
            spent = totals[side]
            rest = seconds[side][-1] - spent["chains"] - spent["streams"] - spent["walk"]
            walk = spent["walk"] - spent["noise"] - spent["newton"]
            for stage, value in zip(STAGES, (spent["chains"], spent["streams"], walk,
                                             spent["noise"], spent["newton"], rest)):
                stages[side][stage].append(value)
        if not all(a.tobytes() == b.tobytes() for a, b in zip(*outputs.values())):
            print(f"unit {unit} (study seed {seed}): the trees' outputs differ", file=sys.stderr)
            return 1
    ratios = [p / c for p, c in zip(seconds["parent"], seconds["change"])]
    low, mid, high = _quartiles(ratios)
    print(f"{args.workload}: {args.units} units, outputs equal")
    for side in SIDES:
        print(f"{side:<7} median {1e3 * statistics.median(seconds[side]):.2f} ms a unit")
    print(f"ratio parent/change: median {mid:.3f}, quartiles {low:.3f} .. {high:.3f}; "
          f"the change won {sum(r > 1.0 for r in ratios)} of {args.units} units")
    if args.stages:
        print("median ms a unit: " + "  ".join(f"{stage:>8}" for stage in STAGES))
        for side in SIDES:
            print(f"{side:<17} " + "  ".join(
                f"{1e3 * statistics.median(stages[side][stage]):8.3f}" for stage in STAGES))
    return 0


if __name__ == "__main__":
    sys.exit(main())
