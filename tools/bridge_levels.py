"""Per-level cost of the coupled strong-order walk over one bridge source.

    PYTHONPATH=src python tools/bridge_levels.py --coarsest 4 --finest 9 --runs 5

Runs ``harness.strong_order_study`` on the grid 2^-coarsest .. 2^-finest
(the linear2 model, x0 = 1, rho = 15, k = 10, T = 1, M = 100, seed 42) with
``harness.solve_terminals`` wrapped, and prints per level, finest first:
the walk's iterations (its lanes' largest step count: every iteration steps
each unfinished lane once), the walk's milliseconds and the microseconds per
iteration.  Levels of several lane groups add up.  A run makes the study
three times and keeps each level's fastest time, so that a stall of the host
in one study does not set a level's cost.

Then it prints R: the coarse levels' microseconds per iteration, weighted by
their iterations, over the finest level's.  The levels of one run share the
process and the minute, so R mostly cancels the host's swings of speed that a
single timing carries.  A coarse level walks over the points that every finer
level left on the same paths; R near 1 says that a step costs the same
however many of them it passes.  With ``--runs`` it makes that many runs and
prints their median R last.
"""

from __future__ import annotations

import argparse
import math
import statistics
import sys
import time

import switchsde as s
from switchsde import cli, harness

SEED = 42
SAMPLES = 100
REPEAT = 3  # studies a run makes, each level keeping its fastest


def measure(coarsest: int, finest: int) -> list[tuple[float, int, float]]:
    """(h_max, iterations, walk seconds) per level, finest first: the study
    runs ``REPEAT`` times, and each level keeps its fastest time."""
    levels: dict[float, list] = {}
    walk = harness.solve_terminals

    def timed(m, chains, noise, x0, T, p, main="milstein"):
        t0 = time.perf_counter()
        result = walk(m, chains, noise, x0, T, p, main)
        times[p.h_max] = times.get(p.h_max, 0.0) + time.perf_counter() - t0
        steps[p.h_max] = steps.get(p.h_max, 0) + int(result[1].max(initial=0))
        return result

    preset = cli.MODEL_PRESETS["linear2"]
    params = s.LinearModelParams(**{k: v for k, v in preset["model"].items() if k != "kind"})
    g = s.validate_generator(preset["generator"])
    grid = [2.0 ** -e for e in range(coarsest, finest + 1)]
    harness.solve_terminals = timed
    try:
        for _ in range(REPEAT):
            times, steps = {}, {}
            harness.strong_order_study(params, g, 1.0, 1.0, grid, 15.0, 10.0, SAMPLES, SEED)
            for h, seconds in times.items():
                levels[h] = [steps[h], min(seconds, levels.get(h, [0, math.inf])[1])]
    finally:
        harness.solve_terminals = walk
    return [(h, *levels[h]) for h in sorted(levels)]


def ratio(levels) -> float:
    """R: the coarse levels' seconds per iteration over the finest level's."""
    (_, fine_iters, fine_s), coarse = levels[0], levels[1:]
    coarse_s = sum(seconds for _, _, seconds in coarse)
    coarse_iters = sum(iters for _, iters, _ in coarse)
    return (coarse_s / coarse_iters) / (fine_s / fine_iters)


def main(argv=None) -> list[float]:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--coarsest", type=int, default=4, help="the coarsest level is 2^-C")
    parser.add_argument("--finest", type=int, default=9, help="the finest level is 2^-F")
    parser.add_argument("--runs", type=int, default=1)
    args = parser.parse_args(argv)
    if not 0 <= args.coarsest <= args.finest - 2 or args.runs < 1:
        parser.error("need 0 <= coarsest <= finest - 2 (three levels) and runs >= 1")
    rs = []
    for run in range(1, args.runs + 1):
        levels = measure(args.coarsest, args.finest)
        print(f"run {run}: {'h_max':>12} {'iterations':>10} {'walk ms':>9} {'us/iter':>8}")
        for h, iters, seconds in levels:
            print(f"{'':7}{h:12.9g} {iters:10d} {seconds * 1e3:9.2f} "
                  f"{seconds * 1e6 / iters:8.2f}")
        rs.append(ratio(levels))
        print(f"run {run}: R = {rs[-1]:.3f}")
    if args.runs > 1:
        print(f"median R over {args.runs} runs = {statistics.median(rs):.3f}")
    return rs


if __name__ == "__main__":
    main()
    sys.exit(0)
