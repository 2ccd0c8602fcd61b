"""Alternating before/after runs of the benchmark, written as the
``workloads`` section of a ``BENCH_<n>.json`` file.

    python3 tools/bench_pairs.py --parent ../parent-tree --change . \\
        --pairs 10 --seconds 30 --out BENCH_16.json

``--parent`` and ``--change`` are two checkouts of the repository, each
holding ``bench/`` and ``src/``.  For every workload (all of
``BENCHMARK.json``'s, or those named by ``--workload``), pair i runs

    python3 bench/run.py --workload W --seed i --seconds S --trace 0

in both trees, the parent first in odd pairs and the change first in even
ones, so that a drift of the machine's speed falls on both sides alike.  From
each run's result line it keeps the end-to-end metrics and the correctness
counts.  Per workload and metric it writes both sides' runs, median and
quartiles (the inclusive method), the ratio of the medians (change over
parent) and the number of pairs in which the change was better, in the
direction ``BENCHMARK.json`` gives; and each side's correctness totals.  At
the end it prints a table to stdout, one line per workload and metric: both
medians, their ratio, the pairs in which the change was better, and whether
every unit on each side was correct.

Both trees run in the same bytecode state, compiling the package and the
benchmark from source in every run: the runs are made with
``PYTHONDONTWRITEBYTECODE=1``, and the script refuses to start while either
tree holds a ``__pycache__`` directory under ``src/`` or ``bench/``.  An import
from compiled bytecode is some tens of milliseconds faster, so otherwise
``setup_s`` would compare import modes, not code.

The section is rewritten after every pair, so an interrupted run keeps what
it measured.  Other keys of an existing ``--out`` file are left as they are.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
SOURCE_DIRS = ("src", "bench")


def run_bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``--trace 0`` run in ``tree``: its result line, and its record's
    correctness section."""
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, check=True, capture_output=True, text=True,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}).stdout.splitlines()
    record, result = json.loads(out[-2]), json.loads(out[-1])
    return {"result": result, "correctness": record["correctness"]}


def bytecode_caches(tree: Path) -> list[Path]:
    """The ``__pycache__`` directories under the tree's source directories."""
    return sorted(cache for name in SOURCE_DIRS for cache in (tree / name).rglob("__pycache__"))


def _summary(runs: list[float]) -> dict:
    quartiles = statistics.quantiles(runs, n=4, method="inclusive") if len(runs) > 1 \
        else runs * 3
    return {"runs": [round(v, 4) for v in runs], "median": round(statistics.median(runs), 4),
            "quartiles": [round(quartiles[0], 4), round(quartiles[2], 4)]}


def summarise(runs: dict, better: dict) -> dict:
    """The workload's entry from ``runs[side]``, a list of run_bench results
    in pair order."""
    pairs = min(len(runs[side]) for side in SIDES)
    entry = {"pairs": pairs}
    for metric, direction in better.items():
        values = {side: [r["result"]["metrics"][metric]["value"] for r in runs[side][:pairs]]
                  for side in SIDES}
        sign = 1.0 if direction == "higher" else -1.0
        entry[metric] = {side: _summary(values[side]) for side in SIDES}
        entry[metric]["ratio_of_medians"] = round(
            statistics.median(values["change"]) / statistics.median(values["parent"]), 3)
        entry[metric]["change_better_pairs"] = sum(
            sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
    entry["correctness"] = {side: {
        "units": sum(r["correctness"]["units"] for r in runs[side][:pairs]),
        "statistic_mismatches": sum(r["correctness"]["statistic_mismatches"]
                                    for r in runs[side][:pairs]),
        "digest_mismatches": sum(r["correctness"]["digest_mismatches"]
                                 for r in runs[side][:pairs]),
        "failed_trajectories": sum(r["result"]["failed"] for r in runs[side][:pairs]),
        "all_correct": all(r["result"]["correct"] for r in runs[side][:pairs]),
    } for side in SIDES}
    return entry


def closing_table(section: dict, metrics) -> list[str]:
    """The lines of the closing table over the workloads of ``section``."""
    lines = [f"{'workload':<18} {'metric':<12} {'parent':>11} {'change':>11} {'ratio':>6} "
             f"{'better':>7}  all correct (parent, change)"]
    for workload, entry in section.items():
        correct = ", ".join("yes" if entry["correctness"][side]["all_correct"] else "NO"
                            for side in SIDES)
        for metric in metrics:
            m = entry[metric]
            lines.append(f"{workload:<18} {metric:<12} {m['parent']['median']:>11} "
                         f"{m['change']['median']:>11} {m['ratio_of_medians']:>6} "
                         f"{m['change_better_pairs']:>3}/{entry['pairs']:<3}  {correct}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--workload", action="append",
                        help="a workload to run (repeatable; default: all)")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    trees = {"parent": args.parent, "change": args.change}
    caches = [cache for tree in trees.values() for cache in bytecode_caches(tree)]
    if caches:
        print("refusing to start: compiled bytecode would make the trees import "
              "differently; remove " + " ".join(map(str, caches)), file=sys.stderr)
        return 2

    declared = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in declared["end_to_end"]}
    workloads = args.workload or [w["name"] for w in declared["workloads"]]
    document = json.loads(args.out.read_text()) if args.out.exists() else {}
    section = document.setdefault("workloads", {})
    for workload in workloads:
        runs = {side: [] for side in SIDES}
        for pair in range(1, args.pairs + 1):
            for side in SIDES if pair % 2 else reversed(SIDES):
                runs[side].append(run_bench(trees[side], workload, pair, args.seconds))
            section[workload] = summarise(runs, better)
            args.out.write_text(json.dumps(document, indent=1) + "\n")
            traj = section[workload]["traj_per_s"]
            print(f"{workload} pair {pair}: traj_per_s parent "
                  f"{traj['parent']['runs'][-1]} change {traj['change']['runs'][-1]}",
                  file=sys.stderr)
    print("\n".join(closing_table({w: section[w] for w in workloads if w in section}, better)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
