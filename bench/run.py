"""switchsde benchmark: trajectory throughput of the library's study functions.

    python3 bench/run.py --workload telomere-ensemble --seed 1 --seconds 30 --trace 0

Run from the repository root (or a copy of it holding ``src/``).  The package
is imported from ``src/`` next to this directory, never from an installed
copy; without it the benchmark exits with code 2 and prints no result.

A workload is one study configuration (``configs/<workload>.json``, loaded
through ``cli.load_config`` exactly as the CLI loads it).  A *unit* is one
call of the study at that size followed by writing its outputs with the
``reporting`` writers, as the CLI would.  Each unit's study seed is taken from
a pool of ``POOL_SIZE`` seeds, in an order drawn from ``--seed``, and the
headline statistic of every unit is checked against ``reference.json``, which
was recorded at the seed commit (``record_reference.py``).

``--trace 0`` runs units until ``--seconds`` have passed and reports the
end-to-end metrics.  ``--trace 1`` runs a fixed, seed-determined set of units
twice, untraced and then traced, and reports the per-layer metrics, whose
counts therefore repeat exactly for a given seed and ``--seconds``.

The last line of standard output is the result object; the line before it is
the full record (environment, inputs, sample counts and quartiles,
correctness detail), which is also written to ``bench/out/``.
"""

from __future__ import annotations

import os

# One worker thread: nothing in the studies is parallel, and a BLAS thread
# pool in the least-squares fit would only add noise on a small machine.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import logging
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import calibration

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CONFIG_DIR = BENCH_DIR / "configs"
REFERENCE = BENCH_DIR / "reference.json"
OUT_DIR = BENCH_DIR / "out"

POOL_SIZE = 64            # distinct study seeds per workload with a reference
STAT_TOL = 1e-6           # |stat - ref| <= STAT_TOL * max(1, |ref|)
SETUP_REPEATS = 7         # fresh interpreters timed for setup_s (plus one warm-up)
LOAD_CONFIG_REPEATS = 5   # in-process load_config calls timed in the traced run
SECONDS_PER_TRACED_UNIT = 10  # traced run: one unit per this many --seconds

END_TO_END_UNITS = {"traj_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "harness.substream_calls": "count", "harness.substream_s": "s",
    "harness.study_s": "s", "harness.self_s": "s", "harness.warnings": "count",
    "ctmc.chains": "count", "ctmc.switches": "count", "ctmc.simulate_s": "s",
    "noise.increments": "count", "noise.increment_s": "s", "noise.points": "count",
    "noise.draw_ratio": "ratio",
    "stepping.calls": "count", "stepping.next_step_s": "s",
    "stepping.norm_controlled": "count", "stepping.floored": "count",
    "stepping.clamped_switch": "count", "stepping.clamped_terminal": "count",
    "schemes.walks": "count", "schemes.steps": "count", "schemes.walk_s": "s",
    "schemes.walk_self_s": "s", "schemes.explicit_calls": "count",
    "schemes.explicit_s": "s", "schemes.backstop_calls": "count",
    "schemes.backstop_s": "s", "schemes.backstop_frac": "ratio",
    "schemes.backstop_drift_evals": "count",
    "models.coef_calls": "count",
    "reporting.write_s": "s", "reporting.bytes": "B",
    "cli.load_config_s": "s",
    "trace_overhead": "ratio",
}


class MissingSourceError(RuntimeError):
    """The package source is not next to the benchmark."""


def import_package():
    """Import switchsde from ``src/`` beside the benchmark directory."""
    if not (SRC / "switchsde" / "__init__.py").is_file():
        raise MissingSourceError(f"no switchsde package under {SRC}")
    sys.path.insert(0, str(SRC))
    import switchsde
    if SRC not in Path(switchsde.__file__).resolve().parents:
        raise MissingSourceError(f"switchsde imported from {switchsde.__file__}, "
                                 f"not from {SRC}")
    return switchsde


# -- workloads -------------------------------------------------------------


@dataclass
class UnitResult:
    """One study call plus its output writes."""

    study_seed: int
    attempted: int
    failed: int
    stat: float
    digest: str
    seconds: float = 0.0
    bytes_written: int = 0
    error: str = ""

    @property
    def succeeded(self) -> int:
        return self.attempted - self.failed


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(memoryview(a).cast("B"))
    return h.hexdigest()


def _write(path: Path, writer, *args) -> int:
    with open(path, "w") as fh:
        writer(fh, *args)
    return path.stat().st_size


def _ensemble(cfg, seed, model, out: Path | None):
    from switchsde import harness, reporting
    x = cfg.extra
    s = harness.run_ensemble(model, cfg.generator, float(x["initial"]), x["r0"],
                             float(x["horizon"]), cfg.step, int(x["trajectories"]),
                             int(x["runs_per_initial"]), seed, cfg.scheme)
    written = 0
    if out is not None:
        written += _write(out / "histogram.csv", reporting.write_histogram_csv, s)
        written += _write(out / "summary.json", reporting.write_json,
                          reporting.summary_dict(s, seed, params_echo(cfg, seed)))
    return s.failed_count, s.mean, _digest(s.terminal_values), written


def _convergence(cfg, seed, model, out: Path | None):
    from switchsde import harness, reporting
    x = cfg.extra
    r = harness.strong_order_study(cfg.linear_params, cfg.generator, float(x["x0"]),
                                   float(x["horizon"]), [float(h) for h in x["grid"]],
                                   cfg.step.rho, cfg.step.k, int(x["trajectories"]),
                                   seed, scheme=cfg.scheme, r0=int(x["r0"]))
    written = 0
    if out is not None:
        written += _write(out / "convergence.csv", reporting.write_convergence_csv, r)
    return 0, r.fitted_order, _digest(np.asarray(r.rms_errors, dtype=float)), written


def _mean_change(cfg, seed, model, out: Path | None):
    from switchsde import harness, reporting
    x = cfg.extra
    lo, hi = (float(v) for v in x["initial_range"])
    r = harness.mean_change_study(model, cfg.generator, lo, hi, float(x["start_day"]),
                                  float(x["end_day"]), int(x["initials"]), int(x["runs"]),
                                  seed, cfg.step, x["r0"], cfg.scheme)
    written = 0
    if out is not None:
        written += _write(out / "meanchange.csv", reporting.write_meanchange_csv, r)
        written += _write(out / "histogram.csv", reporting.write_histogram_csv, r.summary)
        payload = reporting.summary_dict(r.summary, seed, params_echo(cfg, seed))
        payload["grand_mean_change"] = r.grand_mean_change
        written += _write(out / "summary.json", reporting.write_json, payload)
    return (r.failed_count, r.grand_mean_change,
            _digest(r.initials, r.mean_finals, r.single_finals), written)


@dataclass(frozen=True)
class Workload:
    name: str
    experiment: str   # CLI subcommand whose config the workload loads
    statistic: str    # the headline statistic checked against the reference
    # (cfg, study_seed, model, out_dir | None) -> (failed, statistic, digest, bytes)
    study: Callable
    # trajectories one unit attempts (convergence: samples x grid levels)
    size: Callable[[dict], int]

    @property
    def config_path(self) -> Path:
        return CONFIG_DIR / f"{self.name}.json"


WORKLOADS = {w.name: w for w in (
    Workload("telomere-ensemble", "ensemble", "ensemble mean", _ensemble,
             lambda x: int(x["trajectories"]) * int(x["runs_per_initial"])),
    Workload("convergence", "convergence", "fitted strong order", _convergence,
             lambda x: int(x["trajectories"]) * len(x["grid"])),
    Workload("fast-switching", "mean-change", "grand mean change", _mean_change,
             lambda x: int(x["initials"]) * int(x["runs"])),
)}


def load_config(workload: Workload):
    """The workload's RunConfig, parsed and validated by the CLI's loader."""
    from switchsde import cli
    args = cli.build_parser().parse_args(
        [workload.experiment, "--config", str(workload.config_path)])
    return cli.load_config(workload.experiment, args)


def params_echo(cfg, seed: int) -> dict:
    """Computation-affecting parameters of one unit, as the CLI echoes them."""
    echo = {k: v for k, v in cfg.raw.items() if k not in ("out", "dump_trajectory")}
    echo["seed"] = seed
    return echo


def unit_params(cfg) -> dict:
    """A unit's parameters apart from its study seed, in JSON form."""
    echo = params_echo(cfg, 0)
    del echo["seed"]
    return json.loads(json.dumps(echo))


def run_unit(workload: Workload, cfg, seed: int, model, out: Path | None) -> UnitResult:
    """One timed unit; a study error fails every trajectory of the unit."""
    from switchsde.errors import SwitchSDEError
    attempted = workload.size(cfg.extra)
    t0 = time.perf_counter()
    try:
        failed, stat, digest, written = workload.study(cfg, seed, model, out)
        result = UnitResult(seed, attempted, failed, stat, digest, bytes_written=written)
    except SwitchSDEError as exc:
        result = UnitResult(seed, attempted, attempted, float("nan"), "",
                            error=f"{type(exc).__name__}: {exc}")
    result.seconds = time.perf_counter() - t0
    return result


def unit_order(seed: int) -> list[int]:
    """Study seeds in the order a run with this ``--seed`` visits them."""
    return random.Random(seed).sample(range(POOL_SIZE), POOL_SIZE)


# -- correctness -----------------------------------------------------------


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


def reference_for(reference: dict, workload: Workload, cfg) -> dict:
    """The workload's recorded units; refuses a reference of another size."""
    entry = reference["workloads"][workload.name]
    if unit_params(cfg) != entry["params"]:
        raise ValueError(f"{REFERENCE.name} was recorded for other parameters of "
                         f"{workload.name}; re-record it or restore the config")
    return entry["units"]


def check_unit(units_ref: dict, result: UnitResult) -> tuple[bool, bool]:
    """(statistic within STAT_TOL of the reference, digest bitwise equal)."""
    ref = units_ref.get(str(result.study_seed))
    if ref is None or result.error:
        return False, False
    stat_ok = abs(result.stat - ref["stat"]) <= STAT_TOL * max(1.0, abs(ref["stat"]))
    return stat_ok, result.digest == ref["digest"]


# -- environment and setup -------------------------------------------------


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    """SHA-256 over the package sources, which names the code without git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "switchsde").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    import switchsde
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "switchsde": switchsde.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


_SETUP_CODE = """
import sys, time
sys.path.insert(0, sys.argv[1])
import calibration
calibration.kernel()  # the first run in a fresh interpreter is slow
before = calibration.kernel()
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[2])
import switchsde, switchsde.cli as cli
cli.load_config(sys.argv[3], cli.build_parser().parse_args(
    [sys.argv[3], "--config", sys.argv[4]]))
seconds = time.perf_counter() - t0
print(repr(seconds), repr(before), repr(calibration.kernel()))
"""


def setup_times(workload: Workload) -> tuple[list[float], list[float]]:
    """Seconds for ``import switchsde`` plus ``cli.load_config``, each in a
    fresh interpreter, as a CLI user pays them, as (wall, at reference speed).
    The first (warm-up) interpreter is dropped."""
    wall, scaled = [], []
    for _ in range(SETUP_REPEATS + 1):
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_CODE, str(BENCH_DIR), str(SRC),
             workload.experiment, str(workload.config_path)],
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
        seconds, before, after = map(float, proc.stdout.split())
        wall.append(seconds)
        scaled.append(calibration.at_reference_speed(seconds, before, after))
    return wall[1:], scaled[1:]


class _Collect(logging.Handler):
    """Keeps the harness's log records in memory, off the timed I/O path."""

    def __init__(self):
        super().__init__(logging.DEBUG)
        self.records: list[logging.LogRecord] = []

    def emit(self, record):
        self.records.append(record)


def _quartiles(values: list[float]) -> dict:
    out = {"n": len(values), "median": statistics.median(values),
           "min": min(values), "max": max(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    return out


# -- the two kinds of run --------------------------------------------------


def run_untraced(workload: Workload, cfg, order: list[int], seconds: float):
    """Units until ``seconds`` have passed (at least one), each between two
    runs of the calibration kernel; returns the units and the kernel times."""
    out = OUT_DIR / workload.name
    out.mkdir(parents=True, exist_ok=True)
    results = []
    kernel = [calibration.kernel()]
    deadline = time.perf_counter() + seconds
    while not results or time.perf_counter() < deadline:
        seed = order[len(results) % len(order)]
        results.append(run_unit(workload, cfg, seed, cfg.model, out))
        kernel.append(calibration.kernel())
    return results, kernel


def run_traced(workload: Workload, cfg, order: list[int], seconds: float, warnings,
               spans_path: Path, meta: dict):
    """The same fixed units untraced, then traced; per-layer metrics.  The
    spans go to ``spans_path`` together with ``meta``."""
    from tracing import Tracer
    from switchsde import cli
    out = OUT_DIR / workload.name
    out.mkdir(parents=True, exist_ok=True)
    seeds = order[:max(1, int(seconds) // SECONDS_PER_TRACED_UNIT)]

    t0 = time.perf_counter()
    plain = [run_unit(workload, cfg, s, cfg.model, out) for s in seeds]
    untraced_wall = time.perf_counter() - t0

    tracer = Tracer()
    warned = len(warnings.records)
    with tracer:
        model = tracer.instrument_model(cfg.model) if cfg.model is not None else None
        t0 = time.perf_counter()
        traced = []
        for u, s in enumerate(seeds):
            tracer.unit = u
            traced.append(run_unit(workload, cfg, s, model, out))
            tracer.end_unit()
        traced_wall = time.perf_counter() - t0
        tracer.unit, tracer.traj = -1, -1
        args = cli.build_parser().parse_args(
            [workload.experiment, "--config", str(workload.config_path)])
        load_times = []
        for _ in range(LOAD_CONFIG_REPEATS):
            t = time.perf_counter()
            cli.load_config(workload.experiment, args)
            load_times.append(time.perf_counter() - t)

    metrics = tracer.layer_metrics()
    metrics["harness.warnings"] = len(warnings.records) - warned
    metrics["reporting.bytes"] = sum(r.bytes_written for r in traced)
    metrics["cli.load_config_s"] = statistics.median(load_times)
    metrics["trace_overhead"] = traced_wall / untraced_wall
    detail = {"units": len(seeds), "study_seeds": seeds, "untraced_wall_s": untraced_wall,
              "traced_wall_s": traced_wall, "load_config_s": _quartiles(load_times),
              "spans": {name: {"count": n, "total_s": total, "self_s": own}
                        for name, (n, total, own) in tracer.span_totals().items()}}
    tracer.write_spans(spans_path, {**meta, "traced": detail})
    return plain + traced, metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import_package()
        reference = load_reference()
    except (MissingSourceError, OSError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    warnings = _Collect()
    log = logging.getLogger("switchsde.harness")
    log.addHandler(warnings)
    log.propagate = False

    cfg = load_config(workload)
    units_ref = reference_for(reference, workload, cfg)
    order = unit_order(args.seed)
    record = {
        "benchmark": "switchsde", "workload": workload.name, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "environment": environment(),
        "inputs": {"config": unit_params(cfg),
                   "statistic": workload.statistic, "pool_size": POOL_SIZE,
                   "reference_commit": reference.get("commit")},
    }

    if args.trace:
        results, metrics, record["traced"] = run_traced(
            workload, cfg, order, args.seconds, warnings,
            OUT_DIR / f"spans-{workload.name}-seed{args.seed}.npz", record)
        units = PER_LAYER_UNITS
    else:
        setup_wall, setup = setup_times(workload)
        results, kernel = run_untraced(workload, cfg, order, args.seconds)
        rates = [r.succeeded / r.seconds for r in results]
        scaled = [calibration.at_reference_speed(r.seconds, before, after)
                  for r, before, after in zip(results, kernel, kernel[1:])]
        succeeded = sum(r.succeeded for r in results)
        metrics = {
            "traj_per_s": succeeded / sum(scaled),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        record["samples"] = {
            "wall_traj_per_s": succeeded / sum(r.seconds for r in results),
            "unit_wall_traj_per_s": _quartiles(rates),
            "unit_seconds": _quartiles([r.seconds for r in results]),
            "calibration_s": _quartiles(kernel),
            "unit_wall_s": [r.seconds for r in results],
            "kernel_s": kernel,
            "setup_s": _quartiles(setup),
            "setup_wall_s": _quartiles(setup_wall)}
        units = END_TO_END_UNITS

    checks = [check_unit(units_ref, r) for r in results]
    correct = all(stat_ok for stat_ok, _ in checks)
    attempted = sum(r.attempted for r in results)
    failed = attempted if not correct else sum(r.failed for r in results)
    record["inputs"]["study_seeds"] = [r.study_seed for r in results]
    record["correctness"] = {
        "units": len(results),
        "statistic_mismatches": sum(not ok for ok, _ in checks),
        "digest_mismatches": sum(not same for _, same in checks),
        "errors": sorted({r.error for r in results if r.error}),
        "failed_frac": failed / attempted,
        "harness_warnings": len(warnings.records),
        "tolerance": f"|stat - ref| <= {STAT_TOL} * max(1, |ref|)",
    }
    record["metrics"] = metrics
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json",
              "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": metrics[k], "unit": u}
                                  for k, u in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
