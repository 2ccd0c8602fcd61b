"""CSV and JSON writers for experiment outputs.

Floats are written with ``repr``, the shortest exact round-trip form, so a
rerun with identical inputs produces byte-identical files.
"""

from __future__ import annotations

import json
from typing import IO

from .harness import ConvergenceReport, EnsembleSummary, MeanChangeReport
from .schemes import Trajectory


def _f(x) -> str:
    return repr(float(x))


def write_histogram_csv(stream: IO[str], summary: EnsembleSummary) -> None:
    stream.write("bin_left,bin_right,density\n")
    for left, right, d in zip(summary.bin_edges[:-1], summary.bin_edges[1:],
                              summary.densities):
        stream.write(f"{_f(left)},{_f(right)},{_f(d)}\n")


def write_convergence_csv(stream: IO[str], report: ConvergenceReport) -> None:
    stream.write("h_max,rms_error\n")
    for h, e in zip(report.h_max_grid, report.rms_errors):
        stream.write(f"{_f(h)},{_f(e)}\n")


def write_meanchange_csv(stream: IO[str], report: MeanChangeReport) -> None:
    stream.write("initial,mean_final,single_final\n")
    for x0, mf, sf in zip(report.initials, report.mean_finals, report.single_finals):
        stream.write(f"{_f(x0)},{_f(mf)},{_f(sf)}\n")


def write_trajectory_csv(stream: IO[str], trajectory: Trajectory) -> None:
    """Step records as t,state,y,h,backstop rows, starting from t=0."""
    stream.write("t,state,y,h,backstop\n")
    stream.write(f"{_f(0.0)},{trajectory.chain.initial_state},{_f(trajectory.x0)},"
                 f"{_f(0.0)},0\n")
    for rec in trajectory.records:
        stream.write(f"{_f(rec.t_end)},{rec.state},{_f(rec.y_end)},{_f(rec.h)},"
                     f"{int(rec.used_backstop)}\n")


def summary_dict(summary: EnsembleSummary, seed: int, params: dict) -> dict:
    """JSON-ready structured summary with the exact parameter echo."""
    return {
        "mean": summary.mean,
        "sd": summary.std_dev,
        "se": summary.standard_error,
        "M": int(len(summary.terminal_values)),
        "backstop_fraction": summary.backstop_fraction,
        "failed_count": summary.failed_count,
        "seed": seed,
        "params": params,
    }


def write_json(stream: IO[str], payload: dict) -> None:
    json.dump(payload, stream, indent=2, sort_keys=True)
    stream.write("\n")
