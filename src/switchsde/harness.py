"""Monte Carlo experiment engine.

Three experiments are provided:

* :func:`strong_order_study` estimates the strong (mean-square) convergence
  order of the hybrid solver on the linear test model.  Per sample, one chain
  and one Brownian path are reused across every grid level, and the exact
  solution is evaluated first so all levels are coupled pathwise through the
  shared memoized path.
* :func:`run_ensemble` gathers terminal-value statistics and a density
  histogram over independent trajectories.
* :func:`mean_change_study` draws uniform initial values, runs several
  trajectories per initial, and reports per-initial and grand mean changes
  over the horizon.

The ensemble and the mean-change study are reductions over the per-index
arrays of one engine, which walks the trajectories in lane groups through the
batched walk :func:`switchsde.schemes.solve_terminals`.  The scalar walk stays
the reference: it replays any index bit for bit (:func:`first_trajectory`
replays index 0), supplies the error of each index the batched walk marks
as failed, and serves the strong-order study, whose coupled meshes refine
one shared Brownian path.

Seeding: every trajectory gets independent chain / noise / auxiliary random
streams derived from the master seed and the trajectory index through
``numpy.random.SeedSequence`` spawn keys, so results do not depend on
execution order and are reproducible bit for bit.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .ctmc import GeneratorMatrix, simulate_chain
from .errors import (
    AllTrajectoriesFailedError,
    DegenerateGridError,
    HistogramRangeError,
    InvalidParamsError,
    NonfiniteResultError,
    RootNotFoundError,
    StepBudgetExceededError,
)
from .models import LinearModelParams, RegimeModel, exact_linear_solution, linear_model
from .noise import BrownianPath
from .schemes import Trajectory, solve_terminal, solve_terminals, solve_trajectory
from .stepping import StepParams, build_mesh_bound

logger = logging.getLogger(__name__)

BACKSTOP_WARN_FRACTION = 0.05
# Trajectories the batched walk steps together.  Groups bound a study's memory
# (each lane holds its chain and a block of normals) at any study size.
LANE_GROUP = 256

_TRAJECTORY_FAILURES = (NonfiniteResultError, RootNotFoundError, StepBudgetExceededError)

# Per-trajectory substream tags.
CHAIN_STREAM = 0
NOISE_STREAM = 1
AUX_STREAM = 2
INITIAL_STREAM = 3


def substream_rng(seed: int, index: int, stream: int) -> np.random.Generator:
    """Independent generator for (trajectory index, substream)."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index, stream)))


@dataclass(frozen=True)
class ConvergenceReport:
    """Strong-error study result: RMS terminal errors per grid level and the
    least-squares slope of log(error) against log(h_max)."""

    h_max_grid: tuple[float, ...]
    rms_errors: tuple[float, ...]
    fitted_order: float
    sample_count: int
    scheme: str


@dataclass(frozen=True)
class EnsembleSummary:
    """Terminal-value statistics over the successful trajectories."""

    terminal_values: np.ndarray
    mean: float
    std_dev: float
    standard_error: float
    bin_edges: np.ndarray
    densities: np.ndarray
    backstop_fraction: float
    failed_count: int


@dataclass(frozen=True)
class MeanChangeReport:
    """Per-initial series (sorted by initial value) plus the grand mean change.

    ``summary`` aggregates the per-initial mean changes, matching the density
    histogram of mean changes; ``single_finals`` holds one representative
    trajectory's final value per initial (the first successful run).
    """

    initials: np.ndarray
    mean_finals: np.ndarray
    single_finals: np.ndarray
    mean_changes: np.ndarray
    grand_mean_change: float
    summary: EnsembleSummary
    failed_count: int


def _histogram(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Freedman-Diaconis density histogram; densities integrate to one."""
    try:
        edges = np.histogram_bin_edges(values, bins="fd")
    except ValueError as exc:  # a range below the values' float resolution
        raise HistogramRangeError(f"cannot bin the values: {exc}") from exc
    densities, _ = np.histogram(values, bins=edges, density=True)
    return edges, densities


def _summarize(values: np.ndarray, backstop_fraction: float,
               failed_count: int) -> EnsembleSummary:
    values = np.asarray(values, dtype=float)
    mean = float(np.mean(values))
    if len(values) > 1:
        with np.errstate(over="ignore"):
            std = float(np.std(values, ddof=1))
        if math.isinf(std):
            # The squares passed the float range (an infinite value would give
            # NaN): take the spread of the values scaled into [-1, 1] instead.
            scale = float(np.max(np.abs(values)))
            std = float(np.std(values / scale, ddof=1)) * scale
        se = std / math.sqrt(len(values))
    else:
        std = 0.0
        se = 0.0
    edges, densities = _histogram(values)
    return EnsembleSummary(terminal_values=values, mean=mean, std_dev=std,
                           standard_error=se, bin_edges=edges, densities=densities,
                           backstop_fraction=backstop_fraction, failed_count=failed_count)


def _is_integer(n) -> bool:
    """An exact integer: an ``int`` or a numpy integer, never a ``bool``."""
    return isinstance(n, (int, np.integer)) and not isinstance(n, bool)


def check_run_args(num_states: int, g: GeneratorMatrix, r0, T: float,
                   *counts: int) -> None:
    """Checks shared by every study: the generator matches the model's state
    count, the horizon is in (0, inf), ``r0`` is ``'uniform'`` or an integer
    state in 1..num_states, and every trajectory count is an integer >= 1."""
    if g.num_states != num_states:
        raise InvalidParamsError(
            f"generator has {g.num_states} states, model {num_states}")
    if not 0.0 < T < math.inf:
        raise InvalidParamsError(f"horizon must be positive and finite, got {T}")
    if r0 != "uniform" and not (_is_integer(r0) and 1 <= r0 <= num_states):
        raise InvalidParamsError(f"r0={r0!r} is not 'uniform' or a state 1..{num_states}")
    if not all(_is_integer(n) and n >= 1 for n in counts):
        raise InvalidParamsError(f"trajectory counts must be integers >= 1, got {counts}")


def check_strong_order_args(params: LinearModelParams, g: GeneratorMatrix, T: float,
                            grid, rho: float, k: float, M: int, r0: int) -> None:
    """The argument checks of :func:`strong_order_study`; the finest grid
    level, which has the largest step cap, must have a finite one."""
    if len(grid) < 3:
        raise DegenerateGridError(f"need at least 3 grid levels, got {len(grid)}")
    if any(b >= a for a, b in zip(grid, grid[1:])):
        raise DegenerateGridError("grid must be strictly decreasing")
    if r0 == "uniform":
        raise InvalidParamsError("the strong-order study needs a fixed r0, got 'uniform'")
    check_run_args(params.num_states, g, r0, T, M)
    if M < 100:
        raise InvalidParamsError(f"need M >= 100 samples, got {M}")
    build_mesh_bound(T, StepParams(h_max=grid[-1], rho=rho, k=k), 0)


def check_ensemble_args(model: RegimeModel, g: GeneratorMatrix, initial, r0, T: float,
                        p: StepParams, M: int, runs_per_initial: int) -> None:
    """The argument checks of :func:`run_ensemble`, the step cap included."""
    if isinstance(initial, (tuple, list)) and not initial[0] < initial[1]:
        raise InvalidParamsError(f"need lo < hi, got ({initial[0]}, {initial[1]})")
    check_run_args(model.num_states, g, r0, T, M, runs_per_initial)
    build_mesh_bound(T, p, 0)


def check_mean_change_args(model: RegimeModel, g: GeneratorMatrix, lo: float, hi: float,
                           t_start_day: float, t_end_day: float, n_initials: int,
                           runs_per_initial: int, p: StepParams, r0) -> None:
    """The argument checks of :func:`mean_change_study`, the step cap included."""
    if not 0 < lo < hi:
        raise InvalidParamsError(f"need 0 < lo < hi, got ({lo}, {hi})")
    if not t_end_day > t_start_day:
        raise InvalidParamsError(
            f"need t_end_day > t_start_day, got ({t_start_day}, {t_end_day})")
    check_run_args(model.num_states, g, r0, t_end_day - t_start_day, n_initials,
                   runs_per_initial)
    build_mesh_bound(t_end_day - t_start_day, p, 0)


def _draw_initial(initial, seed: int, j: int) -> float:
    """Initial value of outer index ``j``: fixed, or uniform on ``(lo, hi)``."""
    if isinstance(initial, (tuple, list)):
        lo, hi = float(initial[0]), float(initial[1])
        return float(substream_rng(seed, j, INITIAL_STREAM).uniform(lo, hi))
    return float(initial)


def trajectory_chain(g: GeneratorMatrix, r0, T: float, seed: int, index: int):
    """Chain of trajectory ``index``; a ``'uniform'`` r0 is drawn from the
    trajectory's auxiliary stream."""
    r0 = (1 + int(substream_rng(seed, index, AUX_STREAM).integers(g.num_states))
          if r0 == "uniform" else int(r0))
    return simulate_chain(g, r0, T, substream_rng(seed, index, CHAIN_STREAM))


def _trajectory_inputs(g: GeneratorMatrix, r0, T: float, seed: int, index: int):
    """Chain and noise generator of trajectory ``index``, derived in that order;
    the generator drives the trajectory's Brownian path."""
    return (trajectory_chain(g, r0, T, seed, index),
            substream_rng(seed, index, NOISE_STREAM))


def _backstop_fraction(n_steps: np.ndarray, n_backstop: np.ndarray) -> float:
    """Backstop share of all steps taken; warns when the backstop is not rare."""
    steps = int(n_steps.sum())
    fraction = int(n_backstop.sum()) / steps if steps else 0.0
    if fraction >= BACKSTOP_WARN_FRACTION:
        logger.warning("backstop used on %.1f%% of steps (design intent: rare)",
                       100.0 * fraction)
    return fraction


def _simulate_terminals(model: RegimeModel, g: GeneratorMatrix, initial, r0, T: float,
                        p: StepParams, n_initials: int, runs_per_initial: int,
                        seed: int, scheme: str):
    """Per-trajectory arrays ``(x0, y, n_steps, n_backstop, failed)`` of
    ``n_initials * runs_per_initial`` trajectories, indexed by
    ``j * runs_per_initial + r``.  The runs of outer index ``j`` share its
    initial value; a failed trajectory has ``y`` NaN and zero step counts.

    The batched walk takes ``LANE_GROUP`` trajectories at a time and marks
    which failed; the scalar walk replays each failed index, in index order,
    and its error is logged if it is a trajectory failure, else raised."""
    total = n_initials * runs_per_initial
    x0 = np.empty(total)
    y = np.full(total, np.nan)
    n_steps = np.zeros(total, dtype=np.int64)
    n_backstop = np.zeros(total, dtype=np.int64)
    failed = np.zeros(total, dtype=bool)
    for first in range(0, total, LANE_GROUP):
        group = slice(first, min(first + LANE_GROUP, total))
        chains, noise_rngs = [], []
        for idx in range(group.start, group.stop):
            j, r = divmod(idx, runs_per_initial)
            if r == 0:
                start = _draw_initial(initial, seed, j)
            x0[idx] = start
            chain, noise_rng = _trajectory_inputs(g, r0, T, seed, idx)
            chains.append(chain)
            noise_rngs.append(noise_rng)
        y[group], n_steps[group], n_backstop[group], failed[group] = solve_terminals(
            model, chains, noise_rngs, x0[group], T, p, scheme)
        for lane in np.flatnonzero(failed[group]).tolist():
            idx = first + lane
            path = BrownianPath(substream_rng(seed, idx, NOISE_STREAM))
            try:
                solve_terminal(model, chains[lane], path, x0[idx], T, p, scheme)
            except _TRAJECTORY_FAILURES as exc:
                logger.warning("trajectory %d failed: %s", idx, exc)
            else:
                raise RuntimeError(f"trajectory {idx} failed in the batched walk "
                                   "but not in its scalar walk")
    if failed.all():
        raise AllTrajectoriesFailedError(f"all {total} trajectories failed")
    return x0, y, n_steps, n_backstop, failed


def first_trajectory(model: RegimeModel, g: GeneratorMatrix, initial, r0, T: float,
                     p: StepParams, seed: int, scheme: str = "milstein") -> Trajectory:
    """Trajectory 0 of :func:`run_ensemble` or :func:`mean_change_study` run
    with the same arguments (initial ``(lo, hi)`` for the latter), with every
    step record."""
    x0 = _draw_initial(initial, seed, 0)
    chain, noise_rng = _trajectory_inputs(g, r0, T, seed, 0)
    return solve_trajectory(model, chain, BrownianPath(noise_rng), x0, T, p, scheme)


def strong_order_study(params: LinearModelParams, g: GeneratorMatrix, x0: float,
                       T: float, grid, rho: float, k: float, M: int, seed: int,
                       scheme: str = "milstein", r0: int = 1) -> ConvergenceReport:
    """Coupled strong-error study against the exact linear-model solution.

    Parameters
    ----------
    grid:
        Strictly decreasing h_max values, at least three levels.
    M:
        Sample count (>= 100); each sample reuses one chain and one Brownian
        path across all levels.
    scheme:
        Main map, 'milstein' or 'em'; the backstop stays drift-implicit
        Milstein either way.
    """
    grid = tuple(float(h) for h in grid)
    check_strong_order_args(params, g, T, grid, rho, k, M, r0)

    model = linear_model(params)
    step_params = [StepParams(h_max=h, rho=rho, k=k) for h in grid]
    errors = np.empty((len(grid), M))
    for i in range(M):
        chain, noise_rng = _trajectory_inputs(g, r0, T, seed, i)
        path = BrownianPath(noise_rng)
        exact = exact_linear_solution(params, x0, chain, path, T)
        for lvl in range(len(grid) - 1, -1, -1):  # finest level queries first
            y, _, _ = solve_terminal(model, chain, path, x0, T, step_params[lvl], scheme)
            errors[lvl, i] = y - exact
    rms = np.sqrt(np.mean(errors * errors, axis=1))
    slope = float(np.polyfit(np.log(grid), np.log(rms), 1)[0])
    if not math.isfinite(slope):
        raise InvalidParamsError("fitted order is not finite")
    return ConvergenceReport(h_max_grid=grid, rms_errors=tuple(float(e) for e in rms),
                             fitted_order=slope, sample_count=M, scheme=scheme)


def run_ensemble(model: RegimeModel, g: GeneratorMatrix, initial, r0, T: float,
                 p: StepParams, M: int, runs_per_initial: int = 1, seed: int = 0,
                 scheme: str = "milstein") -> EnsembleSummary:
    """Monte Carlo ensemble of M x runs_per_initial independent trajectories.

    Parameters
    ----------
    initial:
        Either a fixed initial value or a ``(lo, hi)`` pair for a uniform
        draw; with a pair, one value is drawn per outer index and shared by
        that index's ``runs_per_initial`` trajectories.
    r0:
        Fixed 1-based initial chain state, or ``'uniform'`` to draw one per
        trajectory.

    Trajectories that abort (non-finite value, failed backstop solve, or step
    budget) are excluded from the statistics and counted in ``failed_count``.
    """
    check_ensemble_args(model, g, initial, r0, T, p, M, runs_per_initial)
    _, y, n_steps, n_backstop, failed = _simulate_terminals(
        model, g, initial, r0, T, p, M, runs_per_initial, seed, scheme)
    return _summarize(y[~failed], _backstop_fraction(n_steps, n_backstop),
                      int(failed.sum()))


def mean_change_study(model: RegimeModel, g: GeneratorMatrix, lo: float, hi: float,
                      t_start_day: float, t_end_day: float, n_initials: int,
                      runs_per_initial: int, seed: int, p: StepParams, r0=1,
                      scheme: str = "milstein") -> MeanChangeReport:
    """Mean change in value over [t_start_day, t_end_day] for uniform initials.

    Each of ``n_initials`` initial values (uniform on [lo, hi], interpreted as
    the value at ``t_start_day``) is integrated ``runs_per_initial`` times over
    the horizon ``t_end_day - t_start_day``.  Reports the per-initial mean
    change (final minus initial), the grand mean over all trajectories, and
    line-plot series ordered by initial value.
    """
    check_mean_change_args(model, g, lo, hi, t_start_day, t_end_day, n_initials,
                           runs_per_initial, p, r0)
    x0, y, n_steps, n_backstop, failed = _simulate_terminals(
        model, g, (lo, hi), r0, t_end_day - t_start_day, p, n_initials,
        runs_per_initial, seed, scheme)

    # The successful runs' finals of each outer index that has any.
    kept = ~failed.reshape(n_initials, runs_per_initial)
    rows = [finals[k] for finals, k in zip(y.reshape(kept.shape), kept) if k.any()]
    initials = x0[::runs_per_initial][kept.any(axis=1)]
    order = np.argsort(initials, kind="stable")
    initials = initials[order]
    mean_finals = np.array([np.mean(row) for row in rows])[order]
    single_finals = np.array([row[0] for row in rows])[order]
    mean_changes = mean_finals - initials
    grand = float(np.mean((y - x0)[~failed]))
    n_failed = int(failed.sum())
    summary = _summarize(mean_changes, _backstop_fraction(n_steps, n_backstop), n_failed)
    return MeanChangeReport(initials=initials, mean_finals=mean_finals,
                            single_finals=single_finals, mean_changes=mean_changes,
                            grand_mean_change=grand, summary=summary, failed_count=n_failed)
