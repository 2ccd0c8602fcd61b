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

All three walk their trajectories in lane groups through one runner,
:func:`_walk_groups`, which gives each group its chains and noise generators
(:mod:`switchsde.streams`) and stores by index the per-lane arrays of the
study's batched walk (:func:`switchsde.schemes.solve_terminals`); each study
is a reduction over them.  The ensemble and the mean-change study draw fresh
paths forward (:class:`switchsde.noise.ForwardNoise`); the strong-order
study walks each grid level as lanes, finest first, on one bridge source
(:class:`switchsde.noise.BridgeNoise`) that continues the paths its exact
oracle started.  The scalar walk stays the reference and serves only to
replay: the runner replays each index the batched walk marks as failed, in
index order, and logs its error; :func:`first_trajectory` replays index 0
for ``--dump-trajectory``; and it walks the mesh audits of acceptance
criteria 6 and 8.
"""

from __future__ import annotations

import functools
import logging
import math
import numbers
from dataclasses import dataclass

import numpy as np

# simulate_chain, the one-lane sampler, stays importable from here: the
# benchmark's tracer (bench/tracing.py) wraps harness.simulate_chain.
from .ctmc import Chains, GeneratorMatrix, simulate_chain, simulate_chains  # noqa: F401
from .errors import (AllTrajectoriesFailedError, DegenerateGridError, HistogramRangeError,
                     InvalidParamsError, NonfiniteResultError, RootNotFoundError,
                     StepBudgetExceededError)
from .models import LinearModelParams, RegimeModel, exact_linear_solution, linear_model
from .noise import BridgeNoise, BrownianPath, ForwardNoise
from .schemes import Trajectory, solve_terminal, solve_terminals, solve_trajectory
from .stepping import StepParams, build_mesh_bound, expected_mesh_sizes
from .streams import (AUX_STREAM, CHAIN_STREAM, INITIAL_STREAM, NOISE_STREAM, LaneUniforms,
                      seeded_generators, substream_rng, substream_states, substream_uniforms)

logger = logging.getLogger(__name__)

BACKSTOP_WARN_FRACTION = 0.05
# Trajectories the batched walk steps together, and whose substreams a study
# derives together.  Groups bound a study's memory (each lane holds its chain,
# its noise generator and a block of normals) at any study size.
LANE_GROUP = 1024
# Brownian points the strong-order study's lanes hold at once, 16 bytes each
# (a time and a value).  A lane's row holds every point its path will have
# (the levels' steps, ``room``) and an eighth more, beside a cell table of one
# int32 per four points and a block of 256 normals (2 kB); so a fine grid
# walks fewer samples together.
COUPLED_POINTS = 2 ** 22

_TRAJECTORY_FAILURES = (NonfiniteResultError, RootNotFoundError, StepBudgetExceededError)


@dataclass(frozen=True)
class ConvergenceReport:
    """Strong-error study result: RMS terminal errors per grid level and the
    least-squares slope of log(error) against log(h_max), with each level's
    mean step count per sample and backstop share of its steps."""

    h_max_grid: tuple[float, ...]
    rms_errors: tuple[float, ...]
    fitted_order: float
    sample_count: int
    scheme: str
    mean_steps: tuple[float, ...]
    backstop_fractions: tuple[float, ...]


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


def _statistic(stat, values: np.ndarray) -> float:
    """``stat(values)`` of a statistic that scales with its values, such as a
    mean, a standard deviation or a root mean square.  Where a sum or a
    square of finite values passes the float range, it is taken of the values
    scaled into [-1, 1] and scaled back."""
    with np.errstate(over="ignore"):
        result = float(stat(values))
    if math.isinf(result):
        scale = float(np.max(np.abs(values)))
        if scale < math.inf:
            result = float(stat(values / scale)) * scale
    return result


def _row_means(finals: np.ndarray, kept: np.ndarray) -> np.ndarray:
    """``_statistic(np.mean, ...)`` of the kept entries of each row of
    ``finals`` that keeps any, bit for bit.  With every entry kept, one
    reduction along the rows gives them, unless a mean is not finite."""
    if kept.all():
        with np.errstate(over="ignore", invalid="ignore"):
            means = finals.mean(axis=1)
        if np.isfinite(means).all():
            return means
    return np.array([_statistic(np.mean, row[k]) for row, k in zip(finals, kept) if k.any()])


def _summarize(values: np.ndarray, backstop_fraction: float,
               failed_count: int) -> EnsembleSummary:
    values = np.asarray(values, dtype=float)
    mean = _statistic(np.mean, values)
    if len(values) > 1:
        std = _statistic(functools.partial(np.std, ddof=1), values)
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


def _is_boolean(v) -> bool:
    """A ``bool``, a numpy bool or a boolean array, which no start value may be."""
    return isinstance(v, (bool, np.bool_)) or isinstance(v, np.ndarray) and v.dtype.kind == "b"


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


def check_strong_order_args(params: LinearModelParams, g: GeneratorMatrix, x0: float,
                            T: float, grid, rho: float, k: float, M: int,
                            r0: int) -> list[StepParams]:
    """The argument checks of :func:`strong_order_study`: every grid level's
    step parameters must be valid, and the finest level, which has the largest
    step cap, must have a finite one.  Returns the levels' step parameters."""
    if _is_boolean(x0) or not math.isfinite(x0):
        raise InvalidParamsError(f"x0 must be finite, got {x0!r}")
    if len(grid) < 3:
        raise DegenerateGridError(f"need at least 3 grid levels, got {len(grid)}")
    if any(b >= a for a, b in zip(grid, grid[1:])):
        raise DegenerateGridError("grid must be strictly decreasing")
    if r0 == "uniform":
        raise InvalidParamsError("the strong-order study needs a fixed r0, got 'uniform'")
    check_run_args(params.num_states, g, r0, T, M)
    if M < 100:
        raise InvalidParamsError(f"need M >= 100 samples, got {M}")
    step_params = [StepParams(h_max=h, rho=rho, k=k) for h in grid]
    build_mesh_bound(T, step_params[-1], 0)
    return step_params


def check_ensemble_args(model: RegimeModel, g: GeneratorMatrix, initial, r0, T: float,
                        p: StepParams, M: int, runs_per_initial: int) -> None:
    """The argument checks of :func:`run_ensemble`, the step cap included."""
    if isinstance(initial, (tuple, list)):
        if not (len(initial) == 2 and not any(map(_is_boolean, initial))
                and 0 < initial[1] - initial[0] < math.inf):
            raise InvalidParamsError(f"need a pair lo < hi with hi - lo finite, got {initial}")
    elif _is_boolean(initial) or not (isinstance(initial, numbers.Real) or isinstance(
            initial, np.ndarray) and initial.shape == () and initial.dtype.kind in "iuf"):
        raise InvalidParamsError(f"initial must be a number or a (lo, hi) tuple or list, "
                                 f"got {initial!r}")
    elif not math.isfinite(initial):
        raise InvalidParamsError(f"initial must be finite, got {initial!r}")
    check_run_args(model.num_states, g, r0, T, M, runs_per_initial)
    build_mesh_bound(T, p, 0)


def check_mean_change_args(model: RegimeModel, g: GeneratorMatrix, lo: float, hi: float,
                           t_start_day: float, t_end_day: float, n_initials: int,
                           runs_per_initial: int, p: StepParams, r0) -> None:
    """The argument checks of :func:`mean_change_study`, the step cap included."""
    if _is_boolean(lo) or _is_boolean(hi) or not (0 < lo and 0 < hi - lo < math.inf):
        raise InvalidParamsError(f"need 0 < lo < hi with hi - lo finite, got ({lo}, {hi})")
    if not t_end_day > t_start_day:
        raise InvalidParamsError(
            f"need t_end_day > t_start_day, got ({t_start_day}, {t_end_day})")
    check_run_args(model.num_states, g, r0, t_end_day - t_start_day, n_initials,
                   runs_per_initial)
    build_mesh_bound(t_end_day - t_start_day, p, 0)


def _draw_initials(initial, seed: int, outer) -> np.ndarray:
    """Initial values of the outer indices ``outer``: fixed, or uniform on
    ``(lo, hi)`` from each outer index's initial stream."""
    if isinstance(initial, (tuple, list)):
        lo, hi = float(initial[0]), float(initial[1])
        return substream_uniforms(seed, outer, INITIAL_STREAM).uniform(lo, hi)
    return np.full(len(outer), float(initial))


def _group_streams(g: GeneratorMatrix, r0, T: float, seed: int, indices, *streams):
    """Chains of the trajectories ``indices``, sampled together as one lane
    group (:func:`switchsde.ctmc.simulate_chains`), and the state words of
    their substreams ``streams``: lane j is the chain of ``indices[j]``,
    drawn from its chain stream, and a ``'uniform'`` r0 is drawn from each
    trajectory's auxiliary stream.  Every stream's words come from one pass
    over the indices' words (:func:`switchsde.streams.substream_states`)."""
    tags = (CHAIN_STREAM, AUX_STREAM) if r0 == "uniform" else (CHAIN_STREAM,)
    states = substream_states(seed, indices, tags + streams)
    if r0 == "uniform":
        starts = 1 + LaneUniforms(states[1]).integers(g.num_states)
    else:
        starts = [int(r0)] * len(indices)
    return simulate_chains(g, starts, T, LaneUniforms(states[0])), states[len(tags):]


def _trajectory_chains(g: GeneratorMatrix, r0, T: float, seed: int, indices) -> Chains:
    """Chains of the trajectories ``indices``, one lane group's
    (:func:`_group_streams`)."""
    return _group_streams(g, r0, T, seed, indices)[0]


def trajectory_chain(g: GeneratorMatrix, r0, T: float, seed: int, index: int):
    """Chain of trajectory ``index``, a one-lane group's path."""
    return _trajectory_chains(g, r0, T, seed, [index]).path(0)


def _backstop_fraction(n_steps: np.ndarray, n_backstop: np.ndarray) -> float:
    """Backstop share of all steps taken; warns when the backstop is not rare."""
    steps = int(n_steps.sum())
    fraction = int(n_backstop.sum()) / steps if steps else 0.0
    if fraction >= BACKSTOP_WARN_FRACTION:
        logger.warning("backstop used on %.1f%% of steps (design intent: rare)",
                       100.0 * fraction)
    return fraction


def _walk_groups(g: GeneratorMatrix, r0, T: float, seed: int, total: int, size: int,
                 walk, replay):
    """The one loop over lane groups: walk trajectories ``0..total-1`` in
    groups of ``size``.  ``walk(group, chains, rngs)`` walks the indices
    ``group`` (a range) on their chains and noise generators and returns
    per-lane arrays (lanes on the last axis), the last a ``failed`` mask,
    which are stored by index.  ``replay(index, chain, path)`` then walks
    each failed index alone, in index order, on a fresh path of its noise
    stream: its trajectory failure is logged and kept, a success is an
    engine disagreement, and any other error is raised.  Returns the arrays
    and the kept errors."""
    results, failures = None, []
    for first in range(0, total, size):
        group = range(first, min(first + size, total))
        chains, (noise,) = _group_streams(g, r0, T, seed, group, NOISE_STREAM)
        arrays = walk(group, chains, seeded_generators(noise))
        if results is None:
            results = [np.empty(a.shape[:-1] + (total,), a.dtype) for a in arrays]
        for stored, a in zip(results, arrays):
            stored[..., first:group.stop] = a
        for index in (first + np.flatnonzero(arrays[-1])).tolist():
            path = BrownianPath(substream_rng(seed, index, NOISE_STREAM))
            try:
                replay(index, chains.path(index - first), path)
            except _TRAJECTORY_FAILURES as exc:
                logger.warning("trajectory %d failed: %s", index, exc)
                failures.append(exc)
            else:
                raise RuntimeError(f"trajectory {index} failed in the batched walk "
                                   "but not in its scalar walk")
    return results, failures


def _simulate_terminals(model: RegimeModel, g: GeneratorMatrix, initial, r0, T: float,
                        p: StepParams, n_initials: int, runs_per_initial: int,
                        seed: int, scheme: str):
    """Per-trajectory arrays ``(x0, y, n_steps, n_backstop, failed)`` of
    ``n_initials * runs_per_initial`` trajectories, indexed by
    ``j * runs_per_initial + r``.  The runs of outer index ``j`` share its
    initial value; a failed trajectory has ``y`` NaN and zero step counts,
    and its scalar walk's error is logged."""
    total = n_initials * runs_per_initial
    x0 = np.repeat(_draw_initials(initial, seed, range(n_initials)), runs_per_initial)

    def walk(group, chains, rngs):
        start = x0[group.start:group.stop]  # a slice: indexing by a range takes it apart
        noise = ForwardNoise(rngs, expected_mesh_sizes(T, p, start, chains.counts))
        return solve_terminals(model, chains, noise, start, T, p, scheme)

    def replay(index, chain, path):
        solve_terminal(model, chain, path, x0[index], T, p, scheme)

    (y, n_steps, n_backstop, failed), _ = _walk_groups(g, r0, T, seed, total, LANE_GROUP,
                                                       walk, replay)
    if failed.all():
        raise AllTrajectoriesFailedError(f"all {total} trajectories failed")
    return x0, y, n_steps, n_backstop, failed


def first_trajectory(model: RegimeModel, g: GeneratorMatrix, initial, r0, T: float,
                     p: StepParams, seed: int, scheme: str = "milstein") -> Trajectory:
    """Trajectory 0 of :func:`run_ensemble` or :func:`mean_change_study` run
    with the same arguments (initial ``(lo, hi)`` for the latter), with every
    step record."""
    path = BrownianPath(substream_rng(seed, 0, NOISE_STREAM))
    return solve_trajectory(model, trajectory_chain(g, r0, T, seed, 0), path,
                            float(_draw_initials(initial, seed, [0])[0]), T, p, scheme)


def _coupled_errors(params: LinearModelParams, model: RegimeModel, x0: float, T: float,
                    step_params, scheme: str, chains, rngs, room: int):
    """Errors, step counts and backstop step counts ``(level, sample)`` of
    the samples whose chains and noise generators are ``chains`` and
    ``rngs``, and a mask of the samples that failed.  Each is, bit for bit,
    what the sample's scalar coupled walk (the exact value, then each level
    from the finest, all on one path) gives.

    Each sample's exact value runs first, on its scalar path.  Every level,
    finest first, then walks all the samples as lanes on one bridge source
    that continues those paths; ``room`` is the new points a path gains over
    the levels, as far as known.  A sample fails where its exact value is not
    finite or a level's lane fails; it walks no further level, and its
    errors are NaN."""
    paths = [BrownianPath(rng) for rng in rngs]
    exact = np.empty(len(chains))
    start = np.full(len(chains), float(x0))
    for j, path in enumerate(paths):
        try:
            exact[j] = exact_linear_solution(params, x0, chains.path(j), path, T)
        except NonfiniteResultError:  # a failed sample: NaN starts no lane
            exact[j] = start[j] = math.nan
    noise = BridgeNoise(paths, room, T)
    errors = np.empty((len(step_params), len(chains)))
    n_steps = np.empty(errors.shape, dtype=np.int64)
    n_backstop = np.empty_like(n_steps)
    for level in range(len(step_params) - 1, -1, -1):  # finest level queries first
        noise.merge()  # the last level's points; before the finest, none
        y, n_steps[level], n_backstop[level], lost = solve_terminals(
            model, chains, noise, start, T, step_params[level], scheme)
        errors[level] = y - exact
        start[lost] = math.nan
    return errors, n_steps, n_backstop, np.isnan(start)


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
    step_params = check_strong_order_args(params, g, x0, T, grid, rho, k, M, r0)
    model = linear_model(params)
    # A level's walk takes at least T / h_max steps, nearly all new points.
    room = sum(math.ceil(T / h) for h in grid)
    group = min(LANE_GROUP, max(1, COUPLED_POINTS // room))

    def walk(samples, chains, rngs):
        return _coupled_errors(params, model, x0, T, step_params, scheme, chains, rngs, room)

    def replay(index, chain, path):
        exact_linear_solution(params, x0, chain, path, T)
        for p in reversed(step_params):
            solve_terminal(model, chain, path, x0, T, p, scheme)

    (errors, n_steps, n_backstop, _), failures = _walk_groups(g, r0, T, seed, M, group,
                                                              walk, replay)
    if failures:  # the lowest failed sample's scalar walk says why
        raise failures[0]
    rms = np.array([_statistic(lambda e: np.sqrt(np.mean(e * e)), level)
                    for level in errors])
    for level, (h, e) in enumerate(zip(grid, rms.tolist())):
        if not 0.0 < e < math.inf:
            raise InvalidParamsError(f"cannot fit an order: level {level} "
                                     f"(h_max={h}) has rms error {e}")
    slope = float(np.polyfit(np.log(grid), np.log(rms), 1)[0])
    return ConvergenceReport(h_max_grid=grid, rms_errors=tuple(float(e) for e in rms),
                             fitted_order=slope, sample_count=M, scheme=scheme,
                             mean_steps=tuple(n_steps.mean(axis=1).tolist()),
                             backstop_fractions=tuple(
                                 (n_backstop.sum(axis=1) / n_steps.sum(axis=1)).tolist()))


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
    finals = y.reshape(n_initials, runs_per_initial)
    kept = ~failed.reshape(finals.shape)
    some = kept.any(axis=1)
    initials = x0[::runs_per_initial][some]
    order = np.argsort(initials, kind="stable")
    initials = initials[order]
    mean_finals = _row_means(finals, kept)[order]
    single_finals = finals[some, kept[some].argmax(axis=1)][order]  # each first kept run
    mean_changes = mean_finals - initials
    grand = _statistic(np.mean, (y - x0)[~failed])
    n_failed = int(failed.sum())
    summary = _summarize(mean_changes, _backstop_fraction(n_steps, n_backstop), n_failed)
    return MeanChangeReport(initials=initials, mean_finals=mean_finals,
                            single_finals=single_finals, mean_changes=mean_changes,
                            grand_mean_change=grand, summary=summary, failed_count=n_failed)
