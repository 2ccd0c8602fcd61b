"""One-step maps and the hybrid adaptive solver.

Maps (all with the Markov state frozen at the step's start):

* Euler-Maruyama        X + h f(X,i) + g(X,i) dW
* explicit Milstein     ... + (1/2) g'(X,i) g(X,i) (dW^2 - h)
* drift-implicit Milstein: solves
      X* = X + h f(X*, i) + g(X,i) dW + (1/2) g'(X,i) g(X,i) (dW^2 - h)
  by Newton iteration (numeric drift derivative) with a bisection fallback.

The solver walks the adaptive mesh from :mod:`switchsde.stepping`: each step
goes to the landing time the step rule chose, so switching times and T land
on the mesh bitwise.  The drift-implicit Milstein backstop runs if and only if
the step rule gave h <= h_min (floored, or clamped to within h_min); the
chosen main map runs on every other step.

Two engines walk that mesh.  The scalar walk (:func:`solve_trajectory`,
:func:`solve_terminal`) takes one trajectory at a time and is the reference.
The lane-batched walk (:func:`solve_terminals`) steps many independent
trajectories together, one step of every lane per iteration, with the step
rule and, for a model with a lane form, the explicit maps as array operations
and the Brownian values from a lane noise source (:mod:`switchsde.noise`); it
reproduces the scalar walk of every lane bit for bit.  It reports only *that*
a lane failed: replaying that lane's scalar walk says why.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ctmc import Chains, MarkovPath, segments
from .errors import (
    InvalidParamsError,
    NonfiniteResultError,
    RootNotFoundError,
    StepBudgetExceededError,
    SwitchSDEError,
)
from .models import RegimeModel
from .noise import BrownianPath, _count
from .stepping import StepParams, build_mesh_bound, next_step

NEWTON_ABS_TOL = 1e-12
NEWTON_MAX_ITER = 50
RESIDUAL_REL_TOL = 1e-10  # acceptance bound: |F(X)| <= tol * max(1, |X|)
BRACKET_MAX_DOUBLINGS = 60
# Backstop lanes of one step below which the lane walk runs the scalar map on
# each in place of the lane Newton: on the telomere and linear models one lane
# Newton call, of any size up to about 100 lanes, costs about as much as the
# scalar map on 20 lanes (45-65 us against 2.3-3 us a lane, 2-vCPU Xeon, numpy
# 2.4; BENCH_17.json).
LANE_NEWTON_MIN = 20


@dataclass(frozen=True)
class StepRecord:
    """One accepted solver step; the Markov state is constant across it."""

    t_start: float
    t_end: float
    state: int
    h: float
    dW: float
    used_backstop: bool
    y_end: float


@dataclass(frozen=True)
class Trajectory:
    """Full solver output over [0, T] for one chain and one Brownian path."""

    records: tuple[StepRecord, ...]
    x0: float
    terminal_value: float
    backstop_count: int
    chain: MarkovPath

    @property
    def n_steps(self) -> int:
        return len(self.records)


def _require_positive_step(h: float) -> None:
    if h <= 0.0:
        raise InvalidParamsError(f"step must be positive, got {h}")


def em_map(x: float, i: int, h: float, dW: float, m: RegimeModel) -> float:
    """Euler-Maruyama one-step map."""
    _require_positive_step(h)
    y = x + h * m.drift(x, i) + m.diffusion(x, i) * dW
    if not math.isfinite(y):
        raise NonfiniteResultError(f"em_map produced {y} from x={x}, i={i}, h={h}")
    return y


def milstein_map(x: float, i: int, h: float, dW: float, m: RegimeModel) -> float:
    """Explicit Milstein one-step map."""
    _require_positive_step(h)
    g = m.diffusion(x, i)
    y = (x + h * m.drift(x, i) + g * dW
         + 0.5 * m.diffusion_derivative(x, i) * g * (dW * dW - h))
    if not math.isfinite(y):
        raise NonfiniteResultError(f"milstein_map produced {y} from x={x}, i={i}, h={h}")
    return y


def implicit_milstein_residual(y: float, x: float, i: int, h: float, dW: float,
                               m: RegimeModel) -> float:
    """Defect of y as a solution of the drift-implicit Milstein equation."""
    g = m.diffusion(x, i)
    const = x + g * dW + 0.5 * m.diffusion_derivative(x, i) * g * (dW * dW - h)
    return y - const - h * m.drift(y, i)


def implicit_milstein_map(x: float, i: int, h: float, dW: float, m: RegimeModel) -> float:
    """Drift-implicit Milstein one-step map (the backstop).

    Newton iterates from the explicit Milstein value with residual target
    ``NEWTON_ABS_TOL``; an iterate is also accepted if its residual meets the
    relative bound ``RESIDUAL_REL_TOL * max(1, |X|)``.  Iterates that fall
    into a 2-cycle (at large values, two floats some ulps apart whose
    residuals stay far above the target) would alternate to the last round,
    so the iteration ends at once on the iterate that round
    ``NEWTON_MAX_ITER`` would reach.  If Newton stalls, a bisection fallback
    searches a bracket expanded from x by doubling.
    """
    _require_positive_step(h)
    f = m.drift
    g = m.diffusion(x, i)
    const = x + g * dW + 0.5 * m.diffusion_derivative(x, i) * g * (dW * dW - h)

    def residual(y: float) -> float:
        return y - const - h * f(y, i)

    def accept(y: float, r: float) -> bool:
        return math.isfinite(y) and abs(r) <= RESIDUAL_REL_TOL * max(1.0, abs(y))

    y = const + h * f(x, i)  # explicit Milstein value
    if math.isfinite(y):
        y_prev = math.nan
        for round_ in range(NEWTON_MAX_ITER):
            r = residual(y)
            if not math.isfinite(r):
                break
            if abs(r) <= NEWTON_ABS_TOL:
                return y
            delta = 1e-7 * max(1.0, abs(y))
            slope = 1.0 - h * (f(y + delta, i) - f(y - delta, i)) / (2.0 * delta)
            if slope == 0.0 or not math.isfinite(slope):
                break
            y_next = y - r / slope
            if not math.isfinite(y_next) or y_next == y:
                break
            if y_next == y_prev:  # a 2-cycle: the last round would end on y or y_next
                if (NEWTON_MAX_ITER - round_) % 2:
                    y = y_next
                break
            y_prev, y = y, y_next
        r = residual(y)
        if math.isfinite(r) and accept(y, r):
            return y

    # Bisection fallback on a bracket expanded around x.
    width = max(1.0, abs(x))
    for _ in range(BRACKET_MAX_DOUBLINGS + 1):
        lo, hi = x - width, x + width
        r_lo, r_hi = residual(lo), residual(hi)
        if math.isfinite(r_lo) and math.isfinite(r_hi):
            if r_lo == 0.0:
                return lo
            if r_hi == 0.0:
                return hi
            if (r_lo < 0.0) != (r_hi < 0.0):
                for _ in range(200):
                    mid = 0.5 * (lo + hi)
                    if mid == lo or mid == hi:
                        break
                    r_mid = residual(mid)
                    if not math.isfinite(r_mid):
                        break
                    if abs(r_mid) <= NEWTON_ABS_TOL:
                        return mid
                    if (r_mid < 0.0) == (r_lo < 0.0):
                        lo, r_lo = mid, r_mid
                    else:
                        hi, r_hi = mid, r_mid
                mid = 0.5 * (lo + hi)
                r_mid = residual(mid)
                if accept(mid, r_mid):
                    return mid
                raise RootNotFoundError(
                    f"bisection stalled at residual {r_mid} for x={x}, h={h}")
        width *= 2.0
        if not math.isfinite(width):
            break
    raise RootNotFoundError(f"no sign change within bracket budget for x={x}, h={h}")


_MAIN_MAPS = {"em": em_map, "milstein": milstein_map}


# The main maps' values over arrays of lanes, from the coefficients at (x, i)
# that a model's lane form gives; a model without one steps through the scalar
# maps above.  Each repeats its scalar map's operations in the same order, so
# every lane is bitwise equal to the scalar map (the scalar maps keep their own
# expressions: a shared helper would cost the scalar walk a call per step).
# The walk's per-step constants are 0-d arrays, not Python floats: a ufunc
# converts a float operand on every call, which on 40 lanes costs about as
# much as the arithmetic, and the bits are the same.
_HALF = np.array(0.5)


def _em_values(x, h, dW, f, g, dg):
    return x + h * f + g * dW


def _milstein_values(x, h, dW, f, g, dg):
    return x + h * f + g * dW + _HALF * dg * g * (dW * dW - h)


# Main map -> (its lane form, whether it reads g').
_LANE_MAPS = {"em": (_em_values, False), "milstein": (_milstein_values, True)}


def _newton_values(m: RegimeModel, x, rows, h, dW):
    """The Newton iteration of :func:`implicit_milstein_map` on many lanes at
    once, in the map's order of operations, from the lanes' coefficient rows
    (:meth:`RegimeModel.rows`).  Returns each lane's last iterate and a mask
    of the lanes whose iterate the map returns; the map takes every other
    lane on to its bisection.  Each round takes the drift at y and at
    y +- delta from one drift-only lane-form call.  A lane in a 2-cycle
    leaves the iteration as the map's does, at most a round later."""
    f, g, dg = m.lanes(x, rows, True)
    const = x + g * dW + 0.5 * dg * g * (dW * dW - h)
    y = const + h * f  # explicit Milstein value
    solved = np.zeros(x.size, dtype=bool)
    live = np.flatnonzero(np.isfinite(y) & (h > 0.0))

    def accept(lanes, r):  # NaN and inf residuals compare false
        bound = RESIDUAL_REL_TOL * np.maximum(1.0, np.abs(y[lanes]))
        solved[lanes[np.abs(r) <= bound]] = True

    cycled = []  # lanes in a 2-cycle, which end on the last round's iterate
    # The live lanes' iterates, operands and rows (tripled, for the drift at y
    # and y +- delta), gathered again only when lanes leave.
    y_l = y[live]
    h_l, c_l, rows_l = ((h, const, rows) if live.size == x.size
                        else (h[live], const[live], rows[..., live]))
    rows3 = np.concatenate((rows_l, rows_l, rows_l), axis=-1)
    for round_ in range(NEWTON_MAX_ITER):
        if not live.size:
            break
        n = live.size
        delta = 1e-7 * np.maximum(1.0, np.abs(y_l))
        f3 = m.lanes(np.concatenate((y_l, y_l + delta, y_l - delta)), rows3, None)[0]
        r = y_l - c_l - h_l * f3[:n]
        done = np.abs(r) <= NEWTON_ABS_TOL
        slope = 1.0 - h_l * (f3[n:2 * n] - f3[2 * n:]) / (2.0 * delta)
        y_next = y_l - r / slope
        # y_l is finite, so a residual that is not finite, or a slope that is
        # zero or not finite, leaves y_next not finite or equal to y_l: the
        # scalar map's four stops are these two.
        move = np.isfinite(y_next) & (y_next != y_l) & ~done
        solved[live[done]] = True
        stop = ~(done | move)
        if _count(stop):
            accept(live[stop], r[stop])
        keep = None if _count(move) == n else move
        if keep is not None:
            live, y_next, y_l = live[keep], y_next[keep], y_l[keep]
        y[live] = y_next
        # From the second round on (a call that settles in two rounds pays
        # nothing), a lane whose next iterate equals its iterate two rounds
        # back is in a 2-cycle: the last round would end on y_l or y_next.
        if round_ and live.size:
            if round_ == 1:
                y_prev = np.full(x.size, np.nan)  # each lane's y_l of the round before
            cycle = y_next == y_prev[live]
            y_prev[live] = y_l
            if _count(cycle):
                if not (NEWTON_MAX_ITER - round_) % 2:
                    y[live[cycle]] = y_l[cycle]
                cycled.append(live[cycle])
                stay = ~cycle
                live, y_next = live[stay], y_next[stay]
                keep = stay if keep is None else np.flatnonzero(keep)[stay]
        if keep is not None:  # lanes left: gather the others' operands again
            h_l, c_l, rows_l = h_l[keep], c_l[keep], rows_l[..., keep]
            rows3 = np.concatenate((rows_l, rows_l, rows_l), axis=-1)
        y_l = y_next
    if cycled:
        live = np.concatenate(cycled + [live])
    if live.size:  # the last iterate's residual, as after the last round
        f = m.lanes(y[live], rows[..., live], None)[0]
        accept(live, y[live] - const[live] - h[live] * f)
    return y, solved


def _check_walk(main: str, T: float) -> None:
    if main not in _MAIN_MAPS:
        raise InvalidParamsError(f"unknown main map {main!r}; use 'em' or 'milstein'")
    if T <= 0.0:
        raise InvalidParamsError(f"T must be positive, got {T}")


def _walk(m: RegimeModel, chain: MarkovPath, w: BrownianPath, x0: float, T: float,
          p: StepParams, main: str, collect: bool):
    """Core mesh walk shared by the full and terminal-only entry points."""
    _check_walk(main, T)
    main_map = _MAIN_MAPS[main]
    n_max = build_mesh_bound(T, p, chain.num_switches)[1]

    records: list[StepRecord] | None = [] if collect else None
    t = 0.0
    y = float(x0)
    n_steps = 0
    backstops = 0
    for _, end, state in segments(chain, 0.0, T):
        while t < end:
            decision = next_step(abs(y), t, end, T, p)
            t_next = decision.t_next
            h = t_next - t
            dW = w.increment(t, t_next)
            if decision.use_backstop:
                y_next = implicit_milstein_map(y, state, h, dW, m)
                backstops += 1
            else:
                y_next = main_map(y, state, h, dW, m)
            n_steps += 1
            if n_steps > n_max:
                raise StepBudgetExceededError(
                    f"exceeded N_max={n_max} steps before reaching T={T}")
            if records is not None:
                records.append(StepRecord(t_start=t, t_end=t_next, state=state, h=h,
                                          dW=dW, used_backstop=decision.use_backstop,
                                          y_end=y_next))
            t = t_next
            y = y_next
    return y, n_steps, backstops, records


def solve_trajectory(m: RegimeModel, chain: MarkovPath, w: BrownianPath, x0: float,
                     T: float, p: StepParams, main: str = "milstein") -> Trajectory:
    """Integrate one trajectory over [0, T], keeping every step record.

    ``main`` selects the map used on regular steps ('milstein' or 'em'); the
    backstop is always the drift-implicit Milstein map.
    """
    y, _, backstops, records = _walk(m, chain, w, x0, T, p, main, collect=True)
    return Trajectory(records=tuple(records), x0=float(x0), terminal_value=y,
                      backstop_count=backstops, chain=chain)


def solve_terminal(m: RegimeModel, chain: MarkovPath, w: BrownianPath, x0: float,
                   T: float, p: StepParams, main: str = "milstein") -> tuple[float, int, int]:
    """Terminal value only: returns (Y(T), step count, backstop count).

    Identical mesh and arithmetic to :func:`solve_trajectory`, without
    materialising step records.
    """
    y, n_steps, backstops, _ = _walk(m, chain, w, x0, T, p, main, collect=False)
    return y, n_steps, backstops


def solve_terminals(m: RegimeModel, chains: Chains, noise, x0, T: float, p: StepParams,
                    main: str = "milstein"):
    """Terminal values of many trajectories, stepped together.

    ``chains`` is a lane group's chains on [0, T] (:class:`switchsde.ctmc.Chains`,
    as :func:`switchsde.ctmc.simulate_chains` samples them).  Lane ``j`` is
    the trajectory that :func:`solve_terminal` computes from
    ``chains.path(j)``, the Brownian path that the lane source ``noise`` holds
    for lane j (see :mod:`switchsde.noise`) and ``x0[j]``, bit for bit: the same
    mesh, the same Brownian values, the same arithmetic and, for a model
    without a lane form, the same model calls.  The walk asks
    ``noise.advance(lane, t, w, t_next, dt)`` for W(t_next) of the unfinished
    lanes ``lane`` (original indices, increasing) at every step, with ``dt``
    the step's ``t_next - t``.
    Every iteration takes one step of each unfinished lane, inside the piece
    of ``chains.ends`` and ``chains.states`` where it stands; ``T`` must be
    ``chains.horizon``.  A lane's step cap comes from its switch count, a
    switch at exactly T included, as ``chain.num_switches`` counts it for the
    scalar walk.
    The step rule runs as array operations over every walking lane.  So
    does the main map, its coefficients from one call of the model's lane
    form (:attr:`RegimeModel.lanes`); the backstop lanes' values then replace
    the main map's.  A model without a lane form steps each lane through its
    scalar map instead, the main map or :func:`implicit_milstein_map` as the
    step rule chose, one lane at a time.  Each lane keeps the
    coefficient row of its piece: when lanes reach their pieces' ends, every
    staying lane's piece position advances by whether it arrived, and the
    rows are gathered again for all of them.  The states of every piece that
    starts before T are checked once (:meth:`RegimeModel.row_reader`), so a
    state outside the model raises the scalar callables'
    :class:`StateIndexError` before the first step, even where a lane would
    fail before it reaches that state.  The arithmetic takes its constants as
    0-d arrays and builds the masks of the rarer cases (a lane done, lanes
    leaving) only when a count says they occur.  The backstop steps
    of an iteration, when there are at least ``LANE_NEWTON_MIN`` of them, run
    the Newton iteration of :func:`implicit_milstein_map` together, through
    the model's lane form; a lane that Newton does not settle, and the
    backstop lanes of an iteration with fewer of them, run
    :func:`implicit_milstein_map` alone, which redoes the Newton iteration
    and goes on to the bisection.

    Returns per-lane arrays ``(y, n_steps, n_backstop, failed)``, where
    ``failed`` is ``np.isnan(y)``: a lane leaves with a finite value only when
    it is done.  A lane fails where its scalar walk raises: its start is NaN,
    a value is not finite (a backstop without a root leaves NaN), or it passes
    its step cap.  It has zero counts; its scalar walk says which error ended
    it.  An exception from the lane form, or one that is not a
    :class:`SwitchSDEError` from a scalar map, ends the whole walk.
    """
    _check_walk(main, T)
    if T != chains.horizon:
        raise InvalidParamsError(f"T={T} is not the chains' horizon {chains.horizon}")
    lane_form, main_map, (value, derivative) = m.lanes, _MAIN_MAPS[main], _LANE_MAPS[main]
    n = len(chains)
    limit = build_mesh_bound(T, p, 0)[1] + chains.counts.astype(float)
    lowest = limit.min(initial=math.inf)
    y_out = np.full(n, np.nan)
    steps_out = np.zeros(n, dtype=np.int64)
    backstops_out = np.zeros(n, dtype=np.int64)
    # The step rule's constants as 0-d arrays, as _HALF is.
    one, h_max, h_min, inv_k, end = (np.array(v) for v in (1.0, p.h_max, p.h_min, 1.0 / p.k, T))

    # The chains' pieces, flattened: a lane steps inside the piece at its flat
    # position at, from the first of its row.  A piece that starts at T, after
    # a switch at exactly T, is never entered, so its state is not checked.
    ends, states = chains.ends.ravel(), chains.states.ravel()
    entered = chains.states.copy()
    entered[:, 1:][chains.ends[:, :-1] >= T] = 1
    rows_of = m.row_reader(entered)

    y = np.array(x0, dtype=float)
    # Each unfinished lane's original index; the scalar step rule refuses a NaN norm.
    lane = np.flatnonzero(~np.isnan(y))
    y, at = y[lane], lane * chains.ends.shape[1]
    t, w = np.zeros(lane.size), np.zeros(lane.size)
    bound, rows = ends.take(at), rows_of(states.take(at))
    backstops = np.zeros(lane.size, dtype=np.int64)
    n_steps = 0
    with np.errstate(all="ignore"):  # a lane that overflows fails its finiteness check
        while lane.size:
            n_steps += 1
            # The step rule of next_step: the norm candidate (float_power calls
            # the libm pow that ** calls, where numpy's power can differ in the
            # last ulp; a norm up to 1 gives pow(1, 1/k) = 1 exactly, and a
            # power past the float range gives h 0), the floor, one clamp.
            h = h_max / np.float_power(np.maximum(np.abs(y), one), inv_k)
            np.maximum(h, h_min, out=h)
            gap = bound - t
            clamp = gap <= h
            t_next = t + h
            if _count(clamp):
                np.copyto(h, gap, where=clamp)
                np.copyto(t_next, bound, where=clamp)
            backstop = h <= h_min
            dt = t_next - t  # the realised spacing drives the map
            w_next = noise.advance(lane, t, w, t_next, dt)
            dw = w_next - w

            some_backstop = _count(backstop)
            if lane_form is None:  # every lane takes its scalar map
                y_next, scalar = np.empty_like(y), range(y.size)
            else:  # every lane; the backstop lanes' values are replaced below
                y_next = value(y, dt, dw, *lane_form(y, rows, derivative))
                scalar = ()
                if some_backstop:
                    scalar = np.flatnonzero(backstop)
                    if some_backstop >= LANE_NEWTON_MIN:
                        y_next[scalar], solved = _newton_values(
                            m, y[scalar], rows[..., scalar], dt[scalar], dw[scalar])
                        scalar = scalar[~solved]
                    scalar = scalar.tolist()
            for j in scalar:
                try:
                    y_next[j] = (implicit_milstein_map if backstop[j] else main_map)(
                        float(y[j]), int(states[at[j]]), float(dt[j]), float(dw[j]), m)
                except SwitchSDEError:  # the lane fails; its scalar replay says why
                    y_next[j] = np.nan
            if some_backstop:
                backstops += backstop

            t, y, w = t_next, y_next, w_next
            stay = np.isfinite(y)  # a lane whose value is not finite fails,
            if n_steps > lowest:
                stay &= limit[lane] >= n_steps  # as does one past its step cap
            leaving = _count(stay) < stay.size
            arrived = t >= bound
            entering = _count(arrived)
            if entering:
                done = t >= end
                if leaving:
                    done &= stay
                if _count(done):
                    y_out[lane[done]] = y[done]
                    steps_out[lane[done]] = n_steps
                    backstops_out[lane[done]] = backstops[done]
                    stay[done] = False
                    leaving = True
            if leaving:
                lane, t, y, w, at, bound, rows, backstops, arrived = (
                    a[..., stay] for a in (lane, t, y, w, at, bound, rows, backstops, arrived))
            if entering:  # a lane that stays after reaching its piece's end enters the next
                at += arrived
                bound = ends.take(at)
                rows = rows_of(states.take(at))
    return y_out, steps_out, backstops_out, np.isnan(y_out)
