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
# Newton call of 1 to 128 lanes that settle in two rounds, from the main map's
# coefficients, costs about as much as the scalar map on 9 to 13 lanes, 11 in
# the median (2-vCPU Xeon, numpy 2.4; BENCH_29.json, which moved it from
# BENCH_28's 13).
LANE_NEWTON_MIN = 11


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
# that a model's lane form gives, g' already halved; a model without one steps
# through the scalar maps above.  Each repeats its scalar map's operations in
# the same order, the product 0.5 * g' taken, so every lane is bitwise equal to
# the scalar map (the scalar maps keep their own expressions: a shared helper
# would cost the scalar walk a call per step).
# The walk's per-step constants are 0-d arrays, not Python floats: a ufunc
# converts a float operand on every call, which on 40 lanes costs about as
# much as the arithmetic, and the bits are the same.
_ZERO, _ONE, _TWO = (np.array(v) for v in (0.0, 1.0, 2.0))
_NEWTON_ABS_TOL, _RESIDUAL_REL_TOL, _DELTA = (
    np.array(v) for v in (NEWTON_ABS_TOL, RESIDUAL_REL_TOL, 1e-7))


def _em_values(x, h, dW, f, g, half_dg):
    return x + h * f + g * dW


def _milstein_values(x, h, dW, f, g, half_dg):
    return x + h * f + g * dW + half_dg * g * (dW * dW - h)


# Main map -> (its lane form, whether it reads g'/2).
_LANE_MAPS = {"em": (_em_values, False), "milstein": (_milstein_values, True)}


def _newton_values(m: RegimeModel, x, rows, h, dW, coef=None):
    """The Newton iteration of :func:`implicit_milstein_map` on many lanes at
    once, in the map's order of operations, from the lanes' coefficient rows
    (:meth:`RegimeModel.rows`) and, if given, their coefficients ``coef``,
    the lane form's ``(f, g, g'/2)`` at ``x`` (else they come from one call of
    it).  Returns each lane's last iterate and a mask of the lanes whose
    iterate the map returns; the map takes every other lane on to its
    bisection.  Nearly every lane settles on its residual in the second
    round, so the first two rounds are straight-line code over the live
    lanes: the drift at y and y +- delta from one drift-only lane-form call,
    then the drift at the next iterate alone.  Only the lanes that the second
    residual leaves unsettled take the drift at y +- delta and go on to the
    later rounds, each one call on y and y +- delta.  A lane in a 2-cycle
    leaves the iteration as the map's does, at most a round later."""
    f, g, half_dg = m.lanes(x, rows, True) if coef is None else coef
    const = x + g * dW + half_dg * g * (dW * dW - h)
    y = const + h * f  # explicit Milstein value
    solved = np.zeros(x.size, dtype=bool)
    live = (np.isfinite(y) & (h > _ZERO)).nonzero()[0]
    n = live.size

    def accept(lanes, r):  # NaN and inf residuals compare false
        bound = _RESIDUAL_REL_TOL * np.maximum(_ONE, np.abs(y[lanes]))
        solved[lanes[np.abs(r) <= bound]] = True

    # The first round.  The live lanes' operands, gathered only if some lane
    # is not live; each later gather keeps the lanes that go on.
    if not n:
        return y, solved
    if n == x.size:
        y_l, h_l, c_l, rows_l = y, h, const, rows
    else:
        y_l, h_l, c_l, rows_l = y[live], h[live], const[live], rows.take(live, axis=-1)
    delta = _DELTA * np.maximum(_ONE, np.abs(y_l))
    f3 = m.lanes(np.concatenate((y_l, y_l + delta, y_l - delta)),
                 np.concatenate((rows_l, rows_l, rows_l), axis=-1), None)[0]
    r = y_l - c_l - h_l * f3[:n]
    slope = _ONE - h_l * (f3[n:2 * n] - f3[2 * n:]) / (_TWO * delta)
    y_next = y_l - r / slope
    done = np.abs(r) <= _NEWTON_ABS_TOL
    # y_l is finite, so a residual that is not finite, or a slope that is
    # zero or not finite, leaves y_next not finite or equal to y_l: the
    # scalar map's four stops are these two.
    move = np.isfinite(y_next) & (y_next != y_l)
    if _count(done):
        move &= ~done
    if _count(move) < n:
        solved[live[done]] = True
        stop = ~(done | move)
        if _count(stop):
            accept(live[stop], r[stop])
        live, y_next, h_l, c_l = live[move], y_next[move], h_l[move], c_l[move]
        rows_l, n = rows_l.compress(move, axis=-1), live.size
        if not n:
            return y, solved

    # The second round: the drift at the next iterate alone settles nearly every lane.
    y_l = y_next
    r = y_l - c_l - h_l * m.lanes(y_l, rows_l, None)[0]
    done = np.abs(r) <= _NEWTON_ABS_TOL
    settled = _count(done)
    if settled == x.size:  # every lane, on the first two rounds' iterates
        return y_l, ~solved
    y[live] = y_l
    if settled == n:
        solved[live] = True
        return y, solved
    solved[live[done]] = True
    rest = ~done
    live, y_l, r, h_l, c_l = live[rest], y_l[rest], r[rest], h_l[rest], c_l[rest]
    n = live.size
    delta = _DELTA * np.maximum(_ONE, np.abs(y_l))
    sides = m.lanes(np.concatenate((y_l + delta, y_l - delta)),
                    rows.take(np.concatenate((live, live)), axis=-1), None)[0]
    done = np.zeros(n, dtype=bool)  # the second round's other lanes are not settled
    y_prev = np.full(x.size, np.nan)  # each lane's y_l of the round before

    cycled = []  # lanes in a 2-cycle, which end on the last round's iterate
    rows3 = None  # the live lanes' rows tripled, gathered when a round needs them
    for round_ in range(1, NEWTON_MAX_ITER):
        if round_ > 1:
            if not live.size:
                break
            if gather:
                h_l, c_l, rows3 = h[live], const[live], None
            n = live.size
            if rows3 is None:
                rows3 = rows.take(np.concatenate((live, live, live)), axis=-1)
            delta = _DELTA * np.maximum(_ONE, np.abs(y_l))
            f3 = m.lanes(np.concatenate((y_l, y_l + delta, y_l - delta)), rows3, None)[0]
            r = y_l - c_l - h_l * f3[:n]
            done = np.abs(r) <= _NEWTON_ABS_TOL
            sides = f3[n:]
        slope = _ONE - h_l * (sides[:n] - sides[n:]) / (_TWO * delta)
        y_next = y_l - r / slope
        move = np.isfinite(y_next) & (y_next != y_l) & ~done
        solved[live[done]] = True
        stop = ~(done | move)
        if _count(stop):
            accept(live[stop], r[stop])
        gather = _count(move) < n
        if gather:
            live, y_next, y_l = live[move], y_next[move], y_l[move]
            if not live.size:
                break
        y[live] = y_next
        # From the second round on, a lane whose next iterate equals its
        # iterate two rounds back is in a 2-cycle: the last round would end
        # on y_l or y_next.
        cycle = y_next == y_prev[live]
        y_prev[live] = y_l
        if _count(cycle):
            if not (NEWTON_MAX_ITER - round_) % 2:
                y[live[cycle]] = y_l[cycle]
            cycled.append(live[cycle])
            stay = ~cycle
            live, y_next = live[stay], y_next[stay]
            gather = True
        y_l = y_next
    if cycled:
        live = np.concatenate(cycled + [live])
    if live.size:  # the last iterate's residual, as after the last round
        f = m.lanes(y[live], rows.take(live, axis=-1), None)[0]
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
    0-d arrays and builds the masks of the rarer cases only when a count says
    they occur.  The step rule's one test ``h > h_min`` over every lane finds
    both the floored lanes and those that failed on the step before (their
    ``h`` is NaN or 0), so the floor, the backstop mask and the finiteness
    check run only in an iteration where some lane is floored, failed,
    clamped, arriving or past the lowest step cap.  The backstop steps
    of an iteration, when there are at least ``LANE_NEWTON_MIN`` of them, run
    the Newton iteration of :func:`implicit_milstein_map` together, through
    the model's lane form, from the main map's ``(f, g, g')`` where the main
    map reads g' (Milstein); a lane that Newton does not settle, and the
    backstop lanes of an iteration with fewer of them, run
    :func:`implicit_milstein_map` alone, which redoes the Newton iteration
    and goes on to the bisection.

    Returns per-lane arrays ``(y, n_steps, n_backstop, failed)``, where
    ``failed`` is ``np.isnan(y)``: a lane leaves with a finite value only when
    it is done.  A lane fails where its scalar walk raises: its start is NaN,
    a value is not finite (a backstop without a root leaves NaN), or it passes
    its step cap.  It leaves before its next draw, as its scalar walk stops:
    at the iteration's end if it arrives or passes its cap, else at the next
    step rule; an infinite start takes its first step, floored, as its scalar
    walk does.  It has zero counts; its scalar walk says which error ended
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
    # The step rule's constants as 0-d arrays, as _ONE is.
    h_max, h_min, inv_k, end = (np.array(v) for v in (p.h_max, p.h_min, 1.0 / p.k, T))

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
            h = h_max / np.float_power(np.maximum(np.abs(y), _ONE), inv_k)
            above = h > h_min
            # rare: a lane is floored or clamped, so a step may be a backstop
            # step; or a lane's last step left it not finite (h NaN or 0).
            rare = _count(above) < above.size
            if rare:
                if n_steps > 1:  # an infinite start takes its first step, as its scalar walk
                    stay = np.isfinite(y)  # the lanes that failed leave before their next draw
                    if _count(stay) < stay.size:
                        lane, t, y, w, at, bound, backstops, h = (
                            a[stay] for a in (lane, t, y, w, at, bound, backstops, h))
                        rows = rows.compress(stay, axis=-1)
                        if not lane.size:
                            break
                np.maximum(h, h_min, out=h)
            gap = bound - t
            clamp = gap <= h
            t_next = t + h
            if _count(clamp):
                np.copyto(h, gap, where=clamp)
                np.copyto(t_next, bound, where=clamp)
                rare = True
            some_backstop = 0  # a step above h_min and unclamped is explicit
            if rare:
                backstop = h <= h_min
                some_backstop = _count(backstop)
            dt = t_next - t  # the realised spacing drives the map
            w_next = noise.advance(lane, t, w, t_next, dt)
            dw = w_next - w

            if lane_form is None:  # every lane takes its scalar map
                y_next, scalar = np.empty_like(y), range(y.size)
            else:  # every lane; the backstop lanes' values are replaced below
                coef = lane_form(y, rows, derivative)
                y_next = value(y, dt, dw, *coef)
                scalar = ()
                if some_backstop:
                    scalar = np.flatnonzero(backstop)
                    if some_backstop >= LANE_NEWTON_MIN:  # with the main map's (f, g, g'/2)
                        y_next[scalar], solved = _newton_values(
                            m, y[scalar], rows.take(scalar, axis=-1), dt[scalar], dw[scalar],
                            [c[scalar] for c in coef] if derivative else None)
                        scalar = scalar[~solved]
                    scalar = scalar.tolist()
            for j in scalar:
                try:
                    y_next[j] = (implicit_milstein_map if some_backstop and backstop[j]
                                 else main_map)(
                        float(y[j]), int(states[at[j]]), float(dt[j]), float(dw[j]), m)
                except SwitchSDEError:  # the lane fails; its scalar replay says why
                    y_next[j] = np.nan
            if some_backstop:
                backstops += backstop

            t, y, w = t_next, y_next, w_next
            arrived = t >= bound
            entering = _count(arrived)
            # A lane whose value is not finite fails: here if it arrived or
            # passed lowest, else at the next iteration's floor test.
            if entering or n_steps > lowest:
                stay = np.isfinite(y)
                if n_steps > lowest:
                    stay &= limit[lane] >= n_steps  # a lane past its step cap fails
                leaving = _count(stay) < stay.size
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
                    lane, t, y, w, at, bound, backstops, arrived = (
                        a[stay] for a in (lane, t, y, w, at, bound, backstops, arrived))
                    rows = rows.compress(stay, axis=-1)
                if entering:  # a lane that stays after reaching its piece's end enters the next
                    at += arrived
                    bound = ends.take(at)
                    rows = rows_of(states.take(at))
    return y_out, steps_out, backstops_out, np.isnan(y_out)
