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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .ctmc import MarkovPath, segments
from .errors import (
    InvalidParamsError,
    NonfiniteResultError,
    RootNotFoundError,
    StepBudgetExceededError,
)
from .models import RegimeModel
from .noise import BrownianPath
from .stepping import StepParams, build_mesh_bound, next_step

NEWTON_ABS_TOL = 1e-12
NEWTON_MAX_ITER = 50
RESIDUAL_REL_TOL = 1e-10  # acceptance bound: |F(X)| <= tol * max(1, |X|)
BRACKET_MAX_DOUBLINGS = 60


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
    relative bound ``RESIDUAL_REL_TOL * max(1, |X|)``.  If Newton stalls, a
    bisection fallback searches a bracket expanded from x by doubling.
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
        for _ in range(NEWTON_MAX_ITER):
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
            y = y_next
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


def _walk(m: RegimeModel, chain: MarkovPath, w: BrownianPath, x0: float, T: float,
          p: StepParams, main: str, collect: bool):
    """Core mesh walk shared by the full and terminal-only entry points."""
    if main not in _MAIN_MAPS:
        raise InvalidParamsError(f"unknown main map {main!r}; use 'em' or 'milstein'")
    if T <= 0.0:
        raise InvalidParamsError(f"T must be positive, got {T}")
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
    materialising step records; meant for large ensembles.
    """
    y, n_steps, backstops, _ = _walk(m, chain, w, x0, T, p, main, collect=False)
    return y, n_steps, backstops
