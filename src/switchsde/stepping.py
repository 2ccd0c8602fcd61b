"""Adaptive timestep selection with one clamp to the next mesh bound.

The candidate step shrinks with the current solution norm,

    candidate = h_min  v  ( h_max / ||Y||^(1/k)  ^  h_max ),

so every norm up to 1 gives h_max.  The step has one bound b: the next
switching time of the Markov chain if it lies before the terminal time T,
else T.  Choosing b compares times, which is exact.  A step that reaches b
is clamped to it and lands exactly (bitwise) on b; any other step lands on the
rounded sum t_n + h, which cannot pass b, because in round-to-nearest
fl(b - t_n) > h implies fl(t_n + h) <= b.

The backstop map runs if and only if the rule gave h <= h_min: the step was
floored at h_min, or the clamp shortened it to within h_min.  Every other step
started from a norm-controlled candidate above h_min, which with
h_max = rho * h_min implies ||Y|| < rho^k: explicit maps only run there.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParamsError, NonpositiveRemainingTimeError


class StepReason(enum.Enum):
    """Which clause of the step rule fixed the step length."""

    NORM_CONTROLLED = "norm_controlled"
    FLOORED_AT_HMIN = "floored_at_hmin"
    CLAMPED_TO_SWITCH = "clamped_to_switch"
    CLAMPED_TO_TERMINAL = "clamped_to_terminal"


@dataclass(frozen=True)
class StepParams:
    """Mesh parameters: maximum step h_max, ratio rho > 1, norm exponent k > 0.

    The minimum step is derived as h_min = h_max / rho.
    """

    h_max: float
    rho: float
    k: float

    def __post_init__(self):
        if not (0.0 < self.h_max <= 1.0):
            raise InvalidParamsError(f"require 0 < h_max <= 1, got {self.h_max}")
        if not (self.rho > 1.0 and self.h_min > 0.0):  # refuses an infinite rho
            raise InvalidParamsError(f"require rho > 1 and h_max / rho > 0, got {self.rho}")
        if not self.k > 0.0:
            raise InvalidParamsError(f"require k > 0, got {self.k}")

    @property
    def h_min(self) -> float:
        return self.h_max / self.rho


@dataclass(frozen=True)
class StepDecision:
    """Step length, backstop flag, the clause that fixed the step, and the
    mesh point the step lands on."""

    h: float
    use_backstop: bool
    reason: StepReason
    t_next: float


def next_step(y_norm: float, t_n: float, next_switch: float | None, T: float,
              p: StepParams) -> StepDecision:
    """Choose the step from t_n given the current solution norm.

    ``next_switch`` is the first switching time strictly after t_n, or None
    if the chain does not switch again before T; a switch at or after T is
    not a bound.  Norms up to 1 (zero included) give candidate h_max.
    """
    if not t_n < T:
        raise NonpositiveRemainingTimeError(f"t_n={t_n} is at or beyond T={T}")
    if y_norm < 0.0 or math.isnan(y_norm):
        raise InvalidParamsError(f"y_norm must be nonnegative, got {y_norm}")
    if next_switch is not None and next_switch <= t_n:
        raise InvalidParamsError(
            f"next_switch={next_switch} must lie strictly after t_n={t_n}")

    h_min = p.h_min
    try:
        h = p.h_max / y_norm ** (1.0 / p.k) if y_norm > 1.0 else p.h_max
    except OverflowError:  # a power beyond the float range: candidate 0
        h = 0.0
    if h < h_min:
        h, reason = h_min, StepReason.FLOORED_AT_HMIN
    else:
        reason = StepReason.NORM_CONTROLLED
    t_next = t_n + h
    bound = next_switch if next_switch is not None and next_switch < T else T
    if bound - t_n <= h:
        reason = (StepReason.CLAMPED_TO_TERMINAL if bound == T
                  else StepReason.CLAMPED_TO_SWITCH)
        h, t_next = bound - t_n, bound
    return StepDecision(h=h, use_backstop=h <= h_min, reason=reason, t_next=t_next)


def build_mesh_bound(t: float, p: StepParams, n_switches: int) -> tuple[int, int]:
    """(N_min, N_max) mesh-size bounds for horizon t with n_switches switches.

    N_min = floor(t / h_max);  N_max = ceil(t / (h_min - ulp(t)/2)) + n_switches,
    computed exactly, is a hard iteration cap for the solver.  In
    round-to-nearest an unclamped step (h >= h_min, landing at most on t)
    advances at least h_min - ulp(t)/2, and a clamped step ends one of the
    n_switches + 1 constant-state pieces.  If every piece ends in a clamp, the
    clamps advance a positive time and fewer than t / (h_min - ulp(t)/2) steps
    are unclamped; otherwise at most n_switches steps are clamped.  Refused: a
    cap that is not finite, and h_min <= ulp(t)/2 (t_n + h_min can be t_n).
    """
    if t < 0.0:
        raise InvalidParamsError(f"t must be nonnegative, got {t}")
    if n_switches < 0:
        raise InvalidParamsError(f"n_switches must be nonnegative, got {n_switches}")
    if not math.isfinite(t / p.h_min + n_switches):
        raise InvalidParamsError(f"N_max = {t} / {p.h_min} + {n_switches} is not finite")
    (a, b), (c, d), (e, f) = (x.as_integer_ratio() for x in (t, p.h_min, math.ulp(t)))
    slowest = 2 * c * f - e * d  # (h_min - ulp(t)/2) * 2df, in exact integers
    if slowest <= 0:
        raise InvalidParamsError(f"h_min = {p.h_min} is at most half an ulp of t = {t}")
    return math.floor(t / p.h_max), -(-2 * a * d * f // (b * slowest)) + n_switches


def expected_mesh_sizes(t: float, p: StepParams, y0, n_switches) -> np.ndarray:
    """Each lane's expected mesh size over horizon t, as an integer array:
    ceil(t / h) + n_switches, with h the step rule's candidate at the lane's
    start y0, floored at h_min, as if its norm stayed there (a NaN start
    counts as norm 1).  An estimate that sizes work, not a bound: a norm that
    grows takes more steps.  Its power is ``np.power``, which need not match
    the step rule's ``pow`` to the last ulp.  ``y0`` and ``n_switches``
    broadcast."""
    with np.errstate(over="ignore"):  # a power past the float range: h_min
        steps = np.power(np.fmax(np.abs(y0), 1.0), 1.0 / p.k) * (t / p.h_max)
    return np.ceil(np.fmin(steps, t / p.h_min)).astype(np.intp) + n_switches
