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
    h = p.h_max / y_norm ** (1.0 / p.k) if y_norm > 1.0 else p.h_max
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

    N_min = floor(t / h_max);  N_max = ceil(t / h_min + n_switches).  N_max is
    a hard iteration cap for the solver, so it must be finite.
    """
    if t < 0.0:
        raise InvalidParamsError(f"t must be nonnegative, got {t}")
    if n_switches < 0:
        raise InvalidParamsError(f"n_switches must be nonnegative, got {n_switches}")
    n_max = t / p.h_min + n_switches
    if not math.isfinite(n_max):
        raise InvalidParamsError(f"N_max = {t} / {p.h_min} + {n_switches} is not finite")
    return math.floor(t / p.h_max), math.ceil(n_max)
