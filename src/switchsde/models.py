"""Scalar regime-switching SDE models.

A model supplies per-state drift f(x, i), diffusion g(x, i) and the diffusion
x-derivative g'(x, i) (needed by Milstein-type schemes).  States are 1-based.
It also has a lane form, the three coefficients over arrays of values and
states at once, which the lane-batched walk calls once per step.

Two concrete families are provided:

* the telomere-shortening model
      dL = -(c_i + a_i L^2) dt + sqrt(a_i max(L,0)^3 / 3) dW,
  whose four canonical states pair two decay rates (c_1, c_2) with two break
  intensities (a_1, a_2);
* a linear test model  dX = mu_i X dt + sigma_i X dW  which, conditional on
  the chain, is piecewise geometric Brownian motion and therefore has an
  exact solution usable as a strong-error oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .ctmc import MarkovPath, segments
from .errors import InvalidParamsError, StateIndexError
from .noise import BrownianPath

Coefficient = Callable[[float, int], float]
# (x, states, derivative) -> (f, g, g'), with g' None unless ``derivative``.
LaneCoefficients = Callable[[np.ndarray, np.ndarray, bool],
                            tuple[np.ndarray, np.ndarray, np.ndarray | None]]

# Parameter estimates for the telomere model (base pairs / day and
# 1 / (bp^2 day)); paired in the order ((c1,a1), (c1,a2), (c2,a1), (c2,a2)).
TELOMERE_C = (4.5, 7.5)
TELOMERE_A = (0.22e-6, 0.41e-6)


@dataclass(frozen=True)
class RegimeModel:
    """Per-state coefficients of a scalar SDE with Markovian switching.

    All three callables are pure functions of (x, state); the instance is
    immutable and safe to share across threads.

    ``lanes(x, states, derivative)`` is the lane form: for a float array ``x``
    and an integer array ``states`` it returns the arrays ``(f, g, g')``, each
    entry bitwise equal to the scalar callable at ``(x[j], states[j])``, with
    ``g'`` left as None unless ``derivative`` is true.  It raises what the
    scalar callables raise for the first lane that raises; floating-point
    warnings follow numpy's error state.  Without one, a lane form is derived
    from the scalar callables: it maps each over the lanes, drift first, and
    calls ``diffusion_derivative`` only when asked for g'.
    """

    num_states: int
    drift: Coefficient
    diffusion: Coefficient
    diffusion_derivative: Coefficient
    lanes: LaneCoefficients | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.lanes is None:
            object.__setattr__(self, "lanes", _mapped_lanes(
                self.drift, self.diffusion, self.diffusion_derivative))


def _mapped_lanes(drift: Coefficient, diffusion: Coefficient,
                  diffusion_derivative: Coefficient) -> LaneCoefficients:
    """The lane form that calls the scalar callables lane by lane."""
    def lanes(x, states, derivative):
        xs, ss = x.tolist(), states.tolist()
        f = np.array(list(map(drift, xs, ss)), dtype=float)
        g = np.array(list(map(diffusion, xs, ss)), dtype=float)
        if not derivative:
            return f, g, None
        return f, g, np.array(list(map(diffusion_derivative, xs, ss)), dtype=float)

    return lanes


@dataclass(frozen=True)
class TelomereParams:
    """Decay rates (c_1, c_2) and break intensities (a_1, a_2), all positive."""

    c_values: tuple[float, float] = TELOMERE_C
    a_values: tuple[float, float] = TELOMERE_A

    def __post_init__(self):
        if len(self.c_values) != 2 or len(self.a_values) != 2:
            raise InvalidParamsError("expected two c values and two a values")
        for v in (*self.c_values, *self.a_values):
            if not (math.isfinite(v) and v > 0):
                raise InvalidParamsError(f"telomere parameters must be positive, got {v}")

    @property
    def state_pairs(self) -> tuple[tuple[float, float], ...]:
        """State map 1..4 -> ((c1,a1), (c1,a2), (c2,a1), (c2,a2))."""
        c1, c2 = self.c_values
        a1, a2 = self.a_values
        return ((c1, a1), (c1, a2), (c2, a1), (c2, a2))


@dataclass(frozen=True)
class LinearModelParams:
    """Per-state drift and diffusion coefficients of the linear test model."""

    mu: tuple[float, ...]
    sigma: tuple[float, ...]

    def __post_init__(self):
        if len(self.mu) == 0 or len(self.mu) != len(self.sigma):
            raise InvalidParamsError("mu and sigma must be equal-length, nonempty")
        for v in (*self.mu, *self.sigma):
            if not math.isfinite(v):
                raise InvalidParamsError(f"coefficients must be finite, got {v}")

    @property
    def num_states(self) -> int:
        return len(self.mu)


def _check_state(i: int, n: int) -> int:
    if not 1 <= i <= n:
        raise StateIndexError(f"state {i} outside 1..{n}")
    return i - 1


def _check_states(states: np.ndarray, n: int) -> np.ndarray:
    """Row of each lane's state in the per-state tables; raises as
    :func:`_check_state` does for the first lane outside 1..n."""
    rows = states - 1
    if not (0 <= rows.min(initial=0) and rows.max(initial=0) < n):
        _check_state(int(states[(rows < 0) | (rows >= n)][0]), n)
    return rows


def telomere_regime_model(pairs) -> RegimeModel:
    """Telomere model over an explicit list of (c, a) state pairs.

    The diffusion sqrt(a x^3 / 3) and its derivative are extended by zero for
    x <= 0, so a trajectory crossing zero continues deterministically under
    the drift.  Requires c > 0 and a >= 0 per state.
    """
    cs = tuple(float(c) for c, _ in pairs)
    as_ = tuple(float(a) for _, a in pairs)
    n = len(cs)
    if n == 0:
        raise InvalidParamsError("at least one (c, a) pair required")
    for c, a in zip(cs, as_):
        if not (math.isfinite(c) and c > 0):
            raise InvalidParamsError(f"c must be positive, got {c}")
        if not (math.isfinite(a) and a >= 0):
            raise InvalidParamsError(f"a must be nonnegative, got {a}")

    def drift(x: float, i: int) -> float:
        k = _check_state(i, n)
        return -(cs[k] + as_[k] * x * x)

    def diffusion(x: float, i: int) -> float:
        k = _check_state(i, n)
        if x <= 0.0:
            return 0.0
        return math.sqrt(as_[k] * x * x * x / 3.0)

    def diffusion_derivative(x: float, i: int) -> float:
        k = _check_state(i, n)
        if x <= 0.0:
            return 0.0
        return 0.5 * math.sqrt(3.0 * as_[k] * x)

    c_table, a_table = np.array(cs), np.array(as_)
    a3_table = 3.0 * a_table  # the scalar 3.0 * a * x multiplies 3.0 * a first

    def lanes(x, states, derivative):
        rows = _check_states(states, n)
        ax2 = a_table[rows] * x * x
        f = -(c_table[rows] + ax2)
        positive = ~(x <= 0.0)  # NaN takes the square root, as in the scalars
        g = np.sqrt(ax2 * x / 3.0, out=np.zeros(x.shape), where=positive)
        if not derivative:
            return f, g, None
        dg = np.sqrt(a3_table[rows] * x, out=np.zeros(x.shape), where=positive)
        dg *= 0.5
        return f, g, dg

    return RegimeModel(num_states=n, drift=drift, diffusion=diffusion,
                       diffusion_derivative=diffusion_derivative, lanes=lanes)


def telomere_model(p: TelomereParams) -> RegimeModel:
    """Four-state telomere model over the canonical (c, a) state map."""
    return telomere_regime_model(p.state_pairs)


def linear_model(p: LinearModelParams) -> RegimeModel:
    """Linear test model: f = mu_i x, g = sigma_i x, g' = sigma_i."""
    mu = tuple(float(v) for v in p.mu)
    sigma = tuple(float(v) for v in p.sigma)
    n = len(mu)

    def drift(x: float, i: int) -> float:
        return mu[_check_state(i, n)] * x

    def diffusion(x: float, i: int) -> float:
        return sigma[_check_state(i, n)] * x

    def diffusion_derivative(x: float, i: int) -> float:
        return sigma[_check_state(i, n)]

    mu_table, sigma_table = np.array(mu), np.array(sigma)

    def lanes(x, states, derivative):
        rows = _check_states(states, n)
        s = sigma_table[rows]
        return mu_table[rows] * x, s * x, s if derivative else None

    return RegimeModel(num_states=n, drift=drift, diffusion=diffusion,
                       diffusion_derivative=diffusion_derivative, lanes=lanes)


def exact_linear_solution(p: LinearModelParams, x0: float, chain: MarkovPath,
                          path: BrownianPath, t: float, t_start: float = 0.0) -> float:
    """Exact solution of the linear model at time t, driven by a shared path.

    Conditional on the chain, each inter-switch segment is geometric Brownian
    motion, so

        X(t) = x0 * exp( sum_seg (mu_i - sigma_i^2/2) dt_seg + sigma_i dW_seg )

    with dW_seg read from ``path`` (memoizing it for any solver coupled to the
    same path).  ``t_start`` restarts the product from a later time, with x0
    then interpreted as the value at ``t_start``.
    """
    acc = 0.0
    for a, b, state in segments(chain, t_start, t):
        k = _check_state(state, p.num_states)
        mu, sigma = p.mu[k], p.sigma[k]
        acc += (mu - 0.5 * sigma * sigma) * (b - a) + sigma * path.increment(a, b)
    return x0 * math.exp(acc)


def check_diffusion_derivative(model: RegimeModel, xs, states=None,
                               rtol: float = 1e-6) -> None:
    """Verify g' against central finite differences at the given points.

    Uses step 1e-5 * max(1, |x|); raises :class:`InvalidParamsError` on the
    first point where the relative error exceeds ``rtol``.
    """
    if states is None:
        states = range(1, model.num_states + 1)
    for i in states:
        for x in xs:
            x = float(x)
            h = 1e-5 * max(1.0, abs(x))
            fd = (model.diffusion(x + h, i) - model.diffusion(x - h, i)) / (2.0 * h)
            an = model.diffusion_derivative(x, i)
            scale = max(abs(an), abs(fd), 1e-8)
            if abs(fd - an) / scale > rtol:
                raise InvalidParamsError(
                    f"diffusion_derivative mismatch at (x={x}, i={i}): "
                    f"analytic {an}, finite difference {fd}")
