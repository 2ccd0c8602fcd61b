"""Scalar regime-switching SDE models.

A model supplies per-state drift f(x, i), diffusion g(x, i) and the diffusion
x-derivative g'(x, i) (needed by Milstein-type schemes).  States are 1-based.
It may also have a lane form in two stages, for the lane-batched walk: the rows
stage turns the states of many lanes into their coefficient rows, and the
walk calls it only for the lanes that enter a new constant-state piece; the
coefficient stage takes the coefficients over arrays of values and those
rows at once, once per step.

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
from .errors import InvalidParamsError, NonfiniteResultError, StateIndexError
from .noise import BrownianPath, _count

Coefficient = Callable[[float, int], float]
# (x, rows, derivative) -> (f, g, g'/2), with g'/2 None unless ``derivative``
# is true, and g None too when it is None (a drift-only request).
LaneCoefficients = Callable[[np.ndarray, np.ndarray, bool | None],
                            tuple[np.ndarray, np.ndarray | None, np.ndarray | None]]

# Parameter estimates for the telomere model (base pairs / day and
# 1 / (bp^2 day)); paired in the order ((c1,a1), (c1,a2), (c2,a1), (c2,a2)).
TELOMERE_C = (4.5, 7.5)
TELOMERE_A = (0.22e-6, 0.41e-6)


@dataclass(frozen=True)
class RegimeModel:
    """Per-state coefficients of a scalar SDE with Markovian switching.

    All three callables are pure functions of (x, state); the instance is
    immutable and safe to share across threads.

    The lane form has two stages.  :meth:`rows` turns an integer array of
    states into their coefficient rows, the columns ``states - 1`` of
    ``table`` (one row of ``table`` per coefficient, one column per state),
    an array whose last axis runs over the lanes; it raises the scalar
    callables' :class:`StateIndexError` for the first state outside
    1..num_states.  A model given no table gets one of its state numbers, a
    single row holding 1..num_states, so a lane's row is its state.  A walk
    takes its rows from :meth:`row_reader`, which checks the states of its
    switch tables once, before the first step.  ``lanes(x, rows,
    derivative)`` then reads them: for a float array ``x`` and the rows of its
    lanes it returns the arrays ``(f, g, g'/2)``, each entry bitwise equal to
    the scalar callable at ``(x[j], states[j])`` (the third to ``0.5 *`` it),
    with ``g'/2`` left as None unless ``derivative`` is true, and ``g`` left
    as None too when ``derivative`` is None (a request for the drift alone);
    floating-point warnings follow numpy's error state.  The Milstein
    correction reads g'/2, so returning it spares the maps a product.  A
    model without a lane form (``lanes`` None) has only its scalar
    callables, and a lane walk steps each of its lanes through the scalar
    maps.
    """

    num_states: int
    drift: Coefficient
    diffusion: Coefficient
    diffusion_derivative: Coefficient
    lanes: LaneCoefficients | None = field(default=None, repr=False, compare=False)
    table: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.table is None:
            object.__setattr__(self, "table", np.arange(1, self.num_states + 1)[None])

    def rows(self, states: np.ndarray) -> np.ndarray:
        """The coefficient rows of lanes in ``states``, one per lane along
        the last axis."""
        _check_states(states, self.num_states)
        return self.table.take(states - 1, axis=1)

    def row_reader(self, states: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        """:meth:`rows` for a walk whose pieces take their states from
        ``states``: every state there is checked here, once, and raises as
        :meth:`rows` does; the reader returned is a plain gather of ``table``
        that checks nothing."""
        _check_states(states, self.num_states)
        table = self.table
        return lambda piece_states: table.take(piece_states - 1, axis=1)


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


def _check_states(states: np.ndarray, n: int) -> None:
    """Raises as :func:`_check_state` does for the first lane outside 1..n."""
    if not (1 <= states.min(initial=1) and states.max(initial=1) <= n):
        _check_state(int(states[(states < 1) | (states > n)][0]), n)


# 0-d arrays in place of Python floats in the lane forms: a ufunc converts a
# float operand on every call, which on 40 lanes costs about as much as the
# arithmetic, and the bits are the same.
_ZERO, _QUARTER, _THREE = np.array(0.0), np.array(0.25), np.array(3.0)


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

    # A row is (-c, a, 3a): -c - a*x*x is -(c + a*x*x) bitwise, one operation
    # fewer, and the scalar 3.0 * a * x multiplies 3.0 * a first.
    table = np.array([[-c for c in cs], as_, [3.0 * a for a in as_]])

    def lanes(x, rows, derivative):
        nc, a, a3 = rows[0], rows[1], rows[2]  # faster than unpacking
        ax2 = a * x * x
        f = nc - ax2
        if derivative is None:
            return f, None, None
        nonpositive = x <= _ZERO  # NaN takes the square root, as in the scalars
        clip = _count(nonpositive)  # else the zeroing changes nothing
        g = ax2 * x / _THREE
        g = np.sqrt(np.where(nonpositive, _ZERO, g) if clip else g)
        if not derivative:
            return f, g, None
        # g'/2 = sqrt(3a x) / 4: 0.5 * (0.5 * root) in one exact product,
        # since a square root of a positive double is never subnormal.
        half_dg = a3 * x
        half_dg = np.sqrt(np.where(nonpositive, _ZERO, half_dg) if clip else half_dg)
        half_dg *= _QUARTER
        return f, g, half_dg

    return RegimeModel(num_states=n, drift=drift, diffusion=diffusion,
                       diffusion_derivative=diffusion_derivative, lanes=lanes,
                       table=table)


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

    def lanes(x, rows, derivative):
        f = rows[0] * x  # indexing is faster than unpacking
        if derivative is None:
            return f, None, None
        return f, rows[1] * x, rows[2] if derivative else None

    # A row is (mu, sigma, sigma/2), the last g'/2.
    return RegimeModel(num_states=n, drift=drift, diffusion=diffusion,
                       diffusion_derivative=diffusion_derivative, lanes=lanes,
                       table=np.array([mu, sigma, [v / 2.0 for v in sigma]]))


def exact_linear_solution(p: LinearModelParams, x0: float, chain: MarkovPath,
                          path: BrownianPath, t: float) -> float:
    """Exact solution of the linear model at time t, driven by a shared path.

    Conditional on the chain, each inter-switch segment is geometric Brownian
    motion, so

        X(t) = x0 * exp( sum_seg (mu_i - sigma_i^2/2) dt_seg + sigma_i dW_seg )

    with dW_seg read from ``path`` (memoizing it for any solver coupled to the
    same path).  A value past the float range, of the exponential or of the
    product, raises :class:`NonfiniteResultError`.
    """
    acc = 0.0
    for a, b, state in segments(chain, 0.0, t):
        k = _check_state(state, p.num_states)
        mu, sigma = p.mu[k], p.sigma[k]
        acc += (mu - 0.5 * sigma * sigma) * (b - a) + sigma * path.increment(a, b)
    try:
        value = x0 * math.exp(acc)
    except OverflowError:
        value = math.nan
    if not math.isfinite(value):
        raise NonfiniteResultError(f"exact_linear_solution at t={t} is not finite: "
                                   f"x0={x0} times exp({acc})")
    return value


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
