"""Continuous-time Markov chain on the finite state space {1, ..., L}.

A chain is described by its generator matrix: off-diagonal entries are the
transition rates i -> j, and each diagonal entry is the negated sum of its
row's off-diagonal entries, so every row sums to zero.  The holding time in
state i is exponential with rate lambda_i = -gamma_ii, and on leaving i the
destination j is drawn with probability gamma_ij / lambda_i.

Simulated paths record only the switching times and post-switch states; the
chain is right-continuous, so the state at a switching instant is the
post-switch state.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import chain
from typing import IO

import numpy as np

from .errors import (
    AbsorbingStateError,
    InvalidParamsError,
    NegativeOffDiagonalError,
    NonSquareError,
    RowSumNonzeroError,
    StateIndexError,
    TimeOutOfRangeError,
)

ROW_SUM_TOL = 1e-12
CHAIN_BLOCK = 64  # uniforms a chain draws at a time


@dataclass(frozen=True)
class GeneratorMatrix:
    """Validated L x L transition-rate matrix (units 1/time).

    Construct through :func:`validate_generator`; the rates array is frozen.
    ``jumps[i - 1]`` is ``(lambda_i, cum, dests)`` for state i, derived from
    the rates: its holding rate, and the states one jump reaches with their
    cumulative probabilities (none for an absorbing state).
    """

    rates: np.ndarray
    num_states: int
    jumps: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.rates.setflags(write=False)
        jumps = []
        for i in range(1, self.num_states + 1):
            lam = holding_rate(self, i)
            p = transition_pmf(self, i) if lam > 0.0 else np.zeros(0)
            dests = np.nonzero(p > 0)[0]
            jumps.append((lam, tuple(np.cumsum(p[dests]).tolist()),
                          tuple((dests + 1).tolist())))
        object.__setattr__(self, "jumps", tuple(jumps))


@dataclass(frozen=True)
class MarkovPath:
    """One sampled chain trajectory on [0, horizon].

    ``switch_times`` holds the strictly increasing times in (0, horizon] at
    which the chain moved between distinct states, and ``states`` the
    corresponding post-switch states.  States are 1-based.
    """

    initial_state: int
    switch_times: tuple[float, ...]
    states: tuple[int, ...]
    horizon: float

    def __post_init__(self):
        if self.horizon <= 0:
            raise InvalidParamsError("horizon must be positive")
        if self.initial_state < 1:
            raise StateIndexError(f"initial state {self.initial_state} < 1")
        if len(self.switch_times) != len(self.states):
            raise InvalidParamsError("switch_times and states length mismatch")
        prev_t = 0.0
        prev_s = self.initial_state
        for t, s in zip(self.switch_times, self.states):
            if not t > prev_t:
                raise InvalidParamsError(f"switch times not strictly increasing at {t}")
            if t > self.horizon:
                raise InvalidParamsError(f"switch time {t} beyond horizon {self.horizon}")
            if s < 1:
                raise StateIndexError(f"state {s} < 1")
            if s == prev_s:
                raise InvalidParamsError(f"state did not change at switch time {t}")
            prev_t, prev_s = t, s

    @property
    def num_switches(self) -> int:
        return len(self.switch_times)


def validate_generator(rates) -> GeneratorMatrix:
    """Validate a rate matrix and wrap it as a :class:`GeneratorMatrix`.

    Requires a square matrix of finite rates with nonnegative off-diagonal
    entries and row sums within ``ROW_SUM_TOL`` of zero.
    """
    arr = np.array(rates, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise NonSquareError(f"expected a square matrix, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise InvalidParamsError(f"rates must be finite, got {arr.tolist()}")
    n = arr.shape[0]
    if n < 1:
        raise NonSquareError("matrix must have at least one state")
    for i in range(n):
        for j in range(n):
            if i != j and arr[i, j] < 0:
                raise NegativeOffDiagonalError(i, j, float(arr[i, j]))
        residual = float(arr[i].sum())
        if abs(residual) > ROW_SUM_TOL:
            raise RowSumNonzeroError(i, residual)
    return GeneratorMatrix(rates=arr, num_states=n)


def holding_rate(g: GeneratorMatrix, i: int) -> float:
    """Exponential holding rate lambda_i = -gamma_ii of state i (1-based).

    Zero means state i is absorbing.
    """
    if not 1 <= i <= g.num_states:
        raise StateIndexError(f"state {i} outside 1..{g.num_states}")
    return -float(g.rates[i - 1, i - 1])


def transition_pmf(g: GeneratorMatrix, i: int) -> np.ndarray:
    """Destination probabilities from state i: p_ij = gamma_ij / lambda_i.

    Returns a length-L vector with p_ii = 0.  Raises for absorbing states.
    """
    lam = holding_rate(g, i)
    if lam <= 0.0:
        raise AbsorbingStateError(f"state {i} is absorbing (lambda = 0)")
    p = np.array(g.rates[i - 1], dtype=float) / lam
    p[i - 1] = 0.0
    return p


def _uniforms(rng: np.random.Generator):
    """The generator's uniforms u in draw order, each with ``math.log1p(-u)``
    (numpy's log1p can differ in the last ulp), drawn ``CHAIN_BLOCK`` at a time:
    a block draw equals as many single draws, bit for bit."""
    while True:
        u = rng.random(CHAIN_BLOCK)
        yield from zip(u.tolist(), map(math.log1p, (-u).tolist()))


def simulate_chain(g: GeneratorMatrix, r0: int, horizon: float,
                   rng: np.random.Generator) -> MarkovPath:
    """Sample one chain trajectory on [0, horizon] starting from r0.

    Holding times use inverse-CDF exponential sampling on uniform draws;
    destinations use inverse-CDF sampling of the transition pmf.  Generation
    stops at the first holding time crossing the horizon; a switch landing
    exactly on the horizon is kept.  Deterministic given the generator state;
    the uniforms are drawn in blocks, so the generator ends up to a block past
    the last uniform used.
    """
    if not 0.0 < horizon < math.inf:
        raise InvalidParamsError(f"horizon must be positive and finite, got {horizon}")
    if not 1 <= r0 <= g.num_states:
        raise StateIndexError(f"initial state {r0} outside 1..{g.num_states}")

    times: list[float] = []
    states: list[int] = []
    t = 0.0
    s = r0
    draws = _uniforms(rng)
    while True:
        lam, cum, dests = g.jumps[s - 1]
        if lam <= 0.0:
            break
        dt = -next(draws)[1] / lam
        while dt <= 0.0:  # a uniform draw of exactly 0 would stall the clock
            dt = -next(draws)[1] / lam
        t = t + dt
        if t > horizon:
            break
        # a draw above cum[-1] (by rounding) goes to the last destination
        s = dests[min(bisect_right(cum, next(draws)[0]), len(dests) - 1)]
        times.append(t)
        states.append(s)
    return MarkovPath(initial_state=r0, switch_times=tuple(times),
                      states=tuple(states), horizon=horizon)


def segments(path: MarkovPath, t0: float, t1: float):
    """Constant-state pieces ``(a, b, state)`` of [t0, t1] in time order, for
    0 <= t0 <= t1 <= horizon.  Right-continuous: a switch at ``a`` is in force
    on its piece, one at exactly ``t1`` starts none; t0 == t1 gives one piece."""
    if not 0.0 <= t0 <= t1 <= path.horizon:
        raise TimeOutOfRangeError(
            f"need 0 <= t0={t0} <= t1={t1} <= horizon={path.horizon}")
    i = bisect_right(path.switch_times, t0)
    a, state = t0, path.initial_state if i == 0 else path.states[i - 1]
    for tau, nxt in zip(path.switch_times[i:], path.states[i:]):
        if tau >= t1:
            break
        yield a, tau, state
        a, state = tau, nxt
    yield a, t1, state


def switch_tables(paths, t1: float) -> tuple[np.ndarray, np.ndarray]:
    """The pieces of :func:`segments` ``(path, 0, t1)`` of every path as two
    padded arrays, ``ends[j, q]`` and ``states[j, q]`` for piece q of path j:
    piece 0 starts at 0 in the initial state, and each switch before t1 ends
    one piece and starts the next in its post-switch state.  A row has one
    more piece than its switches before t1; the end of a padding piece is t1
    and its state 1."""
    for path in paths:
        if not 0.0 <= t1 <= path.horizon:
            raise TimeOutOfRangeError(
                f"need 0 <= t0=0.0 <= t1={t1} <= horizon={path.horizon}")
    counts = np.array([path.num_switches for path in paths], dtype=np.intp)
    n = counts.size
    taus = np.fromiter(chain.from_iterable(path.switch_times for path in paths),
                       dtype=float, count=int(counts.sum()))
    after = np.fromiter(chain.from_iterable(path.states for path in paths),
                        dtype=np.int64, count=taus.size)
    rows = np.repeat(np.arange(n), counts)
    cols = np.arange(taus.size) - np.repeat(np.cumsum(counts) - counts, counts)
    kept = taus < t1  # a switch at exactly t1 starts no piece
    rows, cols = rows[kept], cols[kept]
    ends = np.full((n, 1 + int(counts.max(initial=0))), t1)
    states = np.ones(ends.shape, dtype=np.int64)
    ends[rows, cols] = taus[kept]
    states[:, 0] = [path.initial_state for path in paths]
    states[rows, cols + 1] = after[kept]
    return ends, states


def state_at(path: MarkovPath, t: float) -> int:
    """State in force at time t, right-continuous at switch instants."""
    [(_, _, state)] = segments(path, t, t)
    return state


def write_chain_csv(path: MarkovPath, stream: IO[str]) -> None:
    """Serialize a path as CSV: a metadata row for r0 and T, then tau,state rows."""
    stream.write(f"# r0={path.initial_state} T={path.horizon!r}\n")
    stream.write("tau,state\n")
    for t, s in zip(path.switch_times, path.states):
        stream.write(f"{float(t)!r},{s}\n")


def read_chain_csv(stream: IO[str]) -> MarkovPath:
    """Parse a path written by :func:`write_chain_csv`."""
    meta = stream.readline().strip()
    if not meta.startswith("# r0="):
        raise InvalidParamsError("missing chain metadata row")
    fields = dict(part.split("=", 1) for part in meta[2:].split())
    header = stream.readline().strip()
    if header != "tau,state":
        raise InvalidParamsError(f"unexpected chain CSV header: {header}")
    times: list[float] = []
    states: list[int] = []
    for line in stream:
        line = line.strip()
        if not line:
            continue
        tau, s = line.split(",")
        times.append(float(tau))
        states.append(int(s))
    return MarkovPath(initial_state=int(fields["r0"]), switch_times=tuple(times),
                      states=tuple(states), horizon=float(fields["T"]))
