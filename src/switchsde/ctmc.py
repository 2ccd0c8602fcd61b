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
import operator
from bisect import bisect_right
from dataclasses import dataclass, field
from types import SimpleNamespace
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
from .noise import _count

ROW_SUM_TOL = 1e-12


@dataclass(frozen=True)
class GeneratorMatrix:
    """Validated L x L transition-rate matrix (units 1/time).

    Construct through :func:`validate_generator`; the rates array is frozen.
    ``jumps`` is ``(lam, cum, dests)``, derived from the rates as arrays
    indexed by the state itself (entry or column 0 is unused): state i's
    holding rate ``lam[i]``, the states one jump reaches, in order, from
    ``dests[0, i]``, and the cumulative probabilities that bound them,
    ``cum[:, i]``.  A draw u goes to ``dests[q, i]`` for q the count of
    ``cum[:, i] <= u``: the bound of the last destination and the padding are
    inf, so the last destination also takes a draw above the last cumulative
    probability (by rounding).  An absorbing state reaches none.  A state's
    bounds are a column, so the bounds of a lane group's states are one
    gather along the columns and their counts one sum down them.
    """

    rates: np.ndarray
    num_states: int
    jumps: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.rates.setflags(write=False)
        rows, width = 1 + self.num_states, max(1, self.num_states - 1)
        lam = np.zeros(rows)
        cum = np.full((width, rows), math.inf)
        dests = np.ones((width, rows), dtype=np.int64)
        for i in range(1, rows):
            lam[i] = holding_rate(self, i)
            if lam[i] > 0.0:
                p = transition_pmf(self, i)
                reached = np.flatnonzero(p > 0)
                cum[:reached.size, i] = np.cumsum(p[reached])
                cum[reached.size - 1, i] = math.inf  # the last destination's bound
                dests[:reached.size, i] = reached + 1
        object.__setattr__(self, "jumps", (lam, cum, dests))


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
        if not 0.0 < self.horizon < math.inf:
            raise InvalidParamsError(f"horizon must be positive and finite, got {self.horizon}")
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


@dataclass(frozen=True)
class Chains:
    """The chains of a lane group on [0, horizon] as their constant-state
    pieces, one row a lane: lane j is in state ``states[j, q]`` on piece q,
    which ends at ``ends[j, q]``.  Piece 0 starts at 0 in the initial state;
    switch k, of ``counts[j]``, ends piece k, and its post-switch state starts
    piece k + 1.  Padding pieces end at the horizon in state 1; a row has one
    more piece than the most switches of a lane.  A switch at exactly the
    horizon starts a piece of zero length, which no walk enters.
    """

    ends: np.ndarray
    states: np.ndarray
    counts: np.ndarray
    horizon: float

    def __len__(self) -> int:
        return self.counts.size

    def path(self, j: int) -> MarkovPath:
        """Lane j's chain as a :class:`MarkovPath`."""
        k = int(self.counts[j])
        return MarkovPath(initial_state=int(self.states[j, 0]),
                          switch_times=tuple(self.ends[j, :k].tolist()),
                          states=tuple(self.states[j, 1:k + 1].tolist()),
                          horizon=self.horizon)

    @classmethod
    def of(cls, paths) -> Chains:
        """The chains of ``paths``, which share one horizon, as lanes."""
        horizons = {path.horizon for path in paths}
        if len(horizons) != 1:
            raise InvalidParamsError(f"need paths of one horizon, got {sorted(horizons)}")
        horizon = horizons.pop()
        counts = np.array([path.num_switches for path in paths], dtype=np.intp)
        ends = np.full((counts.size, 1 + int(counts.max())), horizon, dtype=float)
        states = np.ones(ends.shape, dtype=np.int64)
        for row, path in enumerate(paths):
            ends[row, :path.num_switches] = path.switch_times
            states[row, :1 + path.num_switches] = (path.initial_state, *path.states)
        return cls(ends=ends, states=states, counts=counts, horizon=horizon)


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


def simulate_chains(g: GeneratorMatrix, r0s, horizon: float, uniforms) -> Chains:
    """Sample one chain trajectory on [0, horizon] per lane: lane j starts from
    ``r0s[j]`` and draws lane j's uniforms of ``uniforms``.

    ``uniforms`` starts with every lane and carries the lanes still sampled
    (a group's chain streams, :class:`switchsde.streams.LaneUniforms`):
    ``random()`` is the next uniform of each lane it carries, in order,
    ``random(lanes)`` that of the lanes at the distinct positions ``lanes``
    alone, and ``keep(stay)`` drops the lanes where the boolean mask
    ``stay`` is false.  The sampler drops each lane once it leaves, so a
    draw takes every lane the source carries.

    Holding times use inverse-CDF exponential sampling on uniform draws, with
    ``math.log1p(-u)`` (numpy's log1p can differ in the last ulp), taken as
    ``log1p(-u) / (-rate)``, bitwise ``-log1p(-u) / rate``; a holding time of
    0 (from a uniform of exactly 0) is drawn again, as it would stall the
    clock.  Destinations use inverse-CDF sampling of the transition pmf.  A
    lane stops at its first holding time crossing the horizon, so a switch
    landing exactly on the horizon is kept, or when it enters an absorbing
    state.

    Each iteration takes one switch of every live lane, as array operations.
    A lane draws its uniforms in order and only those it uses, so each lane is
    the chain that it would be alone, bit for bit.
    """
    if not 0.0 < horizon < math.inf:
        raise InvalidParamsError(f"horizon must be positive and finite, got {horizon}")
    initial = np.fromiter(map(operator.index, r0s), dtype=np.int64)  # integers only
    bad = np.flatnonzero((initial < 1) | (initial > g.num_states))
    if bad.size:
        raise StateIndexError(
            f"initial state {initial[bad[0]]} outside 1..{g.num_states}")
    if not callable(getattr(uniforms, "keep", None)):  # a numpy Generator has no keep
        raise TypeError("uniforms must draw one uniform per lane in random() and drop "
                        "lanes in keep(stay), as streams.substream_uniforms does, not "
                        f"{type(uniforms).__name__}; simulate_chain samples one chain "
                        "from a generator")
    lam, cum, dests = g.jumps
    dests, width = dests.ravel(), dests.shape[1]  # dests[q, s] is dests[q * width + s]
    negated = -lam
    absorbing = not lam[1:].all()
    n = initial.size

    def holding(u, rate):  # rate is the lanes' negated holding rates
        np.negative(u, out=u)
        logs = np.fromiter(map(math.log1p, u.tolist()), float, u.size)
        logs /= rate
        return logs

    columns = []  # switch k of every lane that makes one: (lanes, times, states)
    stalled = np.full(n, math.nan)  # the time of a switch that left the clock still
    moving = lam[initial] > 0.0  # an absorbing lane never switches
    live = np.flatnonzero(moving)
    if live.size < n:
        uniforms.keep(moving)
    t, s = np.zeros(live.size), initial[live]
    with np.errstate(over="ignore"):  # a holding time past the float range ends a lane
        while live.size:
            rate = negated.take(s)
            dt = holding(uniforms.random(), rate)
            again = dt <= 0.0
            while _count(again):
                redraw = np.flatnonzero(again)
                dt[redraw] = holding(uniforms.random(redraw), rate[redraw])
                again = dt <= 0.0
            t_next = t + dt
            keep = t_next <= horizon
            still = t_next <= t  # t is at most the horizon
            if _count(still):
                stalled[live[still]] = t_next[still]
                keep &= ~still
            if _count(keep) < live.size:
                live, t_next, s = live[keep], t_next[keep], s[keep]
                if not live.size:
                    break
                uniforms.keep(keep)
            t = t_next
            u = uniforms.random()
            s = dests.take((cum.take(s, axis=1) <= u).sum(axis=0) * width + s)
            columns.append((live, t, s))
            if absorbing:
                keep = lam[s] > 0.0
                if _count(keep) < live.size:
                    live, t, s = live[keep], t[keep], s[keep]
                    uniforms.keep(keep)
    first = np.flatnonzero(~np.isnan(stalled))
    if first.size:  # the error MarkovPath raises for the lowest such lane
        raise InvalidParamsError(
            f"switch times not strictly increasing at {float(stalled[first[0]])}")
    ends = np.full((n, 1 + len(columns)), float(horizon))
    states = np.ones(ends.shape, dtype=np.int64)
    states[:, 0] = initial
    counts = np.zeros(n, dtype=np.intp)
    for k, (lanes, t, s) in enumerate(columns):
        ends[lanes, k], states[lanes, k + 1], counts[lanes] = t, s, k + 1
    return Chains(ends=ends, states=states, counts=counts, horizon=float(horizon))


def simulate_chain(g: GeneratorMatrix, r0: int, horizon: float,
                   rng: np.random.Generator) -> MarkovPath:
    """Sample one chain trajectory on [0, horizon] starting from r0: the
    one-lane case of :func:`simulate_chains`, drawing ``rng.random()`` one
    uniform at a time.  ``rng`` ends just after the last uniform used."""
    # The one lane is dropped only when it leaves, and then draws no more.
    one_lane = SimpleNamespace(random=lambda lanes=None: rng.random(1), keep=lambda stay: None)
    return simulate_chains(g, [r0], horizon, one_lane).path(0)


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
    """Parse a path written by :func:`write_chain_csv`.  A line that does not
    parse raises :class:`InvalidParamsError` naming its number and text."""
    number, line = 1, stream.readline().strip()
    try:
        if not line.startswith("# r0="):
            raise ValueError("missing chain metadata row")
        fields = dict(part.split("=", 1) for part in line[2:].split())
        r0, horizon = int(fields["r0"]), float(fields["T"])
        number, line = 2, stream.readline().strip()
        if line != "tau,state":
            raise ValueError("unexpected chain CSV header")
        times: list[float] = []
        states: list[int] = []
        for number, line in enumerate(map(str.strip, stream), 3):
            if line:
                tau, s = line.split(",")
                times.append(float(tau))
                states.append(int(s))
    except (KeyError, ValueError) as exc:
        raise InvalidParamsError(f"chain CSV line {number} {line!r}: {exc!r}") from None
    return MarkovPath(initial_state=r0, switch_times=tuple(times), states=tuple(states),
                      horizon=horizon)
