"""Lazily sampled scalar Brownian motion with bridge refinement.

One :class:`BrownianPath` represents a single realisation of W that can be
queried at arbitrary times in any order.  Values are memoized; a query beyond
the last known time extends the path with an independent Gaussian increment,
and a query between two known times s < t < u draws from the Brownian bridge

    W(t) | W(s), W(u)  ~  N( W(s) + (t-s)/(u-s) (W(u)-W(s)),
                             (t-s)(u-t)/(u-s) ).

This keeps every memoized collection of points exact in distribution, so
solvers running at different resolutions on the same path object are coupled
pathwise.  Reproducibility contract: identical RNG seed and identical query
sequence give identical values.

The lane engine (:func:`switchsde.schemes.solve_terminals`) reads its noise
from a lane source, which stands in for one such path per lane and returns
the values the paths would, bit for bit: :class:`ForwardNoise` for fresh
paths queried forward only (the ensemble and the mean-change study), and
:class:`BridgeNoise` for the strong-order study, whose levels refine the
paths its exact oracle started.  A bridge source keeps each lane's points as
one row in time order, writes a walk's new points one column per step, and
sorts them in among the row's points when the walk ends.  The scalar path
itself now serves that oracle, the replay of a failed trajectory or sample,
``--dump-trajectory`` and the mesh audits of criteria 6 and 8.
"""

from __future__ import annotations

import math
from bisect import bisect_right

import numpy as np

from .errors import NegativeTimeError, ReversedIntervalError

NORMAL_BLOCK = 64  # normals a lane source draws per lane at a time
GALLOP = 8  # known times a bridge lane compares per gather
_AHEAD = np.arange(GALLOP)


class BrownianPath:
    """Memoized scalar Brownian path driven by a dedicated random generator.

    Single-owner mutable state: one trajectory's solvers use it sequentially.
    """

    __slots__ = ("_times", "_values", "_rng")

    def __init__(self, rng: np.random.Generator):
        self._times: list[float] = [0.0]
        self._values: list[float] = [0.0]
        self._rng = rng

    def sample_at(self, t: float) -> float:
        """Value W(t); drawn on first query, memoized afterwards."""
        if t < 0.0:
            raise NegativeTimeError(f"t={t} is negative")
        times = self._times
        values = self._values
        pos = bisect_right(times, t)
        # times[0] == 0.0 <= t, so pos >= 1 and times[pos-1] <= t < times[pos].
        if times[pos - 1] == t:
            return values[pos - 1]
        z = float(self._rng.standard_normal())
        if pos == len(times):
            w = values[-1] + math.sqrt(t - times[-1]) * z
            times.append(t)
            values.append(w)
        else:
            s, u = times[pos - 1], times[pos]
            ws, wu = values[pos - 1], values[pos]
            frac = (t - s) / (u - s)
            var = (t - s) * (u - t) / (u - s)
            w = ws + frac * (wu - ws) + math.sqrt(var) * z
            times.insert(pos, t)
            values.insert(pos, w)
        return w

    def increment(self, s: float, t: float) -> float:
        """W(t) - W(s) over 0 <= s <= t; exactly zero when s == t.

        When both endpoints are new, s is sampled first (chronological
        order), which is the query protocol the solvers rely on.
        """
        if t < s:
            raise ReversedIntervalError(f"interval reversed: s={s} > t={t}")
        if s < 0.0:
            raise NegativeTimeError(f"s={s} is negative")
        if s == t:
            return 0.0
        ws = self.sample_at(s)
        return self.sample_at(t) - ws

    def known_points(self) -> list[tuple[float, float]]:
        """Memoized (time, value) pairs in time order, for inspection."""
        return list(zip(self._times, self._values))


class ForwardNoise:
    """Lane source of fresh paths queried forward in time only: lane ``j`` is
    ``BrownianPath(rngs[j])``, whose every query extends the path,
    W(t_next) = W(t) + sqrt(t_next - t) z.

    :meth:`advance` takes the lanes by their original indices, in increasing
    order; lanes may leave between calls but never join.  Each call draws one
    normal per lane, so the lanes draw their blocks of ``NORMAL_BLOCK`` (a
    block draw equals as many single draws, bit for bit) together.
    """

    def __init__(self, rngs):
        self._rngs = rngs
        self._lane = None  # the lanes of the last call, one row of _z each
        self._z = None
        self._col = NORMAL_BLOCK

    def advance(self, lane, t, w, t_next):
        """W(t_next) of each lane in ``lane``, from its value ``w`` at ``t``."""
        if self._col == NORMAL_BLOCK:
            self._z = np.empty((lane.size, NORMAL_BLOCK))
            for row, index in zip(self._z, lane.tolist()):
                self._rngs[index].standard_normal(out=row)
            self._col = 0
        elif lane is not self._lane:  # lanes have left: keep the others' rows
            self._z = self._z[np.searchsorted(self._lane, lane)]
        self._lane = lane
        self._col += 1
        return w + np.sqrt(t_next - t) * self._z[:, self._col - 1]


class BridgeNoise:
    """Lane source that refines memoized paths: lane ``j`` continues
    ``paths[j]`` from its known points and its generator, and each query
    returns what ``paths[j].sample_at`` would return for the same queries.

    Within one walk each lane's queries increase from t = 0, and the lane
    keeps a cursor into its sorted known points.  A query at a known time
    returns the memoized value and draws nothing; one past the last known
    point draws forward from it; any other draws the bridge between its left
    neighbour, the later of the lane's current point and the last known point
    before the query, and the next known point, in ``sample_at``'s order of
    operations (``np.sqrt`` is correctly rounded, like ``math.sqrt``).  Lanes
    draw different numbers of normals, so each keeps its own column into its
    block.

    Lane j's points are row j of (lanes, capacity) arrays.  Columns
    ``[0, count)`` hold its known points in time order, followed by padding
    (infinite time, zero value) at least ``GALLOP`` long, so that the
    cursor's window never leaves the row's known points and padding.  Step s
    of a walk writes each lane's new point to column ``base + s``, past every
    lane's padding; a lane whose query hit a known point writes infinite time
    there, and a lane that has left writes nothing.  :meth:`merge` ends a
    walk: each lane's finite step columns are its new points, in time order,
    which it sorts in among its known points; the step columns go back to
    padding, and every lane rewinds to t = 0.  The arrays start with columns
    for ``room`` new points per lane, a caller's estimate, and grow when a
    walk needs more.
    """

    def __init__(self, paths, room: int):
        self._rngs = [path._rng for path in paths]
        self._count = np.array([len(path._times) for path in paths], dtype=np.intp)
        # Columns for about ``room`` new points per lane over all walks, so
        # that the arrays rarely grow (each growth copies them).
        capacity = int(self._count.max(initial=0)) + GALLOP + room + room // 8
        self._times = np.full((len(paths), capacity), np.inf)
        self._values = np.zeros((len(paths), capacity))
        for j, path in enumerate(paths):
            self._times[j, :self._count[j]] = path._times
            self._values[j, :self._count[j]] = path._values
        self._z = np.empty((len(paths), NORMAL_BLOCK))
        self._col = np.full(len(paths), NORMAL_BLOCK)
        self._rewind()

    def _rewind(self):
        self._cur = np.ones(self._count.size, dtype=np.intp)  # where a search starts
        self._base = self._step = int(self._count.max(initial=0)) + GALLOP

    def advance(self, lane, t, w, t_next):
        """W(t_next) of each lane in ``lane``, from its value ``w`` at ``t``."""
        rows, capacity = self._times.shape
        if self._step == capacity:  # no column left for this step's points
            more = max(capacity // 8, 64)
            self._times = np.hstack((self._times, np.full((rows, more), np.inf)))
            self._values = np.hstack((self._values, np.zeros((rows, more))))
            capacity += more
        known_t, known_w = self._times.ravel(), self._values.ravel()
        first = lane * capacity
        # k: the first known point at or after t_next, searched GALLOP points
        # a gather from the cursor (a lane's padding ends every search).
        k = first + self._cur[lane]
        far = np.arange(lane.size)
        while far.size:
            below = known_t[k[far, None] + _AHEAD] < t_next[far, None]
            k[far] += below.sum(axis=1)
            far = far[below[:, -1]]
        u, wu = known_t[k], known_w[k]
        hit = u == t_next  # the memoized value, and no draw
        self._cur[lane] = k - first

        # The left neighbour: the last known point before t_next if it is
        # after t, else the lane's current point.
        before = known_t[k - 1]
        later = before > t
        s = np.where(later, before, t)
        ws = np.where(later, known_w[k - 1], w)
        col = self._col[lane]
        spent = np.flatnonzero(col == NORMAL_BLOCK)
        if spent.size:  # a lane that has no draw to make may refill early
            for row in lane[spent].tolist():
                self._rngs[row].standard_normal(out=self._z[row])
            col[spent] = 0
        z = self._z.ravel()[lane * NORMAL_BLOCK + col]
        self._col[lane] = col + ~hit

        # Past the last known point u is inf: frac is 0, its term adds a zero
        # to ws, and the variance is the forward one, t_next - s.  A hit lane
        # computes a finite value that it does not use.
        lead = t_next - s
        span = u - s
        frac = lead / span
        var = np.divide(lead * (u - t_next), span, out=lead.copy(), where=u < np.inf)
        w_new = ws + frac * (wu - ws) + np.sqrt(var) * z

        slot = first + self._step
        self._step += 1
        known_t[slot] = np.where(hit, np.inf, t_next)
        known_w[slot] = w_new
        return np.where(hit, wu, w_new)

    def merge(self):
        """Move the new points of the walk in among each lane's known points,
        in time order, and rewind the lanes to t = 0 for the next walk."""
        steps = slice(self._base, self._step)
        for j, (row_t, row_w) in enumerate(zip(self._times, self._values)):
            new = row_t[steps] < np.inf
            times = np.concatenate((row_t[:self._count[j]], row_t[steps][new]))
            values = np.concatenate((row_w[:self._count[j]], row_w[steps][new]))
            row_t[steps], row_w[steps] = np.inf, 0.0
            # Two runs in time order, the known points and the new ones, which
            # a stable sort merges.
            order = np.argsort(times, kind="stable")
            row_t[:times.size], row_w[:times.size] = times[order], values[order]
            self._count[j] = times.size
        self._rewind()

    def known_points(self, j: int) -> list[tuple[float, float]]:
        """Lane ``j``'s known (time, value) pairs in time order, as of the
        last :meth:`merge`."""
        count = self._count[j]
        return list(zip(self._times[j, :count].tolist(), self._values[j, :count].tolist()))
