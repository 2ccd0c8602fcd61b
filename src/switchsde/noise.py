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
one row in time order, finds each query's neighbours from a cursor per lane,
writes a walk's new points one column per step, and sorts them in among the
row's points when the next walk starts.  The scalar path
itself now serves that oracle, the replay of a failed trajectory or sample,
``--dump-trajectory`` and the mesh audits of criteria 6 and 8.
"""

from __future__ import annotations

import math
from bisect import bisect_right

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import NegativeTimeError, ReversedIntervalError

NORMAL_BLOCK = 64  # normals a forward source draws per lane at a time
BRIDGE_BLOCK = 256  # normals a bridge lane holds
GALLOP = 8  # known times a bridge lane compares per gather


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

    Lane j's points are row j of (lanes, capacity) arrays.  Columns
    ``[0, count)`` hold its known points in time order, followed by padding
    (infinite time, zero value) at least ``GALLOP`` long, so that a search's
    window never leaves the row's known points and padding.  A walk is a run of
    :meth:`advance` calls whose queries increase from t = 0 in every lane,
    ended by :meth:`merge`.  Step s of a walk writes each lane's new point to
    column ``base + s``, past every lane's padding; a lane whose query hit a
    known point writes infinite time there, and a lane that has left writes
    nothing.

    Each walking lane keeps a flat cursor ``k`` into its row, the first known
    point after its current time t, so that the point before it is at or
    before t.  A step gathers each lane's point at the cursor: a lane whose
    query is short of it draws the bridge between its own (t, w) and that
    point, or draws forward from (t, w) when the point is padding.  Only the
    lanes whose query reached their cursor's point search on, ``GALLOP``
    points a gather, for the first known point at or after the query.  A hit
    returns the memoized value, draws nothing and moves the cursor past the
    point; any other query draws the bridge between the known point before it
    and the one at the cursor, or forward past the last one.  Every draw
    follows ``sample_at``'s order of operations (``np.sqrt`` is correctly
    rounded, like ``math.sqrt``).

    Each lane holds a block of ``BRIDGE_BLOCK`` normals and a flat position
    in it; lanes draw different numbers of normals, because hits draw none.
    A countdown, the block size less the largest position in use, falls by
    one a step; at zero every walking lane moves its unused normals to the
    front of its block and draws the rest together (a block draw equals as
    many single draws, bit for bit).  The cursors and positions are kept
    aligned with the walk's ``lane`` array, compacted when lanes leave.

    :meth:`merge` ends a walk.  Its new points are sorted in among each
    lane's known points only when the next walk starts or
    :meth:`known_points` is called, so a study's last walk is never merged:
    each lane's finite step columns are its new points, in time order, which
    a stable sort merges with the known ones, and the step columns go back to
    padding.  The arrays start with columns for ``room`` new points per
    lane, a caller's estimate, and grow when a walk needs more.
    """

    def __init__(self, paths, room: int):
        self._rngs = [path._rng for path in paths]
        self._count = np.array([len(path._times) for path in paths], dtype=np.intp)
        # Columns for about ``room`` new points per lane over all walks, so
        # that the arrays rarely grow (each growth copies them).
        capacity = int(self._count.max(initial=0)) + GALLOP + room + room // 8
        self._rows(np.full((len(paths), capacity), np.inf), np.zeros((len(paths), capacity)))
        for j, path in enumerate(paths):
            self._times[j, :self._count[j]] = path._times
            self._values[j, :self._count[j]] = path._values
        self._z = np.empty((len(paths), BRIDGE_BLOCK))
        self._zs = self._z.ravel()  # indexed by flat block positions
        self._col = np.full(len(paths), BRIDGE_BLOCK)  # each lane's next normal
        self._base = self._step = int(self._count.max(initial=0)) + GALLOP
        self._lane = None  # the walking lanes, or None between walks

    def _rows(self, times, values):
        """Hold the points in ``times`` and ``values``, and their flat views."""
        self._times, self._values = times, values
        self._known_t, self._known_w = times.ravel(), values.ravel()
        self._window = sliding_window_view(self._known_t, GALLOP)  # GALLOP times from each

    def advance(self, lane, t, w, t_next):
        """W(t_next) of each lane in ``lane``, from its value ``w`` at ``t``."""
        if self._lane is None:
            self._start(lane)
        elif lane is not self._lane:  # lanes have left: keep the others' cursors
            keep = np.searchsorted(self._lane, lane)
            self._col[self._lane] = self._zpos - self._lane * BRIDGE_BLOCK
            self._k, self._zpos, self._first = (
                a[keep] for a in (self._k, self._zpos, self._first))
            self._lane = lane
        if self._step == self._times.shape[1]:
            self._grow()
        if not self._left:
            self._top_up()
        known_t, known_w, k = self._known_t, self._known_w, self._k
        u = known_t[k]
        s, ws, hits = t, w, 0
        passed = u <= t_next
        if np.count_nonzero(passed):  # a lane short of its cursor's point hits nothing
            # The first known point at or after t_next, searched GALLOP points
            # a gather from the cursor (a lane's padding ends every search);
            # the point before it is after t.
            passed = passed.nonzero()[0]
            k_p, t_p = k[passed], t_next[passed]
            below = self._window[k_p] < t_p[:, None]  # a run of True, then False
            k_p += below.argmin(axis=1)  # 0 where all GALLOP are before t_next
            far = below[:, -1].nonzero()[0]
            while far.size:
                k_p[far] += GALLOP
                below = self._window[k_p[far]] < t_p[far, None]
                k_p[far] += below.argmin(axis=1)
                far = far[below[:, -1]]
            k[passed] = k_p
            u[passed] = known_t[k_p]
            s, ws = t.copy(), w.copy()
            s[passed], ws[passed] = known_t[k_p - 1], known_w[k_p - 1]
            hit = u == t_next  # the memoized value, and no draw
            hits = np.count_nonzero(hit)
        wu = known_w[k]
        z = self._zs[self._zpos]

        # Past the last known point u is inf: frac is 0, its term adds a zero
        # to ws, and the variance is the forward one, t_next - s.  A hit lane
        # computes a finite value that it does not use.
        lead = t_next - s
        span = u - s
        frac = lead / span
        var = np.divide(lead * (u - t_next), span, out=lead, where=u < np.inf)
        w_new = ws + frac * (wu - ws) + np.sqrt(var) * z

        slot = self._first + self._step
        self._step += 1
        self._left -= 1
        known_w[slot] = w_new
        if not hits:
            known_t[slot] = t_next
            self._zpos += 1
            return w_new
        known_t[slot] = np.where(hit, np.inf, t_next)
        self._zpos += ~hit
        k += hit
        return np.where(hit, wu, w_new)

    def _start(self, lane):
        """Start a walk of ``lane`` from t = 0, after merging the last one."""
        if self._step > self._base:
            self._merge_steps()
        self._lane = lane
        self._first = lane * self._times.shape[1]  # each lane's row, flat
        self._k = self._first + 1  # the point at t = 0 is every row's first
        col = self._col[lane]
        self._zpos = lane * BRIDGE_BLOCK + col
        self._left = BRIDGE_BLOCK - int(col.max(initial=0))

    def _grow(self):
        """Add columns for more steps, and move the cursors with their rows."""
        rows, capacity = self._times.shape
        more = max(capacity // 8, 64)
        self._k += self._lane * more
        self._first += self._lane * more
        self._rows(np.hstack((self._times, np.full((rows, more), np.inf))),
                   np.hstack((self._values, np.zeros((rows, more)))))

    def _top_up(self):
        """Refill every walking lane's block: its unused normals first, then
        as many new ones as it has used."""
        col = self._zpos - self._lane * BRIDGE_BLOCK
        for j, used in zip(self._lane.tolist(), col.tolist()):
            if used:
                block = self._z[j]
                block[:BRIDGE_BLOCK - used] = block[used:]
                self._rngs[j].standard_normal(out=block[BRIDGE_BLOCK - used:])
        self._zpos -= col
        self._left = BRIDGE_BLOCK

    def merge(self):
        """End the walk: its new points join each lane's known points before
        the next walk's first step, and every lane rewinds to t = 0."""
        if self._lane is not None:
            self._col[self._lane] = self._zpos - self._lane * BRIDGE_BLOCK
            self._lane = None

    def _merge_steps(self):
        """Sort the new points of the ended walk in among each lane's known
        points."""
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
        self._base = self._step = int(self._count.max(initial=0)) + GALLOP

    def known_points(self, j: int) -> list[tuple[float, float]]:
        """Lane ``j``'s known (time, value) pairs in time order, as of the
        last :meth:`merge`."""
        if self._lane is None and self._step > self._base:
            self._merge_steps()
        count = self._count[j]
        return list(zip(self._times[j, :count].tolist(), self._values[j, :count].tolist()))
