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
paths its exact oracle started.  The scalar path itself serves that oracle,
the replay of a failed trajectory or sample, ``--dump-trajectory`` and the
mesh audits of criteria 6 and 8.
"""

from __future__ import annotations

import math
import mmap
from bisect import bisect_right

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import NegativeTimeError, ReversedIntervalError

NORMAL_BLOCK = 64  # normals a forward source draws per lane at a time
BRIDGE_BLOCK = 256  # normals a bridge lane holds
_CELL = 4  # known points a bridge search cell holds, at least, as sized from the room
_CELL_BATCH = 2 ** 12  # points or cells a merge counts at once, to bound its memory
_count = np.count_nonzero.__wrapped__


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


def _table(rows: int, columns: int) -> np.ndarray:
    """A (rows, columns) complex array of padding, mapped outside the malloc heap:
    glibc, freeing a block this large, would keep megabytes of heap resident."""
    table = np.frombuffer(mmap.mmap(-1, 16 * rows * columns or 16), complex)[:rows * columns]
    table.real = np.inf
    return table.reshape(rows, columns)


class BridgeNoise:
    """Lane source that refines memoized paths: lane ``j`` continues
    ``paths[j]`` from its known points and its generator, and each query
    returns what ``paths[j].sample_at`` would return for the same queries.

    Lane j's points are row j of a complex array (time real, value imaginary):
    its known points in time order, then padding (infinite time).  A walk is
    a run of :meth:`advance` calls whose queries increase from t = 0 in every
    lane, ended by :meth:`merge`; step s writes each lane's new point, or
    infinite time for a hit, to column ``base + s``.  Each walking lane keeps
    a flat cursor ``k``, its first known point after its current time t.
    When no lane's query reaches its cursor's point, each lane bridges from
    its own (t, w) to that point, or draws forward past the last one.
    Otherwise every lane finds the first known point at or after its query in
    the same few array operations, however many points the step passes:
    cells of one power-of-two width split the time axis, a table holds each
    row's first point in each cell, and a window as wide as the fullest cell,
    plus one, from the start of the query's cell holds the point.  A hit
    returns the memoized value, draws nothing and moves the cursor past the
    point; any other query bridges to that point from the later of the point
    before it and the lane's own (t, w), in ``sample_at``'s order of
    operations (``np.sqrt`` is correctly rounded, like ``math.sqrt``).

    Each lane holds a block of ``BRIDGE_BLOCK`` normals; hits draw none; when
    the lane furthest into its block reaches its end, every walking lane
    keeps its unused normals and draws the rest (a block draw equals as many
    single draws, bit for bit).  A walk's new points join the known ones in
    one call, :meth:`merge`, which the caller makes before the next walk and
    before :meth:`known_points`.  ``room``, the new points per lane as far as
    known, sizes the columns and the cells.
    """

    def __init__(self, paths, room: int):
        self._rngs = [path._rng for path in paths]
        known = max((len(path._times) for path in paths), default=0)
        self._points = _table(len(paths), known + room + room // 8 + 1)
        self._flat = self._points.ravel()  # times the real part, values the imaginary
        for row, path in zip(self._points, paths):
            row[:len(path._times)] = path._times
            row.imag[:len(path._values)] = path._values
        # Cells of a power-of-two width: a time's cell is exact arithmetic, or a search.
        span = max((path._times[-1] for path in paths), default=0.0) or 1.0
        width = math.ldexp(1.0, math.frexp(span * _CELL / max(1, known + room))[1])
        cells = math.ceil(span / width)
        self._edges = np.arange(1, cells + 1) * width
        self._inv, self._top = np.array(1.0 / width), np.array(float(cells))
        self._cells = np.zeros((len(paths), cells + 1), dtype=np.int32)
        self._cells += np.arange(len(paths), dtype=np.int32)[:, None] * self._points.shape[1]
        self._starts = self._cells.ravel()  # a view: the table's updates show
        self._count = np.zeros(len(paths), dtype=np.intp)
        self._z = np.empty((len(paths), BRIDGE_BLOCK))
        self._zs = self._z.ravel()  # indexed by flat block positions
        self._col = np.full(len(paths), BRIDGE_BLOCK)  # each lane's next normal
        self._count_in(self._points[:, :known].real)
        self._lane = None  # the walking lanes, or None between walks

    def _cells_of(self, times):
        """Each row's points of ``times`` before each cell (infinite times count nowhere)."""
        key = np.minimum(times * self._inv, self._top).astype(np.intp)
        cells = int(self._top) + 1
        key += np.arange(len(times))[:, None] * cells
        n = np.bincount(key.ravel(), minlength=len(times) * cells).astype(np.int32)
        before = (n.cumsum(dtype=np.int32) - n).reshape(-1, cells)  # int32: no cast buffers
        return before - before[:, :1]

    def _count_in(self, times):
        """Count ``times``, columns of every row, into the rows' counts and cells
        (in batches of rows, to bound the temporaries); size the window to the
        fullest cell, and start the next walk's columns a window past them all."""
        rows, fullest = max(1, _CELL_BATCH // max(times.shape[1], self._cells.shape[1])), 0
        for r in range(0, len(times), rows):
            cells, count = self._cells[r:r + rows], self._count[r:r + rows]
            cells += self._cells_of(times[r:r + rows])
            count += np.count_nonzero(times[r:r + rows] < np.inf, axis=1)
            ends = cells[:, :1] + count[:, None]  # the first cell starts its row
            fullest = max(fullest, int(np.diff(cells, axis=1, append=ends).max(initial=0)))
        self._width = fullest + 1
        self._window = sliding_window_view(self._flat.real, self._width)
        self._base = self._step = int(self._count.max(initial=0)) + self._width

    def advance(self, lane, t, w, t_next):
        """W(t_next) of each lane in ``lane``, from its value ``w`` at ``t``."""
        if self._lane is None:
            self._start(lane)
        elif lane is not self._lane:  # lanes have left: keep the others' cursors
            keep = np.searchsorted(self._lane, lane)
            self._col[self._lane] = self._zpos - self._lane * BRIDGE_BLOCK
            self._k, self._zpos, self._first, self._cell = (
                a[keep] for a in (self._k, self._zpos, self._first, self._cell))
            self._lane = lane
        if self._step >= self._points.shape[1]:
            self._grow()
        if not self._left:
            self._top_up()
        p = self._flat.take(self._k)
        u, wu = p.real, p.imag
        s, ws, hits = t, w, 0
        passed = _count(u <= t_next)
        if passed:  # every lane looks up the first known point at or after t_next
            start = self._starts.take(self._cell + self._edges.searchsorted(t_next, "right"))
            k = self._k = start + (self._window[start] < t_next[:, None]).argmin(axis=1)
            before, p = self._flat.take(k - 1), self._flat.take(k)
            s, ws, u, wu = before.real, before.imag, p.real, p.imag
            if passed < lane.size:
                own = s < t  # the lane's last point is the later one
                s, ws = np.where(own, t, s), np.where(own, w, ws)
            hit = u == t_next  # the memoized value, and no draw
            hits = _count(hit)
        z = self._zs.take(self._zpos)

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
        self._flat.imag[slot] = w_new
        if not hits:
            self._flat.real[slot] = t_next
            self._zpos += 1
            return w_new
        self._flat.real[slot] = np.where(hit, np.inf, t_next)
        self._zpos += ~hit
        self._k += hit
        return np.where(hit, wu, w_new)

    def _start(self, lane):
        """Start a walk of ``lane`` from t = 0."""
        self._lane, self._first = lane, lane * self._points.shape[1]  # each lane's row, flat
        self._k = self._first + 1  # the point at t = 0 is every row's first
        self._cell = lane * self._cells.shape[1]
        col = self._col[lane]
        self._zpos = lane * BRIDGE_BLOCK + col
        self._left = BRIDGE_BLOCK - int(col.max(initial=0))

    def _grow(self):
        """Add columns for more steps, and move the flat positions with their rows."""
        rows, capacity = self._points.shape
        more = max(capacity // 8, 64, self._step + 1 - capacity)
        self._k += self._lane * more
        self._first += self._lane * more
        self._cells += np.arange(rows)[:, None] * more
        points, self._points = self._points, _table(rows, capacity + more)
        self._points[:, :capacity] = points
        self._flat = self._points.ravel()
        self._window = sliding_window_view(self._flat.real, self._width)

    def _top_up(self):
        """Refill each walking lane's block: its unused normals, then new ones."""
        col = self._zpos - self._lane * BRIDGE_BLOCK
        for j, used in zip(self._lane.tolist(), col.tolist()):
            if used:
                block = self._z[j]
                block[:BRIDGE_BLOCK - used] = block[used:]
                self._rngs[j].standard_normal(out=block[BRIDGE_BLOCK - used:])
        self._zpos -= col
        self._left = BRIDGE_BLOCK

    def merge(self):
        """End the walk, and merge its new points into the known ones: the
        cell table counts them in, and a stable sort of each row merges its
        two runs.  Every lane rewinds to t = 0; with no new points, nothing
        changes."""
        if self._lane is not None:
            self._col[self._lane] = self._zpos - self._lane * BRIDGE_BLOCK
            self._lane = None
        step = self._step
        if step > self._base:
            self._count_in(self._points[:, self._base:step].real)
            self._points[:, :step].sort(kind="stable")

    def known_points(self, j: int) -> list[tuple[float, float]]:
        """Lane ``j``'s known (time, value) pairs in time order, as of the last merge."""
        row = self._points[j, :self._count[j]]
        return list(zip(row.real.tolist(), row.imag.tolist()))
