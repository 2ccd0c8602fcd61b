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
# np.count_nonzero without its __array_function__ dispatch, which costs more
# than the count on a few dozen lanes; the lane engine's masks are ndarrays.
_count = np.count_nonzero.__wrapped__
# The time of a bridge row's padding, whose value is 0: a power of two so far
# past any query t below 2^458 that u - t rounds to u, so that bridging to it
# gives the forward draw exactly (see BridgeNoise.advance).
_PAD = 2.0 ** 512


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
    block draw equals as many single draws, bit for bit) together, a row of
    one array a lane.  A step reads its normals as a column of that block;
    once lanes have left, it takes the column's entries in the rows of the
    lanes still walking, so the block is never copied.  ``dt``, the walk's
    ``t_next - t``, saves computing it again.
    """

    def __init__(self, rngs):
        self._rngs = rngs
        # The block _z holds a row for each lane of the call that drew it
        # (_drawn); _rows, once lanes have left, the rows of the last call's.
        self._lane = self._drawn = self._rows = self._z = None
        self._col = NORMAL_BLOCK

    def advance(self, lane, t, w, t_next, dt=None):
        """W(t_next) of each lane in ``lane``, from its value ``w`` at ``t``;
        ``dt``, if given, is ``t_next - t``."""
        if self._col == NORMAL_BLOCK:
            self._z = np.empty((lane.size, NORMAL_BLOCK))
            for row, index in zip(self._z, lane.tolist()):
                self._rngs[index].standard_normal(out=row)
            self._col, self._drawn, self._rows = 0, lane, None
        elif lane is not self._lane:  # lanes have left: the others' rows
            self._rows = np.searchsorted(self._drawn, lane)
        self._lane, z = lane, self._z[:, self._col]
        self._col += 1
        z = z if self._rows is None else z.take(self._rows)
        return w + np.sqrt(t_next - t if dt is None else dt) * z


def _table(rows: int, columns: int) -> np.ndarray:
    """A (rows, columns) complex array of padding, mapped outside the malloc heap:
    glibc, freeing a block this large, would keep megabytes of heap resident."""
    table = np.frombuffer(mmap.mmap(-1, 16 * rows * columns or 16), complex)[:rows * columns]
    table.real = _PAD
    return table.reshape(rows, columns)


class BridgeNoise:
    """Lane source that refines memoized paths: lane ``j`` continues
    ``paths[j]`` from its known points and its generator, and each query
    returns what ``paths[j].sample_at`` would return for the same queries.

    Lane j's points are row j of a complex array (time real, value imaginary):
    its known points in time order, then padding (time ``_PAD``, value 0).  A
    walk is a run of :meth:`advance` calls whose queries increase from t = 0
    in every lane, ended by :meth:`merge`; step s writes each lane's new
    point, or padding for a hit, to column ``base + s``.  Each walking lane
    keeps its first known point after its current time t.  When no lane's
    query reaches that point, each lane bridges from its own (t, w) to it;
    past the last known point, that is the padding, and the bridge is the
    forward draw, bit for bit.  Times stay below 2^458, so the padding
    follows every point (a study's levels step at most 1 at a time, so its
    horizon could never come near).  Otherwise every lane finds the first
    known point after its query in the same few array operations, however
    many points the step passes: cells of one power-of-two width split the
    time axis, a table holds each row's first point in each cell, and a
    window as wide as the fullest cell, plus one, from the start of the
    query's cell holds the point.  The point before it, unless the lane's own
    (t, w) is later, is the left neighbour; at the query's time it is a hit.
    Every lane then takes the same arithmetic, in ``sample_at``'s order of
    operations (``np.sqrt`` is correctly rounded, like ``math.sqrt``): a
    hit's left neighbour is at the query, so its value comes out as the
    memoized one, bit for bit, and it draws no normal.

    Each lane holds a block of ``BRIDGE_BLOCK`` normals; hits draw none; when
    the lane furthest into its block reaches its end, every walking lane
    keeps its unused normals and draws the rest (a block draw equals as many
    single draws, bit for bit).  A walk's new points join the known ones in
    one call, :meth:`merge`, which the caller makes before the next walk and
    before :meth:`known_points`.  ``room``, the new points per lane as far as
    known, sizes the columns and the cells, and the cells span [0, ``horizon``],
    the walks' last query time.
    """

    def __init__(self, paths, room: int, horizon: float):
        self._rngs = [path._rng for path in paths]
        known = max((len(path._times) for path in paths), default=0)
        self._points = _table(len(paths), known + room + room // 8 + 1)
        self._flat = self._points.ravel()  # times the real part, values the imaginary
        self._times, self._values = self._flat.real, self._flat.imag
        for row, path in zip(self._points, paths):
            row[:len(path._times)] = path._times
            row.imag[:len(path._values)] = path._values
        # Cells of a power-of-two width: a time's cell is exact arithmetic, or a search.
        width = math.ldexp(1.0, math.frexp(horizon * _CELL / max(1, known + room))[1])
        cells = math.ceil(horizon / width)
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

    def _count_in(self, times):
        """Count ``times``, columns of every row (padding counts nowhere), into
        the rows' counts and cells, in batches of rows to bound the
        temporaries; size the window to the fullest cell, and start the next
        walk's columns a window past them all."""
        columns = self._cells.shape[1]  # one a cell, and one past the last
        rows, fullest = max(1, _CELL_BATCH // max(times.shape[1], columns)), 0
        offsets = np.arange(rows)[:, None] * columns
        for r in range(0, len(times), rows):
            block, cells = times[r:r + rows], self._cells[r:r + rows]
            count = self._count[r:r + rows]
            key = np.minimum(block * self._inv, self._top).astype(np.intp)  # each time's cell
            key += offsets[:len(key)]
            n = np.bincount(key.ravel(), minlength=len(key) * columns).astype(np.int32)
            before = (n.cumsum(dtype=np.int32) - n).reshape(-1, columns)  # int32: no cast buffers
            cells += before - before[:, :1]
            count += np.add.reduce(block < _PAD, axis=1)
            last = cells[:, 0] + count - cells[:, -1]  # points past the last cell's start
            fullest = max(fullest, np.maximum.reduce(cells[:, 1:] - cells[:, :-1], axis=None),
                          np.maximum.reduce(last))
        self._width = int(fullest) + 1
        self._window = sliding_window_view(self._times, self._width)
        self._base = self._step = int(self._count.max(initial=0)) + self._width

    def advance(self, lane, t, w, t_next, dt=None):
        """W(t_next) of each lane in ``lane``, from its value ``w`` at ``t``
        (``dt``, ``t_next - t``, is not needed here)."""
        if self._lane is None:
            self._start(lane)
        elif lane is not self._lane:  # lanes have left: keep the others' cursors
            keep = np.searchsorted(self._lane, lane)
            self._col[self._lane] = self._zpos - self._lane * BRIDGE_BLOCK
            self._zpos, self._first, self._cell, self._u, self._wu = (
                a[keep] for a in (self._zpos, self._first, self._cell, self._u, self._wu))
            self._lane = lane
        if self._step >= self._points.shape[1]:
            self._grow()
        if not self._left:
            self._top_up()
        u, wu = self._u, self._wu  # each lane's first known point after t
        s, ws, hits = t, w, 0
        reached = _count(u <= t_next)
        if reached:  # every lane looks up the first known point after t_next
            start = self._starts.take(self._cell + self._edges.searchsorted(t_next, "right"))
            k = start + (self._window[start] <= t_next[:, None]).argmin(axis=1)
            before, p = self._flat.take(k - 1), self._flat.take(k)
            s, ws = before.real, before.imag  # the last known point at or before t_next
            if reached < lane.size:  # where it is before t, the lane's own point is later
                own = s < t
                s, ws = np.where(own, t, s), np.where(own, w, ws)
            u, wu = self._u, self._wu = p.real, p.imag
            fresh = s < t_next  # a hit returns the memoized value and draws nothing
            hits = lane.size - _count(fresh)
        z = self._zs.take(self._zpos)

        # A hit has lead 0, so frac and var are 0 and the value is ws, bit for
        # bit.  Past the last known point u is the padding: u - t_next and span
        # round to u, a power of two, so var is lead, the forward variance,
        # exactly; frac is lead / u, below 2^-54, so ws + frac * (0 - ws)
        # rounds to ws.
        lead = t_next - s
        span = u - s
        frac = lead / span
        var = lead * (u - t_next)
        var /= span
        w_new = ws + frac * (wu - ws) + np.sqrt(var) * z

        slot = self._first + self._step
        self._step += 1
        self._left -= 1
        if hits:  # a hit's slot is padding, its value 0
            self._times[slot] = np.where(fresh, t_next, _PAD)
            self._values[slot] = w_new * fresh
            self._zpos += fresh
        else:
            self._times[slot] = t_next
            self._values[slot] = w_new
            self._zpos += 1
        return w_new

    def _start(self, lane):
        """Start a walk of ``lane`` from t = 0."""
        self._lane, self._first = lane, lane * self._points.shape[1]  # each lane's row, flat
        p = self._flat.take(self._first + 1)  # the first after t = 0, each row's first point
        self._u, self._wu = p.real, p.imag
        self._cell = lane * self._cells.shape[1]
        col = self._col[lane]
        self._zpos = lane * BRIDGE_BLOCK + col
        self._left = BRIDGE_BLOCK - int(col.max(initial=0))

    def _grow(self):
        """Add columns for more steps, and move the flat positions with their rows."""
        rows, capacity = self._points.shape
        more = max(capacity // 8, 64, self._step + 1 - capacity)
        self._first += self._lane * more
        self._cells += np.arange(rows)[:, None] * more
        points, self._points = self._points, _table(rows, capacity + more)
        self._points[:, :capacity] = points
        self._flat = self._points.ravel()
        self._times, self._values = self._flat.real, self._flat.imag
        self._window = sliding_window_view(self._times, self._width)

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
