"""Monte Carlo experiment engine.

Three experiments are provided:

* :func:`strong_order_study` estimates the strong (mean-square) convergence
  order of the hybrid solver on the linear test model.  Per sample, one chain
  and one Brownian path are reused across every grid level, and the exact
  solution is evaluated first so all levels are coupled pathwise through the
  shared memoized path.
* :func:`run_ensemble` gathers terminal-value statistics and a density
  histogram over independent trajectories.
* :func:`mean_change_study` draws uniform initial values, runs several
  trajectories per initial, and reports per-initial and grand mean changes
  over the horizon.

All three walk their trajectories in lane groups through the batched walk
:func:`switchsde.schemes.solve_terminals`.  The ensemble and the mean-change
study are reductions over the per-index arrays of one engine, whose lanes
draw fresh paths forward (:class:`switchsde.noise.ForwardNoise`).  The
strong-order study walks each grid level of a group's samples as lanes, finest
first, on one bridge source (:class:`switchsde.noise.BridgeNoise`) that
continues the paths its exact oracle started.  The scalar walk stays the
reference, and now serves only to replay: it supplies the error of each
trajectory or sample the batched walk marks as failed, replays any index bit
for bit for ``--dump-trajectory`` (:func:`first_trajectory` replays index 0),
and walks the mesh audits of acceptance criteria 6 and 8.

Seeding: every trajectory gets independent chain / noise / auxiliary random
streams derived from the master seed and the trajectory index through
``numpy.random.SeedSequence`` spawn keys, so results do not depend on
execution order and are reproducible bit for bit.  One stream of many
indices is derived at once: SeedSequence's hash runs as array arithmetic and
gives each index the PCG64 state SeedSequence would.  The noise stream, whose
normals need numpy's ziggurat tables, becomes one generator an index
(:func:`substream_rngs`); the initial, aux and chain streams of a lane group
are drawn as lanes of one array PCG64 (:class:`LaneUniforms`), bit for bit
the draws of those generators, and build none.  A group's chains are sampled
together as lanes (:func:`switchsde.ctmc.simulate_chains`), each from its own
chain stream, so each is bit for bit the chain that it would be alone.
"""

from __future__ import annotations

import functools
import logging
import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np

# simulate_chain, the one-lane sampler, stays importable from here: the
# benchmark's tracer (bench/tracing.py) wraps harness.simulate_chain.
from .ctmc import Chains, GeneratorMatrix, simulate_chain, simulate_chains  # noqa: F401
from .errors import (
    AllTrajectoriesFailedError,
    DegenerateGridError,
    HistogramRangeError,
    InvalidParamsError,
    NonfiniteResultError,
    RootNotFoundError,
    StepBudgetExceededError,
)
from .models import LinearModelParams, RegimeModel, exact_linear_solution, linear_model
from .noise import BridgeNoise, BrownianPath, ForwardNoise
from .schemes import Trajectory, solve_terminal, solve_terminals, solve_trajectory
from .stepping import StepParams, build_mesh_bound

logger = logging.getLogger(__name__)

BACKSTOP_WARN_FRACTION = 0.05
# Trajectories the batched walk steps together, and whose substreams a study
# derives together.  Groups bound a study's memory (each lane holds its chain,
# its noise generator and a block of normals) at any study size.
LANE_GROUP = 1024
# Brownian points the strong-order study's lanes hold at once, 16 bytes each
# (a time and a value), besides each lane's free columns and its block of
# 256 normals (2 kB): a lane holds every point of its path, so a fine grid
# walks fewer samples together.
COUPLED_POINTS = 2 ** 22

_TRAJECTORY_FAILURES = (NonfiniteResultError, RootNotFoundError, StepBudgetExceededError)

# Per-trajectory substream tags.
CHAIN_STREAM = 0
NOISE_STREAM = 1
AUX_STREAM = 2
INITIAL_STREAM = 3


# numpy.random.SeedSequence's hash constants, for its default pool of 4 words.
_MASK32 = 0xFFFFFFFF
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _words(n: int) -> list[int]:
    """The 32-bit words of an integer, low first, as SeedSequence splits it."""
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _pcg64_states(entropy: list, n: int) -> np.ndarray:
    """``SeedSequence.generate_state(4, uint64)`` of ``n`` entropy sequences,
    as an (n, 4) array.  ``entropy`` holds the assembled words in order: each
    a Python int that all n share, or a uint32 array with one word per row.

    The hash constant advances with each hash, not with the data, so the rows
    share its sequence and each word position is one array operation (a
    shared word stays a Python int).  Uint32 arrays wrap modulo 2**32
    silently, and the masks keep Python ints to 32 bits.
    """
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * _MULT_A & _MASK32
        value = value * const & _MASK32
        return value ^ (value >> 16)

    def mix(x, y):
        result = ((_MIX_L * x & _MASK32) - (_MIX_R * y & _MASK32)) & _MASK32
        return result ^ (result >> 16)

    pool = [hashmix(word) for word in entropy[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))

    const = _INIT_B
    state = np.empty((n, 2 * _POOL), dtype=np.uint32)
    for i in range(2 * _POOL):
        value = pool[i % _POOL] ^ const
        const = const * _MULT_B & _MASK32
        value = value * const & _MASK32
        state[:, i] = value ^ (value >> 16)
    return state.view("<u8").astype(np.uint64)  # little-endian word pairs


@functools.cache
def _preset_state():
    """The seed sequence that hands a bit generator the state words computed
    for it.  Made on first use: importing the package does not import
    ``numpy.random``."""
    from numpy.random.bit_generator import ISeedSequence

    class PresetState(ISeedSequence):
        __slots__ = ("state",)

        def __init__(self, state: np.ndarray):
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):
            return self.state

    return PresetState


def _substream_states(seed: int, indices, stream: int) -> np.ndarray:
    """The PCG64 state words of (trajectory index, substream) for each of
    ``indices``, one row each, in order: the words that
    ``numpy.random.SeedSequence(seed, spawn_key=(index, stream))`` generates.

    The entropy is the seed's words, zero-padded to the pool size, then the
    index's and the stream's; indices are hashed together in groups of one
    word count (an index of 2**32 or more takes more than one word)."""
    head = _words(operator.index(seed))
    head += [0] * (_POOL - len(head))
    tail = _words(stream)
    indices = [operator.index(i) for i in indices]
    if min(indices, default=0) < 0:
        raise ValueError("expected non-negative integer")
    counts = np.array([max(1, -(-i.bit_length() // 32)) for i in indices], dtype=np.intp)
    states = np.empty((len(indices), _POOL), dtype=np.uint64)
    for count in set(counts.tolist()):
        where = np.flatnonzero(counts == count)
        index = [indices[pos] for pos in where.tolist()]
        words = [np.array([(i >> 32 * k) & _MASK32 for i in index], dtype=np.uint32)
                 for k in range(count)]
        states[where] = _pcg64_states(head + words + tail, where.size)
    return states


def substream_rngs(seed: int, indices, stream: int) -> list[np.random.Generator]:
    """Generator of (trajectory index, substream) for each of ``indices``, in
    order: the generator ``numpy.random.default_rng(numpy.random.SeedSequence(
    seed, spawn_key=(index, stream)))``, with the same state and draws."""
    preset = _preset_state()
    return [np.random.Generator(np.random.PCG64(preset(state)))
            for state in _substream_states(seed, indices, stream)]


# PCG64's 128-bit multiplier (numpy's PCG_DEFAULT_MULTIPLIER_128) as its high
# and low words, the low word's 32-bit halves, and the shifts and masks of the
# step and the output, as 0-d arrays: a ufunc takes them at the cost of an
# array, where a Python int or a numpy scalar costs more.
_MULT_HI, _MULT_LO, _MULT_LO1, _MULT_LO0, _LOW32, _HIGH1, _S11, _S32, _S58, _S64 = (
    np.array(c, dtype=np.uint64) for c in (0x2360ED051FC65DA4, 0x4385DF649FCCF645,
                                           0x4385DF64, 0x9FCCF645, _MASK32, 2 ** 32,
                                           11, 32, 58, 64))
_ULP53 = np.array(2.0 ** -53)


def _pcg64_step(hi, lo, inc_hi, inc_lo):
    """The high and low words of PCG64's next state ``state * mult + inc``
    (mod 2**128), from the words of ``state`` and ``inc``; uint64 arrays wrap
    modulo 2**64 silently.  The high word of ``lo * mult_lo`` comes from the
    32-bit limbs: ``t`` stays below 2**64 and ``u`` wraps at most once, so
    ``u < t`` is its carry.  Terms are summed in place, sparing a temporary
    array each (a draw at a group's size took about a tenth less)."""
    lo0, lo1 = lo & _LOW32, lo >> _S32
    t = lo0 * _MULT_LO0
    t >>= _S32
    t += lo0 * _MULT_LO1
    u = lo1 * _MULT_LO0
    u += t
    new_lo = lo * _MULT_LO
    new_lo += inc_lo
    new_hi = hi * _MULT_LO
    new_hi += lo * _MULT_HI
    lo1 *= _MULT_LO1
    new_hi += lo1
    new_hi += (u < t) * _HIGH1
    u >>= _S32
    new_hi += u
    new_hi += inc_hi
    new_hi += new_lo < inc_lo
    return new_hi, new_lo


class LaneUniforms:
    """The uniform draws of a lane group's substreams, one PCG64 a lane run
    together as uint64 array arithmetic, with no ``numpy.random`` object.

    Lane j draws, bit for bit, what the generator seeded with row j of
    ``states`` (:func:`_substream_states`) draws from ``random()``,
    ``integers(n)`` and ``uniform(lo, hi)``: numpy seeds PCG64 with
    ``state = w0 << 64 | w1`` and ``inc = w2 << 64 | w3`` (``pcg64_set_seed``),
    steps before each output, and outputs the XSL-RR of the new state.  A
    double is the output's top 53 bits times 2**-53; a bounded integer takes
    32-bit halves by Lemire's method, each output's low half first and its
    high half from the lane's buffer.  Each state word is an array over the
    lanes, so a draw for a subset of lanes takes a gather and a scatter.
    """

    def __init__(self, states: np.ndarray):
        seed_hi, seed_lo, seq_hi, seq_lo = states.T
        self.inc_hi, self.inc_lo = (seq_hi << 1) | (seq_lo >> 63), (seq_lo << 1) | 1
        # pcg_setseq_128_srandom_r: from state 0 one step gives inc, then
        # state += seed and one more step.
        lo = self.inc_lo + seed_lo
        hi = self.inc_hi + seed_hi + (lo < self.inc_lo)
        self.hi, self.lo = _pcg64_step(hi, lo, self.inc_hi, self.inc_lo)
        self.half = np.zeros(states.shape[0], dtype=np.uint64)  # a buffered high half
        self.has_half = np.zeros(states.shape[0], dtype=bool)

    def __len__(self) -> int:
        return self.half.size

    def _next64(self, lanes) -> np.ndarray:
        """The next output of each lane in ``lanes``, distinct lane numbers."""
        hi, lo = _pcg64_step(self.hi.take(lanes), self.lo.take(lanes),
                             self.inc_hi.take(lanes), self.inc_lo.take(lanes))
        self.hi[lanes], self.lo[lanes] = hi, lo
        x, rot = hi ^ lo, hi >> _S58
        left = x << _S64 - rot  # a shift by 64 gives 0
        x >>= rot
        x |= left
        return x

    def random(self, lanes=None) -> np.ndarray:
        """The next uniform on [0, 1) of each lane in ``lanes`` (every lane if
        None), as ``Generator.random()`` draws it."""
        bits = self._next64(np.arange(len(self)) if lanes is None else lanes)
        bits >>= _S11
        out = bits.astype(np.float64)
        out *= _ULP53
        return out

    def uniform(self, lo: float, hi: float) -> np.ndarray:
        """The next ``Generator.uniform(lo, hi)`` of every lane."""
        return lo + (hi - lo) * self.random()

    def _next32(self, lanes) -> np.ndarray:
        """The next 32-bit output of each lane in ``lanes``: a buffered high
        half if the lane has one, else the low half of a new output."""
        out = self.half[lanes]
        fresh = ~self.has_half[lanes]
        if fresh.any():
            drawn = self._next64(lanes[fresh])
            out[fresh] = drawn & _LOW32
            self.half[lanes[fresh]] = drawn >> _S32
        self.has_half[lanes] = fresh
        return out

    def integers(self, n: int) -> np.ndarray:
        """The next ``Generator.integers(n)`` of every lane, for 1 <= n <= 2**32
        (n = 1 draws nothing)."""
        if not 1 <= n <= 2 ** 32:
            raise ValueError(f"need 1 <= n <= 2**32, got {n}")
        if n == 1:
            return np.zeros(len(self), dtype=np.int64)
        bound = np.uint64(n)
        lanes = np.arange(len(self))
        m = self._next32(lanes) * bound
        threshold = (2 ** 32 - n) % n
        redraw = lanes[(m & _LOW32) < threshold]
        while redraw.size:
            m[redraw] = self._next32(redraw) * bound
            redraw = redraw[(m[redraw] & _LOW32) < threshold]
        return (m >> _S32).astype(np.int64)


def substream_uniforms(seed: int, indices, stream: int) -> LaneUniforms:
    """The uniform draws of substream ``stream`` of ``indices``, lane j drawing
    those of ``substream_rngs(seed, indices, stream)[j]``."""
    return LaneUniforms(_substream_states(seed, indices, stream))


def substream_rng(seed: int, index: int, stream: int) -> np.random.Generator:
    """Independent generator for (trajectory index, substream)."""
    return substream_rngs(seed, [index], stream)[0]


@dataclass(frozen=True)
class ConvergenceReport:
    """Strong-error study result: RMS terminal errors per grid level and the
    least-squares slope of log(error) against log(h_max)."""

    h_max_grid: tuple[float, ...]
    rms_errors: tuple[float, ...]
    fitted_order: float
    sample_count: int
    scheme: str


@dataclass(frozen=True)
class EnsembleSummary:
    """Terminal-value statistics over the successful trajectories."""

    terminal_values: np.ndarray
    mean: float
    std_dev: float
    standard_error: float
    bin_edges: np.ndarray
    densities: np.ndarray
    backstop_fraction: float
    failed_count: int


@dataclass(frozen=True)
class MeanChangeReport:
    """Per-initial series (sorted by initial value) plus the grand mean change.

    ``summary`` aggregates the per-initial mean changes, matching the density
    histogram of mean changes; ``single_finals`` holds one representative
    trajectory's final value per initial (the first successful run).
    """

    initials: np.ndarray
    mean_finals: np.ndarray
    single_finals: np.ndarray
    mean_changes: np.ndarray
    grand_mean_change: float
    summary: EnsembleSummary
    failed_count: int


def _histogram(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Freedman-Diaconis density histogram; densities integrate to one."""
    try:
        edges = np.histogram_bin_edges(values, bins="fd")
    except ValueError as exc:  # a range below the values' float resolution
        raise HistogramRangeError(f"cannot bin the values: {exc}") from exc
    densities, _ = np.histogram(values, bins=edges, density=True)
    return edges, densities


def _statistic(stat, values: np.ndarray) -> float:
    """``stat(values)`` of a statistic that scales with its values, such as a
    mean, a standard deviation or a root mean square.  Where a sum or a
    square of finite values passes the float range, it is taken of the values
    scaled into [-1, 1] and scaled back."""
    with np.errstate(over="ignore"):
        result = float(stat(values))
    if math.isinf(result):
        scale = float(np.max(np.abs(values)))
        if scale < math.inf:
            result = float(stat(values / scale)) * scale
    return result


def _summarize(values: np.ndarray, backstop_fraction: float,
               failed_count: int) -> EnsembleSummary:
    values = np.asarray(values, dtype=float)
    mean = _statistic(np.mean, values)
    if len(values) > 1:
        std = _statistic(functools.partial(np.std, ddof=1), values)
        se = std / math.sqrt(len(values))
    else:
        std = 0.0
        se = 0.0
    edges, densities = _histogram(values)
    return EnsembleSummary(terminal_values=values, mean=mean, std_dev=std,
                           standard_error=se, bin_edges=edges, densities=densities,
                           backstop_fraction=backstop_fraction, failed_count=failed_count)


def _is_integer(n) -> bool:
    """An exact integer: an ``int`` or a numpy integer, never a ``bool``."""
    return isinstance(n, (int, np.integer)) and not isinstance(n, bool)


def check_run_args(num_states: int, g: GeneratorMatrix, r0, T: float,
                   *counts: int) -> None:
    """Checks shared by every study: the generator matches the model's state
    count, the horizon is in (0, inf), ``r0`` is ``'uniform'`` or an integer
    state in 1..num_states, and every trajectory count is an integer >= 1."""
    if g.num_states != num_states:
        raise InvalidParamsError(
            f"generator has {g.num_states} states, model {num_states}")
    if not 0.0 < T < math.inf:
        raise InvalidParamsError(f"horizon must be positive and finite, got {T}")
    if r0 != "uniform" and not (_is_integer(r0) and 1 <= r0 <= num_states):
        raise InvalidParamsError(f"r0={r0!r} is not 'uniform' or a state 1..{num_states}")
    if not all(_is_integer(n) and n >= 1 for n in counts):
        raise InvalidParamsError(f"trajectory counts must be integers >= 1, got {counts}")


def check_strong_order_args(params: LinearModelParams, g: GeneratorMatrix, x0: float,
                            T: float, grid, rho: float, k: float, M: int,
                            r0: int) -> list[StepParams]:
    """The argument checks of :func:`strong_order_study`: every grid level's
    step parameters must be valid, and the finest level, which has the largest
    step cap, must have a finite one.  Returns the levels' step parameters."""
    if not math.isfinite(x0):
        raise InvalidParamsError(f"x0 must be finite, got {x0!r}")
    if len(grid) < 3:
        raise DegenerateGridError(f"need at least 3 grid levels, got {len(grid)}")
    if any(b >= a for a, b in zip(grid, grid[1:])):
        raise DegenerateGridError("grid must be strictly decreasing")
    if r0 == "uniform":
        raise InvalidParamsError("the strong-order study needs a fixed r0, got 'uniform'")
    check_run_args(params.num_states, g, r0, T, M)
    if M < 100:
        raise InvalidParamsError(f"need M >= 100 samples, got {M}")
    step_params = [StepParams(h_max=h, rho=rho, k=k) for h in grid]
    build_mesh_bound(T, step_params[-1], 0)
    return step_params


def check_ensemble_args(model: RegimeModel, g: GeneratorMatrix, initial, r0, T: float,
                        p: StepParams, M: int, runs_per_initial: int) -> None:
    """The argument checks of :func:`run_ensemble`, the step cap included."""
    if isinstance(initial, (tuple, list)):
        if not (len(initial) == 2 and 0 < initial[1] - initial[0] < math.inf):
            raise InvalidParamsError(f"need a pair lo < hi with hi - lo finite, got {initial}")
    elif not (isinstance(initial, numbers.Real) or isinstance(initial, np.ndarray)
              and initial.shape == () and initial.dtype.kind in "biuf"):
        raise InvalidParamsError(f"initial must be a number or a (lo, hi) tuple or list, "
                                 f"got {initial!r}")
    elif not math.isfinite(initial):
        raise InvalidParamsError(f"initial must be finite, got {initial!r}")
    check_run_args(model.num_states, g, r0, T, M, runs_per_initial)
    build_mesh_bound(T, p, 0)


def check_mean_change_args(model: RegimeModel, g: GeneratorMatrix, lo: float, hi: float,
                           t_start_day: float, t_end_day: float, n_initials: int,
                           runs_per_initial: int, p: StepParams, r0) -> None:
    """The argument checks of :func:`mean_change_study`, the step cap included."""
    if not (0 < lo and 0 < hi - lo < math.inf):
        raise InvalidParamsError(f"need 0 < lo < hi with hi - lo finite, got ({lo}, {hi})")
    if not t_end_day > t_start_day:
        raise InvalidParamsError(
            f"need t_end_day > t_start_day, got ({t_start_day}, {t_end_day})")
    check_run_args(model.num_states, g, r0, t_end_day - t_start_day, n_initials,
                   runs_per_initial)
    build_mesh_bound(t_end_day - t_start_day, p, 0)


def _draw_initials(initial, seed: int, outer) -> np.ndarray:
    """Initial values of the outer indices ``outer``: fixed, or uniform on
    ``(lo, hi)`` from each outer index's initial stream."""
    if isinstance(initial, (tuple, list)):
        lo, hi = float(initial[0]), float(initial[1])
        return substream_uniforms(seed, outer, INITIAL_STREAM).uniform(lo, hi)
    return np.full(len(outer), float(initial))


def _draw_initial(initial, seed: int, j: int) -> float:
    """Initial value of outer index ``j``."""
    return float(_draw_initials(initial, seed, [j])[0])


def _trajectory_chains(g: GeneratorMatrix, r0, T: float, seed: int, indices) -> Chains:
    """Chains of the trajectories ``indices``, sampled together as one lane
    group (:func:`switchsde.ctmc.simulate_chains`): lane j is the chain of
    ``indices[j]``, drawn from its chain stream.  A ``'uniform'`` r0 is drawn
    from each trajectory's auxiliary stream."""
    if r0 == "uniform":
        starts = 1 + substream_uniforms(seed, indices, AUX_STREAM).integers(g.num_states)
    else:
        starts = [int(r0)] * len(indices)
    return simulate_chains(g, starts, T, substream_uniforms(seed, indices, CHAIN_STREAM))


def trajectory_chain(g: GeneratorMatrix, r0, T: float, seed: int, index: int):
    """Chain of trajectory ``index``, a one-lane group's path."""
    return _trajectory_chains(g, r0, T, seed, [index]).path(0)


def _backstop_fraction(n_steps: np.ndarray, n_backstop: np.ndarray) -> float:
    """Backstop share of all steps taken; warns when the backstop is not rare."""
    steps = int(n_steps.sum())
    fraction = int(n_backstop.sum()) / steps if steps else 0.0
    if fraction >= BACKSTOP_WARN_FRACTION:
        logger.warning("backstop used on %.1f%% of steps (design intent: rare)",
                       100.0 * fraction)
    return fraction


def _simulate_terminals(model: RegimeModel, g: GeneratorMatrix, initial, r0, T: float,
                        p: StepParams, n_initials: int, runs_per_initial: int,
                        seed: int, scheme: str):
    """Per-trajectory arrays ``(x0, y, n_steps, n_backstop, failed)`` of
    ``n_initials * runs_per_initial`` trajectories, indexed by
    ``j * runs_per_initial + r``.  The runs of outer index ``j`` share its
    initial value; a failed trajectory has ``y`` NaN and zero step counts.

    The batched walk takes ``LANE_GROUP`` trajectories at a time and marks
    which failed; the scalar walk replays each failed index, in index order,
    and its error is logged if it is a trajectory failure, else raised."""
    total = n_initials * runs_per_initial
    x0 = np.empty(total)
    y = np.full(total, np.nan)
    n_steps = np.zeros(total, dtype=np.int64)
    n_backstop = np.zeros(total, dtype=np.int64)
    failed = np.zeros(total, dtype=bool)
    for first in range(0, total, LANE_GROUP):
        group = range(first, min(first + LANE_GROUP, total))
        # The outer indices whose first run is in the group set all their runs.
        outer = range(-(-group.start // runs_per_initial), -(-group.stop // runs_per_initial))
        x0[outer.start * runs_per_initial:outer.stop * runs_per_initial] = np.repeat(
            _draw_initials(initial, seed, outer), runs_per_initial)
        chains = _trajectory_chains(g, r0, T, seed, group)
        lanes = slice(group.start, group.stop)
        y[lanes], n_steps[lanes], n_backstop[lanes], failed[lanes] = solve_terminals(
            model, chains, ForwardNoise(substream_rngs(seed, group, NOISE_STREAM)),
            x0[lanes], T, p, scheme)
        for lane in np.flatnonzero(failed[lanes]).tolist():
            idx = first + lane
            path = BrownianPath(substream_rng(seed, idx, NOISE_STREAM))
            try:
                solve_terminal(model, chains.path(lane), path, x0[idx], T, p, scheme)
            except _TRAJECTORY_FAILURES as exc:
                logger.warning("trajectory %d failed: %s", idx, exc)
            else:
                raise RuntimeError(f"trajectory {idx} failed in the batched walk "
                                   "but not in its scalar walk")
    if failed.all():
        raise AllTrajectoriesFailedError(f"all {total} trajectories failed")
    return x0, y, n_steps, n_backstop, failed


def first_trajectory(model: RegimeModel, g: GeneratorMatrix, initial, r0, T: float,
                     p: StepParams, seed: int, scheme: str = "milstein") -> Trajectory:
    """Trajectory 0 of :func:`run_ensemble` or :func:`mean_change_study` run
    with the same arguments (initial ``(lo, hi)`` for the latter), with every
    step record."""
    path = BrownianPath(substream_rng(seed, 0, NOISE_STREAM))
    return solve_trajectory(model, trajectory_chain(g, r0, T, seed, 0), path,
                            _draw_initial(initial, seed, 0), T, p, scheme)


def _replay_sample(params: LinearModelParams, model: RegimeModel, x0: float, T: float,
                   step_params, scheme: str, chain, index: int, rng) -> None:
    """Raise the error of sample ``index`` of the strong-order study, which
    failed in the batched walk, from its scalar walk: the exact value first,
    then each level from the finest, all on one fresh path."""
    path = BrownianPath(rng)
    exact_linear_solution(params, x0, chain, path, T)
    for p in reversed(step_params):
        solve_terminal(model, chain, path, x0, T, p, scheme)
    raise RuntimeError(f"sample {index} failed in the batched walk but not in its "
                       "scalar walk")


def _coupled_errors(params: LinearModelParams, model: RegimeModel, x0: float, T: float,
                    step_params, scheme: str, chains, rngs, room: int):
    """Errors ``(level, sample)`` of the samples whose chains and noise
    generators are ``chains`` and ``rngs``, and a mask of the samples that
    failed.  Each error is, bit for bit, the one that the sample's scalar
    coupled walk (the walk :func:`_replay_sample` replays) gives.

    Each sample's exact value runs first, on its scalar path.  Every level,
    finest first, then walks all the samples as lanes on one bridge source
    that continues those paths; ``room`` is the new points a path gains over
    the levels, as far as known.  A sample fails where its exact value
    overflows or a level's lane fails; it walks no further level, and its
    errors are NaN."""
    paths = [BrownianPath(rng) for rng in rngs]
    exact = np.empty(len(chains))
    start = np.full(len(chains), float(x0))
    for j, path in enumerate(paths):
        try:
            exact[j] = exact_linear_solution(params, x0, chains.path(j), path, T)
        except OverflowError:  # a failed sample: NaN starts no lane
            exact[j] = start[j] = math.nan
    noise = BridgeNoise(paths, room)
    errors = np.empty((len(step_params), len(chains)))
    for level in range(len(step_params) - 1, -1, -1):  # finest level queries first
        y, _, _, lost = solve_terminals(model, chains, noise, start, T,
                                        step_params[level], scheme)
        noise.merge()
        errors[level] = y - exact
        start[lost] = math.nan
    return errors, np.isnan(start)


def strong_order_study(params: LinearModelParams, g: GeneratorMatrix, x0: float,
                       T: float, grid, rho: float, k: float, M: int, seed: int,
                       scheme: str = "milstein", r0: int = 1) -> ConvergenceReport:
    """Coupled strong-error study against the exact linear-model solution.

    Parameters
    ----------
    grid:
        Strictly decreasing h_max values, at least three levels.
    M:
        Sample count (>= 100); each sample reuses one chain and one Brownian
        path across all levels.
    scheme:
        Main map, 'milstein' or 'em'; the backstop stays drift-implicit
        Milstein either way.
    """
    grid = tuple(float(h) for h in grid)
    step_params = check_strong_order_args(params, g, x0, T, grid, rho, k, M, r0)
    model = linear_model(params)
    # A level's walk takes at least T / h_max steps, nearly all new points.
    room = sum(math.ceil(T / h) for h in grid)
    group = min(LANE_GROUP, max(1, COUPLED_POINTS // room))
    errors = np.empty((len(grid), M))
    for first in range(0, M, group):
        samples = range(first, min(first + group, M))
        chains = _trajectory_chains(g, r0, T, seed, samples)
        errors[:, samples.start:samples.stop], failed = _coupled_errors(
            params, model, x0, T, step_params, scheme, chains,
            substream_rngs(seed, samples, NOISE_STREAM), room)
        if failed.any():  # the lowest failed sample's scalar walk says why
            lane = int(np.argmax(failed))
            _replay_sample(params, model, x0, T, step_params, scheme, chains.path(lane),
                           first + lane, substream_rng(seed, first + lane, NOISE_STREAM))
    rms = np.array([_statistic(lambda e: np.sqrt(np.mean(e * e)), level)
                    for level in errors])
    for level, (h, e) in enumerate(zip(grid, rms.tolist())):
        if not 0.0 < e < math.inf:
            raise InvalidParamsError(f"cannot fit an order: level {level} "
                                     f"(h_max={h}) has rms error {e}")
    slope = float(np.polyfit(np.log(grid), np.log(rms), 1)[0])
    return ConvergenceReport(h_max_grid=grid, rms_errors=tuple(float(e) for e in rms),
                             fitted_order=slope, sample_count=M, scheme=scheme)


def run_ensemble(model: RegimeModel, g: GeneratorMatrix, initial, r0, T: float,
                 p: StepParams, M: int, runs_per_initial: int = 1, seed: int = 0,
                 scheme: str = "milstein") -> EnsembleSummary:
    """Monte Carlo ensemble of M x runs_per_initial independent trajectories.

    Parameters
    ----------
    initial:
        Either a fixed initial value or a ``(lo, hi)`` pair for a uniform
        draw; with a pair, one value is drawn per outer index and shared by
        that index's ``runs_per_initial`` trajectories.
    r0:
        Fixed 1-based initial chain state, or ``'uniform'`` to draw one per
        trajectory.

    Trajectories that abort (non-finite value, failed backstop solve, or step
    budget) are excluded from the statistics and counted in ``failed_count``.
    """
    check_ensemble_args(model, g, initial, r0, T, p, M, runs_per_initial)
    _, y, n_steps, n_backstop, failed = _simulate_terminals(
        model, g, initial, r0, T, p, M, runs_per_initial, seed, scheme)
    return _summarize(y[~failed], _backstop_fraction(n_steps, n_backstop),
                      int(failed.sum()))


def mean_change_study(model: RegimeModel, g: GeneratorMatrix, lo: float, hi: float,
                      t_start_day: float, t_end_day: float, n_initials: int,
                      runs_per_initial: int, seed: int, p: StepParams, r0=1,
                      scheme: str = "milstein") -> MeanChangeReport:
    """Mean change in value over [t_start_day, t_end_day] for uniform initials.

    Each of ``n_initials`` initial values (uniform on [lo, hi], interpreted as
    the value at ``t_start_day``) is integrated ``runs_per_initial`` times over
    the horizon ``t_end_day - t_start_day``.  Reports the per-initial mean
    change (final minus initial), the grand mean over all trajectories, and
    line-plot series ordered by initial value.
    """
    check_mean_change_args(model, g, lo, hi, t_start_day, t_end_day, n_initials,
                           runs_per_initial, p, r0)
    x0, y, n_steps, n_backstop, failed = _simulate_terminals(
        model, g, (lo, hi), r0, t_end_day - t_start_day, p, n_initials,
        runs_per_initial, seed, scheme)

    # The successful runs' finals of each outer index that has any.
    kept = ~failed.reshape(n_initials, runs_per_initial)
    rows = [finals[k] for finals, k in zip(y.reshape(kept.shape), kept) if k.any()]
    initials = x0[::runs_per_initial][kept.any(axis=1)]
    order = np.argsort(initials, kind="stable")
    initials = initials[order]
    mean_finals = np.array([_statistic(np.mean, row) for row in rows])[order]
    single_finals = np.array([row[0] for row in rows])[order]
    mean_changes = mean_finals - initials
    grand = _statistic(np.mean, (y - x0)[~failed])
    n_failed = int(failed.sum())
    summary = _summarize(mean_changes, _backstop_fraction(n_steps, n_backstop), n_failed)
    return MeanChangeReport(initials=initials, mean_finals=mean_finals,
                            single_finals=single_finals, mean_changes=mean_changes,
                            grand_mean_change=grand, summary=summary, failed_count=n_failed)
