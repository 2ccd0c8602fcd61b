"""Per-trajectory random streams: the reproducibility contract.

Substream ``stream`` of trajectory ``index`` is the generator that
``numpy.random.SeedSequence(seed, spawn_key=(index, stream))`` seeds, so
results do not depend on execution order and are reproducible bit for bit.
A stream of many indices is derived at once: SeedSequence's hash runs as
array arithmetic.  The noise stream, whose normals need numpy's ziggurat
tables, becomes one generator an index (:func:`substream_rngs`); the other
streams of a lane group are lanes of one array PCG64
(:func:`substream_uniforms`, a :class:`LaneUniforms`) and build none.
"""

from __future__ import annotations

import functools
import operator

import numpy as np

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


def _index_array(indices) -> np.ndarray:
    """``indices`` as an integer array: int64 or uint64 where they fit, else
    an object array of Python ints, whose build raises what
    ``operator.index`` raises for a non-integer."""
    if isinstance(indices, range) and -2 ** 63 <= min(indices.start, indices.stop) \
            and max(indices.start, indices.stop) < 2 ** 63:
        return np.arange(indices.start, indices.stop, indices.step)
    index = np.asarray(indices)
    if index.dtype.kind in "iu":
        return index
    if not index.size:
        return np.zeros(0, dtype=np.int64)
    return np.array([operator.index(i) for i in indices], dtype=object)


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
    index = _index_array(indices)
    if index.size and index.min() < 0:
        raise ValueError("expected non-negative integer")
    counts, rest = np.ones(index.size, dtype=np.intp), index >> 32
    while rest.any():  # an index's words: 1, then one more per 32 bits left
        counts += rest > 0
        rest >>= 32
    states = np.empty((index.size, _POOL), dtype=np.uint64)
    for count in range(1, int(counts.max(initial=0)) + 1):  # np.unique imports numpy.ma
        where = np.flatnonzero(counts == count)
        if not where.size:
            continue
        words = [((index[where] >> 32 * k) & _MASK32).astype(np.uint32) for k in range(count)]
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
