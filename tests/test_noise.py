"""Brownian path memoization, bridge law, and coupling across resolutions."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import switchsde as s
from switchsde import errors, noise


class FakeRng:
    """Feeds a fixed sequence of standard-normal draws."""

    def __init__(self, values):
        self._values = iter(values)

    def standard_normal(self):
        return next(self._values)


def test_origin_is_zero():
    path = s.BrownianPath(np.random.default_rng(0))
    assert path.sample_at(0.0) == 0.0


def test_negative_time_rejected():
    path = s.BrownianPath(np.random.default_rng(0))
    with pytest.raises(errors.NegativeTimeError):
        path.sample_at(-1e-9)


def test_memoized_values_are_bitwise_stable():
    path = s.BrownianPath(np.random.default_rng(1))
    first = path.sample_at(1.7)
    for _ in range(3):
        assert path.sample_at(1.7) == first
    # refining around the point must not disturb it
    path.sample_at(1.0)
    path.sample_at(2.5)
    path.sample_at(1.3)
    assert path.sample_at(1.7) == first


def test_bridge_moments_match_closed_form():
    # endpoints W(1) = W(3) = 0.5; the bridge at t=2 is N(0.5, 0.5)
    path = s.BrownianPath(FakeRng([0.5, 0.0, 1.25]))
    assert path.sample_at(1.0) == 0.5
    assert path.sample_at(3.0) == 0.5
    expected = 0.5 + 0.5 * 0.0 + math.sqrt(0.5) * 1.25
    assert path.sample_at(2.0) == expected


def test_bridge_residual_is_standard_normal():
    n = 10_000
    z = np.empty(n)
    for i in range(n):
        path = s.BrownianPath(np.random.default_rng(10_000 + i))
        w1 = path.sample_at(1.0)
        w3 = path.sample_at(3.0)
        w2 = path.sample_at(2.0)
        z[i] = (w2 - 0.5 * (w1 + w3)) / math.sqrt(0.5)
    assert abs(z.mean()) <= 3.0 / math.sqrt(n)
    assert z.var(ddof=1) == pytest.approx(1.0, rel=0.05)


def test_increment_law_unit_interval():
    n = 100_000
    inc = np.empty(n)
    for i in range(n):
        path = s.BrownianPath(np.random.default_rng(i))
        w1 = path.sample_at(1.0)
        inc[i] = path.sample_at(2.0) - w1
    assert abs(inc.mean()) <= 3.0 / math.sqrt(n)
    assert inc.var(ddof=1) == pytest.approx(1.0, rel=0.03)


def test_variance_grows_linearly():
    n = 10_000
    ts = (0.5, 1.0, 2.0)
    samples = {t: np.empty(n) for t in ts}
    for i in range(n):
        path = s.BrownianPath(np.random.default_rng(500_000 + i))
        for t in ts:
            samples[t][i] = path.sample_at(t)
    for t in ts:
        assert samples[t].var(ddof=1) == pytest.approx(t, rel=0.05)


class TestIncrement:
    def test_zero_length_is_exactly_zero(self):
        path = s.BrownianPath(np.random.default_rng(3))
        path.sample_at(1.0)
        assert path.increment(1.0, 1.0) == 0.0
        assert path.increment(0.7, 0.7) == 0.0  # even at a fresh time

    def test_increment_from_origin_equals_value(self):
        path = s.BrownianPath(np.random.default_rng(4))
        v = path.increment(0.0, 1.3)
        assert v == path.sample_at(1.3)

    def test_additivity_telescopes(self):
        path = s.BrownianPath(np.random.default_rng(5))
        for t in (0.4, 1.1, 2.0):
            path.sample_at(t)
        lhs = path.increment(0.4, 2.0)
        rhs = path.increment(0.4, 1.1) + path.increment(1.1, 2.0)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_reversed_interval_rejected(self):
        path = s.BrownianPath(np.random.default_rng(6))
        with pytest.raises(errors.ReversedIntervalError):
            path.increment(2.0, 1.0)


def test_coarse_queries_see_fine_values():
    # fine solver first: dyadic grid at 2^-7; coarse queries a subset
    path = s.BrownianPath(np.random.default_rng(8))
    fine = {t: path.sample_at(t) for t in np.arange(0, 129) / 128.0}
    for t in np.arange(0, 17) / 16.0:
        assert path.sample_at(t) == fine[t]


def test_same_seed_same_queries_identical():
    queries = [0.3, 2.0, 1.1, 0.7, 5.0, 4.99]
    a = s.BrownianPath(np.random.default_rng(11))
    b = s.BrownianPath(np.random.default_rng(11))
    for t in queries:
        assert a.sample_at(t) == b.sample_at(t)
    assert a.known_points() == b.known_points()


def _lane_walk(source, paths, queries):
    """Walk lane j of ``source`` through ``queries[j]`` (increasing), all lanes
    together and each leaving after its last query, and check every value
    against ``paths[j].sample_at`` of the same query, by bits."""
    t = np.zeros(len(queries))
    w = np.zeros(len(queries))
    for step in range(max(map(len, queries))):
        lane = np.array([j for j, q in enumerate(queries) if step < len(q)])
        t_next = np.array([queries[j][step] for j in lane])
        w_next = source.advance(lane, t[lane], w[lane], t_next)
        assert [v.hex() for v in w_next.tolist()] == \
            [paths[j].sample_at(q).hex() for j, q in zip(lane.tolist(), t_next.tolist())]
        t[lane], w[lane] = t_next, w_next


def _increasing(rng, size, known=()):
    """``size`` increasing times in (0, 1.5), with some of ``known`` mixed in."""
    times = set(rng.uniform(0.0, 1.5, size).tolist())
    times |= {t for t in known if t > 0.0 and rng.random() < 0.5}
    return sorted(times)


def test_forward_noise_extends_fresh_paths():
    rng = np.random.default_rng(0)
    queries = [_increasing(rng, n) for n in (70, 3, 150, 0, 64)]  # lanes leave early
    source = noise.ForwardNoise([np.random.default_rng(20 + j) for j in range(5)], [64] * 5)
    paths = [s.BrownianPath(np.random.default_rng(20 + j)) for j in range(5)]
    _lane_walk(source, paths, queries)


def test_forward_noise_given_the_walks_dt_matches_the_four_argument_form():
    # The queries above, with the lane array kept while no lane leaves, as
    # the walk keeps it: lanes leave mid-block and at a block's end.
    rng = np.random.default_rng(0)
    queries = [_increasing(rng, n) for n in (70, 3, 150, 0, 64)]
    given, recomputed = (noise.ForwardNoise([np.random.default_rng(20 + j) for j in range(5)],
                                            [64] * 5) for _ in range(2))
    paths = [s.BrownianPath(np.random.default_rng(20 + j)) for j in range(5)]
    t, w, lane = np.zeros(5), np.zeros(5), None
    for step in range(max(map(len, queries))):
        walking = [j for j, q in enumerate(queries) if step < len(q)]
        if lane is None or lane.tolist() != walking:
            lane = np.array(walking)
        t_next = np.array([queries[j][step] for j in walking])
        dt = t_next - t[lane]
        w_next = given.advance(lane, t[lane], w[lane], t_next, dt)
        w_ref = recomputed.advance(lane, t[lane], w[lane], t_next)
        assert [v.hex() for v in w_next.tolist()] == [v.hex() for v in w_ref.tolist()] == \
            [paths[j].sample_at(q).hex() for j, q in zip(walking, t_next.tolist())]
        t[lane], w[lane] = t_next, w_next


class _CountingRng:
    """A generator that counts its ``standard_normal`` calls."""

    def __init__(self, seed):
        self._rng, self.calls = np.random.default_rng(seed), 0

    def standard_normal(self, *args, **kwargs):
        self.calls += 1
        return self._rng.standard_normal(*args, **kwargs)


def test_forward_noise_blocks_sized_to_each_lane_match_scalar_paths():
    # Lane 0's estimate is too low: it refills alone, its blocks doubling, and
    # its last two blocks wrap round the end of the ring.  Lane 1's is too high; lane
    # 2 leaves in the middle of its block; lane 3's estimate is past the cap,
    # and it walks through several capped blocks.
    rng = np.random.default_rng(1)
    queries = [_increasing(rng, n) for n in (800, 10, 5, 1300)]
    rngs = [_CountingRng(30 + j) for j in range(4)]
    source = noise.ForwardNoise(rngs, [3, 100, 40, 5000])
    _lane_walk(source, [s.BrownianPath(np.random.default_rng(30 + j)) for j in range(4)],
               queries)
    # Blocks of 3, 6, 12, ..., 192, then 384 and 512 in two draws each; 1; 1;
    # 512, 512, 512.
    assert [r.calls for r in rngs] == [11, 1, 1, 3]


def test_forward_noise_widens_its_ring_for_a_block_that_outgrows_it():
    # A ring 7 wide: lane 0's third block (8 normals, at call 6) widens it to
    # 14, rotating the normal lane 1 has still to read, and lane 1's second
    # block (14 normals, from the ring's second column) wraps; lane 0's fourth
    # widens it to 28, and lane 1's third wraps too.
    rng = np.random.default_rng(2)
    queries = [_increasing(rng, n) for n in (40, 40, 4)]
    rngs = [_CountingRng(40 + j) for j in range(3)]
    source = noise.ForwardNoise(rngs, [2, 7, 5])
    _lane_walk(source, [s.BrownianPath(np.random.default_rng(40 + j)) for j in range(3)],
               queries)
    assert [r.calls for r in rngs] == [5, 5, 1]  # 2, 4, 8, 16, 32; 7, 14 and 28 in two


def test_a_thirty_day_ensemble_lane_draws_its_normals_in_at_most_five_calls():
    # The ensemble preset's lane: the telomere model from x0 = 1000 over 30
    # days, about 2000 steps, so blocks of 512 normals.
    model, p, T = s.telomere_model(s.TelomereParams()), s.StepParams(0.03, 15.0, 10.0), 30.0
    g = s.validate_generator([[-0.3, 0.1, 0.1, 0.1], [0.1, -0.3, 0.1, 0.1],
                              [0.1, 0.1, -0.3, 0.1], [0.1, 0.1, 0.1, -0.3]])
    chain = s.harness.trajectory_chain(g, 1, T, 42, 0)
    rng = _CountingRng(7)
    source = noise.ForwardNoise([rng], s.stepping.expected_mesh_sizes(T, p, [1000.0],
                                                                      [chain.num_switches]))
    y, n_steps, _, failed = s.schemes.solve_terminals(model, s.Chains.of([chain]), source,
                                                      [1000.0], T, p)
    y_ref, steps_ref, _ = s.solve_terminal(model, chain, s.BrownianPath(np.random.default_rng(7)),
                                           1000.0, T, p)
    assert not failed[0] and y[0].hex() == y_ref.hex() and n_steps[0] == steps_ref > 1500
    assert rng.calls <= 5


def test_bridge_noise_refines_memoized_paths():
    # Each path starts from a few points, as the exact oracle leaves it, or
    # from 200 (lane 5), or from points in [0.4, 0.6] alone (lane 6, whose
    # first walk adds points both before and after them).  Each walk hits
    # known points, bridges between them, extends past the last one, and
    # leaves new points that the next walk finds after the merge.  In every
    # other walk lane 2 makes no query and lane 3 queries known times alone.
    rng = np.random.default_rng(1)
    starts = [rng.uniform(0.0, 1.0, n).tolist() for n in (0, 1, 3, 8, 2, 200)]
    starts.append(rng.uniform(0.4, 0.6, 5).tolist())
    lanes = [s.BrownianPath(np.random.default_rng(40 + j)) for j in range(len(starts))]
    paths = [s.BrownianPath(np.random.default_rng(40 + j)) for j in range(len(starts))]
    for lane_path, path, times in zip(lanes, paths, starts):
        for t in times:
            assert lane_path.sample_at(t) == path.sample_at(t)
    source = noise.BridgeNoise(lanes, 0, 1.5)  # no room: the arrays grow as the walks need
    for walk, size in enumerate((200, 40, 90, 5)):
        known = [[t for t, _ in path.known_points()] for path in paths]
        queries = [_increasing(rng, size + 17 * j, known[j]) for j in range(len(paths))]
        if walk % 2:
            queries[2], queries[3] = [], known[3][1:]
        _lane_walk(source, paths, queries)
        source.merge()
        for j, path in enumerate(paths):
            assert source.known_points(j) == path.known_points()


# A lane's points before its first walk: none past t = 0, a few anywhere in
# (0, 1), or a few late ones alone, in (1, 1.4), so that its first walk
# bridges from 0 to them.
_STARTS = {"none": (0.0, 0.0, 0), "few": (0.0, 1.0, 3), "late": (1.0, 1.4, 4)}


@st.composite
def _bridge_cases(draw):
    """Start kinds of 1-6 lanes, each walk's query count per lane, whether
    known_points is read after each walk, a block size and a seed."""
    lanes = draw(st.integers(1, 6))
    starts = draw(st.lists(st.sampled_from(sorted(_STARTS)), min_size=lanes,
                           max_size=lanes))
    walks = draw(st.lists(st.lists(st.integers(0, 90), min_size=lanes, max_size=lanes),
                          min_size=1, max_size=3))
    inspect = draw(st.lists(st.booleans(), min_size=len(walks), max_size=len(walks)))
    return starts, walks, inspect, draw(st.sampled_from((1, 2, 5, 16, 256))), \
        draw(st.integers(0, 2 ** 32 - 1))


def _mixed_queries(rng, path, size):
    """About ``size`` increasing times after 0 for ``path``: some of its known
    times, some between them and some past the last one."""
    known = [t for t, _ in path.known_points()]
    last = known[-1]
    hits = [t for t in known[1:] if rng.random() < 0.3]
    inside = rng.uniform(0.0, last, size // 2).tolist() if last > 0.0 else []
    past = rng.uniform(last, last + 0.5, size - len(inside)).tolist()
    return sorted({t for t in hits + inside + past if t > 0.0})


def _engine_walk(source, paths, queries):
    """Walk lane j through ``queries[j]`` as the lane engine would: the lanes
    with queries start together, each leaves after its last query, and the
    ``lane`` array is a new object only when a lane has left (``_lane_walk``
    passes a new one every step).  Checks every value against
    ``paths[j].sample_at`` of the same query, by bits."""
    t, w = np.zeros(len(queries)), np.zeros(len(queries))
    lane = np.array([j for j, q in enumerate(queries) if q], dtype=np.intp)
    step = 0
    while lane.size:
        t_next = np.array([queries[j][step] for j in lane.tolist()])
        w_next = source.advance(lane, t[lane], w[lane], t_next)
        assert [v.hex() for v in w_next.tolist()] == \
            [paths[j].sample_at(q).hex() for j, q in zip(lane.tolist(), t_next.tolist())]
        t[lane], w[lane] = t_next, w_next
        step += 1
        stays = np.array([len(queries[j]) > step for j in lane.tolist()])
        if not stays.all():
            lane = lane[stays]


def _hex_points(points):
    return [(t.hex(), w.hex()) for t, w in points]


@settings(max_examples=100, deadline=None)
@given(_bridge_cases())
def test_bridge_noise_matches_scalar_paths_bitwise(case):
    # Lanes leave at random steps, hits on known points leave them at
    # different places in their normal blocks, the small blocks run out many
    # times a walk, and with no room the rows grow in the middle of walks.
    # Each walk's merge joins its new points to the known ones, which
    # known_points reads after some walks (``inspect``).
    starts, walks, inspect, block, seed = case
    rng = np.random.default_rng(seed)
    paths = [s.BrownianPath(np.random.default_rng([seed, j])) for j in range(len(starts))]
    copies = [s.BrownianPath(np.random.default_rng([seed, j])) for j in range(len(starts))]
    for path, copy, kind in zip(paths, copies, starts):
        lo, hi, n = _STARTS[kind]
        for t in rng.uniform(lo, hi, n).tolist():
            assert copy.sample_at(t) == path.sample_at(t)
    with mock.patch.object(noise, "BRIDGE_BLOCK", block):
        source = noise.BridgeNoise(copies, 0, 1.5)  # later queries fall in the last cell
        for walk, (sizes, look) in enumerate(zip(walks, inspect)):
            _engine_walk(source, paths,
                         [_mixed_queries(rng, path, size) for path, size in zip(paths, sizes)])
            source.merge()
            if look or walk == len(walks) - 1:
                for j, path in enumerate(paths):
                    assert _hex_points(source.known_points(j)) == \
                        _hex_points(path.known_points())


def test_coarse_walks_over_thousands_of_known_points_match_scalar_paths():
    # Rows of 2000-3500 known points, as a coupled study's finer levels leave
    # them, walked by coarse queries that each pass about two hundred of them,
    # far more than a search window holds.  Some queries hit known times and
    # some go past the last one; lanes leave after different numbers of
    # steps.  With no room the rows grow at the first step and again in the
    # middle of the fine walk, and each walk's points join the known ones
    # before the next walk.
    rng = np.random.default_rng(7)
    sizes = (2000, 3500, 2800, 3000)
    paths = [s.BrownianPath(np.random.default_rng([7, j])) for j in range(len(sizes))]
    copies = [s.BrownianPath(np.random.default_rng([7, j])) for j in range(len(sizes))]
    for path, copy, size in zip(paths, copies, sizes):
        for t in np.sort(rng.uniform(0.0, 1.5, size)).tolist():
            assert copy.sample_at(t) == path.sample_at(t)
    source = noise.BridgeNoise(copies, 0, 1.6)

    def coarse(path, steps):
        known = [t for t, _ in path.known_points()[1:]]
        hits = rng.choice(known, 4, replace=False).tolist()
        times = sorted(set(rng.uniform(0.0, 1.6, steps).tolist() + hits))
        return times[:steps - int(rng.integers(0, 6))]

    for walk in ("coarse", "fine", "coarse"):
        if walk == "fine":
            queries = [np.sort(rng.uniform(0.0, 1.5, 700)).tolist() for _ in paths]
        else:
            queries = [coarse(path, 12) for path in paths]
        _engine_walk(source, paths, queries)
        source.merge()
        for j, path in enumerate(paths):
            assert _hex_points(source.known_points(j)) == _hex_points(path.known_points())


def test_bridge_cells_span_the_horizon_on_fresh_paths():
    # Fresh paths over T = 30 know only t = 0.  The cells lie over [0, T], so
    # after a first walk of 500 points a lane the window stays a few points
    # wide; cells laid over [0, 1] would put every time past 1 in the last
    # cell, and the window would span nearly the whole row.
    T, size = 30.0, 500
    rng = np.random.default_rng(3)
    paths = [s.BrownianPath(np.random.default_rng([3, j])) for j in range(4)]
    copies = [s.BrownianPath(np.random.default_rng([3, j])) for j in range(4)]
    source = noise.BridgeNoise(copies, size, T)
    for walk in (size, 60):  # a fine walk that draws forward, then a coarse one
        _engine_walk(source, paths, [np.sort(rng.uniform(0.0, T, walk)).tolist()
                                     for _ in paths])
        source.merge()
        assert source._width <= 4 * noise._CELL
    for j, path in enumerate(paths):
        assert _hex_points(source.known_points(j)) == _hex_points(path.known_points())
