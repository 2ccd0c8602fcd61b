"""Generator validation, chain simulation statistics, and path queries."""

import hashlib
import io
import math
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import switchsde as s
from switchsde import errors, harness
from switchsde.ctmc import segments, switch_tables

TELOMERE_GENERATOR = [
    [-0.3, 0.1, 0.1, 0.1],
    [0.1, -0.3, 0.1, 0.1],
    [0.1, 0.1, -0.3, 0.1],
    [0.1, 0.1, 0.1, -0.3],
]
TWO_STATE = [[-2.0, 2.0], [1.0, -1.0]]


class TestValidateGenerator:
    def test_four_state_uniform_matrix_is_valid(self):
        g = s.validate_generator(TELOMERE_GENERATOR)
        assert g.num_states == 4
        assert g.rates.shape == (4, 4)

    def test_single_absorbing_state(self):
        g = s.validate_generator([[0.0]])
        assert g.num_states == 1
        assert s.holding_rate(g, 1) == 0.0

    def test_row_sum_violation(self):
        with pytest.raises(errors.RowSumNonzeroError) as exc:
            s.validate_generator([[-0.1, 0.2], [0.1, -0.1]])
        assert exc.value.i == 0
        assert exc.value.residual == pytest.approx(0.1)

    def test_non_square(self):
        with pytest.raises(errors.NonSquareError):
            s.validate_generator([[-1.0, 1.0]])

    def test_negative_off_diagonal(self):
        with pytest.raises(errors.NegativeOffDiagonalError) as exc:
            s.validate_generator([[1.0, -1.0], [1.0, -1.0]])
        assert (exc.value.i, exc.value.j) == (0, 1)

    @pytest.mark.parametrize("rates", [
        [[math.nan, 1.0], [1.0, -1.0]],
        [[-math.inf, math.inf], [1.0, -1.0]],
        [[-1.0, 1.0], [math.inf, -math.inf]],
    ])
    def test_non_finite_rates_rejected(self, rates):
        with pytest.raises(errors.InvalidParamsError, match="finite") as exc:
            s.validate_generator(rates)
        assert isinstance(exc.value, ValueError)

    def test_rates_are_frozen(self):
        g = s.validate_generator(TELOMERE_GENERATOR)
        with pytest.raises(ValueError):
            g.rates[0, 0] = 1.0


class TestHoldingRate:
    def test_uniform_generator_all_states(self):
        g = s.validate_generator(TELOMERE_GENERATOR)
        for i in range(1, 5):
            assert s.holding_rate(g, i) == pytest.approx(0.3)

    def test_two_state(self):
        g = s.validate_generator(TWO_STATE)
        assert s.holding_rate(g, 1) == 2.0
        assert s.holding_rate(g, 2) == 1.0

    def test_index_out_of_range(self):
        g = s.validate_generator(TWO_STATE)
        for bad in (0, 3, -1):
            with pytest.raises(errors.StateIndexError):
                s.holding_rate(g, bad)


class TestTransitionPmf:
    def test_uniform_generator_state_one(self):
        g = s.validate_generator(TELOMERE_GENERATOR)
        p = s.transition_pmf(g, 1)
        # direct division oracle: each 0.1 / 0.3
        np.testing.assert_allclose(p, [0.0, 0.1 / 0.3, 0.1 / 0.3, 0.1 / 0.3],
                                   rtol=0, atol=1e-15)
        assert abs(p.sum() - 1.0) <= 1e-12
        assert p[0] == 0.0

    def test_single_destination(self):
        g = s.validate_generator(TWO_STATE)
        np.testing.assert_allclose(s.transition_pmf(g, 1), [0.0, 1.0], atol=0)

    def test_three_state_weights(self):
        g = s.validate_generator([[-3.0, 1.0, 2.0], [0.0, 0.0, 0.0], [1.0, 1.0, -2.0]])
        p = s.transition_pmf(g, 1)
        np.testing.assert_allclose(p, [0.0, 1.0 / 3.0, 2.0 / 3.0], atol=1e-15)

    def test_absorbing_state_rejected(self):
        g = s.validate_generator([[-3.0, 1.0, 2.0], [0.0, 0.0, 0.0], [1.0, 1.0, -2.0]])
        with pytest.raises(errors.AbsorbingStateError):
            s.transition_pmf(g, 2)


class TestSimulateChain:
    def test_absorbing_chain_never_switches(self):
        g = s.validate_generator([[0.0]])
        path = s.simulate_chain(g, 1, 30.0, np.random.default_rng(0))
        assert path.switch_times == ()
        assert path.states == ()
        assert s.state_at(path, 15.0) == 1

    def test_mean_switch_count_matches_rate(self):
        # All holding rates equal 0.3, so the switch count over [0, 30] is
        # Poisson with mean 0.3 * 30 = 9.
        g = s.validate_generator(TELOMERE_GENERATOR)
        n = 10_000
        uniforms = harness.substream_uniforms(2024, range(n), harness.CHAIN_STREAM)
        total = s.simulate_chains(g, [1] * n, 30.0, uniforms).counts.sum()
        assert total / n == pytest.approx(9.0, rel=0.03)

    @pytest.mark.parametrize("lanes", [1, 2, 5])
    def test_a_generator_in_place_of_a_lane_source_is_named(self, lanes):
        # Generator.random(lanes) reads the lane numbers as a shape.
        g = s.validate_generator(TWO_STATE)
        with pytest.raises(TypeError, match=r"^uniforms .*harness\.substream_uniforms.*"
                                            r"simulate_chain"):
            s.simulate_chains(g, [1] * lanes, 1.0, np.random.default_rng(0))

    def test_first_holding_time_mean(self):
        # From state 1 of TWO_STATE the holding time is Exponential(2).
        g = s.validate_generator(TWO_STATE)
        n = 20_000
        uniforms = harness.substream_uniforms(7, range(n), harness.CHAIN_STREAM)
        chains = s.simulate_chains(g, [1] * n, 6.0, uniforms)
        samples = chains.times[chains.counts > 0, 0]
        assert len(samples) >= 19_990
        assert np.mean(samples) == pytest.approx(0.5, rel=0.02)

    def test_switch_exactly_at_horizon_is_kept(self):
        path = s.MarkovPath(initial_state=1, switch_times=(30.0,), states=(2,),
                            horizon=30.0)
        assert s.state_at(path, 30.0) == 2

    def test_deterministic_given_seed(self):
        g = s.validate_generator(TELOMERE_GENERATOR)
        a = s.simulate_chain(g, 1, 30.0, np.random.default_rng(99))
        b = s.simulate_chain(g, 1, 30.0, np.random.default_rng(99))
        assert a == b

    def test_invalid_inputs(self):
        g = s.validate_generator(TWO_STATE)
        with pytest.raises(errors.StateIndexError):
            s.simulate_chain(g, 3, 1.0, np.random.default_rng(0))
        for horizon in (0.0, math.inf, math.nan):
            with pytest.raises(errors.InvalidParamsError):
                s.simulate_chain(g, 1, horizon, np.random.default_rng(0))


class TestStateAt:
    def test_empty_path(self):
        path = s.MarkovPath(2, (), (), 30.0)
        assert s.state_at(path, 15.0) == 2

    def test_right_continuous_at_switch(self):
        path = s.MarkovPath(1, (1.0,), (3,), 4.0)
        assert s.state_at(path, 1.0) == 3
        assert s.state_at(path, 0.999999) == 1

    def test_between_switches(self):
        path = s.MarkovPath(1, (1.0, 2.5), (3, 2), 4.0)
        assert s.state_at(path, 2.0) == 3
        assert s.state_at(path, 2.5) == 2

    def test_out_of_range(self):
        path = s.MarkovPath(1, (), (), 4.0)
        for t in (-0.1, 4.1):
            with pytest.raises(errors.TimeOutOfRangeError):
                s.state_at(path, t)


class TestSegments:
    PATH = s.MarkovPath(1, (1.0, 2.5), (3, 2), 4.0)

    @pytest.mark.parametrize("t0, t1, pieces", [
        (0.5, 3.0, [(0.5, 1.0, 1), (1.0, 2.5, 3), (2.5, 3.0, 2)]),
        (0.0, 2.5, [(0.0, 1.0, 1), (1.0, 2.5, 3)]),  # a switch at t1 starts no piece
        (1.0, 2.0, [(1.0, 2.0, 3)]),  # a switch at t0 is in force
        (2.5, 2.5, [(2.5, 2.5, 2)]),
    ])
    def test_pieces(self, t0, t1, pieces):
        assert list(segments(self.PATH, t0, t1)) == pieces

    @pytest.mark.parametrize("t0, t1", [(-0.1, 1.0), (2.0, 1.0), (0.0, 4.1),
                                        (math.nan, 1.0), (0.0, math.inf)])
    def test_out_of_range(self, t0, t1):
        with pytest.raises(errors.TimeOutOfRangeError):
            list(segments(self.PATH, t0, t1))


class TestMarkovPathInvariants:
    def test_rejects_non_increasing_times(self):
        with pytest.raises(errors.InvalidParamsError):
            s.MarkovPath(1, (2.0, 2.0), (2, 1), 4.0)

    def test_rejects_equal_consecutive_states(self):
        with pytest.raises(errors.InvalidParamsError):
            s.MarkovPath(1, (1.0,), (1,), 4.0)
        with pytest.raises(errors.InvalidParamsError):
            s.MarkovPath(1, (1.0, 2.0), (2, 2), 4.0)

    def test_rejects_switch_after_horizon(self):
        with pytest.raises(errors.InvalidParamsError):
            s.MarkovPath(1, (5.0,), (2,), 4.0)

    @pytest.mark.parametrize("horizon", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_a_horizon_that_is_not_positive_and_finite(self, horizon):
        with pytest.raises(errors.InvalidParamsError, match="positive and finite"):
            s.MarkovPath(1, (), (), horizon)


@st.composite
def generators(draw):
    n = draw(st.integers(min_value=2, max_value=4))
    rates = []
    for i in range(n):
        row = [draw(st.floats(min_value=0.0, max_value=3.0, allow_nan=False))
               if j != i else 0.0 for j in range(n)]
        row[i] = -sum(row)
        rates.append(row)
    return rates


@given(rates=generators(), seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_simulated_path_invariants(rates, seed):
    g = s.validate_generator(rates)
    path = s.simulate_chain(g, 1, 5.0, np.random.default_rng(seed))
    prev_t, prev_s = 0.0, 1
    for t, state in zip(path.switch_times, path.states):
        assert t > prev_t
        assert t <= 5.0
        assert 1 <= state <= g.num_states
        assert state != prev_s
        prev_t, prev_s = t, state


@given(rates=generators(), seed=st.integers(min_value=0, max_value=2**32 - 1),
       data=st.data())
@settings(max_examples=100, deadline=None)
def test_segments_tile_the_interval_at_the_switching_times(rates, seed, data):
    g = s.validate_generator(rates)
    path = s.simulate_chain(g, 1, 5.0, np.random.default_rng(seed))
    times = (st.floats(min_value=0.0, max_value=5.0)
             | st.sampled_from((0.0, 5.0) + path.switch_times))
    t0, t1 = sorted((data.draw(times), data.draw(times)))
    pieces = list(segments(path, t0, t1))
    starts = [a for a, _, _ in pieces]
    ends = [b for _, b, _ in pieces]
    assert starts[0] == t0 and ends[-1] == t1
    assert starts[1:] == ends[:-1]
    # the interior boundaries are exactly the switches strictly inside (t0, t1)
    inside = [tau for tau in path.switch_times if t0 < tau < t1]
    assert [b.hex() for b in ends[:-1]] == [tau.hex() for tau in inside]
    assert all(state == s.state_at(path, a) for a, _, state in pieces)
    if t0 == t1:
        assert len(pieces) == 1
    else:  # so a switch at t1 starts no piece
        assert all(a < b for a, b, _ in pieces)


def test_chain_csv_roundtrip():
    g = s.validate_generator(TELOMERE_GENERATOR)
    path = s.simulate_chain(g, 3, 30.0, np.random.default_rng(5))
    buf = io.StringIO()
    s.write_chain_csv(path, buf)
    text = buf.getvalue()
    assert text.startswith("# r0=3 T=30.0\ntau,state\n")
    restored = s.read_chain_csv(io.StringIO(text))
    assert restored == path


@pytest.mark.parametrize("text, number", [
    pytest.param("# r0=1\ntau,state\n", 1, id="no-T"),
    pytest.param("# r0=x T=1.0\ntau,state\n", 1, id="r0-not-an-integer"),
    pytest.param("# r0=1 T=1.0 stray\ntau,state\n", 1, id="field-without-value"),
    pytest.param("r0=1 T=1.0\ntau,state\n", 1, id="no-metadata-row"),
    pytest.param("# r0=1 T=1.0\ntau\n", 2, id="bad-header"),
    pytest.param("# r0=1 T=1.0\ntau,state\n0.5,2\n0.7\n", 4, id="no-comma"),
    pytest.param("# r0=1 T=1.0\ntau,state\n0.5,2,1\n", 3, id="two-commas"),
    pytest.param("# r0=1 T=1.0\ntau,state\n\n0.5,two\n", 4, id="state-not-an-integer"),
])
def test_chain_csv_line_that_does_not_parse_is_named(text, number):
    line = text.splitlines()[number - 1]
    with pytest.raises(errors.InvalidParamsError) as exc:
        s.read_chain_csv(io.StringIO(text))
    assert str(exc.value).startswith(f"chain CSV line {number} {line!r}: ")


CHAIN_SET_SHA256 = "b439dcbd2aee3ad89d2cf6bfdbb380235772cf47b9eb3f537e0fc7037bc94934"
FAST_GENERATOR = [[-90.0 if i == j else 30.0 for j in range(4)] for i in range(4)]


PINNED_SETS = [(rates, T, r0, seed)
               for rates, T in ((TELOMERE_GENERATOR, 30.0), (FAST_GENERATOR, 0.25))
               for r0 in (1, "uniform") for seed in (0, 7, 42, 2 ** 40 + 3)]


def _pinned_chains():
    """The horizon and the chains of 200 trajectory indices, per seed, for the
    ensemble's and the fast-switching workload's generators, from a fixed
    and a uniform r0; each set is one lane group."""
    for rates, T, r0, seed in PINNED_SETS:
        yield T, harness._trajectory_chains(s.validate_generator(rates), r0, T, seed,
                                            range(200))


def _chain_set_digest():
    """SHA-256 over the switch times (by ``.hex()``) and states of the pinned
    chains."""
    h = hashlib.sha256()
    for _, chains in _pinned_chains():
        for path in map(chains.path, range(len(chains))):
            h.update(f"{path.initial_state};".encode())
            h.update(",".join(t.hex() for t in path.switch_times).encode())
            h.update(f";{path.states};".encode())
    return h.hexdigest()


def test_chain_set_is_pinned():
    # Recorded from the sequential-draw chain sampler; any change to the
    # substream derivation or to the order in which a chain reads its
    # uniforms changes the digest.
    assert _chain_set_digest() == CHAIN_SET_SHA256


def _assert_tables_hold_the_pieces(chains, t1):
    ends, states = switch_tables(chains, t1)
    paths = [chains.path(j) for j in range(len(chains))]
    assert ends.shape == states.shape == (len(paths),
                                          1 + max(p.num_switches for p in paths))
    for path, row_ends, row_states in zip(paths, ends.tolist(), states.tolist()):
        _, piece_ends, piece_states = zip(*segments(path, 0.0, t1))
        pad = len(row_ends) - len(piece_ends)
        assert row_ends == [*piece_ends, *[t1] * pad]
        assert row_states == [*piece_states, *[1] * pad]


def test_switch_tables_hold_the_pieces_of_segments():
    for T, chains in _pinned_chains():
        _assert_tables_hold_the_pieces(chains, T)
        _assert_tables_hold_the_pieces(chains, T / 3)  # later switches start no piece


def test_switch_tables_start_no_piece_at_a_switch_at_exactly_t1():
    paths = [s.MarkovPath(1, (0.2, 0.5), (2, 1), 0.5), s.MarkovPath(2, (), (), 0.5),
             s.MarkovPath(3, (0.1, 0.3, 0.4), (1, 2, 3), 0.5)]
    chains = s.Chains.of(paths)
    assert [chains.path(j) for j in range(3)] == paths
    ends, states = switch_tables(chains, 0.5)
    assert ends.tolist() == [[0.2, 0.5, 0.5, 0.5], [0.5] * 4, [0.1, 0.3, 0.4, 0.5]]
    assert states.tolist() == [[1, 2, 1, 1], [2, 1, 1, 1], [3, 1, 2, 3]]
    _assert_tables_hold_the_pieces(chains, 0.5)
    _assert_tables_hold_the_pieces(chains, 0.3)
    _assert_tables_hold_the_pieces(chains, 0.0)


@pytest.mark.parametrize("t1", [0.6, -0.1, math.nan])
def test_switch_tables_refuse_what_segments_refuses(t1):
    paths = [s.MarkovPath(1, (0.2,), (2,), 0.5)]
    with pytest.raises(errors.TimeOutOfRangeError) as tables:
        switch_tables(s.Chains.of(paths), t1)
    with pytest.raises(errors.TimeOutOfRangeError) as pieces:
        list(segments(paths[0], 0.0, t1))
    assert str(tables.value) == str(pieces.value)


class _PresetUniforms:
    """A stand-in generator that hands out preset uniforms, one at a time or
    ``size`` at a time, and counts those drawn."""

    def __init__(self, values):
        self.values = list(values)
        self.drawn = 0

    def random(self, size=None):
        n = 1 if size is None else size
        out = self.values[self.drawn:self.drawn + n]
        self.drawn += n
        return out[0] if size is None else np.array(out)


class _PresetLanes:
    """A stand-in lane source: lane j draws from ``_PresetUniforms(rows[j])``."""

    def __init__(self, rows):
        self.lanes = [_PresetUniforms(row) for row in rows]

    def random(self, lanes):
        return np.array([self.lanes[j].random() for j in lanes.tolist()])


def _sequential_chain(g, r0, horizon, rng):
    """The chain sampler that reads one uniform at a time."""
    times, states, t, state = [], [], 0.0, r0
    while True:
        lam = s.holding_rate(g, state)
        if lam <= 0.0:
            break
        p = s.transition_pmf(g, state)
        reached = np.flatnonzero(p > 0)
        cum, dests = np.cumsum(p[reached]).tolist(), (reached + 1).tolist()
        dt = -math.log1p(-rng.random()) / lam
        while dt <= 0.0:
            dt = -math.log1p(-rng.random()) / lam
        t = t + dt
        if t > horizon:
            break
        state = dests[min(bisect_right(cum, rng.random()), len(dests) - 1)]
        times.append(t)
        states.append(state)
    return s.MarkovPath(r0, tuple(times), tuple(states), horizon)


def test_a_uniform_of_exactly_zero_is_drawn_again():
    g = s.validate_generator(TWO_STATE)
    values = [0.0, 0.5, 0.7, 0.0, 0.0, 0.25, 0.1] + [0.999] * 60
    path = s.simulate_chain(g, 1, 3.0, _PresetUniforms(values))
    first = -math.log1p(-0.5) / 2.0
    assert path.switch_times[:2] == (first, first - math.log1p(-0.25) / 1.0)
    assert path.states[:2] == (2, 1)
    assert path == _sequential_chain(g, 1, 3.0, _PresetUniforms(values))


def test_simulate_chain_draws_what_the_sequential_sampler_draws():
    # The same chain from the same uniforms, and no uniform more: the
    # generator ends just after the last uniform used.
    g = s.validate_generator(FAST_GENERATOR)
    rng = _PresetUniforms(np.random.default_rng(11).random(1000))
    path = s.simulate_chain(g, 2, 2.0, rng)
    assert path.num_switches > 100
    assert rng.drawn == 2 * path.num_switches + 1  # the last holding time ends it
    assert path == _sequential_chain(g, 2, 2.0, _PresetUniforms(rng.values))
    for seed in range(20):
        rng, alone = np.random.default_rng(seed), np.random.default_rng(seed)
        assert s.simulate_chain(g, 1, 2.0, rng) == _sequential_chain(g, 1, 2.0, alone)
        assert rng.bit_generator.state == alone.bit_generator.state


def _hex(path):
    return path.initial_state, [t.hex() for t in path.switch_times], path.states


def _hex_rows(chains):
    return [_hex(chains.path(j)) for j in range(len(chains))]


def test_a_pinned_group_is_its_lanes_alone():
    for (rates, T, r0, seed), (_, chains) in zip(PINNED_SETS, _pinned_chains()):
        g = s.validate_generator(rates)
        rows = _hex_rows(chains)
        for idx in range(0, 200, 25):
            assert rows[idx] == _hex(harness.trajectory_chain(g, r0, T, seed, idx))


def _padded(values):
    """Preset uniforms, then two of 0.999: one last destination draw, and a
    holding time past the horizon, which ends a lane in these tests."""
    return list(values) + [0.999] * 2


def test_stand_in_lanes_sampled_as_one_group():
    # State 3 is absorbing; from 1 and 2 a destination uniform below 0.5 goes
    # to the other of the two, one of 0.5 or more to state 3.
    g = s.validate_generator([[-2.0, 1.0, 1.0], [1.0, -2.0, 1.0], [0.0, 0.0, 0.0]])
    horizon = -math.log1p(-0.75) / 2.0
    lanes = [
        (1, [0.0, 0.0, 0.25, 0.3]),  # two uniforms of exactly 0 drawn again
        (1, [0.001, 0.3] * 40),  # 40 switches
        (3, []),  # an absorbing start draws nothing
        (2, [0.999]),  # the first holding time passes the horizon
        (1, [0.75, 0.3]),  # a switch at exactly the horizon is kept
        (2, [0.5, 0.5]),  # a draw equal to a bound goes past it, to absorbing 3
    ]
    uniforms = _PresetLanes(_padded(values) for _, values in lanes)
    chains = s.simulate_chains(g, [r0 for r0, _ in lanes], horizon, uniforms)
    rngs = [_PresetUniforms(_padded(values)) for _, values in lanes]
    alone = [_sequential_chain(g, r0, horizon, rng) for (r0, _), rng in zip(lanes, rngs)]
    assert _hex_rows(chains) == list(map(_hex, alone))
    assert chains.counts.tolist() == [1, 40, 0, 0, 1, 1]
    # Each lane draws what it uses and no more, as it does alone.
    assert [lane.drawn for lane in uniforms.lanes] == [5, 81, 0, 1, 3, 2]
    assert [rng.drawn for rng in rngs] == [5, 81, 0, 1, 3, 2]
    assert chains.times[0, 0] == -math.log1p(-0.25) / 2.0
    assert chains.times[4, 0] == horizon and chains.states[5, 0] == 3
    ends, states = switch_tables(chains, horizon)
    assert ends[4].tolist() == [horizon] * ends.shape[1]  # it starts no piece


def test_a_switch_that_leaves_the_clock_still_raises_as_markov_path_does():
    # After a first switch at log(2) / 2, a holding uniform of 5e-324 in
    # state 2 (rate 1) adds a time that rounds away.
    g = s.validate_generator(TWO_STATE)
    late = _padded([0.5, 0.9, 0.5, 0.9, 0.5, 0.9, 5e-324])
    early = _padded([0.5, 0.9, 5e-324])
    with pytest.raises(errors.InvalidParamsError) as scalar:
        _sequential_chain(g, 1, 3.0, _PresetUniforms(late))
    # The lowest lane that stalls raises, as a loop over the lanes would.
    for values in ([[0.999], late, early], [late, early]):
        with pytest.raises(errors.InvalidParamsError) as lanes:
            s.simulate_chains(g, [1] * len(values), 3.0, _PresetLanes(values))
        assert str(lanes.value) == str(scalar.value)
        assert str(scalar.value).startswith("switch times not strictly increasing at ")
    with pytest.raises(errors.InvalidParamsError) as alone:
        s.simulate_chain(g, 1, 3.0, _PresetUniforms(early))
    first = -math.log1p(-0.5) / 2.0
    assert str(alone.value) == f"switch times not strictly increasing at {first}"


def test_a_draw_above_the_last_cumulative_probability_goes_to_the_last_destination():
    # From state 1 the cumulative probabilities end at 1 - 2**-52, below the
    # largest uniform, 1 - 2**-53.
    g = s.validate_generator([[-(0.1 + 0.3 + 0.2), 0.1, 0.3, 0.2], [1.0, -1.0, 0.0, 0.0],
                              [1.0, 0.0, -1.0, 0.0], [1.0, 0.0, 0.0, -1.0]])
    assert np.cumsum(s.transition_pmf(g, 1))[-1] == 1.0 - 2.0 ** -52
    top = 1.0 - 2.0 ** -53
    values = _padded([0.5, top])
    chain = s.simulate_chain(g, 1, 2.0, _PresetUniforms(values))
    assert chain.states[0] == 4
    assert chain == _sequential_chain(g, 1, 2.0, _PresetUniforms(values))
