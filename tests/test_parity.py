"""The lane-batched engine against the scalar reference walk, index by index.

``harness._simulate_terminals`` walks a study's trajectories in lane groups
through ``schemes.solve_terminals``; each index must equal a replay of that
index alone through ``trajectory_chain``, a fresh ``BrownianPath`` on the
index's noise stream and ``solve_terminal``: the terminal value bitwise, the
step and backstop counts, and whether it failed.  The error of a failed index
is what the harness's own replay of that index raises.
"""

import logging
import math
import warnings
from collections import defaultdict
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import switchsde as s
from switchsde import errors, harness, models, noise, schemes, streams
from switchsde.noise import ForwardNoise

TRAJECTORY_FAILURES = (errors.NonfiniteResultError, errors.RootNotFoundError,
                       errors.StepBudgetExceededError)


def _exploding_model(n):
    """Decays in state 1; in state 2 it blows up in finite time, so the
    backstop loses its root once |Y| is large; from state 3 on its drift is
    infinite, so explicit steps give non-finite values."""
    def drift(x, i):
        return -x if i == 1 else 20.0 * x * x if i == 2 else math.inf

    return s.RegimeModel(num_states=n, drift=drift, diffusion=lambda x, i: 0.5 * x,
                         diffusion_derivative=lambda x, i: 0.5)


FAILING = (_exploding_model(3),
           s.validate_generator([[-4.0, 2.0, 2.0], [2.0, -4.0, 2.0], [2.0, 2.0, -4.0]]),
           (0.5, 3.0), "uniform", 0.5, s.StepParams(0.03, 15.0, 10.0), 5, 3, 11, "milstein")


class _Failures(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


def _replay(model, g, initial, r0, T, p, n_initials, runs, seed, scheme):
    """Per index: (x0, (y, n_steps, n_backstop) or the exception raised)."""
    results = []
    for idx in range(n_initials * runs):
        x0 = float(harness._draw_initials(initial, seed, [idx // runs])[0])
        chain = harness.trajectory_chain(g, r0, T, seed, idx)
        path = s.BrownianPath(harness.substream_rng(seed, idx, harness.NOISE_STREAM))
        try:
            outcome = s.solve_terminal(model, chain, path, x0, T, p, scheme)
        except errors.SwitchSDEError as exc:
            outcome = exc
        results.append((x0, outcome))
    return results


def _batched(model, g, initial, r0, T, p, n_initials, runs, seed, scheme, group):
    """The engine's result (or the error it raised), the failed mask of every
    lane the batched walk returned, and the failure messages logged."""
    lane_failed = []
    solve = harness.solve_terminals

    def spy(*args):
        out = solve(*args)
        lane_failed.extend(out[3].tolist())
        return out

    failures = _Failures()
    logger = logging.getLogger("switchsde.harness")
    logger.addHandler(failures)
    try:
        with mock.patch.object(harness, "LANE_GROUP", group), \
                mock.patch.object(harness, "solve_terminals", spy), \
                warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                result = harness._simulate_terminals(model, g, initial, r0, T, p,
                                                     n_initials, runs, seed, scheme)
            except errors.SwitchSDEError as exc:
                result = exc
    finally:
        logger.removeHandler(failures)
    return result, lane_failed, failures.messages


def _same_error(a, b):
    return (type(a), str(a)) == (type(b), str(b))


def assert_engines_agree(model, g, initial, r0, T, p, n_initials, runs, seed, scheme,
                         group):
    expected = _replay(model, g, initial, r0, T, p, n_initials, runs, seed, scheme)
    result, lane_failed, logged = _batched(model, g, initial, r0, T, p, n_initials,
                                           runs, seed, scheme, group)
    assert lane_failed == [isinstance(outcome, Exception)
                           for _, outcome in expected[:len(lane_failed)]]

    # A walk in index order logs each failure and stops at the first index
    # whose error is not a trajectory failure.
    failed = []
    for idx, (_, outcome) in enumerate(expected):
        if isinstance(outcome, TRAJECTORY_FAILURES):
            failed.append((idx, outcome))
        elif isinstance(outcome, Exception):
            assert _same_error(result, outcome)
            assert len(lane_failed) > idx
            break
    else:
        assert len(lane_failed) == len(expected)
        if len(failed) == len(expected):
            assert isinstance(result, errors.AllTrajectoriesFailedError)
        else:
            x0, y, n_steps, n_backstop, failed_mask = result
            assert np.flatnonzero(failed_mask).tolist() == [idx for idx, _ in failed]
            for idx, (start, outcome) in enumerate(expected):
                assert x0[idx] == start
                if isinstance(outcome, Exception):
                    assert math.isnan(y[idx]) and n_steps[idx] == n_backstop[idx] == 0
                else:
                    assert float(y[idx]).hex() == outcome[0].hex()
                    assert (n_steps[idx], n_backstop[idx]) == outcome[1:]
    assert logged == [f"trajectory {idx} failed: {exc}" for idx, exc in failed]
    return result


@st.composite
def generators(draw):
    """1-4 states with rates from none (absorbing rows) to fast switching."""
    n = draw(st.integers(1, 4))
    rows = []
    for i in range(n):
        row = [0.0 if j == i else draw(st.sampled_from([0.0, 0.0, 0.5, 4.0, 30.0]))
               for j in range(n)]
        row[i] = -sum(row)
        rows.append(row)
    return s.validate_generator(rows)


@st.composite
def studies(draw):
    g = draw(generators())
    n = g.num_states
    kind = draw(st.sampled_from(["telomere", "linear", "floored", "failing", "stiff"]))
    if kind in ("telomere", "stiff"):
        pairs = draw(st.lists(st.tuples(st.floats(1.0, 10.0), st.floats(1e-8, 1e-6)),
                              min_size=n, max_size=n))
        model = s.telomere_regime_model(pairs)
        # Stiff initials reach |Y| ~ 1e7 on either side of zero: the lane
        # Newton settles most backstop steps, stalls on some, and below about
        # -1 / (4 h_min a) leaves lanes without a root to the bisection.
        lo, hi = (-4e7, 1e7) if kind == "stiff" else (1000.0, 8000.0)
    elif kind in ("linear", "floored"):
        params = s.LinearModelParams(
            mu=tuple(draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))),
            sigma=tuple(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))))
        model = s.linear_model(params)
        lo, hi = (1e20, 2e20) if kind == "floored" else (0.1, 10.0)
    else:
        model, lo, hi = _exploding_model(n), 0.5, 3.0
    if draw(st.booleans()):
        initial = (lo, hi)
    else:
        initial = draw(st.floats(lo, hi))
    r0 = draw(st.one_of(st.just("uniform"), st.integers(1, n)))
    T = draw(st.sampled_from([0.05, 0.2, 0.5]))
    p = s.StepParams(draw(st.sampled_from([0.03, 0.1])), draw(st.sampled_from([4.0, 15.0])),
                     draw(st.sampled_from([2.0, 10.0])))
    n_initials = draw(st.integers(1, 4))
    runs = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2 ** 32))
    scheme = draw(st.sampled_from(["milstein", "em"]))
    group = draw(st.integers(1, 5))  # small groups split an outer index's runs
    return model, g, initial, r0, T, p, n_initials, runs, seed, scheme, group


@settings(max_examples=100, deadline=None)
@given(studies(), st.sampled_from([1, schemes.LANE_NEWTON_MIN]))
def test_batched_engine_equals_the_scalar_walk(study, newton_min):
    # With newton_min 1 every step's backstop lanes take the lane Newton.
    with mock.patch.object(schemes, "LANE_NEWTON_MIN", newton_min):
        assert_engines_agree(*study)


def test_floored_and_failing_studies_agree():
    g = s.validate_generator([[-4.0, 2.0, 2.0], [2.0, -4.0, 2.0], [2.0, 2.0, -4.0]])
    zero = s.linear_model(s.LinearModelParams(mu=(0.0,) * 3, sigma=(0.0,) * 3))
    step = s.StepParams(0.03, 15.0, 10.0)
    # |Y| = 1e20 floors every step at h_min, so every step is a backstop step.
    assert_engines_agree(zero, g, 1e20, 1, 0.5, step, 2, 2, 7, "milstein", 3)
    # Explicit overflows and backstops without a root, among successes.
    assert_engines_agree(*FAILING, 4)


def test_error_that_is_not_a_trajectory_failure_is_raised_from_its_index():
    g = s.validate_generator([[0.0]])
    zero = s.linear_model(s.LinearModelParams(mu=(0.0,), sigma=(0.0,)))
    assert_engines_agree(zero, g, math.nan, 1, 0.5, s.StepParams(0.03, 15.0, 10.0),
                         3, 1, 0, "milstein", 2)


def test_a_step_rounding_onto_a_switch_ends_its_piece():
    # From t = 8 * 0.03 = 0.24 the norm-controlled step 0.03 is not clamped
    # (fl(0.27 - 0.24) > 0.03) but t + h rounds up onto the switch at 0.27.
    p = s.StepParams(0.03, 15.0, 10.0)
    tau = 0.24 + 0.03
    decision = s.next_step(0.5, 0.24, tau, 0.5, p)
    assert decision.reason is s.StepReason.NORM_CONTROLLED and decision.t_next == tau
    model = s.linear_model(s.LinearModelParams(mu=(0.0, -1.0), sigma=(0.0, 0.5)))
    chains = [s.MarkovPath(1, (tau,), (2,), 0.5), s.MarkovPath(1, (0.3,), (2,), 0.5)]
    y, n_steps, n_backstop, failed = schemes.solve_terminals(
        model, s.Chains.of(chains),
        ForwardNoise([np.random.default_rng(j) for j in range(2)], [8, 8]), [0.5, 0.5], 0.5, p)
    assert not failed.any()
    for j, chain in enumerate(chains):
        path = s.BrownianPath(np.random.default_rng(j))
        y_ref, steps_ref, backstops_ref = s.solve_terminal(model, chain, path, 0.5, 0.5, p)
        assert float(y[j]).hex() == y_ref.hex()
        assert (n_steps[j], n_backstop[j]) == (steps_ref, backstops_ref)


def test_fast_switching_telomere_study_agrees():
    fast = [[-90.0 if i == j else 30.0 for j in range(4)] for i in range(4)]
    g = s.validate_generator(fast)
    initial, T, runs, seed = (4000.0, 8000.0), 0.25, 2, 5
    x0, y, n_steps, n_backstop, failed = assert_engines_agree(
        s.telomere_model(s.TelomereParams()), g, initial, "uniform", T,
        s.StepParams(0.03, 15.0, 10.0), 8, runs, seed, "milstein", harness.LANE_GROUP)
    assert not failed.any()
    switches = sum(harness.trajectory_chain(g, "uniform", T, seed, idx).num_switches
                   for idx in range(len(y)))
    assert switches > 0 and n_backstop.sum() > 0  # both clamps are exercised


@pytest.mark.parametrize("h_max, rho, T", [
    (0.1, 15.0, 0.5), (0.01, 3.0, 0.2), (0.01, 100.0, 0.5), (0.3, 15.0, 0.2)])
def test_floored_walks_stay_within_their_step_cap(h_max, rho, T):
    # Every step floors at h_min, and a rounded landing fl(t + h_min) can fall
    # short of t + h_min, so some walks take more than T / h_min + switches steps.
    g = s.validate_generator([[-3.0, 3.0], [3.0, -3.0]])
    zero = s.linear_model(s.LinearModelParams(mu=(0.0, 0.0), sigma=(0.0, 0.0)))
    result = assert_engines_agree(zero, g, 1e20, "uniform", T, s.StepParams(h_max, rho, 10.0),
                                  3, 2, 5, "milstein", 4)
    assert not result[4].any()


def test_norms_whose_power_overflows_agree():
    # k = 0.5: |Y|^2 is beyond the float range near 1e200, so those steps floor.
    g = s.validate_generator([[-2.0, 2.0], [2.0, -2.0]])
    model = s.linear_model(s.LinearModelParams(mu=(-0.5, 0.1), sigma=(0.5, 0.2)))
    result = assert_engines_agree(model, g, (5e199, 2e200), "uniform", 0.5,
                                  s.StepParams(0.1, 15.0, 0.5), 3, 2, 3, "milstein", 4)
    assert not result[4].any() and result[3].sum() > 0


def _replayed_indices(monkeypatch, outcome=None):
    """The index of each scalar replay the harness runs, in call order; with
    ``outcome`` set, each replay returns it in place of walking."""
    substream_calls, replayed = [], []
    substream, solve = harness.substream_rng, harness.solve_terminal

    def substream_spy(seed, index, stream):
        substream_calls.append(index)
        return substream(seed, index, stream)

    def solve_spy(*args):
        replayed.append(substream_calls[-1])  # the replay's fresh noise stream
        return solve(*args) if outcome is None else outcome

    monkeypatch.setattr(harness, "substream_rng", substream_spy)
    monkeypatch.setattr(harness, "solve_terminal", solve_spy)
    return replayed


def test_each_failed_index_is_replayed_once(monkeypatch):
    expected = [idx for idx, (_, outcome) in enumerate(_replay(*FAILING))
                if isinstance(outcome, Exception)]
    assert 0 < len(expected) < 15
    replayed = _replayed_indices(monkeypatch)
    monkeypatch.setattr(harness, "LANE_GROUP", 4)
    harness._simulate_terminals(*FAILING)
    assert replayed == expected


def test_a_study_builds_generators_for_the_noise_stream_alone(monkeypatch):
    # The initial, aux and chain streams are drawn as lanes; a group's noise
    # stream builds one generator a lane, and each replay one more.  A group
    # derives its chain, aux and noise streams in one pass.
    failed = [idx for idx, (_, outcome) in enumerate(_replay(*FAILING))
              if isinstance(outcome, Exception)]
    derived, built = [], []
    derive, derive_states = streams.substream_rngs, streams.substream_states

    def derive_spy(seed, indices, stream):
        derived.append(((stream,), list(indices)))
        return derive(seed, indices, stream)

    def states_spy(seed, indices, tags):
        derived.append((tuple(tags), list(indices)))
        return derive_states(seed, indices, tags)

    class Counted(np.random.Generator):
        def __init__(self, bit_generator):
            built.append(bit_generator)
            super().__init__(bit_generator)

    # A group's streams come through harness's binding of substream_states, a
    # replay's generator through the substream_rngs that streams.substream_rng
    # calls.
    monkeypatch.setattr(harness, "substream_states", states_spy)
    monkeypatch.setattr(streams, "substream_rngs", derive_spy)
    monkeypatch.setattr(np.random, "Generator", Counted)
    monkeypatch.setattr(harness, "LANE_GROUP", 4)
    harness._simulate_terminals(*FAILING)
    total = FAILING[6] * FAILING[7]
    expected = []
    for first in range(0, total, 4):
        group = list(range(first, min(first + 4, total)))
        expected += [((harness.CHAIN_STREAM, harness.AUX_STREAM, harness.NOISE_STREAM), group)]
        expected += [((harness.NOISE_STREAM,), [idx]) for idx in failed if idx in group]
    assert derived == expected
    assert len(built) == total + len(failed)


def test_study_without_failures_replays_nothing(monkeypatch):
    g = s.validate_generator([[-2.0, 2.0], [2.0, -2.0]])
    model = s.linear_model(s.LinearModelParams(mu=(-0.5, 0.1), sigma=(0.5, 0.2)))
    replayed = _replayed_indices(monkeypatch)
    failed = harness._simulate_terminals(model, g, (0.5, 3.0), "uniform", 0.5,
                                         s.StepParams(0.03, 15.0, 10.0), 4, 3, 2, "milstein")[4]
    assert not failed.any() and replayed == []


def test_replay_that_succeeds_is_an_engine_disagreement(monkeypatch):
    first = next(idx for idx, (_, outcome) in enumerate(_replay(*FAILING))
                 if isinstance(outcome, Exception))
    _replayed_indices(monkeypatch, outcome=(0.0, 1, 0))
    with pytest.raises(RuntimeError, match=f"trajectory {first} failed") as exc:
        harness._simulate_terminals(*FAILING)
    assert not isinstance(exc.value, errors.SwitchSDEError)


def _scalar_queries(model, g, initial, r0, T, p, n_initials, runs, seed, scheme):
    """Per index, the end times of the increments its scalar walk asks for,
    up to the step it raises on, and whether it raised."""
    queries = []
    for idx in range(n_initials * runs):
        x0 = float(harness._draw_initials(initial, seed, [idx // runs])[0])
        chain = harness.trajectory_chain(g, r0, T, seed, idx)
        path = _RecordedPath(s.BrownianPath(harness.substream_rng(seed, idx,
                                                                  harness.NOISE_STREAM)))
        try:
            s.solve_terminal(model, chain, path, x0, T, p, scheme)
        except errors.SwitchSDEError:
            queries.append((path.queries, chain, True))
        else:
            queries.append((path.queries, chain, False))
    return queries


@pytest.mark.parametrize("initial", [FAILING[2], math.inf, -math.inf])
def test_each_lane_asks_w_where_its_scalar_walk_does(monkeypatch, initial):
    # The failing study's lanes fail mid-piece, on explicit overflows and on
    # backstops without a root; an infinite start fails on its first step.
    # Each lane's draws stop where its scalar walk raises.
    study = FAILING[:2] + (initial,) + FAILING[3:]
    infinite = initial in (math.inf, -math.inf)
    logs = []
    monkeypatch.setattr(harness, "ForwardNoise", _recording(ForwardNoise, logs))
    monkeypatch.setattr(harness, "LANE_GROUP", 4)
    try:
        harness._simulate_terminals(*study)
    except errors.AllTrajectoriesFailedError:
        assert infinite
    expected = _scalar_queries(*study)
    lanes = [log[j] for log in logs for j in range(4)][:len(expected)]
    assert lanes == [queries for queries, _, _ in expected]
    T = FAILING[4]
    failures = [(queries, chain) for queries, chain, raised in expected if raised]
    if infinite:
        assert len(failures) == len(expected) and all(len(q) == 1 for q, _ in failures)
    else:  # some lane fails on a step that ends inside its piece
        assert any(q[-1] not in chain.switch_times + (T,) for q, chain in failures)


def test_each_coupled_lane_asks_w_where_its_scalar_walk_does(monkeypatch):
    # TWO_FAILURES: sample 9 fails at h_max 0.125 and walks no coarser
    # one; sample 65 fails at the finest.  Level by level, finest first,
    # each lane asks the bridge source for W where its scalar walk asks it
    # of the path its exact value started.
    params, g, x0, T, grid, rho, k, M, seed, scheme, r0 = TWO_FAILURES
    model = s.linear_model(params)
    step_params = [s.StepParams(h_max=h, rho=rho, k=k) for h in grid]
    chains = harness._trajectory_chains(g, r0, T, seed, range(M))
    logs = []
    monkeypatch.setattr(harness, "BridgeNoise", _recording(noise.BridgeNoise, logs))
    *_, failed = harness._coupled_errors(
        params, model, x0, T, step_params, scheme, chains,
        streams.substream_rngs(seed, range(M), harness.NOISE_STREAM),
        sum(math.ceil(T / h) for h in grid))
    assert np.flatnonzero(failed).tolist() == [9, 65]
    assert len(logs) == 1 + len(grid) and not logs[0]  # a log per level, after its merge
    walked = []
    for j, rng in enumerate(streams.substream_rngs(seed, range(M), harness.NOISE_STREAM)):
        path, expected = s.BrownianPath(rng), []
        try:
            s.exact_linear_solution(params, x0, chains.path(j), path, T)
            for p in reversed(step_params):
                expected.append(_RecordedPath(path))
                s.solve_terminal(model, chains.path(j), expected[-1], x0, T, p, scheme)
        except errors.SwitchSDEError:
            pass
        expected = [level.queries for level in expected]
        walked.append(len(expected))
        assert [level[j] for level in logs[1:]] == expected + [[]] * (len(grid) - len(expected))
    assert walked[9] == 2 and walked[65] == 1  # h_max 0.125 is the second level walked


@pytest.mark.parametrize("scheme", ["milstein", "em"])
def test_telomere_lanes_that_cross_zero_agree(scheme):
    # A drift of about -5 bp/day takes initials below 2.5 bp under zero within
    # half a day, where the diffusion and its derivative are extended by zero.
    g = s.validate_generator([[-4.0, 4.0], [4.0, -4.0]])
    model = s.telomere_regime_model([(4.5, 0.22e-6), (7.5, 0.41e-6)])
    x0, y, n_steps, n_backstop, failed = assert_engines_agree(
        model, g, (0.1, 4.0), "uniform", 0.5, s.StepParams(0.03, 15.0, 10.0), 6, 2, 9,
        scheme, 5)
    assert not failed.any() and (x0 > 0.0).all()
    assert (y < 0.0).sum() >= 4 and (y > 0.0).any()


@pytest.mark.parametrize("model", [
    s.linear_model(s.LinearModelParams(mu=(0.1, -0.2), sigma=(0.3, 0.4))),
    s.telomere_regime_model([(4.5, 0.22e-6), (7.5, 0.41e-6)])])
@pytest.mark.parametrize("chain", [s.MarkovPath(1, (0.2,), (3,), 0.5),
                                   s.MarkovPath(3, (), (), 0.5)])
def test_state_outside_the_model_raises_as_in_the_scalar_walk(model, chain):
    p = s.StepParams(0.03, 15.0, 10.0)
    chains = [s.MarkovPath(2, (0.1,), (1,), 0.5), chain]
    with pytest.raises(errors.StateIndexError) as scalar:
        s.solve_terminal(model, chain, s.BrownianPath(np.random.default_rng(1)), 1.0, 0.5, p)
    with pytest.raises(errors.StateIndexError) as lanes:
        schemes.solve_terminals(model, s.Chains.of(chains),
                                ForwardNoise([np.random.default_rng(j) for j in range(2)],
                                             [8, 8]),
                                [1.0, 1.0], 0.5, p)
    assert str(lanes.value) == str(scalar.value) == "state 3 outside 1..2"


class _RecordedPath:
    """A scalar path that logs the end time of each increment asked of it."""

    def __init__(self, path):
        self.path, self.queries = path, []

    def increment(self, t, t_next):
        self.queries.append(t_next)
        return self.path.increment(t, t_next)


def _recording(source, logs):
    """The lane noise class ``source``, logging the ``t_next`` that each lane
    asks for: ``logs`` gains a log ``{lane: [t_next, ...]}`` for each source
    made and for each ``merge`` (a coupled level)."""
    class Recording(source):
        def __init__(self, *args):
            super().__init__(*args)
            logs.append(defaultdict(list))

        def merge(self):
            logs.append(defaultdict(list))
            super().merge()

        def advance(self, lane, t, w, t_next, dt=None):
            for j, t_j in zip(lane.tolist(), t_next.tolist()):
                logs[-1][j].append(t_j)
            return super().advance(lane, t, w, t_next, dt)

    return Recording


def _lanes_against_scalar_walks(model, chains, x0, T, p):
    """Walk ``chains`` as lanes on ForwardNoise (lane j on generator 200 + j,
    its blocks sized as a study sizes them) and compare each lane with its
    scalar walk, the times it asks W at included, so a failed lane stops
    where its scalar walk raises; returns the failed mask."""
    n, logs = len(chains), []
    steps = s.stepping.expected_mesh_sizes(T, p, x0, [c.num_switches for c in chains])
    y, n_steps, n_backstop, failed = schemes.solve_terminals(
        model, s.Chains.of(chains),
        _recording(ForwardNoise, logs)([np.random.default_rng(200 + j) for j in range(n)],
                                       steps), x0, T, p)
    for j, chain in enumerate(chains):
        path = _RecordedPath(s.BrownianPath(np.random.default_rng(200 + j)))
        try:
            y_ref, steps_ref, backstops_ref = s.solve_terminal(model, chain, path, x0[j], T, p)
        except errors.SwitchSDEError:
            assert failed[j] and math.isnan(y[j]) and n_steps[j] == n_backstop[j] == 0
        else:
            assert not failed[j] and float(y[j]).hex() == y_ref.hex()
            assert (n_steps[j], n_backstop[j]) == (steps_ref, backstops_ref)
        assert logs[0][j] == path.queries
    return failed


def test_coefficient_rows_follow_pieces_as_lanes_leave():
    # Break intensities 100x apart, about 15 switches per lane: a lane whose
    # row is not gathered on entering a piece, or whose rows shift when
    # another lane leaves, takes the other state's coefficients.  Lane 2
    # starts NaN, lane 4 overflows on its first step, and the lanes from
    # -6e5 down lose their backstop root at different times.
    model = s.telomere_regime_model([(4.5, 1e-7), (7.5, 1e-5)])
    g = s.validate_generator([[-30.0, 30.0], [30.0, -30.0]])
    x0 = [3000.0, -4e5, math.nan, 8000.0, 1e200, -5e5, 1000.0, -6e5, 5000.0, -8e5,
          2000.0, -1e6, 4000.0, -7e5]
    chains = [s.simulate_chain(g, 1 + j % 2, 0.5, np.random.default_rng(100 + j))
              for j in range(len(x0))]
    failed = _lanes_against_scalar_walks(model, chains, x0, 0.5, s.StepParams(0.03, 15.0, 10.0))
    assert np.flatnonzero(failed).tolist() == [2, 4, 7, 9, 11, 13]
    assert min(chain.num_switches for chain in chains) >= 8


def test_switch_tables_inside_the_model_are_checked_once_a_walk(monkeypatch):
    # About 15 switches a lane: each piece entry took its rows through
    # RegimeModel.rows, which checked the entering states every time.
    checks = []
    check = models._check_states

    def counted(states, n):
        checks.append(states.size)
        return check(states, n)

    monkeypatch.setattr(models, "_check_states", counted)
    model = s.telomere_regime_model([(4.5, 1e-7), (7.5, 1e-5)])
    g = s.validate_generator([[-30.0, 30.0], [30.0, -30.0]])
    x0 = [3000.0, 8000.0, 1000.0, 5000.0, 2000.0, 4000.0]
    chains = [s.simulate_chain(g, 1 + j % 2, 0.5, np.random.default_rng(100 + j))
              for j in range(len(x0))]
    assert min(chain.num_switches for chain in chains) >= 8
    for lanes in (chains, chains[:1]):
        checks.clear()
        failed = _lanes_against_scalar_walks(model, lanes, x0[:len(lanes)], 0.5,
                                             s.StepParams(0.03, 15.0, 10.0))
        assert not failed.any()
        # One check, of the whole switch table: a row of pieces a lane.
        assert checks == [len(lanes) * (1 + max(c.num_switches for c in lanes))]


@pytest.mark.parametrize("model, x_lost", [
    (s.linear_model(s.LinearModelParams(mu=(1.0, 1.0), sigma=(0.0, 0.0))), 1.7e308),
    (s.telomere_regime_model([(4.5, 0.22e-6), (7.5, 0.41e-6)]), -1e160)])
def test_lane_lost_on_landing_in_a_state_outside_the_model_fails(model, x_lost):
    # h_max / |x|^(1/1000) is above 0.1, so the first step is clamped onto the
    # switch into state 3 and is explicit; its value overflows there.  The
    # scalar walk fails on that step and never reads state 3; the lanes check
    # their switch tables before the first step, so state 3 raises there.
    chains = [s.MarkovPath(1, (0.1,), (3,), 0.5), s.MarkovPath(2, (0.2,), (1,), 0.5)]
    p = s.StepParams(0.3, 15.0, 1000.0)
    with pytest.raises(errors.SwitchSDEError) as scalar:
        s.solve_terminal(model, chains[0], s.BrownianPath(np.random.default_rng(200)),
                         x_lost, 0.5, p)
    assert not isinstance(scalar.value, errors.StateIndexError)
    noise = mock.Mock()
    with pytest.raises(errors.StateIndexError, match=r"^state 3 outside 1\.\.2$"):
        schemes.solve_terminals(model, s.Chains.of(chains), noise, [x_lost, 1.0], 0.5, p)
    noise.advance.assert_not_called()


def test_lane_lost_on_its_step_onto_T_fails():
    # h_max / |x|^(1/1000) is above T, so the first step is clamped onto T and
    # is explicit; its value overflows there, and the lane fails, not ends.
    model = s.linear_model(s.LinearModelParams(mu=(1.0,), sigma=(0.0,)))
    chains = [s.MarkovPath(1, (), (), 0.1)] * 2
    failed = _lanes_against_scalar_walks(model, chains, [1.7e308, 1.0], 0.1,
                                         s.StepParams(0.3, 15.0, 1000.0))
    assert failed.tolist() == [True, False]


@pytest.mark.parametrize("newton_min", [1, schemes.LANE_NEWTON_MIN])
def test_infinite_starts_take_their_first_step_and_leave(newton_min):
    # An infinite start floors its first step at h_min, as its scalar walk's
    # does, and fails there on a backstop without a root; each lane asks W
    # only at that step's end, whatever the lanes beside it do.  With
    # newton_min 1 the infinite lanes go through the lane Newton first.
    model = s.linear_model(s.LinearModelParams(mu=(-0.5, 0.2), sigma=(0.3, 0.4)))
    chains = [s.MarkovPath(1 + j % 2, (0.1 * (1 + j % 3),), (2 - j % 2,), 0.5)
              for j in range(6)]
    x0 = [math.inf, 1.0, -math.inf, 3.0, math.inf, -2.0]
    with mock.patch.object(schemes, "LANE_NEWTON_MIN", newton_min):
        failed = _lanes_against_scalar_walks(model, chains, x0, 0.5,
                                             s.StepParams(0.03, 15.0, 10.0))
    assert failed.tolist() == [math.isinf(x) for x in x0]


def test_a_scalar_drift_that_raises_on_backstop_lanes_fails_only_them():
    # A model with no lane form of its own, whose drift raises past a norm of
    # 1000.  Its steps are floored from a norm of rho^k = 100, so only the
    # backstop lanes reach that norm: their scalar walks fail there, and the
    # lanes that step explicitly beside them in the same iterations finish.
    def drift(x, i):
        if abs(x) > 1000.0:
            raise errors.NonfiniteResultError(f"drift refuses {x}")
        return -i * x

    model = s.RegimeModel(2, drift, lambda x, i: 0.1 * x, lambda x, i: 0.1)
    assert model.lanes is None
    g = s.validate_generator([[-8.0, 8.0], [8.0, -8.0]])
    x0 = [5.0, 5000.0, 20.0, -3000.0, 1.0, 2e4, 50.0]
    chains = [s.simulate_chain(g, 1 + j % 2, 0.5, np.random.default_rng(100 + j))
              for j in range(len(x0))]
    failed = _lanes_against_scalar_walks(model, chains, x0, 0.5, s.StepParams(0.03, 10.0, 2.0))
    assert failed.tolist() == [abs(x) > 1000.0 for x in x0]


def test_a_table_less_drift_that_raises_fails_only_its_trajectories():
    # A model with no lane form whose drift raises past |x| = 50: with
    # initials drawn from (1, 60), the trajectories that reach it fail on that
    # step, explicit or not, as their scalar walks do.  The ensemble counts
    # them, and no error escapes.
    def drift(x, i):
        if abs(x) > 50.0:
            raise errors.NonfiniteResultError(f"drift refuses {x}")
        return -0.5 * i * x

    model = s.RegimeModel(2, drift, lambda x, i: 0.3 * x, lambda x, i: 0.3)
    g = s.validate_generator([[-2.0, 2.0], [2.0, -2.0]])
    p = s.StepParams(0.03, 15.0, 10.0)
    replays = _replay(model, g, (1.0, 60.0), 1, 0.5, p, 20, 1, 1, "milstein")
    raised = sum(isinstance(outcome, Exception) for _, outcome in replays)
    summary = harness.run_ensemble(model, g, (1.0, 60.0), 1, 0.5, p, M=20, seed=1)
    assert summary.failed_count == raised and 0 < raised < 20


@pytest.mark.parametrize("model", [
    s.linear_model(s.LinearModelParams(mu=(0.1, -0.2), sigma=(0.3, 0.4))),
    s.telomere_regime_model([(4.5, 0.22e-6), (7.5, 0.41e-6)])])
def test_switches_at_exactly_T_walk_as_in_the_scalar_walk(model):
    # A switch at exactly T counts towards the step cap, and the piece it
    # starts, of zero length, is never entered: lane 1 switches into state 3,
    # outside the model, exactly at T.
    chains = [s.MarkovPath(1, (0.2, 0.5), (2, 1), 0.5), s.MarkovPath(2, (0.5,), (3,), 0.5),
              s.MarkovPath(1, (), (), 0.5), s.MarkovPath(2, (0.1, 0.3, 0.5), (1, 2, 1), 0.5)]
    failed = _lanes_against_scalar_walks(model, chains, [1.0, 2.0, 0.5, 3.0], 0.5,
                                         s.StepParams(0.03, 15.0, 10.0))
    assert not failed.any()


@pytest.mark.parametrize("T", [0.6, 0.25, math.nan])
def test_lanes_refuse_chains_of_another_horizon(T):
    model = s.linear_model(s.LinearModelParams(mu=(0.1, -0.2), sigma=(0.3, 0.4)))
    noise = mock.Mock()
    with pytest.raises(errors.InvalidParamsError, match=r"is not the chains' horizon 0\.5$"):
        schemes.solve_terminals(model, s.Chains.of([s.MarkovPath(1, (0.2,), (2,), 0.5)]),
                                noise, [1.0], T, s.StepParams(0.03, 15.0, 10.0))
    noise.advance.assert_not_called()


STIFF = (s.telomere_regime_model([(4.5, 0.22e-6), (7.5, 0.41e-6)]),
         s.validate_generator([[-4.0, 4.0], [4.0, -4.0]]),
         (-4e7, 1e7), "uniform", 0.5, s.StepParams(0.1, 4.0, 2.0), 8, 3, 3, "milstein")


def _states_of(m, rows):
    """The state of each lane from its coefficient row, for a model whose
    states have distinct rows."""
    table = m.rows(np.arange(1, m.num_states + 1))
    return 1 + (rows[:, :, None] == table[:, None, :]).all(axis=0).argmax(axis=1)


def test_lane_newton_batches_with_stalled_and_bisection_lanes_agree(monkeypatch):
    # rho^k = 16, so every step from |Y| >= 16 is a backstop step; the 24
    # lanes take the lane Newton on every step with a backstop lane.
    monkeypatch.setattr(schemes, "LANE_NEWTON_MIN", 1)
    batches = []
    newton = schemes._newton_values

    def spy(m, x, rows, h, dW, coef=None):
        y, solved = newton(m, x, rows, h, dW, coef)
        batches.append((m, x, _states_of(m, rows), h, dW, y, solved))
        return y, solved

    monkeypatch.setattr(schemes, "_newton_values", spy)
    failed = assert_engines_agree(*STIFF, harness.LANE_GROUP)[4]
    assert 0 < failed.sum() < failed.size

    mixed = relative = no_root = 0
    for m, x, states, h, dW, y, solved in batches:
        mixed += bool(solved.any() and not solved.all())
        for j in range(x.size):
            args = float(x[j]), int(states[j]), float(h[j]), float(dW[j]), m
            if solved[j]:  # a settled lane is what the scalar map returns
                assert float(y[j]).hex() == schemes.implicit_milstein_map(*args).hex()
                # settled by the relative bound after a stall, not by |r| <= 1e-12
                relative += abs(schemes.implicit_milstein_residual(
                    float(y[j]), *args)) > schemes.NEWTON_ABS_TOL
            else:
                with pytest.raises(errors.RootNotFoundError):
                    schemes.implicit_milstein_map(*args)
                no_root += 1
    assert mixed > 0 and relative > 0 and no_root > 0


def test_lane_newton_batches_that_split_their_second_round_agree(monkeypatch):
    # The lane Newton's second round takes the drift at y +- delta only for
    # the lanes its residual leaves unsettled.  From STIFF's model at starts
    # a tenth as large, most batches settle part of their lanes there and
    # send the rest on, and the walk still equals every lane's scalar walk.
    monkeypatch.setattr(schemes, "LANE_NEWTON_MIN", 1)
    rounds = []
    newton = schemes._newton_values

    def spy(m, x, rows, h, dW, coef=None):
        sizes = []

        def lanes(v, r, derivative):
            sizes.append(v.size)
            return m.lanes(v, r, derivative)

        counting = s.RegimeModel(m.num_states, m.drift, m.diffusion, m.diffusion_derivative,
                                 lanes=lanes, table=m.table)
        result = newton(counting, x, rows, h, dW, coef)
        rounds.append(sizes)
        return result

    monkeypatch.setattr(schemes, "_newton_values", spy)
    assert_engines_agree(*STIFF[:2], (-4e5, 1e5), *STIFF[3:], harness.LANE_GROUP)
    # Under Milstein a call's third lane-form call, if any, is the second
    # round's at y +- delta.
    split = sum(len(sizes) > 2 and 0 < sizes[2] < 2 * sizes[1] for sizes in rounds)
    assert split > len(rounds) / 2


@pytest.mark.parametrize("scheme", ["milstein", "em"])
def test_lane_newton_on_the_main_map_s_coefficients_equals_its_own_call(monkeypatch, scheme):
    # The walk hands the lane Newton the main map's (f, g, g') where the main
    # map reads g' (Milstein) and nothing under EM.  The coefficients it hands
    # over are the lane form's at the Newton's lanes, and the Newton's
    # iterates and mask from them are those of its own lane-form call.
    monkeypatch.setattr(schemes, "LANE_NEWTON_MIN", 1)
    batches = []
    newton = schemes._newton_values

    def spy(m, x, rows, h, dW, coef=None):
        batches.append((m, x, rows, h, dW, coef))
        return newton(m, x, rows, h, dW, coef)

    monkeypatch.setattr(schemes, "_newton_values", spy)
    assert_engines_agree(*STIFF[:-1], scheme, harness.LANE_GROUP)
    assert batches
    for m, x, rows, h, dW, coef in batches:
        own = m.lanes(x, rows, True)
        if scheme == "em":
            assert coef is None
            coef = own
        assert [c.tobytes() for c in coef] == [c.tobytes() for c in own]
        (y, solved), (y_own, solved_own) = (newton(m, x, rows, h, dW, coef),
                                            newton(m, x, rows, h, dW))
        assert y.tobytes() == y_own.tobytes() and solved.tolist() == solved_own.tolist()


# The coupled strong-order study: every level walks all samples as lanes on
# one bridge source, against the scalar loop that it replaced.

def _scalar_coupled(params, g, x0, T, grid, rho, k, M, seed, scheme, r0):
    """The per-sample loop that ``strong_order_study`` ran before its levels
    became lane walks, verbatim, except that it keeps each sample's Brownian
    path and step counts and records the error a sample raises in place of
    its errors."""
    model = s.linear_model(params)
    step_params = [s.StepParams(h_max=h, rho=rho, k=k) for h in grid]
    errors_ = np.empty((len(grid), M))
    steps, backstops = np.zeros((2, len(grid), M), dtype=np.int64)
    outcomes = []
    for first in range(0, M, harness.LANE_GROUP):
        samples = range(first, min(first + harness.LANE_GROUP, M))
        chains = harness._trajectory_chains(g, r0, T, seed, samples)
        noise_rngs = streams.substream_rngs(seed, samples, harness.NOISE_STREAM)
        for i, chain, noise_rng in zip(samples, map(chains.path, range(len(chains))),
                                       noise_rngs):
            path = s.BrownianPath(noise_rng)
            try:
                exact = s.exact_linear_solution(params, x0, chain, path, T)
                for lvl in range(len(grid) - 1, -1, -1):  # finest level queries first
                    y, steps[lvl, i], backstops[lvl, i] = s.solve_terminal(
                        model, chain, path, x0, T, step_params[lvl], scheme)
                    errors_[lvl, i] = y - exact
            except errors.SwitchSDEError as exc:
                outcomes.append(exc)
            else:
                outcomes.append(path)
    return errors_, steps, backstops, outcomes


def _lane_coupled(params, g, x0, T, grid, rho, k, M, seed, scheme, r0, room):
    """``harness._coupled_errors`` over samples 0..M-1, and its bridge source."""
    sources = []
    solve = harness.solve_terminals

    def spy(*args):
        sources.append(args[2])
        return solve(*args)

    step_params = [s.StepParams(h_max=h, rho=rho, k=k) for h in grid]
    samples = range(M)
    with mock.patch.object(harness, "solve_terminals", spy), warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        *result, failed = harness._coupled_errors(
            params, s.linear_model(params), x0, T, step_params, scheme,
            harness._trajectory_chains(g, r0, T, seed, samples),
            streams.substream_rngs(seed, samples, harness.NOISE_STREAM), room)
    assert len(sources) == len(grid) and all(src is sources[0] for src in sources)
    return *result, failed, sources[0]


def assert_coupled_engines_agree(params, g, x0, T, grid, rho, k, M, seed, scheme, r0,
                                 room=0):
    expected, steps, backstops, outcomes = _scalar_coupled(params, g, x0, T, grid, rho, k,
                                                           M, seed, scheme, r0)
    errors_, n_steps, n_backstop, failed, source = _lane_coupled(
        params, g, x0, T, grid, rho, k, M, seed, scheme, r0, room)
    assert failed.tolist() == [isinstance(o, Exception) for o in outcomes]
    source.merge()  # the coarsest level's points
    for j, outcome in enumerate(outcomes):
        if isinstance(outcome, Exception):
            continue
        assert [e.hex() for e in errors_[:, j].tolist()] == \
            [e.hex() for e in expected[:, j].tolist()]
        assert n_steps[:, j].tolist() == steps[:, j].tolist()
        assert n_backstop[:, j].tolist() == backstops[:, j].tolist()
        assert source.known_points(j) == outcome.known_points()
    return errors_, failed


@st.composite
def coupled_studies(draw):
    g = draw(generators())
    n = g.num_states
    params = s.LinearModelParams(
        mu=tuple(draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))),
        sigma=tuple(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))))
    x0 = draw(st.sampled_from([1.0, 0.5, 5.0, -3.0, 40.0]))
    T = draw(st.sampled_from([0.25, 0.5, 1.0]))
    h0, ratio = draw(st.sampled_from([0.1, 0.0625, 0.05])), draw(st.sampled_from([2.0, 3.0]))
    grid = [h0 / ratio ** j for j in range(draw(st.integers(3, 4)))]
    rho, k = draw(st.sampled_from([2.0, 4.0, 15.0])), draw(st.sampled_from([1.0, 2.0, 10.0]))
    M = draw(st.integers(1, 6))
    seed = draw(st.integers(0, 2 ** 32))
    scheme = draw(st.sampled_from(["milstein", "em"]))
    room = draw(st.sampled_from([0, 40, 400]))  # the bridge source grows its arrays past it
    return params, g, x0, T, grid, rho, k, M, seed, scheme, draw(st.integers(1, n)), room


@settings(max_examples=60, deadline=None)
@given(coupled_studies())
def test_coupled_lanes_equal_the_scalar_loop(study):
    assert_coupled_engines_agree(*study)


def test_coupled_lanes_with_hits_bridges_and_backstops_agree():
    # |Y| >= rho^k = 4 floors every step at h_min, and the meshes of a
    # threefold grid share points, so lanes hit known points between bridges.
    g = s.validate_generator([[-3.0, 3.0], [3.0, -3.0]])
    params = s.LinearModelParams(mu=(0.2, -0.3), sigma=(0.4, 0.3))
    errors_, failed = assert_coupled_engines_agree(
        params, g, 5.0, 0.5, [0.09, 0.03, 0.01], 2.0, 2.0, 12, 3, "milstein", 1)
    assert not failed.any()


def test_coupled_study_reports_the_step_counts_of_the_scalar_loop():
    # Each level's mean step count and backstop share, with no second walk.
    g = s.validate_generator([[-3.0, 3.0], [3.0, -3.0]])
    params = s.LinearModelParams(mu=(0.2, -0.3), sigma=(0.4, 0.3))
    study = (params, g, 5.0, 0.5, [0.09, 0.03, 0.01], 2.0, 2.0, 100, 3, "milstein", 1)
    _, steps, backstops, _ = _scalar_coupled(*study)
    report = s.strong_order_study(*study)
    assert report.mean_steps == tuple(steps.mean(axis=1).tolist())
    assert report.backstop_fractions == tuple(
        (backstops.sum(axis=1) / steps.sum(axis=1)).tolist())
    assert 0.0 < min(report.backstop_fractions)


# Two samples fail: sample 9 at the third level (h_max 0.125, a backstop
# without a root) and sample 65 at the finest (an explicit step overflows),
# which the lanes walk first.  The study logs both and raises sample 9's error.
TWO_FAILURES = (s.LinearModelParams(mu=(0.0, -20.0, -40.0), sigma=(0.1, 0.1, 0.1)),
                s.validate_generator([[-0.04, 0.02, 0.02], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
                1e305, 1.0, [0.5, 0.25, 0.125, 0.0625], 2.0, 1e6, 100, 7, "milstein", 1)


def test_coupled_study_raises_the_error_of_its_lowest_failed_sample():
    _, failed = assert_coupled_engines_agree(*TWO_FAILURES)
    assert np.flatnonzero(failed).tolist() == [9, 65]
    *_, outcomes = _scalar_coupled(*TWO_FAILURES)
    params, g, x0, T, grid, rho, k, M, seed, scheme, r0 = TWO_FAILURES
    failures = _Failures()
    logger = logging.getLogger("switchsde.harness")
    logger.addHandler(failures)
    try:
        with pytest.raises(errors.RootNotFoundError) as raised:
            s.strong_order_study(params, g, x0, T, grid, rho, k, M, seed, scheme, r0)
    finally:
        logger.removeHandler(failures)
    # Each failed sample is logged, in sample order, before the study raises.
    assert [m.split(":")[0] for m in failures.messages] == ["trajectory 9 failed",
                                                            "trajectory 65 failed"]
    assert _same_error(raised.value, outcomes[9])
    assert isinstance(outcomes[65], errors.NonfiniteResultError)


def test_coupled_study_raises_an_overflowing_exact_value_in_sample_order():
    # State 2 grows like exp(800 t): a sample that reaches it early overflows
    # its exact value, and the scalar loop raises the first such sample's error
    # unless an earlier sample failed in a level.
    params = s.LinearModelParams(mu=(0.0, 800.0), sigma=(0.1, 0.1))
    g = s.validate_generator([[-0.5, 0.5], [0.0, 0.0]])
    study = (params, g, 1.0, 1.0, [0.1, 0.05, 0.025], 15.0, 10.0, 100, 4, "em", 1)
    *_, outcomes = _scalar_coupled(*study)
    first = next(o for o in outcomes if isinstance(o, Exception))
    assert any(isinstance(o, errors.NonfiniteResultError) for o in outcomes)
    with pytest.raises(type(first)) as raised:
        s.strong_order_study(*study)
    assert _same_error(raised.value, first)


def test_coupled_study_in_groups_that_a_fine_grid_makes_small(monkeypatch):
    # About 3 samples per group: the results do not depend on the grouping.
    g = s.validate_generator([[-1.0, 1.0], [1.0, -1.0]])
    params = s.LinearModelParams(mu=(0.5, -0.5), sigma=(0.3, 0.5))
    study = (params, g, 1.0, 1.0, [0.0625, 0.03125, 0.015625], 15.0, 10.0, 100, 42)
    whole = s.strong_order_study(*study)
    groups = []
    solve = harness.solve_terminals
    monkeypatch.setattr(harness, "COUPLED_POINTS", 3 * (16 + 32 + 64))
    monkeypatch.setattr(harness, "solve_terminals", lambda *args: groups.append(
        len(args[1])) or solve(*args))
    assert s.strong_order_study(*study) == whole
    assert groups == [3] * 99 + [1] * 3


def test_coupled_replay_that_succeeds_is_an_engine_disagreement(monkeypatch):
    monkeypatch.setattr(harness, "solve_terminal", lambda *args: (0.0, 1, 0))
    with pytest.raises(RuntimeError, match="trajectory 9 failed in the batched walk"):
        s.strong_order_study(*TWO_FAILURES)
